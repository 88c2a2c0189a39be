"""Unit tests for expressions, the merge/move rules, and derivation trees."""

import pytest

import pdmg
from pdmg import (
    ArityError,
    Chain,
    EvalError,
    Expression,
    Feature,
    FeatureKind,
    FeatureMismatch,
    Leaf,
    MergeNode,
    MoveNode,
    SmcViolation,
    count_nodes,
    derived_category,
    eval_sequence,
    eval_tree,
    leaf_expression,
    merge_left,
    merge_mover,
    merge_right,
    move_again,
    move_final,
    render_tree,
    seq_to_tree,
    tree_to_seq,
)


def F(text: str) -> Feature:
    return pdmg.parse_feature(text)


def feats(text: str) -> tuple:
    return tuple(F(t) for t in text.split())


class TestExpressionInvariants:
    def test_mover_must_lead_with_licensee(self):
        with pytest.raises(FeatureMismatch):
            Expression(Chain((), feats("c")), (Chain(("w",), feats("d")),))

    def test_two_movers_same_licensee_rejected(self):
        m1 = Chain(("a",), feats("-wh"))
        m2 = Chain(("b",), feats("-wh"))
        with pytest.raises(SmcViolation):
            Expression(Chain((), feats("+wh c")), (m1, m2))

    def test_distinct_licensees_allowed(self):
        m1 = Chain(("a",), feats("-p"))
        m2 = Chain(("b",), feats("-q"))
        e = Expression(Chain((), feats("+p +q c")), (m1, m2))
        assert len(e.movers) == 2

    def test_str_uses_epsilon_for_empty_words(self):
        e = Expression(Chain((), feats("c")))
        assert "ε" in str(e)


class TestMergeRules:
    def test_merge_right_word_order(self):
        s = Expression(Chain(("see",), feats("=d v")))
        t = Expression(Chain(("kim",), feats("d")))
        out = merge_right(s, t)
        assert out.head.words == ("see", "kim")
        assert out.head.suffix == feats("v")
        assert out.movers == ()

    def test_merge_left_word_order(self):
        s = Expression(Chain(("see",), feats("d= v")))
        t = Expression(Chain(("kim",), feats("d")))
        out = merge_left(s, t)
        assert out.head.words == ("kim", "see")
        assert out.head.suffix == feats("v")

    def test_merge_right_rejects_left_selector(self):
        s = Expression(Chain(("x",), feats("d= v")))
        t = Expression(Chain(("y",), feats("d")))
        with pytest.raises(FeatureMismatch):
            merge_right(s, t)

    def test_merge_left_rejects_right_selector(self):
        s = Expression(Chain(("x",), feats("=d v")))
        t = Expression(Chain(("y",), feats("d")))
        with pytest.raises(FeatureMismatch):
            merge_left(s, t)

    def test_merge_rejects_category_mismatch(self):
        s = Expression(Chain(("x",), feats("=d v")))
        t = Expression(Chain(("y",), feats("n")))
        with pytest.raises(FeatureMismatch):
            merge_right(s, t)

    def test_merge_rejects_argument_with_remainder(self):
        # a plain merge needs the argument to be exactly its category
        s = Expression(Chain(("x",), feats("=d v")))
        t = Expression(Chain(("y",), feats("d -wh")))
        with pytest.raises(FeatureMismatch):
            merge_right(s, t)

    def test_merge_mover_parks_the_argument(self):
        s = Expression(Chain(("see",), feats("=d v")))
        t = Expression(Chain(("what",), feats("d -wh")))
        out = merge_mover(s, t)
        assert out.head.words == ("see",)
        assert out.head.suffix == feats("v")
        assert out.movers == (Chain(("what",), feats("-wh")),)

    def test_merge_mover_needs_a_remainder(self):
        s = Expression(Chain(("see",), feats("=d v")))
        t = Expression(Chain(("kim",), feats("d")))
        with pytest.raises(FeatureMismatch):
            merge_mover(s, t)

    def test_merge_right_mover_order(self):
        # existing movers of s come first, then t's
        ms = Chain(("a",), feats("-p"))
        mt = Chain(("b",), feats("-q"))
        s = Expression(Chain(("x",), feats("=d v")), (ms,))
        t = Expression(Chain(("y",), feats("d")), (mt,))
        assert merge_right(s, t).movers == (ms, mt)

    def test_merge_left_mover_order(self):
        ms = Chain(("a",), feats("-p"))
        mt = Chain(("b",), feats("-q"))
        s = Expression(Chain(("x",), feats("d= v")), (ms,))
        t = Expression(Chain(("y",), feats("d")), (mt,))
        assert merge_left(s, t).movers == (mt, ms)

    def test_merge_mover_order(self):
        # s's movers, the new chain, then t's movers
        ms = Chain(("a",), feats("-p"))
        mt = Chain(("b",), feats("-q"))
        s = Expression(Chain(("x",), feats("=d v")), (ms,))
        t = Expression(Chain(("y",), feats("d -r")), (mt,))
        out = merge_mover(s, t)
        assert out.movers == (ms, Chain(("y",), feats("-r")), mt)

    def test_merge_result_can_smc_clash(self):
        ms = Chain(("a",), feats("-wh"))
        mt = Chain(("b",), feats("-wh"))
        s = Expression(Chain(("x",), feats("=d v")), (ms,))
        t = Expression(Chain(("y",), feats("d")), (mt,))
        with pytest.raises(SmcViolation):
            merge_right(s, t)


class TestMoveRules:
    def test_move_final_lands_words_left(self):
        m = Chain(("what",), feats("-wh"))
        s = Expression(Chain(("did", "you", "see"), feats("+wh c")), (m,))
        out = move_final(s)
        assert out.head.words == ("what", "did", "you", "see")
        assert out.head.suffix == feats("c")
        assert out.movers == ()

    def test_move_final_needs_exhausted_mover(self):
        m = Chain(("w",), feats("-p -q"))
        s = Expression(Chain((), feats("+p c")), (m,))
        with pytest.raises(FeatureMismatch):
            move_final(s)

    def test_move_again_keeps_the_mover(self):
        m = Chain(("w",), feats("-p -q"))
        s = Expression(Chain(("h",), feats("+p +q c")), (m,))
        out = move_again(s)
        assert out.head.words == ("h",)
        assert out.movers == (Chain(("w",), feats("-q")),)

    def test_move_again_needs_a_remainder(self):
        m = Chain(("w",), feats("-p"))
        s = Expression(Chain((), feats("+p c")), (m,))
        with pytest.raises(FeatureMismatch):
            move_again(s)

    def test_move_without_matching_mover(self):
        m = Chain(("w",), feats("-q"))
        s = Expression(Chain((), feats("+p c")), (m,))
        with pytest.raises(FeatureMismatch):
            move_final(s)

    def test_move_needs_leading_licensor(self):
        s = Expression(Chain((), feats("c")))
        with pytest.raises(FeatureMismatch):
            move_final(s)


class TestSeqToTree:
    def test_whq_question_tree_shape(self, whq_seq):
        tree = seq_to_tree(whq_seq)
        assert count_nodes(tree) == (5, 4, 1)

    def test_leaves_in_sequence_order(self, whq_seq):
        tree = seq_to_tree(whq_seq)
        assert tree_to_seq(tree) == tuple(whq_seq)

    def test_single_item(self, whq_items):
        _, you, _, _, _ = whq_items
        tree = seq_to_tree((you,))
        assert isinstance(tree, Leaf)
        assert count_nodes(tree) == (1, 0, 0)

    def test_truncated_sequence(self, whq_items):
        _, _, _, did, eps = whq_items
        with pytest.raises(ArityError):
            seq_to_tree((eps, did))

    def test_leftover_items(self, whq_items):
        _, you, _, _, _ = whq_items
        with pytest.raises(ArityError):
            seq_to_tree((you, you))

    def test_empty_sequence(self):
        with pytest.raises(ArityError):
            seq_to_tree(())

    def test_move_node_above_merges(self, whq_seq):
        # the root item carries =i +wh c: one merge below one move
        tree = seq_to_tree(whq_seq)
        assert isinstance(tree, MoveNode)
        assert isinstance(tree.child, MergeNode)

    def test_round_trip_on_census(self, whq):
        seqs = [
            ((0, 1),),
            ((1, 0), (0, 1), (0, 1)),
            ((2, 0), (1, 0), (0, 1), (0, 1)),
            ((3, 0), (2, 0), (1, 0), (0, 0), (0, 1)),
            ((3, 0), (2, 0), (1, 0), (0, 1), (0, 0)),
        ]
        for ids in seqs:
            seq = tuple(whq.item(k, m) for k, m in ids)
            assert tree_to_seq(seq_to_tree(seq)) == seq


class TestEvalSequence:
    def test_whq_question(self, whq_seq):
        assert eval_sequence(whq_seq) == "what did you see"

    def test_whq_question_category(self, whq_seq):
        assert derived_category(whq_seq) == "c"

    def test_whq_inverted_arguments(self, whq_items):
        what, you, see, did, eps = whq_items
        assert eval_sequence((eps, did, see, what, you)) == "what did see you"

    def test_single_item(self, whq_items):
        _, you, _, _, _ = whq_items
        assert eval_sequence((you,)) == "you"
        assert derived_category((you,)) == "d"

    def test_covert_head_contributes_no_words(self, whq_items):
        what, you, see, did, eps = whq_items
        assert eval_sequence((did, see, you, you)) == "did you see you"

    def test_unlanded_mover_is_incomplete(self, whq_items):
        what, you, see, did, eps = whq_items
        with pytest.raises(EvalError):
            eval_sequence((did, see, you, what))

    def test_double_mover_smc(self, whq_items):
        what, you, see, did, eps = whq_items
        with pytest.raises(SmcViolation):
            eval_sequence((eps, did, see, what, what))

    def test_selector_category_mismatch(self, whq_items):
        what, you, see, did, eps = whq_items
        with pytest.raises(FeatureMismatch):
            eval_sequence((did, you))

    def test_licensor_without_mover(self, whq_items):
        what, you, see, did, eps = whq_items
        with pytest.raises(FeatureMismatch):
            eval_sequence((eps, did, see, you, you))

    def test_derived_category_rejects_incomplete(self, whq_items):
        what, _, _, _, _ = whq_items
        with pytest.raises(EvalError, match="head features left unchecked"):
            derived_category((what,))


class TestStressEvaluation:
    def test_remnant_order(self, chain):
        # the moved phrase carries its filled argument along
        seq = tuple(chain.item(k, m) for k, m in [(3, 0), (2, 0), (1, 0), (0, 0)])
        assert eval_sequence(seq) == "su ja ki"
        assert derived_category(seq) == "c"

    def test_two_step_movement(self, move2):
        # -p then -q on one item: move_again feeds move_final
        seq = tuple(move2.item(k, m) for k, m in [(2, 1), (1, 0), (0, 0)])
        tree = seq_to_tree(seq)
        assert count_nodes(tree) == (3, 2, 2)
        assert eval_sequence(seq) == "obj see"

    def test_ambiguous_lexicon_both_readings(self, ambig):
        transitive = tuple(ambig.item(k, m) for k, m in [(2, 0), (0, 0), (1, 1)])
        intransitive = tuple(ambig.item(k, m) for k, m in [(2, 0), (0, 1)])
        assert eval_sequence(transitive) == "saw"
        assert eval_sequence(intransitive) == "saw"


class TestEvalTree:
    def test_matches_eval_sequence(self, whq_seq):
        e = eval_tree(seq_to_tree(whq_seq))
        assert e.head.words == ("what", "did", "you", "see")
        assert e.head.suffix == feats("c")
        assert e.movers == ()

    def test_leaf_expression_covert(self, whq_items):
        *_, eps = whq_items
        e = leaf_expression(eps)
        assert e.head.words == ()
        assert e.head.suffix == feats("=i +wh c")


class TestRenderTree:
    def test_leaf(self, whq_items):
        _, you, _, _, _ = whq_items
        assert render_tree(seq_to_tree((you,))) == "you"

    def test_whq_question(self, whq_seq):
        tree = seq_to_tree(whq_seq)
        assert render_tree(tree) == (
            "[move [merge ε [merge did [merge [merge see you] what]]]]")
