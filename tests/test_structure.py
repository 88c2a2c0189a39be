"""Unit tests for expressions, the merge/move rules, and derivation trees.

The one-pass evaluator is also checked against ``oracle.eval_reference``,
the fold over the derivation tree that it replaced.
"""

import itertools
import random
import time

import numpy as np
import pytest

import oracle
import pdmg
from conftest import SMC_WH_LEXICON, SMC_WH_REFS, data_path, random_lexicon
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
    PdmgError,
    SmcViolation,
    count_nodes,
    derived_category,
    eval_expression,
    eval_sequence,
    eval_tree,
    is_wellformed,
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
from pdmg.cli import resolve_item


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


# --- the one-pass evaluator against the tree fold it replaced --------------


FIXTURES = ("ambig", "chain", "move2", "symmetric", "whq")


def _outcome(fn, arg):
    try:
        return fn(arg)
    except PdmgError as exc:  # compared by type and message
        return type(exc), str(exc)


def _plain(e):
    """An Expression, the package's or the oracle's, as comparable data."""
    if isinstance(e, tuple):  # an error outcome
        return e
    return (e.head.words, e.head.suffix,
            tuple((m.words, m.suffix) for m in e.movers), str(e))


def _assert_same_evaluation(seq):
    want_expression = _plain(_outcome(oracle.eval_reference, seq))
    assert _plain(_outcome(eval_expression, seq)) == want_expression, seq
    want = _outcome(oracle.eval_reference_result, seq)
    got = _outcome(lambda s: (derived_category(s), eval_sequence(s)), seq)
    assert got == want, seq
    tree = _outcome(seq_to_tree, seq)
    if not isinstance(tree, tuple):
        assert _plain(_outcome(eval_tree, tree)) == want_expression


@pytest.mark.parametrize("name", FIXTURES)
def test_census_matches_the_tree_fold(name):
    """Every sequence of up to 5 items, arity errors included."""
    lex = pdmg.load_lexicon(data_path(f"{name}.lex"))
    for n in range(1, 6):
        for seq in itertools.product(lex.items, repeat=n):
            _assert_same_evaluation(seq)


def _balanced(rng: random.Random, lex, guided: bool):
    """A random sequence grown top-down from one slot, cut at 12 items: each
    item of any category, or (``guided``) of the category its slot selects."""
    seq, todo = [], [None]
    while todo and len(seq) < 12:
        cat = todo.pop()
        pool = (lex.items_of_category(cat)
                if guided and cat and lex.has_category(cat) else lex.items)
        item = rng.choice(pool)
        seq.append(item)
        todo += [f.name for f in reversed(item.selectors)]
    return tuple(seq)


def test_random_lexicons_match_the_tree_fold():
    for seed in range(400):
        rng = random.Random(seed)
        lex = random_lexicon(rng)
        for _ in range(8):
            _assert_same_evaluation(
                tuple(rng.choice(lex.items) for _ in range(rng.randint(1, 6))))
            _assert_same_evaluation(_balanced(rng, lex, guided=False))
            _assert_same_evaluation(_balanced(rng, lex, guided=True))


@pytest.mark.parametrize("name", FIXTURES)
def test_sampler_proposals_match_the_tree_fold(name, monkeypatch):
    """Every proposal the sampler checks, accepted or rejected."""
    lex = pdmg.load_lexicon(data_path(f"{name}.lex"))
    proposals = []

    def recording(seq):
        proposals.append(seq)
        return pdmg.is_wellformed(seq)

    monkeypatch.setattr(pdmg.model, "is_wellformed", recording)
    theta = pdmg.uniform_theta(lex)
    for start in sorted(lex.root_categories):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            for _ in range(25):
                pdmg.sample_derivation(lex, theta, pdmg.SampleConfig(start), rng)
    assert proposals
    for seq in proposals:
        _assert_same_evaluation(seq)


# Movers with one licensee meet in a plain merge (x, y and z), a move_again
# turns a mover's lead into another mover's (h under +f), and heads with
# licensors left over show the order of the movers they keep.
SMC_LEXICON = """\
x :: =a =b c
x :: =b a= c
ε :: =a =b +f c
ε :: =a +f +g c
ε :: =a +f c
y :: =d =d a
z :: =d =d b
e :: d -e
f :: d -f
g :: d -g
h :: d -f -g
k :: d
"""


def test_shortest_move_in_every_rule_matches_the_tree_fold():
    """Every sequence that fills each selector with an item of its category;
    the cursor checker accepts exactly those that evaluate."""
    lex = pdmg.parse_lexicon(SMC_LEXICON)
    smc = set()
    todo = [((), ("c",))]
    while todo:
        seq, slots = todo.pop()
        if slots:
            for item in lex.items_of_category(slots[-1]):
                todo.append((seq + (item,), slots[:-1] + tuple(
                    f.name for f in reversed(item.selectors))))
            continue
        _assert_same_evaluation(seq)
        got = _outcome(eval_sequence, seq)
        assert is_wellformed(seq) == (not isinstance(got, tuple)), seq
        if isinstance(got, tuple) and got[0] is SmcViolation:
            smc.add(got[1])
    assert smc == {f"two movers lead with -{y}" for y in "efg"}


def test_two_wh_movers_in_flight_violate_the_smc():
    """The sequence the cursor checker rejects by its rule 4b stops at the SMC."""
    lex = pdmg.parse_lexicon(SMC_WH_LEXICON)
    seq = tuple(resolve_item(lex, r) for r in SMC_WH_REFS)
    with pytest.raises(SmcViolation, match="^two movers lead with -wh$"):
        eval_sequence(seq)
    _assert_same_evaluation(seq)


def test_public_rules_match_the_reference_rules():
    """Each rule on pairs of expressions from the whq and move2 censuses,
    movers included, and on hand-made expressions the pass never builds."""
    pool = []
    for name in ("whq", "move2"):
        lex = pdmg.load_lexicon(data_path(f"{name}.lex"))
        pool += [oracle.leaf_expression(it) for it in lex.items]
        for n in range(2, 6):
            for seq in itertools.product(lex.items, repeat=n):
                e = _outcome(oracle.eval_reference, seq)
                if not isinstance(e, tuple):
                    pool.append(e)
    pool += [
        oracle.Expression(oracle.Chain(("x",), feats("=d +p +q c")),
                          (oracle.Chain(("a",), feats("-q")),
                           oracle.Chain(("b",), feats("-p -q")))),
        oracle.Expression(oracle.Chain(("y", "z"), feats("d =v")),
                          (oracle.Chain(("c",), feats("-q")),
                           oracle.Chain((), feats("-p")))),
        oracle.Expression(oracle.Chain(("", "w"), feats("d -q")),
                          (oracle.Chain(("e",), feats("-p")),)),
        oracle.Expression(oracle.Chain((), feats("d= c")),
                          (oracle.Chain(("g",), feats("-q")),
                           oracle.Chain(("f",), feats("-p")))),
        oracle.Expression(oracle.Chain(("h",), feats("d")),
                          (oracle.Chain(("c",), feats("-p")),
                           oracle.Chain(("d",), feats("-q")))),
    ]

    def mine(e):
        return Expression(Chain(e.head.words, e.head.suffix),
                          tuple(Chain(m.words, m.suffix) for m in e.movers))

    binary = ("merge_left", "merge_right", "merge_mover")
    for s in pool:
        for rule in ("move_final", "move_again"):
            want = _plain(_outcome(getattr(oracle, rule), s))
            assert _plain(_outcome(getattr(pdmg, rule), mine(s))) == want
        for t in pool:
            for rule in binary:
                want = _plain(_outcome(lambda a: getattr(oracle, rule)(*a), (s, t)))
                got = _outcome(lambda a: getattr(pdmg, rule)(*a), (mine(s), mine(t)))
                assert _plain(got) == want, (rule, str(s), str(t))


def test_evaluation_is_linear_in_length():
    """ε a×N b at N = 200,000: seconds for one pass; a fold that copies the
    head's words at every merge would take minutes."""
    lex = pdmg.parse_lexicon("a :: =x x\nb :: x\nε :: =x c\n")
    a, b, eps = lex.item(0, 0), lex.item(0, 1), lex.item(1, 0)
    n = 200_000
    start = time.perf_counter()
    words = eval_sequence((eps,) + (a,) * n + (b,))
    assert time.perf_counter() - start < 10.0
    assert words == "a " * n + "b"
