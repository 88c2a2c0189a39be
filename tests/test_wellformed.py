from __future__ import annotations

import itertools
import random
from collections import Counter

import numpy as np
import pytest

import oracle
import pdmg
from conftest import (SMC_WH_LEXICON, SMC_WH_REFS, embedded_mover_lexicon,
                      random_lexicon, remnant_lexicon, rich_lexicon,
                      top_down_proposals, twin_mover_lexicon)
from pdmg import (Feature, LexicalItem, MergeNode, MoveNode,
                  TraceStep, is_wellformed, trace_wellformed)
from pdmg.cli import resolve_item

# Actions that check a feature or delete an item.
PROGRESS = {"category-match", "licensor-match", "root-category", "delete-item"}


@pytest.fixture(scope="module")
def census(whq, move2, ambig, chain, symmetric):
    """Every sequence of up to five items over each fixture lexicon."""
    return [seq for lex in (whq, move2, ambig, chain, symmetric)
            for length in range(1, 6)
            for seq in itertools.product(lex.items, repeat=length)]


def random_sequences(seeds=range(200), per_lexicon=100, max_len=9):
    """Uniform random sequences of 1 to ``max_len`` items over seeded lexicons."""
    for seed in seeds:
        rng = random.Random(seed)
        lex = random_lexicon(rng)
        for _ in range(per_lexicon):
            yield tuple(rng.choice(lex.items)
                        for _ in range(rng.randint(1, max_len)))

# The sixteen actions, in order, that check the walkthrough sequence,
# plus the terminal accept.
WHQ_ACTIONS = [
    "skip-right", "skip-right", "skip-right",   # =i, =v, d=
    "category-match", "delete-item",            # you checks, you removed
    "skip-right",                               # =d
    "category-match",                           # what checks
    "licensee-left",                            # -wh steps back
    "category-match", "delete-item",            # see checks, see removed
    "category-match", "delete-item",            # did checks, did removed
    "licensor-match",                           # +wh finds -wh
    "root-category", "delete-item",             # root c, eps removed
    "delete-item",                              # what removed
    "accept",
]


class TestWhqWalkthrough:
    def test_accepts(self, whq_seq):
        assert is_wellformed(whq_seq)

    def test_action_tags(self, whq_seq):
        t = trace_wellformed(whq_seq)
        assert t.verdict is True
        assert [s.action for s in t.steps] == WHQ_ACTIONS

    def test_positions(self, whq_seq):
        t = trace_wellformed(whq_seq)
        assert [s.position for s in t.steps] == [
            0, 1, 2, 3, 3, 2, 4, 4, 2, 2, 1, 1, 0, 0, 0, 4, -1]

    def test_single_category_item(self, whq_items):
        _, you, *_ = whq_items
        t = trace_wellformed((you,))
        assert t.verdict is True
        assert [s.action for s in t.steps] == [
            "root-category", "delete-item", "accept"]


class TestRejections:
    def test_swapped_arguments_accept(self, whq_items):
        # The other argument order is a different convergent tree
        # ("what did see you"), not an error.
        what, you, see, did, eps = whq_items
        assert is_wellformed((eps, did, see, what, you))

    def test_wrong_selector_rejects(self, whq_items):
        what, you, see, did, eps = whq_items
        t = trace_wellformed((eps, did, you, see, what))
        assert t.verdict is False
        assert t.steps[-1].action == "reject"
        assert "rule 2c" in t.steps[-1].detail

    def test_selector_dead_end(self, whq_items):
        what, you, see, did, eps = whq_items
        t = trace_wellformed((did,))
        assert t.verdict is False
        assert "rule 1" in t.steps[-1].detail

    def test_unmatched_licensor(self, whq_items):
        what, you, see, did, eps = whq_items
        t = trace_wellformed((eps, did, see, you, you))
        assert t.verdict is False
        assert "rule 4a" in t.steps[-1].detail

    def test_smc_double_mover_rejects(self, whq_items):
        what, you, see, did, eps = whq_items
        assert not is_wellformed((eps, did, see, what, what))

    def test_two_distinct_movers_resolve(self):
        # Licensors fire innermost-first and each finds the nearest item
        # leading with its own licensee; movers never block each other.
        lex = pdmg.parse_lexicon(
            "a :: d -p\nb :: e -q\nf :: =d =e v\ng :: =v +q +p c\n")
        a, b = lex.item(0, 0), lex.item(1, 0)
        f, g = lex.item(2, 0), lex.item(3, 0)
        t = trace_wellformed((g, f, a, b))
        assert t.verdict is True
        assert [s.action for s in t.steps].count("licensor-match") == 2

    def test_root_with_leftover_licensee(self):
        lex = pdmg.parse_lexicon("x :: c -w\n")
        t = trace_wellformed((lex.item(0, 0),))
        assert t.verdict is False
        assert "rule 3" in t.steps[-1].detail

    def test_empty_sequence_raises(self):
        # The PdmgError eval_sequence and seq_to_tree raise, so the CLI maps it.
        for check in (is_wellformed, trace_wellformed, pdmg.eval_sequence,
                      pdmg.seq_to_tree):
            with pytest.raises(pdmg.ArityError, match="^empty item sequence$"):
                check(())


class TestAgainstOracle:
    def test_whq_exhaustive_to_length_four(self, whq):
        for length in range(1, 5):
            for seq in itertools.product(whq.items, repeat=length):
                assert is_wellformed(seq) == oracle.check(seq)[0], \
                    [it.ref for it in seq]

    def test_stress_lexicons_to_length_five(self, move2, ambig, chain):
        for lex in (move2, ambig, chain):
            for length in range(1, 6):
                for seq in itertools.product(lex.items, repeat=length):
                    assert is_wellformed(seq) == oracle.check(seq)[0], \
                        [it.ref for it in seq]

    def test_random_lexicons_to_length_nine(self):
        accepted = 0
        for seq in random_sequences():
            verdict = is_wellformed(seq)
            assert verdict == oracle.check(seq)[0], [it.ref for it in seq]
            accepted += verdict
        assert accepted > 100  # both verdicts are exercised

    def test_whq_wellformed_census(self, whq):
        # Frozen: the complete census of accepted sequences to length 5.
        per_len = {}
        accepted = []
        for length in range(1, 6):
            n = 0
            for seq in itertools.product(whq.items, repeat=length):
                if is_wellformed(seq):
                    n += 1
                    accepted.append(tuple(it.item_id for it in seq))
            per_len[length] = n
        assert per_len == {1: 1, 2: 0, 3: 1, 4: 1, 5: 2}
        assert accepted == [
            ((0, 1),),
            ((1, 0), (0, 1), (0, 1)),
            ((2, 0), (1, 0), (0, 1), (0, 1)),
            ((3, 0), (2, 0), (1, 0), (0, 0), (0, 1)),
            ((3, 0), (2, 0), (1, 0), (0, 1), (0, 0)),
        ]


def _evaluates(seq) -> bool:
    try:
        pdmg.eval_sequence(seq)
    except pdmg.PdmgError:
        return False
    return True


class TestShortestMove:
    def test_two_wh_movers_reject_by_rule_4b(self):
        lex = pdmg.parse_lexicon(SMC_WH_LEXICON)
        seq = tuple(resolve_item(lex, r) for r in SMC_WH_REFS)
        t = trace_wellformed(seq)
        assert t.verdict is False
        assert t.steps[-1] == TraceStep(
            3, "reject", "rule 4b: who and what both lead with -wh "
            "(shortest-move constraint)")
        assert oracle.check(seq) == (False, None)
        with pytest.raises(pdmg.SmcViolation):
            pdmg.eval_sequence(seq)

    def test_every_draw_evaluates(self):
        # Without the SMC the checker passed 117 of these 3,000 draws, each
        # raising SmcViolation in the evaluator.
        lex = pdmg.parse_lexicon(
            SMC_WH_LEXICON + "met :: =d d= v\nthat :: =t c\n")
        assert set(lex.smc_risk_groups()) == {"wh"}
        theta, config = pdmg.uniform_theta(lex), pdmg.SampleConfig(start="c")
        rng = np.random.default_rng(1)
        for _ in range(3000):
            seq, _ = pdmg.sample_derivation(lex, theta, config, rng)
            assert oracle.check(seq)[0], [it.ref for it in seq]
            pdmg.eval_sequence(seq)

    def test_rich_lexicons_agree_with_oracle_and_evaluator(self):
        """Top-down proposals over lexicons whose heads take up to three
        arguments and two licensors, so that several movers, some sharing a
        licensee, are in flight at one licensor."""
        seen = {True: 0, False: 0}
        smc = 0
        for seed in range(1000):
            rng = random.Random(seed)
            lex = rich_lexicon(rng)
            for seq in top_down_proposals(lex, rng, 100):
                verdict = is_wellformed(seq)
                assert verdict == oracle.check(seq)[0], [it.ref for it in seq]
                assert verdict == _evaluates(seq), [it.ref for it in seq]
                seen[verdict] += 1
                smc += "rule 4b" in trace_wellformed(seq).steps[-1].detail
        assert min(seen.values()) > 1000 and smc > 100, (seen, smc)


AIMED = {"twin": twin_mover_lexicon, "embedded": embedded_mover_lexicon,
         "remnant": remnant_lexicon}


def aimed_proposals(make, seeds=range(400), per_lexicon=60):
    """The distinct top-down proposals over lexicons from one aimed generator."""
    for seed in seeds:
        rng = random.Random(seed)
        lex = make(rng)
        yield from dict.fromkeys(top_down_proposals(lex, rng, per_lexicon,
                                                    start="c"))


class _Fails(Exception):
    pass


def _fold(node, facts: set) -> tuple[tuple, list]:
    """(head features left, movers' features left) of a subtree, folding
    the rules bottom-up with the SMC applied only at a licensor; adds to
    ``facts`` the patterns met on the way."""
    if isinstance(node, MoveNode):
        head, movers = _fold(node.child, facts)
        hits = [i for i, m in enumerate(movers) if m[0].name == head[0].name]
        if len(hits) != 1:
            raise _Fails("4b" if hits else "other")
        i = hits[0]
        rest = [movers[i][1:]] if len(movers[i]) > 1 else []
        return head[1:], movers[:i] + rest + movers[i + 1:]
    if not isinstance(node, MergeNode):
        return node.item.features, []
    head, movers = _fold(node.head, facts)
    arg, arg_movers = _fold(node.arg, facts)
    if arg_movers and arg[0].name == "e":
        facts.add("mover leaves an embedded clause")
    if arg_movers and len(arg) > 1:
        facts.add("remnant moves")
    return head[1:], movers + ([arg[1:]] if len(arg) > 1 else []) + arg_movers


def relaxed_fold(seq) -> tuple[str | None, set]:
    """Of a top-down proposal: (None if it derives, "4b" if the first rule
    to fail in its tree's post-order is a licensor meeting two movers that
    lead with its licensee, "other" for any other failure; the patterns
    met on the way)."""
    facts: set = set()
    try:
        head, movers = _fold(pdmg.seq_to_tree(seq), facts)
    except _Fails as exc:
        return str(exc), facts
    return (None if len(head) == 1 and not movers else "other"), facts


class TestAimedGenerators:
    """Lexicons built to force the shortest-move patterns: a head taking two
    arguments with one licensee, a mover in flight out of an embedded
    clause, and remnant movement."""

    @pytest.mark.parametrize("name", sorted(AIMED))
    def test_checker_oracle_and_evaluator_agree(self, name):
        seen: Counter = Counter()
        for seq in aimed_proposals(AIMED[name]):
            refs = [it.ref for it in seq]
            verdict = is_wellformed(seq)
            assert verdict == oracle.check(seq)[0], refs
            assert verdict == _evaluates(seq), refs
            t = trace_wellformed(seq)
            assert t.verdict == verdict
            assert t.steps[-1].action == ("accept" if verdict else "reject")
            failure, facts = relaxed_fold(seq)
            assert verdict == (failure is None), refs
            assert t.steps[-1].detail.startswith("rule 4b") == (failure == "4b"), refs
            seen.update([verdict, failure] + (sorted(facts) if verdict else []))
        assert seen[True] > 300 and seen["4b"] > 40, seen
        wanted = {"embedded": "mover leaves an embedded clause",
                  "remnant": "remnant moves"}.get(name)
        assert wanted is None or seen[wanted] > 100, seen


class TestTraceShape:
    def test_trace_matches_verdict(self, whq):
        for length in range(1, 4):
            for seq in itertools.product(whq.items, repeat=length):
                t = trace_wellformed(seq)
                assert t.verdict == is_wellformed(seq)
                last = t.steps[-1].action
                assert last == ("accept" if t.verdict else "reject")

    def test_two_step_movement_trace(self, move2):
        eps, see, obj = move2.item(2, 1), move2.item(1, 0), move2.item(0, 0)
        t = trace_wellformed((eps, see, obj))
        assert t.verdict is True
        # both licensors check against the same mover, one licensee each
        licensor_steps = [s for s in t.steps if s.action == "licensor-match"]
        assert len(licensor_steps) == 2

    @pytest.mark.parametrize("source", ["census", "random"])
    def test_no_revisit_between_checks(self, source, request):
        # Between two checks or deletions the cursor visits each item at
        # most once, which is why the walk needs no record of visited items.
        seqs = (request.getfixturevalue("census") if source == "census"
                else random_sequences(seeds=range(50)))
        for seq in seqs:
            since_progress: set[int] = set()
            for step in trace_wellformed(seq).steps:
                assert step.position not in since_progress, \
                    [it.ref for it in seq]
                since_progress.add(step.position)
                if step.action in PROGRESS:
                    since_progress.clear()


def test_untraced_walk_formats_nothing(census, monkeypatch):
    """is_wellformed builds no trace detail, on accepted and rejected input."""
    def boom(*_):
        raise AssertionError("an untraced walk formatted a feature or item")

    verdicts = [is_wellformed(seq) for seq in census]
    monkeypatch.setattr(Feature, "__str__", boom)
    monkeypatch.setattr(LexicalItem, "phon_display", property(boom))
    assert [is_wellformed(seq) for seq in census] == verdicts
    assert True in verdicts and False in verdicts
