"""Unit tests for the span chart and derivation extraction."""

import itertools
import random
from collections import Counter
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from click.testing import CliRunner

import oracle
import pdmg
from conftest import data_path, random_lexicon, rich_lexicon, top_down_proposals
from pdmg import (CapExceeded, InvalidModel, ParseConfig, TrainConfig,
                  UnknownCategoryError, chart, inference, parse)
from pdmg.cli import main


def ids_of(forest) -> list[tuple[tuple[int, int], ...]]:
    return [tuple((it.cat_index, it.item_index) for it in seq)
            for seq in forest.sequences]


def CFG(start="c", **kw) -> ParseConfig:
    return ParseConfig(start=start, **kw)


class TestWhqParsing:
    def test_question_single_derivation(self, whq):
        forest = parse(whq, "what did you see".split(), CFG())
        assert forest.count == 1
        assert ids_of(forest) == [((3, 0), (2, 0), (1, 0), (0, 1), (0, 0))]

    def test_inverted_arguments(self, whq):
        forest = parse(whq, "what did see you".split(), CFG())
        assert forest.count == 1
        assert ids_of(forest) == [((3, 0), (2, 0), (1, 0), (0, 0), (0, 1))]

    def test_single_word_start_d(self, whq):
        forest = parse(whq, ["you"], CFG("d"))
        assert forest.count == 1
        assert ids_of(forest) == [((0, 1),)]

    def test_declarative_start_i(self, whq):
        forest = parse(whq, "did you see you".split(), CFG("i"))
        assert forest.count == 1
        assert ids_of(forest) == [((2, 0), (1, 0), (0, 1), (0, 1))]

    def test_ungrammatical_sentence(self, whq):
        forest = parse(whq, "you see what".split(), CFG())
        assert forest.count == 0
        assert forest.goal is None
        assert forest.sequences == ()

    def test_unknown_token(self, whq):
        forest = parse(whq, ["xyzzy"], CFG())
        assert forest.count == 0

    def test_empty_sentence_not_derivable(self, whq):
        forest = parse(whq, [], CFG())
        assert forest.count == 0

    def test_unknown_start_category(self, whq):
        with pytest.raises(UnknownCategoryError,
                           match="^unknown start category 'nope'$"):
            parse(whq, ["you"], CFG("nope"))

    def test_goal_shape(self, whq):
        forest = parse(whq, "what did you see".split(), CFG())
        assert forest.goal is not None
        assert forest.goal.start == 0
        assert forest.goal.end == 4
        assert forest.goal.movers == ()

    def test_sequences_evaluate_back_to_sentence(self, whq):
        sentence = "what did you see"
        forest = parse(whq, sentence.split(), CFG())
        for seq in forest.sequences:
            assert pdmg.eval_sequence(seq) == sentence
            assert pdmg.is_wellformed(seq)


class TestStressLexicons:
    def test_two_step_movement(self, move2):
        forest = parse(move2, "obj see".split(), CFG())
        assert ids_of(forest) == [((2, 1), (1, 0), (0, 0))]

    def test_plain_complementizer(self, move2):
        forest = parse(move2, "that see it".split(), CFG())
        assert ids_of(forest) == [((2, 0), (1, 0), (0, 1))]

    def test_ambiguous_sentence(self, ambig):
        forest = parse(ambig, ["saw"], CFG())
        assert forest.count == 2
        assert ids_of(forest) == [
            ((2, 0), (0, 0), (1, 1)),
            ((2, 0), (0, 1)),
        ]

    def test_disambiguated_by_object(self, ambig):
        forest = parse(ambig, "saw kim".split(), CFG())
        assert ids_of(forest) == [((2, 0), (0, 0), (1, 0))]

    def test_covert_argument_empty_sentence(self, ambig):
        forest = parse(ambig, [], CFG("d"))
        assert ids_of(forest) == [((1, 1),)]

    @pytest.mark.parametrize("tokens", [[""], ["", ""], ["saw", ""], ["", "saw"]])
    def test_empty_token_matches_no_item(self, ambig, tokens):
        """An empty token is an unknown token, not a covert item's span."""
        unknown = [tok or "xyzzy" for tok in tokens]
        for start in ambig.categories:
            cfg = CFG(start)
            forest = parse(ambig, tokens, cfg)
            assert (forest.count, forest.goal) == (0, None)
            assert forest.chart == parse(ambig, unknown, cfg).chart
            reference, goal, sequences = oracle.reference_parse(ambig, tokens, cfg)
            assert forest.chart.keys() == reference.keys()
            assert (goal, sequences) == (None, [])

    def test_remnant_movement(self, chain):
        forest = parse(chain, "su ja ki".split(), CFG())
        assert ids_of(forest) == [((3, 0), (2, 0), (1, 0), (0, 0))]

    def test_scrambled_remnant_rejected(self, chain):
        forest = parse(chain, "ja ki su".split(), CFG())
        assert forest.count == 0


class TestCaps:
    def test_max_covert_zero_blocks_covert_heads(self, ambig):
        forest = parse(ambig, ["saw"], CFG(max_covert=0))
        assert forest.count == 0
        assert forest.goal is not None  # derivable, just not within budget

    def test_max_covert_one_keeps_cheap_reading(self, ambig):
        forest = parse(ambig, ["saw"], CFG(max_covert=1))
        assert ids_of(forest) == [((2, 0), (0, 1))]

    def test_max_derivations_exceeded(self, ambig):
        with pytest.raises(CapExceeded):
            parse(ambig, ["saw"], CFG(max_derivations=1))

    def test_max_steps_exceeded(self, whq):
        with pytest.raises(CapExceeded):
            parse(whq, "what did you see".split(), CFG(max_steps=5))

    # The question's closure takes 15 steps and its extraction 10 more.  The
    # message names the layer that ran out and no guess at a cause: a chart
    # cycle's every turn adds a covert leaf, which max_covert bounds.
    @pytest.mark.parametrize("max_steps, layer", [
        (14, "chart closure"), (15, "derivation extraction"),
        (24, "derivation extraction")])
    def test_max_steps_message(self, whq, max_steps, layer):
        with pytest.raises(CapExceeded,
                           match=f"^{layer} exceeded {max_steps} steps$"):
            parse(whq, "what did you see".split(), CFG(max_steps=max_steps))
        assert parse(whq, "what did you see".split(), CFG(max_steps=25)).count == 1

    @pytest.mark.parametrize("name", ["max_derivations", "max_covert", "max_steps"])
    @pytest.mark.parametrize("config", [ParseConfig, TrainConfig])
    def test_negative_cap_is_bad_input(self, config, name):
        with pytest.raises(InvalidModel, match=f"^{name} must be >= 0, got -1$"):
            config(start="c", **{name: -1})

    def test_zero_caps_are_valid(self, ambig):
        cfg = CFG(max_derivations=0, max_covert=0, max_steps=0)
        assert (cfg.max_derivations, cfg.max_covert, cfg.max_steps) == (0, 0, 0)
        assert parse(ambig, ["saw"], CFG(max_covert=0)).count == 0

    def test_covert_recursion_bounded(self):
        lex = pdmg.parse_lexicon("a :: c\nε :: =c c\n")
        forest = parse(lex, ["a"], CFG(max_covert=3))
        # a; ε a; ε ε a; ε ε ε a
        assert forest.count == 4
        lengths = sorted(len(s) for s in forest.sequences)
        assert lengths == [1, 2, 3, 4]
        for seq in forest.sequences:
            assert pdmg.eval_sequence(seq) == "a"


class TestDeterminism:
    def test_repeat_parse_identical(self, ambig):
        a = parse(ambig, ["saw"], CFG())
        b = parse(ambig, ["saw"], CFG())
        assert a.sequences == b.sequences

    def test_sequences_sorted_by_ids(self, ambig):
        forest = parse(ambig, ["saw"], CFG())
        got = ids_of(forest)
        assert got == sorted(got)


class TestAgainstOracle:
    def test_whq_short_sentences(self, whq):
        vocab = sorted({it.phon for it in whq.items if it.phon})
        table = oracle.enumerate_wellformed(whq, "c", max_overt=3, max_covert=3)
        by_sentence: dict[str, list] = {}
        for ids, sentence in table:
            by_sentence.setdefault(sentence, []).append(ids)
        for sentence in oracle.all_sentences(vocab, 3):
            tokens = sentence.split()
            forest = parse(whq, tokens, CFG())
            assert ids_of(forest) == sorted(by_sentence.get(sentence, []))


CHAIN = "a :: =x x\nb :: x\nε :: =x c\n"

PP = """\
kim :: d
what :: d -wh
saw :: =d d= v
the :: =n d
man :: n
dog :: n
with :: =d n= n
with :: =d v= v
ε :: =v c
ε :: =v +wh c
"""

# Each fixture's test sentences with their start category; the fixtures'
# short sentences are covered exhaustively below as well.
FIXTURE_SENTENCES = {
    "whq": [("what did you see", "c"), ("what did see you", "c"),
            ("you", "d"), ("did you see you", "i"), ("you see what", "c"),
            ("xyzzy", "c"), ("", "c")],
    "move2": [("obj see", "c"), ("that see it", "c")],
    "ambig": [("saw", "c"), ("saw kim", "c"), ("", "d")],
    "chain": [("su ja ki", "c"), ("ja ki su", "c")],
    "symmetric": [("w", "c"), ("w", "a"), ("", "c")],
}


# sample-wh's grammar: wh- and topic movement out of embedded clauses,
# with covert tense and complementizers.
WH = """\
what :: o -wh
who :: o -wh
kim :: o
lee :: o
kim :: o -top
lee :: o -top
kim :: s
lee :: s
sandy :: s
saw :: =o s= v
met :: =o s= v
liked :: =o s= v
knows :: =c s= v
did :: =v t
ε :: =v t
ε :: =t +wh c
ε :: =t +top c
ε :: =t c
that :: =t c
"""

# Empty spans that float: a covert mover, a covert head that parks a mover
# and lands it, and covert recursion over it.
FLOAT = """\
ε :: d -f
who :: d -f
kim :: d
ε :: =v +f c
ε :: =c c
saw :: =d d= v
says :: =c v
"""


def count_paths(forest, lex, max_covert) -> int:
    """The goal's back-pointer paths with at most ``max_covert`` covert
    leaves, counted one by one: two paths to one item sequence count twice."""
    covert = {lex.global_index(it) for it in lex.covert_items()}
    memo: dict = {}

    def walk(item, budget) -> Counter:  # paths by the budget they leave
        key = (item, budget)
        if key not in memo:
            left: Counter = Counter()
            for bp in forest.chart[item]:
                if bp[0] == chart.LEX:
                    b = budget - (bp[1] in covert)
                    if b >= 0:
                        left[b] += 1
                    continue
                for b, k in walk(bp[1], budget).items():
                    if len(bp) == 2:
                        left[b] += k
                    else:
                        for b2, k2 in walk(bp[2], b).items():
                            left[b2] += k * k2
            memo[key] = left
        return memo[key]

    return sum(walk(forest.goal, max_covert).values()) if forest.goal else 0


def assert_same_as_reference(lex, sentence, start, max_covert=3):
    """The chart, goal and sequences equal the all-pairs reference's, and
    no two of the goal's back-pointer paths spell one item sequence."""
    cfg = CFG(start, max_covert=max_covert)
    tokens = tuple(sentence.split())
    forest = parse(lex, tokens, cfg)
    reference, goal, sequences = oracle.reference_parse(lex, tokens, cfg)
    assert forest.chart.keys() == reference.keys(), sentence
    # The agenda pops each item once.
    assert chart._close(lex, chart.signature(lex, tokens),
                        cfg.max_steps)[1] == len(forest.chart)
    for item, bps in reference.items():
        got = forest.chart[item]
        assert len(set(got)) == len(got)
        assert set(got) == bps, (sentence, item)
    assert forest.goal == goal
    assert [tuple(lex.global_index(it) for it in seq)
            for seq in forest.sequences] == sequences
    assert count_paths(forest, lex, max_covert) == forest.count
    return forest


class TestAgainstReferenceClosure:
    @pytest.mark.parametrize("name", sorted(FIXTURE_SENTENCES))
    def test_fixture_sentences(self, name, request):
        lex = request.getfixturevalue(name)
        for sentence, start in FIXTURE_SENTENCES[name]:
            assert_same_as_reference(lex, sentence, start)

    @pytest.mark.parametrize("name", sorted(FIXTURE_SENTENCES))
    def test_fixture_short_sentences_every_start(self, name, request):
        lex = request.getfixturevalue(name)
        vocab = sorted({it.phon for it in lex.items if it.phon})
        for sentence in oracle.all_sentences(vocab, 4):
            for start in lex.categories:
                assert_same_as_reference(lex, sentence, start)

    @pytest.mark.parametrize("seed", range(60))
    def test_random_lexicons(self, seed):
        lex = random_lexicon(random.Random(seed))
        vocab = sorted({it.phon for it in lex.items if it.phon})
        for sentence in oracle.all_sentences(vocab, 4):
            for start in lex.categories:
                assert_same_as_reference(lex, sentence, start)

    @pytest.mark.parametrize("pps", range(6))
    def test_pp_attachment(self, pps):
        lex = pdmg.parse_lexicon(PP)
        tail = " with the dog" * pps
        assert_same_as_reference(lex, "kim saw the man" + tail, "c")
        assert_same_as_reference(lex, "what kim saw" + tail, "c")

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 20, 40, 60])
    def test_chain(self, n):
        lex = pdmg.parse_lexicon(CHAIN)
        assert_same_as_reference(lex, " ".join(["a"] * (n - 1) + ["b"]), "c")

    @pytest.mark.parametrize("seed", range(3))
    def test_sampled_wh_sentences(self, seed):
        """Movers in flight across clause boundaries: each sampled sentence
        of up to 8 tokens parses, with the drawn sequence among its
        derivations."""
        lex = pdmg.parse_lexicon(WH)
        theta, rng = pdmg.uniform_theta(lex), np.random.default_rng(seed)
        parsed = 0
        for _ in range(30):
            seq, _ = pdmg.sample_derivation(lex, theta, pdmg.SampleConfig("c"), rng)
            sentence = pdmg.eval_sequence(seq)
            if len(sentence.split()) > 8:
                continue
            covert = sum(1 for it in seq if not it.phon)
            forest = assert_same_as_reference(lex, sentence, "c", max(3, covert))
            assert tuple(lex.global_index(it) for it in seq) in forest.ids
            parsed += 1
        assert parsed >= 20

    @pytest.mark.parametrize("max_covert", range(6))
    def test_floating_empty_spans(self, max_covert):
        """No two back-pointer paths spell one sequence where empty spans
        are pinned only by the adjacency or landing above them: "kim saw"
        lands a covert object at its left edge, and each ``ε :: =c c``
        the cap allows above it adds a reading."""
        lex = pdmg.parse_lexicon(FLOAT)
        vocab = sorted({it.phon for it in lex.items if it.phon})
        counts = {}
        for sentence in oracle.all_sentences(vocab, 4):
            for start in lex.categories:
                forest = assert_same_as_reference(lex, sentence, start, max_covert)
                counts[sentence, start] = forest.count
        assert counts["kim saw", "c"] == max(0, max_covert - 1)
        assert counts["who kim saw", "c"] == max_covert
        assert counts["saw", "c"] == 0  # two -f movers break the SMC

    def test_shortest_move_lexicon(self):
        lex = pdmg.parse_lexicon(SMC)
        vocab = sorted({it.phon for it in lex.items if it.phon})
        for sentence in oracle.all_sentences(vocab, 3):
            for start in lex.categories:
                assert_same_as_reference(lex, sentence, start)
        for sentence in ("who did kim met", "what kim knows that lee saw",
                         "what did kim knows that lee met",
                         "what did lee knows who saw"):
            assert_same_as_reference(lex, sentence, "c")

    def test_shortest_move_on_move_again(self):
        """move_again can break the SMC too: once r's +f moves p on, p's
        next licensee -g meets q's, and r derives nothing; s's does not."""
        lex = pdmg.parse_lexicon("p :: x -f -g\nq :: y -g\n"
                                 "r :: =x =y +f +g c\ns :: =x +f +g c\n")
        derived = 0
        for sentence in oracle.all_sentences("pqrs", 4):
            for start in lex.categories:
                derived += assert_same_as_reference(lex, sentence, start).count
        assert derived == 1  # p s


def test_closure_tries_few_pairs():
    """Pairs tried grow with the chart, not with its square, with movers
    and without: the chain has none, and the question's ``what`` moves."""
    used = {}
    for name, lex, sentence in [
            ("chain", pdmg.parse_lexicon(CHAIN), " ".join(["a"] * 299 + ["b"])),
            ("whq", pdmg.load_lexicon(data_path("whq.lex")), "what did you see")]:
        tokens = tuple(sentence.split())
        coded, _, pairs = chart._close(lex, chart.signature(lex, tokens), 10**6)
        forest = parse(lex, tokens, CFG())
        assert forest.count == 1
        assert 0 < pairs <= len(forest.chart)
        used[name] = {bp[0] for bps in coded.values() for bp in bps}
    assert used["chain"] == {chart.LEX, chart.MERGE_R}
    assert {chart.MERGE_M, chart.MOVE_1} <= used["whq"]


class TestLazyDecode:
    """Only a read of ``forest.chart`` or ``forest.sequences`` decodes it."""

    def test_train_score_and_parse_never_decode(self, monkeypatch, tmp_path):
        """Nor do they read ``forest.sequences`` or run the checker."""
        from pdmg import model, wellformed

        def no_decode(*args):
            raise AssertionError("chart decoded")

        reads, checks = [0], [0]
        decode = chart.DerivationForest.sequences
        is_wellformed = wellformed.is_wellformed

        def read(forest):
            reads[0] += 1
            return decode.__get__(forest, type(forest))

        def check(seq):
            checks[0] += 1
            return is_wellformed(seq)

        monkeypatch.setattr(chart, "_decode", no_decode)
        monkeypatch.setattr(chart.DerivationForest, "sequences", property(read))
        for module in (model, wellformed):
            monkeypatch.setattr(module, "is_wellformed", check)
        runner = CliRunner()
        for name, pairs in FIXTURE_SENTENCES.items():
            lex = pdmg.load_lexicon(data_path(f"{name}.lex"))
            for sentence, start in pairs:
                for command in ("score", "parse"):
                    r = runner.invoke(main, [command, data_path(f"{name}.lex"),
                                             sentence, "--start", start])
                    assert r.exit_code == 0, (command, sentence, r.output)
                state = pdmg.train(lex, [sentence], pdmg.ones_alpha(lex),
                                   pdmg.TrainConfig(start=start,
                                                    skip_unparsed=True))
                assert state.converged
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("what did you see\nwhat did see you\n")
        r = runner.invoke(main, ["train", data_path("whq.lex"), str(corpus),
                                 "--start", "c", "--out", str(tmp_path / "r.json")])
        assert r.exit_code == 0, r.output
        assert reads[0] == 0 and checks[0] == 0
        # The counters see the calls they are meant to see.
        whq = pdmg.load_lexicon(data_path("whq.lex"))
        forest = parse(whq, "what did you see".split(), CFG())
        pdmg.log_prob_of_sequence(forest.sequences[0], pdmg.uniform_theta(whq))
        assert reads[0] == 1 and checks[0] == 1

    def test_chart_is_decoded_once_and_kept(self, monkeypatch, ambig):
        calls = [0]
        decode = chart._decode

        def counted(*args):
            calls[0] += 1
            return decode(*args)

        monkeypatch.setattr(chart, "_decode", counted)
        forest = parse(ambig, ["saw", "kim"], CFG())
        assert calls[0] == 0
        first = forest.chart
        assert forest.chart is first
        assert calls[0] == 1
        with pytest.raises(FrozenInstanceError):
            forest.chart = {}
        with pytest.raises(FrozenInstanceError):
            del forest.chart
        assert forest.chart is first

    def test_equal_parses_are_equal_forests(self, whq):
        a = parse(whq, "what did you see".split(), CFG())
        b = parse(pdmg.load_lexicon(data_path("whq.lex")),
                  "what did you see".split(), CFG())
        assert a == b
        assert a != parse(whq, "what did see you".split(), CFG())

    @pytest.mark.parametrize("name", sorted(FIXTURE_SENTENCES))
    def test_sequences_decode_ids(self, name, request):
        lex = request.getfixturevalue(name)
        vocab = sorted({it.phon for it in lex.items if it.phon})
        for sentence in oracle.all_sentences(vocab, 3):
            for start in lex.categories:
                forest = parse(lex, sentence.split(), CFG(start))
                assert forest.count == len(forest.ids)
                assert forest.sequences == tuple(
                    tuple(lex.items[g] for g in d) for d in forest.ids)
                assert forest.sequences is forest.sequences
                assert list(forest.ids) == sorted(set(forest.ids))


# The FOUND lexicon for the checker's missing shortest-move rule: "knows"
# embeds a clause that can hold two wh-movers at once.
SMC = """\
what :: d -wh
who :: d -wh
kim :: d
lee :: d
saw :: =d d= v
met :: =d d= v
knows :: =c d= v
did :: =v t
that :: =t c
ε :: =v t
ε :: =t +wh c
"""


def assert_sound(lex, sentence, start) -> int:
    """Every parsed sequence checks, and evaluates back to ``sentence``."""
    forest = parse(lex, sentence.split(), CFG(start))
    for seq in forest.sequences:
        assert pdmg.is_wellformed(seq), (sentence, start, seq)
        assert pdmg.eval_sequence(seq) == " ".join(sentence.split()), seq
        assert pdmg.derived_category(seq) == start
    return len(forest.sequences)


class TestChartSoundness:
    @pytest.mark.parametrize("name", sorted(FIXTURE_SENTENCES))
    def test_fixture_short_sentences_every_start(self, name, request):
        lex = request.getfixturevalue(name)
        vocab = sorted({it.phon for it in lex.items if it.phon})
        found = sum(assert_sound(lex, sentence, start)
                    for sentence in oracle.all_sentences(vocab, 4)
                    for start in lex.categories)
        assert found > 0

    @pytest.mark.parametrize("seed", range(60))
    def test_random_lexicons(self, seed):
        lex = random_lexicon(random.Random(seed))
        vocab = sorted({it.phon for it in lex.items if it.phon})
        for sentence in oracle.all_sentences(vocab, 4):
            for start in lex.categories:
                assert_sound(lex, sentence, start)

    @pytest.mark.parametrize("pps", range(6))
    def test_pp_attachment(self, pps):
        lex = pdmg.parse_lexicon(PP)
        tail = " with the dog" * pps
        assert assert_sound(lex, "kim saw the man" + tail, "c") > 0
        assert assert_sound(lex, "what kim saw" + tail, "c") > 0

    def test_shortest_move_lexicon(self):
        lex = pdmg.parse_lexicon(SMC)
        vocab = sorted({it.phon for it in lex.items if it.phon})
        found = sum(assert_sound(lex, sentence, start)
                    for sentence in oracle.all_sentences(vocab, 3)
                    for start in lex.categories)
        assert found > 0
        for sentence in ("who did kim met", "what kim knows that lee saw",
                         "what did kim knows that lee met",
                         "what did lee knows that kim saw"):
            assert assert_sound(lex, sentence, "c") == 1
        # Both wh-words are in flight in the embedded clause: the checker
        # rejects the sequence by the SMC (rule 4b), and the chart derives
        # nothing.
        assert parse(lex, "what did lee knows who saw".split(), CFG()).count == 0

    def test_rich_lexicon_draws_parse_back(self):
        """Sampler to checker, evaluator and chart: each well-formed top-down
        proposal over a ``rich_lexicon`` (several licensors per head, movers
        with up to three licensees) parses from its own string at its own
        category, with as many covert leaves as it holds, and every
        derivation the chart finds evaluates back to that string."""
        draws = moving = 0
        for seed in range(2500):
            rng = random.Random(seed)
            lex = rich_lexicon(rng)
            for seq in dict.fromkeys(top_down_proposals(lex, rng, 100)):
                if not pdmg.is_wellformed(seq):
                    continue
                text = pdmg.eval_sequence(seq)
                cfg = CFG(pdmg.derived_category(seq),
                          max_covert=sum(not it.phon for it in seq))
                forest = parse(lex, text.split(), cfg)
                ids = tuple(lex.global_index(it) for it in seq)
                assert ids in forest.ids, (seed, [it.ref for it in seq])
                for found in forest.sequences:
                    assert pdmg.eval_sequence(found) == text, (seed, found)
                draws += 1
                moving += sum(bool(it.licensees) for it in seq) >= 2
        # Seed 2349 draws a head whose two licensors meet two movers in flight.
        assert draws > 500 and moving >= 3, (draws, moving)


def twin_lexicon(lex):
    """``lex`` plus a twin of each overt item, spelled with a trailing 2.
    A twin has its item's features, so putting twins for words keeps a
    sentence's signature and changes only which items sit at its leaves."""
    twins = "".join(f"{it.phon}2 :: {' '.join(map(str, it.features))}\n"
                    for it in lex.items if it.phon)
    return pdmg.parse_lexicon(pdmg.lexicon_to_text(lex) + twins)


def with_twins(sentences):
    """Each sentence, then every way of putting twins for some of its words;
    so a word stands at two positions of one signature's sentences."""
    for sentence in sentences:
        for toks in itertools.product(*[(t, t + "2") for t in sentence.split()]):
            yield " ".join(toks)


def record_train_parses(monkeypatch) -> list[str]:
    """The sentences ``train`` parses from now on, in order."""
    parsed = []
    real = inference.parse
    monkeypatch.setattr(inference, "parse", lambda lex, tokens, cfg: (
        parsed.append(" ".join(tokens)) or real(lex, tokens, cfg)))
    return parsed


def assert_train_keeps_parse_ids(lex, corpus, start, monkeypatch, max_covert=3):
    """``train`` parses each signature of ``corpus`` once, and keeps for
    every sentence the ids its own parse gives; returns the repeats."""
    corpus = list(corpus)
    cfg = TrainConfig(start=start, max_covert=max_covert, max_iters=0,
                      skip_unparsed=True)
    forests = [parse(lex, s.split(), cfg) for s in corpus]
    parsed = record_train_parses(monkeypatch)
    state = pdmg.train(lex, corpus, pdmg.ones_alpha(lex), cfg)
    monkeypatch.undo()
    assert state.unparsed == [n for n, f in enumerate(forests) if not f.ids]
    assert list(state._sentences) == [s for s, f in zip(corpus, forests) if f.ids]
    assert list(state._ids) == [f.ids for f in forests if f.ids]
    firsts = {}
    for s in corpus:
        firsts.setdefault(chart.signature(lex, s.split()), s)
    assert parsed == list(firsts.values())
    return len(corpus) - len(firsts)


class TestTrainRelabels:
    """A sentence whose signature ``train`` has parsed gets its ids by
    relabelling that parse's slot tuples: the ids its own parse gives."""

    @pytest.mark.parametrize("name", sorted(FIXTURE_SENTENCES))
    def test_fixtures_with_twins(self, name, request, monkeypatch):
        base = request.getfixturevalue(name)
        lex = twin_lexicon(base)
        vocab = sorted({it.phon for it in base.items if it.phon})
        corpus = list(with_twins(oracle.all_sentences(vocab, 3)))
        for start in lex.categories:
            assert assert_train_keeps_parse_ids(lex, corpus, start, monkeypatch) > 0

    def test_whq_questions(self, whq, monkeypatch):
        lex = twin_lexicon(whq)
        corpus = list(with_twins(["what did you see", "you see what",
                                  "what did see you", "did you see you",
                                  "you see you"]))
        assert assert_train_keeps_parse_ids(lex, corpus, "c", monkeypatch) > 0
        assert assert_train_keeps_parse_ids(lex, corpus, "i", monkeypatch) > 0

    @pytest.mark.parametrize("seed", range(60))
    def test_random_lexicons(self, seed, monkeypatch):
        base = random_lexicon(random.Random(seed))
        lex = twin_lexicon(base)
        vocab = sorted({it.phon for it in base.items if it.phon})
        corpus = list(with_twins(oracle.all_sentences(vocab, 3)))
        for start in lex.categories:
            assert_train_keeps_parse_ids(lex, corpus, start, monkeypatch)

    def test_pp_nouns_swapped(self, monkeypatch):
        """``man`` and ``dog`` share a signature, and a sentence may use
        either at several positions."""
        lex = pdmg.parse_lexicon(PP)
        corpus = []
        for pps in range(4):
            for nouns in itertools.product(("man", "dog"), repeat=pps + 1):
                tail = "".join(f" with the {n}" for n in nouns[1:])
                corpus.append(f"kim saw the {nouns[0]}{tail}")
                corpus.append(f"what kim saw{tail}")
        assert assert_train_keeps_parse_ids(lex, corpus, "c", monkeypatch) > 20

    @pytest.mark.parametrize("seed", range(2))
    def test_sampled_wh_sentences(self, seed, monkeypatch):
        """sample-wh's grammar, with kim and lee, what and who, and the three
        transitive verbs sharing signatures, at a high ``max_covert``."""
        lex = pdmg.parse_lexicon(WH)
        theta, rng = pdmg.uniform_theta(lex), np.random.default_rng(seed)
        swaps = {"kim": "lee", "lee": "kim", "what": "who", "who": "what",
                 "saw": "met", "met": "liked", "liked": "saw"}
        corpus = []
        while len(corpus) < 60:
            seq, _ = pdmg.sample_derivation(lex, theta, pdmg.SampleConfig("c"), rng)
            toks = pdmg.eval_sequence(seq).split()
            if len(toks) <= 8:
                corpus.append(" ".join(toks))
                corpus.append(" ".join(swaps.get(t, t) for t in toks))
        assert assert_train_keeps_parse_ids(lex, corpus, "c", monkeypatch,
                                            max_covert=6) > 30

    def test_unparsed_names_the_first_failing_sentence(self, whq):
        corpus = ["what did you see", "what did you see", "you see you",
                  "see you", "you see you"]
        cfg = TrainConfig(start="c", max_iters=0)
        with pytest.raises(pdmg.UnparsedSentence) as err:
            pdmg.train(whq, corpus, pdmg.ones_alpha(whq), cfg)
        assert err.value.index == 2

    def test_skip_unparsed_lists_every_repeat(self, monkeypatch):
        lex = pdmg.parse_lexicon(PP)
        corpus = ["kim saw the man", "the man", "kim saw the dog", "the dog",
                  "the man", "what kim saw", "the dog"]
        assert assert_train_keeps_parse_ids(lex, corpus, "c", monkeypatch) == 4
        cfg = TrainConfig(start="c", max_iters=0, skip_unparsed=True)
        state = pdmg.train(lex, corpus, pdmg.ones_alpha(lex), cfg)
        assert state.unparsed == [1, 3, 4, 6]

    @pytest.mark.parametrize("cap", [{"max_steps": 60}, {"max_derivations": 1}])
    def test_cap_raised_at_the_same_sentence(self, cap, monkeypatch):
        """The first sentence whose own parse trips a cap is the first of its
        signature, and training stops there, as parsing each in turn does."""
        lex = pdmg.parse_lexicon(PP)
        corpus = ["kim saw the man", "kim saw the dog",
                  "kim saw the man with the dog", "kim saw the dog",
                  "kim saw the dog with the man"]
        cfg = TrainConfig(start="c", **cap)
        want = None
        for n, s in enumerate(corpus):
            try:
                parse(lex, s.split(), cfg)
            except CapExceeded:
                want = n
                break
        assert want == 2
        parsed = record_train_parses(monkeypatch)
        with pytest.raises(CapExceeded):
            pdmg.train(lex, corpus, pdmg.ones_alpha(lex), cfg)
        assert parsed[-1] == corpus[want]

    def test_slots_relabel_to_the_ids(self, whq):
        lex = twin_lexicon(whq)
        cfg = CFG()
        forest = parse(lex, "what did you see".split(), cfg)
        for other in with_twins(["what did you see"]):
            got = chart.relabel(forest.slots, chart.leaf_table(lex, other.split()))
            assert got == parse(lex, other.split(), cfg).ids
        assert len(set(forest.slots)) == forest.count
