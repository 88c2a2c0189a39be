"""End-to-end tests of the command-line interface."""

import json
import math
import random
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import oracle
import pdmg.cli
import pdmg.model
from conftest import (OVERFLOW_ALPHA, OVERFLOW_LEXICON, SMC_WH_LEXICON,
                      SMC_WH_REFS, data_path, random_lexicon)
from pdmg.cli import main

WHQ = data_path("whq.lex")
AMBIG = data_path("ambig.lex")
# An item spelled "eps": a literal spelling, not the covert alias.
EPS_LEXICON = "eps :: d\nsee :: =d v\n"
# Items spelled with "@", one spelled as another item's reference.
AT_LEXICON = "a@b :: d\nb :: d\nb@1.0 :: d\nb@0.1 :: d\nsee :: =d v\n"


@pytest.fixture()
def runner():
    return CliRunner()


CHECK_SEQ_TRACE = """\
  1  pos= 0  skip-right     selector =i; move right
  2  pos= 1  skip-right     selector =v; move right
  3  pos= 2  skip-right     selector d=; move right
  4  pos= 3  category-match category d checked by d= on see
  5  pos= 3  delete-item    you is out of features; deleted
  6  pos= 2  skip-right     selector =d; move right
  7  pos= 4  category-match category d checked by =d on see
  8  pos= 4  licensee-left  licensee -wh; move left
  9  pos= 2  category-match category v checked by =v on did
 10  pos= 2  delete-item    see is out of features; deleted
 11  pos= 1  category-match category i checked by =i on ε
 12  pos= 1  delete-item    did is out of features; deleted
 13  pos= 0  licensor-match licensor +wh checked against -wh on what
 14  pos= 0  root-category  root category c deleted
 15  pos= 0  delete-item    ε is out of features; deleted
 16  pos= 4  delete-item    what is out of features; deleted
 17  pos= -  accept         empty sequence
well-formed
"""


class TestCheckSeq:
    def test_accept_with_trace(self, runner):
        r = runner.invoke(main, ["check-seq", WHQ,
                                 "ε", "did", "see", "you", "what"])
        assert r.exit_code == 0
        assert r.output == CHECK_SEQ_TRACE

    def test_accept_no_trace(self, runner):
        r = runner.invoke(main, ["check-seq", WHQ, "--no-trace",
                                 "ε", "did", "see", "you", "what"])
        assert r.exit_code == 0
        assert r.output == "well-formed\n"

    def test_reject(self, runner):
        r = runner.invoke(main, ["check-seq", WHQ, "--no-trace", "did"])
        assert r.exit_code == 1
        assert r.output == "ill-formed\n"

    def test_reject_trace_names_the_rule(self, runner):
        r = runner.invoke(main, ["check-seq", WHQ, "did"])
        assert r.exit_code == 1
        assert "rule 1" in r.output
        assert r.output.endswith("ill-formed\n")

    def test_two_wh_movers_in_flight_reject(self, runner, tmp_path):
        lex = tmp_path / "smc.lex"
        lex.write_text(SMC_WH_LEXICON, encoding="utf-8")
        r = runner.invoke(main, ["check-seq", str(lex), *SMC_WH_REFS,
                                 "--no-trace"])
        assert r.exit_code == 1
        assert r.output == "ill-formed\n"

    def test_indexed_references(self, runner):
        r = runner.invoke(main, ["check-seq", WHQ, "--no-trace",
                                 "ε@3.0", "did@2.0", "see@1.0",
                                 "you@0.1", "what@0.0"])
        assert r.exit_code == 0
        assert r.output == "well-formed\n"

    def test_eps_alias(self, runner):
        r = runner.invoke(main, ["check-seq", WHQ, "--no-trace",
                                 "eps", "did", "see", "you", "what"])
        assert r.exit_code == 0

    @pytest.mark.parametrize("refs", [["see", "eps"], ["see@1.0", "eps@0.0"]])
    def test_item_spelled_eps(self, runner, tmp_path, refs):
        """A literal spelling wins over the covert alias."""
        lex = tmp_path / "eps.lex"
        lex.write_text(EPS_LEXICON, encoding="utf-8")
        r = runner.invoke(main, ["check-seq", str(lex), "--no-trace", *refs])
        assert (r.exit_code, r.output) == (0, "well-formed\n")
        r = runner.invoke(main, ["derive", str(lex), *refs])
        assert (r.exit_code, r.output.splitlines()[-2:]) == (
            0, ["category: v", "string: see eps"])

    @pytest.mark.parametrize("refs, text", [
        (["see", "a@b"], "see a@b"), (["see@1.0", "a@b@0.0"], "see a@b"),
        (["see", "b@1.0"], "see b@1.0"), (["see", "b@0.1"], "see b"),
        (["see", "b@0.1@0.3"], "see b@0.1")])
    def test_item_spelled_with_at(self, runner, tmp_path, refs, text):
        """A spelling with "@" names its item, unless it is the exact
        reference of an item so spelled: ``b@1.0`` is the item spelled so,
        as item 1.0 is ``see``, but ``b@0.1`` is item 0.1, spelled ``b``."""
        lex = tmp_path / "at.lex"
        lex.write_text(AT_LEXICON, encoding="utf-8")
        r = runner.invoke(main, ["check-seq", str(lex), "--no-trace", *refs])
        assert (r.exit_code, r.output) == (0, "well-formed\n")
        r = runner.invoke(main, ["derive", str(lex), *refs])
        assert (r.exit_code, r.output.splitlines()[-2:]) == (
            0, ["category: v", f"string: {text}"])

    @pytest.mark.parametrize("text", [AT_LEXICON, EPS_LEXICON + "ε :: =v c\n"])
    def test_validate_refs_resolve_back(self, runner, tmp_path, text):
        lex_path = tmp_path / "refs.lex"
        lex_path.write_text(text, encoding="utf-8")
        r = runner.invoke(main, ["validate", str(lex_path)])
        assert r.exit_code == 0
        refs = [ref for line in r.output.splitlines() if line.startswith("  [")
                for ref in line.split(": ", 1)[1].split(", ")]
        lex = pdmg.parse_lexicon(text)
        assert [pdmg.cli.resolve_item(lex, ref) for ref in refs] == list(lex.items)

    def test_alias_still_names_the_covert_item(self, runner, tmp_path):
        """Beside an item spelled eps, ε and ε@/eps@ references to a covert
        item name that item; bare ε with no covert item names nothing."""
        lex = tmp_path / "both.lex"
        lex.write_text(EPS_LEXICON + "ε :: =v c\n", encoding="utf-8")
        for refs in (["ε", "see", "eps"], ["eps@2.0", "see", "eps@0.0"],
                     ["ε@2.0", "see@1.0", "eps"]):
            r = runner.invoke(main, ["check-seq", str(lex), "--no-trace", *refs])
            assert (r.exit_code, r.output) == (0, "well-formed\n"), refs
        # Bare eps is the d item, not ambiguous with the covert one.
        r = runner.invoke(main, ["check-seq", str(lex), "--no-trace",
                                 "eps@0.0", "eps"])
        assert (r.exit_code, r.output) == (1, "ill-formed\n")
        lex.write_text(EPS_LEXICON, encoding="utf-8")
        r = runner.invoke(main, ["check-seq", str(lex), "see", "ε"])
        _assert_one_error_line(r, 2)
        assert r.stderr == "error: no lexical item spelled 'ε'\n"
        r = runner.invoke(main, ["check-seq", str(lex), "see", "ε@0.0"])
        _assert_one_error_line(r, 2)
        assert r.stderr == ("error: bad item reference 'ε@0.0': "
                            "item at 0.0 is eps@0.0\n")

    def test_ambiguous_bare_reference(self, runner):
        r = runner.invoke(main, ["check-seq", AMBIG, "saw"])
        assert r.exit_code == 2
        assert "ambiguous" in r.stderr
        assert "saw@0.0" in r.stderr and "saw@0.1" in r.stderr

    def test_unknown_reference(self, runner):
        r = runner.invoke(main, ["check-seq", WHQ, "blorp"])
        assert r.exit_code == 2

    def test_mismatched_indexed_reference(self, runner):
        r = runner.invoke(main, ["check-seq", WHQ, "you@0.0"])
        assert r.exit_code == 2
        assert "what@0.0" in r.stderr

    def test_out_of_range_reference(self, runner):
        r = runner.invoke(main, ["check-seq", WHQ, "you@9.0"])
        assert r.exit_code == 2

    # Lexicon.item makes the bounds test; the message names the reference.
    @pytest.mark.parametrize("ref, why", [
        ("you@9.0", "no category with index 9"),
        ("you@4.0", "no category with index 4"),
        ("you@0.2", "category 'd' has no item 2"),
        ("ε@3.1", "category 'c' has no item 1"),
    ])
    @pytest.mark.parametrize("command", ["check-seq", "derive"])
    def test_out_of_range_reference_message(self, runner, command, ref, why):
        r = runner.invoke(main, [command, WHQ, ref])
        _assert_one_error_line(r, 2)
        assert r.stderr == f"error: bad item reference {ref!r}: {why}\n"

    # A superscript is a digit to str.isdigit but not to int(), and int()
    # refuses a number past its digit limit.
    @pytest.mark.parametrize("ref", ["what@\u00b2.0", "what@" + "9" * 5000 + ".0"])
    @pytest.mark.parametrize("command", ["check-seq", "derive"])
    def test_index_int_cannot_read(self, runner, command, ref):
        r = runner.invoke(main, [command, WHQ, ref])
        _assert_one_error_line(r, 2)
        assert r.stderr.endswith(
            ": expected phon@<cat>.<item> with integers\n")


class TestDerive:
    def test_question(self, runner):
        r = runner.invoke(main, ["derive", WHQ,
                                 "ε", "did", "see", "you", "what"])
        assert r.exit_code == 0
        assert r.output == (
            "[move [merge ε [merge did [merge [merge see you] what]]]]\n"
            "category: c\n"
            "string: what did you see\n")

    def test_incomplete_evaluation(self, runner):
        r = runner.invoke(main, ["derive", WHQ, "did", "see", "you", "what"])
        assert r.exit_code == 3
        assert "movers never landed" in r.stderr

    def test_arity_error(self, runner):
        r = runner.invoke(main, ["derive", WHQ, "did"])
        assert r.exit_code == 2

    def test_builds_the_tree_once(self, runner, monkeypatch):
        from pdmg import structure
        calls = []
        real = structure.seq_to_tree

        def counted(seq):
            calls.append(seq)
            return real(seq)

        monkeypatch.setattr(structure, "seq_to_tree", counted)
        r = runner.invoke(main, ["derive", WHQ, "ε", "did", "see", "you", "what"])
        assert r.exit_code == 0
        assert len(calls) == 1


class TestParse:
    def test_question_json(self, runner):
        r = runner.invoke(main, ["parse", WHQ, "what did you see",
                                 "--start", "c"])
        assert r.exit_code == 0
        assert r.output == ('{"sentence":"what did you see","count":1,'
                            '"derivations":[[[3,0],[2,0],[1,0],[0,1],[0,0]]]}\n')

    def test_uncovered_sentence_is_not_an_error(self, runner):
        r = runner.invoke(main, ["parse", WHQ, "see what", "--start", "c"])
        assert r.exit_code == 0
        payload = json.loads(r.output)
        assert payload["count"] == 0
        assert payload["derivations"] == []

    def test_corpus_file(self, runner, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("# a comment\nwhat did you see\n\nwhat did see you\n")
        r = runner.invoke(main, ["parse", WHQ, "--start", "c",
                                 "--corpus", str(corpus)])
        assert r.exit_code == 0
        lines = r.output.splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["sentence"] == "what did you see"
        assert json.loads(lines[1])["sentence"] == "what did see you"

    def test_cap_exceeded(self, runner):
        r = runner.invoke(main, ["parse", AMBIG, "saw", "--start", "c",
                                 "--max-derivations", "1"])
        assert r.exit_code == 4

    def test_unknown_start(self, runner):
        r = runner.invoke(main, ["parse", WHQ, "you", "--start", "zz"])
        assert r.exit_code == 2


class TestScore:
    def test_uniform_default(self, runner):
        r = runner.invoke(main, ["score", WHQ, "what did you see",
                                 "--start", "c"])
        assert r.exit_code == 0
        assert r.output == (
            '{"sentence":"what did you see","count":1,"prob":0.25,'
            '"log_prob":-1.3862943611198906,'
            '"derivations":[{"items":[[3,0],[2,0],[1,0],[0,1],[0,0]],'
            '"prob":0.25,"log_prob":-1.3862943611198906}]}\n')

    def test_ambiguous_sums_readings(self, runner):
        r = runner.invoke(main, ["score", AMBIG, "saw", "--start", "c"])
        assert r.exit_code == 0
        payload = json.loads(r.output)
        assert payload["count"] == 2
        assert payload["prob"] == pytest.approx(0.75, abs=1e-12)
        probs = [d["prob"] for d in payload["derivations"]]
        assert probs == pytest.approx([0.25, 0.5], abs=1e-12)

    def test_theta_file(self, runner, tmp_path, whq):
        theta = {"d": [1.0, 0.0], "v": [1.0], "i": [1.0], "c": [1.0]}
        p = tmp_path / "theta.json"
        p.write_text(json.dumps(theta))
        r = runner.invoke(main, ["score", WHQ, "what did you see",
                                 "--start", "c", "--theta", str(p)])
        assert r.exit_code == 0
        payload = json.loads(r.output)
        # the derivation uses both d items, one of which has weight zero
        assert payload["prob"] == 0.0
        assert payload["log_prob"] == "-Infinity"
        assert [(d["prob"], d["log_prob"]) for d in payload["derivations"]] \
            == [(0.0, "-Infinity")]

    def test_invalid_theta(self, runner, tmp_path):
        p = tmp_path / "theta.json"
        p.write_text('{"d": [0.9, 0.9]}')
        r = runner.invoke(main, ["score", WHQ, "you", "--start", "d",
                                 "--theta", str(p)])
        assert r.exit_code == 2


def assert_log_probs_agree(lex, theta, sentence, start) -> int:
    """score_sentence's sums over ids equal log_prob_of_sequence bit for bit."""
    cfg = pdmg.ParseConfig(start=start)
    forest = pdmg.parse(lex, sentence.split(), cfg)
    scored = pdmg.score_sentence(lex, sentence, theta, cfg)
    got = [d["log_prob"] for d in scored["derivations"]]
    want = [pdmg.log_prob_of_sequence(seq, theta) for seq in forest.sequences]
    assert [lp.hex() for lp in got] == [lp.hex() for lp in want], (sentence, start)
    return forest.count


def thetas(lex, seed):
    """A Dirichlet draw, and the same draw with its first entry set to 0."""
    theta = pdmg.sample_theta(lex, pdmg.ones_alpha(lex), seed=seed)
    zeroed = {cat: list(row) for cat, row in theta.items()}
    zeroed[lex.categories[0]][0] = 0.0
    return theta, zeroed


class TestScoreSumsIds:
    """score_sentence adds each derivation's log θ by id, without the checker."""

    @pytest.mark.parametrize("name", ["ambig", "chain", "move2", "symmetric",
                                      "whq"])
    def test_fixture_short_sentences(self, name):
        lex = pdmg.load_lexicon(data_path(f"{name}.lex"))
        vocab = sorted({it.phon for it in lex.items if it.phon})
        found = 0
        for theta in thetas(lex, 0):
            for sentence in oracle.all_sentences(vocab, 4):
                for start in sorted(lex.root_categories):
                    found += assert_log_probs_agree(lex, theta, sentence, start)
        assert found > 0

    @pytest.mark.parametrize("seed", range(60))
    def test_random_lexicons(self, seed):
        lex = random_lexicon(random.Random(seed))
        vocab = sorted({it.phon for it in lex.items if it.phon})
        for theta in thetas(lex, seed):
            for sentence in oracle.all_sentences(vocab, 4):
                for start in sorted(lex.root_categories):
                    assert_log_probs_agree(lex, theta, sentence, start)


class TestSample:
    @pytest.mark.parametrize("name", ["eps", "ambig", "chain", "move2",
                                      "symmetric", "whq"])
    def test_lines_check_back_well_formed(self, runner, tmp_path, name):
        """Every line sample prints resolves, through check-seq, to the
        well-formed sequence it drew."""
        path = data_path(f"{name}.lex")
        if name == "eps":
            path = str(tmp_path / "eps.lex")
            Path(path).write_text(EPS_LEXICON, encoding="utf-8")
        checked = 0
        for start in sorted(pdmg.load_lexicon(path).root_categories):
            r = runner.invoke(main, ["sample", path, "--start", start,
                                     "-n", "20", "--seed", "0"])
            assert r.exit_code == 0, r.output
            for line in sorted(set(r.output.splitlines())):
                c = runner.invoke(main, ["check-seq", path, "--no-trace",
                                         *line.split()])
                assert (c.exit_code, c.output) == (0, "well-formed\n"), line
                checked += 1
        assert checked > 0

    def test_seed_reproducible(self, runner):
        args = ["sample", WHQ, "--start", "c", "-n", "10", "--seed", "7"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.exit_code == b.exit_code == 0
        assert a.output == b.output
        assert len(a.output.splitlines()) == 10

    def test_draws_are_wellformed_references(self, runner, whq):
        from pdmg.cli import resolve_item
        import pdmg
        r = runner.invoke(main, ["sample", WHQ, "--start", "c",
                                 "-n", "5", "--seed", "0"])
        assert r.exit_code == 0
        for line in r.output.splitlines():
            seq = tuple(resolve_item(whq, ref) for ref in line.split())
            assert pdmg.is_wellformed(seq)
            assert pdmg.derived_category(seq) == "c"

    def test_seeds_differ(self, runner):
        a = runner.invoke(main, ["sample", WHQ, "--start", "c",
                                 "-n", "20", "--seed", "1"])
        b = runner.invoke(main, ["sample", WHQ, "--start", "c",
                                 "-n", "20", "--seed", "2"])
        assert a.output != b.output

    def test_negative_seed(self, runner):
        r = runner.invoke(main, ["sample", WHQ, "--start", "c", "--seed", "-1"])
        assert r.exit_code == 2
        assert "Invalid value for '--seed'" in r.stderr
        assert "Traceback" not in r.output

    def test_rejection_cap(self, runner, tmp_path):
        theta = {"d": [1.0, 0.0], "v": [1.0], "i": [1.0], "c": [1.0]}
        p = tmp_path / "theta.json"
        p.write_text(json.dumps(theta))
        r = runner.invoke(main, ["sample", WHQ, "--start", "c", "--seed", "0",
                                 "--theta", str(p), "--max-rejections", "20"])
        assert r.exit_code == 4

    def test_underivable_start_fails_fast(self, runner, monkeypatch):
        checks = [0]
        check = pdmg.model.is_wellformed

        def counted(seq):
            checks[0] += 1
            return check(seq)

        monkeypatch.setattr(pdmg.model, "is_wellformed", counted)
        # chain.lex's only v item is su :: =d v -f; no root checks its -f.
        r = runner.invoke(main, ["sample", data_path("chain.lex"),
                                 "--start", "v", "--seed", "1"])
        _assert_one_error_line(r, 2)
        assert "'v'" in r.stderr
        assert checks[0] == 0


class TestTrain:
    def test_whq_result(self, runner, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("what did you see\n")
        out = tmp_path / "result.json"
        r = runner.invoke(main, ["train", WHQ, str(corpus),
                                 "--start", "c", "--out", str(out)])
        assert r.exit_code == 0
        assert r.output == (f"converged after 2 iterations, bound -1.791759, "
                            f"wrote {out}\n")
        payload = json.loads(out.read_text())
        assert payload["omega"] == {"d": [2, 2], "v": [2], "i": [2], "c": [2]}
        assert payload["theta_mean"] == {
            "d": [0.5, 0.5], "v": [1], "i": [1], "c": [1]}
        assert payload["iterations"] == 2
        assert payload["converged"] is True
        assert payload["unparsed"] == []
        assert payload["elbo_trace"][0] == -2
        assert payload["elbo_trace"][1] == pytest.approx(-math.log(6.0),
                                                         abs=1e-12)
        assert list(payload) == ["omega", "theta_mean", "elbo_trace",
                                 "iterations", "converged", "unparsed"]

    def test_rerun_byte_identical(self, runner, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("what did you see\nwhat did see you\n")
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            r = runner.invoke(main, ["train", WHQ, str(corpus),
                                     "--start", "c", "--out", str(out)])
            assert r.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_unparsed_sentence_fails(self, runner, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("what did you see\nsee what\n")
        out = tmp_path / "result.json"
        r = runner.invoke(main, ["train", WHQ, str(corpus),
                                 "--start", "c", "--out", str(out)])
        assert r.exit_code == 3
        assert not out.exists()

    def test_skip_unparsed(self, runner, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("see what\nwhat did you see\n")
        out = tmp_path / "result.json"
        r = runner.invoke(main, ["train", WHQ, str(corpus), "--start", "c",
                                 "--skip-unparsed", "--out", str(out)])
        assert r.exit_code == 0
        payload = json.loads(out.read_text())
        assert payload["unparsed"] == [0]

    def test_alpha_file(self, runner, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("what did you see\n")
        alpha = {"d": [2.0, 1.0], "v": [1.0], "i": [1.0], "c": [1.0]}
        p = tmp_path / "alpha.json"
        p.write_text(json.dumps(alpha))
        out = tmp_path / "result.json"
        r = runner.invoke(main, ["train", WHQ, str(corpus), "--start", "c",
                                 "--alpha", str(p), "--out", str(out)])
        assert r.exit_code == 0
        payload = json.loads(out.read_text())
        # the question uses each item once: omega = alpha + 1 everywhere
        assert payload["omega"]["d"] == [3, 2]

    def test_cap_exceeded(self, runner, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("what did you see\n")
        r = runner.invoke(main, ["train", WHQ, str(corpus), "--start", "c",
                                 "--max-steps", "5",
                                 "--out", str(tmp_path / "r.json")])
        assert r.exit_code == 4


def _assert_one_error_line(r, code):
    assert r.exit_code == code
    assert r.stderr.startswith("error: ")
    assert r.stderr.count("\n") == 1
    assert "Traceback" not in r.output


def test_unknown_start_one_message(runner, tmp_path):
    """Every command that takes --start checks it before it parses or draws
    anything, so one with nothing to parse or draw exits 2 as well."""
    empty, corpus = tmp_path / "empty.txt", tmp_path / "corpus.txt"
    empty.write_text("")
    corpus.write_text("what did you see\n")
    out = str(tmp_path / "r.json")
    for args in (["parse", WHQ], ["parse", WHQ, "you"], ["score", WHQ, "you"],
                 ["sample", WHQ, "-n", "0"], ["sample", WHQ],
                 ["train", WHQ, str(empty), "--out", out],
                 ["train", WHQ, str(corpus), "--out", out]):
        r = runner.invoke(main, args + ["--start", "zz"])
        _assert_one_error_line(r, 2)
        assert r.stderr == "error: unknown start category 'zz'\n", args
    assert not (tmp_path / "r.json").exists()


def test_underivable_start_exits_2(runner):
    """A start category that derives nothing is refused before any draw, so
    asking for no draws exits 2 as asking for one does."""
    for count in ("0", "1"):
        r = runner.invoke(main, ["sample", data_path("chain.lex"), "--start", "v",
                                 "-n", count])
        _assert_one_error_line(r, 2)
        assert r.stderr == (
            "error: start category 'v' derives nothing: every 'v' item has "
            "licensees, which nothing above the root can check\n"), count
        assert r.stdout == ""


class TestNegativeCaps:
    """A negative cap is bad input, not an empty forest."""

    @pytest.mark.parametrize("flag", ["--max-derivations", "--max-covert",
                                      "--max-steps"])
    @pytest.mark.parametrize("command", ["parse", "score", "train"])
    def test_exits_2(self, runner, tmp_path, command, flag):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("you\n")
        out = tmp_path / "result.json"
        args = {"parse": ["parse", WHQ, "you"],
                "score": ["score", WHQ, "you"],
                "train": ["train", WHQ, str(corpus), "--out", str(out)]}[command]
        r = runner.invoke(main, args + ["--start", "d", flag, "-1"])
        _assert_one_error_line(r, 2)
        name = flag[2:].replace("-", "_")
        assert r.stderr == f"error: {name} must be >= 0, got -1\n"
        assert r.stdout == ""
        assert not out.exists()

    def test_zero_covert_is_valid(self, runner):
        r = runner.invoke(main, ["parse", WHQ, "you", "--start", "d",
                                 "--max-covert", "0"])
        assert r.exit_code == 0
        assert json.loads(r.output)["count"] == 1


class TestCovertCap:
    """``--max-covert`` drops derivations that need more covert leaves; it is
    a filter, so it trips no error."""

    LEX = "x :: a\nε :: =a b\nε :: =b c\nε :: =c d\nε :: =d e\n"
    # From perfbench's sample-wh grammar: a clause embedded under `knows`,
    # each clause with a covert T and a covert C.
    EMBEDDED = ("sandy :: s\nkim :: s\nlee :: o\nsaw :: =o s= v\n"
                "knows :: =c s= v\nε :: =v t\nε :: =t c\n")

    @staticmethod
    def _count(runner, tmp_path, text, args):
        lex = tmp_path / "covert.lex"
        lex.write_text(text, encoding="utf-8")
        r = runner.invoke(main, [args[0], str(lex), *args[1:]])
        return r.exit_code, json.loads(r.output)["count"]

    @pytest.mark.parametrize("command", ["parse", "score"])
    @pytest.mark.parametrize("cap, count", [([], 0), (["--max-covert", "4"], 1)])
    def test_four_covert_leaves(self, runner, tmp_path, command, cap, count):
        assert self._count(runner, tmp_path, self.LEX,
                           [command, "x", "--start", "e", *cap]) == (0, count)

    @pytest.mark.parametrize("command", ["parse", "score"])
    @pytest.mark.parametrize("cap, count", [([], 0), (["--max-covert", "4"], 1)])
    def test_embedded_clause(self, runner, tmp_path, command, cap, count):
        assert self._count(runner, tmp_path, self.EMBEDDED,
                           [command, "sandy knows kim saw lee", "--start", "c",
                            *cap]) == (0, count)


class TestNegativeSampleCounts:
    """``pdmg sample`` refuses a negative count or cap (exit 2); zero is valid."""

    @pytest.mark.parametrize("flag", ["--max-depth", "--max-rejections"])
    def test_negative_cap_exits_2(self, runner, flag):
        r = runner.invoke(main, ["sample", WHQ, "--start", "c", "--seed", "1",
                                 flag, "-1"])
        _assert_one_error_line(r, 2)
        name = flag[2:].replace("-", "_")
        assert r.stderr == f"error: {name} must be >= 0, got -1\n"
        assert r.stdout == ""

    def test_negative_count_exits_2(self, runner):
        r = runner.invoke(main, ["sample", WHQ, "--start", "c", "--seed", "1",
                                 "-n", "-1"])
        assert r.exit_code == 2
        assert "Invalid value for '-n'" in r.stderr
        assert "Traceback" not in r.output
        assert r.stdout == ""

    def test_zero_count_prints_nothing(self, runner):
        r = runner.invoke(main, ["sample", WHQ, "--start", "c", "--seed", "1",
                                 "-n", "0"])
        assert (r.exit_code, r.output) == (0, "")

    def test_zero_depth_is_a_cap_not_bad_input(self, runner):
        r = runner.invoke(main, ["sample", WHQ, "--start", "c", "--seed", "1",
                                 "--max-depth", "0"])
        _assert_one_error_line(r, 4)
        assert r.stderr == "error: sampler exceeded max depth 0\n"

    def test_zero_rejections_is_valid(self, runner):
        # seed 1's first proposal is accepted, so no rejection trips the cap
        lex = pdmg.load_lexicon(WHQ)
        seq, rejected = pdmg.model.sample_derivation(
            lex, pdmg.model.uniform_theta(lex),
            pdmg.model.SampleConfig(start="c", max_rejections=0),
            np.random.default_rng(1))
        r = runner.invoke(main, ["sample", WHQ, "--start", "c", "--seed", "1",
                                 "--max-rejections", "0"])
        assert rejected == 0
        assert (r.exit_code, r.output) == (0, " ".join(it.ref for it in seq) + "\n")


class TestBadModelRows:
    """Rows that are not lists of numbers exit 2 with one error line."""

    THETA = {"d": [0.5, 0.5], "v": [1.0], "i": [1.0], "c": [1.0]}

    # JSON booleans and numeric strings are not numbers, though float()
    # takes them.
    @pytest.mark.parametrize("row", [["x", 1], [None, 1], [True], ["1"]])
    def test_alpha_entry_not_a_number(self, runner, tmp_path, row):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("what did you see\n")
        p = tmp_path / "alpha.json"
        p.write_text(json.dumps({"d": [1.0, 1.0], "v": row, "i": [1.0],
                                 "c": [1.0]}))
        r = runner.invoke(main, ["train", WHQ, str(corpus), "--start", "c",
                                 "--alpha", str(p),
                                 "--out", str(tmp_path / "r.json")])
        _assert_one_error_line(r, 2)
        assert "alpha['v'] must be a list of numbers" in r.stderr

    @pytest.mark.parametrize("row", [["x", 1], [None, 1], [True], ["1"]])
    def test_theta_entry_not_a_number(self, runner, tmp_path, row):
        p = tmp_path / "theta.json"
        p.write_text(json.dumps(dict(self.THETA, v=row)))
        r = runner.invoke(main, ["score", WHQ, "what did you see",
                                 "--start", "c", "--theta", str(p)])
        _assert_one_error_line(r, 2)
        assert "theta['v'] must be a list of numbers" in r.stderr

    def test_theta_row_not_a_list(self, runner, tmp_path):
        p = tmp_path / "theta.json"
        p.write_text(json.dumps(dict(self.THETA, v=3)))
        r = runner.invoke(main, ["sample", WHQ, "--start", "c", "--seed", "0",
                                 "--theta", str(p)])
        _assert_one_error_line(r, 2)
        assert "theta['v'] must be a list of numbers" in r.stderr

    # Integer literals too long for float(), or for Python's int-from-string
    # digit limit, are out of range, not a crash.
    @pytest.mark.parametrize("digits", [400, 5000])
    def test_theta_entry_too_large(self, runner, tmp_path, digits):
        p = tmp_path / "theta.json"
        p.write_text('{"d": [1%s, 0.5], "v": [1], "i": [1], "c": [1]}'
                     % ("0" * digits))
        r = runner.invoke(main, ["score", WHQ, "what did you see",
                                 "--start", "c", "--theta", str(p)])
        _assert_one_error_line(r, 2)
        assert "theta['d'] entries must be finite" in r.stderr

    def test_theta_nested_too_deeply(self, runner, tmp_path):
        p = tmp_path / "theta.json"
        p.write_text("[" * 100_000 + "]" * 100_000)
        r = runner.invoke(main, ["score", WHQ, "what did you see",
                                 "--start", "c", "--theta", str(p)])
        _assert_one_error_line(r, 2)
        assert "JSON nests deeper than" in r.stderr

    def test_brackets_in_strings_do_not_nest(self, runner, tmp_path):
        p = tmp_path / "theta.json"
        p.write_text(json.dumps(dict(self.THETA, **{"[{" * 200: [1.0]})))
        r = runner.invoke(main, ["score", WHQ, "what did you see",
                                 "--start", "c", "--theta", str(p)])
        _assert_one_error_line(r, 2)
        assert "theta has unknown categories" in r.stderr

    @pytest.mark.parametrize("max_iters", ["0", "1", "100"])
    def test_alpha_sum_overflows(self, runner, tmp_path, max_iters):
        # Each entry is finite, but the row's sum is not: the posterior mean
        # would divide by inf.
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("what did you see\n")
        p = tmp_path / "alpha.json"
        p.write_text('{"d": [1e308, 1e308], "v": [1], "i": [1], "c": [1]}')
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails it
            r = runner.invoke(main, ["train", WHQ, str(corpus), "--start", "c",
                                     "--alpha", str(p), "--out", str(out),
                                     "--max-iters", max_iters])
        _assert_one_error_line(r, 2)
        assert r.stderr == "error: alpha['d'] sums to inf, expected a finite sum\n"
        assert not out.exists()

    @pytest.mark.parametrize("max_iters", ["0", "1", "100"])
    def test_alpha_log_gamma_overflows(self, runner, tmp_path, max_iters):
        # The row's sum is finite, but log Gamma of it is not a double.
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("what did you see\n")
        p = tmp_path / "alpha.json"
        p.write_text('{"d": [1e306, 1e306], "v": [1], "i": [1], "c": [1]}')
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails it
            r = runner.invoke(main, ["train", WHQ, str(corpus), "--start", "c",
                                     "--alpha", str(p), "--out", str(out),
                                     "--max-iters", max_iters])
        _assert_one_error_line(r, 2)
        assert r.stderr == (
            "error: alpha['d'] sums to 2e+306, expected a sum whose log Gamma "
            "is finite (below about 2.56e+305)\n")
        assert not out.exists()

    @pytest.mark.parametrize("max_iters", ["0", "1", "100"])
    def test_alpha_entry_psi_minus_inf(self, runner, tmp_path, max_iters):
        # psi(1e-309) is -inf: the entry is refused before any iteration,
        # not carried into the e-step as -inf - (-inf).
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("what did you see\n")
        p = tmp_path / "alpha.json"
        p.write_text('{"d": [1e-309, 1], "v": [1], "i": [1], "c": [1]}')
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails it
            r = runner.invoke(main, ["train", WHQ, str(corpus), "--start", "c",
                                     "--alpha", str(p), "--out", str(out),
                                     "--max-iters", max_iters])
        _assert_one_error_line(r, 2)
        assert r.stderr == (
            "error: alpha['d'] entries must be finite and > 2**-1024 (about "
            "5.56e-309); entry 1e-309 is not\n")
        assert not out.exists()

    def test_alpha_entry_near_least_double_fits(self, runner, tmp_path):
        # psi(1e-305) is about -1e305; the fit still converges.
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("what did you see\n")
        p = tmp_path / "alpha.json"
        p.write_text('{"d": [1e-305, 1], "v": [1], "i": [1], "c": [1]}')
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = runner.invoke(main, ["train", WHQ, str(corpus), "--start", "c",
                                     "--alpha", str(p), "--out", str(out)])
        assert r.exit_code == 0, r.output
        assert r.stderr == ""
        assert r.stdout.startswith("converged after ")
        # one count each for what and you; 1e-305 + 1 rounds to 1
        assert json.loads(out.read_text())["omega"]["d"] == [1.0, 2.0]

    def test_estep_overflow_is_one_error_line(self, runner, tmp_path):
        # psi(6e-309) passes the row check, but two counts of item a times
        # its log t* overflow the e-step: the non-finite bound is the one
        # report, and numpy prints no RuntimeWarning.
        lex, corpus = tmp_path / "lex.txt", tmp_path / "corpus.txt"
        lex.write_text(OVERFLOW_LEXICON)
        corpus.write_text("b a a\n")
        p = tmp_path / "alpha.json"
        p.write_text(json.dumps(OVERFLOW_ALPHA))
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails it
            r = runner.invoke(main, ["train", str(lex), str(corpus), "--start",
                                     "y", "--alpha", str(p), "--out", str(out)])
        _assert_one_error_line(r, 2)
        assert r.stderr == "error: objective became non-finite at iteration 1\n"
        assert not out.exists()

    def test_huge_bound_printed_as_in_result(self, runner, tmp_path):
        # The bound is about -1e305: .6f would print 306 digits before the
        # point, so stdout takes result.json's text for it instead.
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("what did you see\n")
        p = tmp_path / "alpha.json"
        p.write_text('{"d": [1e-305, 1], "v": [1], "i": [1], "c": [1]}')
        out = tmp_path / "r.json"
        r = runner.invoke(main, ["train", WHQ, str(corpus), "--start", "c",
                                 "--alpha", str(p), "--out", str(out),
                                 "--max-iters", "1"])
        assert r.exit_code == 0, r.output
        assert r.stderr == ""
        assert r.stdout == (f"stopped after 1 iterations, bound -1e+305, "
                            f"wrote {out}\n")
        assert '"elbo_trace":[-1e+305]' in out.read_text()

    def test_alpha_nested_too_deeply(self, runner, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("what did you see\n")
        p = tmp_path / "alpha.json"
        p.write_text('{"d": ' + "[" * 5000 + "]" * 5000 + "}")
        r = runner.invoke(main, ["train", WHQ, str(corpus), "--start", "c",
                                 "--alpha", str(p),
                                 "--out", str(tmp_path / "r.json")])
        _assert_one_error_line(r, 2)
        assert "JSON nests deeper than" in r.stderr


class TestByteOrderMark:
    """A UTF-8 byte-order mark is not part of the first line."""

    def test_lexicon(self, runner, tmp_path):
        # whq.lex without its comment line, so an item comes first
        text = Path(WHQ).read_text(encoding="utf-8").split("\n", 1)[1]
        p = tmp_path / "bom.lex"
        p.write_text(text, encoding="utf-8-sig")
        r = runner.invoke(main, ["parse", str(p), "what did you see",
                                 "--start", "c"])
        assert r.exit_code == 0
        assert json.loads(r.output)["count"] == 1

    def test_corpus_and_theta(self, runner, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("what did you see\n", encoding="utf-8-sig")
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps(TestBadModelRows.THETA),
                         encoding="utf-8-sig")
        r = runner.invoke(main, ["parse", WHQ, "--start", "c",
                                 "--corpus", str(corpus)])
        assert r.exit_code == 0
        assert json.loads(r.output)["count"] == 1
        r = runner.invoke(main, ["score", WHQ, "what did you see",
                                 "--start", "c", "--theta", str(theta)])
        assert r.exit_code == 0
        assert json.loads(r.output)["prob"] == 0.25


class TestNonUtf8Input:
    def test_lexicon(self, runner, tmp_path):
        p = tmp_path / "bad.lex"
        p.write_bytes(b"kim :: d\xff\n")
        r = runner.invoke(main, ["validate", str(p)])
        _assert_one_error_line(r, 2)
        assert "not UTF-8" in r.stderr

    def test_corpus(self, runner, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(b"kim saw\xff\n")
        r = runner.invoke(main, ["train", WHQ, str(corpus), "--start", "c",
                                 "--out", str(tmp_path / "r.json")])
        _assert_one_error_line(r, 2)
        assert "not UTF-8" in r.stderr


class TestDeepDerivations:
    """A 10,000-token chain derivation checks, derives, parses and scores.

    No step takes one Python frame per tree level, so depth is bounded by
    memory, not by the interpreter's recursion limit.
    """

    N = 10_000
    REFS = ["ε"] + ["a"] * (N - 1) + ["b"]
    SENTENCE = " ".join(["a"] * (N - 1) + ["b"])
    IDS = [[1, 0]] + [[0, 0]] * (N - 1) + [[0, 1]]

    @pytest.fixture(scope="class")
    def chain(self, tmp_path_factory):
        p = tmp_path_factory.mktemp("deep") / "chain.lex"
        p.write_text("a :: =x x\nb :: x\nε :: =x c\n")
        return str(p)

    def test_check_seq(self, runner, chain):
        r = runner.invoke(main, ["check-seq", chain, "--no-trace"] + self.REFS)
        assert r.exit_code == 0
        assert r.output == "well-formed\n"

    def test_check_seq_traced(self, runner, chain):
        r = runner.invoke(main, ["check-seq", chain] + self.REFS)
        assert r.exit_code == 0
        assert r.output.endswith("accept         empty sequence\nwell-formed\n")

    def test_derive(self, runner, chain):
        r = runner.invoke(main, ["derive", chain] + self.REFS)
        assert r.exit_code == 0
        assert r.output == (
            "[merge ε " + "[merge a " * (self.N - 1) + "b" + "]" * self.N + "\n"
            "category: c\n"
            f"string: {self.SENTENCE}\n")

    def test_parse(self, runner, chain):
        r = runner.invoke(main, ["parse", chain, self.SENTENCE, "--start", "c"])
        assert r.exit_code == 0
        payload = json.loads(r.output)
        assert payload["count"] == 1
        assert payload["derivations"] == [self.IDS]

    def test_score(self, runner, chain):
        r = runner.invoke(main, ["score", chain, self.SENTENCE, "--start", "c"])
        assert r.exit_code == 0
        payload = json.loads(r.output)
        assert payload["count"] == 1
        assert [d["items"] for d in payload["derivations"]] == [self.IDS]
        # Uniform θ: ε has probability 1, and a and b 1/2 each.  The
        # probability underflows to 0; its log, about -6931, does not.
        log_prob = 0.0
        for p in [1.0] + [0.5] * (self.N - 1) + [0.5]:
            log_prob += math.log(p)
        assert math.isfinite(log_prob) and log_prob < -6900
        assert payload["prob"] == 0.0
        assert payload["log_prob"] == log_prob
        assert [d["log_prob"] for d in payload["derivations"]] == [log_prob]

    def test_library(self, chain):
        import pdmg
        lex = pdmg.load_lexicon(chain)
        forest = pdmg.parse(lex, self.SENTENCE.split(), pdmg.ParseConfig(start="c"))
        assert forest.count == 1
        seq = forest.sequences[0]
        assert [list(it.item_id) for it in seq] == self.IDS
        tree = pdmg.seq_to_tree(seq)
        assert pdmg.tree_to_seq(tree) == seq
        assert pdmg.count_nodes(tree) == (self.N + 1, self.N, 0)
        assert pdmg.render_tree(tree).endswith("[merge a b" + "]" * self.N)
        assert pdmg.eval_sequence(seq) == self.SENTENCE


class TestValidate:
    def test_whq_summary(self, runner):
        r = runner.invoke(main, ["validate", WHQ])
        assert r.exit_code == 0
        assert r.output == (
            "5 items, 4 categories\n"
            "  [0] d: what@0.0, you@0.1\n"
            "  [1] v: see@1.0\n"
            "  [2] i: did@2.0\n"
            "  [3] c: ε@3.0\n"
            "covert: ε@3.0\n")

    def test_smc_risk_note(self, runner, tmp_path):
        p = tmp_path / "risky.lex"
        p.write_text("who :: d -wh\nwhat :: d -wh\nsee :: =d =d v\n"
                     "ε :: =v +wh c\n")
        r = runner.invoke(main, ["validate", str(p)])
        assert r.exit_code == 0
        assert "note: several items lead with -wh: who@0.0, what@0.1" in r.output

    def test_bad_lexicon(self, runner, tmp_path):
        p = tmp_path / "bad.lex"
        p.write_text("oops\n")
        r = runner.invoke(main, ["validate", str(p)])
        assert r.exit_code == 2
        assert "line 1" in r.stderr

    def test_missing_file(self, runner):
        r = runner.invoke(main, ["validate", "/nonexistent.lex"])
        assert r.exit_code == 2


class TestInternalError:
    def test_unexpected_exception_exits_5(self, runner, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("chart exploded")

        monkeypatch.setattr(pdmg.cli, "parse", broken)
        r = runner.invoke(main, ["parse", WHQ, "you", "--start", "d"])
        _assert_one_error_line(r, 5)
        assert "RuntimeError" in r.stderr
        assert "chart exploded" in r.stderr
        assert "Traceback" not in r.stderr + r.stdout


class TestHelp:
    def test_root_help(self, runner):
        r = runner.invoke(main, ["--help"])
        assert r.exit_code == 0
        for cmd in ("validate", "check-seq", "derive", "parse", "score",
                    "sample", "train"):
            assert cmd in r.output

    def test_version(self, runner):
        r = runner.invoke(main, ["--version"])
        assert r.exit_code == 0
        assert "0.1.0" in r.output
