"""Acceptance gate: twelve criteria, one test each.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion; each test also prints an ``ACCEPTANCE n`` line visible
under ``-s``.  Tolerances and budgets are pinned in the assertions.
"""

import itertools
import math
import time

import mpmath
import numpy as np
import pytest
import scipy.stats
from click.testing import CliRunner

import oracle
import pdmg
from conftest import data_path
from pdmg import (
    ParseConfig,
    SampleConfig,
    TrainConfig,
    ones_alpha,
    parse,
    sample_derivation,
    train,
    uniform_theta,
)
from pdmg.cli import main as cli_main
from pdmg.model import log_theta_star_flat
from pdmg.special import psi

mpmath.mp.dps = 40


def report(n: int, label: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {n} PASS: {label}{suffix}")


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def test_criterion_01_walkthrough_trace(whq_seq):
    # The five-item question sequence is accepted, and the recorded actions
    # line up one-for-one with the fifteen-stage walkthrough (its ninth
    # stage covers a category match plus the deletion it triggers; the
    # final accept step closes the trace).
    trace, seconds = timed(lambda: pdmg.trace_wellformed(whq_seq))
    assert trace.verdict is True
    assert pdmg.is_wellformed(whq_seq)
    stages = [
        ["skip-right"], ["skip-right"], ["skip-right"],
        ["category-match"], ["delete-item"],
        ["skip-right"], ["category-match"], ["licensee-left"],
        ["category-match", "delete-item"],
        ["category-match"], ["delete-item"],
        ["licensor-match"], ["root-category"],
        ["delete-item"], ["delete-item"],
    ]
    assert len(stages) == 15
    flat = [a for group in stages for a in group]
    actions = [s.action for s in trace.steps]
    assert actions[:-1] == flat
    assert actions[-1] == "accept"
    assert seconds < 0.010
    report(1, "walkthrough trace matches the fifteen stages",
           f"{seconds * 1000:.2f} ms")


def test_criterion_02_walkthrough_evaluation(whq_seq):
    def work():
        tree = pdmg.seq_to_tree(whq_seq)
        return tree, pdmg.eval_sequence(whq_seq)

    (tree, words), seconds = timed(work)
    assert words == "what did you see"
    assert pdmg.count_nodes(tree) == (5, 4, 1)
    assert pdmg.tree_to_seq(tree) == tuple(whq_seq)
    assert seconds < 0.010
    report(2, "evaluation spells out the question and the tree shape",
           f"{seconds * 1000:.2f} ms")


def test_criterion_03_checker_equivalence(whq):
    def eval_succeeds(seq) -> bool:
        try:
            pdmg.eval_sequence(seq)
            return True
        except pdmg.PdmgError:
            return False

    def sweep():
        disagreements = 0
        total = 0
        for n in range(1, 6):
            for seq in itertools.product(whq.items, repeat=n):
                total += 1
                if pdmg.is_wellformed(seq) != eval_succeeds(seq):
                    disagreements += 1
        return total, disagreements

    (total, disagreements), seconds = timed(sweep)
    assert total == 5 + 25 + 125 + 625 + 3125
    assert disagreements == 0
    assert seconds < 5.0
    report(3, "checker and evaluator agree on every sequence to length 5",
           f"{total} sequences, {seconds:.2f} s")


def test_criterion_04_parser_completeness(move2, ambig, chain):
    def sweep():
        checked = 0
        for lex in (move2, ambig, chain):
            vocab = sorted({it.phon for it in lex.items if it.phon})
            table = oracle.enumerate_wellformed(lex, "c", max_overt=4,
                                                max_covert=3)
            by_sentence: dict[str, list] = {}
            for ids, sentence in table:
                by_sentence.setdefault(sentence, []).append(ids)
            cfg = ParseConfig(start="c")
            for sentence in oracle.all_sentences(vocab, 4):
                forest = parse(lex, sentence.split(), cfg)
                got = [tuple(it.item_id for it in seq)
                       for seq in forest.sequences]
                assert got == sorted(by_sentence.get(sentence, [])), sentence
                checked += 1
        return checked

    checked, seconds = timed(sweep)
    assert seconds < 60.0
    report(4, "chart output equals brute-force enumeration",
           f"{checked} sentences over 3 lexicons, {seconds:.2f} s")


def test_criterion_05_digamma_accuracy():
    xs = np.logspace(-6.0, 6.0, 1000)
    # the scalar routine train runs on pseudo-counts and their sums
    got = np.array([psi(float(x)) for x in xs])
    want = np.array([float(mpmath.digamma(x)) for x in xs])
    worst = float(np.max(np.abs(got - want)))
    assert worst <= 1e-10
    euler = float(mpmath.euler)
    psi1, psi2 = psi(1.0), psi(2.0)
    assert abs(psi1 + euler) <= 1e-12
    assert abs(psi2 - (psi1 + 1.0)) <= 1e-12
    report(5, "digamma within 1e-10 across twelve decades",
           f"worst |err| = {worst:.2e}")


def test_criterion_06_theta_star_identities():
    pair = [math.exp(t) for t in log_theta_star_flat([1.0, 1.0], [0, 2])]
    assert max(abs(p - math.exp(-1.0)) for p in pair) <= 1e-12

    for w in (1e-3, 0.5, 1.0, 42.0, 1e3):
        assert math.exp(log_theta_star_flat([w], [0, 1])[0]) == 1.0

    rng = np.random.default_rng(20260816)
    for _ in range(10_000):
        dim = int(rng.integers(2, 11))
        omega = rng.uniform(1e-3, 1e3, size=dim).tolist()
        theta = [math.exp(t) for t in log_theta_star_flat(omega, [0, dim])]
        assert math.fsum(theta) <= 1.0
    report(6, "theta-star identities and sub-normalization",
           "10000 random vectors")


def _derivable_sentences(lex) -> list[str]:
    table = oracle.enumerate_wellformed(lex, "c", max_overt=4, max_covert=3)
    return sorted({s for _, s in table if s})


def test_criterion_07_vb_monotone_and_convergent(whq, move2, ambig, chain,
                                                 symmetric):
    lexicons = [whq, move2, ambig, chain, symmetric]
    pools = [_derivable_sentences(lex) for lex in lexicons]
    rng = np.random.default_rng(7)

    def run_all():
        converged = 0
        for i in range(50):
            lex = lexicons[i % len(lexicons)]
            pool = pools[i % len(lexicons)]
            size = int(rng.integers(3, 9))
            corpus = [pool[int(rng.integers(len(pool)))] for _ in range(size)]
            alpha = {cat: [float(v) for v in
                           rng.uniform(0.2, 3.0, size=len(
                               lex.items_of_category(cat)))]
                     for cat in lex.categories}
            state = train(lex, corpus, alpha,
                          TrainConfig(start="c", tol=1e-6, max_iters=100))
            trace = state.elbo_trace
            assert len(trace) >= 1
            for a, b in zip(trace, trace[1:]):
                assert b >= a - 1e-9, (i, trace)
            if state.converged:
                converged += 1
        return converged

    converged, seconds = timed(run_all)
    assert converged >= 45
    assert seconds < 120.0
    report(7, "ELBO non-decreasing on 50 random instances",
           f"{converged}/50 converged, {seconds:.2f} s")


def test_criterion_08_one_shot_fixed_point(whq):
    sentence = "what did you see"
    alpha = ones_alpha(whq)

    one = train(whq, [sentence], alpha, TrainConfig(start="c", max_iters=1))
    full = train(whq, [sentence], alpha, TrainConfig(start="c"))

    # the unique derivation uses each of the five items once
    posterior = oracle.exact_posterior(whq, uniform_theta(whq), sentence,
                                       "c", max_covert=3)
    counts = oracle.expected_counts(whq, [posterior])
    want = {cat: [a + c for a, c in zip(alpha[cat], counts[cat])]
            for cat in whq.categories}

    assert one.iterations == 1
    assert one.omega == want
    assert full.converged
    assert full.omega == one.omega
    assert one.omega["d"] == [2.0, 2.0]
    assert all(one.omega[cat] == [2.0] for cat in ("v", "i", "c"))
    report(8, "single pass lands on omega = alpha + oracle counts",
           "all five items at 2.0")


def test_criterion_09_posterior_sanity(ambig):
    corpus = ["saw", "saw kim", "saw", "saw", "saw kim"]
    state = train(ambig, corpus, ones_alpha(ambig),
                  TrainConfig(start="c", tol=1e-6, max_iters=100))
    assert state.converged
    theta_hat = state.theta_mean

    worst = 0.0
    for post in state.posteriors:
        exact = oracle.exact_posterior(ambig, theta_hat, post.sentence, "c",
                                       max_covert=3)
        got = {tuple(it.item_id for it in seq): w
               for seq, w in zip(post.sequences, post.weights)}
        assert set(got) == set(exact)
        tv = 0.5 * sum(abs(got[ids] - exact[ids]) for ids in exact)
        worst = max(worst, tv)
    assert worst <= 0.05
    report(9, "variational posteriors close to exact enumeration",
           f"max TV = {worst:.4f}")


def test_criterion_10_swap_symmetry(symmetric):
    # categories a and b are mirror images, as are the two covert c heads;
    # a corpus and prior that respect the mirror must yield omegas that
    # are bitwise equal under the swap
    corpus = ["w", "w", "w"]
    alpha = {"a": [1.3], "b": [1.3], "c": [0.8, 0.8]}
    state = train(symmetric, corpus, alpha,
                  TrainConfig(start="c", tol=1e-6, max_iters=100))
    assert state.omega["a"][0] == state.omega["b"][0]
    assert state.omega["c"][0] == state.omega["c"][1]
    assert state.theta_mean["c"][0] == state.theta_mean["c"][1]
    report(10, "item-swap symmetry preserved bitwise",
           f"omega_a = omega_b = {state.omega['a'][0]!r}")


def test_criterion_11_sampler_distribution(whq):
    theta = uniform_theta(whq)
    cfg = SampleConfig(start="c")
    rng = np.random.default_rng(11)
    counts: dict[tuple, int] = {}
    for _ in range(10_000):
        seq, _ = sample_derivation(whq, theta, cfg, rng)
        key = tuple(it.item_id for it in seq)
        counts[key] = counts.get(key, 0) + 1

    seq1 = ((3, 0), (2, 0), (1, 0), (0, 0), (0, 1))
    seq2 = ((3, 0), (2, 0), (1, 0), (0, 1), (0, 0))
    assert set(counts) == {seq1, seq2}
    expected = {seq1: 5000.0, seq2: 5000.0}
    stat = oracle.chi_square_stat(counts, expected)
    pvalue = float(scipy.stats.chi2.sf(stat, df=len(expected) - 1))
    assert pvalue > 0.01

    runner = CliRunner()
    args = ["sample", data_path("whq.lex"), "--start", "c",
            "-n", "200", "--seed", "3"]
    first = runner.invoke(cli_main, args)
    second = runner.invoke(cli_main, args)
    assert first.exit_code == second.exit_code == 0
    assert first.output.encode() == second.output.encode()
    report(11, "sampler matches the renormalized distribution",
           f"chi2 = {stat:.3f}, p = {pvalue:.3f}")


def test_criterion_12_train_determinism(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("what did you see\nwhat did see you\n")
    runner = CliRunner()
    outputs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        result = runner.invoke(cli_main, [
            "train", data_path("whq.lex"), str(corpus),
            "--start", "c", "--out", str(out)])
        assert result.exit_code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    report(12, "repeated training writes byte-identical results",
           f"{len(outputs[0])} bytes")
