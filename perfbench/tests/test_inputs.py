"""Tests of the benchmark's own code; none runs a timed workload.

    PYTHONPATH=src python -m pytest -q perfbench/tests

The reference values the benchmark checks pdmg against (reading counts,
the score-pp sentence probability, the train-pp bound and fixed point)
are compared here with brute force: every polish-order sequence built
from a tiny sentence's items, kept when ``tests/oracle.py``'s ``check``
accepts it and spells the sentence.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tests"))

import inputs  # noqa: E402
import oracle  # noqa: E402
from pdmg import parse_lexicon  # noqa: E402

PP_LEX = parse_lexicon(inputs.lexicon_text(inputs.PP_ENTRIES))
TINY_SHAPES = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 1)]


def brute_derivations(lex, tokens, start):
    """Id tuples of every sequence over the tokens' items that spells them."""
    sentence = " ".join(tokens)
    found = set()
    for choice in itertools.product(*(lex.items_by_phon(t) for t in tokens)):
        pool = list(choice)

        def grow(seq, todo, left):
            if not todo:
                if not left:
                    ok, words = oracle.check(seq)
                    if ok and words == sentence:
                        found.add(tuple(it.item_id for it in seq))
                return
            cat, rest = todo[0], todo[1:]
            for i, it in enumerate(left):
                if it.category == cat and it not in left[:i]:
                    grow(seq + [it], [f.name for f in it.selectors] + rest,
                         left[:i] + left[i + 1:])

        grow([], [start], pool)
    return sorted(found)


def tiny_sentence(seed, e, k):
    rng = random.Random(seed)
    return inputs.pp_sentence(rng, e, [rng.choice(inputs.PREPS) for _ in range(k)])


def test_same_seed_same_inputs(tmp_path):
    for workload in inputs.WORKLOADS:
        a, b = inputs.make_inputs(workload, 7), inputs.make_inputs(workload, 7)
        assert a == b
        inputs.write_inputs(a, tmp_path / "a")
        inputs.write_inputs(b, tmp_path / "b")
        for f in (tmp_path / "a").iterdir():
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()
        assert inputs.make_inputs(workload, 8) != a


def test_train_corpus_shapes_do_not_depend_on_the_seed():
    def shapes(seed):
        return sorted((s.e, s.k) for s in inputs.make_inputs("train-pp", seed).pp)
    assert shapes(1) == shapes(2)
    assert len(shapes(1)) == len(inputs.TRAIN_SHAPES) * inputs.TRAIN_PER_SHAPE


def test_item_ids_match_the_package_numbering():
    for entries in (inputs.PP_ENTRIES, inputs.CHAIN_ENTRIES, inputs.WH_ENTRIES):
        lex = parse_lexicon(inputs.lexicon_text(entries))
        cats, ids = inputs.item_ids(entries)
        assert cats == lex.categories
        for (phon, feats), (k, m) in ids.items():
            item = lex.item(k, m)
            assert (item.phon, " ".join(map(str, item.features))) == (phon, feats)


@pytest.mark.parametrize("e,k", TINY_SHAPES)
def test_reading_counts_match_brute_force(e, k):
    s = tiny_sentence(e * 10 + k, e, k)
    brute = brute_derivations(PP_LEX, s.tokens, inputs.PP_START)
    assert len(brute) == inputs.inside(e, [1] * k, [1] * k) == len(inputs.readings(e, k))
    if e == 0:
        assert len(brute) == inputs.catalan(k + 1)
    # Each reading's items, as a multiset, are some brute-force derivation's.
    want = sorted(sorted(ids) for ids in brute)
    assert sorted(sorted(r) for r in inputs.reading_items(s)) == want


@pytest.mark.parametrize("k", [1, 2, 3])
def test_catalan_counts_of_the_inside_recursion(k):
    assert inputs.inside(0, [1] * (k + 5), [1] * (k + 5)) == inputs.catalan(k + 6)


@pytest.mark.parametrize("e,k", TINY_SHAPES)
def test_sentence_prob_matches_brute_force(e, k):
    s = tiny_sentence(100 + e * 10 + k, e, k)
    theta = inputs.make_inputs("score-pp", 3).theta
    brute = brute_derivations(PP_LEX, s.tokens, inputs.PP_START)
    total = math.fsum(math.prod(theta[PP_LEX.categories[c]][m] for c, m in ids)
                      for ids in brute)
    assert inputs.sentence_prob(s, theta) == pytest.approx(total, rel=1e-12)


def test_vb_reference_matches_brute_force():
    from scipy.special import digamma

    corpus = [tiny_sentence(200 + i, e, k) for i, (e, k) in enumerate(TINY_SHAPES)]
    rng = random.Random(5)
    alpha = {cat: [1.0] * len(PP_LEX.items_of_category(cat)) for cat in PP_LEX.categories}
    omega = {cat: [a + rng.uniform(0.1, 5.0) for a in row] for cat, row in alpha.items()}
    bound, next_omega = inputs.vb_reference(corpus, omega, alpha)

    tstar = {cat: [math.exp(digamma(w) - digamma(math.fsum(row))) for w in row]
             for cat, row in omega.items()}
    log_z, posteriors = [], []
    for s in corpus:
        brute = brute_derivations(PP_LEX, s.tokens, inputs.PP_START)
        weights = [math.prod(tstar[PP_LEX.categories[c]][m] for c, m in ids)
                   for ids in brute]
        z = math.fsum(weights)
        log_z.append(math.log(z))
        posteriors.append({ids: w / z for ids, w in zip(brute, weights)})
    kl = math.fsum(oracle.dirichlet_kl_exact(omega[c], alpha[c], digamma, math.lgamma)
                   for c in PP_LEX.categories)
    assert bound == pytest.approx(math.fsum(log_z) - kl, rel=1e-12)
    counts = oracle.expected_counts(PP_LEX, posteriors)
    for cat in PP_LEX.categories:
        assert next_omega[cat] == pytest.approx(
            [a + n for a, n in zip(alpha[cat], counts[cat])], rel=1e-12)


def test_chain_ids_spell_the_sentence():
    lex = parse_lexicon(inputs.lexicon_text(inputs.CHAIN_ENTRIES))
    spec = inputs.make_inputs("parse-chain", 4)
    assert [len(s.split()) for s in spec.sentences] == list(inputs.CHAIN_LENGTHS)
    for sentence, ids in zip(spec.sentences, spec.chain_ids):
        seq = [lex.item(k, m) for k, m in ids]
        assert oracle.check(seq) == (True, sentence)


def test_scale_uses_the_loop_time_around_each_operation():
    import calibrate

    ref = calibrate.LOOP_REF_S
    # The loop ran before every operation: at 2*ref for the first ten,
    # at 4*ref for the next ten and once more after the last one.
    samples = [(i, 2 * ref if i < 10 else 4 * ref) for i in range(21)]
    scaled = calibrate.scale([1.0] * 20, samples)
    assert scaled[:5] == pytest.approx([0.5] * 5)
    assert scaled[15:] == pytest.approx([0.25] * 5)


def test_scale_ignores_one_interrupted_loop():
    import calibrate

    ref = calibrate.LOOP_REF_S
    samples = [(i, ref) for i in range(10)] + [(10, 50 * ref)] + \
        [(i, ref) for i in range(11, 21)]
    assert calibrate.scale([1.0] * 20, samples) == pytest.approx([1.0] * 20)
