"""Unit tests for corpus encoding, the bound, and the training loop."""

import math
import random
import re

import numpy as np
import pytest
from click.testing import CliRunner

import oracle
import pdmg
from conftest import (OVERFLOW_ALPHA, OVERFLOW_LEXICON, data_path,
                      embedded_mover_lexicon, random_lexicon, remnant_lexicon,
                      rich_lexicon, twin_mover_lexicon)
from pdmg import (
    CapExceeded,
    InvalidModel,
    ParseConfig,
    SampleConfig,
    TrainConfig,
    UnknownCategoryError,
    UnparsedSentence,
    encode_corpus,
    ones_alpha,
    parse,
    posterior_mean,
    theta_star,
    train,
    uniform_theta,
)
from pdmg.cli import main
from pdmg.inference import estep_flat
from pdmg.model import log_theta_star_flat


def derivations_for(lex, sentences, start="c"):
    cfg = ParseConfig(start=start)
    return [parse(lex, s.split(), cfg).ids for s in sentences]


class TestFlatViews:
    def test_round_trip(self, whq):
        # train lays the rows end to end in lexicon order, category k at
        # whq.offsets[k]; with no iteration, omega is alpha's rows again.
        rows = {"d": [1.0, 2.0], "v": [3.0], "i": [4.0], "c": [5.0]}
        state = train(whq, ["what did you see"], rows,
                      TrainConfig(start="c", max_iters=0))
        assert state.omega == rows
        flat = log_theta_star_flat([1.0, 2.0, 3.0, 4.0, 5.0], whq.offsets)
        assert [math.exp(t) for t in flat[:2]] == theta_star(whq, rows)["d"]
        assert flat[2:] == [0.0, 0.0, 0.0]


class TestThetaStar:
    def test_pair_of_ones(self, whq):
        omega = ones_alpha(whq)
        ts = theta_star(whq, omega)
        assert ts["d"][0] == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert ts["d"][1] == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_singletons_exact_one(self, whq):
        ts = theta_star(whq, ones_alpha(whq))
        assert ts["v"] == [1.0]
        assert ts["i"] == [1.0]
        assert ts["c"] == [1.0]

    def test_rejects_nonpositive(self, whq):
        omega = ones_alpha(whq)
        omega["d"] = [1.0, 0.0]
        with pytest.raises(InvalidModel):
            theta_star(whq, omega)

    @pytest.mark.parametrize("tiny", [1e-300, 1e-305, 1e-308, 1e-309, 5e-324])
    def test_tiny_pseudo_count(self, whq, tiny):
        # psi(tiny) is about -1/tiny, so theta* is 0; at or below 2**-1024
        # (1/DBL_MAX, rounded) psi is -inf and the row is refused.
        omega = ones_alpha(whq)
        omega["d"] = [tiny, 1.0]
        if tiny <= 2.0 ** -1024:
            with pytest.raises(InvalidModel, match=r"> 2\*\*-1024"):
                theta_star(whq, omega)
        else:
            assert theta_star(whq, omega)["d"] == [0.0, 1.0]

    def test_subnormalized(self, whq):
        rng = np.random.default_rng(0)
        for _ in range(50):
            omega = {cat: list(rng.uniform(1e-3, 1e3, size=len(row)))
                     for cat, row in ones_alpha(whq).items()}
            ts = theta_star(whq, omega)
            for row in ts.values():
                assert math.fsum(row) <= 1.0 + 1e-12


class TestPosteriorMean:
    def test_simple(self, whq):
        omega = {"d": [1.0, 3.0], "v": [2.0], "i": [5.0], "c": [0.5]}
        mean = posterior_mean(whq, omega)
        assert mean["d"] == [0.25, 0.75]
        assert mean["v"] == [1.0]

    def test_is_trains_theta_mean(self, ambig):
        state = train(ambig, ["saw", "saw kim"], ones_alpha(ambig),
                      TrainConfig(start="c"))
        assert state.theta_mean == posterior_mean(ambig, state.omega)
        for cat, row in state.omega.items():
            want = [v / math.fsum(row) for v in row]
            assert state.theta_mean[cat] == pytest.approx(want, rel=1e-15)


def count_rows(enc):
    """Each derivation's item counts, its sentence's shared counts plus its
    extra ones, as one row per derivation."""
    rows = [[0.0] * enc.n_items for _ in range(len(enc.dstart) - 1)]
    for n, i, c in zip(enc.shared_sentence, enc.shared_item, enc.shared_count):
        for j in range(enc.sstart[n], enc.sstart[n + 1]):
            rows[j][i] += c
    for j, i, c in zip(enc.extra_derivation, enc.extra_item, enc.extra_count):
        rows[j][i] += c
    return rows


class TestEncodeCorpus:
    def test_layout(self, whq):
        sentences = ["what did you see", "you"]
        derivations = [
            parse(whq, sentences[0].split(), ParseConfig(start="c")).ids,
            parse(whq, sentences[1].split(), ParseConfig(start="d")).ids]
        enc = encode_corpus(sentences, derivations, whq.n_items)
        # one derivation of five items, then one of a single item
        assert enc.dstart.tolist() == [0, 5, 6]
        assert enc.sstart.tolist() == [0, 1, 2]
        assert count_rows(enc) == [[1.0, 1.0, 1.0, 1.0, 1.0],
                                   [0.0, 1.0, 0.0, 0.0, 0.0]]
        # a sentence's only derivation shares all its counts
        assert enc.extra_derivation.size == 0
        assert enc.shared_count.dtype == np.float64
        assert enc.sentences == tuple(sentences)

    def test_ambiguous_sentence_groups_derivations(self, ambig):
        enc = encode_corpus(["saw"], derivations_for(ambig, ["saw"]),
                            ambig.n_items)
        assert enc.sstart.tolist() == [0, 2]
        assert len(enc.dstart) == 3
        assert len(count_rows(enc)) == 2

    def test_repeated_item_is_counted(self, whq):
        enc = encode_corpus(["x"], [((0, 2, 0, 0),)], whq.n_items)
        assert count_rows(enc) == [[3.0, 0.0, 1.0, 0.0, 0.0]]

    def test_shared_counts_are_the_least_over_derivations(self, whq):
        # Item 0 is used twice and three times, so twice by every
        # derivation; item 1 by one derivation only, item 2 once by each.
        enc = encode_corpus(["x"], [((0, 0, 2, 1), (2, 0, 0, 0))], whq.n_items)
        assert enc.shared_item.tolist() == [0, 2]
        assert enc.shared_count.tolist() == [2.0, 1.0]
        assert sorted(zip(enc.extra_derivation.tolist(), enc.extra_item.tolist(),
                          enc.extra_count.tolist())) == [(0, 1, 1.0), (1, 0, 1.0)]
        assert count_rows(enc) == [[2.0, 1.0, 1.0, 0.0, 0.0],
                                   [3.0, 0.0, 1.0, 0.0, 0.0]]

    def test_counts_match_each_derivation(self):
        # Seeded corpora of 1-4 derivations per sentence over 1-6 items,
        # repeats included: the split rows are each derivation's counts,
        # and no more entries are stored than there are item occurrences.
        rng = np.random.default_rng(5)
        for _ in range(200):
            n_items = int(rng.integers(1, 7))
            forests = [tuple(tuple(int(i) for i in rng.integers(0, n_items, rng.integers(1, 6)))
                             for _ in range(rng.integers(1, 5)))
                       for _ in range(rng.integers(1, 5))]
            enc = encode_corpus([""] * len(forests), forests, n_items)
            want = [[float(d.count(i)) for i in range(n_items)]
                    for forest in forests for d in forest]
            assert count_rows(enc) == want
            occurrences = sum(len(d) for forest in forests for d in forest)
            assert enc.shared_item.size + enc.extra_item.size <= occurrences

    def test_size_does_not_grow_with_the_lexicon(self):
        # Two derivations sharing item 3: one shared and one extra entry,
        # however many items the lexicon has.
        enc = encode_corpus(["x"], [((3, 999_999), (3,))], 10**6)
        assert enc.shared_item.tolist() == [3]
        assert enc.extra_item.tolist() == [999_999]

    def test_empty_corpus(self, whq):
        enc = encode_corpus([], [], whq.n_items)
        assert count_rows(enc) == []
        assert enc.n_items == whq.n_items
        assert enc.dstart.tolist() == [0]
        assert enc.sstart.tolist() == [0]

    @pytest.mark.parametrize("empty_at", [0, 1])
    def test_sentence_without_derivations_refused(self, ambig, empty_at):
        # The e-step needs a derivation per sentence.  Unchecked, an empty
        # last sentence made it raise IndexError, and an empty first one
        # silently got log Z -3, its neighbour's.
        derivations = [(), ()]
        derivations[1 - empty_at] = derivations_for(ambig, ["saw"], "v")[0]
        with pytest.raises(UnparsedSentence,
                           match=rf"sentence {empty_at} has no derivations: "):
            encode_corpus(["a", "b"], derivations, ambig.n_items)

    @pytest.mark.parametrize("item", [-1, 5])
    def test_item_id_out_of_range_refused(self, whq, item):
        with pytest.raises(ValueError, match=r"item ids must lie in \[0, 5\)"):
            encode_corpus(["x", "y"], [((0,),), ((item, 1),)], whq.n_items)


class TestEStepAndBound:
    def test_unambiguous_posterior_is_one(self, whq):
        enc = encode_corpus(["what did you see"],
                            derivations_for(whq, ["what did you see"]),
                            whq.n_items)
        log_tstar = log_theta_star_flat([1.0] * whq.n_items, whq.offsets)
        q, logz, counts = estep_flat(np.array(log_tstar), enc)
        assert q.tolist() == [1.0]
        # log t* is -1 for each d item, 0 for singletons
        assert logz[0] == pytest.approx(-2.0, abs=1e-12)
        assert counts.tolist() == [1.0, 1.0, 1.0, 1.0, 1.0]

    def test_bound_at_prior_has_no_kl(self, whq):
        # One iteration runs at omega = alpha, so the bound is log Z alone.
        state = train(whq, ["what did you see"], ones_alpha(whq),
                      TrainConfig(start="c", max_iters=1))
        assert state.iterations == 1
        assert state.posteriors[0].weights == (1.0,)
        assert state.elbo_trace[0] == pytest.approx(-2.0, abs=1e-12)
        # omega = alpha + counts, one count per item of the derivation
        assert state.omega == {
            "d": [2.0, 2.0], "v": [2.0], "i": [2.0], "c": [2.0]}

    def test_ambiguous_weights_follow_item_count(self, ambig):
        # under omega = 1 the short derivation wins by e per extra item
        state = train(ambig, ["saw"], ones_alpha(ambig),
                      TrainConfig(start="c", max_iters=1))
        weights = state.posteriors[0].weights
        assert len(weights) == 2
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)
        assert weights[1] > weights[0]


class TestTrainWhq:
    SENTENCE = "what did you see"

    def test_two_iteration_fixed_point(self, whq):
        state = train(whq, [self.SENTENCE], ones_alpha(whq),
                      TrainConfig(start="c"))
        assert state.converged
        assert state.iterations == 2
        assert state.omega == {
            "d": [2.0, 2.0], "v": [2.0], "i": [2.0], "c": [2.0]}

    def test_elbo_trace_values(self, whq):
        state = train(whq, [self.SENTENCE], ones_alpha(whq),
                      TrainConfig(start="c"))
        assert state.elbo_trace[0] == pytest.approx(-2.0, abs=1e-12)
        assert state.elbo_trace[1] == pytest.approx(-math.log(6.0), abs=1e-12)
        assert len(state.elbo_trace) == 2

    def test_single_iteration_reaches_final_omega(self, whq):
        one = train(whq, [self.SENTENCE], ones_alpha(whq),
                    TrainConfig(start="c", max_iters=1))
        full = train(whq, [self.SENTENCE], ones_alpha(whq),
                     TrainConfig(start="c"))
        assert not one.converged
        assert one.iterations == 1
        assert one.omega == full.omega

    def test_omega_is_alpha_plus_counts(self, whq):
        # counts for the one derivation are exactly one per item used
        state = train(whq, [self.SENTENCE], ones_alpha(whq),
                      TrainConfig(start="c", max_iters=1))
        posterior = oracle.exact_posterior(
            whq, uniform_theta(whq), self.SENTENCE, "c", max_covert=3)
        counts = oracle.expected_counts(whq, [posterior])
        alpha = ones_alpha(whq)
        want = {cat: [a + c for a, c in zip(alpha[cat], counts[cat])]
                for cat in alpha}
        assert state.omega == want

    def test_theta_mean(self, whq):
        state = train(whq, [self.SENTENCE], ones_alpha(whq),
                      TrainConfig(start="c"))
        assert state.theta_mean == {
            "d": [0.5, 0.5], "v": [1.0], "i": [1.0], "c": [1.0]}

    def test_posteriors_attached(self, whq):
        state = train(whq, [self.SENTENCE], ones_alpha(whq),
                      TrainConfig(start="c"))
        assert len(state.posteriors) == 1
        post = state.posteriors[0]
        assert post.sentence == self.SENTENCE
        assert post.weights == (1.0,)
        assert len(post.sequences) == 1


class TestPosteriorsOnDemand:
    """A fit decodes no derivation until ``posteriors`` is read."""

    SENTENCE = "what did you see"

    def test_train_builds_no_posterior(self, whq, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("a posterior was built")

        monkeypatch.setattr(pdmg.inference, "SentencePosterior", refuse)
        monkeypatch.setattr(pdmg.inference, "decode_ids", refuse)
        state = train(whq, [self.SENTENCE], ones_alpha(whq),
                      TrainConfig(start="c"))
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(self.SENTENCE + "\n")
        r = CliRunner().invoke(main, ["train", data_path("whq.lex"), str(corpus),
                                      "--start", "c",
                                      "--out", str(tmp_path / "result.json")])
        assert r.exit_code == 0, r.output
        monkeypatch.undo()
        assert [p.weights for p in state.posteriors] == [(1.0,)]

    def test_built_once(self, whq):
        state = train(whq, [self.SENTENCE, "what did see you"], ones_alpha(whq),
                      TrainConfig(start="c"))
        assert state.posteriors is state.posteriors
        assert [p.sentence for p in state.posteriors] == [
            self.SENTENCE, "what did see you"]


class TestTrainBehavior:
    def test_zero_iterations(self, whq):
        state = train(whq, ["what did you see"], ones_alpha(whq),
                      TrainConfig(start="c", max_iters=0))
        assert state.iterations == 0
        assert not state.converged
        assert state.elbo_trace == []
        assert state.omega == ones_alpha(whq)
        assert state.posteriors == []

    def test_empty_corpus_converges_to_prior(self, whq):
        state = train(whq, [], ones_alpha(whq), TrainConfig(start="c"))
        assert state.converged
        assert state.omega == ones_alpha(whq)
        assert state.elbo_trace == [0.0]

    def test_unknown_start_with_empty_corpus(self, whq):
        """Checked before any sentence is parsed, so with none as well."""
        with pytest.raises(UnknownCategoryError,
                           match="^unknown start category 'zz'$"):
            train(whq, [], ones_alpha(whq), TrainConfig(start="zz"))

    def test_unparsed_sentence_raises(self, whq):
        with pytest.raises(UnparsedSentence) as info:
            train(whq, ["what did you see", "see what"], ones_alpha(whq),
                  TrainConfig(start="c"))
        assert info.value.index == 1

    def test_skip_unparsed_records_indices(self, whq):
        state = train(whq, ["see what", "what did you see", "you you"],
                      ones_alpha(whq),
                      TrainConfig(start="c", skip_unparsed=True))
        assert state.unparsed == [0, 2]
        assert state.converged
        assert len(state.posteriors) == 1

    def test_every_sentence_unparsed(self, whq):
        state = train(whq, ["see what", "you you"], ones_alpha(whq),
                      TrainConfig(start="c", skip_unparsed=True))
        assert state.unparsed == [0, 1]
        assert state.iterations == 1
        assert state.converged
        assert state.elbo_trace == [0.0]
        assert state.omega == ones_alpha(whq)
        assert state.posteriors == []

    def test_invalid_alpha(self, whq):
        bad = ones_alpha(whq)
        bad["d"] = [1.0, 0.0]
        with pytest.raises(InvalidModel):
            train(whq, [], bad, TrainConfig(start="c"))

    def test_estep_overflow_is_invalid_model(self):
        # psi(6e-309) is about -1.7e308, which the row check lets through;
        # two counts of item a overflow the e-step's weights.  pyproject
        # turns any numpy RuntimeWarning into an error, so this raised
        # RuntimeWarning before the fit ignored overflow in numpy.
        lex = pdmg.parse_lexicon(OVERFLOW_LEXICON)
        with pytest.raises(InvalidModel, match="^objective became non-finite "
                           "at iteration 1$"):
            train(lex, ["b a a"], OVERFLOW_ALPHA, TrainConfig(start="y"))

    def test_invalid_config(self, whq):
        with pytest.raises(InvalidModel):
            train(whq, [], ones_alpha(whq),
                  TrainConfig(start="c", max_iters=-1))
        with pytest.raises(InvalidModel):
            train(whq, [], ones_alpha(whq),
                  TrainConfig(start="c", tol=math.nan))

    def test_trace_monotone_on_ambiguous_corpus(self, ambig):
        corpus = ["saw", "saw kim", "saw"]
        alpha = {"v": [0.7, 1.3], "d": [2.0, 0.5], "c": [1.0]}
        state = train(ambig, corpus, alpha, TrainConfig(start="c"))
        trace = state.elbo_trace
        assert len(trace) >= 2
        for a, b in zip(trace, trace[1:]):
            assert b >= a - 1e-9
        assert state.converged

    def test_symmetric_grammar_swaps(self, symmetric):
        # items of categories a and b mirror each other; training on a
        # corpus that uses both equally must keep their omegas equal
        state = train(symmetric, ["w"], ones_alpha(symmetric),
                      TrainConfig(start="c"))
        assert state.omega["a"] == state.omega["b"]
        assert state.omega["c"][0] == state.omega["c"][1]

    def test_tiny_alpha_entry_converges(self, whq):
        alpha = ones_alpha(whq)
        alpha["d"] = [1e-305, 1.0]
        state = train(whq, ["what did you see"], alpha, TrainConfig(start="c"))
        assert state.converged
        assert all(math.isfinite(b) for b in state.elbo_trace)
        assert state.omega["d"] == [1.0, 2.0]

    def test_validates_alpha_once_and_not_its_own_omega(self, whq, monkeypatch):
        # model's row check is the only one: inference no longer imports it.
        from pdmg import model
        names = []
        real = model._validate_rows

        def counted(lexicon, rows, name, **kw):
            names.append(name)
            return real(lexicon, rows, name, **kw)

        monkeypatch.setattr(model, "_validate_rows", counted)
        state = train(whq, ["what did you see"], ones_alpha(whq),
                      TrainConfig(start="c"))
        assert names == ["alpha"]
        assert state.theta_mean == posterior_mean(whq, state.omega)

    @pytest.mark.parametrize("fields, message", [
        ({"max_iters": -1}, "max_iters must be >= 0, got -1"),
        ({"tol": -1e-9}, "tol must be finite and >= 0"),
        ({"tol": math.nan}, "tol must be finite and >= 0"),
        ({"tol": math.inf}, "tol must be finite and >= 0"),
        ({"max_covert": -1}, "max_covert must be >= 0, got -1"),
    ])
    def test_config_checked_when_built(self, fields, message):
        with pytest.raises(InvalidModel, match=f"^{re.escape(message)}$"):
            TrainConfig(start="c", **fields)

    def test_zero_iters_and_tol_valid(self):
        cfg = TrainConfig(start="c", max_iters=0, tol=0.0)
        assert (cfg.max_iters, cfg.tol) == (0, 0.0)

    def test_tol_zero_runs_to_fixed_point(self, whq):
        state = train(whq, ["what did you see"], ones_alpha(whq),
                      TrainConfig(start="c", tol=0.0))
        assert state.converged  # bitwise omega fixed point still fires
        assert state.omega["d"] == [2.0, 2.0]


# PP attachment: each preposition attaches to a noun (=d n= n) or to the
# verb (=d v= v), so a sentence with k PPs has Catalan(k + 1) readings.
PP_LEXICON = """\
kim :: d
lee :: d
the :: =n d
man :: n
dog :: n
park :: n
with :: =d n= n
near :: =d n= n
saw :: =d d= v
met :: =d d= v
with :: =d v= v
near :: =d v= v
"""
PP_CORPUS = (
    "kim saw the man",
    "lee met the dog",
    "kim saw the man with the dog",
    "lee saw the park near the man",
    "kim met the dog near the park with the man",
    "lee saw the man with the dog near the park",
    "kim saw the dog with the man near the park with the dog",
    "lee met the park near the dog near the man with the park",
    "kim saw the man with the dog near the park with the man near the dog",
    "lee met the dog near the man with the park with the dog with the man",
    "kim saw the park with the man near the dog with the park near the man "
    "with the dog",
    "lee met the man near the park near the dog with the man near the park "
    "near the dog",
)


def vb_reference(lex, forests, alpha_flat, tol, max_iters):
    """train's loop in pure Python: ``oracle.estep_exact`` on flat ids and
    ``oracle.dirichlet_kl_exact`` per category, with the same stop rules.

    Returns (omega, bound trace, iterations, converged).
    """
    item_ids: list[int] = []
    dstart, sstart = [0], [0]
    for ids in forests:
        for d in ids:
            item_ids.extend(d)
            dstart.append(len(item_ids))
        sstart.append(len(dstart) - 1)
    offsets = lex.offsets
    omega, trace, converged = list(alpha_flat), [], False
    it = 0
    for it in range(1, max_iters + 1):
        log_tstar = log_theta_star_flat(omega, offsets)
        _, logz, counts = oracle.estep_exact(log_tstar, item_ids, dstart,
                                             sstart, lex.n_items)
        kl = math.fsum(oracle.dirichlet_kl_exact(
            omega[a:b], alpha_flat[a:b], psi=pdmg.special.psi,
            lgamma=math.lgamma) for a, b in zip(offsets, offsets[1:]))
        trace.append(math.fsum(logz) - kl)
        new_omega = [a + c for a, c in zip(alpha_flat, counts)]
        if new_omega == omega:
            converged = True
            break
        omega = new_omega
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) <= tol:
            converged = True
            break
    return omega, trace, it, converged


class TestPPCorpusFit:
    """A fit over 1-132 readings a sentence, against the pure-Python loop."""

    def test_matches_pure_python_loop(self):
        lex = pdmg.parse_lexicon(PP_LEXICON)
        cfg = TrainConfig(start="v", tol=1e-9)
        forests = [parse(lex, s.split(), cfg).ids for s in PP_CORPUS]
        assert sorted({len(ids) for ids in forests}) == [1, 2, 5, 14, 42, 132]
        alpha = ones_alpha(lex)
        state = train(lex, list(PP_CORPUS), alpha, cfg)
        want_omega, want_trace, want_iters, want_converged = vb_reference(
            lex, forests, [v for cat in lex.categories for v in alpha[cat]],
            cfg.tol, cfg.max_iters)
        assert state.iterations == want_iters
        assert state.converged is want_converged is True
        got_omega = [v for cat in lex.categories for v in state.omega[cat]]
        assert got_omega == pytest.approx(want_omega, rel=1e-12, abs=0)
        assert state.elbo_trace == pytest.approx(want_trace, rel=1e-12, abs=0)


class TestSampledCorpusFit:
    """The fit above, on corpora drawn from the random lexicon generators at
    every root start (seeds 0-19; a start whose draws all trip the
    sampler's caps has no corpus), from a seeded α.  Each corpus is parsed
    with as many covert leaves as its drawn sequences hold, and at least
    the default: twin-mover seed 11 and embedded-mover seed 2 at ``c`` draw
    sentences that need 4 and 6, and would be unparsed at the default."""

    @pytest.mark.parametrize("generator, corpora", [
        (random_lexicon, 10), (rich_lexicon, 3), (twin_mover_lexicon, 72),
        (embedded_mover_lexicon, 47), (remnant_lexicon, 72)])
    def test_matches_pure_python_loop(self, generator, corpora):
        fits = 0
        for seed in range(20):
            lex = generator(random.Random(seed))
            rng = random.Random(seed)
            for start in sorted(lex.root_categories):
                sequences = _drawn_sequences(lex, start, seed)
                if not sequences:
                    continue
                covert = max(sum(not it.phon for it in seq) for seq in sequences)
                cfg = TrainConfig(start=start, tol=1e-9,
                                  max_covert=max(covert, ParseConfig.max_covert))
                sentences = [pdmg.eval_sequence(seq) for seq in sequences]
                forests = [parse(lex, s.split(), cfg).ids for s in sentences]
                alpha = {cat: [rng.uniform(0.5, 2.0) for _ in row]
                         for cat, row in ones_alpha(lex).items()}
                state = train(lex, sentences, alpha, cfg)
                want_omega, want_trace, want_iters, want_converged = vb_reference(
                    lex, forests, [v for cat in lex.categories for v in alpha[cat]],
                    cfg.tol, cfg.max_iters)
                assert state.iterations == want_iters
                assert state.converged is want_converged
                got_omega = [v for cat in lex.categories for v in state.omega[cat]]
                assert got_omega == pytest.approx(want_omega, rel=1e-12, abs=0)
                assert state.elbo_trace == pytest.approx(want_trace, rel=1e-12, abs=0)
                fits += 1
        assert fits == corpora


# -- the trainer and the scorer agree -----------------------------------------

def _drawn_sequences(lex, start, seed, count=20):
    """Up to ``count`` sequences drawn from ``start`` at uniform θ; fewer
    when a draw trips the sampler's caps."""
    if start not in lex.root_categories:
        return []
    cfg = SampleConfig(start, max_depth=10, max_rejections=200)
    draws = pdmg.sample_derivations(lex, uniform_theta(lex), cfg,
                                    np.random.default_rng(seed))
    sequences = []
    try:
        for _ in range(count):
            sequences.append(next(draws)[0])
    except CapExceeded:
        pass
    return sequences


def _drawn_corpus(lex, start, seed, count=20):
    """The sentences of ``_drawn_sequences``."""
    return [pdmg.eval_sequence(seq) for seq in _drawn_sequences(lex, start, seed, count)]


def _assert_log_z_is_score(lex, sentences, start, rng):
    """Each kept sentence's log Z after one iteration from a random α is its
    ``score_sentence`` log-probability at θ*(α); returns how many were kept."""
    alpha = {cat: [rng.uniform(0.05, 5.0) for _ in row]
             for cat, row in ones_alpha(lex).items()}
    state = train(lex, sentences, alpha,
                  TrainConfig(start=start, max_iters=1, skip_unparsed=True))
    theta, cfg = theta_star(lex, alpha), ParseConfig(start=start)
    kept = [s for n, s in enumerate(sentences) if n not in state.unparsed]
    assert [post.sentence for post in state.posteriors] == kept
    for post in state.posteriors:
        want = pdmg.score_sentence(lex, post.sentence, theta, cfg)["log_prob"]
        assert post.log_z == pytest.approx(want, rel=1e-12), post.sentence
    return len(kept)


class TestTrainerMatchesScorer:
    """The first e-step's log Z of a sentence is what ``pdmg score`` gives
    it at θ* of the prior: the trainer and the scorer sum one set of
    derivations under one θ."""

    @pytest.mark.parametrize("name", ["ambig", "chain", "move2", "symmetric", "whq"])
    def test_fixtures(self, name, request):
        lex = request.getfixturevalue(name)
        vocab = sorted({it.phon for it in lex.items if it.phon})
        rng = random.Random(name)
        for start in lex.categories:
            sentences = [*oracle.all_sentences(vocab, 3), *_drawn_corpus(lex, start, 0)]
            for _ in range(3):
                _assert_log_z_is_score(lex, sentences, start, rng)

    def test_pp_corpus(self):
        lex = pdmg.parse_lexicon(PP_LEXICON)
        assert _assert_log_z_is_score(lex, list(PP_CORPUS), "v",
                                      random.Random(0)) == len(PP_CORPUS)

    @pytest.mark.parametrize("generator", [
        random_lexicon, twin_mover_lexicon, embedded_mover_lexicon, remnant_lexicon])
    def test_sampled_corpora(self, generator):
        checked = 0
        for seed in range(20 if generator is random_lexicon else 4):
            lex = generator(random.Random(seed))
            rng = random.Random(seed)
            for start in sorted(lex.root_categories):
                checked += _assert_log_z_is_score(
                    lex, _drawn_corpus(lex, start, seed), start, rng)
        assert checked >= 40
