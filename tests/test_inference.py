"""Unit tests for corpus encoding, the bound, and the training loop."""

import math
import re

import numpy as np
import pytest
from click.testing import CliRunner

import oracle
import pdmg
from conftest import data_path
from pdmg import (
    InvalidModel,
    ParseConfig,
    TrainConfig,
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
from pdmg.inference import dict_to_flat, flat_to_dict
from pdmg.numerics import estep_flat, log_theta_star_flat


def derivations_for(lex, sentences, start="c"):
    cfg = ParseConfig(start=start)
    return [parse(lex, s.split(), cfg).ids for s in sentences]


class TestFlatViews:
    def test_round_trip(self, whq):
        rows = {"d": [1.0, 2.0], "v": [3.0], "i": [4.0], "c": [5.0]}
        flat = dict_to_flat(whq, rows)
        assert flat.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert flat_to_dict(whq, flat) == rows


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
        # psi(tiny) is about -1/tiny, or -inf below 1/DBL_MAX: theta* is 0.
        omega = ones_alpha(whq)
        omega["d"] = [tiny, 1.0]
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


class TestEncodeCorpus:
    def test_layout(self, whq):
        sentences = ["what did you see", "you"]
        derivations = [
            parse(whq, sentences[0].split(), ParseConfig(start="c")).ids,
            parse(whq, sentences[1].split(), ParseConfig(start="d")).ids]
        enc = encode_corpus(sentences, derivations)
        # one derivation of five items, then one of a single item
        assert enc.dstart.tolist() == [0, 5, 6]
        assert enc.sstart.tolist() == [0, 1, 2]
        assert enc.item_ids.tolist() == [4, 3, 2, 1, 0, 1]
        assert enc.sentences == tuple(sentences)

    def test_ambiguous_sentence_groups_derivations(self, ambig):
        enc = encode_corpus(["saw"], derivations_for(ambig, ["saw"]))
        assert enc.sstart.tolist() == [0, 2]
        assert len(enc.dstart) == 3

    def test_empty_corpus(self, whq):
        enc = encode_corpus([], [])
        assert enc.item_ids.size == 0
        assert enc.dstart.tolist() == [0]
        assert enc.sstart.tolist() == [0]


class TestEStepAndBound:
    def test_unambiguous_posterior_is_one(self, whq):
        enc = encode_corpus(["what did you see"],
                            derivations_for(whq, ["what did you see"]))
        omega = dict_to_flat(whq, ones_alpha(whq))
        log_tstar = log_theta_star_flat(omega, np.asarray(whq.offsets))
        q, logz, counts = estep_flat(log_tstar, enc.item_ids, enc.dstart,
                                     enc.sstart, whq.n_items)
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
        from pdmg import inference, model
        names = []
        real = model._validate_rows

        def counted(lexicon, rows, name, **kw):
            names.append(name)
            return real(lexicon, rows, name, **kw)

        monkeypatch.setattr(model, "_validate_rows", counted)
        monkeypatch.setattr(inference, "_validate_rows", counted)
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
