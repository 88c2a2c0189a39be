"""Unit tests for sequence probabilities, the prior, and the sampler."""

import json
import math
import re

import numpy as np
import pytest

import oracle
from conftest import data_path
import pdmg
from pdmg import (
    ArityError,
    CapExceeded,
    InvalidModel,
    SampleConfig,
    UnknownCategoryError,
    load_alpha,
    load_theta,
    log_joint,
    log_prob_of_sequence,
    ones_alpha,
    prob_of_sequence,
    sample_derivation,
    sample_derivations,
    sample_theta,
    uniform_theta,
    validate_alpha,
    validate_theta,
)
from pdmg.model import _cumulative_tables, log_dirichlet_density


class TestValidateTheta:
    def test_uniform_passes(self, whq):
        theta = validate_theta(whq, uniform_theta(whq))
        assert theta == {"d": [0.5, 0.5], "v": [1.0], "i": [1.0], "c": [1.0]}

    def test_missing_category(self, whq):
        theta = uniform_theta(whq)
        del theta["v"]
        with pytest.raises(InvalidModel, match="missing category"):
            validate_theta(whq, theta)

    def test_wrong_length(self, whq):
        theta = uniform_theta(whq)
        theta["d"] = [1.0]
        with pytest.raises(InvalidModel, match="entries"):
            validate_theta(whq, theta)

    def test_negative_entry(self, whq):
        theta = uniform_theta(whq)
        theta["d"] = [1.5, -0.5]
        with pytest.raises(InvalidModel, match=">= 0"):
            validate_theta(whq, theta)

    def test_not_normalized(self, whq):
        theta = uniform_theta(whq)
        theta["d"] = [0.5, 0.4]
        with pytest.raises(InvalidModel, match="sums to"):
            validate_theta(whq, theta)

    def test_sum_overflows(self, whq):
        theta = uniform_theta(whq)
        theta["d"] = [1e308, 1e308]
        with pytest.raises(InvalidModel, match="sums to inf"):
            validate_theta(whq, theta)

    def test_unknown_category(self, whq):
        theta = uniform_theta(whq)
        theta["zz"] = [1.0]
        with pytest.raises(InvalidModel, match="unknown categories"):
            validate_theta(whq, theta)

    def test_zero_entry_allowed(self, whq):
        theta = uniform_theta(whq)
        theta["d"] = [1.0, 0.0]
        assert validate_theta(whq, theta)["d"] == [1.0, 0.0]

    @pytest.mark.parametrize("row", [["x", 1.0], [None, 1.0], 3, "ab", {"a": 1}])
    def test_row_not_numbers(self, whq, row):
        theta = uniform_theta(whq)
        theta["d"] = row
        with pytest.raises(InvalidModel,
                           match=r"theta\['d'\] must be a list of numbers"):
            validate_theta(whq, theta)


class TestValidateAlpha:
    def test_ones_pass(self, whq):
        alpha = validate_alpha(whq, ones_alpha(whq))
        assert alpha == {"d": [1.0, 1.0], "v": [1.0], "i": [1.0], "c": [1.0]}

    def test_zero_rejected(self, whq):
        alpha = ones_alpha(whq)
        alpha["v"] = [0.0]
        with pytest.raises(InvalidModel, match=re.escape(PSEUDO_COUNT_BOUND)):
            validate_alpha(whq, alpha)

    def test_unnormalized_is_fine(self, whq):
        alpha = ones_alpha(whq)
        alpha["d"] = [3.0, 17.0]
        assert validate_alpha(whq, alpha)["d"] == [3.0, 17.0]

    @pytest.mark.parametrize("row", [["x", 1.0], [None, 1.0], 3])
    def test_row_not_numbers(self, whq, row):
        alpha = ones_alpha(whq)
        alpha["d"] = row
        with pytest.raises(InvalidModel,
                           match=r"alpha\['d'\] must be a list of numbers"):
            validate_alpha(whq, alpha)


class TestLoad:
    def test_round_trip(self, whq, tmp_path):
        p = tmp_path / "theta.json"
        p.write_text(json.dumps(uniform_theta(whq)))
        assert load_theta(str(p), whq) == uniform_theta(whq)
        a = tmp_path / "alpha.json"
        a.write_text(json.dumps(ones_alpha(whq)))
        assert load_alpha(str(a), whq) == ones_alpha(whq)

    def test_bad_json(self, whq, tmp_path):
        p = tmp_path / "theta.json"
        p.write_text("{nope")
        with pytest.raises(InvalidModel, match="not valid JSON"):
            load_theta(str(p), whq)

    def test_non_object(self, whq, tmp_path):
        p = tmp_path / "theta.json"
        p.write_text("[1, 2]")
        with pytest.raises(InvalidModel, match="JSON object"):
            load_theta(str(p), whq)


class TestScoring:
    def test_question_probability(self, whq, whq_seq):
        theta = uniform_theta(whq)
        assert prob_of_sequence(whq_seq, theta) == pytest.approx(0.25, abs=1e-15)
        assert log_prob_of_sequence(whq_seq, theta) == pytest.approx(
            2.0 * math.log(0.5), abs=1e-15)

    def test_illformed_scores_zero(self, whq, whq_items):
        what, you, see, did, eps = whq_items
        theta = uniform_theta(whq)
        assert log_prob_of_sequence((did, you), theta) == -math.inf
        assert prob_of_sequence((did, you), theta) == 0.0

    def test_zero_weight_item(self, whq, whq_seq):
        theta = uniform_theta(whq)
        theta["d"] = [0.0, 1.0]  # forbids the item the question uses
        assert log_prob_of_sequence(whq_seq, theta) == -math.inf

    def test_empty_sequence(self, whq):
        with pytest.raises(ArityError):
            log_prob_of_sequence((), uniform_theta(whq))

    def test_single_item(self, whq, whq_items):
        _, you, _, _, _ = whq_items
        theta = uniform_theta(whq)
        assert prob_of_sequence((you,), theta) == pytest.approx(0.5, abs=1e-15)


class TestPrior:
    def test_beta_two_two(self):
        # Dir(2,2) at (1/2, 1/2) has density Gamma(4)/Gamma(2)^2 / 4 = 3/2
        got = log_dirichlet_density([0.5, 0.5], [2.0, 2.0])
        assert got == pytest.approx(math.log(1.5), abs=1e-12)

    def test_flat_prior_is_factorial(self):
        # Dir(1,1,1) is uniform on the simplex with density Gamma(3) = 2
        got = log_dirichlet_density([0.2, 0.3, 0.5], [1.0, 1.0, 1.0])
        assert got == pytest.approx(math.log(2.0), abs=1e-12)

    def test_boundary_is_minus_inf(self):
        assert log_dirichlet_density([1.0, 0.0], [2.0, 2.0]) == -math.inf

    def test_log_joint_flat_prior(self, whq, whq_seq):
        # every category has <= 2 items, so Dir(1,...,1) contributes
        # log Gamma(n_k) = 0 per category and the joint equals the likelihood
        theta = uniform_theta(whq)
        got = log_joint(whq_seq, theta, ones_alpha(whq), whq)
        assert got == pytest.approx(log_prob_of_sequence(whq_seq, theta),
                                    abs=1e-12)

    def test_log_joint_rejects_illformed(self, whq, whq_items):
        what, you, see, did, eps = whq_items
        with pytest.raises(InvalidModel, match="not well-formed"):
            log_joint((did, you), uniform_theta(whq), ones_alpha(whq), whq)

    def test_log_joint_runs_the_checker_once(self, whq, whq_seq, whq_items,
                                             monkeypatch):
        checks = [0]
        check = pdmg.model.is_wellformed

        def counted(seq):
            checks[0] += 1
            return check(seq)

        monkeypatch.setattr(pdmg.model, "is_wellformed", counted)
        what, you, see, did, eps = whq_items
        with pytest.raises(InvalidModel, match="not well-formed"):
            log_joint((did, you), uniform_theta(whq), ones_alpha(whq), whq)
        assert checks[0] == 1
        theta = uniform_theta(whq)
        theta["d"] = [1.0, 0.0]
        assert log_joint(whq_seq, theta, ones_alpha(whq), whq) == -math.inf
        assert checks[0] == 2

    def test_log_joint_zero_probability(self, whq, whq_seq):
        # well-formed, but theta gives one of its items probability 0
        theta = uniform_theta(whq)
        theta["d"] = [1.0, 0.0]
        assert pdmg.is_wellformed(whq_seq)
        assert log_joint(whq_seq, theta, ones_alpha(whq), whq) == -math.inf


class TestSampleTheta:
    def test_shapes_and_normalization(self, whq):
        theta = sample_theta(whq, ones_alpha(whq), seed=0)
        checked = validate_theta(whq, theta)
        assert set(checked) == {"d", "v", "i", "c"}

    def test_seed_reproducible(self, whq):
        a = sample_theta(whq, ones_alpha(whq), seed=42)
        b = sample_theta(whq, ones_alpha(whq), seed=42)
        assert a == b

    def test_seeds_differ(self, whq):
        a = sample_theta(whq, ones_alpha(whq), seed=1)
        b = sample_theta(whq, ones_alpha(whq), seed=2)
        assert a != b


class TestSampler:
    def test_support_is_the_two_questions(self, whq):
        theta = uniform_theta(whq)
        rng = np.random.default_rng(0)
        cfg = SampleConfig(start="c")
        seq1 = tuple(whq.item(k, m) for k, m in
                     [(3, 0), (2, 0), (1, 0), (0, 0), (0, 1)])
        seq2 = tuple(whq.item(k, m) for k, m in
                     [(3, 0), (2, 0), (1, 0), (0, 1), (0, 0)])
        seen = set()
        for _ in range(200):
            seq, _ = sample_derivation(whq, theta, cfg, rng)
            assert seq in (seq1, seq2)
            seen.add(seq)
        assert seen == {seq1, seq2}

    def test_rejections_counted(self, whq):
        # with both d slots open, half the proposals repeat an item and
        # fail the checker, so rejections do occur over 200 draws
        theta = uniform_theta(whq)
        rng = np.random.default_rng(1)
        cfg = SampleConfig(start="c")
        total = sum(sample_derivation(whq, theta, cfg, rng)[1]
                    for _ in range(200))
        assert total > 0

    def test_seed_reproducible(self, whq):
        theta = uniform_theta(whq)
        cfg = SampleConfig(start="c")

        def draws(seed):
            rng = np.random.default_rng(seed)
            return [tuple(it.item_id for it in
                          sample_derivation(whq, theta, cfg, rng)[0])
                    for _ in range(50)]

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)

    def test_start_category_d(self, whq, whq_items):
        what, you, _, _, _ = whq_items
        theta = uniform_theta(whq)
        rng = np.random.default_rng(2)
        cfg = SampleConfig(start="d")
        for _ in range(20):
            seq, _ = sample_derivation(whq, theta, cfg, rng)
            assert seq in ((what,), (you,))

    def test_unknown_start(self, whq):
        for sampler in (sample_derivation, oracle.sample_reference):
            with pytest.raises(UnknownCategoryError,
                               match="^unknown start category 'x'$"):
                sampler(whq, uniform_theta(whq), SampleConfig(start="x"))

    def test_underivable_start(self):
        """Every ``v`` item of chain.lex has a licensee, so no draw can be
        rooted in ``v``.  sample_derivation refuses it at the call, as the
        reference does, and so does a stream of draws never read."""
        lex = pdmg.load_lexicon(data_path("chain.lex"))
        message = ("^start category 'v' derives nothing: every 'v' item has "
                   "licensees, which nothing above the root can check$")
        cfg = SampleConfig(start="v")
        for sampler in (sample_derivation, oracle.sample_reference):
            with pytest.raises(pdmg.UnderivableCategory, match=message):
                sampler(lex, uniform_theta(lex), cfg, np.random.default_rng(0))
        with pytest.raises(pdmg.UnderivableCategory, match=message):
            sample_derivations(lex, uniform_theta(lex), cfg,
                               np.random.default_rng(0))

    @pytest.mark.parametrize("sampler", [sample_derivation, oracle.sample_reference])
    def test_cap_allows_that_many_rejections(self, whq, sampler):
        """Seed 5's first draw follows exactly one rejection: a cap of 1
        allows it and a cap of 0 does not."""
        theta = uniform_theta(whq)
        cfg = SampleConfig(start="c", max_rejections=1)
        seq, rejected = sampler(whq, theta, cfg, np.random.default_rng(5))
        assert rejected == 1
        cfg = SampleConfig(start="c", max_rejections=0)
        with pytest.raises(CapExceeded, match="^sampler exceeded 0 rejected draws$"):
            sampler(whq, theta, cfg, np.random.default_rng(5))

    def test_certain_rejection_hits_cap(self, whq):
        # force both argument slots to draw the same mover: every proposal
        # stacks two -wh chains and the checker refuses it
        theta = uniform_theta(whq)
        theta["d"] = [1.0, 0.0]
        cfg = SampleConfig(start="c", max_rejections=25)
        rng = np.random.default_rng(3)
        with pytest.raises(CapExceeded, match="rejected draws"):
            sample_derivation(whq, theta, cfg, rng)

    def test_unbounded_recursion_hits_depth_cap(self):
        lex = pdmg.parse_lexicon("ε :: =c c\na :: c\n")
        theta = {"c": [1.0, 0.0]}  # always pick the recursive head
        cfg = SampleConfig(start="c", max_depth=10, max_rejections=5)
        rng = np.random.default_rng(4)
        with pytest.raises(CapExceeded, match="depth"):
            sample_derivation(lex, theta, cfg, rng)

    def test_dead_category_proposal_counts_as_rejection(self):
        # the only head of c demands a category with no items at all
        lex = pdmg.parse_lexicon("b :: =x c\n")
        theta = {"c": [1.0]}
        cfg = SampleConfig(start="c", max_rejections=5)
        rng = np.random.default_rng(5)
        with pytest.raises(CapExceeded, match="rejected draws"):
            sample_derivation(lex, theta, cfg, rng)

    def test_recursive_lexicon_terminates(self):
        lex = pdmg.parse_lexicon("ε :: =c c\na :: c\n")
        theta = {"c": [0.25, 0.75]}
        rng = np.random.default_rng(6)
        cfg = SampleConfig(start="c")
        lengths = set()
        for _ in range(100):
            seq, _ = sample_derivation(lex, theta, cfg, rng)
            assert pdmg.eval_sequence(seq) == "a"
            lengths.add(len(seq))
        assert 1 in lengths and len(lengths) > 1


# One table of bad rows, put in place of category 'd' (two items) of whq.lex,
# or DELETE to drop that category.  Each entry gives the message for a theta
# (entries >= 0, summing to 1) and for an alpha or omega (entries above
# 2**-1024, where psi is finite, with a finite sum), or None where that kind
# of row is valid.  {name} is "theta", "alpha" or "omega", and {bound} is
# THETA_BOUND or PSEUDO_COUNT_BOUND.
DELETE = object()
NUMBERS = "{name}['d'] must be a list of numbers"
ENTRY = "{name}['d'] entries must be finite and {bound}; entry %s is not"
SHORT = "{name}['d'] has 1 entries, lexicon has 2 items"
THETA_BOUND = ">= 0"
PSEUDO_COUNT_BOUND = "> 2**-1024 (about 5.56e-309)"
BAD_ROWS = [
    ("numeric-string", {"d": ["0.5", "0.5"]}, NUMBERS, NUMBERS),
    ("boolean", {"d": [True, False]}, NUMBERS, NUMBERS),
    ("none", {"d": None}, NUMBERS, NUMBERS),
    ("nested", {"d": [[0.5], [0.5]]}, NUMBERS, NUMBERS),
    ("bare-number", {"d": 0.5}, NUMBERS, NUMBERS),
    ("nan", {"d": [math.nan, 1.0]}, ENTRY % "nan", ENTRY % "nan"),
    ("inf", {"d": [math.inf, 0.0]}, ENTRY % "inf", ENTRY % "inf"),
    ("minus-inf", {"d": [-math.inf, 1.0]}, ENTRY % "-inf", ENTRY % "-inf"),
    ("negative", {"d": [-0.25, 1.25]}, ENTRY % "-0.25", ENTRY % "-0.25"),
    ("zero", {"d": [1.0, 0.0]}, None, ENTRY % "0.0"),
    ("psi-minus-inf", {"d": [1e-309, 1.0]}, None, ENTRY % "1e-309"),
    ("short", {"d": [1.0]}, SHORT, SHORT),
    ("missing", {"d": DELETE}, "{name} missing category 'd'",
     "{name} missing category 'd'"),
    ("unknown", {"zz": [1.0]}, "{name} has unknown categories: ['zz']",
     "{name} has unknown categories: ['zz']"),
    ("overflow", {"d": [1e308, 1e308]},
     "theta['d'] sums to inf, expected 1 within 1e-12",
     "{name}['d'] sums to inf, expected a finite sum"),
    ("log-gamma-overflow", {"d": [1e306, 1e306]},
     "theta['d'] sums to 2e+306, expected 1 within 1e-12",
     "{name}['d'] sums to 2e+306, expected a sum whose log Gamma is finite "
     "(below about 2.56e+305)"),
    ("off-1e-7", {"d": [0.5, 0.5 + 1e-7]},
     "theta['d'] sums to 1.0000000999999998, expected 1 within 1e-12", None),
]


def _with(rows, change):
    out = dict(rows)
    for cat, row in change.items():
        if row is DELETE:
            del out[cat]
        else:
            out[cat] = row
    return out


def _message(call):
    with pytest.raises(InvalidModel) as info:
        call()
    return str(info.value)


class TestOneRowOneVerdict:
    """Every entry point that takes a theta, alpha or omega row refuses a bad
    row with the same message."""

    @pytest.mark.parametrize("change, theta_msg",
                             [(c, t) for _, c, t, _ in BAD_ROWS],
                             ids=[i for i, *_ in BAD_ROWS])
    def test_theta(self, whq, whq_seq, tmp_path, change, theta_msg):
        theta = _with(uniform_theta(whq), change)
        path = tmp_path / "theta.json"
        path.write_text(json.dumps(theta))
        if theta_msg is None:  # a valid row: the checks pass it
            assert validate_theta(whq, theta) == load_theta(str(path), whq)
            _cumulative_tables(whq, theta)
            return
        checks = {
            "validate_theta": lambda: validate_theta(whq, theta),
            "load_theta": lambda: load_theta(str(path), whq),
            "log_joint": lambda: log_joint(whq_seq, theta, ones_alpha(whq), whq),
            "sample_derivation": lambda: sample_derivation(
                whq, theta, SampleConfig(start="c"), np.random.default_rng(0)),
        }
        for entry, call in checks.items():
            assert (entry, _message(call)) == (
                entry, theta_msg.format(name="theta", bound=THETA_BOUND))

    @pytest.mark.parametrize("change, positive_msg",
                             [(c, p) for _, c, _, p in BAD_ROWS],
                             ids=[i for i, *_ in BAD_ROWS])
    def test_alpha_and_omega(self, whq, whq_seq, tmp_path, change, positive_msg):
        rows = _with(ones_alpha(whq), change)
        path = tmp_path / "alpha.json"
        path.write_text(json.dumps(rows))
        checks = {
            "alpha": {
                "validate_alpha": lambda: validate_alpha(whq, rows),
                "load_alpha": lambda: load_alpha(str(path), whq),
                "sample_theta": lambda: sample_theta(whq, rows, seed=0),
                "train": lambda: pdmg.train(whq, ["what did you see"], rows,
                                            pdmg.TrainConfig(start="c")),
                "log_joint": lambda: log_joint(whq_seq, uniform_theta(whq),
                                               rows, whq),
            },
            "omega": {
                "theta_star": lambda: pdmg.theta_star(whq, rows),
                "posterior_mean": lambda: pdmg.posterior_mean(whq, rows),
            },
        }
        if positive_msg is None:  # a valid row: the checks pass it
            assert validate_alpha(whq, rows) == load_alpha(str(path), whq)
            return
        for name, calls in checks.items():
            for entry, call in calls.items():
                assert (entry, _message(call)) == (
                    entry,
                    positive_msg.format(name=name, bound=PSEUDO_COUNT_BOUND))

    def test_sampler_refuses_numpys_tolerance(self, whq):
        # Generator.choice would take this row (|sum - 1| <= sqrt(eps)).
        theta = uniform_theta(whq)
        theta["d"] = [0.5, 0.5 + 1e-9]
        want = _message(lambda: validate_theta(whq, theta))
        assert want == "theta['d'] sums to 1.000000001, expected 1 within 1e-12"
        assert _message(lambda: sample_derivation(
            whq, theta, SampleConfig(start="c"), np.random.default_rng(0))) == want

    def test_integers_are_numbers(self, whq):
        rows = {"d": [1, 3], "v": [2], "i": [1], "c": [1]}
        assert validate_alpha(whq, rows) == {
            "d": [1.0, 3.0], "v": [2.0], "i": [1.0], "c": [1.0]}
        assert validate_theta(whq, {"d": [0, 1], "v": [1], "i": [1],
                                    "c": [1]})["d"] == [0.0, 1.0]

    def test_huge_integer_is_an_infinite_entry(self, whq):
        alpha = ones_alpha(whq)
        alpha["d"] = [10**400, 1.0]
        with pytest.raises(InvalidModel, match="entry inf is not"):
            validate_alpha(whq, alpha)


class TestSampleConfig:
    """SampleConfig checks its caps when built, as ParseConfig does."""

    @pytest.mark.parametrize("name", ["max_depth", "max_rejections"])
    def test_negative_cap(self, name):
        with pytest.raises(InvalidModel, match=f"^{name} must be >= 0, got -1$"):
            SampleConfig(start="c", **{name: -1})

    def test_zero_caps_valid(self, whq):
        cfg = SampleConfig(start="c", max_depth=0, max_rejections=0)
        with pytest.raises(CapExceeded):
            sample_derivation(whq, uniform_theta(whq), cfg,
                              np.random.default_rng(0))
