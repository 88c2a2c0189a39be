"""Unit tests for the numeric kernels against mpmath-derived oracles: the
scalar psi and log Gamma, the Dirichlet row functions on plain lists, and
the numpy e-step."""

import math

import mpmath
import numpy as np
import pytest

import oracle
from pdmg import special
from pdmg.inference import encode_corpus, estep_flat
from pdmg.model import dirichlet_kl_flat, log_theta_star_flat

mpmath.mp.dps = 40

EULER_GAMMA = 0.5772156649015328606


def mp_digamma(x: float) -> float:
    return float(mpmath.digamma(x))


def mp_gammaln(x: float) -> float:
    return float(mpmath.loggamma(x))


def psi_all(xs) -> np.ndarray:
    return np.array([special.psi(float(x)) for x in xs])


def lgamma_all(xs) -> np.ndarray:
    return np.array([special.lgamma(float(x)) for x in xs])


GRID = np.logspace(-6, 6, 200)


class TestDigamma:
    def test_psi_one_is_minus_euler(self):
        assert abs(special.psi(1.0) + EULER_GAMMA) <= 1e-12

    def test_psi_two_recurrence(self):
        assert abs(special.psi(2.0) - (special.psi(1.0) + 1.0)) <= 1e-12

    @pytest.mark.parametrize("x", [1e-6, 1e-3, 0.5, 1.0, 6.0, 123.456, 1e6])
    def test_against_mpmath_points(self, x):
        assert abs(special.psi(x) - mp_digamma(x)) <= 1e-10

    def test_against_mpmath_grid(self):
        got = psi_all(GRID)
        want = np.array([mp_digamma(x) for x in GRID])
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_recurrence_along_grid(self):
        x = GRID
        lhs = psi_all(x + 1.0)
        rhs = psi_all(x) + 1.0 / x
        # near zero the rhs cancels two huge terms, so scale by them
        scale = np.maximum(np.maximum(1.0, np.abs(lhs)), 1.0 / x)
        assert np.max(np.abs(lhs - rhs) / scale) <= 1e-12

    def test_scalar_in_scalar_out(self):
        assert isinstance(special.psi(2.5), float)
        assert isinstance(special.lgamma(2.5), float)

    def test_tiny_arguments_against_mpmath(self):
        # 1/x passes 1e300 here, where the exact-product split would
        # overflow; psi is then -1/x - gamma to within an ulp.
        xs = np.logspace(-308.0, -300.0, 400)
        got = psi_all(xs)
        want = np.array([float(mpmath.digamma(mpmath.mpf(float(x)))) for x in xs])
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-15

    def test_minus_inf_below_one_over_dbl_max(self):
        least = 2.0 ** -1024  # 1 / DBL_MAX, rounded
        above = math.nextafter(least, 1.0)
        got = [special.psi(x) for x in (least, 5e-324, above)]
        assert got[0] == got[1] == -math.inf
        assert got[2] == float(mpmath.digamma(mpmath.mpf(above)))
        assert math.isfinite(got[2])


class TestGammaln:
    @pytest.mark.parametrize("x", [1.0, 2.0])
    def test_integer_zeros(self, x):
        assert abs(special.lgamma(x)) <= 1e-13

    def test_half(self):
        assert abs(special.lgamma(0.5) - 0.5 * math.log(math.pi)) <= 1e-13

    def test_against_mpmath_grid(self):
        got = lgamma_all(GRID)
        want = np.array([mp_gammaln(x) for x in GRID])
        scale = np.maximum(1.0, np.abs(want))
        assert np.max(np.abs(got - want) / scale) <= 1e-12

    def test_against_math_lgamma(self):
        x = np.linspace(0.05, 30.0, 400)
        got = lgamma_all(x)
        want = np.array([math.lgamma(v) for v in x])
        scale = np.maximum(1.0, np.abs(want))
        assert np.max(np.abs(got - want) / scale) <= 1e-12

    def test_recurrence(self):
        x = np.linspace(0.1, 50.0, 100)
        lhs = lgamma_all(x + 1.0)
        rhs = lgamma_all(x) + np.log(x)
        scale = np.maximum(1.0, np.abs(lhs))
        assert np.max(np.abs(lhs - rhs) / scale) <= 1e-12


class TestLogThetaStar:
    def test_pair_of_ones(self):
        # psi(1) - psi(2) is exactly -1
        out = log_theta_star_flat([1.0, 1.0], [0, 2])
        assert max(abs(t + 1.0) for t in out) <= 1e-12

    def test_singleton_is_exact_zero(self):
        for w in (0.25, 1.0, 7.5, 1e3):
            assert log_theta_star_flat([w], [0, 1]) == [0.0]

    def test_subnormalized(self):
        rng = np.random.default_rng(7)
        offsets = [0, 3, 4, 9]
        for _ in range(200):
            omega = rng.uniform(1e-3, 1e3, size=9).tolist()
            theta = [math.exp(t) for t in log_theta_star_flat(omega, offsets)]
            for a, b in zip(offsets, offsets[1:]):
                assert math.fsum(theta[a:b]) <= 1.0 + 1e-12

    def test_matches_scalar_definition(self):
        offsets = [0, 2, 5]
        omega = [0.5, 2.0, 1.0, 3.0, 4.5]
        out = log_theta_star_flat(omega, offsets)
        want = []
        for a, b in zip(offsets, offsets[1:]):
            block = omega[a:b]
            s = mp_digamma(math.fsum(block))
            want.extend(mp_digamma(w) - s for w in block)
        assert max(abs(g - w) for g, w in zip(out, want)) <= 1e-12


def _kl(omega, alpha, offsets):
    # The call train makes: log t* computed once and passed in.
    return dirichlet_kl_flat(omega, alpha, offsets,
                             log_theta_star_flat(omega, offsets))


class TestDirichletKL:
    def test_zero_at_equal_parameters(self):
        omega = [0.5, 2.0, 1.0, 3.0, 4.5]
        assert _kl(omega, list(omega), [0, 2, 5]) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            omega = rng.uniform(1e-2, 1e2, size=7).tolist()
            alpha = rng.uniform(1e-2, 1e2, size=7).tolist()
            assert _kl(omega, alpha, [0, 3, 7]) >= -1e-10

    def test_against_exact_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            omega = rng.uniform(1e-2, 1e2, size=4).tolist()
            alpha = rng.uniform(1e-2, 1e2, size=4).tolist()
            got = _kl(omega, alpha, [0, 4])
            want = oracle.dirichlet_kl_exact(
                omega, alpha, psi=mp_digamma, lgamma=mp_gammaln)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_against_exact_oracle_any_width(self):
        # Rows of 1 to 50 items, each against the oracle in 40-digit mpmath.
        rng = np.random.default_rng(11)
        for width in range(1, 51):
            omega = rng.uniform(1e-2, 1e2, size=width).tolist()
            alpha = rng.uniform(1e-2, 1e2, size=width).tolist()
            got = _kl(omega, alpha, [0, width])
            want = oracle.dirichlet_kl_exact(
                omega, alpha, psi=mp_digamma, lgamma=mp_gammaln)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), width

    def test_sums_over_categories(self):
        # KL over two categories equals the sum of the per-category KLs
        omega = [1.5, 2.5, 0.5, 3.5, 4.5]
        alpha = [1.0, 1.0, 1.0, 2.0, 2.0]
        whole = _kl(omega, alpha, [0, 2, 5])
        first = _kl(omega[:2], alpha[:2], [0, 2])
        second = _kl(omega[2:], alpha[2:], [0, 3])
        assert abs(whole - (first + second)) <= 1e-10


def _estep(log_tstar, item_ids, dstart, sstart, n_items):
    """``estep_flat`` on a flat case, encoded by ``encode_corpus``."""
    derivations = [tuple(item_ids[a:b].tolist()) for a, b in zip(dstart, dstart[1:])]
    forests = [tuple(derivations[a:b]) for a, b in zip(sstart, sstart[1:])]
    return estep_flat(log_tstar, encode_corpus([""] * len(forests), forests, n_items))


def _flat_case():
    # Two sentences over three items.  Sentence 0 has derivations (0,) and
    # (1, 2); sentence 1 has the single derivation (0, 0, 2).
    log_tstar = np.log(np.array([0.5, 0.25, 0.125]))
    item_ids = np.array([0, 1, 2, 0, 0, 2], dtype=np.int64)
    dstart = np.array([0, 1, 3, 6], dtype=np.int64)
    sstart = np.array([0, 2, 3], dtype=np.int64)
    return log_tstar, item_ids, dstart, sstart, 3


def _random_flat_case(rng, deep: bool, max_derivs: int = 4):
    """A seeded flat e-step problem over 1-8 items and 1-5 sentences.

    Sentences have 1 to ``max_derivs`` derivations of 1-5 items drawn with
    replacement, so single-derivation sentences and repeated items both
    occur.  From 8 derivations on, numpy's pairwise sum and a sequential
    segment sum round differently, so wide cases test the sums.  When
    ``deep`` is set, item 0 has log weight near -800 and opens every
    derivation, so exp of any log weight underflows to zero.  Deep
    weights lie on a 2**-20 grid: every derivation's log weight is then
    an exact float64 sum, so the comparison tests the shift and the
    normalization, not the rounding of a sum near 800 (one ulp there is
    1.1e-13).
    """
    n_items = int(rng.integers(1, 9))
    log_tstar = rng.uniform(-5.0, 0.0, size=n_items)
    if deep:
        log_tstar[0] = rng.uniform(-802.0, -798.0)
        log_tstar = np.round(log_tstar * 2.0**20) / 2.0**20
    item_ids: list[int] = []
    dstart = [0]
    sstart = [0]
    for _ in range(int(rng.integers(1, 6))):
        for _ in range(int(rng.integers(1, max_derivs + 1))):
            if deep:
                item_ids.append(0)
            item_ids.extend(int(i) for i in
                            rng.integers(0, n_items, size=rng.integers(1, 6)))
            dstart.append(len(item_ids))
        sstart.append(len(dstart) - 1)
    return (log_tstar, np.asarray(item_ids, dtype=np.int64),
            np.asarray(dstart, dtype=np.int64),
            np.asarray(sstart, dtype=np.int64), n_items)


class TestEstep:
    @pytest.mark.parametrize("deep", [False, True])
    def test_against_fsum_oracle(self, deep):
        rng = np.random.default_rng(17 + deep)
        for k in range(400):
            case = _random_flat_case(rng, deep, 4 if k < 300 else 64)
            q, logz, counts = _estep(*case)
            want_q, want_logz, want_counts = oracle.estep_exact(*case)
            assert np.max(np.abs(q - want_q)) <= 1e-13
            assert np.max(np.abs(logz - want_logz)) <= 1e-12
            assert np.max(np.abs(counts - want_counts)) <= 1e-13

    def test_hand_case(self):
        log_tstar, item_ids, dstart, sstart, n = _flat_case()
        q, logz, counts = _estep(log_tstar, item_ids, dstart, sstart, n)
        # sentence 0: weights 0.5 and 0.25*0.125, normalized
        w0, w1 = 0.5, 0.25 * 0.125
        assert q[0] == pytest.approx(w0 / (w0 + w1), abs=1e-14)
        assert q[1] == pytest.approx(w1 / (w0 + w1), abs=1e-14)
        assert logz[0] == pytest.approx(math.log(w0 + w1), abs=1e-13)
        # sentence 1: a single derivation always has q = 1
        assert q[2] == pytest.approx(1.0, abs=1e-14)
        assert logz[1] == pytest.approx(math.log(0.5 * 0.5 * 0.125), abs=1e-13)

    def test_counts_respect_multiplicity(self):
        log_tstar, item_ids, dstart, sstart, n = _flat_case()
        q, _, counts = _estep(log_tstar, item_ids, dstart, sstart, n)
        # item 0 appears once in derivation 0 and twice in derivation 2
        assert counts[0] == pytest.approx(q[0] + 2.0 * q[2], abs=1e-13)
        assert counts[1] == pytest.approx(q[1], abs=1e-14)
        assert counts[2] == pytest.approx(q[1] + q[2], abs=1e-13)

    def test_q_sums_to_one_per_sentence(self):
        log_tstar, item_ids, dstart, sstart, n = _flat_case()
        q, _, _ = _estep(log_tstar, item_ids, dstart, sstart, n)
        assert math.fsum(q[0:2]) == pytest.approx(1.0, abs=1e-14)
        assert q[2] == pytest.approx(1.0, abs=1e-14)

    def test_empty_problem(self):
        q, logz, counts = estep_flat(np.zeros(3), encode_corpus([], [], 3))
        assert q.shape == (0,)
        assert logz.shape == (0,)
        assert np.all(counts == 0.0)

    def test_extreme_log_weights_stable(self):
        # logsumexp shift keeps huge magnitudes finite
        log_tstar = np.array([-800.0, -801.0])
        item_ids = np.array([0, 1], dtype=np.int64)
        dstart = np.array([0, 1, 2], dtype=np.int64)
        sstart = np.array([0, 2], dtype=np.int64)
        q, logz, _ = _estep(log_tstar, item_ids, dstart, sstart, 2)
        assert np.isfinite(logz).all()
        assert q[0] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-13)
