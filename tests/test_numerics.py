"""Unit tests for the numeric kernels against mpmath-derived oracles."""

import math

import mpmath
import numpy as np
import pytest

import oracle
from pdmg import numerics

mpmath.mp.dps = 40

EULER_GAMMA = 0.5772156649015328606


def mp_digamma(x: float) -> float:
    return float(mpmath.digamma(x))


def mp_gammaln(x: float) -> float:
    return float(mpmath.loggamma(x))


GRID = np.logspace(-6, 6, 200)


class TestDigamma:
    def test_psi_one_is_minus_euler(self):
        assert abs(numerics.digamma(1.0) + EULER_GAMMA) <= 1e-12

    def test_psi_two_recurrence(self):
        assert abs(numerics.digamma(2.0) - (numerics.digamma(1.0) + 1.0)) <= 1e-12

    @pytest.mark.parametrize("x", [1e-6, 1e-3, 0.5, 1.0, 6.0, 123.456, 1e6])
    def test_against_mpmath_points(self, x):
        assert abs(numerics.digamma(x) - mp_digamma(x)) <= 1e-10

    def test_against_mpmath_grid(self):
        got = numerics.digamma(GRID)
        want = np.array([mp_digamma(x) for x in GRID])
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_recurrence_along_grid(self):
        x = GRID
        lhs = numerics.digamma(x + 1.0)
        rhs = numerics.digamma(x) + 1.0 / x
        # near zero the rhs cancels two huge terms, so scale by them
        scale = np.maximum(np.maximum(1.0, np.abs(lhs)), 1.0 / x)
        assert np.max(np.abs(lhs - rhs) / scale) <= 1e-12

    def test_scalar_in_scalar_out(self):
        out = numerics.digamma(2.5)
        assert isinstance(out, float)

    def test_array_shape_preserved(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = numerics.digamma(x)
        assert out.shape == (2, 2)
        assert abs(out[1, 1] - mp_digamma(4.0)) <= 1e-12

    def test_noncontiguous_input(self):
        x = np.linspace(1.0, 10.0, 20)[::2]
        got = numerics.digamma(x)
        want = np.array([mp_digamma(v) for v in x])
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            numerics.digamma(bad)


class TestGammaln:
    @pytest.mark.parametrize("x", [1.0, 2.0])
    def test_integer_zeros(self, x):
        assert abs(numerics.gammaln(x)) <= 1e-13

    def test_half(self):
        assert abs(numerics.gammaln(0.5) - 0.5 * math.log(math.pi)) <= 1e-13

    def test_against_mpmath_grid(self):
        got = numerics.gammaln(GRID)
        want = np.array([mp_gammaln(x) for x in GRID])
        scale = np.maximum(1.0, np.abs(want))
        assert np.max(np.abs(got - want) / scale) <= 1e-12

    def test_against_math_lgamma(self):
        x = np.linspace(0.05, 30.0, 400)
        got = numerics.gammaln(x)
        want = np.array([math.lgamma(v) for v in x])
        scale = np.maximum(1.0, np.abs(want))
        assert np.max(np.abs(got - want) / scale) <= 1e-12

    def test_recurrence(self):
        x = np.linspace(0.1, 50.0, 100)
        lhs = numerics.gammaln(x + 1.0)
        rhs = numerics.gammaln(x) + np.log(x)
        scale = np.maximum(1.0, np.abs(lhs))
        assert np.max(np.abs(lhs - rhs) / scale) <= 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            numerics.gammaln(-0.5)


class TestLogThetaStar:
    def test_pair_of_ones(self):
        # psi(1) - psi(2) is exactly -1
        offsets = np.array([0, 2], dtype=np.int64)
        out = numerics.log_theta_star_flat(np.array([1.0, 1.0]), offsets)
        assert np.max(np.abs(out - (-1.0))) <= 1e-12

    def test_singleton_is_exact_zero(self):
        offsets = np.array([0, 1], dtype=np.int64)
        for w in (0.25, 1.0, 7.5, 1e3):
            out = numerics.log_theta_star_flat(np.array([w]), offsets)
            assert out[0] == 0.0

    def test_subnormalized(self):
        rng = np.random.default_rng(7)
        offsets = np.array([0, 3, 4, 9], dtype=np.int64)
        for _ in range(200):
            omega = rng.uniform(1e-3, 1e3, size=9)
            out = numerics.log_theta_star_flat(omega, offsets)
            theta = np.exp(out)
            for k in range(3):
                assert theta[offsets[k]:offsets[k + 1]].sum() <= 1.0 + 1e-12

    def test_matches_scalar_definition(self):
        offsets = np.array([0, 2, 5], dtype=np.int64)
        omega = np.array([0.5, 2.0, 1.0, 3.0, 4.5])
        out = numerics.log_theta_star_flat(omega, offsets)
        want = []
        for k in range(2):
            block = omega[offsets[k]:offsets[k + 1]]
            s = mp_digamma(block.sum())
            want.extend(mp_digamma(w) - s for w in block)
        assert np.max(np.abs(out - np.array(want))) <= 1e-12


class TestDirichletKL:
    def test_zero_at_equal_parameters(self):
        offsets = np.array([0, 2, 5], dtype=np.int64)
        omega = np.array([0.5, 2.0, 1.0, 3.0, 4.5])
        assert numerics.dirichlet_kl_flat(omega, omega.copy(), offsets) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        offsets = np.array([0, 3, 7], dtype=np.int64)
        for _ in range(100):
            omega = rng.uniform(1e-2, 1e2, size=7)
            alpha = rng.uniform(1e-2, 1e2, size=7)
            assert numerics.dirichlet_kl_flat(omega, alpha, offsets) >= -1e-10

    def test_against_exact_oracle(self):
        rng = np.random.default_rng(5)
        offsets = np.array([0, 4], dtype=np.int64)
        for _ in range(50):
            omega = rng.uniform(1e-2, 1e2, size=4)
            alpha = rng.uniform(1e-2, 1e2, size=4)
            got = numerics.dirichlet_kl_flat(omega, alpha, offsets)
            want = oracle.dirichlet_kl_exact(
                list(omega), list(alpha),
                psi=mp_digamma, lgamma=mp_gammaln)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_sums_over_categories(self):
        # KL over two categories equals the sum of the per-category KLs
        omega = np.array([1.5, 2.5, 0.5, 3.5, 4.5])
        alpha = np.array([1.0, 1.0, 1.0, 2.0, 2.0])
        offsets = np.array([0, 2, 5], dtype=np.int64)
        whole = numerics.dirichlet_kl_flat(omega, alpha, offsets)
        first = numerics.dirichlet_kl_flat(
            omega[:2], alpha[:2], np.array([0, 2], dtype=np.int64))
        second = numerics.dirichlet_kl_flat(
            omega[2:], alpha[2:], np.array([0, 3], dtype=np.int64))
        assert abs(whole - (first + second)) <= 1e-10


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
            q, logz, counts = numerics.estep_flat(*case)
            want_q, want_logz, want_counts = oracle.estep_exact(*case)
            assert np.max(np.abs(q - want_q)) <= 1e-13
            assert np.max(np.abs(logz - want_logz)) <= 1e-12
            assert np.max(np.abs(counts - want_counts)) <= 1e-13

    def test_hand_case(self):
        log_tstar, item_ids, dstart, sstart, n = _flat_case()
        q, logz, counts = numerics.estep_flat(
            log_tstar, item_ids, dstart, sstart, n)
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
        q, _, counts = numerics.estep_flat(
            log_tstar, item_ids, dstart, sstart, n)
        # item 0 appears once in derivation 0 and twice in derivation 2
        assert counts[0] == pytest.approx(q[0] + 2.0 * q[2], abs=1e-13)
        assert counts[1] == pytest.approx(q[1], abs=1e-14)
        assert counts[2] == pytest.approx(q[1] + q[2], abs=1e-13)

    def test_q_sums_to_one_per_sentence(self):
        log_tstar, item_ids, dstart, sstart, n = _flat_case()
        q, _, _ = numerics.estep_flat(log_tstar, item_ids, dstart, sstart, n)
        assert math.fsum(q[0:2]) == pytest.approx(1.0, abs=1e-14)
        assert q[2] == pytest.approx(1.0, abs=1e-14)

    def test_empty_problem(self):
        q, logz, counts = numerics.estep_flat(
            np.zeros(3), np.zeros(0, dtype=np.int64),
            np.array([0], dtype=np.int64), np.array([0], dtype=np.int64), 3)
        assert q.shape == (0,)
        assert logz.shape == (0,)
        assert np.all(counts == 0.0)

    def test_extreme_log_weights_stable(self):
        # logsumexp shift keeps huge magnitudes finite
        log_tstar = np.array([-800.0, -801.0])
        item_ids = np.array([0, 1], dtype=np.int64)
        dstart = np.array([0, 1, 2], dtype=np.int64)
        sstart = np.array([0, 2], dtype=np.int64)
        q, logz, _ = numerics.estep_flat(log_tstar, item_ids, dstart, sstart, 2)
        assert np.isfinite(logz).all()
        assert q[0] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-13)
