"""Numeric kernels: digamma, log-gamma, and the training inner loops.

Every kernel is vectorized numpy over flat arrays.  Categories are
contiguous blocks of items delimited by an ``offsets`` array, and in the
e-step sentences are contiguous blocks of derivations delimited by
``sstart``.  A per-block sum or maximum is one segment reduction
(``np.add.reduceat``, ``np.maximum.reduceat``), spread back over the
block's members with ``np.repeat``, so no kernel loops over blocks in
Python.  ``reduceat`` adds a block's values in sequence where ``np.sum``
adds pairwise, so a block sum can differ from ``np.sum``'s in its last
bits.

digamma uses the recurrence psi(x) = psi(x+1) - 1/x to shift the argument
to >= 6, then the de Moivre asymptotic series through the y**-14 term
(truncation below 2e-13 at y = 6).  Two numerical refinements keep the
absolute error within 1e-10 even where |psi| approaches 1e6: the shifted
reciprocals accumulate with Neumaier compensation, and for x < 1e-3 the
dominant 1/x term carries an exact-product residual correction (Veltkamp
splitting) so the final subtraction is the only rounding at full scale.

gammaln uses the 9-term g = 7 Lanczos approximation for x >= 0.5 and the
sin reflection below; both functions are defined for positive reals only.
"""

from __future__ import annotations

import math

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp split constant

# Asymptotic series coefficients for psi, innermost last.
_C12, _C120, _C252 = 1.0 / 12.0, 1.0 / 120.0, 1.0 / 252.0
_C240, _C132 = 1.0 / 240.0, 1.0 / 132.0
_C32760 = 691.0 / 32760.0

_LANCZOS_G = 7.0
_LANCZOS = np.array([
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
])
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _two_prod_err(a, b, p):
    ta = _SPLIT * a
    ahi = ta - (ta - a)
    alo = a - ahi
    tb = _SPLIT * b
    bhi = tb - (tb - b)
    blo = b - bhi
    return ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def _digamma_arr(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    y = x.copy()
    big = np.zeros_like(y)
    bigfix = np.zeros_like(y)
    small = np.zeros_like(y)
    comp = np.zeros_like(y)
    tiny = y < 1.0e-3
    if np.any(tiny):
        yt = y[tiny]
        b = 1.0 / yt
        p = b * yt
        err = _two_prod_err(b, yt, p)
        big[tiny] = b
        bigfix[tiny] = ((1.0 - p) - err) / yt
        y[tiny] += 1.0
    for _ in range(6):
        m = y < 6.0
        if not np.any(m):
            break
        t = np.zeros_like(y)
        t[m] = 1.0 / y[m]
        s = small + t
        comp += np.where(np.abs(small) >= np.abs(t), (small - s) + t, (t - s) + small)
        small = s
        y[m] += 1.0
    v = 1.0 / y
    v2 = v * v
    ser = v2 * (_C12 - v2 * (_C120 - v2 * (_C252 - v2 * (
        _C240 - v2 * (_C132 - v2 * (_C32760 - v2 * _C12))))))
    psi = np.log(y) - 0.5 * v - ser
    return ((psi - small) - (comp + bigfix)) - big


def _gammaln_arr(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    z = np.where(x < 0.5, 1.0 - x, x)
    zz = z - 1.0
    a = np.full_like(zz, _LANCZOS[0])
    for i in range(1, 9):
        a += _LANCZOS[i] / (zz + i)
    t = zz + _LANCZOS_G + 0.5
    out = _HALF_LOG_2PI + (zz + 0.5) * np.log(t) - t + np.log(a)
    refl = x < 0.5
    if np.any(refl):
        xr = x[refl]
        out[refl] = np.log(np.pi / np.sin(np.pi * xr)) - out[refl]
    return out


def log_theta_star_flat(omega: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """psi(omega_i) - psi(sum of omega_i's category), per item."""
    sums = np.add.reduceat(omega, offsets[:-1])
    dsums = _digamma_arr(sums)
    sizes = np.diff(offsets)
    return _digamma_arr(omega) - np.repeat(dsums, sizes)


def gammaln_terms(x: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log Gamma(x_i) per item, log Gamma(category sum) per category)."""
    return _gammaln_arr(x), _gammaln_arr(np.add.reduceat(x, offsets[:-1]))


def dirichlet_kl_flat(omega: np.ndarray, alpha: np.ndarray, offsets: np.ndarray,
                      log_tstar: np.ndarray | None = None,
                      alpha_terms: tuple[np.ndarray, np.ndarray] | None = None,
                      ) -> float:
    """Sum over categories of KL(Dir(omega) || Dir(alpha)).

    ``log_tstar`` is ``log_theta_star_flat(omega, offsets)`` and
    ``alpha_terms`` is ``gammaln_terms(alpha, offsets)``; a caller that
    already holds them passes them in, and they are computed here when
    omitted.
    """
    if log_tstar is None:
        log_tstar = log_theta_star_flat(omega, offsets)
    if alpha_terms is None:
        alpha_terms = gammaln_terms(alpha, offsets)
    ga, gsa = alpha_terms
    go, gso = gammaln_terms(omega, offsets)
    per_item = ga - go + (omega - alpha) * log_tstar
    per_cat = np.add.reduceat(per_item, offsets[:-1])
    return float(np.sum(gso - gsa + per_cat))


def estep_flat(log_tstar, item_ids, dstart, sstart, n_items):
    """Responsibilities ``q``, per-sentence ``logz`` and expected counts.

    ``item_ids[dstart[j]:dstart[j+1]]`` are derivation j's items, and
    ``sstart`` marks sentence boundaries in the derivation list.  Every
    sentence needs at least one derivation: its max, log Z and the sum
    that normalizes q are segment reductions over ``sstart``.
    """
    if dstart.shape[0] == 1:
        # No derivations, so no sentences: reduceat cannot take empty offsets.
        return np.zeros(0), np.zeros(0), np.zeros(int(n_items))
    logw = np.add.reduceat(log_tstar[item_ids], dstart[:-1])
    starts = sstart[:-1]
    sizes = np.diff(sstart)
    top = np.maximum.reduceat(logw, starts)
    logz = top + np.log(np.add.reduceat(np.exp(logw - np.repeat(top, sizes)), starts))
    qn = np.exp(logw - np.repeat(logz, sizes))
    q = qn / np.repeat(np.add.reduceat(qn, starts), sizes)
    counts = np.bincount(item_ids, weights=np.repeat(q, np.diff(dstart)),
                         minlength=int(n_items))
    return q, logz, counts


def digamma(x):
    """psi(x) for positive reals; scalar in, scalar out."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.size and not np.all(arr > 0.0):
        raise ValueError("digamma requires x > 0")
    out = _digamma_arr(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def gammaln(x):
    """log Gamma(x) for positive reals; scalar in, scalar out."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.size and not np.all(arr > 0.0):
        raise ValueError("gammaln requires x > 0")
    out = _gammaln_arr(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out
