"""Numeric kernels: the training inner loops over digamma and log-gamma.

Every kernel is vectorized numpy over flat arrays.  Categories are
contiguous blocks of items delimited by an ``offsets`` array, and in the
e-step sentences are contiguous blocks of derivations delimited by
``sstart``.  A per-block sum or maximum is one segment reduction
(``np.add.reduceat``, ``np.maximum.reduceat``), spread back over the
block's members with ``np.repeat``, so no kernel loops over blocks in
Python.  ``reduceat`` adds a block's values in sequence where ``np.sum``
adds pairwise, so a block sum can differ from ``np.sum``'s in its last
bits.

``_digamma_arr`` and ``_gammaln_arr`` map ``special.psi`` and
``special.lgamma`` over each element (``np.frompyfunc``): about 1 us an
element, cheap on a fit's few dozen pseudo-counts.  Their arguments are
positive pseudo-counts and category sums: ``model._validate_rows``
refuses an alpha or omega row whose sum's log Gamma overflows.
"""

from __future__ import annotations

import numpy as np

from .special import lgamma, psi

_digamma = np.frompyfunc(psi, 1, 1)
_lgamma = np.frompyfunc(lgamma, 1, 1)


def _digamma_arr(x) -> np.ndarray:
    return np.asarray(_digamma(x), dtype=np.float64)


def _gammaln_arr(x) -> np.ndarray:
    return np.asarray(_lgamma(x), dtype=np.float64)


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
                      log_tstar: np.ndarray,
                      alpha_terms: tuple[np.ndarray, np.ndarray]) -> float:
    """Sum over categories of KL(Dir(omega) || Dir(alpha)).

    ``log_tstar`` is ``log_theta_star_flat(omega, offsets)`` and
    ``alpha_terms`` is ``gammaln_terms(alpha, offsets)``: a fit computes
    the first once per iteration for the e-step too, and the second once.
    """
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

