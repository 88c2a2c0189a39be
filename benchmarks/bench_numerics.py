#!/usr/bin/env python3
"""Benchmark the ``*_numba`` numeric kernels against their numpy twins.

Runs each kernel both ways on identical inputs, reports best-of-repeat
wall times and the speedup, and verifies the outputs agree.  The numba
path compiles on first call, so one warmup round precedes timing.  When
numba is absent or disabled (``numerics.USING_NUMBA`` is False) the
``*_numba`` kernels run as plain Python loops, and the first column is
labelled ``python-loop`` instead of ``numba``.

Usage:
    python3 benchmarks/bench_numerics.py [--size N] [--repeats K]
"""

import argparse
import time

import numpy as np

from pdmg import numerics


def best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


FIRST = "numba" if numerics.USING_NUMBA else "python-loop"


def bench_pair(name: str, fast, slow, check, repeats: int) -> None:
    fast()  # warmup: trigger jit compilation outside the timed region
    slow()
    t_fast = best_of(fast, repeats)
    t_slow = best_of(slow, repeats)
    ok = check()
    ratio = t_slow / t_fast if t_fast > 0 else float("inf")
    print(f"{name:<22} {FIRST} {t_fast * 1e3:9.3f} ms   "
          f"numpy {t_slow * 1e3:9.3f} ms   x{ratio:6.2f}   "
          f"{'agree' if ok else 'MISMATCH'}")
    if not ok:
        raise SystemExit(f"{name}: paths disagree")


def synthetic_estep(rng, n_items: int, n_sentences: int,
                    derivs_per_sentence: int, items_per_deriv: int):
    n_derivs = n_sentences * derivs_per_sentence
    item_ids = rng.integers(0, n_items,
                            size=n_derivs * items_per_deriv).astype(np.int64)
    dstart = np.arange(0, (n_derivs + 1) * items_per_deriv,
                       items_per_deriv, dtype=np.int64)
    sstart = np.arange(0, (n_sentences + 1) * derivs_per_sentence,
                       derivs_per_sentence, dtype=np.int64)
    log_tstar = np.log(rng.uniform(0.05, 0.95, size=n_items))
    return log_tstar, item_ids, dstart, sstart, n_items


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--size", type=int, default=1_000_000,
                    help="array length for the elementwise kernels")
    ap.add_argument("--repeats", type=int, default=5,
                    help="timing repeats (best is reported)")
    args = ap.parse_args()

    rng = np.random.default_rng(0)
    if numerics.USING_NUMBA:
        print("first column: *_numba kernels compiled by numba")
    else:
        print("first column: *_numba kernels run as plain Python loops "
              "(numba absent or disabled)")
    print(f"array size {args.size}, best of {args.repeats} repeats\n")

    x = rng.uniform(1e-6, 1e6, size=args.size)
    bench_pair(
        "digamma",
        lambda: numerics.digamma_numba(x),
        lambda: numerics.digamma_numpy(x),
        lambda: np.allclose(numerics.digamma_numba(x),
                            numerics.digamma_numpy(x),
                            rtol=0.0, atol=1e-10),
        args.repeats,
    )

    bench_pair(
        "gammaln",
        lambda: numerics.gammaln_numba(x),
        lambda: numerics.gammaln_numpy(x),
        lambda: np.allclose(numerics.gammaln_numba(x),
                            numerics.gammaln_numpy(x),
                            rtol=1e-12, atol=1e-12),
        args.repeats,
    )

    n_cats = max(2, args.size // 1000)
    sizes = rng.integers(1, 11, size=n_cats)
    offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    omega = rng.uniform(1e-3, 1e3, size=int(offsets[-1]))
    alpha = rng.uniform(1e-1, 1e1, size=int(offsets[-1]))
    bench_pair(
        "log_theta_star",
        lambda: numerics.log_theta_star_numba(omega, offsets),
        lambda: numerics.log_theta_star_numpy(omega, offsets),
        lambda: np.allclose(numerics.log_theta_star_numba(omega, offsets),
                            numerics.log_theta_star_numpy(omega, offsets),
                            rtol=0.0, atol=1e-11),
        args.repeats,
    )

    bench_pair(
        "dirichlet_kl",
        lambda: numerics.dirichlet_kl_numba(omega, alpha, offsets),
        lambda: numerics.dirichlet_kl_numpy(omega, alpha, offsets),
        lambda: abs(numerics.dirichlet_kl_numba(omega, alpha, offsets)
                    - numerics.dirichlet_kl_numpy(omega, alpha, offsets))
        <= 1e-8 * max(1.0, abs(numerics.dirichlet_kl_numpy(
            omega, alpha, offsets))),
        args.repeats,
    )

    flat = synthetic_estep(rng, n_items=200, n_sentences=2000,
                           derivs_per_sentence=5, items_per_deriv=8)
    bench_pair(
        "estep",
        lambda: numerics.estep_numba(*flat),
        lambda: numerics.estep_numpy(*flat),
        lambda: all(
            np.allclose(a, b, rtol=0.0, atol=1e-11)
            for a, b in zip(numerics.estep_numba(*flat),
                            numerics.estep_numpy(*flat))),
        args.repeats,
    )


if __name__ == "__main__":
    main()
