"""Probability model over derivation sequences.

A parameter vector assigns each lexical item a probability, normalized
within its category.  The probability of a derivation sequence is the
product over its items of those per-item probabilities; sequences that
fail the well-formedness check carry probability zero.

``sample_derivation`` draws from the model by top-down expansion: grow a
sequence from the start category by repeatedly spelling out a head and
recursing into its selector slots (first selector first, so the emitted
order is exactly the head-first flattening the checker expects), then
keep the draw only if the checker accepts it.  Each node's head is drawn
by inverse-transform sampling: one ``rng.random()`` and a bisection of its
category's cumulative table, built once per call.  That is the draw
``Generator.choice`` makes from the same row, on the same double of the
stream, without re-validating the row and rebuilding its cumulative sum
at every node; the rows are instead checked once, up front.
"""

from __future__ import annotations

import json
import math
import re
import sys
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping, Sequence

import numpy as np

from .errors import (ArityError, CapExceeded, InvalidModel, UnderivableCategory,
                     UnknownCategoryError)
from .lexicon import LexicalItem, Lexicon
from .numerics import gammaln
from .wellformed import is_wellformed

_NORM_TOL = 1.0e-12

Theta = dict[str, list[float]]
Alpha = dict[str, list[float]]


def _validate_rows(lexicon: Lexicon, rows: Mapping[str, Sequence[float]],
                   name: str, *, positive: bool, normalized: bool,
                   ) -> dict[str, list[float]]:
    """One finite row per category, entries > 0 (``positive``) or >= 0,
    summing to 1 within ``_NORM_TOL`` when ``normalized``."""
    bound = "> 0" if positive else ">= 0"
    out: dict[str, list[float]] = {}
    for cat in lexicon.categories:
        if cat not in rows:
            raise InvalidModel(f"{name} missing category {cat!r}")
        raw = rows[cat]
        if isinstance(raw, (str, bytes, Mapping)):
            raw = None  # iterable, but not a row of numbers
        try:
            # float() takes booleans and numeric strings; they are not numbers.
            if any(isinstance(v, (bool, str)) for v in raw):
                raise TypeError
            row = [float(v) for v in raw]
        except (TypeError, ValueError):
            raise InvalidModel(
                f"{name}[{cat!r}] must be a list of numbers") from None
        n = len(lexicon.items_of_category(cat))
        if len(row) != n:
            raise InvalidModel(
                f"{name}[{cat!r}] has {len(row)} entries, lexicon has {n} items")
        for v in row:
            if not math.isfinite(v) or v < 0.0 or (positive and v == 0.0):
                raise InvalidModel(
                    f"{name}[{cat!r}] entries must be finite and {bound}")
        if normalized:
            try:
                s = math.fsum(row)
            except OverflowError:  # finite entries, but their sum overflows
                s = math.inf
            if abs(s - 1.0) > _NORM_TOL:
                raise InvalidModel(
                    f"{name}[{cat!r}] sums to {s!r}, expected 1 within {_NORM_TOL}")
        out[cat] = row
    extra = set(rows) - set(lexicon.categories)
    if extra:
        raise InvalidModel(f"{name} has unknown categories: {sorted(extra)}")
    return out


def validate_theta(lexicon: Lexicon, theta: Mapping[str, Sequence[float]]) -> Theta:
    """Check shape, positivity, and per-category normalization of theta."""
    return _validate_rows(lexicon, theta, "theta", positive=False, normalized=True)


def validate_alpha(lexicon: Lexicon, alpha: Mapping[str, Sequence[float]]) -> Alpha:
    """Check shape and strict positivity of Dirichlet pseudo-counts."""
    return _validate_rows(lexicon, alpha, "alpha", positive=True, normalized=False)


def uniform_theta(lexicon: Lexicon) -> Theta:
    return {cat: [1.0 / len(lexicon.items_of_category(cat))]
            * len(lexicon.items_of_category(cat))
            for cat in lexicon.categories}


def ones_alpha(lexicon: Lexicon) -> Alpha:
    return {cat: [1.0] * len(lexicon.items_of_category(cat))
            for cat in lexicon.categories}


def _read_rows(path: str) -> dict:
    """The JSON object in ``path``; InvalidModel for anything else."""
    with open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
    # A theta or alpha file nests two levels.  The bound keeps json's decoder,
    # which takes one Python frame per level, far from the interpreter's limit.
    depth = 0
    for tok in re.findall(r'"(?:[^"\\]|\\.)*"|[][{}]', text):  # strings, brackets
        depth += (tok in ("[", "{")) - (tok in ("]", "}"))
        if depth > 100:
            raise InvalidModel(f"{path}: JSON nests deeper than 100 levels")
    try:
        # A long integer literal read as int overflows float() or trips
        # Python's digit limit; read as a float it is just inf.
        raw = json.loads(text, parse_int=float)
    except json.JSONDecodeError as exc:
        raise InvalidModel(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise InvalidModel(f"{path}: expected a JSON object of category -> list")
    return raw


def load_theta(path: str, lexicon: Lexicon) -> Theta:
    return validate_theta(lexicon, _read_rows(path))


def load_alpha(path: str, lexicon: Lexicon) -> Alpha:
    return validate_alpha(lexicon, _read_rows(path))


def log_prob_of_sequence(seq: Sequence[LexicalItem],
                         theta: Mapping[str, Sequence[float]]) -> float:
    """log P(sequence | theta); -inf when the checker rejects it."""
    if not seq:
        raise ArityError("cannot score an empty sequence")
    if not is_wellformed(seq):
        return -math.inf
    total = 0.0
    for it in seq:
        p = theta[it.category][it.item_index]
        if p <= 0.0:
            return -math.inf
        total += math.log(p)
    return total


def prob_of_sequence(seq: Sequence[LexicalItem],
                     theta: Mapping[str, Sequence[float]]) -> float:
    lp = log_prob_of_sequence(seq, theta)
    return 0.0 if lp == -math.inf else math.exp(lp)


def log_dirichlet_density(row: Sequence[float], alpha_row: Sequence[float]) -> float:
    """log Dir(row | alpha_row) for one category's parameter vector."""
    a = np.asarray(alpha_row, dtype=np.float64)
    x = np.asarray(row, dtype=np.float64)
    if np.any(x <= 0.0):
        return -math.inf
    lognorm = float(gammaln(np.array([a.sum()]))[0] - np.sum(gammaln(a)))
    return lognorm + float(np.sum((a - 1.0) * np.log(x)))


def log_joint(seq: Sequence[LexicalItem], theta: Mapping[str, Sequence[float]],
              alpha: Mapping[str, Sequence[float]], lexicon: Lexicon) -> float:
    """log [ Dir(theta | alpha) * P(sequence | theta) ].

    Raises when the sequence is rejected by the checker: an impossible
    derivation has no joint density to report.
    """
    lp = log_prob_of_sequence(seq, theta)
    if lp == -math.inf:
        raise InvalidModel("sequence is not well-formed; log joint undefined")
    prior = 0.0
    for cat in lexicon.categories:
        prior += log_dirichlet_density(theta[cat], alpha[cat])
    return prior + lp


def sample_theta(lexicon: Lexicon, alpha: Mapping[str, Sequence[float]],
                 seed: int | None = None) -> Theta:
    """Draw theta ~ Dir(alpha), one draw per category in lexicon order."""
    rng = np.random.default_rng(seed)
    out: Theta = {}
    for cat in lexicon.categories:
        out[cat] = [float(v) for v in rng.dirichlet(np.asarray(alpha[cat]))]
    return out


# numpy's Generator.choice accepts p when |sum(p) - 1| <= sqrt(eps).
_SAMPLE_TOL = math.sqrt(sys.float_info.epsilon)


def _cumulative_tables(lexicon: Lexicon, theta: Mapping[str, Sequence[float]],
                       ) -> dict[str, tuple[tuple[LexicalItem, ...], list[float]]]:
    """Each category's items and the cumulative distribution of its row.

    The table is built as ``Generator.choice`` builds it: running sums in
    row order, each divided by the last.  So ``bisect_right(cdf, u)`` picks
    the item that ``rng.choice(len(items), p=row)`` picks with the same
    uniform ``u``.  A row choice would refuse (an entry that is negative or
    NaN, or a sum more than ``_SAMPLE_TOL`` from 1) raises InvalidModel.
    """
    tables = {}
    for cat in lexicon.categories:
        items = lexicon.items_of_category(cat)
        if cat not in theta:
            raise InvalidModel(f"theta missing category {cat!r}")
        try:
            row = [float(v) for v in theta[cat]]
        except (TypeError, ValueError):
            raise InvalidModel(
                f"theta[{cat!r}] must be a list of numbers") from None
        if len(row) != len(items):
            raise InvalidModel(f"theta[{cat!r}] has {len(row)} entries, "
                               f"lexicon has {len(items)} items")
        # Negated comparisons, so that NaN fails them.  No entry above the
        # upper bound belongs to a row within tol, and the bound keeps fsum
        # from overflowing.
        for v in row:
            if not 0.0 <= v <= 1.0 + _SAMPLE_TOL:
                raise InvalidModel(
                    f"theta[{cat!r}] has entry {v!r}, not a probability")
        total = math.fsum(row)
        if not abs(total - 1.0) <= _SAMPLE_TOL:
            raise InvalidModel(f"theta[{cat!r}] sums to {total!r}, "
                               f"expected 1 within {_SAMPLE_TOL:.3g}")
        sums = list(accumulate(row))
        tables[cat] = items, [c / sums[-1] for c in sums]
    return tables


@dataclass(frozen=True)
class SampleConfig:
    start: str
    max_depth: int = 64
    max_rejections: int = 10_000


def sample_derivation(lexicon: Lexicon, theta: Mapping[str, Sequence[float]],
                      config: SampleConfig,
                      rng: np.random.Generator | None = None,
                      ) -> tuple[tuple[LexicalItem, ...], int]:
    """Draw one well-formed sequence; returns (sequence, rejected_count).

    Proposals come from the top-down expansion of the start category;
    draws the checker rejects are discarded and retried.  Exceeding
    ``max_depth`` during a proposal, or ``max_rejections`` overall,
    raises CapExceeded.  A start category whose every item has licensees
    raises UnderivableCategory up front: each proposal's root would keep
    them unchecked.  A theta row that is not a distribution within
    ``_SAMPLE_TOL`` raises InvalidModel before any draw.
    """
    if not lexicon.has_category(config.start):
        raise UnknownCategoryError(f"unknown start category {config.start!r}")
    if config.start not in lexicon.root_categories:
        raise UnderivableCategory(
            f"start category {config.start!r} derives nothing: every "
            f"{config.start!r} item has licensees, which nothing above the "
            f"root can check")
    if rng is None:
        rng = np.random.default_rng()
    tables = _cumulative_tables(lexicon, theta)
    draw = rng.random

    def propose() -> tuple[LexicalItem, ...]:
        out: list[LexicalItem] = []
        stack = [(config.start, 0)]
        while stack:
            cat, depth = stack.pop()
            if depth >= config.max_depth:
                raise CapExceeded(
                    f"sampler exceeded max depth {config.max_depth}")
            table = tables.get(cat)
            if table is None:
                raise UnknownCategoryError(f"no items of category {cat!r}")
            items, cdf = table
            head = items[bisect_right(cdf, draw())]
            out.append(head)
            # Push selectors reversed so the first selector is expanded
            # first, keeping the emitted order head-first.
            for f in reversed(head.selectors):
                stack.append((f.name, depth + 1))
        return tuple(out)

    rejected = 0
    while True:
        try:
            seq = propose()
        except UnknownCategoryError:
            # Head demanded a category no item provides: a dead proposal.
            seq = None
        if seq is not None and is_wellformed(seq):
            return seq, rejected
        rejected += 1
        if rejected >= config.max_rejections:
            raise CapExceeded(
                f"sampler exceeded {config.max_rejections} rejected draws")
