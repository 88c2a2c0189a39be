"""Probability model over derivation sequences.

A parameter vector assigns each lexical item a probability, normalized
within its category.  The probability of a derivation sequence is the
product over its items of those per-item probabilities; sequences that
fail the well-formedness check carry probability zero.  A sentence's
probability sums that product over its chart derivations:
``score_sentence`` returns it, with each derivation's, as the payload
``pdmg score`` prints.  Each category's probabilities have a Dirichlet
prior, and the Dirichlet row math (the density, ``theta_star``,
``posterior_mean`` and the trainer's log theta* and KL) lives here too,
on plain lists of floats.

``sample_derivations`` draws from the model by top-down expansion: grow a
sequence from the start category by repeatedly spelling out a head and
recursing into its selector slots (first selector first, so the emitted
order is exactly the head-first flattening the checker expects), then
keep the draw only if the checker accepts it.  A head that selects a
category with no items ends its proposal, which is rejected the same way.
Each node's head is drawn by inverse-transform sampling: one
``rng.random()`` and a bisection of its category's cumulative table.  That
is the draw ``Generator.choice`` makes from the same row, on the same
double of the stream, without re-validating the row and rebuilding its
cumulative sum at every node; ``validate_theta`` checks the rows once, up
front.  The stream builds the tables once, so ``pdmg sample -n N``, which
takes its N draws from one stream, builds them once per run;
``sample_derivation`` is one draw, a stream's first.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_right
from itertools import accumulate
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from .chart import ParseConfig, SampleConfig, parse
from .errors import CapExceeded, InvalidModel, UnderivableCategory
from .lexicon import LexicalItem, Lexicon
from .special import _TINY, lgamma, psi
from .wellformed import is_wellformed

if TYPE_CHECKING:
    import numpy as np

_NORM_TOL = 1.0e-12
# psi is -inf at or below _TINY (2**-1024), so a pseudo-count is at least
# the next double up.
_LEAST_PSEUDO_COUNT = math.nextafter(_TINY, 1.0)

Theta = dict[str, list[float]]
Alpha = dict[str, list[float]]


def _number(v: object) -> float:
    """float(v), but TypeError for a bool, str or bytes; a huge int is inf."""
    if isinstance(v, (bool, str, bytes)):
        raise TypeError
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _validate_rows(lexicon: Lexicon, rows: Mapping[str, Sequence[float]],
                   name: str, *, positive: bool) -> dict[str, list[float]]:
    """The one check of a theta, alpha or omega: each category's row as a
    list of floats, one per item.  A theta row's entries are finite and >= 0
    and sum to 1 within _NORM_TOL; an alpha or omega row's (``positive``)
    are finite and above 2**-1024, so that each entry's psi is finite, with
    a finite sum whose log Gamma is finite.  No entry exceeds the sum, so
    every entry's log Gamma is finite too.  InvalidModel otherwise, with one
    message per defect, checked in that order, then unknown categories."""
    bound, least = (("> 2**-1024 (about 5.56e-309)", _LEAST_PSEUDO_COUNT)
                    if positive else (">= 0", 0.0))
    inf = math.inf
    out: dict[str, list[float]] = {}
    for cat in lexicon.categories:
        try:
            raw = rows[cat]
        except KeyError:
            raise InvalidModel(f"{name} missing category {cat!r}") from None
        try:
            if type(raw) is not list and isinstance(raw, (str, bytes, Mapping)):
                raise TypeError  # iterable, but not a row of numbers
            row = [v if type(v) is float else _number(v) for v in raw]
        except (TypeError, ValueError):
            raise InvalidModel(
                f"{name}[{cat!r}] must be a list of numbers") from None
        n = len(lexicon.items_of_category(cat))
        if len(row) != n:
            raise InvalidModel(
                f"{name}[{cat!r}] has {len(row)} entries, lexicon has {n} items")
        for v in row:
            if not least <= v < inf:  # negated, so that NaN fails it
                raise InvalidModel(f"{name}[{cat!r}] entries must be finite and "
                                   f"{bound}; entry {v!r} is not")
        try:
            s = math.fsum(row)
        except OverflowError:  # finite entries, but their sum overflows
            s = inf
        if positive:
            if s == inf:
                raise InvalidModel(
                    f"{name}[{cat!r}] sums to inf, expected a finite sum")
            if lgamma(s) == inf:
                raise InvalidModel(
                    f"{name}[{cat!r}] sums to {s!r}, expected a sum whose log "
                    f"Gamma is finite (below about 2.56e+305)")
        elif not abs(s - 1.0) <= _NORM_TOL:
            raise InvalidModel(f"{name}[{cat!r}] sums to {s!r}, "
                               f"expected 1 within {_NORM_TOL:.3g}")
        out[cat] = row
    if len(rows) != len(out):
        extra = set(rows) - set(lexicon.categories)
        raise InvalidModel(f"{name} has unknown categories: {sorted(extra)}")
    return out


def validate_theta(lexicon: Lexicon, theta: Mapping[str, Sequence[float]]) -> Theta:
    """theta's rows as floats: finite, >= 0, summing to 1 within _NORM_TOL."""
    return _validate_rows(lexicon, theta, "theta", positive=False)


def validate_alpha(lexicon: Lexicon, alpha: Mapping[str, Sequence[float]]) -> Alpha:
    """alpha's rows as floats: finite, above 2**-1024, with a sum whose log
    Gamma is finite."""
    return _validate_rows(lexicon, alpha, "alpha", positive=True)


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
    if not is_wellformed(seq):
        return -math.inf
    return _log_prob_of_items(seq, theta)


def _log_prob_of_items(seq: Sequence[LexicalItem],
                       theta: Mapping[str, Sequence[float]]) -> float:
    """The sum of log theta over ``seq``'s items, without the checker."""
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


def score_sentence(lexicon: Lexicon, sentence: str,
                   theta: Mapping[str, Sequence[float]],
                   config: ParseConfig) -> dict:
    """What ``pdmg score`` prints for ``sentence``, as a dict: the count,
    total probability and log probability of its derivations, then each
    derivation's items (``[category, item]`` pairs), probability and log
    probability.

    The chart derives only well-formed sequences, so no checker runs.  Each
    derivation's log theta terms are added in item order from 0.0, as
    ``log_prob_of_sequence`` adds them, so each ``log_prob`` equals its
    value bit for bit; a zero probability makes the sum -inf.  theta is
    read as ``log_prob_of_sequence`` reads it, unvalidated.
    """
    forest = parse(lexicon, sentence.split(), config)
    log_theta = [math.log(p) if p > 0.0 else -math.inf
                 for cat in lexicon.categories for p in theta[cat]]
    logs = []
    for d in forest.ids:
        lp = 0.0
        for g in d:
            lp += log_theta[g]
        logs.append(lp)
    finite = [lp for lp in logs if lp != -math.inf]
    total = -math.inf
    if finite:
        m = max(finite)
        total = m + math.log(math.fsum(math.exp(lp - m) for lp in finite))
    pairs = [[it.cat_index, it.item_index] for it in lexicon.items]
    return {"sentence": sentence, "count": forest.count,
            "prob": math.exp(total), "log_prob": total,
            "derivations": [{"items": [pairs[g] for g in d],
                             "prob": math.exp(lp), "log_prob": lp}
                            for d, lp in zip(forest.ids, logs)]}


# -- Dirichlet rows ------------------------------------------------------------
#
# One category's Dirichlet parameters are a plain list of floats.  The
# trainer's rows sit end to end in one flat list, category k's block being
# ``flat[offsets[k]:offsets[k + 1]]`` (``Lexicon.offsets``).  Every row sum
# is ``math.fsum``.


def _log_normalizer(row: Sequence[float]) -> float:
    """log Gamma(sum row) - sum_i log Gamma(row_i): the log of Dir(row)'s
    normalising constant."""
    return lgamma(math.fsum(row)) - math.fsum(map(lgamma, row))


def _log_theta_star(row: Sequence[float]) -> list[float]:
    """psi(row_i) - psi(sum row), per entry: log theta* of one category."""
    total = psi(math.fsum(row))
    return [psi(w) - total for w in row]


def _mean(rows: Mapping[str, Sequence[float]]) -> Theta:
    """The Dirichlet mean of each row: row_i / sum row."""
    out: Theta = {}
    for cat, row in rows.items():
        total = math.fsum(row)
        out[cat] = [w / total for w in row]
    return out


def log_theta_star_flat(omega: Sequence[float],
                        offsets: Sequence[int]) -> list[float]:
    """psi(omega_i) - psi(sum of omega_i's category), per item."""
    out: list[float] = []
    for a, b in zip(offsets, offsets[1:]):
        out += _log_theta_star(omega[a:b])
    return out


def dirichlet_kl_flat(omega: Sequence[float], alpha: Sequence[float],
                      offsets: Sequence[int], log_tstar: Sequence[float]) -> float:
    """Sum over categories of KL(Dir(omega) || Dir(alpha)).

    ``log_tstar`` is ``log_theta_star_flat(omega, offsets)``, which a fit
    computes once per iteration for the e-step too.  The KL is exactly 0
    where omega equals alpha.
    """
    terms = [(w - a) * t for w, a, t in zip(omega, alpha, log_tstar)]
    for a, b in zip(offsets, offsets[1:]):
        terms.append(_log_normalizer(omega[a:b]) - _log_normalizer(alpha[a:b]))
    return math.fsum(terms)


def theta_star(lexicon: Lexicon, omega: Mapping[str, Sequence[float]]) -> Theta:
    """exp(psi(omega_i) - psi(sum_cat omega)): the geometric-mean point."""
    rows = _validate_rows(lexicon, omega, "omega", positive=True)
    return {cat: [math.exp(t) for t in _log_theta_star(row)]
            for cat, row in rows.items()}


def posterior_mean(lexicon: Lexicon, omega: Mapping[str, Sequence[float]]) -> Theta:
    """Dirichlet mean omega_i / sum_cat omega, per category."""
    return _mean(_validate_rows(lexicon, omega, "omega", positive=True))


def log_dirichlet_density(row: Sequence[float], alpha_row: Sequence[float]) -> float:
    """log Dir(row | alpha_row) for one category's parameter vector; -inf
    when an entry of ``row`` is 0."""
    if any(v <= 0.0 for v in row):
        return -math.inf
    return _log_normalizer(alpha_row) + math.fsum(
        (a - 1.0) * math.log(x) for a, x in zip(alpha_row, row))


def log_joint(seq: Sequence[LexicalItem], theta: Mapping[str, Sequence[float]],
              alpha: Mapping[str, Sequence[float]], lexicon: Lexicon) -> float:
    """log [ Dir(theta | alpha) * P(sequence | theta) ].

    Raises InvalidModel for a bad theta or alpha, and when the checker
    rejects the sequence: an impossible derivation has no joint density.
    A well-formed sequence that theta gives probability 0 has log joint -inf.
    """
    theta = validate_theta(lexicon, theta)
    alpha = validate_alpha(lexicon, alpha)
    if not is_wellformed(seq):
        raise InvalidModel("sequence is not well-formed; log joint undefined")
    prior = 0.0
    for cat in lexicon.categories:
        prior += log_dirichlet_density(theta[cat], alpha[cat])
    return prior + _log_prob_of_items(seq, theta)


def sample_theta(lexicon: Lexicon, alpha: Mapping[str, Sequence[float]],
                 seed: int | None = None) -> Theta:
    """Draw theta ~ Dir(alpha), one draw per category in lexicon order."""
    import numpy as np
    alpha = validate_alpha(lexicon, alpha)
    rng = np.random.default_rng(seed)
    out: Theta = {}
    for cat in lexicon.categories:
        out[cat] = [float(v) for v in rng.dirichlet(np.asarray(alpha[cat]))]
    return out


def _cumulative_tables(lexicon: Lexicon, theta: Mapping[str, Sequence[float]],
                       ) -> dict[str, tuple[tuple[LexicalItem, ...], list[float]]]:
    """Each category's items and the cumulative distribution of its row.

    theta is checked by ``validate_theta``, and the table is built as
    ``Generator.choice`` builds it: running sums in row order, each divided
    by the last.  So ``bisect_right(cdf, u)`` picks the item
    ``rng.choice(len(items), p=row)`` picks with the same ``u``.
    """
    tables = {}
    for cat, row in validate_theta(lexicon, theta).items():
        cdf = list(accumulate(row))
        total = cdf[-1]
        for i, c in enumerate(cdf):
            cdf[i] = c / total
        tables[cat] = lexicon.items_of_category(cat), cdf
    return tables


def sample_derivation(lexicon: Lexicon, theta: Mapping[str, Sequence[float]],
                      config: SampleConfig,
                      rng: np.random.Generator | None = None,
                      ) -> tuple[tuple[LexicalItem, ...], int]:
    """One draw, ``next(sample_derivations(...))``: (sequence, rejected_count)."""
    return next(sample_derivations(lexicon, theta, config, rng))


def sample_derivations(lexicon: Lexicon, theta: Mapping[str, Sequence[float]],
                       config: SampleConfig,
                       rng: np.random.Generator | None = None,
                       ) -> Iterator[tuple[tuple[LexicalItem, ...], int]]:
    """Draw well-formed sequences, one (sequence, rejected_count) per ``next``.

    Proposals come from the top-down expansion of the start category;
    draws the checker rejects are discarded and retried, and
    ``rejected_count`` counts those discarded since the previous draw.  A
    proposal deeper than ``max_depth`` levels (the root is level one), or
    more than ``max_rejections`` rejections for one draw, raises
    CapExceeded.  The stream builds its cumulative tables once, and checks
    the start category and theta when it is called, not at the first
    ``next``: a start category whose every item has licensees raises
    UnderivableCategory (each proposal's root would keep them unchecked),
    and a theta that ``validate_theta`` refuses raises InvalidModel, even
    for a stream that is never read.  ``rng`` defaults to a fresh numpy
    generator.
    """
    lexicon.check_start(config.start)
    if config.start not in lexicon.root_categories:
        raise UnderivableCategory(
            f"start category {config.start!r} derives nothing: every "
            f"{config.start!r} item has licensees, which nothing above the "
            f"root can check")
    if rng is None:
        import numpy as np
        rng = np.random.default_rng()
    tables = _cumulative_tables(lexicon, theta)
    draw = rng.random

    def propose() -> tuple[LexicalItem, ...] | None:
        out: list[LexicalItem] = []
        stack = [(config.start, 0)]
        while stack:
            cat, depth = stack.pop()
            if depth >= config.max_depth:
                raise CapExceeded(
                    f"sampler exceeded max depth {config.max_depth}")
            table = tables.get(cat)
            if table is None:  # no item has this category: a dead proposal
                return None
            items, cdf = table
            head = items[bisect_right(cdf, draw())]
            out.append(head)
            # Push selectors reversed so the first selector is expanded
            # first, keeping the emitted order head-first.
            for f in reversed(head.selectors):
                stack.append((f.name, depth + 1))
        return tuple(out)

    def stream() -> Iterator[tuple[tuple[LexicalItem, ...], int]]:
        rejected = 0
        while True:
            seq = propose()
            if seq is not None and is_wellformed(seq):
                yield seq, rejected
                rejected = 0
                continue
            rejected += 1
            if rejected > config.max_rejections:
                raise CapExceeded(
                    f"sampler exceeded {config.max_rejections} rejected draws")

    return stream()
