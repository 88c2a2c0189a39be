"""Variational Bayesian estimation of per-item probabilities.

The model places one Dirichlet prior per category over its items'
probabilities.  Training alternates two closed-form updates:

* responsibility step: with ``log t*_i = psi(omega_i) - psi(sum omega)``
  (the Dirichlet mean-of-log parameters), weight each candidate
  derivation of each sentence proportionally to the product of its
  items' ``t*`` values;
* pseudo-count step: ``omega = alpha + expected item counts`` under
  those weights.

An iteration is one e-step: at a point ``omega`` it gives the bound

    sum_n log Z_n  -  sum_cat KL(Dir(omega) || Dir(alpha))

where ``Z_n`` normalizes sentence ``n``'s derivation weights, and the
update ``F(omega) = alpha + expected counts``.  With the responsibilities
chosen as above the bound is exactly the mean-field evidence lower bound
at ``omega``, and ``F`` never lowers it.

``F`` converges only linearly (on train-pp each bound step is about 0.86
times the one before), so the loop takes SQUAREM steps (Varadhan &
Roland 2008, "Simple and globally convergent methods for accelerating the
convergence of any EM algorithm").  From a point ``w`` with ``F(w)`` and
``F(F(w))`` in hand, let ``r = F(w) - w``, ``v = F(F(w)) - 2 F(w) + w``
and ``s = min(-|r| / |v|, -1)``; the extrapolated point is
``w - 2 s r + s**2 v``.  It is accepted only if every entry is finite and
above 2**-1024 (a valid pseudo-count, as ``model._validate_rows`` has it)
and its bound is finite and not below the last recorded one.  Otherwise,
and when ``|v|`` is 0, the loop falls back to ``F(F(w))``.  Either way the
point taken starts the next cycle.  So the points the loop records are
``w``, ``F(w)``, then the extrapolation or ``F(F(w))``, and so on: the
bound is recorded at each accepted point, and the trace never decreases.
An extrapolation that is refused costs an e-step that records nothing;
one refused before its e-step (``|v|`` 0, or an entry out of range) costs
none.  ``max_iters`` counts e-steps.  ``s`` is one scalar applied to every
entry alike, so entries that mirror each other stay bitwise equal.

Training stops when consecutive recorded bounds agree within ``tol``, when
``F`` returns a recorded point bitwise, or after ``max_iters`` e-steps.  It
returns ``F`` of the last recorded point, as a plain loop would, with that
point's responsibilities and log Z: one iteration from ``alpha`` lands on
``alpha`` plus the expected counts.

Derivation candidates come from the chart parser once per signature, up
front, as tuples of global item ids (``forest.ids``); training never
builds their LexicalItem sequences unless ``TrainState.posteriors`` is
read.  A sentence's signature is its tokens' item codes
(``chart.signature``), and sentences with one signature have one coded
chart up to which item sits at each leaf (see ``chart``).  So the first
sentence of each signature is parsed, and every later one takes its ids
by ``relabel``-ing that parse's slot tuples through its own leaf table:
the ids ``parse`` would give it, without a second parse.  Only the slot
tuples are kept per signature, never a chart, and only for one call.

The Dirichlet rows (alpha, omega, log t*) are a few dozen numbers, kept as
one flat list in lexicon order and handled by ``model``'s row functions on
plain floats.  Only the e-step, which weighs every derivation of every
sentence, is numpy: ``estep_flat`` below.  A derivation's weight depends
only on how often it uses each item, and a sentence's derivations share
most of their items (every reading of a PP sentence has the same verb,
nouns and determiners).  So ``encode_corpus`` splits the counts, once per
fit, into each sentence's shared counts and each derivation's extra
counts, and stores only the nonzero ones: at most one entry per distinct
(derivation, item) pair, whatever the lexicon's size.  An e-step weighs
the shared counts once per sentence and the extra counts once per
derivation.  An e-step computes ``log t*`` once and uses it both to
weigh derivations and in the KL's ``(omega - alpha) * log t*`` term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .chart import (TrainConfig, decode_ids, leaf_table, parse, relabel,
                    signature)
from .errors import InvalidModel, UnparsedSentence
from .lexicon import LexicalItem, Lexicon
from .model import (Theta, _mean, dirichlet_kl_flat, log_theta_star_flat,
                    validate_alpha)
from .special import _TINY


@dataclass(frozen=True)
class SentencePosterior:
    """One sentence's candidate derivations and their weights."""
    sentence: str
    sequences: tuple[tuple[LexicalItem, ...], ...]
    weights: tuple[float, ...]
    log_z: float


@dataclass(frozen=True)
class EncodedCorpus:
    """Parsed corpus as the e-step's item counts.

    ``derivations[n]`` is sentence n's candidate derivations, each a tuple
    of global item indices (a forest's ``ids``).  ``dstart[j]`` is where
    derivation j starts in the concatenated id tuples, so ``len(dstart) -
    1`` is the number of derivations D, and ``sstart`` marks sentence
    boundaries within the derivation list.

    The counts are split in two.  Sentence ``shared_sentence[k]`` uses item
    ``shared_item[k]`` at least ``shared_count[k]`` times in every one of
    its derivations (the least count over them).  Derivation
    ``extra_derivation[k]`` uses item ``extra_item[k]`` ``extra_count[k]``
    times beyond that.  Only item counts that are nonzero are stored, so
    the arrays hold at most one entry per distinct (derivation, item) pair
    and never more than the corpus's item occurrences: on train-pp's
    51,250 occurrences, 2,180 shared and 8,375 extra entries, whatever the
    lexicon's size.  No chart is kept: training holds only these through
    the VB loop.
    """
    sentences: tuple[str, ...]
    derivations: tuple[tuple[tuple[int, ...], ...], ...]
    n_items: int
    dstart: np.ndarray
    sstart: np.ndarray
    shared_sentence: np.ndarray
    shared_item: np.ndarray
    shared_count: np.ndarray
    extra_derivation: np.ndarray
    extra_item: np.ndarray
    extra_count: np.ndarray


def _run_starts(*columns: np.ndarray) -> np.ndarray:
    """Where each run of equal rows starts, reading ``columns`` side by side."""
    new = np.zeros(columns[0].size, dtype=bool)
    new[:1] = True
    for column in columns:
        new[1:] |= column[1:] != column[:-1]
    return np.flatnonzero(new)


def encode_corpus(
    sentences: Sequence[str],
    derivations: Sequence[tuple[tuple[int, ...], ...]],
    n_items: int,
) -> EncodedCorpus:
    """Count each derivation's items (a forest's ``ids``) over ``n_items``,
    split into each sentence's shared counts and each derivation's extra
    ones (see EncodedCorpus).

    Every sentence needs at least one derivation; one with none raises
    UnparsedSentence, naming its index in ``sentences``.
    """
    sizes = [len(forest_ids) for forest_ids in derivations]
    if 0 in sizes:
        n = sizes.index(0)
        raise UnparsedSentence(n, sentences[n])
    n_derivations = sum(sizes)
    lengths = np.fromiter(map(len, chain.from_iterable(derivations)),
                          np.int64, n_derivations)
    dstart = np.zeros(n_derivations + 1, dtype=np.int64)
    np.cumsum(lengths, out=dstart[1:])
    ids = np.fromiter(chain.from_iterable(chain.from_iterable(derivations)),
                      np.int64, int(dstart[-1]))
    if ids.size and not 0 <= ids.min() <= ids.max() < n_items:
        raise ValueError(f"item ids must lie in [0, {n_items})")
    sstart = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=sstart[1:])
    sentence_of = np.repeat(np.arange(len(sizes)), sizes)

    # Sort the occurrences by (item, derivation).  A sentence's derivations
    # are consecutive, so each (item, sentence) group is one run as well.
    # Arrays are built in place and freed early, since they set the
    # encoding's peak memory (about 1.4 MB on train-pp).
    keys = ids
    keys *= n_derivations
    keys += np.repeat(np.arange(n_derivations), lengths)
    keys.sort()
    first = _run_starts(keys)
    pairs = keys[first]
    del ids, keys
    count = np.diff(first, append=dstart[-1])
    del first
    item, derivation = np.divmod(pairs, n_derivations)
    del pairs
    sentence = sentence_of[derivation]
    group = _run_starts(item, sentence)
    users = np.diff(group, append=item.size)
    group_sentence = sentence[group]
    del sentence
    # An item some derivation of the sentence lacks is shared 0 times.
    shared = np.where(users == np.asarray(sizes)[group_sentence],
                      np.minimum.reduceat(count, group), 0)
    extra = count
    extra -= np.repeat(shared, users)
    # Kept in sentence and derivation order, so that a bincount over items
    # adds consecutive entries into different items, not all into one: the
    # e-step's expected counts take half the time on train-pp.
    keep_shared = np.flatnonzero(shared)
    keep_shared = keep_shared[np.argsort(group_sentence[keep_shared], kind="stable")]
    keep_extra = np.flatnonzero(extra)
    keep_extra = keep_extra[np.argsort(derivation[keep_extra], kind="stable")]
    return EncodedCorpus(
        sentences=tuple(sentences),
        derivations=tuple(derivations),
        n_items=n_items,
        dstart=dstart,
        sstart=sstart,
        shared_sentence=group_sentence[keep_shared],
        shared_item=item[group[keep_shared]],
        shared_count=shared[keep_shared].astype(np.float64),
        extra_derivation=derivation[keep_extra],
        extra_item=item[keep_extra],
        extra_count=extra[keep_extra].astype(np.float64),
    )


def estep_flat(log_tstar, encoded: EncodedCorpus):
    """Responsibilities ``q``, per-sentence ``logz`` and expected counts.

    A derivation's log weight is its shared part, the same for every
    derivation of its sentence, plus its extra part.  Only the extra parts
    are weighed per derivation (a ``bincount`` over ``extra_*``); the
    shared parts are one sum per sentence and go straight into log Z.
    Each sentence's max, log Z and the sum that normalizes q are segment
    reductions over ``sstart`` (``np.add.reduceat``,
    ``np.maximum.reduceat``), spread back over the sentence's derivations
    with ``np.repeat``, so nothing loops in Python.  A sentence's q sums to
    one, so its shared counts enter the expected counts once, unweighted.
    ``reduceat`` adds a segment's values in sequence where ``np.sum`` adds
    pairwise, so a segment sum can differ from ``np.sum``'s in its last
    bits.  Every step is a numpy pass over the stored counts or the
    derivations, with no BLAS call: on train-pp (10,555 stored counts,
    3,250 derivations) a call takes about 0.09 ms.
    """
    n_items = encoded.n_items
    sstart = encoded.sstart
    if sstart.shape[0] == 1:
        # No sentences: reduceat cannot take empty offsets.
        return np.zeros(0), np.zeros(0), np.zeros(n_items)
    starts = sstart[:-1]
    sizes = np.diff(sstart)
    shared = np.bincount(
        encoded.shared_sentence, minlength=starts.size,
        weights=encoded.shared_count * log_tstar[encoded.shared_item])
    logw = np.bincount(
        encoded.extra_derivation, minlength=int(sstart[-1]),
        weights=encoded.extra_count * log_tstar[encoded.extra_item])
    top = np.maximum.reduceat(logw, starts)
    w = np.exp(logw - np.repeat(top, sizes))
    total = np.add.reduceat(w, starts)
    q = w / np.repeat(total, sizes)
    expected = (
        np.bincount(encoded.shared_item, weights=encoded.shared_count,
                    minlength=n_items)
        + np.bincount(encoded.extra_item, minlength=n_items,
                      weights=encoded.extra_count * q[encoded.extra_derivation]))
    return q, shared + top + np.log(total), expected


@dataclass
class TrainState:
    """Result of a training run.

    ``omega`` is F of the last recorded point, whose bound ends
    ``elbo_trace``; ``iterations`` counts e-steps, refused extrapolations
    included.  ``posteriors`` is built from that point's weights on first
    read; a fit that nobody asks for them never decodes a derivation.
    """
    omega: dict[str, list[float]]
    theta_mean: Theta
    elbo_trace: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    unparsed: list[int] = field(default_factory=list)
    _sentences: tuple[str, ...] = field(default=(), repr=False, compare=False)
    _ids: tuple[tuple[tuple[int, ...], ...], ...] = field(
        default=(), repr=False, compare=False)
    _q: Sequence[float] = field(default=(), repr=False, compare=False)
    _logz: Sequence[float] = field(default=(), repr=False, compare=False)
    _items: tuple[LexicalItem, ...] = field(default=(), repr=False, compare=False)

    @cached_property
    def posteriors(self) -> list[SentencePosterior]:
        """Each kept sentence's derivations and their final weights; empty
        when no iteration ran."""
        out = []
        j0 = 0
        for sentence, forest_ids, log_z in zip(self._sentences, self._ids, self._logz):
            j1 = j0 + len(forest_ids)
            out.append(SentencePosterior(
                sentence=sentence,
                sequences=decode_ids(self._items, forest_ids),
                weights=tuple(float(v) for v in self._q[j0:j1]),
                log_z=float(log_z),
            ))
            j0 = j1
        return out


def _parse_corpus(
    lexicon: Lexicon, sentences: Sequence[str], config: TrainConfig,
) -> tuple[list[str], list[tuple[tuple[int, ...], ...]], list[int]]:
    """The sentences with derivations, their ids, and the indices of those
    without, parsing the first sentence of each signature and relabelling
    its slot tuples for the rest.  Only ids are returned, so each chart is
    freed once parsed, and the slot tuples when this returns."""
    kept_sentences: list[str] = []
    kept_derivations: list[tuple[tuple[int, ...], ...]] = []
    unparsed: list[int] = []
    slots_of: dict[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]] = {}
    for n, sentence in enumerate(sentences):
        tokens = sentence.split()
        sig = signature(lexicon, tokens)
        slots = slots_of.get(sig)
        if slots is None:
            forest = parse(lexicon, tokens, config)
            slots_of[sig] = forest.slots
            ids = forest.ids
        else:
            ids = relabel(slots, leaf_table(lexicon, tokens))
        if not ids:
            if not config.skip_unparsed:
                raise UnparsedSentence(n, sentence)
            unparsed.append(n)
            continue
        kept_sentences.append(sentence)
        kept_derivations.append(ids)
    return kept_sentences, kept_derivations, unparsed


def _estep(omega: list[float], alpha_flat: list[float],
           offsets: Sequence[int], encoded: EncodedCorpus):
    """The bound at ``omega``, ``F(omega) = alpha + expected counts``, and
    the responsibilities and log Z they come from."""
    # One digamma pass: log t* weighs the derivations and enters the KL.
    log_tstar = log_theta_star_flat(omega, offsets)
    q, logz, expected = estep_flat(np.array(log_tstar), encoded)
    bound = float(np.sum(logz)) - dirichlet_kl_flat(
        omega, alpha_flat, offsets, log_tstar)
    return bound, [a + c for a, c in zip(alpha_flat, expected.tolist())], q, logz


def _extrapolate(omega: list[float], f1: list[float],
                 f2: list[float]) -> list[float] | None:
    """SQUAREM's point from ``omega``, ``f1 = F(omega)`` and
    ``f2 = F(f1)``; None when ``|v|`` is 0 or an entry of the point is not
    finite and above 2**-1024.  The caller then falls back to ``f2``."""
    r = [b - a for a, b in zip(omega, f1)]
    v = [c - 2.0 * b + a for a, b, c in zip(omega, f1, f2)]
    norm_v = math.hypot(*v)
    if norm_v == 0.0:
        return None
    s = min(-math.hypot(*r) / norm_v, -1.0)
    out = [a - 2.0 * s * dr + s * s * dv for a, dr, dv in zip(omega, r, v)]
    if all(_TINY < x < math.inf for x in out):  # NaN fails it too
        return out
    return None


def train(lexicon: Lexicon, sentences: Sequence[str],
          alpha: Mapping[str, Sequence[float]], config: TrainConfig) -> TrainState:
    """Fit per-category pseudo-counts to a corpus.

    Sentences the chart cannot derive raise UnparsedSentence, or are
    recorded and dropped when ``config.skip_unparsed`` is set.  An unknown
    start category raises UnknownCategoryError, even for an empty corpus.
    """
    lexicon.check_start(config.start)
    alpha = validate_alpha(lexicon, alpha)

    kept_sentences, kept_derivations, unparsed = _parse_corpus(
        lexicon, sentences, config)
    encoded = encode_corpus(kept_sentences, kept_derivations, lexicon.n_items)

    offsets = lexicon.offsets
    alpha_flat = [v for cat in lexicon.categories for v in alpha[cat]]
    omega = alpha_flat  # F of the last recorded point
    trace: list[float] = []
    iterations = 0
    converged = False
    q = np.zeros(0)
    logz = np.zeros(0)
    point = alpha_flat  # where the next e-step runs
    start = None  # w, a cycle's first point, once recorded
    fallback = None  # F(F(w)) while point is the cycle's extrapolation

    # An α entry just above 2**-1024 gives a log t* near -1.7e308, which
    # overflows in the e-step once weighed by an item count; the
    # non-finite bound check below is then the one report of it.
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, config.max_iters + 1):
            iterations = it
            bound, image, q_it, logz_it = _estep(point, alpha_flat, offsets,
                                                 encoded)
            if fallback is not None:
                if not (math.isfinite(bound) and bound >= trace[-1]):
                    point, fallback = fallback, None
                    continue
                fallback = None
            elif not math.isfinite(bound):
                raise InvalidModel(
                    f"objective became non-finite at iteration {it}")
            trace.append(bound)
            omega, q, logz = image, q_it, logz_it
            if image == point or (
                    len(trace) >= 2 and abs(trace[-1] - trace[-2]) <= config.tol):
                converged = True
                break
            if start is None:
                start, point = point, image
            else:  # point is F(w), and image F(F(w))
                extrapolated = _extrapolate(start, point, image)
                start = None
                if extrapolated is None:
                    point = image
                else:
                    point, fallback = extrapolated, image

    rows = {cat: omega[a:b]
            for cat, a, b in zip(lexicon.categories, offsets, offsets[1:])}
    return TrainState(
        omega=rows,
        theta_mean=_mean(rows),
        elbo_trace=trace,
        iterations=iterations,
        converged=converged,
        unparsed=unparsed,
        _sentences=encoded.sentences,
        _ids=encoded.derivations,
        _q=q,
        _logz=logz,
        _items=lexicon.items,
    )
