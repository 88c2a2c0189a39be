"""Variational Bayesian estimation of per-item probabilities.

The model places one Dirichlet prior per category over its items'
probabilities.  Training alternates two closed-form updates:

* responsibility step: with ``log t*_i = psi(omega_i) - psi(sum omega)``
  (the Dirichlet mean-of-log parameters), weight each candidate
  derivation of each sentence proportionally to the product of its
  items' ``t*`` values;
* pseudo-count step: ``omega = alpha + expected item counts`` under
  those weights.

Each iteration also records the bound

    sum_n log Z_n  -  sum_cat KL(Dir(omega) || Dir(alpha))

where ``Z_n`` normalizes sentence ``n``'s derivation weights.  With the
responsibilities chosen as above this is exactly the mean-field evidence
lower bound at the current ``omega``, so the recorded trace never
decreases.  Training stops when consecutive bound values agree within
``tol``, when ``omega`` repeats bitwise, or after ``max_iters`` rounds.

Derivation candidates come from the chart parser once, up front, as each
forest's tuples of global item ids (``forest.ids``); training never builds
their LexicalItem sequences unless ``TrainState.posteriors`` is read.

The Dirichlet rows (alpha, omega, log t*) are a few dozen numbers, kept as
one flat list in lexicon order and handled by ``model``'s row functions on
plain floats.  Only the e-step, which weighs every derivation of every
sentence, is numpy: ``estep_flat`` below, over the flat arrays of
``encode_corpus``.  An iteration computes ``log t*`` once and uses it both
to weigh derivations and in the KL's ``(omega - alpha) * log t*`` term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .chart import TrainConfig, decode_ids, parse
from .errors import InvalidModel, UnparsedSentence
from .lexicon import LexicalItem, Lexicon
from .model import (Theta, _mean, dirichlet_kl_flat, log_theta_star_flat,
                    validate_alpha)


@dataclass(frozen=True)
class SentencePosterior:
    """One sentence's candidate derivations and their weights."""
    sentence: str
    sequences: tuple[tuple[LexicalItem, ...], ...]
    weights: tuple[float, ...]
    log_z: float


@dataclass(frozen=True)
class EncodedCorpus:
    """Parsed corpus flattened for the array kernels.

    ``derivations[n]`` is sentence n's candidate derivations, each a tuple
    of global item indices (a forest's ``ids``).
    ``item_ids`` concatenates every derivation's global item indices;
    ``dstart`` marks derivation boundaries within it, and ``sstart``
    marks sentence boundaries within the derivation list.  No chart is
    kept: training holds only these through the VB loop.
    """
    sentences: tuple[str, ...]
    derivations: tuple[tuple[tuple[int, ...], ...], ...]
    item_ids: np.ndarray
    dstart: np.ndarray
    sstart: np.ndarray


def encode_corpus(
    sentences: Sequence[str],
    derivations: Sequence[tuple[tuple[int, ...], ...]],
) -> EncodedCorpus:
    """Flatten each sentence's derivations (a forest's ``ids``)."""
    ids: list[int] = []
    dstart = [0]
    sstart = [0]
    for forest_ids in derivations:
        for d in forest_ids:
            ids.extend(d)
            dstart.append(len(ids))
        sstart.append(len(dstart) - 1)
    return EncodedCorpus(
        sentences=tuple(sentences),
        derivations=tuple(derivations),
        item_ids=np.asarray(ids, dtype=np.int64),
        dstart=np.asarray(dstart, dtype=np.int64),
        sstart=np.asarray(sstart, dtype=np.int64),
    )


def estep_flat(log_tstar, item_ids, dstart, sstart, n_items):
    """Responsibilities ``q``, per-sentence ``logz`` and expected counts.

    ``item_ids[dstart[j]:dstart[j+1]]`` are derivation j's items, and
    ``sstart`` marks sentence boundaries in the derivation list.  Every
    sentence needs at least one derivation: its max, log Z and the sum
    that normalizes q are segment reductions over ``sstart``
    (``np.add.reduceat``, ``np.maximum.reduceat``), spread back over the
    sentence's derivations with ``np.repeat``, so nothing loops in Python.
    ``reduceat`` adds a segment's values in sequence where ``np.sum`` adds
    pairwise, so a segment sum can differ from ``np.sum``'s in its last
    bits.
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


@dataclass
class TrainState:
    """Result of a training run.

    ``posteriors`` is built from the last iteration's weights on first
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


def train(lexicon: Lexicon, sentences: Sequence[str],
          alpha: Mapping[str, Sequence[float]], config: TrainConfig) -> TrainState:
    """Fit per-category pseudo-counts to a corpus.

    Sentences the chart cannot derive raise UnparsedSentence, or are
    recorded and dropped when ``config.skip_unparsed`` is set.
    """
    alpha = validate_alpha(lexicon, alpha)

    # Only the id tuples are kept, so each chart is freed once parsed.
    kept_sentences: list[str] = []
    kept_derivations: list[tuple[tuple[int, ...], ...]] = []
    unparsed: list[int] = []
    for n, sentence in enumerate(sentences):
        ids = parse(lexicon, sentence.split(), config).ids
        if not ids:
            if not config.skip_unparsed:
                raise UnparsedSentence(n, sentence)
            unparsed.append(n)
            continue
        kept_sentences.append(sentence)
        kept_derivations.append(ids)
    encoded = encode_corpus(kept_sentences, kept_derivations)

    offsets = lexicon.offsets
    alpha_flat = [v for cat in lexicon.categories for v in alpha[cat]]
    omega = alpha_flat
    trace: list[float] = []
    iterations = 0
    converged = False
    q = np.zeros(0)
    logz = np.zeros(0)

    for it in range(1, config.max_iters + 1):
        iterations = it
        # One digamma pass: log t* weighs the derivations and enters the KL.
        log_tstar = log_theta_star_flat(omega, offsets)
        q, logz, counts = estep_flat(np.array(log_tstar), encoded.item_ids,
                                     encoded.dstart, encoded.sstart,
                                     lexicon.n_items)
        surrogate = float(np.sum(logz)) - dirichlet_kl_flat(
            omega, alpha_flat, offsets, log_tstar)
        if not math.isfinite(surrogate):
            raise InvalidModel(
                f"objective became non-finite at iteration {it}")
        trace.append(surrogate)
        new_omega = [a + c for a, c in zip(alpha_flat, counts.tolist())]
        if new_omega == omega:
            converged = True
            break
        omega = new_omega
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) <= config.tol:
            converged = True
            break

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
