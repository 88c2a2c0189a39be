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

Derivation candidates come from the chart parser once, up front; the
loop itself runs on flat arrays via the kernels in ``numerics``.  An
iteration computes ``log t*`` once and uses it both to weigh derivations
and in the KL's ``(omega - alpha) * log t*`` term; the prior's log-gamma
terms are computed once per fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .chart import ParseConfig, parse
from .errors import InvalidModel, UnparsedSentence
from .lexicon import LexicalItem, Lexicon
from .model import Alpha, Theta, validate_alpha
from .numerics import (dirichlet_kl_flat, estep_flat, gammaln_terms,
                       log_theta_star_flat)


def _flat_offsets(lexicon: Lexicon) -> np.ndarray:
    return np.asarray(lexicon.offsets, dtype=np.int64)


def dict_to_flat(lexicon: Lexicon, rows: Mapping[str, Sequence[float]]) -> np.ndarray:
    out = np.empty(lexicon.n_items, dtype=np.float64)
    for k, cat in enumerate(lexicon.categories):
        out[lexicon.offsets[k]:lexicon.offsets[k + 1]] = rows[cat]
    return out


def flat_to_dict(lexicon: Lexicon, flat: np.ndarray) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for k, cat in enumerate(lexicon.categories):
        out[cat] = [float(v) for v in flat[lexicon.offsets[k]:lexicon.offsets[k + 1]]]
    return out


def theta_star(lexicon: Lexicon, omega: Mapping[str, Sequence[float]]) -> Theta:
    """exp(psi(omega_i) - psi(sum_cat omega)): the geometric-mean point."""
    flat = dict_to_flat(lexicon, omega)
    if not np.all(flat > 0.0):
        raise InvalidModel("omega entries must be > 0")
    logs = log_theta_star_flat(flat, _flat_offsets(lexicon))
    return flat_to_dict(lexicon, np.exp(logs))


def posterior_mean(lexicon: Lexicon, omega: Mapping[str, Sequence[float]]) -> Theta:
    """Dirichlet mean omega_i / sum_cat omega, per category."""
    out: Theta = {}
    for cat in lexicon.categories:
        row = [float(v) for v in omega[cat]]
        s = math.fsum(row)
        out[cat] = [v / s for v in row]
    return out


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

    ``derivations[n]`` is sentence n's candidate item sequences.
    ``item_ids`` concatenates every derivation's global item indices;
    ``dstart`` marks derivation boundaries within it, and ``sstart``
    marks sentence boundaries within the derivation list.  No chart is
    kept: training holds only these through the VB loop.
    """
    sentences: tuple[str, ...]
    derivations: tuple[tuple[tuple[LexicalItem, ...], ...], ...]
    item_ids: np.ndarray
    dstart: np.ndarray
    sstart: np.ndarray


def encode_corpus(
    lexicon: Lexicon, sentences: Sequence[str],
    derivations: Sequence[tuple[tuple[LexicalItem, ...], ...]],
) -> EncodedCorpus:
    """Flatten each sentence's derivations (a forest's ``sequences``)."""
    ids: list[int] = []
    dstart = [0]
    sstart = [0]
    for seqs in derivations:
        for seq in seqs:
            ids.extend(lexicon.global_index(it) for it in seq)
            dstart.append(len(ids))
        sstart.append(len(dstart) - 1)
    return EncodedCorpus(
        sentences=tuple(sentences),
        derivations=tuple(derivations),
        item_ids=np.asarray(ids, dtype=np.int64),
        dstart=np.asarray(dstart, dtype=np.int64),
        sstart=np.asarray(sstart, dtype=np.int64),
    )


def e_step(lexicon: Lexicon, encoded: EncodedCorpus,
           omega_flat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Responsibilities, per-sentence log normalizers, expected counts."""
    log_tstar = log_theta_star_flat(omega_flat, _flat_offsets(lexicon))
    return estep_flat(log_tstar, encoded.item_ids, encoded.dstart,
                      encoded.sstart, lexicon.n_items)


def elbo_surrogate(lexicon: Lexicon, logz: np.ndarray, omega_flat: np.ndarray,
                   alpha_flat: np.ndarray) -> float:
    kl = dirichlet_kl_flat(omega_flat, alpha_flat, _flat_offsets(lexicon))
    return float(np.sum(logz)) - kl


@dataclass(frozen=True)
class TrainConfig:
    start: str
    tol: float = 1.0e-6
    max_iters: int = 100
    skip_unparsed: bool = False
    max_derivations: int = ParseConfig.max_derivations
    max_covert: int = ParseConfig.max_covert
    max_steps: int = ParseConfig.max_steps


@dataclass
class TrainState:
    """Result of a training run."""
    omega: dict[str, list[float]]
    theta_mean: Theta
    elbo_trace: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    unparsed: list[int] = field(default_factory=list)
    posteriors: list[SentencePosterior] = field(default_factory=list)


def _posteriors_from(encoded: EncodedCorpus, q: np.ndarray,
                     logz: np.ndarray) -> list[SentencePosterior]:
    out = []
    for n, seqs in enumerate(encoded.derivations):
        j0, j1 = int(encoded.sstart[n]), int(encoded.sstart[n + 1])
        out.append(SentencePosterior(
            sentence=encoded.sentences[n],
            sequences=seqs,
            weights=tuple(float(v) for v in q[j0:j1]),
            log_z=float(logz[n]),
        ))
    return out


def train(lexicon: Lexicon, sentences: Sequence[str],
          alpha: Mapping[str, Sequence[float]], config: TrainConfig) -> TrainState:
    """Fit per-category pseudo-counts to a corpus.

    Sentences the chart cannot derive raise UnparsedSentence, or are
    recorded and dropped when ``config.skip_unparsed`` is set.
    """
    alpha = validate_alpha(lexicon, alpha)
    if config.max_iters < 0:
        raise InvalidModel("max_iters must be >= 0")
    if not (math.isfinite(config.tol) and config.tol >= 0.0):
        raise InvalidModel("tol must be finite and >= 0")

    pc = ParseConfig(start=config.start, max_derivations=config.max_derivations,
                     max_covert=config.max_covert, max_steps=config.max_steps)
    # Only the sequences are kept, so each chart is freed once parsed.
    kept_sentences: list[str] = []
    kept_derivations: list[tuple[tuple[LexicalItem, ...], ...]] = []
    unparsed: list[int] = []
    for n, sentence in enumerate(sentences):
        sequences = parse(lexicon, sentence.split(), pc).sequences
        if not sequences:
            if not config.skip_unparsed:
                raise UnparsedSentence(n, sentence)
            unparsed.append(n)
            continue
        kept_sentences.append(sentence)
        kept_derivations.append(sequences)
    encoded = encode_corpus(lexicon, kept_sentences, kept_derivations)

    offsets = _flat_offsets(lexicon)
    alpha_flat = dict_to_flat(lexicon, alpha)
    alpha_terms = gammaln_terms(alpha_flat, offsets)
    omega = alpha_flat.copy()
    trace: list[float] = []
    iterations = 0
    converged = False
    q = np.zeros(0)
    logz = np.zeros(0)

    for it in range(1, config.max_iters + 1):
        iterations = it
        # One digamma pass: log t* weighs the derivations and enters the KL.
        log_tstar = log_theta_star_flat(omega, offsets)
        q, logz, counts = estep_flat(log_tstar, encoded.item_ids, encoded.dstart,
                                     encoded.sstart, lexicon.n_items)
        surrogate = float(np.sum(logz)) - dirichlet_kl_flat(
            omega, alpha_flat, offsets, log_tstar, alpha_terms)
        if not math.isfinite(surrogate):
            raise InvalidModel(
                f"objective became non-finite at iteration {it}")
        trace.append(surrogate)
        new_omega = alpha_flat + counts
        if np.array_equal(new_omega, omega):
            omega = new_omega
            converged = True
            break
        omega = new_omega
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) <= config.tol:
            converged = True
            break

    return TrainState(
        omega=flat_to_dict(lexicon, omega),
        theta_mean=flat_to_dict(
            lexicon, omega / np.repeat(np.add.reduceat(omega, offsets[:-1]),
                                       np.diff(offsets))),
        elbo_trace=trace,
        iterations=iterations,
        converged=converged,
        unparsed=unparsed,
        posteriors=_posteriors_from(encoded, q, logz) if iterations else [],
    )
