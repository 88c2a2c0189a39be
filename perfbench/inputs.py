"""Seeded inputs and independent reference values for the benchmark.

Nothing here imports pdmg.  The lexicons are plain text, the corpora
token lists, and every reference value (reading counts, sentence
probabilities, the variational bound and its fixed point) is computed
from the structure the generator itself built: which words a sentence
has and where its prepositional phrases (PPs) may attach.  The same
``(workload, seed)`` always gives the same inputs, because all choices
come from one ``random.Random`` seeded with a string.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

WORKLOADS = ("train-pp", "parse-chain", "score-pp", "sample-wh")

# --- lexicons -------------------------------------------------------------

NAMES = ("kim", "lee", "sandy", "robin")
NOUNS = ("man", "dog", "park", "telescope", "hill", "book")
VERBS = ("saw", "liked", "met")
SAY_VERBS = ("thinks", "says")
PREPS = ("with", "near", "on")

# PP attachment with clausal embedding; start category v.  Each
# preposition has a noun-attaching item (``=d n= n``: takes its object,
# then the noun to its left) and a verb-attaching one (``=d v= v``), so a
# sentence "NAME VERB the N (P the N)^k" has Catalan(k+1) readings.
PP_ENTRIES: tuple[tuple[str, str], ...] = (
    *((w, "d") for w in NAMES),
    ("the", "=n d"),
    *((w, "n") for w in NOUNS),
    *((p, "=d n= n") for p in PREPS),
    *((w, "=d d= v") for w in VERBS),
    *((w, "=c d= v") for w in SAY_VERBS),
    *((p, "=d v= v") for p in PREPS),
    ("that", "=v c"),
)
PP_START = "v"

# A right-branching chain: every sentence A^(n-1) B has exactly one
# derivation, the covert root, then the items in token order.
CHAIN_A = ("ka", "ke", "ki", "ko", "ku", "ky")
CHAIN_B = ("zo", "zu", "zy")
CHAIN_ENTRIES: tuple[tuple[str, str], ...] = (
    *((w, "=x x") for w in CHAIN_A),
    *((w, "x") for w in CHAIN_B),
    ("", "=x c"),
)
CHAIN_START = "c"
# Below the length at which the package's recursive tree code fails.
CHAIN_LENGTHS = (60, 120, 180, 240, 300)

# wh- and topic movement with covert tense and complementizers and clausal
# embedding; start category c.  Only objects carry licensees and a clause
# has either an object or a complement, so at most one mover is ever in
# flight and no draw can break the shortest-move constraint.
WH_ENTRIES: tuple[tuple[str, str], ...] = (
    ("what", "o -wh"), ("who", "o -wh"),
    ("kim", "o"), ("lee", "o"),
    ("kim", "o -top"), ("lee", "o -top"),
    ("kim", "s"), ("lee", "s"), ("sandy", "s"),
    ("saw", "=o s= v"), ("met", "=o s= v"), ("liked", "=o s= v"),
    ("knows", "=c s= v"),
    ("did", "=v t"), ("", "=v t"),
    ("", "=t +wh c"), ("", "=t +top c"), ("", "=t c"), ("that", "=t c"),
)
WH_START = "c"

SCORE_PPS = tuple(range(9))              # 0..8 PPs: 1..4862 readings
TRAIN_SHAPES = tuple((e, k) for e in range(3) for k in range(4))
TRAIN_PER_SHAPE = 25                     # 12 shapes x 25 = 300 sentences
TRAIN_TOL = 1e-9
TRAIN_MAX_ITERS = 1000
SAMPLE_DRAWS = 2000


def category(feats: str) -> str:
    """The category feature of a feature string such as ``=d n= n``."""
    (cat,) = [f for f in feats.split() if f[0] not in "=+-" and not f.endswith("=")]
    return cat


def lexicon_text(entries) -> str:
    return "".join(f"{phon or 'ε'} :: {feats}\n" for phon, feats in entries)


def item_ids(entries) -> tuple[tuple[str, ...], dict[tuple[str, str], tuple[int, int]]]:
    """Category order and each entry's (category index, index in category).

    Categories are numbered in order of first appearance and items keep
    file order within their category, as the package numbers them.
    """
    cats: list[str] = []
    sizes: dict[str, int] = {}
    ids = {}
    for phon, feats in entries:
        cat = category(feats)
        if cat not in sizes:
            cats.append(cat)
            sizes[cat] = 0
        ids[(phon, feats)] = (cats.index(cat), sizes[cat])
        sizes[cat] += 1
    return tuple(cats), ids


PP_CATS, PP_IDS = item_ids(PP_ENTRIES)
_, CHAIN_IDS = item_ids(CHAIN_ENTRIES)

# --- PP sentences and their readings -------------------------------------


@dataclass(frozen=True)
class PPSentence:
    """``e`` embedding levels above the innermost clause, then ``k`` PPs.

    ``fixed`` lists the (category index, item index) of every word that
    has one item; ``preps`` the preposition of each PP, in order.
    """
    tokens: tuple[str, ...]
    e: int
    preps: tuple[str, ...]
    fixed: tuple[tuple[int, int], ...]

    @property
    def k(self) -> int:
        return len(self.preps)

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


def pp_sentence(rng: random.Random, e: int, preps: list[str]) -> PPSentence:
    tokens: list[str] = []
    fixed: list[tuple[str, str]] = []
    for _ in range(e):
        name, verb = rng.choice(NAMES), rng.choice(SAY_VERBS)
        tokens += [name, verb, "that"]
        fixed += [(name, "d"), (verb, "=c d= v"), ("that", "=v c")]
    name, verb, noun = rng.choice(NAMES), rng.choice(VERBS), rng.choice(NOUNS)
    tokens += [name, verb, "the", noun]
    fixed += [(name, "d"), (verb, "=d d= v"), ("the", "=n d"), (noun, "n")]
    for prep in preps:
        noun = rng.choice(NOUNS)
        tokens += [prep, "the", noun]
        fixed += [("the", "=n d"), (noun, "n")]
    return PPSentence(tuple(tokens), e, tuple(preps),
                      tuple(PP_IDS[f] for f in fixed))


def prep_id(prep: str, site: str) -> tuple[int, int]:
    """The item of ``prep`` attaching to a noun (site "n") or a verb ("v")."""
    return PP_IDS[(prep, "=d n= n" if site == "n" else "=d v= v")]


def inside(e: int, w_n, w_v):
    """Weighted sum over the readings of a PP sentence, by attachment site.

    PP m (1-based) weighs ``w_n[m-1]`` when it attaches to a noun and
    ``w_v[m-1]`` when it attaches to a verb.  ``noun[i][j]`` sums over
    the ways noun i (0 = the object, m = PP m's object) takes PPs
    i+1..j; ``verb[j]`` over the ways the clause at the current level
    takes PPs 1..j, where each level either passes PPs to the clause it
    embeds or takes a last PP m itself.  With unit weights it counts
    readings: Catalan(k+1) when e = 0.
    """
    k = len(w_n)
    noun = [[0] * (k + 1) for _ in range(k + 1)]
    for i in range(k, -1, -1):
        noun[i][i] = 1
        for j in range(i + 1, k + 1):
            noun[i][j] = sum(noun[i][m - 1] * w_n[m - 1] * noun[m][j]
                             for m in range(i + 1, j + 1))
    verb = list(noun[0])
    for _ in range(e + 1):
        below, verb = verb, [0] * (k + 1)
        for j in range(k + 1):
            verb[j] = below[j] + sum(verb[m - 1] * w_v[m - 1] * noun[m][j]
                                     for m in range(1, j + 1))
    return verb[k]


@lru_cache(maxsize=None)
def readings(e: int, k: int) -> tuple[tuple[str, ...], ...]:
    """Every reading's attachment site ("n" or "v") per PP, by enumeration.

    Readings that differ only in which noun or verb a PP attaches to use
    the same items, so the site tuples repeat.
    """
    @lru_cache(maxsize=None)
    def noun(i: int, j: int) -> tuple[tuple[str, ...], ...]:
        if i == j:
            return ((),)
        return tuple(a + ("n",) + b for m in range(i + 1, j + 1)
                     for a in noun(i, m - 1) for b in noun(m, j))

    @lru_cache(maxsize=None)
    def verb(level: int, j: int) -> tuple[tuple[str, ...], ...]:
        below = noun(0, j) if level == 0 else verb(level - 1, j)
        return below + tuple(a + ("v",) + b for m in range(1, j + 1)
                             for a in verb(level, m - 1) for b in noun(m, j))

    return verb(e, k)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def sentence_prob(s: PPSentence, theta: dict[str, list[float]]) -> float:
    """P(sentence | theta): fixed items times the inside sum over sites."""
    def p(cm):
        return theta[PP_CATS[cm[0]]][cm[1]]
    fixed = math.prod(p(cm) for cm in s.fixed)
    return fixed * inside(s.e, [p(prep_id(q, "n")) for q in s.preps],
                          [p(prep_id(q, "v")) for q in s.preps])


def reading_items(s: PPSentence) -> list[list[tuple[int, int]]]:
    """The items of each reading of ``s``, fixed words then prepositions."""
    return [list(s.fixed) + [prep_id(q, site) for q, site in zip(s.preps, sites)]
            for sites in readings(s.e, s.k)]


def vb_reference(corpus: list[PPSentence], omega: dict[str, list[float]],
                 alpha: dict[str, list[float]]):
    """(bound, omega') at ``omega`` with scipy's digamma and gammaln.

    The bound is sum_n log Z_n - sum_cat KL(Dir(omega) || Dir(alpha)) with
    Z_n = sum over sentence n's readings of prod exp(psi(w_i) -
    psi(sum_cat w)); omega' = alpha + the expected item counts under the
    same weights, which equals omega at a fixed point.
    """
    from scipy.special import digamma, gammaln, logsumexp

    log_t = {cat: [float(v) for v in digamma(row) - digamma(math.fsum(row))]
             for cat, row in omega.items()}
    counts = {cat: [0.0] * len(row) for cat, row in omega.items()}
    log_z = []
    for s in corpus:
        items = reading_items(s)
        logw = [math.fsum(log_t[PP_CATS[c]][m] for c, m in its) for its in items]
        lz = float(logsumexp(logw))
        log_z.append(lz)
        for its, lw in zip(items, logw):
            q = math.exp(lw - lz)
            for c, m in its:
                counts[PP_CATS[c]][m] += q
    kl = 0.0
    for cat, row in omega.items():
        a = alpha[cat]
        so, sa = math.fsum(row), math.fsum(a)
        kl += float(gammaln(so) - gammaln(sa))
        kl += math.fsum(float(gammaln(ai) - gammaln(wi)
                              + (wi - ai) * (digamma(wi) - digamma(so)))
                        for wi, ai in zip(row, a))
    new_omega = {cat: [a + c for a, c in zip(alpha[cat], counts[cat])]
                 for cat in omega}
    return math.fsum(log_z) - kl, new_omega


# --- workloads ------------------------------------------------------------


@dataclass(frozen=True)
class Inputs:
    """One workload's inputs: the files the program loads, and the spec."""
    workload: str
    seed: int
    lexicon: str
    start: str
    sentences: tuple[str, ...] = ()
    theta: dict | None = None
    pp: tuple[PPSentence, ...] = ()
    chain_ids: tuple[tuple[tuple[int, int], ...], ...] = ()
    sample_seed: int = 0


def make_inputs(workload: str, seed: int) -> Inputs:
    rng = random.Random(f"perfbench:{workload}:{seed}")
    if workload == "train-pp":
        # Which preposition heads each PP follows one fixed pattern, up to
        # a seeded renaming, so that every seed poses the same estimation
        # problem and the fit takes the same number of VB iterations.
        names = rng.sample(PREPS, len(PREPS))
        pp = [pp_sentence(rng, e, [names[(i + m) % len(names)] for m in range(k)])
              for e, k in TRAIN_SHAPES for i in range(TRAIN_PER_SHAPE)]
        rng.shuffle(pp)
        pp = tuple(pp)
        return Inputs(workload, seed, lexicon_text(PP_ENTRIES), PP_START,
                      tuple(s.text for s in pp), pp=pp)
    if workload == "score-pp":
        pp = tuple(pp_sentence(rng, 0, [rng.choice(PREPS) for _ in range(k)])
                   for k in SCORE_PPS)
        theta = {}
        for k, cat in enumerate(PP_CATS):
            w = [rng.uniform(0.5, 2.0) for _ in range(
                sum(1 for c, _ in PP_IDS.values() if c == k))]
            total = math.fsum(w)
            theta[cat] = [v / total for v in w]
        return Inputs(workload, seed, lexicon_text(PP_ENTRIES), PP_START,
                      tuple(s.text for s in pp), theta=theta, pp=pp)
    if workload == "parse-chain":
        sentences, ids = [], []
        for n in CHAIN_LENGTHS:
            toks = [rng.choice(CHAIN_A) for _ in range(n - 1)] + [rng.choice(CHAIN_B)]
            sentences.append(" ".join(toks))
            feats = ["=x x"] * (n - 1) + ["x"]
            ids.append((CHAIN_IDS[("", "=x c")],)
                       + tuple(CHAIN_IDS[(t, f)] for t, f in zip(toks, feats)))
        return Inputs(workload, seed, lexicon_text(CHAIN_ENTRIES), CHAIN_START,
                      tuple(sentences), chain_ids=tuple(ids))
    if workload == "sample-wh":
        return Inputs(workload, seed, lexicon_text(WH_ENTRIES), WH_START,
                      sample_seed=rng.getrandbits(63))
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(inputs: Inputs, directory: Path) -> None:
    """Write the files the program loads: lexicon, corpus and theta."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "lexicon.lex").write_text(inputs.lexicon, encoding="utf-8")
    if inputs.sentences:
        (directory / "corpus.txt").write_text(
            "".join(s + "\n" for s in inputs.sentences), encoding="utf-8")
    if inputs.theta is not None:
        (directory / "theta.json").write_text(json.dumps(inputs.theta),
                                              encoding="utf-8")
