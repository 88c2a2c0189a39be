"""Independent reference implementations the tests check the package against.

Everything here is deliberately naive: the checker walks a plain list of
mutable records and carries word lists along with the feature checks, the
enumerator tries every item string within explicit budgets, the
posterior is computed by direct normalization, the flat e-step by loops
over ``math.fsum``, and ``reference_parse`` closes the chart by trying
every pair of finished items.  No code is shared with the package's
linked-list cursor, expression algebra, indexed chart closure, or flat
array kernels.  ``sample_reference`` draws each node with numpy's
``Generator.choice``; only its checker call is the package's.
``eval_reference`` builds the derivation tree and folds frozen expression
records over it; only the tree's node classes are the package's.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

import numpy as np

from pdmg import (ArityError, CapExceeded, ChartItem, EvalError, Feature,
                  FeatureKind, FeatureMismatch, LexicalItem, Lexicon,
                  ParseConfig, SampleConfig, SmcViolation, UnderivableCategory,
                  UnknownCategoryError, is_wellformed)
from pdmg.structure import Leaf, MergeNode, MoveNode, Node

SEL_RIGHT = "sel_right"
SEL_LEFT = "sel_left"
LICENSOR = "licensor"
CAT = "cat"
LICENSEE = "licensee"


def _record(item: LexicalItem, is_root: bool) -> dict:
    return {
        "feats": [(f.kind.value, f.name) for f in item.features],
        "words": [item.phon] if item.phon else [],
        "root": is_root,
    }


def check(seq) -> tuple[bool, str | None]:
    """(accepted, surface string) by a literal walk over a mutable list.

    Rule summary: selectors scan right past checked-out movers; a
    category checks against the nearest category-bearing item to the
    left when that item leads with the matching selector (the root's
    category just deletes); a licensee steps left; a licensor scans
    right for the matching licensee with no category-bearing item in
    between and no second item to its right leading with that licensee
    (the shortest-move constraint); a featureless item is removed.
    Words attach to the checking head when an item checks its last
    feature: selected arguments append (``=x``) or prepend (``x=``),
    landing movers prepend.  A generous step budget rejects unproductive
    wandering.
    """
    items = [_record(it, i == 0) for i, it in enumerate(seq)]
    if not items:
        raise ValueError("empty sequence")
    root = items[0]
    budget = (sum(len(r["feats"]) for r in items) + len(items) + 2) \
        * (len(items) + 2) + 16
    cur = 0
    while budget > 0:
        budget -= 1
        rec = items[cur]
        if not rec["feats"]:
            items.pop(cur)
            if not items:
                return True, " ".join(root["words"])
            cur = cur - 1 if cur > 0 else cur
            if cur >= len(items):
                cur = len(items) - 1
            continue
        kind, name = rec["feats"][0]
        if kind in (SEL_RIGHT, SEL_LEFT):
            j = cur + 1
            while j < len(items) and items[j]["feats"] \
                    and items[j]["feats"][0][0] == LICENSEE:
                j += 1
            if j >= len(items):
                return False, None
            cur = j
        elif kind == CAT:
            if rec["root"]:
                rec["feats"].pop(0)
                continue
            k = None
            for i in range(cur - 1, -1, -1):
                if any(f[0] == CAT for f in items[i]["feats"]):
                    k = i
                    break
            if k is None:
                return False, None
            head = items[k]["feats"][0]
            if head[0] not in (SEL_RIGHT, SEL_LEFT) or head[1] != name:
                return False, None
            direction = head[0]
            items[k]["feats"].pop(0)
            rec["feats"].pop(0)
            if not rec["feats"]:
                if direction == SEL_RIGHT:
                    items[k]["words"] = items[k]["words"] + rec["words"]
                else:
                    items[k]["words"] = rec["words"] + items[k]["words"]
                rec["words"] = []
        elif kind == LICENSEE:
            if cur == 0:
                return False, None
            cur -= 1
        elif kind == LICENSOR:
            j = None
            blocked = False
            for i in range(cur + 1, len(items)):
                f = items[i]["feats"]
                if f and f[0][0] == LICENSEE and f[0][1] == name:
                    j = i
                    break
                if any(g[0] == CAT for g in f):
                    blocked = True
            if j is None or blocked:
                return False, None
            # Shortest move: no second item anywhere to the right may lead
            # with the same licensee.
            if any(items[i]["feats"] and items[i]["feats"][0] == (LICENSEE, name)
                   for i in range(j + 1, len(items))):
                return False, None
            rec["feats"].pop(0)
            items[j]["feats"].pop(0)
            if not items[j]["feats"]:
                rec["words"] = items[j]["words"] + rec["words"]
                items[j]["words"] = []
        else:  # pragma: no cover - feature kinds are closed
            raise AssertionError(f"unknown feature kind {kind}")
    return False, None


def enumerate_wellformed(lex: Lexicon, start: str, max_overt: int,
                         max_covert: int):
    """Every accepted sequence with root category ``start`` within budgets.

    Returns ``[(id_tuple, sentence), ...]`` where an id tuple lists each
    item's (category index, item index) pair, sorted by id tuple.
    """
    overt_items = [it for it in lex.items if it.phon]
    covert_items = [it for it in lex.items if not it.phon]
    found = []

    def rec(prefix: tuple, n_overt: int, n_covert: int) -> None:
        if prefix and prefix[0].category == start:
            ok, sentence = check(prefix)
            if ok:
                found.append(
                    (tuple(it.item_id for it in prefix), sentence))
        if len(prefix) == max_overt + max_covert:
            return
        for it in overt_items:
            if n_overt < max_overt:
                rec(prefix + (it,), n_overt + 1, n_covert)
        for it in covert_items:
            if n_covert < max_covert:
                rec(prefix + (it,), n_overt, n_covert + 1)

    rec((), 0, 0)
    return sorted(found)


def derivations_of(lex: Lexicon, sentence: str, start: str,
                   max_covert: int = 3, table=None):
    """Sorted id tuples of the sequences whose surface string is `sentence`."""
    toks = sentence.split()
    if table is None:
        table = enumerate_wellformed(lex, start, len(toks), max_covert)
    return [ids for ids, s in table if s == sentence]


def exact_posterior(lex: Lexicon, theta, sentence: str, start: str,
                    max_covert: int = 3, table=None):
    """P(sequence | sentence, theta) by direct normalization."""
    derivs = derivations_of(lex, sentence, start, max_covert, table)
    weights = []
    for ids in derivs:
        w = 1.0
        for k, m in ids:
            w *= theta[lex.categories[k]][m]
        weights.append(w)
    z = sum(weights)
    if z == 0.0:
        raise ValueError(f"no positive-probability derivation: {sentence!r}")
    return {ids: w / z for ids, w in zip(derivs, weights)}


def expected_counts(lex: Lexicon, posteriors) -> dict[str, list[float]]:
    """Sum derivation-weighted item occurrence counts over sentences."""
    counts = {cat: [0.0] * len(lex.items_of_category(cat))
              for cat in lex.categories}
    for post in posteriors:
        for ids, q in post.items():
            for k, m in ids:
                counts[lex.categories[k]][m] += q
    return counts


def dirichlet_kl_exact(omega: list[float], alpha: list[float],
                       psi, lgamma) -> float:
    """KL(Dir(omega) || Dir(alpha)) from caller-supplied psi/lgamma."""
    so, sa = math.fsum(omega), math.fsum(alpha)
    acc = lgamma(so) - lgamma(sa)
    for w, a in zip(omega, alpha):
        acc += lgamma(a) - lgamma(w) + (w - a) * (psi(w) - psi(so))
    return acc


def fmt_float(x: float) -> str:
    """Finite ``x`` in %g with the fewest digits (1-16, else 17) that round-trip."""
    for prec in range(1, 17):
        t = format(x, f".{prec}g")
        if float(t) == x:
            return t
    return format(x, ".17g")


def estep_exact(log_tstar, item_ids, dstart, sstart, n_items):
    """(q, logz, counts) of the flat e-step, as lists, by ``math.fsum``.

    Derivation j's log weight sums ``log_tstar`` over
    ``item_ids[dstart[j]:dstart[j+1]]``; sentence n's derivations are
    ``sstart[n]`` up to ``sstart[n+1]``.
    """
    log_tstar = [float(v) for v in log_tstar]
    ids = [int(i) for i in item_ids]
    dstart = [int(d) for d in dstart]
    sstart = [int(s) for s in sstart]
    logw = [math.fsum(log_tstar[i] for i in ids[a:b])
            for a, b in zip(dstart, dstart[1:])]
    q: list[float] = []
    logz: list[float] = []
    for j0, j1 in zip(sstart, sstart[1:]):
        top = max(logw[j0:j1])
        lz = top + math.log(math.fsum(math.exp(w - top) for w in logw[j0:j1]))
        logz.append(lz)
        unnorm = [math.exp(w - lz) for w in logw[j0:j1]]
        total = math.fsum(unnorm)
        q.extend(u / total for u in unnorm)
    terms: list[list[float]] = [[] for _ in range(n_items)]
    for j, (a, b) in enumerate(zip(dstart, dstart[1:])):
        for i in ids[a:b]:
            terms[i].append(q[j])
    return q, logz, [math.fsum(t) for t in terms]


def chi_square_stat(counts: dict, expected: dict) -> float:
    """Pearson statistic over the union of outcome keys."""
    stat = 0.0
    for key in set(counts) | set(expected):
        e = expected.get(key, 0.0)
        o = counts.get(key, 0)
        if e == 0.0:
            if o:
                return math.inf
            continue
        stat += (o - e) ** 2 / e
    return stat


def uniform_fraction_theta(lex: Lexicon):
    """Uniform theta with exact rational entries, for closed-form checks."""
    return {cat: [Fraction(1, len(lex.items_of_category(cat)))]
            * len(lex.items_of_category(cat)) for cat in lex.categories}


def all_sentences(vocab, max_tokens: int):
    """Every token string of length 0..max_tokens over ``vocab``."""
    for n in range(max_tokens + 1):
        for toks in itertools.product(sorted(vocab), repeat=n):
            yield " ".join(toks)


# -- all-pairs chart closure --------------------------------------------------
#
# The span chart as first written: every popped item is tried against every
# finished item in both roles, over items that hold Feature tuples.  The
# package's indexed, integer-coded closure must build the same chart.

def _canon_movers(movers):
    """Sort movers by leading licensee; None on an SMC violation."""
    names = [m[2][0].name for m in movers]
    if len(set(names)) != len(names):
        return None
    return tuple(m for _, m in sorted(zip(names, movers)))


def _spans_disjoint(head, movers) -> bool:
    spans = [head] + [(m[0], m[1]) for m in movers]
    spans = sorted(s for s in spans if s[0] != s[1])
    return all(spans[i][1] <= spans[i + 1][0] for i in range(len(spans) - 1))


def _consequences(s, t):
    """Binary rules with s as the selecting head and t as the argument."""
    if not s.suffix or not t.suffix:
        return
    f = s.suffix[0]
    if not f.is_selector:
        return
    g = t.suffix[0]
    if g.kind is not FeatureKind.CAT or g.name != f.name:
        return
    if len(t.suffix) == 1:
        if f.kind is FeatureKind.SEL_LEFT and t.end == s.start:
            head, tag = (t.start, s.end), "merge-L"
            movers = _canon_movers(t.movers + s.movers)
        elif f.kind is FeatureKind.SEL_RIGHT and s.end == t.start:
            head, tag = (s.start, t.end), "merge-R"
            movers = _canon_movers(s.movers + t.movers)
        else:
            return
        if movers is None or not _spans_disjoint(head, movers):
            return
        yield ChartItem(head[0], head[1], s.suffix[1:], movers), (tag, s, t)
    else:
        new_mover = (t.start, t.end, t.suffix[1:])
        movers = _canon_movers(s.movers + (new_mover,) + t.movers)
        if movers is None or not _spans_disjoint((s.start, s.end), movers):
            return
        yield ChartItem(s.start, s.end, s.suffix[1:], movers), ("merge-m", s, t)


def _move_consequences(s):
    if not s.suffix or s.suffix[0].kind is not FeatureKind.LICENSOR:
        return
    y = s.suffix[0].name
    for i, m in enumerate(s.movers):
        if m[2][0].name != y:
            continue
        rest = s.movers[:i] + s.movers[i + 1:]
        if len(m[2]) == 1:
            if m[1] == s.start:
                yield ChartItem(m[0], s.end, s.suffix[1:], rest), ("move-1", s)
        else:
            movers = _canon_movers(rest + ((m[0], m[1], m[2][1:]),))
            if movers is not None:
                yield ChartItem(s.start, s.end, s.suffix[1:], movers), ("move-2", s)
        return  # SMC: at most one mover can lead with -y


def reference_parse(lex: Lexicon, tokens, cfg: ParseConfig):
    """(chart, goal, sequences) by the all-pairs closure.

    ``chart`` maps each ChartItem to its set of back-pointers; ``goal`` is
    None when the sentence is not derived; ``sequences`` lists the goal's
    distinct derivations as sorted global item-index tuples, at most
    ``cfg.max_covert`` covert leaves each.
    """
    tokens = tuple(tokens)
    n = len(tokens)
    chart: dict = {}
    agenda: deque = deque()

    def derive(item, bp):
        if item not in chart:
            chart[item] = set()
            agenda.append(item)
        chart[item].add(bp)

    # A token matches the overt items spelled as it: an empty token, like
    # any unknown one, matches none.
    for i, tok in enumerate(tokens):
        for it in lex.items:
            if it.phon and it.phon == tok:
                derive(ChartItem(i, i + 1, it.features, ()), ("lex", lex.global_index(it)))
    for it in lex.items:
        if it.phon:
            continue
        for i in range(n + 1):
            derive(ChartItem(i, i, it.features, ()), ("lex", lex.global_index(it)))

    done: list = []
    steps = 0
    while agenda:
        x = agenda.popleft()
        done.append(x)
        steps += 1
        if steps > cfg.max_steps:
            raise CapExceeded("reference closure exceeded max_steps")
        for y in done:
            for item, bp in _consequences(x, y):
                derive(item, bp)
            if y is not x:
                for item, bp in _consequences(y, x):
                    derive(item, bp)
        for item, bp in _move_consequences(x):
            derive(item, bp)

    goal = ChartItem(0, n, (Feature(FeatureKind.CAT, cfg.start),), ())
    if goal not in chart:
        return chart, None, []

    def expand(item, covert_budget):
        for bp in chart[item]:
            tag = bp[0]
            if tag == "lex":
                cost = 1 if lex.item_at(bp[1]).phon == "" else 0
                if cost <= covert_budget:
                    yield (bp[1],), cost
            elif tag in ("move-1", "move-2"):
                yield from expand(bp[1], covert_budget)
            else:
                for s_ids, s_cost in expand(bp[1], covert_budget):
                    for t_ids, t_cost in expand(bp[2], covert_budget - s_cost):
                        yield s_ids + t_ids, s_cost + t_cost

    return chart, goal, sorted({ids for ids, _ in expand(goal, cfg.max_covert)})


# -- the sampler as first written ---------------------------------------------
#
# numpy's ``Generator.choice`` at every node, re-validating the row and
# rebuilding its cumulative sum each time.  The package's sampler must make
# exactly these draws; the checker call is the package's own.


def sample_reference(lexicon: Lexicon, theta: Mapping[str, Sequence[float]],
                     config: SampleConfig,
                     rng: np.random.Generator | None = None,
                     ) -> tuple[tuple[LexicalItem, ...], int]:
    """Draw one well-formed sequence; returns (sequence, rejected_count).

    Proposals come from the top-down expansion of the start category;
    draws the checker rejects are discarded and retried.  A proposal
    deeper than ``max_depth`` levels (the root is level one), or more than
    ``max_rejections`` rejections, raises CapExceeded.  A start category whose every item has licensees
    raises UnderivableCategory up front: each proposal's root would keep
    them unchecked.
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
    probs = {cat: np.asarray(theta[cat], dtype=np.float64)
             for cat in lexicon.categories}

    def propose() -> tuple[LexicalItem, ...]:
        out: list[LexicalItem] = []
        stack = [(config.start, 0)]
        while stack:
            cat, depth = stack.pop()
            if depth >= config.max_depth:
                raise CapExceeded(
                    f"sampler exceeded max depth {config.max_depth}")
            items = lexicon.items_of_category(cat)
            head = items[int(rng.choice(len(items), p=probs[cat]))]
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
        if rejected > config.max_rejections:
            raise CapExceeded(
                f"sampler exceeded {config.max_rejections} rejected draws")


# -- the evaluator as first written -------------------------------------------
#
# Build the derivation tree (``seq_to_tree`` as first written, with its own
# arity checks), list it in post-order, and fold the rules over it on frozen
# ``Chain``/``Expression`` records that re-check the shortest-move
# constraint as each is made.  The package's one-pass
# evaluator must give the same words, category and final expression, or the
# same exception type and message.


@dataclass(frozen=True)
class Chain:
    words: tuple[str, ...]
    suffix: tuple[Feature, ...]

    def text(self) -> str:
        return " ".join(self.words)

    def __str__(self) -> str:
        feats = " ".join(str(f) for f in self.suffix)
        return f"{self.text() or 'ε'}:{feats}"


@dataclass(frozen=True)
class Expression:
    head: Chain
    movers: tuple[Chain, ...] = ()

    def __post_init__(self):
        seen = set()
        for m in self.movers:
            if not m.suffix or m.suffix[0].kind is not FeatureKind.LICENSEE:
                raise FeatureMismatch(f"mover chain {m} must lead with a licensee")
            name = m.suffix[0].name
            if name in seen:
                raise SmcViolation(f"two movers lead with -{name}")
            seen.add(name)

    def __str__(self) -> str:
        parts = [str(self.head)] + [str(m) for m in self.movers]
        return "[" + ", ".join(parts) + "]"


def _leading_selector(s: Expression) -> Feature:
    if not s.head.suffix or not s.head.suffix[0].is_selector:
        raise FeatureMismatch(f"head of {s} does not lead with a selector")
    return s.head.suffix[0]


def _check_plain_argument(f: Feature, t: Expression) -> None:
    if t.head.suffix != (Feature(FeatureKind.CAT, f.name),):
        raise FeatureMismatch(
            f"argument head must be exactly category {f.name}, got {t.head}")


def merge_left(s: Expression, t: Expression) -> Expression:
    """x= on s against a completed category-x argument t; t's words go left."""
    f = _leading_selector(s)
    if f.kind is not FeatureKind.SEL_LEFT:
        raise FeatureMismatch(f"merge_left needs a left selector, got {f}")
    _check_plain_argument(f, t)
    head = Chain(t.head.words + s.head.words, s.head.suffix[1:])
    return Expression(head, t.movers + s.movers)


def merge_right(s: Expression, t: Expression) -> Expression:
    """=x on s against a completed category-x argument t; t's words go right."""
    f = _leading_selector(s)
    if f.kind is not FeatureKind.SEL_RIGHT:
        raise FeatureMismatch(f"merge_right needs a right selector, got {f}")
    _check_plain_argument(f, t)
    head = Chain(s.head.words + t.head.words, s.head.suffix[1:])
    return Expression(head, s.movers + t.movers)


def merge_mover(s: Expression, t: Expression) -> Expression:
    """Selector on s against a t that still has licensees: t becomes a mover."""
    f = _leading_selector(s)
    suf = t.head.suffix
    if len(suf) < 2 or suf[0] != Feature(FeatureKind.CAT, f.name):
        raise FeatureMismatch(
            f"merge_mover needs category {f.name} plus a licensee remainder, "
            f"got {t.head}")
    head = Chain(s.head.words, s.head.suffix[1:])
    new_mover = Chain(t.head.words, suf[1:])
    return Expression(head, s.movers + (new_mover,) + t.movers)


def _leading_licensor(s: Expression) -> Feature:
    if not s.head.suffix or s.head.suffix[0].kind is not FeatureKind.LICENSOR:
        raise FeatureMismatch(f"head of {s} does not lead with a licensor")
    return s.head.suffix[0]


def _find_mover(s: Expression, name: str) -> int:
    for i, m in enumerate(s.movers):
        if m.suffix[0].name == name:
            return i
    raise FeatureMismatch(f"no mover leads with -{name}")


def move_final(s: Expression) -> Expression:
    """+y against a mover that is exactly -y; the mover's words land left."""
    f = _leading_licensor(s)
    i = _find_mover(s, f.name)
    m = s.movers[i]
    if len(m.suffix) != 1:
        raise FeatureMismatch(
            f"mover {m} keeps features after -{f.name}; use move_again")
    head = Chain(m.words + s.head.words, s.head.suffix[1:])
    return Expression(head, s.movers[:i] + s.movers[i + 1:])


def move_again(s: Expression) -> Expression:
    """+y against a mover with a remainder after -y; the mover stays put."""
    f = _leading_licensor(s)
    i = _find_mover(s, f.name)
    m = s.movers[i]
    if len(m.suffix) == 1:
        raise FeatureMismatch(
            f"mover {m} has no remainder after -{f.name}; use move_final")
    head = Chain(s.head.words, s.head.suffix[1:])
    kept = Chain(m.words, m.suffix[1:])
    return Expression(head, s.movers[:i] + (kept,) + s.movers[i + 1:])


def seq_to_tree(seq: Sequence[LexicalItem]) -> Node:
    """Read a polish-order sequence into its derivation tree.

    The tree shape is fully determined by the items' selector and licensor
    counts; a sequence that runs out of items, or has items left over,
    raises ArityError.  One left-to-right pass: an item waits on a stack
    while its next selector's argument is read, and takes a MoveNode for
    each licensor it reaches.
    """
    if not seq:
        raise ArityError("empty item sequence")
    waiting: list[tuple[Node, Iterator[Feature]]] = []
    for i, item in enumerate(seq):
        node: Node = Leaf(item)
        feats = iter(item.features)
        while True:
            f = next(feats, None)
            while f is not None and f.kind is FeatureKind.LICENSOR:
                node = MoveNode(node)
                f = next(feats, None)
            if f is not None and f.is_selector:
                waiting.append((node, feats))
                break
            if not waiting:
                if i + 1 < len(seq):
                    raise ArityError(f"{len(seq) - i - 1} items left over "
                                     "after the root's arguments")
                return node
            head, feats = waiting.pop()
            node = MergeNode(head, node)
    raise ArityError("ran out of items while expanding selectors")


def _postorder(root: Node) -> list[Node]:
    """Every node after its children, the head's subtree before the arg's."""
    out: list[Node] = []
    stack = [root]
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, MergeNode):
            stack += (node.head, node.arg)
        elif isinstance(node, MoveNode):
            stack.append(node.child)
    return out[::-1]


def leaf_expression(item: LexicalItem) -> Expression:
    words = (item.phon,) if item.phon else ()
    return Expression(Chain(words, item.features))


def eval_tree(node: Node) -> Expression:
    """Fold the rules over a derivation tree bottom-up."""
    values: list[Expression] = []
    for n in _postorder(node):
        if isinstance(n, Leaf):
            values.append(leaf_expression(n.item))
        elif isinstance(n, MergeNode):
            t = values.pop()
            s = values.pop()
            f = _leading_selector(s)
            suf = t.head.suffix
            if not suf or suf[0] != Feature(FeatureKind.CAT, f.name):
                raise FeatureMismatch(
                    f"selector {f} against argument head {t.head}")
            rule = (merge_mover if len(suf) > 1 else
                    merge_left if f.kind is FeatureKind.SEL_LEFT else merge_right)
            values.append(rule(s, t))
        else:
            s = values.pop()
            i = _find_mover(s, _leading_licensor(s).name)
            rule = move_final if len(s.movers[i].suffix) == 1 else move_again
            values.append(rule(s))
    return values[0]


def _completed(e: Expression) -> Expression:
    """``e`` itself, if it is one chain whose suffix is exactly a category."""
    if e.movers:
        raise EvalError(f"movers never landed: {e}")
    if len(e.head.suffix) != 1 or e.head.suffix[0].kind is not FeatureKind.CAT:
        raise EvalError(f"head features left unchecked: {e}")
    return e


def eval_reference(seq) -> Expression:
    """The final expression of ``seq``, as the tree fold computes it."""
    return eval_tree(seq_to_tree(seq))


def eval_reference_result(seq) -> tuple[str, str]:
    """(derived category, surface string) of a completed ``seq``."""
    head = _completed(eval_reference(seq)).head
    return head.suffix[0].name, head.text()
