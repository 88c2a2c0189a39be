"""Chart parsing: which item sequences derive a given sentence?

The merge/move rules are reinterpreted over token spans.  A chart item is a
head (span, feature suffix) plus movers (span, suffix); all spans in one
item are pairwise disjoint (empty spans are disjoint from everything).
Axioms instantiate token-matching items over (i, i+1) and covert items over
every empty span (i, i).  The rules mirror the string semantics:

- merge_left needs t.end == s.start and yields head (t.start, s.end);
- merge_right needs s.end == t.start and yields (s.start, t.end);
- merge_mover imposes no adjacency: t's span rides along as a mover;
- move_final needs mover.end == head.start and yields (mover.start, end);
- move_again rewrites the mover's suffix in place.

Consequences violating span disjointness or the shortest-move constraint
are simply not derived.  Mover lists are kept sorted by licensee name
(unique under the SMC), so items built along different rule orders dedupe.

Closure is agenda-driven (Shieber, Schabes & Pereira 1995), over span
items for minimalist grammars (Harkema 2001).  The agenda is a list that
one loop walks while appending to it, so each item is queued once, when
first derived, and popped once, first in first out.  When popped, it is
filed under the keys the binary rules test and meets only the finished
items filed under its partner keys:

- ``=x`` heads by (x, end) and ``x=`` heads by (x, start), the adjacency
  merge_right and merge_left test against a bare ``x`` argument;
- every selector for x by x alone, for merge_mover, which tests none;
- bare ``x`` items by (x, start) and by (x, end);
- ``x -y ...`` items by x.

An item is filed under a key only when some suffix of the lexicon looks
items up there (``FeatureCodes.by_start``, ``by_end`` and ``by_name``):
with no ``x=`` in the lexicon, no bare ``x`` is filed by its end.

So the pairs tried stay close to the consequences derived instead of
growing with the square of the chart.  The loop builds one kind of
consequence itself: a bare argument and its selector, neither with
movers, meet on adjacent spans by the key that paired them, and there
are no movers to sort or to check for overlap.  Every other pair, any
with movers and every merge_mover, goes through ``_merge``, and a
licensor-led item through ``_move``.  Each consequence is recorded at
one place in the loop, which appends its back-pointer to a known item or
queues a new one.

Inside the closure and extraction a suffix is a small int from
``Lexicon.codes`` (every suffix of every item's features, coded
once per lexicon), so items hash tuples of ints, not Feature dataclasses
and Enum members.  The axioms take each token's items by global index
from ``Lexicon.phon_ids`` and their codes from ``codes.item``; an
empty token, like an unknown one, matches none.  The forest
keeps the coded chart and decodes it to ChartItems, once per item, only
when ``forest.chart`` is first read; training, scoring and ``pdmg parse``
never read it, so they never pay for it.

The goal is the head (0, n) with suffix exactly the start category and no
movers.  Extraction walks goal back-pointers depth-first and returns one
polish-order tuple of global item ids per distinct derivation,
deduplicated and sorted.  These id tuples are the forest's ``ids``;
``forest.sequences`` decodes them to LexicalItems on first read, and
training, scoring and ``pdmg parse`` use the ids alone.

The walk is one loop over a stack of states (pending items, leaf ids,
covert leaves used).  It pops a state, expands its first pending item by
each of that item's back-pointers in chart order, and pushes the results;
a state with nothing pending is a derivation.  Pending items and leaf ids
are cons lists whose tails the states share, so a step costs the same at
any depth.  A derivation may use at most max_covert covert leaves, which
also bounds the unwinding of covert recursion cycles.  This cap is a
filter, not an error: extraction drops a derivation that needs more
covert leaves and says nothing, so a sentence whose every derivation
needs more parses to an empty forest.  The number of distinct
derivations is capped by max_derivations and the total closure plus
extraction work by max_steps; exceeding either raises CapExceeded rather
than silently truncating.  The closure itself always ends, as each item
is queued once and there are finitely many spans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

from .errors import CapExceeded, InvalidModel, UnknownCategoryError
from .lexicon import (KIND_CODE, Feature, FeatureCodes, FeatureKind, LexicalItem,
                      Lexicon)

Mover = tuple[int, int, tuple[Feature, ...]]

# Inside the closure an item is (start, end, suffix code, movers), a mover
# is (start, end, suffix code), and back-pointers name coded items.
Coded = tuple


class ChartItem(NamedTuple):
    start: int
    end: int
    suffix: tuple[Feature, ...]
    movers: tuple[Mover, ...]


# Back-pointer tags.
LEX = "lex"
MERGE_L = "merge-L"
MERGE_R = "merge-R"
MERGE_M = "merge-m"
MOVE_1 = "move-1"
MOVE_2 = "move-2"

BackPointer = tuple  # (LEX, global_item_index) | (tag, s) | (tag, s, t)


def _nonnegative(config: object, *names: str) -> None:
    """The one range check of a config's counts and caps: InvalidModel for
    the first of ``names`` whose value is negative."""
    for name in names:
        value = getattr(config, name)
        if value < 0:
            raise InvalidModel(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class ParseConfig:
    start: str
    max_derivations: int = 10_000
    max_covert: int = 3
    max_steps: int = 1_000_000

    def __post_init__(self) -> None:
        _nonnegative(self, "max_derivations", "max_covert", "max_steps")


@dataclass(frozen=True)
class TrainConfig(ParseConfig):
    """A ParseConfig, for parsing the corpus, plus the VB loop's settings,
    checked when built as ParseConfig's caps are."""
    tol: float = 1.0e-6
    max_iters: int = 100
    skip_unparsed: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        _nonnegative(self, "max_iters")
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise InvalidModel("tol must be finite and >= 0")


@dataclass(frozen=True)
class DerivationForest:
    """A sentence's closed chart, its goal item and its derivations.

    ``ids`` holds each derivation as its polish-order tuple of global item
    indices, sorted; ``sequences`` decodes them through the lexicon's items
    on first read.  The chart is held coded, with the lexicon's suffix
    table; ``chart`` decodes it on first read.  Both keep the result.
    Equality compares the ids, the coded chart and the tables that fix
    their decoded forms.
    """
    tokens: tuple[str, ...]
    goal: ChartItem | None
    ids: tuple[tuple[int, ...], ...]
    _coded: dict[Coded, list[BackPointer]] = field(repr=False)
    _suffixes: list[tuple[Feature, ...]] = field(repr=False)
    _items: tuple[LexicalItem, ...] = field(repr=False)

    @property
    def count(self) -> int:
        return len(self.ids)

    @cached_property
    def sequences(self) -> tuple[tuple[LexicalItem, ...], ...]:
        """Every derivation as its item sequence."""
        return decode_ids(self._items, self.ids)

    @cached_property
    def chart(self) -> dict[ChartItem, tuple[BackPointer, ...]]:
        """Every derived item and its back-pointers, as ChartItems."""
        return _decode(self._coded, self._suffixes)


def decode_ids(
    items: tuple[LexicalItem, ...], ids: Sequence[tuple[int, ...]],
) -> tuple[tuple[LexicalItem, ...], ...]:
    """Derivations given as global item ids, as item sequences."""
    return tuple([tuple([items[g] for g in d]) for d in ids])


_CAT = KIND_CODE[FeatureKind.CAT]
_SEL_RIGHT = KIND_CODE[FeatureKind.SEL_RIGHT]
_SEL_LEFT = KIND_CODE[FeatureKind.SEL_LEFT]
_LICENSOR = KIND_CODE[FeatureKind.LICENSOR]


def _canon(movers: tuple, name: list[int]) -> tuple | None:
    """Sort movers by leading licensee; None on an SMC violation."""
    if len(movers) < 2:
        return movers
    keyed = sorted((name[m[2]], m) for m in movers)
    for i in range(1, len(keyed)):
        if keyed[i - 1][0] == keyed[i][0]:
            return None
    return tuple(m for _, m in keyed)


def _disjoint(start: int, end: int, movers: tuple) -> bool:
    """The head's and movers' non-empty spans are pairwise disjoint."""
    if not movers:
        return True
    spans = sorted(m[:2] for m in movers if m[0] != m[1])
    if start != end:
        spans.append((start, end))
        spans.sort()
    return all(spans[i][1] <= spans[i + 1][0] for i in range(len(spans) - 1))


def _merge(s: Coded, t: Coded, codes: FeatureCodes) -> tuple[Coded, BackPointer] | None:
    """Merge selector-headed s with its category-headed argument t.

    The caller pairs only items the rules can combine: t's category is the
    one s selects, and a bare t meets s on the selector's side.
    """
    rest, name = codes.rest, codes.name
    s_start, s_end, sc, s_movers = s
    t_start, t_end, tc, t_movers = t
    if rest[tc] < 0:
        if codes.kind[sc] == _SEL_LEFT:
            start, end, tag = t_start, s_end, MERGE_L
        else:
            start, end, tag = s_start, t_end, MERGE_R
        movers = _canon(s_movers + t_movers, name)
    else:
        start, end, tag = s_start, s_end, MERGE_M
        movers = _canon(s_movers + ((t_start, t_end, rest[tc]),) + t_movers, name)
    if movers is None or not _disjoint(start, end, movers):
        return None
    return (start, end, rest[sc], movers), (tag, s, t)


def _move(s: Coded, codes: FeatureCodes) -> tuple[Coded, BackPointer] | None:
    """Check s's leading licensor against the mover that leads with it."""
    rest, name = codes.rest, codes.name
    s_start, s_end, sc, s_movers = s
    y = name[sc]
    for i, (m_start, m_end, mc) in enumerate(s_movers):
        if name[mc] != y:
            continue
        others = s_movers[:i] + s_movers[i + 1:]
        if rest[mc] < 0:
            if m_end != s_start:
                return None
            return (m_start, s_end, rest[sc], others), (MOVE_1, s)
        movers = _canon(others + ((m_start, m_end, rest[mc]),), name)
        if movers is None:
            return None
        return (s_start, s_end, rest[sc], movers), (MOVE_2, s)
    return None


def parse(lex: Lexicon, tokens: Sequence[str], cfg: ParseConfig) -> DerivationForest:
    """Close the chart over ``tokens`` and extract the goal's derivations.

    Unknown tokens and uncovered sentences yield an empty forest, not an
    error.  An unknown start category is an error; cap overruns raise
    CapExceeded.
    """
    if not lex.has_category(cfg.start):
        raise UnknownCategoryError(f"start category {cfg.start!r} not in lexicon")
    tokens = tuple(tokens)
    n = len(tokens)
    codes = lex.codes
    chart, steps, _ = _close(lex, tokens, cfg.max_steps)
    goal_suffix = (Feature(FeatureKind.CAT, cfg.start),)
    goal_code = (0, n, codes.code.get(goal_suffix), ())
    if goal_code not in chart:
        return DerivationForest(tokens, None, (), chart, codes.suffixes, lex.items)
    ids = _extract(chart, goal_code, lex, cfg, steps)
    return DerivationForest(tokens, ChartItem(0, n, goal_suffix, ()), ids,
                            chart, codes.suffixes, lex.items)


def _close(
    lex: Lexicon, tokens: tuple[str, ...], max_steps: int,
) -> tuple[dict[Coded, list[BackPointer]], int, int]:
    """The closed coded chart over ``tokens``, the agenda pops it took and
    the pairs it tried (the partners each popped item met)."""
    n = len(tokens)
    codes = lex.codes
    kind, name, rest = codes.kind, codes.name, codes.rest
    by_start, by_end, by_name = codes.by_start, codes.by_end, codes.by_name

    # Back-pointers per item.  None repeats: the indices pair two items
    # once, when the later of them is popped, and each pair or popped item
    # yields at most one consequence, so a list needs no membership test.
    # The axioms are distinct items: two items of one phon differ in their
    # features, and overt and covert axioms lie on different spans.  An
    # empty token, like an unknown one, matches no item.
    item, phon_ids = codes.item, lex.phon_ids
    chart: dict[Coded, list[BackPointer]] = {
        (i, i + 1, item[g], ()): [(LEX, g)]
        for i, tok in enumerate(tokens) if tok for g in phon_ids.get(tok, ())}
    for g in phon_ids.get("", ()):
        for i in range(n + 1):
            chart[(i, i, item[g], ())] = [(LEX, g)]
    # The agenda: the for loop below also visits the items appended to it
    # while it runs, so each item is popped once, first in first out.
    agenda = list(chart)

    # Finished items, filed under the keys the binary rules test.
    sel_right: dict[tuple[int, int], list[Coded]] = {}   # =x by (x, end)
    sel_left: dict[tuple[int, int], list[Coded]] = {}    # x= by (x, start)
    selectors: dict[int, list[Coded]] = {}               # =x and x= by x
    bare_start: dict[tuple[int, int], list[Coded]] = {}  # bare x by (x, start)
    bare_end: dict[tuple[int, int], list[Coded]] = {}    # bare x by (x, end)
    movable: dict[int, list[Coded]] = {}                 # x -y... by x
    no_items: list[Coded] = []

    steps = pairs = 0
    for x in agenda:
        steps += 1
        if steps > max_steps:
            raise CapExceeded(f"chart closure exceeded {max_steps} steps")
        start, end, c, _ = x
        k, f = kind[c], name[c]
        if k == _CAT:
            if rest[c] < 0:
                if by_start[c]:
                    bare_start.setdefault((f, start), []).append(x)
                if by_end[c]:
                    bare_end.setdefault((f, end), []).append(x)
                partners = (sel_right.get((f, start), no_items)
                            + sel_left.get((f, end), no_items))
            else:
                if by_name[c]:
                    movable.setdefault(f, []).append(x)
                partners = selectors.get(f, no_items)
            pairs += len(partners)
        elif k == _SEL_RIGHT or k == _SEL_LEFT:
            if k == _SEL_RIGHT:
                if by_end[c]:
                    sel_right.setdefault((f, end), []).append(x)
                partners = bare_start.get((f, end), no_items)
            else:
                if by_start[c]:
                    sel_left.setdefault((f, start), []).append(x)
                partners = bare_end.get((f, start), no_items)
            if by_name[c]:
                selectors.setdefault(f, []).append(x)
            partners = partners + movable.get(f, no_items)
            pairs += len(partners)
        else:  # a licensor: no head leads with a licensee
            partners = (x,)  # move: x alone
        for y in partners:
            if k == _LICENSOR:
                r = _move(x, codes)
            else:
                s, t = (y, x) if k == _CAT else (x, y)
                sc = s[2]
                if rest[t[2]] < 0 and not s[3] and not t[3]:
                    # A bare argument and no movers: the spans are
                    # adjacent and there is nothing to sort or check.
                    if kind[sc] == _SEL_RIGHT:
                        r = (s[0], t[1], rest[sc], ()), (MERGE_R, s, t)
                    else:
                        r = (t[0], s[1], rest[sc], ()), (MERGE_L, s, t)
                else:
                    r = _merge(s, t, codes)
            if r is None:
                continue
            item, bp = r
            bps = chart.get(item)
            if bps is None:
                chart[item] = [bp]
                agenda.append(item)
            else:
                bps.append(bp)
    return chart, steps, pairs


def _decode(
    chart: dict[Coded, list[BackPointer]],
    suffixes: list[tuple[Feature, ...]],
) -> dict[ChartItem, tuple[BackPointer, ...]]:
    """The coded chart in public form: ChartItems holding Feature tuples."""
    item = {
        c: ChartItem(c[0], c[1], suffixes[c[2]],
                     tuple((m[0], m[1], suffixes[m[2]]) for m in c[3]))
        for c in chart
    }
    return {
        item[c]: tuple(bp if bp[0] == LEX
                       else (bp[0],) + tuple(item[a] for a in bp[1:])
                       for bp in bps)
        for c, bps in chart.items()
    }


def _extract(
    chart: dict[Coded, list[BackPointer]],
    goal: Coded,
    lex: Lexicon,
    cfg: ParseConfig,
    steps_used: int,
) -> tuple[tuple[int, ...], ...]:
    max_derivations, max_covert, max_steps = (
        cfg.max_derivations, cfg.max_covert, cfg.max_steps)
    budget = max_steps - steps_used
    covert = lex.phon_ids.get("", ())
    found: set[tuple[int, ...]] = set()
    # (pending, ids, used): pending is (item, rest) in polish order and ids
    # is (id, earlier), newest first; None ends both lists.
    stack: list[tuple] = [((goal, None), None, 0)]
    while stack:
        pending, ids, used = stack.pop()
        if pending is None:
            leaves: list[int] = []
            while ids is not None:
                g, ids = ids
                leaves.append(g)
            found.add(tuple(reversed(leaves)))
            if len(found) > max_derivations:
                raise CapExceeded(
                    f"more than {max_derivations} distinct derivations")
            continue
        budget -= 1
        if budget < 0:
            raise CapExceeded(
                f"derivation extraction exceeded {max_steps} steps")
        item, rest = pending
        for bp in reversed(chart[item]):  # popped in chart order
            if bp[0] is LEX:
                cost = used + (bp[1] in covert)
                if cost <= max_covert:
                    stack.append((rest, (bp[1], ids), cost))
            elif len(bp) == 2:  # a move: one antecedent
                stack.append(((bp[1], rest), ids, used))
            else:
                stack.append(((bp[1], (bp[2], rest)), ids, used))
    return tuple(sorted(found))
