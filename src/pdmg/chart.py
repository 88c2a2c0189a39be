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
growing with the square of the chart.  A licensor-led item ``+f ...``
has one possible partner, its own mover that leads with ``-f`` (the SMC
allows at most one).  Each rule is applied at one site, the loop over a
popped item's partners, which builds every consequence: a bare argument
and its selector meet on adjacent spans by the key that paired them, so
merge_left and merge_right need no span test; movers are sorted and
checked for overlap only when the consequence has some.  The same loop
records each consequence at one place, appending its back-pointer to a
known item or queueing a new one.

Inside the closure and extraction a suffix is a small int from
``Lexicon.codes`` (every suffix of every item's features, coded
once per lexicon), so items hash tuples of ints, not Feature dataclasses
and Enum members.  The axioms take each token's item codes from the
sentence's ``signature``, in ``Lexicon.phon_ids`` order; an empty token,
like an unknown one, matches none.  The forest keeps the coded chart and
decodes it to ChartItems, once per item, only when ``forest.chart`` is
first read; training, scoring and ``pdmg parse`` never read it, so they
never pay for it.

Every leaf is a slot of the sentence's leaf table (``leaf_table``), the
global ids its leaf codes stand for: the covert items in ``phon_ids[""]``
order, then the tokens' items, position by position, each token's in
``phon_ids`` order.  An axiom's back-pointer ``(LEX, code)`` holds its
slot: covert item j is slot j on every empty span, and overt slots start
at C, the number of covert items, so extraction's covert test is
``code < C``.  The closure and extraction read a sentence only through its
``signature``, its tokens' ``phon_codes`` entries, so sentences with one
signature have one coded chart and one list of slot tuples, and differ
only in their leaf tables.  ``parse`` ends in ``relabel``, which maps
slot tuples through a leaf table to the forest's sorted ``ids``, and the
trainer calls it to give every sentence whose signature it has parsed the
ids of its derivations without a second parse.

The goal is the head (0, n) with suffix exactly the start category and no
movers.  Extraction walks goal back-pointers depth-first and returns one
polish-order tuple of leaf codes per path, its slot tuple, in walk order,
with no dedupe, as two distinct paths never spell one tuple:
- an id tuple fixes the tree, its rules included: features fix arity, the
  selector's kind fixes merge-L/R, the argument's licensees fix merge-m,
  and the mover's remainder fixes move-1/2;
- every overt leaf's span is fixed by its slot, which names a position;
- every empty span is pinned by the first merge adjacency or move-1
  landing above it, and the goal has no movers and spans (0, n).
So a slot tuple fixes each item on its path and each back-pointer taken.
Covert cycles add leaves, so their unwindings differ too.  A leaf table
maps slot tuples to id tuples one to one (a position and an item fix the
slot), so each path is one distinct derivation, and ``max_derivations``
trips at the first path past it.  ``forest.sequences`` decodes the ids to
LexicalItems on first read; training, scoring and ``pdmg parse`` use the
ids alone.

The walk is one loop over a stack of states (pending items, leaf codes,
covert leaves used).  It pops a state, expands its first pending item by
each of that item's back-pointers in chart order, and pushes the results;
a state with nothing pending is a derivation.  Pending items and leaf
codes are cons lists whose tails the states share, so a step costs the
same at any depth.  A derivation may use at most max_covert covert
leaves, which also bounds the unwinding of covert recursion cycles.
This cap is a filter, not an error: extraction drops a derivation that
needs more covert leaves and says nothing, so a sentence whose every
derivation needs more parses to an empty forest.  The number of distinct
derivations is capped by max_derivations and the total closure plus
extraction work by max_steps; exceeding either raises CapExceeded rather
than silently truncating.  The closure itself always ends, as each item
is queued once and there are finitely many spans.

The three configs live here, each range-checked when built by one
``_nonnegative``: ``ParseConfig`` (the caps above), ``TrainConfig`` (a
ParseConfig plus the VB loop's settings) and ``SampleConfig`` (the
sampler's caps).  So the command line reads every default from this
module without importing the modules that use them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple, Sequence

from .errors import CapExceeded, InvalidModel
from .lexicon import KIND_CODE, Feature, FeatureKind, LexicalItem, Lexicon

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

# (LEX, global item index) | (tag, s) | (tag, s, t); in the coded chart a
# LEX back-pointer holds a leaf code (see the module docstring).
BackPointer = tuple


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
class SampleConfig:
    """The sampler's settings (``model.sample_derivations``): a proposal may
    have ``max_depth`` levels, the root being level one; a draw may follow
    ``max_rejections`` rejected proposals."""
    start: str
    max_depth: int = 64
    max_rejections: int = 10_000

    def __post_init__(self) -> None:
        _nonnegative(self, "max_depth", "max_rejections")


@dataclass(frozen=True)
class DerivationForest:
    """A sentence's closed chart, its goal item and its derivations.

    ``ids`` holds each derivation as its polish-order tuple of global item
    indices, sorted; ``sequences`` decodes them through the lexicon's items
    on first read.  ``slots`` holds the same derivations as leaf codes, in
    walk order; ``relabel(slots, leaf_table(lex, other))`` gives the ids
    of any sentence ``other`` with the same signature.  The chart is held
    coded, with the lexicon's suffix table and the sentence's leaf table;
    ``chart`` decodes it on first read.  Both keep the result.  Equality
    compares the ids, the coded chart and the tables that fix their
    decoded forms.
    """
    tokens: tuple[str, ...]
    goal: ChartItem | None
    ids: tuple[tuple[int, ...], ...]
    slots: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)
    _coded: dict[Coded, list[BackPointer]] = field(repr=False)
    _leaves: list[int] = field(repr=False)
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
        return _decode(self._coded, self._leaves, self._suffixes)


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
    spans = sorted(m[:2] for m in movers if m[0] != m[1])
    if start != end:
        spans.append((start, end))
        spans.sort()
    return all(spans[i][1] <= spans[i + 1][0] for i in range(len(spans) - 1))


def _covert(lex: Lexicon) -> tuple[int, ...]:
    """The covert items' global ids, in order: leaf codes 0 to C - 1."""
    return lex.phon_ids.get("", ())


def signature(lex: Lexicon, tokens: Sequence[str]) -> tuple[tuple[int, ...], ...]:
    """Each token's ``phon_codes`` entry, () for a token with none: all the
    closure reads of a sentence."""
    phon_codes = lex.phon_codes
    return tuple([phon_codes.get(tok, ()) for tok in tokens])


def leaf_table(lex: Lexicon, tokens: Sequence[str]) -> list[int]:
    """The global id of each leaf code of ``tokens``: the covert items,
    then the tokens' items, position by position, in ``phon_ids`` order
    (an empty token, like an unknown one, has none)."""
    phon_ids = lex.phon_ids
    return [*_covert(lex),
            *[g for tok in tokens if tok for g in phon_ids.get(tok, ())]]


def relabel(
    slots: Sequence[tuple[int, ...]], leaves: list[int],
) -> tuple[tuple[int, ...], ...]:
    """Derivations given as leaf codes, in any order, as the sorted tuples
    of the global ids ``leaves`` (a ``leaf_table``) names."""
    # An itemgetter of two or more indices gives a tuple, in half the time
    # a map over the codes takes; of one index, the bare id.
    return tuple(sorted([itemgetter(*d)(leaves) if len(d) > 1 else (leaves[d[0]],)
                         for d in slots]))


def parse(lex: Lexicon, tokens: Sequence[str], cfg: ParseConfig) -> DerivationForest:
    """Close the chart over ``tokens`` and extract the goal's derivations.

    Unknown tokens and uncovered sentences yield an empty forest, not an
    error.  An unknown start category is an error; cap overruns raise
    CapExceeded.
    """
    lex.check_start(cfg.start)
    tokens = tuple(tokens)
    n = len(tokens)
    codes = lex.codes
    chart, steps, _ = _close(lex, signature(lex, tokens), cfg.max_steps)
    leaves = leaf_table(lex, tokens)
    goal_suffix = (Feature(FeatureKind.CAT, cfg.start),)
    goal_code = (0, n, codes.code.get(goal_suffix), ())
    if goal_code not in chart:
        return DerivationForest(tokens, None, (), (), chart, leaves,
                                codes.suffixes, lex.items)
    slots = _extract(chart, goal_code, len(_covert(lex)), cfg, steps)
    return DerivationForest(tokens, ChartItem(0, n, goal_suffix, ()),
                            relabel(slots, leaves), slots, chart, leaves,
                            codes.suffixes, lex.items)


def _close(
    lex: Lexicon, sig: tuple[tuple[int, ...], ...], max_steps: int,
) -> tuple[dict[Coded, list[BackPointer]], int, int]:
    """The closed coded chart over a sentence of signature ``sig``, the
    agenda pops it took and the pairs it tried (the partners each popped
    item met; a licensor's own mover is not counted, as a move is not a
    pair)."""
    n = len(sig)
    codes = lex.codes
    kind, name, rest = codes.kind, codes.name, codes.rest
    by_start, by_end, by_name = codes.by_start, codes.by_end, codes.by_name

    # Back-pointers per item.  None repeats: the indices pair two items
    # once, when the later of them is popped, and each pair or popped item
    # yields at most one consequence, so a list needs no membership test.
    # The axioms are distinct items: two items of one phon differ in their
    # features, and overt and covert axioms lie on different spans.  An
    # empty token, like an unknown one, matches no item.  Axioms are
    # numbered by leaf slot, in ``leaf_table`` order: covert item j is
    # slot j on every empty span, and overt slots follow.
    chart: dict[Coded, list[BackPointer]] = {}
    covert = _covert(lex)
    slot = len(covert)
    for i, token_codes in enumerate(sig):
        for c in token_codes:
            chart[(i, i + 1, c, ())] = [(LEX, slot)]
            slot += 1
    for j, g in enumerate(covert):
        c = codes.item[g]
        for i in range(n + 1):
            chart[(i, i, c, ())] = [(LEX, j)]
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
        else:  # a licensor +f meets its own mover that leads with -f
            partners = [m for m in x[3] if name[m[2]] == f]
        for y in partners:
            if k == _LICENSOR:
                m_start, m_end, mc = y
                movers = tuple([m for m in x[3] if m is not y])
                if rest[mc] < 0:  # move_final
                    if m_end != start:
                        continue
                    item, bp = (m_start, end, rest[c], movers), (MOVE_1, x)
                else:  # move_again
                    movers = _canon(movers + ((m_start, m_end, rest[mc]),), name)
                    if movers is None:
                        continue
                    item, bp = (start, end, rest[c], movers), (MOVE_2, x)
            else:
                s, t = (y, x) if k == _CAT else (x, y)
                sc, tc = s[2], t[2]
                if rest[tc] < 0:  # the key that paired them made them adjacent
                    if kind[sc] == _SEL_RIGHT:
                        h_start, h_end, tag = s[0], t[1], MERGE_R
                    else:
                        h_start, h_end, tag = t[0], s[1], MERGE_L
                    movers = s[3] + t[3]
                else:
                    h_start, h_end, tag = s[0], s[1], MERGE_M
                    movers = s[3] + ((t[0], t[1], rest[tc]),) + t[3]
                if movers:
                    movers = _canon(movers, name)
                    if movers is None or not _disjoint(h_start, h_end, movers):
                        continue
                item, bp = (h_start, h_end, rest[sc], movers), (tag, s, t)
            bps = chart.get(item)
            if bps is None:
                chart[item] = [bp]
                agenda.append(item)
            else:
                bps.append(bp)
    return chart, steps, pairs


def _decode(
    chart: dict[Coded, list[BackPointer]],
    leaves: list[int],
    suffixes: list[tuple[Feature, ...]],
) -> dict[ChartItem, tuple[BackPointer, ...]]:
    """The coded chart in public form: ChartItems holding Feature tuples,
    and LEX back-pointers holding global item ids."""
    item = {
        c: ChartItem(c[0], c[1], suffixes[c[2]],
                     tuple((m[0], m[1], suffixes[m[2]]) for m in c[3]))
        for c in chart
    }
    return {
        item[c]: tuple((LEX, leaves[bp[1]]) if bp[0] == LEX
                       else (bp[0],) + tuple(item[a] for a in bp[1:])
                       for bp in bps)
        for c, bps in chart.items()
    }


def _extract(
    chart: dict[Coded, list[BackPointer]],
    goal: Coded,
    covert: int,
    cfg: ParseConfig,
    steps_used: int,
) -> tuple[tuple[int, ...], ...]:
    """The goal's derivations as slot tuples, one per back-pointer path, in
    walk order; leaf codes below ``covert`` are covert leaves."""
    max_derivations, max_covert, max_steps = (
        cfg.max_derivations, cfg.max_covert, cfg.max_steps)
    budget = max_steps - steps_used
    found: list[tuple[int, ...]] = []
    # (pending, leaves, used): pending is (item, rest) in polish order and
    # leaves is (code, earlier), newest first; None ends both lists.
    stack: list[tuple] = [((goal, None), None, 0)]
    while stack:
        pending, leaves, used = stack.pop()
        if pending is None:
            if len(found) == max_derivations:
                raise CapExceeded(
                    f"more than {max_derivations} distinct derivations")
            slots: list[int] = []
            while leaves is not None:
                g, leaves = leaves
                slots.append(g)
            found.append(tuple(reversed(slots)))
            continue
        budget -= 1
        if budget < 0:
            raise CapExceeded(
                f"derivation extraction exceeded {max_steps} steps")
        item, rest = pending
        for bp in reversed(chart[item]):  # popped in chart order
            if bp[0] is LEX:
                cost = used + (bp[1] < covert)
                if cost <= max_covert:
                    stack.append((rest, (bp[1], leaves), cost))
            elif len(bp) == 2:  # a move: one antecedent
                stack.append(((bp[1], rest), leaves, used))
            else:
                stack.append(((bp[1], (bp[2], rest)), leaves, used))
    return tuple(found)
