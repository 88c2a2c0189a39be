"""Lexical items and lexicons for directional minimalist grammars.

A lexical item pairs a phonological form (possibly empty, for covert items)
with a feature sequence.  Feature sequences obey a fixed shape: zero or more
selectors, then zero or more licensors, then exactly one category, then zero
or more licensees.  Selectors are directional: ``=x`` attaches its argument
to the right, ``x=`` to the left.  ``+y`` licensors and ``-y`` licensees
drive movement.

The text format is one item per line, ``phon :: f1 f2 ...``.  Covert items
are written with an empty phon before the ``::`` separator; the glyph
``ε`` is accepted as an alias.  ``#`` starts a comment.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from functools import cached_property

from .errors import FeatureOrderError, LexiconError, UnknownCategoryError

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")

EPSILON_GLYPH = "ε"  # ε


class FeatureKind(enum.Enum):
    CAT = "cat"
    SEL_RIGHT = "sel_right"  # =x : select an x phrase, attach to the right
    SEL_LEFT = "sel_left"    # x= : select an x phrase, attach to the left
    LICENSOR = "licensor"    # +y
    LICENSEE = "licensee"    # -y


@dataclass(frozen=True)
class Feature:
    kind: FeatureKind
    name: str

    def __str__(self) -> str:
        k = self.kind
        if k is FeatureKind.CAT:
            return self.name
        if k is FeatureKind.SEL_RIGHT:
            return "=" + self.name
        if k is FeatureKind.SEL_LEFT:
            return self.name + "="
        if k is FeatureKind.LICENSOR:
            return "+" + self.name
        return "-" + self.name

    @property
    def is_selector(self) -> bool:
        return self.kind in (FeatureKind.SEL_RIGHT, FeatureKind.SEL_LEFT)


def parse_feature(text: str) -> Feature:
    """Parse a single feature token such as ``=x``, ``x=``, ``+y``, ``-y``, ``x``."""
    if text.startswith("="):
        kind, name = FeatureKind.SEL_RIGHT, text[1:]
    elif text.endswith("=") and len(text) > 1:
        kind, name = FeatureKind.SEL_LEFT, text[:-1]
    elif text.startswith("+"):
        kind, name = FeatureKind.LICENSOR, text[1:]
    elif text.startswith("-"):
        kind, name = FeatureKind.LICENSEE, text[1:]
    else:
        kind, name = FeatureKind.CAT, text
    if not _NAME_RE.match(name):
        raise LexiconError(f"bad feature name in {text!r}")
    return Feature(kind, name)


def feature_stages(features: tuple[Feature, ...]) -> tuple[int, int]:
    """Check the shape (selector)* (licensor)* category (licensee)* and
    return (s, c): ``features[:s]`` are the selectors, ``features[s:c]``
    the licensors, ``features[c]`` the category and the rest licensees."""
    n = len(features)
    s = 0
    while s < n and features[s].is_selector:
        s += 1
    c = s
    while c < n and features[c].kind is FeatureKind.LICENSOR:
        c += 1
    if c == n or features[c].kind is not FeatureKind.CAT or any(
            f.kind is not FeatureKind.LICENSEE for f in features[c + 1:]):
        raise FeatureOrderError(
            "features must be (selector)* (licensor)* category (licensee)*, "
            f"got {' '.join(str(g) for g in features)!r}"
        )
    return s, c


@dataclass(frozen=True)
class LexicalItem:
    """A lexicon entry: ``phon`` is "" for covert items.

    ``cat_index``/``item_index`` is the item's id (k, m): k indexes the
    item's category in first-appearance order, m its position within that
    category's block.  ``stages`` is ``feature_stages(features)``, which
    also checks the features' shape when the item is built.
    """

    phon: str
    features: tuple[Feature, ...]
    cat_index: int
    item_index: int
    stages: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", feature_stages(self.features))

    @property
    def category(self) -> str:
        return self.features[self.stages[1]].name

    @property
    def item_id(self) -> tuple[int, int]:
        return (self.cat_index, self.item_index)

    @cached_property
    def selectors(self) -> tuple[Feature, ...]:
        return self.features[:self.stages[0]]

    @cached_property
    def licensees(self) -> tuple[Feature, ...]:
        return self.features[self.stages[1] + 1:]

    @property
    def phon_display(self) -> str:
        return self.phon if self.phon else EPSILON_GLYPH

    @property
    def ref(self) -> str:
        """Unambiguous text reference, ``phon@k.m``."""
        return f"{self.phon_display}@{self.cat_index}.{self.item_index}"

    def __str__(self) -> str:
        return f"{self.phon_display} :: {' '.join(str(f) for f in self.features)}"


# Small-int codes of the feature kinds, as FeatureCodes.kind holds them.
KIND_CODE = {kind: code for code, kind in enumerate(FeatureKind)}


class FeatureCodes:
    """Small-int codes for the feature suffixes of a lexicon's items.

    Every suffix of every item's feature sequence gets one code, its index
    in ``suffixes``; equal suffixes of different items share it.  For a
    code c, ``kind[c]`` (a KIND_CODE value) and ``name[c]`` code the first
    feature, and ``rest[c]`` is the code of the suffix without it, -1 when
    that is empty.  Names are numbered in sorted order, so ordering name
    codes orders the names.  ``item[g]`` codes the whole sequence of the
    item with global index g, and ``code`` maps a suffix back to its code.

    The chart files a finished item with suffix c, naming x, under a key
    only if some suffix of the lexicon can look it up there.
    ``by_start[c]`` holds for a bare ``x`` when some ``=x`` exists and for
    ``x=`` when some bare ``x`` exists; ``by_end[c]`` for a bare ``x`` when
    some ``x=`` exists and for ``=x`` when some bare ``x`` exists;
    ``by_name[c]`` for ``x -y ...`` when some selector of x exists and for
    a selector of x when some ``x -y ...`` exists.  Other codes have none.
    """

    def __init__(self, items: tuple[LexicalItem, ...]):
        names = sorted({f.name for it in items for f in it.features})
        name_code = {nm: i for i, nm in enumerate(names)}
        self.suffixes: list[tuple[Feature, ...]] = []
        self.kind: list[int] = []
        self.name: list[int] = []
        self.rest: list[int] = []
        self.code: dict[tuple[Feature, ...], int] = {}
        for it in items:
            feats = it.features
            rest = -1
            for i in range(len(feats) - 1, -1, -1):
                suffix = feats[i:]
                c = self.code.get(suffix)
                if c is None:
                    c = self.code[suffix] = len(self.suffixes)
                    self.suffixes.append(suffix)
                    self.kind.append(KIND_CODE[suffix[0].kind])
                    self.name.append(name_code[suffix[0].name])
                    self.rest.append(rest)
                rest = c
        self.item = [self.code[it.features] for it in items]

        cat, right, left = (KIND_CODE[FeatureKind.CAT], KIND_CODE[FeatureKind.SEL_RIGHT],
                            KIND_CODE[FeatureKind.SEL_LEFT])
        lead = list(zip(self.kind, self.name, self.rest))  # first features
        sel_right = {x for k, x, _ in lead if k == right}
        sel_left = {x for k, x, _ in lead if k == left}
        bare = {x for k, x, r in lead if k == cat and r < 0}
        movable = {x for k, x, r in lead if k == cat and r >= 0}
        self.by_start = [(k == cat and r < 0 and x in sel_right)
                         or (k == left and x in bare) for k, x, r in lead]
        self.by_end = [(k == cat and r < 0 and x in sel_left)
                       or (k == right and x in bare) for k, x, r in lead]
        self.by_name = [(k == cat and r >= 0 and (x in sel_right or x in sel_left))
                        or ((k == right or k == left) and x in movable)
                        for k, x, r in lead]


@dataclass(frozen=True)
class Lexicon:
    """Immutable item collection with id and category bookkeeping.

    ``categories`` lists category names in first-appearance order; items
    within a category keep their file order.  ``items`` is the flat view in
    (k, m) order, so an item's global index is ``offsets[k] + m``.
    ``phon_ids`` maps each phon to the global indices of the items spelled
    so, ascending; "" maps to the covert items.
    """

    items: tuple[LexicalItem, ...]
    categories: tuple[str, ...]
    offsets: tuple[int, ...]  # len == len(categories) + 1
    _by_cat: dict[str, tuple[LexicalItem, ...]] = field(repr=False)
    phon_ids: dict[str, tuple[int, ...]] = field(repr=False)

    @property
    def n_items(self) -> int:
        return len(self.items)

    def items_of_category(self, name: str) -> tuple[LexicalItem, ...]:
        try:
            return self._by_cat[name]
        except KeyError:
            raise UnknownCategoryError(f"no items of category {name!r}") from None

    def has_category(self, name: str) -> bool:
        return name in self._by_cat

    def item(self, cat_index: int, item_index: int) -> LexicalItem:
        if not 0 <= cat_index < len(self.categories):
            raise UnknownCategoryError(f"no category with index {cat_index}")
        block = self._by_cat[self.categories[cat_index]]
        if not 0 <= item_index < len(block):
            raise LexiconError(
                f"category {self.categories[cat_index]!r} has no item {item_index}"
            )
        return block[item_index]

    def items_by_phon(self, phon: str) -> tuple[LexicalItem, ...]:
        return tuple([self.items[g] for g in self.phon_ids.get(phon, ())])

    def global_index(self, item: LexicalItem) -> int:
        return self.offsets[item.cat_index] + item.item_index

    def item_at(self, global_index: int) -> LexicalItem:
        return self.items[global_index]

    def covert_items(self) -> tuple[LexicalItem, ...]:
        return self.items_by_phon("")

    @cached_property
    def root_categories(self) -> frozenset[str]:
        """Categories of the items without licensees (built on first use).

        Only such an item can head a whole derivation: nothing above the
        root can check a licensee.
        """
        return frozenset(it.category for it in self.items if not it.licensees)

    @cached_property
    def codes(self) -> FeatureCodes:
        """The items' feature suffixes as small ints (built on first use)."""
        return FeatureCodes(self.items)

    def smc_risk_groups(self) -> dict[str, tuple[LexicalItem, ...]]:
        """Items grouped by leading licensee, for groups of two or more.

        Two such items can end up as simultaneous movers competing for the
        same licensor, which the shortest-move constraint forbids; flagging
        them helps debug lexicons whose sentences mysteriously fail to parse.
        """
        groups: dict[str, list[LexicalItem]] = {}
        for it in self.items:
            lic = it.licensees
            if lic:
                groups.setdefault(lic[0].name, []).append(it)
        return {n: tuple(g) for n, g in sorted(groups.items()) if len(g) > 1}


def build_lexicon(entries: list[tuple[str, tuple[Feature, ...]]]) -> Lexicon:
    """Assemble a lexicon from (phon, features) pairs in file order."""
    return _assemble([(phon, feats, feature_stages(feats)[1])
                      for phon, feats in entries])


def _assemble(entries: list[tuple[str, tuple[Feature, ...], int]]) -> Lexicon:
    """``build_lexicon``, given each entry's checked category position ``c``
    from ``feature_stages``, as ``parse_lexicon`` has it from its line."""
    categories: list[str] = []
    blocks: dict[str, list[tuple[str, tuple[Feature, ...]]]] = {}
    seen: set[tuple[str, tuple[Feature, ...]]] = set()
    for phon, feats, c in entries:
        cat = feats[c].name
        key = (phon, feats)
        if key in seen:
            raise LexiconError(f"duplicate item {phon or EPSILON_GLYPH!r} :: "
                               f"{' '.join(str(f) for f in feats)}")
        seen.add(key)
        if cat not in blocks:
            categories.append(cat)
            blocks[cat] = []
        blocks[cat].append((phon, feats))

    by_cat: dict[str, tuple[LexicalItem, ...]] = {}
    flat: list[LexicalItem] = []
    offsets = [0]
    for k, cat in enumerate(categories):
        block = tuple(
            LexicalItem(phon, feats, k, m)
            for m, (phon, feats) in enumerate(blocks[cat])
        )
        by_cat[cat] = block
        flat.extend(block)
        offsets.append(len(flat))

    phon_ids: dict[str, list[int]] = {}
    for g, it in enumerate(flat):
        phon_ids.setdefault(it.phon, []).append(g)

    return Lexicon(
        items=tuple(flat),
        categories=tuple(categories),
        offsets=tuple(offsets),
        _by_cat=by_cat,
        phon_ids={p: tuple(g) for p, g in phon_ids.items()},
    )


def parse_lexicon(text: str) -> Lexicon:
    """Parse lexicon text (see the module docstring for the format)."""
    entries: list[tuple[str, tuple[Feature, ...], int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "::" not in line:
            raise LexiconError("expected 'phon :: features'", line=lineno)
        left, right = line.split("::", 1)
        phon = left.strip()
        if phon == EPSILON_GLYPH:
            phon = ""
        if phon and (re.search(r"\s", phon) or "#" in phon):
            raise LexiconError(f"bad phon {phon!r}", line=lineno)
        tokens = right.split()
        if not tokens:
            raise LexiconError("item has no features", line=lineno)
        try:
            feats = tuple(parse_feature(t) for t in tokens)
            entries.append((phon, feats, feature_stages(feats)[1]))
        except LexiconError as e:
            if e.line is None:
                raise type(e)(str(e), line=lineno) from None
            raise
    if not entries:
        raise LexiconError("lexicon has no items")
    return _assemble(entries)


def load_lexicon(path: str) -> Lexicon:
    with open(path, encoding="utf-8-sig") as fh:
        return parse_lexicon(fh.read())


def lexicon_to_text(lex: Lexicon) -> str:
    """Serialize in (k, m) order; reparsing yields an equal lexicon."""
    lines = []
    for it in lex.items:
        feats = " ".join(str(f) for f in it.features)
        lines.append(f"{it.phon} :: {feats}")
    return "\n".join(lines) + "\n"
