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


# Legal kind orders within one item: (selector)* (licensor)* category (licensee)*
_STAGE = {
    FeatureKind.SEL_RIGHT: 0,
    FeatureKind.SEL_LEFT: 0,
    FeatureKind.LICENSOR: 1,
    FeatureKind.CAT: 2,
    FeatureKind.LICENSEE: 3,
}


def validate_features(features: tuple[Feature, ...]) -> None:
    """Check the selectors-licensors-category-licensees shape, one category."""
    stage = 0
    n_cat = 0
    for f in features:
        s = _STAGE[f.kind]
        if s < stage or (s == 2 and n_cat):
            raise FeatureOrderError(
                "features must be (selector)* (licensor)* category (licensee)*, "
                f"got {' '.join(str(g) for g in features)!r}"
            )
        stage = max(stage, s if s != 2 else 3)
        if f.kind is FeatureKind.CAT:
            n_cat += 1
    if n_cat != 1:
        raise FeatureOrderError(
            f"item needs exactly one category feature, got {n_cat}"
        )


@dataclass(frozen=True)
class LexicalItem:
    """A lexicon entry: ``phon`` is "" for covert items.

    ``cat_index``/``item_index`` is the item's id (k, m): k indexes the
    item's category in first-appearance order, m its position within that
    category's block.
    """

    phon: str
    features: tuple[Feature, ...]
    cat_index: int
    item_index: int

    @property
    def category(self) -> str:
        return self.features[self.stages[1]].name

    @cached_property
    def stages(self) -> tuple[int, int]:
        """(s, c): ``features[:s]`` are the selectors, ``features[s:c]`` the
        licensors, ``features[c]`` the category and the rest licensees."""
        kinds = [f.kind for f in self.features]
        return len(self.selectors), kinds.index(FeatureKind.CAT)

    @property
    def item_id(self) -> tuple[int, int]:
        return (self.cat_index, self.item_index)

    @property
    def selectors(self) -> tuple[Feature, ...]:
        return tuple(f for f in self.features if f.is_selector)

    @property
    def licensees(self) -> tuple[Feature, ...]:
        return tuple(f for f in self.features if f.kind is FeatureKind.LICENSEE)

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


@dataclass(frozen=True)
class Lexicon:
    """Immutable item collection with id and category bookkeeping.

    ``categories`` lists category names in first-appearance order; items
    within a category keep their file order.  ``items`` is the flat view in
    (k, m) order, so an item's global index is ``offsets[k] + m``.
    """

    items: tuple[LexicalItem, ...]
    categories: tuple[str, ...]
    offsets: tuple[int, ...]  # len == len(categories) + 1
    _by_cat: dict[str, tuple[LexicalItem, ...]] = field(repr=False)
    _by_phon: dict[str, tuple[LexicalItem, ...]] = field(repr=False)

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
        return self._by_phon.get(phon, ())

    def global_index(self, item: LexicalItem) -> int:
        return self.offsets[item.cat_index] + item.item_index

    def item_at(self, global_index: int) -> LexicalItem:
        return self.items[global_index]

    def covert_items(self) -> tuple[LexicalItem, ...]:
        return self._by_phon.get("", ())

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
    categories: list[str] = []
    blocks: dict[str, list[tuple[str, tuple[Feature, ...]]]] = {}
    seen: set[tuple[str, tuple[Feature, ...]]] = set()
    for phon, feats in entries:
        validate_features(feats)
        key = (phon, feats)
        if key in seen:
            raise LexiconError(f"duplicate item {phon or EPSILON_GLYPH!r} :: "
                               f"{' '.join(str(f) for f in feats)}")
        seen.add(key)
        cat = next(f.name for f in feats if f.kind is FeatureKind.CAT)
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

    by_phon: dict[str, list[LexicalItem]] = {}
    for it in flat:
        by_phon.setdefault(it.phon, []).append(it)

    return Lexicon(
        items=tuple(flat),
        categories=tuple(categories),
        offsets=tuple(offsets),
        _by_cat=by_cat,
        _by_phon={p: tuple(g) for p, g in by_phon.items()},
    )


def parse_lexicon(text: str) -> Lexicon:
    """Parse lexicon text (see the module docstring for the format)."""
    entries: list[tuple[str, tuple[Feature, ...]]] = []
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
            validate_features(feats)
        except LexiconError as e:
            if e.line is None:
                raise type(e)(str(e), line=lineno) from None
            raise
        entries.append((phon, feats))
    if not entries:
        raise LexiconError("lexicon has no items")
    return build_lexicon(entries)


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
