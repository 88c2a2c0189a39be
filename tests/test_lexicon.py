from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdmg
from conftest import (DATA, embedded_mover_lexicon, random_lexicon,
                      remnant_lexicon, rich_lexicon, twin_mover_lexicon)
from pdmg import (Feature, FeatureKind, FeatureOrderError, LexiconError,
                  UnknownCategoryError, build_lexicon, lexicon_to_text,
                  parse_feature, parse_lexicon)
from pdmg import lexicon as lexicon_module
from pdmg.lexicon import feature_stages


class TestParseFeature:
    @pytest.mark.parametrize("text,kind,name", [
        ("=d", FeatureKind.SEL_RIGHT, "d"),
        ("d=", FeatureKind.SEL_LEFT, "d"),
        ("+wh", FeatureKind.LICENSOR, "wh"),
        ("-wh", FeatureKind.LICENSEE, "wh"),
        ("v", FeatureKind.CAT, "v"),
        ("=x2_y", FeatureKind.SEL_RIGHT, "x2_y"),
    ])
    def test_kinds(self, text, kind, name):
        f = parse_feature(text)
        assert f.kind is kind and f.name == name

    def test_round_trip_str(self):
        for text in ["=d", "d=", "+wh", "-wh", "v"]:
            assert str(parse_feature(text)) == text

    @pytest.mark.parametrize("bad", ["", "=", "+", "-", "=D", "2d", "d-",
                                     "=d=", "+wh-", "d d"])
    def test_rejects(self, bad):
        with pytest.raises(LexiconError):
            parse_feature(bad)


class TestFeatureOrder:
    def test_selectors_licensors_cat_licensees(self):
        parse_lexicon("x :: =a b= +f c -g -h\n")  # full legal shape

    @pytest.mark.parametrize("feats", [
        "c =a",       # selector after category
        "+f =a c",    # selector after licensor
        "-g c",       # licensee before category
        "c +f",       # licensor after category
        "=a +f",      # no category
        "c c",        # two categories
        "-g",         # licensee only
    ])
    def test_bad_orders(self, feats):
        # one message for every bad order, from the one order check
        with pytest.raises(FeatureOrderError) as info:
            parse_lexicon(f"x :: {feats}\n")
        assert str(info.value) == (
            "line 1: features must be (selector)* (licensor)* category "
            f"(licensee)*, got {feats!r}")

    @pytest.mark.parametrize("feats", ["c =d", "=d", "c c", "-g c"])
    def test_hand_built_item_is_checked(self, feats):
        features = tuple(parse_feature(t) for t in feats.split())
        with pytest.raises(FeatureOrderError):
            pdmg.LexicalItem("x", features, 0, 0)

    def test_hand_built_item_in_order(self):
        features = tuple(parse_feature(t) for t in "=d +f c -g".split())
        item = pdmg.LexicalItem("x", features, 0, 0)
        assert item.category == "c" and item.stages == (1, 2)


def _items_of_every_kind():
    """The items of the five fixtures and of 60 seeded random lexicons."""
    lexicons = [pdmg.load_lexicon(str(p)) for p in sorted(DATA.glob("*.lex"))]
    assert len(lexicons) == 5
    lexicons += [random_lexicon(random.Random(seed)) for seed in range(60)]
    return [it for lex in lexicons for it in lex.items]


def test_accessors_read_the_one_stage_check():
    # The (s, c) of feature_stages against the filters they replaced.
    for it in _items_of_every_kind():
        feats = it.features
        kinds = [f.kind for f in feats]
        selectors = tuple(f for f in feats if f.is_selector)
        licensees = tuple(f for f in feats if f.kind is FeatureKind.LICENSEE)
        assert it.stages == feature_stages(feats)
        assert it.stages == (len(selectors), kinds.index(FeatureKind.CAT))
        assert it.selectors == selectors
        assert it.licensees == licensees
        assert it.category == next(f.name for f in feats
                                   if f.kind is FeatureKind.CAT)


def test_load_checks_each_item_once(monkeypatch):
    # as the item is built, in its line's turn; the category, selectors
    # and licensees read the item's stages
    calls = []
    real = lexicon_module.feature_stages

    def counted(features):
        calls.append(features)
        return real(features)

    monkeypatch.setattr(lexicon_module, "feature_stages", counted)
    lex = pdmg.load_lexicon(str(DATA / "whq.lex"))
    read = [(it.category, it.selectors, it.licensees) for it in lex.items]
    assert len(read) == lex.n_items
    assert len(calls) == lex.n_items


class TestParseLexicon:
    def test_whq_layout(self, whq):
        assert whq.categories == ("d", "v", "i", "c")
        assert whq.n_items == 5
        assert [it.phon for it in whq.items_of_category("d")] == ["what", "you"]
        assert whq.item(3, 0).phon == ""
        assert whq.item(3, 0).ref == "ε@3.0"
        assert whq.offsets == (0, 2, 3, 4, 5)

    def test_comments_and_blanks(self):
        lex = parse_lexicon("# header\n\nx :: c\n  # indented comment\n")
        assert lex.n_items == 1

    def test_epsilon_alias(self):
        lex = parse_lexicon("ε :: c\n")
        assert lex.items[0].phon == ""
        assert lex.items[0].phon_display == "ε"

    def test_duplicate_rejected(self):
        with pytest.raises(LexiconError):
            parse_lexicon("x :: c\nx :: c\n")

    def test_duplicate_names_its_line(self):
        with pytest.raises(LexiconError, match="^line 3: duplicate item 'x' :: c$"):
            parse_lexicon("x :: c\ny :: c\nx :: c\n")

    @pytest.mark.parametrize("text, line", [
        ("x :: c\nx :: c\ny :: c d\n", 2),    # duplicate before bad order
        ("x :: c\ny :: c d\nx :: c\n", 2),    # bad order before duplicate
        ("x :: c\nx :: c\ny :: +\n", 2),      # duplicate before bad name
        ("x :: c\ny :: c =d\nz c\n", 2),      # bad order before bad line
    ])
    def test_first_defective_line_reported(self, text, line):
        with pytest.raises(LexiconError) as info:
            parse_lexicon(text)
        assert info.value.line == line

    def test_same_phon_different_features_ok(self):
        lex = parse_lexicon("saw :: =d v\nsaw :: v\n")
        assert lex.n_items == 2
        assert len(lex.items_by_phon("saw")) == 2

    def test_line_numbers_in_errors(self):
        with pytest.raises(LexiconError, match="line 3"):
            parse_lexicon("# one\nx :: c\ny :: =a\n")

    def test_missing_separator(self):
        with pytest.raises(LexiconError):
            parse_lexicon("x c\n")

    def test_phon_with_spaces_rejected(self):
        with pytest.raises(LexiconError):
            parse_lexicon("a b :: c\n")

    def test_unknown_category_lookup(self, whq):
        with pytest.raises(UnknownCategoryError):
            whq.items_of_category("nope")

    def test_global_index_round_trip(self, whq):
        for it in whq.items:
            assert whq.item_at(whq.global_index(it)) == it

    def test_covert_items(self, ambig):
        assert [it.ref for it in ambig.covert_items()] == ["ε@1.1", "ε@2.0"]

    def test_phon_ids_index_every_item_once(self, ambig):
        ids = sorted(g for gs in ambig.phon_ids.values() for g in gs)
        assert ids == list(range(ambig.n_items))
        for phon, gs in ambig.phon_ids.items():
            assert list(gs) == sorted(gs)
            assert ambig.items_by_phon(phon) == tuple(ambig.items[g] for g in gs)
            assert all(ambig.items[g].phon == phon for g in gs)

    def test_smc_risk_groups(self):
        lex = parse_lexicon("a :: d -p\nb :: d -p\nc :: e -q\n")
        groups = lex.smc_risk_groups()
        assert set(groups) == {"p"}
        assert [it.phon for it in groups["p"]] == ["a", "b"]


class TestItemAccessors:
    def test_selectors_and_licensees(self, whq_items):
        what, you, see, did, eps = whq_items
        assert [str(f) for f in see.selectors] == ["d=", "=d"]
        assert [str(f) for f in what.licensees] == ["-wh"]
        assert eps.category == "c"
        assert str(see) == "see :: d= =d v"

    def test_item_id(self, whq_items):
        what, you, see, did, eps = whq_items
        assert what.item_id == (0, 0)
        assert you.item_id == (0, 1)
        assert eps.item_id == (3, 0)


_name = st.from_regex(r"[a-z][a-z0-9_]{0,3}", fullmatch=True)


@st.composite
def _lexicon_texts(draw):
    n = draw(st.integers(1, 6))
    cats = draw(st.lists(_name, min_size=1, max_size=3, unique=True))
    lines = []
    seen = set()
    for i in range(n):
        sels = draw(st.lists(
            st.tuples(st.sampled_from(["=", "post"]), st.sampled_from(cats)),
            max_size=2))
        licors = draw(st.lists(_name, max_size=1))
        cat = draw(st.sampled_from(cats))
        licees = draw(st.lists(_name, max_size=2))
        feats = [f"={c}" if d == "=" else f"{c}=" for d, c in sels]
        feats += [f"+{x}" for x in licors]
        feats.append(cat)
        feats += [f"-{x}" for x in licees]
        phon = draw(st.one_of(st.just(""), _name))
        key = (phon, tuple(feats))
        if key in seen:
            continue
        seen.add(key)
        lines.append(f"{phon if phon else 'ε'} :: {' '.join(feats)}")
    if not lines:
        lines = ["x :: c"]
    return "\n".join(lines) + "\n"


@settings(max_examples=60, derandomize=True)
@given(_lexicon_texts())
def test_serialize_parse_round_trip(text):
    lex = parse_lexicon(text)
    again = parse_lexicon(lexicon_to_text(lex))
    assert again == lex


@pytest.mark.parametrize("generator", [
    random_lexicon, rich_lexicon, twin_mover_lexicon, embedded_mover_lexicon,
    remnant_lexicon])
def test_generated_lexicons_round_trip(generator):
    for seed in range(300):
        lex = generator(random.Random(seed))
        assert parse_lexicon(lexicon_to_text(lex)) == lex, seed


# build_lexicon reads a phon as the text format does: "ε" is covert, and a
# phon the text could not hold is refused, so every built lexicon writes back.
@pytest.mark.parametrize("phon, read", [
    ("x", "x"), ("", ""), ("ε", ""), ("a:b", "a:b"), ("x:", "x:"),
    ("a@0.0", "a@0.0"), (" x", None), ("x ", None), ("a b", None),
    ("a\tb", None), ("a\nb", None), ("a\u2028b", None), ("a#b", None),
    ("#", None), ("a::b", None), ("::", None)])
def test_built_spelling_round_trips_or_is_refused(phon, read):
    entries = [(phon, (Feature(FeatureKind.CAT, "d"),))]
    if read is None:
        with pytest.raises(LexiconError, match="^bad phon "):
            build_lexicon(entries)
        return
    lex = build_lexicon(entries)
    assert lex.items[0].phon == read
    assert parse_lexicon(lexicon_to_text(lex)) == lex


def test_build_lexicon_matches_parse(whq):
    entries = [(it.phon, [str(f) for f in it.features]) for it in whq.items]
    built = build_lexicon([(p, tuple(parse_feature(f) for f in fs))
                           for p, fs in entries])
    assert built == whq


def test_feature_is_frozen():
    f = parse_feature("=d")
    with pytest.raises(AttributeError):
        f.name = "x"


def test_load_lexicon_missing_file(tmp_path):
    with pytest.raises(OSError):
        pdmg.load_lexicon(str(tmp_path / "absent.lex"))
