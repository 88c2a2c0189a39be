"""Unit tests for corpus loading and canonical JSON serialization."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from pdmg.corpus import _fmt_float, _int_leaves, canonical_json, load_corpus


class TestLoadCorpus:
    def test_skips_blanks_and_comments(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("# header\n\nwhat did you see\n   \n  you  \n#tail\n")
        assert load_corpus(str(p)) == ["what did you see", "you"]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("")
        assert load_corpus(str(p)) == []

    def test_missing_file(self):
        with pytest.raises(OSError):
            load_corpus("/nonexistent/corpus.txt")


class TestCanonicalJson:
    def test_scalars(self):
        assert canonical_json(None) == "null"
        assert canonical_json(True) == "true"
        assert canonical_json(False) == "false"
        assert canonical_json(3) == "3"
        assert canonical_json("hi") == '"hi"'

    def test_no_spaces(self):
        got = canonical_json({"a": [1, 2], "b": {"c": 0.5}})
        assert got == '{"a":[1,2],"b":{"c":0.5}}'
        assert " " not in got

    def test_insertion_order_preserved(self):
        assert canonical_json({"z": 1, "a": 2}) == '{"z":1,"a":2}'

    def test_floats_shortest_form(self):
        assert canonical_json(0.25) == "0.25"
        assert canonical_json(2.0) == "2"
        assert canonical_json(1.0 / 3.0) == "0.3333333333333333"
        assert canonical_json(0.1) == "0.1"

    def test_unicode_kept_raw(self):
        assert canonical_json("ε") == '"ε"'

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json(math.nan)

    def test_infinities_quoted(self):
        assert canonical_json(math.inf) == '"Infinity"'
        assert canonical_json(-math.inf) == '"-Infinity"'

    def test_unserializable_type(self):
        with pytest.raises(TypeError):
            canonical_json({1, 2})

    def test_tuple_as_list(self):
        assert canonical_json((1, (2, 3))) == "[1,[2,3]]"

    @settings(max_examples=300, derandomize=True)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_floats_round_trip_exactly(self, x):
        assert float(json.loads(canonical_json(x))) == x

    @settings(max_examples=100, derandomize=True)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_deterministic(self, x):
        assert canonical_json(x) == canonical_json(x)

    @settings(max_examples=2000, derandomize=True)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_float_digits_match_trimming_oracle(self, x):
        assert _fmt_float(x) == oracle.fmt_float(x)

    @pytest.mark.parametrize("x", [
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
        1e15, 1e16, 1e17, 123456789012345678.0, 2.0 ** 53 + 2.0, 100.0,
        1.0 / 3.0, 1.7976931348623157e308, 0.1, -2.5e-7])
    def test_float_digits_edge_cases(self, x):
        assert _fmt_float(x) == oracle.fmt_float(x)

    def test_float_digits_next_to_powers_of_two(self):
        # Below a power of two the round-trip interval is lopsided, and the
        # correctly rounded shortest digit count can fail to round-trip
        # (2**-1017 needs 17 digits where repr shows 16).
        for e in range(-1074, 1024):
            for x in (math.ldexp(1.0, e), math.nextafter(math.ldexp(1.0, e), 0.0)):
                assert _fmt_float(x) == oracle.fmt_float(x)
                assert _fmt_float(-x) == oracle.fmt_float(-x)

    def test_matches_json_loads_structure(self):
        payload = {"omega": {"d": [2.0, 2.0]}, "trace": [-2.0, -1.5],
                   "converged": True, "unparsed": []}
        assert json.loads(canonical_json(payload)) == payload


def _elementwise(value) -> str:
    """canonical_json with every list rendered one element at a time."""
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(_elementwise, value)) + "]"
    return canonical_json(value)


def _nests(leaves):
    return st.recursive(leaves, lambda inner: st.lists(inner, max_size=5)
                        | st.tuples(inner, inner), max_leaves=30)


class TestIntLists:
    """Lists of plain ints take one json encoder call; nothing else does."""

    def test_which_lists_qualify(self):
        assert _int_leaves([])
        assert _int_leaves([[3, 0], (2, 0), [], [1]])
        assert not _int_leaves([[3, 0], [[1]]])  # ints at two depths
        assert not _int_leaves([1, True])
        assert not _int_leaves([[1, 2], [False]])
        assert not _int_leaves([1, 2.0])
        assert not _int_leaves([[1], 2])
        assert not _int_leaves([[1], "2"])

    def test_derivation_ids(self):
        ids = [[[3, 0], [2, 0], [1, 0], [0, 1], [0, 0]]]
        assert canonical_json(ids) == "[[[3,0],[2,0],[1,0],[0,1],[0,0]]]"
        assert canonical_json([[1, True], [0, 100.0]]) == "[[1,true],[0,1e+02]]"

    @settings(max_examples=300, derandomize=True)
    @given(_nests(st.integers()))
    def test_int_nests_match_elementwise(self, value):
        assert canonical_json(value) == _elementwise(value)

    @settings(max_examples=300, derandomize=True)
    @given(_nests(st.one_of(st.integers(), st.booleans(),
                            st.floats(allow_nan=False))))
    def test_mixed_nests_match_elementwise(self, value):
        assert canonical_json(value) == _elementwise(value)

