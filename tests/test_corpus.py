"""Unit tests for corpus loading and canonical JSON serialization."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmg.corpus import canonical_json, load_corpus


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

    def test_matches_json_loads_structure(self):
        payload = {"omega": {"d": [2.0, 2.0]}, "trace": [-2.0, -1.5],
                   "converged": True, "unparsed": []}
        assert json.loads(canonical_json(payload)) == payload
