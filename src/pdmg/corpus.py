"""Corpus files and canonical JSON output.

A corpus file holds one sentence per line; blank lines and lines whose
first non-space character is ``#`` are ignored, and tokens are separated
by whitespace.

``canonical_json`` serializes the small result structures the command
line emits.  Key order is the insertion order of the dicts passed in,
floats render in ``%g`` form with the fewest significant digits that
still round-trip a double (at most 17), so equal inputs always produce
identical bytes.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Any


def load_corpus(path: str) -> list[str]:
    with open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
    out = []
    for line in text.splitlines():
        s = line.strip()
        if s and not s.startswith("#"):
            out.append(s)
    return out


def _fmt_float(x: float) -> str:
    if x != x:
        raise ValueError("cannot serialize NaN")
    if x in (float("inf"), float("-inf")):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    # repr holds the fewest significant digits that round-trip; %g with
    # that many digits rounds correctly, which next to a power of two can
    # miss the (asymmetric) round-trip interval, so then take one more.
    digits = float.__repr__(x).partition("e")[0].lstrip("-").replace(".", "")
    prec = len(digits.strip("0")) or 1
    s = format(x, f".{prec}g")
    while float(s) != x:
        prec += 1
        s = format(x, f".{prec}g")
    return s


# One C-level call renders a list of plain ints exactly as canonical_json does.
_INT_JSON = json.JSONEncoder(separators=(",", ":"))


def _int_leaves(value: list | tuple) -> bool:
    """Whether this nest of lists and tuples holds plain ints, all at one depth.

    Each nesting level is tested in one pass over the concatenation of its
    lists; ``type(v) is int`` keeps out bool and every other int subclass.
    A nest that fails renders element by element, as it always could.
    """
    while True:
        kinds = set(map(type, value))
        if kinds <= {int}:
            return True
        if not kinds <= {list, tuple}:
            return False
        value = list(chain.from_iterable(value))


def canonical_json(value: Any) -> str:
    """Deterministic JSON: insertion-ordered keys, shortest %g floats, no spaces."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, dict):
        parts = (f"{json.dumps(str(k), ensure_ascii=False)}:{canonical_json(v)}"
                 for k, v in value.items())
        return "{" + ",".join(parts) + "}"
    if isinstance(value, (list, tuple)):
        if _int_leaves(value):
            return _INT_JSON.encode(value)
        return "[" + ",".join(canonical_json(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")
