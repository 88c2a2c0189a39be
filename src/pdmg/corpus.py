"""Corpus files and canonical JSON output.

A corpus file holds one sentence per line; blank lines and lines whose
first non-space character is ``#`` are ignored, and tokens are separated
by whitespace.

``canonical_json`` serializes the small result structures the command
line emits.  Key order is the insertion order of the dicts passed in,
floats render with ``%.17g`` (shortest form that still round-trips a
double), so equal inputs always produce identical bytes.
"""

from __future__ import annotations

import json
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
    s = format(x, ".17g")
    # Trim to the shortest representation that round-trips.
    for prec in range(1, 17):
        t = format(x, f".{prec}g")
        if float(t) == x:
            s = t
            break
    return s


def canonical_json(value: Any) -> str:
    """Deterministic JSON: insertion-ordered keys, %.17g floats, no spaces."""
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
        return "[" + ",".join(canonical_json(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")
