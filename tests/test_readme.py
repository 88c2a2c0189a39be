"""The README's library example runs and prints what its comments say."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _python_blocks() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)


def _stated_values(block: str) -> dict[str, object]:
    """``expr  # literal`` lines: each expression and the value stated for it."""
    out = {}
    for line in block.splitlines():
        code, sep, comment = line.partition("#")
        if not sep or not code.strip():
            continue
        try:
            out[code.strip()] = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue  # prose, not a value
    return out


@pytest.fixture()
def example(monkeypatch):
    blocks = _python_blocks()
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    return blocks[0], namespace


def test_stated_values_hold(example):
    block, ns = example
    stated = _stated_values(block)
    assert stated == {
        "pdmg.is_wellformed(seq)": True,
        "pdmg.eval_sequence(seq)": "what did you see",
        "pdmg.prob_of_sequence(seq, theta)": 0.25,
        "state.omega": {"d": [2.0, 2.0], "v": [2.0], "i": [2.0], "c": [2.0]},
    }
    for expr, value in stated.items():
        assert eval(expr, ns) == value, expr


def test_prose_comments_hold(example):
    block, ns = example
    assert "(5 leaves, 4 merges, 1 move)" in block
    assert eval("pdmg.count_nodes(tree)", ns) == (5, 4, 1)
    assert eval("forest.sequences", ns) == (ns["seq"],)
    state = ns["state"]
    assert all(abs(sum(row) - 1.0) <= 1e-12 for row in state.theta_mean.values())
    trace = state.elbo_trace
    assert all(b >= a for a, b in zip(trace, trace[1:]))
