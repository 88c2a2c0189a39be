"""The README's examples run and print what the README says they print."""

import ast
import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import ERROR_CLASSES
from pdmg.cli import main as cli_main

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
        "forest.ids": ((4, 3, 2, 1, 0),),
        "pdmg.prob_of_sequence(seq, theta)": 0.25,
        'pdmg.score_sentence(lex, "what did you see", theta, config)["prob"]': 0.25,
        "drawn == seq": True,
        "rejected": 0,
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


# -- command-line transcripts ---------------------------------------------------
#
# Every ``$ pdmg ...`` line of a ``text`` block runs through CliRunner, and
# its output must equal the lines up to the next ``$`` line, byte for byte.
# A ``...`` line stands for any run of lines.  A block whose first line is
# ``# NAME``, for a NAME the repository does not hold, is an input file
# (the train example's corpus); it is written where the commands run.


def _text_blocks() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```text\n(.*?)^```", text, flags=re.S | re.M)


def _transcripts() -> list[tuple[str, list[str]]]:
    out = []
    for block in _text_blocks():
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            if chunk.startswith("$ pdmg "):
                command, *expected = chunk.splitlines()
                out.append((command[len("$ pdmg "):], expected))
    return out


def _input_files() -> dict[str, str]:
    files = {}
    for block in _text_blocks():
        first, _, body = block.partition("\n")
        name = first[2:]
        if first.startswith("# ") and not (ROOT / name).exists() \
                and "$ " not in block:
            files[name] = body
    return files


def test_every_command_example_is_collected():
    commands = [shlex.split(c)[0] for c, _ in _transcripts()]
    assert commands == ["validate", "check-seq", "derive", "parse", "score",
                        "sample", "train"]
    assert set(_input_files()) == {"corpus.txt"}


@pytest.mark.parametrize("command, expected", _transcripts(),
                         ids=[c for c, _ in _transcripts()])
def test_transcript(command, expected, tmp_path, monkeypatch):
    (tmp_path / "tests").symlink_to(ROOT / "tests")
    for name, body in _input_files().items():
        (tmp_path / name).write_text(body, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    result = CliRunner().invoke(cli_main, shlex.split(command))
    pattern = "".join(r"(?:.*\n)*" if line.strip() == "..."
                      else re.escape(line) + r"\n" for line in expected)
    assert re.fullmatch(pattern, result.output), result.output


# -- the exit-code table --------------------------------------------------------


def _exit_rows() -> list[tuple[int, str]]:
    """Each ``| code | meaning | classes |`` row of the README's table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return [(int(code), rest)
            for code, rest in re.findall(r"^\| (\d) \|(.*)\|$", text, flags=re.M)]


def test_exit_table_names_each_class_in_its_row():
    rows = _exit_rows()
    assert sorted({code for code, _ in rows}) == [0, 1, 2, 3, 4, 5]
    for cls in ERROR_CLASSES:
        assert cls.exit_code in {2, 3, 4}, cls
        name = f"`{cls.__name__}`"
        assert {code for code, rest in rows if name in rest} == {cls.exit_code}, cls
