"""Start-up: parsing, scoring and checking load neither numpy nor the trainer.

Only training's e-step (``pdmg.inference``) and the random draws of
``sample_theta`` and the sampler compute with numpy; the Dirichlet row
math (``theta_star``, ``posterior_mean``, the density) runs on plain
floats.  The behavioural tests run a fresh interpreter, because this
process already holds numpy; the ``ast`` guard names the module whose
import would load it.  A second ``ast`` guard keeps scoring and drawing
out of the command line: ``cli.py`` imports no private name of
``pdmg.model`` or ``pdmg.corpus``, and no ``math``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdmg

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "pdmg"
HEAVY = ("numpy", "pdmg.inference")

# Runs in the child: `step(name)` records which of HEAVY are loaded, and
# `cli(...)` runs one command in process and records its exit code.
PRELUDE = f"""
import json, sys
HEAVY = {HEAVY!r}
steps, codes = {{}}, {{}}

def step(name):
    steps[name] = sorted(m for m in HEAVY if m in sys.modules)

def cli(*args):
    import pdmg.cli
    try:
        code = pdmg.cli.main(list(args), standalone_mode=False)
    except SystemExit as exc:
        code = exc.code
    codes[args[0]] = code or 0
"""

WHQ = str(ROOT / "tests" / "data" / "whq.lex")
SENTENCE = "what did you see"


def _child(body: str) -> dict:
    """Run PRELUDE + body in a new interpreter; its last stdout line."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = PRELUDE + body + "\nprint(json.dumps({'steps': steps, 'codes': codes}))\n"
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_parse_score_and_check_load_no_numpy():
    out = _child(f"""
import pdmg, pdmg.cli
step("import")
lex = pdmg.load_lexicon({WHQ!r})
theta = pdmg.uniform_theta(lex)
step("load")
forest = pdmg.parse(lex, {SENTENCE!r}.split(), pdmg.ParseConfig(start="c"))
assert pdmg.log_prob_of_sequence(forest.sequences[0], theta) < 0.0
assert pdmg.score_sentence(lex, {SENTENCE!r}, theta,
                           pdmg.ParseConfig(start="c"))["prob"] == 0.25
step("library")
cli("--help")
cli("parse", {WHQ!r}, {SENTENCE!r}, "--start", "c")
cli("score", {WHQ!r}, {SENTENCE!r}, "--start", "c")
cli("derive", {WHQ!r}, "ε", "did", "see", "you", "what")
cli("check-seq", {WHQ!r}, "ε", "did", "see", "you", "what")
cli("validate", {WHQ!r})
step("cli")
""")
    assert out["steps"] == {"import": [], "load": [], "library": [], "cli": []}
    assert out["codes"] == {"--help": 0, "parse": 0, "score": 0, "derive": 0,
                            "check-seq": 0, "validate": 0}


def test_log_joint_loads_no_numpy():
    out = _child(f"""
import pdmg, pdmg.model
lex = pdmg.load_lexicon({WHQ!r})
seq = tuple(lex.item(k, m) for k, m in [(3, 0), (2, 0), (1, 0), (0, 1), (0, 0)])
assert pdmg.log_joint(seq, pdmg.uniform_theta(lex), pdmg.ones_alpha(lex), lex) < 0.0
assert pdmg.model.log_dirichlet_density([0.5, 0.5], [2.0, 2.0]) > 0.0
step("library")
""")
    assert out["steps"] == {"library": []}


def test_dirichlet_rows_load_no_numpy():
    out = _child(f"""
import pdmg
lex = pdmg.load_lexicon({WHQ!r})
omega = {{"d": [1.0, 3.0], "v": [2.0], "i": [5.0], "c": [0.5]}}
assert pdmg.theta_star(lex, omega)["v"] == [1.0]
assert pdmg.posterior_mean(lex, omega)["d"] == [0.25, 0.75]
step("library")
""")
    assert out["steps"] == {"library": []}


def test_train_loads_numpy(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(SENTENCE + "\n")
    out = _child(f"""
import pdmg
lex = pdmg.load_lexicon({WHQ!r})
pdmg.train(lex, [{SENTENCE!r}], pdmg.ones_alpha(lex), pdmg.TrainConfig(start="c"))
step("library")
""")
    assert out["steps"] == {"library": list(HEAVY)}
    out = _child(f"""
cli("train", {WHQ!r}, {str(corpus)!r}, "--start", "c",
    "--out", {str(tmp_path / "result.json")!r})
step("cli")
""")
    assert out["steps"] == {"cli": list(HEAVY)}
    assert out["codes"] == {"train": 0}


def test_sample_loads_numpy():
    out = _child(f"""
cli("sample", {WHQ!r}, "--start", "c", "--seed", "1")
step("cli")
""")
    assert "numpy" in out["steps"]["cli"]
    assert out["codes"] == {"sample": 0}


def test_every_public_name_resolves():
    for name in pdmg.__all__:
        assert getattr(pdmg, name) is not None
    assert set(pdmg.__all__) <= set(dir(pdmg))
    namespace: dict = {}
    exec("from pdmg import *", namespace)
    assert set(pdmg.__all__) <= set(namespace)
    assert pdmg.TrainConfig is pdmg.inference.TrainConfig
    with pytest.raises(AttributeError):
        pdmg.no_such_name


# -- tooling guard ------------------------------------------------------------

# The module that computes with numpy; nothing else imports it, or numpy,
# outside a function.
NUMPY_MODULES = {"inference"}


def _imported(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The dotted names an import statement in a pdmg module loads."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level == 0:
        return [node.module]
    if node.module is None:  # from . import x
        return [f"pdmg.{alias.name}" for alias in node.names]
    return [f"pdmg.{node.module}"]


def _heavy_module_level_imports(tree: ast.Module) -> list[tuple[int, str]]:
    found = []
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            todo.extend(node.orelse)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node.lineno, name) for name in _imported(node)
                      if name.split(".")[0] == "numpy" or name in HEAVY]
        todo.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_no_module_level_numpy_import():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem in NUMPY_MODULES:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{line} imports {name}"
                  for line, name in _heavy_module_level_imports(tree)]
    assert found == []


# The CLI parses options, loads files and prints: scoring and drawing live
# in the library, so cli.py reaches no private name of the modules that
# hold them and does no arithmetic of its own.
LIBRARY_MODULES = ("pdmg.model", "pdmg.corpus")


def _cli_boundary_crossings(tree: ast.Module) -> list[tuple[int, str]]:
    """Private names taken from LIBRARY_MODULES, and imports of math."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for name in _imported(node):
            if name == "math" or name.startswith("math."):
                found.append((node.lineno, name))
            elif name in LIBRARY_MODULES and isinstance(node, ast.ImportFrom):
                found += [(node.lineno, f"{name}.{alias.name}")
                          for alias in node.names if alias.name.startswith("_")]
    return sorted(found)


def test_cli_imports_no_private_library_name_and_no_math():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    assert _cli_boundary_crossings(tree) == []


def test_cli_guard_sees_every_form():
    tree = ast.parse(
        "import math\n"
        "from math import exp\n"
        "from .model import _draws, load_theta\n"
        "from pdmg.corpus import _fmt_float\n"
        "from .chart import _nonnegative\n"
        "def f():\n    from .model import _cumulative_tables\n")
    assert _cli_boundary_crossings(tree) == [
        (1, "math"), (2, "math"), (3, "pdmg.model._draws"),
        (4, "pdmg.corpus._fmt_float"), (7, "pdmg.model._cumulative_tables")]


def test_guard_sees_every_form():
    tree = ast.parse(
        "import numpy as np\n"
        "from numpy import zeros\n"
        "from . import inference\n"
        "from .inference import train\n"
        "try:\n    import numpy.random\nexcept ImportError:\n    pass\n"
        "if TYPE_CHECKING:\n    import numpy\n"
        "def f():\n    import numpy\n"
        "from .chart import parse\n")
    assert _heavy_module_level_imports(tree) == [
        (1, "numpy"), (2, "numpy"), (3, "pdmg.inference"),
        (4, "pdmg.inference"), (6, "numpy.random")]
