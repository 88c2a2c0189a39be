"""Start-up: parsing, scoring and checking load neither numpy nor the trainer,
and each command loads only the modules it runs.

Only training's e-step (``pdmg.inference``) and the random draws of
``sample_theta`` and the sampler compute with numpy; the Dirichlet row
math (``theta_star``, ``posterior_mean``, the density) runs on plain
floats.  A bare ``import pdmg`` loads no submodule, and ``pdmg parse``
and ``validate`` load neither the evaluator, the checker nor the scorer.
The behavioural tests run a fresh interpreter, because this process
already holds numpy and every pdmg module; the ``ast`` guards name the
import that would load one too early.  A further ``ast`` guard keeps
scoring and drawing out of the command line: ``cli.py`` imports no
private name of ``pdmg.model`` or ``pdmg.corpus``, and no ``math``.
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

# Runs in the child: `step(name)` records which of HEAVY are loaded and,
# in `loaded`, every pdmg submodule; `cli(...)` runs one command in
# process and records its exit code.
PRELUDE = f"""
import json, sys
HEAVY = {HEAVY!r}
steps, loaded, codes = {{}}, {{}}, {{}}

def step(name):
    steps[name] = sorted(m for m in HEAVY if m in sys.modules)
    loaded[name] = sorted(m for m in sys.modules if m.startswith("pdmg."))

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
    code = PRELUDE + body + (
        "\nprint(json.dumps({'steps': steps, 'loaded': loaded, 'codes': codes}))\n")
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


# The modules that only some commands run, and which of them each loads.
PER_COMMAND = ("pdmg.model", "pdmg.special", "pdmg.structure", "pdmg.wellformed")
REFS = ("ε", "did", "see", "you", "what")
COMMAND_LOADS = [
    (("parse", WHQ, SENTENCE, "--start", "c"), []),
    (("validate", WHQ), []),
    (("derive", WHQ, *REFS), ["pdmg.structure"]),
    (("check-seq", WHQ, *REFS), ["pdmg.wellformed"]),
    (("score", WHQ, SENTENCE, "--start", "c"),
     ["pdmg.model", "pdmg.special", "pdmg.wellformed"]),
]


def test_bare_import_loads_no_submodule():
    out = _child("""
import pdmg
step("import")
import pdmg.cli
step("cli")
""")
    assert out["loaded"] == {
        "import": [],
        "cli": ["pdmg.chart", "pdmg.cli", "pdmg.corpus", "pdmg.errors", "pdmg.lexicon"]}


@pytest.mark.parametrize("args, loads", COMMAND_LOADS,
                         ids=[args[0] for args, _ in COMMAND_LOADS])
def test_each_command_loads_only_what_it_runs(args, loads):
    out = _child(f"""
cli(*{args!r})
step("command")
""")
    assert out["codes"] == {args[0]: 0}
    assert [m for m in out["loaded"]["command"] if m in PER_COMMAND] == loads


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
    assert pdmg.SampleConfig is pdmg.model.SampleConfig
    with pytest.raises(AttributeError):
        pdmg.no_such_name


def test_export_table_names_each_name_once():
    assert sum(map(len, pdmg._EXPORTS.values())) == len(set(pdmg.__all__))
    for module, names in pdmg._EXPORTS.items():
        assert getattr(pdmg, module) is sys.modules[f"pdmg.{module}"]
        assert module in dir(pdmg)
        for name in names:
            assert getattr(pdmg, name) is getattr(sys.modules[f"pdmg.{module}"], name)


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


def _module_level_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, dotted name) of each import that importing the module runs:
    not inside a function or class, nor under ``if TYPE_CHECKING``."""
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
            found += [(node.lineno, name) for name in _imported(node)]
        todo.extend(ast.iter_child_nodes(node))
    return sorted(found)


def _heavy_module_level_imports(tree: ast.Module) -> list[tuple[int, str]]:
    return [(line, name) for line, name in _module_level_imports(tree)
            if name.split(".")[0] == "numpy" or name in HEAVY]


def _eager_pdmg_imports(tree: ast.Module, modules: tuple[str, ...] | None = None,
                        ) -> list[tuple[int, str]]:
    """Module-level imports of pdmg submodules, or of those in ``modules``."""
    return [(line, name) for line, name in _module_level_imports(tree)
            if name.startswith("pdmg.") and (modules is None or name in modules)]


def test_no_module_level_numpy_import():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem in NUMPY_MODULES:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{line} imports {name}"
                  for line, name in _heavy_module_level_imports(tree)]
    assert found == []


# A name's module loads on its first read, so __init__.py imports no
# submodule; cli.py imports the modules that only some commands run
# inside those commands.
def test_package_and_cli_import_submodules_lazily():
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    cli = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    assert _eager_pdmg_imports(init) == []
    assert _eager_pdmg_imports(cli, PER_COMMAND) == []


def test_lazy_guard_sees_every_form():
    tree = ast.parse(
        "from importlib import import_module\n"
        "from .chart import parse\n"
        "from . import model\n"
        "import pdmg.structure\n"
        "try:\n    from .wellformed import is_wellformed\n"
        "except ImportError:\n    pass\n"
        "def f():\n    from .model import score_sentence\n"
        "if TYPE_CHECKING:\n    from .structure import Leaf\n"
        "from pdmg.special import psi\n")
    assert _eager_pdmg_imports(tree) == [
        (2, "pdmg.chart"), (3, "pdmg.model"), (4, "pdmg.structure"),
        (6, "pdmg.wellformed"), (13, "pdmg.special")]
    assert _eager_pdmg_imports(tree, PER_COMMAND) == [
        (3, "pdmg.model"), (4, "pdmg.structure"), (6, "pdmg.wellformed"),
        (13, "pdmg.special")]


# The CLI parses options, loads files and prints: scoring, drawing and
# evaluation live in the library, so cli.py reaches no private name of any
# pdmg module and does no arithmetic of its own.
def _cli_boundary_crossings(tree: ast.Module) -> list[tuple[int, str]]:
    """Private names taken from pdmg modules, and imports of math."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        names = _imported(node)
        found += [(node.lineno, name) for name in names
                  if name == "math" or name.startswith("math.")]
        if isinstance(node, ast.ImportFrom) and names[0].split(".")[0] == "pdmg":
            module = "pdmg" if node.module is None else names[0]
            found += [(node.lineno, f"{module}.{alias.name}")
                      for alias in node.names
                      if alias.name.startswith("_") and not alias.name.endswith("__")]
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
        "def f():\n    from .model import _cumulative_tables\n"
        "from .structure import _x\n"
        "from . import __version__, _y\n"
        "from pdmg import _z\n")
    assert _cli_boundary_crossings(tree) == [
        (1, "math"), (2, "math"), (3, "pdmg.model._draws"),
        (4, "pdmg.corpus._fmt_float"), (5, "pdmg.chart._nonnegative"),
        (7, "pdmg.model._cumulative_tables"), (8, "pdmg.structure._x"),
        (9, "pdmg._y"), (10, "pdmg._z")]


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
