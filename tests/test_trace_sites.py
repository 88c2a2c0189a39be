"""Every call site the benchmark's tracer wraps still exists in pdmg.

``perfbench/tracing.py`` wraps pdmg functions by module path and leaves a
metric out when its function is gone, and its after-hooks read fields of
what those functions return (``forest.chart``, ``state.iterations``,
``encoded.dstart``), leaving a metric out when one is gone.  So a rename
would silently blank a per-layer metric.  These tests read the tracer's
site tables and, in a child interpreter, run it; they change nothing.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("name, path", sorted(tracing.API_SITES.values()))
def test_api_site_is_callable(name, path):
    module, _, attr = path.rpartition(".")
    assert callable(getattr(importlib.import_module(module), attr, None)), name


@pytest.mark.parametrize("name, module, attr", tracing.MODULE_SITES)
def test_module_site_is_callable(name, module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), name


# Runs in the child: install the tracer, reach every traced site once on
# the fixtures, and report what the tracer could not record.
TRACED_RUN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
import numpy as np
import pdmg
tracer = tracing.Tracer()
api = tracer.install()
whq = pdmg.load_lexicon(sys.argv[2])
sentence = "what did you see".split()
forest = api.parse(whq, sentence, pdmg.ParseConfig(start="c"))
api.train(whq, [" ".join(sentence)], pdmg.ones_alpha(whq),
          pdmg.TrainConfig(start="c", max_iters=3))
theta = pdmg.uniform_theta(whq)
api.log_prob_of_sequence(forest.sequences[0], theta)
seq, _ = api.sample_derivation(whq, theta, pdmg.SampleConfig(start="c"),
                               np.random.default_rng(0))
api.eval_sequence(seq)
api.canonical_json({"count": forest.count})
metrics = tracer.layer_metrics(1, {"lexicon.load_s": 0.0, "cli.import_s": 0.0})
print(json.dumps({"missing": sorted(tracer.missing), "metrics": sorted(metrics)}))
"""


def test_traced_run_records_every_metric():
    env = dict(os.environ, PYTHONPATH=str(TRACING.parent.parent / "src"))
    whq = TRACING.parent.parent / "tests" / "data" / "whq.lex"
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(TRACING), str(whq)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["missing"] == []
    assert out["metrics"] == sorted(tracing.UNITS)


# Runs in the child: a traced fit of a corpus whose seven sentences have
# three signatures (man and dog share theirs); prints the names of the
# spans directly under the fit and the per-layer parse time.
TRACED_TRAIN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
import pdmg
tracer = tracing.Tracer()
api = tracer.install()
lex = pdmg.parse_lexicon(
    "kim :: d\\nsaw :: =d d= v\\nthe :: =n d\\nman :: n\\ndog :: n\\n"
    "with :: =d n= n\\nwith :: =d v= v\\nε :: =v c\\n")
corpus = ["kim saw the man", "kim saw the dog", "kim saw the man with the dog",
          "kim saw the dog with the man", "kim saw the man with the man",
          "kim saw the dog", "kim saw kim"]
api.train(lex, corpus, pdmg.ones_alpha(lex), pdmg.TrainConfig(start="c"))
name = {s[1]: s[3] for s in tracer.spans}
under = [s[3] for s in tracer.spans if name.get(s[2]) == "inference.train"]
metrics = tracer.layer_metrics(1, {"lexicon.load_s": 0.0, "cli.import_s": 0.0})
print(json.dumps({"under": under, "parse_s": metrics["inference.parse_s"]}))
"""


def test_traced_train_parses_each_signature_once():
    """``train`` calls ``pdmg.inference.parse`` once per signature, so the
    tracer's ``inference.parse_s`` times every parse the fit makes."""
    env = dict(os.environ, PYTHONPATH=str(TRACING.parent.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-c", TRACED_TRAIN, str(TRACING)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["under"].count("chart.parse") == 3
    assert out["parse_s"] > 0
