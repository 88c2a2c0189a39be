"""Spans and counters recorded around calls into pdmg's layers.

Tracing wraps public functions at the points where callers reach them:
the benchmark's own calls (``pdmg.parse``, ``pdmg.train``, ...) and the
names other pdmg modules import (``pdmg.inference.parse``,
``pdmg.model.is_wellformed``, ``pdmg.inference.estep_flat``, ...).
Nothing inside pdmg is edited.  A span records its operation id, its own
id, its parent's id, a name, and start and end times; spans stay in
memory until the run ends.  A name whose function no longer exists is
not wrapped, and every metric built on it is reported absent.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from types import SimpleNamespace

# (span name, module attribute path) for each call site the trace wraps.
API_SITES = {
    "parse": ("chart.parse", "pdmg.parse"),
    "train": ("inference.train", "pdmg.train"),
    "log_prob_of_sequence": ("model.score", "pdmg.log_prob_of_sequence"),
    "sample_derivation": ("model.sample", "pdmg.sample_derivation"),
    "eval_sequence": ("structure.eval", "pdmg.eval_sequence"),
    "canonical_json": ("corpus.json", "pdmg.corpus.canonical_json"),
}
MODULE_SITES = (
    ("chart.parse", "pdmg.inference", "parse"),
    ("inference.encode", "pdmg.inference", "encode_corpus"),
    ("numerics.log_theta_star", "pdmg.inference", "log_theta_star_flat"),
    ("numerics.estep", "pdmg.inference", "estep_flat"),
    ("numerics.dirichlet_kl", "pdmg.inference", "dirichlet_kl_flat"),
    ("wellformed.check", "pdmg.model", "is_wellformed"),
)


# Unit of every per-layer metric.  Times and counts are per round, ratios
# are over the whole run, and the two set-up times are medians over the
# run's set-up processes.
UNITS = {
    "lexicon.load_s": "s", "cli.import_s": "s",
    "chart.parse_s": "s", "chart.items": "count", "chart.items_per_s": "1/s",
    "chart.backptrs": "count", "chart.derivations": "count",
    "wellformed.calls": "count", "wellformed.s": "s",
    "structure.calls": "count", "structure.eval_s": "s",
    "model.sample_s": "s", "model.proposals": "count", "model.rejections": "count",
    "model.accept_ratio": "ratio", "model.score_s": "s",
    "inference.train_s": "s", "inference.parse_s": "s", "inference.encode_s": "s",
    "inference.vb_s": "s", "inference.iterations": "count", "inference.iter_ms": "ms",
    "inference.derivations": "count",
    "numerics.log_theta_star_s": "s", "numerics.estep_s": "s",
    "numerics.dirichlet_kl_s": "s", "numerics.estep_calls": "count",
    "corpus.json_s": "s",
}


def _lookup(path: str):
    import importlib
    module, _, attr = path.rpartition(".")
    return getattr(importlib.import_module(module), attr, None)


def plain_api() -> SimpleNamespace:
    """The untraced functions the workloads call."""
    return SimpleNamespace(**{k: _lookup(path) for k, (_, path) in API_SITES.items()})


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []      # (op, id, parent, name, start, end)
        self.counts: Counter = Counter()
        self.missing: set[str] = set()    # span or counter names not recorded
        self.op = -1
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (self.op, sid, parent, name, start, end)

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if after is not None:
                after(result)
            return result
        return traced

    def wrap_op(self, name: str, fn):
        def traced():
            self.op += 1
            return self.call(name, fn, (), {})
        return traced

    def add(self, name: str, getter) -> None:
        """Add ``getter()`` to counter ``name``, or mark it missing."""
        try:
            self.counts[name] += getter()
        except AttributeError:
            self.missing.add(name)

    # -- installation ------------------------------------------------------

    def install(self) -> SimpleNamespace:
        """Patch pdmg's inner call sites and return the traced API."""
        import importlib

        def after_parse(forest):
            self.add("chart.items", lambda: len(forest.chart))
            self.add("chart.backptrs",
                     lambda: sum(len(b) for b in forest.chart.values()))
            self.add("chart.derivations", lambda: forest.count)

        def after_sample(result):
            self.add("model.proposals", lambda: result[1] + 1)
            self.add("model.rejections", lambda: result[1])
            self.counts["model.accepted"] += 1

        def after_train(state):
            self.add("inference.iterations", lambda: state.iterations)

        def after_encode(encoded):
            self.add("inference.derivations", lambda: len(encoded.dstart) - 1)

        after = {"chart.parse": after_parse, "model.sample": after_sample,
                 "inference.train": after_train, "inference.encode": after_encode}
        for name, module, attr in MODULE_SITES:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.add(name)
                continue
            setattr(mod, attr, self.wrap(name, fn, after.get(name)))
        api = {}
        for key, (name, path) in API_SITES.items():
            fn = _lookup(path)
            if fn is None:
                self.missing.add(name)
                api[key] = None
            else:
                api[key] = self.wrap(name, fn, after.get(name))
        return SimpleNamespace(**api)

    # -- reporting ---------------------------------------------------------

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds).

        Self time is a span's duration minus its direct children's; spans
        nest, so the children never overlap.
        """
        child = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for _, sid, _, name, start, end in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[sid]
        return out

    def layer_metrics(self, rounds: int, setup: dict) -> dict:
        """Every per-layer metric, per round; absent ones are left out."""
        totals = self.totals()
        span_name = {s[1]: s[3] for s in self.spans}
        under_train = sum(e - s for _, _, p, n, s, e in self.spans
                          if n == "chart.parse" and span_name.get(p) == "inference.train")
        vb = totals["inference.train"][1] - under_train - totals["inference.encode"][1]

        def calls(name):
            return totals[name][0]

        def self_s(name):
            return totals[name][2]

        def incl_s(name):
            return totals[name][1]

        c = self.counts
        m = {
            "lexicon.load_s": setup.get("lexicon.load_s"),
            "cli.import_s": setup.get("cli.import_s"),
            "chart.parse_s": self_s("chart.parse") / rounds,
            "chart.items": c["chart.items"] / rounds,
            "chart.items_per_s": _ratio(c["chart.items"], self_s("chart.parse")),
            "chart.backptrs": c["chart.backptrs"] / rounds,
            "chart.derivations": c["chart.derivations"] / rounds,
            "wellformed.calls": calls("wellformed.check") / rounds,
            "wellformed.s": self_s("wellformed.check") / rounds,
            "structure.calls": calls("structure.eval") / rounds,
            "structure.eval_s": self_s("structure.eval") / rounds,
            "model.sample_s": self_s("model.sample") / rounds,
            "model.proposals": c["model.proposals"] / rounds,
            "model.rejections": c["model.rejections"] / rounds,
            "model.accept_ratio": _ratio(c["model.accepted"], c["model.proposals"]),
            "model.score_s": self_s("model.score") / rounds,
            "inference.train_s": incl_s("inference.train") / rounds,
            "inference.parse_s": under_train / rounds,
            "inference.encode_s": incl_s("inference.encode") / rounds,
            "inference.vb_s": vb / rounds,
            "inference.iterations": c["inference.iterations"] / rounds,
            "inference.iter_ms": 1e3 * _ratio(vb, c["inference.iterations"]),
            "inference.derivations": c["inference.derivations"] / rounds,
            "numerics.log_theta_star_s": self_s("numerics.log_theta_star") / rounds,
            "numerics.estep_s": self_s("numerics.estep") / rounds,
            "numerics.dirichlet_kl_s": self_s("numerics.dirichlet_kl") / rounds,
            "numerics.estep_calls": calls("numerics.estep") / rounds,
            "corpus.json_s": self_s("corpus.json") / rounds,
        }
        return {k: v for k, v in m.items()
                if v is not None and not self.missing.intersection(_SOURCES.get(k, ()))}

    def write(self, path, header: dict) -> None:
        totals = {name: {"calls": n, "incl_s": incl, "self_s": own}
                  for name, (n, incl, own) in sorted(self.totals().items())}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "totals": totals, "counts": dict(self.counts),
                       "missing": sorted(self.missing),
                       "fields": ["op", "id", "parent", "name", "start", "end"],
                       "spans": self.spans}, fh)


# The spans and counters each metric is built from: a metric is absent
# when any of them could not be recorded.
_SOURCES = {
    "chart.parse_s": ("chart.parse",),
    "chart.items": ("chart.parse", "chart.items"),
    "chart.items_per_s": ("chart.parse", "chart.items"),
    "chart.backptrs": ("chart.parse", "chart.backptrs"),
    "chart.derivations": ("chart.parse", "chart.derivations"),
    "wellformed.calls": ("wellformed.check",),
    "wellformed.s": ("wellformed.check",),
    "structure.calls": ("structure.eval",),
    "structure.eval_s": ("structure.eval",),
    "model.sample_s": ("model.sample",),
    "model.proposals": ("model.sample", "model.proposals"),
    "model.rejections": ("model.sample", "model.rejections"),
    "model.accept_ratio": ("model.sample", "model.proposals"),
    "model.score_s": ("model.score",),
    "inference.train_s": ("inference.train",),
    "inference.parse_s": ("inference.train", "chart.parse"),
    "inference.encode_s": ("inference.encode",),
    "inference.vb_s": ("inference.train", "chart.parse", "inference.encode"),
    "inference.iterations": ("inference.train", "inference.iterations"),
    "inference.iter_ms": ("inference.train", "chart.parse", "inference.encode",
                          "inference.iterations"),
    "inference.derivations": ("inference.encode", "inference.derivations"),
    "numerics.log_theta_star_s": ("numerics.log_theta_star",),
    "numerics.estep_s": ("numerics.estep",),
    "numerics.dirichlet_kl_s": ("numerics.dirichlet_kl",),
    "numerics.estep_calls": ("numerics.estep",),
    "corpus.json_s": ("corpus.json",),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
