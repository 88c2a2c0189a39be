#!/usr/bin/env python3
"""Run one workload of the pdmg benchmark and print its metrics.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it needs ``src/pdmg`` and
``tests/oracle.py`` there, and nothing installed but numpy, scipy and
click.  It makes the workload's inputs from the seed and writes them
under ``perfbench/out/``, starts a few set-up-only processes to time
set-up, then one worker process (``worker.py``) that runs and checks the
workload.  Every child is single-threaded and is waited for.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The full result
(environment, rounds, latency quartiles) goes to
``perfbench/out/<workload>-seed<N>-trace<T>.json``, and a traced run's
spans to ``perfbench/out/<workload>-seed<N>.trace.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Set-up-only processes, half before the worker and half after it, so that
# the median set-up time samples two moments of the host; the worker's own
# set-up is one more sample.
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 30
WORKER_SLACK_S = 100      # time for set-up, the last round and the checks

sys.path.insert(0, str(HERE))
import inputs  # noqa: E402
import tracing  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_ref_s": "s", "op_p50_ref_ms": "ms", "peak_rss_mb": "MB"}


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list[str], timeout: float) -> tuple[float, dict]:
    """Start worker.py with ``args``; (launch clock, its last-line JSON)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:   # run() has killed and reaped it
        raise ChildFailed(f"worker {args[0]} timed out after {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"worker {args[0]} exited with {proc.returncode}")
    try:
        return launched, json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise ChildFailed(f"worker {args[0]} printed no result") from exc


def probe_setup(work: Path, n: int) -> list[dict]:
    out = []
    for _ in range(n):
        launched, info = run_child(["setup", str(work)], PROBE_TIMEOUT_S)
        out.append({**info, "setup_s": info["ready"] - launched})
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        t0 = time.perf_counter()
        spec = inputs.make_inputs(args.workload, args.seed)
        inputs.write_inputs(spec, work)
        generate_s = time.perf_counter() - t0

        setups = probe_setup(work, SETUP_PROBES // 2)
        trace_path = OUT / f"{args.workload}-seed{args.seed}.trace.json"
        launched, res = run_child(
            ["run", str(work), args.workload, str(args.seed), str(args.seconds),
             str(trace_path) if args.trace else "-"],
            args.seconds + WORKER_SLACK_S)
        setups.append({**res["setup"], "setup_s": res["setup"]["ready"] - launched})
        setups += probe_setup(work, SETUP_PROBES - SETUP_PROBES // 2)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup = {key: statistics.median(s[key] for s in setups)
             for key in ("setup_s", "cli.import_s", "lexicon.load_s")}
    if args.trace:
        layers = {**res["layers"], "cli.import_s": setup["cli.import_s"],
                  "lexicon.load_s": setup["lexicon.load_s"]}
        metrics = {k: {"value": v, "unit": tracing.UNITS[k]} for k, v in layers.items()}
        for name in res["missing"]:
            print(f"note: {name} could not be traced; metrics built on it are absent",
                  file=sys.stderr)
    else:
        values = {"setup_s": setup["setup_s"], **res}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "generate_s": generate_s,
            "setup_samples_s": [s["setup_s"] for s in setups],
            **{k: v for k, v in res.items() if k != "setup"}, "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1) + "\n", encoding="utf-8")
    print(f"{args.workload}: {res['rounds']} rounds of {res['ops_per_round']} ops, "
          f"wall_s {res['wall_s']:.4f} (ref {res['wall_ref_s']:.4f}), "
          f"op_p50_ms {res['op_p50_ms']:.3f} (ref {res['op_p50_ref_ms']:.3f}), "
          f"setup_s {setup['setup_s']:.4f}, peak_rss_mb {res['peak_rss_mb']:.1f}",
          file=sys.stderr)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
