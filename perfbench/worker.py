"""One workload process: set up, run whole rounds of operations, check.

    python3 perfbench/worker.py setup DIR
    python3 perfbench/worker.py run DIR WORKLOAD SEED SECONDS TRACE_PATH|-

``setup`` imports pdmg and pdmg.cli and loads the lexicon, corpus and
theta in DIR through pdmg, then prints the monotonic clock reading at
which it was ready, so that the parent can time set-up from the moment it
started the process.  ``run`` does the same set-up, then repeats a round
of operations (a fixed list made from the seed) until SECONDS have
passed, timing each operation and each round.  It checks every output of
the first round against values computed apart from pdmg, and every later
round against the first.  Either mode prints one JSON object as its last
line.  A TRACE_PATH other than ``-`` turns on tracing and names the file
the spans are written to.
"""

import os
import sys
import time


def setup(directory):
    t0 = time.monotonic()
    import pdmg
    import pdmg.cli  # noqa: F401  (part of what a command-line user loads)
    from pdmg.corpus import load_corpus
    t1 = time.monotonic()
    lexicon = pdmg.load_lexicon(f"{directory}/lexicon.lex")
    t2 = time.monotonic()
    corpus_path = f"{directory}/corpus.txt"
    sentences = load_corpus(corpus_path) if os.path.exists(corpus_path) else []
    theta_path = f"{directory}/theta.json"
    theta = (pdmg.load_theta(theta_path, lexicon) if os.path.exists(theta_path)
             else pdmg.uniform_theta(lexicon))
    ready = time.monotonic()
    return (lexicon, sentences, theta), {
        "ready": ready, "cli.import_s": t1 - t0, "lexicon.load_s": t2 - t1}


def main(argv):
    mode, directory = argv[0], argv[1]
    loaded, info = setup(directory)
    import json
    if mode == "setup":
        print(json.dumps(info))
        return 0
    workload, seed, seconds, trace_path = argv[2], int(argv[3]), float(argv[4]), argv[5]

    import resource
    import statistics
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import calibrate
    import inputs
    import tracing
    import workloads

    spec = inputs.make_inputs(workload, seed)
    tracer = tracing.Tracer() if trace_path != "-" else None
    api = tracer.install() if tracer else tracing.plain_api()
    job = workloads.JOBS[workload](api, spec, *loaded)

    latencies, round_s, loop_samples = [], [], []
    attempted = failed = 0
    first = None
    correct = True
    begin = time.perf_counter()
    last_loop = -calibrate.EVERY_S
    while True:
        ops = job.round_ops()
        if tracer:
            ops = [tracer.wrap_op(f"op.{workload}", op) for op in ops]
        results = []
        r0 = time.perf_counter()
        for op in ops:
            if time.perf_counter() - last_loop >= calibrate.EVERY_S:
                loop_samples.append((len(latencies), calibrate.time_loop()))
                last_loop = time.perf_counter()
            t0 = time.perf_counter()
            try:
                result = op()
            except Exception as exc:  # a failed operation is counted, not fatal
                result = exc
                failed += 1
            latencies.append(time.perf_counter() - t0)
            results.append(result)
        round_s.append(time.perf_counter() - r0)
        attempted += len(ops)
        if first is None:
            first, want = results, [job.digest(r) for r in results]
        elif [job.digest(r) for r in results] != want:
            correct = False
        if time.perf_counter() - begin >= seconds:
            break
    loop_samples.append((len(latencies), calibrate.time_loop()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = job.check(first)
    if problems:
        correct = False
        for p in problems[:10]:
            print(f"check failed: {p}", file=sys.stderr)
    for r in first:
        if isinstance(r, Exception):
            print(f"operation failed: {type(r).__name__}: {r}", file=sys.stderr)

    numerics = sys.modules.get("pdmg.numerics")
    # Times are means over the run's rounds, since a median would jump
    # from one host speed level to another; the *_ref metrics are the same
    # times scaled to the reference speed (calibrate.py).
    def summarize(lat):
        rounds = [lat[i:i + len(ops)] for i in range(0, len(lat), len(ops))]
        per_op = [statistics.fmean(col) for col in zip(*rounds)]
        return statistics.fmean(sum(r) for r in rounds), 1e3 * statistics.median(per_op)

    wall_s, op_p50_ms = summarize(latencies)
    wall_ref_s, op_p50_ref_ms = summarize(calibrate.scale(latencies, loop_samples))
    loops = [s for _, s in loop_samples]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "rounds": len(round_s),
        "ops_per_round": attempted // len(round_s),
        "wall_s": wall_s,
        "op_p50_ms": op_p50_ms,
        "wall_ref_s": wall_ref_s,
        "op_p50_ref_ms": op_p50_ref_ms,
        "loop_s": {"samples": len(loops), "median": statistics.median(loops),
                   "min": min(loops), "max": max(loops)},
        "round_s": round_s,
        "op_quartiles_ms": ([1e3 * v for v in statistics.quantiles(latencies, n=4)]
                            if len(latencies) > 1 else None),
        "peak_rss_mb": peak_rss_mb,
        "setup": info,
        "job": job.summary(first),
        "env": {
            "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": sys.modules["numpy"].__version__,
            "using_numba": getattr(numerics, "USING_NUMBA", None),
        },
    }
    if tracer:
        result["layers"] = tracer.layer_metrics(len(round_s), info)
        result["missing"] = sorted(tracer.missing)
        tracer.write(trace_path, {"workload": workload, "seed": seed,
                                  "rounds": len(round_s)})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
