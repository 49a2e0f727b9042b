"""revunet benchmark: one seeded workload, measured end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`. With --trace 0 the run times operations for S seconds and reports
the end-to-end metrics. With --trace 1 it times operations untraced for
S/2 seconds, then traced for S/2 seconds, and reports the per-layer
metrics. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the full record, with the
environment stamp, goes to .perfbench/ in the checkout. See METRICS.md.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

# no bytecode is written into the checkout, so every run compiles the same way
sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3


def _pin_blas_threads():
    """Cap BLAS threads at the usable core count; must run before numpy loads."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    pinned = cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            pinned = min(pinned, int(os.environ[var]))
        except (KeyError, ValueError):
            pass
    pinned = max(pinned, 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(pinned)
    return cores, pinned


def _git_commit():
    """HEAD of the checkout, read from .git without starting a process."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _tail(values):
    """Highest percentile with at least ten samples above it; -> (value, percentile)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error("unknown workload %r; choose from %s" % (args.workload, names))
    if not os.path.isfile(os.path.join(ROOT, "src", "revunet", "__init__.py")):
        print("revunet sources not found under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    cores, pinned = _pin_blas_threads()
    started = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # numpy reads the BLAS thread variables when it is first imported
    import numpy
    import scipy

    import workloads
    import tracing
    import_s = time.perf_counter() - started

    os.makedirs(OUT, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]()
    tracer = tracing.Tracer() if args.trace else None
    timed_s = args.seconds / 2 if args.trace else args.seconds
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        setup_times = []
        for rep in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state = workload.setup(args.seed, tempfile.mkdtemp(dir=workdir))
            setup_times.append(time.perf_counter() - t0)
        durations, failed = workload.timed(state, timed_s)
        peak = workload.memory(state)
        if tracer is None:
            checks = workload.checks(state)
        else:
            untraced = durations
            tracer.install()
            try:
                tracer.op = tracing.SETUP
                workload.setup(args.seed, tempfile.mkdtemp(dir=workdir))
                durations, traced_failed = workload.timed(state, timed_s, tracer)
                tracer.op = tracing.CHECK
                checks = workload.checks(state)
            finally:
                tracer.uninstall()
            failed += traced_failed

    # each run-level check counts as one attempt, so failed <= attempted
    attempted = len(durations) + (len(untraced) if tracer else 0) + len(checks)
    failed += sum(not ok for ok in checks.values())
    p50 = statistics.median(durations)
    tail, tail_pct = _tail(durations)
    ledger = workload.ledger_peak(state)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "openblas": _openblas_version(numpy),
            "nproc": cores,
            "blas_threads": pinned,
            "git_commit": _git_commit(),
        },
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "op_samples": len(durations),
        "op_s": durations,
        "op_s.p50": p50,
        "op_s.tail": tail,
        "op_s.tail_percentile": tail_pct,
        "attempted": attempted,
        "failed": failed,
        "failed_ops.ratio": failed / attempted,
        "checks": checks,
        "loss.final": workload.loss_final(state),
        "ledger_peak_bytes": ledger,
    }
    if tracer is None:
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "op_s.p50": p50,
            "op_s.tail": tail,
            "ops_per_s": len(durations) / sum(durations),
            "peak_traced_bytes": peak,
        }
        declared = spec["end_to_end"]
    else:
        metrics = tracer.layer_metrics(durations)
        metrics["engine.ledger.peak_bytes"] = ledger
        metrics["engine.traced_over_ledger"] = peak / ledger if ledger else 0.0
        metrics["training.loss_final"] = record["loss.final"]
        metrics["trace.overhead_ratio"] = p50 / statistics.median(untraced)
        record["untraced_op_s.p50"] = statistics.median(untraced)
        record["top_self_s_per_op"] = tracer.top_self_times(len(durations))
        declared = spec["per_layer"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise RuntimeError("%s: metrics %s differ from BENCHMARK.json"
                           % (args.workload, sorted(set(metrics) ^ set(units))))
    record["metrics"] = metrics

    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=2)
    if tracer is not None:
        # one spans file per workload: a traced gradcheck run writes ~50 MB
        tracer.write_jsonl(os.path.join(OUT, "%s.spans.jsonl" % args.workload))

    print("%s seed %d: %s" % (args.workload, args.seed, json.dumps(record["environment"])))
    for name in units:
        print("%-34s %14.6g %s" % (name, metrics[name], units[name]))
    print("samples %d, tail is p%.1f, failed_ops.ratio %g, record %s"
          % (len(durations), tail_pct, failed / attempted, stem + ".json"))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def _openblas_version(numpy):
    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
