"""Benchmark of avwc: bounds and code-pipeline layers, checked against oracles.

Usage (from the repository root):

    python3 perfbench/run.py --workload bounds-s2 --seed 1 --seconds 30 --trace 0

One run prepares the workload's inputs from ``--seed``, then repeats whole
rounds of the workload's operations for about ``--seconds`` seconds in this
single process, timing each library call from outside.  With ``--trace 0``
it prints the end-to-end metrics (medians over rounds), with ``--trace 1``
the per-layer metrics from wrapped library functions.  The first round's
results are checked against the references in ``oracles.py`` and every later
round must reproduce them exactly.  The last line of standard output is one
JSON object; details and the trace go to ``perfbench/out/``.
"""

import os

# One BLAS/OpenMP thread: the work is single-threaded Python and numpy on tiny
# matrices, and extra threads only add run-to-run noise.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 9  # timed set-up processes per run, after one warm-up
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="import and prepare the inputs, print the monotonic clock, exit",
    )
    return parser.parse_args(argv)


def check_layout() -> None:
    missing = [p for p in ("src/avwc/__init__.py", "sample_specs") if not (ROOT / p).exists()]
    if missing:
        sys.exit(f"perfbench: run from a checkout of avwc; missing {', '.join(missing)}")


def setup_seconds(args) -> list[float]:
    """Process start to prepared inputs, in fresh interpreters (one warm-up first)."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
    ]
    # A fresh interpreter that is moved between CPUs while it loads takes up
    # to half again as long; starting every probe on one CPU makes it repeat.
    cpu = min(os.sched_getaffinity(0))
    times = []
    for _ in range(SETUP_PROBES + 1):
        start = time.monotonic()
        done = subprocess.run(
            cmd,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=False,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]) - start)
    return times[1:]


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    check_layout()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    if args.setup_only:
        workloads.prepare(args.workload, args.seed)
        print(time.monotonic())
        return 0

    setup_runs = setup_seconds(args) if args.trace == 0 else []

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    prep = workloads.prepare(args.workload, args.seed)
    setup_bucket = tracer.new_bucket() if tracer else None

    rounds, buckets = [], []
    first_results, fingerprints = None, []
    start = time.perf_counter()
    while True:
        # Start every round from the same collector state, so that the
        # garbage collector's passes fall at the same points in each round.
        gc.collect()
        rnd = workloads.run_round(prep)
        if tracer:
            buckets.append(tracer.new_bucket())
        if first_results is None:
            first_results = rnd.results
        fingerprints.append(workloads.fingerprint(rnd.results))
        rnd.results = None
        rounds.append(rnd)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import oracles

    check_start = time.perf_counter()
    problems = oracles.check(prep, first_results)
    if any(fp != fingerprints[0] for fp in fingerprints[1:]):
        problems.append("results differ between rounds of one run")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    # failed operations are counted in "failed"; "correct" speaks of the rest
    op_errors = [error for rnd in rounds for error in rnd.errors]
    for error in op_errors:
        print(f"operation failed: {error}", file=sys.stderr)
    check_s = time.perf_counter() - check_start

    median = statistics.median
    if tracer:
        layers = tracing.layer_metrics(setup_bucket, buckets, median)
        layers["traced.wall_s"] = (median([r.wall for r in rounds]), "s")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        metrics = {
            "wall_s": {"value": median([r.wall for r in rounds]), "unit": "s"},
            "setup_s": {"value": median(setup_runs), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
        for name in workloads.END_TO_END_OPS:
            metrics[name] = {"value": median([r.seconds[name] for r in rounds]), "unit": "s"}

    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": [
            {"wall_s": r.wall, "attempted": r.attempted, "failed": r.failed, **r.seconds}
            for r in rounds
        ],
        "setup_runs_s": setup_runs,
        "check_s": check_s,
        "problems": problems,
        "operation_errors": op_errors,
        "result": result,
    }
    if tracer:
        detail["spans"] = [
            {"id": i, "parent": p, "name": n, "start_s": s, "end_s": e}
            for i, p, n, s, e in tracer.spans
        ]
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
