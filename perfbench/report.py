"""Run every workload over a range of seeds and print each metric's median and quartiles.

Usage (from the repository root):

    python3 perfbench/report.py --seeds 1-10 [--trace 1]

Each run is one ``perfbench/run.py`` process with the workloads and run
length of ``BENCHMARK.json``, started the way that file's command runs.  The raw
results are appended to ``perfbench/out/set-<seeds>-trace<T>.jsonl``; the
summary gives, per workload, the runs made, the operations attempted and
failed, and for every metric its unit, median, first and third quartile and
the quartile spread as a share of the median.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_all(workloads, seeds, seconds, trace, out_path: Path) -> None:
    out_path.parent.mkdir(exist_ok=True)
    with out_path.open("a") as out:
        for workload in workloads:
            for seed in seeds:
                cmd = [
                    sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                ]
                start = time.monotonic()
                done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=False)
                lines = done.stdout.strip().splitlines()
                record = {
                    "workload": workload,
                    "seed": seed,
                    "exit": done.returncode,
                    "elapsed_s": time.monotonic() - start,
                    "result": json.loads(lines[-1]) if lines else None,
                }
                out.write(json.dumps(record) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: exit {done.returncode}, {record['elapsed_s']:.1f} s", file=sys.stderr)
                if done.returncode != 0:
                    print(done.stderr, file=sys.stderr)


def summarize(path: Path) -> str:
    by_workload = defaultdict(list)
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record["result"] is not None:
            by_workload[record["workload"]].append(record)
    out = []
    for workload, records in by_workload.items():
        results = [r["result"] for r in records]
        out.append(
            f"\n{workload}: {len(records)} runs, seeds {records[0]['seed']}-{records[-1]['seed']}, "
            f"all correct: {all(r['correct'] for r in results)}, "
            f"attempted {sum(r['attempted'] for r in results)}, failed {sum(r['failed'] for r in results)}, "
            f"longest run {max(r['elapsed_s'] for r in records):.1f} s\n"
        )
        out.append("| metric | unit | median | Q1 | Q3 | (Q3-Q1)/median |")
        out.append("| --- | --- | ---: | ---: | ---: | ---: |")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            out.append(
                f"| {name} | {first['unit']} | {median:.4g} | {q1:.4g} | {q3:.4g} | {spread:.3f} |"
            )
    return "\n".join(out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    out_path = HERE / "out" / f"set-{args.seeds}-trace{args.trace}.jsonl"
    run_all(workloads, seed_range(args.seeds), spec["run_seconds"], args.trace, out_path)
    print(summarize(out_path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
