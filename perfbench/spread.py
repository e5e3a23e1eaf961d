"""Run-to-run spread of the end-to-end metrics, against the bounds in BENCHMARK.json.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds S] [--out FILE]

Runs the benchmark once per seed, one run at a time, and prints per metric
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
interquartile range as a share of the median, next to a third of the
metric's bound.  ``--out`` also writes every run's result as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for seed in seeds(args.seeds):
        argv = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "details": json.loads(lines[-2]), "result": result})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}",
              file=sys.stderr)

    worst = 0.0
    print(f"{'metric':26} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound/3':>8}")
    for metric in bench["end_to_end"]:
        values = [run["result"]["metrics"][metric["name"]]["value"] for run in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        if metric["name"] != "setup_s":
            worst = max(worst, spread / metric["bound"])
        print(f"{metric['name']:26} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} {metric['bound'] / 3:8.4f}")
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
