"""tbvad benchmark: ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``.

Run from the repository root.  It prints one JSON line of provenance and
details, then the result as the last line of stdout:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured with no instrumentation.  With
``--trace 1`` the run first measures untraced rounds for half the time, then
wraps the program's modules (see ``spans.py``) and repeats set-up and rounds
for the other half; it reports the per-module metrics and the tracing
overhead.  Scratch files go to ``.perfbench_work/`` under the root.
"""

import os

# Fix the BLAS thread count before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in ("TBVAD_CACHE_DIR", "TBVAD_HTTP_TIMEOUT_MS"):
    os.environ.pop(_var, None)

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from contextlib import ExitStack
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3


class Stub:
    """The embedding stub service, as a child process for the length of the run."""

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "stub.py")],
                                     stdout=subprocess.PIPE, text=True)
        port = self.proc.stdout.readline().strip()
        if not port.isdigit():
            self.__exit__(None, None, None)
            raise RuntimeError("embedding stub did not start")
        self.endpoint = f"http://127.0.0.1:{port}"
        return self

    def stats(self) -> dict:
        with urllib.request.urlopen(self.endpoint + "/stats", timeout=10) as resp:
            return json.loads(resp.read())

    def __exit__(self, *exc):
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        return False


def _delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


def provenance(args, nproc: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "tbvad").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": nproc, "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": blas_version, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": commit, "source_sha256": source.hexdigest(),
    }


def run_rounds(workload, state, ops, tap, seconds: float, min_rounds: int) -> int:
    """Closed loop of whole rounds: at least ``min_rounds``, then more while the
    next one, at the mean round time so far, still ends within ``seconds``."""
    start = time.perf_counter()
    done = 0
    while True:
        elapsed = time.perf_counter() - start
        if done >= min_rounds and elapsed + elapsed / done > seconds:
            return done
        workload.round(state, ops, done, tap)
        done += 1


def timed_setup(workload, work_dir: Path, ops):
    start = time.perf_counter()
    state = workload.setup(work_dir, ops)
    return state, time.perf_counter() - start


def end_to_end(spec, ops, setup_seconds: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics of one phase, plus how the tail was taken."""
    med = statistics.median
    explains = sorted(ops.seconds["explain"])
    n = len(explains)
    if n < 11:
        raise RuntimeError(f"only {n} explain samples; the tail needs at least 11")
    metrics = {
        "setup_s": med(setup_seconds),
        "train_videos_per_s": med(spec.epochs * spec.n_train / s for s in ops.seconds["train"]),
        "eval_videos_per_s": med(spec.n_heldout / s for s in ops.seconds["eval"]),
        "cold_eval_videos_per_s": med(spec.n_heldout / s for s in ops.seconds["eval-cold"]),
        "knowledge_build_s": med(ops.seconds["knowledge"]),
        "explain_per_s": n / sum(explains),
        "explain_ms_p50": 1000.0 * med(explains),
        # The highest percentile with ten samples beyond it.
        "explain_ms_tail": 1000.0 * explains[n - 11],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"explain_tail_percentile": 100.0 * (n - 10) / n, "explain_samples": n}


# Relative slowdown under tracing: rates compare untraced/traced, times traced/untraced.
OVERHEAD_RATES = ("train_videos_per_s", "cold_eval_videos_per_s", "eval_videos_per_s", "explain_per_s")
OVERHEAD_TIMES = ("knowledge_build_s", "explain_ms_p50")


def measure(workload, run_dir: Path, tap, seconds: float):
    from workloads import Ops

    ops = Ops()
    setups = []
    for i in range(SETUP_REPEATS):
        state, elapsed = timed_setup(workload, run_dir / f"setup-{i}", ops)
        setups.append(elapsed)
    rounds = run_rounds(workload, state, ops, tap, seconds, min_rounds=2)
    metrics, details = end_to_end(workload.spec, ops, setups)
    details["rounds"] = rounds
    details["samples"] = {kind: [round(s, 6) for s in values] for kind, values in ops.seconds.items()}
    return metrics, details, [ops]


def measure_traced(workload, run_dir: Path, tap, seconds: float, stub):
    from spans import Instrumentation, SpanRecorder, layer_metrics, per_cycle, span_totals
    from workloads import Ops

    recorder = SpanRecorder()
    plain, traced = Ops(), Ops(recorder)
    state, setup_plain = timed_setup(workload, run_dir / "plain", plain)
    rounds_plain = run_rounds(workload, state, plain, tap, seconds / 2, min_rounds=1)
    untraced, _ = end_to_end(workload.spec, plain, [setup_plain])

    stub_stats = [stub.stats()] if stub else []
    with Instrumentation(recorder):
        state, setup_traced = timed_setup(workload, run_dir / "traced", traced)
        if stub:
            stub_stats.append(stub.stats())
        recorder.phase = "round"
        rounds = run_rounds(workload, state, traced, tap, seconds / 2, min_rounds=1)
        if stub:
            stub_stats.append(stub.stats())
    with_trace, _ = end_to_end(workload.spec, traced, [setup_traced])

    stub_setup = _delta(stub_stats[1], stub_stats[0]) if stub else None
    stub_rounds = _delta(stub_stats[2], stub_stats[1]) if stub else None
    metrics = layer_metrics(per_cycle(span_totals(recorder.spans), rounds, stub_setup, stub_rounds))
    for name in OVERHEAD_RATES:
        metrics[f"trace.overhead.{name}"] = untraced[name] / with_trace[name] - 1.0
    for name in OVERHEAD_TIMES:
        metrics[f"trace.overhead.{name}"] = with_trace[name] / untraced[name] - 1.0
    recorder.dump(WORK / f"spans-{workload.spec.name}-{workload.seed}.jsonl")
    details = {"rounds_untraced": rounds_plain, "rounds_traced": rounds, "spans": len(recorder.spans),
               "untraced": untraced, "traced": with_trace}
    return metrics, details, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tbvad" / "__init__.py").is_file():
        print(f"error: the tbvad sources are missing ({SRC / 'tbvad'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import NPROC, SPECS, ScoreTap, Workload

    if args.workload not in SPECS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(SPECS)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    spec = SPECS[args.workload]
    prov = provenance(args, NPROC)
    run_dir = WORK / f"{spec.name}-{args.seed}-{os.getpid()}"
    with ExitStack() as stack:
        stack.callback(shutil.rmtree, run_dir, ignore_errors=True)
        stub = stack.enter_context(Stub()) if spec.remote else None
        workload = Workload(spec, args.seed, stub.endpoint if stub else None)
        tap = stack.enter_context(ScoreTap())
        if args.trace:
            metrics, details, all_ops = measure_traced(workload, run_dir, tap, args.seconds, stub)
        else:
            metrics, details, all_ops = measure(workload, run_dir, tap, args.seconds)

    if set(metrics) != set(units):
        print(f"error: measured metrics {sorted(set(metrics) ^ set(units))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    attempted = sum(ops.attempted for ops in all_ops)
    errors = [e for ops in all_ops for e in ops.errors]
    # Held-out AUC is deterministic for a code version and seed, and every
    # eval in the run must agree on it; across seeds it varies too much to be
    # a bounded metric, so it is reported here.
    details["heldout_auc"] = workload.auc
    details["failed_op_ratio"] = len(errors) / attempted
    details["errors"] = errors[:10]
    print(json.dumps({"provenance": prov, "details": details}, sort_keys=True))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
