"""The three benchmark workloads: inputs from the seed, set-up, rounds and output checks.

Every workload is a closed loop with one client: an operation starts only
when the previous one has returned.  A round is the user's batch workflow
after set-up: ``build-knowledge`` into an empty cache directory, an ``eval``
right after it (the cold pass), a second ``eval`` and a seed-chosen sample
of ``explain --counterfactual`` calls (the warm pass).  On ``train-desk``
the round also retrains through ``run_pipeline``; on the other two the model
is trained in set-up.  The workloads differ in their inputs, so that
different layers dominate.
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
import string
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tbvad.cli as cli
import tbvad.evaluation as evaluation
import tbvad.synthetic as synthetic
from tbvad.classifier import model_digest, save_model
from tbvad.corpus import CaptionCorpus, save_captions
from tbvad.evaluation import make_pipeline_config, run_pipeline
from tbvad.knowledge import ASPECTS
from tbvad.reasoning import MARGIN_SUM_TOL, ExplanationRecord

NPROC = len(os.sched_getaffinity(0))

# The frozen criterion-5 configuration (hash embedder d=64, 2 layers, 4
# heads, d_latent 32, K=8, batch 16, l2 1e-3); only the epoch count varies.
CRITERION5 = dict(d=64, seed=1, learning_rate=0.25, batch_size=16, k_frames=8,
                  num_layers=2, num_heads=4, d_latent=32, l2_weight=1e-3)


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload."""

    name: str
    n_train: int
    n_heldout: int
    epochs: int
    explains: int
    knowledge_builds: int
    warm_evals: int
    train_in_round: bool = False
    remote: bool = False
    normal_words: int = 0
    anomaly_words: int = 0


SPECS = {
    spec.name: spec for spec in (
        Spec("train-desk", n_train=200, n_heldout=100, epochs=3, explains=16,
             knowledge_builds=2, warm_evals=2, train_in_round=True),
        Spec("score-explain", n_train=200, n_heldout=300, epochs=3, explains=40,
             knowledge_builds=2, warm_evals=1),
        Spec("remote-embed", n_train=200, n_heldout=100, epochs=3, explains=20,
             knowledge_builds=2, warm_evals=1, remote=True, normal_words=240, anomaly_words=8),
    )
}


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Ops:
    """Runs operations one at a time, timing each and counting failures."""

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.attempted = 0
        self.errors: list[str] = []
        self.seconds: dict[str, list[float]] = defaultdict(list)

    def run(self, kind: str, fn, after=None):
        """Time ``fn()``; ``after(result)`` checks it untimed.  Returns the result or None."""
        self.attempted += 1
        if self.recorder is not None:
            self.recorder.op = self.attempted
        try:
            start = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - start
            if after is not None:
                after(result)
        except Exception as e:  # a failed operation is counted and the loop goes on
            self.errors.append(f"{kind}: {type(e).__name__}: {e}")
            return None
        self.seconds[kind].append(elapsed)
        return result


class ScoreTap:
    """Keeps the per-video scores of the last eval, by wrapping ``score_corpus``.

    This is an output check, not tracing: one extra call per eval.
    """

    def __init__(self):
        self.scores: list[float] | None = None
        self._original = evaluation.score_corpus

    def __enter__(self):
        def tapped(*args, **kwargs):
            scores, labels = self._original(*args, **kwargs)
            self.scores = list(scores)
            return scores, labels

        evaluation.score_corpus = tapped
        return self

    def __exit__(self, *exc):
        evaluation.score_corpus = self._original
        return False

    def take(self) -> list[float]:
        scores, self.scores = self.scores, None
        check(scores is not None, "eval produced no scores")
        return scores


def tbvad(*argv) -> str:
    """Run ``tbvad.cli.main`` in-process; returns stdout, raises on a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"tbvad {argv[0]} exited {code}: {err.getvalue().strip()[-300:]}")
    return out.getvalue()


def _words(rng: random.Random, n: int, taken: set[str]) -> tuple[str, ...]:
    words = []
    while len(words) < n:
        word = "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(5, 9)))
        if word not in taken:
            taken.add(word)
            words.append(word)
    return tuple(words)


def pools(seed: int, n_normal: int, n_anomaly: int) -> tuple[dict, dict]:
    """Seed-drawn normal and anomaly word pools of made-up words, per aspect."""
    rng = random.Random(seed)
    taken: set[str] = set()
    normal = {aspect: _words(rng, n_normal, taken) for aspect in ASPECTS}
    anomaly = {aspect: _words(rng, n_anomaly, taken) for aspect in ASPECTS}
    return normal, anomaly


def cli_config(spec: Spec, cache_dir: Path, endpoint: str | None) -> dict:
    """The criterion-5 configuration as a ``--config`` file for the CLI."""
    cfg = {
        "seed": CRITERION5["seed"],
        "k_frames": CRITERION5["k_frames"],
        "embedder": {"d": CRITERION5["d"], "cache_dir": str(cache_dir), "max_parallel": NPROC},
        "encoder": {"num_layers": CRITERION5["num_layers"], "num_heads": CRITERION5["num_heads"],
                    "d_latent": CRITERION5["d_latent"], "ff_multiple": 4},
        "train": {"learning_rate": CRITERION5["learning_rate"], "epochs": spec.epochs,
                  "batch_size": CRITERION5["batch_size"], "l2_weight": CRITERION5["l2_weight"]},
    }
    if endpoint:
        cfg["endpoints"] = {"embed": endpoint}
    return cfg


def write_config(path: Path, spec: Spec, cache_dir: Path, endpoint: str | None) -> Path:
    path.write_text(json.dumps(cli_config(spec, cache_dir, endpoint)), encoding="utf-8")
    return path


@dataclass
class State:
    """What set-up leaves for the rounds."""

    dir: Path
    train_path: Path
    heldout_path: Path
    train_corpus: CaptionCorpus
    heldout_ids: list[str]
    explain_ids: list[str]
    model_path: Path | None = None


class Workload:
    """One named workload bound to a seed and, for remote-embed, a stub endpoint."""

    def __init__(self, spec: Spec, seed: int, endpoint: str | None = None):
        self.spec = spec
        self.seed = seed
        self.endpoint = endpoint
        self.auc: float | None = None
        self.scores: dict[str, float] = {}
        # The first output of each kind is the reference every later one must equal.
        self.reference: dict = {}

    def _same(self, key: str, value) -> None:
        """The first value seen under ``key`` is the reference for every later one."""
        ref = self.reference.setdefault(key, value)
        check(ref == value, f"{key} differs from the first run's")

    def setup(self, work_dir: Path, ops: Ops) -> State:
        spec = self.spec
        work_dir.mkdir(parents=True)
        extra = {}
        if spec.remote:
            normal, anomaly = pools(self.seed, spec.normal_words, spec.anomaly_words)
            extra = {"normal_pools": normal, "anomaly_pools": anomaly}
        train, _ = synthetic.generate_corpus(synthetic.SyntheticConfig(
            n_videos=spec.n_train, seed=2 * self.seed, source_tag="bench-train", **extra))
        heldout, _ = synthetic.generate_corpus(synthetic.SyntheticConfig(
            n_videos=spec.n_heldout, seed=2 * self.seed + 1, source_tag="bench-heldout", **extra))
        train_path, heldout_path = work_dir / "train.jsonl", work_dir / "heldout.jsonl"
        save_captions(train, train_path)
        save_captions(heldout, heldout_path)
        heldout_ids = [v.video_id for v in heldout.videos]
        explain_ids = random.Random(self.seed).sample(heldout_ids, spec.explains)
        state = State(work_dir, train_path, heldout_path, train, heldout_ids, explain_ids)
        if not spec.train_in_round:
            config = write_config(work_dir / "setup.json", spec, work_dir / "setup-cache", self.endpoint)
            kb, model = work_dir / "kb.json", work_dir / "model.tbvm"
            ops.run("setup-knowledge", lambda: tbvad(
                "build-knowledge", "--config", config, "--captions", train_path,
                "--out", kb, "--extractive"))
            ops.run("train", lambda: tbvad(
                "train", "--config", config, "--captions", train_path,
                "--knowledge", kb, "--out", model),
                after=lambda out: self._same("model digest", json.loads(out)["digest"]))
            state.model_path = model
        return state

    def round(self, state: State, ops: Ops, index: int, tap: ScoreTap) -> None:
        spec = self.spec
        rdir = state.dir / f"round-{index}"
        rdir.mkdir()
        # Every build starts from an empty cache directory; the last one serves the evals.
        for i in range(spec.knowledge_builds):
            config = write_config(rdir / f"config-{i}.json", spec, rdir / f"cache-{i}", self.endpoint)
            kb = rdir / f"kb-{i}.json"
            ops.run("knowledge", lambda: tbvad(
                "build-knowledge", "--config", config, "--captions", state.train_path,
                "--out", kb, "--extractive"),
                after=lambda out: self._same("knowledge digest", json.loads(out)["digest"]))

        model = state.model_path
        if spec.train_in_round:
            model = rdir / "model.tbvm"
            pipeline = make_pipeline_config(epochs=spec.epochs, **CRITERION5)

            def saved(result):
                save_model(result[1], model)
                self._same("model digest", model_digest(result[1]))

            ops.run("train", lambda: run_pipeline(state.train_corpus, pipeline), after=saved)

        def evaluate(kind: str):
            out = rdir / f"{kind}.json"
            ops.run(kind, lambda: tbvad(
                "eval", "--config", config, "--captions", state.heldout_path,
                "--knowledge", kb, "--model", model, "--out", out),
                after=lambda stdout: self._check_eval(kind, stdout, tap.take(), state))

        evaluate("eval-cold")
        for _ in range(spec.warm_evals):
            evaluate("eval")
        for video_id in state.explain_ids:
            ops.run("explain", lambda: tbvad(
                "explain", "--config", config, "--captions", state.heldout_path,
                "--knowledge", kb, "--model", model, "--video-id", video_id,
                "--counterfactual", "--out", rdir / "record.json"),
                after=lambda stdout: self._check_record(stdout, video_id))
        shutil.rmtree(rdir)

    def _check_eval(self, kind: str, stdout: str, scores: list[float], state: State) -> None:
        report = json.loads(stdout)
        check(report["n_pos"] + report["n_neg"] == self.spec.n_heldout,
              f"{kind} report counts {report['n_pos']} + {report['n_neg']} videos, "
              f"expected {self.spec.n_heldout}")
        check(len(scores) == self.spec.n_heldout, f"{kind} scored {len(scores)} videos")
        # Both name paths of this set-up or round: the input file and the cache directory.
        report.pop("dataset_tag")
        report.pop("config_digest")
        # Scores are compared bit for bit: warm (cache reads) against cold
        # (fresh fetches), and every round against the first.
        self._same("eval scores", np.asarray(scores, dtype=np.float64).tobytes())
        self._same("eval report", report)
        self.auc = report["auc"]
        self.scores = dict(zip(state.heldout_ids, scores))

    def _check_record(self, stdout: str, video_id: str) -> None:
        line = stdout.strip()
        raw = json.loads(line)
        record = ExplanationRecord.from_dict(raw)
        check(record.to_json() == line, "explain record does not re-serialize byte-identically")
        check(record.video_id == video_id, f"explained {record.video_id}, asked for {video_id}")
        check(abs(sum(record.slot_weights.values()) - 1.0) <= 1e-6, "slot weights do not sum to 1")
        check(record.score == self.scores.get(video_id), "explain score differs from the eval score")
        check(bool(record.margins), "counterfactual margins missing")
        check(abs(sum(record.margins.values())) <= MARGIN_SUM_TOL, "margins do not sum to 0")
        self._same(f"record {video_id}", line)
