"""Span recorder and per-module instrumentation for the traced benchmark run.

The program has no spans of its own, so the traced run wraps the public
functions of each ``tbvad`` module at the name its caller looks up (a
function imported into ``tbvad.cli`` is wrapped as ``tbvad.cli.<name>``).
Each call becomes a span holding its name, start, end, parent span,
operation id, phase ("setup" or "round") and a few counts taken at the same
boundary.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import defaultdict


class SpanRecorder:
    """In-memory spans: ``[name, start, end, parent, op, phase, counts]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self.phase = "setup"
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A worker thread (the remote embedder's fetch pool) is caused by
            # the span the main thread holds open while it waits for the pool.
            main = self._main_stack
            parent = main[-1] if main else None
        with self._lock:
            sid = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, self.op, self.phase, None])
        stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn, counts=None):
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if counts is not None:
                self.spans[sid][6] = counts(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _encoder_flops(rows: int, params) -> int:
    """Matmul FLOPs of one encoder_forward call, computed from shapes."""
    d, d_ff = params.d_model, params.d_ff
    per_layer = 8 * rows * d * d + 4 * rows * rows * d + 4 * rows * d * d_ff
    return params.num_layers * per_layer


def _forward_counts(args, result):
    rows = args[0].shape[0]
    return {"rows": rows, "flops": _encoder_flops(rows, args[2])}


def _backward_counts(args, result):
    # Every forward matmul has two gradient matmuls of the same size.
    return {"flops": 2 * _encoder_flops(args[0].shape[0], args[2])}


# (module, attribute, span name, counts) for every wrapped call site.
PATCHES = [
    ("tbvad.cli", "main", "cli.main", None),
    ("tbvad.cli", "load_captions", "corpus.load_captions",
     lambda a, r: {"captions": sum(len(v.captions) for v in r.videos)}),
    ("tbvad.classifier", "make_embedder", "embedding.make_embedder", None),
    ("tbvad.knowledge", "make_embedder", "embedding.make_embedder", None),
    ("tbvad.embedding", "make_embedder", "embedding.make_embedder", None),
    ("tbvad.embedding.HashEmbedder", "embed_tokens", "embedding.embed_tokens",
     lambda a, r: {"tokens": r.t}),
    ("tbvad.embedding.RemoteEmbedder", "embed_tokens", "embedding.embed_tokens",
     lambda a, r: {"tokens": r.t}),
    ("tbvad.embedding.RemoteEmbedder", "embed_texts", "embedding.embed_texts", None),
    ("tbvad.embedding", "post_json", "remote.post_json", None),
    ("tbvad.knowledge", "post_json", "remote.post_json", None),
    ("tbvad.remote.VectorCache", "get", "remote.cache.get",
     lambda a, r: {"hits": int(r is not None)}),
    ("tbvad.remote.VectorCache", "put", "remote.cache.put", None),
    ("tbvad.cli", "build_knowledge", "knowledge.build", None),
    ("tbvad.evaluation", "build_knowledge", "knowledge.build", None),
    ("tbvad.knowledge", "summarize_aspect", "knowledge.summarize", None),
    ("tbvad.cli", "load_knowledge", "knowledge.load", None),
    ("tbvad.classifier", "knowledge_mean_embedding", "knowledge.mean_embedding", None),
    ("tbvad.classifier", "encoder_forward", "encoder.forward", _forward_counts),
    ("tbvad.classifier", "encoder_backward", "encoder.backward", _backward_counts),
    ("tbvad.encoder", "gelu", "encoder.gelu", None),
    ("tbvad.encoder", "gelu_grad", "encoder.gelu_grad", None),
    ("tbvad.encoder", "layer_norm", "encoder.layer_norm", None),
    ("tbvad.encoder", "layer_norm_backward", "encoder.layer_norm", None),
    ("tbvad.encoder", "sinusoidal_positions", "encoder.positions", None),
    ("tbvad.cli", "train", "classifier.train", None),
    ("tbvad.evaluation", "train", "classifier.train", None),
    ("tbvad.classifier", "video_features", "classifier.video_features", None),
    ("tbvad.classifier", "sgd_update", "classifier.sgd_update", None),
    ("tbvad.classifier", "batch_loss_and_grads", "classifier.batch_loss_and_grads",
     lambda a, r: {"videos": len(a[1])}),
    ("tbvad.cli", "predict_video", "classifier.predict_video", None),
    ("tbvad.evaluation", "predict_video", "classifier.predict_video", None),
    ("tbvad.classifier", "knowledge_inputs", "classifier.knowledge_inputs", None),
    ("tbvad.cli", "load_model", "classifier.load_model", None),
    ("tbvad.cli", "model_digest", "classifier.model_digest", None),
    ("tbvad.classifier", "importance_forward", "reasoning.importance_forward", None),
    ("tbvad.classifier", "importance_backward", "reasoning.importance_backward", None),
    ("tbvad.cli", "slot_attention", "reasoning.slot_attention", None),
    ("tbvad.reasoning", "slot_attention", "reasoning.slot_attention", None),
    ("tbvad.cli", "slot_importance", "reasoning.slot_importance", None),
    ("tbvad.reasoning", "slot_importance", "reasoning.slot_importance", None),
    ("tbvad.cli", "retrieve_evidence", "reasoning.retrieve_evidence", None),
    ("tbvad.reasoning", "cosine_similarity", "reasoning.cosine", None),
    ("tbvad.cli", "counterfactual_margins", "reasoning.counterfactual", None),
    ("tbvad.cli", "build_record", "reasoning.record", None),
    ("tbvad.cli", "attach_rationale", "reasoning.record", None),
    ("tbvad.cli", "evaluate_model", "evaluation.evaluate_model", None),
    ("tbvad.evaluation", "roc_auc", "evaluation.rank_metrics", None),
    ("tbvad.evaluation", "average_precision", "evaluation.rank_metrics", None),
    ("tbvad.synthetic", "generate_corpus", "synthetic.generate", None),
]


def _resolve(path: str):
    """Import ``a.b`` or ``a.b.Class`` and return the module or class."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Instrumentation:
    """Installs the span wrappers of ``PATCHES`` and removes them again."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._originals: list[tuple[object, str, object]] = []

    def __enter__(self):
        for owner_path, attr, name, counts in PATCHES:
            owner = _resolve(owner_path)
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self.recorder.wrap(name, original, counts))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()
        return False


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def span_totals(spans: list[list]) -> dict[str, dict[str, dict[str, float]]]:
    """Per phase and span name: calls, seconds, self seconds and summed counts.

    Self time is a span's duration minus the part of it that its child
    spans cover.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, op, phase, counts in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, dict[str, dict[str, float]]] = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
    for sid, (name, start, end, parent, op, phase, counts) in enumerate(spans):
        row = out[phase][name]
        dur = end - start
        row["calls"] += 1
        row["s"] += dur
        row["self_s"] += dur - _covered(children.get(sid, []))
        for key, value in (counts or {}).items():
            row[key] += value
    return out


def per_cycle(totals, n_rounds: int, stub_setup=None, stub_rounds=None) -> dict[str, dict[str, float]]:
    """Combine phases into one cycle: the traced set-up plus one mean round."""
    cycle: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for phase, scale in (("setup", 1.0), ("round", 1.0 / n_rounds)):
        for name, row in totals.get(phase, {}).items():
            for key, value in row.items():
                cycle[name][key] += value * scale
    for stats, scale in ((stub_setup, 1.0), (stub_rounds, 1.0 / n_rounds)):
        for key, value in (stats or {}).items():
            cycle["stub"][key] += value * scale
    return cycle


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(cycle) -> dict[str, float]:
    """The per-module metrics, all per cycle (traced set-up plus one round)."""

    def get(name: str, key: str) -> float:
        return float(cycle.get(name, {}).get(key, 0.0))

    enc_s = get("encoder.forward", "s") + get("encoder.backward", "s")
    enc_flops = get("encoder.forward", "flops") + get("encoder.backward", "flops")
    videos = get("classifier.batch_loss_and_grads", "videos") + get("classifier.predict_video", "calls")
    requests = get("stub", "requests")
    return {
        "corpus.load_captions.calls": get("corpus.load_captions", "calls"),
        "corpus.load_captions.s": get("corpus.load_captions", "s"),
        "corpus.captions_loaded": get("corpus.load_captions", "captions"),
        "embedding.embedders_built": get("embedding.make_embedder", "calls"),
        "embedding.embed_tokens.calls": get("embedding.embed_tokens", "calls"),
        "embedding.embed_tokens.s": get("embedding.embed_tokens", "s"),
        "embedding.tokens": get("embedding.embed_tokens", "tokens"),
        "embedding.embed_texts.s": get("embedding.embed_texts", "s"),
        "remote.post_json.calls": get("remote.post_json", "calls"),
        "remote.post_json.s": get("remote.post_json", "s"),
        "remote.http_requests": requests,
        "remote.http_texts": get("stub", "texts"),
        "remote.texts_per_request": _ratio(get("stub", "texts"), requests),
        "remote.retries": requests - get("remote.post_json", "calls"),
        "remote.cache.gets": get("remote.cache.get", "calls"),
        "remote.cache.hits": get("remote.cache.get", "hits"),
        "remote.cache.hit_ratio": _ratio(get("remote.cache.get", "hits"), get("remote.cache.get", "calls")),
        "remote.cache.get.s": get("remote.cache.get", "s"),
        "remote.cache.puts": get("remote.cache.put", "calls"),
        "remote.cache.put.s": get("remote.cache.put", "s"),
        "knowledge.build.s": get("knowledge.build", "s"),
        "knowledge.summarize.s": get("knowledge.summarize", "s"),
        "knowledge.load.s": get("knowledge.load", "s"),
        "knowledge.mean_embedding.calls": get("knowledge.mean_embedding", "calls"),
        "knowledge.mean_embedding.s": get("knowledge.mean_embedding", "s"),
        "encoder.forward.calls": get("encoder.forward", "calls"),
        "encoder.forward.s": get("encoder.forward", "s"),
        "encoder.forward.rows": _ratio(get("encoder.forward", "rows"), get("encoder.forward", "calls")),
        "encoder.backward.calls": get("encoder.backward", "calls"),
        "encoder.backward.s": get("encoder.backward", "s"),
        "encoder.gelu.s": get("encoder.gelu", "s"),
        "encoder.gelu_grad.s": get("encoder.gelu_grad", "s"),
        "encoder.layer_norm.s": get("encoder.layer_norm", "s"),
        "encoder.positions.calls": get("encoder.positions", "calls"),
        "encoder.gflops_per_s": _ratio(enc_flops, enc_s) / 1e9,
        "classifier.train.s": get("classifier.train", "s"),
        "classifier.video_features.s": get("classifier.video_features", "s"),
        "classifier.sgd_update.s": get("classifier.sgd_update", "s"),
        "classifier.batch_loss_and_grads.calls": get("classifier.batch_loss_and_grads", "calls"),
        "classifier.batch_loss_and_grads.s": get("classifier.batch_loss_and_grads", "s"),
        "classifier.batch_loss_and_grads.self_s": get("classifier.batch_loss_and_grads", "self_s"),
        "classifier.encoder_calls_per_video": _ratio(get("encoder.forward", "calls"), videos),
        "classifier.predict_video.calls": get("classifier.predict_video", "calls"),
        "classifier.predict_video.s": get("classifier.predict_video", "s"),
        "classifier.knowledge_inputs.calls": get("classifier.knowledge_inputs", "calls"),
        "classifier.knowledge_inputs.s": get("classifier.knowledge_inputs", "s"),
        "classifier.load_model.s": get("classifier.load_model", "s"),
        "classifier.model_digest.calls": get("classifier.model_digest", "calls"),
        "classifier.model_digest.s": get("classifier.model_digest", "s"),
        "reasoning.importance_forward.s": get("reasoning.importance_forward", "s"),
        "reasoning.importance_backward.s": get("reasoning.importance_backward", "s"),
        "reasoning.slot_attention.s": get("reasoning.slot_attention", "s"),
        "reasoning.slot_importance.s": get("reasoning.slot_importance", "s"),
        "reasoning.retrieve_evidence.s": get("reasoning.retrieve_evidence", "s"),
        "reasoning.cosine.calls": get("reasoning.cosine", "calls"),
        "reasoning.counterfactual.s": get("reasoning.counterfactual", "s"),
        "reasoning.record.s": get("reasoning.record", "s"),
        "evaluation.evaluate_model.s": get("evaluation.evaluate_model", "s"),
        "evaluation.rank_metrics.s": get("evaluation.rank_metrics", "s"),
        "synthetic.generate.s": get("synthetic.generate", "s"),
        "cli.main.s": get("cli.main", "s"),
        "cli.self_s": get("cli.main", "self_s"),
    }
