"""Fusion classifier and weakly supervised training over caption corpora.

The anomaly probability fuses two latent vectors: the projected description
encoding and the projected knowledge encoding.  Because the true class is
unknown at test time, the classifier's knowledge input is the element-wise
mean of the normal and abnormal encodings; class-conditioned knowledge is
reserved for the reasoning branch.  The slot-importance network receives
its training signal through a gated residual: the importance-weighted slot
context (computed against class-agnostic prototypes) is added to the pooled
description before projection, with the scalar gate initialized to zero.

Training minimizes mean video-level binary cross-entropy with L2 on the
weight matrices, by plain seeded-shuffle mini-batch gradient descent.  An
optional multiple-instance variant (top-k pooling over sliding caption
windows) sits behind a config flag and is off by default.  All gradients
are analytic and finite-difference checked in the test suite.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import itertools
import json
import math
import struct
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from .corpus import CaptionCorpus, VideoRecord, sample_evenly
from .embedding import EmbedderConfig, TokenEmbeddingSeq, make_embedder
from .encoder import (
    EncoderParams,
    encoder_backward,
    encoder_forward,
    f32_exact,
    init_encoder_params,
)
from .errors import ModelFormatError, TbvadError, ValidationError
from .knowledge import (
    KnowledgeBase,
    class_agnostic_prototypes,
    knowledge_mean_embedding,
)
from .reasoning import (
    ImportanceParams,
    importance_backward,
    importance_forward,
    init_importance_params,
    softmax,
)

MODEL_MAGIC = b"TBVM"
MODEL_FORMAT_VERSION = 1


@dataclass
class TrainConfig:
    """Training hyperparameters plus desk-scale architecture sizes."""

    learning_rate: float = 0.25
    epochs: int = 60
    batch_size: int = 16
    seed: int = 0
    l2_weight: float = 1e-4
    freeze_importance_net: bool = False
    k_frames: int = 8
    num_layers: int = 2
    num_heads: int = 4
    d_latent: int = 128
    ff_multiple: int = 4
    mil_top_k: int | None = None

    def __post_init__(self):
        if not (0.0 <= self.learning_rate <= 1.0):
            raise ValidationError(f"learning_rate must be in [0, 1], got {self.learning_rate}")
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if self.l2_weight < 0:
            raise ValidationError("l2_weight must be >= 0")


@dataclass
class ModelConfig:
    """Dimensions and provenance snapshot stored in the model file header."""

    d_model: int
    num_layers: int
    num_heads: int
    d_ff: int
    d_latent: int
    knowledge_dim: int
    k_frames: int
    seed: int
    active_aspects: tuple[str, ...]
    mil_top_k: int | None = None

    def to_dict(self) -> dict:
        out = asdict(self)
        out["active_aspects"] = list(self.active_aspects)
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "ModelConfig":
        raw = dict(raw)
        raw["active_aspects"] = tuple(raw["active_aspects"])
        return cls(**raw)


@dataclass
class ModelParams:
    """Every trainable tensor of the pipeline plus its config snapshot."""

    config: ModelConfig
    encoder: EncoderParams
    w_v: np.ndarray
    b_v: np.ndarray
    fuse_w: np.ndarray
    fuse_b: np.ndarray
    importance: ImportanceParams
    gate: np.ndarray

    def tensors(self) -> dict[str, np.ndarray]:
        out = {f"encoder.{k}": v for k, v in self.encoder.tensors().items()}
        out["w_v"] = self.w_v
        out["b_v"] = self.b_v
        out["fuse_w"] = self.fuse_w
        out["fuse_b"] = self.fuse_b
        for k, v in self.importance.tensors().items():
            out[f"importance.{k}"] = v
        out["gate"] = self.gate
        return out


def init_model_params(cfg: ModelConfig) -> ModelParams:
    """Seeded init; fusion and projections uniform by fan-in, gate zero."""
    encoder = init_encoder_params(
        num_layers=cfg.num_layers, num_heads=cfg.num_heads, d_model=cfg.d_model,
        d_latent=cfg.d_latent, seed=cfg.seed, d_ff=cfg.d_ff,
    )
    importance = init_importance_params(cfg.d_model, seed=cfg.seed + 1)
    rng = np.random.default_rng(cfg.seed + 2)

    def uniform(shape, fan_in):
        bound = 1.0 / math.sqrt(fan_in)
        return f32_exact(rng.uniform(-bound, bound, size=shape))

    return ModelParams(
        config=cfg,
        encoder=encoder,
        w_v=uniform((cfg.d_latent, cfg.knowledge_dim), cfg.knowledge_dim),
        b_v=uniform((cfg.d_latent,), cfg.knowledge_dim),
        fuse_w=uniform((2 * cfg.d_latent,), 2 * cfg.d_latent),
        fuse_b=np.zeros(1),
        importance=importance,
        gate=np.zeros(1),
    )


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def fuse_classify(p_d: np.ndarray, p_v: np.ndarray, params: ModelParams) -> float:
    """Anomaly probability sigmoid(W [P_d; P_V] + b), description first."""
    dl = params.config.d_latent
    p_d = np.asarray(p_d, dtype=np.float64)
    p_v = np.asarray(p_v, dtype=np.float64)
    if p_d.shape != (dl,) or p_v.shape != (dl,):
        raise ValidationError(
            f"fuse_classify expects two vectors of length {dl}, got {p_d.shape} and {p_v.shape}"
        )
    logit = float(params.fuse_w @ np.concatenate([p_d, p_v]) + params.fuse_b[0])
    return _sigmoid(logit)


@dataclass
class KnowledgeInputs:
    """Fixed (frozen-embedder) knowledge-side inputs shared across videos."""

    mean_embedding: np.ndarray
    prototypes: np.ndarray


def knowledge_inputs(kb: KnowledgeBase) -> KnowledgeInputs:
    return KnowledgeInputs(
        mean_embedding=knowledge_mean_embedding(kb),
        prototypes=class_agnostic_prototypes(kb),
    )


def _head_forward(params: ModelParams, h: np.ndarray, mask: np.ndarray,
                  know: KnowledgeInputs):
    """Slot attention, importance, gated residual and fusion logit of one encoded segment."""
    count = int(mask.sum())
    hbar = h[mask].sum(axis=0) / count
    protos = know.prototypes
    a_raw = (protos @ h.T) / math.sqrt(params.config.d_model)
    a = a_raw * mask[None, :]
    c = a @ h
    z, f_cache = importance_forward(c, protos, params.importance)
    w = softmax(z)
    ctx = w @ c
    # The raw context scale is quadratic in the token magnitudes and drifts
    # during training; the residual uses its direction only, gated by g.
    norm = float(np.linalg.norm(ctx))
    u = ctx / norm if norm > 0 else ctx
    g = params.gate[0]
    pooled = hbar + g * u
    p_d = params.encoder.w_d @ pooled + params.encoder.b_d
    p_v = params.w_v @ know.mean_embedding + params.b_v
    dl = params.config.d_latent
    logit = float(params.fuse_w[:dl] @ p_d + params.fuse_w[dl:] @ p_v + params.fuse_b[0])
    cache = (h, mask, count, a, c, w, u, norm, pooled, p_d, p_v, f_cache)
    return logit, cache


def _head_backward(dlogit: float, params: ModelParams, know: KnowledgeInputs, cache,
                   grads: dict[str, np.ndarray]) -> np.ndarray:
    """Accumulate one segment's head gradients into ``grads``; returns dL/dh."""
    h, mask, count, a, c, w, u, norm, pooled, p_d, p_v, f_cache = cache
    dl = params.config.d_latent
    protos = know.prototypes

    grads["fuse_b"][0] += dlogit
    grads["fuse_w"][:dl] += dlogit * p_d
    grads["fuse_w"][dl:] += dlogit * p_v
    dp_d = dlogit * params.fuse_w[:dl]
    dp_v = dlogit * params.fuse_w[dl:]

    grads["b_v"] += dp_v
    grads["w_v"] += np.outer(dp_v, know.mean_embedding)

    grads["encoder.b_d"] += dp_d
    grads["encoder.w_d"] += np.outer(dp_d, pooled)
    dpooled = params.encoder.w_d.T @ dp_d

    dhbar = dpooled
    g = params.gate[0]
    grads["gate"][0] += float(dpooled @ u)
    du = g * dpooled
    if norm > 0:
        dctx = (du - u * float(u @ du)) / norm
    else:
        dctx = du

    dw = c @ dctx
    dc = np.outer(w, dctx)
    dz = w * (dw - float(dw @ w))
    dc_f, f_grads = importance_backward(dz, f_cache, params.importance)
    dc = dc + dc_f
    for name, val in f_grads.items():
        grads[f"importance.{name}"] += val

    da = dc @ h.T
    dh = a.T @ dc
    da = da * mask[None, :]
    dh += da.T @ protos / math.sqrt(params.config.d_model)
    dh[mask] += dhbar / count
    return dh


@dataclass
class VideoFeatures:
    """Precomputed per-caption embedding segments for one video."""

    video_id: str
    target: float
    segments: list[tuple[np.ndarray, np.ndarray]]


def _frame_vectors(embedder, texts: list[str]) -> list[np.ndarray]:
    """Mean-pool each caption's token embeddings, L2-normalized.

    Mean-pooled hash embeddings shrink with caption length (~1/sqrt(tokens));
    unit-normalizing each frame vector removes that artifact and keeps the
    content comparable to the fixed positional encodings.
    """
    out = []
    for pooled in embedder.embed_captions(texts):
        norm = np.linalg.norm(pooled)
        out.append(pooled / norm if norm > 0 else pooled)
    return out


def videos_features(videos, emb_cfg: EmbedderConfig, k_frames: int,
                    mil_top_k: int | None) -> list[VideoFeatures]:
    """Features of each video, from one embedder and one embed_captions call.

    A video is one evenly sampled segment, or sliding windows over all its
    captions in the MIL variant.
    """
    emb = make_embedder(emb_cfg)
    picked = [sample_evenly(v, k_frames) if mil_top_k is None else v.captions for v in videos]
    vectors = iter(_frame_vectors(emb, [c.text for caps in picked for c in caps]))
    out = []
    for video, caps in zip(videos, picked):
        x = np.stack([next(vectors) for _ in caps])
        n = x.shape[0]
        if mil_top_k is None:
            segments = [(x, np.ones(n, dtype=bool))]
        else:
            window = min(k_frames, n)
            stride = max(1, window // 2)
            starts = list(range(0, max(n - window, 0) + 1, stride))
            if starts[-1] != n - window:
                starts.append(n - window)
            segments = [(x[s:s + window], np.ones(window, dtype=bool)) for s in starts]
        target = 1.0 if video.label == "abnormal" else 0.0
        out.append(VideoFeatures(video_id=video.video_id, target=target, segments=segments))
    return out


def video_features(video: VideoRecord, emb_cfg: EmbedderConfig, k_frames: int,
                   mil_top_k: int | None) -> VideoFeatures:
    """One evenly sampled segment, or sliding windows in the MIL variant."""
    return videos_features([video], emb_cfg, k_frames, mil_top_k)[0]


class _Segment(NamedTuple):
    """One encoded segment: its group, its row in that group, and its head."""

    group: int
    row: int
    logit: float
    cache: tuple


@dataclass
class _BatchForward:
    """Forward state of a list of videos.

    ``videos[v]`` is (aggregated logit, selected segment ids), with segment
    ids counted across the videos in order; ``groups[g]`` is the (B, T)
    mask and the encoder caches of one encoder_forward.
    """

    videos: list[tuple[float, list[int]]]
    segments: list[_Segment]
    groups: list[tuple[np.ndarray, list]]


def _forward(params: ModelParams, batch: list[VideoFeatures],
             know: KnowledgeInputs) -> _BatchForward:
    """The one forward path: train, predict and the MIL windows all use it.

    Segments are grouped by shape and each group takes one encoder_forward;
    they are never padded, because padding changes the BLAS reduction
    length and with it the low bits.  The head runs per segment.  A video's
    logit is its single segment's, or the mean of the top-k under MIL.
    """
    xs = [seg for feats in batch for seg in feats.segments]
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for s, (x, _) in enumerate(xs):
        by_shape.setdefault(x.shape, []).append(s)
    segments: list = [None] * len(xs)
    groups = []
    for ids in by_shape.values():
        mask = np.stack([xs[s][1] for s in ids])
        h, caches = encoder_forward(np.stack([xs[s][0] for s in ids]), mask, params.encoder)
        for row, s in enumerate(ids):
            logit, cache = _head_forward(params, h[row], mask[row], know)
            segments[s] = _Segment(len(groups), row, logit, cache)
        groups.append((mask, caches))

    videos = []
    top_k = params.config.mil_top_k
    start = 0
    for feats in batch:
        ids = list(range(start, start + len(feats.segments)))
        start += len(ids)
        logits = np.array([segments[s].logit for s in ids])
        if top_k is None or len(logits) == 1:
            picked = [0]
        else:
            k = min(top_k, len(logits))
            picked = sorted(np.argsort(-logits, kind="stable")[:k].tolist())
        agg = float(np.mean([logits[i] for i in picked]))
        videos.append((agg, [ids[i] for i in picked]))
    return _BatchForward(videos=videos, segments=segments, groups=groups)


def _encoder_backward(params: ModelParams, fwd: _BatchForward,
                      dhs: list[tuple[int, np.ndarray]], grads: dict[str, np.ndarray]) -> None:
    """Backprop (segment id, dL/dh) pairs, in batch order, through the encoder.

    Each run of consecutive segments from one group takes one
    encoder_backward, which adds the gradients video by video, so the sums
    keep the batch order even when segment shapes interleave.  A run that
    covers only part of its group works on a copy of those rows' caches.
    """
    enc_grads = {name[len("encoder."):]: arr for name, arr in grads.items()
                 if name.startswith("encoder.layers.")}
    for g, run in itertools.groupby(dhs, key=lambda item: fwd.segments[item[0]].group):
        run = list(run)
        rows = [fwd.segments[s].row for s, _ in run]
        mask, caches = fwd.groups[g]
        if len(rows) != mask.shape[0]:
            mask = mask[rows]
            caches = [tuple(arr[rows] for arr in layer) for layer in caches]
        encoder_backward(np.stack([dh for _, dh in run]), mask, params.encoder, caches, enc_grads)


def _zero_grads(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in params.tensors().items()}


def batch_loss_and_grads(params: ModelParams, batch: list[VideoFeatures],
                         know: KnowledgeInputs, l2_weight: float):
    """Mean BCE over the batch plus L2 on weight matrices; analytic gradients."""
    grads = _zero_grads(params)
    total = 0.0
    n = len(batch)
    fwd = _forward(params, batch, know)
    dhs = []
    for feats, (logit, selected) in zip(batch, fwd.videos):
        t = feats.target
        # Stable BCE: softplus(logit) - t * logit.
        loss = math.log1p(math.exp(-abs(logit))) + max(logit, 0.0) - t * logit
        total += loss / n
        dlogit = (_sigmoid(logit) - t) / n
        share = dlogit / len(selected)
        for s in selected:
            dhs.append((s, _head_backward(share, params, know, fwd.segments[s].cache, grads)))
    _encoder_backward(params, fwd, dhs, grads)
    for name, arr in params.tensors().items():
        if arr.ndim >= 2 and l2_weight > 0.0:
            total += l2_weight * float((arr ** 2).sum())
            grads[name] += 2.0 * l2_weight * arr
    return total, grads


FROZEN_IMPORTANCE_PREFIXES = ("importance.", "gate")


def sgd_update(params: ModelParams, grads: dict[str, np.ndarray], lr: float,
               freeze_importance: bool = False) -> None:
    """In-place step; parameters stay on the float32 grid for exact round-trips."""
    for name, arr in params.tensors().items():
        if freeze_importance and name.startswith(FROZEN_IMPORTANCE_PREFIXES):
            continue
        arr[...] = f32_exact(arr - lr * grads[name])


# glibc mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _retain_freed_heap() -> None:
    """Keep the heap memory a training step frees for the next step.

    A batched step allocates its layer caches (a few MB) and frees them
    when it ends.  glibc returns a free heap top larger than its trim
    threshold to the kernel, and by default that threshold sits near twice
    the largest block it has unmapped, well below the step's size, so
    every step page-faulted its memory back in.  This sets both thresholds
    to the ceilings glibc's own adaptive policy stops at (32 MiB mmap,
    64 MiB trim).  The setting is process-wide and made once; off glibc
    it does nothing.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def train(train_corpus: CaptionCorpus, kb: KnowledgeBase, cfg: TrainConfig,
          emb: EmbedderConfig, history: list[float] | None = None) -> ModelParams:
    """Weakly supervised training loop; returns the trained parameters.

    ``history`` (if given) collects the mean BCE+L2 loss of each epoch,
    measured on the parameters the epoch started from.
    """
    labels = {v.label for v in train_corpus.videos}
    if labels != {"normal", "abnormal"}:
        raise ValidationError("training corpus must contain both classes")
    if emb.d != kb.embedder.d:
        raise ValidationError(
            f"description embedder dim {emb.d} must match knowledge embedder dim "
            f"{kb.embedder.d} (slot attention runs in the shared token space)"
        )
    model_cfg = ModelConfig(
        d_model=emb.d, num_layers=cfg.num_layers, num_heads=cfg.num_heads,
        d_ff=cfg.ff_multiple * emb.d, d_latent=cfg.d_latent,
        knowledge_dim=kb.embedder.d, k_frames=cfg.k_frames, seed=cfg.seed,
        active_aspects=kb.aspects, mil_top_k=cfg.mil_top_k,
    )
    _retain_freed_heap()
    params = init_model_params(model_cfg)
    know = knowledge_inputs(kb)
    dataset = videos_features(train_corpus.videos, emb, cfg.k_frames, cfg.mil_top_k)

    rng = np.random.default_rng(cfg.seed)
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(dataset))
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, len(dataset), cfg.batch_size):
            batch = [dataset[i] for i in order[start:start + cfg.batch_size]]
            try:
                loss, grads = batch_loss_and_grads(params, batch, know, cfg.l2_weight)
            except TbvadError as e:
                raise TbvadError(f"training aborted at epoch {epoch}: {e}") from e
            if not math.isfinite(loss):
                raise TbvadError(f"non-finite training loss at epoch {epoch}")
            sgd_update(params, grads, cfg.learning_rate, cfg.freeze_importance_net)
            epoch_loss += loss
            n_batches += 1
        if history is not None:
            history.append(epoch_loss / n_batches)
    return params


# Videos per _forward call when scoring: the training mini-batch size, so a
# chunk's layer caches are no larger than a training step's.  At the
# criterion-5 sizes they hold 2.2 MB for 16 videos and 41 MB for 300.
PREDICT_CHUNK = 16


def predict_videos(videos, kb: KnowledgeBase, model: ModelParams, emb: EmbedderConfig,
                   k_frames: int | None = None) -> list[tuple[float, np.ndarray, TokenEmbeddingSeq]]:
    """Score videos in order; returns one (y, P_d, H_d) per video, for reasoning.

    The checks, the knowledge inputs and the embedder are set up once for
    all videos, and the forward runs over chunks of PREDICT_CHUNK videos.
    H_d is the encoded sequence of a video's first (or only) selected
    segment; P_d is the residual-augmented description projection actually
    used for fusion.
    """
    if emb.d != model.config.d_model:
        raise ValidationError(
            f"description embedder dim {emb.d} does not match model d_model {model.config.d_model}"
        )
    if kb.embedder.d != model.config.knowledge_dim:
        raise ValidationError(
            f"knowledge embedder dim {kb.embedder.d} does not match model "
            f"knowledge_dim {model.config.knowledge_dim}"
        )
    if kb.aspects != model.config.active_aspects:
        raise ValidationError(
            f"knowledge aspects {kb.aspects} do not match the model's "
            f"{model.config.active_aspects}"
        )
    k_frames = k_frames if k_frames is not None else model.config.k_frames
    know = knowledge_inputs(kb)
    feats = videos_features(videos, emb, k_frames, model.config.mil_top_k)
    out = []
    for start in range(0, len(feats), PREDICT_CHUNK):
        fwd = _forward(model, feats[start:start + PREDICT_CHUNK], know)
        for logit, selected in fwd.videos:
            cache = fwd.segments[selected[0]].cache
            h, mask, p_d = cache[0], cache[1], cache[9]
            out.append((_sigmoid(logit), p_d, TokenEmbeddingSeq(vectors=h, mask=mask.copy())))
    return out


def predict_video(video: VideoRecord, kb: KnowledgeBase, model: ModelParams,
                  emb: EmbedderConfig, k_frames: int | None = None):
    """Score one video; returns (y, P_d, H_d) as ``predict_videos`` does."""
    return predict_videos([video], kb, model, emb, k_frames)[0]


def serialize_model(model: ModelParams) -> bytes:
    """Versioned container: magic, JSON header, named float32 LE tensor blocks."""
    tensors = model.tensors()
    header = {
        "format_version": MODEL_FORMAT_VERSION,
        "config": model.config.to_dict(),
        "tensors": [{"name": name, "shape": list(arr.shape)} for name, arr in tensors.items()],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [MODEL_MAGIC, struct.pack("<Q", len(header_bytes)), header_bytes]
    for arr in tensors.values():
        parts.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    return b"".join(parts)


def model_digest(model: ModelParams) -> str:
    return hashlib.sha256(serialize_model(model)).hexdigest()


def save_model(model: ModelParams, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_model(model))


# Smallest allowed value of each integer field of ModelConfig.
_CONFIG_INT_MINIMA = {"d_model": 1, "num_layers": 0, "num_heads": 1, "d_ff": 1, "d_latent": 1,
                      "knowledge_dim": 1, "k_frames": 1, "seed": 0}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _header_config(raw) -> ModelConfig:
    """Check the header's config object against ModelConfig's fields and types."""
    if not isinstance(raw, dict):
        raise ModelFormatError("header has no config object")
    names = {f.name for f in fields(ModelConfig)}
    required = {f.name for f in fields(ModelConfig) if f.default is MISSING}
    missing, unknown = sorted(required - set(raw)), sorted(set(raw) - names)
    if missing or unknown:
        raise ModelFormatError(
            f"header config has missing keys {missing} and unknown keys {unknown}"
        )
    for name, minimum in _CONFIG_INT_MINIMA.items():
        if not (_is_int(raw[name]) and raw[name] >= minimum):
            raise ModelFormatError(
                f"header config {name} must be an integer >= {minimum}, got {raw[name]!r}"
            )
    top_k = raw.get("mil_top_k")
    if top_k is not None and not (_is_int(top_k) and top_k >= 1):
        raise ModelFormatError(
            f"header config mil_top_k must be null or an integer >= 1, got {top_k!r}"
        )
    aspects = raw["active_aspects"]
    if not (isinstance(aspects, list) and all(isinstance(a, str) for a in aspects)):
        raise ModelFormatError("header config active_aspects must be a list of strings")
    return ModelConfig.from_dict(raw)


def _is_tensor_entry(entry) -> bool:
    return (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(_is_int(n) and n >= 0 for n in entry["shape"]))


def load_model(path) -> ModelParams:
    data = open(path, "rb").read()
    if len(data) < 12 or data[:4] != MODEL_MAGIC:
        raise ModelFormatError("not a model file (bad magic)", offset=0)
    (header_len,) = struct.unpack_from("<Q", data, 4)
    header_end = 12 + header_len
    if len(data) < header_end:
        raise ModelFormatError("truncated header", offset=len(data))
    try:
        header = json.loads(data[12:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ModelFormatError(f"corrupt header: {e}", offset=12) from e
    if not isinstance(header, dict):
        raise ModelFormatError("header is not a JSON object", offset=12)
    version = header.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported format version {version} (expected {MODEL_FORMAT_VERSION})"
        )
    cfg = _header_config(header.get("config"))
    entries = header.get("tensors")
    if not (isinstance(entries, list) and all(_is_tensor_entry(e) for e in entries)):
        raise ModelFormatError("header tensor list is not a list of {name, shape} entries")
    try:
        model = init_model_params(cfg)
    except ValidationError as e:
        raise ModelFormatError(f"header config is inconsistent: {e}") from e
    offset = header_end
    tensors = model.tensors()
    listed = {t["name"]: tuple(t["shape"]) for t in entries}
    if set(listed) != set(tensors):
        raise ModelFormatError("tensor list does not match the model architecture")
    for entry in entries:
        name, shape = entry["name"], tuple(entry["shape"])
        arr = tensors[name]
        if arr.shape != shape:
            raise ModelFormatError(f"tensor {name} has shape {shape}, expected {arr.shape}")
        nbytes = 4 * int(np.prod(shape, dtype=np.int64)) if shape else 4
        if offset + nbytes > len(data):
            raise ModelFormatError(f"truncated tensor block {name}", offset=offset)
        block = np.frombuffer(data, dtype="<f4", count=nbytes // 4, offset=offset)
        arr[...] = block.reshape(shape).astype(np.float64)
        offset += nbytes
    if offset != len(data):
        raise ModelFormatError("trailing bytes after final tensor block", offset=offset)
    return model
