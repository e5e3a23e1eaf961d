"""Fusion classifier and weakly supervised training over caption corpora.

The anomaly probability fuses two latent vectors: the projected description
encoding and the projected knowledge encoding.  Because the true class is
unknown at test time, the classifier's knowledge input is the element-wise
mean of the normal and abnormal encodings; class-conditioned knowledge is
reserved for the reasoning branch.  The slot-importance network receives
its training signal through a gated residual: the importance-weighted slot
context (computed against class-agnostic prototypes) is added to the pooled
description before projection, with the scalar gate initialized to zero.

Every video is one segment of evenly sampled captions, never padded.  The
videos of one segment shape form a (B, T, d) group, which takes one encoder
pass and one head pass; each video's numbers are bit for bit those of a
group of one, and the head's gradients are added video by video in batch
order.
Training minimizes mean video-level binary cross-entropy with L2 on the
weight matrices, by plain seeded-shuffle mini-batch gradient descent.  All
gradients are analytic and finite-difference checked in the test suite.
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
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .corpus import CaptionCorpus, VideoRecord, sample_evenly
from .embedding import EmbedderConfig, TokenEmbeddingSeq, make_embedder
from .encoder import (
    EncoderParams,
    LayerParams,
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
    slot_attention,
    softmax,
)
from .remote import VectorCache

MODEL_MAGIC = b"TBVM"
MODEL_FORMAT_VERSION = 1

# Smallest allowed value of each integer field of ModelConfig.
_CONFIG_INT_MINIMA = {"d_model": 1, "num_layers": 0, "num_heads": 1, "d_ff": 1, "d_latent": 1,
                      "knowledge_dim": 1, "k_frames": 1, "seed": 0}


@dataclass
class TrainConfig:
    """Training hyperparameters plus desk-scale architecture sizes."""

    learning_rate: float = 0.25
    epochs: int = 60
    batch_size: int = 16
    seed: int = 0
    l2_weight: float = 1e-4
    k_frames: int = 8
    num_layers: int = 2
    num_heads: int = 4
    d_latent: int = 128
    ff_multiple: int = 4

    def __post_init__(self):
        if not (0.0 <= self.learning_rate <= 1.0):
            raise ValidationError(f"learning_rate must be in [0, 1], got {self.learning_rate}")
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if self.l2_weight < 0:
            raise ValidationError("l2_weight must be >= 0")
        # The model header's minima, for the fields this config has; d_ff is
        # ff_multiple times d_model.
        for name, minimum in _CONFIG_INT_MINIMA.items():
            name = "ff_multiple" if name == "d_ff" else name
            if getattr(self, name, minimum) < minimum:
                raise ValidationError(f"{name} must be >= {minimum}, got {getattr(self, name)}")


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


class _HeadCache(NamedTuple):
    """Forward state of the head over one (B, T, d) shape group; row b is video b."""

    h: np.ndarray
    a: np.ndarray
    c: np.ndarray
    w: np.ndarray
    u: np.ndarray
    norm: np.ndarray
    pooled: np.ndarray
    p_d: np.ndarray
    p_v: np.ndarray
    f_cache: tuple


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x[b] @ y[b]`` (or ``x[b] @ y`` for a 1-D ``y``) for every row of a (B, n) stack.

    Each row takes one BLAS dot, as two 1-D vectors do; a (B, n) @ (n,)
    matmul would take a matrix-times-vector instead.  So
    ``np.sqrt(_dots(x, x))`` is each row's ``np.linalg.norm`` bit for bit,
    where ``norm(axis=1)`` or ``einsum`` would sum in another order.
    """
    return (x[:, None, :] @ y[..., :, None])[:, 0, 0]


def _matvecs(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``m @ x[b]`` for every row of a (B, n) stack, one matrix-times-vector per row."""
    return (m @ x[:, :, None])[..., 0]


def _head_forward(params: ModelParams, h: np.ndarray, know: KnowledgeInputs):
    """Slot attention, importance, gated residual and fusion logits of one shape group.

    ``h`` is the group's encoded (B, T, d) stack; returns the (B,) logits
    and the cache.  Every matmul keeps the core shape a single segment
    gives it, so each video's numbers are bit for bit those of a group of
    one.
    """
    # One sum per video's (T, d) slice: a sum over axis 1 of the stack has
    # not been shown to add in the same order at d = 1.
    hbar = np.array([h_b.sum(axis=0) for h_b in h]) / h.shape[1]
    protos = know.prototypes
    a, c = slot_attention(protos, h)
    z, f_cache = importance_forward(c, protos, params.importance)
    w = softmax(z)
    ctx = (w[:, None, :] @ c)[:, 0]
    # The raw context scale is quadratic in the token magnitudes and drifts
    # during training; the residual uses its direction only, gated by g.
    norm = np.sqrt(_dots(ctx, ctx))
    u = ctx / np.where(norm > 0, norm, 1.0)[:, None]
    g = params.gate[0]
    pooled = hbar + g * u
    p_d = _matvecs(params.encoder.w_d, pooled) + params.encoder.b_d
    p_v = params.w_v @ know.mean_embedding + params.b_v
    dl = params.config.d_latent
    logits = _dots(p_d, params.fuse_w[:dl]) + params.fuse_w[dl:] @ p_v
    logits += params.fuse_b[0]
    return logits, _HeadCache(h, a, c, w, u, norm, pooled, p_d, p_v, f_cache)


# Head parameters whose per-video gradient terms are vectors, in the column
# order of _HeadGrads.vectors.
_HEAD_VECTOR_GRADS = ("fuse_b", "fuse_w", "b_v", "encoder.b_d", "gate",
                      "importance.w2", "importance.b2", "importance.b1")


class _HeadGrads(NamedTuple):
    """One shape group's per-video head gradient terms; row b is video b.

    The vector terms sit side by side in ``vectors``.  The matrix gradients
    are kept as factors, so that no (B, out, in) stack is built: video b
    adds outer(dp_d[b], pooled[b]) to w_d, outer(dp_v[b], mean_embedding)
    to w_v and dpre[b].T @ u[b] to the importance net's w1.
    """

    vectors: np.ndarray
    dp_d: np.ndarray
    pooled: np.ndarray
    dp_v: np.ndarray
    dpre: np.ndarray
    u: np.ndarray


def _head_backward(dlogit: np.ndarray, params: ModelParams, know: KnowledgeInputs,
                   cache: _HeadCache) -> tuple[np.ndarray, _HeadGrads]:
    """Backprop one shape group's head from its (B,) dL/dlogit; returns (dL/dh, terms)."""
    dl = params.config.d_latent
    protos = know.prototypes
    dlogit_col = dlogit[:, None]
    dp_d = dlogit_col * params.fuse_w[:dl]
    dp_v = dlogit_col * params.fuse_w[dl:]
    dpooled = _matvecs(params.encoder.w_d.T, dp_d)

    dhbar = dpooled
    g = params.gate[0]
    dgate = _dots(dpooled, cache.u)
    du = g * dpooled
    positive = (cache.norm > 0)[:, None]
    scale = np.where(positive, cache.norm[:, None], 1.0)
    dctx = np.where(positive, (du - cache.u * _dots(cache.u, du)[:, None]) / scale, du)

    w = cache.w
    dw = _matvecs(cache.c, dctx)
    dc = w[:, :, None] * dctx[:, None, :]
    dz = w * (dw - _dots(dw, w)[:, None])
    dc_f, f_grads, dpre = importance_backward(dz, cache.f_cache, params.importance)
    dc = dc + dc_f

    h = cache.h
    da = dc @ h.swapaxes(1, 2)
    dh = cache.a.swapaxes(1, 2) @ dc
    dh += da.swapaxes(1, 2) @ protos / math.sqrt(params.config.d_model)
    dh += (dhbar / h.shape[1])[:, None, :]

    vectors = np.concatenate([
        dlogit_col, dlogit_col * cache.p_d, dlogit_col * cache.p_v, dp_v, dp_d, dgate[:, None],
        f_grads["w2"], f_grads["b2"], f_grads["b1"],
    ], axis=1)
    return dh, _HeadGrads(vectors, dp_d, cache.pooled, dp_v, dpre, cache.f_cache[0])


@dataclass
class VideoFeatures:
    """One video's segment: its sampled caption vectors (T, d)."""

    video_id: str
    target: float
    x: np.ndarray


def _frame_vectors(embedder, texts: list[str]) -> np.ndarray:
    """Mean-pool each caption's token embeddings, L2-normalized: one (n, d) row each.

    Mean-pooled hash embeddings shrink with caption length (~1/sqrt(tokens));
    unit-normalizing each frame vector removes that artifact and keeps the
    content comparable to the fixed positional encodings.
    """
    pooled = embedder.embed_captions(texts)
    norm = np.sqrt(_dots(pooled, pooled))
    pooled /= np.where(norm > 0, norm, 1.0)[:, None]
    return pooled


def videos_features(videos, emb_cfg: EmbedderConfig, k_frames: int,
                    cache: VectorCache | None = None) -> list[VideoFeatures]:
    """Each video's evenly sampled segment, from one embedder and one embed_captions call.

    ``cache`` goes to ``make_embedder``: the vector cache the knowledge base
    hands over, so a command reads its embedding packs once.
    """
    emb = make_embedder(emb_cfg, cache)
    picked = [sample_evenly(v, k_frames) for v in videos]
    vectors = _frame_vectors(emb, [c.text for caps in picked for c in caps])
    out = []
    start = 0
    for video, caps in zip(videos, picked):
        x = vectors[start:start + len(caps)]
        start += len(caps)
        target = 1.0 if video.label == "abnormal" else 0.0
        out.append(VideoFeatures(video_id=video.video_id, target=target, x=x))
    return out


def video_features(video: VideoRecord, emb_cfg: EmbedderConfig, k_frames: int) -> VideoFeatures:
    """One video's evenly sampled segment."""
    return videos_features([video], emb_cfg, k_frames)[0]


class _Segment(NamedTuple):
    """Where one video's segment sits: its shape group and its row in that group."""

    group: int
    row: int


@dataclass
class _BatchForward:
    """Forward state of a list of videos.

    ``segments[v]`` says where video v sits.  Shape group g has the encoder
    caches ``groups[g]`` of one encoder_forward, and the cache ``heads[g]``
    and logits ``logits[g]`` of one head call.
    """

    segments: list[_Segment]
    groups: list[list]
    heads: list[_HeadCache]
    logits: list[list[float]]


def _forward(params: ModelParams, batch: list[VideoFeatures],
             know: KnowledgeInputs) -> _BatchForward:
    """The one forward path: train and predict both use it.

    Videos are grouped by segment shape, and each group takes one
    encoder_forward and one head call; they are never padded, because
    padding changes the BLAS reduction length and with it the low bits.
    """
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for v, feats in enumerate(batch):
        by_shape.setdefault(feats.x.shape, []).append(v)
    fwd = _BatchForward(segments=[None] * len(batch), groups=[], heads=[], logits=[])
    for ids in by_shape.values():
        x = np.stack([batch[v].x for v in ids])
        h, caches = encoder_forward(x, np.ones(x.shape[:2], dtype=bool), params.encoder)
        logits, head = _head_forward(params, h, know)
        for row, v in enumerate(ids):
            fwd.segments[v] = _Segment(len(fwd.groups), row)
        fwd.groups.append(caches)
        fwd.heads.append(head)
        fwd.logits.append(logits.tolist())
    return fwd


def _add_head_grads(fwd: _BatchForward, terms: list[_HeadGrads], know: KnowledgeInputs,
                    grads: dict[str, np.ndarray]) -> None:
    """Add each video's head gradient terms into ``grads``, in batch order.

    ``terms[g]`` is group g's.  The vector terms are summed in one buffer
    from zero, as the fresh accumulators in ``grads`` start, so each
    accumulator gets the sum that adding video by video gives.
    """
    vectors = np.zeros(terms[0].vectors.shape[1])
    w_v, w_d, w1 = grads["w_v"], grads["encoder.w_d"], grads["importance.w1"]
    for g, b in fwd.segments:
        t = terms[g]
        vectors += t.vectors[b]
        w_v += t.dp_v[b][:, None] * know.mean_embedding  # np.outer's own product
        w_d += t.dp_d[b][:, None] * t.pooled[b]
        w1 += t.dpre[b].T @ t.u[b]
    start = 0
    for name in _HEAD_VECTOR_GRADS:
        acc = grads[name]
        acc += vectors[start:start + acc.size]
        start += acc.size


def _encoder_backward(params: ModelParams, fwd: _BatchForward,
                      dhs: list[np.ndarray], grads: dict[str, np.ndarray]) -> None:
    """Backprop each group's dL/dh, ``dhs[g]`` (B, T, d), through the encoder in batch order.

    Each run of consecutive videos from one group takes one
    encoder_backward, which adds the gradients video by video, so the sums
    keep the batch order even when segment shapes interleave.  A run that
    covers only part of its group works on a copy of those rows.
    """
    enc_grads = {name[len("encoder."):]: arr for name, arr in grads.items()
                 if name.startswith("encoder.layers.")}
    for g, run in itertools.groupby(fwd.segments, key=lambda seg: seg.group):
        rows = [seg.row for seg in run]
        caches, dh = fwd.groups[g], dhs[g]
        if len(rows) != dh.shape[0]:
            dh = dh[rows]
            caches = [tuple(arr[rows] for arr in layer) for layer in caches]
        encoder_backward(dh, np.ones(dh.shape[:2], dtype=bool), params.encoder, caches, enc_grads)


def _zero_grads(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in params.tensors().items()}


def batch_loss_and_grads(params: ModelParams, batch: list[VideoFeatures],
                         know: KnowledgeInputs, l2_weight: float):
    """Mean BCE over the batch plus L2 on weight matrices; analytic gradients."""
    grads = _zero_grads(params)
    total = 0.0
    n = len(batch)
    fwd = _forward(params, batch, know)
    dlogits = [np.empty(len(logits)) for logits in fwd.logits]
    for feats, seg in zip(batch, fwd.segments):
        logit, t = fwd.logits[seg.group][seg.row], feats.target
        # Stable BCE: softplus(logit) - t * logit.
        loss = math.log1p(math.exp(-abs(logit))) + max(logit, 0.0) - t * logit
        total += loss / n
        dlogits[seg.group][seg.row] = (_sigmoid(logit) - t) / n
    backs = [_head_backward(dlogit, params, know, head) for dlogit, head in zip(dlogits, fwd.heads)]
    _add_head_grads(fwd, [terms for _, terms in backs], know, grads)
    dhs = [dh for dh, _ in backs]
    # The encoder backward is the step's memory peak; the head's state is
    # done with, so free it first.
    del backs
    fwd.heads.clear()
    _encoder_backward(params, fwd, dhs, grads)
    for name, arr in params.tensors().items():
        if arr.ndim >= 2 and l2_weight > 0.0:
            total += l2_weight * float((arr ** 2).sum())
            grads[name] += 2.0 * l2_weight * arr
    return total, grads


def sgd_update(params: ModelParams, grads: dict[str, np.ndarray], lr: float) -> None:
    """In-place step; parameters stay on the float32 grid for exact round-trips."""
    for name, arr in params.tensors().items():
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


def _check_token_space(emb: EmbedderConfig, kb: KnowledgeBase) -> None:
    """Descriptions must be embedded in the knowledge base's token space.

    Slot attention compares description tokens with knowledge prototypes, so
    both embedders need the same backend and dim, and the same hash seed or
    remote endpoint.
    """
    for key in ("backend", "d", "seed" if emb.backend == "hash" else "endpoint"):
        ours, theirs = getattr(emb, key), getattr(kb.embedder, key)
        if ours != theirs:
            raise ValidationError(
                f"description embedder {key} {ours!r} does not match the knowledge "
                f"embedder's {theirs!r} (slot attention runs in the shared token space)"
            )


def train(train_corpus: CaptionCorpus, kb: KnowledgeBase, cfg: TrainConfig,
          emb: EmbedderConfig, history: list[float] | None = None) -> ModelParams:
    """Weakly supervised training loop; returns the trained parameters.

    ``history`` (if given) collects the mean BCE+L2 loss of each epoch,
    measured on the parameters the epoch started from.
    """
    labels = {v.label for v in train_corpus.videos}
    if labels != {"normal", "abnormal"}:
        raise ValidationError("training corpus must contain both classes")
    _check_token_space(emb, kb)
    model_cfg = ModelConfig(
        d_model=emb.d, num_layers=cfg.num_layers, num_heads=cfg.num_heads,
        d_ff=cfg.ff_multiple * emb.d, d_latent=cfg.d_latent,
        knowledge_dim=kb.embedder.d, k_frames=cfg.k_frames, seed=cfg.seed,
        active_aspects=kb.aspects,
    )
    _retain_freed_heap()
    params = init_model_params(model_cfg)
    know = knowledge_inputs(kb)
    dataset = videos_features(train_corpus.videos, emb, cfg.k_frames, kb.take_embed_cache())

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
            sgd_update(params, grads, cfg.learning_rate)
            epoch_loss += loss
            n_batches += 1
        if history is not None:
            history.append(epoch_loss / n_batches)
    return params


# Videos per _forward call when scoring: the training mini-batch size, so a
# chunk's layer caches are no larger than a training step's.  At the
# criterion-5 sizes they hold 2.2 MB for 16 videos and 41 MB for 300.
PREDICT_CHUNK = 16


class Prediction(NamedTuple):
    """One scored video, unchecked: anomaly probability, P_d and H_d."""

    y: float
    p_d: np.ndarray
    h: np.ndarray


def predict_videos(videos, kb: KnowledgeBase, model: ModelParams,
                   emb: EmbedderConfig) -> list[Prediction]:
    """Score videos in order; returns one Prediction per video.

    The checks, the knowledge inputs and the embedder are set up once for
    all videos, and the forward runs over chunks of PREDICT_CHUNK videos.
    H_d is the encoded sequence of a video's segment (views into its chunk's
    arrays); P_d is the residual-augmented description projection actually
    used for fusion.
    """
    _check_token_space(emb, kb)
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
    know = knowledge_inputs(kb)
    feats = videos_features(videos, emb, model.config.k_frames, kb.take_embed_cache())
    out = []
    for start in range(0, len(feats), PREDICT_CHUNK):
        fwd = _forward(model, feats[start:start + PREDICT_CHUNK], know)
        for g, row in fwd.segments:
            head = fwd.heads[g]
            out.append(Prediction(_sigmoid(fwd.logits[g][row]), head.p_d[row], head.h[row]))
    return out


def predict_video(video: VideoRecord, kb: KnowledgeBase, model: ModelParams,
                  emb: EmbedderConfig):
    """Score one video for reasoning; returns (y, P_d, H_d) with H_d a checked sequence."""
    y, p_d, h = predict_videos([video], kb, model, emb)[0]
    return y, p_d, TokenEmbeddingSeq(vectors=h)


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
    """SHA-256 of the bytes save_model writes: for a file it wrote, the file's SHA-256."""
    return hashlib.sha256(serialize_model(model)).hexdigest()


def save_model(model: ModelParams, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_model(model))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _header_config(raw) -> ModelConfig:
    """Check the header's config object against ModelConfig's fields and types."""
    if not isinstance(raw, dict):
        raise ModelFormatError("header has no config object")
    raw = dict(raw)
    if raw.pop("mil_top_k", None) is not None:  # null in files saved by earlier versions
        raise ModelFormatError(
            "header config selects top-k pooling over caption windows, which this "
            "version no longer scores"
        )
    names = {f.name for f in fields(ModelConfig)}
    missing, unknown = sorted(names - set(raw)), sorted(set(raw) - names)
    if missing or unknown:
        raise ModelFormatError(
            f"header config has missing keys {missing} and unknown keys {unknown}"
        )
    for name, minimum in _CONFIG_INT_MINIMA.items():
        if not (_is_int(raw[name]) and raw[name] >= minimum):
            raise ModelFormatError(
                f"header config {name} must be an integer >= {minimum}, got {raw[name]!r}"
            )
    aspects = raw["active_aspects"]
    if not (isinstance(aspects, list) and all(isinstance(a, str) for a in aspects)):
        raise ModelFormatError("header config active_aspects must be a list of strings")
    return ModelConfig.from_dict(raw)


def _tensor_shapes(cfg: ModelConfig):
    """Yield (name, shape) of each tensor of a model with this config, in file order."""
    d, d_ff, dl = cfg.d_model, cfg.d_ff, cfg.d_latent
    layer = {"ln1_g": (d,), "ln1_b": (d,), "wq": (d, d), "wk": (d, d), "wv": (d, d),
             "wo": (d, d), "ln2_g": (d,), "ln2_b": (d,), "w1": (d_ff, d), "c1": (d_ff,),
             "w2": (d, d_ff), "c2": (d,)}
    for i in range(cfg.num_layers):
        for name, shape in layer.items():
            yield f"encoder.layers.{i}.{name}", shape
    yield from {"encoder.w_d": (dl, d), "encoder.b_d": (dl,), "w_v": (dl, cfg.knowledge_dim),
                "b_v": (dl,), "fuse_w": (2 * dl,), "fuse_b": (1,), "importance.w1": (d, 2 * d),
                "importance.b1": (d,), "importance.w2": (d,), "importance.b2": (1,),
                "gate": (1,)}.items()


def load_model(path, *, data: bytes | None = None) -> ModelParams:
    """Read a model file whose header lists exactly its config's tensors, in order.

    That list is ``_tensor_shapes(config)``; the file holds exactly their blocks.
    ``data`` is the file's bytes, already read by the caller (who may have
    hashed them).
    """
    data = Path(path).read_bytes() if data is None else data
    if len(data) < 12 or data[:4] != MODEL_MAGIC:
        raise ModelFormatError("not a model file (bad magic)", offset=0)
    (header_len,) = struct.unpack_from("<Q", data, 4)
    header_end = 12 + header_len
    if len(data) < header_end:
        raise ModelFormatError("truncated header", offset=len(data))
    try:
        header = json.loads(data[12:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise ModelFormatError(f"corrupt header: {e}", offset=12) from e
    if not isinstance(header, dict):
        raise ModelFormatError("header is not a JSON object", offset=12)
    version = header.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported format version {version} (expected {MODEL_FORMAT_VERSION})"
        )
    cfg = _header_config(header.get("config"))
    # The table is walked lazily and each block checked against the file's length
    # before it is read, so a header's dims cannot make the load outrun the file.
    tensors, offset = {}, header_end
    for name, shape in _tensor_shapes(cfg):
        size = math.prod(shape)
        if offset + 4 * size > len(data):
            raise ModelFormatError(f"truncated tensor blocks: tensor {name} ends at byte "
                                   f"{offset + 4 * size}", offset=len(data))
        block = np.frombuffer(data, dtype="<f4", count=size, offset=offset)
        finite = np.isfinite(block)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ModelFormatError(f"tensor {name} holds a non-finite value ({block[bad]})",
                                   offset=offset + 4 * bad)
        tensors[name] = block.reshape(shape).astype(np.float64)
        offset += 4 * size
    if len(data) > offset:
        raise ModelFormatError("trailing bytes after final tensor block", offset=offset)
    # Compared as JSON text, so that a true or 1.0 dim does not pass for 1.
    listed = [{"name": name, "shape": list(arr.shape)} for name, arr in tensors.items()]
    if json.dumps(header.get("tensors"), sort_keys=True) != json.dumps(listed, sort_keys=True):
        raise ModelFormatError("tensor list does not match the model architecture")
    layers = [LayerParams(**{f: tensors[f"encoder.layers.{i}.{f}"] for f in LayerParams.FIELDS})
              for i in range(cfg.num_layers)]
    try:
        encoder = EncoderParams(cfg.num_layers, cfg.num_heads, cfg.d_model, cfg.d_ff, cfg.d_latent,
                                layers, tensors["encoder.w_d"], tensors["encoder.b_d"])
    except ValidationError as e:
        raise ModelFormatError(f"header config is inconsistent: {e}") from e
    importance = {f: tensors[f"importance.{f}"] for f in ImportanceParams.FIELDS}
    return ModelParams(
        config=cfg, encoder=encoder, importance=ImportanceParams(**importance),
        **{name: tensors[name] for name in ("w_v", "b_v", "fuse_w", "fuse_b", "gate")})
