"""Trainable transformer encoder over per-frame caption embeddings, from scratch.

The stack maps a batch of B equal-length T x d_model sequences, stacked as
(B, T, d_model), through L pre-layer-norm encoder layers (multi-head
self-attention + GELU feed-forward, residual around each).  The pooled
projection (w_d, b_d) is stored with the encoder, but the classifier head
applies it, after its mean pool, to give the latent description vector.
Forward passes record the intermediates needed for the manual backward
pass; analytic gradients are verified against central finite differences in
the test suite, so every derivative here is exact for the implemented
forward computation.  Each video in a batch gets bit for bit the numbers a
batch of one gives it.

Fixed sinusoidal positional encodings are added before the first layer
(caption order is frame order, so position carries signal); an empty stack
is the identity.  Masked positions are excluded from attention via additive
-inf scores and zeroed in the output; the classifier never pads a segment
and passes an all-True mask.

The tensors are named, shaped and seeded in ``classifier._tensor_table``;
``classifier.init_model_params`` builds an ``EncoderParams`` from it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import TbvadError, ValidationError

LN_EPS = 1e-5
_GELU_K = math.sqrt(2.0 / math.pi)
_GELU_C = 0.044715


def f32_exact(arr: np.ndarray) -> np.ndarray:
    """Round values to float32 precision but keep float64 storage.

    Parameters live on the float32 grid so the float32 model file format
    round-trips bitwise; all arithmetic stays in float64.
    """
    return arr.astype(np.float32).astype(np.float64)


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-approximate GELU; returns (gelu(x), tanh term) so the backward reuses the tanh.

    The cube is a product: numpy sends an integer power of 3 to libm ``pow``, about 80x slower.
    """
    t = np.tanh(_GELU_K * (x + _GELU_C * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d gelu(x) / dx, given the tanh term ``t`` that ``gelu`` returned for ``x``."""
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * _GELU_K * (1.0 + 3.0 * _GELU_C * x ** 2)


@functools.lru_cache(maxsize=64)
def sinusoidal_positions(t: int, d: int) -> np.ndarray:
    """Standard fixed sin/cos positional encodings, shape (t, d); cached and read-only."""
    pos = np.arange(t, dtype=np.float64)[:, None]
    idx = np.arange(d, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / d)
    enc = np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))
    enc.flags.writeable = False
    return enc


def layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    """Row-wise layer norm; returns (y, cache) with pre-gain xhat in the cache."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv, g)


def layer_norm_backward(dy: np.ndarray, cache):
    """Returns (dx, dg, db); dg and db are summed over the row axis (-2) only,
    so a (B, T, d) batch yields one (B, d) row per video."""
    xhat, inv, g = cache
    dg = (dy * xhat).sum(axis=-2)
    db = dy.sum(axis=-2)
    dxhat = dy * g
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dg, db


@dataclass
class LayerParams:
    """Tensors of one pre-LN encoder layer (attention projections carry no bias)."""

    ln1_g: np.ndarray
    ln1_b: np.ndarray
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray
    w1: np.ndarray
    c1: np.ndarray
    w2: np.ndarray
    c2: np.ndarray

    FIELDS = ("ln1_g", "ln1_b", "wq", "wk", "wv", "wo", "ln2_g", "ln2_b", "w1", "c1", "w2", "c2")


@dataclass
class EncoderParams:
    """All encoder tensors plus the pooled projection (w_d, b_d)."""

    num_layers: int
    num_heads: int
    d_model: int
    d_ff: int
    d_latent: int
    layers: list[LayerParams]
    w_d: np.ndarray
    b_d: np.ndarray

    def __post_init__(self):
        if self.d_model % self.num_heads != 0:
            raise ValidationError(
                f"d_model ({self.d_model}) must be divisible by num_heads ({self.num_heads})"
            )
        if len(self.layers) != self.num_layers:
            raise ValidationError("layer list length must equal num_layers")

    def tensors(self) -> dict[str, np.ndarray]:
        """Stable name -> array views over every tensor, for updates and serialization."""
        out: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            for name in LayerParams.FIELDS:
                out[f"layers.{i}.{name}"] = getattr(layer, name)
        out["w_d"] = self.w_d
        out["b_d"] = self.b_d
        return out


def _split_heads(x: np.ndarray, nh: int) -> np.ndarray:
    b, t, d = x.shape
    return x.reshape(b, t, nh, d // nh).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, nh, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, nh * dh)


def _accumulate(acc: np.ndarray, per_video: np.ndarray) -> None:
    """Add one gradient term per video into ``acc``, in batch order."""
    for term in per_video:
        acc += term


def _accumulate_outer(acc: np.ndarray, dy: np.ndarray, x: np.ndarray) -> None:
    """Add dy[b].T @ x[b] into ``acc`` one video at a time, in batch order.

    A single (B*T)-row GEMM or a (B, out, in) stack would change the
    summation order or the memory; this keeps each video's product exactly
    what a batch of one computes.
    """
    for dy_b, x_b in zip(dy, x):
        acc += dy_b.T @ x_b


def _layer_forward(x: np.ndarray, layer: LayerParams, mask: np.ndarray, nh: int):
    u, (xhat1, inv1, _) = layer_norm(x, layer.ln1_g, layer.ln1_b)
    q = u @ layer.wq.T
    k = u @ layer.wk.T
    v = u @ layer.wv.T
    qh, kh, vh = _split_heads(q, nh), _split_heads(k, nh), _split_heads(v, nh)
    dh = qh.shape[-1]
    scores = qh @ kh.transpose(0, 1, 3, 2) / math.sqrt(dh)
    np.copyto(scores, -np.inf, where=~mask[:, None, None, :])
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=-1, keepdims=True)
    o = _merge_heads(probs @ vh)
    attn_out = o @ layer.wo.T
    a = x + attn_out

    w, (xhat2, inv2, _) = layer_norm(a, layer.ln2_g, layer.ln2_b)
    f1 = w @ layer.w1.T + layer.c1
    h1, t = gelu(f1)
    f2 = h1 @ layer.w2.T + layer.c2
    out = a + f2
    # u, w and h1 are not kept: the backward recomputes them bit for bit.
    cache = (xhat1, inv1, q, k, v, probs, o, a, xhat2, inv2, f1, t)
    return out, cache


def _layer_backward(dout: np.ndarray, layer: LayerParams, cache, nh: int,
                    acc: dict[str, np.ndarray]) -> np.ndarray:
    """Backprop one layer; adds its weight gradients into ``acc``, returns dx."""
    xhat1, inv1, q, k, v, probs, o, a, xhat2, inv2, f1, t = cache

    # FFN branch.
    da = dout.copy()
    df2 = dout
    _accumulate(acc["c2"], df2.sum(axis=1))
    h1 = 0.5 * f1 * (1.0 + t)  # gelu's own expression
    _accumulate_outer(acc["w2"], df2, h1)
    dh1 = df2 @ layer.w2
    df1 = dh1 * gelu_grad(f1, t)
    _accumulate(acc["c1"], df1.sum(axis=1))
    w = layer.ln2_g * xhat2 + layer.ln2_b  # layer_norm's own expression
    _accumulate_outer(acc["w1"], df1, w)
    dw = df1 @ layer.w1
    da_ln, dg, db = layer_norm_backward(dw, (xhat2, inv2, layer.ln2_g))
    _accumulate(acc["ln2_g"], dg)
    _accumulate(acc["ln2_b"], db)
    da += da_ln

    # Attention branch.
    dx = da.copy()
    dattn = da
    _accumulate_outer(acc["wo"], dattn, o)
    do = _split_heads(dattn @ layer.wo, nh)
    qh, kh, vh = _split_heads(q, nh), _split_heads(k, nh), _split_heads(v, nh)
    dh = qh.shape[-1]
    dprobs = do @ vh.transpose(0, 1, 3, 2)
    dv = probs.transpose(0, 1, 3, 2) @ do
    dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
    dq = dscores @ kh / math.sqrt(dh)
    dk = dscores.transpose(0, 1, 3, 2) @ qh / math.sqrt(dh)
    dq_f, dk_f, dv_f = _merge_heads(dq), _merge_heads(dk), _merge_heads(dv)
    u = layer.ln1_g * xhat1 + layer.ln1_b
    _accumulate_outer(acc["wq"], dq_f, u)
    _accumulate_outer(acc["wk"], dk_f, u)
    _accumulate_outer(acc["wv"], dv_f, u)
    du = dq_f @ layer.wq + dk_f @ layer.wk + dv_f @ layer.wv
    du_ln, dg, db = layer_norm_backward(du, (xhat1, inv1, layer.ln1_g))
    _accumulate(acc["ln1_g"], dg)
    _accumulate(acc["ln1_b"], db)
    dx += du_ln
    return dx


def encoder_forward(x: np.ndarray, mask: np.ndarray, params: EncoderParams):
    """Run the stack over a batch of equal-length segments; returns (h, caches).

    ``x`` is (B, T, d_model) and ``mask`` (B, T).  Every matmul is a stacked
    3-D matmul and every reduction over T stays per video, so each video's
    output is bit for bit the one a batch of one gives.  Raises on NaN
    naming the layer.

    Inputs are scaled by sqrt(d_model) before the positional encodings are
    added, so content is not drowned out by the fixed sin/cos terms.
    """
    if x.ndim != 3 or mask.shape != x.shape[:2]:
        raise ValidationError(
            f"encoder expects x of shape (B, T, d) and mask (B, T), got {x.shape} and {mask.shape}"
        )
    if x.shape[2] != params.d_model:
        raise ValidationError(f"input dim {x.shape[2]} does not match d_model {params.d_model}")
    if not mask.any(axis=1).all():
        raise ValidationError("encoder requires at least one unmasked position")
    if params.num_layers == 0:
        return x.copy(), []
    z = x * math.sqrt(params.d_model) + sinusoidal_positions(x.shape[1], params.d_model)
    caches = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i, layer in enumerate(params.layers):
            z, cache = _layer_forward(z, layer, mask, params.num_heads)
            if not np.all(np.isfinite(z)):
                raise TbvadError(f"non-finite values in encoder layer {i + 1} output")
            caches.append(cache)
    z = z * mask[:, :, None]
    return z, caches


def encoder_backward(dh: np.ndarray, mask: np.ndarray, params: EncoderParams, caches,
                     grads: dict[str, np.ndarray] | None = None):
    """Backprop dh (B, T, d_model) through the stack; returns (dx, grads).

    Layer gradients are added into ``grads`` (keyed like ``tensors()``;
    zeros when omitted) one video at a time, in batch order.  ``caches`` is
    consumed: each layer's cache is dropped once its backward has run.
    """
    if grads is None:
        grads = {name: np.zeros_like(arr) for name, arr in params.tensors().items()
                 if name.startswith("layers.")}
    if params.num_layers == 0:
        return dh.copy(), grads
    dz = dh * mask[:, :, None]
    for i in range(params.num_layers - 1, -1, -1):
        acc = {name: grads[f"layers.{i}.{name}"] for name in LayerParams.FIELDS}
        dz = _layer_backward(dz, params.layers[i], caches.pop(), params.num_heads, acc)
    return dz * math.sqrt(params.d_model), grads
