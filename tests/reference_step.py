"""Per-video reference for the batched training step.

This is the forward and backward the classifier ran before it batched the
encoder and the head: one encoder pass and one head pass per caption
segment over (T, d) arrays, with the gradients of each video added into
the batch total in turn.  Every function it runs is its own 2-D copy,
apart from ``_sigmoid`` and ``_zero_grads``, so it does not follow the
code it checks.  The oracle tests require the batched
``batch_loss_and_grads`` to equal it bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from tbvad.classifier import _sigmoid, _zero_grads
from tbvad.encoder import LN_EPS, sinusoidal_positions
from tbvad.errors import TbvadError, ValidationError

_GELU_K = math.sqrt(2.0 / math.pi)
_GELU_C = 0.044715


def gelu(x):
    inner = _GELU_K * (x + _GELU_C * (x * x * x))
    return 0.5 * x * (1.0 + np.tanh(inner))


def gelu_grad(x):
    inner = _GELU_K * (x + _GELU_C * (x * x * x))
    t = np.tanh(inner)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * _GELU_K * (1.0 + 3.0 * _GELU_C * x ** 2)


def layer_norm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv, g)


def layer_norm_backward(dy, cache):
    xhat, inv, g = cache
    dg = (dy * xhat).sum(axis=0)
    db = dy.sum(axis=0)
    dxhat = dy * g
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dg, db


def softmax(z):
    shifted = z - z.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def importance_forward(c, k_v, f_params):
    u = np.concatenate([c, k_v], axis=1)
    pre = u @ f_params.w1.T + f_params.b1
    hid = np.tanh(pre)
    z = hid @ f_params.w2 + f_params.b2[0]
    return z, (u, hid)


def importance_backward(dz, cache, f_params):
    u, hid = cache
    grads = {
        "w2": hid.T @ dz,
        "b2": np.array([dz.sum()]),
    }
    dhid = np.outer(dz, f_params.w2)
    dpre = dhid * (1.0 - hid ** 2)
    grads["w1"] = dpre.T @ u
    grads["b1"] = dpre.sum(axis=0)
    du = dpre @ f_params.w1
    d = u.shape[1] // 2
    return du[:, :d], grads


def _split_heads(x, nh):
    t, d = x.shape
    return x.reshape(t, nh, d // nh).transpose(1, 0, 2)


def _merge_heads(x):
    nh, t, dh = x.shape
    return x.transpose(1, 0, 2).reshape(t, nh * dh)


def _layer_forward(x, layer, mask, nh):
    u, ln1_cache = layer_norm(x, layer.ln1_g, layer.ln1_b)
    q = _split_heads(u @ layer.wq.T, nh)
    k = _split_heads(u @ layer.wk.T, nh)
    v = _split_heads(u @ layer.wv.T, nh)
    dh = q.shape[-1]
    scores = q @ k.transpose(0, 2, 1) / math.sqrt(dh)
    scores[:, :, ~mask] = -np.inf
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=-1, keepdims=True)
    o = _merge_heads(probs @ v)
    attn_out = o @ layer.wo.T
    a = x + attn_out

    w, ln2_cache = layer_norm(a, layer.ln2_g, layer.ln2_b)
    f1 = w @ layer.w1.T + layer.c1
    h1 = gelu(f1)
    f2 = h1 @ layer.w2.T + layer.c2
    out = a + f2
    cache = (u, ln1_cache, q, k, v, probs, o, a, ln2_cache, w, f1, h1)
    return out, cache


def _layer_backward(dout, layer, cache, nh):
    u, ln1_cache, q, k, v, probs, o, a, ln2_cache, w, f1, h1 = cache
    grads = {}
    dh = q.shape[-1]

    da = dout.copy()
    df2 = dout
    grads["c2"] = df2.sum(axis=0)
    grads["w2"] = df2.T @ h1
    dh1 = df2 @ layer.w2
    df1 = dh1 * gelu_grad(f1)
    grads["c1"] = df1.sum(axis=0)
    grads["w1"] = df1.T @ w
    dw = df1 @ layer.w1
    da_ln, grads["ln2_g"], grads["ln2_b"] = layer_norm_backward(dw, ln2_cache)
    da += da_ln

    dx = da.copy()
    dattn = da
    grads["wo"] = dattn.T @ o
    do = _split_heads(dattn @ layer.wo, nh)
    dprobs = do @ v.transpose(0, 2, 1)
    dv = probs.transpose(0, 2, 1) @ do
    dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
    dq = dscores @ k / math.sqrt(dh)
    dk = dscores.transpose(0, 2, 1) @ q / math.sqrt(dh)
    dq_f, dk_f, dv_f = _merge_heads(dq), _merge_heads(dk), _merge_heads(dv)
    grads["wq"] = dq_f.T @ u
    grads["wk"] = dk_f.T @ u
    grads["wv"] = dv_f.T @ u
    du = dq_f @ layer.wq + dk_f @ layer.wk + dv_f @ layer.wv
    du_ln, grads["ln1_g"], grads["ln1_b"] = layer_norm_backward(du, ln1_cache)
    dx += du_ln
    return dx, grads


def encoder_forward(x, mask, params):
    if x.shape[1] != params.d_model:
        raise ValidationError(f"input dim {x.shape[1]} does not match d_model {params.d_model}")
    if params.num_layers == 0:
        return x.copy(), []
    if not mask.any():
        raise ValidationError("encoder requires at least one unmasked position")
    z = x * math.sqrt(params.d_model) + sinusoidal_positions(x.shape[0], params.d_model)
    caches = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i, layer in enumerate(params.layers):
            z, cache = _layer_forward(z, layer, mask, params.num_heads)
            if not np.all(np.isfinite(z)):
                raise TbvadError(f"non-finite values in encoder layer {i + 1} output")
            caches.append(cache)
    z = z * mask[:, None]
    return z, caches


def encoder_backward(dh, mask, params, caches):
    grads = {}
    if params.num_layers == 0:
        return dh.copy(), grads
    dz = dh * mask[:, None]
    for i in range(params.num_layers - 1, -1, -1):
        dz, layer_grads = _layer_backward(dz, params.layers[i], caches[i], params.num_heads)
        for name, g in layer_grads.items():
            grads[f"layers.{i}.{name}"] = g
    return dz * math.sqrt(params.d_model), grads


def segment_forward(params, x, know):
    h, caches = encoder_forward(x, np.ones(len(x), dtype=bool), params.encoder)
    count = len(h)
    hbar = h.sum(axis=0) / count
    protos = know.prototypes
    a = (protos @ h.T) / math.sqrt(params.config.d_model)
    c = a @ h
    z, f_cache = importance_forward(c, protos, params.importance)
    w = softmax(z)
    ctx = w @ c
    norm = float(np.linalg.norm(ctx))
    u = ctx / norm if norm > 0 else ctx
    g = params.gate[0]
    pooled = hbar + g * u
    p_d = params.encoder.w_d @ pooled + params.encoder.b_d
    p_v = params.w_v @ know.mean_embedding + params.b_v
    dl = params.config.d_latent
    logit = float(params.fuse_w[:dl] @ p_d + params.fuse_w[dl:] @ p_v + params.fuse_b[0])
    cache = (h, caches, count, hbar, a, c, z, w, u, norm, pooled, p_d, p_v, f_cache)
    return logit, cache


def segment_backward(dlogit, params, know, cache, grads):
    h, caches, count, hbar, a, c, z, w, u, norm, pooled, p_d, p_v, f_cache = cache
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
    dh += da.T @ protos / math.sqrt(params.config.d_model)
    dh += dhbar / count

    _, enc_grads = encoder_backward(dh, np.ones(len(dh), dtype=bool), params.encoder, caches)
    for name, val in enc_grads.items():
        grads[f"encoder.{name}"] += val


def video_logit(params, feats, know):
    """A video's logit and the forward cache of its one segment."""
    return segment_forward(params, feats.x, know)


def batch_loss_and_grads(params, batch, know, l2_weight):
    """Mean BCE over the batch plus L2, one video at a time."""
    grads = _zero_grads(params)
    total = 0.0
    n = len(batch)
    for feats in batch:
        logit, cache = video_logit(params, feats, know)
        t = feats.target
        loss = math.log1p(math.exp(-abs(logit))) + max(logit, 0.0) - t * logit
        total += loss / n
        dlogit = (_sigmoid(logit) - t) / n
        segment_backward(dlogit, params, know, cache, grads)
    for name, arr in params.tensors().items():
        if arr.ndim >= 2 and l2_weight > 0.0:
            total += l2_weight * float((arr ** 2).sum())
            grads[name] += 2.0 * l2_weight * arr
    return total, grads
