from __future__ import annotations

import math

import numpy as np
import pytest

from tbvad.classifier import KnowledgeInputs, ModelConfig, _head_forward, init_model_params
from tbvad.encoder import (
    LN_EPS,
    encoder_backward,
    encoder_forward,
    gelu,
    layer_norm,
    sinusoidal_positions,
)
from tbvad.errors import TbvadError, ValidationError


def encoder_params(num_layers, num_heads, d_model, d_latent, seed):
    """The encoder of a seeded model whose feed-forward width is 4 * d_model."""
    cfg = ModelConfig(d_model=d_model, num_layers=num_layers, num_heads=num_heads,
                      d_ff=4 * d_model, d_latent=d_latent, knowledge_dim=1, k_frames=1,
                      seed=seed, active_aspects=())
    return init_model_params(cfg).encoder


def naive_layer_forward(x, layer, mask, nh):
    """Straight-line single-layer reference: explicit loops, no batching."""
    t, d = x.shape
    dh = d // nh

    def ln_row(row, g, b):
        mu = sum(row) / d
        var = sum((r - mu) ** 2 for r in row) / d
        return [g[j] * (row[j] - mu) / math.sqrt(var + LN_EPS) + b[j] for j in range(d)]

    u = [ln_row(x[i], layer.ln1_g, layer.ln1_b) for i in range(t)]

    def matvecT(w, rows):  # rows @ w.T with loops
        return [[sum(w[a][j] * row[j] for j in range(d)) for a in range(len(w))] for row in rows]

    q, k, v = matvecT(layer.wq, u), matvecT(layer.wk, u), matvecT(layer.wv, u)
    o = [[0.0] * d for _ in range(t)]
    for h in range(nh):
        lo = h * dh
        for i in range(t):
            scores = []
            for j in range(t):
                if not mask[j]:
                    scores.append(-math.inf)
                else:
                    scores.append(sum(q[i][lo + r] * k[j][lo + r] for r in range(dh)) / math.sqrt(dh))
            m = max(scores)
            exps = [math.exp(s - m) for s in scores]
            z = sum(exps)
            probs = [e / z for e in exps]
            for r in range(dh):
                o[i][lo + r] = sum(probs[j] * v[j][lo + r] for j in range(t))
    attn = [[sum(layer.wo[a][b] * o[i][b] for b in range(d)) for a in range(d)] for i in range(t)]
    a_res = [[x[i][j] + attn[i][j] for j in range(d)] for i in range(t)]

    w_rows = [ln_row(a_res[i], layer.ln2_g, layer.ln2_b) for i in range(t)]
    d_ff = layer.w1.shape[0]
    out = []
    for i in range(t):
        f1 = [sum(layer.w1[m][j] * w_rows[i][j] for j in range(d)) + layer.c1[m] for m in range(d_ff)]
        h1 = [float(gelu(np.array([val]))[0][0]) for val in f1]
        f2 = [sum(layer.w2[a][m] * h1[m] for m in range(d_ff)) + layer.c2[a] for a in range(d)]
        out.append([a_res[i][j] + f2[j] for j in range(d)])
    return np.array(out)


class TestEncodeDescriptions:
    """encoder_forward over caption-embedding sequences."""

    def test_zero_layers_is_identity(self):
        params = encoder_params(num_layers=0, num_heads=2, d_model=8, d_latent=4, seed=0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 5, 8))
        h, _ = encoder_forward(x, np.ones((1, 5), dtype=bool), params)
        assert np.array_equal(h, x)

    def test_single_token_finite(self):
        params = encoder_params(num_layers=2, num_heads=2, d_model=8, d_latent=4, seed=1)
        x = np.random.default_rng(1).normal(size=(1, 1, 8))
        h, _ = encoder_forward(x, np.ones((1, 1), dtype=bool), params)
        assert h.shape == (1, 1, 8)
        assert np.all(np.isfinite(h))

    def test_matches_naive_per_head_oracle(self):
        params = encoder_params(num_layers=1, num_heads=2, d_model=8, d_latent=4, seed=2)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 8))
        mask = np.ones(4, dtype=bool)
        got, _ = encoder_forward(x[None], mask[None], params)
        got = got[0]
        expected = naive_layer_forward(x * math.sqrt(8) + sinusoidal_positions(4, 8), params.layers[0], mask, 2)
        assert np.max(np.abs(got - expected)) <= 1e-8

    def test_oracle_with_masked_key(self):
        params = encoder_params(num_layers=1, num_heads=4, d_model=8, d_latent=4, seed=3)
        rng = np.random.default_rng(3)
        mask = np.array([True, True, False, True])
        x = rng.normal(size=(4, 8))
        x[2] = 0.0
        got, _ = encoder_forward(x[None], mask[None], params)
        got = got[0]
        expected = naive_layer_forward(x * math.sqrt(8) + sinusoidal_positions(4, 8), params.layers[0], mask, 4)
        expected[~mask] = 0.0
        assert np.max(np.abs(got - expected)) <= 1e-8
        assert np.all(got[2] == 0.0)

    def test_shape_preserved_for_any_depth(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 6, 16))
        for depth in (0, 1, 3):
            params = encoder_params(num_layers=depth, num_heads=4, d_model=16, d_latent=8, seed=depth)
            assert encoder_forward(x, np.ones((1, 6), dtype=bool), params)[0].shape == (1, 6, 16)

    def test_position_sensitive(self):
        params = encoder_params(num_layers=1, num_heads=2, d_model=8, d_latent=4, seed=5)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 8))
        perm = np.array([2, 0, 3, 1])
        h, _ = encoder_forward(np.stack([x, x[perm]]), np.ones((2, 4), dtype=bool), params)
        assert not np.allclose(h[0][perm], h[1])

    def test_dimension_mismatch_rejected(self):
        params = encoder_params(num_layers=1, num_heads=2, d_model=8, d_latent=4, seed=6)
        with pytest.raises(ValidationError, match="d_model"):
            encoder_forward(np.zeros((1, 3, 6)), np.ones((1, 3), dtype=bool), params)

    def test_fully_masked_video_in_batch_rejected(self):
        params = encoder_params(num_layers=1, num_heads=2, d_model=8, d_latent=4, seed=6)
        mask = np.ones((3, 4), dtype=bool)
        mask[1] = False
        with pytest.raises(ValidationError, match="unmasked"):
            encoder_forward(np.zeros((3, 4, 8)), mask, params)

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_nan_names_layer(self):
        params = encoder_params(num_layers=2, num_heads=2, d_model=8, d_latent=4, seed=7)
        params.layers[1].w2[:] = np.inf
        x = np.random.default_rng(7).normal(size=(1, 3, 8))
        with pytest.raises(TbvadError, match="layer 2"):
            encoder_forward(x, np.ones((1, 3), dtype=bool), params)

    def test_layer_norm_pre_gain_rows_centered(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 12)) * 3.0 + 1.0
        _, (xhat, _, _) = layer_norm(x, np.ones(12), np.zeros(12))
        assert np.max(np.abs(xhat.mean(axis=1))) <= 1e-6


class TestGelu:
    def test_cube_is_a_product_not_pow(self):
        """gelu cubes by multiplication; libm pow differs in the last bit on some inputs."""
        rng = np.random.default_rng(14)
        shape = (16, 8, 256)
        x = rng.normal(size=shape) * 10.0 ** rng.uniform(-3.0, 2.0, size=shape)
        k, c = math.sqrt(2.0 / math.pi), 0.044715
        tanh_term = np.tanh(k * (x + c * (x * x * x)))
        y, t = gelu(x)
        assert np.array_equal(t, tanh_term)
        assert np.array_equal(y, 0.5 * x * (1.0 + tanh_term))
        # The draw must be able to tell the product from pow, or the test pins nothing.
        assert not np.array_equal(np.tanh(k * (x + c * x ** 3)), tanh_term)
        assert not np.array_equal(np.tanh(k * (x + c * np.power(x, 3))), tanh_term)


def head_projection(vectors, w_d, b_d):
    """P_d of the classifier head on one encoded segment, as a group of one, gate at zero."""
    d_latent, d = w_d.shape
    cfg = ModelConfig(d_model=d, num_layers=0, num_heads=1, d_ff=d, d_latent=d_latent,
                      knowledge_dim=d, k_frames=4, seed=0, active_aspects=("object",))
    params = init_model_params(cfg)
    params.encoder.w_d, params.encoder.b_d = w_d, b_d
    know = KnowledgeInputs(mean_embedding=np.zeros(d), prototypes=np.ones((1, d)))
    _, cache = _head_forward(params, np.asarray(vectors, dtype=np.float64)[None], know)
    return cache.p_d[0]


class TestProjectDescription:
    """The head's mean pool and affine projection (w_d, b_d)."""

    def test_identity_single_row(self):
        h = np.array([[1.0, -2.0, 3.0, 0.5]])
        assert np.array_equal(head_projection(h, np.eye(4), np.zeros(4)), h[0])

    def test_hand_mean_plus_bias(self):
        h = np.array([[2.0, 0.0], [0.0, 2.0]])
        got = head_projection(h, np.eye(2), np.array([1.0, 1.0]))
        assert np.array_equal(got, np.array([2.0, 2.0]))

    def test_matches_matvec_oracle(self):
        rng = np.random.default_rng(9)
        params = encoder_params(num_layers=0, num_heads=1, d_model=6, d_latent=3, seed=9)
        h = rng.normal(size=(4, 6))
        pooled = h.mean(axis=0)
        oracle = np.zeros(3)
        for i in range(3):
            for j in range(6):
                oracle[i] += params.w_d[i, j] * pooled[j]
            oracle[i] += params.b_d[i]
        got = head_projection(h, params.w_d, params.b_d)
        assert np.max(np.abs(got - oracle)) <= 1e-10

    def test_all_masked_rejected(self):
        # The encoder checks the mask before its identity shortcut, so no
        # fully masked segment reaches the pool.
        params = encoder_params(num_layers=0, num_heads=1, d_model=2, d_latent=2, seed=0)
        with pytest.raises(ValidationError, match="unmasked"):
            encoder_forward(np.zeros((1, 2, 2)), np.zeros((1, 2), dtype=bool), params)


def relative_gradient_errors(analytic: dict, numeric: dict):
    worst = 0.0
    for name, a in analytic.items():
        f = numeric[name]
        for idx in np.ndindex(a.shape):
            denom = max(abs(a[idx]), abs(f[idx]))
            if denom < 1e-6:
                assert abs(a[idx] - f[idx]) < 1e-6, f"{name}{idx}"
            else:
                err = abs(a[idx] - f[idx]) / denom
                worst = max(worst, err)
                assert err <= 1e-4, f"{name}{idx}: analytic={a[idx]}, fd={f[idx]}"
    return worst


class TestEncoderGradients:
    def test_analytic_matches_finite_differences(self):
        params = encoder_params(num_layers=1, num_heads=2, d_model=8, d_latent=5, seed=11)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 8))
        mask = np.array([True, True, True, False])
        x[~mask] = 0.0
        r = rng.normal(size=5)

        def loss_only():
            h, _ = encoder_forward(x[None], mask[None], params)
            pooled = h[0][mask].sum(axis=0) / mask.sum()
            return float(r @ (params.w_d @ pooled + params.b_d))

        # Analytic gradients of loss = r . project(encode(x)).
        h, caches = encoder_forward(x[None], mask[None], params)
        h = h[0]
        pooled = h[mask].sum(axis=0) / mask.sum()
        analytic = {"w_d": np.outer(r, pooled), "b_d": r.copy()}
        dpooled = params.w_d.T @ r
        dh = np.zeros_like(h)
        dh[mask] = dpooled / mask.sum()
        _, enc_grads = encoder_backward(dh[None], mask[None], params, caches)
        analytic.update(enc_grads)

        eps = 1e-5
        numeric = {}
        tensors = params.tensors()
        for name, arr in tensors.items():
            g = np.zeros_like(arr)
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + eps
                lp = loss_only()
                arr[idx] = orig - eps
                lm = loss_only()
                arr[idx] = orig
                g[idx] = (lp - lm) / (2 * eps)
            numeric[name] = g

        relative_gradient_errors(analytic, numeric)

    def test_zero_layer_backward_passthrough(self):
        params = encoder_params(num_layers=0, num_heads=1, d_model=4, d_latent=2, seed=0)
        dh = np.random.default_rng(0).normal(size=(3, 4))
        dx, grads = encoder_backward(dh, np.ones(3, dtype=bool), params, [])
        assert np.array_equal(dx, dh)
        assert all(k in ("w_d", "b_d") or np.all(v == 0) for k, v in grads.items())
