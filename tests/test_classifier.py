from __future__ import annotations

import dataclasses
import json
import math
import resource
import struct
import sys
import tracemalloc

import numpy as np
import pytest

import reference_step
from tbvad.classifier import (
    MODEL_MAGIC,
    KnowledgeInputs,
    ModelConfig,
    TrainConfig,
    VideoFeatures,
    _forward,
    _head_forward,
    _sigmoid,
    _tensor_shapes,
    batch_loss_and_grads,
    init_model_params,
    knowledge_inputs,
    load_model,
    model_digest,
    predict_video,
    predict_videos,
    save_model,
    serialize_model,
    sgd_update,
    train,
    video_features,
)
from tbvad.corpus import CaptionCorpus, group_by_class, sample_evenly
from tbvad.embedding import EmbedderConfig, tokenize
from tbvad.errors import ModelFormatError, TbvadError, ValidationError
from tbvad.evaluation import score_corpus
from tbvad.knowledge import build_knowledge, class_agnostic_prototypes, default_prompts
from tbvad.reasoning import slot_attention, slot_importance

from conftest import make_video
from stubs import StubService

EMB = EmbedderConfig(backend="hash", d=16, seed=3)

NORMAL_TEXTS = [
    "A person walks calmly along the sidewalk with a backpack.",
    "Shoppers browse quietly near the storefront holding phones.",
    "A cyclist rides past the bus stop in the morning.",
    "People wait patiently at the crosswalk with umbrellas.",
]
ABNORMAL_TEXTS = [
    "A man swings a knife violently near the alley entrance.",
    "Rioters smash windows with hammers amid smoke and flames.",
    "Two people are fighting with bats beside burning debris.",
    "An attacker waves a pistol at the panicked crowd.",
]


def tiny_corpus(n_normal=4, n_abnormal=4):
    videos = []
    for i in range(n_normal):
        texts = [NORMAL_TEXTS[(i + j) % len(NORMAL_TEXTS)] for j in range(4)]
        videos.append(make_video(f"n{i}", "normal", texts))
    for i in range(n_abnormal):
        texts = [ABNORMAL_TEXTS[(i + j) % len(ABNORMAL_TEXTS)] for j in range(4)]
        videos.append(make_video(f"a{i}", "abnormal", texts))
    return CaptionCorpus(videos=tuple(videos), source_tag="tiny")


@pytest.fixture(scope="module")
def tiny_kb():
    corpus = tiny_corpus()
    d_n = CaptionCorpus(videos=tuple(v for v in corpus.videos if v.label == "normal"))
    d_a = CaptionCorpus(videos=tuple(v for v in corpus.videos if v.label == "abnormal"))
    return build_knowledge(d_n, d_a, default_prompts(), EMB)


def quick_cfg(**overrides):
    base = dict(learning_rate=0.1, epochs=8, batch_size=4, seed=1, l2_weight=1e-4,
                k_frames=4, num_layers=1, num_heads=2, d_latent=8)
    base.update(overrides)
    return TrainConfig(**base)


class TestFuseClassify:
    """The head's fusion: sigmoid(fuse_w . [P_d; P_v] + b), description first."""

    ASPECTS4 = ("context", "action", "object", "environment")

    def params_with(self, d_latent, fuse_w, fuse_b):
        # d_model = d_latent, identity w_d and a zero gate make P_d the mean of
        # the encoded rows; w_v = 0 makes P_v equal to b_v.
        cfg = ModelConfig(d_model=d_latent, num_layers=0, num_heads=1, d_ff=4 * d_latent,
                          d_latent=d_latent, knowledge_dim=d_latent, k_frames=4, seed=0,
                          active_aspects=self.ASPECTS4)
        params = init_model_params(cfg)
        params.encoder.w_d = np.eye(d_latent)
        params.encoder.b_d = np.zeros(d_latent)
        params.w_v = np.zeros((d_latent, d_latent))
        params.fuse_w = np.asarray(fuse_w, dtype=np.float64)
        params.fuse_b = np.asarray(fuse_b, dtype=np.float64)
        return params

    def fuse(self, params, p_d, p_v):
        """The head's logit for one encoded row p_d, with b_v set to p_v."""
        p_d, p_v = np.asarray(p_d, dtype=np.float64), np.asarray(p_v, dtype=np.float64)
        params.b_v = p_v
        d = params.config.d_model
        know = KnowledgeInputs(mean_embedding=np.ones(d), prototypes=np.ones((4, d)))
        logits, cache = _head_forward(params, p_d[None, None, :], know)
        assert logits.shape == (1,)
        assert np.array_equal(cache.p_d, p_d[None, :]) and np.array_equal(cache.p_v, p_v)
        return logits[0]

    def test_zero_weights_give_half(self):
        params = self.params_with(3, np.zeros(6), np.zeros(1))
        assert _sigmoid(self.fuse(params, np.ones(3), -np.ones(3))) == 0.5

    def test_sigmoid_of_ln3_is_three_quarters(self):
        fuse_w = np.zeros(6)
        fuse_w[0] = 1.0
        params = self.params_with(3, fuse_w, np.zeros(1))
        logit = self.fuse(params, [math.log(3.0), 0.0, 0.0], np.zeros(3))
        assert logit == math.log(3.0)
        assert _sigmoid(logit) == pytest.approx(0.75, abs=1e-12)

    def test_matches_dot_product_oracle(self):
        # Random projections on both sides; P_d, P_v and the logit by loops.
        rng = np.random.default_rng(5)
        cfg = ModelConfig(d_model=6, num_layers=0, num_heads=1, d_ff=12, d_latent=4,
                          knowledge_dim=5, k_frames=4, seed=0, active_aspects=self.ASPECTS4)
        params = init_model_params(cfg)
        params.fuse_b = rng.normal(size=1)
        h = rng.normal(size=(3, 6))
        know = KnowledgeInputs(mean_embedding=rng.normal(size=5), prototypes=rng.normal(size=(4, 6)))
        pooled = [sum(h[t, j] for t in range(3)) / 3 for j in range(6)]
        p_d = [sum(params.encoder.w_d[i, j] * pooled[j] for j in range(6)) + params.encoder.b_d[i]
               for i in range(4)]
        p_v = [sum(params.w_v[i, j] * know.mean_embedding[j] for j in range(5)) + params.b_v[i]
               for i in range(4)]
        logit = sum(params.fuse_w[i] * p_d[i] for i in range(4))
        logit += sum(params.fuse_w[4 + i] * p_v[i] for i in range(4))
        logit += params.fuse_b[0]
        got, _ = _head_forward(params, h[None], know)
        got = got[0]
        assert abs(got - logit) <= 1e-12
        assert abs(_sigmoid(got) - 1.0 / (1.0 + math.exp(-logit))) <= 1e-12

    def test_dimension_mismatch_rejected(self):
        params = self.params_with(3, np.zeros(6), np.zeros(1))
        know = KnowledgeInputs(mean_embedding=np.zeros(3), prototypes=np.zeros((4, 3)))
        feats = VideoFeatures(video_id="v", target=1.0, x=np.ones((2, 2)))
        with pytest.raises(ValidationError, match="d_model"):
            batch_loss_and_grads(params, [feats], know, l2_weight=0.0)

    def test_monotone_in_logit(self, tiny_kb):
        model = train(tiny_corpus(), tiny_kb, quick_cfg(epochs=1), EMB)
        video = tiny_corpus().videos[0]
        y0, _, _ = predict_video(video, tiny_kb, model, EMB)
        model.fuse_b[0] += 2.0
        y1, _, _ = predict_video(video, tiny_kb, model, EMB)
        assert y1 > y0


class TestTraining:
    def test_zero_lr_returns_initialization(self, tiny_kb):
        cfg = quick_cfg(learning_rate=0.0, epochs=3)
        model = train(tiny_corpus(), tiny_kb, cfg, EMB)
        init = init_model_params(model.config)
        assert model_digest(model) == model_digest(init)

    def test_single_class_rejected(self, tiny_kb):
        corpus = CaptionCorpus(videos=tuple(v for v in tiny_corpus().videos if v.label == "normal"))
        with pytest.raises(ValidationError, match="both classes"):
            train(corpus, tiny_kb, quick_cfg(), EMB)

    def test_one_step_update_matches_hand_gradient(self, tiny_kb):
        # Single video, one epoch, full batch: theta' = theta - lr * grad.
        cfg = quick_cfg(epochs=1, batch_size=1, learning_rate=0.25)
        corpus = CaptionCorpus(videos=(tiny_corpus().videos[0],))
        know = knowledge_inputs(tiny_kb)
        model_cfg = ModelConfig(
            d_model=EMB.d, num_layers=cfg.num_layers, num_heads=cfg.num_heads,
            d_ff=cfg.ff_multiple * EMB.d, d_latent=cfg.d_latent,
            knowledge_dim=EMB.d, k_frames=cfg.k_frames, seed=cfg.seed,
            active_aspects=tiny_kb.aspects,
        )
        init = init_model_params(model_cfg)
        feats = video_features(corpus.videos[0], EMB, cfg.k_frames)
        _, grads = batch_loss_and_grads(init, [feats], know, cfg.l2_weight)
        expected_fuse_w = (init.fuse_w - cfg.learning_rate * grads["fuse_w"]).astype(np.float32)

        params = init_model_params(model_cfg)
        loss, grads2 = batch_loss_and_grads(params, [feats], know, cfg.l2_weight)
        sgd_update(params, grads2, cfg.learning_rate)
        assert np.array_equal(params.fuse_w.astype(np.float32), expected_fuse_w)

    def test_hand_computed_fusion_gradient_frozen_encoder(self, tiny_kb):
        # Zero-layer encoder, identity projection: the fusion-head gradient is
        # (y - t) * [P_d; P_V] computed with plain scalar arithmetic.
        know = knowledge_inputs(tiny_kb)
        cfg = ModelConfig(d_model=16, num_layers=0, num_heads=1, d_ff=64, d_latent=16,
                          knowledge_dim=16, k_frames=4, seed=2,
                          active_aspects=tiny_kb.aspects)
        params = init_model_params(cfg)
        params.encoder.w_d = np.eye(16)
        params.encoder.b_d = np.zeros(16)
        params.gate[:] = 0.0
        video = tiny_corpus().videos[0]
        feats = video_features(video, EMB, 4)
        p_d = feats.x.mean(axis=0)
        p_v = params.w_v @ know.mean_embedding + params.b_v
        logit = float(params.fuse_w @ np.concatenate([p_d, p_v]) + params.fuse_b[0])
        y = 1.0 / (1.0 + math.exp(-logit))
        hand = (y - feats.target) * np.concatenate([p_d, p_v])
        _, grads = batch_loss_and_grads(params, [feats], know, l2_weight=0.0)
        assert np.max(np.abs(grads["fuse_w"] - hand)) <= 1e-10

    def test_full_batch_loss_non_increasing_with_small_lr(self, tiny_kb):
        history: list[float] = []
        cfg = quick_cfg(learning_rate=0.02, epochs=12, batch_size=8, num_layers=0)
        train(tiny_corpus(), tiny_kb, cfg, EMB, history=history)
        assert len(history) == 12
        for a, b in zip(history, history[1:]):
            assert b <= a + 1e-12

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_nan_loss_aborts_with_epoch(self, tiny_kb):
        cfg = quick_cfg(learning_rate=1.0, l2_weight=1e30, epochs=5)
        with pytest.raises(TbvadError, match="epoch"):
            train(tiny_corpus(), tiny_kb, cfg, EMB)

    def test_determinism_identical_digests(self, tiny_kb):
        m1 = train(tiny_corpus(), tiny_kb, quick_cfg(epochs=3), EMB)
        m2 = train(tiny_corpus(), tiny_kb, quick_cfg(epochs=3), EMB)
        assert model_digest(m1) == model_digest(m2)

    def test_seed_changes_digest(self, tiny_kb):
        m1 = train(tiny_corpus(), tiny_kb, quick_cfg(epochs=2, seed=1), EMB)
        m2 = train(tiny_corpus(), tiny_kb, quick_cfg(epochs=2, seed=2), EMB)
        assert model_digest(m1) != model_digest(m2)

    def test_separates_planted_vocabulary(self, tiny_kb):
        model = train(tiny_corpus(), tiny_kb, quick_cfg(epochs=30, learning_rate=0.2), EMB)
        normal_video = make_video("test_n", "normal", NORMAL_TEXTS)
        abnormal_video = make_video("test_a", "abnormal", ABNORMAL_TEXTS)
        y_n, _, _ = predict_video(normal_video, tiny_kb, model, EMB)
        y_a, _, _ = predict_video(abnormal_video, tiny_kb, model, EMB)
        assert y_a > 0.5
        assert y_n < 0.5

    def test_predict_deterministic(self, tiny_kb):
        model = train(tiny_corpus(), tiny_kb, quick_cfg(epochs=2), EMB)
        video = tiny_corpus().videos[3]
        assert predict_video(video, tiny_kb, model, EMB)[0] == predict_video(video, tiny_kb, model, EMB)[0]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux page faults")
    def test_steps_reuse_their_memory(self, tiny_kb):
        # A step at criterion-5 sizes (16 videos x 8 frames, d 64, two
        # layers) allocates several MB.  Once train() has set the heap
        # policy, later steps reuse that memory instead of faulting it back
        # in: about 1000 minor faults per step without it.
        train(tiny_corpus(), tiny_kb, quick_cfg(epochs=1), EMB)
        rng = np.random.default_rng(5)
        params = init_model_params(ModelConfig(
            d_model=64, num_layers=2, num_heads=4, d_ff=256, d_latent=32, knowledge_dim=64,
            k_frames=8, seed=1, active_aspects=tiny_kb.aspects))
        know = KnowledgeInputs(mean_embedding=rng.normal(size=64),
                               prototypes=rng.normal(size=(len(tiny_kb.aspects), 64)))
        batch = [VideoFeatures(video_id=f"v{i}", target=float(i % 2),
                               x=rng.normal(size=(8, 64)))
                 for i in range(16)]
        batch_loss_and_grads(params, batch, know, 1e-3)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(5):
            batch_loss_and_grads(params, batch, know, 1e-3)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 500

    def test_step_peak_memory(self, tiny_kb):
        # One step at criterion-5 sizes (16 videos x 8 frames, d 64, two
        # layers) with the default d_latent of 128 peaks near 5.25 MB under
        # tracemalloc, in the encoder backward.  Stacking the head's per-video
        # (out, in) gradient terms instead of adding each into its
        # accumulator takes it to about 6.8 MB, and keeping the head's state
        # through the encoder backward to about 5.6 MB.
        rng = np.random.default_rng(5)
        params = init_model_params(ModelConfig(
            d_model=64, num_layers=2, num_heads=4, d_ff=256, d_latent=128, knowledge_dim=64,
            k_frames=8, seed=1, active_aspects=tiny_kb.aspects))
        params.gate[0] = 0.5
        know = KnowledgeInputs(mean_embedding=rng.normal(size=64),
                               prototypes=rng.normal(size=(len(tiny_kb.aspects), 64)))
        batch = [VideoFeatures(video_id=f"v{i}", target=float(i % 2),
                               x=rng.normal(size=(8, 64)))
                 for i in range(16)]
        tracemalloc.start()
        try:
            batch_loss_and_grads(params, batch, know, 1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5.5e6


class TestModelIO:
    def test_round_trip_bitwise(self, tiny_kb, tmp_path):
        model = train(tiny_corpus(), tiny_kb, quick_cfg(epochs=2), EMB)
        path = tmp_path / "model.tbvm"
        save_model(model, path)
        loaded = load_model(path)
        for name, arr in model.tensors().items():
            assert np.array_equal(arr, loaded.tensors()[name]), name
        assert model_digest(loaded) == model_digest(model)

    def test_truncated_file_reports_offset(self, tiny_kb, tmp_path):
        model = train(tiny_corpus(), tiny_kb, quick_cfg(epochs=1), EMB)
        raw = serialize_model(model)
        path = tmp_path / "model.tbvm"
        path.write_bytes(raw[: len(raw) - 50])
        with pytest.raises(ModelFormatError, match="offset"):
            load_model(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.tbvm"
        path.write_bytes(b"NOPE" + b"\x00" * 100)
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(path)

    def test_version_mismatch_rejected(self, tiny_kb, tmp_path):
        model = train(tiny_corpus(), tiny_kb, quick_cfg(epochs=1), EMB)
        raw = bytearray(serialize_model(model))
        # Patch the version integer inside the JSON header.
        idx = raw.find(b'"format_version":1')
        raw[idx:idx + len(b'"format_version":1')] = b'"format_version":9'
        path = tmp_path / "model.tbvm"
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    def test_trailing_bytes_rejected(self, tiny_kb, tmp_path):
        model = train(tiny_corpus(), tiny_kb, quick_cfg(epochs=1), EMB)
        path = tmp_path / "model.tbvm"
        path.write_bytes(serialize_model(model) + b"extra")
        with pytest.raises(ModelFormatError, match="trailing"):
            load_model(path)

    @pytest.mark.parametrize("d_model, num_layers, num_heads, d_ff, d_latent, knowledge_dim", [
        (8, 1, 2, 16, 4, 8), (6, 0, 3, 5, 2, 7), (4, 3, 1, 9, 3, 5),
    ])
    def test_tensor_shapes_match_the_built_model(self, d_model, num_layers, num_heads, d_ff,
                                                 d_latent, knowledge_dim):
        cfg = ModelConfig(d_model=d_model, num_layers=num_layers, num_heads=num_heads,
                          d_ff=d_ff, d_latent=d_latent, knowledge_dim=knowledge_dim,
                          k_frames=4, seed=0, active_aspects=("object",))
        built = [(name, arr.shape) for name, arr in init_model_params(cfg).tensors().items()]
        assert list(_tensor_shapes(cfg)) == built

    def test_load_reads_the_blocks_without_a_seeded_init(self, tiny_kb, tmp_path, monkeypatch):
        model = train(tiny_corpus(), tiny_kb, quick_cfg(epochs=2), EMB)
        path = tmp_path / "model.tbvm"
        save_model(model, path)

        def no_init(*args, **kwargs):
            raise AssertionError("load_model ran a seeded init")

        for name in ("init_model_params", "init_encoder_params", "init_importance_params"):
            monkeypatch.setattr(f"tbvad.classifier.{name}", no_init)
        loaded = load_model(path)
        assert loaded.config == model.config
        for name, arr in model.tensors().items():
            assert np.array_equal(arr, loaded.tensors()[name]), name
        assert serialize_model(loaded) == path.read_bytes()

    def test_header_only_file_rejected_before_any_tensor_is_built(self, tmp_path):
        # Building a model of these dims peaks at about 140 MB.
        cfg = ModelConfig(d_model=768, num_layers=2, num_heads=12, d_ff=3072, d_latent=128,
                          knowledge_dim=768, k_frames=8, seed=0, active_aspects=("object",))
        header = json.dumps({"format_version": 1, "config": cfg.to_dict(), "tensors": []})
        path = tmp_path / "model.tbvm"
        path.write_bytes(MODEL_MAGIC + struct.pack("<Q", len(header)) + header.encode("utf-8"))
        tracemalloc.start()
        try:
            with pytest.raises(ModelFormatError, match="truncated.*offset"):
                load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6


def with_header(raw: bytes, header) -> bytes:
    """Replace the JSON header of a serialized model, keeping its tensor blocks."""
    (header_len,) = struct.unpack_from("<Q", raw, 4)
    body = raw[12 + header_len:]
    header_bytes = json.dumps(header).encode("utf-8")
    return MODEL_MAGIC + struct.pack("<Q", len(header_bytes)) + header_bytes + body


def model_header(raw: bytes) -> dict:
    (header_len,) = struct.unpack_from("<Q", raw, 4)
    return json.loads(raw[12:12 + header_len])


class TestMalformedHeaders:
    @pytest.fixture(scope="class")
    def raw(self, tiny_kb):
        return serialize_model(train(tiny_corpus(), tiny_kb, quick_cfg(epochs=1), EMB))

    def load_with(self, tmp_path, raw, header):
        path = tmp_path / "model.tbvm"
        path.write_bytes(with_header(raw, header))
        return load_model(path)

    def test_list_header_rejected(self, raw, tmp_path):
        with pytest.raises(ModelFormatError, match="JSON object"):
            self.load_with(tmp_path, raw, [model_header(raw)])

    def test_missing_config_rejected(self, raw, tmp_path):
        header = model_header(raw)
        del header["config"]
        with pytest.raises(ModelFormatError, match="no config"):
            self.load_with(tmp_path, raw, header)

    def test_config_missing_keys_rejected(self, raw, tmp_path):
        header = model_header(raw)
        del header["config"]["d_model"]
        del header["config"]["active_aspects"]
        with pytest.raises(ModelFormatError, match="missing keys"):
            self.load_with(tmp_path, raw, header)

    def test_config_bad_value_rejected(self, raw, tmp_path):
        header = model_header(raw)
        header["config"]["num_heads"] = "two"
        with pytest.raises(ModelFormatError, match="num_heads"):
            self.load_with(tmp_path, raw, header)

    def test_duplicate_tensor_entry_rejected(self, raw, tmp_path):
        # Each edit keeps the config and the tensor blocks; only the list is wrong.
        def entry(entries, name):
            return next(e for e in entries if e["name"] == name)

        edits = {
            "duplicate entry": lambda t: t.append(t[-1]),
            "swapped pair": lambda t: t.insert(0, t.pop(1)),
            "true dim": lambda t: entry(t, "fuse_b").update(shape=[True]),
            "1.0 dim": lambda t: entry(t, "fuse_b").update(shape=[1.0]),
            "extra entry key": lambda t: t[0].update(dtype="<f4"),
            "missing entry": lambda t: t.pop(),
            "wrong shape": lambda t: entry(t, "fuse_w")["shape"].insert(0, 1),
        }
        for what, edit in edits.items():
            header = model_header(raw)
            edit(header["tensors"])
            with pytest.raises(ModelFormatError, match="tensor list does not match"):
                self.load_with(tmp_path, raw, header)
                pytest.fail(f"a tensor list with edit {what!r} loaded")

    def test_legacy_null_mil_top_k_loads_unchanged(self, raw, tmp_path):
        # Files saved while the caption-window variant existed hold "mil_top_k": null.
        header = model_header(raw)
        assert "mil_top_k" not in header["config"]
        current = self.load_with(tmp_path, raw, header)
        header["config"]["mil_top_k"] = None
        legacy = self.load_with(tmp_path, raw, header)
        assert legacy.config == current.config
        for name, arr in current.tensors().items():
            assert np.array_equal(legacy.tensors()[name], arr), name

    def test_window_model_rejected(self, raw, tmp_path):
        header = model_header(raw)
        header["config"]["mil_top_k"] = 2
        with pytest.raises(ModelFormatError, match="top-k pooling over caption windows"):
            self.load_with(tmp_path, raw, header)


def tensor_offset(raw: bytes, name: str) -> int:
    """Byte offset of a tensor block in a serialized model."""
    (header_len,) = struct.unpack_from("<Q", raw, 4)
    offset = 12 + header_len
    for entry in model_header(raw)["tensors"]:
        if entry["name"] == name:
            return offset
        offset += 4 * math.prod(entry["shape"])
    raise KeyError(name)


class TestNonFiniteTensors:
    RAW = serialize_model(init_model_params(ModelConfig(
        d_model=8, num_layers=1, num_heads=2, d_ff=16, d_latent=4, knowledge_dim=8,
        k_frames=4, seed=3, active_aspects=("object", "environment"))))

    @pytest.mark.parametrize("name, index, value", [
        ("fuse_w", 0, np.nan), ("fuse_w", 3, -np.inf), ("gate", 0, np.inf),
    ])
    def test_rejected_with_tensor_and_offset(self, tmp_path, name, index, value):
        at = tensor_offset(self.RAW, name) + 4 * index
        raw = bytearray(self.RAW)
        raw[at:at + 4] = np.array(value, dtype="<f4").tobytes()
        path = tmp_path / "model.tbvm"
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFormatError, match=rf"tensor {name} holds a non-finite .*offset {at}\)"):
            load_model(path)


def distinct_prototypes(know, seed=17):
    """``know`` with its slot prototypes pulled apart.

    tiny_kb's four slots hold the same sentences, so its class-agnostic
    prototypes coincide: the importance weights come out uniform and their
    gradients zero, and a check on them alone would not see the importance net.
    """
    rng = np.random.default_rng(seed)
    return KnowledgeInputs(mean_embedding=know.mean_embedding,
                           prototypes=know.prototypes + 0.5 * rng.normal(size=know.prototypes.shape))


class TestBatchedStepOracle:
    """The batched step equals the per-video reference bit for bit."""

    @staticmethod
    def params_for(tiny_kb, **overrides):
        fields = dict(d_model=EMB.d, num_layers=2, num_heads=2, d_ff=2 * EMB.d, d_latent=8,
                      knowledge_dim=EMB.d, k_frames=4, seed=13,
                      active_aspects=tiny_kb.aspects)
        fields.update(overrides)
        params = init_model_params(ModelConfig(**fields))
        params.gate[0] = 0.5
        return params

    @staticmethod
    def varied_videos(counts):
        texts = NORMAL_TEXTS + ABNORMAL_TEXTS
        videos = []
        for i, count in enumerate(counts):
            label = "abnormal" if i % 2 else "normal"
            videos.append(make_video(f"v{i}", label, [texts[(i + j) % len(texts)]
                                                      for j in range(count)]))
        return videos

    @staticmethod
    def assert_matches_reference(params, batch, know):
        for inputs in (know, distinct_prototypes(know)):
            loss, grads = batch_loss_and_grads(params, batch, inputs, 1e-3)
            ref_loss, ref_grads = reference_step.batch_loss_and_grads(params, batch, inputs, 1e-3)
            assert loss == ref_loss
            assert grads.keys() == ref_grads.keys()
            for name, grad in grads.items():
                assert np.array_equal(grad, ref_grads[name]), name
        assert np.any(grads["importance.w1"])

    def test_mixed_segment_lengths(self, tiny_kb):
        params = self.params_for(tiny_kb)
        batch = [video_features(v, EMB, 4) for v in self.varied_videos([4, 2, 5, 3, 2, 6, 4])]
        assert len({f.x.shape[0] for f in batch}) == 3
        self.assert_matches_reference(params, batch, knowledge_inputs(tiny_kb))

    def test_zero_layers(self, tiny_kb):
        params = self.params_for(tiny_kb, num_layers=0)
        batch = [video_features(v, EMB, 4) for v in self.varied_videos([4, 2, 4, 3])]
        self.assert_matches_reference(params, batch, knowledge_inputs(tiny_kb))

    def test_zero_slot_context_next_to_nonzero(self, tiny_kb):
        # With no encoder layers a zero segment encodes to zero, so its slot
        # context and norm are zero and its residual skips the normalization,
        # while the other videos of its shape group normalize theirs.
        params = self.params_for(tiny_kb, num_layers=0)
        batch = [video_features(v, EMB, 4) for v in self.varied_videos([4, 2, 4, 4, 2])]
        batch[2].x[...] = 0.0
        know = knowledge_inputs(tiny_kb)
        fwd = _forward(params, batch, know)
        norms = [fwd.heads[seg.group].norm[seg.row] for seg in fwd.segments]
        assert norms[2] == 0.0 and all(n > 0 for i, n in enumerate(norms) if i != 2)
        assert params.gate[0] != 0.0 and len(fwd.groups) == 2
        self.assert_matches_reference(params, batch, know)


class TestHeadMatchesExplainPath:
    """The head's slot attention and importance are the ones explain computes."""

    def test_importance_weights_equal_slot_importance(self, tiny_kb):
        params = TestBatchedStepOracle.params_for(tiny_kb)
        batch = [video_features(v, EMB, 4)
                 for v in TestBatchedStepOracle.varied_videos([4, 2, 4, 3])]
        know = knowledge_inputs(tiny_kb)
        assert np.array_equal(know.prototypes, class_agnostic_prototypes(tiny_kb))
        for inputs in (know, distinct_prototypes(know)):
            fwd = _forward(params, batch, inputs)
            assert len(fwd.groups) == 3
            protos = inputs.prototypes
            for segment in fwd.segments:
                head, b = fwd.heads[segment.group], segment.row
                h, a, c, w = head.h[b], head.a[b], head.c[b], head.w[b]
                att_a, att_c = slot_attention(protos, h)
                imp_w = slot_importance(att_c, protos, params.importance)
                assert np.array_equal(att_a, a) and np.array_equal(att_c, c)
                assert np.array_equal(imp_w, w)
        assert np.ptp(w) > 0


class TestBatchedScoringOracle:
    """Scoring a corpus in 16-video chunks equals scoring each video alone."""

    @staticmethod
    def corpus(n=40, marker=False):
        # Every fourth video has 3 captions, fewer than k_frames=4, so each
        # chunk's encoder runs on two segment lengths.
        texts = NORMAL_TEXTS + ABNORMAL_TEXTS
        videos = []
        for i in range(n):
            count = 3 if i % 4 == 1 else 4 + i % 5
            caps = [texts[(i + j) % len(texts)] + (f" mark{i}x{j}" if marker else "")
                    for j in range(count)]
            videos.append(make_video(f"v{i}", "abnormal" if i % 2 else "normal", caps))
        return CaptionCorpus(videos=tuple(videos), source_tag="oracle")

    def test_score_corpus_equals_per_video(self, tiny_kb):
        params = TestBatchedStepOracle.params_for(tiny_kb)
        corpus = self.corpus()
        feats = [video_features(v, EMB, 4) for v in corpus.videos]
        assert {f.x.shape[0] for f in feats} == {3, 4}
        scores, labels = score_corpus(corpus, tiny_kb, params, EMB)
        assert labels == [i % 2 for i in range(40)]
        per_video = [predict_video(v, tiny_kb, params, EMB)[0] for v in corpus.videos]
        assert np.array_equal(scores, per_video)
        # The per-video forward from before batching is the reference.
        know = knowledge_inputs(tiny_kb)
        reference = [_sigmoid(reference_step.video_logit(params, f, know)[0]) for f in feats]
        assert np.array_equal(scores, reference)

    def test_predict_videos_returns_each_videos_intermediates(self, tiny_kb):
        params = TestBatchedStepOracle.params_for(tiny_kb, k_frames=5)
        videos = self.corpus(n=20).videos
        batched = predict_videos(videos, tiny_kb, params, EMB)
        for video, (y, p_d, h) in zip(videos, batched):
            y1, p_d1, h_d1 = predict_video(video, tiny_kb, params, EMB)
            assert y == y1 and np.array_equal(p_d, p_d1)
            assert np.array_equal(h, h_d1.vectors)
            assert h.shape[0] == min(5, len(video.captions))

    def test_cold_remote_score_fetches_distinct_tokens_once(self, tmp_path):
        corpus = self.corpus(marker=True)
        with StubService() as svc:
            emb = EmbedderConfig(backend="remote", d=EMB.d, endpoint=svc.endpoint,
                                 cache_dir=str(tmp_path / "cache"), seed=0)
            # The knowledge has its own cache, so every description token starts cold.
            kb_emb = dataclasses.replace(emb, cache_dir=str(tmp_path / "kb"))
            kb = build_knowledge(*group_by_class(tiny_corpus()), default_prompts(), kb_emb)
            params = TestBatchedStepOracle.params_for(kb)
            distinct = {t for v in corpus.videos for c in sample_evenly(v, params.config.k_frames)
                        for t in tokenize(c.text)}
            assert len(distinct) > 128
            built = svc.request_count
            cold, _ = score_corpus(corpus, kb, params, emb)
            assert svc.request_count - built == -(-len(distinct) // 64)
            assert all(r["path"] == "/embed" for r in svc.requests)
            # The fetched vectors go to disk as one pack file.
            packs = list((tmp_path / "cache" / "embed").iterdir())
            assert len(packs) == 1
            warm, _ = score_corpus(corpus, kb, params, emb)
            assert svc.request_count - built == -(-len(distinct) // 64)
            assert list((tmp_path / "cache" / "embed").iterdir()) == packs
        assert np.array_equal(cold, warm)


class TestFullGradientCheck:
    def test_all_parameter_groups_match_finite_differences(self, tiny_kb):
        # Small instance covering encoder, both projections, fusion head, and
        # the importance net with a non-zero gate.
        rng = np.random.default_rng(21)
        cfg = ModelConfig(d_model=8, num_layers=1, num_heads=2, d_ff=16, d_latent=4,
                          knowledge_dim=8, k_frames=4, seed=21,
                          active_aspects=("context", "action", "object", "environment"))
        params = init_model_params(cfg)
        params.gate[0] = 0.5

        know = KnowledgeInputs(mean_embedding=rng.normal(size=8),
                               prototypes=rng.normal(size=(4, 8)))
        # The middle video is shorter, so the batch has two segment shapes
        # and the grouped encoder passes interleave in batch order.
        batch = []
        for target, t in ((1.0, 4), (1.0, 3), (0.0, 4)):
            batch.append(VideoFeatures(video_id=f"v{len(batch)}", target=target,
                                       x=rng.normal(size=(t, 8))))

        l2 = 1e-3
        _, analytic = batch_loss_and_grads(params, batch, know, l2)

        eps = 1e-5
        for name, arr in params.tensors().items():
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + eps
                lp, _ = batch_loss_and_grads(params, batch, know, l2)
                arr[idx] = orig - eps
                lm, _ = batch_loss_and_grads(params, batch, know, l2)
                arr[idx] = orig
                fd = (lp - lm) / (2 * eps)
                a = analytic[name][idx]
                denom = max(abs(a), abs(fd))
                if denom < 1e-6:
                    assert abs(a - fd) < 1e-6, f"{name}{idx}"
                else:
                    assert abs(a - fd) / denom <= 1e-4, f"{name}{idx}: {a} vs {fd}"
