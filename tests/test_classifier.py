from __future__ import annotations

import json
import math
import resource
import struct
import sys

import numpy as np
import pytest

import reference_step
from tbvad.classifier import (
    MODEL_MAGIC,
    KnowledgeInputs,
    ModelConfig,
    TrainConfig,
    VideoFeatures,
    _sigmoid,
    batch_loss_and_grads,
    fuse_classify,
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
from tbvad.corpus import CaptionCorpus, sample_evenly
from tbvad.embedding import EmbedderConfig, tokenize
from tbvad.errors import ModelFormatError, TbvadError, ValidationError
from tbvad.evaluation import score_corpus
from tbvad.knowledge import build_knowledge, default_prompts

from conftest import make_video
from stubs import StubService

EMB = EmbedderConfig(backend="hash", d=16, max_tokens=512, seed=3)
KEMB = EmbedderConfig(backend="hash", d=16, max_tokens=4096, seed=3)

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
    return build_knowledge(d_n, d_a, default_prompts(), KEMB)


def quick_cfg(**overrides):
    base = dict(learning_rate=0.1, epochs=8, batch_size=4, seed=1, l2_weight=1e-4,
                k_frames=4, num_layers=1, num_heads=2, d_latent=8)
    base.update(overrides)
    return TrainConfig(**base)


class TestFuseClassify:
    def params_with(self, d_latent, fuse_w, fuse_b):
        cfg = ModelConfig(d_model=4, num_layers=0, num_heads=1, d_ff=16, d_latent=d_latent,
                          knowledge_dim=4, k_frames=4, seed=0,
                          active_aspects=("context", "action", "object", "environment"))
        params = init_model_params(cfg)
        params.fuse_w = np.asarray(fuse_w, dtype=np.float64)
        params.fuse_b = np.asarray(fuse_b, dtype=np.float64)
        return params

    def test_zero_weights_give_half(self):
        params = self.params_with(3, np.zeros(6), np.zeros(1))
        assert fuse_classify(np.ones(3), -np.ones(3), params) == pytest.approx(0.5)

    def test_sigmoid_of_ln3_is_three_quarters(self):
        fuse_w = np.zeros(6)
        fuse_w[0] = 1.0
        params = self.params_with(3, fuse_w, np.zeros(1))
        p_d = np.array([math.log(3.0), 0.0, 0.0])
        assert fuse_classify(p_d, np.zeros(3), params) == pytest.approx(0.75)

    def test_matches_dot_product_oracle(self):
        rng = np.random.default_rng(5)
        params = self.params_with(4, rng.normal(size=8), rng.normal(size=1))
        p_d, p_v = rng.normal(size=4), rng.normal(size=4)
        logit = sum(params.fuse_w[i] * p_d[i] for i in range(4))
        logit += sum(params.fuse_w[4 + i] * p_v[i] for i in range(4))
        logit += params.fuse_b[0]
        assert abs(fuse_classify(p_d, p_v, params) - 1.0 / (1.0 + math.exp(-logit))) <= 1e-12

    def test_dimension_mismatch_rejected(self):
        params = self.params_with(3, np.zeros(6), np.zeros(1))
        with pytest.raises(ValidationError):
            fuse_classify(np.ones(2), np.ones(3), params)

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
            knowledge_dim=KEMB.d, k_frames=cfg.k_frames, seed=cfg.seed,
            active_aspects=tiny_kb.aspects, mil_top_k=None,
        )
        init = init_model_params(model_cfg)
        feats = video_features(corpus.videos[0], EMB, cfg.k_frames, None)
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
        feats = video_features(video, EMB, 4, None)
        x, mask = feats.segments[0]
        p_d = x.mean(axis=0)
        p_v = params.w_v @ know.mean_embedding + params.b_v
        logit = float(params.fuse_w @ np.concatenate([p_d, p_v]) + params.fuse_b[0])
        y = 1.0 / (1.0 + math.exp(-logit))
        hand = (y - feats.target) * np.concatenate([p_d, p_v])
        _, grads = batch_loss_and_grads(params, [feats], know, l2_weight=0.0)
        assert np.max(np.abs(grads["fuse_w"] - hand)) <= 1e-10

    def test_full_batch_loss_non_increasing_with_small_lr(self, tiny_kb):
        history: list[float] = []
        cfg = quick_cfg(learning_rate=0.02, epochs=12, batch_size=8, num_layers=0,
                        freeze_importance_net=True)
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

    def test_mil_variant_trains_and_predicts(self, tiny_kb):
        cfg = quick_cfg(epochs=2, mil_top_k=2, k_frames=3)
        model = train(tiny_corpus(), tiny_kb, cfg, EMB)
        assert model.config.mil_top_k == 2
        video = tiny_corpus().videos[0]
        y1, _, _ = predict_video(video, tiny_kb, model, EMB)
        y2, _, _ = predict_video(video, tiny_kb, model, EMB)
        assert y1 == y2

    def test_predict_deterministic(self, tiny_kb):
        model = train(tiny_corpus(), tiny_kb, quick_cfg(epochs=2), EMB)
        video = tiny_corpus().videos[3]
        assert predict_video(video, tiny_kb, model, EMB)[0] == predict_video(video, tiny_kb, model, EMB)[0]

    def test_freeze_importance_keeps_gate_zero(self, tiny_kb):
        cfg = quick_cfg(epochs=4, freeze_importance_net=True)
        model = train(tiny_corpus(), tiny_kb, cfg, EMB)
        assert model.gate[0] == 0.0
        unfrozen = train(tiny_corpus(), tiny_kb, quick_cfg(epochs=4), EMB)
        assert unfrozen.gate[0] != 0.0

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
                               segments=[(rng.normal(size=(8, 64)), np.ones(8, dtype=bool))])
                 for i in range(16)]
        batch_loss_and_grads(params, batch, know, 1e-3)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(5):
            batch_loss_and_grads(params, batch, know, 1e-3)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 500


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


class TestBatchedStepOracle:
    """The batched step equals the per-video reference bit for bit."""

    @staticmethod
    def params_for(tiny_kb, **overrides):
        fields = dict(d_model=EMB.d, num_layers=2, num_heads=2, d_ff=2 * EMB.d, d_latent=8,
                      knowledge_dim=KEMB.d, k_frames=4, seed=13,
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
        loss, grads = batch_loss_and_grads(params, batch, know, 1e-3)
        ref_loss, ref_grads = reference_step.batch_loss_and_grads(params, batch, know, 1e-3)
        assert loss == ref_loss
        assert grads.keys() == ref_grads.keys()
        for name, grad in grads.items():
            assert np.array_equal(grad, ref_grads[name]), name

    def test_mixed_segment_lengths(self, tiny_kb):
        params = self.params_for(tiny_kb)
        batch = [video_features(v, EMB, 4, None) for v in self.varied_videos([4, 2, 5, 3, 2, 6, 4])]
        assert len({f.segments[0][0].shape[0] for f in batch}) == 3
        self.assert_matches_reference(params, batch, knowledge_inputs(tiny_kb))

    def test_partially_masked_segment(self, tiny_kb):
        params = self.params_for(tiny_kb)
        batch = [video_features(v, EMB, 4, None) for v in self.varied_videos([4, 4, 4, 4])]
        for feats, masked in zip(batch[1:3], ([1, 2], [0])):
            x, mask = feats.segments[0]
            mask[masked] = False
            x[~mask] = 0.0
        self.assert_matches_reference(params, batch, knowledge_inputs(tiny_kb))

    def test_mil_top_k(self, tiny_kb):
        params = self.params_for(tiny_kb, k_frames=3, mil_top_k=2)
        videos = self.varied_videos([7, 2, 8, 5, 3, 8])
        batch = [video_features(v, EMB, 3, 2) for v in videos]
        assert max(len(f.segments) for f in batch) > 3
        self.assert_matches_reference(params, batch, knowledge_inputs(tiny_kb))

    def test_zero_layers(self, tiny_kb):
        params = self.params_for(tiny_kb, num_layers=0)
        batch = [video_features(v, EMB, 4, None) for v in self.varied_videos([4, 2, 4, 3])]
        self.assert_matches_reference(params, batch, knowledge_inputs(tiny_kb))


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

    @pytest.mark.parametrize("mil_top_k", [None, 2])
    def test_score_corpus_equals_per_video(self, tiny_kb, mil_top_k):
        params = TestBatchedStepOracle.params_for(tiny_kb, mil_top_k=mil_top_k)
        corpus = self.corpus()
        feats = [video_features(v, EMB, 4, mil_top_k) for v in corpus.videos]
        assert {x.shape[0] for f in feats for x, _ in f.segments} == {3, 4}
        scores, labels = score_corpus(corpus, tiny_kb, params, EMB)
        assert labels == [i % 2 for i in range(40)]
        per_video = [predict_video(v, tiny_kb, params, EMB)[0] for v in corpus.videos]
        assert np.array_equal(scores, per_video)
        # The per-video forward from before batching is the reference.
        know = knowledge_inputs(tiny_kb)
        reference = [_sigmoid(reference_step.video_logit(params, f, know)[0]) for f in feats]
        assert np.array_equal(scores, reference)

    def test_predict_videos_returns_each_videos_intermediates(self, tiny_kb):
        params = TestBatchedStepOracle.params_for(tiny_kb)
        videos = self.corpus(n=20).videos
        batched = predict_videos(videos, tiny_kb, params, EMB, k_frames=5)
        for video, (y, p_d, h_d) in zip(videos, batched):
            y1, p_d1, h_d1 = predict_video(video, tiny_kb, params, EMB, k_frames=5)
            assert y == y1 and np.array_equal(p_d, p_d1)
            assert np.array_equal(h_d.vectors, h_d1.vectors) and np.array_equal(h_d.mask, h_d1.mask)
            assert h_d.t == min(5, len(video.captions))

    def test_cold_remote_score_fetches_distinct_tokens_once(self, tiny_kb, tmp_path):
        params = TestBatchedStepOracle.params_for(tiny_kb)
        corpus = self.corpus(marker=True)
        distinct = {t for v in corpus.videos for c in sample_evenly(v, params.config.k_frames)
                    for t in tokenize(c.text)}
        assert len(distinct) > 128
        with StubService() as svc:
            emb = EmbedderConfig(backend="remote", d=EMB.d, endpoint=svc.endpoint,
                                 cache_dir=str(tmp_path / "cache"), seed=0)
            cold, _ = score_corpus(corpus, tiny_kb, params, emb)
            assert svc.request_count == -(-len(distinct) // 64)
            assert all(r["path"] == "/embed" for r in svc.requests)
            warm, _ = score_corpus(corpus, tiny_kb, params, emb)
            assert svc.request_count == -(-len(distinct) // 64)
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
            x = rng.normal(size=(t, 8))
            mask = np.ones(t, dtype=bool)
            batch.append(VideoFeatures(video_id=f"v{len(batch)}", target=target,
                                       segments=[(x, mask)]))

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
