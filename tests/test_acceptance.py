"""Acceptance suite: every criterion at its stated tolerance, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the synthetic end-to-end criterion trains the full pipeline and takes
a couple of minutes.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from tbvad.classifier import (
    KnowledgeInputs,
    ModelConfig,
    VideoFeatures,
    batch_loss_and_grads,
    init_model_params,
    load_model,
    model_digest,
    save_model,
)
from tbvad.corpus import CaptionCorpus
from tbvad.embedding import EmbedderConfig, TokenEmbeddingSeq
from tbvad.evaluation import (
    ablate_slots,
    average_precision,
    caption_stats,
    evaluate_model,
    make_pipeline_config,
    roc_auc,
    run_pipeline,
)
from tbvad.knowledge import build_knowledge, default_prompts, load_knowledge, save_knowledge
from tbvad.reasoning import (
    ExplanationRecord,
    importance_forward,
    init_importance_params,
    render_explanation,
    retrieve_evidence,
    slot_attention,
    slot_importance,
    softmax,
)
from tbvad.synthetic import SyntheticConfig, generate_corpus

from conftest import make_video
from stubs import StubService
from test_metrics import ap_cutpoint_oracle, auc_pairwise_oracle, random_instance
from test_reasoning import kb_with_embeddings, margins_of, retrieval_oracle

GOLDEN = Path(__file__).parent / "data" / "explanation_golden.txt"

# Desk-scale configuration frozen by calibration: hash embedder d=64,
# 2-layer encoder, K=8 sampled frames, 200 train / 100 test videos.
E2E_TRAIN_SEED = 100
E2E_TEST_SEED = 200
E2E_PIPELINE = dict(d=64, seed=1, epochs=60, learning_rate=0.25, batch_size=16,
                    k_frames=8, num_layers=2, num_heads=4, d_latent=32,
                    l2_weight=1e-3)


def note(criterion: int, text: str) -> None:
    print(f"\nACCEPTANCE {criterion} PASS: {text}")


class TestCriterion1MetricOracles:
    def test_rank_metrics_match_brute_force(self):
        start = time.monotonic()
        rng = np.random.default_rng(1001)
        worst = 0.0
        for _ in range(1000):
            scores, labels = random_instance(rng, n_max=20)
            worst = max(worst, abs(roc_auc(scores, labels) - auc_pairwise_oracle(scores, labels)))
            assert worst <= 1e-12
        rng = np.random.default_rng(1002)
        for _ in range(1000):
            scores, labels = random_instance(rng, n_max=20)
            diff = abs(average_precision(scores, labels) - ap_cutpoint_oracle(scores, labels))
            worst = max(worst, diff)
            assert diff <= 1e-12
        elapsed = time.monotonic() - start
        assert elapsed < 10.0
        note(1, f"roc_auc/average_precision match brute-force oracles on 1000 instances each "
                f"(max |diff| {worst:.2e}, {elapsed:.1f}s)")


class TestCriterion2GradientCorrectness:
    def test_full_loss_gradients_match_central_differences(self):
        start = time.monotonic()
        rng = np.random.default_rng(2024)
        cfg = ModelConfig(d_model=8, num_layers=1, num_heads=2, d_ff=16, d_latent=4,
                          knowledge_dim=8, k_frames=4, seed=7,
                          active_aspects=("context", "action", "object", "environment"))
        params = init_model_params(cfg)
        params.gate[0] = 0.5  # exercise the gated residual path
        know = KnowledgeInputs(mean_embedding=rng.normal(size=8),
                               prototypes=rng.normal(size=(4, 8)))
        batch = []
        for target in (1.0, 0.0):
            batch.append(VideoFeatures(video_id=str(target), target=target,
                                       x=rng.normal(size=(4, 8))))
        l2 = 1e-3
        _, analytic = batch_loss_and_grads(params, batch, know, l2)

        eps = 1e-5
        checked = 0
        worst = 0.0
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
                    rel = abs(a - fd) / denom
                    worst = max(worst, rel)
                    assert rel <= 1e-4, f"{name}{idx}: analytic={a} fd={fd}"
                checked += 1
        elapsed = time.monotonic() - start
        assert elapsed < 30.0
        note(2, f"analytic gradients of the full loss match central differences on all "
                f"{checked} parameters (worst rel err {worst:.2e}, {elapsed:.1f}s)")


class TestCriterion3ReasoningFidelity:
    def test_slot_attention_importance_and_retrieval(self):
        rng = np.random.default_rng(3003)
        # slot_attention vs triple-loop oracle.
        worst = 0.0
        for _ in range(50):
            s, t, d = (int(rng.integers(1, 5)), int(rng.integers(1, 8)), int(rng.integers(2, 9)))
            k_v = rng.normal(size=(s, d))
            vecs = rng.normal(size=(t, d))
            h = TokenEmbeddingSeq(vectors=vecs)
            got_a, got_c = slot_attention(k_v, h.vectors)
            a = np.zeros((s, t))
            for i in range(s):
                for j in range(t):
                    for m in range(d):
                        a[i, j] += k_v[i, m] * vecs[j, m]
                    a[i, j] /= math.sqrt(d)
            c = np.zeros((s, d))
            for i in range(s):
                for m in range(d):
                    for j in range(t):
                        c[i, m] += a[i, j] * vecs[j, m]
            worst = max(worst, np.max(np.abs(got_a - a)), np.max(np.abs(got_c - c)))
            assert worst <= 1e-10

        # Importance: sums to one, shift-invariant, argmax-consistent.
        f = init_importance_params(6, seed=33)
        for _ in range(100):
            c = rng.normal(size=(4, 6))
            k_v = rng.normal(size=(4, 6))
            w = slot_importance(c, k_v, f)
            z, _ = importance_forward(c, k_v, f)
            assert abs(w.sum() - 1.0) <= 1e-6
            assert int(np.argmax(w)) == int(np.argmax(z))
            shift = softmax(z + float(rng.normal()) * 7.0)
            assert np.max(np.abs(shift - w)) <= 1e-9

        # Retrieval equals exhaustive search on 500 random instances with ties.
        for trial in range(500):
            kb = kb_with_embeddings(4, int(rng.integers(1, 8)), rng)
            raw = rng.integers(0, 3, size=4).astype(float)
            z = raw - raw.max()
            w = softmax(z)
            h_bar = rng.normal(size=4)
            k = int(rng.integers(1, 5))
            got = retrieve_evidence(h_bar, kb, "a", w, k)
            expected = retrieval_oracle(h_bar, kb, "a", w, k)
            assert [(e.aspect, e.sentence) for e in got] == [(a_, s_) for a_, s_, _ in expected]
        note(3, f"slot attention matches the triple-loop oracle (max err {worst:.2e}); "
                f"importance normalized/shift-invariant; retrieval equals exhaustive search "
                f"on 500 instances")


class TestCriterion4CounterfactualMargins:
    def test_margin_properties_on_random_instances(self):
        rng = np.random.default_rng(4004)
        for trial in range(200):
            d = int(rng.integers(3, 9))
            kb = kb_with_embeddings(d, 2, rng)
            f = init_importance_params(d, seed=trial)
            t = int(rng.integers(1, 7))
            h = TokenEmbeddingSeq(vectors=rng.normal(size=(t, d)))
            v = "a" if trial % 2 else "n"
            margins = margins_of(h, kb, f, v)
            assert abs(sum(margins.values())) <= 1e-9
            flipped = margins_of(h, kb, f, "n" if v == "a" else "a")
            for aspect, value in margins.items():
                assert flipped[aspect] == pytest.approx(-value, abs=1e-12)
            kb.prototypes["a"] = kb.prototypes["n"].copy()
            identical = margins_of(h, kb, f, v)
            assert all(abs(x) <= 1e-12 for x in identical.values())
        note(4, "counterfactual margins sum to 0 (<=1e-9), vanish for identical prototypes, "
                "and flip sign under class swap on 200 random instances")


class TestCriterion5SyntheticEndToEnd:
    def test_planted_corpus_detection_and_ablation(self):
        train_c, _ = generate_corpus(SyntheticConfig(
            n_videos=200, seed=E2E_TRAIN_SEED, source_tag="synth-train"))
        test_c, _ = generate_corpus(SyntheticConfig(
            n_videos=100, seed=E2E_TEST_SEED, source_tag="synth-test"))
        cfg = make_pipeline_config(**E2E_PIPELINE)

        start = time.monotonic()
        kb, model = run_pipeline(train_c, cfg)
        train_time = time.monotonic() - start
        assert train_time < 300.0

        report = evaluate_model(test_c, kb, model, cfg.emb)
        assert report.auc >= 0.95, f"held-out AUC {report.auc:.4f} < 0.95"
        assert report.ap >= 0.95, f"held-out AP {report.ap:.4f} < 0.95"

        planted_only = ("object",)       # generator default plants object vocabulary
        non_planted_only = ("environment",)
        rows = ablate_slots(train_c, test_c, [planted_only, non_planted_only], cfg)
        assert not rows[0].failed and not rows[1].failed
        assert rows[0].auc > rows[1].auc, (
            f"planted-aspect combo {rows[0].auc:.4f} not above non-planted {rows[1].auc:.4f}"
        )
        note(5, f"synthetic end-to-end: AUC {report.auc:.4f}, AP {report.ap:.4f} "
                f"(train {train_time:.0f}s); ablation object {rows[0].auc:.4f} > "
                f"environment {rows[1].auc:.4f}")


class TestCriterion6DeterminismAndRoundTrips:
    def small_corpus(self):
        cfg = SyntheticConfig(n_videos=16, frames_per_video=8, seed=66, source_tag="det")
        return generate_corpus(cfg)[0]

    def test_training_digest_reproducible(self, tmp_path):
        corpus = self.small_corpus()
        cfg = make_pipeline_config(d=32, seed=4, epochs=4, learning_rate=0.25,
                                   batch_size=8, k_frames=6, num_layers=1,
                                   num_heads=2, d_latent=16)
        digests = []
        for _ in range(2):
            kb, model = run_pipeline(corpus, cfg)
            digests.append(model_digest(model))
        assert digests[0] == digests[1]

        # Bitwise save/load round trip.
        path = tmp_path / "model.tbvm"
        save_model(model, path)
        loaded = load_model(path)
        for name, arr in model.tensors().items():
            assert np.array_equal(arr, loaded.tensors()[name]), name

        # KnowledgeBase JSON round trip.
        kb_path = tmp_path / "kb.json"
        save_knowledge(kb, kb_path)
        assert load_knowledge(kb_path).to_json() == kb.to_json()

        # ExplanationRecord JSON round trip (fixture from the reasoning tests).
        from test_reasoning import fixture_record
        record = fixture_record(rationale="x")
        parsed = ExplanationRecord.from_dict(json.loads(record.to_json()))
        assert parsed.to_json() == record.to_json()

        note(6, f"two training runs share digest {digests[0][:12]}…; model file, knowledge "
                f"JSON, and explanation record all round-trip exactly")

    def test_embedding_cache_second_run_issues_zero_requests(self, tmp_path):
        corpus = self.small_corpus()
        d_n = CaptionCorpus(videos=tuple(v for v in corpus.videos if v.label == "normal"))
        d_a = CaptionCorpus(videos=tuple(v for v in corpus.videos if v.label == "abnormal"))
        with StubService() as svc:
            emb = EmbedderConfig(backend="remote", d=8, endpoint=svc.endpoint,
                                 cache_dir=str(tmp_path / "cache"), seed=0)
            kb1 = build_knowledge(d_n, d_a, default_prompts(), emb)
            first = svc.request_count
            assert first > 0
            kb2 = build_knowledge(d_n, d_a, default_prompts(), emb)
            assert svc.request_count == first
            assert np.array_equal(kb1.prototypes["a"], kb2.prototypes["a"])
        note(6, f"second knowledge build against the recording stub issued 0 network "
                f"requests (first run: {first})")


class TestCriterion7HandCheckFixtures:
    def test_pinned_hand_values(self):
        # Scaled slot-attention example in one dimension.
        h = TokenEmbeddingSeq(vectors=np.array([[1.0], [3.0]]))
        a, c = slot_attention(np.array([[2.0]]), h.vectors)
        assert np.array_equal(a, np.array([[2.0, 6.0]]))
        assert np.array_equal(c, np.array([[20.0]]))

        # Fusion sigmoid at ln 3.
        assert 1.0 / (1.0 + math.exp(-math.log(3.0))) == pytest.approx(0.75, abs=1e-12)
        from test_classifier import TestFuseClassify
        TestFuseClassify().test_sigmoid_of_ln3_is_three_quarters()

        # Softmax of [ln 2, 0, 0, 0].
        w = softmax(np.array([math.log(2.0), 0.0, 0.0, 0.0]))
        assert np.max(np.abs(w - np.array([0.4, 0.2, 0.2, 0.2]))) <= 1e-12

        # Caption statistics fixture.
        corpus = CaptionCorpus(videos=(make_video("v", "normal", ["a b", "a b c d"]),))
        avg_len, _ = caption_stats(corpus)
        assert avg_len == pytest.approx(3.0, abs=1e-12)
        note(7, "hand fixtures exact: attention C=20, sigmoid(ln 3)=0.75, "
                "softmax([ln2,0,0,0])=[0.4,0.2,0.2,0.2], avg_len=3.0")


class TestCriterion8ExplanationSnapshot:
    def test_template_matches_golden_bytes(self):
        from test_reasoning import fixture_record
        text = render_explanation(fixture_record())
        golden = GOLDEN.read_text(encoding="utf-8")
        assert text == golden
        assert "action (62.0%)" in text
        note(8, "template explanation matches the committed golden snapshot byte-for-byte")
