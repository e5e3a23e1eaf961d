from __future__ import annotations

import math

import pytest

from tbvad.errors import ValidationError
from tbvad.evaluation import (
    TABLE3_COMBOS,
    ablate_slots,
    cross_eval,
    evaluate_model,
    frame_level_scores,
    make_pipeline_config,
    run_pipeline,
)
from tbvad.synthetic import domain_config, generate_corpus

FAST = dict(d=32, epochs=4, learning_rate=0.25, batch_size=8, k_frames=6,
            num_layers=1, num_heads=2, d_latent=16)


def small_corpora(n_train=20, n_test=14, seed=50, domain="a"):
    train_cfg = domain_config(domain, n_videos=n_train, seed=seed,
                              frames_per_video=8, source_tag=f"{domain}-train")
    test_cfg = domain_config(domain, n_videos=n_test, seed=seed + 1,
                             frames_per_video=8, source_tag=f"{domain}-test")
    return generate_corpus(train_cfg)[0], generate_corpus(test_cfg)[0]


class TestRunPipeline:
    def test_deterministic_reports(self):
        train_c, test_c = small_corpora()
        cfg = make_pipeline_config(seed=3, **FAST)
        rep1 = evaluate_model(test_c, *run_pipeline(train_c, cfg), cfg.emb)
        rep2 = evaluate_model(test_c, *run_pipeline(train_c, cfg), cfg.emb)
        assert rep1.to_json() == rep2.to_json()

    def test_aspect_override(self):
        train_c, _ = small_corpora()
        cfg = make_pipeline_config(seed=3, **FAST)
        kb, model = run_pipeline(train_c, cfg, aspects=("object", "environment"))
        assert kb.aspects == ("object", "environment")
        assert model.config.active_aspects == ("object", "environment")


class TestFrameLevelScores:
    def test_expansion_counts_and_values(self):
        _, test_c = small_corpora(n_train=4, n_test=6)
        scores = [0.1 * i for i in range(len(test_c.videos))]
        f_scores, f_labels = frame_level_scores(test_c, scores)
        assert len(f_scores) == sum(len(v.captions) for v in test_c.videos)
        offset = 0
        for video, s in zip(test_c.videos, scores):
            n = len(video.captions)
            assert all(x == s for x in f_scores[offset:offset + n])
            expected = 1 if video.label == "abnormal" else 0
            assert all(l == expected for l in f_labels[offset:offset + n])
            offset += n


class TestAblateSlots:
    def test_rows_in_input_order(self):
        train_c, test_c = small_corpora()
        cfg = make_pipeline_config(seed=2, **FAST)
        combos = [("environment",), ("object",), ("context", "action")]
        rows = ablate_slots(train_c, test_c, combos, cfg)
        assert [r.active_aspects for r in rows] == [
            ("environment",), ("object",), ("context", "action")]
        assert all(not r.failed for r in rows)
        assert all(0.0 <= r.auc <= 1.0 for r in rows)

    def test_failed_row_does_not_abort(self):
        train_c, test_c = small_corpora()
        cfg = make_pipeline_config(seed=2, **FAST)
        rows = ablate_slots(train_c, test_c, [("object",), ("object", "bogus")], cfg)
        assert not rows[0].failed
        assert rows[1].failed
        assert "bogus" in rows[1].error
        assert math.isnan(rows[1].auc)

    def test_table3_has_seven_rows_and_best_pair(self):
        assert len(TABLE3_COMBOS) == 7
        assert TABLE3_COMBOS[-1] == ("object", "environment")
        assert TABLE3_COMBOS[1] == ("action",)

    def test_empty_combos_rejected(self):
        train_c, test_c = small_corpora()
        cfg = make_pipeline_config(seed=2, **FAST)
        with pytest.raises(ValidationError):
            ablate_slots(train_c, test_c, [], cfg)


class TestVocabularyTransfer:
    """Cross-domain behavior of the planted anomaly signal (seeded, deterministic)."""

    def test_shared_anomaly_vocabulary_transfers_and_disjoint_does_not(self):
        from tbvad.evaluation import evaluate_model, make_pipeline_config, run_pipeline

        train_a, _ = generate_corpus(domain_config("a", n_videos=120, seed=500,
                                                   source_tag="xd-a-train"))
        shared_b, _ = generate_corpus(domain_config("b-shared", n_videos=60, seed=600,
                                                    source_tag="xd-b-shared"))
        disjoint_b, _ = generate_corpus(domain_config("b-disjoint", n_videos=60, seed=700,
                                                      source_tag="xd-b-disjoint"))
        cfg = make_pipeline_config(d=64, seed=3, epochs=60, learning_rate=0.25,
                                   batch_size=16, k_frames=8, num_layers=2, num_heads=4,
                                   d_latent=32, l2_weight=1e-3)
        kb, model = run_pipeline(train_a, cfg)
        shared = evaluate_model(shared_b, kb, model, cfg.emb)
        disjoint = evaluate_model(disjoint_b, kb, model, cfg.emb)
        # Shared planted vocabulary transfers; fully disjoint vocabulary cannot.
        assert shared.auc > 0.5
        assert abs(disjoint.auc - 0.5) <= 0.1


class TestCrossEval:
    def test_same_tag_rejected(self):
        train_c, _ = small_corpora()
        cfg = make_pipeline_config(seed=2, **FAST)
        with pytest.raises(ValidationError, match="distinct"):
            cross_eval(train_c, train_c, cfg)

    def test_cross_domain_tags_combined(self):
        train_c, _ = small_corpora(domain="a")
        _, test_b = small_corpora(domain="b-shared", seed=80)
        cfg = make_pipeline_config(seed=2, **FAST)
        report = cross_eval(train_c, test_b, cfg)
        assert report.dataset_tag == "a-train->b-shared-test"
