from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tbvad.embedding import EmbedderConfig, TokenEmbeddingSeq, cosine_similarity
from tbvad.errors import ValidationError
from tbvad.knowledge import ASPECTS, CLASSES, KnowledgeBase, SlotSummary
from tbvad.reasoning import (
    Evidence,
    ExplanationRecord,
    ImportanceParams,
    attach_rationale,
    build_record,
    counterfactual_margins,
    generate_explanation,
    importance_backward,
    importance_forward,
    init_importance_params,
    render_explanation,
    retrieve_evidence,
    slot_attention,
    slot_importance,
    softmax,
)

from stubs import StubService

GOLDEN = Path(__file__).parent / "data" / "explanation_golden.txt"


def seq(vectors):
    return TokenEmbeddingSeq(vectors=np.asarray(vectors, dtype=np.float64))


def kb_with_embeddings(d, sentence_counts, rng, aspects=ASPECTS):
    """A knowledge base whose prototype/sentence embeddings are overwritten
    with random matrices, for controlled retrieval and margin tests."""
    slots = {}
    for v in ("n", "a"):
        for aspect in aspects:
            n = sentence_counts[(v, aspect)] if isinstance(sentence_counts, dict) else sentence_counts
            text = " ".join(f"Sentence {i} about {aspect} for {v}." for i in range(max(n, 1)))
            slots[(v, aspect)] = SlotSummary(class_v=v, aspect=aspect, text=text)
    kb = KnowledgeBase(aspects=aspects, slots=slots,
                       embedder=EmbedderConfig(backend="hash", d=d, seed=0))
    for v in ("n", "a"):
        kb.prototypes[v] = rng.normal(size=(len(aspects), d))
        for aspect in aspects:
            n = len(kb.slots[(v, aspect)].sentences)
            kb.sentence_embeddings[(v, aspect)] = rng.normal(size=(n, d))
    return kb


def margins_of(h, kb, f, predicted_v):
    """Explain's margins: both classes' prototypes stacked and scored in one pass."""
    protos = np.stack([kb.prototypes[v] for v in CLASSES])
    _, c = slot_attention(protos, h.vectors)
    return counterfactual_margins(slot_importance(c, protos, f), predicted_v, kb.aspects)


class TestSlotAttention:
    def test_hand_arithmetic_d1(self):
        h = seq(np.array([[1.0], [3.0]]))
        a, c = slot_attention(np.array([[2.0]]), h.vectors)
        assert np.array_equal(a, np.array([[2.0, 6.0]]))
        assert np.array_equal(c, np.array([[20.0]]))

    def test_zero_prototypes(self):
        h = seq(np.random.default_rng(0).normal(size=(5, 4)))
        a, c = slot_attention(np.zeros((3, 4)), h.vectors)
        assert np.all(a == 0.0) and np.all(c == 0.0)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(1)
        k_v = rng.normal(size=(4, 8))
        h = seq(rng.normal(size=(6, 8)))
        got_a, got_c = slot_attention(k_v, h.vectors)
        a = np.zeros((4, 6))
        for s in range(4):
            for t in range(6):
                for j in range(8):
                    a[s, t] += k_v[s, j] * h.vectors[t, j]
                a[s, t] /= math.sqrt(8)
        c = np.zeros((4, 8))
        for s in range(4):
            for j in range(8):
                for t in range(6):
                    c[s, j] += a[s, t] * h.vectors[t, j]
        assert np.max(np.abs(got_a - a)) <= 1e-10
        assert np.max(np.abs(got_c - c)) <= 1e-10

    def test_linear_in_prototypes(self):
        rng = np.random.default_rng(3)
        k_v = rng.normal(size=(4, 5))
        h = seq(rng.normal(size=(7, 5)))
        one, _ = slot_attention(k_v, h.vectors)
        scaled, _ = slot_attention(2.5 * k_v, h.vectors)
        assert np.max(np.abs(scaled - 2.5 * one)) <= 1e-12


class TestSlotImportance:
    def test_zero_network_gives_uniform(self):
        f = ImportanceParams(w1=np.zeros((4, 8)), b1=np.zeros(4), w2=np.zeros(4), b2=np.zeros(1))
        rng = np.random.default_rng(5)
        w = slot_importance(rng.normal(size=(4, 4)), rng.normal(size=(4, 4)), f)
        assert np.allclose(w, 0.25)

    def test_softmax_hand_case(self):
        w = softmax(np.array([math.log(2.0), 0.0, 0.0, 0.0]))
        assert np.allclose(w, [0.4, 0.2, 0.2, 0.2])

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            z = rng.normal(size=4) * 3
            c = float(rng.normal()) * 10
            assert np.max(np.abs(softmax(z) - softmax(z + c))) <= 1e-9

    def test_importance_gradients_match_fd(self):
        rng = np.random.default_rng(7)
        d = 5
        f = init_importance_params(d, seed=7)
        c = rng.normal(size=(4, d))
        k_v = rng.normal(size=(4, d))
        r = rng.normal(size=4)

        z, cache = importance_forward(c, k_v, f)
        dc, grads, dpre = importance_backward(r, cache, f)
        grads["w1"] = dpre.T @ cache[0]

        eps = 1e-6
        for name, arr in f.tensors().items():
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + eps
                zp, _ = importance_forward(c, k_v, f)
                arr[idx] = orig - eps
                zm, _ = importance_forward(c, k_v, f)
                arr[idx] = orig
                fd = float(r @ (zp - zm)) / (2 * eps)
                assert abs(fd - grads[name][idx]) <= 1e-5 * max(1.0, abs(fd))
        for idx in np.ndindex(c.shape):
            orig = c[idx]
            c[idx] = orig + eps
            zp, _ = importance_forward(c, k_v, f)
            c[idx] = orig - eps
            zm, _ = importance_forward(c, k_v, f)
            c[idx] = orig
            fd = float(r @ (zp - zm)) / (2 * eps)
            assert abs(fd - dc[idx]) <= 1e-5 * max(1.0, abs(fd))


class TestStackedSlices:
    """On a stack of segments each slice gets the numbers its own 2-D call gives."""

    def test_each_slice_equals_its_own_call(self):
        rng = np.random.default_rng(11)
        d, s, t, b = 6, 4, 5, 3
        f = init_importance_params(d, seed=11)
        k_v = rng.normal(size=(s, d))
        h = rng.normal(size=(b, t, d))
        dz = rng.normal(size=(b, s))
        a, c = slot_attention(k_v, h)
        z, cache = importance_forward(c, k_v, f)
        w = softmax(z)
        dc, grads, dpre = importance_backward(dz, cache, f)
        for i in range(b):
            a1, c1 = slot_attention(k_v, h[i])
            z1, cache1 = importance_forward(c1, k_v, f)
            dc1, grads1, dpre1 = importance_backward(dz[i], cache1, f)
            assert np.array_equal(a[i], a1) and np.array_equal(c[i], c1)
            assert np.array_equal(z[i], z1) and np.array_equal(w[i], softmax(z1))
            assert np.array_equal(cache[0][i], cache1[0]) and np.array_equal(cache[1][i], cache1[1])
            assert np.array_equal(dc[i], dc1) and np.array_equal(dpre[i], dpre1)
            assert grads.keys() == grads1.keys()
            for name, grad in grads1.items():
                assert np.array_equal(grads[name][i], grad), name

    @pytest.mark.parametrize("d", [1, 3, 16, 64])
    @settings(max_examples=40, deadline=None)
    @given(s=st.integers(1, 4), t=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_each_class_row_equals_its_own_call(self, d, s, t, seed):
        # Explain scores a (2, S, d) stack of both classes' prototypes.
        rng = np.random.default_rng(seed)

        def spread(*shape):  # magnitudes from 1e-3 to 1e3
            return rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)

        h = spread(t, d)
        protos = spread(2, s, d)
        f = init_importance_params(d, seed=seed)
        a, c = slot_attention(protos, h)
        w = slot_importance(c, protos, f)
        for i in range(2):
            a1, c1 = slot_attention(protos[i], h)
            assert np.array_equal(a[i], a1) and np.array_equal(c[i], c1)
            assert np.array_equal(w[i], slot_importance(c1, protos[i], f))


def retrieval_oracle(h_bar, kb, class_v, w, k):
    order = sorted(range(len(kb.aspects)), key=lambda i: (-w[i], i))
    out = []
    for idx in order:
        if len(out) == k:
            break
        aspect = kb.aspects[idx]
        sentences = kb.slots[(class_v, aspect)].sentences
        if not sentences:
            continue
        sims = [cosine_similarity(h_bar, kb.sentence_embeddings[(class_v, aspect)][i])
                for i in range(len(sentences))]
        best = max(range(len(sims)), key=lambda i: (sims[i], -i))
        out.append((aspect, sentences[best], sims[best]))
    return out


class TestRetrieveEvidence:
    def test_k_equals_slots_single_sentences(self):
        rng = np.random.default_rng(8)
        kb = kb_with_embeddings(6, 1, rng)
        w = np.full(4, 0.25)
        evs = retrieve_evidence(rng.normal(size=6), kb, "a", w, k=4)
        assert len(evs) == 4
        assert [e.aspect for e in evs] == list(ASPECTS)  # tie -> canonical order
        assert [e.rank for e in evs] == [1, 2, 3, 4]

    def test_exact_match_similarity_one(self):
        rng = np.random.default_rng(9)
        kb = kb_with_embeddings(6, 3, rng)
        target = kb.sentence_embeddings[("n", "action")][1]
        w = softmax(np.array([0.0, 5.0, 0.0, 0.0]))
        evs = retrieve_evidence(target, kb, "n", w, k=1)
        assert evs[0].aspect == "action"
        assert evs[0].similarity == pytest.approx(1.0)
        assert evs[0].sentence == kb.slots[("n", "action")].sentences[1]

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(10)
        for trial in range(50):
            kb = kb_with_embeddings(5, int(rng.integers(1, 21)), rng)
            # Quantized weights force frequent ties.
            raw = rng.integers(0, 3, size=4).astype(float)
            z = raw - raw.max()
            w = softmax(z)
            h_bar = rng.normal(size=5)
            k = int(rng.integers(1, 5))
            got = retrieve_evidence(h_bar, kb, "a", w, k)
            expected = retrieval_oracle(h_bar, kb, "a", w, k)
            assert [(e.aspect, e.sentence) for e in got] == [(a, s) for a, s, _ in expected]

    def test_sentence_tie_takes_lowest_index(self):
        rng = np.random.default_rng(11)
        kb = kb_with_embeddings(4, 3, rng)
        emb = kb.sentence_embeddings[("a", "context")]
        emb[2] = emb[0]  # duplicate embedding; index 0 must win
        h_bar = emb[0].copy()
        w = softmax(np.array([9.0, 0.0, 0.0, 0.0]))
        evs = retrieve_evidence(h_bar, kb, "a", w, k=1)
        assert evs[0].sentence == kb.slots[("a", "context")].sentences[0]

    def test_empty_slot_skipped(self):
        rng = np.random.default_rng(12)
        kb = kb_with_embeddings(4, 2, rng)
        object.__setattr__(kb.slots[("a", "action")], "sentences", ())
        kb.sentence_embeddings[("a", "action")] = np.zeros((0, 4))
        w = softmax(np.array([0.0, 9.0, 1.0, 0.0]))
        evs = retrieve_evidence(rng.normal(size=4), kb, "a", w, k=2)
        assert [e.aspect for e in evs] == ["object", "context"]

    def test_membership_of_retrieved_sentences(self):
        rng = np.random.default_rng(13)
        kb = kb_with_embeddings(5, 4, rng)
        w = np.full(4, 0.25)
        for ev in retrieve_evidence(rng.normal(size=5), kb, "n", w, k=3):
            assert ev.sentence in kb.slots[(ev.class_v, ev.aspect)].sentences


class TestCounterfactualMargins:
    def test_identical_prototypes_zero_margin(self):
        rng = np.random.default_rng(14)
        kb = kb_with_embeddings(6, 2, rng)
        kb.prototypes["a"] = kb.prototypes["n"].copy()
        f = init_importance_params(6, seed=1)
        h = seq(rng.normal(size=(5, 6)))
        margins = margins_of(h, kb, f, "a")
        assert all(abs(v) <= 1e-12 for v in margins.values())

    def test_margins_sum_to_zero(self):
        rng = np.random.default_rng(15)
        for trial in range(20):
            kb = kb_with_embeddings(6, 2, rng)
            f = init_importance_params(6, seed=trial)
            h = seq(rng.normal(size=(4, 6)))
            margins = margins_of(h, kb, f, "n")
            assert abs(sum(margins.values())) <= 1e-9

    def test_sign_flips_under_class_swap(self):
        rng = np.random.default_rng(16)
        kb = kb_with_embeddings(6, 2, rng)
        f = init_importance_params(6, seed=3)
        h = seq(rng.normal(size=(4, 6)))
        m_a = margins_of(h, kb, f, "a")
        m_n = margins_of(h, kb, f, "n")
        for aspect in ASPECTS:
            assert m_a[aspect] == pytest.approx(-m_n[aspect], abs=1e-12)

    def test_dominant_abnormal_action_prototype_positive_margin(self):
        rng = np.random.default_rng(17)
        d = 6
        kb = kb_with_embeddings(d, 2, rng)
        # Token rows all-positive; abnormal action prototype strongly aligned,
        # all other prototypes near zero, so z_action dominates under class a.
        h = seq(np.abs(rng.normal(size=(4, d))) + 0.5)
        kb.prototypes["n"] = np.zeros((4, d))
        kb.prototypes["a"] = np.zeros((4, d))
        kb.prototypes["a"][1] = 3.0  # action row
        f = ImportanceParams(
            w1=np.eye(2 * d)[:d] * 0.05,  # passes scaled C_s through
            b1=np.zeros(d),
            w2=np.ones(d),
            b2=np.zeros(1),
        )
        margins = margins_of(h, kb, f, "a")
        assert margins["action"] > 0.0


FIXTURE_W = {"context": 0.05, "action": 0.62, "object": 0.12, "environment": 0.21}
FIXTURE_MARGINS = {"context": -0.04, "action": 0.31, "object": -0.05, "environment": -0.22}
FIXTURE_EVIDENCES = [
    Evidence(class_v="a", aspect="action", sentence="Crowds hurl debris at passing cars.",
             similarity=0.8123, rank=1),
    Evidence(class_v="a", aspect="environment",
             sentence="Streets are littered with burning wreckage.", similarity=0.7001, rank=2),
]


def fixture_record(rationale=""):
    return build_record("v042", 0.873, FIXTURE_W, FIXTURE_EVIDENCES, FIXTURE_MARGINS,
                        rationale=rationale, model_digest="deadbeef")


class TestExplanationRecord:
    def test_threshold_rules(self):
        assert build_record("v", 0.7, FIXTURE_W, [], FIXTURE_MARGINS).predicted_label == "abnormal"
        assert build_record("v", 0.5, FIXTURE_W, [], FIXTURE_MARGINS).predicted_label == "abnormal"
        assert build_record("v", 0.49, FIXTURE_W, [], FIXTURE_MARGINS).predicted_label == "normal"

    def test_json_round_trip(self):
        rec = attach_rationale(fixture_record())
        parsed = ExplanationRecord.from_dict(json.loads(rec.to_json()))
        assert parsed.to_json() == rec.to_json()

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            build_record("v", 0.6, {"action": 0.5}, [], {})

    def test_margins_must_sum_to_zero(self):
        bad = {"context": 0.2, "action": 0.2, "object": 0.2, "environment": 0.2}
        with pytest.raises(ValidationError):
            build_record("v", 0.6, FIXTURE_W, [], bad)

    def test_label_consistency_enforced(self):
        with pytest.raises(ValidationError):
            ExplanationRecord(video_id="v", score=0.7, predicted_label="normal",
                              slot_weights=FIXTURE_W)


class TestRenderExplanation:
    def test_percent_format_contract(self):
        text = render_explanation(fixture_record())
        assert "action (62.0%)" in text
        assert "environment (21.0%)" in text

    def test_golden_snapshot(self):
        text = render_explanation(fixture_record())
        assert text == GOLDEN.read_text(encoding="utf-8")

    def test_empty_evidences_no_quotes(self):
        rec = build_record("v", 0.2, FIXTURE_W, [], FIXTURE_MARGINS)
        text = render_explanation(rec)
        assert '"' not in text
        assert text.startswith("Decision: normal")
        assert "context (5.0%)" in text

    def test_stub_remote_passthrough(self, tmp_path):
        from tbvad.knowledge import RemoteGenerator
        with StubService(generate_fn=lambda prompt: "X") as svc:
            gen = RemoteGenerator(svc.endpoint, cache_dir=tmp_path / "c")
            text, fallback = generate_explanation(fixture_record(), gen)
            assert text == "X"
            assert fallback is False

    def test_remote_failure_falls_back_to_template(self, tmp_path):
        from tbvad.knowledge import RemoteGenerator
        with StubService(fail_times=99) as svc:
            gen = RemoteGenerator(svc.endpoint, cache_dir=tmp_path / "c")
            rec = attach_rationale(fixture_record(), gen)
            assert rec.fallback is True
            assert rec.rationale == render_explanation(rec)
