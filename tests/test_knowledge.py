from __future__ import annotations

import json

import numpy as np
import pytest

from tbvad.corpus import CaptionCorpus, sentence_split
from tbvad.embedding import EmbedderConfig, embed_tokens, mean_pool
from tbvad.errors import TbvadError, ValidationError
from tbvad.knowledge import (
    ASPECTS,
    AspectPrompt,
    ExtractiveSummarizer,
    KnowledgeBase,
    RemoteGenerator,
    build_knowledge,
    class_agnostic_prototypes,
    default_prompts,
    encode_knowledge,
    knowledge_mean_embedding,
    load_knowledge,
    save_knowledge,
    summarize_aspect,
)

from conftest import make_video
from stubs import StubService

EMB = EmbedderConfig(backend="hash", d=32, max_tokens=4096, seed=5)


def corpus_of(texts, label="normal", vid="v0"):
    return CaptionCorpus(videos=(make_video(vid, label, texts),))


class StubSummarizer:
    def __init__(self, text="Stub summary sentence."):
        self.text = text
        self.calls = []

    def summarize(self, prompt, captions):
        self.calls.append((prompt.aspect, list(captions)))
        return self.text


def small_kb(active=ASPECTS, emb=EMB):
    d_n = corpus_of(
        ["People walk slowly through the mall entrance.",
         "A person holds a phone near the storefront."],
        label="normal", vid="n0")
    d_a = corpus_of(
        ["Two men are fighting with a knife near the alley.",
         "A person is smashing a window with a hammer."],
        label="abnormal", vid="a0")
    return build_knowledge(d_n, d_a, default_prompts(), emb, active_aspects=active)


class TestAspectPrompt:
    def test_placeholder_required_exactly_once(self):
        with pytest.raises(ValidationError):
            AspectPrompt(aspect="context", template="no placeholder")
        with pytest.raises(ValidationError):
            AspectPrompt(aspect="context", template="{captions} and {captions}")

    def test_render(self):
        p = AspectPrompt(aspect="object", template="List things:\n{captions}")
        assert p.render("a knife") == "List things:\na knife"

    def test_default_prompts_cover_all_aspects(self):
        prompts = default_prompts()
        assert set(prompts) == set(ASPECTS)
        for aspect, p in prompts.items():
            assert p.aspect == aspect


class TestSummarizeAspect:
    def test_dominant_term_survives_extractive_fallback(self):
        corpus = corpus_of([
            "A man waves a gun at the cashier.",
            "The gun is pointed at the counter.",
            "People duck as the gun appears.",
        ])
        prompt = default_prompts()["object"]
        summary = summarize_aspect(corpus, prompt, "a", ExtractiveSummarizer())
        assert "gun" in summary.text

    def test_single_caption_top_sentence(self):
        corpus = corpus_of(["A lone cyclist rides past."])
        summary = summarize_aspect(corpus, default_prompts()["action"], "n", ExtractiveSummarizer())
        assert summary.text == "A lone cyclist rides past."

    def test_stub_backend_passthrough(self):
        corpus = corpus_of(["Anything at all."])
        stub = StubSummarizer("The service wrote this.")
        summary = summarize_aspect(corpus, default_prompts()["context"], "n", stub)
        assert summary.text == "The service wrote this."
        assert stub.calls[0][0] == "context"

    def test_empty_corpus_rejected(self):
        empty = CaptionCorpus(videos=())
        with pytest.raises(ValidationError, match="empty"):
            summarize_aspect(empty, default_prompts()["context"], "n", ExtractiveSummarizer())

    def test_empty_backend_output_rejected(self):
        corpus = corpus_of(["Something."])
        with pytest.raises(TbvadError, match="context.*'n'"):
            summarize_aspect(corpus, default_prompts()["context"], "n", StubSummarizer("   "))

    def test_extractive_keeps_top_k_sentences(self):
        texts = [f"Sentence number {i} mentions thing{i}." for i in range(25)]
        summary = summarize_aspect(corpus_of(texts), default_prompts()["context"], "n",
                                   ExtractiveSummarizer())
        assert len(summary.sentences) == 10

    def test_summary_sentences_match_split(self):
        corpus = corpus_of(["First thing happens. Second thing happens. Third arrives!"])
        summary = summarize_aspect(corpus, default_prompts()["context"], "n", ExtractiveSummarizer())
        assert list(summary.sentences) == sentence_split(summary.text)


class TestBuildKnowledge:
    def test_all_aspects_shapes(self):
        kb = small_kb()
        assert len(kb.slots) == 8
        assert kb.prototypes["n"].shape == (4, EMB.d)
        assert kb.prototypes["a"].shape == (4, EMB.d)

    def test_subset_object_environment(self):
        kb = small_kb(active=("object", "environment"))
        assert kb.aspects == ("object", "environment")
        assert kb.prototypes["n"].shape == (2, EMB.d)
        assert len(kb.slots) == 4

    def test_deterministic_json(self):
        kb1, kb2 = small_kb(), small_kb()
        assert kb1.to_json() == kb2.to_json()

    def test_prototype_consistency_recompute(self):
        kb = small_kb()
        for v in ("n", "a"):
            for i, aspect in enumerate(kb.aspects):
                expected = mean_pool(embed_tokens(kb.slots[(v, aspect)].text, EMB))
                assert np.array_equal(kb.prototypes[v][i], expected)

    def test_sentence_embedding_row_counts(self):
        kb = small_kb()
        for key, summary in kb.slots.items():
            assert kb.sentence_embeddings[key].shape[0] == len(summary.sentences)

    def test_ablation_closure(self):
        full = small_kb()
        reduced = small_kb(active=("context", "action", "object"))
        d_full = full.to_dict()
        d_red = reduced.to_dict()
        assert d_red["aspects"] == ["context", "action", "object"]
        for v in ("n", "a"):
            assert set(d_full["classes"][v]) - set(d_red["classes"][v]) == {"environment"}
            for aspect in ("context", "action", "object"):
                assert d_full["classes"][v][aspect] == d_red["classes"][v][aspect]
        assert reduced.prototypes["n"].shape[0] == full.prototypes["n"].shape[0] - 1

    def test_empty_class_corpus_rejected(self):
        with pytest.raises(ValidationError):
            build_knowledge(CaptionCorpus(videos=()), corpus_of(["x."]), default_prompts(), EMB)


class TestKnowledgeIO:
    def test_round_trip_equal(self, tmp_path):
        kb = small_kb()
        path = tmp_path / "kb.json"
        save_knowledge(kb, path)
        loaded = load_knowledge(path)
        assert loaded.to_json() == kb.to_json()
        for v in ("n", "a"):
            assert np.array_equal(loaded.prototypes[v], kb.prototypes[v])

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "kb.json"
        path.write_text('{"aspects": ["context"]}', encoding="utf-8")
        with pytest.raises(ValidationError):
            load_knowledge(path)

    @staticmethod
    def _without_text(raw):
        del raw["classes"]["n"]["context"]["text"]

    @staticmethod
    def _without_dim(raw):
        del raw["embedder"]["dim"]

    @staticmethod
    def _string_dim(raw):
        raw["embedder"]["dim"] = "32"

    @staticmethod
    def _numeric_text(raw):
        raw["classes"]["a"]["action"]["text"] = 42

    @staticmethod
    def _class_list(raw):
        raw["classes"]["a"] = list(ASPECTS)

    @pytest.mark.parametrize("edit", ["_without_text", "_without_dim", "_string_dim",
                                      "_numeric_text", "_class_list", "invalid JSON"])
    def test_malformed_file_raises_validation_error(self, tmp_path, edit):
        raw = small_kb().to_dict()
        if edit == "invalid JSON":
            text = '{"aspects": ["context"'
        else:
            getattr(self, edit)(raw)
            text = json.dumps(raw)
        path = tmp_path / "kb.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError, match="kb.json"):
            load_knowledge(path)


class TestEncodeKnowledge:
    def test_identity_projection_single_token(self):
        from tbvad.knowledge import SlotSummary
        kb_single = KnowledgeBase(
            aspects=("object",),
            slots={("n", "object"): SlotSummary("n", "object", "knife"),
                   ("a", "object"): SlotSummary("a", "object", "knife")},
            embedder=EMB,
        )
        token_vec = mean_pool(embed_tokens("knife", EMB))
        out = encode_knowledge(kb_single, "n", np.eye(EMB.d), np.zeros(EMB.d))
        assert np.allclose(out, token_vec)

    def test_zero_weight_bias_passthrough(self):
        kb = small_kb()
        d_latent = 6
        c = 3.5
        out = encode_knowledge(kb, "a", np.zeros((d_latent, EMB.d)), c * np.ones(d_latent))
        assert np.allclose(out, c * np.ones(d_latent))

    def test_matches_matvec_oracle(self):
        kb = small_kb()
        rng = np.random.default_rng(9)
        w = rng.normal(size=(5, EMB.d))
        b = rng.normal(size=5)
        pooled = mean_pool(embed_tokens(kb.joined_text("n"), EMB))
        oracle = np.zeros(5)
        for i in range(5):
            for j in range(EMB.d):
                oracle[i] += w[i, j] * pooled[j]
            oracle[i] += b[i]
        got = encode_knowledge(kb, "n", w, b)
        assert np.max(np.abs(got - oracle)) <= 1e-10

    def test_linear_in_weights(self):
        kb = small_kb()
        rng = np.random.default_rng(10)
        w = rng.normal(size=(4, EMB.d))
        one = encode_knowledge(kb, "n", w, np.zeros(4))
        three = encode_knowledge(kb, "n", 3.0 * w, np.zeros(4))
        assert np.allclose(three, 3.0 * one)

    def test_joined_text_order_is_canonical(self):
        kb = small_kb()
        joined = kb.joined_text("n")
        pieces = joined.split("\n")
        assert pieces == [kb.slots[("n", a)].text for a in ASPECTS]

    def test_mean_embedding_is_class_average(self):
        kb = small_kb()
        pools = [mean_pool(embed_tokens(kb.joined_text(v), EMB)) for v in ("n", "a")]
        assert np.allclose(knowledge_mean_embedding(kb), 0.5 * (pools[0] + pools[1]))
        assert np.allclose(class_agnostic_prototypes(kb),
                           0.5 * (kb.prototypes["n"] + kb.prototypes["a"]))


class TestRemoteGenerator:
    def test_stub_llm_passthrough(self, tmp_path):
        with StubService(generate_fn=lambda prompt: "Knowledge from the wire.") as svc:
            gen = RemoteGenerator(svc.endpoint, cache_dir=tmp_path / "cache")
            corpus = corpus_of(["A caption."])
            summary = summarize_aspect(corpus, default_prompts()["object"], "a", gen)
            assert summary.text == "Knowledge from the wire."

    def test_generation_cached(self, tmp_path):
        with StubService(generate_fn=lambda prompt: "Cached output.") as svc:
            gen = RemoteGenerator(svc.endpoint, cache_dir=tmp_path / "cache")
            assert gen.generate("p1") == "Cached output."
            count = svc.request_count
            assert gen.generate("p1") == "Cached output."
            assert svc.request_count == count

    def test_map_reduce_chunks_long_corpora(self, tmp_path):
        captions = [" ".join([f"word{i}"] * 200) + "." for i in range(40)]  # 8000 tokens total
        seen_prompts = []

        def gen_fn(prompt):
            seen_prompts.append(prompt)
            return f"Partial {len(seen_prompts)}."

        with StubService(generate_fn=gen_fn) as svc:
            gen = RemoteGenerator(svc.endpoint, cache_dir=tmp_path / "cache")
            out = gen.summarize(default_prompts()["context"], captions)
            # 3 chunk calls (<= 3000 tokens each) plus one reduce call.
            assert len(seen_prompts) == 4
            assert out == "Partial 4."

    def test_remote_failure_names_aspect_and_class(self, tmp_path):
        with StubService(fail_times=99) as svc:
            gen = RemoteGenerator(svc.endpoint, cache_dir=tmp_path / "cache")
            with pytest.raises(TbvadError, match="object.*'a'"):
                summarize_aspect(corpus_of(["x."]), default_prompts()["object"], "a", gen)
