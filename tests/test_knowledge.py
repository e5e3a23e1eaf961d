from __future__ import annotations

import json
import random
import string

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tbvad.corpus import CaptionCorpus, group_by_class, sentence_split
from tbvad.embedding import MAX_TOKENS, EmbedderConfig, embed_tokens, mean_pool, tokenize
from tbvad.errors import TbvadError, ValidationError
from tbvad.knowledge import (
    ASPECTS,
    AspectPrompt,
    ExtractiveSummarizer,
    RemoteGenerator,
    _mean_term_weights,
    build_knowledge,
    class_agnostic_prototypes,
    default_prompts,
    knowledge_mean_embedding,
    load_knowledge,
    save_knowledge,
    summarize_aspect,
)
from tbvad.remote import VectorCache
from tbvad.synthetic import SyntheticConfig, generate_corpus

from conftest import make_video
from reference_summarizer import ReferenceSummarizer
from stubs import StubService

EMB = EmbedderConfig(backend="hash", d=32, seed=5)


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

    def test_lighting_is_an_environment_cue_not_an_action(self):
        corpus = corpus_of(["The building is quiet.", "The setting is calm.", "A man is jogging.",
                            "Lighting is dim.", "A man is jogging."])
        summary = summarize_aspect(corpus, default_prompts()["action"], "n", ExtractiveSummarizer())
        assert summary.sentences[0] == "A man is jogging."

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


def made_up_pools(seed, n_words):
    """Per-aspect pools of distinct made-up words, as the remote benchmark draws them."""
    rng = random.Random(seed)
    words = set()
    while len(words) < len(ASPECTS) * n_words:
        words.add("".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(5, 9))))
    words = sorted(words)
    rng.shuffle(words)
    return {a: tuple(words[i * n_words:(i + 1) * n_words]) for i, a in enumerate(ASPECTS)}


def assert_matches_reference(caption_lists, summarizer=None):
    """Every (caption list, aspect) summary equals the per-occurrence reference's."""
    summarizer = summarizer or ExtractiveSummarizer()
    reference = ReferenceSummarizer()
    prompts = default_prompts()
    for captions in caption_lists:
        for aspect in ASPECTS:
            assert (summarizer.summarize(prompts[aspect], captions)
                    == reference.summarize(prompts[aspect], captions)), (aspect, captions[:3])


WORDS = ("man", "Man", "walks", "runs", "running", "building", "setting", "lighting",
         "bag", "knife", "street", "night", "crowd", "calm", "object", "a", "the", "zq")
SENTENCES = st.builds(
    lambda words, end: " ".join(words) + end,
    st.lists(st.sampled_from(WORDS), max_size=6),
    st.sampled_from([".", "!", "?", "...", ""]),
).filter(lambda s: s.strip())


@st.composite
def caption_lists_with_repeats(draw):
    """Captions drawn with replacement from a small sentence pool, so sentences repeat."""
    pool = draw(st.lists(SENTENCES, min_size=1, max_size=14))
    caption = st.lists(st.sampled_from(pool), min_size=1, max_size=4).map(" ".join)
    return draw(st.lists(caption, min_size=1, max_size=30))


class TestExtractiveSummarizerOracle:
    """The shared-statistics summarizer returns the reference's text byte for byte."""

    @pytest.mark.parametrize("extra", [
        {},
        {"normal_pools": made_up_pools(905, 240), "anomaly_pools": made_up_pools(906, 8)},
        {"anomaly_frame_ratio": 0.15, "planted_aspects": ("environment",)},
    ], ids=["default-pools", "240-word-pools", "short-anomalies"])
    def test_bench_like_corpora(self, extra):
        corpus, _ = generate_corpus(SyntheticConfig(n_videos=200, seed=1802, **extra))
        assert_matches_reference([part.all_caption_texts() for part in group_by_class(corpus)])

    @given(caption_lists_with_repeats())
    @settings(max_examples=150, deadline=None)
    def test_generated_captions_with_repeated_sentences(self, captions):
        assert_matches_reference([captions])

    def test_instance_reused_across_caption_lists(self):
        lists = [[f"A man carries a bag{i}. The street is dark.", "Crowd gathering at night."] * i
                 for i in range(1, 5)]
        summarizer = ExtractiveSummarizer()
        assert_matches_reference(lists + lists[::-1] + lists, summarizer)

    def test_sentences_without_terms(self):
        captions = ["...", "... A man runs.", "!? The bag is visible. ...", "..."]
        assert_matches_reference([captions])
        with pytest.raises(ValidationError):
            ExtractiveSummarizer().summarize(default_prompts()["action"], [" "])

    def test_other_aspects_ing_cues_are_not_actions(self):
        captions = ["The building is quiet.", "The setting is calm."] * 3 + ["A man is jogging."]
        assert_matches_reference([captions])
        text = ExtractiveSummarizer().summarize(default_prompts()["action"], captions)
        assert text.split(". ")[0] == "A man is jogging"

    def test_tied_scores_keep_first_occurrence_order(self):
        captions = [f"Alpha{i} beta{i}." for i in range(12)] + ["Knife knife."]
        assert_matches_reference([captions])
        text = ExtractiveSummarizer().summarize(default_prompts()["context"], captions)
        assert text.split(". ")[:3] == ["Knife knife", "Alpha0 beta0", "Alpha1 beta1"]

    @given(st.integers(1, 40), st.integers(1, 25), st.data())
    @settings(max_examples=100, deadline=None)
    def test_grouped_row_means_equal_per_row_np_mean(self, n_terms, n_rows, data):
        weights = np.array(data.draw(st.lists(
            st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False), min_size=n_terms,
            max_size=2 * n_terms)))
        cols = np.array([data.draw(st.permutations(range(len(weights))))[:n_terms]
                         for _ in range(n_rows)])
        rows = np.array(data.draw(st.permutations(range(n_rows + 3))))[:n_rows]
        scores = _mean_term_weights(weights, [(rows, cols)], n_rows + 3)
        for r, c in zip(rows, cols):
            assert scores[r].tobytes() == np.float64(np.mean(list(weights[c]))).tobytes()


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

    def test_joined_text_order_is_canonical(self):
        kb = small_kb()
        joined = kb.joined_text("n")
        pieces = joined.split("\n")
        assert pieces == [kb.slots[("n", a)].text for a in ASPECTS]

    def test_mean_embedding_is_class_average(self):
        kb = small_kb()
        pools = [mean_pool(embed_tokens(kb.joined_text(v), EMB)) for v in ("n", "a")]
        assert np.array_equal(knowledge_mean_embedding(kb), 0.5 * (pools[0] + pools[1]))
        assert np.array_equal(class_agnostic_prototypes(kb),
                              0.5 * (kb.prototypes["n"] + kb.prototypes["a"]))


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


class NumberedSummarizer:
    """Each call returns three sentences of 12 words that no other call uses."""

    def __init__(self):
        self.calls = 0

    def summarize(self, prompt, captions):
        self.calls += 1
        words = [f"{prompt.aspect}{self.calls}w{i}" for i in range(12)]
        return " ".join(" ".join(words[i:i + 4]) + "." for i in range(0, 12, 4))


class TestRemoteKnowledgeEmbedding:
    def test_cold_build_batches_and_warm_load_reads_each_token_once(self, tmp_path, monkeypatch):
        d_n = corpus_of(["People walk slowly through the mall entrance."], "normal", "n0")
        d_a = corpus_of(["Two men are fighting with a knife near the alley."], "abnormal", "a0")
        gets = []
        original_get = VectorCache.get

        def counting_get(cache, key):
            gets.append(key)
            return original_get(cache, key)

        monkeypatch.setattr(VectorCache, "get", counting_get)
        with StubService() as svc:
            cfg = EmbedderConfig(backend="remote", d=16, endpoint=svc.endpoint,
                                 cache_dir=str(tmp_path / "cache"), seed=0)
            kb = build_knowledge(d_n, d_a, default_prompts(), cfg, backend=NumberedSummarizer())
            mean = knowledge_mean_embedding(kb)
            texts = [s.text for s in kb.slots.values()]
            texts += [sent for s in kb.slots.values() for sent in s.sentences]
            texts += [kb.joined_text(v) for v in ("n", "a")]
            distinct = {t for text in texts for t in tokenize(text)[:MAX_TOKENS]}
            assert len(distinct) > 64
            assert svc.request_count == -(-len(distinct) // 64)
            assert sum(len(r["body"]["texts"]) for r in svc.requests) == len(distinct)

            path = tmp_path / "kb.json"
            save_knowledge(kb, path)
            gets.clear()
            loaded = load_knowledge(path, cfg)
            assert np.array_equal(knowledge_mean_embedding(loaded), mean)
            assert svc.request_count == -(-len(distinct) // 64)
        # The caption side takes the loaded cache once; the knowledge base keeps no reference.
        assert loaded.take_embed_cache().dir == tmp_path / "cache" / "embed"
        assert loaded.take_embed_cache() is None
        assert len(gets) == len(set(gets)) == len(distinct)
        for v in ("n", "a"):
            assert np.array_equal(loaded.prototypes[v], kb.prototypes[v])
        for key, rows in kb.sentence_embeddings.items():
            assert np.array_equal(loaded.sentence_embeddings[key], rows)


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
