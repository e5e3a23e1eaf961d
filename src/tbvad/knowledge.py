"""Structured slot knowledge: four-aspect summaries per class and their embeddings.

For each class (``n`` normal, ``a`` abnormal) and each active aspect
(context, action, object, environment) a textual slot summary is produced
either by a remote LLM endpoint or by a deterministic extractive fallback.
Slot prototypes are the mean-pooled embeddings of each summary; candidate
evidence sentences are embedded one row per sentence.  The knowledge mean
embedding averages, over the two classes, the mean-pooled embedding of all
active slot texts concatenated in canonical order as one sequence.  All of
these come from one embedder and one ``embed_captions`` call.
"""

from __future__ import annotations

import io
import json
import logging
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

from .corpus import CaptionCorpus, sentence_split
from .embedding import EmbedderConfig, make_embedder, tokenize
from .errors import TbvadError, ValidationError
from .remote import TextCache, VectorCache, default_cache_dir, post_json

logger = logging.getLogger(__name__)

ASPECTS = ("context", "action", "object", "environment")
CLASSES = ("n", "a")
CLASS_NAMES = {"n": "normal", "a": "abnormal"}

EXTRACTIVE_TOP_SENTENCES = 10
ASPECT_KEYWORD_BOOST = 2.0
OFF_ASPECT_WEIGHT = 0.02
SUMMARY_CHUNK_TOKENS = 3000
MAX_NEW_TOKENS = 512

# Generic per-aspect cue terms for the extractive fallback ranking.  The
# "-ing" suffix heuristic below additionally favors action terms.
ASPECT_KEYWORDS: dict[str, frozenset[str]] = {
    "context": frozenset({
        "scene", "situation", "mood", "feels", "atmosphere", "crowd", "group",
        "event", "activity", "gathering", "routine", "busy", "quiet", "panic",
        "calm",
    }),
    "action": frozenset({
        "runs", "walks", "fights", "moves", "throws", "falls", "stands",
        "drives", "attacks", "gestures", "keeps",
    }),
    "object": frozenset({
        "object", "objects", "item", "items", "tool", "weapon", "carry",
        "carries", "hand", "visible", "bag", "car", "vehicle", "knife", "gun",
        "phone", "bottle", "backpack", "bicycle", "hammer", "bat", "crowbar",
    }),
    "environment": frozenset({
        "setting", "surroundings", "location", "place", "street", "road",
        "building", "store", "park", "lot", "sidewalk", "indoor", "outdoor",
        "night", "day", "dark", "bright", "lighting", "platform", "entrance",
        "alley", "corridor",
    }),
}


def validate_aspects(aspects) -> tuple[str, ...]:
    """Normalize an aspect subset to canonical order, rejecting non-strings and unknowns."""
    if not all(isinstance(a, str) for a in aspects):
        raise ValidationError(f"aspects must be strings, got {list(aspects)!r}")
    got = set(aspects)
    unknown = got - set(ASPECTS)
    if unknown:
        raise ValidationError(f"unknown aspects: {sorted(unknown)}")
    if not got:
        raise ValidationError("the active aspect set must be non-empty")
    return tuple(a for a in ASPECTS if a in got)


@dataclass(frozen=True)
class AspectPrompt:
    """A summarization prompt for one aspect with a single {captions} slot."""

    aspect: str
    template: str

    def __post_init__(self):
        if self.aspect not in ASPECTS:
            raise ValidationError(f"unknown aspect {self.aspect!r}")
        if self.template.count("{captions}") != 1:
            raise ValidationError("prompt template must contain the {captions} placeholder exactly once")

    def render(self, captions_text: str) -> str:
        return self.template.replace("{captions}", captions_text)


def default_prompts() -> dict[str, AspectPrompt]:
    """Load the shipped per-aspect prompt templates."""
    raw = json.loads(resources.files("tbvad").joinpath("prompts.json").read_text(encoding="utf-8"))
    return {aspect: AspectPrompt(aspect=aspect, template=raw[aspect]) for aspect in ASPECTS}


@dataclass(frozen=True)
class SlotSummary:
    """One class-conditioned aspect summary and its sentence list."""

    class_v: str
    aspect: str
    text: str
    sentences: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        if self.class_v not in CLASSES:
            raise ValidationError(f"unknown class {self.class_v!r}")
        if self.aspect not in ASPECTS:
            raise ValidationError(f"unknown aspect {self.aspect!r}")
        if not self.text.strip():
            raise ValidationError(f"slot summary ({self.class_v}, {self.aspect}) is empty")
        object.__setattr__(self, "sentences", tuple(sentence_split(self.text)))


class _SentenceStats:
    """TF-IDF counts of one class's captions, computed once for all its aspects.

    ``sentences`` are the distinct sentences in first-occurrence order.  TF,
    DF, ``n_docs`` and ``total_tokens`` count every occurrence: a sentence
    that appears n times is n documents, as if each copy were tokenized on
    its own.  ``groups`` pairs, for each number k > 0 of distinct terms, the
    indices of the sentences with k terms and a (rows, k) matrix of their
    sorted terms' positions in ``terms``.
    """

    def __init__(self, captions: tuple[str, ...]):
        counts: dict[str, int] = {}
        for caption in captions:
            for sent in sentence_split(caption):
                counts[sent] = counts.get(sent, 0) + 1
        self.sentences = tuple(counts)
        self.n_docs = sum(counts.values())
        self.total_tokens = 0
        self.tf: dict[str, int] = {}
        self.df: dict[str, int] = {}
        sentence_terms = []
        for sent, n in counts.items():
            tokens = tokenize(sent)
            self.total_tokens += n * len(tokens)
            for term in tokens:
                self.tf[term] = self.tf.get(term, 0) + n
            terms = sorted(set(tokens))
            for term in terms:
                self.df[term] = self.df.get(term, 0) + n
            sentence_terms.append(terms)
        self.terms = tuple(self.tf)
        position = {term: j for j, term in enumerate(self.terms)}
        by_count: dict[int, list[int]] = {}
        for i, terms in enumerate(sentence_terms):
            if terms:
                by_count.setdefault(len(terms), []).append(i)
        self.groups = [
            (np.array(rows), np.array([[position[t] for t in sentence_terms[i]] for i in rows]))
            for rows in by_count.values()
        ]


def _mean_term_weights(weights: np.ndarray, groups, n_sentences: int) -> np.ndarray:
    """Each sentence's mean term weight; 0.0 for a sentence without terms.

    A group's ``mean(axis=1)`` sums each row as ``np.mean`` sums a lone
    row, so every score equals the per-sentence ``np.mean`` bit for bit.
    """
    scores = np.zeros(n_sentences)
    for rows, cols in groups:
        scores[rows] = weights[cols].mean(axis=1)
    return scores


class ExtractiveSummarizer:
    """Deterministic offline fallback summarizer.

    Ranks the corpus sentences by the mean TF-IDF of their aspect-keyword-
    weighted terms: terms in the aspect's keyword set (plus "-ing" forms for
    the action aspect) carry the full boost, off-aspect terms are strongly
    down-weighted, so each prompt pulls in sentences about its own aspect.
    The top sentences are kept in rank order; duplicate sentence texts
    collapse to their first occurrence.

    A class's sentence statistics (its distinct sentences and their counts,
    TF and DF) do not depend on the aspect, so they are computed once per
    caption list and shared by that class's aspects; each aspect then weighs
    every distinct term once and scores every distinct sentence once.
    """

    def __init__(self):
        # One entry per class: a build summarizes each class's aspects in turn.
        self._stats = lru_cache(maxsize=len(CLASSES))(_SentenceStats)

    def _term_boost(self, term: str, aspect: str) -> float:
        if term in ASPECT_KEYWORDS[aspect]:
            return ASPECT_KEYWORD_BOOST
        if aspect == "action" and term.endswith("ing") and len(term) > 4:
            # Gerund heuristic, unless the term is another aspect's cue
            # (e.g. "setting", "building", "lighting" belong to environment).
            if not any(term in ASPECT_KEYWORDS[other] for other in ASPECT_KEYWORDS
                       if other != aspect):
                return ASPECT_KEYWORD_BOOST
        return OFF_ASPECT_WEIGHT

    def summarize(self, prompt: AspectPrompt, captions: list[str]) -> str:
        stats = self._stats(tuple(captions))
        if not stats.sentences:
            raise ValidationError("no sentences available for extractive summarization")

        # TF over the whole corpus part with per-sentence DF: knowledge should
        # capture patterns that recur in a class, so frequent terms score high
        # while one-off noise does not dominate.
        weights = np.array([
            (stats.tf[t] / stats.total_tokens) * math.log(stats.n_docs / stats.df[t])
            * self._term_boost(t, prompt.aspect)
            for t in stats.terms
        ])
        scores = _mean_term_weights(weights, stats.groups, len(stats.sentences))
        # A stable sort keeps tied sentences in first-occurrence order.
        ranked = np.argsort(-scores, kind="stable")
        picked = [stats.sentences[i] for i in ranked[:EXTRACTIVE_TOP_SENTENCES]]
        # Guarantee each selected sentence keeps its own boundary when joined.
        normalized = [s if s.endswith((".", "!", "?")) else s + "." for s in picked]
        return " ".join(normalized)


class RemoteGenerator:
    """Client for the HTTP text-generation service, with disk cache and retries.

    Wire protocol: POST {endpoint}/generate with
    {"prompt": str, "max_new_tokens": int} returning {"text": str}.
    Long caption lists are summarized map-reduce style: chunks of at most
    SUMMARY_CHUNK_TOKENS whitespace tokens are summarized independently and
    the chunk summaries are then summarized once more with the same prompt.
    """

    def __init__(self, endpoint: str, cache_dir: str | Path | None = None):
        if not endpoint:
            raise ValidationError("remote generator requires an endpoint")
        self.endpoint = endpoint
        cache_dir = cache_dir or default_cache_dir()
        self.cache = TextCache(Path(cache_dir) / "generate") if cache_dir else None

    def generate(self, prompt: str) -> str:
        key = TextCache.key(self.endpoint, prompt, MAX_NEW_TOKENS) if self.cache else None
        if self.cache:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        url = self.endpoint.rstrip("/") + "/generate"
        body = post_json(url, {"prompt": prompt, "max_new_tokens": MAX_NEW_TOKENS})
        text = body.get("text")
        if not isinstance(text, str):
            raise TbvadError(f"generation service returned a malformed response from {url}")
        if self.cache:
            self.cache.put(key, text)
        return text

    def summarize(self, prompt: AspectPrompt, captions: list[str]) -> str:
        chunks: list[list[str]] = [[]]
        budget = SUMMARY_CHUNK_TOKENS
        for cap in captions:
            n = len(cap.split())
            if chunks[-1] and budget - n < 0:
                chunks.append([])
                budget = SUMMARY_CHUNK_TOKENS
            chunks[-1].append(cap)
            budget -= n
        partials = [self.generate(prompt.render("\n".join(chunk))) for chunk in chunks if chunk]
        if len(partials) == 1:
            return partials[0]
        return self.generate(prompt.render("\n".join(partials)))


def summarize_aspect(corpus_part: CaptionCorpus, prompt: AspectPrompt, class_v: str,
                     backend) -> SlotSummary:
    """Produce the slot summary for one (class, aspect) via the given backend."""
    if class_v not in CLASSES:
        raise ValidationError(f"unknown class {class_v!r}")
    captions = corpus_part.all_caption_texts()
    if not captions:
        raise ValidationError(
            f"cannot summarize aspect {prompt.aspect!r} for class {class_v!r}: corpus part is empty"
        )
    try:
        text = backend.summarize(prompt, captions)
    except TbvadError as e:
        raise TbvadError(f"summarization failed for aspect {prompt.aspect!r}, class {class_v!r}: {e}") from e
    if not text or not text.strip():
        raise TbvadError(f"summarizer returned empty text for aspect {prompt.aspect!r}, class {class_v!r}")
    return SlotSummary(class_v=class_v, aspect=prompt.aspect, text=text.strip())


@dataclass
class KnowledgeBase:
    """Class-conditioned slot summaries with embedded prototypes and sentences.

    ``prototypes[v]`` is an S x d matrix, one row per active aspect in
    canonical order, where row s is the mean-pooled embedding of that slot's
    summary text.  ``sentence_embeddings[(v, aspect)]`` holds one row per
    summary sentence, for evidence retrieval.  ``mean_embedding`` is the
    class average of the joined-text embeddings (see ``joined_text``).  All
    three are derived from the slots on construction.
    """

    aspects: tuple[str, ...]
    slots: dict[tuple[str, str], SlotSummary]
    embedder: EmbedderConfig
    prototypes: dict[str, np.ndarray] = field(init=False, default_factory=dict)
    sentence_embeddings: dict[tuple[str, str], np.ndarray] = field(init=False, default_factory=dict)
    mean_embedding: np.ndarray = field(init=False)
    # The vector cache the slots were embedded through, until take_embed_cache.
    embed_cache: VectorCache | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        self.aspects = validate_aspects(self.aspects)
        for v in CLASSES:
            for aspect in self.aspects:
                if (v, aspect) not in self.slots:
                    raise ValidationError(f"knowledge base is missing slot ({v!r}, {aspect!r})")
        extra = set(self.slots) - {(v, a) for v in CLASSES for a in self.aspects}
        if extra:
            raise ValidationError(f"knowledge base has slots outside the active aspect set: {sorted(extra)}")
        self._embed_all()

    def _embed_all(self):
        """Embed the slot texts, their sentences and the joined texts in one call."""
        keys = [(v, aspect) for v in CLASSES for aspect in self.aspects]
        sentences = [self.slots[key].sentences for key in keys]
        texts = [self.slots[key].text for key in keys]
        texts += [s for sents in sentences for s in sents]
        texts += [self.joined_text(v) for v in CLASSES]
        embedder = make_embedder(self.embedder)
        pooled = embedder.embed_captions(texts)
        self.embed_cache = embedder.cache
        start = 0
        for v in CLASSES:
            self.prototypes[v] = pooled[start:start + len(self.aspects)]
            start += len(self.aspects)
        for key, sents in zip(keys, sentences):
            self.sentence_embeddings[key] = pooled[start:start + len(sents)]
            start += len(sents)
        self.mean_embedding = 0.5 * (pooled[start] + pooled[start + 1])

    def take_embed_cache(self) -> VectorCache | None:
        """Hand the vector cache the slots were embedded through to the caption side, once.

        Its index holds every vector in the cache directory.  Sharing it lets
        a command read the packs once; dropping this reference frees the
        index with the caption embedder, before training or scoring runs.
        """
        cache, self.embed_cache = self.embed_cache, None
        return cache

    def joined_text(self, class_v: str) -> str:
        """Active slot texts concatenated in canonical order, newline-joined."""
        if class_v not in CLASSES:
            raise ValidationError(f"unknown class {class_v!r}")
        return "\n".join(self.slots[(class_v, aspect)].text for aspect in self.aspects)

    def to_dict(self) -> dict:
        return {
            "aspects": list(self.aspects),
            "classes": {
                v: {
                    aspect: {
                        "text": self.slots[(v, aspect)].text,
                        "sentences": list(self.slots[(v, aspect)].sentences),
                    }
                    for aspect in self.aspects
                }
                for v in CLASSES
            },
            "embedder": {
                "backend": self.embedder.backend,
                "dim": self.embedder.d,
                "seed": self.embedder.seed,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, ensure_ascii=False)


def build_knowledge(d_n: CaptionCorpus, d_a: CaptionCorpus,
                    prompts: dict[str, AspectPrompt], cfg: EmbedderConfig,
                    backend=None, active_aspects=ASPECTS) -> KnowledgeBase:
    """Summarize every (class, active aspect) pair and embed the results."""
    aspects = validate_aspects(active_aspects)
    if len(d_n) == 0 or len(d_a) == 0:
        raise ValidationError("build_knowledge requires non-empty corpora for both classes")
    backend = backend or ExtractiveSummarizer()
    slots: dict[tuple[str, str], SlotSummary] = {}
    for class_v, part in (("n", d_n), ("a", d_a)):
        for aspect in aspects:
            slots[(class_v, aspect)] = summarize_aspect(part, prompts[aspect], class_v, backend)
    return KnowledgeBase(aspects=aspects, slots=slots, embedder=cfg)


def save_knowledge(kb: KnowledgeBase, path: str | Path) -> None:
    Path(path).write_text(kb.to_json() + "\n", encoding="utf-8")


def load_knowledge(path: str | Path, emb: EmbedderConfig = EmbedderConfig(), *,
                   data: bytes | None = None) -> KnowledgeBase:
    """Load a knowledge JSON file, recomputing prototypes and sentence embeddings.

    Embeddings are never serialized; the stored (backend, dim, seed) triple
    plus ``emb``'s endpoint, cache directory and ``max_parallel`` reconstruct
    them.  A file that does not match the schema raises ValidationError.
    ``data`` is the file's bytes, already read by the caller (who may have
    hashed them); they are decoded as a text-mode read of the file would.
    """
    try:
        with (Path(path).open("r", encoding="utf-8") if data is None
              else io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")) as fh:
            raw = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise ValidationError(f"knowledge file {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ValidationError(f"knowledge file {path} is not a JSON object")
    for key in ("aspects", "classes", "embedder"):
        if key not in raw:
            raise ValidationError(f"knowledge file {path} is missing the {key!r} key")
    stored = raw["embedder"]
    # type() rather than isinstance(): a JSON true or false is not a dim or seed.
    if not (isinstance(stored, dict) and isinstance(stored.get("backend"), str)
            and type(stored.get("dim")) is int and type(stored.get("seed")) is int):
        raise ValidationError(
            f"knowledge file {path}: embedder must be an object with a string backend "
            f"and integer dim and seed, got {stored!r}"
        )
    cfg = replace(emb, backend=stored["backend"], d=stored["dim"], seed=stored["seed"])
    if not (isinstance(raw["aspects"], list) and all(isinstance(a, str) for a in raw["aspects"])):
        raise ValidationError(f"knowledge file {path}: aspects must be a list of strings")
    aspects = validate_aspects(raw["aspects"])
    if not isinstance(raw["classes"], dict):
        raise ValidationError(f"knowledge file {path}: classes must be an object")
    slots: dict[tuple[str, str], SlotSummary] = {}
    for v in CLASSES:
        if v not in raw["classes"]:
            raise ValidationError(f"knowledge file {path} is missing class {v!r}")
        slots_v = raw["classes"][v]
        if not isinstance(slots_v, dict):
            raise ValidationError(f"knowledge file {path}: class {v!r} must be an object")
        for aspect in aspects:
            if aspect not in slots_v:
                raise ValidationError(f"knowledge file {path} is missing slot ({v!r}, {aspect!r})")
            slot = slots_v[aspect]
            if not (isinstance(slot, dict) and isinstance(slot.get("text"), str)):
                raise ValidationError(
                    f"knowledge file {path}: slot ({v!r}, {aspect!r}) needs a string text"
                )
            slots[(v, aspect)] = SlotSummary(class_v=v, aspect=aspect, text=slot["text"])
    return KnowledgeBase(aspects=aspects, slots=slots, embedder=cfg)


def knowledge_mean_embedding(kb: KnowledgeBase) -> np.ndarray:
    """Class-agnostic mean of the two classes' joined-text mean embeddings.

    The classifier cannot condition on the unknown true class at test time,
    so its knowledge input averages both classes; class-conditioned
    prototypes are reserved for the reasoning branch.
    """
    return kb.mean_embedding


def class_agnostic_prototypes(kb: KnowledgeBase) -> np.ndarray:
    """Element-wise mean of the normal and abnormal prototype matrices."""
    return 0.5 * (kb.prototypes["n"] + kb.prototypes["a"])
