"""Structured slot knowledge: four-aspect summaries per class, their embeddings, and encoding.

For each class (``n`` normal, ``a`` abnormal) and each active aspect
(context, action, object, environment) a textual slot summary is produced
either by a remote LLM endpoint or by a deterministic extractive fallback.
Slot prototypes are the mean-pooled embeddings of each summary; candidate
evidence sentences are embedded one row per sentence.  The encoded
knowledge vector projects the mean embedding of all active slot texts,
concatenated in canonical order as one sequence, into the latent space.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .corpus import CaptionCorpus, sentence_split
from .embedding import EmbedderConfig, embed_tokens, make_embedder, mean_pool, tokenize
from .errors import TbvadError, ValidationError
from .remote import TextCache, default_cache_dir, post_json

logger = logging.getLogger(__name__)

ASPECTS = ("context", "action", "object", "environment")
CLASSES = ("n", "a")
CLASS_NAMES = {"n": "normal", "a": "abnormal"}

EXTRACTIVE_TOP_SENTENCES = 10
ASPECT_KEYWORD_BOOST = 2.0
OFF_ASPECT_WEIGHT = 0.02
SUMMARY_CHUNK_TOKENS = 3000
DEFAULT_MAX_NEW_TOKENS = 512

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
        "night", "day", "dark", "bright", "platform", "entrance", "alley",
        "corridor",
    }),
}


def validate_aspects(aspects) -> tuple[str, ...]:
    """Normalize an aspect subset to canonical order, rejecting unknowns."""
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


def load_prompts(path: str | Path) -> dict[str, AspectPrompt]:
    """Load prompt templates from a user config file, one per aspect."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    missing = [a for a in ASPECTS if a not in raw]
    if missing:
        raise ValidationError(f"prompt config {path} is missing aspects: {missing}")
    return {aspect: AspectPrompt(aspect=aspect, template=raw[aspect]) for aspect in ASPECTS}


@dataclass(frozen=True)
class SlotSummary:
    """One class-conditioned aspect summary and its sentence list."""

    class_v: str
    aspect: str
    text: str
    sentences: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.class_v not in CLASSES:
            raise ValidationError(f"unknown class {self.class_v!r}")
        if self.aspect not in ASPECTS:
            raise ValidationError(f"unknown aspect {self.aspect!r}")
        if not self.text.strip():
            raise ValidationError(f"slot summary ({self.class_v}, {self.aspect}) is empty")
        expected = tuple(sentence_split(self.text))
        if self.sentences != expected:
            object.__setattr__(self, "sentences", expected)


class ExtractiveSummarizer:
    """Deterministic offline fallback summarizer.

    Ranks the corpus sentences by the mean TF-IDF of their aspect-keyword-
    weighted terms: terms in the aspect's keyword set (plus "-ing" forms for
    the action aspect) carry the full boost, off-aspect terms are strongly
    down-weighted, so each prompt pulls in sentences about its own aspect.
    The top sentences are kept in rank order; duplicate sentence texts
    collapse to their first occurrence.
    """

    def __init__(self, top_sentences: int = EXTRACTIVE_TOP_SENTENCES,
                 keyword_boost: float = ASPECT_KEYWORD_BOOST,
                 off_aspect_weight: float = OFF_ASPECT_WEIGHT):
        self.top_sentences = top_sentences
        self.keyword_boost = keyword_boost
        self.off_aspect_weight = off_aspect_weight

    def _term_boost(self, term: str, aspect: str) -> float:
        if term in ASPECT_KEYWORDS[aspect]:
            return self.keyword_boost
        if aspect == "action" and term.endswith("ing") and len(term) > 4:
            # Gerund heuristic, unless the term is another aspect's cue
            # (e.g. "setting", "building", "lighting" belong to environment).
            if not any(term in ASPECT_KEYWORDS[other] for other in ASPECT_KEYWORDS
                       if other != aspect):
                return self.keyword_boost
        return self.off_aspect_weight

    def summarize(self, prompt: AspectPrompt, captions: list[str]) -> str:
        sentences: list[str] = []
        seen: set[str] = set()
        all_docs: list[list[str]] = []
        for cap in captions:
            for sent in sentence_split(cap):
                all_docs.append(tokenize(sent))
                if sent not in seen:
                    seen.add(sent)
                    sentences.append(sent)
        if not sentences:
            raise ValidationError("no sentences available for extractive summarization")

        # TF over the whole corpus part with per-sentence DF: knowledge should
        # capture patterns that recur in a class, so frequent terms score high
        # while one-off noise does not dominate.
        n_docs = len(all_docs)
        df: dict[str, int] = {}
        tf: dict[str, int] = {}
        total_tokens = 0
        for doc in all_docs:
            total_tokens += len(doc)
            for term in doc:
                tf[term] = tf.get(term, 0) + 1
            for term in set(doc):
                df[term] = df.get(term, 0) + 1

        def score(sentence: str) -> float:
            terms = set(tokenize(sentence))
            if not terms:
                return 0.0
            weighted = [
                (tf[t] / total_tokens) * math.log(n_docs / df[t]) * self._term_boost(t, prompt.aspect)
                for t in sorted(terms)
            ]
            return float(np.mean(weighted))

        ranked = sorted(range(len(sentences)), key=lambda i: (-score(sentences[i]), i))
        picked = [sentences[i] for i in ranked[: self.top_sentences]]
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

    def __init__(self, endpoint: str, cache_dir: str | Path | None = None,
                 max_new_tokens: int = DEFAULT_MAX_NEW_TOKENS):
        if not endpoint:
            raise ValidationError("remote generator requires an endpoint")
        self.endpoint = endpoint
        self.max_new_tokens = max_new_tokens
        cache_dir = cache_dir or default_cache_dir()
        self.cache = TextCache(Path(cache_dir) / "generate") if cache_dir else None

    def generate(self, prompt: str) -> str:
        key = TextCache.key(self.endpoint, prompt, self.max_new_tokens) if self.cache else None
        if self.cache:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        url = self.endpoint.rstrip("/") + "/generate"
        body = post_json(url, {"prompt": prompt, "max_new_tokens": self.max_new_tokens})
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
    summary sentence, for evidence retrieval.
    """

    aspects: tuple[str, ...]
    slots: dict[tuple[str, str], SlotSummary]
    embedder: EmbedderConfig
    prototypes: dict[str, np.ndarray] = field(default_factory=dict)
    sentence_embeddings: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.aspects = validate_aspects(self.aspects)
        for v in CLASSES:
            for aspect in self.aspects:
                if (v, aspect) not in self.slots:
                    raise ValidationError(f"knowledge base is missing slot ({v!r}, {aspect!r})")
        extra = set(self.slots) - {(v, a) for v in CLASSES for a in self.aspects}
        if extra:
            raise ValidationError(f"knowledge base has slots outside the active aspect set: {sorted(extra)}")
        if not self.prototypes:
            self._embed_all()

    def _embed_all(self):
        emb = make_embedder(self.embedder)
        for v in CLASSES:
            rows = [mean_pool(emb.embed_tokens(self.slots[(v, aspect)].text)) for aspect in self.aspects]
            self.prototypes[v] = np.stack(rows)
            for aspect in self.aspects:
                sents = self.slots[(v, aspect)].sentences
                if sents:
                    self.sentence_embeddings[(v, aspect)] = np.stack(
                        [mean_pool(emb.embed_tokens(s)) for s in sents]
                    )
                else:
                    self.sentence_embeddings[(v, aspect)] = np.zeros((0, self.embedder.d))

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


def load_knowledge(path: str | Path, endpoint: str | None = None,
                   cache_dir: str | None = None, max_tokens: int = 4096) -> KnowledgeBase:
    """Load a knowledge JSON file, recomputing prototypes and sentence embeddings.

    Embeddings are never serialized; the stored (backend, dim, seed) triple
    plus the caller-supplied endpoint/cache settings reconstruct them.  A
    file that does not match the schema raises ValidationError.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ValidationError(f"knowledge file {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ValidationError(f"knowledge file {path} is not a JSON object")
    for key in ("aspects", "classes", "embedder"):
        if key not in raw:
            raise ValidationError(f"knowledge file {path} is missing the {key!r} key")
    emb = raw["embedder"]
    # type() rather than isinstance(): a JSON true or false is not a dim or seed.
    if not (isinstance(emb, dict) and isinstance(emb.get("backend"), str)
            and type(emb.get("dim")) is int and type(emb.get("seed")) is int):
        raise ValidationError(
            f"knowledge file {path}: embedder must be an object with a string backend "
            f"and integer dim and seed, got {emb!r}"
        )
    cfg = EmbedderConfig(
        backend=emb["backend"], d=emb["dim"], seed=emb["seed"],
        max_tokens=max_tokens, endpoint=endpoint, cache_dir=cache_dir,
    )
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


def encode_knowledge(kb: KnowledgeBase, class_v: str,
                     w_v: np.ndarray, b_v: np.ndarray) -> np.ndarray:
    """Project the mean embedding of one class's joined slot texts into latent space.

    The active slot texts are concatenated in canonical order and embedded
    as a single sequence under the knowledge token budget, then mean-pooled
    and affinely projected.
    """
    w_v = np.asarray(w_v, dtype=np.float64)
    b_v = np.asarray(b_v, dtype=np.float64)
    if not (np.all(np.isfinite(w_v)) and np.all(np.isfinite(b_v))):
        raise ValidationError("projection parameters must be finite")
    text = kb.joined_text(class_v)
    if not text.strip():
        raise ValidationError(f"joined knowledge text for class {class_v!r} is empty")
    pooled = mean_pool(embed_tokens(text, kb.embedder))
    if w_v.shape[1] != pooled.shape[0]:
        raise ValidationError(
            f"knowledge projection expects input dim {w_v.shape[1]}, got {pooled.shape[0]}"
        )
    return w_v @ pooled + b_v


def knowledge_mean_embedding(kb: KnowledgeBase) -> np.ndarray:
    """Class-agnostic mean of the two classes' joined-text mean embeddings.

    The classifier cannot condition on the unknown true class at test time,
    so its knowledge input averages both classes; class-conditioned
    prototypes are reserved for the reasoning branch.
    """
    emb = make_embedder(kb.embedder)
    pools = [mean_pool(emb.embed_tokens(kb.joined_text(v))) for v in CLASSES]
    return 0.5 * (pools[0] + pools[1])


def class_agnostic_prototypes(kb: KnowledgeBase) -> np.ndarray:
    """Element-wise mean of the normal and abnormal prototype matrices."""
    return 0.5 * (kb.prototypes["n"] + kb.prototypes["a"])
