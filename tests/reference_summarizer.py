"""Per-occurrence reference for the extractive summarizer.

This is the ranking ``ExtractiveSummarizer`` ran before it shared a class's
sentence statistics across aspects: every call re-splits the captions,
tokenizes every sentence occurrence, rebuilds TF and DF, and scores each
distinct sentence with its own ``np.mean``.  ``sentence_split`` is the
splitter as it was then, normalizing whitespace part by part, and
``tokenize`` the regex tokenizer of that time, so neither leans on the
production text front end.  The oracle tests require the production code
to return the same text byte for byte.
"""

from __future__ import annotations

import math
import re

import numpy as np

from tbvad.errors import ValidationError
from tbvad.knowledge import (
    ASPECT_KEYWORD_BOOST,
    ASPECT_KEYWORDS,
    EXTRACTIVE_TOP_SENTENCES,
    OFF_ASPECT_WEIGHT,
)


def tokenize(text: str) -> list[str]:
    return re.findall(r"[^\W_]+", text.lower())


def sentence_split(text: str) -> list[str]:
    stripped = text.strip()
    if not stripped:
        return []
    parts = re.split(r"(?<=[.!?])\s+", stripped)
    return [re.sub(r"\s+", " ", p).strip() for p in parts if p.strip()]


class ReferenceSummarizer:
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
            if not any(term in ASPECT_KEYWORDS[other] for other in ASPECT_KEYWORDS
                       if other != aspect):
                return self.keyword_boost
        return self.off_aspect_weight

    def summarize(self, prompt, captions: list[str]) -> str:
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
        normalized = [s if s.endswith((".", "!", "?")) else s + "." for s in picked]
        return " ".join(normalized)
