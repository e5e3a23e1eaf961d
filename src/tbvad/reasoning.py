"""Explainable reasoning branch: slot importance, evidence retrieval, counterfactual margins.

Slot prototypes are cross-attended against the encoded description tokens
to form slot-specific context vectors (scaled scores, no softmax over the
attention map); ``slot_attention`` is that one expression, for the
classifier head and for explain alike.  A small shared feed-forward network
scores each slot from its context vector and prototype; softmax over the
scores yields the slot importance weights.  Explain scores both classes'
prototypes in one stacked pass.  Evidence retrieval picks, for the
predicted class's top-weighted slots, the knowledge sentence most
cosine-similar to the mean description embedding.  Counterfactual margins
are the predicted class's weights minus the opposite class's.  Everything
is assembled into a structured, JSON-serializable explanation record.

The importance net's tensors are named, shaped and seeded with the rest of
the model's, in ``classifier._tensor_table``.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .embedding import cosine_similarity
from .errors import TbvadError, ValidationError
from .knowledge import ASPECTS, CLASS_NAMES, CLASSES, KnowledgeBase

logger = logging.getLogger(__name__)

MARGIN_SUM_TOL = 1e-6


@dataclass(frozen=True)
class Evidence:
    """One retrieved knowledge sentence supporting a decision."""

    class_v: str
    aspect: str
    sentence: str
    similarity: float
    rank: int

    def __post_init__(self):
        if self.class_v not in CLASSES or self.aspect not in ASPECTS:
            raise ValidationError(f"bad evidence key ({self.class_v!r}, {self.aspect!r})")
        if not (-1.0 <= self.similarity <= 1.0):
            raise ValidationError(f"evidence similarity out of range: {self.similarity}")
        if self.rank < 1:
            raise ValidationError("evidence rank must be positive")


def slot_attention(k_v: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A = K_v H^T / sqrt(d) and C = A H.

    ``h`` is one (T, d) segment or a stack (..., T, d); ``k_v`` is (S, d)
    or a stack (..., S, d) of prototypes.  Each slice takes the matmuls a
    single call does, so its A and C are bit for bit the same.  No checks:
    callers pass arrays the forward has just produced.
    """
    a = (k_v @ h.swapaxes(-1, -2)) / math.sqrt(h.shape[-1])
    return a, a @ h


@dataclass
class ImportanceParams:
    """Two-layer feed-forward scorer shared across slots: [C_s; K_s] -> z_s.

    Hidden width d_model, tanh nonlinearity, scalar output per slot.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    FIELDS = ("w1", "b1", "w2", "b2")

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.FIELDS}


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, so a stack (..., S) of score vectors works."""
    shifted = z - z.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def importance_forward(c: np.ndarray, k_v: np.ndarray, f_params: ImportanceParams):
    """Returns (z, cache) where z_s = f([C_s; K_{v,s}]) with f shared across slots.

    ``c`` is (S, d) or a stack (..., S, d); ``k_v`` is the (S, d) prototypes
    every slice shares, or a stack of the same shape as ``c``.
    """
    d = c.shape[-1]
    u = np.empty(c.shape[:-1] + (2 * d,))
    u[..., :d] = c
    u[..., d:] = k_v
    pre = u @ f_params.w1.T + f_params.b1
    hid = np.tanh(pre)
    z = hid @ f_params.w2 + f_params.b2[0]
    return z, (u, hid)


def importance_backward(dz: np.ndarray, cache, f_params: ImportanceParams):
    """Backprop through f; returns (dC, grads, dpre) with prototype grads discarded.

    ``dz`` is (S,) or a stack (..., S).  ``grads`` holds each slice's w2, b2
    and b1 terms, shaped (..., n).  Slice i's w1 gradient is
    ``dpre[i].T @ u[i]``, with ``u`` the first item of ``cache``; the caller
    adds it into its accumulator, so no stack of (d, 2d) matrices is built.
    """
    u, hid = cache
    grads = {
        "w2": (hid.swapaxes(-1, -2) @ dz[..., None])[..., 0],
        "b2": dz.sum(axis=-1, keepdims=True),
    }
    dhid = dz[..., None] * f_params.w2
    dpre = dhid * (1.0 - hid ** 2)
    grads["b1"] = dpre.sum(axis=-2)
    du = dpre @ f_params.w1
    d = u.shape[-1] // 2
    return du[..., :d], grads, dpre


def slot_importance(c: np.ndarray, k_v: np.ndarray,
                    f_params: ImportanceParams) -> np.ndarray:
    """Softmax weights (..., S) of each slot's score from its context vector and prototype."""
    z, _ = importance_forward(c, k_v, f_params)
    if not np.all(np.isfinite(z)):
        raise ValidationError("slot importance scores are non-finite")
    return softmax(z)


def retrieve_evidence(h_bar: np.ndarray, kb: KnowledgeBase, class_v: str,
                      w: np.ndarray, k: int) -> list[Evidence]:
    """Top-k slots by weight ``w`` (S,), each contributing its argmax-cosine sentence.

    Ties between slot weights resolve in canonical aspect order; ties
    between sentence similarities resolve to the lowest sentence index.
    Slots with no sentences are skipped with a warning and the next-ranked
    slot takes their place.  Results are ordered by descending weight.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if class_v not in CLASSES:
        raise ValidationError(f"unknown class {class_v!r}")
    if len(w) != len(kb.aspects):
        raise ValidationError("importance vector length does not match active aspects")
    order = sorted(range(len(kb.aspects)), key=lambda i: (-w[i], i))
    evidences: list[Evidence] = []
    for slot_idx in order:
        if len(evidences) == k:
            break
        aspect = kb.aspects[slot_idx]
        sentences = kb.slots[(class_v, aspect)].sentences
        embeddings = kb.sentence_embeddings[(class_v, aspect)]
        if len(sentences) == 0:
            logger.warning("slot (%s, %s) has no sentences; skipping", class_v, aspect)
            continue
        best_idx = 0
        best_sim = -np.inf
        for i in range(len(sentences)):
            sim = cosine_similarity(h_bar, embeddings[i])
            if sim > best_sim:
                best_sim, best_idx = sim, i
        evidences.append(Evidence(
            class_v=class_v, aspect=aspect, sentence=sentences[best_idx],
            similarity=float(best_sim), rank=len(evidences) + 1,
        ))
    return evidences


def counterfactual_margins(w: np.ndarray, predicted_v: str,
                           aspects: tuple[str, ...]) -> dict[str, float]:
    """Per-aspect importance shift when the class-conditioned knowledge is swapped.

    ``w`` holds the (2, S) slot weights under each class's prototypes, in
    ``CLASSES`` order.  Delta_s = w_s under the predicted class minus w_s
    under the opposite class; the margins always sum to zero.
    """
    if predicted_v not in CLASSES:
        raise ValidationError(f"unknown class {predicted_v!r}")
    ours = CLASSES.index(predicted_v)
    delta = w[ours] - w[1 - ours]
    return {aspect: float(delta[i]) for i, aspect in enumerate(aspects)}


@dataclass
class ExplanationRecord:
    """The structured record bundling score, weights, evidences, margins, rationale."""

    video_id: str
    score: float
    predicted_label: str
    slot_weights: dict[str, float]
    evidences: list[Evidence] = field(default_factory=list)
    margins: dict[str, float] = field(default_factory=dict)
    rationale: str = ""
    fallback: bool = False
    model_digest: str = ""

    def __post_init__(self):
        if not (0.0 <= self.score <= 1.0):
            raise ValidationError(f"score out of range: {self.score}")
        expected_label = "abnormal" if self.score >= 0.5 else "normal"
        if self.predicted_label != expected_label:
            raise ValidationError(
                f"label {self.predicted_label!r} inconsistent with score {self.score}"
            )
        aspect_set = set(self.slot_weights)
        if not aspect_set or not aspect_set.issubset(set(ASPECTS)):
            raise ValidationError(f"bad aspect set in slot weights: {sorted(aspect_set)}")
        if abs(sum(self.slot_weights.values()) - 1.0) > 1e-6:
            raise ValidationError("slot weights must sum to 1")
        if self.margins:
            if set(self.margins) != aspect_set:
                raise ValidationError("margins must cover exactly the weighted aspects")
            if abs(sum(self.margins.values())) > MARGIN_SUM_TOL:
                raise ValidationError("counterfactual margins must sum to 0")
        for ev in self.evidences:
            if ev.aspect not in aspect_set:
                raise ValidationError(f"evidence aspect {ev.aspect!r} not in the weighted set")

    def to_dict(self) -> dict:
        return {
            "video_id": self.video_id,
            "score": self.score,
            "label": self.predicted_label,
            "slot_weights": {a: self.slot_weights[a] for a in ASPECTS if a in self.slot_weights},
            "evidences": [
                {"aspect": e.aspect, "class": e.class_v, "sentence": e.sentence,
                 "similarity": e.similarity, "rank": e.rank}
                for e in self.evidences
            ],
            "margins": {a: self.margins[a] for a in ASPECTS if a in self.margins},
            "rationale": self.rationale,
            "fallback": self.fallback,
            "model_digest": self.model_digest,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, ensure_ascii=False)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExplanationRecord":
        return cls(
            video_id=raw["video_id"],
            score=raw["score"],
            predicted_label=raw["label"],
            slot_weights=dict(raw["slot_weights"]),
            evidences=[Evidence(class_v=e["class"], aspect=e["aspect"], sentence=e["sentence"],
                                similarity=e["similarity"], rank=e["rank"])
                       for e in raw["evidences"]],
            margins=dict(raw["margins"]),
            rationale=raw["rationale"],
            fallback=raw["fallback"],
            model_digest=raw["model_digest"],
        )


def build_record(video_id: str, y: float, w: dict[str, float],
                 evidences: list[Evidence], margins: dict[str, float],
                 rationale: str = "", model_digest: str = "",
                 fallback: bool = False) -> ExplanationRecord:
    """Assemble and validate the record; score >= 0.5 predicts abnormal."""
    label = "abnormal" if y >= 0.5 else "normal"
    return ExplanationRecord(
        video_id=video_id, score=float(y), predicted_label=label,
        slot_weights=dict(w), evidences=list(evidences), margins=dict(margins),
        rationale=rationale, model_digest=model_digest, fallback=fallback,
    )


def render_explanation(record: ExplanationRecord) -> str:
    """Deterministic template rendering of a record.

    Format contract (snapshot-tested): a decision line with the score to 3
    decimals, key factors as "aspect (NN.N%)", one quoted line per evidence,
    and the largest-|margin| aspect flagged as the counterfactual pivot.
    """
    lines = [f"Decision: {record.predicted_label} (score {record.score:.3f})."]
    if record.evidences:
        factor_aspects = [e.aspect for e in record.evidences]
    else:
        factor_aspects = sorted(record.slot_weights,
                                key=lambda a: (-record.slot_weights[a], ASPECTS.index(a)))
    factors = ", ".join(f"{a} ({100.0 * record.slot_weights[a]:.1f}%)" for a in factor_aspects)
    lines.append(f"Key factors: {factors}.")
    for ev in record.evidences:
        lines.append(f'Evidence [{ev.aspect}/{CLASS_NAMES[ev.class_v]}]: "{ev.sentence}"')
    if record.margins:
        pivot = max(record.margins, key=lambda a: (abs(record.margins[a]), -ASPECTS.index(a)))
        lines.append(f"Counterfactual pivot: {pivot} (margin {record.margins[pivot]:+.3f}).")
    return "\n".join(lines)


EXPLANATION_PROMPT = (
    "Write a concise plain-language justification of this anomaly decision "
    "using only the facts in the JSON record below. Mention the predicted "
    "label, the most important aspects, and the quoted evidence.\n\n{record}"
)


def generate_explanation(record: ExplanationRecord, backend=None) -> tuple[str, bool]:
    """Render the rationale; returns (text, fallback_used).

    With no backend the deterministic template is used.  A remote backend
    receives the record JSON inside a fixed prompt; on failure the template
    output is returned with the fallback flag set.
    """
    if backend is None:
        return render_explanation(record), False
    prompt = EXPLANATION_PROMPT.replace("{record}", record.to_json())
    try:
        return backend.generate(prompt), False
    except TbvadError as e:
        logger.warning("explanation backend failed (%s); using template fallback", e)
        return render_explanation(record), True


def attach_rationale(record: ExplanationRecord, backend=None) -> ExplanationRecord:
    """Return a copy of the record with rationale and fallback flag filled in."""
    text, fallback = generate_explanation(record, backend)
    return replace(record, rationale=text, fallback=fallback)
