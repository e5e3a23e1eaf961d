"""Evaluation harness: ranking metrics, caption statistics, ablations, cross-domain runs.

ROC-AUC is computed as the rank statistic with midrank tie correction
(P(score_pos > score_neg) + 0.5 * P(tie)) rather than by curve integration,
so it is exact and directly checkable against a pairwise-counting oracle.
Average precision uses the uninterpolated definition with tied scores
entering each cut point together.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

# Nothing here calls predict_video any more, but the benchmark's traced run
# (perfbench/spans.py) wraps it under this module's name, so it stays bound.
from .classifier import TrainConfig, predict_video, predict_videos, train  # noqa: F401
from .corpus import CaptionCorpus, group_by_class
from .embedding import EmbedderConfig, tokenize
from .errors import TbvadError, ValidationError
from .knowledge import ASPECTS, build_knowledge, default_prompts, validate_aspects


def _as_score_label_arrays(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValidationError(f"scores and labels must be equal-length 1-D sequences, got {s.shape} and {y.shape}")
    if s.size == 0:
        raise ValidationError("empty input")
    if not np.all(np.isfinite(s)):
        raise ValidationError("scores contain non-finite values")
    if not np.all((y == 0) | (y == 1)):
        raise ValidationError("labels must be 0 or 1")
    return s, y.astype(np.int64)


def _midranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean rank of their group."""
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size, dtype=np.float64)
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def roc_auc(scores, labels) -> float:
    """Area under the ROC curve via the midrank Mann-Whitney statistic."""
    s, y = _as_score_label_arrays(scores, labels)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("roc_auc requires both classes present")
    ranks = _midranks(s)
    return float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def average_precision(scores, labels) -> float:
    """Uninterpolated AP over descending-score cut points; ties enter together."""
    s, y = _as_score_label_arrays(scores, labels)
    n_pos = int(y.sum())
    if n_pos == 0:
        raise ValidationError("average_precision requires at least one positive")
    order = np.argsort(-s, kind="mergesort")
    s, y = s[order], y[order]
    ap = 0.0
    tp = 0
    prev_recall = 0.0
    i = 0
    n = s.size
    while i < n:
        j = i
        while j + 1 < n and s[j + 1] == s[i]:
            j += 1
        tp += int(y[i:j + 1].sum())
        recall = tp / n_pos
        precision = tp / (j + 1)
        ap += (recall - prev_recall) * precision
        prev_recall = recall
        i = j + 1
    return float(ap)


def accuracy(scores, labels, threshold: float = 0.5) -> float:
    """Fraction of items where (score >= threshold) agrees with the label."""
    s, y = _as_score_label_arrays(scores, labels)
    predicted = (s >= threshold).astype(np.int64)
    return float((predicted == y).mean())


def caption_stats(corpus: CaptionCorpus) -> tuple[float, float]:
    """Average caption length and mean TF-IDF information content.

    avg_len is the mean whitespace-token count per caption.  The TF-IDF
    figure treats each caption as one document: TF = raw count / token
    count, IDF = ln(N / df); each caption contributes the mean TF-IDF of
    its distinct terms, and captions are averaged with equal weight.
    Terms come from the shared lowercase tokenizer.
    """
    texts = corpus.all_caption_texts()
    if not texts:
        raise ValidationError("caption_stats requires a non-empty corpus")
    avg_len = float(np.mean([len(t.split()) for t in texts]))

    docs = [tokenize(t) for t in texts]
    n_docs = len(docs)
    df: dict[str, int] = {}
    for doc in docs:
        for term in set(doc):
            df[term] = df.get(term, 0) + 1
    per_caption = []
    for doc in docs:
        if not doc:
            per_caption.append(0.0)
            continue
        counts: dict[str, int] = {}
        for term in doc:
            counts[term] = counts.get(term, 0) + 1
        weights = [(c / len(doc)) * math.log(n_docs / df[t]) for t, c in counts.items()]
        per_caption.append(float(np.mean(weights)))
    return avg_len, float(np.mean(per_caption))


@dataclass
class MetricsReport:
    """One evaluation result with enough provenance to trace its configuration."""

    dataset_tag: str
    auc: float | None = None
    ap: float | None = None
    acc: float | None = None
    threshold: float = 0.5
    n_pos: int = 0
    n_neg: int = 0
    config_digest: str = ""

    def __post_init__(self):
        for name in ("auc", "ap", "acc"):
            v = getattr(self, name)
            if v is not None and not (0.0 <= v <= 1.0):
                raise ValidationError(f"{name} out of range: {v}")
        if self.n_pos + self.n_neg < 2:
            raise ValidationError("a metrics report needs at least two scored items")

    def to_dict(self) -> dict:
        return {
            "dataset_tag": self.dataset_tag,
            "auc": self.auc,
            "ap": self.ap,
            "acc": self.acc,
            "threshold": self.threshold,
            "n_pos": self.n_pos,
            "n_neg": self.n_neg,
            "config_digest": self.config_digest,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def to_text(self) -> str:
        rows = [("dataset", self.dataset_tag)]
        for name, v in (("auc", self.auc), ("ap", self.ap), ("acc", self.acc)):
            if v is not None:
                rows.append((name, f"{v:.4f}"))
        rows.extend([("threshold", f"{self.threshold:.2f}"),
                     ("n_pos", str(self.n_pos)), ("n_neg", str(self.n_neg))])
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


@dataclass
class AblationRow:
    """One row of a slot-combination sweep."""

    active_aspects: tuple[str, ...]
    auc: float = float("nan")
    ap: float = float("nan")
    error: str | None = None

    def __post_init__(self):
        if not self.active_aspects:
            raise ValidationError("an ablation row needs a non-empty aspect subset")

    @property
    def failed(self) -> bool:
        return self.error is not None


def ablation_csv(rows: list[AblationRow]) -> str:
    """Render ablation rows as CSV with header ``aspects,auc,ap``."""
    lines = ["aspects,auc,ap"]
    for row in rows:
        auc = "" if math.isnan(row.auc) else f"{row.auc:.6f}"
        ap = "" if math.isnan(row.ap) else f"{row.ap:.6f}"
        lines.append(f"{'+'.join(row.active_aspects)},{auc},{ap}")
    return "\n".join(lines) + "\n"


def config_digest(obj) -> str:
    """SHA-256 over a canonical JSON rendering of a config-like object."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class PipelineConfig:
    """Everything needed to build knowledge and train a model on one corpus."""

    emb: EmbedderConfig
    know_emb: EmbedderConfig
    train: TrainConfig
    aspects: tuple[str, ...] = ASPECTS
    prompts: dict | None = None
    summarizer: object | None = None

    def digest(self) -> str:
        return config_digest({
            "emb": dataclasses.asdict(self.emb),
            "know_emb": dataclasses.asdict(self.know_emb),
            "train": dataclasses.asdict(self.train),
            "aspects": list(self.aspects),
        })


def make_pipeline_config(d: int = 64, seed: int = 0, desc_max_tokens: int = 512,
                         know_max_tokens: int = 4096, aspects=None,
                         **train_overrides) -> PipelineConfig:
    """Desk-scale defaults with the hash embedder shared across both roles."""
    emb = EmbedderConfig(backend="hash", d=d, max_tokens=desc_max_tokens, seed=seed)
    know_emb = EmbedderConfig(backend="hash", d=d, max_tokens=know_max_tokens, seed=seed)
    train_overrides.setdefault("seed", seed)
    return PipelineConfig(
        emb=emb, know_emb=know_emb, train=TrainConfig(**train_overrides),
        aspects=validate_aspects(aspects) if aspects else ASPECTS,
    )


def run_pipeline(train_corpus: CaptionCorpus, cfg: PipelineConfig,
                 aspects=None, seed: int | None = None):
    """Build knowledge from the training corpus and train a model; returns (kb, model)."""
    active = validate_aspects(aspects) if aspects is not None else cfg.aspects
    prompts = cfg.prompts if cfg.prompts is not None else default_prompts()
    d_n, d_a = group_by_class(train_corpus)
    kb = build_knowledge(d_n, d_a, prompts, cfg.know_emb,
                         backend=cfg.summarizer, active_aspects=active)
    train_cfg = cfg.train if seed is None else dataclasses.replace(cfg.train, seed=seed)
    model = train(train_corpus, kb, train_cfg, cfg.emb)
    return kb, model


def score_corpus(corpus: CaptionCorpus, kb, model, emb: EmbedderConfig):
    """Per-video anomaly scores and 0/1 labels (abnormal = 1), in corpus order."""
    scores = [y for y, _, _ in predict_videos(corpus.videos, kb, model, emb)]
    labels = [1 if video.label == "abnormal" else 0 for video in corpus.videos]
    return scores, labels


def frame_level_scores(corpus: CaptionCorpus, scores: list[float]):
    """Expand video scores to frames: every frame inherits its video's score.

    The weak labels carry no frame annotations, so frames also inherit the
    video label; this is the constant-assignment protocol for frame-level
    ROC evaluation.
    """
    frame_scores, frame_labels = [], []
    for video, score in zip(corpus.videos, scores):
        frame_scores.extend([score] * len(video.captions))
        frame_labels.extend([1 if video.label == "abnormal" else 0] * len(video.captions))
    return frame_scores, frame_labels


def evaluate_model(test_corpus: CaptionCorpus, kb, model, emb: EmbedderConfig,
                   threshold: float = 0.5, level: str = "video",
                   digest: str = "") -> MetricsReport:
    """Score a corpus and report AUC/AP/ACC (AUC and AP need both classes)."""
    if level not in ("video", "frame"):
        raise ValidationError(f"unknown evaluation level {level!r}")
    scores, labels = score_corpus(test_corpus, kb, model, emb)
    if level == "frame":
        scores, labels = frame_level_scores(test_corpus, scores)
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    return MetricsReport(
        dataset_tag=test_corpus.source_tag,
        auc=roc_auc(scores, labels) if 0 < n_pos < len(labels) else None,
        ap=average_precision(scores, labels) if n_pos > 0 else None,
        acc=accuracy(scores, labels, threshold),
        threshold=threshold, n_pos=n_pos, n_neg=n_neg, config_digest=digest,
    )


# The seven slot combinations of the published sweep, in row order.
TABLE3_COMBOS: tuple[tuple[str, ...], ...] = (
    ("context", "action"),
    ("action",),
    ("action", "object"),
    ("context", "action", "object"),
    ("action", "environment"),
    ("context", "action", "object", "environment"),
    ("object", "environment"),
)


def ablate_slots(train_corpus: CaptionCorpus, test_corpus: CaptionCorpus,
                 combos, cfg: PipelineConfig) -> list[AblationRow]:
    """Rebuild knowledge + retrain per aspect subset; rows in input order.

    Per-row seeds derive from (base seed, row index) so rows are independent
    and individually reproducible; a failing row is marked failed without
    aborting the sweep.
    """
    combos = [tuple(c) for c in combos]
    if not combos:
        raise ValidationError("ablate_slots requires at least one aspect combination")
    rows: list[AblationRow] = []
    for idx, combo in enumerate(combos):
        try:
            kb, model = run_pipeline(train_corpus, cfg, aspects=combo,
                                     seed=cfg.train.seed + idx)
            report = evaluate_model(test_corpus, kb, model, cfg.emb, digest=cfg.digest())
            rows.append(AblationRow(active_aspects=kb.aspects,
                                    auc=report.auc if report.auc is not None else float("nan"),
                                    ap=report.ap if report.ap is not None else float("nan")))
        except TbvadError as e:
            rows.append(AblationRow(active_aspects=combo, error=str(e)))
    return rows


def cross_eval(train_corpus: CaptionCorpus, test_corpus: CaptionCorpus,
               cfg: PipelineConfig, allow_same_tag: bool = False) -> MetricsReport:
    """Train (knowledge included) on one domain, evaluate on another.

    Knowledge is built from the training domain only.  Same source tags are
    rejected unless the self-check guard is explicitly disabled.
    """
    if train_corpus.source_tag == test_corpus.source_tag and not allow_same_tag:
        raise ValidationError(
            f"cross_eval requires distinct source tags, both are {train_corpus.source_tag!r}"
        )
    kb, model = run_pipeline(train_corpus, cfg)
    report = evaluate_model(test_corpus, kb, model, cfg.emb, digest=cfg.digest())
    report.dataset_tag = f"{train_corpus.source_tag}->{test_corpus.source_tag}"
    return report
