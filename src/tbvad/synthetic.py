"""Seeded synthetic caption corpora with planted anomaly vocabulary.

Each frame caption is assembled from per-aspect word pools.  Abnormal
videos carry anomaly-pool words for the planted aspects inside one
contiguous frame window; normal videos occasionally pick up a stray anomaly
word as ambient noise, so separation is strong but not degenerate.  A
manifest records per-video caption counts for ingestion checks.  Alternate
domain pools support cross-dataset experiments with shared or disjoint
vocabulary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Caption, CaptionCorpus, VideoRecord, save_captions
from .errors import ValidationError
from .knowledge import ASPECTS, validate_aspects

NORMAL_POOLS = {
    "context": ("quiet", "busy", "calm", "routine", "ordinary", "crowded", "slow", "steady"),
    "action": ("walking", "waiting", "talking", "browsing", "jogging", "standing", "cycling", "strolling"),
    "object": ("backpack", "phone", "umbrella", "stroller", "bicycle", "newspaper", "scooter", "briefcase"),
    "environment": ("sidewalk", "plaza", "entrance", "platform", "park", "crosswalk", "storefront", "lobby"),
}

ANOMALY_POOLS = {
    "context": ("panicked", "violent", "chaotic", "frenzied", "hostile", "alarmed", "turbulent", "disorderly"),
    "action": ("fighting", "attacking", "smashing", "looting", "shoving", "brawling", "vandalizing", "kicking"),
    "object": ("knife", "pistol", "crowbar", "machete", "hammer", "bat", "chain", "shard"),
    "environment": ("wreckage", "rubble", "flames", "smoke", "debris", "blaze", "embers", "shards"),
}

# A second domain for cross-dataset runs: different normal vocabulary, with
# either the shared anomaly pools above or the fully disjoint ones below.
DOMAIN_B_NORMAL_POOLS = {
    "context": ("serene", "leisurely", "mundane", "orderly", "relaxed", "sparse", "mellow", "tranquil"),
    "action": ("shopping", "queueing", "chatting", "reading", "skating", "resting", "wandering", "commuting"),
    "object": ("handbag", "camera", "ticket", "suitcase", "laptop", "magazine", "helmet", "wallet"),
    "environment": ("terminal", "courtyard", "atrium", "escalator", "garden", "boulevard", "kiosk", "mezzanine"),
}

DOMAIN_B_ANOMALY_POOLS = {
    "context": ("berserk", "riotous", "menacing", "unhinged", "rampaging", "seething", "volatile", "feral"),
    "action": ("torching", "ransacking", "slashing", "trampling", "mauling", "detonating", "ramming", "hurling"),
    "object": ("cleaver", "revolver", "grenade", "axe", "spear", "pipe", "brick", "torch"),
    "environment": ("inferno", "carnage", "ruins", "craters", "ash", "soot", "havoc", "pandemonium"),
}

# One sentence per aspect, mirroring detailed frame-level captions; each
# carries a structural cue term the extractive summarizer can key on.
_ASPECT_TEMPLATES = {
    "context": ("The scene feels {context}.", "A {context} mood fills the area."),
    "action": ("Someone keeps {action} there.", "A person is {action} steadily."),
    "object": ("They carry a {object}.", "A {object} is visible."),
    "environment": ("The setting is a {environment}.", "The surroundings resemble a {environment}."),
}


@dataclass
class SyntheticConfig:
    """Knobs for one generated corpus."""

    n_videos: int = 200
    anomaly_ratio: float = 0.5
    frames_per_video: int = 12
    planted_aspects: tuple[str, ...] = ("object",)
    anomaly_frame_ratio: float = 0.5
    normal_noise_rate: float = 0.03
    seed: int = 0
    source_tag: str = "synth-a"
    normal_pools: dict = field(default_factory=lambda: dict(NORMAL_POOLS))
    anomaly_pools: dict = field(default_factory=lambda: dict(ANOMALY_POOLS))

    def __post_init__(self):
        if self.n_videos < 2:
            raise ValidationError("need at least two videos")
        if not (0.0 < self.anomaly_ratio < 1.0):
            raise ValidationError("anomaly_ratio must be in (0, 1)")
        if self.frames_per_video < 3:
            raise ValidationError("frames_per_video must be >= 3")
        if not (0.0 <= self.anomaly_frame_ratio <= 1.0):
            raise ValidationError("anomaly_frame_ratio must be in [0, 1]")
        if not (0.0 <= self.normal_noise_rate <= 1.0):
            raise ValidationError("normal_noise_rate must be in [0, 1]")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        self.planted_aspects = validate_aspects(self.planted_aspects)

    def public_dict(self) -> dict:
        return {
            "n_videos": self.n_videos,
            "anomaly_ratio": self.anomaly_ratio,
            "frames_per_video": self.frames_per_video,
            "planted_aspects": list(self.planted_aspects),
            "anomaly_frame_ratio": self.anomaly_frame_ratio,
            "normal_noise_rate": self.normal_noise_rate,
            "seed": self.seed,
            "source_tag": self.source_tag,
        }


def domain_config(domain: str, **overrides) -> SyntheticConfig:
    """Presets: 'a', 'b-shared' (same anomaly words), 'b-disjoint'."""

    if domain == "a":
        pools = {}
    elif domain == "b-shared":
        pools = {"normal_pools": dict(DOMAIN_B_NORMAL_POOLS)}
    elif domain == "b-disjoint":
        pools = {"normal_pools": dict(DOMAIN_B_NORMAL_POOLS),
                 "anomaly_pools": dict(DOMAIN_B_ANOMALY_POOLS)}
    else:
        raise ValidationError(f"unknown synthetic domain {domain!r}")
    pools.setdefault("source_tag", f"synth-{domain}")
    pools.update(overrides)
    return SyntheticConfig(**pools)


def _frame_caption(rng, cfg: SyntheticConfig, anomalous_aspects: set[str]) -> str:
    pools = [cfg.anomaly_pools[aspect] if aspect in anomalous_aspects else cfg.normal_pools[aspect]
             for aspect in ASPECTS]
    # Each aspect's word index, then its template index, from one call: it
    # reads the same stream as eight scalar ``integers(0, high)`` calls.
    draws = rng.integers(0, [bound for pool in pools for bound in (len(pool), 2)]).tolist()
    return " ".join(
        _ASPECT_TEMPLATES[aspect][template_at].format(**{aspect: pool[word_at]})
        for aspect, pool, word_at, template_at in zip(ASPECTS, pools, draws[0::2], draws[1::2])
    )


def generate_corpus(cfg: SyntheticConfig) -> tuple[CaptionCorpus, dict]:
    """Generate a labelled corpus and its manifest, fully determined by the seed."""
    rng = np.random.default_rng(cfg.seed)
    n_abnormal = int(round(cfg.n_videos * cfg.anomaly_ratio))
    labels = ["abnormal"] * n_abnormal + ["normal"] * (cfg.n_videos - n_abnormal)
    rng.shuffle(labels)

    videos = []
    manifest_videos = []
    for i, label in enumerate(labels):
        video_id = f"{cfg.source_tag}-v{i:04d}"
        n_frames = cfg.frames_per_video + int(rng.integers(-2, 3))
        n_frames = max(3, n_frames)
        window: set[int] = set()
        if label == "abnormal":
            width = max(1, int(round(cfg.anomaly_frame_ratio * n_frames)))
            start = int(rng.integers(0, n_frames - width + 1))
            window = set(range(start, start + width))
        captions = []
        for f in range(n_frames):
            if label == "abnormal" and f in window:
                anomalous = set(cfg.planted_aspects)
            elif rng.random() < cfg.normal_noise_rate:
                anomalous = {cfg.planted_aspects[int(rng.integers(0, len(cfg.planted_aspects)))]}
            else:
                anomalous = set()
            captions.append(Caption(video_id=video_id, frame_index=f,
                                    text=_frame_caption(rng, cfg, anomalous)))
        videos.append(VideoRecord(video_id=video_id, label=label, captions=tuple(captions)))
        manifest_videos.append({"video_id": video_id, "label": label, "n_captions": n_frames})

    corpus = CaptionCorpus(videos=tuple(videos), source_tag=cfg.source_tag)
    manifest = {"source_tag": cfg.source_tag, "seed": cfg.seed,
                "config": cfg.public_dict(), "videos": manifest_videos}
    return corpus, manifest


def write_corpus(cfg: SyntheticConfig, jsonl_path: str | Path,
                 manifest_path: str | Path | None = None) -> CaptionCorpus:
    """Generate, write JSONL (and manifest), and return the corpus."""
    corpus, manifest = generate_corpus(cfg)
    save_captions(corpus, jsonl_path)
    if manifest_path is not None:
        Path(manifest_path).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return corpus
