from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from tbvad.classifier import ModelConfig, _tensor_table
from tbvad.corpus import Caption, CaptionCorpus, VideoRecord
from tbvad.encoder import f32_exact
from tbvad.reasoning import ImportanceParams


def make_video(video_id: str, label: str, texts: list[str], start: int = 0) -> VideoRecord:
    caps = tuple(
        Caption(video_id=video_id, frame_index=start + i, text=t) for i, t in enumerate(texts)
    )
    return VideoRecord(video_id=video_id, label=label, captions=caps)


def importance_params(d_model: int, seed: int) -> ImportanceParams:
    """A width-d_model importance net drawn from ``default_rng(seed)``.

    The model draws its importance net from ``default_rng(model seed + 1)``;
    this draws the same ``importance.*`` rows of the tensor table, in the same
    order, from any seed, 0 included.
    """
    cfg = ModelConfig(d_model=d_model, num_layers=0, num_heads=1, d_ff=1, d_latent=1,
                      knowledge_dim=1, k_frames=1, seed=0, active_aspects=())
    rng = np.random.default_rng(seed)
    drawn = {}
    for name, shape, (_, fan_in) in (row for row in _tensor_table(cfg)
                                     if row[0].startswith("importance.")):
        bound = 1.0 / math.sqrt(fan_in)
        drawn[name[len("importance."):]] = f32_exact(rng.uniform(-bound, bound, size=shape))
    return ImportanceParams(**drawn)


@pytest.fixture
def small_corpus() -> CaptionCorpus:
    return CaptionCorpus(
        videos=(
            make_video("v1", "normal", ["A man walks along the sidewalk.", "He carries a backpack."]),
            make_video("v2", "abnormal", ["Two people are fighting near a car.", "One swings a bat."]),
        ),
        source_tag="unit",
    )
