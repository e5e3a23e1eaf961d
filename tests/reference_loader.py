"""Per-line ``json.loads`` reference for the caption loader.

This is ``load_captions`` as it was before it decoded lines with the JSON
module's C scanner: every non-blank line goes through ``json.loads`` and the
four fields through the ``isinstance`` loop.  The oracle test requires the
production loader to return an equal corpus, or to raise the same exception
type with the same message, on every generated file.
"""

from __future__ import annotations

import json
from pathlib import Path

from tbvad.corpus import LABELS, Caption, CaptionCorpus, VideoRecord
from tbvad.errors import ValidationError


def _utf8_error(path: Path) -> str:
    """Name the line of the first byte in ``path`` that is not UTF-8."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        lineno = data.count(b"\n", 0, e.start) + 1
        return f"{path}:{lineno}: not valid UTF-8 ({e.reason})"
    return f"{path}: not valid UTF-8"


def load_captions(path: str | Path, source_tag: str | None = None) -> CaptionCorpus:
    """Load a JSONL caption file into a validated corpus.

    Raises ValidationError naming the offending line for bytes that are not
    UTF-8, malformed JSON, missing/bad fields, duplicate (video_id,
    frame_index) pairs, label disagreement within a video, or an empty file.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"caption file does not exist: {path}")

    per_video: dict[str, list[Caption]] = {}
    labels: dict[str, str] = {}
    seen: set[tuple[str, int]] = set()
    n_lines = 0
    try:
        with path.open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                n_lines += 1
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as e:
                    raise ValidationError(f"{path}:{lineno}: malformed JSON ({e.msg})") from e
                if not isinstance(rec, dict):
                    raise ValidationError(f"{path}:{lineno}: record is not an object")
                for key, typ in (("video_id", str), ("frame_index", int), ("label", str), ("text", str)):
                    if key not in rec:
                        raise ValidationError(f"{path}:{lineno}: missing field {key!r}")
                    if not isinstance(rec[key], typ) or isinstance(rec[key], bool):
                        raise ValidationError(f"{path}:{lineno}: field {key!r} must be {typ.__name__}")
                vid, fidx, label, text = rec["video_id"], rec["frame_index"], rec["label"], rec["text"]
                if label not in LABELS:
                    raise ValidationError(f"{path}:{lineno}: label must be one of {LABELS}, got {label!r}")
                if (vid, fidx) in seen:
                    raise ValidationError(f"{path}:{lineno}: duplicate (video_id, frame_index) = ({vid!r}, {fidx})")
                seen.add((vid, fidx))
                if vid in labels and labels[vid] != label:
                    raise ValidationError(f"{path}:{lineno}: label {label!r} disagrees with earlier "
                                          f"label {labels[vid]!r} for video {vid!r}")
                labels[vid] = label
                try:
                    cap = Caption(video_id=vid, frame_index=fidx, text=text)
                except ValidationError as e:
                    raise ValidationError(f"{path}:{lineno}: {e}") from e
                per_video.setdefault(vid, []).append(cap)
    except UnicodeDecodeError as e:
        raise ValidationError(_utf8_error(path)) from e

    if n_lines == 0:
        raise ValidationError(f"caption file is empty: {path}")

    videos = tuple(
        VideoRecord(
            video_id=vid,
            label=labels[vid],
            captions=tuple(sorted(caps, key=lambda c: c.frame_index)),
        )
        for vid, caps in per_video.items()
    )
    return CaptionCorpus(videos=videos, source_tag=source_tag if source_tag is not None else str(path))
