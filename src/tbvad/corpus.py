"""Caption corpora: ingestion, validation, grouping, frame sampling, sentence splitting.

A corpus is a set of videos, each carrying a weak video-level label
(normal/abnormal) and an ordered sequence of frame-level captions.  The
interchange format is JSON-Lines, one caption per line:

    {"video_id": str, "frame_index": int, "label": "normal"|"abnormal", "text": str}

The label must agree across all lines of a video.  All operations here are
pure; a loaded corpus is immutable by convention and safe to share across
workers.

``load_captions`` streams the file one line at a time and decodes each line
with the C scanner that ``json.loads`` itself ends in, falling back to
``json.loads`` for any line the scanner does not consume whole.  It accepts
and rejects exactly what per-line ``json.loads`` plus ``isinstance`` checks
did, with the same messages.  Asked for one video, it still checks every
line, but builds a ``Caption`` only for that video's lines.

A caller that has read the file's bytes can pass them in, and say that
these exact bytes already passed a full load under the rules that
``CHECKED_MARKERS`` names (the CLI keeps an empty marker file per
SHA-256 for this).  Such a load decodes only the lines that can hold a
record of the asked video: those that write the id literally between
quotes, or hold any backslash.  If one of them is not a valid record, every
line is checked after all, so a bad line of the asked video still gives the
full load's error; the other lines are trusted to the marker.
"""

from __future__ import annotations

import io
import json
import json.decoder
import json.scanner
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ValidationError

LABELS = ("normal", "abnormal")

# The scanner and whitespace pattern that ``json.loads`` runs for a str.
_SCAN = json.scanner.make_scanner(json.JSONDecoder())
_JSON_WHITESPACE = json.decoder.WHITESPACE.match
# Names the loader's accept/reject rules for markers of fully checked files.  A
# stricter loader bumps it, so it never trusts a marker an older one wrote.
CHECKED_MARKERS = "captions-v1"


@dataclass(frozen=True)
class Caption:
    """One frame-level caption."""

    video_id: str
    frame_index: int
    text: str

    def __post_init__(self):
        if (error := _caption_error(self.video_id, self.frame_index, self.text)) is not None:
            raise ValidationError(error)


def _caption_error(video_id: str, frame_index: int, text: str) -> str | None:
    """Why these fields do not make a ``Caption``, or None if they do."""
    if frame_index < 0:
        return f"caption for video {video_id!r} has negative frame_index {frame_index}"
    if not text.strip():
        return f"caption for video {video_id!r} frame {frame_index} has empty text"
    return None


@dataclass(frozen=True)
class VideoRecord:
    """All captions of one video plus its weak video-level label."""

    video_id: str
    label: str
    captions: tuple[Caption, ...]

    def __post_init__(self):
        if self.label not in LABELS:
            raise ValidationError(f"video {self.video_id!r}: unknown label {self.label!r}")
        indices = [c.frame_index for c in self.captions]
        if sorted(indices) != indices:
            object.__setattr__(
                self, "captions", tuple(sorted(self.captions, key=lambda c: c.frame_index))
            )
            indices = sorted(indices)
        if len(set(indices)) != len(indices):
            raise ValidationError(f"video {self.video_id!r}: duplicate frame_index values")


@dataclass(frozen=True)
class CaptionCorpus:
    """An immutable collection of videos with unique ids."""

    videos: tuple[VideoRecord, ...]
    source_tag: str = ""

    def __post_init__(self):
        ids = [v.video_id for v in self.videos]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValidationError(f"duplicate video_id values in corpus: {dupes}")

    def __len__(self) -> int:
        return len(self.videos)

    def video(self, video_id: str) -> VideoRecord:
        for v in self.videos:
            if v.video_id == video_id:
                return v
        raise ValidationError(f"video id {video_id!r} not found in corpus")

    def all_caption_texts(self) -> list[str]:
        return [c.text for v in self.videos for c in v.captions]


def _utf8_error(path: Path, data: bytes) -> str:
    """Name the line of the first byte in ``data``, read from ``path``, that is not UTF-8."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        lineno = data.count(b"\n", 0, e.start) + 1
        return f"{path}:{lineno}: not valid UTF-8 ({e.reason})"
    return f"{path}: not valid UTF-8"


def _record_error(rec) -> str:
    """Why a decoded line is not a caption record, in the loader's words."""
    if not isinstance(rec, dict):
        return "record is not an object"
    for key, typ in (("video_id", str), ("frame_index", int), ("label", str), ("text", str)):
        if key not in rec:
            return f"missing field {key!r}"
        if not isinstance(rec[key], typ) or isinstance(rec[key], bool):
            return f"field {key!r} must be {typ.__name__}"
    raise AssertionError(f"record passes every field check: {rec!r}")


def _existing(path: str | Path) -> Path:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"caption file does not exist: {path}")
    if not path.is_file():
        raise ValidationError(f"caption file is not a regular file: {path}")
    return path


def read_caption_file(path: str | Path) -> bytes:
    """The bytes of a caption file, for a caller that also hashes them."""
    return _existing(path).read_bytes()


def _check_lines(lines, path: Path, video_id: str | None) -> dict[str, tuple[str, set[int], list[Caption]]]:
    """Decode and check each line; per video, its label, frame indices and kept captions."""
    videos: dict[str, tuple[str, set[int], list[Caption]]] = {}
    for lineno, line in enumerate(lines, start=1):
        try:
            rec, end = _SCAN(line, 0)
            whole = line[end:] == "\n" or _JSON_WHITESPACE(line, end).end() == len(line)
        except (StopIteration, ValueError, RecursionError):
            whole = False
        if not whole:
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValidationError(f"{path}:{lineno}: malformed JSON ({e.msg})") from e
            except RecursionError as e:
                raise ValidationError(f"{path}:{lineno}: malformed JSON ({e})") from e
        if not (type(rec) is dict
                and type(vid := rec.get("video_id")) is str
                and type(fidx := rec.get("frame_index")) is int
                and type(label := rec.get("label")) is str
                and type(text := rec.get("text")) is str):
            raise ValidationError(f"{path}:{lineno}: {_record_error(rec)}")
        if label not in LABELS:
            raise ValidationError(f"{path}:{lineno}: label must be one of {LABELS}, got {label!r}")
        entry = videos.get(vid)
        if entry is None:
            entry = videos[vid] = (label, set(), [])
        elif fidx in entry[1]:
            raise ValidationError(f"{path}:{lineno}: duplicate (video_id, frame_index) = ({vid!r}, {fidx})")
        elif entry[0] != label:
            raise ValidationError(f"{path}:{lineno}: label {label!r} disagrees with earlier "
                                  f"label {entry[0]!r} for video {vid!r}")
        entry[1].add(fidx)
        if (error := _caption_error(vid, fidx, text)) is not None:
            raise ValidationError(f"{path}:{lineno}: {error}")
        if video_id is None or vid == video_id:
            entry[2].append(Caption(vid, fidx, text))
    return videos


def _candidate_lines(data: bytes, video_id: str) -> list[str]:
    """The lines of ``data`` that can hold a record of ``video_id``.

    A record names its video either by writing the id literally between
    quotes, which is ``json.dumps(video_id, ensure_ascii=False)``, or with
    an escape, so these are the lines holding that text or a backslash.
    Raises UnicodeError for an id that is not UTF-8 (a lone surrogate) and
    for a candidate line that is not.
    """
    quoted = json.dumps(video_id, ensure_ascii=False).encode("utf-8")
    if b"\r" in data:  # universal newlines, as the text-mode load reads them
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    spans = {}
    for needle in (quoted, b"\\"):
        at = data.find(needle)
        while at != -1:
            start = data.rfind(b"\n", 0, at) + 1
            end = data.find(b"\n", at) + 1 or len(data)
            spans[start] = end
            at = data.find(needle, end)
    return [data[start:end].decode("utf-8") for start, end in sorted(spans.items())]


def load_captions(path: str | Path, source_tag: str | None = None, *,
                  video_id: str | None = None, data: bytes | None = None,
                  checked: bool = False) -> CaptionCorpus:
    """Load a JSONL caption file into a validated corpus.

    The file is read line by line through a text-mode handle, so line
    endings are universal newlines and only the current line is held.  Each
    line goes to the C scanner under ``json.loads``; its value is taken when
    only JSON whitespace follows it, and any other non-blank line is passed
    to ``json.loads`` itself.  A record whose four fields have exactly the
    expected JSON types passes; any other goes through the field-by-field
    check for its message.  So every line is decoded and checked as
    ``json.loads`` and ``isinstance`` would, with the same messages.

    Raises ValidationError naming the offending line for bytes that are not
    UTF-8, malformed JSON, missing/bad fields, duplicate (video_id,
    frame_index) pairs, label disagreement within a video, or an empty file.

    With ``video_id``, the corpus keeps that video only (or none, if the
    file lacks it).  Every line is still decoded and checked, the ``Caption``
    rule included, but no ``Caption`` is built for the other videos' lines;
    only their labels and frame indices are kept, for the duplicate and
    label checks.

    ``data`` is the file's bytes, already read by the caller; the same text
    stream then runs over them.  ``checked`` (with ``video_id`` and
    ``data``) says these exact bytes have passed a full load under
    ``CHECKED_MARKERS``: only the lines that can hold a record of the video
    are decoded and checked.  Should one of them fail, every line is
    checked as above, so the result and any error are a full load's.
    """
    path = _existing(path)
    videos = None
    if checked:
        try:
            videos = _check_lines(_candidate_lines(data, video_id), path, video_id)
        except (UnicodeError, ValidationError):
            videos = None
    if videos is None:
        try:
            with (path.open("r", encoding="utf-8") if data is None
                  else io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")) as fh:
                videos = _check_lines(fh, path, video_id)
        except UnicodeDecodeError as e:
            raise ValidationError(_utf8_error(path, path.read_bytes() if data is None else data)) from e
        # Every non-blank line either raised or added a frame to its video.
        if not videos:
            raise ValidationError(f"caption file is empty: {path}")

    return CaptionCorpus(
        videos=tuple(
            VideoRecord(video_id=vid, label=label,
                        captions=tuple(sorted(caps, key=lambda c: c.frame_index)))
            for vid, (label, _, caps) in videos.items() if caps
        ),
        source_tag=source_tag if source_tag is not None else str(path),
    )


def save_captions(corpus: CaptionCorpus, path: str | Path) -> None:
    """Write a corpus back to JSONL (one caption per line, videos in order)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for v in corpus.videos:
            for c in v.captions:
                fh.write(json.dumps(
                    {"video_id": c.video_id, "frame_index": c.frame_index,
                     "label": v.label, "text": c.text},
                    ensure_ascii=False) + "\n")


def group_by_class(corpus: CaptionCorpus) -> tuple[CaptionCorpus, CaptionCorpus]:
    """Partition a corpus into (normal, abnormal) sub-corpora, preserving order."""
    normal = tuple(v for v in corpus.videos if v.label == "normal")
    abnormal = tuple(v for v in corpus.videos if v.label == "abnormal")
    return (
        CaptionCorpus(videos=normal, source_tag=corpus.source_tag),
        CaptionCorpus(videos=abnormal, source_tag=corpus.source_tag),
    )


def sample_evenly(video: VideoRecord, k: int) -> tuple[Caption, ...]:
    """Select up to ``k`` evenly spaced captions from a video, by rank.

    With N available captions and N > k >= 2, positions are
    floor(i * (N - 1) / (k - 1)) for i = 0..k-1, so the first and last
    captions are always included.  With N <= k all captions are returned;
    k == 1 selects the first caption.  Deterministic and idempotent.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    caps = video.captions
    n = len(caps)
    if n == 0:
        raise ValidationError(f"video {video.video_id!r} has no captions")
    if n <= k:
        return tuple(caps)
    if k == 1:
        return (caps[0],)
    positions = [(i * (n - 1)) // (k - 1) for i in range(k)]
    return tuple(caps[p] for p in positions)


def sentence_split(text: str) -> list[str]:
    """Split text into sentences at '.', '!', '?' followed by whitespace or end.

    Abbreviation-blind by design: captions are machine-generated and uniform,
    so no special-casing of "Mr." and friends.  Never returns empty or
    whitespace-only sentences; joining the result with single spaces
    reproduces the input modulo whitespace.
    """
    # Collapsing whitespace leaves the split points where they were and only
    # single spaces between words, so a split point is exactly ". ", "! " or
    # "? "; no part can start or end with whitespace or be empty.
    collapsed = " ".join(text.split())
    if not collapsed:
        return []
    return (collapsed.replace(". ", ".\n").replace("! ", "!\n")
            .replace("? ", "?\n").split("\n"))
