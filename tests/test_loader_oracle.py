"""The caption loader against its per-line ``json.loads`` reference.

``reference_loader.load_captions`` is the loader as it was before it decoded
lines with the JSON module's C scanner.  On every generated file both must
return equal corpora, or raise the same exception type with the same
message; a load of one video must keep that video of the reference's corpus,
or raise the same.  The files mix clean records with the inputs where a
scanner path could part ways with ``json.loads``: line endings, blank and
padded lines, a BOM, Unicode line breaks inside a text, odd ``frame_index``
values, duplicate keys, trailing data, non-object records and bytes that are
not UTF-8.
"""

from __future__ import annotations

import json
import tempfile
import tracemalloc
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from tbvad.cli import load_hashed_captions
from tbvad.corpus import CaptionCorpus, load_captions, save_captions
from tbvad.synthetic import SyntheticConfig, generate_corpus

import reference_loader

# One label per video, so clean records agree; a few ids make duplicates likely.
VIDEO_LABELS = {"v1": "normal", "v2": "abnormal", "v3": "normal"}
# Text pieces as JSON string source: \x0b, \x0c, \x85 and \u2028 both escaped and raw
# (a raw \x0b or \x0c is an invalid control character in a JSON string).
TEXT_PIECES = ["A man runs.", " ", "café", "\\u000b", "\\f", "\x85", "\u2028", "\\u2028",
               "\\u0085", "\x0b", "\x0c", "\\n", "\t", "\\\""]
ODD_FRAME_INDEX = ["NaN", "-Infinity", "true", "false", "1.5", "1e2", "-3", "-0",
                   "18446744073709551616", '"2"', "null", "[1]"]
ODD_VALUES = ["null", "7", '"x"', '"weird"', "true", "{}", '""']
BLANK = ["", " ", "\t", " \t ", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\xa0"]
PADDING = ["", " ", "\t", "\x0c", "\xa0", "\u2028", "\ufeff"]
NON_OBJECTS = ["[]", '["v1", 0]', '"text"', "1", "null", "true", "-2.5"]
RARELY = st.sampled_from([False] * 7 + [True])
MALFORMED = ["{", '{"video_id": ', '{"video_id" "v1"}', "{'a': 1}", "nul", "}", '{"a": 1,}']
# Ids a one-video load asks for: the generated ones, one that no file holds, and
# two that JSON must escape.
ASKED_IDS = [*VIDEO_LABELS, "v9", 'v"1', "v\\1"]


@st.composite
def record(draw, odd: bool) -> str:
    """One caption object as JSON source; ``odd`` damages one field or key."""
    vid = draw(st.sampled_from(sorted(VIDEO_LABELS)))
    pieces = draw(st.lists(st.sampled_from(TEXT_PIECES), max_size=3))
    if not odd:  # a word first, and no raw control character
        pieces = ["A man runs.", *(p for p in pieces if p.isprintable() or p in "\x85\u2028")]
    text = "".join(pieces)
    fields = {"video_id": json.dumps(vid), "frame_index": str(draw(st.integers(0, 40))),
              "label": json.dumps(VIDEO_LABELS[vid]), "text": f'"{text}"'}
    items = list(fields.items())
    if odd:
        key = draw(st.sampled_from(sorted(fields)))
        change = draw(st.sampled_from(["value", "drop", "duplicate", "other-label"]))
        if change == "value":
            pool = ODD_FRAME_INDEX if key == "frame_index" else ODD_VALUES
            items = [(k, draw(st.sampled_from(pool)) if k == key else v) for k, v in items]
        elif change == "drop":
            items = [(k, v) for k, v in items if k != key]
        elif change == "duplicate":
            items.append((key, draw(st.sampled_from(ODD_VALUES + ODD_FRAME_INDEX + [fields[key]]))))
        else:
            flipped = "abnormal" if VIDEO_LABELS[vid] == "normal" else "normal"
            items = [(k, json.dumps(flipped) if k == "label" else v) for k, v in items]
    return "{" + ", ".join(f'"{k}": {v}' for k, v in items) + "}"


@st.composite
def special_line(draw) -> str:
    """A line that is not a plain record: damaged, padded, blank or not a caption."""
    kind = draw(st.sampled_from(["odd", "padded", "blank", "non-object", "trailing", "malformed"]))
    if kind == "odd":
        return draw(record(odd=True))
    if kind == "padded":
        return draw(st.sampled_from(PADDING)) + draw(record(odd=False)) + draw(st.sampled_from(PADDING))
    if kind == "blank":
        return draw(st.sampled_from(BLANK))
    if kind == "non-object":
        return draw(st.sampled_from(NON_OBJECTS))
    if kind == "trailing":
        first = draw(record(odd=False))
        return first + draw(st.sampled_from(["x", "}", " x", ",", " " + first, first, " {}"]))
    return draw(st.sampled_from(MALFORMED))


@st.composite
def caption_file(draw) -> bytes:
    """Plain records with up to two special lines among them, each line with its
    own line ending, and now and then a BOM or a byte that is not UTF-8."""
    lines = draw(st.lists(record(odd=False), max_size=6))
    for special in draw(st.lists(special_line(), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), special)
    endings = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if lines and draw(st.booleans()):
        endings[-1] = ""  # no newline after the last line
    text = "".join(a + b for a, b in zip(lines, endings))
    if draw(RARELY):
        text = "\ufeff" + text
    data = text.encode("utf-8")
    if data and draw(RARELY):
        pos = draw(st.integers(0, len(data)))
        data = data[:pos] + draw(st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"])) + data[pos:]
    return data


def outcome(load, path):
    """The corpus a loader returns, or the type and message of what it raises."""
    try:
        return load(path)
    except Exception as e:  # noqa: BLE001 - any difference, of any type, must show
        return type(e), str(e)


CLEAN = (b'{"video_id": "v1", "frame_index": 0, "label": "normal", "text": "A man runs."}\n'
         b'{"video_id": "v2", "frame_index": 3, "label": "abnormal", "text": "A fight."}\n')


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=caption_file())
@example(data=CLEAN)
@example(data=CLEAN.replace(b"\n", b"\r\n"))
@example(data=CLEAN.replace(b"\n", b"\r").rstrip(b"\r"))
@example(data=b"\xef\xbb\xbf" + CLEAN)
@example(data=CLEAN.replace(b"A man", "A\u2028man\x85".encode()))
@example(data=CLEAN.replace(b"A man", b"A\x0bman"))
@example(data=CLEAN.replace(b'"frame_index": 0', b'"frame_index": NaN'))
@example(data=CLEAN.replace(b'"frame_index": 0', b'"frame_index": 18446744073709551616'))
@example(data=CLEAN.replace(b'"frame_index": 0', b'"frame_index": 0, "frame_index": true'))
@example(data=CLEAN.replace(b"}\n", b"} {}\n", 1))
@example(data=b"  \t\n\x0c\n" + CLEAN + b" \r\n")
@example(data=b"\xff\n{oops\n" + CLEAN)  # stray byte before a malformed line
@example(data=b"{oops\n" + CLEAN + b"\xff\n")  # ... and after one
@example(data=CLEAN.replace(b'"v1"', b'"\\u00761"'))  # an id written with an escape
@example(data=CLEAN.replace(b"\n", b"\r"))  # \r-only line endings
@example(data=CLEAN.replace(b'"v1"', b'"v\\"1"').replace(b'"v2"', b'"v\\\\1"'))
@example(data=CLEAN + CLEAN.replace(b'"v1"', b'"v\\"1"').replace(b'"v2"', b'"v\\\\1"'))
def test_loader_matches_reference(tmp_path, data):
    path = tmp_path / "caps.jsonl"
    path.write_bytes(data)
    expected = outcome(reference_loader.load_captions, path)
    assert outcome(load_captions, path) == expected
    # A one-video load keeps that video of the full result, or raises the same error.
    # So does explain's loader, cold and then warm, through a fresh cache directory;
    # the cold load leaves a marker exactly when it succeeds.
    for vid in ASKED_IDS:
        if isinstance(expected, CaptionCorpus):
            want = CaptionCorpus(videos=tuple(v for v in expected.videos if v.video_id == vid),
                                 source_tag=expected.source_tag)
        else:
            want = expected
        assert outcome(lambda p: load_captions(p, video_id=vid), path) == want
        with tempfile.TemporaryDirectory() as cache:
            for _ in ("cold", "warm"):
                loaded = outcome(lambda p: load_hashed_captions(p, cache, video_id=vid)[0], path)
                assert loaded == want
                markers = list(Path(cache).glob("captions-v1/*"))
                assert len(markers) == isinstance(want, CaptionCorpus)


def test_loader_streams_the_file(tmp_path):
    """Beyond the corpus it returns, a load holds less than the file's size.

    Reading the whole file holds it as bytes and as a str at once, which
    this bound rejects; reading line by line holds one line at a time.
    """
    corpus, _ = generate_corpus(SyntheticConfig(n_videos=300, seed=3, source_tag="stream"))
    path = tmp_path / "caps.jsonl"
    save_captions(corpus, path)
    assert sum(len(v.captions) for v in corpus.videos) >= 3000
    tracemalloc.start()
    try:
        loaded = load_captions(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded == CaptionCorpus(videos=corpus.videos, source_tag=str(path))
    assert peak - retained < path.stat().st_size
