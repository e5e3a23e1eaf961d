from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from tbvad.corpus import (
    Caption,
    CaptionCorpus,
    VideoRecord,
    group_by_class,
    load_captions,
    sample_evenly,
    save_captions,
    sentence_split,
)
from tbvad.errors import ValidationError
from tbvad.synthetic import SyntheticConfig, generate_corpus

import reference_summarizer
from conftest import make_video


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def caption_rec(video_id, frame_index, label="normal", text="A person stands still."):
    return {"video_id": video_id, "frame_index": frame_index, "label": label, "text": text}


class TestLoadCaptions:
    def test_identity_ingestion(self, tmp_path):
        records = [caption_rec(f"v{v}", i, text=f"Frame {i} of video {v}.")
                   for v in range(2) for i in range(3)]
        path = tmp_path / "caps.jsonl"
        write_jsonl(path, records)
        corpus = load_captions(path)
        assert len(corpus) == 2
        assert all(len(v.captions) == 3 for v in corpus.videos)
        assert [c.frame_index for c in corpus.videos[0].captions] == [0, 1, 2]

    def test_missing_label_field_names_line(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        bad = {"video_id": "v1", "frame_index": 0, "text": "x."}
        write_jsonl(path, [caption_rec("v0", 0), bad])
        with pytest.raises(ValidationError, match=r":2.*label"):
            load_captions(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        path.write_text(json.dumps(caption_rec("v0", 0)) + "\n{oops\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=r":2"):
            load_captions(path)

    def test_duplicate_frame_index_rejected(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        write_jsonl(path, [caption_rec("v1", 5), caption_rec("v1", 5)])
        with pytest.raises(ValidationError, match="duplicate"):
            load_captions(path)

    def test_label_disagreement_rejected(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        write_jsonl(path, [caption_rec("v1", 0, label="normal"),
                           caption_rec("v1", 1, label="abnormal")])
        with pytest.raises(ValidationError, match="disagrees"):
            load_captions(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValidationError, match="empty"):
            load_captions(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="exist"):
            load_captions(tmp_path / "nope.jsonl")

    def test_captions_sorted_by_frame_index(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        write_jsonl(path, [caption_rec("v1", 9), caption_rec("v1", 2), caption_rec("v1", 5)])
        corpus = load_captions(path)
        assert [c.frame_index for c in corpus.videos[0].captions] == [2, 5, 9]

    def test_manifest_counts_on_generated_fixture(self, tmp_path):
        # 100-video fixture: counts must match the generator's manifest.
        rng_counts = {f"v{idx:03d}": (idx % 7) + 1 for idx in range(100)}
        records = []
        for vid, count in rng_counts.items():
            label = "abnormal" if int(vid[1:]) % 3 == 0 else "normal"
            for i in range(count):
                records.append(caption_rec(vid, i, label=label, text=f"Caption {i} for {vid}."))
        path = tmp_path / "caps.jsonl"
        write_jsonl(path, records)
        corpus = load_captions(path)
        assert len(corpus) == 100
        assert {v.video_id: len(v.captions) for v in corpus.videos} == rng_counts

    def test_one_video_load_keeps_that_video_and_every_check(self, tmp_path):
        records = [caption_rec(f"v{v}", i, label=("normal", "abnormal")[v % 2],
                               text=f"Frame {i} of video {v}.")
                   for i in (3, 0, 2) for v in range(4)]
        path = tmp_path / "caps.jsonl"
        write_jsonl(path, records)
        full = load_captions(path)
        one = load_captions(path, video_id="v1")
        assert one.videos == (full.video("v1"),) and one.source_tag == full.source_tag
        assert load_captions(path, video_id="v9").videos == ()
        # A bad line of another video still fails the load, with its message.
        for bad, message in ((caption_rec("v2", 0), r":13: duplicate"),
                             (caption_rec("v2", 7, text=" "), r":13: .*empty text"),
                             (caption_rec("v2", -1), r":13: .*negative frame_index"),
                             (caption_rec("v3", 7, label="normal"), r":13: .*disagrees")):
            write_jsonl(path, records + [bad])
            with pytest.raises(ValidationError, match=message):
                load_captions(path, video_id="v1")

    def test_one_video_load_builds_only_that_videos_captions(self, tmp_path, monkeypatch):
        corpus, _ = generate_corpus(SyntheticConfig(n_videos=300, seed=5, source_tag="count"))
        path = tmp_path / "caps.jsonl"
        save_captions(corpus, path)
        built = []

        class CountingCaption(Caption):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr("tbvad.corpus.Caption", CountingCaption)
        target = corpus.videos[150]
        one = load_captions(path, video_id=target.video_id)
        assert [v.video_id for v in one.videos] == [target.video_id]
        assert len(built) == len(target.captions) == len(one.videos[0].captions)

    def test_round_trip_through_save(self, tmp_path, small_corpus):
        path = tmp_path / "rt.jsonl"
        save_captions(small_corpus, path)
        loaded = load_captions(path)
        assert [v.video_id for v in loaded.videos] == [v.video_id for v in small_corpus.videos]
        assert loaded.videos[1].captions == small_corpus.videos[1].captions


class TestGroupByClass:
    def test_two_video_partition(self, small_corpus):
        d_n, d_a = group_by_class(small_corpus)
        assert [v.video_id for v in d_n.videos] == ["v1"]
        assert [v.video_id for v in d_a.videos] == ["v2"]

    def test_all_normal(self):
        corpus = CaptionCorpus(videos=(make_video("a", "normal", ["One."]),
                                       make_video("b", "normal", ["Two."])))
        d_n, d_a = group_by_class(corpus)
        assert len(d_a) == 0
        assert [v.video_id for v in d_n.videos] == ["a", "b"]

    def test_sixty_forty_split_counts(self):
        videos = tuple(
            make_video(f"v{i}", "normal" if i < 60 else "abnormal", [f"Text {i}."])
            for i in range(100)
        )
        d_n, d_a = group_by_class(CaptionCorpus(videos=videos))
        assert (len(d_n), len(d_a)) == (60, 40)

    def test_partition_is_lossless_and_order_preserving(self):
        videos = tuple(
            make_video(f"v{i}", "abnormal" if i % 2 else "normal", [f"T {i}."]) for i in range(9)
        )
        d_n, d_a = group_by_class(CaptionCorpus(videos=videos))
        assert len(d_n) + len(d_a) == 9
        assert all(v.label == "normal" for v in d_n.videos)
        assert all(v.label == "abnormal" for v in d_a.videos)
        ids = [v.video_id for v in d_n.videos]
        assert ids == sorted(ids, key=lambda s: int(s[1:]))


class TestSampleEvenly:
    def test_all_when_k_equals_n(self):
        video = make_video("v", "normal", [f"Frame {i}." for i in range(10)])
        assert sample_evenly(video, 10) == video.captions

    def test_endpoints_n5_k2(self):
        video = make_video("v", "normal", [f"Frame {i}." for i in range(5)])
        picked = sample_evenly(video, 2)
        assert [c.frame_index for c in picked] == [0, 4]

    def test_derived_positions_n9_k4(self):
        # floor(i * 8 / 3) for i = 0..3 -> 0, 2, 5, 8
        video = make_video("v", "normal", [f"Frame {i}." for i in range(9)])
        picked = sample_evenly(video, 4)
        assert [c.frame_index for c in picked] == [0, 2, 5, 8]

    def test_k_one_takes_first(self):
        video = make_video("v", "normal", [f"Frame {i}." for i in range(4)])
        assert [c.frame_index for c in sample_evenly(video, 1)] == [0]

    def test_empty_video_rejected(self):
        video = VideoRecord(video_id="v", label="normal", captions=())
        with pytest.raises(ValidationError, match="no captions"):
            sample_evenly(video, 3)

    def test_bad_k_rejected(self):
        video = make_video("v", "normal", ["One."])
        with pytest.raises(ValidationError):
            sample_evenly(video, 0)

    @given(n=st.integers(1, 40), k=st.integers(1, 40))
    def test_idempotent_and_endpoint_inclusive(self, n, k):
        video = make_video("v", "normal", [f"Frame {i}." for i in range(n)])
        picked = sample_evenly(video, k)
        assert len(picked) == min(k, n)
        indices = [c.frame_index for c in picked]
        assert indices == sorted(set(indices))
        if k >= 2:
            assert indices[0] == 0 and indices[-1] == n - 1
        # Idempotence: re-sampling the sampled set with the same k is identity.
        resampled = sample_evenly(
            VideoRecord(video_id="v", label="normal", captions=picked), k
        )
        assert resampled == picked


class TestSentenceSplit:
    def test_two_sentences(self):
        assert sentence_split("A man runs. He falls.") == ["A man runs.", "He falls."]

    def test_no_terminator(self):
        assert sentence_split("No terminator") == ["No terminator"]

    def test_mixed_terminators(self):
        assert sentence_split("Fire! Smoke? Panic.") == ["Fire!", "Smoke?", "Panic."]

    def test_empty_input(self):
        assert sentence_split("") == []
        assert sentence_split("   \n ") == []

    def test_no_split_without_whitespace(self):
        assert sentence_split("v1.2 is fine") == ["v1.2 is fine"]

    @given(st.text(alphabet=st.one_of(st.sampled_from(" \t\n\r\x0b\x1c\xa0\u2028.!?ab"),
                                      st.characters()), max_size=60))
    def test_matches_per_part_reference(self, text):
        assert sentence_split(text) == reference_summarizer.sentence_split(text)

    @given(st.text(max_size=200))
    def test_never_empty_and_reconstructs(self, text):
        parts = sentence_split(text)
        assert all(p.strip() for p in parts)
        joined = " ".join(parts)
        import re
        assert re.sub(r"\s+", " ", joined).strip() == re.sub(r"\s+", " ", text).strip()
        n_terminators = sum(text.count(ch) for ch in ".!?")
        assert len(parts) <= n_terminators + 1
