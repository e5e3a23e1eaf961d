"""Loaders reject damaged files with a TbvadError, never another exception.

Each test starts from a valid file, then truncates it or replaces, inserts or
deletes one byte, and loads the result: the load may succeed or raise a
``TbvadError``, and anything else escaping fails the test.  ``load_model``
reads no more tensor blocks than the damaged file holds, so no case
allocates more than a few MB.  A damaged embedding-cache pack must yield
each stored vector or nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tbvad.classifier import (
    ModelConfig,
    init_model_params,
    load_model,
    model_digest,
    serialize_model,
)
from tbvad.cli import _load_combos, resolve_config
from tbvad.corpus import CaptionCorpus, load_captions
from tbvad.embedding import EmbedderConfig
from tbvad.errors import ModelFormatError, TbvadError, ValidationError
from tbvad.knowledge import build_knowledge, default_prompts, load_knowledge
from tbvad.remote import VectorCache

from conftest import make_video

# Bytes that often turn a valid file into an interesting invalid one.
BYTES = st.one_of(st.binary(min_size=1, max_size=1),
                  st.sampled_from([b"\xff", b"\x80", b"\xc3", b"0", b"9", b"-", b'"', b"{",
                                   b"]", b",", b"\n", b" "]))


@st.composite
def damaged(draw, data: bytes) -> bytes:
    """``data`` truncated, or with one byte replaced, inserted or deleted."""
    kind = draw(st.sampled_from(("truncate", "replace", "insert", "delete")))
    pos = draw(st.integers(0, len(data) - 1))
    if kind == "truncate":
        return data[:pos]
    if kind == "delete":
        return data[:pos] + data[pos + 1:]
    byte = draw(BYTES)
    return data[:pos] + byte + data[pos + (kind == "replace"):]


CAPTIONS = "".join(
    json.dumps({"video_id": vid, "frame_index": i, "label": label, "text": text},
               ensure_ascii=False) + "\n"
    for vid, label, texts in (("v1", "normal", ["A man walks by the café.", "He waves."]),
                              ("v2", "abnormal", ["A knife is visible!", "Two men fight."]))
    for i, text in enumerate(texts)
).encode("utf-8")


def _knowledge_file() -> bytes:
    d_n = CaptionCorpus(videos=(make_video("n0", "normal", ["People walk past the store."]),))
    d_a = CaptionCorpus(videos=(make_video("a0", "abnormal", ["A man swings a bat."]),))
    kb = build_knowledge(d_n, d_a, default_prompts(),
                         EmbedderConfig(backend="hash", d=8, seed=3),
                         active_aspects=("object", "environment"))
    return (kb.to_json() + "\n").encode("utf-8")


MODEL = serialize_model(init_model_params(ModelConfig(
    d_model=8, num_layers=1, num_heads=2, d_ff=9, d_latent=4, knowledge_dim=8,
    k_frames=3, seed=1, active_aspects=("object", "environment"))))


def _legacy_model(raw: bytes) -> bytes:
    """``raw`` with the ``"mil_top_k": null`` header key that earlier versions wrote."""
    (header_len,) = struct.unpack_from("<Q", raw, 4)
    header = json.loads(raw[12:12 + header_len])
    header["config"]["mil_top_k"] = None
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return raw[:4] + struct.pack("<Q", len(header_bytes)) + header_bytes + raw[12 + header_len:]


CONFIG = json.dumps({
    "seed": 5, "k_frames": 6, "aspects": ["object", "action"],
    "embedder": {"d": 32},
    "train": {"learning_rate": 0.25, "epochs": 8, "batch_size": 8},
}).encode("utf-8")

LOADERS = {
    "captions": (CAPTIONS, load_captions),
    "knowledge": (_knowledge_file(), load_knowledge),
    "model": (MODEL, load_model),
    "legacy-model": (_legacy_model(MODEL), load_model),
    "config": (CONFIG, lambda path: resolve_config(argparse.Namespace(config=str(path)))),
    "combos": (b'[["object"], ["context", "environment"]]', lambda path: _load_combos(str(path))),
}


@pytest.mark.parametrize("name", LOADERS)
def test_undamaged_file_loads(tmp_path, name):
    data, load = LOADERS[name]
    path = tmp_path / name
    path.write_bytes(data)
    loaded = load(path)
    if name == "model":
        # tbvad explain records the file's digest as the model's.
        assert hashlib.sha256(data).hexdigest() == model_digest(loaded)


@pytest.mark.parametrize("name", LOADERS)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edit=st.data())
def test_damaged_file_loads_or_raises_tbvad_error(tmp_path, name, edit):
    data, load = LOADERS[name]
    path = tmp_path / name
    path.write_bytes(edit.draw(damaged(data)))
    try:
        load(path)
    except TbvadError:
        pass


# 100,000 nested arrays: past the JSON decoder's recursion limit.
DEEP = b"[" * 100_000 + b"]" * 100_000


def _deeply_nested(name: str, data: bytes) -> bytes:
    """A file of loader ``name`` whose JSON is ``DEEP``; a model keeps its tensor blocks."""
    if "model" not in name:
        return DEEP + b"\n"
    (header_len,) = struct.unpack_from("<Q", data, 4)
    return data[:4] + struct.pack("<Q", len(DEEP)) + DEEP + data[12 + header_len:]


@pytest.mark.parametrize("name", LOADERS)
def test_deeply_nested_json_raises_tbvad_error(tmp_path, name):
    data, load = LOADERS[name]
    path = tmp_path / name
    path.write_bytes(_deeply_nested(name, data))
    with pytest.raises(ModelFormatError if "model" in name else ValidationError) as info:
        load(path)
    if name == "captions":
        assert str(info.value).startswith(f"{path}:1: ")


PACK_ITEMS = [(VectorCache.key("http://stub", 4, word), np.arange(4, dtype=np.float32) + i)
              for i, word in enumerate(("man", "walks", "knife"))]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edit=st.data())
def test_damaged_pack_yields_stored_vector_or_none(tmp_path, edit):
    cache_dir = tmp_path / "embed"
    VectorCache(cache_dir).put(PACK_ITEMS)  # rewrites the same pack name every example
    (path,) = cache_dir.iterdir()
    path.write_bytes(edit.draw(damaged(path.read_bytes())))
    cache = VectorCache(cache_dir)
    for key, vec in PACK_ITEMS:
        got = cache.get(key)
        assert got is None or np.array_equal(got, vec)
