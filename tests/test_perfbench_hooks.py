"""The traced benchmark run wraps program functions by name; every name must exist."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import tbvad.cli as cli
from tbvad.classifier import save_model
from tbvad.corpus import save_captions
from tbvad.evaluation import make_pipeline_config, run_pipeline
from tbvad.knowledge import save_knowledge
from tbvad.synthetic import SyntheticConfig, generate_corpus

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_call_site_resolves():
    spans = load_spans()
    missing = [(owner, attr) for owner, attr, _, _ in spans.PATCHES
               if not hasattr(spans._resolve(owner), attr)]
    assert not missing


def test_traced_train_eval_and_explain_close_every_span_and_count_encoder_flops(
        tmp_path, monkeypatch, capsys):
    # A train-desk round in small: run_pipeline, then eval and explain through the CLI.
    monkeypatch.chdir(tmp_path)  # the CLI's run log
    train, _ = generate_corpus(SyntheticConfig(n_videos=20, seed=1, source_tag="t"))
    heldout, _ = generate_corpus(SyntheticConfig(n_videos=6, seed=2, source_tag="h"))
    heldout_path, kb_path, model_path = tmp_path / "h.jsonl", tmp_path / "kb.json", tmp_path / "m.tbvm"
    save_captions(heldout, heldout_path)
    dims = dict(k_frames=4, num_layers=1, num_heads=2, d_latent=8, ff_multiple=2)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 3, "k_frames": dims["k_frames"], "embedder": {"d": 16},
        "encoder": {k: v for k, v in dims.items() if k != "k_frames"},
    }), encoding="utf-8")
    common = ["--config", str(config), "--captions", str(heldout_path),
              "--knowledge", str(kb_path), "--model", str(model_path)]

    spans = load_spans()
    recorder = spans.SpanRecorder()
    with spans.Instrumentation(recorder):
        kb, model = run_pipeline(train, make_pipeline_config(d=16, seed=3, epochs=2, batch_size=8,
                                                             **dims))
        save_knowledge(kb, kb_path)
        save_model(model, model_path)
        assert cli.main(["eval", *common]) == 0
        assert cli.main(["explain", *common, "--video-id", heldout.videos[0].video_id,
                         "--counterfactual"]) == 0
    capsys.readouterr()

    assert all(span[2] is not None for span in recorder.spans)
    names = {span[0] for span in recorder.spans}
    assert {"classifier.train", "cli.main", "classifier.load_model",
            "reasoning.counterfactual"} <= names
    for name in ("encoder.forward", "encoder.backward"):
        counted = [span[6] for span in recorder.spans if span[0] == name]
        assert counted and all(counts["flops"] > 0 for counts in counted), name
    metrics = spans.layer_metrics(spans.per_cycle(spans.span_totals(recorder.spans), 1))
    assert metrics["encoder.gflops_per_s"] > 0
