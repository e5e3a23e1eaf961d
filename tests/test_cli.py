from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from contextlib import ExitStack
from pathlib import Path

import numpy as np
import pytest

import tbvad.corpus
from tbvad.classifier import load_model, predict_video, save_model
from tbvad.cli import (
    CONFIG_SCHEMA,
    DEFAULT_CONFIG,
    _deep_merge,
    _embedder_config,
    _load_kb,
    _prompts,
    _validate_config,
    main,
    resolve_config,
)
from tbvad.corpus import Caption, load_captions, save_captions
from tbvad.knowledge import CLASSES, AspectPrompt, default_prompts, load_knowledge
from tbvad.reasoning import slot_attention, slot_importance
from tbvad.remote import VectorCache
from tbvad.synthetic import SyntheticConfig, generate_corpus

from stubs import StubService, float32_vector

try:
    import fcntl
except ImportError:
    fcntl = None

SRC = Path(__file__).resolve().parents[1] / "src"
needs_flock = pytest.mark.skipif(fcntl is None, reason="the output lock is a flock only with fcntl")


@pytest.fixture(autouse=True)
def run_in_tmp_dir(tmp_path, monkeypatch):
    """Commands without --out write their run log to the cwd; keep that in tmp."""
    monkeypatch.chdir(tmp_path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env(hash_seed="0") -> dict:
    """The environment of a child interpreter that imports this checkout's tbvad."""
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=pythonpath, PYTHONHASHSEED=hash_seed)


def run_tbvad(*argv, cwd, hash_seed="0"):
    """Run the CLI in a fresh interpreter, as a user's shell would."""
    return subprocess.run([sys.executable, "-m", "tbvad.cli", *argv], cwd=cwd,
                          env=child_env(hash_seed), capture_output=True, text=True, timeout=120)


def start_child(code: str, *argv) -> subprocess.Popen:
    """A child interpreter running ``code`` over pipes; the code should end when its stdin closes.

    Used as a context manager, which closes stdin and waits for the child.
    """
    return subprocess.Popen([sys.executable, "-c", code, *argv], env=child_env(),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)


# Holds a flock on argv[1] until stdin closes.
HOLD_LOCK = """
import fcntl, sys
with open(sys.argv[1], "a") as lock:
    fcntl.flock(lock, fcntl.LOCK_EX)
    print("held", flush=True)
    sys.stdin.read()
"""

# Waits for a line on stdin, then tries the output lock of directory argv[1],
# holding it until stdin closes if it wins.
CONTEND = """
import sys
from pathlib import Path
from tbvad.cli import _output_lock
from tbvad.errors import TbvadError
print("ready", flush=True)
sys.stdin.readline()
try:
    with _output_lock(Path(sys.argv[1])):
        print("won", flush=True)
        sys.stdin.read()
except TbvadError:
    print("lost", flush=True)
"""


def dead_pid() -> int:
    with subprocess.Popen([sys.executable, "-c", "pass"]) as child:
        pass
    return child.pid


def cli_config(tmp_path, **overrides):
    """A fast desk-scale config for CLI round trips."""
    cfg = {
        "seed": 5,
        "k_frames": 6,
        "embedder": {"d": 32, "max_parallel": 2},
        "encoder": {"num_layers": 1, "num_heads": 2, "d_latent": 16, "ff_multiple": 2},
        "train": {"learning_rate": 0.25, "epochs": 8, "batch_size": 8, "l2_weight": 1e-4},
        "synthetic": {"n_videos": 24, "test_videos": 16, "frames_per_video": 8},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """gen-synth + build-knowledge + train once, shared by the read-only tests."""
    tmp_path = tmp_path_factory.mktemp("cliws")
    cfg = cli_config(tmp_path)
    data = tmp_path / "data"
    code = main(["gen-synth", "--config", cfg, "--out", str(data)])
    assert code == 0
    kb_path = tmp_path / "kb.json"
    code = main(["build-knowledge", "--config", cfg, "--captions", str(data / "train.jsonl"),
                 "--out", str(kb_path), "--extractive"])
    assert code == 0
    model_path = tmp_path / "model.tbvm"
    code = main(["train", "--config", cfg, "--captions", str(data / "train.jsonl"),
                 "--knowledge", str(kb_path), "--out", str(model_path)])
    assert code == 0
    return {"tmp": tmp_path, "cfg": cfg, "data": data, "kb": kb_path, "model": model_path}


class TestGenSynth:
    def test_writes_corpora_and_manifest(self, tmp_path, capsys):
        cfg = cli_config(tmp_path)
        code, out, _ = run_cli(capsys, "gen-synth", "--config", cfg, "--out", str(tmp_path / "d"))
        assert code == 0
        payload = json.loads(out)
        assert Path(payload["train"]).exists()
        assert Path(payload["test"]).exists()
        manifest = json.loads(Path(payload["manifest"]).read_text())
        assert len(manifest["videos"]) == 24

    def test_manifest_counts_match_jsonl(self, workspace):
        from tbvad.corpus import load_captions
        manifest = json.loads((workspace["data"] / "manifest.json").read_text())
        corpus = load_captions(workspace["data"] / "train.jsonl")
        counts = {v.video_id: len(v.captions) for v in corpus.videos}
        assert counts == {v["video_id"]: v["n_captions"] for v in manifest["videos"]}

    def test_missing_out_is_validation_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "gen-synth", "--config", cli_config(tmp_path))
        assert code == 1
        assert "--out" in err

    def test_run_log_lists_every_file_written(self, tmp_path, capsys):
        data = tmp_path / "d"
        assert main(["gen-synth", "--config", cli_config(tmp_path), "--out", str(data)]) == 0
        written = {str(path) for path in data.iterdir()
                   if path.name not in ("runs.log", ".tbvad.lock")}
        assert sorted(last_run_log(data)["outputs"]) == sorted(written)


class TestValidation:
    def test_train_missing_knowledge_names_flag(self, workspace, capsys):
        code, _, err = run_cli(capsys, "train",
                               "--captions", str(workspace["data"] / "train.jsonl"),
                               "--out", str(workspace["tmp"] / "m2.tbvm"))
        assert code == 1
        assert "--knowledge" in err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"not_a_key": 1}', encoding="utf-8")
        code, _, err = run_cli(capsys, "caption-stats", "--config", str(bad),
                               "--captions", "whatever.jsonl")
        assert code == 1
        assert "not_a_key" in err

    @pytest.mark.parametrize("key", ["train.mil_top_k", "embedder.backend", "embedder.endpoint",
                                     "train.freeze_importance_net", "embedder.max_tokens",
                                     "embedder.knowledge_max_tokens"])
    def test_removed_config_key_rejected(self, tmp_path, capsys, key):
        section, name = key.split(".")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({section: {name: 2}}), encoding="utf-8")
        code, _, err = run_cli(capsys, "caption-stats", "--config", str(bad),
                               "--captions", "whatever.jsonl")
        assert code == 1
        assert f"unknown config key {key!r}" in err

    def test_unknown_nested_key_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"train": {"warmup": 3}}', encoding="utf-8")
        code, _, err = run_cli(capsys, "caption-stats", "--config", str(bad),
                               "--captions", "whatever.jsonl")
        assert code == 1
        assert "train.warmup" in err

    @pytest.mark.parametrize("text, message", [('[{"seed": 1}]', "JSON object"),
                                               ('"seed"', "JSON object"), ("3", "JSON object"),
                                               ("\xff", "not valid JSON")])
    def test_config_that_is_not_an_object_rejected(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text.encode("latin-1"))
        code, _, err = run_cli(capsys, "caption-stats", "--config", str(bad),
                               "--captions", "whatever.jsonl")
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("text", ['[["object"]', "object, action", "\xff"])
    def test_combos_file_that_is_not_json_rejected(self, workspace, tmp_path, capsys, text):
        combos = tmp_path / "combos.json"
        combos.write_bytes(text.encode("latin-1"))
        code, _, err = run_cli(capsys, "ablate", "--config", workspace["cfg"],
                               "--captions", str(workspace["data"] / "train.jsonl"),
                               "--test-captions", str(workspace["data"] / "test.jsonl"),
                               "--combos", str(combos), "--out", str(tmp_path / "ab.csv"))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "not valid JSON" in err

    def test_missing_captions_file_is_validation_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "caption-stats", "--captions",
                               str(tmp_path / "nope.jsonl"))
        assert code == 1

    @pytest.mark.parametrize("command, flag, kind", [
        ("eval", "--knowledge", "missing"), ("eval", "--model", "missing"),
        ("eval", "--captions", "directory"), ("eval", "--knowledge", "directory"),
        ("eval", "--model", "directory"), ("eval", "--config", "directory"),
        ("ablate", "--combos", "directory"),
    ])
    def test_input_that_is_missing_or_not_a_file_is_one_error_line(self, workspace, tmp_path,
                                                                  capsys, command, flag, kind):
        data = workspace["data"]
        flags = {"--config": workspace["cfg"], "--captions": str(data / "test.jsonl")}
        if command == "eval":
            flags.update({"--knowledge": str(workspace["kb"]), "--model": str(workspace["model"])})
        else:
            flags.update({"--test-captions": str(data / "test.jsonl"), "--combos": "table3",
                          "--out": str(tmp_path / "ab.csv")})
        flags[flag] = str(tmp_path / "nope") if kind == "missing" else str(tmp_path)
        code, _, err = run_cli(capsys, command, *(a for item in flags.items() for a in item))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert ("caption file" if flag == "--captions" else flag) in err

    def test_captions_file_that_is_not_utf8_rejected(self, tmp_path, capsys):
        good = json.dumps({"video_id": "v", "frame_index": 0, "label": "normal", "text": "A cat."})
        bad = tmp_path / "utf16.jsonl"
        bad.write_bytes(good.encode("utf-8") + b"\n" + b"\xff\xfe" + good.encode("utf-16-le"))
        code, _, err = run_cli(capsys, "caption-stats", "--captions", str(bad))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"{bad}:2: not valid UTF-8" in err

    def test_unknown_subcommand_rejected(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 1

    @pytest.mark.parametrize("command, overrides", [
        ("train", {"encoder": {"num_heads": 0}}),
        ("train", {"encoder": {"ff_multiple": 0}}),
        ("train", {"encoder": {"d_latent": 0}}),
        ("caption-stats", {"aspects": [["x"]]}),
        ("gen-synth", {"synthetic": {"planted_aspects": [["x"]]}}),
        ("ablate", {}),  # with a combos file of [[["object"]]]
        ("gen-synth", {"synthetic": {"anomaly_frame_ratio": 5}}),
        ("gen-synth", {"seed": -1}),
        ("train", {"embedder": {"d": 32, "max_parallel": 0}}),
        ("train", {"embedder": {"d": 32, "max_parallel": -3}}),
        ("gen-synth", {"synthetic": {"normal_noise_rate": 5.0}}),
        ("gen-synth", {"synthetic": {"normal_noise_rate": -0.5}}),
    ])
    def test_out_of_range_value_is_one_error_line(self, workspace, tmp_path, capsys,
                                                  command, overrides):
        train_jsonl = str(workspace["data"] / "train.jsonl")
        combos = tmp_path / "combos.json"
        combos.write_text('[[["object"]]]', encoding="utf-8")
        flags = {
            "train": ["--captions", train_jsonl, "--knowledge", str(workspace["kb"]),
                      "--out", str(tmp_path / "m.tbvm")],
            "caption-stats": ["--captions", train_jsonl],
            "gen-synth": ["--out", str(tmp_path / "d")],
            "ablate": ["--captions", train_jsonl, "--test-captions", train_jsonl,
                       "--combos", str(combos), "--out", str(tmp_path / "ab.csv")],
        }[command]
        code, _, err = run_cli(capsys, command, "--config", cli_config(tmp_path, **overrides),
                               *flags)
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--embed-endpoint", "--gen-endpoint"])
    def test_service_reply_that_is_not_a_json_object_is_one_error_line(self, workspace, tmp_path,
                                                                       capsys, monkeypatch, flag):
        monkeypatch.setattr("tbvad.remote.BACKOFF_S", 0.0)
        monkeypatch.delenv("TBVAD_CACHE_DIR", raising=False)
        with StubService(body=b"[1, 2]") as svc:
            code, _, err = run_cli(capsys, "build-knowledge", "--config", workspace["cfg"],
                                   "--captions", str(workspace["data"] / "train.jsonl"),
                                   "--out", str(tmp_path / "kb.json"), flag, svc.endpoint)
            assert svc.request_count == 3
        assert code == 2
        (line,) = err.splitlines()
        assert line.startswith("runtime error:") and "JSON list, not an object" in line

    def test_prompts_not_in_the_config_keep_the_shipped_template(self, tmp_path):
        args = argparse.Namespace(config=cli_config(tmp_path, prompts={"object": "O: {captions}"}))
        prompts = _prompts(resolve_config(args))
        assert prompts == {**default_prompts(),
                           "object": AspectPrompt(aspect="object", template="O: {captions}")}

    def test_readme_config_block_matches_schema(self):
        readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("The recognized keys with their defaults:")[1]
        documented = json.loads(block.split("```json")[1].split("```")[0])

        def key_tree(cfg):
            return {k: key_tree(v) if isinstance(v, dict) else None for k, v in cfg.items()}

        assert key_tree(documented) == key_tree(CONFIG_SCHEMA)
        _validate_config(documented, CONFIG_SCHEMA)
        assert _deep_merge(documented, DEFAULT_CONFIG) == documented  # same defaults


class TestEvalExplain:
    def test_eval_emits_json_report(self, workspace, capsys):
        code, out, err = run_cli(capsys, "eval", "--config", workspace["cfg"],
                                 "--captions", str(workspace["data"] / "test.jsonl"),
                                 "--knowledge", str(workspace["kb"]),
                                 "--model", str(workspace["model"]))
        assert code == 0
        report = json.loads(out)
        assert 0.0 <= report["auc"] <= 1.0
        assert "auc" in err  # human table on stderr

    def test_eval_single_metric(self, workspace, capsys):
        code, out, _ = run_cli(capsys, "eval", "--config", workspace["cfg"],
                               "--captions", str(workspace["data"] / "test.jsonl"),
                               "--knowledge", str(workspace["kb"]),
                               "--model", str(workspace["model"]),
                               "--metric", "acc")
        assert code == 0
        report = json.loads(out)
        assert report["acc"] is not None and report["auc"] is None

    def test_metric_undefined_for_the_corpus_exits_1(self, workspace, tmp_path, capsys):
        lines = (workspace["data"] / "test.jsonl").read_text(encoding="utf-8").splitlines()
        normal_only = tmp_path / "normal.jsonl"
        normal_only.write_text("".join(line + "\n" for line in lines
                                       if json.loads(line)["label"] == "normal"), encoding="utf-8")
        code, out, err = run_cli(capsys, "eval", "--config", workspace["cfg"],
                                 "--captions", str(normal_only),
                                 "--knowledge", str(workspace["kb"]),
                                 "--model", str(workspace["model"]), "--metric", "auc")
        assert code == 1 and out == ""
        assert err == "error: metric 'auc' is undefined for this corpus\n"

    def test_explain_emits_record(self, workspace, capsys):
        from tbvad.corpus import load_captions
        corpus = load_captions(workspace["data"] / "test.jsonl")
        vid = corpus.videos[0].video_id
        code, out, _ = run_cli(capsys, "explain", "--config", workspace["cfg"],
                               "--captions", str(workspace["data"] / "test.jsonl"),
                               "--knowledge", str(workspace["kb"]),
                               "--model", str(workspace["model"]),
                               "--video-id", vid, "--topk", "2", "--counterfactual")
        assert code == 0
        record = json.loads(out)
        assert record["video_id"] == vid
        assert record["label"] in ("normal", "abnormal")
        assert len(record["evidences"]) == 2
        assert abs(sum(record["margins"].values())) <= 1e-6
        assert record["rationale"].startswith("Decision:")

    def test_record_model_digest_is_the_model_file_digest(self, workspace, tmp_path, capsys):
        from tbvad.corpus import load_captions
        model = tmp_path / "model.tbvm"
        common = ["--config", workspace["cfg"], "--knowledge", str(workspace["kb"])]
        code, out, _ = run_cli(capsys, "train", *common, "--out", str(model),
                               "--captions", str(workspace["data"] / "train.jsonl"))
        assert code == 0
        printed = json.loads(out)["digest"]
        test_jsonl = workspace["data"] / "test.jsonl"
        vid = load_captions(test_jsonl).videos[0].video_id
        code, out, _ = run_cli(capsys, "explain", *common, "--captions", str(test_jsonl),
                               "--model", str(model), "--video-id", vid,
                               "--out", str(tmp_path / "record.json"))
        assert code == 0
        logged = json.loads((tmp_path / "runs.log").read_text(encoding="utf-8").splitlines()[-1])
        assert logged["command"] == "explain"
        assert json.loads(out)["model_digest"] == printed == logged["input_digests"]["model"]

    def test_calls_in_one_process_share_no_flag_values(self, workspace, capsys):
        from tbvad.corpus import load_captions
        vid = load_captions(workspace["data"] / "test.jsonl").videos[0].video_id
        common = ["--config", workspace["cfg"],
                  "--captions", str(workspace["data"] / "test.jsonl"),
                  "--knowledge", str(workspace["kb"]), "--model", str(workspace["model"])]
        code, out, _ = run_cli(capsys, "explain", *common, "--video-id", vid,
                               "--counterfactual", "--topk", "1")
        assert code == 0
        record = json.loads(out)
        assert len(record["evidences"]) == 1 and record["margins"]
        code, out, _ = run_cli(capsys, "explain", *common, "--video-id", vid)
        assert code == 0
        record = json.loads(out)
        assert len(record["evidences"]) == 2  # the config's topk, not the last call's
        assert record["margins"] == {}
        code, out, _ = run_cli(capsys, "eval", *common)
        assert code == 0
        report = json.loads(out)
        assert report["auc"] is not None and report["acc"] is not None

    def test_explain_unknown_video_fails(self, workspace, capsys):
        code, _, err = run_cli(capsys, "explain", "--config", workspace["cfg"],
                               "--captions", str(workspace["data"] / "test.jsonl"),
                               "--knowledge", str(workspace["kb"]),
                               "--model", str(workspace["model"]),
                               "--video-id", "no-such-video")
        assert code == 1

    def test_eval_malformed_model_header_exits_2(self, workspace):
        raw = workspace["model"].read_bytes()
        header = json.dumps({"format_version": 1, "tensors": []}).encode("utf-8")
        bad = workspace["tmp"] / "bad_header.tbvm"
        bad.write_bytes(raw[:4] + len(header).to_bytes(8, "little") + header)
        proc = run_tbvad("eval", "--config", workspace["cfg"],
                         "--captions", str(workspace["data"] / "test.jsonl"),
                         "--knowledge", str(workspace["kb"]), "--model", str(bad),
                         cwd=workspace["tmp"])
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("runtime error:") and "config" in proc.stderr

    def test_eval_window_model_exits_2(self, workspace):
        raw = workspace["model"].read_bytes()
        header_end = 12 + int.from_bytes(raw[4:12], "little")
        header = json.loads(raw[12:header_end])
        header["config"]["mil_top_k"] = 2
        blob = json.dumps(header).encode("utf-8")
        bad = workspace["tmp"] / "window_model.tbvm"
        bad.write_bytes(raw[:4] + len(blob).to_bytes(8, "little") + blob + raw[header_end:])
        proc = run_tbvad("eval", "--config", workspace["cfg"],
                         "--captions", str(workspace["data"] / "test.jsonl"),
                         "--knowledge", str(workspace["kb"]), "--model", str(bad),
                         cwd=workspace["tmp"])
        assert proc.returncode == 2, proc.stderr
        (line,) = proc.stderr.splitlines()
        assert line.startswith("runtime error:") and "caption windows" in line

    @pytest.mark.parametrize("command", ["eval", "explain"])
    @pytest.mark.parametrize("key", ["seed", "embedder.d"])
    def test_eval_with_another_hash_seed_exits_1(self, workspace, tmp_path, capsys, command, key):
        # The workspace knowledge was embedded with hash seed 5 at d = 32.
        test_jsonl = workspace["data"] / "test.jsonl"
        if key == "seed":
            flags = ["--config", workspace["cfg"], "--seed", "6"]
            ours, theirs = "seed 6 does not match", "'s 5 "
        else:
            embedder = {"d": 16}
            flags = ["--config", cli_config(tmp_path, embedder=embedder)]
            ours, theirs = "d 16 does not match", "'s 32 "
        if command == "explain":
            flags += ["--video-id", load_captions(test_jsonl).videos[0].video_id]
        code, out, err = run_cli(capsys, command, *flags, "--captions", str(test_jsonl),
                                 "--knowledge", str(workspace["kb"]),
                                 "--model", str(workspace["model"]))
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        assert line.startswith("error:") and ours in line and theirs in line

    def test_explain_when_scores_tie_within_exp_resolution(self, workspace, tmp_path, capsys):
        # Slot scores about 1e-30 apart: softmax gives every slot the same weight.
        model = load_model(workspace["model"])
        model.importance.w2[:] = 1e-30
        model.importance.b2[:] = 0.0
        path = tmp_path / "flat.tbvm"
        save_model(model, path)
        test_jsonl = workspace["data"] / "test.jsonl"
        for video in load_captions(test_jsonl).videos:
            code, out, err = run_cli(capsys, "explain", "--config", workspace["cfg"],
                                     "--captions", str(test_jsonl),
                                     "--knowledge", str(workspace["kb"]), "--model", str(path),
                                     "--video-id", video.video_id, "--counterfactual")
            assert code == 0, err
            record = json.loads(out)
            assert set(record["slot_weights"].values()) == {0.25}
            assert set(record["margins"].values()) == {0.0}

    def test_record_is_the_per_class_calls(self, workspace, capsys):
        # Weights: the predicted class's call.  Margins: its call minus the other class's.
        test_jsonl = workspace["data"] / "test.jsonl"
        args = argparse.Namespace(config=workspace["cfg"], knowledge=str(workspace["kb"]))
        cfg = resolve_config(args)
        kb, _ = _load_kb(args, cfg)
        model = load_model(workspace["model"])
        labels = set()
        for video in load_captions(test_jsonl).videos:
            code, out, _ = run_cli(capsys, "explain", "--config", workspace["cfg"],
                                   "--captions", str(test_jsonl),
                                   "--knowledge", str(workspace["kb"]),
                                   "--model", str(workspace["model"]),
                                   "--video-id", video.video_id, "--counterfactual")
            assert code == 0
            record = json.loads(out)
            y, _, h_d = predict_video(video, kb, model, _embedder_config(cfg))
            w = {}
            for v in CLASSES:
                _, c = slot_attention(kb.prototypes[v], h_d.vectors)
                w[v] = slot_importance(c, kb.prototypes[v], model.importance)
            ours, other = ("a", "n") if y >= 0.5 else ("n", "a")
            assert record["slot_weights"] == {aspect: float(w[ours][i])
                                              for i, aspect in enumerate(kb.aspects)}
            assert record["margins"] == {aspect: float(w[ours][i] - w[other][i])
                                         for i, aspect in enumerate(kb.aspects)}
            labels.add(record["label"])
        assert labels == {"normal", "abnormal"}

    def test_knowledge_load_uses_configured_max_parallel(self, workspace, tmp_path):
        cfg = cli_config(tmp_path, embedder={"d": 32, "max_parallel": 3})
        args = argparse.Namespace(config=cfg, knowledge=str(workspace["kb"]))
        assert _load_kb(args, resolve_config(args))[0].embedder.max_parallel == 3

    def test_eval_non_finite_model_exits_2(self, workspace):
        raw = bytearray(workspace["model"].read_bytes())
        raw[-4:] = np.array(np.inf, dtype="<f4").tobytes()  # the gate, the last tensor
        bad = workspace["tmp"] / "inf_gate.tbvm"
        bad.write_bytes(bytes(raw))
        proc = run_tbvad("eval", "--config", workspace["cfg"],
                         "--captions", str(workspace["data"] / "test.jsonl"),
                         "--knowledge", str(workspace["kb"]), "--model", str(bad),
                         cwd=workspace["tmp"])
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        (line,) = proc.stderr.splitlines()
        assert line.startswith("runtime error:") and "tensor gate" in line

    def test_eval_malformed_knowledge_exits_1(self, workspace):
        raw = json.loads(workspace["kb"].read_text(encoding="utf-8"))
        del raw["classes"]["a"]["object"]["text"]
        bad = workspace["tmp"] / "bad_kb.json"
        bad.write_text(json.dumps(raw), encoding="utf-8")
        proc = run_tbvad("eval", "--config", workspace["cfg"],
                         "--captions", str(workspace["data"] / "test.jsonl"),
                         "--knowledge", str(bad), "--model", str(workspace["model"]),
                         cwd=workspace["tmp"])
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:") and "('a', 'object')" in proc.stderr

    def test_eval_non_finite_embedding_exits_1(self, tmp_path):
        def embed(text, dim):
            return [float("nan")] * dim if text == "glitch" else float32_vector(text, dim)

        with StubService(embed_fn=embed) as svc:
            cfg = cli_config(tmp_path, endpoints={"embed": svc.endpoint},
                             embedder={"d": 16, "cache_dir": str(tmp_path / "cache")})
            data, kb, model = tmp_path / "data", tmp_path / "kb.json", tmp_path / "model.tbvm"
            assert main(["gen-synth", "--config", cfg, "--out", str(data)]) == 0
            assert main(["build-knowledge", "--config", cfg, "--captions", str(data / "train.jsonl"),
                         "--out", str(kb), "--extractive"]) == 0
            assert main(["train", "--config", cfg, "--captions", str(data / "train.jsonl"),
                         "--knowledge", str(kb), "--out", str(model)]) == 0
            rows = [json.loads(line) for line in (data / "test.jsonl").read_text(encoding="utf-8").splitlines()]
            glitched = tmp_path / "glitched.jsonl"
            glitched.write_text("".join(json.dumps(dict(r, text=r["text"] + " glitch")) + "\n"
                                        for r in rows), encoding="utf-8")
            proc = run_tbvad("eval", "--config", cfg, "--captions", str(glitched),
                             "--knowledge", str(kb), "--model", str(model), cwd=tmp_path)
        assert proc.returncode == 1, proc.stderr
        (line,) = proc.stderr.splitlines()
        assert line == "error: embedding matrix contains non-finite values"

    def test_warm_remote_commands_read_each_pack_once(self, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "cache"
        with StubService(embed_fn=float32_vector) as svc:
            cfg = cli_config(tmp_path, endpoints={"embed": svc.endpoint},
                             embedder={"d": 16, "cache_dir": str(cache)})
            data, kb, model = tmp_path / "data", tmp_path / "kb.json", tmp_path / "model.tbvm"
            test = str(data / "test.jsonl")
            assert main(["gen-synth", "--config", cfg, "--out", str(data)]) == 0
            assert main(["build-knowledge", "--config", cfg, "--captions", str(data / "train.jsonl"),
                         "--out", str(kb), "--extractive"]) == 0
            assert main(["train", "--config", cfg, "--captions", str(data / "train.jsonl"),
                         "--knowledge", str(kb), "--out", str(model)]) == 0
            common = ["--config", cfg, "--captions", test, "--knowledge", str(kb), "--model", str(model)]
            assert main(["eval", *common]) == 0  # caches the held-out tokens
            video_id = json.loads((data / "test.jsonl").read_text(encoding="utf-8").splitlines()[0])["video_id"]
            reads = []
            read_pack = VectorCache._read_pack
            monkeypatch.setattr(VectorCache, "_read_pack",
                                lambda self, path: reads.append(path) or read_pack(self, path))
            n_requests = len(svc.requests)
            for argv in (["eval", *common], ["explain", *common, "--video-id", video_id, "--counterfactual"]):
                reads.clear()
                assert main(argv) == 0
                assert sorted(reads) == sorted((cache / "embed").glob("*.vecs")), argv[0]
            assert len(svc.requests) == n_requests
        capsys.readouterr()

    def test_caption_stats(self, workspace, capsys):
        code, out, _ = run_cli(capsys, "caption-stats",
                               "--captions", str(workspace["data"] / "train.jsonl"))
        assert code == 0
        stats = json.loads(out)
        assert stats["avg_len"] > 0 and stats["tfidf"] >= 0

    @pytest.mark.parametrize("command", ["explain", "eval"])
    def test_model_digest_is_of_the_scored_bytes(self, workspace, tmp_path, capsys,
                                                 monkeypatch, command):
        # The file changes right after it is loaded: the logged digest must still
        # name the bytes that were scored, not a second read of the file.
        model = tmp_path / "model.tbvm"
        scored = workspace["model"].read_bytes()
        model.write_bytes(scored)
        real_load = load_model

        def load_then_replace(path, **kwargs):
            loaded = real_load(path, **kwargs)
            raw = bytearray(Path(path).read_bytes())
            raw[-1] ^= 1
            Path(path).write_bytes(raw)
            return loaded

        monkeypatch.setattr("tbvad.cli.load_model", load_then_replace)
        test_jsonl = workspace["data"] / "test.jsonl"
        vid = load_captions(test_jsonl).videos[0].video_id
        argv = [command, "--config", workspace["cfg"], "--captions", str(test_jsonl),
                "--knowledge", str(workspace["kb"]), "--model", str(model)]
        code, out, err = run_cli(capsys, *argv, *(["--video-id", vid] if command == "explain" else []))
        assert code == 0, err
        assert model.read_bytes() != scored
        want = hashlib.sha256(scored).hexdigest()
        logged = json.loads((tmp_path / "runs.log").read_text(encoding="utf-8").splitlines()[-1])
        assert logged["input_digests"]["model"] == want
        if command == "explain":
            assert json.loads(out)["model_digest"] == want


    @pytest.mark.parametrize("command", ["build-knowledge", "train", "eval", "explain",
                                         "cross-eval", "ablate"])
    def test_input_digests_are_of_the_parsed_bytes(self, workspace, tmp_path, capsys,
                                                   monkeypatch, command):
        # Each input file grows by a byte right after it is parsed: every logged
        # digest must still name the bytes that were parsed, not a second read.
        files = {"captions": (tmp_path / "train.jsonl", workspace["data"] / "train.jsonl"),
                 "test_captions": (tmp_path / "test.jsonl", workspace["data"] / "test.jsonl"),
                 "knowledge": (tmp_path / "kb.json", workspace["kb"])}
        parsed = {}
        for name, (path, source) in files.items():
            path.write_bytes(source.read_bytes())
            parsed[name] = hashlib.sha256(path.read_bytes()).hexdigest()

        def grow_after(load):
            def load_then_grow(path, *args, **kwargs):
                loaded = load(path, *args, **kwargs)
                with open(path, "ab") as fh:
                    fh.write(b"\n")
                return loaded
            return load_then_grow

        monkeypatch.setattr("tbvad.cli.load_captions", grow_after(load_captions))
        monkeypatch.setattr("tbvad.cli.load_knowledge", grow_after(load_knowledge))
        captions, test_captions, kb = (str(path) for path, _ in files.values())
        vid = load_captions(test_captions).videos[0].video_id
        combos = tmp_path / "combos.json"
        combos.write_text(json.dumps([["object"]]), encoding="utf-8")
        argv, logged_inputs = {
            "build-knowledge": (["--captions", captions, "--out", str(tmp_path / "kb2.json")],
                                {"captions"}),
            "train": (["--captions", captions, "--knowledge", kb,
                       "--out", str(tmp_path / "model.tbvm")], {"captions", "knowledge"}),
            "eval": (["--captions", test_captions, "--knowledge", kb,
                      "--model", str(workspace["model"])], {"captions", "knowledge"}),
            "explain": (["--captions", test_captions, "--knowledge", kb,
                         "--model", str(workspace["model"]), "--video-id", vid],
                        {"captions", "knowledge"}),
            "cross-eval": (["--captions", captions, "--test-captions", test_captions],
                           {"captions", "test_captions"}),
            "ablate": (["--captions", captions, "--test-captions", test_captions,
                        "--combos", str(combos), "--out", str(tmp_path / "ablate.csv")],
                       {"captions", "test_captions"}),
        }[command]
        code, _, err = run_cli(capsys, command, "--config", workspace["cfg"], *argv)
        assert code == 0, err
        logged = last_run_log(tmp_path)["input_digests"]
        assert set(logged) - {"model"} == logged_inputs
        for name in logged_inputs:
            # Eval and explain log the held-out file they read as "captions".
            source = "test_captions" if name == "captions" and command in ("eval", "explain") else name
            path = files[source][0]
            assert hashlib.sha256(path.read_bytes()).hexdigest() != parsed[source]
            assert logged[name] == parsed[source], name


def cached_config(workspace, tmp_path, cache_dir) -> str:
    """The workspace's config file with ``embedder.cache_dir`` set."""
    cfg = json.loads(Path(workspace["cfg"]).read_text(encoding="utf-8"))
    cfg["embedder"]["cache_dir"] = str(cache_dir)
    path = tmp_path / "cached.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def last_run_log(directory: Path) -> dict:
    return json.loads((directory / "runs.log").read_text(encoding="utf-8").splitlines()[-1])


class TestExplainCaptionMarkers:
    """A caption file's bytes that passed a full load are not checked line by line again."""

    def explain(self, capsys, workspace, config, captions, vid):
        return run_cli(capsys, "explain", "--config", config, "--captions", str(captions),
                       "--knowledge", str(workspace["kb"]), "--model", str(workspace["model"]),
                       "--video-id", vid, "--counterfactual")

    def assert_warm_explain_decodes_only_its_videos_lines(self, workspace, tmp_path, capsys,
                                                           monkeypatch, cache, cached):
        test_jsonl = workspace["data"] / "test.jsonl"
        marker = cache / "captions-v1" / hashlib.sha256(test_jsonl.read_bytes()).hexdigest()
        assert marker.is_file() and marker.stat().st_size == 0

        target = load_captions(test_jsonl).videos[-1]
        plain = self.explain(capsys, workspace, workspace["cfg"], test_jsonl, target.video_id)
        plain_log = last_run_log(tmp_path)
        built, scanned = [], []

        class CountingCaption(Caption):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        scan = tbvad.corpus._SCAN

        def counting_scan(line, idx):
            scanned.append(line)
            return scan(line, idx)

        monkeypatch.setattr("tbvad.corpus.Caption", CountingCaption)
        monkeypatch.setattr("tbvad.corpus._SCAN", counting_scan)
        warm = self.explain(capsys, workspace, cached, test_jsonl, target.video_id)
        assert warm == plain and warm[0] == 0
        assert last_run_log(tmp_path)["input_digests"] == plain_log["input_digests"]
        assert len(built) == len(scanned) == len(target.captions)
        assert marker.is_file()

    def test_warm_explain_decodes_only_its_videos_lines(self, workspace, tmp_path, capsys,
                                                         monkeypatch):
        test_jsonl = workspace["data"] / "test.jsonl"
        cache = tmp_path / "cache"
        cached = cached_config(workspace, tmp_path, cache)
        first = load_captions(test_jsonl).videos[0].video_id
        code, _, err = self.explain(capsys, workspace, cached, test_jsonl, first)
        assert code == 0, err
        self.assert_warm_explain_decodes_only_its_videos_lines(workspace, tmp_path, capsys,
                                                                monkeypatch, cache, cached)

    def test_eval_leaves_the_marker_for_explain(self, workspace, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "cache"
        cached = cached_config(workspace, tmp_path, cache)
        code, _, err = run_cli(capsys, "eval", "--config", cached,
                               "--captions", str(workspace["data"] / "test.jsonl"),
                               "--knowledge", str(workspace["kb"]), "--model", str(workspace["model"]))
        assert code == 0, err
        self.assert_warm_explain_decodes_only_its_videos_lines(workspace, tmp_path, capsys,
                                                                monkeypatch, cache, cached)

    def test_cache_dir_that_is_a_file_gives_the_same_record(self, workspace, tmp_path, capsys,
                                                             caplog):
        test_jsonl = workspace["data"] / "test.jsonl"
        vid = load_captions(test_jsonl).videos[1].video_id
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory", encoding="utf-8")
        cached = cached_config(workspace, tmp_path, blocker)
        code, out, err = self.explain(capsys, workspace, cached, test_jsonl, vid)
        assert code == 0, err
        assert "caption check marker not written" in caplog.text
        plain_code, plain_out, _ = self.explain(capsys, workspace, workspace["cfg"], test_jsonl, vid)
        assert (code, out) == (plain_code, plain_out)

    def test_planted_marker_on_a_bad_line_gives_the_full_loads_error(self, workspace, tmp_path,
                                                                     capsys):
        lines = (workspace["data"] / "test.jsonl").read_text(encoding="utf-8").splitlines(True)
        rec = json.loads(lines[5])
        lines[5] = json.dumps({**rec, "text": " "}) + "\n"
        captions = tmp_path / "bad.jsonl"
        captions.write_text("".join(lines), encoding="utf-8")
        cache = tmp_path / "cache"
        marker = cache / "captions-v1" / hashlib.sha256(captions.read_bytes()).hexdigest()
        marker.parent.mkdir(parents=True)
        marker.touch()
        cached = cached_config(workspace, tmp_path, cache)
        planted = self.explain(capsys, workspace, cached, captions, rec["video_id"])
        plain = self.explain(capsys, workspace, workspace["cfg"], captions, rec["video_id"])
        assert planted == plain
        assert planted[0] == 1 and f"{captions}:6: " in planted[2] and "empty text" in planted[2]


class TestDeterminism:
    def test_rerun_produces_identical_artifacts(self, tmp_path, capsys):
        cfg = cli_config(tmp_path)
        outs = []
        for tag in ("one", "two"):
            data = tmp_path / tag
            assert main(["gen-synth", "--config", cfg, "--out", str(data)]) == 0
            kb = tmp_path / f"kb_{tag}.json"
            assert main(["build-knowledge", "--config", cfg, "--captions",
                         str(data / "train.jsonl"), "--out", str(kb), "--extractive"]) == 0
            model = tmp_path / f"model_{tag}.tbvm"
            assert main(["train", "--config", cfg, "--captions", str(data / "train.jsonl"),
                         "--knowledge", str(kb), "--out", str(model)]) == 0
            outs.append((Path(data / "train.jsonl").read_bytes(), kb.read_bytes(),
                         model.read_bytes()))
            capsys.readouterr()
        assert outs[0][0] == outs[1][0]
        assert outs[0][1] == outs[1][1]
        assert outs[0][2] == outs[1][2]

    def test_knowledge_build_independent_of_hash_seed(self, tmp_path):
        # Near-tied sentences once swapped places with the string hash seed.
        corpus, _ = generate_corpus(SyntheticConfig(n_videos=40, seed=1, source_tag="hashseed"))
        save_captions(corpus, tmp_path / "train.jsonl")
        digests = []
        for hash_seed in ("0", "3"):
            out = tmp_path / f"kb_{hash_seed}.json"
            proc = run_tbvad("build-knowledge", "--captions", str(tmp_path / "train.jsonl"),
                             "--out", str(out), "--extractive", cwd=tmp_path, hash_seed=hash_seed)
            assert proc.returncode == 0, proc.stderr
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_run_log_appended(self, tmp_path, capsys):
        cfg = cli_config(tmp_path)
        data = tmp_path / "d"
        assert main(["gen-synth", "--config", cfg, "--out", str(data)]) == 0
        capsys.readouterr()
        log_lines = (data / "runs.log").read_text().strip().split("\n")
        entry = json.loads(log_lines[-1])
        assert entry["command"] == "gen-synth"
        assert len(entry["config_digest"]) == 64

    @needs_flock
    def test_lock_file_blocks_concurrent_writers(self, tmp_path, capsys):
        cfg = cli_config(tmp_path)
        data = tmp_path / "d"
        data.mkdir()
        with open(data / ".tbvad.lock", "w") as held:
            fcntl.flock(held, fcntl.LOCK_EX)
            code, _, err = run_cli(capsys, "gen-synth", "--config", cfg, "--out", str(data))
        assert code == 2
        assert "locked" in err
        assert not (data / "train.jsonl").exists()

    @needs_flock
    def test_commands_that_write_no_file_take_no_lock(self, workspace, capsys):
        test_jsonl = workspace["data"] / "test.jsonl"
        inputs = ["--config", workspace["cfg"], "--captions", str(test_jsonl),
                  "--knowledge", str(workspace["kb"]), "--model", str(workspace["model"])]
        vid = load_captions(test_jsonl).videos[0].video_id
        with open(".tbvad.lock", "w") as held:
            fcntl.flock(held, fcntl.LOCK_EX)
            code, _, err = run_cli(capsys, "eval", *inputs)
            assert code == 0, err
            code, _, err = run_cli(capsys, "explain", *inputs, "--video-id", vid)
            assert code == 0, err
            code, _, err = run_cli(capsys, "caption-stats", *inputs[:4])
            assert code == 0, err
        lines = Path("runs.log").read_text(encoding="utf-8").splitlines()
        entries = [json.loads(line) for line in lines]
        assert [entry["command"] for entry in entries] == ["eval", "explain", "caption-stats"]
        sha = hashlib.sha256(test_jsonl.read_bytes()).hexdigest()
        assert entries[-1]["input_digests"] == {"captions": sha} and entries[-1]["outputs"] == []

    @needs_flock
    def test_lock_of_a_process_that_is_gone_is_taken_over(self, tmp_path, capsys):
        cfg = cli_config(tmp_path)
        data = tmp_path / "d"
        data.mkdir()
        with start_child(HOLD_LOCK, str(data / ".tbvad.lock")) as child:
            assert child.stdout.readline() == "held\n"
            child.kill()
            child.wait(timeout=60)
        code, _, err = run_cli(capsys, "gen-synth", "--config", cfg, "--out", str(data))
        assert code == 0, err
        assert (data / "train.jsonl").exists()
        assert (data / ".tbvad.lock").exists()

    @needs_flock
    def test_lock_of_a_live_process_blocks_until_it_exits(self, tmp_path, capsys):
        cfg = cli_config(tmp_path)
        data = tmp_path / "d"
        data.mkdir()
        with start_child(HOLD_LOCK, str(data / ".tbvad.lock")) as child:
            assert child.stdout.readline() == "held\n"
            code, _, err = run_cli(capsys, "gen-synth", "--config", cfg, "--out", str(data))
            assert code == 2
            assert "locked" in err
        code, _, err = run_cli(capsys, "gen-synth", "--config", cfg, "--out", str(data))
        assert code == 0, err

    @needs_flock
    @pytest.mark.parametrize("content", ["not-a-pid", "", "0", "-1", "dead-child", "1"])
    def test_leftover_lock_file_does_not_block(self, tmp_path, capsys, content):
        cfg = cli_config(tmp_path)
        data = tmp_path / "d"
        data.mkdir()
        (data / ".tbvad.lock").write_text(str(dead_pid()) if content == "dead-child" else content)
        code, _, err = run_cli(capsys, "gen-synth", "--config", cfg, "--out", str(data))
        assert code == 0, err
        assert (data / "train.jsonl").exists()

    def test_lock_is_released_when_the_command_fails_inside_it(self, tmp_path, capsys):
        data = tmp_path / "d"
        bad = cli_config(tmp_path, synthetic={"domain": "zz"})
        code, _, err = run_cli(capsys, "gen-synth", "--config", bad, "--out", str(data))
        assert code == 1
        assert "zz" in err
        assert not (data / "runs.log").exists()
        code, _, err = run_cli(capsys, "gen-synth", "--config", cli_config(tmp_path),
                               "--out", str(data))
        assert code == 0, err

    @needs_flock
    def test_one_of_four_simultaneous_runs_takes_a_leftover_lock(self, tmp_path):
        data = tmp_path / "d"
        data.mkdir()
        (data / ".tbvad.lock").write_text(str(dead_pid()))
        with ExitStack() as stack:
            children = [stack.enter_context(start_child(CONTEND, str(data))) for _ in range(4)]
            for child in children:
                assert child.stdout.readline() == "ready\n"
            for child in children:
                child.stdin.write("go\n")
                child.stdin.flush()
            results = sorted(child.stdout.readline() for child in children)
        assert results == ["lost\n"] * 3 + ["won\n"]

    def test_without_fcntl_a_lock_file_blocks_and_a_run_removes_its_own(self, tmp_path, capsys,
                                                                          monkeypatch):
        monkeypatch.setattr("tbvad.cli.fcntl", None)
        cfg = cli_config(tmp_path)
        data = tmp_path / "d"
        data.mkdir()
        lock = data / ".tbvad.lock"
        lock.write_text("")
        code, _, err = run_cli(capsys, "gen-synth", "--config", cfg, "--out", str(data))
        assert code == 2
        assert f"remove {lock} if stale" in err
        assert lock.exists() and not (data / "train.jsonl").exists()
        lock.unlink()
        code, _, err = run_cli(capsys, "gen-synth", "--config", cfg, "--out", str(data))
        assert code == 0, err
        assert not lock.exists()


class TestAblate:
    def test_table3_emits_seven_rows(self, tmp_path, capsys):
        cfg = cli_config(tmp_path, synthetic={"n_videos": 16, "test_videos": 12,
                                              "frames_per_video": 8},
                         train={"learning_rate": 0.25, "epochs": 2, "batch_size": 8,
                                "l2_weight": 1e-4})
        data = tmp_path / "d"
        assert main(["gen-synth", "--config", cfg, "--out", str(data)]) == 0
        capsys.readouterr()
        csv_path = tmp_path / "ablation.csv"
        code, out, _ = run_cli(capsys, "ablate", "--config", cfg,
                               "--captions", str(data / "train.jsonl"),
                               "--test-captions", str(data / "test.jsonl"),
                               "--combos", "table3", "--out", str(csv_path),
                               "--extractive")
        assert code == 0
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "aspects,auc,ap"
        assert len(lines) == 1 + 7
        payload = json.loads(out)
        assert len(payload["rows"]) == 7
        assert payload["rows"][6]["aspects"] == ["object", "environment"]

    def test_combos_file(self, tmp_path, capsys):
        cfg = cli_config(tmp_path, synthetic={"n_videos": 12, "test_videos": 10,
                                              "frames_per_video": 8},
                         train={"learning_rate": 0.25, "epochs": 2, "batch_size": 8,
                                "l2_weight": 1e-4})
        data = tmp_path / "d"
        assert main(["gen-synth", "--config", cfg, "--out", str(data)]) == 0
        combos = tmp_path / "combos.json"
        combos.write_text('[["object"], ["context", "environment"]]', encoding="utf-8")
        capsys.readouterr()
        csv_path = tmp_path / "ab.csv"
        code, out, _ = run_cli(capsys, "ablate", "--config", cfg,
                               "--captions", str(data / "train.jsonl"),
                               "--test-captions", str(data / "test.jsonl"),
                               "--combos", str(combos), "--out", str(csv_path))
        assert code == 0
        assert len(json.loads(out)["rows"]) == 2


class TestCrossEval:
    def test_cross_domains_report(self, tmp_path, capsys):
        cfg = cli_config(tmp_path, synthetic={"n_videos": 16, "test_videos": 12,
                                              "frames_per_video": 8, "domain": "a"},
                         train={"learning_rate": 0.25, "epochs": 3, "batch_size": 8,
                                "l2_weight": 1e-4})
        b_dir = tmp_path / "b"
        b_dir.mkdir()
        cfg_b = cli_config(b_dir, synthetic={"n_videos": 16, "test_videos": 12,
                                             "frames_per_video": 8,
                                             "domain": "b-shared"},
                           train={"learning_rate": 0.25, "epochs": 3, "batch_size": 8,
                                  "l2_weight": 1e-4})
        da, db = tmp_path / "da", tmp_path / "db"
        assert main(["gen-synth", "--config", cfg, "--out", str(da)]) == 0
        assert main(["gen-synth", "--config", cfg_b, "--out", str(db)]) == 0
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "cross-eval", "--config", cfg,
                               "--captions", str(da / "train.jsonl"),
                               "--test-captions", str(db / "test.jsonl"))
        assert code == 0
        report = json.loads(out)
        assert "->" in report["dataset_tag"]

    def test_same_corpus_rejected(self, tmp_path, capsys):
        cfg = cli_config(tmp_path, synthetic={"n_videos": 12, "test_videos": 10,
                                              "frames_per_video": 8})
        data = tmp_path / "d"
        assert main(["gen-synth", "--config", cfg, "--out", str(data)]) == 0
        capsys.readouterr()
        code, _, err = run_cli(capsys, "cross-eval", "--config", cfg,
                               "--captions", str(data / "train.jsonl"),
                               "--test-captions", str(data / "train.jsonl"))
        assert code == 1
        assert "distinct" in err
