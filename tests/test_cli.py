from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tbvad.cli import main
from tbvad.corpus import save_captions
from tbvad.synthetic import SyntheticConfig, generate_corpus

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True)
def run_in_tmp_dir(tmp_path, monkeypatch):
    """Commands without --out write their run log to the cwd; keep that in tmp."""
    monkeypatch.chdir(tmp_path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_tbvad(*argv, cwd, hash_seed="0"):
    """Run the CLI in a fresh interpreter, as a user's shell would."""
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, PYTHONHASHSEED=hash_seed)
    return subprocess.run([sys.executable, "-m", "tbvad.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def cli_config(tmp_path, **overrides):
    """A fast desk-scale config for CLI round trips."""
    cfg = {
        "seed": 5,
        "k_frames": 6,
        "embedder": {"backend": "hash", "d": 32, "max_tokens": 512, "knowledge_max_tokens": 4096},
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

    def test_unknown_nested_key_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"train": {"warmup": 3}}', encoding="utf-8")
        code, _, err = run_cli(capsys, "caption-stats", "--config", str(bad),
                               "--captions", "whatever.jsonl")
        assert code == 1
        assert "train.warmup" in err

    def test_missing_captions_file_is_validation_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "caption-stats", "--captions",
                               str(tmp_path / "nope.jsonl"))
        assert code == 1

    def test_unknown_subcommand_rejected(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 1


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

    def test_caption_stats(self, workspace, capsys):
        code, out, _ = run_cli(capsys, "caption-stats",
                               "--captions", str(workspace["data"] / "train.jsonl"))
        assert code == 0
        stats = json.loads(out)
        assert stats["avg_len"] > 0 and stats["tfidf"] >= 0


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

    def test_lock_file_blocks_concurrent_writers(self, tmp_path, capsys):
        cfg = cli_config(tmp_path)
        data = tmp_path / "d"
        data.mkdir()
        (data / ".tbvad.lock").write_text("123")
        code, _, err = run_cli(capsys, "gen-synth", "--config", cfg, "--out", str(data))
        assert code == 2
        assert "locked" in err


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
