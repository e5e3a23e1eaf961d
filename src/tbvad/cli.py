"""Command-line entry point wiring the pipeline stages into reproducible batch runs.

One subcommand per stage: gen-synth, build-knowledge, train, eval, explain,
ablate, caption-stats, cross-eval.  Machine-readable JSON goes to stdout;
human-readable tables go to stderr; artifacts land at --out.  Every run
appends a provenance line (config digest, input digests, timestamp) to
``runs.log`` next to its outputs, and a lock file prevents two runs from
writing the same output directory at once.

Exit codes: 0 success, 1 validation error (bad flags, files, or config),
2 runtime error.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

from .classifier import TrainConfig, load_model, model_digest, predict_video, save_model, train
from .corpus import group_by_class, load_captions
from .embedding import EmbedderConfig, mean_pool
from .errors import TbvadError, ValidationError
from .evaluation import (
    MetricsReport,
    PipelineConfig,
    TABLE3_COMBOS,
    ablate_slots,
    ablation_csv,
    caption_stats,
    config_digest,
    cross_eval,
    evaluate_model,
)
from .knowledge import (
    ASPECTS,
    AspectPrompt,
    ExtractiveSummarizer,
    RemoteGenerator,
    build_knowledge,
    default_prompts,
    load_knowledge,
    save_knowledge,
    validate_aspects,
)
from .reasoning import (
    attach_rationale,
    build_record,
    counterfactual_margins,
    retrieve_evidence,
    slot_attention,
    slot_importance,
)
from .remote import default_cache_dir
from .synthetic import domain_config, write_corpus

# Nested schema of recognized config keys; unknown keys are rejected.
CONFIG_SCHEMA = {
    "seed": int,
    "k_frames": int,
    "topk": int,
    "aspects": list,
    "embedder": {
        "backend": str, "d": int, "max_tokens": int, "knowledge_max_tokens": int,
        "endpoint": str, "cache_dir": str, "max_parallel": int,
    },
    "encoder": {"num_layers": int, "num_heads": int, "d_latent": int, "ff_multiple": int},
    "train": {
        "learning_rate": float, "epochs": int, "batch_size": int,
        "l2_weight": float, "freeze_importance_net": bool, "mil_top_k": int,
    },
    "endpoints": {"embed": str, "generate": str},
    "prompts": {aspect: str for aspect in ASPECTS},
    "synthetic": {
        "n_videos": int, "test_videos": int, "frames_per_video": int,
        "anomaly_ratio": float, "anomaly_frame_ratio": float,
        "normal_noise_rate": float, "planted_aspects": list, "domain": str,
    },
}

DEFAULT_CONFIG = {
    "seed": 0,
    "k_frames": 8,
    "topk": 2,
    "aspects": list(ASPECTS),
    "embedder": {"backend": "hash", "d": 64, "max_tokens": 512, "knowledge_max_tokens": 4096},
    "encoder": {"num_layers": 2, "num_heads": 4, "d_latent": 128, "ff_multiple": 4},
    "train": {"learning_rate": 0.25, "epochs": 60, "batch_size": 16, "l2_weight": 1e-4,
              "freeze_importance_net": False},
    "endpoints": {},
    "synthetic": {"n_videos": 200, "test_videos": 100},
}


def _validate_config(cfg: dict, schema: dict, path: str = "") -> None:
    for key, value in cfg.items():
        where = f"{path}.{key}" if path else key
        if key not in schema:
            raise ValidationError(f"unknown config key {where!r}")
        expected = schema[key]
        if isinstance(expected, dict):
            if not isinstance(value, dict):
                raise ValidationError(f"config key {where!r} must be an object")
            _validate_config(value, expected, where)
        elif expected is float:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValidationError(f"config key {where!r} must be a number")
        elif not isinstance(value, expected) or isinstance(value, bool) and expected is not bool:
            raise ValidationError(f"config key {where!r} must be {expected.__name__}")


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def resolve_config(args) -> dict:
    """Merge defaults, an optional --config file, and flag overrides."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ValidationError(f"--config file does not exist: {path}")
        try:
            user_cfg = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as e:
            raise ValidationError(f"--config is not valid JSON: {e}") from e
        _validate_config(user_cfg, CONFIG_SCHEMA)
        cfg = _deep_merge(cfg, user_cfg)
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "aspects", None):
        cfg["aspects"] = [a.strip() for a in args.aspects.split(",") if a.strip()]
    if getattr(args, "embed_endpoint", None):
        cfg.setdefault("endpoints", {})["embed"] = args.embed_endpoint
    if getattr(args, "gen_endpoint", None):
        cfg.setdefault("endpoints", {})["generate"] = args.gen_endpoint
    if getattr(args, "topk", None) is not None:
        cfg["topk"] = args.topk
    validate_aspects(cfg["aspects"])
    return cfg


def _cache_dir(cfg: dict) -> str | None:
    """The configured cache directory, else TBVAD_CACHE_DIR, else none."""
    cache_dir = cfg["embedder"].get("cache_dir") or default_cache_dir()
    return str(cache_dir) if cache_dir else None


def _embedder_configs(cfg: dict) -> tuple[EmbedderConfig, EmbedderConfig]:
    emb_cfg = cfg["embedder"]
    endpoint = cfg.get("endpoints", {}).get("embed") or emb_cfg.get("endpoint")
    backend = "remote" if endpoint else emb_cfg.get("backend", "hash")
    common = dict(backend=backend, d=emb_cfg["d"], endpoint=endpoint,
                  cache_dir=_cache_dir(cfg), seed=cfg["seed"],
                  max_parallel=emb_cfg.get("max_parallel", 4))
    desc = EmbedderConfig(max_tokens=emb_cfg["max_tokens"], **common)
    know = EmbedderConfig(max_tokens=emb_cfg.get("knowledge_max_tokens", 4096), **common)
    return desc, know


def _train_config(cfg: dict) -> TrainConfig:
    enc, tr = cfg["encoder"], cfg["train"]
    return TrainConfig(
        learning_rate=tr["learning_rate"], epochs=tr["epochs"], batch_size=tr["batch_size"],
        seed=cfg["seed"], l2_weight=tr["l2_weight"],
        freeze_importance_net=tr.get("freeze_importance_net", False),
        k_frames=cfg["k_frames"], num_layers=enc["num_layers"], num_heads=enc["num_heads"],
        d_latent=enc["d_latent"], ff_multiple=enc["ff_multiple"],
        mil_top_k=tr.get("mil_top_k"),
    )


def _pipeline_config(cfg: dict, summarizer=None, prompts=None) -> PipelineConfig:
    desc, know = _embedder_configs(cfg)
    return PipelineConfig(emb=desc, know_emb=know, train=_train_config(cfg),
                          aspects=validate_aspects(cfg["aspects"]),
                          prompts=prompts, summarizer=summarizer)


def _summarizer(cfg: dict, args):
    gen_endpoint = cfg.get("endpoints", {}).get("generate")
    if getattr(args, "extractive", False) or not gen_endpoint:
        return ExtractiveSummarizer()
    return RemoteGenerator(gen_endpoint, cache_dir=_cache_dir(cfg))


def _prompts(cfg: dict) -> dict[str, AspectPrompt]:
    if "prompts" in cfg and cfg["prompts"]:
        return {a: AspectPrompt(aspect=a, template=cfg["prompts"][a])
                for a in ASPECTS if a in cfg["prompts"]}
    return default_prompts()


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_"), None) in (None, ""):
            raise ValidationError(f"missing required flag --{name}")


def _file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@contextmanager
def _output_lock(out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = out_dir / ".tbvad.lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise TbvadError(
            f"output directory {out_dir} is locked by another run (remove {lock} if stale)"
        ) from None
    try:
        os.write(fd, str(os.getpid()).encode("ascii"))
        yield
    finally:
        os.close(fd)
        lock.unlink(missing_ok=True)


def _append_run_log(out_dir: Path, command: str, cfg: dict, inputs: dict, outputs: list) -> None:
    line = {
        "ts": datetime.now(timezone.utc).isoformat(),
        "command": command,
        "config_digest": config_digest(cfg),
        "input_digests": inputs,
        "outputs": outputs,
    }
    with (out_dir / "runs.log").open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(line, sort_keys=True) + "\n")


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _report_to_streams(report: MetricsReport, args) -> None:
    print(report.to_text(), file=sys.stderr)
    if getattr(args, "out", None):
        Path(args.out).write_text(report.to_json() + "\n", encoding="utf-8")
    _emit(report.to_dict())


def _metric_filter(report: MetricsReport, metric: str | None) -> MetricsReport:
    if metric:
        keep = {"auc": ("ap", "acc"), "ap": ("auc", "acc"), "acc": ("auc", "ap")}[metric]
        for name in keep:
            setattr(report, name, None)
        if getattr(report, metric) is None:
            raise TbvadError(f"metric {metric!r} is undefined for this corpus")
    return report


def cmd_gen_synth(args) -> int:
    cfg = resolve_config(args)
    _require(args, "out")
    out_dir = Path(args.out)
    syn = cfg["synthetic"]
    base = dict(
        n_videos=syn.get("n_videos", 200),
        frames_per_video=syn.get("frames_per_video", 12),
        anomaly_ratio=syn.get("anomaly_ratio", 0.5),
        anomaly_frame_ratio=syn.get("anomaly_frame_ratio", 0.5),
        normal_noise_rate=syn.get("normal_noise_rate", 0.03),
    )
    if "planted_aspects" in syn:
        base["planted_aspects"] = tuple(syn["planted_aspects"])
    domain = syn.get("domain", "a")
    with _output_lock(out_dir):
        train_path = out_dir / "train.jsonl"
        test_path = out_dir / "test.jsonl"
        manifest_path = out_dir / "manifest.json"
        train_cfg = domain_config(domain, seed=cfg["seed"],
                                  source_tag=f"synth-{domain}-train", **base)
        write_corpus(train_cfg, train_path, manifest_path)
        test_cfg = domain_config(domain, seed=cfg["seed"] + 1,
                                 source_tag=f"synth-{domain}-test",
                                 **{**base, "n_videos": syn.get("test_videos", 100)})
        write_corpus(test_cfg, test_path, out_dir / "manifest_test.json")
        _append_run_log(out_dir, "gen-synth", cfg, {},
                        [str(train_path), str(test_path), str(manifest_path)])
    _emit({"train": str(train_path), "test": str(test_path),
           "manifest": str(manifest_path), "seed": cfg["seed"]})
    return 0


def cmd_build_knowledge(args) -> int:
    cfg = resolve_config(args)
    _require(args, "captions", "out")
    corpus = load_captions(args.captions)
    d_n, d_a = group_by_class(corpus)
    _, know_emb = _embedder_configs(cfg)
    kb = build_knowledge(d_n, d_a, _prompts(cfg), know_emb,
                         backend=_summarizer(cfg, args),
                         active_aspects=cfg["aspects"])
    out_path = Path(args.out)
    with _output_lock(out_path.parent if out_path.parent != Path("") else Path(".")):
        save_knowledge(kb, out_path)
        _append_run_log(out_path.parent, "build-knowledge", cfg,
                        {"captions": _file_digest(args.captions)}, [str(out_path)])
    _emit({"knowledge": str(out_path), "aspects": list(kb.aspects),
           "digest": _file_digest(out_path)})
    return 0


def _load_kb(args, cfg: dict):
    embed_endpoint = cfg.get("endpoints", {}).get("embed")
    return load_knowledge(args.knowledge, endpoint=embed_endpoint, cache_dir=_cache_dir(cfg),
                          max_tokens=cfg["embedder"].get("knowledge_max_tokens", 4096))


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    _require(args, "captions", "knowledge", "out")
    corpus = load_captions(args.captions)
    kb = _load_kb(args, cfg)
    desc_emb, _ = _embedder_configs(cfg)
    if desc_emb.d != kb.embedder.d:
        raise ValidationError(
            f"config embedder d={desc_emb.d} does not match knowledge file dim {kb.embedder.d}"
        )
    model = train(corpus, kb, _train_config(cfg), desc_emb)
    out_path = Path(args.out)
    with _output_lock(out_path.parent if str(out_path.parent) else Path(".")):
        save_model(model, out_path)
        _append_run_log(out_path.parent, "train", cfg,
                        {"captions": _file_digest(args.captions),
                         "knowledge": _file_digest(args.knowledge)}, [str(out_path)])
    _emit({"model": str(out_path), "digest": model_digest(model),
           "epochs": cfg["train"]["epochs"]})
    return 0


def cmd_eval(args) -> int:
    cfg = resolve_config(args)
    _require(args, "captions", "knowledge", "model")
    corpus = load_captions(args.captions)
    kb = _load_kb(args, cfg)
    model = load_model(args.model)
    desc_emb, _ = _embedder_configs(cfg)
    report = evaluate_model(corpus, kb, model, desc_emb, digest=config_digest(cfg))
    report = _metric_filter(report, getattr(args, "metric", None))
    out_dir = Path(args.out).parent if getattr(args, "out", None) else Path(".")
    with _output_lock(out_dir):
        _append_run_log(out_dir, "eval", cfg,
                        {"captions": _file_digest(args.captions),
                         "knowledge": _file_digest(args.knowledge),
                         "model": _file_digest(args.model)},
                        [args.out] if getattr(args, "out", None) else [])
        _report_to_streams(report, args)
    return 0


def cmd_explain(args) -> int:
    cfg = resolve_config(args)
    _require(args, "captions", "knowledge", "model", "video-id")
    corpus = load_captions(args.captions)
    video = corpus.video(args.video_id)
    kb = _load_kb(args, cfg)
    model = load_model(args.model)
    desc_emb, _ = _embedder_configs(cfg)

    y, _, h_d = predict_video(video, kb, model, desc_emb)
    predicted_v = "a" if y >= 0.5 else "n"
    att = slot_attention(kb.prototypes[predicted_v], h_d)
    imp = slot_importance(att.c, kb.prototypes[predicted_v], model.importance)
    h_bar = mean_pool(h_d)
    evidences = retrieve_evidence(h_bar, kb, predicted_v, imp, k=cfg["topk"])
    margins = {}
    if getattr(args, "counterfactual", False):
        margins = counterfactual_margins(h_d, kb, model.importance, predicted_v)
    weights = {aspect: float(imp.w[i]) for i, aspect in enumerate(kb.aspects)}
    record = build_record(video.video_id, y, weights, evidences, margins,
                          model_digest=model_digest(model))
    gen_endpoint = cfg.get("endpoints", {}).get("generate")
    backend = None
    if gen_endpoint:
        backend = RemoteGenerator(gen_endpoint, cache_dir=_cache_dir(cfg))
    record = attach_rationale(record, backend)
    out_dir = Path(args.out).parent if getattr(args, "out", None) else Path(".")
    with _output_lock(out_dir):
        if getattr(args, "out", None):
            Path(args.out).write_text(record.to_json() + "\n", encoding="utf-8")
        _append_run_log(out_dir, "explain", cfg,
                        {"captions": _file_digest(args.captions),
                         "knowledge": _file_digest(args.knowledge),
                         "model": _file_digest(args.model)},
                        [args.out] if getattr(args, "out", None) else [])
    print(record.to_json())
    return 0


def _load_combos(spec: str) -> list[tuple[str, ...]]:
    if spec == "table3":
        return [tuple(c) for c in TABLE3_COMBOS]
    path = Path(spec)
    if not path.exists():
        raise ValidationError(f"--combos must be 'table3' or a JSON file path, got {spec!r}")
    raw = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(raw, list) or not all(isinstance(c, list) for c in raw):
        raise ValidationError(f"combos file {path} must hold a JSON list of aspect lists")
    return [tuple(validate_aspects(c)) for c in raw]


def cmd_ablate(args) -> int:
    cfg = resolve_config(args)
    _require(args, "captions", "test-captions", "combos", "out")
    train_corpus = load_captions(args.captions)
    test_corpus = load_captions(args.test_captions)
    combos = _load_combos(args.combos)
    pipeline = _pipeline_config(cfg, summarizer=_summarizer(cfg, args), prompts=_prompts(cfg))
    rows = ablate_slots(train_corpus, test_corpus, combos, pipeline)
    out_path = Path(args.out)
    with _output_lock(out_path.parent if str(out_path.parent) else Path(".")):
        out_path.write_text(ablation_csv(rows), encoding="utf-8")
        _append_run_log(out_path.parent, "ablate", cfg,
                        {"captions": _file_digest(args.captions),
                         "test_captions": _file_digest(args.test_captions)}, [str(out_path)])
    print(ablation_csv(rows), file=sys.stderr, end="")
    _emit({"rows": [{"aspects": list(r.active_aspects), "auc": None if r.failed else r.auc,
                     "ap": None if r.failed else r.ap, "error": r.error} for r in rows],
           "csv": str(out_path)})
    return 0


def cmd_caption_stats(args) -> int:
    cfg = resolve_config(args)
    _require(args, "captions")
    corpus = load_captions(args.captions)
    avg_len, tfidf = caption_stats(corpus)
    _emit({"avg_len": avg_len, "tfidf": tfidf, "n_videos": len(corpus),
           "n_captions": sum(len(v.captions) for v in corpus.videos)})
    return 0


def cmd_cross_eval(args) -> int:
    cfg = resolve_config(args)
    _require(args, "captions", "test-captions")
    train_corpus = load_captions(args.captions, source_tag=args.captions)
    test_corpus = load_captions(args.test_captions, source_tag=args.test_captions)
    pipeline = _pipeline_config(cfg, summarizer=_summarizer(cfg, args), prompts=_prompts(cfg))
    report = cross_eval(train_corpus, test_corpus, pipeline)
    out_dir = Path(args.out).parent if getattr(args, "out", None) else Path(".")
    with _output_lock(out_dir):
        _append_run_log(out_dir, "cross-eval", cfg,
                        {"captions": _file_digest(args.captions),
                         "test_captions": _file_digest(args.test_captions)},
                        [args.out] if getattr(args, "out", None) else [])
        _report_to_streams(report, args)
    return 0


class _Parser(argparse.ArgumentParser):
    """Argparse variant that reports usage problems as validation errors (exit 1)."""

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tbvad", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
        return p

    add("gen-synth", cmd_gen_synth, **{"--out": dict(help="output directory")})
    add("build-knowledge", cmd_build_knowledge, **{
        "--captions": dict(help="training captions JSONL"),
        "--out": dict(help="knowledge JSON output path"),
        "--aspects": dict(help="CSV subset of context,action,object,environment"),
        "--extractive": dict(action="store_true", help="force the offline summarizer"),
        "--gen-endpoint": dict(help="generation service URL"),
        "--embed-endpoint": dict(help="embedding service URL"),
    })
    add("train", cmd_train, **{
        "--captions": dict(help="training captions JSONL"),
        "--knowledge": dict(help="knowledge JSON path"),
        "--out": dict(help="model output path"),
        "--embed-endpoint": dict(help="embedding service URL"),
    })
    add("eval", cmd_eval, **{
        "--captions": dict(help="evaluation captions JSONL"),
        "--knowledge": dict(help="knowledge JSON path"),
        "--model": dict(help="trained model path"),
        "--metric": dict(choices=["auc", "ap", "acc"], help="report a single metric"),
        "--out": dict(help="write the JSON report here"),
        "--embed-endpoint": dict(help="embedding service URL"),
    })
    add("explain", cmd_explain, **{
        "--captions": dict(help="captions JSONL containing the video"),
        "--knowledge": dict(help="knowledge JSON path"),
        "--model": dict(help="trained model path"),
        "--video-id": dict(help="video to explain"),
        "--topk": dict(type=int, default=None, help="evidence slots to keep"),
        "--counterfactual": dict(action="store_true", help="include counterfactual margins"),
        "--out": dict(help="write the record JSON here"),
        "--embed-endpoint": dict(help="embedding service URL"),
        "--gen-endpoint": dict(help="generation service URL for the rationale"),
    })
    add("ablate", cmd_ablate, **{
        "--captions": dict(help="training captions JSONL"),
        "--test-captions": dict(help="held-out captions JSONL"),
        "--combos": dict(help="'table3' or a JSON file of aspect subsets"),
        "--out": dict(help="CSV output path"),
        "--extractive": dict(action="store_true"),
        "--gen-endpoint": dict(help="generation service URL"),
        "--embed-endpoint": dict(help="embedding service URL"),
    })
    add("caption-stats", cmd_caption_stats, **{
        "--captions": dict(help="captions JSONL"),
    })
    add("cross-eval", cmd_cross_eval, **{
        "--captions": dict(help="training-domain captions JSONL"),
        "--test-captions": dict(help="test-domain captions JSONL"),
        "--aspects": dict(help="CSV subset of context,action,object,environment"),
        "--out": dict(help="write the JSON report here"),
        "--extractive": dict(action="store_true"),
        "--gen-endpoint": dict(help="generation service URL"),
        "--embed-endpoint": dict(help="embedding service URL"),
    })
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except TbvadError as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
