"""Command-line entry point wiring the pipeline stages into reproducible batch runs.

One subcommand per stage: gen-synth, build-knowledge, train, eval, explain,
ablate, caption-stats, cross-eval.  Machine-readable JSON goes to stdout;
human-readable tables go to stderr; artifacts land at --out.  A run that
writes files locks their directory (``_output_lock``) and, once they are
written, appends a provenance line (config digest, input digests,
timestamp) to the ``runs.log`` there; a run that only prints logs to
``./runs.log`` without a lock.

Exit codes: 0 success, 1 validation error (bad flags or config, or an input
file that is missing, not a regular file or malformed), 2 runtime error.
"""

from __future__ import annotations

import argparse
import copy
import functools
import hashlib
import json
import logging
import os
import sys
from contextlib import contextmanager, nullcontext
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

try:
    import fcntl
except ImportError:  # Not POSIX: see _output_lock.
    fcntl = None

from .classifier import TrainConfig, load_model, model_digest, predict_video, save_model, train
from .corpus import CHECKED_MARKERS, CaptionCorpus, group_by_class, load_captions, read_caption_file
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
    CLASSES,
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
from .remote import atomic_write, default_cache_dir
from .synthetic import domain_config, write_corpus

logger = logging.getLogger(__name__)

# Nested schema of recognized config keys; unknown keys are rejected.
CONFIG_SCHEMA = {
    "seed": int,
    "k_frames": int,
    "topk": int,
    "aspects": list,
    "embedder": {"d": int, "cache_dir": str, "max_parallel": int},
    "encoder": {"num_layers": int, "num_heads": int, "d_latent": int, "ff_multiple": int},
    "train": {"learning_rate": float, "epochs": int, "batch_size": int, "l2_weight": float},
    "endpoints": {"embed": str, "generate": str},
    "prompts": {aspect: str for aspect in ASPECTS},
    "synthetic": {
        "n_videos": int, "test_videos": int, "frames_per_video": int,
        "anomaly_ratio": float, "anomaly_frame_ratio": float,
        "normal_noise_rate": float, "planted_aspects": list, "domain": str,
    },
}

# The seed, k_frames, encoder and train keys are TrainConfig fields, so
# their defaults are read from it.
DEFAULT_CONFIG = {
    "seed": TrainConfig.seed,
    "k_frames": TrainConfig.k_frames,
    "topk": 2,
    "aspects": list(ASPECTS),
    "embedder": {"d": EmbedderConfig.d, "max_parallel": EmbedderConfig.max_parallel},
    "encoder": {key: getattr(TrainConfig, key) for key in CONFIG_SCHEMA["encoder"]},
    "train": {key: getattr(TrainConfig, key) for key in CONFIG_SCHEMA["train"]},
    "endpoints": {},
    "synthetic": {"test_videos": 100},
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
        path = _input_file(args.config, "config")
        try:
            user_cfg = json.loads(path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
            raise ValidationError(f"--config is not valid JSON: {e}") from e
        if not isinstance(user_cfg, dict):
            raise ValidationError(f"--config {path} must hold a JSON object")
        _validate_config(user_cfg, CONFIG_SCHEMA)
        cfg = _deep_merge(cfg, user_cfg)
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "aspects", None):
        cfg["aspects"] = [a.strip() for a in args.aspects.split(",") if a.strip()]
    if getattr(args, "embed_endpoint", None):
        cfg["endpoints"]["embed"] = args.embed_endpoint
    if getattr(args, "gen_endpoint", None):
        cfg["endpoints"]["generate"] = args.gen_endpoint
    if getattr(args, "topk", None) is not None:
        cfg["topk"] = args.topk
    validate_aspects(cfg["aspects"])
    return cfg


def _cache_dir(cfg: dict) -> str | None:
    """The configured cache directory, else TBVAD_CACHE_DIR, else none."""
    cache_dir = cfg["embedder"].get("cache_dir") or default_cache_dir()
    return str(cache_dir) if cache_dir else None


def _embedder_config(cfg: dict) -> EmbedderConfig:
    """The run's one embedder, for captions and knowledge: remote when an embed endpoint is set."""
    endpoint = cfg["endpoints"].get("embed")
    return EmbedderConfig(backend="remote" if endpoint else "hash", d=cfg["embedder"]["d"],
                          endpoint=endpoint, cache_dir=_cache_dir(cfg), seed=cfg["seed"],
                          max_parallel=cfg["embedder"]["max_parallel"])


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(seed=cfg["seed"], k_frames=cfg["k_frames"], **cfg["encoder"], **cfg["train"])


def _pipeline_config(cfg: dict, summarizer=None, prompts=None) -> PipelineConfig:
    return PipelineConfig(emb=_embedder_config(cfg), train=_train_config(cfg),
                          aspects=validate_aspects(cfg["aspects"]),
                          prompts=prompts, summarizer=summarizer)


def _summarizer(cfg: dict, args):
    gen_endpoint = cfg["endpoints"].get("generate")
    if getattr(args, "extractive", False) or not gen_endpoint:
        return ExtractiveSummarizer()
    return RemoteGenerator(gen_endpoint, cache_dir=_cache_dir(cfg))


def _prompts(cfg: dict) -> dict[str, AspectPrompt]:
    """The shipped templates, each replaced by the config's prompt for its aspect, if any."""
    custom = {a: AspectPrompt(aspect=a, template=t) for a, t in cfg.get("prompts", {}).items()}
    return {**default_prompts(), **custom}


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_"), None) in (None, ""):
            raise ValidationError(f"missing required flag --{name}")


def load_hashed_captions(path, cache_dir: str | None, *, video_id: str | None = None,
                         source_tag: str | None = None) -> tuple[CaptionCorpus, str]:
    """A caption file's corpus, or one video's, and the SHA-256 of the bytes it was parsed from.

    The file is read once.  With a cache directory, an empty marker
    ``<cache_dir>/captions-v1/<sha256>`` records that these exact bytes
    passed a full load: a one-video load that finds it decodes only the
    lines that can hold the video's records; a load without it checks every
    line and, when it succeeds, writes the marker.  So an ``eval`` leaves
    the marker for the ``explain`` calls on its file.  A marker that cannot
    be written is skipped with a warning.
    """
    data = read_caption_file(path)
    sha = hashlib.sha256(data).hexdigest()
    marker = Path(cache_dir, CHECKED_MARKERS, sha) if cache_dir else None
    marked = marker is not None and os.path.exists(marker)
    corpus = load_captions(path, source_tag, video_id=video_id, data=data,
                           checked=marked and video_id is not None)
    if marker is not None and not marked:
        try:
            marker.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(marker, b"")
        except (OSError, ValueError) as e:
            logger.warning("caption check marker not written: %s", e)
    return corpus, sha


@contextmanager
def _output_lock(out_dir: Path):
    """Hold ``out_dir``'s lock while the body runs, or fail at once if another run holds it.

    With ``fcntl`` the lock is a ``flock`` on ``.tbvad.lock``, which the kernel
    releases when the run's process ends, however it ends.  The file is never
    unlinked: a run still holding the old file and a run creating a new one
    would both hold a lock.  Without ``fcntl`` the file is created exclusively
    and removed on exit; one left by a run that died must be removed by hand.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = out_dir / ".tbvad.lock"
    locked = f"output directory {out_dir} is locked by another run"
    exclusive = fcntl is None
    try:
        fd = os.open(lock, os.O_CREAT | os.O_WRONLY | (os.O_EXCL if exclusive else 0))
    except FileExistsError:
        raise TbvadError(f"{locked} (remove {lock} if stale)") from None
    try:
        if not exclusive:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise TbvadError(locked) from None
        yield
    finally:
        os.close(fd)
        if exclusive:
            lock.unlink(missing_ok=True)


@contextmanager
def _guarded(out_dir: Path, command: str, cfg: dict, inputs: dict, outputs: list):
    """Run the body, under ``out_dir``'s lock if it writes ``outputs``; if it returns, log the run.

    A command that writes no file takes no lock, so runs that only print do
    not exclude one another.
    """
    with _output_lock(out_dir) if outputs else nullcontext():
        yield
        line = {"ts": datetime.now(timezone.utc).isoformat(), "command": command,
                "config_digest": config_digest(cfg), "input_digests": inputs, "outputs": outputs}
        with (out_dir / "runs.log").open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(line, sort_keys=True) + "\n")


def _optional_out(args) -> tuple[Path, list[str]]:
    """The lock and run-log directory and the outputs list of a command whose --out is optional."""
    if getattr(args, "out", None):
        return Path(args.out).parent, [args.out]
    return Path("."), []


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
            raise ValidationError(f"metric {metric!r} is undefined for this corpus")
    return report


def cmd_gen_synth(args) -> int:
    cfg = resolve_config(args)
    _require(args, "out")
    out_dir = Path(args.out)
    # The keys left in ``base`` are SyntheticConfig fields.
    base = dict(cfg["synthetic"])
    domain = base.pop("domain", "a")
    test_videos = base.pop("test_videos")
    train_path = out_dir / "train.jsonl"
    test_path = out_dir / "test.jsonl"
    manifest_path = out_dir / "manifest.json"
    test_manifest_path = out_dir / "manifest_test.json"
    with _guarded(out_dir, "gen-synth", cfg, {},
                  [str(train_path), str(test_path), str(manifest_path), str(test_manifest_path)]):
        train_cfg = domain_config(domain, seed=cfg["seed"],
                                  source_tag=f"synth-{domain}-train", **base)
        write_corpus(train_cfg, train_path, manifest_path)
        test_cfg = domain_config(domain, seed=cfg["seed"] + 1,
                                 source_tag=f"synth-{domain}-test",
                                 **{**base, "n_videos": test_videos})
        write_corpus(test_cfg, test_path, test_manifest_path)
    _emit({"train": str(train_path), "test": str(test_path),
           "manifest": str(manifest_path), "seed": cfg["seed"]})
    return 0


def cmd_build_knowledge(args) -> int:
    cfg = resolve_config(args)
    _require(args, "captions", "out")
    corpus, captions_sha = load_hashed_captions(args.captions, _cache_dir(cfg))
    d_n, d_a = group_by_class(corpus)
    kb = build_knowledge(d_n, d_a, _prompts(cfg), _embedder_config(cfg),
                         backend=_summarizer(cfg, args),
                         active_aspects=cfg["aspects"])
    out_path = Path(args.out)
    with _guarded(out_path.parent, "build-knowledge", cfg, {"captions": captions_sha},
                  [str(out_path)]):
        save_knowledge(kb, out_path)
    _emit({"knowledge": str(out_path), "aspects": list(kb.aspects),
           "digest": hashlib.sha256(out_path.read_bytes()).hexdigest()})
    return 0


def _input_file(path, flag: str) -> Path:
    """``path``, the value of ``--flag``, if it names a regular file; else a ValidationError."""
    path = Path(path)
    if not path.is_file():
        state = "is not a regular file" if path.exists() else "does not exist"
        raise ValidationError(f"--{flag} file {state}: {path}")
    return path


def _read_hashed(path, flag: str) -> tuple[bytes, str]:
    """A file's bytes and their SHA-256, so that the logged digest is of what was parsed."""
    data = _input_file(path, flag).read_bytes()
    return data, hashlib.sha256(data).hexdigest()


def _load_kb(args, cfg: dict):
    """The knowledge base and the SHA-256 of the very bytes it was parsed from."""
    data, sha = _read_hashed(args.knowledge, "knowledge")
    kb = load_knowledge(args.knowledge, _embedder_config(cfg), data=data)
    return kb, sha


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    _require(args, "captions", "knowledge", "out")
    corpus, captions_sha = load_hashed_captions(args.captions, _cache_dir(cfg))
    kb, knowledge_sha = _load_kb(args, cfg)
    model = train(corpus, kb, _train_config(cfg), _embedder_config(cfg))
    out_path = Path(args.out)
    with _guarded(out_path.parent, "train", cfg,
                  {"captions": captions_sha, "knowledge": knowledge_sha}, [str(out_path)]):
        save_model(model, out_path)
    _emit({"model": str(out_path), "digest": model_digest(model),
           "epochs": cfg["train"]["epochs"]})
    return 0


def cmd_eval(args) -> int:
    cfg = resolve_config(args)
    _require(args, "captions", "knowledge", "model")
    corpus, captions_sha = load_hashed_captions(args.captions, _cache_dir(cfg))
    kb, knowledge_sha = _load_kb(args, cfg)
    data, model_sha = _read_hashed(args.model, "model")
    model = load_model(args.model, data=data)
    report = evaluate_model(corpus, kb, model, _embedder_config(cfg), digest=config_digest(cfg))
    report = _metric_filter(report, getattr(args, "metric", None))
    out_dir, outputs = _optional_out(args)
    with _guarded(out_dir, "eval", cfg,
                  {"captions": captions_sha, "knowledge": knowledge_sha, "model": model_sha},
                  outputs):
        _report_to_streams(report, args)
    return 0


def cmd_explain(args) -> int:
    cfg = resolve_config(args)
    _require(args, "captions", "knowledge", "model", "video-id")
    corpus, captions_sha = load_hashed_captions(args.captions, _cache_dir(cfg),
                                                video_id=args.video_id)
    video = corpus.video(args.video_id)
    kb, knowledge_sha = _load_kb(args, cfg)
    data, model_sha = _read_hashed(args.model, "model")
    model = load_model(args.model, data=data)

    y, _, h_d = predict_video(video, kb, model, _embedder_config(cfg))
    predicted_v = "a" if y >= 0.5 else "n"
    # Both classes' prototypes in one (2, S, d) stack; row i is CLASSES[i].
    protos = np.stack([kb.prototypes[v] for v in CLASSES])
    _, c = slot_attention(protos, h_d.vectors)
    w = slot_importance(c, protos, model.importance)
    w_pred = w[CLASSES.index(predicted_v)]
    evidences = retrieve_evidence(mean_pool(h_d), kb, predicted_v, w_pred, k=cfg["topk"])
    margins = {}
    if getattr(args, "counterfactual", False):
        margins = counterfactual_margins(w, predicted_v, kb.aspects)
    weights = {aspect: float(w_pred[i]) for i, aspect in enumerate(kb.aspects)}
    inputs = {"captions": captions_sha, "knowledge": knowledge_sha, "model": model_sha}
    record = build_record(video.video_id, y, weights, evidences, margins,
                          model_digest=inputs["model"])
    gen_endpoint = cfg["endpoints"].get("generate")
    backend = None
    if gen_endpoint:
        backend = RemoteGenerator(gen_endpoint, cache_dir=_cache_dir(cfg))
    record = attach_rationale(record, backend)
    out_dir, outputs = _optional_out(args)
    with _guarded(out_dir, "explain", cfg, inputs, outputs):
        if outputs:
            Path(args.out).write_text(record.to_json() + "\n", encoding="utf-8")
    print(record.to_json())
    return 0


def _load_combos(spec: str) -> list[tuple[str, ...]]:
    if spec == "table3":
        return [tuple(c) for c in TABLE3_COMBOS]
    path = Path(spec)
    if not path.is_file():
        raise ValidationError(f"--combos must be 'table3' or a JSON file path, got {spec!r}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise ValidationError(f"combos file {path} is not valid JSON: {e}") from e
    if not isinstance(raw, list) or not all(isinstance(c, list) for c in raw):
        raise ValidationError(f"combos file {path} must hold a JSON list of aspect lists")
    return [tuple(validate_aspects(c)) for c in raw]


def cmd_ablate(args) -> int:
    cfg = resolve_config(args)
    _require(args, "captions", "test-captions", "combos", "out")
    train_corpus, captions_sha = load_hashed_captions(args.captions, _cache_dir(cfg))
    test_corpus, test_captions_sha = load_hashed_captions(args.test_captions, _cache_dir(cfg))
    combos = _load_combos(args.combos)
    pipeline = _pipeline_config(cfg, summarizer=_summarizer(cfg, args), prompts=_prompts(cfg))
    rows = ablate_slots(train_corpus, test_corpus, combos, pipeline)
    out_path = Path(args.out)
    with _guarded(out_path.parent, "ablate", cfg,
                  {"captions": captions_sha, "test_captions": test_captions_sha},
                  [str(out_path)]):
        out_path.write_text(ablation_csv(rows), encoding="utf-8")
    print(ablation_csv(rows), file=sys.stderr, end="")
    _emit({"rows": [{"aspects": list(r.active_aspects), "auc": None if r.failed else r.auc,
                     "ap": None if r.failed else r.ap, "error": r.error} for r in rows],
           "csv": str(out_path)})
    return 0


def cmd_caption_stats(args) -> int:
    cfg = resolve_config(args)
    _require(args, "captions")
    corpus, captions_sha = load_hashed_captions(args.captions, _cache_dir(cfg))
    avg_len, tfidf = caption_stats(corpus)
    with _guarded(Path("."), "caption-stats", cfg, {"captions": captions_sha}, []):
        _emit({"avg_len": avg_len, "tfidf": tfidf, "n_videos": len(corpus),
               "n_captions": sum(len(v.captions) for v in corpus.videos)})
    return 0


def cmd_cross_eval(args) -> int:
    cfg = resolve_config(args)
    _require(args, "captions", "test-captions")
    train_corpus, captions_sha = load_hashed_captions(args.captions, _cache_dir(cfg),
                                                      source_tag=args.captions)
    test_corpus, test_captions_sha = load_hashed_captions(args.test_captions, _cache_dir(cfg),
                                                          source_tag=args.test_captions)
    pipeline = _pipeline_config(cfg, summarizer=_summarizer(cfg, args), prompts=_prompts(cfg))
    report = cross_eval(train_corpus, test_corpus, pipeline)
    out_dir, outputs = _optional_out(args)
    with _guarded(out_dir, "cross-eval", cfg,
                  {"captions": captions_sha, "test_captions": test_captions_sha}, outputs):
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


# Built on first use and shared by every later ``main`` call in the process:
# building takes about 1 ms, parsing about 0.05 ms, and parse_args leaves the
# parser unchanged.
_shared_parser = functools.lru_cache(maxsize=1)(build_parser)


def main(argv=None) -> int:
    parser = _shared_parser()
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
