"""Command-line entry point.

Subcommands: gen-data, train, eval, decode, stability-report, gradcheck.
Every command is deterministic given its inputs and --seed; exit codes are
0 on success, 1 when a check fails, 2 for usage, configuration or data
errors (a non-finite result included).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import gradcheck as gradcheck_mod
from .checkpoint import atomic_write, load_params, validate_shapes, write_csv
from .config import (
    MODES, NON_NEGATIVE, POSITIVE, Rule, RunConfig, TrainConfig, at_least, load_run_config,
    run_config_from_dict,
)
from .data import Dataset, SyntheticConfig, generate_synthetic, load_dataset, make_folds, save_dataset
from .decoder import budget, decode_summary
from .errors import ConfigError, NumericError
from .evaluation import evaluate, flip_rate, protocol_targets, write_report_csv
from .trainer import all_param_shapes, check_videos_fit, predict_scores, train


def _flag(convert, rule: Rule):
    """An argparse type: `convert` the text, then refuse a value `rule`
    rejects, so argparse exits 2 naming the flag, the rule and the value
    before any command runs."""

    def parse(text: str):
        value = convert(text)
        if not rule.accept(value):
            raise argparse.ArgumentTypeError(rule.refusal(value))
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value: 'x'"
    return parse


def _field(cls, name: str, **overrides) -> dict:
    """The add_argument keywords of a flag that sets the config field
    `cls.name`: its type is the field's declared type, then its rule, and
    its default is the field's default."""
    spec = cls.__dataclass_fields__[name]
    kind = _flag({"int": int, "float": float}[spec.type], spec.metadata["rule"])
    return {"type": kind, "default": spec.default, **overrides}


def cmd_gen_data(args) -> int:
    if args.segments > args.timesteps:
        raise ConfigError(f"--segments must be <= --timesteps {args.timesteps}, got {args.segments}")
    # every gen-data flag's dest is the SyntheticConfig field it sets
    cfg = SyntheticConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(SyntheticConfig)})
    dataset = generate_synthetic(cfg)
    save_dataset(dataset, args.out)
    print(f"wrote {len(dataset.videos)} {dataset.mode} videos to {args.out}")
    return 0


def cmd_train(args) -> int:
    if args.fold is not None and not 0 <= args.fold < args.folds:
        raise ConfigError(f"--fold must lie in [0, {args.folds - 1}]")
    cfg = load_run_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg.train.seed = args.seed
    if args.epochs is not None:
        cfg.train.epochs = args.epochs
    dataset = load_dataset(args.data)
    cfg.train.mode = dataset.mode
    val_videos = None
    if args.fold is not None:
        if args.folds > len(dataset.videos):
            raise ConfigError(
                f"--folds must be <= the {len(dataset.videos)} videos in {args.data}, got {args.folds}"
            )
        train_ids, test_ids = make_folds(dataset, k=args.folds, seed=cfg.train.seed)[args.fold]
        by_id = {v.video_id: v for v in dataset.videos}
        val_videos = [by_id[i] for i in test_ids]
        dataset = Dataset(dataset.mode, [by_id[i] for i in train_ids])
    os.makedirs(args.out_dir, exist_ok=True)
    result = train(dataset, cfg, val_videos=val_videos, checkpoint_dir=args.out_dir)
    last = result.history[-1]
    print(f"trained {cfg.train.epochs} epochs; final total loss {last.total:.6f}")
    if result.best_epoch is not None:
        print(f"best validation rho {result.best_rho:.4f} at epoch {result.best_epoch}")
    return 0


def _load_and_predict(args):
    """The inference preamble: load the checkpoint and the dataset and run the
    checkpoint's config in the dataset's mode. Returns the dataset and a
    generator of (video, decode signal) pairs that predicts each video as it
    is reached, so a caller that never iterates it predicts nothing."""
    params, meta = load_params(args.checkpoint)
    if "config" not in meta:
        raise ConfigError(f"checkpoint {args.checkpoint} carries no run config metadata")
    cfg = run_config_from_dict(meta["config"])
    validate_shapes(params, all_param_shapes(cfg))
    dataset = load_dataset(args.data)
    cfg.train.mode = dataset.mode
    check_videos_fit(dataset.videos, cfg.scorer)
    predictions = ((v, predict_scores(params, v, v.segment_map, cfg)["signal"]) for v in dataset.videos)
    return dataset, predictions


def cmd_eval(args) -> int:
    dataset, predictions = _load_and_predict(args)
    ids = [v.video_id for v in dataset.videos]
    anns = [v.annotations for v in dataset.videos]
    if args.oracle:  # targets stand in for predictions: each non-degenerate mean is 1.0
        signals = [protocol_targets(dataset.mode, a) for a in anns]
    else:
        signals = [signal for _, signal in predictions]
    report = evaluate(dataset.mode, ids, signals, anns)
    write_report_csv(report, args.out)
    print(
        f"mean tau {report.mean_tau:.4f}, mean rho {report.mean_rho:.4f} "
        f"({report.degenerate_count} degenerate) -> {args.out}"
    )
    return 0


def cmd_decode(args) -> int:
    _, predictions = _load_and_predict(args)
    entries = []
    for video, signal in predictions:
        mask = decode_summary(signal, video.picks, video.change_points, args.rho)
        cap = budget(args.rho, video.n_frames)
        kept = int(mask.y.sum())
        if kept > cap:
            raise AssertionError(
                f"budget violated for {video.video_id}: {kept} > {cap}"
            )
        entries.append(
            {
                "id": video.video_id,
                "n_frames": video.n_frames,
                "budget": cap,
                "summary_frames": kept,
                "selected_segments": list(mask.selected_segments),
                "mask": [int(b) for b in mask.y],
            }
        )
    atomic_write(args.out, json.dumps({"rho": args.rho, "videos": entries}, indent=1).encode("utf-8"))
    print(f"decoded {len(entries)} videos at rho={args.rho} -> {args.out}")
    return 0


def cmd_stability_report(args) -> int:
    _, predictions = _load_and_predict(args)
    rates = []
    for index, (video, signal) in enumerate(predictions):
        rate = flip_rate(
            signal,
            video.picks,
            video.change_points,
            args.rho,
            args.sigma,
            args.trials,
            seed=args.seed + index,
        )
        rates.append((video.video_id, rate))
    mean = math.fsum(r for _, r in rates) / len(rates)
    write_csv(args.out, ["video_id", "flip_rate"],
              [[vid, repr(rate)] for vid, rate in rates] + [["mean", repr(mean)]])
    print(f"mean flip rate {mean:.4f} over {len(rates)} videos -> {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    error = gradcheck_mod.run(seed=args.seed, step=args.step)
    status = "PASS" if error < args.tolerance else "FAIL"
    print(f"gradcheck max relative error {error:.3e} (tolerance {args.tolerance:.1e}): {status}")
    return 0 if status == "PASS" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vastsum",
        description="Uncertainty-aware, decoder-aligned keyshot summarization pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset file")
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=MODES, default=SyntheticConfig.mode)
    p.add_argument("--videos", dest="n_videos", **_field(SyntheticConfig, "n_videos"))
    p.add_argument("--timesteps", **_field(SyntheticConfig, "timesteps"))
    p.add_argument("--feature-dim", **_field(SyntheticConfig, "feature_dim"))
    p.add_argument("--annotators", **_field(SyntheticConfig, "annotators"))
    p.add_argument("--segments", **_field(SyntheticConfig, "segments"))
    p.add_argument("--feature-noise", **_field(SyntheticConfig, "feature_noise"))
    p.add_argument("--annotator-noise", **_field(SyntheticConfig, "annotator_noise"))
    p.add_argument("--seed", **_field(SyntheticConfig, "seed"))
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train on a dataset file")
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", help="run-config JSON file")
    # None: the run config (a --config file or the defaults) keeps its value
    p.add_argument("--seed", **_field(TrainConfig, "seed", default=None))
    p.add_argument("--epochs", **_field(TrainConfig, "epochs", default=None))
    p.add_argument("--fold", type=int, help="train one cross-validation fold")
    p.add_argument("--folds", type=_flag(int, at_least(2)), default=5)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="rank-correlation report for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--oracle",
        action="store_true",
        help="correlate targets with themselves instead of model predictions",
    )
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("decode", help="emit budgeted summary masks as JSON")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--rho", **_field(TrainConfig, "rho"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("stability-report", help="decode flip rates under score noise")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--rho", **_field(TrainConfig, "rho"))
    p.add_argument("--sigma", type=_flag(float, NON_NEGATIVE), default=0.05)
    p.add_argument("--trials", type=_flag(int, at_least(1)), default=100)
    p.add_argument("--seed", type=_flag(int, at_least(0)), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stability_report)

    p = sub.add_parser("gradcheck", help="finite-difference check of the full model")
    p.add_argument("--seed", type=_flag(int, at_least(0)), default=0)
    p.add_argument("--step", type=_flag(float, POSITIVE), default=1e-4)
    p.add_argument("--tolerance", type=_flag(float, POSITIVE), default=gradcheck_mod.TOLERANCE)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a non-finite result is reported by name, so numpy's warnings add nothing
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (ConfigError, ValueError, OSError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's names the size; a bare MemoryError has no message
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
