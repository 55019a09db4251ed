"""End-to-end optimization loop.

Forward composes scorer -> head -> losses on one tape per video, released
once `backward` has read it (see `diffcore`); inference (`predict_scores`)
runs on a gradient-free tape, which keeps no graph. Gradients are averaged
over an accumulation window, clipped by global norm, and applied with AdamW
(decoupled weight decay). Parameters, the gradient accumulator and the AdamW
moments are each one flat float64 buffer with named views
(`diffcore.FlatTensors`), so accumulation, averaging, the clip rescale and
AdamW are a few vector ops on whole buffers (AdamW's block by block). All
randomness (shuffling, latent noise, ranking pairs, stability perturbations)
flows from one seeded generator in a fixed order, so a (dataset, config,
seed) triple fully determines the result.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from . import losses, prob_head, scorer
from .checkpoint import save_params, write_csv
from .config import RunConfig, ScorerConfig
from .data import Dataset, VideoRecord
from .decoder import budget
from .errors import ConfigError, NumericError
from .evaluation import evaluate
from .timeline import SegmentIndexMap


@dataclass
class OptimizerState:
    """AdamW first/second moments, laid out as the parameters, plus the step count."""

    m: dc.FlatTensors
    v: dc.FlatTensors
    step: int = 0

    @classmethod
    def zeros_like(cls, params: dc.FlatTensors) -> "OptimizerState":
        return cls(m=dc.FlatTensors(params.shapes), v=dc.FlatTensors(params.shapes))


@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    history: list[losses.LossBreakdown]
    best_params: dict[str, np.ndarray] | None = None
    best_epoch: int | None = None
    best_rho: float | None = None


@dataclass
class NoiseBundle:
    """Per-video per-step randomness, drawn by the trainer in a fixed order."""

    latent: np.ndarray
    pairs: np.ndarray
    stab: np.ndarray


def init_from_shapes(
    shapes: dict[str, tuple[int, ...]], rng: np.random.Generator
) -> dc.FlatTensors:
    """The one init rule, drawn in the order of `shapes`: zeros for biases
    and the position table, unit layer-norm gains, and U(-1/sqrt(fan_in),
    1/sqrt(fan_in)) for every other tensor, where fan_in is the kernel width
    of a depthwise filter and the first dimension otherwise."""
    params = dc.FlatTensors(shapes)
    for name, value in params.items():
        if name == "pos.table" or name.endswith((".b", ".bias", ".b1", ".b2")):
            continue
        if name.endswith(".gain"):
            value.fill(1.0)
        else:
            fan_in = value.shape[1] if name.endswith(".depthwise") else value.shape[0]
            bound = 1.0 / np.sqrt(fan_in)
            value[...] = rng.uniform(-bound, bound, value.shape)
    return params


def init_all_params(cfg: RunConfig, rng: np.random.Generator) -> dc.FlatTensors:
    return init_from_shapes(all_param_shapes(cfg), rng)


def all_param_shapes(cfg: RunConfig) -> dict[str, tuple[int, ...]]:
    shapes = scorer.param_shapes(cfg.scorer)
    shapes.update(prob_head.param_shapes(cfg.scorer, cfg.head))
    return shapes


def check_videos_fit(videos: list[VideoRecord], cfg: ScorerConfig) -> None:
    """Raise ConfigError naming the first video the scorer cannot take: one
    longer than its positional table or with another feature dimension."""
    for video in videos:
        if video.n_timesteps > cfg.max_timesteps:
            raise ConfigError(
                f"video {video.video_id!r}: T={video.n_timesteps} > "
                f"scorer.max_timesteps {cfg.max_timesteps}"
            )
        if video.features.shape[1] != cfg.input_dim:
            raise ConfigError(
                f"video {video.video_id!r}: feature dim {video.features.shape[1]} "
                f"!= scorer.input_dim {cfg.input_dim}"
            )


def clip_global_norm(grads: dc.FlatTensors, max_norm: float) -> dc.FlatTensors:
    """Scale every gradient by max_norm/norm when the global L2 norm exceeds
    it. Returns `grads` itself when it does not rescale, else new tensors.
    The norm sums each tensor's squares exactly (`math.fsum`), so its bits
    do not depend on the order of the tensors."""
    if not max_norm > 0:
        raise ValueError("max_norm must be > 0")
    total = math.fsum(float(np.add.reduce(g * g, None)) for g in grads.values())
    norm = math.sqrt(total)
    if norm <= max_norm:
        return grads
    return dc.FlatTensors(grads.shapes, grads.flat * (max_norm / norm))


# Elements per AdamW block: 128 KiB a float64 array, so a block's views and
# temporaries stay in cache.
_BLOCK = 1 << 14


def adamw_step(
    params: dc.FlatTensors,
    grads: dc.FlatTensors,
    state: OptimizerState,
    cfg,
) -> None:
    """Bias-corrected AdamW update with decoupled weight decay, in place, as
    vector ops over the flat buffers, one block of `_BLOCK` elements at a
    time, so no temporary is larger than a block. Per element, in this order:
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g), and
    p = p - lr*((m/bc1) / (sqrt(v/bc2) + eps)) - (lr*wd)*p."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    for lo in range(0, params.flat.size, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        p, g, m, v = params.flat[block], grads.flat[block], state.m.flat[block], state.v.flat[block]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * (g * g)
        decay = (cfg.lr * cfg.weight_decay) * p
        denom = np.sqrt(v / bc2)
        denom += cfg.adam_eps
        p -= cfg.lr * ((m / bc1) / denom)
        p -= decay


def draw_noise(video: VideoRecord, cfg: RunConfig, rng) -> NoiseBundle:
    m = video.segment_map.n_segments
    return NoiseBundle(
        latent=rng.standard_normal((video.n_timesteps, cfg.head.latent_dim)),
        pairs=rng.integers(0, video.n_timesteps, size=(cfg.loss.rank_pairs, 2)),
        stab=rng.normal(0.0, cfg.loss.sigma_perturb, size=(cfg.loss.perturbations, m)),
    )


def model_forward(
    params: dict[str, np.ndarray],
    features: np.ndarray,
    seg: SegmentIndexMap,
    cfg: RunConfig,
    latent_noise: np.ndarray,
    grad: bool = True,
) -> tuple[prob_head.ImportanceOutput, dc.Node]:
    """The model on a fresh tape: lifted parameters, scorer, head, and the
    decode signal (mu in tvsum mode, calibrated probabilities in summe mode).
    Zero latent noise gives the posterior-mean prediction. With grad=False
    the tape records no graph (`dc.Tape(grad=False)`): the values are the
    same bits, each activation is freed once its consumers are done, and
    `dc.backward` refuses the tape."""
    tape = dc.Tape(grad=grad)
    pnodes = dc.lift_params(tape, params)
    h_hat = scorer.forward(tape.constant(features), seg, pnodes, cfg.scorer)
    out = prob_head.forward(h_hat, pnodes, latent_noise)
    if cfg.train.mode == "summe":
        return out, prob_head.calibrate_probability(out.mu, cfg.head.temperature)
    return out, out.mu


def build_video_loss(
    params: dict[str, np.ndarray],
    video: VideoRecord,
    cfg: RunConfig,
    epoch: int,
    noise: NoiseBundle,
) -> tuple[dc.Node, losses.LossBreakdown]:
    """One tape: scorer, head, and all four loss terms for a single video.

    The stability loss pools the signal through the video's `segment_map`
    and budgets its partition's `n_frames`, as the decoder does, so its
    knapsack sees the decoder's instance bit for bit."""
    seg = video.segment_map
    out, signal = model_forward(params, video.features, seg, cfg, noise.latent)
    main, target = losses.likelihood(
        cfg.train.mode, signal, out.log_v, video.annotations, cfg.loss
    )
    rank = losses.ranking_hinge(signal, target, noise.pairs, cfg.loss.rank_margin)
    kl = losses.kl_standard_normal(out.mu_z, out.log_var_z)
    pooled = dc.segment_pool(signal, seg)
    stab = losses.stability_loss(
        pooled, seg.lengths, budget(cfg.train.rho, video.n_frames), cfg.loss, noise.stab
    )
    total, lambdas = losses.total_loss(main, rank, stab, kl, epoch, cfg.loss)
    breakdown = losses.LossBreakdown.compose(
        dc.scalar_value(main),
        dc.scalar_value(rank),
        dc.scalar_value(stab),
        dc.scalar_value(kl),
        lambdas,
        epoch,
    )
    return total, breakdown


def predict_scores(
    params: dict[str, np.ndarray], video: VideoRecord, seg: SegmentIndexMap, cfg: RunConfig
) -> dict[str, np.ndarray]:
    """Deterministic inference: posterior-mean latent, no sampling.

    Returns the logits mu and the decode signal (mu for tvsum, calibrated
    probabilities for summe). A signal that is not finite (finite weights or
    features can still overflow the forward pass) raises ValueError naming
    the video. The forward pass runs on a gradient-free tape, which keeps no
    graph, so nothing is left to release and no activation outlives its use."""
    latent = np.zeros((video.n_timesteps, cfg.head.latent_dim))
    out, signal = model_forward(params, video.features, seg, cfg, latent, grad=False)
    bad = int(np.count_nonzero(~np.isfinite(signal.value)))
    if bad:
        raise ValueError(
            f"video {video.video_id!r}: prediction is not finite ({bad} of {signal.value.size} scores)"
        )
    return {"mu": out.mu.value.copy(), "signal": signal.value.copy(), "log_v": out.log_v.value.copy()}


def _validation_rho(params, videos, cfg) -> float:
    preds = [predict_scores(params, v, v.segment_map, cfg)["signal"] for v in videos]
    return evaluate(
        cfg.train.mode, [v.video_id for v in videos], preds, [v.annotations for v in videos]
    ).mean_rho


def train(
    dataset: Dataset,
    cfg: RunConfig,
    val_videos: list[VideoRecord] | None = None,
    checkpoint_dir: str | None = None,
) -> TrainResult:
    """Seeded training over the dataset; deterministic given (data, cfg, seed).

    With validation videos, tracks the checkpoint with the best validation
    Spearman rho. With a checkpoint_dir, writes checkpoint.json every epoch
    (and best.json when validation improves) plus train_log.csv at the end.
    """
    cfg.validate()
    if not dataset.videos:
        raise ConfigError("dataset is empty")
    if dataset.mode != cfg.train.mode:
        raise ConfigError(
            f"dataset mode {dataset.mode!r} does not match train.mode {cfg.train.mode!r}"
        )
    val_videos = list(val_videos or [])
    check_videos_fit(dataset.videos + val_videos, cfg.scorer)

    rng = np.random.default_rng(cfg.train.seed)
    params = init_all_params(cfg, rng)
    acc = dc.FlatTensors(params.shapes)
    state = OptimizerState.zeros_like(params)
    history: list[losses.LossBreakdown] = []
    best_params, best_epoch, best_rho = None, None, None

    meta = {"config": dataclasses.asdict(cfg)}
    for epoch in range(cfg.train.epochs):
        order = rng.permutation(len(dataset.videos))
        acc_count = 0
        parts: list[losses.LossBreakdown] = []
        for pos, vi in enumerate(order):
            video = dataset.videos[int(vi)]
            noise = draw_noise(video, cfg, rng)
            total, breakdown = build_video_loss(params, video, cfg, epoch, noise)
            try:
                dc.backward(total.tape, total, acc, add=acc_count > 0)
            except NumericError as exc:
                raise NumericError(f"epoch {epoch}, video {video.video_id!r}: {exc}", exc.node_id) from exc
            total.tape.release()
            acc_count += 1
            parts.append(breakdown)
            if acc_count == cfg.train.accumulate or pos == len(order) - 1:
                acc.flat /= acc_count
                clipped = clip_global_norm(acc, cfg.train.clip_norm)
                adamw_step(params, clipped, state, cfg.train)
                acc_count = 0
        lambdas = losses.lambda_schedule(epoch, cfg.loss)
        history.append(
            losses.LossBreakdown.compose(
                math.fsum(p.main for p in parts) / len(parts),
                math.fsum(p.rank for p in parts) / len(parts),
                math.fsum(p.stab for p in parts) / len(parts),
                math.fsum(p.kl for p in parts) / len(parts),
                lambdas,
                epoch,
            )
        )
        if checkpoint_dir is not None:
            save_params(params, os.path.join(checkpoint_dir, "checkpoint.json"), meta)
        if val_videos:
            rho = _validation_rho(params, val_videos, cfg)
            if not math.isnan(rho) and (best_rho is None or rho > best_rho):
                best_rho, best_epoch = rho, epoch
                best_params = {k: p.copy() for k, p in params.items()}
                if checkpoint_dir is not None:
                    save_params(best_params, os.path.join(checkpoint_dir, "best.json"), meta)
    if checkpoint_dir is not None:
        write_loss_log(history, os.path.join(checkpoint_dir, "train_log.csv"))
    return TrainResult(
        params=params,
        history=history,
        best_params=best_params,
        best_epoch=best_epoch,
        best_rho=best_rho,
    )


def write_loss_log(history: list[losses.LossBreakdown], path) -> None:
    columns = ("main", "rank", "stab", "kl", "total", "lambda_rank", "lambda_stab", "lambda_kl")
    write_csv(path, ["epoch", *columns],
              ([row.epoch] + [repr(getattr(row, name)) for name in columns] for row in history))
