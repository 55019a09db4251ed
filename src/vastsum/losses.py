"""Training objectives.

Dataset likelihoods (multi-annotator Gaussian NLL, soft-min BCE), pairwise
hinge ranking, KL to the standard-normal prior, and the knapsack stability
margin loss, plus the warm-up-weighted total. Every loss returns a size-1
tape node; supervision targets and noise draws arrive as plain arrays and
never receive gradients. The stability term consults the knapsack solver on
detached values only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .config import LossConfig
from .decoder import SegmentKnapsackInstance, knapsack_select

PROB_FLOOR = 1e-7


@dataclass
class LossBreakdown:
    """Per-step (or per-epoch mean) loss components and the weighted total."""

    main: float
    rank: float
    stab: float
    kl: float
    total: float
    lambda_rank: float
    lambda_stab: float
    lambda_kl: float
    epoch: int

    @classmethod
    def compose(cls, main, rank, stab, kl, lambdas, epoch):
        lr, ls, lk = lambdas
        total = ((main + lr * rank) + ls * stab) + lk * kl
        return cls(main, rank, stab, kl, total, lr, ls, lk, epoch)


def _mean_all(x: dc.Node) -> dc.Node:
    return dc.mean_over_sets(x, [tuple(range(x.value.shape[0]))])


def _zero(tape: dc.Tape) -> dc.Node:
    return tape.constant(np.zeros(1))


def tvsum_nll(mu: dc.Node, log_v: dc.Node, annotations, epsilon: float = 1e-6) -> dc.Node:
    """Heteroscedastic Gaussian NLL averaged over annotators and timesteps.

    (1/UT) sum_a sum_t 0.5 * (log v_t + (y_at - mu_t)^2 / (v_t + eps)).

    The annotator sum enters through sufficient statistics:
    (1/U) sum_a (y_at - mu_t)^2 = (ybar_t - mu_t)^2 + s_t, where s_t is the
    annotators' population variance at t, a constant of the tape.
    """
    annotations = np.asarray(annotations, dtype=np.float64)
    if annotations.ndim != 2 or annotations.shape[1] != mu.value.shape[0]:
        raise ValueError(f"annotations shape {annotations.shape} does not match T={mu.value.shape[0]}")
    tape = mu.tape
    y_mean = annotations.mean(axis=0)
    spread = ((annotations - y_mean) ** 2).mean(axis=0)
    var = dc.exp(log_v)
    # 1/(v + eps) via exp(-log(v + eps)); v + eps > 0 always under the clamp
    recip = dc.exp(dc.scale(dc.log(dc.add(var, tape.constant(np.full_like(mu.value, epsilon)))), -1.0))
    sq_err = dc.add(dc.square(dc.subtract(tape.constant(y_mean), mu)), tape.constant(spread))
    return dc.scale(_mean_all(dc.add(log_v, dc.multiply(sq_err, recip))), 0.5)


def _bce_per_annotator(p_clipped: dc.Node, annotations: np.ndarray) -> list[dc.Node]:
    tape = p_clipped.tape
    ones = tape.constant(np.ones_like(p_clipped.value))
    log_p = dc.log(p_clipped)
    log_1p = dc.log(dc.subtract(ones, p_clipped))
    losses = []
    for row in annotations:
        pos = dc.multiply(tape.constant(-row), log_p)
        neg = dc.multiply(tape.constant(row - 1.0), log_1p)
        losses.append(_mean_all(dc.add(pos, neg)))
    return losses


def summe_softmin_bce(p: dc.Node, annotations, tau_sm: float) -> dc.Node:
    """Soft minimum over per-annotator BCEs: -tau * log sum_a exp(-BCE_a / tau).

    Probabilities are clamped to [1e-7, 1 - 1e-7] before the logs, and the
    log-sum-exp uses the max-shift trick.
    """
    annotations = np.asarray(annotations, dtype=np.float64)
    if annotations.ndim != 2 or annotations.shape[1] != p.value.shape[0]:
        raise ValueError(f"annotations shape {annotations.shape} does not match T={p.value.shape[0]}")
    if not tau_sm > 0:
        raise ValueError("tau_sm must be > 0")
    tape = p.tape
    p_clipped = dc.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)
    scaled = [dc.scale(b, -1.0 / tau_sm) for b in _bce_per_annotator(p_clipped, annotations)]
    shift = max(dc.scalar_value(c) for c in scaled)
    shift_node = tape.constant(np.array([shift]))
    acc = None
    for c in scaled:
        e = dc.exp(dc.subtract(c, shift_node))
        acc = e if acc is None else dc.add(acc, e)
    return dc.scale(dc.add(shift_node, dc.log(acc)), -tau_sm)


def ranking_hinge(q: dc.Node, r, pairs, margin: float) -> dc.Node:
    """Mean hinge max(0, m - (q_i - q_j)) over pairs with r_i > r_j.

    Pairs failing the strict target inequality are dropped; no valid pairs
    means zero loss.
    """
    r = np.asarray(r, dtype=np.float64)
    kept = [(int(i), int(j)) for i, j in pairs if r[int(i)] > r[int(j)]]
    if not kept:
        return _zero(q.tape)
    qi = dc.gather_rows(q, [i for i, _ in kept])
    qj = dc.gather_rows(q, [j for _, j in kept])
    margins = q.tape.constant(np.full(len(kept), float(margin)))
    hinge = dc.clip(dc.subtract(margins, dc.subtract(qi, qj)), 0.0, np.inf)
    return _mean_all(hinge)


def select_ranking_targets(dataset_mode: str, mu: dc.Node, p: dc.Node | None, annotations):
    """Pick the prediction/target pair for the ranking loss.

    tvsum ranks the raw logits against the annotator mean; summe ranks the
    calibrated probabilities against the single annotator whose BCE is
    smallest (ties resolve to the lowest annotator index).
    """
    annotations = np.asarray(annotations, dtype=np.float64)
    if dataset_mode == "tvsum":
        return mu, annotations.mean(axis=0)
    if dataset_mode == "summe":
        if p is None:
            raise ValueError("summe ranking needs the calibrated probabilities")
        pv = np.clip(p.value, PROB_FLOOR, 1.0 - PROB_FLOOR)
        bces = [
            float(np.mean(-row * np.log(pv) - (1.0 - row) * np.log(1.0 - pv)))
            for row in annotations
        ]
        return p, annotations[int(np.argmin(bces))]
    raise ValueError(f"unknown dataset mode {dataset_mode!r}")


def kl_standard_normal(mu_z: dc.Node, log_var_z: dc.Node) -> dc.Node:
    """KL(q || N(0, I)) summed over latent dims, averaged over timesteps."""
    tape = mu_z.tape
    t_len, d_z = mu_z.value.shape
    elem = dc.subtract(
        dc.add(dc.square(mu_z), dc.exp(log_var_z)),
        dc.add(tape.constant(np.ones_like(mu_z.value)), log_var_z),
    )
    per_dim = dc.mean_over_sets(elem, [tuple(range(t_len))])  # 1 x d_z
    return dc.scale(dc.matmul(per_dim, tape.constant(np.ones(d_z))), 0.5)


def stability_loss(
    segment_scores: dc.Node,
    weights,
    capacity: int,
    cfg: LossConfig,
    noise,
) -> dc.Node:
    """Margin loss on segments whose knapsack membership flips under noise.

    The solver runs on detached values to find the base selection and the
    unstable set; gradients flow only through the pooled segment scores in
    the hinge terms. Empty sets contribute nothing.
    """
    noise = np.asarray(noise, dtype=np.float64)
    s = segment_scores.value
    m = s.shape[0]
    if noise.ndim != 2 or noise.shape[1] != m:
        raise ValueError(f"noise shape {noise.shape} does not match M={m}")
    batch = knapsack_select(SegmentKnapsackInstance(np.vstack([s, s + noise]), weights, capacity))
    base = batch[0]
    freq = batch[1:].sum(axis=0) / noise.shape[0]
    unstable = (freq > 0.0) & (freq < 1.0)
    selected = np.flatnonzero(base)
    unselected = np.flatnonzero(~base)
    tape = segment_scores.tape

    def hinge_mean(ks, anchor_idx, anchor_first):
        sk = dc.gather_rows(segment_scores, ks)
        anchor = dc.gather_rows(segment_scores, [anchor_idx] * len(ks))
        gap = dc.subtract(sk, anchor) if anchor_first else dc.subtract(anchor, sk)
        margins = tape.constant(np.full(len(ks), cfg.stab_margin))
        return _mean_all(dc.clip(dc.subtract(margins, gap), 0.0, np.inf))

    terms = []
    up_sel = [int(k) for k in selected if unstable[k]]
    if up_sel and unselected.size:
        j_star = int(unselected[np.argmax(s[unselected])])
        terms.append(hinge_mean(up_sel, j_star, anchor_first=True))
    up_unsel = [int(k) for k in unselected if unstable[k]]
    if up_unsel and selected.size:
        i_star = int(selected[np.argmin(s[selected])])
        terms.append(hinge_mean(up_unsel, i_star, anchor_first=False))
    if not terms:
        return _zero(tape)
    return terms[0] if len(terms) == 1 else dc.add(terms[0], terms[1])


def lambda_schedule(epoch: int, cfg: LossConfig) -> tuple[float, float, float]:
    """Linear warm-up: target * min(1, (e+1)/warmup); warmup 0 is immediate."""

    def ramp(target, warmup):
        if warmup <= 0:
            return target
        return target * min(1.0, (epoch + 1) / warmup)

    return (
        ramp(cfg.lambda_rank, cfg.warmup_rank),
        ramp(cfg.lambda_stab, cfg.warmup_stab),
        ramp(cfg.lambda_kl, cfg.warmup_kl),
    )


def total_loss(
    main: dc.Node, rank: dc.Node, stab: dc.Node, kl: dc.Node, epoch: int, cfg: LossConfig
) -> tuple[dc.Node, tuple[float, float, float]]:
    """Warm-up-weighted sum of the four terms."""
    lr, ls, lk = lambda_schedule(epoch, cfg)
    total = dc.add(dc.add(dc.add(main, dc.scale(rank, lr)), dc.scale(stab, ls)), dc.scale(kl, lk))
    return total, (lr, ls, lk)
