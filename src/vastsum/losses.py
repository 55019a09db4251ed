"""Training objectives.

Dataset likelihoods (multi-annotator Gaussian NLL, soft-min BCE), pairwise
hinge ranking, KL to the standard-normal prior, and the knapsack stability
margin loss, plus the warm-up-weighted total. Every loss returns a size-1
tape node; supervision targets and noise draws arrive as plain arrays and
never receive gradients. Both margin terms are one pair hinge, `_pair_hinge`;
the stability term consults the knapsack solver on detached values only.
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
    """Mean over axis 0: one constant matmul with the [1, n] row of 1/n, so a
    [n] input gives [1] and a [n, d] input gives [1, d]."""
    n = x.value.shape[0]
    return dc.matmul(x.tape.constant(np.full((1, n), 1.0 / n)), x)


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
    y_mean = np.add.reduce(annotations, 0) / len(annotations)
    spread = np.add.reduce((annotations - y_mean) ** 2, 0) / len(annotations)
    var = dc.exp(log_v)
    # 1/(v + eps) via exp(-log(v + eps)); v + eps > 0 always under the clamp
    recip = dc.exp(dc.scale(dc.log(dc.add(var, tape.constant(np.full(mu.value.shape, epsilon)))), -1.0))
    sq_err = dc.add(dc.square(dc.subtract(tape.constant(y_mean), mu)), tape.constant(spread))
    return dc.scale(_mean_all(dc.add(log_v, dc.multiply(sq_err, recip))), 0.5)


def annotator_bces(p: dc.Node, annotations) -> dc.Node:
    """[U] node: each annotator's mean BCE against the probabilities.

    BCE_a = -(1/T) sum_t (y_at log p_t + (1 - y_at) log(1 - p_t)), one
    constant matmul per log term. Probabilities are clamped to
    [1e-7, 1 - 1e-7] before the logs.
    """
    annotations = np.asarray(annotations, dtype=np.float64)
    t_len = p.value.shape[0]
    if annotations.ndim != 2 or annotations.shape[1] != t_len:
        raise ValueError(f"annotations shape {annotations.shape} does not match T={t_len}")
    tape = p.tape
    p_clipped = dc.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)
    log_1p = dc.log(dc.subtract(tape.constant(np.ones(t_len)), p_clipped))
    return dc.add(
        dc.matmul(tape.constant(-annotations / t_len), dc.log(p_clipped)),
        dc.matmul(tape.constant((annotations - 1.0) / t_len), log_1p),
    )


def soft_min(x: dc.Node, tau_sm: float) -> dc.Node:
    """-tau * log sum_a exp(-x_a / tau) over a [U] node, with the max-shift trick."""
    if not tau_sm > 0:
        raise ValueError("tau_sm must be > 0")
    tape = x.tape
    scaled = dc.scale(x, -1.0 / tau_sm)
    top = np.maximum.reduce(scaled.value, None)
    terms = dc.exp(dc.subtract(scaled, tape.constant(np.full(scaled.value.shape, top))))
    total = dc.matmul(tape.constant(np.ones((1, x.value.shape[0]))), terms)
    return dc.scale(dc.add(tape.constant(np.array([top])), dc.log(total)), -tau_sm)


def likelihood(
    mode: str, signal: dc.Node, log_v: dc.Node, annotations, cfg: LossConfig
) -> tuple[dc.Node, np.ndarray]:
    """The mode's data term and the target the ranking loss ranks the signal by.

    tvsum: signal is the logits mu; Gaussian NLL, ranked against the
    annotator mean. summe: signal is the calibrated probabilities; soft-min
    BCE, ranked against the annotator whose BCE is smallest (ties resolve to
    the lowest annotator index).
    """
    annotations = np.asarray(annotations, dtype=np.float64)
    if mode == "tvsum":
        target = np.add.reduce(annotations, 0) / len(annotations)
        return tvsum_nll(signal, log_v, annotations, cfg.epsilon), target
    if mode == "summe":
        bces = annotator_bces(signal, annotations)
        return soft_min(bces, cfg.tau_softmin), annotations[int(bces.value.argmin())]
    raise ValueError(f"unknown dataset mode {mode!r}")


def _pair_hinge(q: dc.Node, first, second, margin: float) -> dc.Node:
    """Mean of max(0, m - (q_a - q_b)) over the index pairs (first[k], second[k])."""
    gap = dc.subtract(dc.gather_rows(q, first), dc.gather_rows(q, second))
    margins = q.tape.constant(np.full(len(first), float(margin)))
    return _mean_all(dc.clip(dc.subtract(margins, gap), 0.0, np.inf))


def ranking_hinge(q: dc.Node, r, pairs, margin: float) -> dc.Node:
    """Mean hinge max(0, m - (q_i - q_j)) over pairs with r_i > r_j.

    Pairs failing the strict target inequality are dropped; no valid pairs
    means zero loss.
    """
    r = np.asarray(r, dtype=np.float64)
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    kept = pairs[r[pairs[:, 0]] > r[pairs[:, 1]]]
    if not len(kept):
        return q.tape.constant(np.zeros(1))
    return _pair_hinge(q, kept[:, 0], kept[:, 1], margin)


def kl_standard_normal(mu_z: dc.Node, log_var_z: dc.Node) -> dc.Node:
    """KL(q || N(0, I)) summed over latent dims, averaged over timesteps."""
    tape = mu_z.tape
    d_z = mu_z.value.shape[1]
    elem = dc.subtract(
        dc.add(dc.square(mu_z), dc.exp(log_var_z)),
        dc.add(tape.constant(np.ones_like(mu_z.value)), log_var_z),
    )
    per_dim = _mean_all(elem)  # 1 x d_z
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
    two pair hinges: unstable selected segments over the best unselected one
    (j*), the worst selected one (i*) over unstable unselected ones. Empty
    sets contribute nothing.
    """
    noise = np.asarray(noise, dtype=np.float64)
    s = segment_scores.value
    m = s.shape[0]
    if noise.ndim != 2 or noise.shape[1] != m:
        raise ValueError(f"noise shape {noise.shape} does not match M={m}")
    rows = np.concatenate((s[None], s + noise))  # np.vstack's call
    batch = knapsack_select(SegmentKnapsackInstance(rows, weights, capacity))
    base = batch[0]
    freq = np.add.reduce(batch[1:], 0) / noise.shape[0]
    unstable = (freq > 0.0) & (freq < 1.0)
    selected = base.nonzero()[0]
    unselected = (~base).nonzero()[0]
    terms = []
    up_sel = (base & unstable).nonzero()[0]
    if up_sel.size and unselected.size:
        j_star = unselected[s[unselected].argmax()]
        terms.append(_pair_hinge(segment_scores, up_sel, np.full(len(up_sel), j_star), cfg.stab_margin))
    up_unsel = (~base & unstable).nonzero()[0]
    if up_unsel.size and selected.size:
        i_star = selected[s[selected].argmin()]
        terms.append(_pair_hinge(segment_scores, np.full(len(up_unsel), i_star), up_unsel, cfg.stab_margin))
    if not terms:
        return segment_scores.tape.constant(np.zeros(1))
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
