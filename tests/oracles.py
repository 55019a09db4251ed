"""Independent brute-force oracles shared by the unit and acceptance tests.

Everything here deliberately avoids the library's own code paths: plain
Python loops, exhaustive enumeration, and textbook formulas. Where a final
formula is shared with the implementation (e.g. the tau-b normalization),
the combinatorial quantities feeding it are derived independently. The
exceptions are `mean_rows`, a tape reducer the gradient tests build losses
with, and the earlier formulations kept to check the current ones bit for
bit: `reference_value_dp`, `packed_key_dp`, `unreduced_knapsack`,
`reference_stability_loss` and `tobytes_params_to_bytes`.
"""

from __future__ import annotations

import json
import math
from itertools import combinations

import numpy as np

import vastsum.diffcore as dc
import vastsum.decoder as decoder
from vastsum.decoder import (
    SegmentKnapsackInstance,
    _backtrack,
    _keyed_dp,
    _ranges,
    _value_dp,
    knapsack_select,
)


def brute_force_knapsack(values, weights, capacity):
    """Enumerate all subsets; return (best_value, best_subset) under the
    value-desc / weight-asc / lexicographic total order, accumulating values
    in ascending index order."""
    n = len(values)
    best = (0.0, 0, ())
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            w = sum(weights[i] for i in subset)
            if w > capacity:
                continue
            v = 0.0
            for i in subset:
                v += float(values[i])
            cand = (v, w, subset)
            if cand[0] > best[0] or (
                cand[0] == best[0]
                and (cand[1] < best[1] or (cand[1] == best[1] and cand[2] < best[2]))
            ):
                best = cand
    return best[0], best[2]


def reference_value_dp(rows, weights, cap, fits):
    """The row-major value DP `decoder._value_dp` replaced, kept as its
    reference: [K, cap+1] tables, a masked copy for each item's update and a
    per-row tie check on every item. Returns the [K, M] selection read off
    cell cap, and which rows met an exact value tie."""
    k = rows.shape[0]
    value = np.zeros((k, cap + 1))
    keep = np.zeros((len(fits), k, cap + 1), dtype=bool)
    cand_value, eq = np.empty_like(value), np.empty((k, cap + 1), dtype=bool)
    tied = np.zeros(k, dtype=bool)
    for j, i in enumerate(fits):
        w = weights[i]
        n = cap + 1 - w
        cv = np.add(value[:, :n], rows[:, i : i + 1], out=cand_value[:, :n])
        take = np.greater(cv, value[:, w:], out=keep[j, :, w:])
        tied |= np.equal(cv, value[:, w:], out=eq[:, :n]).any(axis=1)
        np.copyto(value[:, w:], cv, where=take)
    selection = np.zeros((k, rows.shape[1]), dtype=bool)
    flat = keep.reshape(-1)
    cell = np.arange(k) * (cap + 1) + cap
    for j in range(len(fits) - 1, -1, -1):
        taken = flat[cell + j * k * (cap + 1)]
        selection[:, fits[j]] = taken
        np.subtract(cell, weights[fits[j]], out=cell, where=taken)
    return selection, tied


def unreduced_knapsack(values, weights, cap):
    """`decoder.knapsack_select` without the reduction, kept as its
    reference: the same row blocks, each solved by the value pass and the
    keyed pass over every fitting item (the passes as imported, so a test
    that spies on the decoder's does not see these calls)."""
    rows = np.atleast_2d(np.asarray(values, dtype=np.float64))
    fits = [i for i, w in enumerate(weights) if w <= cap]
    block = max(1, decoder._BLOCK_CELLS // (cap + 1))
    selection = np.empty(rows.shape, dtype=bool)
    for s in range(0, len(rows), block):
        part, tied = _value_dp(rows[s : s + block], tuple(weights), cap, fits)
        if tied.any():
            part[tied] = _keyed_dp(rows[s : s + block][tied], tuple(weights), cap, fits)
        selection[s : s + block] = part
    return selection.reshape(np.shape(values))


def _rerank(key, shift, item_bits, cap):
    """Re-encode each row's set ranks (a column of key) densely, in the same
    order, and clear the low item_bits bits for the next items; weights are
    kept."""
    weight = -(-key // (1 << shift))
    rank = key - weight * (1 << shift)
    order = np.argsort(rank, axis=0, kind="stable")
    ranked = np.take_along_axis(rank, order, axis=0)
    dense = np.zeros_like(rank)
    np.cumsum(ranked[1:] != ranked[:-1], axis=0, out=dense[1:])
    np.put_along_axis(rank, order, dense, axis=0)
    return weight * (1 << shift) + (rank - cap) * (1 << item_bits)


def packed_key_dp(rows, weights, cap, fits):
    """The keyed DP `decoder._keyed_dp` replaced, kept as its reference: each
    cell's set is its value and one int64 key, weight * 2**shift + rank, and
    equal values go to the smaller key. The rank orders sets by "the
    smallest index in the symmetric difference belongs to the better set":
    taking item i subtracts 2**bit(i) from its base's rank, earlier items on
    higher bits, and every few dozen items `_rerank` re-encodes the
    ranks densely, in the same order, before the bits run out. Only the
    live cells of `decoder._ranges` are solved, and `decoder._backtrack`
    reads the selection off a keep table."""
    k = rows.shape[0]
    # A dense re-rank leaves ranks in [-cap, 0] * 2**item_bits, and the next
    # item_bits items take bits item_bits-1 .. 0; weights are <= cap, so
    # every key stays below 2**62 in magnitude.
    item_bits = 62 - cap.bit_length() - (cap + 1).bit_length()
    shift = item_bits + (cap + 1).bit_length()
    items = np.ascontiguousarray(rows.T)
    value = np.zeros((cap + 1, k))
    key = np.zeros((cap + 1, k), dtype=np.int64)
    keep = np.zeros((len(fits), cap + 1, k), dtype=bool)
    cand_value, cand_key = np.empty_like(value), np.empty_like(key)
    tie, lower = np.empty((cap + 1, k), dtype=bool), np.empty((cap + 1, k), dtype=bool)
    bounds = _ranges(weights, cap, fits)
    bit, top = item_bits, bounds[0][1] if fits else 0
    for j, i in enumerate(fits):
        if bit == 0:
            key, bit = _rerank(key, shift, item_bits, cap), item_bits
        bit -= 1
        lo, hi = bounds[j]
        if hi > top:
            value[top + 1 : hi + 1] = value[top]
            key[top + 1 : hi + 1] = key[top]
            top = hi
        w = weights[i]
        n = hi + 1 - lo
        cv = np.add(value[lo - w : hi + 1 - w], items[i], out=cand_value[:n])
        ck = np.add(key[lo - w : hi + 1 - w], (w << shift) - (1 << bit), out=cand_key[:n])
        old_value, old_key = value[lo : hi + 1], key[lo : hi + 1]
        take = np.greater(cv, old_value, out=keep[j, lo : hi + 1])
        tied = np.equal(cv, old_value, out=tie[:n])
        tied &= np.less(ck, old_key, out=lower[:n])
        take |= tied
        np.fmax(old_value, cv, out=old_value)
        np.copyto(old_key, ck, where=take)
    return _backtrack(keep, weights, fits, bounds, rows.shape[1])


def naive_kendall_tau(a, b):
    """Pairwise O(n^2) tau-b with loop-counted concordances and ties."""
    n = len(a)
    concordant = discordant = ties_a = ties_b = 0
    for i in range(n):
        for j in range(i + 1, n):
            da = a[i] - a[j]
            db = b[i] - b[j]
            if da == 0:
                ties_a += 1
            if db == 0:
                ties_b += 1
            if da == 0 or db == 0:
                continue
            if (da > 0) == (db > 0):
                concordant += 1
            else:
                discordant += 1
    n0 = n * (n - 1) // 2
    if n0 == ties_a or n0 == ties_b:
        return float("nan")
    return (concordant - discordant) / math.sqrt(float((n0 - ties_a) * (n0 - ties_b)))


def naive_inversions(seq):
    """Per row of `seq`, the pairs i < j with seq[i] > seq[j], counted pair by
    pair: each entry against every later entry of its row."""
    counts = []
    for row in np.asarray(seq).tolist():
        counts.append(sum(int(np.count_nonzero(np.asarray(row[i + 1:]) < v)) for i, v in enumerate(row)))
    return counts


def counting_ranks(x):
    """Tie-averaged ranks via the counting formula 1 + #less + (#equal - 1)/2."""
    n = len(x)
    ranks = []
    for i in range(n):
        less = sum(1 for j in range(n) if x[j] < x[i])
        equal = sum(1 for j in range(n) if x[j] == x[i])
        ranks.append(1.0 + less + (equal - 1) / 2.0)
    return np.asarray(ranks)


def naive_spearman(a, b):
    """Rank-then-Pearson with counting ranks and exactly rounded sums."""
    ra = counting_ranks(a)
    rb = counting_ranks(b)
    n = len(ra)
    am = math.fsum(ra) / n
    bm = math.fsum(rb) / n
    da = ra - am
    db = rb - bm
    var_a = math.fsum(da * da)
    var_b = math.fsum(db * db)
    if var_a == 0 or var_b == 0:
        return float("nan")
    return math.fsum(da * db) / math.sqrt(var_a * var_b)


def mean_rows(node):
    """Mean over axis 0 of a tape node, the tests' reducer to a size-1 loss:
    one constant [1, n] row of 1/n, recorded as a matmul."""
    n = node.value.shape[0]
    return dc.matmul(node.tape.constant(np.full((1, n), 1.0 / n)), node)


def masked_sigmoid(x):
    """The two-branch logistic through boolean masks: 1/(1+exp(-x)) where
    x >= 0, exp(x)/(1+exp(x)) elsewhere (NaN included)."""
    x = np.asarray(x, dtype=np.float64)
    s = np.empty_like(x)
    pos = x >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    s[~pos] = ex / (1.0 + ex)
    return s


def random_partition(rng, max_segments=6, max_len=8):
    """Random contiguous inclusive-bound partition; returns (segments, n_frames)."""
    n_segments = int(rng.integers(1, max_segments + 1))
    lengths = rng.integers(1, max_len + 1, n_segments)
    segments, start = [], 0
    for length in lengths:
        segments.append((start, start + int(length) - 1))
        start += int(length)
    return tuple(segments), start


def random_picks(rng, n_frames):
    """Non-empty strictly increasing pick set within [0, n_frames)."""
    count = int(rng.integers(1, n_frames + 1))
    return tuple(sorted(rng.choice(n_frames, size=count, replace=False).tolist()))


def expand_scores(scores, picks, n_frames):
    """Pick scores expanded to the n_frames frames, piecewise constant: frame
    n takes the score of the last pick at or before it, and frames before
    the first pick take the first score. scores is [T] or [K, T]. The pick
    index of frame n is the number of picks after the first at or before n."""
    marks = np.zeros(n_frames, dtype=np.int64)
    marks[list(picks.picks[1:])] = 1
    return np.asarray(scores, dtype=np.float64)[..., np.cumsum(marks)]


def frame_weights(picks, cps):
    """The dense [M, T] pooling matrix, the reference form of calling a
    `timeline.SegmentIndexMap`: row k counts, for each pick, the frames of
    segment k that take its score (`expand_scores` of the identity), divided
    once by the segment's length. So `frame_weights(picks, cps) @ s` is
    `SegmentIndexMap(picks, cps)(s)` up to rounding, and
    `frame_weights(picks, cps).T @ g` the map's `adjoint(g)`."""
    owners = expand_scores(np.eye(len(picks)), picks, cps.n_frames)
    return np.array([owners[:, s : e + 1].sum(axis=1) / (e - s + 1) for s, e in cps.segments])


def reference_stability_loss(segment_scores, weights, capacity, cfg, noise):
    """The closure formulation `losses.stability_loss` had before both of its
    hinge terms became calls to `losses._pair_hinge`, kept as its reference:
    a local `hinge_mean` gathers the unstable segments and a broadcast anchor,
    and an `anchor_first` flag orders their gap."""
    s = segment_scores.value
    rows = np.concatenate((s[None], s + noise))
    batch = knapsack_select(SegmentKnapsackInstance(rows, weights, capacity))
    base = batch[0]
    freq = np.add.reduce(batch[1:], 0) / noise.shape[0]
    unstable = (freq > 0.0) & (freq < 1.0)
    selected = base.nonzero()[0]
    unselected = (~base).nonzero()[0]
    tape = segment_scores.tape

    def hinge_mean(ks, anchor_idx, anchor_first):
        sk = dc.gather_rows(segment_scores, ks)
        anchor = dc.gather_rows(segment_scores, np.full(len(ks), anchor_idx))
        gap = dc.subtract(sk, anchor) if anchor_first else dc.subtract(anchor, sk)
        margins = tape.constant(np.full(len(ks), cfg.stab_margin))
        return mean_rows(dc.clip(dc.subtract(margins, gap), 0.0, np.inf))

    terms = []
    up_sel = (base & unstable).nonzero()[0]
    if up_sel.size and unselected.size:
        j_star = int(unselected[s[unselected].argmax()])
        terms.append(hinge_mean(up_sel, j_star, anchor_first=True))
    up_unsel = (~base & unstable).nonzero()[0]
    if up_unsel.size and selected.size:
        i_star = int(selected[s[selected].argmin()])
        terms.append(hinge_mean(up_unsel, i_star, anchor_first=False))
    if not terms:
        return tape.constant(np.zeros(1))
    return terms[0] if len(terms) == 1 else dc.add(terms[0], terms[1])


# ---------------------------------------------------------------------------
# numpy-wrapper forms, kept as references. The library calls the ufuncs and
# C methods these wrappers reach (`ndarray.mean` -> `np.add.reduce(...) / n`,
# `np.pad` -> a zeroed buffer, `np.outer` -> `np.multiply.outer`, ...), on the
# same operands in the same order, so each form below must give its bits.
# ---------------------------------------------------------------------------


def wrapper_matvec(av, bv, g):
    """matmul of [T, D] by [D]: value and VJP."""
    return av @ bv, (np.outer(g, bv), av.T @ g)


def wrapper_affine(xv, wv, bv, g):
    """affine's value and VJP."""
    bias_shape = wv.shape[1:] if wv.ndim == 2 else (1,)
    gx = g @ wv.T if wv.ndim == 2 else np.outer(g, wv)
    return xv @ wv + bv, (gx, xv.T @ g, g.sum(axis=0).reshape(bias_shape))


def wrapper_layer_norm(av, gv, bv, g):
    """layer_norm's value and VJP through `ndarray.mean` and `ndarray.sum`."""
    mu = av.mean(axis=-1, keepdims=True)
    centered = av - mu
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + dc.LN_EPS)
    y = centered * inv
    gy = g * gv
    gm = gy.mean(axis=-1, keepdims=True)
    gym = (gy * y).mean(axis=-1, keepdims=True)
    return y * gv + bv, (inv * (gy - gm - y * gym), (g * y).sum(axis=0), g.sum(axis=0))


def wrapper_softmax_rows(av, g):
    """softmax_rows' value and VJP through `ndarray.max` and `ndarray.sum`."""
    shifted = av - av.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    return p, (p * (g - (g * p).sum(axis=-1, keepdims=True)),)


def wrapper_depthwise_conv1d(xv, wv, g):
    """depthwise_conv1d's value and VJP through `np.pad` and `zeros_like`."""
    k = wv.shape[1]
    t_len, off = xv.shape[0], k // 2
    padded = np.pad(xv, ((off, off), (0, 0)))
    out = np.zeros_like(xv)
    for j in range(k):
        out += padded[j : j + t_len] * wv[:, j]
    dpad = np.zeros_like(padded)
    dw = np.zeros_like(wv)
    for j in range(k):
        dpad[j : j + t_len] += g * wv[:, j]
        dw[:, j] = (g * padded[j : j + t_len]).sum(axis=0)
    return out, (dpad[off : off + t_len], dw)


def wrapper_tvsum_nll(mu, log_v, annotations, epsilon):
    """tvsum_nll's node, with the annotator statistics from `ndarray.mean`."""
    annotations = np.asarray(annotations, dtype=np.float64)
    tape = mu.tape
    y_mean = annotations.mean(axis=0)
    spread = ((annotations - y_mean) ** 2).mean(axis=0)
    var = dc.exp(log_v)
    recip = dc.exp(dc.scale(dc.log(dc.add(var, tape.constant(np.full_like(mu.value, epsilon)))), -1.0))
    sq_err = dc.add(dc.square(dc.subtract(tape.constant(y_mean), mu)), tape.constant(spread))
    n = mu.value.shape[0]
    mean = dc.matmul(tape.constant(np.full((1, n), 1.0 / n)), dc.add(log_v, dc.multiply(sq_err, recip)))
    return dc.scale(mean, 0.5)


def wrapper_global_norm(grads):
    """clip_global_norm's norm through `np.sum`."""
    return math.sqrt(math.fsum(float(np.sum(g * g)) for g in grads.values()))


def wrapper_segment_values(frame_scores, cps):
    """The mean of each segment's frame scores, for [N] or [K, N] frame
    scores, through `np.insert`: a 0.0 in front of each segment, then one
    `reduceat`."""
    starts = np.array([s for s, _ in cps.segments])
    padded = np.insert(frame_scores, starts, 0.0, axis=-1)
    return np.add.reduceat(padded, starts + np.arange(len(starts)), axis=-1) / cps.lengths()


def _wrapper_run_starts(xs):
    new = np.ones(xs.shape, dtype=bool)
    new[..., 1:] = xs[..., 1:] != xs[..., :-1]
    return np.maximum.accumulate(np.where(new, np.arange(xs.shape[-1]), 0), axis=-1)


def wrapper_ranks(x):
    """evaluation._ranks through `take_along_axis` and `put_along_axis`: min
    ranks, centered ranks and tied-pair counts."""
    n = x.shape[-1]
    order = np.argsort(x, axis=-1)
    xs = np.take_along_axis(x, order, axis=-1)
    starts = _wrapper_run_starts(xs)
    ends = n - _wrapper_run_starts(xs[..., ::-1])[..., ::-1]
    min_ranks, centered = np.empty_like(order), np.empty_like(order)
    np.put_along_axis(min_ranks, order, starts, axis=-1)
    np.put_along_axis(centered, order, starts + ends - n, axis=-1)
    return min_ranks, centered, (np.arange(n) - starts).sum(axis=-1)


def tobytes_params_to_bytes(params, meta=None):
    """checkpoint.params_to_bytes as it was before it joined the tensors' own
    buffers: each tensor's `tobytes()` copy, then a join that copies again."""
    arrays = {name: np.asarray(params[name], dtype="<f8") for name in sorted(params)}
    tensors, offset = {}, 0
    for name, value in arrays.items():
        tensors[name] = {"offset": offset, "shape": list(value.shape)}
        offset += value.nbytes
    doc = {"format": "vastsum-params-v2", "meta": meta or {}, "tensors": tensors}
    header = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return b"".join(
        [len(header).to_bytes(8, "little"), header]
        + [value.tobytes() for value in arrays.values()]
    )
