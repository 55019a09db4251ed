"""Reverse-mode automatic differentiation over a recorded tape.

Covers exactly the primitives the scoring network, the probabilistic head and
the smooth loss terms need. Values are float64 numpy arrays; a Tape owns the
nodes it created and is confined to one logical thread. `backward` writes each
parameter's gradient into the view of that name in a `FlatTensors`, a mapping
whose arrays are views of one flat buffer.

Shapes are exact: `add`, `subtract` and `multiply` take two operands of one
shape and raise ShapeError otherwise, so no VJP reduces a broadcast. The two
broadcasts the model needs live inside the ops that own them: `affine` adds
its bias to every row of `x @ w`, and `layer_norm` applies its gain and bias
to every row.

A constant carries no gradient: `matmul` and `affine` return None for a
`const` operand instead of computing its product, and `backward` skips None.

Every node points at its tape and the tape's node list points back, so a
tape is a reference cycle, which only CPython's cyclic collector would free.
Whoever makes gradient tapes over and over calls `Tape.release` once it is
done with one: `trainer.train` after each video's `backward`, and
`finite_difference_check` after each loss. Release drops the node list, so
reference counting frees the values, the VJP closures and the arrays they
capture as soon as the caller's last node goes. A released tape refuses to
record or to run `backward`.

`Tape(grad=False)` records no graph, as for inference (`trainer.predict_scores`):
its nodes have no parents and no VJP, and the tape keeps no node list, so an
activation is freed as soon as its last consumer returns and `backward`
refuses the tape. Node ids still count up. The primitives do not branch on
the flag; work that only the backward pass needs is done in the VJP.

Primitives call ufuncs and their methods, never numpy's Python-level
wrappers, which on a desk-scale step's small arrays cost as much as the
arithmetic: `np.add.reduce(x, axis, keepdims=True) / n` for `x.mean`,
`np.multiply.outer` for `np.outer`, a zeroed buffer for `np.pad`. Each runs
the wrapper's ufunc on the same operands in the same order, so the bits are
the wrapper's. `np.clip` stays (`np.minimum(np.maximum(...))` differs on
signed zeros), and so does `zeros_like` where an operand may not be
C-ordered: it keeps the layout, which a later sum's order follows.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .errors import NumericError, ShapeError

LN_EPS = 1e-5

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class Node:
    """One tape entry: forward value plus the local vector-Jacobian product."""

    __slots__ = ("tape", "nid", "kind", "value", "parents", "vjp", "name")

    def __init__(self, tape, nid, kind, value, parents, vjp, name=None):
        self.tape = tape
        self.nid = nid
        self.kind = kind
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.name = name

    def __repr__(self):
        return f"<Node {self.nid} {self.kind} {self.value.shape}>"


class Tape:
    """Append-only record of a computation; node inputs always precede outputs.
    `nodes` is None once the tape is released, and stays empty on a tape
    made with grad=False, which records no graph (see the module docstring)."""

    def __init__(self, grad: bool = True):
        self.grad = grad
        self.nodes: list[Node] | None = []
        self._count = 0

    def _record(self, kind, value, parents, vjp, name=None) -> Node:
        nodes = self.nodes
        if nodes is None:
            raise ValueError("tape was released; record on a new tape")
        nid = self._count
        self._count = nid + 1
        if not self.grad:
            return Node(self, nid, kind, value, (), None, name)
        node = Node(self, nid, kind, value, parents, vjp, name)
        nodes.append(node)
        return node

    def release(self) -> None:
        """Drop the node list, which breaks the node-tape cycle (see the
        module docstring). Nodes the caller holds keep their values."""
        self.nodes = None

    def constant(self, value) -> Node:
        return self._record("const", np.asarray(value, dtype=np.float64), (), None)

    def param(self, name: str, value) -> Node:
        return self._record("param", np.asarray(value, dtype=np.float64), (), None, name=name)


class FlatTensors(dict):
    """Named float64 tensors that are views of one 1-D buffer, `flat`.

    The views lie in `flat` in sorted-name order, the checkpoint's tensor
    order, and the mapping keeps the order of `shapes`. A new buffer is
    zeroed. Vector ops on `flat` update every tensor at once; write a tensor
    in place, since assigning a new array to a name unlinks it from `flat`.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]], flat: np.ndarray | None = None):
        self.shapes = dict(shapes)
        sizes = {name: math.prod(shape) for name, shape in self.shapes.items()}
        order = sorted(sizes)
        start = dict(zip(order, itertools.accumulate((sizes[n] for n in order), initial=0)))
        self.flat = np.zeros(sum(sizes.values())) if flat is None else flat
        super().__init__(
            (name, self.flat[start[name] : start[name] + sizes[name]].reshape(shape))
            for name, shape in self.shapes.items()
        )


def scalar_value(node: Node) -> float:
    """Extract the float from a size-1 node."""
    if node.value.size != 1:
        raise ValueError(f"node has {node.value.size} elements, expected 1")
    return float(node.value.reshape(-1)[0])


def lift_params(tape: Tape, params: dict[str, np.ndarray]) -> dict[str, Node]:
    """Register every parameter array on the tape, preserving dict order.
    The nodes hold the arrays given, not copies, so a FlatTensors' views stay
    views of its buffer."""
    return {name: tape.param(name, value) for name, value in params.items()}


def _same_tape(*nodes: Node) -> Tape:
    tape = nodes[0].tape
    for n in nodes[1:]:
        if n.tape is not tape:
            raise ValueError("operands live on different tapes")
    return tape


def _same_shape(a: Node, b: Node, op: str) -> Tape:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"{op}: shapes {a.value.shape} and {b.value.shape} differ")
    return _same_tape(a, b)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def matmul(a: Node, b: Node, transpose_b: bool = False) -> Node:
    tape = _same_tape(a, b)
    av, bv = a.value, b.value
    need_a, need_b = a.kind != "const", b.kind != "const"
    if av.ndim == 2 and bv.ndim == 2:
        if transpose_b:
            if av.shape[1] != bv.shape[1]:
                raise ShapeError(f"matmul: {av.shape} @ {bv.shape}^T")
            out = av @ bv.T

            def vjp(g):
                return (g @ bv if need_a else None, g.T @ av if need_b else None)

        else:
            if av.shape[1] != bv.shape[0]:
                raise ShapeError(f"matmul: {av.shape} @ {bv.shape}")
            out = av @ bv

            def vjp(g):
                return (g @ bv.T if need_a else None, av.T @ g if need_b else None)

    elif av.ndim == 2 and bv.ndim == 1 and not transpose_b:
        if av.shape[1] != bv.shape[0]:
            raise ShapeError(f"matmul: {av.shape} @ {bv.shape}")
        out = av @ bv

        def vjp(g):
            return (np.multiply.outer(g, bv) if need_a else None, av.T @ g if need_b else None)

    else:
        raise ShapeError(f"matmul: unsupported operand ranks {av.shape} @ {bv.shape}")
    return tape._record("matmul", out, (a, b), vjp)


def affine(x: Node, w: Node, b: Node) -> Node:
    """x @ w + b in one node: a [T, D] input with a [D, C] weight and [C] bias,
    or with a [D] weight and [1] bias (one output per row)."""
    tape = _same_tape(x, w, b)
    xv, wv, bv = x.value, w.value, b.value
    bias_shape = wv.shape[1:] if wv.ndim == 2 else (1,)
    if xv.ndim != 2 or wv.ndim not in (1, 2) or xv.shape[1] != wv.shape[0] or bv.shape != bias_shape:
        raise ShapeError(f"affine: {xv.shape} @ {wv.shape} + {bv.shape}")
    need_x, need_w, need_b = x.kind != "const", w.kind != "const", b.kind != "const"

    def vjp(g):
        gx = (g @ wv.T if wv.ndim == 2 else np.multiply.outer(g, wv)) if need_x else None
        return (
            gx,
            xv.T @ g if need_w else None,
            np.add.reduce(g, 0).reshape(bias_shape) if need_b else None,
        )

    return tape._record("affine", xv @ wv + bv, (x, w, b), vjp)


def add(a: Node, b: Node) -> Node:
    tape = _same_shape(a, b, "add")
    return tape._record("add", a.value + b.value, (a, b), lambda g: (g, g))


def subtract(a: Node, b: Node) -> Node:
    tape = _same_shape(a, b, "subtract")
    return tape._record("subtract", a.value - b.value, (a, b), lambda g: (g, -g))


def multiply(a: Node, b: Node) -> Node:
    tape = _same_shape(a, b, "multiply")
    av, bv = a.value, b.value
    return tape._record("multiply", av * bv, (a, b), lambda g: (g * bv, g * av))


def layer_norm(a: Node, gain: Node, bias: Node) -> Node:
    """Normalize each row of a [T, d] input (population variance plus LN_EPS),
    then scale by the [d] gain and shift by the [d] bias."""
    tape = _same_tape(a, gain, bias)
    av, gv, bv = a.value, gain.value, bias.value
    if av.ndim != 2 or gv.shape != av.shape[1:] or bv.shape != av.shape[1:]:
        raise ShapeError(f"layer-norm: {av.shape} with gain {gv.shape}, bias {bv.shape}")
    d = av.shape[1]
    mu = np.add.reduce(av, -1, keepdims=True) / d
    centered = av - mu
    var = np.add.reduce(centered**2, -1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LN_EPS)
    y = centered * inv

    def vjp(g):
        gy = g * gv
        gm = np.add.reduce(gy, -1, keepdims=True) / d
        gym = np.add.reduce(gy * y, -1, keepdims=True) / d
        return (inv * (gy - gm - y * gym), np.add.reduce(g * y, 0), np.add.reduce(g, 0))

    return tape._record("layer-norm", y * gv + bv, (a, gain, bias), vjp)


def softmax_rows(a: Node) -> Node:
    av = a.value
    shifted = av - np.maximum.reduce(av, -1, keepdims=True)
    e = np.exp(shifted)
    p = e / np.add.reduce(e, -1, keepdims=True)

    def vjp(g):
        return (p * (g - np.add.reduce(g * p, -1, keepdims=True)),)

    return a.tape._record("softmax-rows", p, (a,), vjp)


def gelu(a: Node) -> Node:
    """Exact Gaussian-CDF GELU: x * Phi(x)."""
    av = a.value
    cdf = 0.5 * (1.0 + erf(av * _INV_SQRT2))

    def vjp(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * av * av)
        return (g * (cdf + av * pdf),)

    return a.tape._record("gelu", av * cdf, (a,), vjp)


def sigmoid(a: Node) -> Node:
    """1/(1+exp(-a)) for a >= 0 and exp(a)/(1+exp(a)) below, from one exp
    and one divide: e = exp(-|a|) is exp(-a) above zero and exp(a) below, so
    neither branch overflows, and where(a >= 0, 1, e) / (1 + e) divides the
    two branches' own operands."""
    av = a.value
    e = np.exp(-np.abs(av))
    s = np.where(av >= 0, 1.0, e) / (1.0 + e)
    return a.tape._record("sigmoid", s, (a,), lambda g: (g * s * (1.0 - s),))


def exp(a: Node) -> Node:
    ev = np.exp(a.value)
    return a.tape._record("exp", ev, (a,), lambda g: (g * ev,))


def log(a: Node) -> Node:
    av = a.value
    return a.tape._record("log", np.log(av), (a,), lambda g: (g / av,))


def square(a: Node) -> Node:
    av = a.value
    return a.tape._record("square", av * av, (a,), lambda g: (2.0 * g * av,))


def clip(a: Node, lo: float, hi: float) -> Node:
    """Clamp elementwise; the gradient is 1 on [lo, hi] and 0 outside."""
    if lo > hi:
        raise ValueError(f"clip: lower bound {lo} exceeds upper bound {hi}")
    av = a.value
    return a.tape._record(
        "clip", np.clip(av, lo, hi), (a,), lambda g: (np.where((av >= lo) & (av <= hi), g, 0.0),)
    )


def gather_rows(a: Node, indices: Sequence[int]) -> Node:
    """Rows `indices` of a. The VJP scatter-adds g with `np.add.at`, which
    sums repeated rows; an ascending `range` holds no repeat, so its VJP adds
    g into the slice with the range's bounds, which gives the same bytes."""
    idx = np.asarray(indices, dtype=np.intp)
    av = a.value
    if np.logical_or.reduce((idx < 0) | (idx >= av.shape[0]), None):
        raise ShapeError(f"gather-rows: index out of range for {av.shape[0]} rows")
    out = av[idx]
    ascending = isinstance(indices, range) and indices.step > 0

    def vjp(g):
        da = np.zeros_like(av)
        if ascending:
            da[indices.start : indices.stop : indices.step] += g
        else:
            np.add.at(da, idx, g)
        return (da,)

    return a.tape._record("gather-rows", out, (a,), vjp)


def depthwise_conv1d(x: Node, w: Node) -> Node:
    """Per-channel temporal convolution with same-length zero padding.

    x is T x d, w is d x k with k odd. Channel c of the output mixes only
    channel c of the input.
    """
    tape = _same_tape(x, w)
    xv, wv = x.value, w.value
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0]:
        raise ShapeError(f"depthwise-conv1d: {xv.shape} with kernel {wv.shape}")
    k = wv.shape[1]
    if k % 2 == 0:
        raise ValueError("depthwise-conv1d kernel width must be odd")
    t_len, off = xv.shape[0], k // 2
    # zero-padded as np.pad pads: Fortran order for a Fortran-only input, else C
    order = "F" if xv.flags.fnc else "C"
    padded = np.zeros((t_len + 2 * off, xv.shape[1]), order=order)
    padded[off : off + t_len] = xv
    out = np.zeros_like(xv)
    for j in range(k):
        out += padded[j : j + t_len] * wv[:, j]

    def vjp(g):
        dpad = np.zeros(padded.shape, order=order)
        dw = np.empty_like(wv)  # every column is written below
        for j in range(k):
            dpad[j : j + t_len] += g * wv[:, j]
            dw[:, j] = np.add.reduce(g * padded[j : j + t_len], 0)
        return (dpad[off : off + t_len], dw)

    return tape._record("depthwise-conv1d", out, (x, w), vjp)


def segment_pool(a: Node, seg) -> Node:
    """A [T] node pooled into [M] segment means, the decoder's knapsack values, by
    `seg`, the video's `timeline.SegmentIndexMap`: value `seg(a.value)`, VJP `seg.adjoint(g)`."""
    av = a.value
    if av.ndim != 1:
        raise ShapeError(f"segment-pool: takes a [T] input, got {av.shape}")
    return a.tape._record("segment-pool", seg(av), (a,), lambda g: (seg.adjoint(g),))


def concat_last(nodes: Sequence[Node]) -> Node:
    nodes = list(nodes)
    tape = _same_tape(*nodes)
    lead = nodes[0].value.shape[:-1]
    if any(n.value.shape[:-1] != lead for n in nodes):
        raise ShapeError("concat-last-dim: leading dimensions differ")
    widths = [n.value.shape[-1] for n in nodes]
    out = np.concatenate([n.value for n in nodes], axis=-1)

    def vjp(g):
        pieces, start = [], 0
        for width in widths:
            pieces.append(g[..., start : start + width])
            start += width
        return tuple(pieces)

    return tape._record("concat-last-dim", out, tuple(nodes), vjp)


def scale(a: Node, s: float) -> Node:
    s = float(s)
    return a.tape._record("scalar-scale", a.value * s, (a,), lambda g: (g * s,))


# ---------------------------------------------------------------------------
# backward pass and gradient checking
# ---------------------------------------------------------------------------


def backward(
    tape: Tape, loss: Node, into: FlatTensors | None = None, add: bool = False
) -> FlatTensors:
    """d(loss)/d(param) for every parameter node on the tape, written into the
    view of the parameter's name in `into` (added to it with add=True), or
    into a new FlatTensors over the tape's parameters when `into` is None.

    Parameters the loss never touches get zero gradients (add nothing). The
    pass never mutates the tape, so repeated calls are bit-identical.
    Finiteness is checked once, on the loss and on `into`'s buffer. A tape
    made with grad=False raises ValueError: it recorded no graph.
    """
    nodes = tape.nodes
    if nodes is None:
        raise ValueError("tape was released; record on a new tape")
    if not tape.grad:
        raise ValueError("tape records no gradients (made with grad=False); nothing to backpropagate")
    if loss.tape is not tape:
        raise ValueError("loss node does not belong to this tape")
    if loss.value.size != 1:
        raise ValueError("loss must be a scalar (size-1) node")
    if not np.logical_and.reduce(np.isfinite(loss.value), None):
        for node in nodes[: loss.nid + 1]:
            if not np.isfinite(node.value).all():
                raise NumericError(
                    f"non-finite forward value at node {node.nid} ({node.kind})",
                    node_id=node.nid,
                )
    grads: list[np.ndarray | None] = [None] * len(nodes)
    grads[loss.nid] = np.ones(loss.value.shape)
    sweep = nodes[loss.nid :: -1]
    for node in sweep:
        g = grads[node.nid]
        if g is None or node.vjp is None:
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            if pg is not None:
                grads[parent.nid] = pg if grads[parent.nid] is None else grads[parent.nid] + pg
    params = [node for node in nodes if node.kind == "param"]
    if into is None:
        into, add = FlatTensors({n.name: n.value.shape for n in params}), False
    for n in params:
        g = grads[n.nid]
        if not add:
            into[n.name][...] = 0.0 if g is None else g
        elif g is not None:
            into[n.name] += g
    if not np.logical_and.reduce(np.isfinite(into.flat), None):
        # Replay on the sweep's gradients: every node up to the first
        # non-finite VJP output saw what a per-VJP check would have given
        # it, so that node is named; else finite terms overflowed in a sum,
        # and the first parameter whose gradient is not finite is named.
        culprit = next((n for n in params if not np.isfinite(into[n.name]).all()), loss)
        for node in sweep:
            g = grads[node.nid]
            if g is not None and node.vjp and not all(
                np.isfinite(pg).all() for pg in node.vjp(g) if pg is not None
            ):
                culprit = node
                break
        raise NumericError(
            f"non-finite gradient produced by node {culprit.nid} ({culprit.kind})",
            node_id=culprit.nid,
        )
    return into


def finite_difference_check(
    f: Callable[[dict[str, np.ndarray]], Node],
    params: dict[str, np.ndarray],
    step: float = 1e-4,
) -> float:
    """Compare backward() against central differences over every parameter entry.

    `f` builds a fresh tape from the parameter dict and returns the scalar
    loss node; each tape is released once it is read. Returns the worst
    relative error max_i |g_i - ghat_i| / max(1e-8, |g_i| + |ghat_i|), or
    NaN as soon as one comparison is NaN, so no tolerance accepts it. The
    caller keeps f smooth at the evaluation point (no active clamps or hinge
    kinks).
    """
    loss = f(params)
    analytic = backward(loss.tape, loss)
    loss.tape.release()

    def probe() -> float:
        loss = f(params)
        value = scalar_value(loss)
        loss.tape.release()
        return value

    worst = 0.0
    for name, theta in params.items():
        flat = theta.reshape(-1)
        ga = analytic[name].reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            hi = probe()
            flat[i] = saved - step
            lo = probe()
            flat[i] = saved
            numeric = (hi - lo) / (2.0 * step)
            err = abs(ga[i] - numeric) / max(1e-8, abs(ga[i]) + abs(numeric))
            if math.isnan(err):
                return math.nan
            worst = max(worst, err)
    return worst
