"""The hot paths call ufuncs and their C methods, never numpy's Python-level
wrappers, and give the wrappers' bits.

Each rewritten site is compared, value and VJP, with its wrapper form in
`oracles.py` on random shapes: C- and Fortran-ordered inputs, a constant
row, signed zeros and a NaN. The guard runs one desk-scale training step,
prediction, decode, evaluation and flip rate under `sys.setprofile` and
fails if any wrapper the paths no longer call is entered.
"""

import dataclasses
import importlib
import sys

import numpy as np
import pytest

import vastsum.diffcore as dc
from vastsum import decoder, evaluation, losses, timeline, trainer
from vastsum.config import HeadConfig, RunConfig, ScorerConfig, TrainConfig
from vastsum.data import SyntheticConfig, generate_synthetic
from vastsum.timeline import ChangePointPartition, PickSequence

from oracles import (
    expand_scores,
    random_partition,
    random_picks,
    wrapper_affine,
    wrapper_depthwise_conv1d,
    wrapper_global_norm,
    wrapper_layer_norm,
    wrapper_matvec,
    wrapper_ranks,
    wrapper_segment_values,
    wrapper_softmax_rows,
    wrapper_tvsum_nll,
)


def same(got, want):
    """Equal bits, shape, dtype and memory layout."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype and got.strides == want.strides
            and got.tobytes() == want.tobytes())


def all_same(got, want):
    return len(got) == len(want) and all(same(a, b) for a, b in zip(got, want))


def special(rng, x, kind):
    """x with one edge case written in: a constant row, signed zeros, a NaN."""
    x = x.copy()
    if kind == "constant-row":
        x[rng.integers(len(x))] = rng.standard_normal()
    elif kind == "signed-zeros":
        x.reshape(-1)[rng.random(x.size) < 0.4] = -0.0
        x.reshape(-1)[rng.random(x.size) < 0.2] = 0.0
        x[rng.integers(len(x))] = -0.0  # a whole row of -0.0
    elif kind == "nan":
        x.reshape(-1)[rng.integers(x.size)] = np.nan
    return x


KINDS = ["plain", "constant-row", "signed-zeros", "nan"]
ORDERS = ["C", "F"]


def matrices(seed, kind, order, draws=8, low=1, high=9):
    """`draws` random [T, d] inputs with the edge case `kind` and the layout
    `order`, and an upstream gradient of the same shape for each."""
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        t, d = (int(n) for n in rng.integers(low, high, 2))
        x = np.asarray(special(rng, rng.standard_normal((t, d)), kind), order=order)
        g = special(rng, rng.standard_normal((t, d)), "signed-zeros")
        yield rng, x, g


def lift(*arrays):
    tape = dc.Tape()
    return [tape.param(f"p{i}", a) for i, a in enumerate(arrays)]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("kind", KINDS)
class TestPrimitiveBits:
    def test_layer_norm(self, kind, order):
        for rng, x, g in matrices(61, kind, order):
            gain, bias = (special(rng, rng.standard_normal(x.shape[1:]), "signed-zeros") for _ in "gb")
            out = dc.layer_norm(*lift(x, gain, bias))
            value, grads = wrapper_layer_norm(x, gain, bias, g)
            assert same(out.value, value)
            assert all_same(out.vjp(g), grads)

    def test_softmax_rows(self, kind, order):
        for _, x, g in matrices(62, kind, order):
            out = dc.softmax_rows(*lift(x))
            value, grads = wrapper_softmax_rows(x, g)
            assert same(out.value, value)
            assert all_same(out.vjp(g), grads)

    def test_affine(self, kind, order):
        for rng, x, _ in matrices(63, kind, order):
            c = int(rng.integers(1, 6))
            wide = np.asarray(special(rng, rng.standard_normal((x.shape[1], c)), kind), order=order)
            for w, b in ((wide, rng.standard_normal(c)), (wide[:, 0].copy(), rng.standard_normal(1))):
                out = dc.affine(*lift(x, w, b))
                g = special(rng, rng.standard_normal(out.value.shape), "signed-zeros")
                value, grads = wrapper_affine(x, w, b, g)
                assert same(out.value, value)
                assert all_same(out.vjp(g), grads)

    def test_matmul_by_a_vector(self, kind, order):
        for rng, x, _ in matrices(64, kind, order):
            v = special(rng, rng.standard_normal(x.shape[1]), kind)
            out = dc.matmul(*lift(x, v))
            g = special(rng, rng.standard_normal(x.shape[0]), "signed-zeros")
            value, grads = wrapper_matvec(x, v, g)
            assert same(out.value, value)
            assert all_same(out.vjp(g), grads)

    @pytest.mark.parametrize("width", [1, 3, 5])
    def test_depthwise_conv1d(self, kind, order, width):
        for rng, x, g in matrices(65 + width, kind, order):
            w = np.asarray(special(rng, rng.standard_normal((x.shape[1], width)), kind), order=order)
            out = dc.depthwise_conv1d(*lift(x, w))
            value, grads = wrapper_depthwise_conv1d(x, w, g)
            assert same(out.value, value)
            assert all_same(out.vjp(g), grads)


class TestLossBits:
    @pytest.mark.parametrize("kind", ["plain", "constant-row", "signed-zeros"])
    def test_tvsum_nll_value_and_gradients(self, kind):
        # tvsum_nll takes the annotator mean and spread from np.add.reduce
        rng = np.random.default_rng(70)
        for _ in range(8):
            u, t = (int(n) for n in rng.integers(1, 7, 2))
            ann = special(rng, rng.random((u, t)), kind)
            mu, log_v = rng.standard_normal(t), rng.standard_normal(t) * 0.5
            got, want = (nll(*lift(mu, log_v), ann, 1e-6) for nll in (losses.tvsum_nll, wrapper_tvsum_nll))
            assert same(got.value, want.value)
            assert same(dc.backward(got.tape, got).flat, dc.backward(want.tape, want).flat)

    @pytest.mark.parametrize("kind", ["plain", "signed-zeros", "nan"])
    def test_clip_global_norm(self, kind):
        rng = np.random.default_rng(71)
        for _ in range(8):
            shapes = {f"t{i}": tuple(int(n) for n in rng.integers(1, 6, int(rng.integers(1, 3))))
                      for i in range(int(rng.integers(1, 6)))}
            grads = dc.FlatTensors(shapes)
            grads.flat[...] = special(rng, rng.standard_normal(grads.flat.size), kind)
            norm = wrapper_global_norm(grads)
            max_norm = norm / 2 if norm > 0 else 1.0  # a NaN norm rescales by NaN
            want = grads.flat if norm == 0 else grads.flat * (max_norm / norm)
            assert same(trainer.clip_global_norm(grads, max_norm).flat, want)


class TestDecodeAndRankBits:
    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("rows", [None, 1, 4])
    @pytest.mark.parametrize("kind", KINDS)
    def test_segment_values(self, kind, rows, order):
        rng = np.random.default_rng(72)
        for _ in range(12):
            # segments past 8 frames take numpy's pairwise summation
            cps = ChangePointPartition(*random_partition(rng, max_len=40))
            picks = PickSequence(random_picks(rng, cps.n_frames))
            shape = (len(picks),) if rows is None else (rows, len(picks))
            scores = np.asarray(special(rng, rng.standard_normal(shape), kind), order=order)
            got = timeline.SegmentIndexMap(picks, cps)(scores)
            assert same(got, wrapper_segment_values(expand_scores(scores, picks, cps.n_frames), cps))

    @pytest.mark.parametrize("kind", ["plain", "ties"])
    def test_fortran_rows_select_as_single_decodes(self, kind):
        rng = np.random.default_rng(74)
        for _ in range(12):
            cps = ChangePointPartition(*random_partition(rng, max_len=40))
            picks = PickSequence(random_picks(rng, cps.n_frames))
            shape = (int(rng.integers(2, 7)), len(picks))
            rows = rng.integers(0, 3, shape).astype(np.float64) if kind == "ties" else rng.standard_normal(shape)
            rows = np.asfortranarray(rows)
            rho = float(rng.uniform(0.1, 0.6))
            batch = decoder.select_segments(rows, timeline.SegmentIndexMap(picks, cps), rho)
            assert batch.shape == (len(rows), cps.n_segments)
            for row, selection in zip(rows, batch):
                single = decoder.decode_summary(row, picks, cps, rho).selected_segments
                assert tuple(selection.nonzero()[0].tolist()) == single

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("rows", [None, 1, 5])
    @pytest.mark.parametrize("kind", ["ties", "signed-zeros", "nan"])
    def test_ranks(self, kind, rows, order):
        rng = np.random.default_rng(73)
        for _ in range(12):
            n = int(rng.integers(2, 40))
            shape = (n,) if rows is None else (rows, n)
            if kind == "ties":
                x = rng.integers(0, 4, shape).astype(np.float64)
            else:
                x = special(rng, rng.standard_normal(shape), kind)
            x = np.asarray(x, order=order)
            assert all_same(evaluation._ranks(x), wrapper_ranks(x))


# The wrappers the tape, decode and eval paths no longer call, by the
# qualified name of the Python function the profiler sees entered.
REMOVED_WRAPPERS = (
    "numpy._core._methods._mean",  # ndarray.mean
    "numpy._core._methods._sum",  # ndarray.sum
    "numpy._core._methods._amax",  # ndarray.max
    "numpy._core._methods._any",  # ndarray.any
    "numpy._core._methods._all",  # ndarray.all
    "numpy.sum",
    "numpy.pad",
    "numpy.insert",
    "numpy.repeat",
    "numpy.outer",
    "numpy.vstack",
    "numpy.flatnonzero",
    "numpy.argmax",
    "numpy.argmin",
    "numpy.full_like",
    "numpy.take_along_axis",
    "numpy.put_along_axis",
    "numpy.broadcast_to",
    "numpy.shape",
    "numpy.sort",
    "numpy.searchsorted",
)


def _code(name):
    """The code object a call of the wrapper `name` enters."""
    module, _, attr = name.rpartition(".")
    fn = getattr(importlib.import_module(module), attr)
    return getattr(fn, "_implementation", fn).__code__


def desk(mode):
    """The acceptance overfit model on a two-video desk-scale corpus."""
    data = generate_synthetic(SyntheticConfig(n_videos=2, timesteps=64, feature_dim=16, annotators=3,
                                              segments=6, mode=mode, seed=7))
    cfg = RunConfig(
        scorer=ScorerConfig(input_dim=16, model_dim=32, heads=2, layers=1, refine_blocks=1,
                            kernel=3, ffn_mult=2, max_timesteps=64),
        head=HeadConfig(latent_dim=8),
        train=TrainConfig(lr=5e-3, epochs=1, accumulate=1, seed=3, mode=mode),
    )
    return data, cfg


def entered_wrappers(run):
    """The removed wrappers that `run()` enters."""
    codes = {_code(name): name for name in REMOVED_WRAPPERS}
    entered = set()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            entered.add(codes[frame.f_code])

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return entered


def test_the_guard_sees_a_wrapper_call():
    x = np.ones((2, 3))
    seen = entered_wrappers(lambda: (x.mean(axis=-1), np.pad(x, 1), np.outer(x[0], x[0])))
    assert {"numpy._core._methods._mean", "numpy.pad", "numpy.outer"} <= seen


@pytest.mark.parametrize("mode", ["tvsum", "summe"])
def test_hot_paths_enter_no_removed_wrapper(mode):
    data, cfg = desk(mode)
    one = dataclasses.replace(data, videos=data.videos[:1])
    video = data.videos[0]
    for v in data.videos:
        v.segment_map.token_pool  # built once per video and kept: not on the per-call path

    def run():
        params = trainer.train(one, cfg).params  # one step: loss, backward, clip, AdamW
        signals = [trainer.predict_scores(params, v, v.segment_map, cfg)["signal"] for v in data.videos]
        decoder.decode_summary(signals[0], video.picks, video.change_points, cfg.train.rho)
        evaluation.evaluate(mode, [v.video_id for v in data.videos], signals,
                            [v.annotations for v in data.videos])
        # the desk videos share one length and one stack; here two cut to
        # T = 40 make one group and one cut to T = 5 a second
        cuts = list(zip((40, 40, 5), signals, data.videos))
        evaluation.evaluate(mode, [f"cut{i}" for i in range(len(cuts))], [s[:t] for t, s, _ in cuts],
                            [v.annotations[:, :t] for t, _, v in cuts])
        evaluation.flip_rate(signals[0], video.picks, video.change_points, cfg.train.rho, 0.05, 5, 1)

    entered = entered_wrappers(run)
    assert not entered, f"numpy wrappers entered: {sorted(entered)}"
