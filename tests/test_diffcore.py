import math
import weakref

import numpy as np
import pytest

import vastsum.diffcore as dc
from vastsum.errors import NumericError, ShapeError

from oracles import masked_sigmoid, mean_rows


def fresh(value):
    tape = dc.Tape()
    return tape, tape.constant(np.asarray(value, dtype=np.float64))


class TestForwardValues:
    def test_sigmoid_at_zero(self):
        _, x = fresh([0.0])
        assert dc.sigmoid(x).value[0] == 0.5

    def test_softmax_single_key(self):
        _, x = fresh([[3.7]])
        assert dc.softmax_rows(x).value.tolist() == [[1.0]]

    def test_layer_norm_hand_value(self):
        tape, x = fresh([[1.0, 2.0, 3.0]])
        out = dc.layer_norm(x, tape.constant(np.ones(3)), tape.constant(np.zeros(3))).value[0]
        # (x - mean) / sqrt(var + 1e-5) computed by hand
        expected = [(v - 2.0) / math.sqrt(2.0 / 3.0 + 1e-5) for v in [1.0, 2.0, 3.0]]
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out, [-1.22474, 0.0, 1.22474], atol=1e-4)
        gain, bias = tape.constant(np.array([2.0, 3.0, 4.0])), tape.constant(np.array([1.0, 0.0, -1.0]))
        np.testing.assert_allclose(
            dc.layer_norm(x, gain, bias).value[0], np.array(expected) * [2.0, 3.0, 4.0] + [1.0, 0.0, -1.0],
            rtol=0, atol=1e-12,
        )

    def test_gelu_exact_form(self):
        _, x = fresh([2.0])
        expected = 2.0 * 0.5 * (1.0 + math.erf(2.0 / math.sqrt(2.0)))
        assert dc.gelu(x).value[0] == pytest.approx(expected, abs=1e-15)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            _, x = fresh(rng.standard_normal((4, 6)) * 10)
            sums = dc.softmax_rows(x).value.sum(axis=-1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_clip_clamps(self):
        _, x = fresh([-20.0, 0.0, 12.0])
        assert dc.clip(x, -10.0, 5.0).value.tolist() == [-10.0, 0.0, 5.0]

    def test_clip_invalid_bounds(self):
        _, x = fresh([0.0])
        with pytest.raises(ValueError, match="exceeds"):
            dc.clip(x, 1.0, -1.0)

    def test_matmul_shape_mismatch(self):
        tape = dc.Tape()
        a = tape.constant(np.ones((2, 3)))
        b = tape.constant(np.ones((2, 3)))
        with pytest.raises(ShapeError):
            dc.matmul(a, b)

    def test_add_shape_mismatch(self):
        tape = dc.Tape()
        a = tape.constant(np.ones((2, 3)))
        b = tape.constant(np.ones((4,)))
        with pytest.raises(ShapeError):
            dc.add(a, b)

    @pytest.mark.parametrize("op", [dc.add, dc.subtract, dc.multiply])
    @pytest.mark.parametrize("shapes", [((5, 3), (3,)), ((5,), (5, 1)), ((4,), (1,))])
    def test_elementwise_ops_take_equal_shapes_only(self, op, shapes):
        tape = dc.Tape()
        a, b = (tape.constant(np.ones(shape)) for shape in shapes)
        with pytest.raises(ShapeError, match="differ"):
            op(a, b)

    @pytest.mark.parametrize(
        "w_shape, b_shape", [((4, 3), (1, 3)), ((4, 3), (4,)), ((4,), (3,)), ((4,), ())]
    )
    def test_affine_bias_must_match_the_output_width(self, w_shape, b_shape):
        tape = dc.Tape()
        x, w, b = (tape.constant(np.ones(s)) for s in ((5, 4), w_shape, b_shape))
        with pytest.raises(ShapeError, match="affine"):
            dc.affine(x, w, b)

    def test_layer_norm_gain_and_bias_match_the_row_width(self):
        tape = dc.Tape()
        x = tape.constant(np.ones((5, 4)))
        with pytest.raises(ShapeError, match="layer-norm"):
            dc.layer_norm(x, tape.constant(np.ones(4)), tape.constant(np.ones(3)))
        with pytest.raises(ShapeError, match="layer-norm"):
            dc.layer_norm(tape.constant(np.ones(4)), tape.constant(np.ones(4)), tape.constant(np.ones(4)))


def _weighted_sum(node: dc.Node, weights: np.ndarray) -> dc.Node:
    """A scalar loss whose gradient at `node` is `weights` scaled by 1/rows."""
    tape = node.tape
    rows = dc.multiply(node, tape.constant(weights))
    if rows.value.ndim == 2:
        rows = dc.matmul(rows, tape.constant(np.ones(rows.value.shape[1])))
    return mean_rows(rows)


class TestFusedNodes:
    """`affine` and `layer_norm` give the same bits as the two- and three-node
    chains they replace: matmul then a broadcast bias add, and a plain
    normalization then a broadcast gain multiply and bias add. Each chain is
    rebuilt here with shape-exact ops on row-tiled bias/gain parameters, whose
    row sums are the broadcast reductions the old VJPs made."""

    @pytest.mark.parametrize("w_shape, b_shape", [((4, 3), (3,)), ((4,), (1,))])
    def test_affine_matches_matmul_plus_bias(self, w_shape, b_shape):
        rng = np.random.default_rng(31)
        x, w, b = (rng.standard_normal(s) for s in ((6, 4), w_shape, b_shape))
        out_shape = (6,) + w_shape[1:]
        weights = rng.standard_normal(out_shape)

        tape = dc.Tape()
        p = dc.lift_params(tape, {"x": x, "w": w, "b": b})
        fused = dc.affine(p["x"], p["w"], p["b"])
        grads = dc.backward(tape, _weighted_sum(fused, weights))

        tape = dc.Tape()
        q = dc.lift_params(tape, {"x": x, "w": w, "rows": np.broadcast_to(b, out_shape).copy()})
        chain = dc.add(dc.matmul(q["x"], q["w"]), q["rows"])
        chain_grads = dc.backward(tape, _weighted_sum(chain, weights))

        assert np.array_equal(fused.value, x @ w + b)
        assert np.array_equal(fused.value, chain.value)
        assert np.array_equal(grads["x"], chain_grads["x"])
        assert np.array_equal(grads["w"], chain_grads["w"])
        assert grads["b"].shape == b_shape
        assert np.array_equal(grads["b"], chain_grads["rows"].sum(axis=0).reshape(b_shape))

    def test_layer_norm_matches_normalize_then_gain_and_bias(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal((6, 5)) * 3.0
        gain, bias = 1.0 + rng.standard_normal(5) * 0.3, rng.standard_normal(5)
        weights = rng.standard_normal((6, 5))

        tape = dc.Tape()
        p = dc.lift_params(tape, {"x": x, "gain": gain, "bias": bias})
        fused = dc.layer_norm(p["x"], p["gain"], p["bias"])
        grads = dc.backward(tape, _weighted_sum(fused, weights))

        # unit gain and zero bias make layer_norm the bare normalization
        tape = dc.Tape()
        q = dc.lift_params(tape, {"x": x, "gains": np.tile(gain, (6, 1)), "biases": np.tile(bias, (6, 1))})
        y = dc.layer_norm(q["x"], tape.constant(np.ones(5)), tape.constant(np.zeros(5)))
        chain = dc.add(dc.multiply(y, q["gains"]), q["biases"])
        chain_grads = dc.backward(tape, _weighted_sum(chain, weights))

        centered = x - x.mean(axis=-1, keepdims=True)
        normalized = centered * (1.0 / np.sqrt((centered**2).mean(axis=-1, keepdims=True) + dc.LN_EPS))
        assert np.array_equal(y.value, normalized)
        assert np.array_equal(fused.value, normalized * gain + bias)
        assert np.array_equal(fused.value, chain.value)
        assert np.array_equal(grads["x"], chain_grads["x"])
        assert np.array_equal(grads["gain"], chain_grads["gains"].sum(axis=0))
        assert np.array_equal(grads["bias"], chain_grads["biases"].sum(axis=0))


class TestBackward:
    def test_sigmoid_derivative_at_zero(self):
        tape = dc.Tape()
        x = tape.param("x", np.array([0.0]))
        loss = dc.sigmoid(x)
        grads = dc.backward(tape, loss)
        assert grads["x"][0] == 0.25

    def test_softmax_sum_has_zero_gradient(self):
        tape = dc.Tape()
        x = tape.param("x", np.array([0.0, 0.0]))
        p = dc.softmax_rows(x)
        loss = dc.scale(mean_rows(p), 2.0)  # sum of the row
        grads = dc.backward(tape, loss)
        assert np.all(np.abs(grads["x"]) <= 1e-10)

    def test_softmax_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(5)
        tape = dc.Tape()
        x = tape.param("x", rng.standard_normal((3, 4)))
        p = dc.softmax_rows(x)
        weights = tape.constant(rng.standard_normal((3, 4)))
        loss = mean_rows(dc.matmul(dc.multiply(p, weights), tape.constant(np.ones(4))))
        grads = dc.backward(tape, loss)
        np.testing.assert_allclose(grads["x"].sum(axis=-1), 0.0, atol=1e-10)

    def test_heteroscedastic_integrand_hand_gradients(self):
        # 0.5 * (log v + (y - mu)^2 / v) at mu=0, y=2, log v=0:
        # d/dmu = -(y - mu)/v = -2, d/dlogv = 0.5 * (1 - (y-mu)^2/v) = -1.5
        tape = dc.Tape()
        mu = tape.param("mu", np.array([0.0]))
        log_v = tape.param("log_v", np.array([0.0]))
        y = tape.constant(np.array([2.0]))
        resid_sq = dc.square(dc.subtract(y, mu))
        loss = dc.scale(dc.add(log_v, dc.multiply(resid_sq, dc.exp(dc.scale(log_v, -1.0)))), 0.5)
        grads = dc.backward(tape, loss)
        assert grads["mu"][0] == pytest.approx(-2.0, abs=1e-12)
        assert grads["log_v"][0] == pytest.approx(-1.5, abs=1e-12)

    def test_non_scalar_loss_rejected(self):
        tape = dc.Tape()
        x = tape.param("x", np.ones(3))
        with pytest.raises(ValueError, match="scalar"):
            dc.backward(tape, dc.square(x))

    def test_nan_raises_numeric_error_with_node_id(self):
        tape = dc.Tape()
        x = tape.param("x", np.array([-1.0]))
        with np.errstate(invalid="ignore"):
            bad = dc.log(x)  # forward NaN
        loss = mean_rows(bad)
        with pytest.raises(NumericError) as excinfo:
            dc.backward(tape, loss)
        assert excinfo.value.node_id == bad.nid
        assert "log" in str(excinfo.value)

    def test_gradient_only_overflow_names_the_producing_node(self):
        # the forward pass stays finite (1e-300 * 1e308 * 10 = 1e9); the
        # multiply's VJP, 10 * 1e308, is the first non-finite gradient
        tape = dc.Tape()
        x = tape.param("x", np.array([1e-300]))
        with np.errstate(over="ignore"):
            prod = dc.multiply(x, tape.constant(np.array([1e308])))
            loss = dc.scale(prod, 10.0)
            assert np.isfinite(loss.value).all()
            with pytest.raises(NumericError) as excinfo:
                dc.backward(tape, loss)
        assert excinfo.value.node_id == prod.nid
        assert "multiply" in str(excinfo.value)

    def test_overflowing_gradient_sum_names_the_param(self):
        # each scale's VJP is finite (1.5e308); their sum at x is not
        tape = dc.Tape()
        x = tape.param("x", np.array([1e-300]))
        loss = dc.add(dc.scale(x, 1.5e308), dc.scale(x, 1.5e308))
        with np.errstate(over="ignore"), pytest.raises(NumericError) as excinfo:
            dc.backward(tape, loss)
        assert excinfo.value.node_id == x.nid

    def test_finiteness_checked_once_over_the_gradient_buffer(self, monkeypatch):
        rng = np.random.default_rng(3)
        tape = dc.Tape()
        params = dc.lift_params(tape, {"w": rng.standard_normal((4, 3)), "b": np.zeros(3)})
        h = dc.gelu(dc.affine(tape.constant(rng.standard_normal((5, 4))), params["w"], params["b"]))
        loss = mean_rows(dc.matmul(h, tape.constant(np.ones(3))))
        calls = []
        isfinite = np.isfinite
        monkeypatch.setattr(dc.np, "isfinite", lambda a: calls.append(a.shape) or isfinite(a))
        grads = dc.backward(tape, loss)
        assert calls == [(1,), (12 + 3,)]  # the loss, then the flat gradient buffer
        calls.clear()
        dc.backward(tape, loss, grads, add=True)
        assert calls == [(1,), (15,)]

    def test_writes_and_adds_into_the_given_views(self):
        rng = np.random.default_rng(4)
        tape = dc.Tape()
        params = dc.lift_params(tape, {"w": rng.standard_normal((4, 3)), "b": rng.standard_normal(3)})
        loss = mean_rows(
            dc.matmul(dc.gelu(dc.affine(tape.constant(rng.standard_normal((5, 4))), params["w"], params["b"])),
                      tape.constant(np.ones(3)))
        )
        alone = dc.backward(tape, loss)
        assert list(alone) == ["w", "b"] and alone.flat.shape == (15,)
        # the buffer holds "b" before "w"; a name off the tape keeps its values
        into = dc.FlatTensors({"w": (4, 3), "b": (3,), "other": (2,)})
        assert np.shares_memory(into["b"], into.flat[:3]) and np.shares_memory(into["other"], into.flat[3:5])
        into.flat[:] = 7.0
        assert dc.backward(tape, loss, into) is into
        assert np.array_equal(into["w"], alone["w"]) and np.array_equal(into["b"], alone["b"])
        assert np.array_equal(into["other"], [7.0, 7.0])
        dc.backward(tape, loss, into, add=True)
        assert np.array_equal(into["w"], alone["w"] + alone["w"])
        assert np.array_equal(into["b"], alone["b"] + alone["b"])

    def test_overflowing_accumulation_names_the_param(self):
        tape = dc.Tape()
        x = tape.param("x", np.array([1e-300]))
        loss = dc.scale(x, 1.5e308)
        into = dc.backward(tape, loss)
        with np.errstate(over="ignore"), pytest.raises(NumericError) as excinfo:
            dc.backward(tape, loss, into, add=True)
        assert excinfo.value.node_id == x.nid

    def test_backward_twice_bit_identical(self):
        rng = np.random.default_rng(11)
        tape = dc.Tape()
        w = tape.param("w", rng.standard_normal((4, 3)))
        x = tape.constant(rng.standard_normal((5, 4)))
        h = dc.gelu(dc.matmul(x, w))
        loss = mean_rows(dc.matmul(h, tape.constant(np.ones(3))))
        first = dc.backward(tape, loss)
        second = dc.backward(tape, loss)
        assert np.array_equal(first["w"], second["w"])

    def test_unreachable_param_gets_zero_gradient(self):
        tape = dc.Tape()
        used = tape.param("used", np.array([2.0]))
        unused = tape.param("unused", np.ones((2, 2)))
        grads = dc.backward(tape, dc.square(used))
        assert grads["used"][0] == 4.0
        assert np.array_equal(grads["unused"], np.zeros((2, 2)))


class TestRelease:
    def test_released_tape_refuses_backward_and_recording(self):
        tape = dc.Tape()
        w = tape.param("w", np.array([2.0]))
        loss = dc.square(w)
        assert dc.backward(tape, loss)["w"][0] == 4.0
        tape.release()
        with pytest.raises(ValueError, match="tape was released"):
            dc.backward(tape, loss)
        with pytest.raises(ValueError, match="tape was released"):
            dc.square(w)
        with pytest.raises(ValueError, match="tape was released"):
            tape.constant(1.0)
        # the nodes the caller holds keep their values
        assert loss.value[0] == 4.0 and dc.scalar_value(loss) == 4.0


class TestNoGradTape:
    """A tape made with grad=False records values only: no parents, no VJP,
    no node list."""

    @staticmethod
    def every_primitive(tape):
        rng = np.random.default_rng(17)
        x = tape.param("x", rng.standard_normal((5, 4)))
        w = tape.param("w", rng.standard_normal((4, 3)))
        b = tape.param("b", rng.standard_normal(3))
        k = tape.param("k", rng.standard_normal((4, 3)))
        gain, bias = tape.param("gain", rng.standard_normal(4)), tape.param("bias", rng.standard_normal(4))
        h = dc.layer_norm(dc.add(x, dc.multiply(x, x)), gain, bias)
        h = dc.subtract(dc.gelu(h), dc.sigmoid(dc.depthwise_conv1d(h, k)))
        y = dc.affine(dc.softmax_rows(dc.scale(h, 2.0)), w, b)
        y = dc.concat_last([dc.clip(y, -0.5, 0.5), dc.matmul(h, w), dc.gather_rows(y, [4, 0, 0, 2, 1])])
        return dc.log(dc.exp(dc.square(y)))

    def test_values_equal_the_graph_tapes(self):
        graph, free = dc.Tape(), dc.Tape(grad=False)
        out, free_out = self.every_primitive(graph), self.every_primitive(free)
        assert np.array_equal(out.value, free_out.value)
        assert free_out.nid == out.nid and free_out.kind == out.kind
        assert free_out.parents == () and free_out.vjp is None
        assert free.nodes == [] and len(graph.nodes) == out.nid + 1

    def test_backward_refuses_the_tape(self):
        tape = dc.Tape(grad=False)
        loss = dc.square(tape.param("w", np.array([2.0])))
        assert loss.value[0] == 4.0
        with pytest.raises(ValueError, match="tape records no gradients"):
            dc.backward(tape, loss)

    def test_an_intermediate_is_freed_once_no_caller_holds_it(self):
        def chain(tape):
            h = dc.gelu(tape.constant(np.linspace(-2.0, 2.0, 12).reshape(3, 4)))
            ref = weakref.ref(h.value)
            out = dc.exp(h)
            del h
            return out, ref

        free_out, free_ref = chain(dc.Tape(grad=False))
        assert free_ref() is None
        # a graph tape keeps it alive through the consumer's parents
        graph_out, graph_ref = chain(dc.Tape())
        assert graph_ref() is not None
        assert np.array_equal(free_out.value, graph_out.value)


class TestConstantOperands:
    """A `const` operand of `affine` or `matmul` gets no gradient product."""

    @pytest.mark.parametrize("w_shape, b_shape", [((4, 3), (3,)), ((4,), (1,))])
    def test_constant_affine_input_keeps_the_param_grads(self, w_shape, b_shape):
        rng = np.random.default_rng(41)
        x, w, b = (rng.standard_normal(s) for s in ((6, 4), w_shape, b_shape))
        weights = rng.standard_normal((6,) + w_shape[1:])

        def grads(lift_x: bool):
            tape = dc.Tape()
            p = dc.lift_params(tape, {"w": w, "b": b, **({"x": x} if lift_x else {})})
            xn = p["x"] if lift_x else tape.constant(x)
            out = dc.affine(xn, p["w"], p["b"])
            return out, dc.backward(tape, _weighted_sum(out, weights))

        out, const_grads = grads(lift_x=False)
        _, param_grads = grads(lift_x=True)
        assert out.vjp(np.ones_like(out.value))[0] is None
        assert list(const_grads) == ["w", "b"]
        assert np.array_equal(const_grads["w"], param_grads["w"])
        assert np.array_equal(const_grads["b"], param_grads["b"])

    @pytest.mark.parametrize("transpose_b, b_shape", [(False, (4, 3)), (True, (3, 4)), (False, (4,))])
    def test_matmul_skips_each_constant_operand(self, transpose_b, b_shape):
        rng = np.random.default_rng(42)
        tape = dc.Tape()
        av, bv = rng.standard_normal((5, 4)), rng.standard_normal(b_shape)
        const_a = dc.matmul(tape.constant(av), tape.param("b", bv), transpose_b)
        const_b = dc.matmul(tape.param("a", av), tape.constant(bv), transpose_b)
        both = dc.matmul(tape.param("a2", av), tape.param("b2", bv), transpose_b)
        g = rng.standard_normal(both.value.shape)
        ga, gb = both.vjp(g)
        assert const_a.vjp(g)[0] is None and np.array_equal(const_a.vjp(g)[1], gb)
        assert const_b.vjp(g)[1] is None and np.array_equal(const_b.vjp(g)[0], ga)

    def test_replay_skips_constant_operands(self):
        # the gradient reaching the affine node overflows in a sum of two
        # finite VJP outputs; its own weight gradient is then the first
        # non-finite VJP output, next to the None of its constant input
        tape = dc.Tape()
        p = dc.lift_params(tape, {"w": np.array([[1.0]]), "b": np.array([0.0])})
        out = dc.affine(tape.constant(np.array([[1e-300]])), p["w"], p["b"])
        loss = mean_rows(dc.add(dc.scale(out, 1.5e308), dc.scale(out, 1.5e308)))
        assert np.isfinite(loss.value).all()
        with np.errstate(over="ignore"), pytest.raises(NumericError) as excinfo:
            dc.backward(tape, loss)
        assert excinfo.value.node_id == out.nid
        assert "(affine)" in str(excinfo.value)


def _check(build, params, tol=1e-4, step=1e-4):
    err = dc.finite_difference_check(build, params, step)
    assert err < tol, f"finite-difference error {err}"


class TestPrimitiveGradients:
    """Every primitive, composed into a random scalar loss, matches central
    differences within 1e-4 relative error (away from clip boundaries)."""

    def test_dense_chain(self):
        rng = np.random.default_rng(21)
        params = {
            "w1": rng.standard_normal((4, 6)) * 0.5,
            "b1": rng.standard_normal(6) * 0.1,
            "w2": rng.standard_normal((6, 2)) * 0.5,
        }
        x = rng.standard_normal((5, 4))

        def build(theta):
            tape = dc.Tape()
            p = dc.lift_params(tape, theta)
            h = dc.gelu(dc.affine(tape.constant(x), p["w1"], p["b1"]))
            h = dc.sigmoid(dc.matmul(h, p["w2"]))
            return mean_rows(dc.matmul(h, tape.constant(np.ones(2))))

        _check(build, params)

    def test_norm_softmax_attention_block(self):
        rng = np.random.default_rng(22)
        params = {
            "q": rng.standard_normal((3, 4)) * 0.3,
            "k": rng.standard_normal((3, 4)) * 0.3,
            "gain": 1.0 + rng.standard_normal(4) * 0.2,
            "bias": rng.standard_normal(4) * 0.1,
        }

        def build(theta):
            tape = dc.Tape()
            p = dc.lift_params(tape, theta)
            attn = dc.softmax_rows(dc.scale(dc.matmul(p["q"], p["k"], transpose_b=True), 0.5))
            mixed = dc.matmul(attn, dc.layer_norm(p["k"], p["gain"], p["bias"]))
            return mean_rows(dc.matmul(mixed, tape.constant(np.ones(4))))

        _check(build, params)

    def test_exp_log_square_scale(self):
        rng = np.random.default_rng(23)
        params = {"x": rng.uniform(0.5, 2.0, 6)}

        def build(theta):
            tape = dc.Tape()
            p = dc.lift_params(tape, theta)
            y = dc.log(dc.add(dc.square(p["x"]), tape.constant(np.full(6, 0.7))))
            y = dc.exp(dc.scale(y, -0.5))
            return mean_rows(y)

        _check(build, params)

    def test_clip_interior(self):
        params = {"x": np.array([-0.5, 0.3, 0.9])}  # well inside [-2, 2]

        def build(theta):
            tape = dc.Tape()
            p = dc.lift_params(tape, theta)
            return mean_rows(dc.square(dc.clip(p["x"], -2.0, 2.0)))

        _check(build, params)

    def test_gather_concat_subtract_multiply(self):
        rng = np.random.default_rng(24)
        params = {"a": rng.standard_normal((4, 3)), "b": rng.standard_normal((4, 2))}

        def build(theta):
            tape = dc.Tape()
            p = dc.lift_params(tape, theta)
            cat = dc.concat_last([p["a"], p["b"]])
            picked = dc.gather_rows(cat, [0, 2, 2, 3])
            diff = dc.subtract(picked, dc.gather_rows(cat, [1, 1, 0, 2]))
            prod = dc.multiply(diff, diff)
            return mean_rows(dc.matmul(prod, tape.constant(np.ones(5))))

        _check(build, params)

    def test_conv_blocks(self):
        rng = np.random.default_rng(25)
        params = {
            "dw": rng.standard_normal((3, 5)) * 0.4,
            "pw": rng.standard_normal((3, 3)) * 0.4,
            "pb": rng.standard_normal(3) * 0.1,
        }
        x = rng.standard_normal((7, 3))

        def build(theta):
            tape = dc.Tape()
            p = dc.lift_params(tape, theta)
            h = dc.gelu(dc.depthwise_conv1d(tape.constant(x), p["dw"]))
            h = dc.affine(h, p["pw"], p["pb"])
            return mean_rows(dc.matmul(h, tape.constant(np.ones(3))))

        _check(build, params)


class TestSigmoidBytes:
    """The one-exp sigmoid gives the two-branch masked formula's bytes."""

    GRID = [0.0, 1e-300, 36.8, 709.8, 745.2, 1e308, np.inf]

    def _value_and_grad(self, x, g):
        tape = dc.Tape()
        node = tape.param("x", x)
        out = dc.sigmoid(node)
        return out.value, out.vjp(g)[0]

    def test_forward_and_vjp_match_the_masked_formula(self):
        rng = np.random.default_rng(31)
        grid = np.array(self.GRID)
        x = np.concatenate([grid, -grid, rng.standard_normal(200) * 4.0])
        g = rng.standard_normal(x.size)
        # exp underflows to a subnormal or zero from |x| ~ 708 on, in the
        # masked formula too; overflow, invalid and divide must not happen
        with np.errstate(all="raise", under="ignore"):
            value, grad = self._value_and_grad(x, g)
            ref = masked_sigmoid(x)
            ref_grad = g * ref * (1.0 - ref)
        assert value.tobytes() == ref.tobytes()
        assert grad.tobytes() == ref_grad.tobytes()
        n = grid.size
        assert np.signbit(x[n]) and value[n] == 0.5  # -0.0 takes the x >= 0 branch
        assert value[n - 1] == 1.0 and value[2 * n - 1] == 0.0  # +inf and -inf

    def test_nan_gives_nan(self):
        value, grad = self._value_and_grad(np.array([np.nan, 1.0]), np.ones(2))
        assert np.isnan(value[0]) and np.isnan(grad[0])
        assert value[1] == masked_sigmoid(np.array([1.0]))[0]


class TestGatherRowsRange:
    """An ascending `range` adds g into a slice; every other index sequence
    scatters with `np.add.at`. Both give the same bytes."""

    def _vjp(self, table, indices, g):
        tape = dc.Tape()
        out = dc.gather_rows(tape.param("a", table), indices)
        assert np.array_equal(out.value, table[list(indices)])
        return out.vjp(g)[0]

    def _add_at(self, table, indices, g):
        da = np.zeros_like(table)
        np.add.at(da, np.asarray(list(indices), dtype=np.intp), g)
        return da

    @pytest.mark.parametrize("rows", [range(0, 12), range(3, 11, 2), range(0)])
    def test_range_equals_the_add_at_path(self, rows):
        rng = np.random.default_rng(32)
        table = rng.standard_normal((16, 3))
        g = rng.standard_normal((len(rows), 3))
        g[::2, 1] = -0.0
        got = self._vjp(table, rows, g)
        assert got.tobytes() == self._vjp(table, list(rows), g).tobytes()
        assert got.tobytes() == self._add_at(table, rows, g).tobytes()
        zeros = got[list(rows)][::2, 1]
        assert not np.signbit(zeros).any()  # 0.0 + -0.0 is +0.0 on both paths

    @pytest.mark.parametrize("rows", [range(5, -1, -1), [4, 1, 1, 0, 4], range(6, 0, -2)])
    def test_descending_ranges_and_lists_add_at(self, rows):
        rng = np.random.default_rng(33)
        table = rng.standard_normal((8, 2))
        g = rng.standard_normal((len(rows), 2))
        assert self._vjp(table, rows, g).tobytes() == self._add_at(table, rows, g).tobytes()

    def test_range_out_of_bounds_raises(self):
        tape = dc.Tape()
        with pytest.raises(ShapeError, match="out of range"):
            dc.gather_rows(tape.param("a", np.zeros((4, 2))), range(2, 5))

    def test_gradcheck_through_a_range(self):
        rng = np.random.default_rng(34)
        params = {"table": rng.standard_normal((9, 3))}
        weights = rng.standard_normal((3, 4))

        def build(theta):
            tape = dc.Tape()
            p = dc.lift_params(tape, theta)
            rows = dc.gelu(dc.gather_rows(p["table"], range(1, 9, 3)))
            return mean_rows(dc.matmul(dc.square(dc.matmul(rows, tape.constant(weights))),
                                       tape.constant(np.ones(4))))

        _check(build, params)


class TestFiniteDifferenceCheck:
    def test_square_at_three(self):
        def build(theta):
            tape = dc.Tape()
            p = dc.lift_params(tape, theta)
            return dc.square(p["x"])

        params = {"x": np.array([3.0])}
        loss = build(params)
        assert dc.backward(loss.tape, loss)["x"][0] == 6.0
        assert dc.finite_difference_check(build, params) < 1e-6

    def test_constant_function_has_zero_error(self):
        def build(theta):
            tape = dc.Tape()
            dc.lift_params(tape, theta)
            return tape.constant(np.array([5.0]))

        assert dc.finite_difference_check(build, {"x": np.array([1.0, 2.0])}) == 0.0

    def test_nan_comparison_is_returned_not_dropped(self):
        def build(theta):
            tape = dc.Tape()
            return dc.square(dc.lift_params(tape, theta)["x"])

        # a NaN step makes every central difference NaN; max() would drop it
        assert math.isnan(dc.finite_difference_check(build, {"x": np.array([3.0])}, math.nan))
