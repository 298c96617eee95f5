"""Tensor, tape, primitive ops, Adam, and the finite-difference oracle."""

import math
import multiprocessing
import os
import sys
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from conftest import count_halves
from oracles import grad_check

import heteroadapt.numerics as numerics
from heteroadapt.errors import NonFiniteError, ShapeError
from heteroadapt.numerics import (
    Adam,
    Tape,
    Tensor,
    add,
    affine_values,
    leaky_relu,
    matmul_affine,
    mul,
    relu,
    scale,
    sigmoid,
    sigmoid_values,
    softmax_cross_entropy,
    squared_error,
    sum_abs,
    sum_sq,
    weighted_row_sum,
)


class TestTensor:
    def test_shape_and_size(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.size == 4

    def test_rejects_rank_0_and_3(self):
        with pytest.raises(ShapeError):
            Tensor(3.0)
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 2, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Tensor([1.0, np.nan])
        with pytest.raises(ValueError):
            Tensor([[np.inf]])

    def test_rejects_empty_dimension(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((0, 3)))

    def test_copies_and_freezes(self):
        src = np.array([1.0, 2.0])
        t = Tensor(src)
        src[0] = 99.0
        assert t.array[0] == 1.0
        with pytest.raises(ValueError):
            t.array[0] = 5.0


class TestForwardOps:
    def test_matmul_affine_identity(self):
        tape = Tape()
        x = tape.constant([[1.0, 2.0]])
        w = tape.constant([[1.0, 0.0], [0.0, 1.0]])
        b = tape.constant([0.0, 0.0])
        out = matmul_affine(x, w, b)
        np.testing.assert_array_equal(out.value, [[1.0, 2.0]])

    def test_matmul_affine_hand_case(self):
        tape = Tape()
        out = matmul_affine(
            tape.constant([[1.0, 1.0]]),
            tape.constant([[2.0], [3.0]]),
            tape.constant([1.0]),
        )
        np.testing.assert_array_equal(out.value, [[6.0]])

    def test_matmul_affine_zero_input_passes_bias(self):
        tape = Tape()
        out = matmul_affine(
            tape.constant([[0.0, 0.0]]),
            tape.constant([[7.0, -3.0], [2.0, 11.0]]),
            tape.constant([5.0, 5.0]),
        )
        np.testing.assert_array_equal(out.value, [[5.0, 5.0]])

    def test_matmul_affine_shape_error_names_shapes(self):
        tape = Tape()
        x = tape.constant(np.ones((2, 3)))
        w = tape.constant(np.ones((4, 2)))
        b = tape.constant(np.ones(2))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            matmul_affine(x, w, b)

    def test_leaky_relu_cases(self):
        tape = Tape()
        x = tape.constant([[2.0, -1.0, 0.0]])
        out = leaky_relu(x, 0.01)
        np.testing.assert_array_equal(out.value, [[2.0, -0.01, 0.0]])

    def test_leaky_relu_rejects_negative_slope(self):
        tape = Tape()
        with pytest.raises(ValueError):
            leaky_relu(tape.constant([1.0]), -0.5)

    def test_relu_cases(self):
        tape = Tape()
        out = relu(tape.constant([-1.0, 0.0, 1.0, 3.0, -3.0]))
        np.testing.assert_array_equal(out.value, [0.0, 0.0, 1.0, 3.0, 0.0])

    def test_sigmoid_extremes_are_stable(self):
        vals = sigmoid_values(np.array([-1000.0, 0.0, 1000.0]))
        np.testing.assert_allclose(vals, [0.0, 0.5, 1.0], atol=1e-12)
        assert np.all(np.isfinite(vals))


class TestLosses:
    def test_cross_entropy_uniform(self):
        tape = Tape()
        loss = softmax_cross_entropy(tape.constant([[0.0, 0.0]]), [0])
        assert loss.value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_cross_entropy_saturated_no_overflow(self):
        tape = Tape()
        loss = softmax_cross_entropy(tape.constant([[1000.0, 0.0]]), [0])
        assert float(loss.value) == pytest.approx(0.0, abs=1e-12)

    def test_cross_entropy_derived_value(self):
        # frozen from the direct evaluation log(e^1 + e^2 + e^3) - 3
        tape = Tape()
        loss = softmax_cross_entropy(tape.constant([[1.0, 2.0, 3.0]]), [2])
        assert float(loss.value) == pytest.approx(0.40760596444438013, abs=1e-14)

    def test_cross_entropy_rejects_bad_labels(self):
        tape = Tape()
        logits = tape.constant([[0.0, 0.0], [1.0, 2.0]])
        for labels in ([0], [0, 1, 1], [[0], [1]], [[1.0, 0.0], [0.0, 1.0]]):
            with pytest.raises(ShapeError, match=r"do not match logits \(2, 2\)"):
                softmax_cross_entropy(logits, labels)
        for labels in ([0.0, 1.0], [True, False]):
            with pytest.raises(ValueError, match="must be integers"):
                softmax_cross_entropy(logits, labels)
        for labels in ([0, 2], [-1, 0]):
            with pytest.raises(ValueError, match=r"lie in \[0, 2\)"):
                softmax_cross_entropy(logits, labels)

    def test_cross_entropy_nonnegative_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n, c = rng.integers(1, 6), rng.integers(2, 5)
            z = rng.uniform(-4, 4, (n, c))
            y = rng.integers(0, c, n)
            tape = Tape()
            loss = softmax_cross_entropy(tape.constant(z), y)
            assert float(loss.value) >= 0.0

    def test_squared_error_cases(self):
        tape = Tape()
        assert float(squared_error(tape.constant([[1.0, 2.0]]), [[1.0, 2.0]]).value) == 0.0
        assert float(squared_error(tape.constant([[1.0, 0.0]]), [[0.0, 1.0]]).value) == 2.0
        assert float(squared_error(tape.constant([[2.0]]), [[0.0]]).value) == 4.0

    def test_squared_error_symmetric_and_zero_iff_equal(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            a = rng.uniform(-2, 2, (4, 3))
            b = rng.uniform(-2, 2, (4, 3))
            t1, t2 = Tape(), Tape()
            ab = float(squared_error(t1.constant(a), b).value)
            ba = float(squared_error(t2.constant(b), a).value)
            assert ab == ba
            assert ab > 0.0
        tape = Tape()
        a = rng.uniform(-2, 2, (4, 3))
        assert float(squared_error(tape.constant(a), a.copy()).value) == 0.0

    def test_squared_error_shape_mismatch(self):
        tape = Tape()
        with pytest.raises(ShapeError):
            squared_error(tape.constant(np.ones((2, 2))), np.ones((2, 3)))

    def test_shared_target_row_equals_per_row_targets_bit_for_bit(self):
        rng = np.random.default_rng(3)
        pred, row = rng.uniform(-2, 2, (5, 2)), np.array([0.0, 1.0])
        results = []
        for target in (row, np.tile(row, (5, 1))):
            tape = Tape()
            loss = squared_error(tape.param(pred), target)
            results.append((loss.value, tape.backward(loss)[0].array))
        (shared, shared_grad), (tiled, tiled_grad) = results
        np.testing.assert_array_equal(bits(shared), bits(tiled))
        np.testing.assert_array_equal(bits(shared_grad), bits(tiled_grad))
        assert tape._ops == ["param", "squared_error"]  # the target is not on the tape
        with pytest.raises(ShapeError, match=r"\(5, 2\) vs \(3,\)"):
            squared_error(tape.constant(pred), np.zeros(3))


class TestTapeValues:
    def test_node_values_are_read_only(self):
        tape = Tape()
        node = relu(tape.constant([[1.0, -2.0]]))
        with pytest.raises(ValueError, match="read-only"):
            node.value[0, 0] = 5.0
        with pytest.raises(AttributeError):
            node.value = np.zeros((1, 2))  # the node owns its value; nothing rebinds it
        np.testing.assert_array_equal(node.value, [[1.0, 0.0]])

    def test_constant_from_another_tapes_value_is_aliased(self):
        node = relu(Tape().constant([[1.0, -2.0]]))
        lifted = Tape().constant(node.value)
        assert np.shares_memory(lifted.value, node.value)

    @pytest.mark.parametrize("view", [
        pytest.param(lambda a: a, id="writeable"),
        pytest.param(lambda a: np.broadcast_to(a, a.shape), id="read-only-view-of-writeable"),
    ])
    def test_constant_does_not_see_later_caller_writes(self, view):
        caller = np.array([[1.0, 2.0]])
        node = Tape().constant(view(caller))
        caller[0, 0] = 9.0
        np.testing.assert_array_equal(node.value, [[1.0, 2.0]])


class TestBackward:
    def test_square_polynomial(self):
        tape = Tape()
        p = tape.param(Tensor([3.0]))
        loss = sum_sq(p)
        (grad,) = tape.backward(loss)
        np.testing.assert_array_equal(grad.array, [6.0])

    def test_constant_loss_gives_zero_gradients(self):
        tape = Tape()
        p = tape.param(Tensor([[1.0, 2.0]]))
        loss = sum_sq(tape.constant([[5.0]]))
        (grad,) = tape.backward(loss)
        np.testing.assert_array_equal(grad.array, [[0.0, 0.0]])
        assert p.value is not None

    def test_rejects_non_scalar_loss(self):
        tape = Tape()
        p = tape.param(Tensor([1.0, 2.0]))
        out = relu(p)
        with pytest.raises(ShapeError, match="scalar"):
            tape.backward(out)

    def test_gradient_overflow_names_parameter_position(self):
        # a finite loss (about 1e200) whose gradient (about 1e350) is not
        tape = Tape()
        fine = tape.param(Tensor([1.0]))
        tiny = tape.param(Tensor([1e-150]))
        loss = sum_sq(fine) + sum_sq(scale(tiny, 1e250))
        assert math.isfinite(float(loss.value))
        with np.errstate(over="ignore"), pytest.raises(
                NonFiniteError, match="gradient of parameter 1 is not finite") as info:
            tape.backward(loss)
        assert info.value.position == 1

    def test_node_ids_topologically_ordered(self):
        tape = Tape()
        x = tape.param(Tensor([[1.0, -2.0]]))
        w = tape.param(Tensor([[0.5], [1.5]]))
        b = tape.param(Tensor([0.1]))
        loss = sum_sq(relu(matmul_affine(x, w, b)))
        assert loss.index == len(tape._ops) - 1
        for i, parents in enumerate(tape._parents):
            assert all(p < i for p in parents)

    def test_gradient_accumulates_over_shared_parameter(self):
        # loss = sum((x W + b)^2) + sum(W^2) touches W along two paths
        tape = Tape()
        w = tape.param(Tensor([[1.0], [2.0]]))
        x = tape.constant([[1.0, 1.0]])
        b = tape.constant([0.0])
        loss = sum_sq(matmul_affine(x, w, b)) + sum_sq(w)
        (grad,) = tape.backward(loss)
        # d/dW sum((W1+W2)^2) = 2(W1+W2) = 6; plus 2W
        np.testing.assert_allclose(grad.array, [[6.0 + 2.0], [6.0 + 4.0]])

    def test_composed_model_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-2, 2, (4, 3))
        y = rng.integers(0, 2, 4)
        init = [
            Tensor(rng.uniform(-1, 1, (3, 5))),
            Tensor(rng.uniform(-0.5, 0.5, 5)),
            Tensor(rng.uniform(-1, 1, (5, 2))),
            Tensor(rng.uniform(-0.5, 0.5, 2)),
        ]

        def loss_fn(params):
            tape = Tape()
            w1, b1, w2, b2 = (tape.param(p) for p in params)
            hidden = leaky_relu(matmul_affine(tape.constant(x), w1, b1), 0.01)
            logits = matmul_affine(hidden, w2, b2)
            return softmax_cross_entropy(logits, y)

        assert grad_check(loss_fn, init) < 1e-4

    def test_every_primitive_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        x0 = rng.uniform(-2, 2, (3, 4))
        # keep values away from activation kinks so central differences are valid
        x0 = np.where(np.abs(x0) < 0.05, 0.2, x0)
        weights = rng.uniform(-1, 1, 3)
        target = rng.uniform(-1, 1, (3, 4))

        cases = {
            "relu": lambda t, p: sum_sq(relu(p)),
            "leaky": lambda t, p: sum_sq(leaky_relu(p, 0.3)),
            "sigmoid": lambda t, p: sum_sq(sigmoid(p)),
            "sum_abs": lambda t, p: sum_abs(p),
            "weighted_row_sum": lambda t, p: sum_sq(weighted_row_sum(p, weights)),
            "squared_error": lambda t, p: squared_error(p, target),
            "mul_scale": lambda t, p: sum_sq(p) * 0.7 + sum_sq(p) * sum_abs(p),
        }
        for name, build in cases.items():
            def fn(params, build=build):
                tape = Tape()
                return build(tape, tape.param(params[0]))

            err = grad_check(fn, [Tensor(x0)])
            assert err < 1e-4, f"{name} gradient mismatch: {err}"

    def test_class_weighted_row_sum_matches_finite_differences(self):
        # (C, n) weights as the divergence builds them; the last class has no mass
        rng = np.random.default_rng(12)
        x0 = rng.uniform(-2, 2, (3, 4))
        class_weights = np.vstack([rng.uniform(-1, 1, (2, 3)), np.zeros(3)])

        def fn(params):
            tape = Tape()
            return sum_sq(weighted_row_sum(tape.param(params[0]), class_weights))

        assert grad_check(fn, [Tensor(x0)]) < 1e-6
        rows = weighted_row_sum(Tape().constant(x0), class_weights).value
        np.testing.assert_array_equal(rows[2], np.zeros(4))
        with pytest.raises(ShapeError, match=r"weights \(2, 4\) for matrix \(3, 4\)"):
            weighted_row_sum(Tape().constant(x0), np.ones((2, 4)))


def bits(a):
    """The raw bit patterns of a float64 array, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


class TestGradientOwnership:
    """`backward` stores a node's first gradient contribution without
    copying it, so the same array can reach several parents; summing into
    it in place would leak one parent's gradient into another's."""

    def test_parameter_added_to_itself_gets_exactly_twice_g(self):
        rng = np.random.default_rng(0)
        p0 = rng.uniform(-1, 1, (3, 4))
        tape = Tape()
        p = tape.param(Tensor(p0))
        (grad,) = tape.backward(sum_sq(add(p, p)))
        g = 2.0 * (p0 + p0)
        np.testing.assert_array_equal(grad.array, 2 * g)

    def test_siblings_sharing_a_pass_through_gradient_stay_independent(self):
        # s = p1 + p2 hands one g to both; p1 then gets a second term via u
        rng = np.random.default_rng(1)
        a0, b0 = rng.uniform(-1, 1, (2, 3)), rng.uniform(-1, 1, (2, 3))
        tape = Tape()
        p1, p2 = tape.param(Tensor(a0)), tape.param(Tensor(b0))
        u = scale(p1, 3.0)
        s = add(p1, p2)
        g1, g2 = tape.backward(sum_sq(s) + sum_sq(u))
        g_s = 2.0 * (a0 + b0)
        np.testing.assert_array_equal(g2.array, g_s)
        np.testing.assert_array_equal(g1.array, g_s + (2.0 * (3.0 * a0)) * 3.0)

    def test_parameter_used_by_three_ops(self):
        rng = np.random.default_rng(2)
        p0 = rng.uniform(-1, 1, (2, 5))
        tape = Tape()
        p = tape.param(Tensor(p0))
        loss = sum_sq(p) + sum_abs(p) + sum_sq(scale(p, 0.5))
        (grad,) = tape.backward(loss)
        # contributions arrive in reverse tape order: scale, sum_abs, sum_sq
        expected = (2.0 * (p0 * 0.5)) * 0.5 + np.sign(p0) + 2.0 * p0
        np.testing.assert_array_equal(grad.array, expected)

    def test_returned_gradients_are_read_only_and_unshared(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (4, 3))
        init = [Tensor(rng.uniform(-1, 1, shape)) for shape in [(3, 2), (2,), (4, 2), (4, 2)]]
        tape = Tape()
        w, b, p1, p2 = (tape.param(t) for t in init)
        h = leaky_relu(matmul_affine(tape.constant(x), w, b), 0.1)
        loss = sum_sq(h * add(p1, p2)) + sum_sq(w) + sum_abs(b)
        grads = tape.backward(loss)
        for g in grads:
            with pytest.raises(ValueError, match="read-only"):
                g.array[0] = 1.0
        for i in range(len(grads)):
            for j in range(i + 1, len(grads)):
                if (i, j) == (2, 3):
                    # p1 and p2 get the one array `add` passes through
                    np.testing.assert_array_equal(grads[i].array, grads[j].array)
                else:
                    assert not np.shares_memory(grads[i].array, grads[j].array), (i, j)
        for g, t in zip(grads, init):
            assert not np.shares_memory(g.array, t.array)


class TestLeakyReluExactness:
    """Value and vjp equal the `np.where` reference formulas bit for bit."""

    @pytest.mark.parametrize("slope", [0.0, 0.01, 1.0, 1.5])
    def test_value_and_vjp_match_where_reference(self, slope):
        rng = np.random.default_rng(4)
        x0 = rng.uniform(-2, 2, (6, 7))
        x0[0, :3] = 0.0
        x0[1, :3] = -0.0
        c = rng.uniform(-2, 2, x0.shape)
        sv = slope * x0
        keep = x0 >= sv
        out_ref = np.where(keep, x0, sv)
        c[0, 0] = -out_ref[0, 0]          # upstream gradient 2 * (out + c) is +0.0
        c[1, 0] = -0.0                    # and -0.0 (for slope > 0) here
        tape = Tape()
        p = tape.param(Tensor(x0))
        out = leaky_relu(p, slope)
        (grad,) = tape.backward(sum_sq(add(out, tape.constant(c))))
        g = 2.0 * (out_ref + c)
        np.testing.assert_array_equal(bits(out.value), bits(out_ref))
        np.testing.assert_array_equal(bits(grad.array), bits(g * np.where(keep, 1.0, slope)))


class TestLifetime:
    """A node owns its value and the tape keeps none, so a pre-activation
    that only an activation read is freed once its node is dropped."""

    @pytest.mark.parametrize("activation, factor", [
        (leaky_relu, lambda z: np.where(z >= 0.01 * z, 1.0, 0.01)),
        (relu, lambda z: z > 0),
    ], ids=["leaky_relu", "relu"])
    def test_pre_activation_freed_with_its_node(self, activation, factor):
        rng = np.random.default_rng(6)
        x0, w0, b0 = rng.uniform(-1, 1, (5, 3)), rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, 4)
        tape = Tape()
        x, w, b = (tape.param(Tensor(v)) for v in (x0, w0, b0))
        pre = matmul_affine(x, w, b)
        value = weakref.ref(pre.value)
        out = activation(pre)
        del pre
        assert value() is None
        grads = tape.backward(sum_sq(out))
        # the float ops of a tape that kept the pre-activation alive
        z = x0 @ w0 + b0
        gz = (2.0 * out.value) * factor(z)
        for grad, ref in zip(grads, (gz @ w0.T, x0.T @ gz, gz.sum(axis=0))):
            np.testing.assert_array_equal(bits(grad.array), bits(ref))


# The operands of an (m, k) @ (k, n) product in the layouts `matmul_affine`
# uses: the forward x @ w, the weight gradient x.T @ g, the input gradient g @ w.T.
LAYOUTS = {
    "NN": lambda rng, m, n, k: (rng.uniform(-1, 1, (m, k)), rng.uniform(-1, 1, (k, n))),
    "TN": lambda rng, m, n, k: (rng.uniform(-1, 1, (k, m)).T, rng.uniform(-1, 1, (k, n))),
    "NT": lambda rng, m, n, k: (rng.uniform(-1, 1, (m, k)), rng.uniform(-1, 1, (n, k)).T),
}


def check_split_product(x, w, b, want):
    """Exit status 0 if a split `affine_values` gives `want` (for a child process)."""
    if not np.array_equal(bits(affine_values(x, w, b)), bits(want)):
        raise SystemExit(1)


@pytest.mark.usefixtures("split_products")
class TestSplitKernels:
    @pytest.mark.parametrize("m", [127, 128, 300, 509, 1109])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_matmul_equals_one_product_bit_for_bit(self, layout, m):
        rng = np.random.default_rng(m)
        for n in (63, 64, 256):
            for k in (9, 32, 256, 2000):
                a, b = LAYOUTS[layout](rng, m, n, k)
                np.testing.assert_array_equal(bits(numerics._matmul(a, b)), bits(a @ b),
                                              err_msg=f"({m}, {k}) @ ({k}, {n})")

    def test_only_large_products_and_parameters_split(self, monkeypatch):
        halves = count_halves(monkeypatch)
        for m, n in [(127, 256), (128, 63), (4, 4)]:
            numerics._matmul(np.ones((m, 8)), np.ones((8, n)))
        small = [Tensor(np.ones(2 ** 15 - 1)), Tensor(np.ones((4, 4)))]
        Adam(small, lr=0.1).step(small, small)
        assert halves == []
        numerics._matmul(np.ones((128, 8)), np.ones((8, 64)))
        assert halves == [np.matmul]
        large = [Tensor(np.ones(2 ** 15))]
        Adam(large, lr=0.1).step(large, large)
        assert halves == [np.matmul, numerics._adam_update]

    def test_matmul_affine_splits_its_forward_and_both_matrix_vjps(self, monkeypatch):
        rng = np.random.default_rng(8)
        xv, wv, bv = (rng.uniform(-1, 1, s) for s in [(256, 128), (128, 64), (64,)])
        gv = rng.uniform(-1, 1, (256, 64))
        halves = count_halves(monkeypatch)
        tape = Tape()
        x, w, b = tape.param(xv), tape.param(wv), tape.param(bv)
        out = matmul_affine(x, w, b)
        gx, gw, _ = tape.backward(sum_sq(mul(out, tape.constant(gv))))
        assert halves == [np.matmul] * 3
        g = 2.0 * out.value * gv * gv
        assert np.array_equal(bits(out.value), bits(xv @ wv + bv))
        assert np.array_equal(bits(gx.array), bits(g @ wv.T))
        assert np.array_equal(bits(gw.array), bits(xv.T @ g))

    def test_helper_keeps_the_callers_error_settings(self):
        # numpy's error settings are per thread; only the helper's half overflows
        g = np.ones(2 ** 15)
        g[2 ** 14:] = 1e200
        params = [Tensor(np.zeros(2 ** 15))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                Adam(params, lr=0.1).step(params, [Tensor(g)])
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                Adam(params, lr=0.1).step(params, [Tensor(g)])

    def test_concurrent_callers_match_one_product(self):
        # the main thread and more threads than cores, switching as often as possible
        rng = np.random.default_rng(4)
        pairs = [(rng.uniform(-1, 1, (300, 40)), rng.uniform(-1, 1, (40, 64))) for _ in range(6)]

        def products(a, b):
            return [numerics._matmul(a, b) for _ in range(20)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(pairs) - 1) as pool:
                futures = [pool.submit(products, a, b) for a, b in pairs[1:]]
                results = [products(*pairs[0])] + [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for (a, b), outs in zip(pairs, results):
            for out in outs:
                assert np.array_equal(bits(out), bits(a @ b))

    def test_only_the_main_thread_hands_a_half_over(self, monkeypatch):
        handed = []
        real = numerics._on_helper
        monkeypatch.setattr(numerics, "_on_helper", lambda *args: handed.append(args) or real(*args))
        a, b = np.ones((128, 8)), np.ones((8, 64))
        with ThreadPoolExecutor(1) as pool:
            pool.submit(numerics._matmul, a, b).result(timeout=60)
        assert handed == []
        numerics._matmul(a, b)
        assert len(handed) == (numerics._helper() is not None)

    def test_forked_child_starts_its_own_helper(self):
        rng = np.random.default_rng(3)
        x, w, b = (rng.uniform(-1, 1, s) for s in [(300, 32), (32, 64), (64,)])
        want = affine_values(x, w, b)  # starts the helper, given two usable cores
        assert (numerics._helper() is None) == (len(os.sched_getaffinity(0)) == 1)
        child = multiprocessing.get_context("fork").Process(
            target=check_split_product, args=(x, w, b, want))
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("a forked child hung on its first split product")
        assert child.exitcode == 0


class TestAdam:
    def test_zero_gradient_keeps_params_bit_identical(self):
        p = [Tensor([[0.25, -1.5]])]
        opt = Adam(p, lr=0.01)
        out = opt.step(p, [Tensor([[0.0, 0.0]])])
        assert np.array_equal(out[0].array, p[0].array)
        assert opt.step_count == 1

    def test_first_step_bias_corrected_update(self):
        # frozen digest of the hand evaluation with g=1, lr=0.001
        p = [Tensor([0.0])]
        opt = Adam(p, lr=0.001)
        out = opt.step(p, [Tensor([1.0])])
        assert float(out[0].array[0]) == pytest.approx(-0.000999999990000001, abs=1e-15)

    def test_two_steps_reduce_quadratic_loss(self):
        params = [Tensor([2.0])]
        opt = Adam(params, lr=0.1)
        losses = []
        for _ in range(2):
            tape = Tape()
            node = tape.param(params[0])
            loss = sum_sq(node)
            losses.append(float(loss.value))
            grads = tape.backward(loss)
            params = opt.step(params, grads)
        tape = Tape()
        final = float(sum_sq(tape.param(params[0])).value)
        assert final < losses[0]
        assert opt.step_count == 2

    def test_three_steps_match_the_textbook_update_exactly(self):
        self.check_three_textbook_steps([(3, 2), (4,)])

    def test_split_parameters_match_the_textbook_update_exactly(self, monkeypatch):
        halves = count_halves(monkeypatch)
        self.check_three_textbook_steps([(2000, 256), (256, 256)])
        assert halves == [numerics._adam_update] * 6  # both parameters, three steps

    @staticmethod
    def check_three_textbook_steps(shapes):
        rng = np.random.default_rng(6)
        b1, b2, lr, eps = 0.9, 0.999, 0.01, 1e-8
        start = [rng.uniform(-1, 1, shape) for shape in shapes]
        opt = Adam([Tensor(a) for a in start], lr=lr, beta1=b1, beta2=b2, eps=eps)
        params = [Tensor(a) for a in start]
        ref = [a.copy() for a in start]
        m = [np.zeros_like(a) for a in start]
        v = [np.zeros_like(a) for a in start]
        for t in range(1, 4):
            grads = [rng.uniform(-2, 2, a.shape) for a in start]
            params = opt.step(params, [Tensor(g) for g in grads])
            for i, g in enumerate(grads):
                m[i] = b1 * m[i] + (1 - b1) * g
                v[i] = b2 * v[i] + (1 - b2) * g * g
                mhat = m[i] / (1 - b1 ** t)
                vhat = v[i] / (1 - b2 ** t)
                ref[i] = ref[i] - lr * mhat / (np.sqrt(vhat) + eps)
            for p, r in zip(params, ref):
                np.testing.assert_array_equal(bits(p.array), bits(r))
                assert not p.array.flags.writeable
        for i in range(2):
            np.testing.assert_array_equal(opt.m[i], m[i])
            np.testing.assert_array_equal(opt.v[i], v[i])

    def test_shape_mismatch_rejected(self):
        opt = Adam([Tensor([1.0, 2.0])], lr=0.01)
        with pytest.raises(ShapeError):
            opt.step([Tensor([1.0, 2.0])], [Tensor([[1.0, 2.0]])])
        # a later parameter's mismatch is found before the first one is updated
        params = [Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0])]
        opt = Adam(params, lr=0.01)
        with pytest.raises(ShapeError, match="parameter 1"):
            opt.step(params, [Tensor([0.5, -0.5]), Tensor([[1.0, 2.0, 3.0]])])
        assert opt.step_count == 0
        for state in opt.m + opt.v:
            assert not state.any()


class TestGradCheck:
    def test_sum_of_squares_is_exact(self):
        def fn(params):
            tape = Tape()
            return sum_sq(tape.param(params[0]))

        assert grad_check(fn, [Tensor([1.0, -2.0, 3.0])]) < 1e-10

    def test_two_layer_net_cross_entropy(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (5, 3))
        y = rng.integers(0, 3, 5)
        init = [
            Tensor(rng.uniform(-1, 1, (3, 4))),
            Tensor(rng.uniform(-0.3, 0.3, 4)),
            Tensor(rng.uniform(-1, 1, (4, 3))),
            Tensor(rng.uniform(-0.3, 0.3, 3)),
        ]

        def fn(params):
            tape = Tape()
            w1, b1, w2, b2 = (tape.param(p) for p in params)
            h = relu(matmul_affine(tape.constant(x), w1, b1))
            return softmax_cross_entropy(matmul_affine(h, w2, b2), y)

        assert grad_check(fn, init) < 1e-4


def test_forward_determinism():
    rng = np.random.default_rng(5)
    x = rng.uniform(-2, 2, (6, 4))
    w = rng.uniform(-1, 1, (4, 3))
    b = rng.uniform(-1, 1, 3)

    def run():
        tape = Tape()
        out = leaky_relu(matmul_affine(tape.constant(x), tape.constant(w), tape.constant(b)), 0.01)
        return sum_sq(out).value.copy()

    assert np.array_equal(run(), run())
