"""Property tests: every tape op, and random composites that share parents,
against central differences (`grad_check`) over random shapes.

Examples are drawn by hypothesis under the derandomized profile that
`conftest.py` loads, so every run checks the same cases.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402
from oracles import grad_check  # noqa: E402

from heteroadapt.numerics import (  # noqa: E402
    Tape,
    Tensor,
    add,
    leaky_relu,
    matmul_affine,
    mul,
    relu,
    scale,
    sigmoid,
    softmax_cross_entropy,
    squared_error,
    sub,
    sum_abs,
    sum_sq,
    weighted_row_sum,
)

TOL = 1e-4
dims = st.integers(1, 4)
seeds = st.integers(0, 2**32 - 1)


def entries(rng, shape):
    """Entries in [-1.5, -0.1] or [0.1, 1.5]. Central differences with
    h = 1e-5 then never straddle the kink of relu, leaky_relu or abs, and
    products stay clear of the tiny gradients whose relative error is
    rounding noise."""
    return rng.uniform(0.1, 1.5, shape) * rng.choice([-1.0, 1.0], shape)


def check(build, arrays):
    """grad_check of `build(tape, *param_nodes)` at `arrays`."""
    def fn(params):
        tape = Tape()
        return build(tape, *(tape.param(p) for p in params))

    return grad_check(fn, [Tensor(a) for a in arrays])


@given(n=dims, d=dims, seed=seeds)
def test_elementwise_binary_ops(n, d, seed):
    rng = np.random.default_rng(seed)
    x, y = entries(rng, (n, d)), entries(rng, (n, d))
    for op in (add, sub, mul):
        assert check(lambda t, a, b: sum_sq(op(a, b)), [x, y]) < TOL, op.__name__


@given(n=dims, d=dims, seed=seeds, c=st.floats(-3.0, 3.0))
def test_scale(n, d, seed, c):
    x = entries(np.random.default_rng(seed), (n, d))
    assert check(lambda t, a: sum_sq(scale(a, c)), [x]) < TOL


@given(n=dims, a=dims, b=dims, seed=seeds)
def test_matmul_affine(n, a, b, seed):
    rng = np.random.default_rng(seed)
    arrays = [entries(rng, (n, a)), entries(rng, (a, b)), entries(rng, b)]
    assert check(lambda t, x, w, bias: sum_sq(matmul_affine(x, w, bias)), arrays) < TOL


@given(n=dims, d=dims, seed=seeds)
def test_activations(n, d, seed):
    x = entries(np.random.default_rng(seed), (n, d))
    assert check(lambda t, a: sum_sq(relu(a)), [x]) < TOL
    assert check(lambda t, a: sum_sq(leaky_relu(a)), [x]) < TOL
    assert check(lambda t, a: sum_sq(sigmoid(a)), [x]) < TOL


@given(n=dims, d=dims, seed=seeds)
def test_reductions(n, d, seed):
    rng = np.random.default_rng(seed)
    x = entries(rng, (n, d))
    weights = entries(rng, n)
    assert check(lambda t, a: sum_sq(a), [x]) < TOL
    assert check(lambda t, a: sum_abs(a), [x]) < TOL
    assert check(lambda t, a: sum_sq(weighted_row_sum(a, weights)), [x]) < TOL


@given(n=dims, d=dims, c=dims, seed=seeds)
def test_class_weighted_row_sum(n, d, c, seed):
    # (C, n) weights as the divergence builds them, one class without mass:
    # gradients match central differences and each row is its 1-D row sum
    rng = np.random.default_rng(seed)
    x = entries(rng, (n, d))
    class_weights = entries(rng, (c, n))
    class_weights[rng.integers(c)] = 0.0
    assert check(lambda t, a: sum_sq(weighted_row_sum(a, class_weights)), [x]) < TOL
    rows = weighted_row_sum(Tape().constant(x), class_weights).value
    assert rows.shape == (c, d)
    for w_row, row in zip(class_weights, rows):
        np.testing.assert_allclose(row, weighted_row_sum(Tape().constant(x), w_row).value,
                                   rtol=1e-12, atol=0.0)


@given(n=dims, c=st.integers(2, 4), seed=seeds)
def test_losses(n, c, seed):
    rng = np.random.default_rng(seed)
    z, target = rng.uniform(-2, 2, (n, c)), rng.uniform(-2, 2, (n, c))
    labels = rng.integers(0, c, n)
    assert check(lambda t, a: softmax_cross_entropy(a, labels), [z]) < TOL
    assert check(lambda t, a: squared_error(a, target), [z]) < TOL
    assert check(lambda t, a: squared_error(a, target[0]), [z]) < TOL


# A composite is a list of steps; each applies one op to nodes drawn from
# everything built so far, so nodes gain several consumers and parameters
# receive gradient along several paths.
UNARY = {"scale": lambda a: scale(a, 0.7), "sigmoid": sigmoid}
BINARY = {"add": add, "sub": sub, "mul": mul}
steps = st.lists(
    st.tuples(st.sampled_from(sorted(UNARY) + sorted(BINARY) + ["dense"]),
              st.integers(0, 10**6), st.integers(0, 10**6)),
    min_size=1, max_size=7,
)


@given(n=dims, d=dims, seed=seeds, plan=steps)
def test_random_composite_with_shared_parents(n, d, seed, plan):
    rng = np.random.default_rng(seed)
    arrays = [entries(rng, shape) for shape in [(n, d)] * 3 + [(d, d), (d,)]]

    def build(tape, p0, p1, p2, w, b):
        pool = [p0, p1, p2]
        for op, i, j in plan:
            x, y = pool[i % len(pool)], pool[j % len(pool)]
            if op in UNARY:
                pool.append(UNARY[op](x))
            elif op in BINARY:
                pool.append(BINARY[op](x, y))
            else:
                pool.append(matmul_affine(x, w, b))
        loss = sum_sq(pool[-1])
        for node in pool[:-1]:
            loss = loss + scale(sum_sq(node), 0.1)
        return loss

    assert check(build, arrays) < TOL
