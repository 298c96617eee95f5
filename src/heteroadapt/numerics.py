"""Dense float64 tensors, a reverse-mode gradient tape, and Adam.

Conventions: data matrices are (n, d) with samples in rows; vectors are
rank 1. Tape nodes hold raw ndarrays (scalars are 0-d); the `Tensor`
wrapper is the validated value type used for parameters and datasets.

Five rules keep the hot paths lean without changing a result:

- Ownership. An array is written in place only by the code that
  allocated it: `Adam` its `m` and `v`, `Tape.backward` a gradient sum it
  built itself (never a vjp's output, which may be shared), an op its
  output before the output goes on the tape. `Tensor._adopt` (used only
  by `backward` and `Adam`) wraps arrays that nothing else can write.
- Freeing. `backward` drops a node's gradient as soon as it has been
  propagated to the node's parents; only parameter gradients live until
  it returns.
- Order. A rewrite may change where a result is stored, never the order
  of the float operations that produce it, so values, parameters and
  gradients stay bit-identical (a gradient up to the sign of an exact
  zero, see `Tape.backward`). A reorder is a deliberate, documented
  change that keeps a transcription of the old order in the tests as its
  reference. There has been one: the class-conditional divergence builds
  each domain's class means as one (C, n) `weighted_row_sum` instead of a
  1-D row sum per class; `tests/oracles.py` keeps the per-class chain.
- Lifetime. A `Node` owns its value, the tape keeps none but the
  parameters' (their shapes give unreached parameters zero gradients),
  and a vjp captures only what it reads: `leaky_relu` and `relu` keep a
  boolean mask, not their input. So an intermediate lives only while its
  node or a vjp that reads it does; a pre-activation is freed as soon as
  its node is dropped.
- Parallelism. A private helper thread computes half of each large
  kernel, under the caller's numpy error settings. A product of at least
  128 rows and 64 columns (`affine_values`, both matrix vjps of
  `matmul_affine`) is split by rows of its output, never along the
  contraction, so each entry keeps its k-loop and equals one `a @ b` bit
  for bit (narrower products do not always); it is split only while
  OpenBLAS runs one thread. Adam updates a parameter of at least 2**15
  entries as two flat halves in the same op order. A thread other than
  the main one, or any with one usable core, runs the whole kernel, which
  gives the same bits, so traces depend on neither the core count nor
  `--jobs`.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteError, ShapeError

Array = np.ndarray


class Tensor:
    """Immutable rank-1 or rank-2 array of finite float64 values.

    `Tensor(...)` always copies and validates: every dimension is positive
    and every entry is finite. The backing array is marked read-only, so
    tensors are safe to share across threads. Only `Tape.backward` and
    `Adam.step` may call `Tensor._adopt`, which validates the same way but
    keeps the array it is given; they pass arrays nothing else can write.
    """

    __slots__ = ("array",)

    def __init__(self, values):
        self.array = _validated(np.array(values, dtype=np.float64, order="C"))

    @classmethod
    def _adopt(cls, arr: Array) -> "Tensor":
        """Wrap `arr` itself; only a non-float64 or non-C-contiguous array is copied."""
        tensor = cls.__new__(cls)
        tensor.array = _validated(np.asarray(arr, dtype=np.float64, order="C"))
        return tensor

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def size(self) -> int:
        return self.array.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def _validated(arr: Array) -> Array:
    """`arr`, marked read-only, once its rank, dimensions and values pass."""
    if arr.ndim not in (1, 2):
        raise ShapeError(f"tensor rank must be 1 or 2, got shape {arr.shape}")
    if any(dim < 1 for dim in arr.shape):
        raise ShapeError(f"tensor dimensions must be positive, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor values must all be finite")
    arr.setflags(write=False)
    return arr


def _as_array(values) -> Array:
    if isinstance(values, Tensor):
        return values.array
    return np.asarray(values, dtype=np.float64)


def _frozen(arr: Array) -> bool:
    """Whether no handle can write `arr`: it and every array it views are read-only."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return arr is None


class Node:
    """Handle to one tape entry; it owns the entry's value, a read-only
    float64 ndarray (see "Lifetime")."""

    __slots__ = ("tape", "index", "_value")

    def __init__(self, tape: "Tape", index: int, value: Array):
        self.tape = tape
        self.index = index
        self._value = value

    @property
    def value(self) -> Array:
        return self._value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Node({self.tape._ops[self.index]}, shape={self.shape})"

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        if isinstance(other, Node):
            raise TypeError("node/node division is not part of the op set")
        return scale(self, 1.0 / float(other))


class Tape:
    """Wengert-list record of primitive operations.

    Nodes are appended in execution order, so node ids are topologically
    ordered by construction (every parent id is smaller than its consumer).
    Each entry stores the op name, parent ids and one gradient callback per
    parent; `backward` walks the list in reverse. Forward values belong to
    the `Node`s (see "Lifetime").
    """

    def __init__(self):
        self._ops: list[str] = []
        self._parents: list[tuple[int, ...]] = []
        self._vjps: list[tuple[Callable[[Array], Array] | None, ...]] = []
        self._needs_grad: list[bool] = []
        self._params: list[tuple[int, Array]] = []  # (index, value): a Node would make a cycle

    # -- construction ----------------------------------------------------

    def append(self, op, value, parents=(), vjps=(), needs_grad=None) -> Node:
        value = np.asarray(value, dtype=np.float64)
        value.setflags(write=False)
        if needs_grad is None:
            needs_grad = any(self._needs_grad[p] for p in parents)
        self._ops.append(op)
        self._parents.append(tuple(parents))
        self._vjps.append(tuple(vjps))
        self._needs_grad.append(needs_grad)
        return Node(self, len(self._ops) - 1, value)

    def param(self, tensor: Tensor) -> Node:
        """Register a trainable leaf; `backward` returns its gradient."""
        if not isinstance(tensor, Tensor):
            tensor = Tensor(tensor)
        node = self.append("param", tensor.array, needs_grad=True)
        self._params.append((node.index, node.value))
        return node

    def constant(self, values) -> Node:
        """A non-trainable leaf (data, labels, frozen parameters). Tensor data
        and read-only float64 arrays, such as node values, are aliased;
        writeable input is copied, so later writes do not reach the tape."""
        if isinstance(values, Tensor):
            arr = values.array
        elif isinstance(values, np.ndarray) and values.dtype == np.float64 and _frozen(values):
            arr = values
        else:
            arr = np.array(values, dtype=np.float64)
        return self.append("const", arr, needs_grad=False)

    # -- reverse pass ----------------------------------------------------

    def backward(self, loss: Node) -> list[Tensor]:
        """Gradients of a scalar loss, one Tensor per registered parameter.

        Parameters that do not reach the loss get zero gradients; a
        gradient that is not finite raises `NonFiniteError` with the
        parameter's position. A node's first gradient contribution is
        stored as the vjp returned it: that array may be shared (`add`
        hands one `g` to both parents), so it is never written. The second
        contribution builds a new array, and only such an array is updated
        in place by later ones. Contributions are summed in reverse tape
        order, as `0 + c1 + c2 + ...` was, so gradients are bit-equal to
        that sum up to the sign of an exact zero. A node's gradient is
        dropped once it has been propagated, unless the node is a parameter.
        """
        if loss.tape is not self:
            raise ValueError("loss node belongs to a different tape")
        if loss.value.ndim != 0:
            raise ShapeError(f"backward needs a scalar loss node, got shape {loss.shape}")
        retained = {idx for idx, _ in self._params}
        owned: set[int] = set()
        grads: list[Array | None] = [None] * len(self._ops)
        grads[loss.index] = np.ones((), dtype=np.float64)
        for i in range(loss.index, -1, -1):
            g = grads[i]
            if g is None:
                continue
            if i not in retained:
                grads[i] = None
            for parent, vjp in zip(self._parents[i], self._vjps[i]):
                if vjp is None or not self._needs_grad[parent]:
                    continue
                contribution = vjp(g)
                if grads[parent] is None:
                    grads[parent] = contribution
                elif parent in owned:
                    grads[parent] += contribution
                else:
                    grads[parent] = grads[parent] + contribution
                    owned.add(parent)
        out = []
        for idx, value in self._params:
            g = grads[idx]
            try:
                out.append(Tensor._adopt(np.zeros_like(value) if g is None else g))
            except ValueError:
                raise NonFiniteError(f"gradient of parameter {len(out)}",
                                     position=len(out)) from None
        return out


def _same_tape(*nodes: Node) -> Tape:
    tape = nodes[0].tape
    for n in nodes[1:]:
        if n.tape is not tape:
            raise ValueError("operands live on different tapes")
    return tape


def _lift(tape: Tape, other) -> Node:
    if isinstance(other, Node):
        return other
    return tape.constant(other)


# -- elementwise and scalar arithmetic ------------------------------------


def add(x: Node, y) -> Node:
    y = _lift(x.tape, y)
    tape = _same_tape(x, y)
    xv, yv = x.value, y.value
    if xv.shape != yv.shape:
        raise ShapeError(f"add shapes differ: {xv.shape} vs {yv.shape}")
    return tape.append("add", xv + yv, (x.index, y.index), (lambda g: g, lambda g: g))


def sub(x: Node, y) -> Node:
    y = _lift(x.tape, y)
    tape = _same_tape(x, y)
    xv, yv = x.value, y.value
    if xv.shape != yv.shape:
        raise ShapeError(f"sub shapes differ: {xv.shape} vs {yv.shape}")
    return tape.append("sub", xv - yv, (x.index, y.index), (lambda g: g, lambda g: -g))


def mul(x: Node, y) -> Node:
    if not isinstance(y, Node):
        return scale(x, float(y))
    tape = _same_tape(x, y)
    xv, yv = x.value, y.value
    if xv.shape != yv.shape:
        raise ShapeError(f"mul shapes differ: {xv.shape} vs {yv.shape}")
    return tape.append(
        "mul", xv * yv, (x.index, y.index), (lambda g: g * yv, lambda g: g * xv)
    )


def scale(x: Node, c: float) -> Node:
    c = float(c)
    return x.tape.append("scale", x.value * c, (x.index,), (lambda g: g * c,))


# -- core network primitives -----------------------------------------------


def matmul_affine(x: Node, w: Node, b: Node) -> Node:
    """x (n, a) @ w (a, b) + bias (b,), bias broadcast over rows."""
    tape = _same_tape(x, w, b)
    xv, wv = x.value, w.value
    return tape.append(
        "matmul_affine",
        affine_values(xv, wv, b.value),
        (x.index, w.index, b.index),
        (lambda g: _matmul(g, wv.T), lambda g: _matmul(xv.T, g), lambda g: g.sum(axis=0)),
    )


def affine_values(x, w, b) -> Array:
    """`matmul_affine` on raw arrays or Tensors: a new array `x @ w + b`."""
    x, w, b = _as_array(x), _as_array(w), _as_array(b)
    if x.ndim != 2 or w.ndim != 2 or b.ndim != 1:
        raise ShapeError(
            f"matmul_affine expects (n,a) @ (a,b) + (b,), got {x.shape}, {w.shape}, {b.shape}"
        )
    if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ShapeError(
            f"matmul_affine dimensions disagree: x {x.shape}, w {w.shape}, b {b.shape}"
        )
    out = _matmul(x, w)
    out += b
    return out


# -- the helper thread (see "Parallelism") -----------------------------------------

_SPLIT_ROWS, _SPLIT_COLS, _SPLIT_SIZE = 128, 64, 1 << 15  # the smallest split product, parameter
# A product is split only while OpenBLAS runs one thread (the variable it reads
# first decides); with more, its own threads share the cores already, and
# two halves at once ran desk-width training 14% slower.
_SERIAL_BLAS = (os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")) == "1"
_pools: list[ThreadPoolExecutor] = []  # the helper, once started
os.register_at_fork(after_in_child=_pools.clear)  # a forked child has no helper thread


def _helper() -> ThreadPoolExecutor | None:
    """The helper thread, started on first use; None with one usable core and
    on any thread but the main one, whose caller then runs the whole kernel.

    An `experiment --jobs` thread already shares the cores, and a helper that
    needs the GIL to hand a half back waits behind the other jobs' Python:
    with it, desk `--jobs 2` gained ×1.05 over `--jobs 1` instead of ×1.8."""
    if threading.current_thread() is not threading.main_thread():
        return None
    if not _pools and len(os.sched_getaffinity(0)) > 1:
        _pools.append(ThreadPoolExecutor(1, thread_name_prefix="heteroadapt-helper"))
    return _pools[0] if _pools else None


def _in_halves(pool: ThreadPoolExecutor, kernel, top, bottom) -> None:
    """`kernel(*top)` in the caller and `kernel(*bottom)` on the helper `pool`.
    A kernel is numpy's or private and writes into arrays the caller
    allocated, so no public function of this package runs off the caller's
    thread."""
    future = pool.submit(_on_helper, kernel, list(bottom), np.geterr())
    try:
        kernel(*top)
    finally:
        future.result()


def _on_helper(kernel, args: list, err: dict) -> None:
    """`kernel(*args)` under the caller's numpy error settings (they are per
    thread), holding no argument once the caller's wait ends."""
    with np.errstate(**err):
        kernel(*args)
    args.clear()


def _matmul(a: Array, b: Array) -> Array:
    """A new array `a @ b`, two row halves of it at once when it is large."""
    rows, cols = a.shape[0], b.shape[1]
    pool = _helper() if rows >= _SPLIT_ROWS and cols >= _SPLIT_COLS and _SERIAL_BLAS else None
    if pool is None:
        return a @ b
    out = np.empty((rows, cols))
    h = rows // 2
    _in_halves(pool, np.matmul, (a[:h], b, out[:h]), (a[h:], b, out[h:]))
    return out


def relu(x: Node) -> Node:
    xv = x.value
    mask = xv > 0
    return x.tape.append("relu", np.maximum(xv, 0.0), (x.index,), (lambda g: g * mask,))


def leaky_relu(x: Node, slope: float = 0.01) -> Node:
    """Elementwise max(x, slope * x).

    The vjp is `g * where(x >= slope * x, 1, slope)`. The forward reads
    that mask as `out == x`, which holds exactly where `x >= slope * x`,
    and the vjp keeps only the boolean mask, not `x`. It builds the factor
    arithmetically: `max(mask, slope)` for slope <= 1,
    `fmax(~mask * slope, 1)` above 1 (`fmax` turns `0 * inf` into 1).
    Both equal the `where` factor bit for bit, without its per-element
    branch.
    """
    slope = float(slope)
    xv = x.value
    out = leaky_relu_values(xv, slope)
    keep = out == xv

    def vjp(g):
        if slope > 1.0:
            factor = np.multiply(~keep, slope, dtype=np.float64)
            np.fmax(factor, 1.0, out=factor)
        else:
            factor = np.maximum(keep, slope, dtype=np.float64)
        factor *= g
        return factor

    return x.tape.append("leaky_relu", out, (x.index,), (vjp,))


def leaky_relu_values(x, slope: float = 0.01) -> Array:
    """`leaky_relu` on raw arrays or Tensors: a new array `max(x, slope * x)`."""
    slope = float(slope)
    if slope < 0:
        raise ValueError(f"leaky_relu slope must be >= 0, got {slope}")
    x = _as_array(x)
    out = np.multiply(slope, x, out=np.empty_like(x))
    np.maximum(x, out, out=out)
    return out


def sigmoid(x: Node) -> Node:
    s = sigmoid_values(x.value)
    return x.tape.append("sigmoid", s, (x.index,), (lambda g: g * s * (1.0 - s),))


def sigmoid_values(x: Array) -> Array:
    """Overflow-safe logistic 1 / (1 + exp(-x)) on raw arrays."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))


# -- reductions and losses --------------------------------------------------


def weighted_row_sum(x: Node, weights) -> Node:
    """Constant weights (n,) or (m, n) @ x (n, d) -> (d,) or (m, d)."""
    wv = _as_array(weights)
    xv = x.value
    if xv.ndim != 2 or wv.ndim not in (1, 2) or wv.shape[-1] != xv.shape[0]:
        raise ShapeError(f"weighted_row_sum got weights {wv.shape} for matrix {xv.shape}")
    vjp = (lambda g: np.outer(wv, g)) if wv.ndim == 1 else (lambda g: wv.T @ g)
    return x.tape.append("weighted_row_sum", wv @ xv, (x.index,), (vjp,))


def sum_sq(x: Node) -> Node:
    """Sum of squared entries, as a scalar node."""
    xv = x.value
    return x.tape.append("sum_sq", np.sum(xv * xv), (x.index,), (lambda g: g * 2.0 * xv,))


def sum_abs(x: Node) -> Node:
    """Sum of absolute entries; subgradient 0 at exact zeros."""
    xv = x.value
    return x.tape.append("sum_abs", np.sum(np.abs(xv)), (x.index,), (lambda g: g * np.sign(xv),))


def softmax_values(logits: Array) -> Array:
    """Row-wise stable softmax on raw arrays."""
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: Node, labels) -> Node:
    """Mean over rows of -log softmax(logits)[label], in log-sum-exp form.

    `labels` is constant data: one integer class in [0, C) per row.
    """
    zv = logits.value
    y = np.asarray(labels)
    if zv.ndim != 2 or y.shape != zv.shape[:1]:
        raise ShapeError(f"cross entropy labels {y.shape} do not match logits {zv.shape}")
    if y.dtype.kind not in "iu":
        raise ValueError(f"cross entropy labels must be integers, got dtype {y.dtype}")
    n, num_classes = zv.shape
    if y.min() < 0 or y.max() >= num_classes:
        raise ValueError(f"cross entropy labels must lie in [0, {num_classes})")
    rows = np.arange(n)
    m = zv.max(axis=1, keepdims=True)
    d = np.exp(zv - m)  # becomes softmax - onehot, in place
    total = d.sum(axis=1, keepdims=True)
    out = np.mean(m[:, 0] + np.log(total[:, 0]) - zv[rows, y])
    d /= total
    d[rows, y] -= 1.0
    return logits.tape.append(
        "softmax_cross_entropy",
        out,
        (logits.index,),
        (lambda g: g * d / n,),
    )


def squared_error(pred: Node, target) -> Node:
    """Mean over rows of the squared row difference (summed across columns).

    `target` is constant data, one row per row of `pred` or one row shared
    by all; it stays off the tape, and gradients flow only into `pred`.
    """
    pv, tv = pred.value, _as_array(target)
    if pv.ndim != 2 or tv.shape not in (pv.shape, pv.shape[1:]):
        raise ShapeError(f"squared_error shapes differ: {pv.shape} vs {tv.shape}")
    n = pv.shape[0]
    diff = pv - tv
    out = np.sum(diff * diff) / n
    return pred.tape.append("squared_error", out, (pred.index,), (lambda g: g * 2.0 * diff / n,))


# -- optimizer ---------------------------------------------------------------


class Adam:
    """Adam with bias correction; one (m, v) accumulator pair per parameter.

    Update: m <- b1 m + (1-b1) g; v <- b2 v + (1-b2) g^2;
    p <- p - lr * mhat / (sqrt(vhat) + eps). A zero gradient from a fresh
    state leaves parameters bit-identical. `m` and `v` are updated in place
    with the operation order of those formulas, and each step holds one
    parameter-sized temporary besides the new parameter. A step checks
    every shape before it changes any state.
    """

    def __init__(self, params: Sequence[Tensor], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not (0.0 < beta1 < 1.0 and 0.0 < beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in (0, 1)")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        self.m = [np.zeros(p.shape) for p in params]
        self.v = [np.zeros(p.shape) for p in params]

    def step(self, params: Sequence[Tensor], grads: Sequence[Tensor]) -> list[Tensor]:
        if len(params) != len(self.m) or len(grads) != len(self.m):
            raise ShapeError(
                f"optimizer tracks {len(self.m)} tensors, got {len(params)} params / {len(grads)} grads"
            )
        for i, (p, g, m) in enumerate(zip(params, grads, self.m)):
            if p.shape != m.shape or g.shape != m.shape:
                raise ShapeError(
                    f"parameter {i}: shapes {p.shape}/{g.shape} do not match state {m.shape}"
                )
        self.step_count += 1
        t = self.step_count
        scales = (self.beta1, self.beta2, 1.0 - self.beta1 ** t, 1.0 - self.beta2 ** t,
                  self.lr, self.eps)
        out = []
        for p, g, m, v in zip(params, grads, self.m, self.v):
            new = np.empty_like(m)
            arrays = (p.array, g.array, m, v, np.empty_like(m), new)
            pool = _helper() if m.size >= _SPLIT_SIZE else None
            if pool is None:
                _adam_update(*arrays, scales)
            else:
                h = m.size // 2
                flat = [a.reshape(-1) for a in arrays]
                _in_halves(pool, _adam_update, [*(a[:h] for a in flat), scales],
                           [*(a[h:] for a in flat), scales])
            out.append(Tensor._adopt(new))
        return out


def _adam_update(p, g, m, v, tmp, new, scales) -> None:
    """One Adam update of `m`, `v` and `new` in place, in the formulas' op order."""
    beta1, beta2, m_scale, v_scale, lr, eps = scales
    m *= beta1
    np.multiply(1.0 - beta1, g, tmp)
    m += tmp
    v *= beta2
    np.multiply(1.0 - beta2, g, tmp)
    tmp *= g
    v += tmp
    np.divide(v, v_scale, tmp)
    np.sqrt(tmp, tmp)
    tmp += eps
    np.divide(m, m_scale, new)
    new *= lr
    new /= tmp
    np.subtract(p, new, new)
