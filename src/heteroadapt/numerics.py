"""Dense float64 tensors, a reverse-mode gradient tape, and Adam.

Conventions: data matrices are (n, d) with samples in rows; vectors are
rank 1. Tape nodes hold raw ndarrays (scalars are 0-d); the `Tensor`
wrapper is the validated value type used for parameters and datasets.

Seven rules keep the hot paths lean without changing a result:

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
- Lifetime. A `Node` owns its value, the tape keeps none (the
  parameters' shapes give unreached parameters zero gradients),
  and a vjp captures only what it reads: `leaky_relu` and `relu` keep a
  boolean mask, not their input. So an intermediate lives only while its
  node or a vjp that reads it does; a pre-activation is freed as soon as
  its node is dropped. `backward` drops each node's vjps as soon as the
  sweep passes the node, so what they captured is freed during the sweep
  and the next allocations reuse its blocks; a tape is therefore
  differentiated once.
- Memory. At import, glibc's mmap threshold is fixed at 32 MiB (the
  ceiling of its own dynamic threshold) and its trim threshold at 64 MiB.
  By default both thresholds move with the largest block freed so far, so
  whether a step's freed arrays went back to the kernel, to be faulted in
  again by the next step, depended on what the process had allocated
  before; fixed, every step reuses the heap the last one freed. A C
  library without `mallopt` keeps its defaults.
- Parallelism. A private helper thread computes half of each large
  kernel, under the caller's numpy error settings. A product of at least
  128 rows, 64 columns and a contraction of 64 (`affine_values`, both
  matrix vjps of `matmul_affine`) is split by rows of its output, never
  along the contraction, so each entry keeps its k-loop and equals one
  `a @ b` bit for bit (narrower products do not always); a thinner one
  ran slower split, since the helper idles between calls. A product is
  split only while OpenBLAS runs one thread. Adam updates a parameter of
  at least 2**15 entries as two flat halves in the same op order, and the
  smaller ones together as one flat bucket on the caller, which gives each
  entry the same ops in the same order and pays a tensor's fixed cost once. A
  thread other than the main one, or any with one usable core, runs the
  whole kernel, which gives the same bits, so traces depend on neither
  the core count nor `--jobs`.
- Replay. Each op kind is one `Op`: a forward kernel and one vjp rule per
  parent, shared by the eager op functions and `Program`, which runs a
  recorded tape's kernels again in order on new leaf values, then the same
  `backward`; so a replay repeats the eager float ops by construction.
  Only leaves whose value is a caller's slot array are rebound; every other
  leaf and static argument is a per-run constant (a writable static array
  is refused), so no step structure may depend on values: a sigmoid held
  at its ceiling and the class means' soft-label weights are kernels. A
  replay drops each value after its last reader unless a rule saved it or
  the caller keeps it, and its tape lives one step.
"""

from __future__ import annotations

import ctypes
import os
import threading
import weakref
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import NonFiniteError, ShapeError

Array = np.ndarray


def _fix_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds (see "Memory"); a no-op where
    the C library has no `mallopt`."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_fix_malloc_thresholds()


class Tensor:
    """Immutable rank-1 or rank-2 array of finite float64 values.

    `Tensor(...)` always copies and validates: every dimension is positive
    and every entry is finite. The backing array is marked read-only, so
    tensors are safe to share across threads. Only `Tape.backward` and
    `Adam.step` may call `Tensor._adopt`, which validates the same way but
    keeps the array it is given; they pass arrays nothing else can write.
    `Adam.step` also wraps read-only views of one array it checked so.
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
    if 0 in arr.shape:
        raise ShapeError(f"tensor dimensions must be positive, got shape {arr.shape}")
    if not np.isfinite(arr).all():
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


# One kind of tape op: `forward(*static, *parent_values)` gives the value and
# what the rules read, and `vjps[k](g, *saved)` gives parent k's gradient
# contribution (None: none flows there). Eager ops and `Program` share them;
# a leaf's static argument is a weak reference to its value.
Op = namedtuple("Op", "name forward vjps")
_PARAM, _CONST = (Op(name, lambda v: (v, ()), ()) for name in ("param", "const"))


class Tape:
    """Wengert-list record of primitive operations.

    Nodes are appended in execution order, so node ids are topologically
    ordered by construction (every parent id is smaller than its consumer).
    Each entry stores the op name, parent ids, its kind with its static
    arguments, and its gradient rules with what they read; `backward` walks
    the list in reverse. Forward values belong to the `Node`s (see
    "Lifetime").
    """

    def __init__(self):
        self._ops: list[str] = []
        self._parents: list[tuple[int, ...]] = []
        self._code: list[tuple[Op | None, tuple]] = []  # (kind, static arguments)
        self._vjps: list[tuple[tuple, tuple] | None] = []  # (rules, what they read)
        self._needs_grad: list[bool] = []
        self._params: list[tuple[int, tuple[int, ...]]] = []  # (index, shape)
        self._differentiated = False

    # -- construction ----------------------------------------------------

    def append(self, op, value, parents=(), vjps=(), needs_grad=None, kind=None,
               static=()) -> Node:
        """Record `value`, made read-only, as a node named `op`; keeps the tuples
        given: with an `Op` `kind`, what its rules read and its static
        arguments, else one gradient callable per parent (not replayable)."""
        if type(value) is not np.ndarray or value.dtype != np.float64:
            value = np.asarray(value, dtype=np.float64)
        value.setflags(write=False)
        if needs_grad is None:
            needs_grad = any(self._needs_grad[p] for p in parents)
        self._ops.append(op)
        self._parents.append(parents)
        self._code.append((kind, static))
        self._vjps.append((vjps, ()) if kind is None else (kind.vjps, vjps))
        self._needs_grad.append(needs_grad)
        return Node(self, len(self._ops) - 1, value)

    def param(self, tensor: Tensor) -> Node:
        """Register a trainable leaf; `backward` returns its gradient."""
        if not isinstance(tensor, Tensor):
            tensor = Tensor(tensor)
        node = self.append("param", tensor.array, needs_grad=True, kind=_PARAM,
                           static=(weakref.ref(tensor.array),))
        self._params.append((node.index, node.shape))
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
        return self.append("const", arr, needs_grad=False, kind=_CONST,
                           static=(weakref.ref(arr),))

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
        dropped once it has been propagated, unless the node is a parameter,
        and its vjps as the sweep passes it, reached or not; so a tape is
        differentiated once, and a second call raises `ValueError`.
        """
        if loss.tape is not self:
            raise ValueError("loss node belongs to a different tape")
        if loss.value.ndim != 0:
            raise ShapeError(f"backward needs a scalar loss node, got shape {loss.shape}")
        if self._differentiated:
            raise ValueError("tape was already differentiated; its vjps are freed")
        self._differentiated = True
        retained = {idx for idx, _ in self._params}
        owned: set[int] = set()
        grads: list[Array | None] = [None] * len(self._ops)
        grads[loss.index] = np.ones((), dtype=np.float64)
        parents_of, vjps, needs_grad = self._parents, self._vjps, self._needs_grad
        for i in range(loss.index, -1, -1):
            (rules, saved), vjps[i] = vjps[i], None
            g = grads[i]
            if g is None:
                continue
            if i not in retained:
                grads[i] = None
            for parent, vjp in zip(parents_of[i], rules):
                if vjp is None or not needs_grad[parent]:
                    continue
                contribution = vjp(g, *saved)
                if grads[parent] is None:
                    grads[parent] = contribution
                elif parent in owned:
                    grads[parent] += contribution
                else:
                    grads[parent] = grads[parent] + contribution
                    owned.add(parent)
        out = []
        for idx, shape in self._params:
            g = grads[idx]
            try:
                out.append(Tensor._adopt(np.zeros(shape) if g is None else g))
            except ValueError:
                raise NonFiniteError(f"gradient of parameter {len(out)}",
                                     position=len(out)) from None
        return out


class Program:
    """A recorded tape, evaluated again on new leaf values (see "Replay").

    A leaf whose recorded value is `slots[j]` itself reads slot `j` of each
    `run`; `keep` lists the nodes the caller reads after their last reader.
    A node without a kernel, an unbound trainable leaf or slot, a freed
    constant or a writable static array raises `ValueError`."""

    def __init__(self, tape: Tape, slots: Sequence[Array], keep: Sequence[int] = ()):
        where = {id(a): j for j, a in enumerate(slots)}
        last = {p: i for i, parents in enumerate(tape._parents) for p in (i, *parents)}
        dead: list[list[int]] = [[] for _ in last]  # the values each node reads last
        for p, i in last.items():
            if p not in keep:
                dead[i].append(p)
        self._code = []
        for i, (kind, static) in enumerate(tape._code):
            if kind is _PARAM or kind is _CONST:
                static = (static[0](),)  # the leaf's value, None once it was freed
                if id(static[0]) in where:  # bound: the program keeps no value of it
                    self._code.append((None, where[id(static[0])], (), (), ()))
                    continue
            if kind is None or kind is _PARAM or any(
                    a is None or isinstance(a, np.ndarray) and not _frozen(a) for a in static):
                raise ValueError(f"node {i} ({tape._ops[i]}) cannot be replayed")
            self._code.append((kind.forward, tape._parents[i], static, kind.vjps, dead[i]))
        if len({c[1] for c in self._code if c[0] is None}) != len(where):
            raise ValueError("a slot array is no leaf of the tape")
        self._shape = (tape._ops, tape._parents, tape._needs_grad, tape._params)

    def run(self, slots: Sequence[Array], stop: int | None = None,
            tape: Tape | None = None) -> Tape:
        """Evaluate the nodes after those `tape` holds (a new tape if None) up
        to `stop`, and return the tape; it is read through `node` and
        differentiated, never appended to."""
        if tape is None:
            tape = Tape()
            tape._ops, tape._parents, tape._needs_grad, tape._params = self._shape
            tape._values = []
        values, vjps = tape._values, tape._vjps
        for forward, parents, static, rules, dead in self._code[len(values):stop]:
            if forward is None:  # a bound leaf; `parents` is its slot
                values.append(slots[parents])
                vjps.append(((), ()))
                continue
            value, saved = forward(*static, *[values[p] for p in parents])
            values.append(value)
            vjps.append((rules, saved))
            for p in dead:
                values[p] = None
        return tape

    def node(self, tape: Tape, index: int) -> Node:
        """A handle to a node `run` evaluated on `tape` and kept."""
        return Node(tape, index, tape._values[index])


def _same_tape(*nodes: Node) -> Tape:
    tape = nodes[0].tape
    for n in nodes[1:]:
        if n.tape is not tape:
            raise ValueError("operands live on different tapes")
    return tape


def apply(op: Op, nodes: Sequence[Node], static: tuple = ()) -> Node:
    """`op` on `nodes`, which share one tape, recorded with its static arguments."""
    tape = _same_tape(*nodes)
    value, saved = op.forward(*static, *[n.value for n in nodes])
    return tape.append(op.name, value, tuple(n.index for n in nodes), saved, kind=op,
                       static=static)


# -- elementwise and scalar arithmetic ------------------------------------


def add(x: Node, y) -> Node:
    y = y if isinstance(y, Node) else x.tape.constant(y)
    if x.shape != y.shape:
        raise ShapeError(f"add shapes differ: {x.shape} vs {y.shape}")
    return apply(_ADD, (x, y))


def sub(x: Node, y) -> Node:
    y = y if isinstance(y, Node) else x.tape.constant(y)
    if x.shape != y.shape:
        raise ShapeError(f"sub shapes differ: {x.shape} vs {y.shape}")
    return apply(_SUB, (x, y))


def mul(x: Node, y) -> Node:
    if not isinstance(y, Node):
        return scale(x, float(y))
    if x.shape != y.shape:
        raise ShapeError(f"mul shapes differ: {x.shape} vs {y.shape}")
    return apply(_MUL, (x, y))


def scale(x: Node, c: float) -> Node:
    return apply(_SCALE, (x,), (float(c),))


# -- core network primitives -----------------------------------------------


def matmul_affine(x: Node, w: Node, b: Node) -> Node:
    """x (n, a) @ w (a, b) + bias (b,), bias broadcast over rows."""
    tape = _same_tape(x, w, b)
    xv, wv = x.value, w.value
    return tape.append("matmul_affine", affine_values(xv, wv, b.value),
                       (x.index, w.index, b.index), (xv, wv), kind=_MATMUL_AFFINE)


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
    return _MATMUL_AFFINE.forward(x, w, b)[0]


# -- the helper thread (see "Parallelism") -----------------------------------------

_SPLIT_ROWS, _SPLIT_COLS, _SPLIT_DEPTH = 128, 64, 64  # the smallest split product
_SPLIT_SIZE = 1 << 15  # the smallest split parameter
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
    (rows, depth), cols = a.shape, b.shape[1]
    large = rows >= _SPLIT_ROWS and cols >= _SPLIT_COLS and depth >= _SPLIT_DEPTH
    pool = _helper() if large and _SERIAL_BLAS else None
    if pool is None:
        return a @ b
    out = np.empty((rows, cols))
    h = rows // 2
    _in_halves(pool, np.matmul, (a[:h], b, out[:h]), (a[h:], b, out[h:]))
    return out


def relu(x: Node) -> Node:
    return apply(_RELU, (x,))


LEAKY_SLOPE = 0.01  # the negative-side slope of the transformers' leaky rectifier


def leaky_relu(x: Node) -> Node:
    """Elementwise max(x, LEAKY_SLOPE * x).

    The vjp is `g * where(x >= LEAKY_SLOPE * x, 1, LEAKY_SLOPE)`. The
    forward reads that mask as `out == x`, which holds exactly where
    `x >= LEAKY_SLOPE * x`, and the vjp keeps only the boolean mask, not
    `x`. It builds the factor as `max(mask, LEAKY_SLOPE)`, which equals the
    `where` factor bit for bit for a slope in [0, 1], without its
    per-element branch, and multiplies `g` into it in place.
    """
    return apply(_LEAKY_RELU, (x,))


def leaky_relu_values(x) -> Array:
    """`leaky_relu` on raw arrays or Tensors: a new array `max(x, LEAKY_SLOPE * x)`."""
    x = _as_array(x)
    out = np.multiply(LEAKY_SLOPE, x, out=np.empty_like(x))
    np.maximum(x, out, out=out)
    return out


def sigmoid(x: Node, ceiling: float = np.inf) -> Node:
    """Elementwise logistic, held at `ceiling` where it would pass it; a held
    entry passes the gradient `g * 0.0`, any other `g * s * (1 - s)`."""
    return apply(_SIGMOID, (x,), (float(ceiling),))


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
    return apply(_WEIGHTED_ROW_SUM, (x,), (wv,))


def sum_sq(x: Node) -> Node:
    """Sum of squared entries, as a scalar node."""
    return apply(_SUM_SQ, (x,))


def sum_abs(x: Node) -> Node:
    """Sum of absolute entries; subgradient 0 at exact zeros."""
    return apply(_SUM_ABS, (x,))


def softmax_values(logits: Array) -> Array:
    """Row-wise stable softmax on raw arrays."""
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - _row_max(z))
    return e / e.sum(axis=1, keepdims=True)


def _row_max(z: Array) -> Array:
    """`z.max(axis=1, keepdims=True)`, several times faster at a few columns.
    A maximum is exact; only a zero's sign may differ, which no caller sees."""
    return reduce(np.maximum, z.T)[:, None]


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
    if y.min() < 0 or y.max() >= zv.shape[1]:
        raise ValueError(f"cross entropy labels must lie in [0, {zv.shape[1]})")
    return apply(_CROSS_ENTROPY, (logits,), (y,))


def _cross_entropy(y: Array, z: Array) -> tuple[Array, tuple]:
    n = z.shape[0]
    rows = np.arange(n)
    m = _row_max(z)
    d = np.exp(z - m)  # becomes softmax - onehot, in place
    total = d.sum(axis=1, keepdims=True)
    out = np.mean(m[:, 0] + np.log(total[:, 0]) - z[rows, y])
    d /= total
    d[rows, y] -= 1.0
    return out, (d, n)


def squared_error(pred: Node, target) -> Node:
    """Mean over rows of the squared row difference (summed across columns).

    `target` is constant data, one row per row of `pred` or one row shared
    by all; it stays off the tape, and gradients flow only into `pred`.
    """
    pv, tv = pred.value, _as_array(target)
    if pv.ndim != 2 or tv.shape not in (pv.shape, pv.shape[1:]):
        raise ShapeError(f"squared_error shapes differ: {pv.shape} vs {tv.shape}")
    return apply(_SQUARED_ERROR, (pred,), (tv,))


# -- the op table: each kind's kernel and per-parent rules (see "Replay") -----

_ADD = Op("add", lambda x, y: (x + y, ()), (lambda g: g, lambda g: g))
_SUB = Op("sub", lambda x, y: (x - y, ()), (lambda g: g, lambda g: -g))
_MUL = Op("mul", lambda x, y: (x * y, (x, y)), (lambda g, x, y: g * y, lambda g, x, y: g * x))
_SCALE = Op("scale", lambda c, x: (x * c, (c,)), (lambda g, c: g * c,))
_MATMUL_AFFINE = Op("matmul_affine", lambda x, w, b: (
    np.add(out := _matmul(x, w), b, out=out), (x, w)), (  # out += b
    lambda g, x, w: _matmul(g, w.T), lambda g, x, w: _matmul(x.T, g),
    lambda g, x, w: g.sum(axis=0)))
_RELU = Op("relu", lambda x: (np.maximum(x, 0.0), (x > 0,)), (lambda g, mask: g * mask,))
_LEAKY_RELU = Op("leaky_relu", lambda x: (out := leaky_relu_values(x), (out == x,)), (
    lambda g, keep: np.multiply(f := np.maximum(keep, LEAKY_SLOPE, dtype=np.float64), g, out=f),))
_SIGMOID = Op("sigmoid", lambda c, x: (np.minimum(s := sigmoid_values(x), c), (s, c)), (
    lambda g, s, c: np.where(s > c, g * 0.0, g * s * (1.0 - s)),))
_WEIGHTED_ROW_SUM = Op("weighted_row_sum", lambda w, x: (w @ x, (w,)), (
    lambda g, w: np.outer(w, g) if w.ndim == 1 else w.T @ g,))
_SUM_SQ = Op("sum_sq", lambda x: (np.sum(x * x), (x,)), (lambda g, x: g * 2.0 * x,))
_SUM_ABS = Op("sum_abs", lambda x: (np.sum(np.abs(x)), (x,)), (lambda g, x: g * np.sign(x),))
_CROSS_ENTROPY = Op("softmax_cross_entropy", _cross_entropy, (lambda g, d, n: g * d / n,))
_SQUARED_ERROR = Op("squared_error", lambda t, p: (
    np.sum((d := p - t) * d) / p.shape[0], (d, p.shape[0])), (lambda g, d, n: g * 2.0 * d / n,))


# -- optimizer ---------------------------------------------------------------


class Adam:
    """Adam with bias correction; one (m, v) accumulator pair per parameter.

    Update: m <- b1 m + (1-b1) g; v <- b2 v + (1-b2) g^2;
    p <- p - lr * mhat / (sqrt(vhat) + eps). A zero gradient from a fresh
    state leaves parameters bit-identical. `m` and `v` are updated in place
    with the operation order of those formulas. Every parameter of fewer
    than 2**15 entries is in one bucket: its `m` and `v` are views into one
    flat pair, and a step updates the bucket's concatenated values and
    gradients in one pass, checks the result once and returns each such
    parameter as a read-only view of it; when every bucketed parameter is
    again the view the last step returned, that step's array is the values
    as they are, with no concatenation. A larger one is updated alone. Each
    step holds one temporary per bucket or large parameter besides the new
    values, and checks every shape before it changes any state.
    """

    def __init__(self, params: Sequence[Tensor], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if not 0.0 < lr < np.inf:
            raise ValueError(f"lr must be positive and finite, got {lr}")
        if not (0.0 < beta1 < 1.0 and 0.0 < beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in (0, 1)")
        if not 0.0 < eps < np.inf:
            raise ValueError(f"eps must be positive and finite, got {eps}")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        self.m = [np.zeros(p.shape) for p in params]
        self.v = [np.zeros(p.shape) for p in params]
        self._bucket: list[tuple[int, slice, tuple[int, ...]]] = []  # (index, entries, shape)
        stop = 0
        for i, m in enumerate(self.m):
            if m.size < _SPLIT_SIZE:
                self._bucket.append((i, slice(stop, stop + m.size), m.shape))
                stop += m.size
        self._bucket_m, self._bucket_v = np.zeros((2, stop))
        for i, part, shape in self._bucket:
            self.m[i] = self._bucket_m[part].reshape(shape)
            self.v[i] = self._bucket_v[part].reshape(shape)
        self._last: tuple = (None, [])  # the last step's bucket values and the views it returned

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
        out: list = [None] * len(self.m)
        for i, (p, g, m, v) in enumerate(zip(params, grads, self.m, self.v)):
            if m.size < _SPLIT_SIZE:
                continue
            new = np.empty_like(m)
            arrays = (p.array, g.array, m, v, np.empty_like(m), new)
            pool = _helper()
            if pool is None:
                _adam_update(*arrays, scales)
            else:
                h = m.size // 2
                flat = [a.reshape(-1) for a in arrays]
                _in_halves(pool, _adam_update, [*(a[:h] for a in flat), scales],
                           [*(a[h:] for a in flat), scales])
            out[i] = Tensor._adopt(new)
        if self._bucket:
            arrays = [params[i].array for i, _, _ in self._bucket]
            p, views = self._last
            if p is None or any(a is not b for a, b in zip(arrays, views)):
                p = np.concatenate(arrays, axis=None)  # not all of the last step's views
            g = np.concatenate([grads[i].array for i, _, _ in self._bucket], axis=None)
            new = np.empty_like(p)
            _adam_update(p, g, self._bucket_m, self._bucket_v, np.empty_like(p), new, scales)
            _validated(new)
            for i, part, shape in self._bucket:
                out[i] = Tensor.__new__(Tensor)
                out[i].array = new[part].reshape(shape)  # read-only, as `new` is
            self._last = new, [out[i].array for i, _, _ in self._bucket]
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
