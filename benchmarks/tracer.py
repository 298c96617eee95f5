"""Spans and counters around heteroadapt's public names, from outside the package.

`Tracer.install` replaces each public function of the package's modules in
every module namespace where it is bound, so a function imported by name
(`model.matmul_affine`, `cli.train`) is wrapped where callers look it up.
Four class attributes are wrapped on the class itself: `Tape.backward` and
`Adam.step` get spans, `Tape.append` and `Tensor.__init__` are only
counted. `uninstall` restores every original binding.

A span records calls, inclusive time and self time (inclusive minus the
time of wrapped calls made inside it). Spans are aggregated per name in
memory; nothing is written while the workload runs. Wrapping changes no
argument and no return value, so traces stay bit-identical.
"""

from __future__ import annotations

import functools
import inspect
import os
import time

MODULES = ("numerics", "model", "training", "data", "experiments", "cli")

# The spans the end-to-end run needs to split set-up from training.
BOUNDARY_NAMES = frozenset({
    "training.train",
    "training.train_step",
    "experiments.run_ablation",
    "experiments.run_baseline_nnst",
    "experiments.run_baseline_nnt",
})

_SAMPLES = 256


def _fingerprint(arr) -> tuple:
    """Shape plus up to 256 evenly spaced entries.

    Repeated forwards give bit-identical arrays; forwards with other
    parameters or inputs differ in nearly every entry, so a sample tells
    them apart without hashing megabytes per call.
    """
    flat = arr.reshape(-1)
    return arr.shape, flat[:: max(1, flat.size // _SAMPLES)].tobytes()


class Tracer:
    """Per-name span aggregates plus the counters the benchmark reports."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.first_entry: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []
        self.counts = dict.fromkeys((
            "tape_nodes", "tape_bytes", "tensor_inits",
            "matmul_flop", "matmul_bytes", "matmul_repeats",
            "transform_distinct", "adam_bytes", "load_bytes", "write_trace_bytes",
        ), 0)
        self._seen_matmul: set = set()
        self._seen_transform: set = set()

    # -- counters ----------------------------------------------------------

    def reset(self) -> None:
        """Zero every aggregate in place; the wrappers keep their references."""
        for rec in self.spans.values():
            rec[:] = [0, 0.0, 0.0]
        self.first_entry.clear()
        for key in self.counts:
            self.counts[key] = 0
        self._seen_matmul.clear()
        self._seen_transform.clear()

    def calls(self, name: str) -> int:
        rec = self.spans.get(name)
        return 0 if rec is None else rec[0]

    def inclusive_s(self, name: str) -> float:
        rec = self.spans.get(name)
        return 0.0 if rec is None else rec[1]

    # -- hooks: work counted from arguments, after the span is closed ---------

    def _on_matmul_affine(self, args, kwargs, out):
        x, w, b = args[:3]
        n, a = x.value.shape
        cols = w.value.shape[1]
        c = self.counts
        c["matmul_flop"] += 2 * n * a * cols + n * cols
        c["matmul_bytes"] += 8 * (n * a + a * cols + cols + n * cols)
        key = (_fingerprint(x.value), _fingerprint(w.value), _fingerprint(b.value))
        if key in self._seen_matmul:
            c["matmul_repeats"] += 1
        else:
            self._seen_matmul.add(key)

    def _on_transform(self, args, kwargs, out):
        t, x = args[:2]
        key = tuple(_fingerprint(n.value) for n in (t.w1, t.b1, t.w2, t.b2, x))
        if key not in self._seen_transform:
            self._seen_transform.add(key)
            self.counts["transform_distinct"] += 1

    def _on_adam_step(self, args, kwargs, out):
        # read p, g, m, v and write m, v, p: seven passes over the parameters
        self.counts["adam_bytes"] += 7 * sum(p.array.nbytes for p in args[1])

    def _on_load_domain_file(self, args, kwargs, out):
        self.counts["load_bytes"] += os.path.getsize(args[0])

    def _on_write_trace_csv(self, args, kwargs, out):
        self.counts["write_trace_bytes"] += os.path.getsize(args[0])

    # -- wrapping --------------------------------------------------------------

    def _span(self, name, fn, hook=None):
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack, first, clock = self._stack, self.first_entry, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            if name not in first:
                first[name] = frame[0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                hook(args, kwargs, out)
            return out

        return wrapper

    def _count_append(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def append(*args, **kwargs):
            node = fn(*args, **kwargs)
            counts["tape_nodes"] += 1
            counts["tape_bytes"] += node.value.nbytes
            return node

        return append

    def _count_init(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def __init__(*args, **kwargs):
            counts["tensor_inits"] += 1
            return fn(*args, **kwargs)

        return __init__

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package, names=None, expected=()) -> None:
        """Wrap the package's public functions (only `names`, if given).

        Names in `expected` that the package no longer defines are listed in
        `absent` instead of failing the run.
        """
        if self._undo:
            raise RuntimeError("tracer is already installed")
        mods = {short: getattr(package, short) for short in MODULES}
        namespaces = [package, *mods.values()]
        hooks = {
            "numerics.matmul_affine": self._on_matmul_affine,
            "model.transform": self._on_transform,
            "data.load_domain_file": self._on_load_domain_file,
            "cli.write_trace_csv": self._on_write_trace_csv,
        }
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or (names is not None and name not in names)):
                    continue
                wrapper = self._span(name, fn, hooks.get(name))
                for ns in namespaces:
                    for bound, obj in list(vars(ns).items()):
                        if obj is fn:
                            self._set(ns, bound, wrapper)
        if names is None:
            numerics = mods["numerics"]
            tape, adam, tensor = numerics.Tape, numerics.Adam, numerics.Tensor
            self._set(tape, "backward", self._span("numerics.Tape.backward", tape.backward))
            self._set(adam, "step", self._span("numerics.Adam.step", adam.step,
                                               self._on_adam_step))
            self._set(tape, "append", self._count_append(tape.append))
            self._set(tensor, "__init__", self._count_init(tensor.__init__))
        self.absent = sorted(n for n in expected if n not in self.spans)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
