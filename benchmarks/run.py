"""heteroadapt benchmark: one workload, one seed, end-to-end or traced.

    python3 benchmarks/run.py --workload desk --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from the `src` directory next
to this one. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. Lines before it start
with `#` and record the environment, fingerprints and error rate.
See benchmarks/README.md for the workloads and metrics.
"""

import os

# OpenBLAS reads its thread count once, when numpy loads it. Traces are
# bit-identical only at a fixed count, and one thread is also the steadier
# timing, so the count is pinned before anything imports numpy.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

OPS = ("add", "sub", "mul", "scale", "matmul_affine", "relu", "leaky_relu", "sigmoid",
       "weighted_row_sum", "sum_sq", "sum_abs", "softmax_cross_entropy", "squared_error")


class Totals:
    """Tracer aggregates summed over traced units."""

    def __init__(self):
        self.spans: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.units = 0
        self.iters = 0  # calls of training.train_step
        self.runs = 0  # calls of training.train and experiments.plain_supervised_train

    def add(self, tracer) -> None:
        self.units += 1
        self.iters += tracer.calls("training.train_step")
        self.runs += tracer.calls("training.train") + tracer.calls(
            "experiments.plain_supervised_train")
        for name, rec in tracer.spans.items():
            acc = self.spans.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += rec[i]
        for key, value in tracer.counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def calls(self, name):
        return self.spans.get(name, [0, 0.0, 0.0])[0] / max(1, self.iters)

    def ms(self, name, per="iter", which=1):
        total = self.spans.get(name, [0, 0.0, 0.0])[which] * 1000.0
        return total / max(1, self.iters if per == "iter" else self.units)


def per_layer_metrics(t: Totals, untraced_rate: float, traced_rate: float) -> list:
    """(name, unit, value) for every per-layer metric, in BENCHMARK.json order.

    `_per_iter` divides by training iterations (calls of train_step); a
    bare `.ms`, `.mbytes` or count divides by workload units. Byte and
    flop figures are computed from shapes and sizes, not measured.
    """
    c = t.counts
    out = []
    for op in OPS:
        out.append((f"numerics.{op}.calls_per_iter", "count", t.calls(f"numerics.{op}")))
        out.append((f"numerics.{op}.fwd_ms_per_iter", "ms", t.ms(f"numerics.{op}", which=2)))
    out += [
        ("numerics.tape_nodes_per_iter", "count", c["tape_nodes"] / t.iters),
        ("numerics.Tensor.inits_per_iter", "count", c["tensor_inits"] / t.iters),
        ("numerics.tape_bytes_per_iter", "bytes", c["tape_bytes"] / t.iters),
        ("numerics.matmul_affine.repeats_per_iter", "count", c["matmul_repeats"] / t.iters),
        ("numerics.matmul_affine.mflop_per_iter", "MFLOP", c["matmul_flop"] / 1e6 / t.iters),
        ("numerics.matmul_affine.mbytes_per_iter", "MB", c["matmul_bytes"] / 1e6 / t.iters),
        ("numerics.Tape.backward.ms_per_iter", "ms", t.ms("numerics.Tape.backward")),
        ("numerics.Adam.step.ms_per_iter", "ms", t.ms("numerics.Adam.step")),
        ("numerics.Adam.step.mbytes_per_iter", "MB", c["adam_bytes"] / 1e6 / t.iters),
        ("model.transform.calls_per_iter", "count", t.calls("model.transform")),
        ("model.transform.repeat_ratio", "ratio",
         t.spans.get("model.transform", [0])[0] / max(1, c["transform_distinct"])),
        ("model.classifier_logits.calls_per_iter", "count", t.calls("model.classifier_logits")),
        ("model.classifier_logits.ms_per_iter", "ms", t.ms("model.classifier_logits")),
        ("model.class_conditional_mmd.calls_per_iter", "count",
         t.calls("model.class_conditional_mmd")),
        ("model.class_conditional_mmd.ms_per_iter", "ms", t.ms("model.class_conditional_mmd")),
        ("model.source_weight_nodes.ms_per_iter", "ms", t.ms("model.source_weight_nodes")),
        ("model.build_transformer_objective.ms_per_iter", "ms",
         t.ms("model.build_transformer_objective")),
        ("model.build_discriminator_objective.ms_per_iter", "ms",
         t.ms("model.build_discriminator_objective")),
        ("training.iteration_state.ms_per_iter", "ms", t.ms("training.iteration_state")),
        ("training.train_step.ms_per_iter", "ms", t.ms("training.train_step")),
        ("training.train_step.self_ms_per_iter", "ms", t.ms("training.train_step", which=2)),
        ("training.evaluate_accuracy.ms_per_iter", "ms", t.ms("training.evaluate_accuracy")),
        ("training.init_params.ms", "ms", t.ms("training.init_params", per="unit")),
        ("data.standardize.ms", "ms", t.ms("data.standardize", per="unit")),
        ("data.split_target.ms", "ms", t.ms("data.split_target", per="unit")),
        ("data.load_domain_file.mbytes", "MB", c["load_bytes"] / 1e6 / t.units),
        ("experiments.train_runs", "count", t.runs / t.units),
        ("cli.write_trace_csv.ms", "ms", t.ms("cli.write_trace_csv", per="unit")),
        ("cli.write_trace_csv.bytes", "bytes", c["write_trace_bytes"] / t.units),
        ("trace.untraced_iters_per_s", "1/s", untraced_rate),
        ("trace.traced_iters_per_s", "1/s", traced_rate),
    ]
    return out


# Layers only some workloads reach: printed on those, kept out of the JSON
# so that no metric reads a structural zero.
WORKLOAD_ONLY = ("data.load_domain_file", "data.synthesize", "experiments.plain_supervised_train")

# Names whose metrics the benchmark reports; a later version of the package
# may delete some, which is then reported as absent.
EXPECTED = tuple(f"numerics.{op}" for op in OPS) + (
    "numerics.Tape.backward", "numerics.Adam.step", "model.transform",
    "model.classifier_logits", "model.class_conditional_mmd", "model.source_weight_nodes",
    "model.build_transformer_objective", "model.build_discriminator_objective",
    "training.iteration_state", "training.train_step", "training.evaluate_accuracy",
    "training.init_params", "data.standardize", "data.split_target",
    "cli.write_trace_csv") + WORKLOAD_ONLY


# -- environment ------------------------------------------------------------------


def _openblas() -> dict:
    """Thread count and core type as OpenBLAS reports them, if it is numpy's BLAS."""
    import ctypes

    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(dll, f"{prefix}_get_num_threads{suffix}", None)
                get_core = getattr(dll, f"{prefix}_get_corename{suffix}", None)
                if get_threads is None or get_core is None:
                    continue
                get_threads.restype = ctypes.c_int
                get_core.restype = ctypes.c_char_p
                return {"blas_threads": get_threads(),
                        "blas_core": get_core().decode(errors="replace")}
    return {}


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def environment() -> dict:
    import platform

    import numpy as np

    try:
        blas_cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_cfg['name']} {blas_cfg['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads": None,
        "blas_core": None,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _git_commit(),
    }
    env.update(_openblas())
    return env


# -- running units ----------------------------------------------------------------


def _run_unit(workloads, spec, seed, tracer, work: Path, inputs, tag: str):
    out = work / tag
    out.mkdir()
    gc.collect()
    tracer.reset()
    try:
        return workloads.UNITS[spec.name](spec, seed, out, tracer, inputs)
    except Exception as exc:  # a failing unit is counted, the run goes on
        traceback.print_exc(file=sys.stderr)
        return workloads.Outcome(problems=[f"{tag} raised {exc!r}"])
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _run_for(workloads, spec, seed, tracer, work, inputs, budget_s, min_units, tag,
             totals=None) -> list:
    """Units until the next one would overrun `budget_s`, and at least `min_units`."""
    outcomes = []
    started = time.perf_counter()
    while True:
        outcomes.append(_run_unit(workloads, spec, seed, tracer, work, inputs,
                                  f"{tag}-{len(outcomes)}"))
        if totals is not None:
            totals.add(tracer)
        elapsed = time.perf_counter() - started
        if len(outcomes) >= min_units and elapsed * (1 + 1 / len(outcomes)) > budget_s:
            return outcomes


def _rate(outcomes) -> float:
    return statistics.median(o.iterations / o.train_s for o in outcomes)


def measure(workload: str, seed: int, seconds: float, traced: bool, work: Path,
            size=None) -> dict:
    import heteroadapt
    import workloads
    from tracer import BOUNDARY_NAMES, Tracer

    spec = size(workloads.SPECS[workload]) if size else workloads.SPECS[workload]
    lines = []
    inputs = ref_inputs = None
    if workload == "paper":
        inputs = workloads.paper_data(spec, seed, work / "data", SRC)
        ref_inputs = inputs
        if seed != workloads.REFERENCE_SEED:
            ref_inputs = workloads.paper_data(spec, workloads.REFERENCE_SEED,
                                              work / "ref-data", SRC)

    tracer = Tracer()
    tracer.install(heteroadapt, BOUNDARY_NAMES)
    try:
        # The reference unit also warms caches before anything is timed.
        reference = _run_unit(workloads, spec, workloads.REFERENCE_SEED, tracer, work,
                              ref_inputs, "reference")
        if traced:
            untraced = _run_for(workloads, spec, seed, tracer, work, inputs,
                                seconds / 3, 1, "untraced")
        else:
            untraced = _run_for(workloads, spec, seed, tracer, work, inputs,
                                seconds, 3, "unit")
    finally:
        tracer.uninstall()

    traced_units, totals = [], None
    if traced:
        totals = Totals()
        tracer.install(heteroadapt, None, EXPECTED)
        try:
            traced_units = _run_for(workloads, spec, seed, tracer, work, inputs,
                                    seconds * 2 / 3, 1, "traced", totals)
        finally:
            tracer.uninstall()

    # Every unit of one seed must write the same outputs, traced or not.
    first = untraced[0].fingerprint
    for o in untraced[1:] + traced_units:
        if o.fingerprint and first and o.fingerprint != first:
            changed = sorted(k for k in first if o.fingerprint.get(k) != first[k])
            o.problems.append(f"outputs differ from the first unit of this seed: {changed}")

    recorded = json.loads((HERE / "fingerprints.json").read_text())
    expected = recorded.get(spec.name) if size is None else None
    if expected is None:
        status = "unrecorded"
    elif reference.fingerprint == expected:
        status = "unchanged"
    else:
        moved = sorted(k for k in expected if reference.fingerprint.get(k) != expected[k])
        status = f"fingerprint_changed {moved}"
    lines.append(f"fingerprint {spec.name} seed {workloads.REFERENCE_SEED}: {status}")
    for key, digest in sorted(reference.fingerprint.items()):
        lines.append(f"  {key} sha256 {digest}")
    lines.append(f"outputs seed {seed}: " + " ".join(
        f"{k}={v[:16]}" for k, v in sorted(first.items())))

    everything = [reference] + untraced + traced_units
    failed = [o for o in everything if o.problems]
    for o in failed:
        for problem in o.problems[:5]:
            lines.append(f"FAILED: {problem}")
    lines.append(f"error_rate {len(failed)}/{len(everything)} = "
                 f"{len(failed) / len(everything):.4g} (base: reference unit + "
                 f"{len(untraced)} untraced + {len(traced_units)} traced units)")

    timed = [o for o in untraced if math.isfinite(o.train_s)] or [untraced[0]]
    if traced:
        traced_ok = [o for o in traced_units if math.isfinite(o.train_s)] or traced_units
        metrics = per_layer_metrics(totals, _rate(timed), _rate(traced_ok))
        lines.append(f"traced units {totals.units}, training iterations {totals.iters}, "
                     f"tracing overhead x{_rate(timed) / _rate(traced_ok):.3f}")
        for name in WORKLOAD_ONLY:
            if name in totals.spans and totals.spans[name][0]:
                lines.append(f"{name}.ms {totals.spans[name][1] * 1000 / totals.units!r} ms "
                             "per unit (reached by this workload only)")
        for name in tracer.absent:
            lines.append(f"absent: {name} is not defined by this version; reported as 0")
    else:
        metrics = [
            ("setup_s", "s", statistics.median(o.setup_s for o in timed)),
            ("iters_per_s", "1/s", _rate(timed)),
            ("run_s", "s", statistics.median(o.run_s for o in timed)),
            ("peak_rss_mb", "MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
            ("target_acc", "fraction", statistics.median(o.target_acc for o in timed)),
        ]
        lines.append(f"{len(timed)} units of {timed[0].iterations} training iterations; "
                     "timings are medians over units")
        for name, values in (("setup_s", [o.setup_s for o in timed]),
                             ("iters_per_s", [o.iterations / o.train_s for o in timed]),
                             ("run_s", [o.run_s for o in timed])):
            lines.append(f"{name} over units: min {min(values):.6g} max {max(values):.6g}")
    for name, unit, value in metrics:
        lines.append(f"{name} = {value!r} {unit}")
    return {
        "lines": lines,
        "result": {
            "correct": not failed,
            "attempted": len(everything),
            "failed": len(failed),
            # a unit that raised leaves NaN; the run is then reported as failed
            "metrics": {name: {"value": value if math.isfinite(value) else 0.0, "unit": unit}
                        for name, unit, value in metrics},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("desk", "paper", "ablate_small"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "heteroadapt" / "__init__.py").is_file():
        print(f"error: no heteroadapt package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import heteroadapt
    import heteroadapt.cli  # noqa: F401  (the tracer wraps every module)
    import heteroadapt.experiments  # noqa: F401

    if Path(heteroadapt.__file__).resolve().parent != (SRC / "heteroadapt").resolve():
        print(f"error: imported heteroadapt from {heteroadapt.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    env = environment()
    if env["blas_threads"] not in (None, BLAS_THREADS):
        print(f"error: BLAS runs {env['blas_threads']} threads, expected {BLAS_THREADS}",
              file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    print(f"# heteroadapt benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for line in report["lines"]:
        print("# " + line)
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
