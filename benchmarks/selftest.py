"""Fast self-test of the benchmark harness, at tiny sizes (a few seconds).

    python3 benchmarks/selftest.py

Runs every workload path end-to-end and traced, checks that each passes its
correctness checks, prints exactly the metrics BENCHMARK.json names, and
that a traced unit writes the same outputs as an untraced one. Then feeds
a trace with a non-finite loss to the checker, and makes a unit raise,
and requires that the run counts each as failed. Exits non-zero on the
first mismatch.
"""

import dataclasses
import json
import math
import shutil
import sys
from pathlib import Path

import run  # pins the BLAS thread count before numpy loads

MANIFEST = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _measure(workload, traced, work: Path, workloads):
    work.mkdir(parents=True)
    try:
        return run.measure(workload, seed=3, seconds=0.05, traced=traced, work=work,
                           size=workloads.tiny)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _require(ok: bool, what: str, lines=()) -> None:
    if not ok:
        print("\n".join(lines), file=sys.stderr)
        raise SystemExit(f"selftest FAILED: {what}")


def main() -> int:
    if not (run.SRC / "heteroadapt" / "__init__.py").is_file():
        raise SystemExit(f"selftest: no heteroadapt package under {run.SRC}")
    sys.path.insert(0, str(run.SRC))
    import heteroadapt.cli
    import heteroadapt.experiments  # noqa: F401
    from heteroadapt.training import TrainTrace

    import workloads

    base = run.ROOT / ".bench_work" / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    wanted = {False: [m["name"] for m in MANIFEST["end_to_end"]],
              True: [m["name"] for m in MANIFEST["per_layer"]]}
    _require([w["name"] for w in MANIFEST["workloads"]] == list(workloads.SPECS),
             "BENCHMARK.json workloads differ from workloads.SPECS")
    counts = {}
    for name in workloads.SPECS:
        for traced in (False, True):
            report = _measure(name, traced, base / f"{name}-{int(traced)}", workloads)
            result = report["result"]
            label = f"{name} trace={int(traced)}"
            _require(result["correct"] and result["failed"] == 0, f"{label} not correct",
                     report["lines"])
            _require(list(result["metrics"]) == wanted[traced],
                     f"{label} metric names differ from BENCHMARK.json")
            bad = [k for k, m in result["metrics"].items()
                   if not math.isfinite(m["value"])]
            _require(not bad, f"{label} non-finite metrics {bad}")
            if traced:
                counts[name] = {k: m["value"] for k, m in result["metrics"].items()
                                if m["unit"] in ("count", "MFLOP", "MB", "ratio")}
            print(f"ok {label}: {result['attempted']} units")

    again = _measure("desk", True, base / "desk-again", workloads)["result"]["metrics"]
    _require(all(again[k]["value"] == v for k, v in counts["desk"].items()),
             "desk count metrics differ between two traced runs")
    print("ok desk counts repeat exactly")

    # A non-finite loss in a written trace, and a unit that raises, must each
    # count as failed units, and the run must still print valid JSON.
    write = heteroadapt.cli.write_trace_csv

    def poisoned(path, trace, num_sources):
        bad = dataclasses.replace(trace.records[-1], loss_fg=math.nan)
        write(path, TrainTrace(trace.records[:-1] + [bad]), num_sources)

    def raises(*args, **kwargs):
        raise RuntimeError("deliberate failure")

    for label, owner, attr, fake, expect in (
        ("non-finite trace", heteroadapt.cli, "write_trace_csv", poisoned, "non-finite loss_fg"),
        ("raising unit", heteroadapt.training, "train", raises, "deliberate failure"),
    ):
        real = getattr(owner, attr)
        setattr(owner, attr, fake)
        try:
            report = _measure("desk", False, base / "broken", workloads)
        finally:
            setattr(owner, attr, real)
        result = report["result"]
        json.dumps(result, allow_nan=False)
        _require(not result["correct"] and result["failed"] == result["attempted"] > 0,
                 f"a {label} was not counted as a failure", report["lines"])
        _require(any(expect in line for line in report["lines"]),
                 f"the {label} failure does not say {expect!r}", report["lines"])
        print(f"ok {label} counted as failed")
    shutil.rmtree(base, ignore_errors=True)
    try:
        base.parent.rmdir()
    except OSError:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
