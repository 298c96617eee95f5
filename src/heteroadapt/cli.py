"""Command-line entry point: generate data, train, run experiments.

Every command writes its outputs plus a plain-text manifest (config
snapshot, input hashes, seed list, version, duration) into `--out`.
Validation failures print one `error: ...` line, exit nonzero and leave
no new directory behind.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import sys
import time
from dataclasses import fields
from pathlib import Path

from . import __version__
from .data import (
    MultiSourceTask,
    SynthSpec,
    generate_synthetic_domains,
    load_domain_file,
    save_domain_file,
    split_target,
    standardize,
)
from .errors import ConfigError, NonFiniteError, ParseError, ShapeError
from .experiments import (
    ABLATION_VARIANTS,
    default_task,
    export_embeddings,
    run_ablation,
    run_noise_detection,
    run_source_sweep,
    write_summary_csvs,
)
from .model import LG_NORMS, WEIGHTINGS
from .training import TrainConfig, TrainTrace, train

DEFAULT_SWEEP_DIMS = "100:1000:100,target=2000"


class _Parser(argparse.ArgumentParser):
    """Argparse that reports failures in the machine-parsable error format."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _int_entry(token: str, flag: str) -> int:
    """One integer entry of a list flag; a bad one is named with its flag."""
    try:
        return int(token)
    except ValueError:
        raise ConfigError(f"{flag} entries must be integers, got {token.strip()!r}") from None


def parse_dims(text: str) -> tuple[tuple[int, ...], int]:
    """`100:1000:100,target=2000` -> source dims (inclusive ranges), target dim."""
    source_dims: list[int] = []
    target = None
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if item.startswith("target="):
            if target is not None:
                raise ConfigError("only one target= entry is allowed in --dims")
            target = _int_entry(item.split("=", 1)[1], "--dims")
        elif ":" in item:
            parts = [_int_entry(p, "--dims") for p in item.split(":")]
            if len(parts) != 3:
                raise ConfigError(f"range must be start:stop:step, got {item!r}")
            start, stop, step = parts
            if step <= 0 or stop < start:
                raise ConfigError(f"bad range {item!r}")
            source_dims.extend(range(start, stop + 1, step))
        else:
            source_dims.append(_int_entry(item, "--dims"))
    if target is None:
        raise ConfigError("--dims needs a target=<dim> entry")
    if not source_dims:
        raise ConfigError("--dims needs at least one source dimension")
    return tuple(source_dims), target


def parse_seeds(text: str) -> tuple[int, ...]:
    """`0..4` (inclusive), `0,2,5`, or a single integer."""
    text = text.strip()
    if ".." in text:
        lo, hi = (_int_entry(p, "--seeds") for p in text.split("..", 1))
        seeds = tuple(range(lo, hi + 1))
    else:
        seeds = tuple(_int_entry(p, "--seeds") for p in text.split(",") if p.strip())
    if not seeds:
        raise ConfigError(f"--seeds needs at least one seed, got {text!r}")
    return seeds


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(path: Path, entries: dict) -> None:
    lines = [f"{key} = {value}" for key, value in entries.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _config_entries(config: TrainConfig) -> dict:
    return {f"config.{f.name}": getattr(config, f.name) for f in fields(config)}


def _add_model_flags(parser: argparse.ArgumentParser) -> argparse.Action:
    """One flag per `TrainConfig` field, stored under the field's name;
    returns the `--seed` action."""
    cfg = TrainConfig()
    parser.add_argument("--beta", type=float, default=cfg.beta)
    parser.add_argument("--tau", type=float, default=cfg.tau)
    parser.add_argument("--dc", dest="d_c", type=int, default=cfg.d_c,
                        help="shared subspace width")
    parser.add_argument("--hidden", type=int, default=cfg.hidden)
    parser.add_argument("--lr-fg", type=float, default=cfg.lr_fg)
    parser.add_argument("--lr-d", type=float, default=cfg.lr_d)
    parser.add_argument("--iters", dest="iterations", type=int, default=cfg.iterations)
    seed = parser.add_argument("--seed", type=int, default=cfg.seed)
    parser.add_argument("--lg", dest="lg_norm", choices=LG_NORMS, default=cfg.lg_norm)
    parser.add_argument("--weighting", choices=WEIGHTINGS, default=cfg.weighting)
    parser.add_argument("--leaky-slope", type=float, default=cfg.leaky_slope)
    return seed


def _config_from_args(args) -> TrainConfig:
    if args.iterations < 1:  # a run without iterations has no trace to write
        raise ConfigError(f"--iters must be at least 1, got {args.iterations}")
    return TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})


# -- synth ---------------------------------------------------------------------


def _add_synth_flags(parser: argparse.ArgumentParser) -> list[argparse.Action]:
    """The synthetic-data knobs shared by `synth` and `experiment sweep`,
    stored under their `SynthSpec` field names; returns their actions."""
    spec = SynthSpec()
    return [
        parser.add_argument("--classes", type=int, default=spec.classes),
        parser.add_argument("--per-class", dest="samples_per_class", type=int,
                            default=spec.samples_per_class),
        parser.add_argument("--latent-dim", type=int, default=spec.latent_dim),
        parser.add_argument("--target-labeled-per-class", type=int,
                            default=spec.target_labeled_per_class),
        parser.add_argument("--target-unlabeled", type=int, default=spec.target_unlabeled),
        parser.add_argument("--spread", type=float, default=spec.spread),
        parser.add_argument("--noise", type=float, default=spec.noise),
    ]


def _synth_spec_from_args(args, seed: int, standardize: bool = True) -> SynthSpec:
    source_dims, target_dim = parse_dims(args.dims)
    given = dict(source_dims=source_dims, target_dim=target_dim, seed=seed,
                 standardize=standardize)
    flags = {f.name: getattr(args, f.name) for f in fields(SynthSpec) if f.name not in given}
    return SynthSpec(**given, **flags)


def cmd_synth(args, out: Path) -> tuple[dict, str]:
    spec = _synth_spec_from_args(args, args.seed, standardize=not args.no_standardize)
    paths = []
    for domain in generate_synthetic_domains(spec):
        paths.append(out / f"{domain.name}_d{domain.dim}.txt")
        save_domain_file(domain, paths[-1])
    entries = {
        "dims": args.dims,
        **{f"spec.{f.name}": getattr(spec, f.name) for f in fields(spec)},
    }
    for p in paths:
        entries[f"sha256.{p.name}"] = _sha256(p)
    return entries, f"wrote {len(paths)} domain files to {out}"


# -- train ----------------------------------------------------------------------


def _load_task(args) -> tuple[MultiSourceTask, dict]:
    provenance = {}
    domains = []
    names = [f"source_{i}" for i in range(len(args.source))] + ["target"]
    for name, path in zip(names, [*args.source, args.target]):
        domain = load_domain_file(path)
        if domain.labels is None:
            raise ConfigError(f"{name.split('_')[0]} file {path} has no labels")
        domains.append(standardize(domain) if args.standardize else domain)
        provenance[name] = path
        provenance[f"sha256.{name}"] = _sha256(Path(path))
    labeled, unlabeled = split_target(domains.pop(), args.labeled_per_class, args.seed)
    task = MultiSourceTask.build(tuple(domains), labeled, unlabeled)
    provenance["labeled_per_class"] = args.labeled_per_class
    return task, provenance


def write_trace_csv(path: Path, trace, num_sources: int) -> None:
    k = num_sources
    header = ["iter", "loss_fg", "loss_lg", "loss_dg_inv", "loss_d"]
    header += [f"delta_{i + 1}" for i in range(k)]
    header += [f"w_{i + 1}" for i in range(k)]
    header += ["acc_target"]
    lines = [",".join(header)]
    for r in trace.records:
        row = [str(r.iteration), repr(r.loss_fg), repr(r.loss_lg),
               repr(r.loss_dg_inverted), repr(r.loss_d)]
        row += [repr(v) for v in r.deltas]
        row += [repr(v) for v in r.weights]
        row.append(repr(r.target_accuracy))
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_train(args, out: Path) -> tuple[dict, str]:
    config = _config_from_args(args)
    task, provenance = _load_task(args)
    try:
        trace = train(task, config)
    except NonFiniteError as exc:  # keep the iterations that completed
        write_trace_csv(out / "trace.csv", TrainTrace(exc.records), task.num_sources)
        raise
    write_trace_csv(out / "trace.csv", trace, task.num_sources)
    if args.export_embeddings:
        export_embeddings(trace.final_params, task, out / "embeddings.txt",
                          config.leaky_slope)
    entries = {**_config_entries(config), **provenance,
               "final_accuracy": repr(trace.final_accuracy)}
    return entries, f"final_accuracy={trace.final_accuracy!r}"


# -- experiment -------------------------------------------------------------------


def _experiment_task(args) -> tuple[MultiSourceTask, dict]:
    if args.source:
        return _load_task(args)
    task = default_task(seed=args.task_seed)
    return task, {"data": f"builtin synthetic default task (seed {args.task_seed})"}


def _ignored_flags(args) -> list[str]:
    """The flags `args.mode` does not read that are set away from their defaults.

    `args.readers` maps each run kind to the flags only it reads: a mode,
    then `files` (ablate or noise with --source) or `builtin` (without).
    """
    kind = "sweep" if args.mode == "sweep" else "files" if args.source else "builtin"
    read = {a.dest for a in args.readers[args.mode] + args.readers[kind]}
    return list(dict.fromkeys(
        a.option_strings[0] for group in args.readers.values() for a in group
        if a.dest not in read and getattr(args, a.dest) != a.default
    ))


def cmd_experiment(args, out: Path) -> tuple[dict, str]:
    config = _config_from_args(args)
    seeds = parse_seeds(args.seeds)
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    if args.mode == "sweep" and (args.source or args.target):
        raise ConfigError("sweep generates its own tasks; --source and --target do not apply")
    if bool(args.source) != bool(args.target):
        raise ConfigError("--source and --target must be given together")
    ignored = _ignored_flags(args)
    if ignored:
        raise ConfigError(f"experiment {args.mode} does not read {', '.join(ignored)}")
    entries = {
        **_config_entries(config),
        "seeds": ",".join(str(s) for s in seeds),
        "jobs": args.jobs,
    }
    if args.mode != "sweep":
        task, provenance = _experiment_task(args)
        entries.update(provenance)

    if args.mode == "ablate":
        variants = [v.strip() for v in args.variants.split(",") if v.strip()]
        summaries = run_ablation(task, variants, seeds, config, jobs=args.jobs)
        entries["variants"] = ",".join(variants)
    elif args.mode == "noise":
        result = run_noise_detection(task, args.noise_dim, seeds, config, jobs=args.jobs)
        summaries = [result.summary]
        k1 = result.final_weights.shape[1]
        lines = [",".join(
            ["seed"] + [f"w_{i + 1}" for i in range(k1)] + [f"delta_{i + 1}" for i in range(k1)]
        )]
        for row_seed, w_row, d_row in zip(seeds, result.final_weights, result.final_deltas):
            lines.append(",".join(
                [str(row_seed)]
                + [repr(float(v)) for v in w_row]
                + [repr(float(v)) for v in d_row]
            ))
        (out / "noise_weights.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        entries["noise_dim"] = args.noise_dim
    else:  # sweep: every run regenerates the data from its own seed
        spec = _synth_spec_from_args(args, seed=0)
        ns_values = [_int_entry(v, "--ns") for v in args.ns.split(",") if v.strip()]
        summaries = run_source_sweep(spec, ns_values, seeds, config, jobs=args.jobs)
        entries["dims"] = args.dims
        entries["ns"] = args.ns
    write_summary_csvs(out / "runs.csv", out / "aggregate.csv", args.mode, summaries)
    return entries, f"wrote experiment outputs to {out}"


# -- parser ------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="heteroadapt", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", parents=[], help="generate synthetic domain files")
    synth.add_argument("--dims", required=True,
                       help="source dims and target, e.g. 100:1000:100,target=2000")
    _add_synth_flags(synth)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--no-standardize", action="store_true")
    synth.add_argument("--out", required=True)
    synth.set_defaults(func=cmd_synth)

    tr = sub.add_parser("train", help="train on domain files and emit a trace")
    tr.add_argument("--source", action="append", default=[], required=True)
    tr.add_argument("--target", required=True)
    tr.add_argument("--labeled-per-class", type=int, default=3)
    tr.add_argument("--standardize", action="store_true")
    tr.add_argument("--export-embeddings", action="store_true")
    tr.add_argument("--out", required=True)
    _add_model_flags(tr)
    tr.set_defaults(func=cmd_train)

    exp = sub.add_parser("experiment", help="run ablations, noise detection, or sweeps")
    exp.add_argument("mode", choices=["ablate", "noise", "sweep"])
    exp.add_argument("--seeds", default="0..9")
    exp.add_argument("--jobs", type=int, default=1)
    exp.add_argument("--out", required=True)
    split_seed = _add_model_flags(exp)  # runs are seeded by --seeds; --seed seeds a file split
    exp.set_defaults(func=cmd_experiment, readers={
        "ablate": [exp.add_argument("--variants", default=",".join(sorted(ABLATION_VARIANTS)))],
        "noise": [exp.add_argument("--noise-dim", type=int, default=20)],
        "sweep": [exp.add_argument("--ns", default="0,2,4,6,8,10"),
                  exp.add_argument("--dims", default=DEFAULT_SWEEP_DIMS),
                  *_add_synth_flags(exp)],
        "files": [exp.add_argument("--source", action="append", default=[]),
                  exp.add_argument("--target"),
                  exp.add_argument("--labeled-per-class", type=int, default=3),
                  exp.add_argument("--standardize", action="store_true"), split_seed],
        "builtin": [exp.add_argument("--task-seed", type=int, default=0)],
    })
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    missing = [p for p in (out, *out.parents) if not p.exists()]  # deepest first
    command = f"experiment {args.mode}" if args.command == "experiment" else args.command
    try:
        out.mkdir(parents=True, exist_ok=True)
        started = time.time()
        entries, message = args.func(args, out)
        duration = f"{time.time() - started:.3f}"
        write_manifest(out / "manifest.txt", {"command": command, "version": __version__,
                                              **entries, "duration_seconds": duration})
    except (ConfigError, ParseError, ShapeError, ValueError, OSError) as exc:
        for path in missing:  # a failed command leaves none of the directories it made
            with contextlib.suppress(OSError):  # not empty, or never made
                path.rmdir()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(message)
    return 0


if __name__ == "__main__":
    sys.exit(main())
