"""Experiment harness: baselines, ablations, noise detection, source sweeps.

The NNt and NNst baselines run on `supervised_train`, which trains on the
model's own classification loss with the tape and Adam of the adversarial
loop. The hand-derived trainer that both must match is in `tests/oracles.py`.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import (
    DomainData,
    MultiSourceTask,
    SynthSpec,
    generate_noise_domain,
    save_domain_file,
    synthetic_task,
)
from .errors import ConfigError
from .model import (
    ModelParams,
    TaskEmbeddings,
    classification_loss,
    flat_leaves,
    lift,
    transform,
    transform_values,
    with_leaves,
)
from .numerics import Adam, Program, Tape, Tensor
from .training import TrainConfig, TrainTrace, evaluate_accuracy, init_params, train

ABLATION_VARIANTS: dict[str, dict] = {
    "full": {},
    "no_lg": {"lg_norm": "off"},
    "lg_tied": {"lg_norm": "tied"},
    "lg_l2": {"lg_norm": "l2"},
    "ones_weight": {"weighting": "ones"},
    "no_lg_and_ones": {"lg_norm": "off", "weighting": "ones"},
}


@dataclass(frozen=True)
class RunSummary:
    """Per-seed final accuracies of one experimental arm, aggregated."""

    label: str
    seeds: tuple[int, ...]
    accuracies: tuple[float, ...]
    mean: float
    stderr: float
    traces: tuple[TrainTrace, ...] | None = None


def summarize(label, seeds, accuracies, traces=None) -> RunSummary:
    """Mean and standard error (sample std over sqrt(n); 0 for one seed)."""
    accuracies = tuple(float(a) for a in accuracies)
    if not accuracies:
        raise ConfigError("cannot summarize an empty run set")
    n = len(accuracies)
    mean = float(np.mean(accuracies))
    stderr = 0.0 if n == 1 else float(np.std(accuracies, ddof=1) / np.sqrt(n))
    return RunSummary(label, tuple(int(s) for s in seeds), accuracies, mean, stderr,
                      None if traces is None else tuple(traces))


def _map_jobs(fn, items, jobs: int) -> list:
    if jobs <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


# -- baselines -------------------------------------------------------------------


def supervised_train(params: ModelParams, task: MultiSourceTask,
                     config: TrainConfig) -> ModelParams:
    """Train the transformers and classifier on every labeled domain of
    `task` (never its unlabeled split): per iteration, one tape with
    `classification_loss` at unit source weights, then one Adam step taken
    with no tape alive (the "Lifetime" rule of `numerics`). The first
    iteration records its tape and the others replay it."""
    opt = Adam(flat_leaves(params, "fg"), config.lr_fg)
    program = loss_index = None
    for _ in range(config.iterations):
        slots = [p.array for p in flat_leaves(params, "fg")]
        if program is None:
            tape = Tape()
            model = lift(tape, params, "fg", trainable=True)
            sources = [transform(t, tape.constant(d.features))
                       for t, d in zip(model.sources, task.sources)]
            labeled = transform(model.target, tape.constant(task.target_labeled.features))
            loss = classification_loss(model, TaskEmbeddings(sources, labeled, None), task,
                                       [1.0] * task.num_sources, config.tau)
            program, loss_index = Program(tape, slots, [loss.index]), loss.index
            del model, sources, labeled
        else:
            tape = program.run(slots)
            loss = program.node(tape, loss_index)
        grads = tape.backward(loss)
        del tape, loss
        params = with_leaves(params, "fg", opt.step(flat_leaves(params, "fg"), grads))
    return params


def _supervised_single(task: MultiSourceTask, config: TrainConfig) -> float:
    """Supervised run on every labeled domain of `task`, scored on its
    unlabeled target; NNt passes the task with its sources stripped."""
    task.require_eval_labels()
    params = init_params(task, config)
    if params.tied_second:
        raise ConfigError("the supervised baselines do not support tied second layers")
    final = supervised_train(params, task, config)
    return evaluate_accuracy(final, task.target_unlabeled.features, task.eval_labels)


def run_baseline_nnt(task: MultiSourceTask, config: TrainConfig,
                     seeds=None, jobs: int = 1) -> RunSummary:
    """Train on labeled target samples only; no transfer of any kind."""
    seeds = tuple(seeds) if seeds is not None else (config.seed,)
    target_only = replace(task, sources=())
    accs = _map_jobs(lambda s: _supervised_single(target_only, replace(config, seed=s)),
                     seeds, jobs)
    return summarize("nnt", seeds, accs)


def run_baseline_nnst(task: MultiSourceTask, config: TrainConfig,
                      seeds=None, jobs: int = 1) -> RunSummary:
    """Supervised training on all labeled samples mapped into the subspace."""
    seeds = tuple(seeds) if seeds is not None else (config.seed,)
    accs = _map_jobs(lambda s: _supervised_single(task, replace(config, seed=s)), seeds, jobs)
    return summarize("nnst", seeds, accs)


# -- ablations, noise detection, sweep ----------------------------------------------


def ablation_config(config: TrainConfig, variant: str) -> TrainConfig:
    if variant not in ABLATION_VARIANTS:
        raise ConfigError(
            f"unknown variant {variant!r}; choose from {sorted(ABLATION_VARIANTS)}"
        )
    return replace(config, **ABLATION_VARIANTS[variant])


def run_ablation(task: MultiSourceTask, variants, seeds, config: TrainConfig,
                 jobs: int = 1, keep_traces: bool = False) -> list[RunSummary]:
    """Train every (variant, seed) pair and aggregate per variant."""
    variants = list(variants)
    if not variants:
        raise ConfigError("at least one variant is required")
    seeds = tuple(int(s) for s in seeds)
    bases = [ablation_config(config, variant) for variant in variants]  # all before any run
    out = []
    for variant, base in zip(variants, bases):
        traces = _map_jobs(lambda s, b=base: train(task, replace(b, seed=s)), seeds, jobs)
        accs = [t.final_accuracy for t in traces]
        out.append(summarize(variant, seeds, accs, traces if keep_traces else None))
    return out


@dataclass(frozen=True)
class NoiseDetectionResult:
    summary: RunSummary
    final_weights: np.ndarray  # (n_seeds, K+1); the injected source is last
    final_deltas: np.ndarray


def _derived_seed(seed: int, salt: int) -> int:
    return int(np.random.SeedSequence([int(seed), int(salt)]).generate_state(1)[0])


def run_noise_detection(task: MultiSourceTask, noise_dim: int, seeds,
                        config: TrainConfig, jobs: int = 1,
                        keep_traces: bool = False) -> NoiseDetectionResult:
    """Append a label-free noise source and watch its learned weight."""
    if task.num_sources < 2:
        raise ConfigError("noise detection needs at least two informative sources")
    seeds = tuple(int(s) for s in seeds)
    n = max(s.n for s in task.sources)

    def one(seed: int) -> TrainTrace:
        noise = generate_noise_domain(
            noise_dim, n, task.num_classes, _derived_seed(seed, 0x6E01)
        )
        return train(replace(task, sources=(*task.sources, noise)), replace(config, seed=seed))

    traces = _map_jobs(one, seeds, jobs)
    weights = np.array([t.records[-1].weights for t in traces])
    deltas = np.array([t.records[-1].deltas for t in traces])
    accs = [t.final_accuracy for t in traces]
    summary = summarize("noise_detection", seeds, accs, traces if keep_traces else None)
    return NoiseDetectionResult(summary, weights, deltas)


def run_source_sweep(spec: SynthSpec, ns_values, seeds, config: TrainConfig,
                     jobs: int = 1) -> list[RunSummary]:
    """Accuracy as a function of how many generated sources participate.

    Zero sources falls back to the target-only baseline. Each seed
    regenerates the synthetic domains and the labeled/unlabeled split.
    """
    ns_values = [int(n) for n in ns_values]
    seeds = tuple(int(s) for s in seeds)
    if not ns_values:
        raise ConfigError("at least one source count is required")
    for ns in ns_values:
        if ns < 0 or ns > len(spec.source_dims):
            raise ConfigError(
                f"sweep value {ns} exceeds the {len(spec.source_dims)} generated sources"
            )

    def one(item) -> float:
        ns, seed = item
        task = synthetic_task(replace(spec, seed=seed), num_sources=ns, split_seed=seed)
        cfg = replace(config, seed=seed)
        if ns == 0:  # the task has no sources: the target-only baseline
            return _supervised_single(task, cfg)
        return train(task, cfg).final_accuracy

    out = []
    for ns in ns_values:
        accs = _map_jobs(one, [(ns, s) for s in seeds], jobs)
        out.append(summarize(f"ns_{ns}", seeds, accs))
    return out


# -- default desk-scale task -----------------------------------------------------


def default_task(seed: int = 0, **spec_overrides) -> MultiSourceTask:
    """The stock two-source synthetic task at data-module defaults."""
    spec = SynthSpec(seed=seed, **spec_overrides)
    return synthetic_task(spec, split_seed=seed)


# -- outputs ---------------------------------------------------------------------


def export_embeddings(params: ModelParams, task: MultiSourceTask, path) -> None:
    """Write every sample's embedding for external visualization.

    Domain-file layout with two metadata feature columns in front: the
    domain id (sources in order, then the target) and the class label as a
    float (-1 for unlabeled target samples, whose held-out labels stay
    sealed). The label column itself is -1 throughout, so the file reads
    back as an unlabeled domain.
    """
    k_total = task.num_sources
    parts = [(k, t, s, s.labels) for k, (t, s) in enumerate(zip(params.sources, task.sources))]
    parts += [(k_total, params.target, task.target_labeled, task.target_labeled.labels),
              (k_total, params.target, task.target_unlabeled, np.full(task.target_unlabeled.n, -1))]
    rows = np.vstack([
        np.column_stack([np.full(d.n, float(k)), labels, transform_values(t, d.features)])
        for k, t, d, labels in parts
    ])
    save_domain_file(DomainData("embeddings", Tensor(rows), None, task.num_classes), path)


def write_summary_csvs(per_seed_path, aggregate_path, experiment: str,
                       summaries: list[RunSummary]) -> None:
    """The per-seed and aggregate CSV trails for one experiment."""
    seed_lines = ["experiment,variant,seed,final_accuracy"]
    for s in summaries:
        for seed, acc in zip(s.seeds, s.accuracies):
            seed_lines.append(f"{experiment},{s.label},{seed},{acc!r}")
    Path(per_seed_path).write_text("\n".join(seed_lines) + "\n", encoding="utf-8")
    agg_lines = ["experiment,variant,mean,stderr,n_seeds"]
    for s in summaries:
        agg_lines.append(f"{experiment},{s.label},{s.mean!r},{s.stderr!r},{len(s.seeds)}")
    Path(aggregate_path).write_text("\n".join(agg_lines) + "\n", encoding="utf-8")
