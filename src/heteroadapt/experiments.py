"""Experiment harness: baselines, ablations, noise detection, source sweeps.

The two baselines run on `plain_supervised_train`, a deliberately
independent implementation (hand-written numpy forward/backward and its
own Adam) of multi-domain supervised training. Besides being the NNt /
NNst reference points, it is the oracle that the full model must
reproduce exactly when its adversarial, consistency, and weighting parts
are switched off.
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
from .model import ModelParams, fg_parameters, replace_fg, transform_values
from .numerics import Tensor
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


# -- independent plain supervised trainer ---------------------------------------


def _lrelu(a, slope):
    return np.where(a >= slope * a, a, slope * a)


def _lrelu_grad(a, slope):
    return np.where(a >= slope * a, 1.0, slope)


def _one_hot(labels, num_classes):
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def plain_supervised_train(
    params: ModelParams,
    task: MultiSourceTask,
    config: TrainConfig,
) -> tuple[list[float], ModelParams]:
    """Hand-rolled supervised training of the transformers plus classifier.

    Per-domain mean cross-entropy on every source and the labeled target
    (a task without sources trains the target alone), plus the squared
    penalty on classifier and transformer weight matrices. Gradients are
    derived manually and applied with a local Adam implementation; nothing
    here goes through the gradient tape. Returns the per-iteration loss
    values and the final parameters (discriminator untouched).
    """
    if params.tied_second:
        raise ConfigError("the plain trainer does not support tied second layers")
    slope, tau = config.leaky_slope, config.tau
    domains = [(d.features.array, _one_hot(d.labels, task.num_classes))
               for d in (*task.sources, task.target_labeled)]
    # fg_parameters order: w1, b1, w2, b2 per domain (sources, then the
    # target), then the classifier's w, b in the last two slots
    flat = [leaf.array.copy() for leaf in fg_parameters(params)]
    cls_off = 4 * len(domains)
    m = [np.zeros_like(a) for a in flat]
    v = [np.zeros_like(a) for a in flat]
    b1c, b2c, eps, lr = 0.9, 0.999, 1e-8, config.lr_fg

    losses = []
    for step in range(1, config.iterations + 1):
        grads = [np.zeros_like(a) for a in flat]
        wc, bc = flat[cls_off:]
        terms = []
        for i, (x, y) in enumerate(domains):
            off = 4 * i
            w1, bias1, w2, bias2 = flat[off: off + 4]
            a1 = x @ w1 + bias1
            h1 = _lrelu(a1, slope)
            a2 = h1 @ w2 + bias2
            h2 = _lrelu(a2, slope)
            z = h2 @ wc + bc
            mx = z.max(axis=1, keepdims=True)
            softmax = np.exp(z - mx)
            total = softmax.sum(axis=1, keepdims=True)
            lse = mx[:, 0] + np.log(total[:, 0])
            terms.append(np.mean(lse - (z * y).sum(axis=1)))
            softmax /= total
            dz = (softmax - y) / x.shape[0]
            grads[cls_off] += h2.T @ dz
            grads[cls_off + 1] += dz.sum(axis=0)
            dh2 = dz @ wc.T
            da2 = dh2 * _lrelu_grad(a2, slope)
            grads[off + 2] += h1.T @ da2
            grads[off + 3] += da2.sum(axis=0)
            dh1 = da2 @ w2.T
            da1 = dh1 * _lrelu_grad(a1, slope)
            grads[off] += x.T @ da1
            grads[off + 1] += da1.sum(axis=0)
        # same composition order as the tape objective: target term first
        loss = sum(terms[:-1], terms[-1])
        if tau > 0.0:
            penalty = np.sum(wc * wc)
            for w1, w2 in zip(flat[0:cls_off:4], flat[2:cls_off:4]):
                penalty += np.sum(w1 * w1) + np.sum(w2 * w2)
            loss = loss + tau * penalty
            grads[cls_off] += tau * 2.0 * wc
            for off in range(0, cls_off, 4):
                grads[off] += tau * 2.0 * flat[off]
                grads[off + 2] += tau * 2.0 * flat[off + 2]
        losses.append(float(loss))

        for i, g in enumerate(grads):
            m[i] = b1c * m[i] + (1.0 - b1c) * g
            v[i] = b2c * v[i] + (1.0 - b2c) * g * g
            mhat = m[i] / (1.0 - b1c ** step)
            vhat = v[i] / (1.0 - b2c ** step)
            flat[i] = flat[i] - lr * mhat / (np.sqrt(vhat) + eps)
    return losses, replace_fg(params, [Tensor(a) for a in flat])


# -- baselines -------------------------------------------------------------------


def _supervised_single(task: MultiSourceTask, config: TrainConfig) -> float:
    """Supervised run on every labeled domain of `task`, scored on its
    unlabeled target; NNt passes the task with its sources stripped."""
    params = init_params(task, config)
    _, final = plain_supervised_train(params, task, config)
    return evaluate_accuracy(
        final, task.target_unlabeled.features, task.eval_labels, config.leaky_slope
    )


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


def export_embeddings(params: ModelParams, task: MultiSourceTask, path,
                      slope: float = 0.01) -> None:
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
        np.column_stack([np.full(d.n, float(k)), labels, transform_values(t, d.features, slope)])
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
