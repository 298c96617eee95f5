"""Acceptance gate: ten verifiable claims about the complete system.

Each test prints one PASS line (visible with `pytest -s` or on failure).
The heavyweight experiment families are session fixtures shared across
criteria. Everything is seeded; reruns are bit-identical.
"""

import numpy as np
import pytest
from conftest import frozen_embeddings, leaf_list, make_params, make_task, target_soft
from oracles import grad_check, naive_class_conditional_mmd, plain_supervised_train

from heteroadapt.cli import main as cli_main
from heteroadapt.data import SynthSpec, synthetic_task
from heteroadapt.experiments import (
    default_task,
    run_noise_detection,
    run_source_sweep,
)
from heteroadapt.model import (
    build_discriminator_objective,
    class_conditional_mmd,
    embedding_pass,
    source_weight_nodes,
    target_class_means,
    transformer_objective,
    with_leaves,
)
from heteroadapt.numerics import Tape
from heteroadapt.training import TrainConfig, init_params, train

NOISE_SEEDS = tuple(range(10))
ABLATION_SEEDS = tuple(range(5))
SWEEP_SEEDS = tuple(range(5))


def _report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS")


# -- shared experiment families (the expensive runs) ---------------------------


@pytest.fixture(scope="session")
def noise_family():
    """Criteria 6/8/11: two informative sources plus one injected noise source,
    default config at 300 iterations, 10 seeds; plus the two weighting
    ablations at 5 seeds on the same per-seed construction."""
    from dataclasses import replace

    task = default_task(seed=0, spread=1.0)
    config = TrainConfig(iterations=300)
    full = run_noise_detection(task, 20, NOISE_SEEDS, config, keep_traces=True)
    ones = run_noise_detection(task, 20, ABLATION_SEEDS, replace(config, weighting="ones"))
    neither = run_noise_detection(
        task, 20, ABLATION_SEEDS, replace(config, weighting="ones", lg_norm="off")
    )
    return full, ones, neither


@pytest.fixture(scope="session")
def sweep_family():
    """Criterion 7: accuracy versus source count on a desk-scale spec."""
    spec = SynthSpec(
        source_dims=(20, 28, 36, 44),
        target_dim=64,
        classes=3,
        latent_dim=10,
        samples_per_class=100,
        target_labeled_per_class=3,
        target_unlabeled=300,
        spread=1.0,
        seed=0,
    )
    config = TrainConfig(d_c=32, hidden=32, iterations=300)
    return run_source_sweep(spec, (0, 2, 4), SWEEP_SEEDS, config)


@pytest.fixture(scope="session")
def default_run():
    """Criterion 9 (and weight-range evidence): the stock two-source task
    at the recommended configuration, 300 iterations."""
    return train(default_task(seed=0), TrainConfig(iterations=300))


# -- criteria -------------------------------------------------------------------


@pytest.mark.slow
def test_c01_weight_range(noise_family, default_run):
    """Every recorded weight of every conditional run stays in [0.5, 1)."""
    full, _, _ = noise_family
    traces = list(full.summary.traces) + [default_run]
    checked = 0
    for trace in traces:
        for record in trace.records:
            w = np.array(record.weights)
            assert np.all(w >= 0.5), f"weight below 0.5 at iteration {record.iteration}"
            assert np.all(w < 1.0), f"weight reached 1.0 at iteration {record.iteration}"
            checked += len(record.weights)
    assert checked > 3000
    _report(1, "weight range")


def _weights(deltas) -> list[float]:
    tape = Tape()
    return [float(w.value) for w in source_weight_nodes([tape.constant(d) for d in deltas])]


def test_c02_order_reversal_and_self_exclusion():
    """1000 random divergence vectors: weights sort exactly opposite to
    divergences, and perturbing one divergence leaves its own weight
    bit-identical."""
    rng = np.random.default_rng(2024)
    for trial in range(1000):
        k = int(rng.integers(2, 7))
        deltas = rng.uniform(0.0, 8.0, k)
        while np.unique(np.round(deltas, 6)).size != k:  # keep entries distinct
            deltas = rng.uniform(0.0, 8.0, k)
        w = np.array(_weights(deltas))
        assert np.array_equal(np.argsort(w), np.argsort(deltas)[::-1]), trial
        i = int(rng.integers(0, k))
        bumped = deltas.copy()
        bumped[i] += float(rng.uniform(0.1, 3.0))
        assert _weights(bumped)[i] == w[i]
    _report(2, "order reversal / self-exclusion")


def test_c03_divergence_oracle():
    """Vectorized class-conditional divergence equals the double-loop oracle
    within 1e-9 on 200 random instances."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        C = int(rng.integers(1, 6))
        d = int(rng.integers(1, 9))
        n_s = int(rng.integers(C, 51))
        n_l = int(rng.integers(C, 26))
        n_u = int(rng.integers(0, 26))
        s_emb = rng.uniform(-2, 2, (n_s, d))
        s_lab = np.concatenate([np.arange(C), rng.integers(0, C, n_s - C)])
        l_emb = rng.uniform(-2, 2, (n_l, d))
        l_lab = np.concatenate([np.arange(C), rng.integers(0, C, n_l - C)])
        u_emb = soft = None
        if n_u:
            u_emb = rng.uniform(-2, 2, (n_u, d))
            soft = rng.uniform(0.01, 1.0, (n_u, C))
            soft /= soft.sum(axis=1, keepdims=True)
        tape = Tape()
        means = target_class_means(tape.constant(l_emb), l_lab, C,
                                   None if u_emb is None else tape.constant(u_emb), soft)
        got = float(class_conditional_mmd(tape.constant(s_emb), s_lab, means).value)
        want = naive_class_conditional_mmd(s_emb, s_lab, l_emb, l_lab, C, u_emb, soft)
        assert abs(got - want) < 1e-9
    _report(3, "divergence oracle")


def _gradcheck_setup():
    rng = np.random.default_rng(123)
    # 12 samples total: 4 per source, 2 labeled target, 2 unlabeled target
    source_x = [rng.uniform(-1.5, 1.5, (4, d)) for d in (3, 5)]
    source_y = [np.array([0, 1, 0, 1]), np.array([1, 0, 1, 0])]
    task = make_task(
        source_x, source_y,
        rng.uniform(-1.5, 1.5, (2, 4)), np.array([0, 1]),
        rng.uniform(-1.5, 1.5, (2, 4)), 2,
    )
    params = make_params(rng, (3, 5), 4, hidden=4, d_c=4, num_classes=2)
    return params, task


def test_c04_gradient_correctness():
    """Analytic gradients of both objectives match central differences,
    including the paths through the divergences and weights."""
    params, task = _gradcheck_setup()
    soft = target_soft(params, task.target_unlabeled.features)

    def fg_loss(tensors):
        rebuilt = with_leaves(params, "fg", tensors)
        fwd = embedding_pass(rebuilt, task, weighting="conditional", soft=soft)
        obj = transformer_objective(
            fwd, rebuilt.discriminator, task, beta=0.03, tau=0.004, lg_norm="l1"
        )
        return obj.objective

    err_fg = grad_check(fg_loss, leaf_list(params, "fg"))
    assert err_fg < 1e-4, f"transformer objective gradient error {err_fg}"

    emb = frozen_embeddings(params, task)

    def d_loss(tensors):
        rebuilt = with_leaves(params, "d", tensors)
        return build_discriminator_objective(rebuilt, emb, [0.6, 0.8])

    err_d = grad_check(d_loss, leaf_list(params, "d"))
    assert err_d < 1e-4, f"discriminator objective gradient error {err_d}"
    _report(4, "gradient correctness")


def test_c05_reduction_oracle():
    """With the adversary, consistency term, and weighting all disabled, the
    loop reproduces an independently coded supervised trainer's loss
    trajectory within 1e-9 for 100 iterations from shared init."""
    task = synthetic_task(
        SynthSpec(
            source_dims=(12, 14), target_dim=16, classes=3, latent_dim=6,
            samples_per_class=15, target_labeled_per_class=2, target_unlabeled=45, seed=0,
        )
    )
    config = TrainConfig(
        beta=0.0, weighting="ones", lg_norm="off", d_c=8, hidden=8, iterations=100, seed=0
    )
    params = init_params(task, config)
    plain_losses, _ = plain_supervised_train(params, task, config)
    trace = train(task, config, params=params)
    loop_losses = [r.loss_fg for r in trace.records]
    np.testing.assert_allclose(loop_losses, plain_losses, rtol=0.0, atol=1e-9)
    _report(5, "reduction oracle")


@pytest.mark.slow
def test_c06_noise_detection(noise_family):
    """The injected noise source gets the strictly smallest final weight in
    at least 9 of 10 seeds."""
    full, _, _ = noise_family
    informative = full.final_weights[:, :-1]
    noise = full.final_weights[:, -1]
    smallest = noise < informative.min(axis=1)
    assert smallest.sum() >= 9, f"noise weight smallest in only {smallest.sum()}/10 seeds"
    largest_delta = full.final_deltas[:, -1] > full.final_deltas[:, :-1].max(axis=1)
    assert largest_delta.sum() >= 9
    _report(6, "noise detection")


@pytest.mark.slow
def test_c07_source_sweep(sweep_family):
    """More related sources help: the 4-source mean beats the target-only
    baseline by at least 0.05 and never falls behind the 2-source mean by
    more than 0.02."""
    by_label = {s.label: s for s in sweep_family}
    m0 = by_label["ns_0"].mean
    m2 = by_label["ns_2"].mean
    m4 = by_label["ns_4"].mean
    assert m4 >= m2 - 0.02, f"ns4={m4:.4f} ns2={m2:.4f}"
    assert m2 >= m0, f"ns2={m2:.4f} ns0={m0:.4f}"
    assert m4 >= m0 + 0.05, f"ns4={m4:.4f} ns0={m0:.4f}"
    _report(7, "source sweep")


@pytest.mark.slow
def test_c08_ablation_ordering(noise_family):
    """On the noise-contaminated task, conditional weighting plus the
    consistency term is no worse (0.01 margin) than either ablation."""
    full, ones, neither = noise_family
    full_mean = float(np.mean(full.summary.accuracies[: len(ABLATION_SEEDS)]))
    assert full_mean >= ones.summary.mean - 0.01, (
        f"full={full_mean:.4f} ones_weight={ones.summary.mean:.4f}"
    )
    assert full_mean >= neither.summary.mean - 0.01, (
        f"full={full_mean:.4f} no_lg_and_ones={neither.summary.mean:.4f}"
    )
    _report(8, "ablation ordering")


@pytest.mark.slow
def test_c09_convergence(default_run):
    """Accuracy settles: the last tenth of the run varies by under 0.02
    standard deviation and ends above the first iteration's accuracy."""
    accs = np.array([r.target_accuracy for r in default_run.records])
    tail = accs[-max(1, len(accs) // 10):]
    assert tail.std() < 0.02, f"tail std {tail.std():.4f}"
    assert accs[-1] > accs[0], f"final {accs[-1]:.4f} <= first {accs[0]:.4f}"
    _report(9, "convergence")


def test_c10_cli_determinism(tmp_path, capsys):
    """Two identical command-line training runs write byte-identical traces."""
    data = tmp_path / "data"
    code = cli_main(
        [
            "synth", "--dims", "12,14,target=16", "--classes", "3",
            "--latent-dim", "6", "--per-class", "10",
            "--target-labeled-per-class", "3", "--target-unlabeled", "30",
            "--seed", "0", "--out", str(data),
        ]
    )
    assert code == 0
    train_args = [
        "train",
        "--source", str(data / "source_0_d12.txt"),
        "--source", str(data / "source_1_d14.txt"),
        "--target", str(data / "target_d16.txt"),
        "--labeled-per-class", "3",
        "--dc", "16", "--hidden", "16", "--iters", "40", "--seed", "0",
    ]
    assert cli_main([*train_args, "--out", str(tmp_path / "r1")]) == 0
    assert cli_main([*train_args, "--out", str(tmp_path / "r2")]) == 0
    capsys.readouterr()
    t1 = (tmp_path / "r1" / "trace.csv").read_bytes()
    t2 = (tmp_path / "r2" / "trace.csv").read_bytes()
    assert t1 == t2 and len(t1) > 0
    _report(10, "command-line determinism")


@pytest.mark.slow
def test_c11_weighting_aligns_conditionals(noise_family):
    """Conditional weighting aligns the class-conditional distributions: in
    each of seeds 0-4, every informative source ends with a smaller
    divergence under `full` than under `ones_weight`."""
    full, ones, _ = noise_family
    assert full.summary.seeds[: len(ABLATION_SEEDS)] == ones.summary.seeds == ABLATION_SEEDS
    pairs = zip(ABLATION_SEEDS, full.final_deltas[:, :-1], ones.final_deltas[:, :-1])
    for seed, weighted, unweighted in pairs:
        assert np.all(weighted < unweighted), (
            f"seed {seed}: full deltas {weighted}, ones_weight deltas {unweighted}"
        )
    _report(11, "conditional alignment")
