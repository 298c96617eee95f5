"""A run records its training step once and replays the recorded kernels.

The reference for every replayed run is the same run with every step
built again (`train_step` given no program), which is how `train` ran
before it recorded anything.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import leaf_list
from oracles import grad_check
import heteroadapt.experiments as experiments
import heteroadapt.model as model
import heteroadapt.training as training
from heteroadapt.data import SynthSpec, synthetic_task
from heteroadapt.errors import ConfigError, NonFiniteError
from heteroadapt.experiments import ABLATION_VARIANTS, ablation_config
from heteroadapt.model import (
    TaskEmbeddings,
    class_conditional_mmd,
    classification_loss,
    flat_leaves,
    lift,
    source_weight_nodes,
    target_class_means,
    transform,
    with_leaves,
)
from heteroadapt.numerics import (
    Adam,
    Program,
    Tape,
    Tensor,
    mul,
    sigmoid,
    sum_sq,
    weighted_row_sum,
)
from heteroadapt.training import TrainConfig, train

SOURCE_DIMS = {1: (12,), 2: (12, 14), 4: (12, 14, 10, 16)}


def small_task(k=2, seed=0):
    return synthetic_task(SynthSpec(source_dims=SOURCE_DIMS[k], target_dim=16, classes=3,
                                     latent_dim=6, samples_per_class=12,
                                     target_labeled_per_class=2, target_unlabeled=30,
                                     seed=seed))


def run(monkeypatch, task, config, *, eager):
    """`train(task, config)` and the two optimizers it made; `eager` builds
    every step instead of replaying the first."""
    made = []
    real_adam, real_step = training.Adam, training.train_step

    def adam(*args, **kwargs):
        made.append(real_adam(*args, **kwargs))
        return made[-1]

    with monkeypatch.context() as patch:
        patch.setattr(training, "Adam", adam)
        if eager:
            patch.setattr(training, "train_step", lambda *args: real_step(*args[:5]))
        return train(task, config), made


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_runs(replayed, eager):
    (trace, opts), (want, want_opts) = replayed, eager
    assert trace.records == want.records
    got_leaves = leaf_list(trace.final_params, "fg", "d")
    for a, b in zip(got_leaves, leaf_list(want.final_params, "fg", "d"), strict=True):
        assert same_bits(a.array, b.array)
    for opt, ref in zip(opts, want_opts, strict=True):
        assert opt.step_count == ref.step_count
        for a, b in zip([*opt.m, *opt.v], [*ref.m, *ref.v], strict=True):
            assert same_bits(a, b)


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("variant", sorted(ABLATION_VARIANTS))
def test_replayed_run_equals_built_run_bit_for_bit(monkeypatch, variant, k):
    task = small_task(k)
    config = ablation_config(TrainConfig(d_c=8, hidden=8, iterations=30, seed=k), variant)
    assert_same_runs(run(monkeypatch, task, config, eager=False),
                     run(monkeypatch, task, config, eager=True))


@pytest.mark.parametrize("k", [0, 2])
def test_replayed_baseline_equals_built_one_bit_for_bit(k):
    task = small_task(2)
    task = replace(task, sources=task.sources[:k])
    config = TrainConfig(d_c=8, hidden=8, iterations=10, tau=0.01)
    params = built = training.init_params(task, config)
    # the baseline's loop with every iteration building its own tape
    opt = Adam(flat_leaves(built, "fg"), config.lr_fg)
    for _ in range(config.iterations):
        tape = Tape()
        lifted = lift(tape, built, "fg", trainable=True)
        emb = TaskEmbeddings([transform(t, tape.constant(d.features))
                              for t, d in zip(lifted.sources, task.sources)],
                             transform(lifted.target, tape.constant(task.target_labeled.features)),
                             None)
        loss = classification_loss(lifted, emb, task, [1.0] * k, config.tau)
        built = with_leaves(built, "fg", opt.step(flat_leaves(built, "fg"), tape.backward(loss)))
    replayed = experiments.supervised_train(params, task, config)
    for a, b in zip(leaf_list(replayed, "fg"), leaf_list(built, "fg"), strict=True):
        assert same_bits(a.array, b.array)


def test_run_with_sigmoid_at_its_ceiling(monkeypatch):
    # source 0 far from the target: its divergence saturates the sigmoid, so
    # the other source's weight is held at the largest double below 1
    task = small_task(2)
    far = replace(task.sources[0], features=Tensor(task.sources[0].features.array * 60.0))
    task = replace(task, sources=(far, task.sources[1]))
    config = TrainConfig(d_c=8, hidden=8, iterations=8)
    replayed = run(monkeypatch, task, config, eager=False)
    held = [rec.weights[1] for rec in replayed[0].records]
    assert all(w == np.nextafter(1.0, 0.0) for w in held)
    assert_same_runs(replayed, run(monkeypatch, task, config, eager=True))


def test_non_finite_replayed_iteration_reports_as_a_built_one(monkeypatch):
    # a huge step size blows the parameters up after the first update, so
    # the second iteration, a replayed one, overflows
    task, config = small_task(2), TrainConfig(d_c=8, hidden=8, iterations=5, lr_fg=1e150)
    errors = []
    for eager in (False, True):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError) as info:
            run(monkeypatch, task, config, eager=eager)
        errors.append(info.value)
    replayed, built = errors
    assert replayed.iteration == built.iteration == 1
    assert (replayed.quantity, str(replayed)) == (built.quantity, str(built))
    assert replayed.records == built.records and len(replayed.records) == 1


def test_soft_label_checks_run_on_every_replay():
    # labels cover class 0 only, so class 1's mass is all soft
    tape = Tape()
    labeled = tape.constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
    unlabeled = tape.constant(np.ones((3, 2)))
    soft = tape.param(Tensor(np.full((3, 2), 0.5)))
    means = target_class_means(labeled, np.array([0, 0]), 2, unlabeled, soft)
    program = Program(tape, [soft.value], [means.index])
    again = program.run([np.full((3, 2), 0.5)])
    assert same_bits(program.node(again, means.index).value, means.value)
    with pytest.raises(ConfigError, match="class 1 has zero labeled-plus-soft target mass"):
        program.run([np.array([[1.0, 0.0]] * 3)])
    with pytest.raises(ConfigError, match="soft-label rows must sum to 1"):
        program.run([np.full((3, 2), 0.6)])


def test_model_builds_one_step_per_run(monkeypatch):
    calls = {"embed_task": 0, "train_step": 0, "transform": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(model, "embed_task")
    counting(training, "train_step")
    counting(experiments, "transform")
    task = small_task(2)
    config = TrainConfig(d_c=8, hidden=8, iterations=4)
    train(task, config)
    train(task, config)
    experiments.supervised_train(training.init_params(task, config), task, config)
    k = task.num_sources
    assert calls == {"embed_task": 2, "train_step": 8, "transform": k + 1}


def test_program_refuses_what_a_replay_cannot_repeat():
    tape = Tape()
    x = tape.param(Tensor([[1.0], [2.0]]))
    fixed = sum_sq(weighted_row_sum(x, np.ones(2)))  # a writeable static array
    with pytest.raises(ValueError, match="cannot be replayed"):
        Program(tape, [x.value], [fixed.index])
    tape = Tape()
    x = tape.param(Tensor([1.0, 2.0]))
    loss = sum_sq(mul(x, tape.constant(np.ones(2))))  # the constant is copied, so fixed
    Program(tape, [x.value], [loss.index])
    with pytest.raises(ValueError, match="cannot be replayed"):
        Program(tape, [], [loss.index])  # a trainable leaf without a slot
    with pytest.raises(ValueError, match="no leaf"):
        Program(tape, [x.value, np.ones(1)], [loss.index])


@pytest.mark.parametrize("k", [1, 2, 4])
def test_class_means_and_capped_sigmoid_gradients(k):
    # through the shared target means, the divergences and the weights into
    # every embedding; source 0's divergence enters at a zero weight
    rng = np.random.default_rng(k)
    classes, d = 3, 4
    source_labels = [np.arange(9) % classes for _ in range(k)]
    labeled_labels = np.arange(6) % classes
    soft = rng.dirichlet(np.ones(classes), 5)
    soft[0] = [1.0, 0.0, 0.0]
    scale_of = [0.0, *rng.uniform(0.5, 1.0, k - 1)]
    init = [rng.uniform(-1, 1, (9, d)) for _ in range(k)]
    init += [rng.uniform(-1, 1, (6, d)), rng.uniform(-1, 1, (5, d))]

    def loss(params):
        tape = Tape()
        *sources, labeled, unlabeled = [tape.param(p) for p in params]
        means = target_class_means(labeled, labeled_labels, classes, unlabeled, soft)
        deltas = [class_conditional_mmd(e, y, means) for e, y in zip(sources, source_labels)]
        total = sum_sq(means)
        for w, delta, c in zip(source_weight_nodes(deltas), deltas, scale_of):
            total = total + w * delta * 0.7 + delta * c
        return total

    assert grad_check(loss, init) < 1e-4


def test_capped_sigmoid_gradient_is_zero_where_held():
    ceiling = float(np.nextafter(1.0, 0.0))
    x0 = np.array([-3.0, 0.0, 2.0, 40.0])  # the last one rounds to 1, so it is held

    def loss(params):
        return sum_sq(sigmoid(Tape().param(params[0]), ceiling))

    assert grad_check(loss, [x0]) < 1e-4
    tape = Tape()
    held = sigmoid(tape.param(Tensor(x0)), ceiling)
    assert held.value[-1] == ceiling
    (grad,) = tape.backward(sum_sq(held))
    assert grad.array[-1] == 0.0 and np.all(grad.array[:-1] != 0.0)
