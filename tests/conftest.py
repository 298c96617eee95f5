"""Shared builders for small deterministic test fixtures."""

import os
import subprocess
from dataclasses import replace

import numpy as np
import pytest

import heteroadapt.cli as cli
import heteroadapt.numerics as numerics
import heteroadapt.training as training
from heteroadapt.data import DomainData, MultiSourceTask
from heteroadapt.model import (
    ClassifierParams,
    DiscriminatorParams,
    ModelParams,
    TransformerParams,
    classifier_logits,
    embed_task,
    leaves,
    lift,
)
from heteroadapt.numerics import Tape, Tensor, scale, softmax_values, sum_sq

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # Derandomized: every run checks the same examples, so the suite stays
    # reproducible and its time bounded.
    settings.register_profile("heteroadapt", derandomize=True, deadline=None,
                              max_examples=40, database=None)
    settings.load_profile("heteroadapt")


def pytest_terminal_summary(terminalreporter):
    """The numeric environment that bit-identical traces depend on, printed
    at the end of the run, which `pytest -q` keeps (it drops the header)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    threads = " ".join(f"{var}={os.environ.get(var, 'unset')}"
                       for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    terminalreporter.write_line(f"numerics: numpy {np.__version__}, BLAS {blas}, {threads}, "
                                f"usable cores {len(os.sched_getaffinity(0))}")


def make_transformer(rng, d_in, hidden, d_c, scale=0.8):
    return TransformerParams(
        Tensor(rng.uniform(-scale, scale, (d_in, hidden))),
        Tensor(rng.uniform(-0.2, 0.2, hidden)),
        Tensor(rng.uniform(-scale, scale, (hidden, d_c))),
        Tensor(rng.uniform(-0.2, 0.2, d_c)),
    )


def make_params(rng, source_dims, target_dim, hidden=4, d_c=4, num_classes=2, tied=False):
    target = make_transformer(rng, target_dim, hidden, d_c)
    if tied:
        sources = tuple(
            TransformerParams(
                Tensor(rng.uniform(-0.8, 0.8, (d, hidden))),
                Tensor(rng.uniform(-0.2, 0.2, hidden)),
                target.w2,
                target.b2,
            )
            for d in source_dims
        )
    else:
        sources = tuple(make_transformer(rng, d, hidden, d_c) for d in source_dims)
    classifier = ClassifierParams(
        Tensor(rng.uniform(-0.8, 0.8, (d_c, num_classes))),
        Tensor(rng.uniform(-0.2, 0.2, num_classes)),
    )
    disc = DiscriminatorParams(
        Tensor(rng.uniform(-0.8, 0.8, (d_c, d_c))),
        Tensor(rng.uniform(-0.2, 0.2, d_c)),
        Tensor(rng.uniform(-0.8, 0.8, (d_c, 2))),
        Tensor(rng.uniform(-0.2, 0.2, 2)),
    )
    return ModelParams(sources, target, classifier, disc)


def frozen_model(tape, params):
    """Every parameter of `params` on `tape` as a constant, in training's
    lifting order: transformers and classifier, then the discriminator."""
    model = lift(tape, params, "fg", trainable=False)
    return lift(tape, model, "d", trainable=False)


def leaf_list(params, *groups):
    """The leaves of `params`' named groups, group after group, in one list."""
    return [leaf for group in groups for leaf in leaves(params, group).values()]


def target_soft(params, features):
    """Soft labels of target samples, as `embedding_pass` derives them."""
    return softmax_values(classifier_logits(params, params.target, features))


def frozen_embeddings(params, task):
    """Every domain of `task` embedded on a tape of constants."""
    tape = Tape()
    return embed_task(frozen_model(tape, params), tape, task)


def make_task(source_x, source_y, labeled_x, labeled_y, unlabeled_x, num_classes):
    """A `MultiSourceTask` from raw arrays; the unlabeled split has no labels."""
    sources = [DomainData(f"source_{k}", Tensor(x), y, num_classes)
               for k, (x, y) in enumerate(zip(source_x, source_y))]
    return MultiSourceTask.build(
        sources,
        DomainData("target_labeled", Tensor(labeled_x), labeled_y, num_classes),
        DomainData("target_unlabeled", Tensor(unlabeled_x), None, num_classes),
    )


def make_toy_task(rng, source_dims=(3, 5), target_dim=4, num_classes=2,
                  per_source=4, labeled=2, unlabeled=3):
    """A tiny two-source task; every domain covers every class."""
    source_x, source_y = [], []
    for d in source_dims:
        source_x.append(rng.uniform(-1.5, 1.5, (per_source, d)))
        source_y.append(np.arange(per_source) % num_classes)
    lab_x = rng.uniform(-1.5, 1.5, (labeled, target_dim))
    lab_y = np.arange(labeled) % num_classes
    unlab_x = rng.uniform(-1.5, 1.5, (unlabeled, target_dim))
    return make_task(source_x, source_y, lab_x, lab_y, unlab_x, num_classes)


@pytest.fixture
def toy_setup():
    rng = np.random.default_rng(42)
    task = make_toy_task(rng)
    params = make_params(rng, (3, 5), 4)
    return params, task


def overflow_gradient_at_third_step(monkeypatch):
    """Make the classifier gradient of `train`'s third step overflow. The
    blow-up is added to the third objective a step builds, so every step of
    the run is built (given no program to record and replay)."""
    real = training.transformer_objective
    real_step = training.train_step
    steps = []

    def overflowing_at_third_step(fwd, *args, **kwargs):
        obj = real(fwd, *args, **kwargs)
        steps.append(None)
        if len(steps) < 3:
            return obj
        # about 1e200 in value, about 1e350 in the classifier's gradient
        blowup = sum_sq(scale(scale(fwd.model.classifier.w, 1e-150), 1e250))
        return replace(obj, objective=obj.objective + blowup)

    monkeypatch.setattr(training, "transformer_objective", overflowing_at_third_step)
    monkeypatch.setattr(training, "train_step", lambda *args: real_step(*args[:5]))


@pytest.fixture
def split_products(monkeypatch):
    """Split large products whatever OpenBLAS's thread count (see `numerics`)."""
    monkeypatch.setattr(numerics, "_SERIAL_BLAS", True)


@pytest.fixture
def parse_in_child(monkeypatch) -> list:
    """Hand domain files to a parsing child however small they are, as if two
    cores were usable (see `cli._load_domain_files`); the list collects the
    `Popen` of every child started."""
    started = []
    real = subprocess.Popen

    def spy(*args, **kwargs):
        started.append(real(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(cli, "_CHILD_START_BYTES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(subprocess, "Popen", spy)
    return started


def count_halves(monkeypatch) -> list:
    """The kernel of every `_in_halves` call from now on, in call order, with
    large products split."""
    seen = []
    real = numerics._in_halves

    def spy(pool, kernel, top, bottom):
        seen.append(kernel)
        real(pool, kernel, top, bottom)

    monkeypatch.setattr(numerics, "_SERIAL_BLAS", True)
    monkeypatch.setattr(numerics, "_in_halves", spy)
    return seen
