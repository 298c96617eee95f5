"""Initialization, the alternating loop's contracts, and evaluation."""

import platform
import resource
import weakref
from dataclasses import replace

import numpy as np
import pytest

import heteroadapt.experiments as experiments
import heteroadapt.model as model
import heteroadapt.numerics as numerics
import heteroadapt.training as training
from heteroadapt.data import SynthSpec, synthetic_task
from heteroadapt.errors import ConfigError, NonFiniteError, ShapeError
from heteroadapt.experiments import ABLATION_VARIANTS, ablation_config
from heteroadapt.model import (
    ClassifierParams,
    DiscriminatorParams,
    ModelParams,
    TransformerParams,
)
from heteroadapt.numerics import Adam, Tensor, scale, sum_sq
from heteroadapt.training import (
    TrainConfig,
    evaluate_accuracy,
    init_params,
    train,
    train_step,
)

from conftest import count_halves, leaf_list, overflow_gradient_at_third_step, target_soft
from oracles import assert_traces_close, old_order_divergence_nodes, three_forward_train


def tiny_config(**overrides):
    base = dict(d_c=8, hidden=8, iterations=20, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def tiny_task(seed=0, **spec_overrides):
    spec = dict(
        source_dims=(12, 14),
        target_dim=16,
        classes=3,
        latent_dim=6,
        samples_per_class=15,
        target_labeled_per_class=2,
        target_unlabeled=45,
        seed=seed,
    )
    spec.update(spec_overrides)
    return synthetic_task(SynthSpec(**spec))


class TestConfig:
    def test_defaults_match_recommended_settings(self):
        cfg = TrainConfig()
        assert (cfg.beta, cfg.tau, cfg.d_c) == (0.03, 0.004, 256)
        assert (cfg.lr_fg, cfg.lr_d) == (0.004, 0.001)
        assert cfg.lg_norm == "l1" and cfg.weighting == "conditional"

    def test_invalid_values_rejected(self):
        for bad in (
            dict(beta=-0.1),
            dict(tau=-1.0),
            dict(d_c=0),
            dict(lr_fg=0.0),
            dict(iterations=-1),
            dict(lg_norm="l3"),
            dict(weighting="softmax"),
        ):
            with pytest.raises(ConfigError):
                TrainConfig(**bad)

    @pytest.mark.parametrize("name", ["beta", "tau", "lr_fg", "lr_d"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_rejected_by_name(self, name, value):
        # nan compares false against every bound, so without its own check
        # `beta=nan` would train silently without the adversarial term
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name,value", [
        ("d_c", 8.5), ("hidden", 8.0), ("iterations", True), ("seed", np.float64(1.0)),
    ])
    def test_non_integer_in_int_field_rejected_by_name(self, name, value):
        # without this check d_c=8.5 dies later as a bare TypeError inside numpy
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            TrainConfig(**{name: value})

    def test_numpy_integers_accepted(self):
        assert TrainConfig(d_c=np.int64(8), iterations=np.int32(2)).d_c == 8


class TestInit:
    def test_same_seed_bit_identical(self):
        task = tiny_task()
        a = init_params(task, tiny_config())
        b = init_params(task, tiny_config())
        for ta, tb in zip(leaf_list(a, "fg", "d"), leaf_list(b, "fg", "d")):
            assert np.array_equal(ta.array, tb.array)

    def test_different_seeds_differ(self):
        task = tiny_task()
        a = init_params(task, tiny_config(seed=0))
        b = init_params(task, tiny_config(seed=1))
        assert not np.array_equal(a.target.w1.array, b.target.w1.array)

    def test_biases_start_at_zero(self):
        params = init_params(tiny_task(), tiny_config())
        for t in (*params.sources, params.target):
            assert np.all(t.b1.array == 0.0) and np.all(t.b2.array == 0.0)
        assert np.all(params.classifier.b.array == 0.0)
        assert np.all(params.discriminator.b1.array == 0.0)

    def test_weight_scale_follows_fan_in(self):
        params = init_params(tiny_task(), tiny_config())
        bound = 1.0 / np.sqrt(params.target.w1.shape[0])
        w = params.target.w1.array
        assert np.all(np.abs(w) <= bound)
        assert w.std() > 0.1 * bound

    def test_tied_config_builds_shared_second_layer(self):
        params = init_params(tiny_task(), tiny_config(lg_norm="tied"))
        assert params.tied_second
        assert params.sources[0].w2 is params.target.w2


class TestTrainStep:
    def test_discriminator_step_freezes_fg_and_vice_versa(self, monkeypatch):
        task = tiny_task()
        config = tiny_config()
        params = init_params(task, config)
        opt_fg = Adam(leaf_list(params, "fg"), config.lr_fg)
        opt_d = Adam(leaf_list(params, "d"), config.lr_d)

        stepped = []  # what the discriminator step inside train_step produced
        real_with_leaves = training.with_leaves

        def spy(p, group, tensors):
            rebuilt = real_with_leaves(p, group, tensors)
            if group == "d":
                stepped.append(rebuilt)
            return rebuilt

        monkeypatch.setattr(training, "with_leaves", spy)
        new_params, _, _, _, _ = train_step(params, opt_fg, opt_d, task, config)
        (after_d,) = stepped
        for ta, tb in zip(leaf_list(params, "fg"), leaf_list(after_d, "fg")):
            assert ta is tb  # f,g untouched by the discriminator step
        assert not np.array_equal(after_d.discriminator.w1.array,
                                  params.discriminator.w1.array)

        # then fg moved, and within the step d stayed what opt_d produced
        assert not np.array_equal(new_params.target.w1.array, after_d.target.w1.array)
        for ta, tb in zip(leaf_list(after_d, "d"), leaf_list(new_params, "d")):
            assert ta is tb

    def test_embedding_tape_freed_before_transformer_update(self, monkeypatch):
        task = tiny_task()
        config = tiny_config()
        params = init_params(task, config)
        tapes = []  # weak references to each step's embedding-pass tape
        real_pass = training.embedding_pass

        def spy_pass(*args, **kwargs):
            fwd = real_pass(*args, **kwargs)
            tapes.append(weakref.ref(fwd.tape))
            return fwd

        alive = []  # per Adam step: is the step's embedding-pass tape still reachable?
        real_step = Adam.step

        def spy_step(self, *args):
            alive.append(tapes[-1]() is not None)
            return real_step(self, *args)

        def spy_tape():
            tape = numerics.Tape()
            tapes.append(weakref.ref(tape))
            return tape

        monkeypatch.setattr(training, "embedding_pass", spy_pass)
        monkeypatch.setattr(experiments, "Tape", spy_tape)
        monkeypatch.setattr(Adam, "step", spy_step)
        train_step(params, Adam(leaf_list(params, "fg"), config.lr_fg),
                   Adam(leaf_list(params, "d"), config.lr_d), task, config)
        # the discriminator step runs while the pass is still needed; the
        # transformer/classifier step after every value has been read
        assert alive == [True, False]
        # the baselines' loop drops each iteration's tape before its step
        alive.clear()
        experiments.supervised_train(params, task, replace(config, iterations=3))
        assert alive == [False, False, False]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
    def test_steady_state_steps_reuse_their_memory(self):
        # with glibc's default dynamic thresholds a desk step handed its freed
        # arrays back to the kernel and faulted them in again, about 950 pages each
        task, config = synthetic_task(SynthSpec()), TrainConfig()
        params = init_params(task, config)
        opt_fg = Adam(leaf_list(params, "fg"), config.lr_fg)
        opt_d = Adam(leaf_list(params, "d"), config.lr_d)
        faults = []
        for _ in range(15):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            params, *_ = train_step(params, opt_fg, opt_d, task, config)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert sum(faults[5:]) / 10 < 80, faults

    def test_conditional_weights_in_range(self):
        task = tiny_task()
        config = tiny_config(iterations=10)
        trace = train(task, config)
        for rec in trace.records:
            w = np.array(rec.weights)
            assert np.all(w >= 0.5) and np.all(w < 1.0)
            assert np.array_equal(
                np.argsort(w), np.argsort(np.array(rec.deltas))[::-1]
            )

    def test_supervised_reduction_learns_separable_task(self):
        task = tiny_task(spread=0.2)
        config = tiny_config(beta=0.0, weighting="ones", lg_norm="off", iterations=50)
        trace = train(task, config)
        first, last = trace.records[0].loss_fg, trace.records[-1].loss_fg
        assert last < first

    def test_ones_weighting_reports_unit_weights(self):
        trace = train(tiny_task(), tiny_config(weighting="ones", iterations=3))
        for rec in trace.records:
            assert rec.weights == (1.0, 1.0)
            assert len(rec.deltas) == 2  # divergences still recorded

    def test_recorded_divergences_match_objective_tape_bitwise(self):
        # the step records what its own tape computed, so a separately built
        # embedding pass from the same parameters agrees exactly
        from heteroadapt.model import embedding_pass
        from heteroadapt.numerics import softmax_values

        task = tiny_task()
        config = tiny_config()
        params = init_params(task, config)
        _, _, deltas, weights, _ = train_step(
            params, Adam(leaf_list(params, "fg"), config.lr_fg),
            Adam(leaf_list(params, "d"), config.lr_d), task, config,
        )
        fwd = embedding_pass(params, task, weighting=config.weighting)
        tape_deltas = np.array([float(d.value) for d in fwd.deltas])
        tape_weights = np.array([float(w.value) for w in fwd.weights])
        assert np.array_equal(np.array(deltas), tape_deltas)
        assert np.array_equal(np.array(weights), tape_weights)
        np.testing.assert_array_equal(
            softmax_values(fwd.soft_logits.value),
            target_soft(params, task.target_unlabeled.features),
        )

    def test_one_transformer_forward_per_domain_per_run(self, monkeypatch):
        # K sources + labeled + unlabeled target once on the step the run
        # records (the others replay its kernels), plus one value-only
        # evaluation of the unlabeled target after the last step
        calls = count_model_calls(monkeypatch, "transform", "transform_values")
        task = tiny_task()
        train(task, tiny_config(iterations=3))
        k = task.num_sources
        assert calls["transform"] == k + 2
        assert calls["transform_values"] == 1

    def test_target_class_means_built_once_per_run(self, monkeypatch):
        # on the recorded step: one (C, n) row sum per source, one op for the
        # target means and one divergence per source against them
        calls = count_model_calls(monkeypatch, "weighted_row_sum", "class_conditional_mmd",
                                  "target_class_means")
        task = tiny_task()
        train(task, tiny_config(iterations=3))
        k = task.num_sources
        assert calls == {"weighted_row_sum": k, "class_conditional_mmd": k,
                         "target_class_means": 1}


def count_model_calls(monkeypatch, *names):
    """Count calls of `heteroadapt.model` functions, as looked up there."""
    calls = dict.fromkeys(names, 0)

    def counting(name):
        real = getattr(model, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(model, name, counting(name))
    return calls


@pytest.mark.parametrize(
    "overrides, spec",
    [
        pytest.param(dict(lg_norm=lg, weighting=w), {}, id=f"{lg}-{w}")
        for lg in ("l1", "l2", "off", "tied")
        for w in ("conditional", "ones")
    ]
    + [pytest.param({}, dict(source_dims=(12,)), id="one-source")],
)
def test_train_matches_three_forward_loop(overrides, spec):
    task = tiny_task(**spec)
    config = tiny_config(iterations=5, **overrides)
    want_records, want_params = three_forward_train(task, config)
    trace = train(task, config)
    assert trace.records == want_records
    got = leaf_list(trace.final_params, "fg", "d")
    want = leaf_list(want_params, "fg", "d")
    for ta, tb in zip(got, want, strict=True):
        assert np.array_equal(ta.array, tb.array)


@pytest.mark.parametrize("variant", sorted(ABLATION_VARIANTS))
def test_train_matches_old_order_divergence(monkeypatch, variant):
    # The divergence's float sums were reordered once, on purpose; the old
    # per-class chain stays the reference, on the ablate_small benchmark shape.
    task = synthetic_task(SynthSpec(source_dims=(20, 28, 36, 44), target_dim=32))
    config = ablation_config(TrainConfig(d_c=32, hidden=32, iterations=100), variant)
    got = train(task, config)
    monkeypatch.setattr(model, "divergence_nodes", old_order_divergence_nodes)
    want = train(task, config)
    assert_traces_close(got.records, want.records, rtol=1e-12)


class TestNonFinite:
    def test_overflowing_source_names_divergence_and_iteration(self):
        task = tiny_task()
        big = replace(task.sources[0], features=Tensor(task.sources[0].features.array * 1e160))
        with np.errstate(over="ignore"), pytest.raises(
                NonFiniteError, match="^iteration 0: delta_1 is not finite$") as info:
            train(replace(task, sources=(big, *task.sources[1:])), tiny_config())
        assert info.value.iteration == 0 and info.value.records == []

    def test_gradient_overflow_names_parameter_and_keeps_records(self, monkeypatch):
        task, config = tiny_task(), tiny_config(iterations=5)
        want = train(task, config).records[:2]
        overflow_gradient_at_third_step(monkeypatch)
        with np.errstate(over="ignore"), pytest.raises(
                NonFiniteError, match="^iteration 2: gradient of classifier w is not finite$"
        ) as info:
            train(task, config)
        assert info.value.records == want

    def test_discriminator_gradient_overflow_names_its_leaf(self, monkeypatch):
        real = model.domain_loss

        def overflowing(m, emb, weights, inverted):
            loss = real(m, emb, weights, inverted)
            if inverted:  # the transformer objective's term; only the discriminator's overflows
                return loss
            # about 1e200 in value, about 1e350 in the gradient of discriminator w2
            return loss + sum_sq(scale(scale(m.discriminator.w2, 1e-150), 1e250))

        monkeypatch.setattr(model, "domain_loss", overflowing)
        with np.errstate(over="ignore"), pytest.raises(
                NonFiniteError, match="^iteration 0: gradient of discriminator w2 is not finite$"
        ) as info:
            train(tiny_task(), tiny_config(iterations=3))
        assert info.value.records == []


class TestTrain:
    def test_zero_iterations_returns_init(self):
        task = tiny_task()
        config = tiny_config(iterations=0)
        trace = train(task, config)
        assert trace.records == []
        expected = init_params(task, config)
        for ta, tb in zip(leaf_list(trace.final_params, "fg"), leaf_list(expected, "fg")):
            assert np.array_equal(ta.array, tb.array)

    def test_fixed_seed_bit_identical_trace(self):
        task = tiny_task()
        a = train(task, tiny_config(iterations=5))
        b = train(task, tiny_config(iterations=5))
        assert a.records == b.records
        for ta, tb in zip(leaf_list(a.final_params, "fg"), leaf_list(b.final_params, "fg")):
            assert np.array_equal(ta.array, tb.array)

    @pytest.mark.parametrize("spec", [
        pytest.param(SynthSpec(), id="desk"),
        pytest.param(SynthSpec(source_dims=(300, 600), target_dim=1000), id="wide"),
    ])
    def test_helper_thread_does_not_change_results(self, monkeypatch, spec):
        # the same bits whether the helper thread computes the bottom halves
        # or the caller the whole kernels (one usable core, or a job thread)
        task, config = synthetic_task(spec), TrainConfig(iterations=3)
        halves = count_halves(monkeypatch)
        shared = train(task, config)
        assert {np.matmul, numerics._adam_update} <= set(halves)
        monkeypatch.setattr(numerics, "_helper", lambda: None)
        alone = train(task, config)
        assert repr(shared.records) == repr(alone.records)
        a, b = shared.final_params, alone.final_params
        for ta, tb in zip(leaf_list(a, "fg", "d"), leaf_list(b, "fg", "d"),
                          strict=True):
            assert np.array_equal(ta.array.view(np.int64), tb.array.view(np.int64))

    def test_record_count_and_accuracy_from_next_forward(self):
        # iteration i's accuracy is read off iteration i+1's forward; it must
        # equal a fresh evaluation of the parameters step i produced
        task = tiny_task()
        config = tiny_config(iterations=5)
        trace = train(task, config)
        assert len(trace.records) == 5
        assert trace.records[-1].iteration == 4
        for i in range(5):
            prefix = train(task, tiny_config(iterations=i + 1))
            got = trace.records[i].target_accuracy
            assert got == prefix.final_accuracy
            assert got == evaluate_accuracy(
                prefix.final_params, task.target_unlabeled.features, task.eval_labels
            )

    def test_requires_sources(self):
        task = tiny_task()
        bare = type(task)((), task.target_labeled, task.target_unlabeled, task.eval_labels)
        with pytest.raises(ConfigError, match="source"):
            train(bare, tiny_config())

    @pytest.mark.parametrize("spec, mismatch", [
        pytest.param(dict(source_dims=(12,)), "source transformers 1, task has 2",
                     id="fewer-sources"),
        pytest.param(dict(source_dims=(12, 14, 10)), "source transformers 3, task has 2",
                     id="more-sources"),
        pytest.param(dict(source_dims=(12, 15)), "source 1 input width 15, task has 14",
                     id="source-width"),
        pytest.param(dict(target_dim=17), "target input width 17, task has 16",
                     id="target-width"),
        pytest.param(dict(classes=4), "classifier classes 4, task has 3", id="classes"),
    ])
    def test_params_that_do_not_fit_the_task_rejected(self, spec, mismatch):
        config = tiny_config(iterations=2)
        params = init_params(tiny_task(**spec), config)
        with pytest.raises(ShapeError, match=f"do not fit the task: {mismatch}"):
            train(tiny_task(), config, params)


class TestEvaluate:
    def _fixed_params(self):
        # identity pipeline: 1-d embedding, logits [h, -h]; class 0 iff h >= 0
        ident = TransformerParams(Tensor([[1.0]]), Tensor([0.0]), Tensor([[1.0]]), Tensor([0.0]))
        return ModelParams(
            (ident,), ident,
            ClassifierParams(Tensor([[1.0, -1.0]]), Tensor([0.0, 0.0])),
            DiscriminatorParams(Tensor([[1.0]]), Tensor([0.0]),
                                Tensor([[1.0, 0.0]]), Tensor([0.0, 0.0])),
        )

    def test_all_correct_and_all_wrong(self):
        params = self._fixed_params()
        x = [[1.0], [2.0], [3.0]]
        assert evaluate_accuracy(params, x, [0, 0, 0]) == 1.0
        assert evaluate_accuracy(params, x, [1, 1, 1]) == 0.0

    def test_three_of_four(self):
        params = self._fixed_params()
        x = [[1.0], [1.0], [1.0], [-1.0]]
        assert evaluate_accuracy(params, x, [0, 0, 0, 0]) == 0.75

    def test_tie_breaks_to_lowest_class(self):
        params = self._fixed_params()
        # h = 0 gives logits [0, 0]: argmax tie resolves to class 0
        assert evaluate_accuracy(params, [[0.0]], [0]) == 1.0
        assert evaluate_accuracy(params, [[0.0]], [1]) == 0.0

    def test_monotone_transform_invariance(self):
        params = self._fixed_params()
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 1))
        # any strictly monotone transform of all class scores keeps the
        # argmax, so evaluation predicts exactly the transformed argmax
        from heteroadapt.model import classifier_logits

        logits = classifier_logits(params, params.target, x)
        transformed = np.argmax(3.0 * logits + 7.0, axis=1)
        assert evaluate_accuracy(params, x, transformed) == 1.0

    @pytest.mark.parametrize("labels", [[0], [[0], [0], [0]], [0, 0, 0, 0]],
                             ids=["one-label", "column", "too-many"])
    def test_labels_must_be_one_per_row(self, labels):
        x = [[1.0], [2.0], [3.0]]
        with pytest.raises(ShapeError, match=r"labels have shape .*expected \(3,\)"):
            evaluate_accuracy(self._fixed_params(), x, labels)

    def test_empty_evaluation_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            evaluate_accuracy(self._fixed_params(), [[1.0]], np.array([]))
