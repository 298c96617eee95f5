"""Baselines, the reduction oracle, ablation wiring, and summary output."""

from types import SimpleNamespace

import numpy as np
import pytest

from heteroadapt import experiments
from heteroadapt.data import SynthSpec, load_domain_file, synthetic_task
from heteroadapt.errors import ConfigError
from heteroadapt.experiments import (
    ABLATION_VARIANTS,
    ablation_config,
    default_task,
    export_embeddings,
    plain_supervised_train,
    run_ablation,
    run_baseline_nnst,
    run_baseline_nnt,
    run_noise_detection,
    run_source_sweep,
    summarize,
    write_summary_csvs,
)
from heteroadapt.model import fg_parameters
from heteroadapt.training import TrainConfig, evaluate_accuracy, init_params, train


def tiny_config(**overrides):
    base = dict(d_c=8, hidden=8, iterations=25, seed=0)
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


class TestSummarize:
    def test_hand_computed_standard_error(self):
        s = summarize("x", (0, 1, 2), (0.5, 0.7, 0.9))
        assert s.mean == pytest.approx(0.7, abs=1e-15)
        assert s.stderr == pytest.approx(0.2 / np.sqrt(3.0), abs=1e-12)

    def test_single_seed_stderr_is_zero(self):
        assert summarize("x", (0,), (0.8,)).stderr == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            summarize("x", (), ())


class TestReductionOracle:
    @pytest.mark.parametrize("source_dims", [(12,), (12, 14), (12, 14, 10)],
                             ids=["1_source", "2_sources", "3_sources"])
    def test_ablated_loop_matches_plain_trainer(self, source_dims):
        # beta=0, unit weights, no consistency term: the adversarial loop
        # must follow the hand-derived supervised trainer step for step
        task = tiny_task(source_dims=source_dims)
        config = tiny_config(beta=0.0, weighting="ones", lg_norm="off", iterations=40)
        params = init_params(task, config)
        plain_losses, plain_final = plain_supervised_train(params, task, config)
        trace = train(task, config, params=params)
        loop_losses = [r.loss_fg for r in trace.records]
        np.testing.assert_allclose(loop_losses, plain_losses, rtol=0.0, atol=1e-9)
        for ta, tb in zip(fg_parameters(trace.final_params), fg_parameters(plain_final)):
            np.testing.assert_allclose(ta.array, tb.array, atol=1e-9)

    def test_plain_trainer_learns(self):
        task = tiny_task(spread=0.2)
        config = tiny_config(iterations=60)
        params = init_params(task, config)
        losses, final = plain_supervised_train(params, task, config)
        assert losses[-1] < losses[0]
        acc = evaluate_accuracy(final, task.target_unlabeled.features, task.eval_labels)
        assert acc > 1.0 / task.num_classes

    def test_plain_trainer_rejects_tied_params(self):
        task = tiny_task()
        config = tiny_config(lg_norm="tied")
        params = init_params(task, config)
        with pytest.raises(ConfigError, match="tied"):
            plain_supervised_train(params, task, tiny_config())


class TestBaselines:
    def test_nnt_ignores_sources_entirely(self):
        from dataclasses import replace

        config = tiny_config(iterations=15)
        task = tiny_task()
        with_sources = run_baseline_nnt(task, config, seeds=(0, 1))
        # same target split, sources swapped out or deleted: identical results
        other = tiny_task(seed=3)
        rewired = replace(task, sources=other.sources)
        stripped = replace(task, sources=())
        assert run_baseline_nnt(rewired, config, seeds=(0, 1)).accuracies == with_sources.accuracies
        assert run_baseline_nnt(stripped, config, seeds=(0, 1)).accuracies == with_sources.accuracies

    def test_nnt_under_tied_config_matches_l1(self):
        # NNt strips the sources, so nothing is left to tie and the RNG draws
        # are those of any other lg_norm; NNst keeps its sources and refuses
        from dataclasses import replace

        config = tiny_config(iterations=15)
        task = tiny_task()
        tied = run_baseline_nnt(task, replace(config, lg_norm="tied"), seeds=(0, 1))
        assert tied.accuracies == run_baseline_nnt(task, config, seeds=(0, 1)).accuracies
        with pytest.raises(ConfigError, match="tied"):
            run_baseline_nnst(task, replace(config, lg_norm="tied"), seeds=(0,))

    def test_nnt_perfect_on_degenerate_task(self):
        task = tiny_task(spread=1e-9, noise=0.0, target_unlabeled=30)
        summary = run_baseline_nnt(task, tiny_config(iterations=150), seeds=(0,))
        assert summary.accuracies[0] == pytest.approx(1.0, abs=1e-9)

    def test_nnst_uses_unlabeled_target_nowhere(self):
        # replacing the unlabeled pool changes nothing about training,
        # only about what gets scored; same labels -> same predictions
        config = tiny_config(iterations=15)
        task = tiny_task()
        base = run_baseline_nnst(task, config, seeds=(0,))
        again = run_baseline_nnst(task, config, seeds=(0,))
        assert base.accuracies == again.accuracies

    def test_nnst_beats_nnt_on_related_task(self):
        # paired per-seed runs; each seed regenerates the task and the split
        from dataclasses import replace

        config = tiny_config(iterations=300)
        seeds = (0, 1, 2, 3, 4)
        nnt_acc, nnst_acc = [], []
        for s in seeds:
            task = tiny_task(seed=s, target_labeled_per_class=3, target_unlabeled=60, spread=1.2)
            cfg = replace(config, seed=s)
            nnt_acc.append(run_baseline_nnt(task, cfg, seeds=(s,)).accuracies[0])
            nnst_acc.append(run_baseline_nnst(task, cfg, seeds=(s,)).accuracies[0])
        assert np.mean(nnst_acc) > np.mean(nnt_acc)


class TestAblation:
    def test_variant_table_is_complete(self):
        assert set(ABLATION_VARIANTS) == {
            "full", "no_lg", "lg_tied", "lg_l2", "ones_weight", "no_lg_and_ones"
        }

    def test_overrides_apply(self):
        cfg = tiny_config()
        assert ablation_config(cfg, "no_lg").lg_norm == "off"
        assert ablation_config(cfg, "lg_l2").lg_norm == "l2"
        both = ablation_config(cfg, "no_lg_and_ones")
        assert (both.lg_norm, both.weighting) == ("off", "ones")
        with pytest.raises(ConfigError, match="unknown variant"):
            ablation_config(cfg, "nope")

    def test_runs_and_aggregates(self):
        task = tiny_task()
        out = run_ablation(task, ["full", "ones_weight"], (0, 1), tiny_config(iterations=5))
        assert [s.label for s in out] == ["full", "ones_weight"]
        assert all(len(s.accuracies) == 2 for s in out)

    def test_every_variant_checked_before_the_first_run(self, monkeypatch):
        calls = []

        def counting_train(task, config):
            calls.append(config.seed)
            return SimpleNamespace(final_accuracy=0.0)

        monkeypatch.setattr(experiments, "train", counting_train)
        with pytest.raises(ConfigError, match="unknown variant 'bogus'"):
            run_ablation(tiny_task(), ["full", "bogus"], (0, 1), tiny_config())
        assert calls == []

    def test_tied_variant_shares_parameters(self):
        task = tiny_task()
        cfg = ablation_config(tiny_config(iterations=2), "lg_tied")
        trace = train(task, cfg)
        final = trace.final_params
        assert final.sources[0].w2 is final.target.w2
        assert all(r.loss_lg == 0.0 for r in trace.records)


class TestNoiseDetection:
    def test_reports_weights_for_injected_source(self):
        task = tiny_task()
        result = run_noise_detection(task, 10, (0, 1), tiny_config(iterations=8))
        assert result.final_weights.shape == (2, 3)
        assert result.final_deltas.shape == (2, 3)
        assert np.all(result.final_weights >= 0.5)
        assert np.all(result.final_weights < 1.0)

    def test_requires_two_informative_sources(self):
        task = tiny_task(source_dims=(12,))
        with pytest.raises(ConfigError, match="two informative"):
            run_noise_detection(task, 10, (0,), tiny_config())

    def test_completes_under_ones_weighting(self):
        task = tiny_task()
        result = run_noise_detection(
            task, 10, (0,), tiny_config(iterations=4, weighting="ones")
        )
        assert np.all(result.final_weights == 1.0)


class TestSourceSweep:
    def test_rows_indexed_by_source_count(self):
        spec = SynthSpec(
            source_dims=(12, 14, 16), target_dim=16, classes=3, latent_dim=6,
            samples_per_class=10, target_labeled_per_class=2, target_unlabeled=30,
        )
        out = run_source_sweep(spec, (0, 2), (0, 1), tiny_config(iterations=5))
        assert [s.label for s in out] == ["ns_0", "ns_2"]
        assert all(len(s.accuracies) == 2 for s in out)

    def test_rejects_excessive_count(self):
        spec = SynthSpec(source_dims=(12, 14), target_dim=16, latent_dim=6)
        with pytest.raises(ConfigError, match="exceeds"):
            run_source_sweep(spec, (4,), (0,), tiny_config())

    def test_rejects_empty_count_list(self):
        spec = SynthSpec(source_dims=(12, 14), target_dim=16, latent_dim=6)
        with pytest.raises(ConfigError, match="at least one source count"):
            run_source_sweep(spec, (), (0,), tiny_config())


class TestOutputs:
    def test_export_embeddings_schema_and_round_trip(self, tmp_path):
        task = tiny_task()
        config = tiny_config(iterations=2)
        trace = train(task, config)
        path = tmp_path / "emb.txt"
        export_embeddings(trace.final_params, task, path)
        back = load_domain_file(path)
        n_total = sum(s.n for s in task.sources) + task.target_labeled.n + task.target_unlabeled.n
        assert back.n == n_total
        assert back.dim == config.d_c + 2  # domain id + class label in front
        assert back.labels is None
        domain_ids = back.features.array[:, 0]
        assert set(np.unique(domain_ids)) == {0.0, 1.0, 2.0}
        class_col = back.features.array[:, 1]
        unlabeled_rows = class_col == -1.0
        assert unlabeled_rows.sum() == task.target_unlabeled.n

    def test_summary_csvs(self, tmp_path):
        summaries = [
            summarize("full", (0, 1), (0.5, 0.7)),
            summarize("ones_weight", (0, 1), (0.4, 0.6)),
        ]
        per_seed = tmp_path / "runs.csv"
        agg = tmp_path / "agg.csv"
        write_summary_csvs(per_seed, agg, "ablate", summaries)
        seed_lines = per_seed.read_text().splitlines()
        assert seed_lines[0] == "experiment,variant,seed,final_accuracy"
        assert len(seed_lines) == 5
        assert seed_lines[1].startswith("ablate,full,0,")
        agg_lines = agg.read_text().splitlines()
        assert agg_lines[0] == "experiment,variant,mean,stderr,n_seeds"
        assert len(agg_lines) == 3
        assert agg_lines[1].endswith(",2")

    def test_default_task_shape(self):
        task = default_task(seed=0)
        assert task.num_sources == 2
        assert task.target_labeled.n == 9  # 3 classes x 3 labeled
        assert task.target_unlabeled.n == 500


class TestReproducibility:
    def test_rerun_identical(self):
        task = tiny_task()
        config = tiny_config(iterations=4)
        a = run_ablation(task, ["full"], (0, 1), config)
        b = run_ablation(task, ["full"], (0, 1), config)
        assert a[0].accuracies == b[0].accuracies

    def test_jobs_do_not_change_results(self):
        task = tiny_task()
        config = tiny_config(iterations=4)
        seq = run_ablation(task, ["full"], (0, 1, 2), config, jobs=1)
        par = run_ablation(task, ["full"], (0, 1, 2), config, jobs=3)
        assert seq[0].accuracies == par[0].accuracies

    @pytest.mark.usefixtures("split_products")
    def test_jobs_do_not_change_split_results(self):
        # 150-row sources at width 64 split their products: with one job the
        # helper thread takes half of each, job threads compute whole products
        task = tiny_task(samples_per_class=50, target_unlabeled=150)
        config = tiny_config(d_c=64, hidden=64, iterations=4)
        seq = run_ablation(task, ["full"], (0, 1), config, jobs=1, keep_traces=True)
        par = run_ablation(task, ["full"], (0, 1), config, jobs=2, keep_traces=True)
        assert seq[0].accuracies == par[0].accuracies
        assert [repr(t.records) for t in seq[0].traces] == [repr(t.records) for t in par[0].traces]
