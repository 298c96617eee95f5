"""End-to-end command-line behavior: files, traces, errors, determinism."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from conftest import overflow_gradient_at_third_step

from heteroadapt.cli import (
    _config_from_args,
    _experiment_task,
    _synth_spec_from_args,
    build_parser,
    main,
    parse_dims,
    parse_seeds,
)
from heteroadapt.data import SynthSpec, load_domain_file, save_domain_file
from heteroadapt.numerics import Tensor
from heteroadapt.training import TrainConfig


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def synth_tiny(out_dir, capsys, seed=0):
    code, _, err = run_cli(
        [
            "synth", "--dims", "12,14,target=16", "--classes", "3",
            "--latent-dim", "6", "--per-class", "8",
            "--target-labeled-per-class", "3", "--target-unlabeled", "21",
            "--seed", str(seed), "--out", str(out_dir),
        ],
        capsys,
    )
    assert code == 0, err
    return sorted(p for p in out_dir.iterdir() if p.name != "manifest.txt")


class TestParsing:
    def test_dims_grammar(self):
        dims, target = parse_dims("100:1000:100,target=2000")
        assert dims == tuple(range(100, 1001, 100))
        assert target == 2000
        dims, target = parse_dims("12,14,target=16")
        assert dims == (12, 14) and target == 16

    def test_dims_errors(self):
        from heteroadapt.errors import ConfigError

        with pytest.raises(ConfigError):
            parse_dims("100:1000:100")  # no target
        with pytest.raises(ConfigError):
            parse_dims("target=16")  # no sources

    def test_seed_grammar(self):
        assert parse_seeds("0..4") == (0, 1, 2, 3, 4)
        assert parse_seeds("0,2,5") == (0, 2, 5)
        assert parse_seeds("7") == (7,)
        from heteroadapt.errors import ConfigError

        for empty in ("", ",", " , ", "5..3"):
            with pytest.raises(ConfigError, match="--seeds needs at least one seed"):
                parse_seeds(empty)

    def test_train_defaults_mirror_recommended_config(self):
        parser = build_parser()
        args = parser.parse_args(
            ["train", "--source", "s.txt", "--target", "t.txt", "--out", "o"]
        )
        assert (args.beta, args.tau, args.d_c) == (0.03, 0.004, 256)
        assert (args.lr_fg, args.lr_d, args.iterations) == (0.004, 0.001, 1000)
        assert args.lg_norm == "l1" and args.weighting == "conditional"
        assert _config_from_args(args) == TrainConfig()

    @pytest.mark.parametrize("command", ["train", "experiment"])
    def test_every_model_flag_reaches_its_field(self, command):
        # every value differs from its default and from the other fields',
        # so a flag stored under the wrong field cannot go unnoticed
        flags = ["--beta", "0.5", "--tau", "0.25", "--dc", "7", "--hidden", "9",
                 "--lr-fg", "0.125", "--lr-d", "0.0625", "--iters", "11",
                 "--seed", "13", "--lg", "l2", "--weighting", "ones",
                 "--leaky-slope", "0.2"]
        head = (["train", "--source", "s.txt", "--target", "t.txt"] if command == "train"
                else ["experiment", "ablate"])
        args = build_parser().parse_args([*head, *flags, "--out", "o"])
        assert _config_from_args(args) == TrainConfig(
            beta=0.5, tau=0.25, d_c=7, hidden=9, lr_fg=0.125, lr_d=0.0625,
            iterations=11, seed=13, lg_norm="l2", weighting="ones", leaky_slope=0.2,
        )

    @pytest.mark.parametrize("command", ["synth", "experiment"])
    def test_every_synth_flag_reaches_its_field(self, command):
        flags = ["--dims", "12,14:22:4,target=16", "--classes", "4", "--per-class", "17",
                 "--latent-dim", "6", "--target-labeled-per-class", "2",
                 "--target-unlabeled", "21", "--spread", "0.75", "--noise", "0.3"]
        head = ["synth"] if command == "synth" else ["experiment", "sweep"]
        args = build_parser().parse_args([*head, *flags, "--out", "o"])
        assert _synth_spec_from_args(args, 5, standardize=False) == SynthSpec(
            source_dims=(12, 14, 18, 22), target_dim=16, classes=4, latent_dim=6,
            samples_per_class=17, target_labeled_per_class=2, target_unlabeled=21,
            spread=0.75, noise=0.3, seed=5, standardize=False,
        )

    def test_synth_defaults_mirror_spec(self):
        spec = SynthSpec()
        dims = ",".join(map(str, spec.source_dims)) + f",target={spec.target_dim}"
        args = build_parser().parse_args(["synth", "--dims", dims, "--out", "o"])
        built = _synth_spec_from_args(args, args.seed, standardize=not args.no_standardize)
        assert built == spec


class TestSynth:
    def test_paper_scale_layout(self, tmp_path, capsys):
        code, out, _ = run_cli(
            [
                "synth", "--dims", "100:1000:100,target=2000",
                "--classes", "3", "--per-class", "2",
                "--target-labeled-per-class", "1", "--target-unlabeled", "6",
                "--out", str(tmp_path / "sweep"),
            ],
            capsys,
        )
        assert code == 0
        files = [p for p in (tmp_path / "sweep").iterdir() if p.suffix == ".txt"]
        domain_files = [p for p in files if p.name != "manifest.txt"]
        assert len(domain_files) == 11
        target = load_domain_file(tmp_path / "sweep" / "target_d2000.txt")
        assert target.dim == 2000 and target.num_classes == 3

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        a = synth_tiny(tmp_path / "a", capsys)
        b = synth_tiny(tmp_path / "b", capsys)
        for pa, pb in zip(a, b):
            assert pa.name == pb.name
            assert pa.read_bytes() == pb.read_bytes()

    def test_dim_below_latent_fails(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["synth", "--dims", "5,target=16", "--out", str(tmp_path)],
            capsys,
        )
        assert code != 0
        assert err.startswith("error:")

    def test_manifest_has_hashes(self, tmp_path, capsys):
        synth_tiny(tmp_path, capsys)
        manifest = (tmp_path / "manifest.txt").read_text()
        assert "sha256.target_d16.txt" in manifest
        assert "version = " in manifest


class TestTrain:
    def _train_args(self, data_dir, out_dir, extra=()):
        return [
            "train",
            "--source", str(data_dir / "source_0_d12.txt"),
            "--source", str(data_dir / "source_1_d14.txt"),
            "--target", str(data_dir / "target_d16.txt"),
            "--labeled-per-class", "3",
            "--dc", "8", "--hidden", "8", "--iters", "6",
            "--out", str(out_dir),
            *extra,
        ]

    def test_trace_schema_and_final_accuracy_line(self, tmp_path, capsys):
        data = tmp_path / "data"
        synth_tiny(data, capsys)
        code, out, _ = run_cli(self._train_args(data, tmp_path / "run"), capsys)
        assert code == 0
        assert out.splitlines()[-1].startswith("final_accuracy=")
        lines = (tmp_path / "run" / "trace.csv").read_text().splitlines()
        assert lines[0] == (
            "iter,loss_fg,loss_lg,loss_dg_inv,loss_d,"
            "delta_1,delta_2,w_1,w_2,acc_target"
        )
        assert len(lines) == 7  # header + --iters rows

    def test_single_source_gets_unit_weight(self, tmp_path, capsys):
        data = tmp_path / "data"
        synth_tiny(data, capsys)
        code, _, _ = run_cli(
            [
                "train",
                "--source", str(data / "source_0_d12.txt"),
                "--target", str(data / "target_d16.txt"),
                "--labeled-per-class", "3",
                "--dc", "8", "--hidden", "8", "--iters", "3",
                "--out", str(tmp_path / "single"),
            ],
            capsys,
        )
        assert code == 0
        lines = (tmp_path / "single" / "trace.csv").read_text().splitlines()
        assert lines[0].split(",")[5:7] == ["delta_1", "w_1"]
        for row in lines[1:]:
            assert row.split(",")[6] == "1.0"

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        data = tmp_path / "data"
        synth_tiny(data, capsys)
        run_cli(self._train_args(data, tmp_path / "r1"), capsys)
        run_cli(self._train_args(data, tmp_path / "r2"), capsys)
        t1 = (tmp_path / "r1" / "trace.csv").read_bytes()
        t2 = (tmp_path / "r2" / "trace.csv").read_bytes()
        assert t1 == t2

    def test_class_count_mismatch_is_named_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        synth_tiny(data, capsys)
        odd = tmp_path / "odd.txt"
        odd.write_text("2 3 4\n0 1.0 2.0 3.0\n1 0.5 0.5 0.5\n")
        code, _, err = run_cli(
            [
                "train",
                "--source", str(odd),
                "--target", str(data / "target_d16.txt"),
                "--dc", "8", "--hidden", "8", "--iters", "2",
                "--out", str(tmp_path / "bad"),
            ],
            capsys,
        )
        assert code != 0
        assert err.startswith("error:") and "classes" in err

    @pytest.mark.parametrize("flag, value", [
        ("--beta", "nan"), ("--tau", "nan"), ("--lr-fg", "nan"), ("--lr-d", "inf"),
        ("--leaky-slope", "nan"),
    ])
    def test_non_finite_hyperparameter_rejected_before_writing(self, tmp_path, capsys,
                                                               flag, value):
        data = tmp_path / "data"
        synth_tiny(data, capsys)
        args = self._train_args(data, tmp_path / "run", extra=[flag, value])
        code, _, err = run_cli(args, capsys)
        assert code != 0
        field = flag[2:].replace("-", "_")
        assert err.startswith("error:") and f"{field} must be finite" in err
        assert not (tmp_path / "run").exists()

    def test_zero_iterations_rejected_before_writing(self, tmp_path, capsys):
        data = tmp_path / "data"
        synth_tiny(data, capsys)
        args = self._train_args(data, tmp_path / "run", extra=["--iters", "0"])
        code, _, err = run_cli(args, capsys)
        assert code != 0
        assert err.startswith("error:") and "--iters" in err
        assert not (tmp_path / "run" / "trace.csv").exists()

    def _overflowing_data(self, tmp_path, capsys):
        data = tmp_path / "data"
        synth_tiny(data, capsys)
        source = load_domain_file(data / "source_0_d12.txt")
        save_domain_file(replace(source, features=Tensor(source.features.array * 1e160)),
                         data / "source_0_d12.txt")
        return data

    def test_overflow_is_one_named_error_line(self, tmp_path, capsys):
        data = self._overflowing_data(tmp_path, capsys)
        with np.errstate(over="ignore"):
            code, _, err = run_cli(self._train_args(data, tmp_path / "run"), capsys)
        assert code == 1
        assert err == "error: iteration 0: delta_1 is not finite\n"

    def test_overflow_raises_no_numpy_warning(self, tmp_path, capsys):
        data = self._overflowing_data(tmp_path, capsys)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(self._train_args(data, tmp_path / "run"), capsys)
        assert code == 1
        assert err == "error: iteration 0: delta_1 is not finite\n"

    @pytest.mark.usefixtures("split_products")
    def test_overflow_in_split_products_raises_no_numpy_warning(self, tmp_path, capsys):
        # 150 source rows at width 64 split every product across the helper thread,
        # which must keep the caller's numpy error settings
        data = tmp_path / "data"
        code, _, err = run_cli(["synth", "--dims", "12,14,target=16", "--per-class", "50",
                                "--target-unlabeled", "200", "--out", str(data)], capsys)
        assert code == 0, err
        source = load_domain_file(data / "source_0_d12.txt")
        huge = np.full(source.features.shape, 1.7e308)  # overflows the first product
        save_domain_file(replace(source, features=Tensor(huge)), data / "source_0_d12.txt")
        args = self._train_args(data, tmp_path / "run", ["--dc", "64", "--hidden", "64"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(args, capsys)
        assert code == 1
        assert err == "error: iteration 0: delta_1 is not finite\n"

    def test_overflow_at_first_step_leaves_header_only_trace(self, tmp_path, capsys):
        data = self._overflowing_data(tmp_path, capsys)
        code, _, _ = run_cli(self._train_args(data, tmp_path / "run"), capsys)
        assert code == 1
        lines = (tmp_path / "run" / "trace.csv").read_text().splitlines()
        assert lines == ["iter,loss_fg,loss_lg,loss_dg_inv,loss_d,"
                         "delta_1,delta_2,w_1,w_2,acc_target"]
        assert not (tmp_path / "run" / "manifest.txt").exists()

    def test_non_finite_stop_keeps_completed_records(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "data"
        synth_tiny(data, capsys)
        extra = ["--iters", "5"]
        code, _, _ = run_cli(self._train_args(data, tmp_path / "clean", extra), capsys)
        assert code == 0
        clean = (tmp_path / "clean" / "trace.csv").read_bytes().splitlines(keepends=True)
        overflow_gradient_at_third_step(monkeypatch)
        code, _, err = run_cli(self._train_args(data, tmp_path / "run", extra), capsys)
        assert code == 1
        assert err == "error: iteration 2: gradient of classifier w is not finite\n"
        assert (tmp_path / "run" / "trace.csv").read_bytes() == b"".join(clean[:3])
        assert not (tmp_path / "run" / "manifest.txt").exists()

    def test_embeddings_export(self, tmp_path, capsys):
        data = tmp_path / "data"
        synth_tiny(data, capsys)
        code, _, _ = run_cli(
            self._train_args(data, tmp_path / "emb", extra=["--export-embeddings"]),
            capsys,
        )
        assert code == 0
        emb = load_domain_file(tmp_path / "emb" / "embeddings.txt")
        assert emb.dim == 8 + 2


class TestExperiment:
    def _common(self, out, extra):
        return [
            "experiment", *extra,
            "--dc", "8", "--hidden", "8", "--iters", "3",
            "--out", str(out),
        ]

    def test_ablate_row_count(self, tmp_path, capsys):
        code, _, _ = run_cli(
            self._common(
                tmp_path,
                ["ablate", "--variants", "full,ones_weight", "--seeds", "0..1"],
            ),
            capsys,
        )
        assert code == 0
        agg = (tmp_path / "aggregate.csv").read_text().splitlines()
        assert len(agg) == 3  # header + 2 variants
        runs = (tmp_path / "runs.csv").read_text().splitlines()
        assert len(runs) == 5  # header + 2 variants x 2 seeds

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected_before_writing(self, tmp_path, capsys, jobs):
        out = tmp_path / "exp"
        code, _, err = run_cli(
            self._common(out, ["ablate", "--variants", "full", "--seeds", "0",
                               "--jobs", jobs]),
            capsys,
        )
        assert code != 0
        assert err.startswith("error:") and "--jobs" in err
        assert not out.exists()

    @pytest.mark.parametrize("mode, files", [
        ("ablate", ["--target", "t.txt"]),
        ("noise", ["--source", "s.txt"]),
        ("sweep", ["--source", "missing.txt", "--target", "missing.txt"]),
        ("sweep", ["--target", "missing.txt"]),
    ])
    def test_domain_files_that_would_be_ignored_are_rejected(self, tmp_path, capsys,
                                                             mode, files):
        out = tmp_path / "exp"
        code, _, err = run_cli(self._common(out, [mode, "--seeds", "0", *files]), capsys)
        assert code != 0
        assert err.startswith("error:") and "--source" in err and "--target" in err
        assert not out.exists()

    @pytest.mark.parametrize("mode, flags, named", [
        ("ablate", ["--classes", "5", "--dims", "7,target=9"], "--dims, --classes"),
        ("ablate", ["--per-class", "9", "--noise", "0.3"], "--per-class, --noise"),
        ("ablate", ["--labeled-per-class", "5"], "--labeled-per-class"),
        ("ablate", ["--ns", "2", "--noise-dim", "4"], "--noise-dim, --ns"),
        ("ablate", ["--source", "s.txt", "--target", "t.txt", "--task-seed", "2"],
         "--task-seed"),
        ("ablate", ["--seed", "7"], "--seed"),
    ])
    def test_ablate_rejects_flags_it_does_not_read(self, tmp_path, capsys, mode, flags, named):
        self._assert_rejected(tmp_path, capsys, mode, flags, named)

    @pytest.mark.parametrize("mode, flags, named", [
        ("noise", ["--latent-dim", "4", "--spread", "2"], "--latent-dim, --spread"),
        ("noise", ["--target-labeled-per-class", "2", "--target-unlabeled", "9"],
         "--target-labeled-per-class, --target-unlabeled"),
        ("noise", ["--standardize"], "--standardize"),
        ("noise", ["--variants", "full"], "--variants"),
        ("noise", ["--seed", "7"], "--seed"),
    ])
    def test_noise_rejects_flags_it_does_not_read(self, tmp_path, capsys, mode, flags, named):
        self._assert_rejected(tmp_path, capsys, mode, flags, named)

    @pytest.mark.parametrize("mode, flags, named", [
        ("sweep", ["--labeled-per-class", "50", "--standardize"],
         "--labeled-per-class, --standardize"),
        ("sweep", ["--noise-dim", "4"], "--noise-dim"),
        ("sweep", ["--task-seed", "5"], "--task-seed"),
        ("sweep", ["--task-seed", "5", "--seed", "7"], "--seed, --task-seed"),
    ])
    def test_sweep_rejects_flags_it_does_not_read(self, tmp_path, capsys, mode, flags, named):
        self._assert_rejected(tmp_path, capsys, mode, flags, named)

    def _assert_rejected(self, tmp_path, capsys, mode, flags, named):
        out = tmp_path / "exp"
        code, _, err = run_cli(self._common(out, [mode, "--seeds", "0", *flags]), capsys)
        assert code != 0
        assert err == f"error: experiment {mode} does not read {named}\n"
        assert not out.exists()

    def test_file_task_split_follows_seed(self, tmp_path, capsys):
        *sources, target = synth_tiny(tmp_path / "data", capsys)
        files = [arg for path in sources for arg in ("--source", str(path))]
        files += ["--target", str(target)]
        splits = []
        for seed in ("0", "3"):
            out = tmp_path / f"seed{seed}"
            argv = self._common(out, ["ablate", "--variants", "full", "--seeds", "0",
                                      *files, "--seed", seed])
            code, _, err = run_cli(argv, capsys)
            assert code == 0, err
            assert f"config.seed = {seed}" in (out / "manifest.txt").read_text()
            task, _ = _experiment_task(build_parser().parse_args(argv))
            splits.append(task.target_labeled.features.array)
        assert not np.array_equal(*splits)

    def test_unknown_variant_fails(self, tmp_path, capsys):
        code, _, err = run_cli(
            self._common(tmp_path, ["ablate", "--variants", "bogus", "--seeds", "0"]),
            capsys,
        )
        assert code != 0 and err.startswith("error:")

    def test_empty_source_count_list_fails(self, tmp_path, capsys):
        code, _, err = run_cli(
            self._common(tmp_path, ["sweep", "--ns", "", "--seeds", "0",
                                    "--dims", "12,14,target=16", "--latent-dim", "6"]),
            capsys,
        )
        assert code == 1
        assert err == "error: at least one source count is required\n"
        assert not (tmp_path / "runs.csv").exists()

    def test_sweep_rows(self, tmp_path, capsys):
        code, _, _ = run_cli(
            self._common(
                tmp_path,
                [
                    "sweep", "--ns", "0,2", "--seeds", "0..1",
                    "--dims", "12,14,target=16", "--latent-dim", "6",
                    "--per-class", "8", "--target-unlabeled", "21",
                ],
            ),
            capsys,
        )
        assert code == 0
        agg = (tmp_path / "aggregate.csv").read_text().splitlines()
        assert len(agg) == 3
        assert agg[1].startswith("sweep,ns_0,")
        assert agg[2].startswith("sweep,ns_2,")

    def test_noise_weight_schema(self, tmp_path, capsys):
        code, _, _ = run_cli(
            self._common(
                tmp_path,
                ["noise", "--seeds", "0..1", "--noise-dim", "12"],
            ),
            capsys,
        )
        assert code == 0
        lines = (tmp_path / "noise_weights.csv").read_text().splitlines()
        # default task has 2 sources; noise source appended -> 3 weight columns
        assert lines[0] == "seed,w_1,w_2,w_3,delta_1,delta_2,delta_3"
        assert len(lines) == 3
        w = np.array([[float(v) for v in ln.split(",")[1:4]] for ln in lines[1:]])
        assert np.all(w >= 0.5) and np.all(w < 1.0)


TINY = ["--dc", "8", "--hidden", "8", "--iters", "1"]
SWEEP = ["--seeds", "0", "--dims", "12,14,target=16", "--latent-dim", "6"]
DATA = ["--source", "data/source_0_d12.txt", "--source", "data/source_1_d14.txt",
        "--target", "data/target_d16.txt"]


@pytest.mark.parametrize("argv, flag, token", [
    (["experiment", "ablate", "--seeds", "0..x", *TINY], "--seeds", "x"),
    (["synth", "--dims", "12,x,target=16"], "--dims", "x"),
    (["experiment", "sweep", "--ns", "2,x", *SWEEP, *TINY], "--ns", "x"),
], ids=["seeds", "dims", "ns"])
def test_non_integer_list_entry_names_its_flag(tmp_path, capsys, monkeypatch, argv, flag, token):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli([*argv, "--out", "exp"], capsys)
    assert code == 1
    assert err == f"error: {flag} entries must be integers, got {token!r}\n"
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize("argv, out", [
    (["experiment", "sweep", "--ns", "", *SWEEP, *TINY], "exp"),
    (["experiment", "sweep", "--ns", "5", *SWEEP, *TINY], "exp"),
    (["experiment", "ablate", "--variants", "", "--seeds", "0", *TINY], "exp"),
    (["experiment", "ablate", "--variants", "bogus", "--seeds", "0", *TINY], "exp"),
    (["experiment", "ablate", "--seeds", "", *TINY], "exp"),
    (["experiment", "ablate", "--source", "missing.txt", "--target", "missing.txt",
      "--seeds", "0", *TINY], "exp"),
    (["experiment", "ablate", *DATA, "--labeled-per-class", "50", "--seeds", "0", *TINY],
     "exp"),
    (["experiment", "noise", "--noise-dim", "0", "--seeds", "0", *TINY], "exp"),
    (["synth", "--dims", "5,target=32"], "exp"),
    (["experiment", "ablate", "--variants", "bogus", "--seeds", "0", *TINY], "a/b/c"),
], ids=["sweep-empty-ns", "sweep-ns-above-sources", "ablate-empty-variants",
        "ablate-unknown-variant", "ablate-empty-seeds", "ablate-missing-files",
        "ablate-split-too-large", "noise-zero-dim", "synth-dim-below-latent",
        "nested-out"])
def test_failed_command_leaves_no_new_path(tmp_path, capsys, monkeypatch, argv, out):
    synth_tiny(tmp_path / "data", capsys)
    monkeypatch.chdir(tmp_path)
    before = set(tmp_path.rglob("*"))
    code, _, err = run_cli([*argv, "--out", out], capsys)
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert set(tmp_path.rglob("*")) == before
