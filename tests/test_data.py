"""Synthetic generation, the sampling protocol, and domain file round-trips."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from oracles import fstring_save_domain_file

from heteroadapt.data import (
    DomainData,
    MultiSourceTask,
    SynthSpec,
    generate_noise_domain,
    generate_synthetic_domains,
    load_domain_file,
    save_domain_file,
    split_target,
    standardize,
    synthesize,
    synthetic_task,
)
from heteroadapt.errors import ConfigError, ParseError, ShapeError
from heteroadapt.numerics import Tensor


def small_spec(**overrides):
    base = dict(
        source_dims=(12, 14),
        target_dim=16,
        classes=3,
        latent_dim=6,
        samples_per_class=20,
        target_labeled_per_class=3,
        target_unlabeled=60,
        seed=0,
    )
    base.update(overrides)
    return SynthSpec(**base)


class TestDomainData:
    def test_label_validation(self):
        with pytest.raises(ConfigError):
            DomainData("bad", Tensor(np.ones((2, 2))), np.array([0, 3]), 3)
        with pytest.raises(ConfigError):
            DomainData("bad", Tensor(np.ones((2, 2))), np.array([0]), 3)

    def test_labels_are_the_domains_own_and_read_only(self):
        # a caller's later write must not put an invalid class into a
        # validated domain, nor into a task's held-out labels
        lab, held = np.array([0, 1, 2, 0]), np.array([2, 1])
        domain = DomainData("d", Tensor(np.ones((4, 2))), lab, 3)
        task = MultiSourceTask([domain], domain, DomainData("u", Tensor(np.ones((2, 2))), None, 3),
                               held)
        lab[0], held[0] = 7, 7
        assert domain.labels[0] == 0 and task.eval_labels[0] == 2
        for labels in (domain.labels, task.eval_labels):
            with pytest.raises(ValueError, match="read-only"):
                labels[0] = 1

    def test_class_counts(self):
        d = DomainData("ok", Tensor(np.ones((4, 2))), np.array([0, 1, 1, 2]), 4)
        np.testing.assert_array_equal(d.class_counts(), [1, 2, 1, 0])


class TestTaskAssembly:
    def test_seals_unlabeled_labels(self):
        task = synthetic_task(small_spec())
        assert task.target_unlabeled.labels is None
        assert task.eval_labels is not None
        assert task.eval_labels.shape == (task.target_unlabeled.n,)

    def test_class_count_mismatch_rejected(self):
        spec = small_spec()
        bundle = synthesize(spec)
        labeled, unlabeled = split_target(bundle.target, 3, 0)
        odd = DomainData("odd", bundle.sources[0].features, bundle.sources[0].labels, 4)
        with pytest.raises(ConfigError, match="classes"):
            MultiSourceTask.build((odd,), labeled, unlabeled)

    def test_unlabeled_source_rejected(self):
        spec = small_spec()
        bundle = synthesize(spec)
        labeled, unlabeled = split_target(bundle.target, 3, 0)
        bare = DomainData("bare", bundle.sources[0].features, None, spec.classes)
        with pytest.raises(ConfigError, match="labeled"):
            MultiSourceTask.build((bare,), labeled, unlabeled)

    def test_missing_source_class_rejected(self):
        spec = small_spec()
        bundle = synthesize(spec)
        labeled, unlabeled = split_target(bundle.target, 3, 0)
        src = bundle.sources[0]
        keep = src.labels != 0
        partial = DomainData(
            "partial", Tensor(src.features.array[keep]), src.labels[keep], spec.classes
        )
        with pytest.raises(ConfigError, match="class 0"):
            MultiSourceTask.build((partial,), labeled, unlabeled)

    def test_target_width_mismatch_rejected(self):
        spec = small_spec()
        bundle = synthesize(spec)
        labeled, unlabeled = split_target(bundle.target, 3, 0)
        narrow = DomainData(
            "narrow", Tensor(unlabeled.features.array[:, :-1]), unlabeled.labels, spec.classes
        )
        want = f"'{labeled.name}' has 16, 'narrow' has 15"
        with pytest.raises(ShapeError, match=want):
            MultiSourceTask.build(bundle.sources, labeled, narrow)

    def test_constructor_rejects_wrong_eval_label_count(self):
        task = synthetic_task(small_spec())
        short = task.eval_labels[:-1]
        with pytest.raises(ConfigError, match="eval_labels"):
            MultiSourceTask(task.sources, task.target_labeled, task.target_unlabeled, short)

    def test_constructor_rejects_unsealed_unlabeled_split(self):
        task = synthetic_task(small_spec())
        unsealed = replace(task.target_unlabeled, labels=task.eval_labels)
        with pytest.raises(ConfigError, match="must not carry labels"):
            MultiSourceTask(task.sources, task.target_labeled, unsealed, task.eval_labels)

    @pytest.mark.parametrize("field", ["labels", "eval_labels"])
    @pytest.mark.parametrize("case", ["integral_float", "fraction", "nan", "inf", "boolean",
                                      "above_range", "negative"])
    def test_labels_follow_the_domain_file_rule(self, field, case):
        # a domain file accepts `2.0` as a label, but no fraction, non-finite
        # value or label outside [0, C); neither does a task built in memory
        task = synthetic_task(small_spec())
        good, unlabeled = task.eval_labels, task.target_unlabeled
        first = {"integral_float": 2.0, "fraction": 0.7, "nan": np.nan, "inf": np.inf,
                 "above_range": 3, "negative": -1}
        labels = good == 1 if case == "boolean" else np.concatenate([[first[case]], good[1:]])

        def build():
            if field == "labels":
                return DomainData(unlabeled.name, unlabeled.features, labels, 3)
            return replace(task, eval_labels=labels)

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's cast warning is no message
            if case == "integral_float":
                built = getattr(build(), field)
                assert built.dtype == np.int64 and np.array_equal(built, [2, *good[1:]])
                return
            want = rf"domain '{unlabeled.name}': {field} must be integers in \[0, 3\)"
            with pytest.raises(ConfigError, match=want):
                build()

    def test_constructor_checks_what_build_checks(self):
        task = synthetic_task(small_spec())
        unlabeled_source = replace(task.sources[0], labels=None)
        with pytest.raises(ConfigError, match="must be labeled"):
            replace(task, sources=(unlabeled_source,))
        with pytest.raises(ConfigError, match="carry labels"):
            replace(task, target_labeled=replace(task.target_labeled, labels=None))
        assert replace(task, sources=()).num_sources == 0


class TestSyntheticGeneration:
    def test_same_seed_is_bit_identical(self):
        a = generate_synthetic_domains(small_spec())
        b = generate_synthetic_domains(small_spec())
        for da, db in zip(a, b):
            assert np.array_equal(da.features.array, db.features.array)
            assert np.array_equal(da.labels, db.labels)

    def test_different_seeds_differ(self):
        a = generate_synthetic_domains(small_spec(seed=0))
        b = generate_synthetic_domains(small_spec(seed=1))
        assert not np.array_equal(a[0].features.array, b[0].features.array)

    def test_degenerate_spread_is_perfectly_separable(self):
        spec = small_spec(spread=1e-9, noise=0.0, standardize=False)
        for domain in generate_synthetic_domains(spec):
            feats = domain.features.array
            means = np.stack([feats[domain.labels == c].mean(axis=0) for c in range(spec.classes)])
            dists = ((feats[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
            assert np.array_equal(np.argmin(dists, axis=1), domain.labels)

    def test_paper_scale_sweep_shape(self):
        spec = SynthSpec(
            source_dims=tuple(range(100, 1001, 100)),
            target_dim=2000,
            classes=3,
            samples_per_class=5,
            target_labeled_per_class=3,
            target_unlabeled=30,
        )
        domains = generate_synthetic_domains(spec)
        assert len(domains) == 11
        assert [d.dim for d in domains] == [*range(100, 1001, 100), 2000]
        assert all(d.num_classes == 3 for d in domains)

    @pytest.mark.parametrize("name", ["spread", "noise"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_rejected_by_name(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            SynthSpec(**{name: value})

    @pytest.mark.parametrize("name,value", [
        ("classes", 2.5), ("samples_per_class", 10.0), ("seed", False),
        ("source_dims", (16.5, 24)), ("source_dims", (16, True)), ("target_dim", np.float64(32)),
    ])
    def test_non_integer_in_int_field_rejected_by_name(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            SynthSpec(**{name: value})

    def test_negative_seed_rejected_by_name(self):
        # numpy's own message ("expected non-negative integer") names no field
        with pytest.raises(ConfigError, match="^seed must be non-negative$"):
            SynthSpec(seed=-1)

    def test_numpy_integers_accepted(self):
        spec = SynthSpec(source_dims=(np.int64(16), 24), classes=np.int32(3))
        assert spec.source_dims[0] == 16

    def test_dimension_below_latent_rejected(self):
        with pytest.raises(ConfigError, match="latent"):
            generate_synthetic_domains(small_spec(source_dims=(5, 14), latent_dim=10))

    def test_cross_domain_relatedness_via_latent_maps(self):
        # nearest-mean trained on domain A, applied to domain B through the
        # known projections, must beat chance by a wide margin
        spec = small_spec(standardize=False, samples_per_class=40)
        bundle = synthesize(spec)
        a, b = bundle.sources
        q_a, q_b = bundle.projections[0], bundle.projections[1]
        means = np.stack(
            [a.features.array[a.labels == c].mean(axis=0) for c in range(spec.classes)]
        )
        mapped = b.features.array @ q_b @ q_a.T
        dists = ((mapped[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        accuracy = float(np.mean(np.argmin(dists, axis=1) == b.labels))
        assert accuracy > 2.0 / spec.classes

    def test_synthetic_task_source_slice(self):
        task = synthetic_task(small_spec(), num_sources=1)
        assert task.num_sources == 1
        with pytest.raises(ConfigError):
            synthetic_task(small_spec(), num_sources=7)


class TestNoiseDomain:
    def test_determinism_and_counts(self):
        a = generate_noise_domain(8, 300, 3, seed=5)
        b = generate_noise_domain(8, 300, 3, seed=5)
        assert np.array_equal(a.features.array, b.features.array)
        assert np.array_equal(a.labels, b.labels)
        counts = a.class_counts()
        assert np.all(np.abs(counts - 100) <= 30)

    def test_labels_carry_no_information(self):
        # nearest-mean fit on half the noise domain stays near chance on the rest
        domain = generate_noise_domain(10, 400, 4, seed=2)
        feats, labels = domain.features.array, domain.labels
        train_x, train_y = feats[:200], labels[:200]
        test_x, test_y = feats[200:], labels[200:]
        means = np.stack([train_x[train_y == c].mean(axis=0) for c in range(4)])
        dists = ((test_x[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        accuracy = float(np.mean(np.argmin(dists, axis=1) == test_y))
        assert abs(accuracy - 0.25) <= 0.1


class TestSplitTarget:
    def _domain(self, n_per_class=10, classes=3, seed=0):
        rng = np.random.default_rng(seed)
        labels = np.repeat(np.arange(classes), n_per_class)
        return DomainData("t", Tensor(rng.normal(size=(labels.size, 4))), labels, classes)

    def test_exact_per_class_counts(self):
        labeled, unlabeled = split_target(self._domain(), 3, seed=1)
        assert labeled.n == 9
        np.testing.assert_array_equal(labeled.class_counts(), [3, 3, 3])
        np.testing.assert_array_equal(unlabeled.class_counts(), [7, 7, 7])

    def test_partition_is_disjoint_and_complete(self):
        domain = self._domain()
        labeled, unlabeled = split_target(domain, 2, seed=3)
        assert labeled.n + unlabeled.n == domain.n
        stacked = np.vstack([labeled.features.array, unlabeled.features.array])
        order = np.lexsort(stacked.T)
        original = domain.features.array
        orig_order = np.lexsort(original.T)
        np.testing.assert_array_equal(stacked[order], original[orig_order])

    def test_same_seed_same_split(self):
        d = self._domain()
        a = split_target(d, 3, seed=7)
        b = split_target(d, 3, seed=7)
        assert np.array_equal(a[0].features.array, b[0].features.array)
        c = split_target(d, 3, seed=8)
        assert not np.array_equal(a[0].features.array, c[0].features.array)

    def test_class_too_small_rejected(self):
        with pytest.raises(ConfigError, match="class"):
            split_target(self._domain(n_per_class=3), 3, seed=0)


class TestStandardize:
    def test_moments(self):
        rng = np.random.default_rng(0)
        d = DomainData("d", Tensor(rng.normal(3.0, 2.5, (50, 4))), None, 2)
        out = standardize(d)
        np.testing.assert_allclose(out.features.array.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.features.array.std(axis=0), 1.0, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        d = DomainData("d", Tensor(rng.normal(size=(30, 3))), None, 2)
        once = standardize(d)
        twice = standardize(once)
        np.testing.assert_allclose(once.features.array, twice.features.array, atol=1e-9)

    def test_constant_feature_maps_to_zero(self):
        feats = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
        out = standardize(DomainData("d", Tensor(feats), None, 2))
        np.testing.assert_array_equal(out.features.array[:, 0], np.zeros(10))


class TestDomainFiles:
    def test_format_definition(self, tmp_path):
        p = tmp_path / "toy.txt"
        p.write_text("2 3 2\n0 1.5 -2.0 0.25\n1 0.0 3.5 -1.0\n")
        d = load_domain_file(p)
        assert (d.n, d.dim, d.num_classes) == (2, 3, 2)
        np.testing.assert_array_equal(d.labels, [0, 1])

    def test_row_width_error_names_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2 3 2\n0 1.0 2.0 3.0\n1 1.0 2.0\n")
        with pytest.raises(ParseError, match="line 3"):
            load_domain_file(p)

    def test_all_unlabeled(self, tmp_path):
        p = tmp_path / "u.txt"
        p.write_text("2 2 3\n-1 1.0 2.0\n-1 3.0 4.0\n")
        assert load_domain_file(p).labels is None

    def test_label_out_of_range(self, tmp_path):
        p = tmp_path / "r.txt"
        p.write_text("1 2 2\n2 1.0 2.0\n")
        with pytest.raises(ParseError, match="label 2"):
            load_domain_file(p)

    def test_header_errors(self, tmp_path):
        p = tmp_path / "h.txt"
        p.write_text("2 3\n")
        with pytest.raises(ParseError, match="header"):
            load_domain_file(p)
        p.write_text("x 3 2\n")
        with pytest.raises(ParseError, match="integers"):
            load_domain_file(p)

    def test_row_count_mismatch(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("3 2 2\n0 1.0 2.0\n")
        with pytest.raises(ParseError, match="promises 3"):
            load_domain_file(p)

    def test_mixed_labels_rejected(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("2 1 2\n0 1.0\n-1 2.0\n")
        with pytest.raises(ParseError, match="mixes"):
            load_domain_file(p)

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        feats = rng.uniform(-1e3, 1e3, (20, 5)) * rng.choice([1e-7, 1.0, 1e7], (20, 5))
        d = DomainData("rt", Tensor(feats), rng.integers(0, 4, 20), 4)
        path = tmp_path / "rt.txt"
        save_domain_file(d, path)
        back = load_domain_file(path)
        assert np.array_equal(back.features.array, feats)
        assert np.array_equal(back.labels, d.labels)

    def test_round_trip_unlabeled(self, tmp_path):
        d = DomainData("u", Tensor([[0.1, 0.2]]), None, 2)
        path = tmp_path / "u.txt"
        save_domain_file(d, path)
        back = load_domain_file(path)
        assert back.labels is None
        assert np.array_equal(back.features.array, d.features.array)


class TestDomainFileRules:
    def test_error_line_counts_blank_lines(self, tmp_path):
        p = tmp_path / "blank.txt"
        p.write_text("3 2 2\n0 1.0 2.0\n\n1 1.0\n0 1 2\n")
        with pytest.raises(ParseError, match="line 4: .*row has 1 features") as err:
            load_domain_file(p)
        assert err.value.line == 4

    def test_header_only_names_row_count_without_warning(self, tmp_path):
        p = tmp_path / "header.txt"
        for text, line in (("3 2 2\n", 1), ("3 2 2\n\n  \n", 3)):
            p.write_text(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ParseError, match="promises 3 rows, found 0") as err:
                    load_domain_file(p)
            assert err.value.line == line

    def test_integral_float_label_accepted(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("2 1 3\n2.0 1.5\n0 -1\n")
        np.testing.assert_array_equal(load_domain_file(p).labels, [2, 0])

    @pytest.mark.parametrize("token", ["2.5", "nan", "inf"])
    def test_non_integral_label_names_line(self, tmp_path, token):
        p = tmp_path / "f.txt"
        p.write_text(f"2 1 3\n0 1.0\n{token} 2.0\n")
        with pytest.raises(ParseError, match=f"line 3: .*label {token} is not an integer"):
            load_domain_file(p)

    @pytest.mark.parametrize("token", ["1_0", "\u0661"])
    def test_token_only_python_float_reads_is_rejected(self, tmp_path, token):
        # numpy's float syntax has no digit separators or non-ASCII digits
        p = tmp_path / "f.txt"
        p.write_text(f"1 1 2\n0 {token}\n", encoding="utf-8")
        with pytest.raises(ParseError, match="could not convert"):
            load_domain_file(p)

    @pytest.mark.parametrize("row", ["0 nan", "0 1e500"])
    def test_non_finite_feature_rejected(self, tmp_path, row):
        p = tmp_path / "f.txt"
        p.write_text(f"2 1 2\n1 1.0\n{row}\n")
        with pytest.raises(ParseError, match="non-finite"):
            load_domain_file(p)

    @pytest.mark.parametrize("row, match", [
        ("1 nan 1.0", "non-finite feature values"),
        ("-1 1.0 2.0", "mixes labeled and unlabeled rows"),
        ("1 1_0 2.0", "non-numeric value in row .*could not convert string '1_0'"),
    ])
    def test_body_error_names_line_after_blank_lines(self, tmp_path, row, match):
        p = tmp_path / "f.txt"
        p.write_text(f"3 2 2\n0 1.0 2.0\n\n  \n{row}\n1 0.5 0.5\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"line 5: .*{match}") as err:
            load_domain_file(p)
        assert err.value.line == 5

    def test_writer_bytes_match_per_value_formatting(self, tmp_path):
        edges = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                 1e16, 1e17, 0.1, 123456789.0, -2.5e-7, 1.0 / 3.0]
        for labels in (np.arange(len(edges)) % 3, None):
            d = DomainData("e", Tensor(np.array(edges).reshape(-1, 1) * [1.0, -1.0]), labels, 3)
            save_domain_file(d, tmp_path / "new.txt")
            fstring_save_domain_file(d, tmp_path / "old.txt")
            assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()
