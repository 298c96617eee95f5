"""Architecture forward passes, losses, divergence, and source weighting."""

import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    frozen_embeddings,
    frozen_model,
    make_params,
    make_task,
    make_toy_task,
    target_soft,
)
from oracles import grad_check, naive_class_conditional_mmd, naive_source_weights

from heteroadapt.errors import ConfigError, ShapeError
from heteroadapt.model import (
    ClassifierParams,
    DiscriminatorParams,
    ModelParams,
    TransformerParams,
    build_discriminator_objective,
    class_conditional_mmd,
    classification_loss,
    classifier_logits,
    classify,
    consistency_loss,
    d_parameters,
    discriminate,
    domain_loss,
    embed_task,
    embedding_pass,
    fg_parameters,
    lift_fg,
    replace_d,
    replace_fg,
    source_weight_nodes,
    target_class_means,
    transform,
    transform_values,
    transformer_objective,
)
from heteroadapt.numerics import Tape, Tensor, softmax_values, sum_sq

ID1 = Tensor([[1.0]])
ZERO1 = Tensor([0.0])


def identity_transformer():
    return TransformerParams(ID1, ZERO1, ID1, ZERO1)


class TestForward:
    def test_transform_zero_params_give_zero_embedding(self):
        t = TransformerParams(
            Tensor(np.zeros((3, 2))), Tensor(np.zeros(2)),
            Tensor(np.zeros((2, 2))), Tensor(np.zeros(2)),
        )
        out = transform_values(t, np.ones((4, 3)), 0.01)
        np.testing.assert_array_equal(out, np.zeros((4, 2)))

    def test_transform_identity_passthrough(self):
        out = transform_values(identity_transformer(), [[2.0]], 0.01)
        np.testing.assert_array_equal(out, [[2.0]])

    def test_transform_matches_hand_composition(self):
        rng = np.random.default_rng(0)
        w1 = rng.uniform(-1, 1, (4, 2))
        b1 = rng.uniform(-1, 1, 2)
        w2 = rng.uniform(-1, 1, (2, 2))
        b2 = rng.uniform(-1, 1, 2)
        x = rng.uniform(-1, 1, (3, 4))
        slope = 0.2

        def lrelu(a):
            return np.where(a >= slope * a, a, slope * a)

        expected = lrelu(lrelu(x @ w1 + b1) @ w2 + b2)
        t = TransformerParams(Tensor(w1), Tensor(b1), Tensor(w2), Tensor(b2))
        np.testing.assert_allclose(transform_values(t, x, slope), expected, atol=1e-15)

    @pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
    @pytest.mark.parametrize("slope", [0.0, 0.01, 1.5])
    def test_value_forward_bit_equals_tape_forward(self, slope, tied):
        rng = np.random.default_rng(21)
        params = make_params(rng, (3, 5), 4, tied=tied)
        task = make_toy_task(rng)
        tape = Tape()
        model = frozen_model(tape, params)
        emb = embed_task(model, tape, task, slope)
        pairs = [*zip(params.sources, task.sources, emb.sources),
                 (params.target, task.target_labeled, emb.target_labeled),
                 (params.target, task.target_unlabeled, emb.target_unlabeled)]
        for t, domain, node in pairs:
            values = transform_values(t, domain.features, slope)
            assert values.shape == node.shape and values.tobytes() == node.value.tobytes()
            logits = classifier_logits(params, t, domain.features, slope)
            want = classify(model, node).value
            assert logits.shape == want.shape and logits.tobytes() == want.tobytes()

        # a width mismatch raises the tape's ShapeError, message and all
        x = np.ones((2, 3))  # the target expects 4 features
        with pytest.raises(ShapeError) as on_tape:
            transform(model.target, tape.constant(x), slope)
        assert str(on_tape.value) == (
            "matmul_affine dimensions disagree: x (2, 3), w (4, 4), b (4,)"
        )
        for value_forward in (lambda: transform_values(params.target, x, slope),
                              lambda: classifier_logits(params, params.target, x, slope)):
            with pytest.raises(ShapeError) as by_value:
                value_forward()
            assert str(by_value.value) == str(on_tape.value)

    def test_classify_is_affine(self):
        # 1-d: w=2, b=1, emb=3 -> 7, no nonlinearity applied
        params = ModelParams(
            (identity_transformer(),),
            identity_transformer(),
            ClassifierParams(Tensor([[2.0]]), Tensor([1.0])),
            DiscriminatorParams(ID1, ZERO1, Tensor([[1.0, 0.0]]), Tensor([0.0, 0.0])),
        )
        tape = Tape()
        model = frozen_model(tape, params)
        logits = classify(model, tape.constant([[3.0]]))
        np.testing.assert_array_equal(logits.value, [[7.0]])

    def test_classify_constant_shift_invariance_needs_zero_column_sums(self):
        # W with zero column sums makes logits invariant to adding a constant
        w = np.array([[1.0, 2.0], [-1.0, -2.0]])
        tape = Tape()
        from heteroadapt.numerics import matmul_affine

        emb = np.array([[0.3, -0.7]])
        b = tape.constant([0.0, 0.0])
        base = matmul_affine(tape.constant(emb), tape.constant(w), b)
        shifted = matmul_affine(tape.constant(emb + 5.0), tape.constant(w), b)
        np.testing.assert_allclose(base.value, shifted.value, atol=1e-12)

    def test_discriminate_hand_case_and_relu_gating(self):
        # hidden = relu(emb), output = [1 - h, h]
        disc = DiscriminatorParams(
            Tensor([[1.0]]), Tensor([0.0]), Tensor([[-1.0, 1.0]]), Tensor([1.0, 0.0])
        )
        params = ModelParams(
            (identity_transformer(),), identity_transformer(),
            ClassifierParams(ID1, ZERO1), disc,
        )
        tape = Tape()
        model = frozen_model(tape, params)
        out = discriminate(model, tape.constant([[0.0], [1.0], [-5.0]]))
        np.testing.assert_allclose(
            out.value, [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], atol=1e-15
        )

    def test_discriminate_zero_params_give_zeros(self):
        disc = DiscriminatorParams(
            Tensor(np.zeros((1, 1))), Tensor([0.0]),
            Tensor(np.zeros((1, 2))), Tensor(np.zeros(2)),
        )
        params = ModelParams(
            (identity_transformer(),), identity_transformer(),
            ClassifierParams(ID1, ZERO1), disc,
        )
        tape = Tape()
        model = frozen_model(tape, params)
        out = discriminate(model, tape.constant([[3.0], [-2.0]]))
        np.testing.assert_array_equal(out.value, np.zeros((2, 2)))


class TestParamPlumbing:
    def test_fg_round_trip(self, toy_setup):
        params, _ = toy_setup
        rebuilt = replace_fg(params, fg_parameters(params))
        assert fg_parameters(rebuilt) == fg_parameters(params)
        assert d_parameters(replace_d(params, d_parameters(params))) == d_parameters(params)

    def test_tied_second_layer_is_one_block(self):
        rng = np.random.default_rng(1)
        tied = make_params(rng, (3, 5), 4, tied=True)
        untied = make_params(rng, (3, 5), 4, tied=False)
        # two sources: tied drops 2 tensors per source
        assert len(fg_parameters(tied)) == len(fg_parameters(untied)) - 4
        assert tied.sources[0].w2 is tied.target.w2
        assert tied.sources[1].b2 is tied.target.b2

    def test_tied_round_trip_preserves_sharing(self):
        rng = np.random.default_rng(2)
        tied = make_params(rng, (3, 5), 4, tied=True)
        rebuilt = replace_fg(tied, fg_parameters(tied))
        assert rebuilt.sources[0].w2 is rebuilt.target.w2

    @pytest.mark.parametrize("kind", ["untied", "tied", "no sources"])
    def test_flat_order_round_trips_and_lifts_in_order(self, kind):
        dims = () if kind == "no sources" else (3, 5)
        params = make_params(np.random.default_rng(4), dims, 4, tied=kind == "tied")
        assert params.tied_second == (kind == "tied")
        flat = fg_parameters(params)
        rebuilt = replace_fg(params, flat)
        assert rebuilt.tied_second == params.tied_second
        assert len(fg_parameters(rebuilt)) == len(flat)
        assert all(a is b for a, b in zip(fg_parameters(rebuilt), flat))

        # trainable leaves hold the flat values in order, so backward's
        # gradient list lines up with the Adam slots
        tape = Tape()
        lifted = lift_fg(tape, params, trainable=True)
        assert lifted.tied_second == params.tied_second
        leaves = fg_parameters(lifted)
        total = tape.constant(0.0)
        for i, (leaf, p) in enumerate(zip(leaves, flat, strict=True)):
            np.testing.assert_array_equal(leaf.value, p.array)
            total = total + (i + 1.0) * sum_sq(leaf)
        grads = tape.backward(total)
        assert len(grads) == len(flat)
        for i, (g, p) in enumerate(zip(grads, flat)):
            np.testing.assert_allclose(g.array, 2.0 * (i + 1.0) * p.array, rtol=1e-15)

    @pytest.mark.parametrize("case, culprit", [
        ("tied, source 1 unshared", 1),
        ("tied, source 1 shares w2 only", 1),
        ("untied, source 1 shares both", 1),
        ("source 0 shares b2 only", 0),
    ])
    def test_partial_sharing_rejected(self, case, culprit):
        rng = np.random.default_rng(6)
        params = make_params(rng, (3, 5), 4, tied=case.startswith("tied"))
        (s0, s1), t = params.sources, params.target
        own_w2, own_b2 = Tensor(t.w2.array.copy()), Tensor(t.b2.array.copy())
        sources = {
            "tied, source 1 unshared": lambda: (s0, replace(s1, w2=own_w2, b2=own_b2)),
            "tied, source 1 shares w2 only": lambda: (s0, replace(s1, b2=own_b2)),
            "untied, source 1 shares both": lambda: (s0, replace(s1, w2=t.w2, b2=t.b2)),
            "source 0 shares b2 only": lambda: (replace(s0, b2=t.b2), s1),
        }[case]()
        with pytest.raises(ShapeError, match=f"source {culprit} holds"):
            ModelParams(sources, t, params.classifier, params.discriminator)

    def test_second_layer_shape_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        good = make_params(rng, (3,), 4)
        bad_source = TransformerParams(
            Tensor(rng.uniform(-1, 1, (3, 4))), Tensor(np.zeros(4)),
            Tensor(rng.uniform(-1, 1, (4, 3))), Tensor(np.zeros(3)),
        )
        with pytest.raises(ShapeError):
            ModelParams((bad_source,), good.target, good.classifier, good.discriminator)


class TestConsistencyLoss:
    def _pair(self, delta):
        base = np.array([[0.3, -0.4], [0.1, 0.9]])
        target = TransformerParams(
            Tensor(np.eye(2)), Tensor(np.zeros(2)), Tensor(base), Tensor(np.zeros(2))
        )
        source = TransformerParams(
            Tensor(np.eye(2)), Tensor(np.zeros(2)), Tensor(base + delta), Tensor(np.zeros(2))
        )
        params = ModelParams(
            (source,), target,
            ClassifierParams(Tensor(np.zeros((2, 2))), Tensor(np.zeros(2))),
            DiscriminatorParams(
                Tensor(np.zeros((2, 2))), Tensor(np.zeros(2)),
                Tensor(np.zeros((2, 2))), Tensor(np.zeros(2)),
            ),
        )
        return frozen_model(Tape(), params)

    def test_identical_second_layers_give_zero(self):
        model = self._pair(0.0)
        assert float(consistency_loss(model, "l1").value) == 0.0

    def test_l1_hand_value(self):
        model = self._pair(0.1)
        assert float(consistency_loss(model, "l1").value) == pytest.approx(0.4, abs=1e-12)

    def test_l2_hand_value(self):
        model = self._pair(0.1)
        assert float(consistency_loss(model, "l2").value) == pytest.approx(0.04, abs=1e-12)

    def test_zero_iff_identical_under_l1(self):
        model = self._pair(1e-9)
        assert float(consistency_loss(model, "l1").value) > 0.0

    def test_bad_norm_rejected(self):
        model = self._pair(0.0)
        with pytest.raises(ConfigError):
            consistency_loss(model, "linf")

    def test_invariant_under_source_permutation(self):
        rng = np.random.default_rng(17)
        params = make_params(rng, (3, 5, 6), 4)
        permuted = ModelParams(
            (params.sources[2], params.sources[0], params.sources[1]),
            params.target, params.classifier, params.discriminator,
        )
        vals = []
        for p in (params, permuted):
            vals.append(float(consistency_loss(frozen_model(Tape(), p), "l1").value))
        assert vals[0] == pytest.approx(vals[1], rel=1e-14)

    def test_no_sources_rejected(self):
        model = self._pair(0.0)
        with pytest.raises(ConfigError, match="at least one source"):
            consistency_loss(replace(model, sources=()), "l1")


def _mmd_value(source_emb, source_labels, lab_emb, lab_labels, C, unlab_emb=None, soft=None):
    tape = Tape()
    means = target_class_means(
        tape.constant(np.asarray(lab_emb, dtype=float)),
        np.asarray(lab_labels),
        C,
        None if unlab_emb is None else tape.constant(np.asarray(unlab_emb, dtype=float)),
        soft,
    )
    node = class_conditional_mmd(
        tape.constant(np.asarray(source_emb, dtype=float)), np.asarray(source_labels), means
    )
    return float(node.value)


class TestClassConditionalMmd:
    def test_zero_when_means_coincide(self):
        val = _mmd_value(
            [[1.0, 0.0], [3.0, 2.0], [0.0, 5.0]], [0, 0, 1],
            [[2.0, 1.0], [0.0, 5.0]], [0, 1], 2,
        )
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_one_class_hand_value(self):
        # labeled target at 1.0, source mean 3.0 -> (1-3)^2 = 4
        val = _mmd_value([[2.0], [4.0]], [0, 0], [[1.0]], [0], 1)
        assert val == pytest.approx(4.0, abs=1e-12)

    def test_soft_label_blend_hand_value(self):
        # blended target means are 1/3 and 5/3, equal to the source means
        val = _mmd_value(
            [[1.0 / 3.0], [5.0 / 3.0]], [0, 1],
            [[0.0], [2.0]], [0, 1], 2,
            unlab_emb=[[1.0]], soft=np.array([[0.5, 0.5]]),
        )
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_empty_source_class_names_class_and_domain(self):
        tape = Tape()
        means = target_class_means(tape.constant([[1.0], [2.0]]), np.array([0, 1]), 2)
        with pytest.raises(ConfigError, match=r"class 1.*source 3"):
            class_conditional_mmd(tape.constant([[1.0], [2.0]]), np.array([0, 0]), means,
                                  domain=3)

    def test_zero_target_mass_rejected(self):
        tape = Tape()
        with pytest.raises(ConfigError, match="mass"):
            target_class_means(tape.constant([[1.0]]), np.array([0]), 2)

    def test_soft_rows_must_sum_to_one(self):
        tape = Tape()
        with pytest.raises(ConfigError, match="sum to 1"):
            target_class_means(
                tape.constant([[1.0], [0.0]]), np.array([0, 1]), 2,
                tape.constant([[0.5]]), np.array([[0.6, 0.6]]),
            )

    def test_matches_naive_double_loop_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            C = int(rng.integers(1, 6))
            d = int(rng.integers(1, 9))
            n_s = int(rng.integers(C, 30))
            n_l = int(rng.integers(C, 20))
            n_u = int(rng.integers(0, 25))
            s_emb = rng.uniform(-2, 2, (n_s, d))
            s_lab = np.concatenate([np.arange(C), rng.integers(0, C, n_s - C)])
            l_emb = rng.uniform(-2, 2, (n_l, d))
            l_lab = np.concatenate([np.arange(C), rng.integers(0, C, n_l - C)])
            if n_u:
                u_emb = rng.uniform(-2, 2, (n_u, d))
                soft = rng.uniform(0.05, 1.0, (n_u, C))
                soft /= soft.sum(axis=1, keepdims=True)
            else:
                u_emb = soft = None
            got = _mmd_value(s_emb, s_lab, l_emb, l_lab, C, u_emb, soft)
            want = naive_class_conditional_mmd(s_emb, s_lab, l_emb, l_lab, C, u_emb, soft)
            assert got == pytest.approx(want, abs=1e-9)


def _weights(deltas) -> list[float]:
    """`source_weight_nodes` on constant divergence nodes, as floats."""
    tape = Tape()
    return [float(getattr(w, "value", w))
            for w in source_weight_nodes([tape.constant(float(d)) for d in deltas])]


class TestSourceWeights:
    def test_two_zero_divergences(self):
        assert _weights((0.0, 0.0)) == [0.5, 0.5]

    def test_cross_assignment(self):
        w = _weights((math.log(3.0), 0.0))
        assert w[0] == pytest.approx(0.5, abs=1e-12)
        assert w[1] == pytest.approx(0.75, abs=1e-12)

    def test_three_source_direct_evaluation(self):
        w = _weights((0.0, math.log(3.0), math.log(3.0)))
        np.testing.assert_allclose(w, (0.75, 0.625, 0.625), atol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            k = int(rng.integers(2, 7))
            deltas = rng.uniform(0, 6, k)
            np.testing.assert_allclose(_weights(deltas), naive_source_weights(deltas), atol=1e-12)

    def test_range_half_inclusive_one_exclusive(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(2, 7))
            deltas = rng.uniform(0, 60, k)  # includes saturating values
            w = np.array(_weights(deltas))
            assert np.all(w >= 0.5) and np.all(w < 1.0)

    def test_order_reversal(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            k = int(rng.integers(2, 7))
            deltas = np.sort(rng.uniform(0, 6, k)) + np.arange(k) * 1e-3
            rng.shuffle(deltas)
            w = np.array(_weights(deltas))
            assert np.array_equal(np.argsort(w), np.argsort(deltas)[::-1])

    def test_self_exclusion_is_bit_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.integers(2, 7))
            deltas = rng.uniform(0, 6, k)
            base = _weights(deltas)
            for i in range(k):
                bumped = deltas.copy()
                bumped[i] += 0.371
                assert _weights(bumped)[i] == base[i]

    def test_single_source_weight_is_one(self):
        assert _weights((2.5,)) == [1.0]

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            source_weight_nodes([])


class TestDomainLabels:
    def test_true_and_inverted_are_component_swaps(self):
        from heteroadapt.model import domain_labels

        src, tgt = domain_labels(inverted=False)
        np.testing.assert_array_equal(src, [1.0, 0.0])
        np.testing.assert_array_equal(tgt, [0.0, 1.0])
        inverted_src, inverted_tgt = domain_labels(inverted=True)
        np.testing.assert_array_equal(inverted_src, tgt)
        np.testing.assert_array_equal(inverted_tgt, src)


class TestDomainLoss:
    def _setup(self):
        # transformers pass non-negative 1-d inputs through unchanged;
        # discriminator maps embedding h to [1 - h, h]
        disc = DiscriminatorParams(
            Tensor([[1.0]]), Tensor([0.0]), Tensor([[-1.0, 1.0]]), Tensor([1.0, 0.0])
        )
        params = ModelParams(
            (identity_transformer(), identity_transformer()),
            identity_transformer(),
            ClassifierParams(Tensor([[1.0, -1.0]]), Tensor([0.0, 0.0])),
            disc,
        )
        task = make_task(
            ([[0.0], [0.0]], [[0.0], [0.0]]),
            (np.array([0, 1]), np.array([0, 1])),
            [[1.0], [1.0]],
            np.array([0, 1]),
            [[1.0]] * 3,
            2,
        )
        tape = Tape()
        model = frozen_model(tape, params)
        emb = embed_task(model, tape, task, 0.01)
        return model, emb

    def test_perfect_discriminator_gives_zero(self):
        model, emb = self._setup()
        loss = domain_loss(model, emb, [1.0, 1.0], inverted=False)
        assert float(loss.value) == pytest.approx(0.0, abs=1e-15)

    def test_inverted_labels_hand_value(self):
        # every row contributes |[1,0]-[0,1]|^2 = 2: total = sum_k w_k*2 + 2
        model, emb = self._setup()
        loss = domain_loss(model, emb, [1.0, 1.0], inverted=True)
        assert float(loss.value) == pytest.approx(6.0, abs=1e-12)
        loss_w = domain_loss(model, emb, [0.5, 1.0], inverted=True)
        assert float(loss_w.value) == pytest.approx(5.0, abs=1e-12)

    def test_half_weight_halves_source_contribution(self):
        model, emb = self._setup()
        full = float(domain_loss(model, emb, [1.0, 1.0], inverted=True).value)
        half = float(domain_loss(model, emb, [0.5, 1.0], inverted=True).value)
        source_term = 2.0  # per-source mean contribution in this construction
        assert full - half == pytest.approx(0.5 * source_term, abs=1e-12)


class TestClassificationLoss:
    def test_term_by_term_composition(self, toy_setup):
        params, task = toy_setup
        tape = Tape()
        model = frozen_model(tape, params)
        emb = embed_task(model, tape, task, 0.01)
        from heteroadapt.numerics import softmax_cross_entropy

        ce = [
            float(softmax_cross_entropy(classify(model, e), s.labels).value)
            for e, s in zip(emb.sources, task.sources)
        ]
        labels_t = task.target_labeled.labels
        ce_t = float(softmax_cross_entropy(classify(model, emb.target_labeled), labels_t).value)
        loss = classification_loss(model, emb, task, [0.5, 1.0], tau=0.0)
        assert float(loss.value) == pytest.approx(ce_t + 0.5 * ce[0] + 1.0 * ce[1], rel=1e-14)

    def test_regularizer_isolation(self, toy_setup):
        params, task = toy_setup
        tape = Tape()
        model = frozen_model(tape, params)
        emb = embed_task(model, tape, task, 0.01)
        tau = 0.01
        base = float(classification_loss(model, emb, task, [1.0, 1.0], tau=0.0).value)
        with_reg = float(classification_loss(model, emb, task, [1.0, 1.0], tau=tau).value)
        sqsum = float(np.sum(params.classifier.w.array ** 2))
        for t in (*params.sources, params.target):
            sqsum += float(np.sum(t.w1.array ** 2) + np.sum(t.w2.array ** 2))
        assert with_reg - base == pytest.approx(tau * sqsum, rel=1e-10)

    def test_tied_second_layer_regularized_once(self):
        rng = np.random.default_rng(12)
        params = make_params(rng, (3, 5), 4, tied=True)
        task = make_toy_task(np.random.default_rng(13))
        tape = Tape()
        model = frozen_model(tape, params)
        emb = embed_task(model, tape, task, 0.01)
        tau = 1.0
        base = float(classification_loss(model, emb, task, [1.0, 1.0], tau=0.0).value)
        with_reg = float(classification_loss(model, emb, task, [1.0, 1.0], tau=tau).value)
        sqsum = float(np.sum(params.classifier.w.array ** 2))
        sqsum += float(np.sum(params.target.w2.array ** 2))  # shared block, once
        for t in (*params.sources, params.target):
            sqsum += float(np.sum(t.w1.array ** 2))
        assert with_reg - base == pytest.approx(sqsum, rel=1e-10)


class TestObjectives:
    def test_parts_sum_to_objective(self, toy_setup):
        params, task = toy_setup
        beta, tau = 0.03, 0.004
        fwd = embedding_pass(params, task, weighting="conditional")
        obj = transformer_objective(
            fwd, params.discriminator, task, beta=beta, tau=tau, lg_norm="l1"
        )
        total = float(obj.classification.value)
        total += float(obj.consistency.value)
        total += beta * float(obj.inverted_domain.value)
        assert float(obj.objective.value) == pytest.approx(total, rel=1e-12)

    def test_beta_zero_drops_adversarial_term(self, toy_setup):
        params, task = toy_setup
        fwd = embedding_pass(params, task, weighting="ones")
        obj = transformer_objective(
            fwd, params.discriminator, task, beta=0.0, tau=0.004, lg_norm="l1"
        )
        expected = float(obj.classification.value) + float(obj.consistency.value)
        assert float(obj.objective.value) == pytest.approx(expected, rel=1e-14)

    def test_lg_off_and_ones_weighting(self, toy_setup):
        params, task = toy_setup
        fwd = embedding_pass(params, task, weighting="ones")
        obj = transformer_objective(
            fwd, params.discriminator, task, beta=0.0, tau=0.0, lg_norm="off"
        )
        assert obj.consistency is None
        # constant weights, so no divergence feeds them; the divergences
        # are still built for the trace
        assert fwd.weights == [1.0, 1.0]
        assert len(fwd.deltas) == 2

    def test_only_data_and_frozen_parameters_are_tape_constants(self, toy_setup, monkeypatch):
        params, task = toy_setup
        k = task.num_sources
        fwd = embedding_pass(params, task)
        transformer_objective(fwd, params.discriminator, task, beta=0.03, tau=0.004)
        # the K+2 domains' features, then the frozen discriminator
        assert fwd.tape._ops.count("const") == k + 2 + 4
        appended = []  # the tape keeps no values, so the nodes are read as they are made
        append = Tape.append

        def spy(tape, op, *args, **kwargs):
            node = append(tape, op, *args, **kwargs)
            appended.append((op, node.value))
            return node

        monkeypatch.setattr(Tape, "append", spy)
        loss = build_discriminator_objective(params, fwd.emb, [0.7, 0.9])
        ops = loss.tape._ops
        assert [op for op, _ in appended] == ops
        assert ops[:4] == ["param"] * 4 and ops.count("param") == 4
        constants = [v for op, v in appended if op == "const"]
        embedded = [e.value for e in (*fwd.emb.sources, fwd.emb.target_labeled,
                                      fwd.emb.target_unlabeled)]
        assert len(constants) == k + 2
        assert all(np.shares_memory(c, e) for c, e in zip(constants, embedded))

    def test_ones_weights_reduce_to_unweighted_forms(self, toy_setup):
        # the weighted losses with w == 1 equal their unweighted originals
        params, task = toy_setup
        tape = Tape()
        model = frozen_model(tape, params)
        emb = embed_task(model, tape, task, 0.01)
        from heteroadapt.numerics import softmax_cross_entropy, squared_error

        weighted = float(classification_loss(model, emb, task, [1.0, 1.0], tau=0.0).value)
        labels_t = task.target_labeled.labels
        plain = float(softmax_cross_entropy(classify(model, emb.target_labeled), labels_t).value)
        for e, s in zip(emb.sources, task.sources):
            plain += float(softmax_cross_entropy(classify(model, e), s.labels).value)
        assert weighted == pytest.approx(plain, rel=1e-14)

        weighted_d = float(domain_loss(model, emb, [1.0, 1.0], inverted=False).value)
        n_l, n_u = task.target_labeled.n, task.target_unlabeled.n
        plain_d = 0.0
        for e in emb.sources:
            plain_d += float(
                squared_error(discriminate(model, e), [[1.0, 0.0]] * e.shape[0]).value
            )
        se_l = float(
            squared_error(discriminate(model, emb.target_labeled), [[0.0, 1.0]] * n_l).value
        )
        se_u = float(
            squared_error(discriminate(model, emb.target_unlabeled), [[0.0, 1.0]] * n_u).value
        )
        plain_d += (n_l * se_l + n_u * se_u) / (n_l + n_u)
        assert weighted_d == pytest.approx(plain_d, rel=1e-12)

    def test_transformer_gradients_flow_through_weights(self, toy_setup):
        params, task = toy_setup
        soft = target_soft(params, task.target_unlabeled.features)

        def fn(tensors):
            rebuilt = replace_fg(params, tensors)
            fwd = embedding_pass(rebuilt, task, weighting="conditional", soft=soft)
            obj = transformer_objective(
                fwd, rebuilt.discriminator, task, beta=0.03, tau=0.004, lg_norm="l1"
            )
            return obj.objective

        assert grad_check(fn, fg_parameters(params)) < 1e-4

    def test_discriminator_gradients(self, toy_setup):
        params, task = toy_setup
        weights = [0.7, 0.9]
        emb = frozen_embeddings(params, task)

        def fn(tensors):
            rebuilt = replace_d(params, tensors)
            return build_discriminator_objective(rebuilt, emb, weights)

        assert grad_check(fn, d_parameters(params)) < 1e-4

    def test_divergence_actually_influences_gradient(self, toy_setup):
        # removing weight nodes (ones ablation) must change transformer grads
        params, task = toy_setup
        soft = target_soft(params, task.target_unlabeled.features)

        def grads_for(weighting):
            fwd = embedding_pass(params, task, weighting=weighting, soft=soft)
            obj = transformer_objective(
                fwd, params.discriminator, task, beta=0.03, tau=0.0, lg_norm="off"
            )
            return np.concatenate(
                [g.array.ravel() for g in fwd.tape.backward(obj.objective)]
            )

        diff = np.abs(grads_for("conditional") - grads_for("ones")).max()
        assert diff > 1e-9


class TestSoftLabels:
    def test_zero_model_gives_uniform_rows(self):
        zeros = TransformerParams(
            Tensor(np.zeros((2, 2))), Tensor(np.zeros(2)),
            Tensor(np.zeros((2, 2))), Tensor(np.zeros(2)),
        )
        params = ModelParams(
            (zeros,), zeros,
            ClassifierParams(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3))),
            DiscriminatorParams(
                Tensor(np.zeros((2, 2))), Tensor(np.zeros(2)),
                Tensor(np.zeros((2, 2))), Tensor(np.zeros(2)),
            ),
        )
        out = target_soft(params, np.ones((4, 2)))
        np.testing.assert_allclose(out, np.full((4, 3), 1.0 / 3.0), atol=1e-15)

    def test_saturated_logit_gives_near_onehot(self):
        params = ModelParams(
            (identity_transformer(),), identity_transformer(),
            ClassifierParams(Tensor([[-500.0, 500.0]]), Tensor([0.0, 0.0])),
            DiscriminatorParams(ID1, ZERO1, Tensor([[1.0, 0.0]]), Tensor([0.0, 0.0])),
        )
        out = target_soft(params, [[1.0]])
        np.testing.assert_allclose(out, [[0.0, 1.0]], atol=1e-12)

    def test_rows_sum_to_one_with_random_params(self, toy_setup):
        params, task = toy_setup
        out = softmax_values(embedding_pass(params, task).soft_logits.value)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
