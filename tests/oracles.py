"""Independent reference implementations used to cross-check the library.

Everything here is written as plainly as possible (explicit Python loops,
no shared code with the package) so a defect in the vectorized/tape paths
cannot hide in its own oracle.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def grad_check(fn, params, h: float = 1e-5) -> float:
    """Worst relative error between tape gradients and central differences.

    `fn` must build a fresh tape, register exactly `params` (in order) via
    `tape.param`, and return the scalar loss node. Coordinates where both
    gradients are below 1e-8 in magnitude compare absolutely, so saturated
    units do not inflate the ratio.
    """
    from heteroadapt.numerics import Tensor

    params = [p if isinstance(p, Tensor) else Tensor(p) for p in params]
    loss = fn(params)
    analytic = loss.tape.backward(loss)
    worst = 0.0
    for i, p in enumerate(params):
        flat = p.array.ravel()
        for j in range(flat.size):
            bumped = flat.copy()
            bumped[j] = flat[j] + h
            plus = [Tensor(bumped.reshape(p.shape)) if k == i else q for k, q in enumerate(params)]
            bumped[j] = flat[j] - h
            minus = [Tensor(bumped.reshape(p.shape)) if k == i else q for k, q in enumerate(params)]
            numeric = (float(fn(plus).value) - float(fn(minus).value)) / (2.0 * h)
            a = float(analytic[i].array.ravel()[j])
            denom = max(abs(a), abs(numeric))
            err = abs(a - numeric) if denom < 1e-8 else abs(a - numeric) / denom
            worst = max(worst, err)
    return worst


def naive_class_conditional_mmd(
    source_emb,
    source_labels,
    target_labeled_emb,
    target_labels,
    num_classes,
    target_unlabeled_emb=None,
    soft=None,
):
    """Double-loop mean-over-classes squared distance between class means."""
    source_emb = np.asarray(source_emb, dtype=float)
    target_labeled_emb = np.asarray(target_labeled_emb, dtype=float)
    d = source_emb.shape[1]
    total = 0.0
    for c in range(num_classes):
        s_acc = [0.0] * d
        s_count = 0
        for i in range(source_emb.shape[0]):
            if source_labels[i] == c:
                for j in range(d):
                    s_acc[j] += source_emb[i, j]
                s_count += 1
        t_acc = [0.0] * d
        t_mass = 0.0
        for i in range(target_labeled_emb.shape[0]):
            if target_labels[i] == c:
                for j in range(d):
                    t_acc[j] += target_labeled_emb[i, j]
                t_mass += 1.0
        if target_unlabeled_emb is not None:
            for i in range(target_unlabeled_emb.shape[0]):
                p = soft[i][c]
                for j in range(d):
                    t_acc[j] += p * target_unlabeled_emb[i, j]
                t_mass += p
        gap = 0.0
        for j in range(d):
            diff = t_acc[j] / t_mass - s_acc[j] / s_count
            gap += diff * diff
        total += gap
    return total / num_classes


def naive_source_weights(deltas):
    """Direct transcription of the averaged-sigmoid weighting rule."""
    k_total = len(deltas)
    out = []
    for k in range(k_total):
        acc = 0.0
        for j in range(k_total):
            if j != k:
                acc += 1.0 / (1.0 + np.exp(-deltas[j]))
        out.append(acc / (k_total - 1))
    return out


def old_order_class_conditional_mmd(
    source_emb,
    source_labels,
    target_labeled_emb,
    target_labels,
    num_classes,
    target_unlabeled_emb=None,
    unlabeled_soft_labels=None,
    domain=None,
):
    """The per-class divergence chain in its original node order.

    For each class: a 1-D `weighted_row_sum` of the source and a scale by
    its count, 1-D row sums of both target splits, their add and a scale
    by the class mass, then a sub and a `sum_sq`; the gaps are added in
    class order and scaled by 1/C. The package now builds the same value
    from one (C, n) row sum per domain, which reorders these float sums.
    """
    from heteroadapt.errors import ConfigError
    from heteroadapt.numerics import sum_sq, weighted_row_sum

    who = "" if domain is None else f" (source {domain})"
    source_labels = np.asarray(source_labels)
    target_labels = np.asarray(target_labels)
    soft = None
    if target_unlabeled_emb is not None:
        soft = np.asarray(unlabeled_soft_labels, dtype=np.float64)
    total = None
    for c in range(num_classes):
        src_mask = (source_labels == c).astype(np.float64)
        n_src = src_mask.sum()
        if n_src < 1:
            raise ConfigError(f"class {c} has no samples{who}")
        src_mean = weighted_row_sum(source_emb, src_mask) / n_src
        tgt_mask = (target_labels == c).astype(np.float64)
        denom = float(tgt_mask.sum())
        numerator = weighted_row_sum(target_labeled_emb, tgt_mask)
        if soft is not None:
            denom += float(soft[:, c].sum())
            numerator = numerator + weighted_row_sum(target_unlabeled_emb, soft[:, c])
        if denom <= 0.0:
            raise ConfigError(f"class {c} has zero labeled-plus-soft target mass{who}")
        gap = sum_sq(numerator / denom - src_mean)
        total = gap if total is None else total + gap
    return total / num_classes


def old_order_divergence_nodes(emb, task, soft):
    """`model.divergence_nodes` on the old-order chain: every source
    rebuilds the target class means. Substitute it for the package's to
    train in the old float order; `soft` is the soft labels' node (or an
    array), read here as constants. The chain bakes them into its row-sum
    weights, so a run built with it cannot be replayed and trains eagerly."""
    soft = getattr(soft, "value", soft)
    return [
        old_order_class_conditional_mmd(
            emb_k, source.labels, emb.target_labeled, task.target_labeled.labels,
            task.num_classes, emb.target_unlabeled, soft, domain=k,
        )
        for k, (emb_k, source) in enumerate(zip(emb.sources, task.sources))
    ]


def assert_traces_close(got, want, rtol):
    """Worst relative gap between two runs' records, checked against `rtol`.

    For a change that reorders float sums on purpose: the iterations and
    target accuracies must be identical, and every loss, divergence and
    weight must agree within `rtol` relative to the larger magnitude.
    Raises AssertionError naming the worst field otherwise.
    """
    assert len(got) == len(want), f"{len(got)} records against {len(want)}"
    worst, where = 0.0, None
    for a, b in zip(got, want):
        assert a.iteration == b.iteration, f"iteration {a.iteration} against {b.iteration}"
        assert a.target_accuracy == b.target_accuracy, (
            f"iteration {a.iteration}: accuracy {a.target_accuracy} against {b.target_accuracy}"
        )
        pairs = [(name, getattr(a, name), getattr(b, name))
                 for name in ("loss_fg", "loss_lg", "loss_dg_inverted", "loss_d")]
        for name in ("deltas", "weights"):
            assert len(getattr(a, name)) == len(getattr(b, name)), f"{name} lengths differ"
            pairs += [(f"{name}[{k}]", x, y)
                      for k, (x, y) in enumerate(zip(getattr(a, name), getattr(b, name)))]
        for name, x, y in pairs:
            gap = 0.0 if x == y else abs(x - y) / max(abs(x), abs(y))
            if np.isnan(gap) or gap > worst:
                worst, where = gap, f"iteration {a.iteration} {name}: {x!r} against {y!r}"
    assert worst <= rtol, f"relative gap {worst:.3g} exceeds {rtol:g} at {where}"
    return worst


def three_forward_train(task, config):
    """The training loop as it stood before one tape per iteration.

    Unlike the oracles above this reuses the package's building blocks
    (layers, losses, Adam); what it keeps independent is the loop's
    structure. Each iteration pushes every domain through its transformer
    twice, a constant-tape weighting pass (soft labels, divergences,
    weights) and a separate transformer-objective tape built in
    its old node order, and evaluates the unlabeled target after the step.
    Returns the records and the final parameters.
    """
    from heteroadapt.model import (
        build_discriminator_objective,
        classification_loss,
        classify,
        consistency_loss,
        divergence_nodes,
        domain_loss,
        embed_task,
        leaves,
        lift,
        source_weight_nodes,
        with_leaves,
    )
    from heteroadapt.numerics import Adam, Tape, softmax_values
    from heteroadapt.training import (
        IterationRecord,
        evaluate_accuracy,
        init_params,
    )

    conditional = config.weighting == "conditional"
    params = init_params(task, config)
    opt_fg = Adam(list(leaves(params, "fg").values()), config.lr_fg)
    opt_d = Adam(list(leaves(params, "d").values()), config.lr_d)
    records = []
    for it in range(config.iterations):
        # forward 1: the weighting pass on a constant tape
        tape = Tape()
        model = lift(tape, params, "fg", trainable=False)
        model = lift(tape, model, "d", trainable=False)
        emb = embed_task(model, tape, task)
        soft = softmax_values(classify(model, emb.target_unlabeled).value)
        delta_nodes = divergence_nodes(emb, task, soft)
        deltas = np.array([float(d.value) for d in delta_nodes])
        if conditional:
            weights = np.array([float(getattr(w, "value", w))
                                for w in source_weight_nodes(delta_nodes)])
        else:
            weights = np.ones(task.num_sources)
        d_loss = build_discriminator_objective(params, emb, weights)
        loss_d = float(d_loss.value)
        params = with_leaves(params, "d", opt_d.step(list(leaves(params, "d").values()),
                                                     d_loss.tape.backward(d_loss)))

        # forward 2: the transformer objective on its own tape
        tape = Tape()
        model = lift(tape, params, "fg", trainable=True)
        model = lift(tape, model, "d", trainable=False)
        emb = embed_task(model, tape, task)
        live = [1.0] * task.num_sources
        if conditional and task.num_sources >= 2:
            live = source_weight_nodes(divergence_nodes(emb, task, soft))
        cls = classification_loss(model, emb, task, live, config.tau)
        cons = None
        if config.lg_norm in ("l1", "l2"):
            cons = consistency_loss(model, config.lg_norm)
        inv = domain_loss(model, emb, live, inverted=True)
        objective = cls if cons is None else cls + cons
        if config.beta > 0.0:
            objective = objective + config.beta * inv
        grads = tape.backward(objective)
        params = with_leaves(params, "fg", opt_fg.step(list(leaves(params, "fg").values()), grads))

        # forward 3: evaluation of the updated parameters
        target_acc = evaluate_accuracy(params, task.target_unlabeled.features, task.eval_labels)
        records.append(IterationRecord(
            it, float(cls.value), 0.0 if cons is None else float(cons.value),
            float(inv.value), loss_d,
            tuple(float(d) for d in deltas), tuple(float(w) for w in weights),
            target_acc,
        ))
    return records, params


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
    from heteroadapt.errors import ConfigError
    from heteroadapt.model import leaves, with_leaves
    from heteroadapt.numerics import Tensor

    if params.tied_second:
        raise ConfigError("the plain trainer does not support tied second layers")
    slope, tau = 0.01, config.tau  # the rectifier's slope, restated apart from `numerics`
    domains = [(d.features.array, _one_hot(d.labels, task.num_classes))
               for d in (*task.sources, task.target_labeled)]
    # `leaves` order of group "fg": w1, b1, w2, b2 per domain (sources,
    # then the target), then the classifier's w, b in the last two slots
    flat = [leaf.array.copy() for leaf in leaves(params, "fg").values()]
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
    return losses, with_leaves(params, "fg", [Tensor(a) for a in flat])


def fstring_save_domain_file(domain, path):
    """The per-value f-string domain-file writer that `np.savetxt` replaced."""
    feats = domain.features.array
    lines = [f"{domain.n} {domain.dim} {domain.num_classes}"]
    for i in range(domain.n):
        label = -1 if domain.labels is None else int(domain.labels[i])
        values = " ".join(f"{v:.17g}" for v in feats[i])
        lines.append(f"{label} {values}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
