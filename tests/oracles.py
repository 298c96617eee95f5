"""Independent reference implementations used to cross-check the library.

Everything here is written as plainly as possible (explicit Python loops,
no shared code with the package) so a defect in the vectorized/tape paths
cannot hide in its own oracle.
"""

import numpy as np


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


def three_forward_train(task, config):
    """The training loop as it stood before one tape per iteration.

    Unlike the oracles above this reuses the package's building blocks
    (layers, losses, Adam); what it keeps independent is the loop's
    structure. Each iteration pushes every domain through its transformer
    twice, a constant-tape weighting pass (soft labels, divergences,
    value-path weights) and a separate transformer-objective tape built in
    its old node order, and evaluates the unlabeled target after the step.
    Returns the records and the final parameters.
    """
    from heteroadapt.model import (
        build_discriminator_objective,
        classification_loss,
        classify,
        consistency_loss,
        d_parameters,
        divergence_nodes,
        domain_loss,
        embed_task,
        fg_parameters,
        lift_discriminator,
        lift_fg,
        replace_d,
        replace_fg,
        source_weight_nodes,
        source_weights,
    )
    from heteroadapt.numerics import Adam, Tape, softmax_values
    from heteroadapt.training import (
        IterationRecord,
        evaluate_accuracy,
        init_params,
    )

    slope = config.leaky_slope
    conditional = config.weighting == "conditional"
    params = init_params(task, config)
    opt_fg = Adam(fg_parameters(params), config.lr_fg)
    opt_d = Adam(d_parameters(params), config.lr_d)
    records = []
    for it in range(config.iterations):
        # forward 1: the weighting pass on a constant tape
        tape = Tape()
        model = lift_fg(tape, params, trainable=False)
        model = lift_discriminator(tape, model, params.discriminator, trainable=False)
        emb = embed_task(model, tape, task, slope)
        soft = softmax_values(classify(model, emb.target_unlabeled).value)
        deltas = np.array([float(d.value) for d in divergence_nodes(emb, task, soft)])
        if conditional:
            weights = np.array(source_weights(deltas).weights)
        else:
            weights = np.ones(task.num_sources)
        emb_values = (
            [e.value for e in emb.sources], emb.target_labeled.value, emb.target_unlabeled.value
        )
        d_tape, d_loss = build_discriminator_objective(params, emb_values, weights)
        loss_d = float(d_loss.value)
        params = replace_d(params, opt_d.step(d_parameters(params), d_tape.backward(d_loss)))

        # forward 2: the transformer objective on its own tape
        tape = Tape()
        model = lift_fg(tape, params, trainable=True)
        model = lift_discriminator(tape, model, params.discriminator, trainable=False)
        emb = embed_task(model, tape, task, slope)
        live = [1.0] * task.num_sources
        if conditional and task.num_sources >= 2:
            live = source_weight_nodes(divergence_nodes(emb, task, soft))
        cls = classification_loss(model, emb, task, live, config.tau)
        cons = None
        if config.lg_norm in ("l1", "l2"):
            cons = consistency_loss(tape, model, config.lg_norm)
        inv = domain_loss(model, emb, live, inverted=True)
        objective = cls if cons is None else cls + cons
        if config.beta > 0.0:
            objective = objective + config.beta * inv
        grads = tape.backward(objective)
        params = replace_fg(params, opt_fg.step(fg_parameters(params), grads))

        # forward 3: evaluation of the updated parameters
        target_acc = evaluate_accuracy(
            params, task.target_unlabeled.features, task.eval_labels, slope
        )
        records.append(IterationRecord(
            it, float(cls.value), 0.0 if cons is None else float(cons.value),
            float(inv.value), loss_d,
            tuple(float(d) for d in deltas), tuple(float(w) for w in weights),
            target_acc,
        ))
    return records, params
