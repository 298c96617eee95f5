"""Alternating two-optimizer training loop with per-iteration weighting.

Each iteration runs one tape, on which every domain passes through its
transformer once; everything else is read off that tape's values:

1. lift the transformer/classifier parameters as trainable leaves and
   embed all domains;
2. classify the unlabeled-target embedding; a soft-labels node holds its
   softmax, the soft labels;
3. build the target class means once, as one op whose kernel weighs both
   target splits and checks the soft labels, then one class-conditional
   divergence per source against them (under either weighting, since
   `ones` runs still record them) and, with conditional weighting, the
   source-weight nodes;
4. take one discriminator Adam step against the true domain labels, on a
   tape of its own with the embedding values and the weight nodes' values
   as constant leaves;
5. lift the updated discriminator onto the same tape as constants, add the
   classification, consistency and inverted-domain losses, backpropagate,
   and take one transformer/classifier Adam step. The weights stay live on
   the tape, so gradients reach the divergences.

`train` builds these through `model` on its first step only and records
both tapes as `numerics.Program`s in a `StepProgram`; every later step
replays them: it binds the new parameters, embedding values and weights
to the recorded leaves, runs the recorded kernels in order (the embedding
pass, then the rest once the discriminator has stepped) and takes the
same backward sweeps, so a replayed step is bit-identical to a built one.
A step some substituted builder made unreplayable (a row-sum weight
computed from values, say) is built again every iteration.

`Tape.backward` sums gradient contributions into a shared embedding node
in reverse tape order, so the node order above is part of the numerics:
the source logits are built by the classification loss, after the
divergences. The divergences changed that order once, on purpose: each
domain's class means became one (C, n) row sum and the K sources share
one target build, which reorders their float sums. `tests/oracles.py`
keeps the old per-class chain, and training with either agrees within
1e-12 relative over 100 iterations. Every other change keeps the order.

Evaluation costs no forward of its own: iteration i+1 starts from the
parameters step i produced and classifies the unlabeled target exactly as
an evaluation would, so iteration i's target accuracy is read from
iteration i+1's soft-label logits. Only the last iteration is evaluated
separately.

A step keeps each tape only while something reads it (the "Lifetime"
rule of `numerics`): every value the step reports, the soft-label
accuracy included, is read before the transformer/classifier backward,
and the embedding pass and its objective are dropped right after it, so
that step's Adam update runs with no tape alive. The discriminator's
tape is dropped once its own step is done. A replayed step drops its
tapes at the same points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import MultiSourceTask
from .errors import ConfigError, NonFiniteError, ShapeError, check_fields
from .model import (
    LG_NORMS,
    WEIGHTINGS,
    ClassifierParams,
    DiscriminatorParams,
    ModelParams,
    TransformerObjective,
    TransformerParams,
    build_discriminator_objective,
    classifier_logits,
    embedding_pass,
    flat_leaves,
    leaves,
    transformer_objective,
    with_leaves,
)
from .numerics import Adam, Node, Program, Tensor


@dataclass(frozen=True)
class TrainConfig:
    beta: float = 0.03
    tau: float = 0.004
    d_c: int = 256
    hidden: int = 256
    lr_fg: float = 0.004
    lr_d: float = 0.001
    iterations: int = 1000
    seed: int = 0
    lg_norm: str = "l1"
    weighting: str = "conditional"

    def __post_init__(self):
        check_fields(self)
        if self.beta < 0 or self.tau < 0:
            raise ConfigError("beta and tau must be non-negative")
        if self.d_c < 1 or self.hidden < 1:
            raise ConfigError("d_c and hidden must be positive")
        if self.lr_fg <= 0 or self.lr_d <= 0:
            raise ConfigError("learning rates must be positive")
        if self.iterations < 0:
            raise ConfigError("iterations cannot be negative")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.lg_norm not in LG_NORMS:
            raise ConfigError(f"lg_norm must be one of {LG_NORMS}, got {self.lg_norm!r}")
        if self.weighting not in WEIGHTINGS:
            raise ConfigError(f"weighting must be one of {WEIGHTINGS}, got {self.weighting!r}")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    loss_fg: float
    loss_lg: float
    loss_dg_inverted: float
    loss_d: float
    deltas: tuple[float, ...]
    weights: tuple[float, ...]
    target_accuracy: float


@dataclass
class TrainTrace:
    records: list[IterationRecord] = field(default_factory=list)
    final_params: ModelParams | None = None

    @property
    def final_accuracy(self) -> float:
        if not self.records:
            raise ConfigError("trace has no records")
        return self.records[-1].target_accuracy


# -- initialization ---------------------------------------------------------


def _affine_init(rng, fan_in: int, fan_out: int) -> tuple[Tensor, Tensor]:
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, (fan_in, fan_out))), Tensor(np.zeros(fan_out))


def init_params(task: MultiSourceTask, config: TrainConfig) -> ModelParams:
    """Seeded uniform init scaled by 1/sqrt(fan_in); biases start at zero.

    Under `lg_norm="tied"` the sources hold the target's second-layer
    tensors, which is what ties them (see `ModelParams`).
    """
    rng = np.random.default_rng(config.seed)
    tied = config.lg_norm == "tied"
    h, d_c = config.hidden, config.d_c
    firsts = [_affine_init(rng, s.dim, h) for s in task.sources]
    seconds = None if tied else [_affine_init(rng, h, d_c) for _ in task.sources]
    target = TransformerParams(
        *_affine_init(rng, task.target_labeled.dim, h), *_affine_init(rng, h, d_c)
    )
    if tied:
        seconds = [(target.w2, target.b2)] * len(firsts)
    sources = tuple(TransformerParams(*first, *second) for first, second in zip(firsts, seconds))
    classifier = ClassifierParams(*_affine_init(rng, d_c, task.num_classes))
    discriminator = DiscriminatorParams(*_affine_init(rng, d_c, d_c), *_affine_init(rng, d_c, 2))
    return ModelParams(sources, target, classifier, discriminator)


# -- evaluation ----------------------------------------------------------------


def evaluate_accuracy(params: ModelParams, features, labels) -> float:
    """Share of target rows whose argmax class (ties to the lowest index)
    is the row's label; `labels` holds one class per row of `features`."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ConfigError("evaluation set is empty")
    logits = classifier_logits(params, params.target, features)
    if labels.shape != logits.shape[:1]:
        raise ShapeError(f"evaluation labels have shape {labels.shape}, expected ({len(logits)},)")
    return _hit_rate(logits, labels)


def _hit_rate(logits: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(np.argmax(logits, axis=1) == labels))


# -- one iteration ----------------------------------------------------------------


@dataclass
class StepProgram:
    """A run's training step as its first `train_step` recorded it: the two
    tapes' programs and the nodes a step reads off them. `fg` stays None
    when the step cannot be replayed; every step is then built again."""

    recorded: bool = False
    fg: Program | None = None  # embedding pass and transformer objective
    d: Program | None = None  # discriminator objective
    first: list = field(default_factory=list)  # deltas, weights, embeddings, soft logits
    parts: list = field(default_factory=list)  # a `TransformerObjective`'s fields
    split: int = 0  # the fg nodes the discriminator step reads
    d_loss: int = 0


def train_step(params: ModelParams, opt_fg: Adam, opt_d: Adam, task: MultiSourceTask,
               config: TrainConfig, program: StepProgram | None = None):
    """One alternation on one tape over `task`: discriminator step, then
    transformer/classifier step (order in the module docstring).

    Returns the updated parameters, the loss/weighting scalars recorded for
    the trace, and the target accuracy of the parameters the step *started
    from*: the soft-label logits of its forward scored on the unlabeled
    split against `task.eval_labels`. All of them are read before the
    transformer/classifier backward, and the tape is dropped before the
    Adam step that follows it. Given a `program`, the first call records
    the step into it and every later call replays it.
    """
    replay = program is not None and program.fg is not None
    record = program is not None and not program.recorded
    fg_slots = [p.array for p in flat_leaves(params, "fg")]
    fwd = None
    if replay:
        fg = program.fg.run(fg_slots, program.split)
        first = _nodes(program.fg, fg, program.first)
    else:
        fwd = embedding_pass(params, task, weighting=config.weighting)
        fg, first = fwd.tape, [*fwd.deltas, *fwd.weights, *fwd.emb.sources,
                               fwd.emb.target_labeled, fwd.emb.target_unlabeled, fwd.soft_logits]
    k = task.num_sources
    deltas = tuple(float(d.value) for d in first[:k])
    _check_finite((f"delta_{j + 1}", d) for j, d in enumerate(deltas))
    weight_values = [w.value if isinstance(w, Node) else w for w in first[k:2 * k]]
    weights = tuple(float(w) for w in weight_values)

    d_slots = [*(p.array for p in flat_leaves(params, "d")),
               *(e.value for e in first[2 * k:3 * k + 2]),
               *(w.value for w in first[k:2 * k] if isinstance(w, Node))]
    if replay:
        d_loss = program.d.node(program.d.run(d_slots), program.d_loss)
    else:
        d_loss = build_discriminator_objective(params, fwd.emb, weight_values)
        if record:
            d_program = _recording(d_loss.tape, d_slots, [d_loss.index])
            program.d_loss = d_loss.index
    loss_d = float(d_loss.value)
    _check_finite([("loss_d", loss_d)])
    d_grads = _gradients(d_loss, params, "d")
    params = with_leaves(params, "d", opt_d.step(flat_leaves(params, "d"), d_grads))
    del d_loss, d_grads, d_slots

    fg_slots += [p.array for p in flat_leaves(params, "d")]
    if replay:
        program.fg.run(fg_slots, tape=fg)
        obj = TransformerObjective(*_nodes(program.fg, fg, program.parts))
    else:
        obj = transformer_objective(
            fwd, params.discriminator, task,
            beta=config.beta, tau=config.tau, lg_norm=config.lg_norm,
        )
    loss_fg = float(obj.classification.value)
    loss_lg = 0.0 if obj.consistency is None else float(obj.consistency.value)
    loss_dg_inv = float(obj.inverted_domain.value)
    _check_finite([("loss_fg", loss_fg), ("loss_lg", loss_lg), ("loss_dg_inv", loss_dg_inv),
                   ("objective", float(obj.objective.value))])
    target_acc = _hit_rate(first[-1].value, task.eval_labels)
    if record:
        parts = [obj.objective, obj.classification, obj.consistency, obj.inverted_domain]
        program.recorded, program.first, program.parts = True, _indices(first), _indices(parts)
        reads = [i for i in program.first if type(i) is int]
        program.split = 1 + max(reads)
        fg_program = _recording(fg, fg_slots, reads + [n.index for n in parts if n is not None])
        if d_program and fg_program:
            program.fg, program.d = fg_program, d_program
    fg_grads = _gradients(obj.objective, params, "fg")
    del fwd, fg, first, obj
    params = with_leaves(params, "fg", opt_fg.step(flat_leaves(params, "fg"), fg_grads))
    return params, (loss_fg, loss_lg, loss_dg_inv, loss_d), deltas, weights, target_acc


def _recording(tape, slots, keep) -> Program | None:
    """The program of `tape`, or None for a step a replay cannot repeat (one
    that a substituted builder made value-dependent, say)."""
    try:
        return Program(tape, slots, keep)
    except ValueError:
        return None


def _indices(nodes) -> list:
    return [n.index if isinstance(n, Node) else n for n in nodes]


def _nodes(program: Program, tape, indices) -> list:
    return [program.node(tape, i) if type(i) is int else i for i in indices]


def _check_finite(named) -> None:
    for name, value in named:
        if not np.isfinite(value):
            raise NonFiniteError(name)


def _gradients(loss: Node, params: ModelParams, group: str) -> list[Tensor]:
    """`loss.tape.backward(loss)` for `group` of `params`, lifted in `leaves`
    order; a gradient that is not finite is named by its leaf's name."""
    try:
        return loss.tape.backward(loss)
    except NonFiniteError as exc:
        name = list(leaves(params, group))[exc.position]
        raise NonFiniteError(f"gradient of {name}") from exc


# -- full runs ----------------------------------------------------------------------


def validate_task(task: MultiSourceTask, params: ModelParams) -> None:
    """Reject a task training cannot run on, and parameters whose source
    count, per-domain input widths or class count differ from the task's."""
    if task.num_sources < 1:
        raise ConfigError("training needs at least one source domain")
    task.require_eval_labels()
    fit = [("source transformers", params.num_sources, task.num_sources)]
    fit += [(f"source {k} input width", t.d_in, s.dim)
            for k, (t, s) in enumerate(zip(params.sources, task.sources))]
    fit += [("target input width", params.target.d_in, task.target_labeled.dim),
            ("classifier classes", params.classifier.w.shape[1], task.num_classes)]
    for what, have, need in fit:
        if have != need:
            raise ShapeError(f"parameters do not fit the task: {what} {have}, task has {need}")


def train(task: MultiSourceTask, config: TrainConfig,
          params: ModelParams | None = None) -> TrainTrace:
    """Run full-batch alternating training and record every iteration.

    One `train_step` per iteration, the first recording the step and the
    others replaying it (see the module docstring); each step's forward
    also evaluates the parameters the previous step produced, so iteration
    i's target accuracy is filled in by step i+1, and one trailing
    evaluation of the unlabeled target covers the last step. Identical
    (task, config, params) inputs produce bit-identical traces.

    A divergence, loss or gradient that is not finite raises
    `NonFiniteError` naming it (`delta_k`, a trace column, `objective` or
    `gradient of <parameter>`) and the iteration, with the records of the
    iterations before it, the last one evaluated as the trailing one is.
    """
    if params is None:
        params = init_params(task, config)
    validate_task(task, params)
    opt_fg = Adam(flat_leaves(params, "fg"), config.lr_fg)
    opt_d = Adam(flat_leaves(params, "d"), config.lr_d)
    program = StepProgram()  # recorded by the first step, replayed by the others
    trace = TrainTrace()
    pending = None  # the previous step's record fields, awaiting its accuracy

    def evaluated() -> float:
        return evaluate_accuracy(params, task.target_unlabeled.features, task.eval_labels)

    for it in range(config.iterations):
        try:  # a step checks every value it hands on, so numpy need not warn
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                params, losses, deltas, weights, accuracy = train_step(
                    params, opt_fg, opt_d, task, config, program
                )
        except NonFiniteError as exc:
            if pending is not None:
                trace.records.append(IterationRecord(it - 1, *pending, evaluated()))
            raise NonFiniteError(exc.quantity, iteration=it, records=trace.records) from exc
        if pending is not None:
            trace.records.append(IterationRecord(it - 1, *pending, accuracy))
        pending = (*losses, deltas, weights)
    if pending is not None:
        trace.records.append(IterationRecord(config.iterations - 1, *pending, evaluated()))
    trace.final_params = params
    return trace
