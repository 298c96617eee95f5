"""Network architecture and losses for multisource heterogeneous adaptation.

Every domain gets its own two-layer feature transformer into a shared
subspace of width `d_c`; the second layers are shape-identical across
domains so their parameters can be compared (and optionally tied). On top
of the shared subspace sit a linear label classifier and a small
source-vs-target discriminator. Source importance comes from a
class-conditional divergence between each source and the target, squashed
through an averaged sigmoid so weights stay inside [0.5, 1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .data import MultiSourceTask
from .errors import ConfigError, ShapeError
from .numerics import (
    Node,
    Op,
    Tape,
    Tensor,
    affine_values,
    apply,
    leaky_relu,
    leaky_relu_values,
    matmul_affine,
    relu,
    sigmoid,
    softmax_cross_entropy,
    softmax_values,
    squared_error,
    sum_abs,
    sum_sq,
    weighted_row_sum,
)

# Largest double below 1; the logistic curve saturates to exactly 1.0 in
# float64 past ~36.7, which would push weights onto the closed boundary.
_SIGMOID_CEILING = float(np.nextafter(1.0, 0.0))

LG_NORMS = ("l1", "l2", "off", "tied")
WEIGHTINGS = ("conditional", "ones")

_DOMAIN_LABELS = np.eye(2)
_DOMAIN_LABELS.setflags(write=False)  # rows a replay reuses as per-run constants
SOURCE_DOMAIN_LABEL, TARGET_DOMAIN_LABEL = _DOMAIN_LABELS


def domain_labels(inverted: bool) -> tuple[np.ndarray, np.ndarray]:
    """The (2,) one-hot label rows of the source and the target side;
    `inverted` swaps their components, which swaps the two rows."""
    rows = (SOURCE_DOMAIN_LABEL, TARGET_DOMAIN_LABEL)
    return rows[::-1] if inverted else rows


# -- parameter containers ----------------------------------------------------

# The containers hold Tensors as stored parameters, or Nodes once lifted
# onto a tape; structure and shape checks are the same for both.
Leaf = Tensor | Node


@dataclass(frozen=True)
class TransformerParams:
    """Two-layer map d_in -> hidden -> d_c (weights (in, out), bias (out,))."""

    w1: Leaf
    b1: Leaf
    w2: Leaf
    b2: Leaf

    def __post_init__(self):
        if self.w1.shape[1] != self.b1.shape[0] or self.w2.shape[1] != self.b2.shape[0]:
            raise ShapeError("transformer bias widths do not match their weights")
        if self.w1.shape[1] != self.w2.shape[0]:
            raise ShapeError(
                f"transformer layers do not chain: {self.w1.shape} then {self.w2.shape}"
            )

    @property
    def d_in(self) -> int:
        return self.w1.shape[0]

    @property
    def d_out(self) -> int:
        return self.w2.shape[1]


@dataclass(frozen=True)
class ClassifierParams:
    """Single affine map d_c -> C; softmax only happens inside losses."""

    w: Leaf
    b: Leaf


@dataclass(frozen=True)
class DiscriminatorParams:
    """Two-layer source-vs-target head: relu hidden layer, linear 2-way output."""

    w1: Leaf
    b1: Leaf
    w2: Leaf
    b2: Leaf

    def __post_init__(self):
        if self.w2.shape[1] != 2:
            raise ShapeError(f"discriminator must output 2 domain scores, got {self.w2.shape}")


@dataclass(frozen=True)
class ModelParams:
    """All learnable state: per-source and target transformers, classifier,
    discriminator.

    Tying is sharing: the sources' second layers are tied when every source
    holds the target's own `w2` and `b2` objects, and `tied_second` reads
    that off. Partial sharing (some sources share and others do not, or a
    source shares `w2` but not `b2`) is rejected. A model without sources is
    untied. `leaves` flattens it into two named groups.
    """

    sources: tuple[TransformerParams, ...]
    target: TransformerParams
    classifier: ClassifierParams
    discriminator: DiscriminatorParams

    def __post_init__(self):
        second = (self.target.w2.shape, self.target.b2.shape)
        tied = self.tied_second
        for k, t in enumerate(self.sources):
            if (t.w2.shape, t.b2.shape) != second:
                raise ShapeError(
                    f"source {k} second layer {t.w2.shape} differs from target {second[0]}"
                )
            held = [name for name, own in (("w2", t.w2), ("b2", t.b2))
                    if own is getattr(self.target, name)]
            if len(held) != 2 * tied:
                raise ShapeError(
                    f"source {k} holds {' and '.join(held) or 'neither'} of the target's "
                    "w2 and b2; sources must all hold both (tied) or all neither "
                    f"(untied), and source 0 {'holds' if tied else 'does not hold'} w2"
                )
        d_c = self.target.d_out
        if self.classifier.w.shape[0] != d_c:
            raise ShapeError(
                f"classifier input {self.classifier.w.shape[0]} != subspace width {d_c}"
            )
        if self.discriminator.w1.shape[0] != d_c:
            raise ShapeError(
                f"discriminator input {self.discriminator.w1.shape[0]} != subspace width {d_c}"
            )

    @property
    def tied_second(self) -> bool:
        """Whether the sources share the target's second layer (see class doc)."""
        return bool(self.sources) and self.sources[0].w2 is self.target.w2

    @property
    def num_sources(self) -> int:
        return len(self.sources)

    @property
    def d_c(self) -> int:
        return self.target.d_out


# -- named parameter groups -------------------------------------------------

_LAYERS = ("w1", "b1", "w2", "b2")


def leaves(params: ModelParams, group: str) -> dict[str, Leaf]:
    """One parameter group's leaves by name, in the flat order of a tape's
    trainable leaves and of the Adam slots (`flat_leaves`). Group `"fg"` is
    per source `source k w1, b1, w2, b2` (only `w1, b1` when tied), then
    `target w1` to `b2`, then `classifier w, b`: a tied second layer appears
    once, named for the target. Group `"d"` is `discriminator w1` to `b2`.
    Training reads the leaves by position and formats names for messages."""
    flat = flat_leaves(params, group)
    if group == "d":
        return dict(zip((f"discriminator {n}" for n in _LAYERS), flat))
    own = _LAYERS[:2] if params.tied_second else _LAYERS
    names = [f"source {k} {n}" for k in range(params.num_sources) for n in own]
    return dict(zip([*names, *(f"target {n}" for n in _LAYERS), "classifier w", "classifier b"],
                    flat))


def flat_leaves(params: ModelParams, group: str) -> list[Leaf]:
    """`leaves(params, group)` in order, without the names."""
    if group == "d":
        d = params.discriminator
        return [d.w1, d.b1, d.w2, d.b2]
    if group != "fg":
        raise ConfigError(f"parameter group must be 'fg' or 'd', got {group!r}")
    own, t, c = 2 if params.tied_second else 4, params.target, params.classifier
    sources = [leaf for s in params.sources for leaf in (s.w1, s.b1, s.w2, s.b2)[:own]]
    return [*sources, t.w1, t.b1, t.w2, t.b2, c.w, c.b]


def with_leaves(params: ModelParams, group: str, new: Sequence[Leaf]) -> ModelParams:
    """`params` with `group`'s leaves replaced by `new` (Tensors or Nodes) in
    `leaves` order, by position; a tied source, having no `w2`, `b2` of its
    own, takes the target's new ones, so a tied model stays tied."""
    own = 4 if group == "d" else 2 if params.tied_second else 4
    count = 4 if group == "d" else own * params.num_sources + 6
    if len(new) != count:
        raise ShapeError(f"parameter group {group!r} has {count} leaves, got {len(new)}")
    if group == "d":
        return replace(params, discriminator=DiscriminatorParams(*new))
    k = own * params.num_sources
    target = TransformerParams(*new[k:k + 4])
    shared = (target.w2, target.b2)[:4 - own]
    sources = tuple(TransformerParams(*new[j:j + own], *shared) for j in range(0, k, own))
    return ModelParams(sources, target, ClassifierParams(*new[k + 4:]), params.discriminator)


def lift(tape: Tape, params: ModelParams, group: str, *, trainable: bool) -> ModelParams:
    """`params` with `group` lifted onto `tape` in `leaves` order, as
    trainable leaves, so `tape.backward` returns gradients in that order,
    or as constants; the other group is left as it is."""
    put = tape.param if trainable else tape.constant
    return with_leaves(params, group, [put(p) for p in flat_leaves(params, group)])


# -- forward passes -----------------------------------------------------------


def transform(t: TransformerParams, x: Node) -> Node:
    """Two affine layers, each followed by the leaky rectifier."""
    hidden = leaky_relu(matmul_affine(x, t.w1, t.b1))
    return leaky_relu(matmul_affine(hidden, t.w2, t.b2))


def classify(model: ModelParams, emb: Node) -> Node:
    return matmul_affine(emb, model.classifier.w, model.classifier.b)


def discriminate(model: ModelParams, emb: Node) -> Node:
    d = model.discriminator
    hidden = relu(matmul_affine(emb, d.w1, d.b1))
    return matmul_affine(hidden, d.w2, d.b2)


def transform_values(t: TransformerParams, x) -> np.ndarray:
    """Value-only `transform` through stored parameters, on the same kernels."""
    hidden = leaky_relu_values(affine_values(x, t.w1, t.b1))
    return leaky_relu_values(affine_values(hidden, t.w2, t.b2))


def classifier_logits(params: ModelParams, t: TransformerParams, x) -> np.ndarray:
    """Value-only logits for samples of the domain owning transformer `t`."""
    c = params.classifier
    return affine_values(transform_values(t, x), c.w, c.b)


# -- embedding a task -----------------------------------------------------------


@dataclass
class TaskEmbeddings:
    sources: list[Node]
    target_labeled: Node
    target_unlabeled: Node


def embed_task(model: ModelParams, tape: Tape, task: MultiSourceTask) -> TaskEmbeddings:
    """Every domain of `task` through its transformer: sources in order,
    then the labeled and the unlabeled target."""
    pairs = [*zip(model.sources, task.sources),
             (model.target, task.target_labeled), (model.target, task.target_unlabeled)]
    *sources, labeled, unlabeled = [transform(t, tape.constant(d.features)) for t, d in pairs]
    return TaskEmbeddings(sources, labeled, unlabeled)


# -- losses ---------------------------------------------------------------------


def consistency_loss(model: ModelParams, norm: str = "l1") -> Node:
    """Disagreement between each source's second layer and the target's.

    Weights and biases are concatenated per layer; `l1` sums absolute
    differences, `l2` sums squared differences.
    """
    if norm not in ("l1", "l2"):
        raise ConfigError(f"consistency norm must be 'l1' or 'l2', got {norm!r}")
    if not model.sources:
        raise ConfigError("the consistency loss needs at least one source")
    reduce = sum_abs if norm == "l1" else sum_sq
    first, *rest = [reduce(own - shared) for t in model.sources
                    for own, shared in ((t.w2, model.target.w2), (t.b2, model.target.b2))]
    return sum(rest, first)  # left to right; traces depend on it


def _class_indicators(labels, num_classes: int) -> np.ndarray:
    """(C, n) float indicators: row c marks the samples labeled c."""
    return (np.asarray(labels) == np.arange(num_classes)[:, None]).astype(np.float64)


def target_class_means(
    target_labeled_emb: Node,
    target_labels: np.ndarray,
    num_classes: int,
    target_unlabeled_emb: Node | None = None,
    unlabeled_soft_labels: np.ndarray | Node | None = None,
) -> Node:
    """(C, d) target class means, one weighted row sum per target split.

    The mean for class c blends the labeled samples of that class with
    every unlabeled sample weighted by its soft-label probability for c;
    the blend is normalized by labeled count plus total soft mass. Soft
    labels (an array, or a node such as `embedding_pass`'s) are constants:
    gradients flow only through the embeddings. The means are one op whose
    kernel builds the soft-label weights and checks them (rows sum to 1,
    every class has mass) on each evaluation, a replayed one too.
    """
    labeled = _class_indicators(target_labels, num_classes)
    labeled.setflags(write=False)  # a per-run constant of the op
    nodes = [target_labeled_emb]
    if target_unlabeled_emb is not None:
        if unlabeled_soft_labels is None:
            raise ConfigError("unlabeled embeddings require soft labels")
        soft = unlabeled_soft_labels
        if not isinstance(soft, Node):
            soft = target_unlabeled_emb.tape.constant(soft)
        if soft.shape != (target_unlabeled_emb.shape[0], num_classes):
            raise ShapeError(
                f"soft labels {soft.shape} do not match unlabeled embeddings "
                f"{target_unlabeled_emb.shape} with {num_classes} classes"
            )
        nodes += [target_unlabeled_emb, soft]
    return apply(_CLASS_MEANS, nodes, (labeled,))


def _class_means(labeled, labeled_emb, unlabeled_emb=None, soft=None):
    """`target_class_means`' kernel: the means and the two row-sum weights."""
    mass = labeled.sum(axis=1)
    if soft is not None:
        if np.any(np.abs(soft.sum(axis=1) - 1.0) > 1e-9):
            raise ConfigError("soft-label rows must sum to 1 within 1e-9")
        mass = mass + soft.sum(axis=0)
    if np.any(mass <= 0.0):
        raise ConfigError(
            f"class {np.argmax(mass <= 0.0)} has zero labeled-plus-soft target mass"
        )
    weights = (labeled / mass[:, None],)
    means = weights[0] @ labeled_emb
    if soft is not None:
        weights += (soft.T / mass[:, None],)
        means = means + weights[1] @ unlabeled_emb
    return means, weights


# Replay runs the same kernels, so they must hold every value-dependent step.
_CLASS_MEANS = Op("target_class_means", _class_means, (
    lambda g, w_l, *_: w_l.T @ g, lambda g, w_l, w_u: w_u.T @ g, None))
_SOFT_LABELS = Op("soft_labels", lambda z: (softmax_values(z), ()), (None,))


def class_conditional_mmd(
    source_emb: Node,
    source_labels: np.ndarray,
    target_means: Node,
    domain: str | int | None = None,
) -> Node:
    """Mean over classes of the squared distance between class means.

    `target_means` are the (C, d) `target_class_means`, built once and
    shared by every source. The source means are one weighted row sum
    with each class's indicators divided by its count.
    """
    num_classes = target_means.shape[0]
    members = _class_indicators(source_labels, num_classes)
    count = members.sum(axis=1)
    if not count.all():
        who = "" if domain is None else f" (source {domain})"
        raise ConfigError(f"class {count.argmin()} has no samples{who}")
    weights = members / count[:, None]
    weights.setflags(write=False)  # a per-run constant, as a replay needs
    source_means = weighted_row_sum(source_emb, weights)
    return sum_sq(target_means - source_means) / num_classes


def source_weight_nodes(deltas: Sequence[Node]) -> list[Node | float]:
    """Weight each source by the mean squashed divergence of the others.

    w_k averages sigmoid(delta_j) over j != k, so w_k never depends on
    delta_k and lies in [0.5, 1) for non-negative divergences; a sigmoid
    that rounds to 1 is held at the largest double below it. A single
    source keeps weight 1 (nothing to compare against). Gradients flow
    into the divergences.
    """
    k_total = len(deltas)
    if k_total == 0:
        raise ConfigError("at least one source divergence is required")
    if k_total == 1:
        return [1.0]
    sig = [sigmoid(d, _SIGMOID_CEILING) for d in deltas]
    out: list[Node | float] = []
    for k in range(k_total):
        first, *rest = [s for j, s in enumerate(sig) if j != k]
        out.append(sum(rest, first) / (k_total - 1))  # left to right; traces depend on it
    return out


def classification_loss(
    model: ModelParams,
    emb: TaskEmbeddings,
    task: MultiSourceTask,
    weights: Sequence[Node | float],
    tau: float,
) -> Node:
    """Weighted source cross-entropy, labeled-target cross-entropy, and an
    optional squared penalty on classifier/transformer weight matrices
    (biases and the discriminator are never regularized)."""
    total = softmax_cross_entropy(classify(model, emb.target_labeled),
                                  task.target_labeled.labels)
    for w_k, emb_k, source in zip(weights, emb.sources, task.sources):
        total = total + w_k * softmax_cross_entropy(classify(model, emb_k), source.labels)
    if tau > 0.0:
        matrices = [w for t in (*model.sources, model.target) for w in (t.w1, t.w2)]
        # a shared second layer is one node, so it counts once
        first, *rest = [sum_sq(node) for node in dict.fromkeys([model.classifier.w, *matrices])]
        total = total + tau * sum(rest, first)
    return total


def domain_loss(
    model: ModelParams,
    emb: TaskEmbeddings,
    weights: Sequence[Node | float],
    inverted: bool,
) -> Node:
    """Squared error between discriminator outputs and (optionally swapped)
    one-hot domain labels, averaged per domain; source terms are weighted,
    the target term covers labeled and unlabeled samples together."""
    source_label, target_label = domain_labels(inverted)
    n_l = emb.target_labeled.shape[0]
    n_u = emb.target_unlabeled.shape[0]
    n_t = n_l + n_u
    se_l = squared_error(discriminate(model, emb.target_labeled), target_label)
    se_u = squared_error(discriminate(model, emb.target_unlabeled), target_label)
    total = se_l * (n_l / n_t) + se_u * (n_u / n_t)
    for w_k, emb_k in zip(weights, emb.sources):
        total = total + w_k * squared_error(discriminate(model, emb_k), source_label)
    return total


# -- full objectives -------------------------------------------------------------


@dataclass
class EmbeddingPass:
    """One tape with every domain embedded once, plus what the weighting
    reads off it: soft-label logits, divergences and source weights.

    The f/g parameters are trainable leaves; the discriminator is not on the
    tape yet, so its step can run first and `transformer_objective` then
    lifts the updated one.
    """

    tape: Tape
    model: ModelParams
    emb: TaskEmbeddings
    soft_logits: Node | None
    deltas: list[Node]
    weights: list[Node | float]


@dataclass
class TransformerObjective:
    """The scalar minimized over transformers + classifier, with its parts;
    the tape, divergences and weights are the `EmbeddingPass`'s."""

    objective: Node
    classification: Node
    consistency: Node | None
    inverted_domain: Node


def divergence_nodes(
    emb: TaskEmbeddings, task: MultiSourceTask, soft: Node | np.ndarray
) -> list[Node]:
    """One divergence per source, all against one build of the target class means."""
    means = target_class_means(emb.target_labeled, task.target_labeled.labels,
                               task.num_classes, emb.target_unlabeled, soft)
    return [
        class_conditional_mmd(emb_k, source.labels, means, domain=k)
        for k, (emb_k, source) in enumerate(zip(emb.sources, task.sources))
    ]


def embedding_pass(
    params: ModelParams,
    task: MultiSourceTask,
    *,
    weighting: str = "conditional",
    soft: np.ndarray | None = None,
) -> EmbeddingPass:
    """Embed every domain of `task` once and build the weighting on the
    same tape.

    Without supplied soft labels they are a node holding the softmax of
    the unlabeled target embedding's logits, which are kept for evaluation;
    no gradient flows through them. Divergences are built for every source
    under either weighting (`ones` runs still record
    them); only conditional weighting turns them into weight nodes, and
    `source_weight_nodes` gives a single source weight 1. The divergences
    build the target class means once and share them across sources (see
    `divergence_nodes`). Node order
    matters for bit-exact gradients: `Tape.backward` sums contributions
    into a shared embedding in reverse tape order, so the classification
    logits must come after the divergences, where `transformer_objective`
    creates them.
    """
    if weighting not in WEIGHTINGS:
        raise ConfigError(f"weighting must be one of {WEIGHTINGS}, got {weighting!r}")
    tape = Tape()
    model = lift(tape, params, "fg", trainable=True)
    emb = embed_task(model, tape, task)
    soft_logits = None
    if soft is None:
        soft_logits = classify(model, emb.target_unlabeled)
        soft = apply(_SOFT_LABELS, (soft_logits,))
    deltas = divergence_nodes(emb, task, soft)
    conditional = weighting == "conditional"
    weights = source_weight_nodes(deltas) if conditional else [1.0] * task.num_sources
    return EmbeddingPass(tape, model, emb, soft_logits, deltas, weights)


def transformer_objective(
    fwd: EmbeddingPass,
    discriminator: DiscriminatorParams,
    task: MultiSourceTask,
    *,
    beta: float,
    tau: float,
    lg_norm: str = "l1",
) -> TransformerObjective:
    """Finish the loss minimized over {transformers, classifier} on `fwd`'s tape.

    The discriminator is lifted as constants; under conditional weighting
    the weights are live nodes, so gradients reach the transformers both
    through the losses they scale and through the divergences themselves.
    """
    if lg_norm not in LG_NORMS:
        raise ConfigError(f"lg_norm must be one of {LG_NORMS}, got {lg_norm!r}")
    tape, emb, weights = fwd.tape, fwd.emb, fwd.weights
    model = lift(tape, replace(fwd.model, discriminator=discriminator), "d", trainable=False)
    cls = classification_loss(model, emb, task, weights, tau)
    cons = None
    if lg_norm in ("l1", "l2") and task.num_sources >= 1:
        cons = consistency_loss(model, lg_norm)
    inv = domain_loss(model, emb, weights, inverted=True)

    objective = cls
    if cons is not None:
        objective = objective + cons
    if beta > 0.0:
        objective = objective + beta * inv
    return TransformerObjective(objective, cls, cons, inv)


def build_discriminator_objective(
    params: ModelParams,
    emb: TaskEmbeddings,
    weights: Sequence[float | np.ndarray],
) -> Node:
    """The loss minimized over the discriminator alone, on its own tape.

    Only the discriminator is lifted, as trainable leaves; `emb`'s node
    values (read-only, so aliased) and the weights enter as constants, a
    float as a static scale and an array (a weight node's 0-d value) as a
    leaf, which a replay rebinds.
    """
    tape = Tape()
    model = lift(tape, params, "d", trainable=True)
    frozen = TaskEmbeddings([tape.constant(e.value) for e in emb.sources],
                            tape.constant(emb.target_labeled.value),
                            tape.constant(emb.target_unlabeled.value))
    weights = [w if isinstance(w, float) else tape.constant(w) for w in weights]
    return domain_loss(model, frozen, weights, inverted=False)
