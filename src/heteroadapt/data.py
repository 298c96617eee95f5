"""Domain datasets: synthetic generation, file ingestion, splits.

The synthetic construction shares one latent class structure across
domains (class means drawn once in a low-dimensional latent space) and
makes each domain heterogeneous through its own random orthonormal
projection plus additive noise. File ingestion reads the whitespace
domain format: a `n d C` header line, then one `label f_1 .. f_d` row per
sample, label -1 meaning unlabeled. `cli` may call `load_domain_file` in
a child process; its result depends on nothing but the file.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import NoReturn

import numpy as np

from .errors import ConfigError, ParseError, ShapeError, check_fields
from .numerics import Tensor


@dataclass(frozen=True)
class DomainData:
    """One domain: features (n, d), optional labels in [0, C), class count."""

    name: str
    features: Tensor
    labels: np.ndarray | None
    num_classes: int

    def __post_init__(self):
        if self.num_classes < 1:
            raise ConfigError(f"domain {self.name!r}: class count must be positive")
        if self.labels is not None:
            labels = _class_labels(self.labels, self.n, self.num_classes, self.name, "labels")
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def class_counts(self) -> np.ndarray:
        if self.labels is None:
            raise ConfigError(f"domain {self.name!r} has no labels")
        return np.bincount(self.labels, minlength=self.num_classes)


def _class_labels(values, n: int, num_classes: int, domain: str, field: str) -> np.ndarray:
    """`values` as n int64 classes, by the domain file's rule: each an integer
    (`2.0` too; not a fraction, non-finite or boolean) in [0, num_classes),
    in a read-only array of the domain's own."""
    raw = np.asarray(values)
    if raw.shape != (n,):
        raise ConfigError(f"domain {domain!r}: {field} of shape {raw.shape} for {n} samples")
    integral = raw.dtype.kind in "iu" or raw.dtype.kind == "f" and np.all(raw == np.trunc(raw))
    if not integral or n and (raw.min() < 0 or raw.max() >= num_classes):  # nan, inf fail
        raise ConfigError(f"domain {domain!r}: {field} must be integers in [0, {num_classes})")
    labels = raw.astype(np.int64)  # the domain's own copy, which no caller can write
    labels.setflags(write=False)
    return labels


@dataclass(frozen=True)
class MultiSourceTask:
    """K labeled sources plus a labeled/unlabeled target split.

    Ground-truth labels of the unlabeled split live only in `eval_labels`,
    a sealed field for accuracy evaluation; `target_unlabeled.labels` is
    always None, so training code cannot reach them. The constructor
    checks every invariant the model and training rely on; `build` only
    seals the unlabeled split's labels away first.
    """

    sources: tuple[DomainData, ...]
    target_labeled: DomainData
    target_unlabeled: DomainData
    eval_labels: np.ndarray | None

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(self.sources))
        labeled, unlabeled = self.target_labeled, self.target_unlabeled
        C = labeled.num_classes
        for d in (*self.sources, labeled, unlabeled):
            if d.num_classes != C:
                raise ConfigError(
                    f"domain {d.name!r} has {d.num_classes} classes, expected {C}"
                )
        for k, s in enumerate(self.sources):
            if s.labels is None:
                raise ConfigError(f"source {k} ({s.name!r}) must be labeled")
            counts = s.class_counts()
            if counts.min() < 1:
                raise ConfigError(
                    f"source {k} ({s.name!r}) has no samples of class {int(counts.argmin())}"
                )
        if unlabeled.dim != labeled.dim:
            raise ShapeError(f"target halves differ in width: {labeled.name!r} has "
                             f"{labeled.dim}, {unlabeled.name!r} has {unlabeled.dim}")
        if labeled.labels is None:
            raise ConfigError("target labeled split must carry labels")
        if labeled.class_counts().min() < 1:
            missing = int(labeled.class_counts().argmin())
            raise ConfigError(f"target labeled split has no samples of class {missing}")
        if unlabeled.labels is not None:
            raise ConfigError(f"target unlabeled split {unlabeled.name!r} must not carry "
                              "labels; pass them as eval_labels or use MultiSourceTask.build")
        if self.eval_labels is not None:
            object.__setattr__(self, "eval_labels", _class_labels(
                self.eval_labels, unlabeled.n, C, unlabeled.name, "eval_labels"))

    @classmethod
    def build(
        cls,
        sources: tuple[DomainData, ...] | list[DomainData],
        target_labeled: DomainData,
        target_unlabeled: DomainData,
    ) -> "MultiSourceTask":
        """Seal the unlabeled split's labels away and validate the task."""
        sealed = replace(target_unlabeled, labels=None)
        return cls(sources, target_labeled, sealed, target_unlabeled.labels)

    def require_eval_labels(self) -> None:
        """Reject a task whose unlabeled split cannot be scored."""
        if self.eval_labels is None:
            raise ConfigError("target unlabeled split carries no held-out labels to evaluate")

    @property
    def num_sources(self) -> int:
        return len(self.sources)

    @property
    def num_classes(self) -> int:
        return self.target_labeled.num_classes


# -- synthetic generation ------------------------------------------------------


@dataclass(frozen=True)
class SynthSpec:
    """Knobs for the shared-latent synthetic construction.

    The last generated domain is the target, sized to cover the labeled
    split plus the requested unlabeled pool.
    """

    source_dims: tuple[int, ...] = (16, 24)
    target_dim: int = 32
    classes: int = 3
    latent_dim: int = 10
    samples_per_class: int = 100
    target_labeled_per_class: int = 3
    target_unlabeled: int = 500
    spread: float = 0.5
    noise: float = 0.1
    seed: int = 0
    standardize: bool = True

    def __post_init__(self):
        check_fields(self)
        if self.latent_dim < 1 or self.classes < 1:
            raise ConfigError("latent dimension and class count must be positive")
        for d in (*self.source_dims, self.target_dim):
            if d < 1:
                raise ConfigError(f"domain dimensions must be positive, got {d}")
        if self.samples_per_class < 1 or self.target_labeled_per_class < 1:
            raise ConfigError("per-class sample counts must be positive")
        if self.target_unlabeled < 0:
            raise ConfigError("unlabeled count cannot be negative")
        if self.spread <= 0 or self.noise < 0:
            raise ConfigError("spread must be positive and noise non-negative")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


@dataclass(frozen=True)
class SynthBundle:
    """Generated domains plus the latent maps, for oracle-style checks."""

    sources: tuple[DomainData, ...]
    target: DomainData
    projections: tuple[np.ndarray, ...]  # (d_k, latent) with orthonormal columns, target last
    class_means: np.ndarray  # (C, latent)


def _target_class_counts(spec: SynthSpec) -> list[int]:
    base = spec.target_labeled_per_class + spec.target_unlabeled // spec.classes
    counts = [base] * spec.classes
    for c in range(spec.target_unlabeled % spec.classes):
        counts[c] += 1
    return counts


def _generate_domain(name, dim, class_counts, means, spec, rng) -> tuple[DomainData, np.ndarray]:
    if dim < spec.latent_dim:
        raise ConfigError(
            f"domain dimension {dim} is below the latent dimension {spec.latent_dim}"
        )
    basis, _ = np.linalg.qr(rng.normal(size=(dim, spec.latent_dim)))
    rows, labels = [], []
    for c, count in enumerate(class_counts):
        latent = means[c] + spec.spread * rng.normal(size=(count, spec.latent_dim))
        x = latent @ basis.T
        if spec.noise > 0:
            x = x + spec.noise * rng.normal(size=x.shape)
        rows.append(x)
        labels.append(np.full(count, c, dtype=np.int64))
    domain = DomainData(
        name, Tensor(np.concatenate(rows)), np.concatenate(labels), spec.classes
    )
    if spec.standardize:
        domain = standardize(domain)
    return domain, basis


def synthesize(spec: SynthSpec) -> SynthBundle:
    """Deterministically generate all domains of a synthetic task."""
    root = np.random.SeedSequence(spec.seed)
    mean_seed, *domain_seeds = root.spawn(1 + len(spec.source_dims) + 1)
    means = np.random.default_rng(mean_seed).normal(size=(spec.classes, spec.latent_dim))
    sources, projections = [], []
    for k, d in enumerate(spec.source_dims):
        rng = np.random.default_rng(domain_seeds[k])
        domain, basis = _generate_domain(
            f"source_{k}", d, [spec.samples_per_class] * spec.classes, means, spec, rng
        )
        sources.append(domain)
        projections.append(basis)
    rng = np.random.default_rng(domain_seeds[-1])
    target, basis = _generate_domain(
        "target", spec.target_dim, _target_class_counts(spec), means, spec, rng
    )
    projections.append(basis)
    return SynthBundle(tuple(sources), target, tuple(projections), means)


def generate_synthetic_domains(spec: SynthSpec) -> list[DomainData]:
    """All generated domains; the target domain is the final entry."""
    bundle = synthesize(spec)
    return [*bundle.sources, bundle.target]


def generate_noise_domain(dim: int, n: int, num_classes: int, seed: int) -> DomainData:
    """Standard-normal features with labels drawn independently of them."""
    if dim < 1 or n < 1 or num_classes < 1:
        raise ConfigError("noise domain needs positive dim, count, and classes")
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, dim))
    labels = rng.integers(0, num_classes, size=n).astype(np.int64)
    return DomainData(f"noise_{dim}d", Tensor(features), labels, num_classes)


def synthetic_task(spec: SynthSpec, num_sources: int | None = None,
                   split_seed: int | None = None) -> MultiSourceTask:
    """Generate, split the target, and assemble a ready-to-train task."""
    bundle = synthesize(spec)
    if num_sources is not None and num_sources > len(bundle.sources):
        raise ConfigError(
            f"requested {num_sources} sources but the spec generates {len(bundle.sources)}"
        )
    sources = bundle.sources if num_sources is None else bundle.sources[:num_sources]
    labeled, unlabeled = split_target(
        bundle.target,
        spec.target_labeled_per_class,
        spec.seed if split_seed is None else split_seed,
    )
    return MultiSourceTask.build(sources, labeled, unlabeled)


# -- sampling protocol ----------------------------------------------------------


def split_target(domain: DomainData, labeled_per_class: int, seed: int):
    """Per-class draw without replacement: (labeled split, unlabeled rest).

    Both halves keep their labels; task assembly seals the unlabeled ones.
    """
    if domain.labels is None:
        raise ConfigError(f"cannot split unlabeled domain {domain.name!r}")
    if labeled_per_class < 1:
        raise ConfigError("labeled_per_class must be positive")
    rng = np.random.default_rng(seed)
    labeled_idx, unlabeled_idx = [], []
    for c in range(domain.num_classes):
        members = np.flatnonzero(domain.labels == c)
        if members.size <= labeled_per_class:
            raise ConfigError(
                f"class {c} has {members.size} samples, need more than {labeled_per_class}"
            )
        order = rng.permutation(members)
        labeled_idx.append(order[:labeled_per_class])
        unlabeled_idx.append(order[labeled_per_class:])
    labeled_idx = np.sort(np.concatenate(labeled_idx))
    unlabeled_idx = np.sort(np.concatenate(unlabeled_idx))
    feats = domain.features.array
    labeled = DomainData(
        f"{domain.name}_labeled",
        Tensor(feats[labeled_idx]),
        domain.labels[labeled_idx],
        domain.num_classes,
    )
    unlabeled = DomainData(
        f"{domain.name}_unlabeled",
        Tensor(feats[unlabeled_idx]),
        domain.labels[unlabeled_idx],
        domain.num_classes,
    )
    return labeled, unlabeled


def standardize(domain: DomainData) -> DomainData:
    """Per-feature z-score with the domain's own statistics.

    Zero-variance features map to exactly 0.
    """
    if domain.n < 2:
        raise ConfigError(f"standardize needs at least 2 samples, domain {domain.name!r} has {domain.n}")
    feats = domain.features.array
    mean = feats.mean(axis=0)
    std = feats.std(axis=0)
    centered = feats - mean
    out = np.divide(centered, std, out=np.zeros_like(centered), where=std > 0)
    return replace(domain, features=Tensor(out))


# -- domain file format -----------------------------------------------------------


def save_domain_file(domain: DomainData, path) -> None:
    """Write `n d C` then one `label f_1 .. f_d` row per sample.

    Floats get 17 significant digits so reading them back is lossless.
    """
    labels = np.full(domain.n, -1) if domain.labels is None else domain.labels
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(f"{domain.n} {domain.dim} {domain.num_classes}\n")
        np.savetxt(fh, np.column_stack([labels, domain.features.array]),
                   fmt=["%d"] + ["%.17g"] * domain.dim)


def load_domain_file(path) -> DomainData:
    """Parse a domain file; all labels -1 means an unlabeled domain.

    One `np.loadtxt` call parses the body; only a malformed body is read
    again, row by row, to name its first bad line.
    """
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        first, has_rows = fh.readline().strip(), any(line.strip() for line in fh)
    if not first:
        raise ParseError(f"{path}: missing header", line=1)
    header = first.split()
    if len(header) != 3:
        raise ParseError(f"{path}: header must be 'n d C', got {first!r}", line=1)
    try:
        n, d, num_classes = (int(v) for v in header)
    except ValueError:
        raise ParseError(f"{path}: header fields must be integers, got {first!r}", line=1)
    if n < 1 or d < 1 or num_classes < 1:
        raise ParseError(f"{path}: header values must be positive", line=1)
    if not has_rows:  # loadtxt would only warn about an empty body
        _raise_first_bad_row(path, n, d, num_classes, "no rows")
    try:
        table = np.loadtxt(path, dtype=np.float64, skiprows=1, comments=None, ndmin=2,
                           encoding="utf-8")
    except ValueError as exc:
        _raise_first_bad_row(path, n, d, num_classes, str(exc))
    raw = table[:, 0]
    bad_labels = (raw != np.trunc(raw)) | (raw < -1) | (raw >= num_classes)
    unlabeled = raw == -1
    if (table.shape != (n, d + 1) or np.any(bad_labels)
            or not np.all(np.isfinite(table[:, 1:])) or np.any(unlabeled != unlabeled[0])):
        _raise_first_bad_row(path, n, d, num_classes, f"body has shape {table.shape}")
    labels = None if unlabeled[0] else raw.astype(np.int64)
    return DomainData(path.stem, Tensor(table[:, 1:]), labels, num_classes)


def _raise_first_bad_row(path: Path, n: int, d: int, num_classes: int, fallback: str) -> NoReturn:
    """Raise the `ParseError` of the first row rule the body breaks.

    Lines are numbered as in the file, blank ones included, and each row
    is converted by numpy's reader, as the body parse converts it. If no
    rule names a line, the error carries `fallback`.
    """
    with path.open(encoding="utf-8") as fh:
        lines = fh.readlines()
    body = [(i, ln) for i, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(body) != n:
        raise ParseError(f"{path}: header promises {n} rows, found {len(body)}", line=len(lines))
    kinds = set()  # whether a row is unlabeled, over the rows so far
    for lineno, line in body:
        parts = line.split()
        if len(parts) != d + 1:
            raise ParseError(
                f"{path}: row has {len(parts) - 1} features, expected {d}", line=lineno
            )
        try:
            label, *features = np.loadtxt([line], dtype=np.float64, comments=None, ndmin=1)
        except ValueError as exc:  # numpy's own position would count rows of this one line
            reason = str(exc).rsplit(" at row", 1)[0]
            raise ParseError(f"{path}: non-numeric value in row ({reason})", line=lineno) from None
        if not label.is_integer():
            raise ParseError(f"{path}: label {parts[0]} is not an integer", line=lineno)
        if label < -1 or label >= num_classes:
            raise ParseError(f"{path}: label {parts[0]} outside [-1, {num_classes})", line=lineno)
        if not np.all(np.isfinite(features)):
            raise ParseError(f"{path}: non-finite feature values", line=lineno)
        kinds.add(label == -1)
        if len(kinds) > 1:
            raise ParseError(f"{path}: mixes labeled and unlabeled rows; split them into "
                             "separate files", line=lineno)
    raise ParseError(f"{path}: {fallback}")
