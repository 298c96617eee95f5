"""Exception types shared across the package, and the config field check."""

import math
import numbers
from dataclasses import fields


class ShapeError(ValueError):
    """Tensor ranks or dimensions do not line up for an operation."""


class ConfigError(ValueError):
    """A task, spec, or configuration violates a precondition."""


class ParseError(ValueError):
    """A domain file is malformed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class NonFiniteError(ValueError):
    """A loss, divergence or gradient came out NaN or infinite.

    `position` indexes the parameter (in the tape's parameter order) whose
    gradient it is; `train` adds the `iteration` and the `records`
    completed before it.
    """

    def __init__(self, quantity: str, *, position=None, iteration=None, records=()):
        super().__init__(quantity)
        self.quantity, self.position = quantity, position
        self.iteration, self.records = iteration, list(records)

    def __str__(self) -> str:  # read from the attributes, which unpickling restores
        where = "" if self.iteration is None else f"iteration {self.iteration}: "
        return f"{where}{self.quantity} is not finite"


def check_fields(config) -> None:
    """Raise `ConfigError` naming the first field of the dataclass `config`
    that holds a non-finite float, or a non-integer (a `bool` included) in
    an `int` field or among a `tuple[int, ...]` field's entries.

    Field types are matched as the strings that `from __future__ import
    annotations` leaves in `dataclasses.fields`.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")
        ints = {"int": (value,), "tuple[int, ...]": value}.get(f.type, ())
        if any(isinstance(v, bool) or not isinstance(v, numbers.Integral) for v in ints):
            raise ConfigError(f"{f.name} must be an integer, got {value!r}")
