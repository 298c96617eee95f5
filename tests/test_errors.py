"""The package's exceptions: exported from the package root, and unchanged
across a process boundary."""

import inspect
import pickle

import pytest

import heteroadapt
from heteroadapt import errors
from heteroadapt.errors import ConfigError, NonFiniteError, ParseError, ShapeError
from heteroadapt.training import IterationRecord

RECORD = IterationRecord(0, 1.5, 0.25, 0.5, 0.75, (0.1, 0.2), (0.4, 0.6), 0.9)

EXAMPLES = [
    ShapeError("x is (2, 3), w is (4, 5)"),
    ConfigError("source file a.txt has no labels"),
    ParseError("a.txt: non-finite feature values", line=7),
    ParseError("a.txt: body has shape (2, 4)"),
    NonFiniteError("delta_1"),
    NonFiniteError("delta_1", iteration=4, records=[RECORD]),
    NonFiniteError("gradient of parameter 3", position=3),
]


@pytest.mark.parametrize("exc", EXAMPLES, ids=lambda e: f"{type(e).__name__}:{e}")
def test_pickling_keeps_message_and_attributes(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)


def _defined():
    return {obj for _, obj in inspect.getmembers(errors, inspect.isclass)
            if issubclass(obj, Exception) and obj.__module__ == errors.__name__}


def test_examples_cover_every_error_class():
    assert _defined() == {type(e) for e in EXAMPLES}


def test_package_root_exports_every_error_class():
    for cls in _defined():
        assert cls.__name__ in heteroadapt.__all__
        assert getattr(heteroadapt, cls.__name__) is cls
