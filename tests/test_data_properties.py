"""Property test: a domain file written by `save_domain_file` reads back
bit-exactly through `load_domain_file`.

Examples are drawn by hypothesis under the derandomized profile that
`conftest.py` loads, so every run checks the same cases.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from heteroadapt.data import DomainData, load_domain_file, save_domain_file  # noqa: E402
from heteroadapt.numerics import Tensor  # noqa: E402

# Signed zeros, the smallest subnormal and normal magnitudes and the
# largest finite doubles, mixed into arbitrary finite values.
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
         -1.7976931348623157e308, 1e-310, 1e300]
values = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def domains(draw):
    n, d, num_classes = draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    features = draw(hnp.arrays(np.float64, (n, d), elements=values))
    labels = None
    if draw(st.booleans()):
        labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, num_classes - 1)))
    return DomainData("domain", Tensor(features), labels, num_classes)


@given(domain=domains())
def test_domain_file_round_trip_is_bit_exact(domain):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "domain.txt"
        save_domain_file(domain, path)
        back = load_domain_file(path)
    assert back.features.shape == domain.features.shape
    assert back.features.array.tobytes() == domain.features.array.tobytes()
    assert back.num_classes == domain.num_classes
    if domain.labels is None:
        assert back.labels is None
    else:
        np.testing.assert_array_equal(back.labels, domain.labels)
