"""Property tests of the domain file format: a file written by
`save_domain_file` reads back bit-exactly through `load_domain_file` and
has the bytes of the per-value writer it replaced, and a malformed row is
named by its line in the file, blank lines included.

Examples are drawn by hypothesis under the derandomized profile that
`conftest.py` loads, so every run checks the same cases.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from oracles import fstring_save_domain_file

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from heteroadapt.data import DomainData, load_domain_file, save_domain_file  # noqa: E402
from heteroadapt.errors import ParseError  # noqa: E402
from heteroadapt.numerics import Tensor  # noqa: E402

# Signed zeros, the smallest subnormal and normal magnitudes and the
# largest finite doubles, mixed into arbitrary finite values (subnormals
# and -0.0 included: byte comparison tells -0.0 from 0.0).
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
         -1.7976931348623157e308, 1e-310, 1e300, 1e16, 1e17]
values = st.one_of(st.sampled_from(EDGES),
                   st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True))


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
        fstring_save_domain_file(domain, Path(tmp) / "oracle.txt")
        assert path.read_bytes() == (Path(tmp) / "oracle.txt").read_bytes()
        back = load_domain_file(path)
    assert back.features.shape == domain.features.shape
    assert back.features.array.tobytes() == domain.features.array.tobytes()
    assert back.num_classes == domain.num_classes
    if domain.labels is None:
        assert back.labels is None
    else:
        np.testing.assert_array_equal(back.labels, domain.labels)


# (rule the row breaks, row text for d features and C classes)
BAD_ROWS = {
    "short": ("row has", lambda d, c: "0" + " 1.5" * (d - 1)),
    "long": ("row has", lambda d, c: "0" + " 1.5" * (d + 1)),
    "non-numeric": ("non-numeric", lambda d, c: "0" + " 1.5" * (d - 1) + " x"),
    "fractional label": ("not an integer", lambda d, c: "1.5" + " 1.5" * d),
    "label equal to C": ("outside", lambda d, c: str(c) + " 1.5" * d),
}


@given(n=st.integers(1, 6), d=st.integers(1, 4), num_classes=st.integers(2, 4),
       data=st.data(), kind=st.sampled_from(sorted(BAD_ROWS)))
def test_malformed_row_is_named_by_its_file_line(n, d, num_classes, data, kind):
    match, bad_row = BAD_ROWS[kind]
    rows = [f"{i % num_classes}" + " 0.25" * d for i in range(n)]
    bad = data.draw(st.integers(0, n - 1), label="bad row")
    rows[bad] = bad_row(d, num_classes)
    lines, bad_line = [f"{n} {d} {num_classes}"], None
    for i, row in enumerate(rows):
        lines += [" \t"] * data.draw(st.integers(0, 2), label=f"blank lines before row {i}")
        lines.append(row)
        if i == bad:
            bad_line = len(lines)
    lines += [""] * data.draw(st.integers(0, 2), label="trailing blank lines")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bad.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=match) as err:
            load_domain_file(path)
    assert err.value.line == bad_line
