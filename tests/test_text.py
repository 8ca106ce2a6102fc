"""Payload text: the cell and JSON rules, and the array formatters against
'%.17g' and '%d' one value at a time."""

import io
from fractions import Fraction

import numpy as np
import pytest

from graphnodal import (
    _text,
    adjacency_matrix,
    eigendecompose,
    laplacian_matrix,
    sample_gnp,
    substream,
)
from graphnodal.spectral import write_spectrum_csv


def test_cell_rule():
    assert _text.cell(None) == _text.cell(None, 17) == ""
    assert (_text.cell(True), _text.cell(False)) == ("true", "false")
    assert _text.cell(1 / 3) == "0.3333333333" == "%.10g" % (1 / 3)
    assert _text.cell(1 / 3, 17) == "0.33333333333333331" == "%.17g" % (1 / 3)
    assert _text.cell(0.1) == "0.1" and _text.cell(0.1, 17) == "0.10000000000000001"
    assert _text.cell(np.float64(2 / 3)) == "0.6666666667"
    assert _text.cell(np.float64(2 / 3), 17) == "%.17g" % (2 / 3)
    assert _text.cell(1e-7) == "1e-07" and _text.cell(2.0) == "2"
    assert _text.cell(np.int64(12345678901)) == _text.cell(12345678901, 17) == "12345678901"
    assert _text.cell("0;1;2") == "0;1;2"


def test_rounded_keeps_ten_digits_and_turns_tuples_into_lists():
    value = {"a": (1 / 3, {"b": (np.float64(2 / 3), 7)}), "c": [None, True, "x"],
             "d": np.int64(5)}
    out = _text.rounded(value)
    assert out == {"a": [0.3333333333, {"b": [0.6666666667, 7]}], "c": [None, True, "x"],
                   "d": 5}
    assert type(out["a"][1]["b"][0]) is float
    assert type(out["a"][1]["b"][1]) is int and type(out["d"]) is np.int64
    assert out["c"][1] is True
    assert 0.1 + 0.2 != 0.3 and _text.rounded(0.1 + 0.2) == 0.3
    assert _text.rounded(float("inf")) == float("inf")


def reference_g17(values, seps):
    return "".join("%.17g" % x + chr(s) for x, s in zip(values.tolist(), seps.tolist()))


def check_g17(values):
    values = np.asarray(values, dtype=np.float64).ravel()
    seps = np.where(np.arange(values.size) % 3 == 2, ord("\n"), ord(","))
    assert _text.g17_text(values, seps) == reference_g17(values, seps)


def test_g17_on_any_double():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=400, deadline=None, database=None)
    @hypothesis.given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                               min_size=1, max_size=40))
    def check(values):
        check_g17(values)

    check()


def test_g17_on_every_binary_exponent():
    rng = np.random.default_rng(0)
    exponents = np.repeat(np.arange(-1074, 1024), 3)
    mantissas = rng.random(exponents.size) + 0.5
    values = np.ldexp(mantissas, exponents)
    values[::2] *= -1
    check_g17(np.concatenate((values, [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan])))


def test_g17_next_to_every_power_of_ten():
    # the fixed-notation range and one decade on each side of it
    values = []
    for k in range(-6, 19):
        below = above = float(f"1e{k}")
        values.append(below)
        for _ in range(40):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            values += [below, above]
    values = np.array(values)
    check_g17(np.concatenate((values, -values)))


def test_g17_on_exact_ties():
    # x = m / 2^(s+1) with m odd and x in [10^(16-s), 10^(17-s)): x 10^s is
    # a half-integer, so the 17th digit rounds half to even
    rng = np.random.default_rng(1)
    values = []
    for s in range(1, 21):
        low = -(-(2 ** (s + 1) * 10**16) // 10**s)
        high = min(2 ** (s + 1) * 10**17 // 10**s, 2**53)
        odd = rng.integers(low // 2, high // 2, 20) * 2 + 1
        ties = [float(Fraction(int(m), 2 ** (s + 1))) for m in odd]
        assert all((Fraction(x) * 10**s).denominator == 2 for x in ties)
        values += ties
    check_g17(np.array(values))
    check_g17(-np.array(values))


def test_g17_on_whole_numbers_and_eigenvectors():
    rng = np.random.default_rng(2)
    whole = np.concatenate((
        rng.integers(0, 10**17, 2000).astype(np.float64),
        2.0**53 + np.arange(-50, 50), np.arange(1, 1001), 10.0 ** np.arange(17),
    ))
    check_g17(whole)
    check_g17(-whole)
    spectrum = eigendecompose(laplacian_matrix(sample_gnp(60, 0.1, substream(3, "text"))))
    check_g17(spectrum.eigenvectors)
    check_g17(spectrum.eigenvalues)
    check_g17(rng.standard_normal(5000) / 30)


def test_int_text_matches_percent_d():
    rng = np.random.default_rng(3)
    bounds = 10 ** np.arange(12)
    values = np.concatenate((
        rng.integers(0, 10**12, 3000), bounds, bounds - 1, bounds[1:] + 1, [0, 3_037_000_499],
    ))
    seps = np.where(np.arange(values.size) % 2, ord("\n"), ord(" "))
    expected = "".join("%d" % x + chr(s) for x, s in zip(values.tolist(), seps.tolist()))
    assert _text.int_text(values, seps) == expected
    assert _text.int_text(np.array([], dtype=np.int64), np.array([], dtype=np.uint8)) == ""


def test_pack_keeps_every_span_of_a_row():
    # one row for each span (start, stop), start <= stop, of the 32 columns,
    # and the rows of the spans inside columns 5 to 20, where _pack drops the
    # columns no row keeps
    rng = np.random.default_rng(5)
    width = _text._COLUMNS.size
    start, stop = np.triu_indices(width)
    inner = (start >= 5) & (stop <= 20)
    for first, last in ((start, stop), (start[inner], stop[inner])):
        rows = rng.integers(ord("!"), ord("~") + 1, (first.size, width), dtype=np.uint8)
        expected = "".join(row[a:b + 1].tobytes().decode("ascii")
                           for row, a, b in zip(rows, first.tolist(), last.tolist()))
        assert _text._pack(rows, first, last) == expected
    assert _text._pack(np.zeros((0, width), dtype=np.uint8), start[:0], stop[:0]) == ""

def test_spectrum_writer_takes_the_array_path(monkeypatch):
    # '%.17g' one value at a time is the slow path.  On a G(200,1/2) spectrum
    # the coordinates that take it are those below 1e-4 in magnitude, about
    # n/4 of them; the rest are each row's index and its eigenvalue when that
    # is at least 1 in magnitude
    g = sample_gnp(200, 0.5, substream(4, "text"))
    spectrum = eigendecompose(adjacency_matrix(g))
    fallback = _text._fallback
    sent = []
    monkeypatch.setattr(_text, "_fallback",
                        lambda values: sent.extend(values.tolist()) or fallback(values))
    buf = io.StringIO()
    write_spectrum_csv(spectrum, buf)
    sent = np.abs(sent)
    assert (sent < 1).sum() <= g.n
    assert not ((sent >= 1e-4) & (sent < 1)).any()
    big = np.abs(spectrum.eigenvalues)
    expected = np.concatenate((np.arange(1, g.n + 1), big[big >= 1]))
    assert sorted(sent[sent >= 1]) == sorted(expected)
    assert buf.getvalue().count(",") == g.n * (g.n + 1)
