"""The array formatters against '%.17g' and '%d' one value at a time."""

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


def test_spectrum_writer_takes_the_array_path(monkeypatch):
    # '%.17g' one value at a time is the slow path; on a G(200,1/2) spectrum
    # only coordinates below 1e-4 in magnitude take it, about n/4 of them
    g = sample_gnp(200, 0.5, substream(4, "text"))
    spectrum = eigendecompose(adjacency_matrix(g))
    fallback = _text._fallback
    calls = []
    monkeypatch.setattr(_text, "_fallback",
                        lambda values: calls.append(values.size) or fallback(values))
    buf = io.StringIO()
    write_spectrum_csv(spectrum, buf)
    assert sum(calls) <= g.n
    assert buf.getvalue().count(",") == g.n * (g.n + 1)
