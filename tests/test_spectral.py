"""Eigendecomposition conventions, certificates, and determinism."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from graphnodal import (
    Graph,
    ParameterError,
    adjacency_matrix,
    certified_top_vector,
    eigendecompose,
    laplacian_matrix,
    operator_norm,
    sample_gnp,
    sample_regular,
    substream,
    weak_nodal_domains,
)
from graphnodal import spectral
from graphnodal.spectral import (
    Spectrum,
    _fixed_columns,
    _norm_above,
    _residual_above,
    _second_below,
    _sign_bound,
    _signs_certain,
    write_spectrum_csv,
)


def test_k2_eigensystem():
    # adjacency of a single edge: eigenvalues 1, -1, top vector (1,1)/sqrt(2)
    spectrum = eigendecompose(adjacency_matrix(Graph.from_edges(2, [(0, 1)])))
    assert np.allclose(spectrum.eigenvalues, [1.0, -1.0])
    assert np.allclose(spectrum.vector(0), [1 / np.sqrt(2), 1 / np.sqrt(2)])
    # sign convention: the second vector's leading coordinate is positive
    assert spectrum.vector(1)[0] > 0


def test_k3_eigenvalues():
    g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    spectrum = eigendecompose(adjacency_matrix(g))
    assert np.allclose(spectrum.eigenvalues, [2.0, -1.0, -1.0])
    # Perron vector of a connected graph is strictly positive
    assert (spectrum.vector(0) > 0).all()


def test_triangle_laplacian():
    g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    spectrum = eigendecompose(laplacian_matrix(g), "ascending")
    assert np.allclose(spectrum.eigenvalues, [0.0, 3.0, 3.0], atol=1e-12)
    # the kernel is spanned by the constant vector
    v0 = spectrum.vector(0)
    assert np.allclose(v0, np.full(3, v0[0]))
    assert v0[0] > 0


def test_orderings_are_reverses():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    a = adjacency_matrix(g)
    desc = eigendecompose(a, "descending")
    asc = eigendecompose(a, "ascending")
    assert np.allclose(desc.eigenvalues, asc.eigenvalues[::-1])
    with pytest.raises(ValueError):
        eigendecompose(a, "up")


def test_input_validation():
    with pytest.raises(ValueError):
        eigendecompose(np.array([[0.0, 1.0], [0.5, 0.0]]))  # asymmetric
    with pytest.raises(ValueError):
        eigendecompose(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        eigendecompose(np.zeros((2, 3)))


def test_certificates_refuse_a_wrong_eigensystem(monkeypatch):
    a = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
    eigh = np.linalg.eigh
    # eigenvalues off by 1e-6 leave residuals of 1e-6 per vector
    monkeypatch.setattr(np.linalg, "eigh", lambda m: (eigh(m)[0] + 1e-6, eigh(m)[1]))
    with pytest.raises(RuntimeError, match=r"^eigendecomposition residual 1\.000e-06 exceeds"):
        eigendecompose(a)

    def repeated(m):
        # the first eigenpair twice: each pair is exact, the two vectors equal
        w, v = eigh(m)
        return np.r_[w[0], w[0], w[2]], v[:, [0, 0, 2]]

    monkeypatch.setattr(np.linalg, "eigh", repeated)
    with pytest.raises(RuntimeError, match=r"^eigenvector orthogonality defect 1\.000e\+00 exceeds"):
        eigendecompose(a, "ascending")


def test_argument_refusals():
    with pytest.raises(ParameterError, match="^ordering must be 'descending' or 'ascending', "
                                             "got 'sideways'$"):
        eigendecompose(np.eye(2), "sideways")
    with pytest.raises(ValueError, match=r"^expected a matrix, got shape \(3,\)$"):
        operator_norm(np.ones(3))
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        operator_norm(np.array([[1.0, np.inf]]))
    assert operator_norm(np.zeros((0, 4))) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_are_refused_before_asymmetry(bad):
    symmetric = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    asymmetric = symmetric + np.triu(np.ones((3, 3)), 1)
    for a in (symmetric, asymmetric):
        for i, j in ((0, 0), (0, 2), (2, 1)):
            m = a.copy()
            m[i, j] = bad
            with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                eigendecompose(m)
    with pytest.raises(ValueError, match="^matrix must be exactly symmetric$"):
        eigendecompose(asymmetric)


def test_finite_entries_whose_norm_overflows_are_accepted():
    # ||A||_F overflows to inf, which alone must not read as a non-finite entry
    for a in (np.diag([1e200, -1e200, 3e200]), np.full((3, 3), 1e200)):
        with np.errstate(over="ignore"):
            assert np.linalg.norm(a) == np.inf
            spectrum = eigendecompose(a)
        assert spectrum.eigenvalues[0] == pytest.approx(3e200)


def _certificate_matrices():
    for i, n in enumerate((2, 31, 120)):
        yield "gnp", adjacency_matrix(sample_gnp(n, 0.5, substream(40, "cert-gnp", i)))
        yield "laplacian", laplacian_matrix(sample_gnp(n, 0.1, substream(40, "cert-lap", i)))
    for i, n in enumerate((4, 30, 120)):
        yield "regular", adjacency_matrix(sample_regular(n, 3, substream(40, "cert-reg", i)))


@pytest.mark.parametrize("ordering", ["descending", "ascending"])
def test_certificates_equal_a_plain_recomputation(ordering):
    for kind, a in _certificate_matrices():
        spectrum = eigendecompose(a, ordering)
        w, v = spectrum.eigenvalues, spectrum.eigenvectors
        residuals = np.linalg.norm(a @ v - v * w, axis=0)
        assert np.array_equal(spectrum.residuals, residuals), (kind, a.shape)
        assert spectrum.residual_bound == residuals.max()
        assert spectrum.orthogonality_defect == np.abs(v.T @ v - np.eye(a.shape[0])).max()
        assert not spectrum.residuals.flags.writeable


def test_certificates_on_random_symmetric_matrices():
    gen = substream(31, "cert").generator()
    for trial in range(20):
        n = int(gen.integers(2, 60))
        m = gen.uniform(-1.0, 1.0, size=(n, n))
        a = (m + m.T) / 2.0
        spectrum = eigendecompose(a)
        assert spectrum.residual_bound <= 1e-8 * (1.0 + np.linalg.norm(a))
        assert spectrum.orthogonality_defect <= 1e-8
        # trace identity
        assert abs(spectrum.eigenvalues.sum() - np.trace(a)) <= 1e-6 * max(1.0, abs(np.trace(a)))


def test_largest_coordinate_of_each_vector_is_positive():
    gen = substream(12, "signs").generator()
    m = gen.uniform(-1.0, 1.0, size=(30, 30))
    vectors = eigendecompose((m + m.T) / 2.0).eigenvectors
    lead = np.abs(vectors).argmax(axis=0)
    assert (vectors[lead, np.arange(30)] > 0).all()


def _lead_signs(vectors):
    """The sign of each column's first largest-|.| coordinate, +1 for 0."""
    lead = vectors[np.abs(vectors).argmax(axis=0), np.arange(vectors.shape[1])]
    return np.where(lead < 0, -1.0, 1.0)


@pytest.mark.parametrize("ordering", ["ascending", "descending"])
def test_fixed_columns_flip_by_the_first_largest_coordinate(ordering):
    # +a before -a, -a before +a, a zero column (with a -0.0), and a
    # largest coordinate of either sign without a tie
    hand = np.array([[0.5, -0.5, 0.1], [-0.5, 0.5, 0.1], [-0.0, 0.0, 0.0],
                     [0.1, -0.9, 0.3], [0.1, 0.9, -0.3]]).T
    gen = substream(14, "fixed-columns").generator()
    cases = [(hand, [1.0, -1.0, 1.0, -1.0, 1.0])]
    cases += [(np.linalg.eigh(m + m.T)[1], None)
              for m in (gen.standard_normal((n, n)) for n in (1, 2, 7, 40))]
    # small integers tie +a and -a in many columns
    cases.append((gen.integers(-2, 3, size=(5, 200)).astype(float), None))
    for vectors, signs in cases:
        signs = _lead_signs(vectors) if signs is None else np.array(signs)
        want = vectors * signs
        if ordering == "descending":
            want = want[:, ::-1]
        got = _fixed_columns(vectors.copy(), ordering)
        assert got.tobytes() == want.tobytes()


def test_bit_identical_determinism():
    gen = substream(8, "det").generator()
    m = gen.uniform(-1.0, 1.0, size=(25, 25))
    a = (m + m.T) / 2.0
    s1 = eigendecompose(a)
    s2 = eigendecompose(a.copy())
    assert s1.eigenvalues.tobytes() == s2.eigenvalues.tobytes()
    assert s1.eigenvectors.tobytes() == s2.eigenvectors.tobytes()


def test_tie_ordering_is_lexicographic():
    # identity: all eigenvalues equal, so columns are sorted lexicographically
    spectrum = eigendecompose(np.eye(3))
    cols = [tuple(spectrum.vector(i)) for i in range(3)]
    assert cols == sorted(cols)
    # eigh on a diagonal matrix returns +/- e_i columns; after the sign fix
    # each is e_i exactly, and the equal-run reorder keeps a fixed answer
    spec2 = eigendecompose(np.diag([2.0, 2.0, 1.0]), "descending")
    assert np.allclose(sorted(tuple(spec2.vector(i)) for i in range(2)),
                       [(0, 1, 0), (1, 0, 0)])


@pytest.mark.parametrize("ordering", ["ascending", "descending"])
def test_tie_ordering_of_an_edgeless_graph(ordering):
    # every eigenvalue of an edgeless graph is an exact zero: one run of n
    spectrum = eigendecompose(adjacency_matrix(Graph.from_edges(6, [])), ordering)
    assert not spectrum.eigenvalues.any()
    cols = [tuple(spectrum.vector(i)) for i in range(6)]
    assert cols == sorted(cols) == [tuple(row) for row in np.eye(6)[::-1]]
    one = eigendecompose(adjacency_matrix(Graph.from_edges(1, [])), ordering)
    assert one.eigenvectors.tolist() == [[1.0]]


def test_regular_graph_duality():
    # for d-regular graphs L = dI - A, so ascending Laplacian eigenvalues
    # pair with descending adjacency eigenvalues: mu_i = d - lambda_i
    for i, (n, d) in enumerate([(16, 3), (20, 4)]):
        g = sample_regular(n, d, substream(13, "dual", i))
        lam = eigendecompose(adjacency_matrix(g), "descending").eigenvalues
        mu = eigendecompose(laplacian_matrix(g), "ascending").eigenvalues
        assert np.abs(mu - (d - lam)).max() <= 1e-6


def test_operator_norm():
    assert operator_norm(np.zeros((3, 3))) == 0.0
    assert operator_norm(np.array([[3.0]])) == 3.0
    # norm of a rank-1 outer product uv^T is |u||v|
    u = np.array([1.0, 2.0])
    v = np.array([2.0, 1.0, 2.0])
    assert np.isclose(operator_norm(np.outer(u, v)), np.sqrt(5) * 3)
    # symmetric case: largest |eigenvalue|
    a = np.diag([1.0, -4.0, 2.0])
    assert np.isclose(operator_norm(a), 4.0)


def test_spectrum_csv_format():
    import io

    spectrum = eigendecompose(adjacency_matrix(Graph.from_edges(2, [(0, 1)])))
    buf = io.StringIO()
    write_spectrum_csv(spectrum, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 2
    first = lines[0].split(",")
    assert first[0] == "1"  # 1-based index
    assert float(first[1]) == 1.0
    # 17 significant digits round-trip doubles exactly
    assert float(first[2]) == spectrum.vector(0)[0]


def test_spectrum_csv_matches_per_value_formatting():
    import io

    values = np.array([1e300, -0.0, 5e-324, -3.0])
    vectors = np.array([
        [-0.0, 1.0, 2.0**53, 1e-300],
        [5e-324, -1e300, 0.1, -2.5e-310],
        [1.0 / 3.0, -7.0, 0.0, 123456789.0],
        [-1e-300, 2.0**-1074 * 3, -0.5, 1e16],
    ])
    spectrum = Spectrum(values, vectors, "descending", np.zeros(4), 0.0)
    expected = "".join(
        f"{i + 1},{values[i]:.17g}," + ",".join(f"{x:.17g}" for x in vectors[:, i]) + "\n"
        for i in range(4)
    )
    buf = io.StringIO()
    write_spectrum_csv(spectrum, buf)
    assert buf.getvalue() == expected
    assert expected.startswith("1,1.0000000000000001e+300,-0,4.9406564584124654e-324,")


def test_spectrum_csv_is_the_same_in_blocks_of_any_size(monkeypatch):
    import io

    from graphnodal import _text

    g = sample_gnp(30, 0.2, substream(8, "blocks"))
    spectrum = eigendecompose(laplacian_matrix(g))
    expected = "".join(
        "%d,%.17g," % (i + 1, spectrum.eigenvalues[i])
        + ",".join("%.17g" % x for x in spectrum.vector(i)) + "\n"
        for i in range(spectrum.n)
    )
    for cells in (1, 33, 100, 1 << 15):
        monkeypatch.setattr(_text, "BLOCK_CELLS", cells)
        buf = io.StringIO()
        write_spectrum_csv(spectrum, buf)
        assert buf.getvalue() == expected, cells


def _star(n):
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


@pytest.mark.parametrize("tau", [None, 0.0, 0.3])
def test_top_vector_certificate_refuses_spectra_with_few_eigenvalues(tau):
    # complete (p = 1), empty, one- and two-vertex and star graphs exhaust
    # the Krylov space within a few steps
    graphs = [sample_gnp(n, p, substream(0, "few", n)) for n in (12, 200) for p in (1.0, 0.0)]
    graphs += [Graph.from_edges(1, []), Graph.from_edges(2, []), Graph.from_edges(2, [(0, 1)]),
               _star(30), _star(200)]
    for g in graphs:
        assert certified_top_vector(laplacian_matrix(g), tau) is None


def test_top_vector_certificate_refuses_bad_arguments():
    with pytest.raises(ValueError, match="^matrix must be exactly symmetric$"):
        certified_top_vector(np.array([[0.0, 1.0], [0.5, 0.0]]), None)
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        certified_top_vector(np.array([[np.nan]]), None)
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
        certified_top_vector(np.zeros((2, 3)), None)
    # before the first step, which the empty graph's matrix never passes
    with pytest.raises(ParameterError, match="^zero tolerance must be nonnegative, got -1.0$"):
        certified_top_vector(np.zeros((3, 3)), -1.0)


def test_residual_bound_covers_the_exact_residual():
    # eigh's top pairs of small Laplacians, whose exact residual rational
    # arithmetic gives: the computed residual alone falls short of it on
    # some, the bound with its rounding term on none
    short = 0
    for t in range(300):
        lap = laplacian_matrix(sample_gnp(10, 0.5, substream(1, "exact", t)))
        values, vectors = np.linalg.eigh(lap)
        x, rho = vectors[:, -1], float(values[-1])
        exact = [Fraction(float(rho)) * Fraction(float(c)) for c in x]
        exact = sum((sum(Fraction(int(lap[i, j])) * Fraction(float(x[j])) for j in range(10))
                     - exact[i]) ** 2 for i in range(10))
        assert Fraction(_residual_above(lap, x, rho)) ** 2 >= exact
        y = lap @ x - rho * x
        short += Fraction(_norm_above(y)) ** 2 < exact
    assert short > 0


def test_default_tau_moves_with_the_vector():
    # ||x||_inf = 1, so the default tau is 1e-9, and the exact vector's
    # within 1e-9 b of it: a coordinate just over b from 1e-9 is certain at
    # tau = 1e-9 but not at the default
    b = 1e-10
    x = np.array([1.0, 1e-9 + b * (1.0 + 5e-10), -0.5])
    assert _signs_certain(x, 1e-9, b)
    assert not _signs_certain(x, None, b)
    assert _signs_certain(x, None, 0.9 * b)


@pytest.mark.parametrize("a, b", [(3, 5), (2, 9), (40, 70)])
def test_gap_proof_needs_mu_above_the_second_eigenvalue(a, b):
    # K_{a,b}'s Laplacian has the eigenvalues 0, a, b and a + b; the top
    # one is simple, with eigenvector b on one side and -a on the other
    n = a + b
    lap = laplacian_matrix(Graph.from_edges(n, list(itertools.product(range(a), range(a, n)))))
    top = np.r_[np.full(a, float(b)), np.full(b, -float(a))]
    top /= np.linalg.norm(top)
    second, first = max(a, b), a + b
    # at the second eigenvalue, or below it by less than the rounding of
    # the factorization, only the shift keeps the proof from passing (on
    # K_{2,9} at mu = 9, an unshifted factorization completes)
    for mu, proved in ((second - 0.5, False), (second - 1e-9, False),
                       (float(np.nextafter(second, 0.0)), False), (second, False),
                       (second + 1e-6, True), (0.5 * (second + first), True)):
        assert _second_below(lap, top, mu, 2.0 * (first - mu)) is proved, mu
    # sigma too small to push the top direction below mu proves nothing
    assert not _second_below(lap, top, second + 1e-6, 0.5 * (first - second))


@pytest.mark.parametrize("angle", [1e-3, 0.3])
def test_sign_bound_covers_the_distance_to_the_eigenvector(angle):
    # on K_{3,5}, x turned by angle from the top eigenvector (eigenvalue 8)
    # towards one of the second eigenvalue, 5: the residual gives the bound
    # no slack but the sqrt 2 of Davis-Kahan's
    lap = laplacian_matrix(Graph.from_edges(8, list(itertools.product(range(3), range(3, 8)))))
    top = np.r_[np.full(3, 5.0), np.full(5, -3.0)] / math.sqrt(120.0)
    turn = np.r_[1.0, -1.0, np.zeros(6)] / math.sqrt(2.0)
    x = math.cos(angle) * top + math.sin(angle) * turn
    b = _sign_bound(lap, x, 8.0, 5.0 + 1e-9)
    assert np.linalg.norm(x - top) <= b <= 1.5 * np.linalg.norm(x - top)


def test_top_vector_certificate_refuses_a_double_top_eigenvalue():
    # two disjoint copies of one graph: every eigenvalue is double, so the
    # top Ritz vector, a mix of the two copies' top vectors, converges and
    # passes the sign test, but no gap separates it from the second
    g = sample_gnp(150, 0.5, substream(0, "double", 0))
    lap = laplacian_matrix(g)
    twice = np.zeros((300, 300))
    twice[:150, :150] = twice[150:, 150:] = lap
    assert certified_top_vector(lap, None) is not None
    assert certified_top_vector(twice, None) is None


def test_top_vector_certificate_refuses_a_moved_coordinate():
    lap = laplacian_matrix(sample_gnp(150, 0.5, substream(0, "fig2-n150", 0)))
    x = certified_top_vector(lap, None)
    assert x is not None
    values = np.linalg.eigvalsh(lap)
    rho, mu = float(x @ lap @ x), 0.5 * float(values[-1] + values[-2])
    b = _sign_bound(lap, x, rho, mu)
    assert 0.0 < b < np.abs(x).min()
    assert _signs_certain(x, None, b) and _second_below(lap, x, mu, 2.0 * (rho - mu))
    # the smallest coordinate, moved across zero to 2b on the other side:
    # a sign the exact vector does not have, which no certificate may pass
    i = int(np.abs(x).argmin())
    moved = x.copy()
    moved[i] = -math.copysign(2.0 * b, x[i])
    for tau in (None, 0.0):
        assert not _signs_certain(moved, tau, _sign_bound(lap, moved, rho, mu))
    # a vector b away from a tolerance of 0.3 is refused; the exact vector
    # has no coordinate near 0.3
    assert not _signs_certain(np.r_[x, 0.3 + 0.5 * b], 0.3, b)
    assert _signs_certain(x, 0.3, b)


@pytest.mark.parametrize("n", [40, 100, 300])
@pytest.mark.parametrize("tau", [None, 0.0, 0.3])
def test_certified_counts_equal_those_of_eigh(n, tau):
    certified = 0
    for seed, t in itertools.product(range(3), range(4)):
        g = sample_gnp(n, 0.5, substream(seed, f"fig2-n{n}", t))
        lap = laplacian_matrix(g)
        x = certified_top_vector(lap, tau)
        if x is not None:
            certified += 1
            top = eigendecompose(lap, "ascending").vector(n - 1)
            assert weak_nodal_domains(g, x, tau).count == weak_nodal_domains(g, top, tau).count
    assert certified >= 10


def test_top_vector_certificate_gives_up_at_the_step_cap(monkeypatch):
    lap = laplacian_matrix(sample_gnp(300, 0.5, substream(0, "fig2-n300", 0)))
    assert certified_top_vector(lap, None) is not None
    monkeypatch.setattr(spectral, "LANCZOS_STEPS", 8)
    assert certified_top_vector(lap, None) is None
