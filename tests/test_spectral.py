"""Eigendecomposition conventions, certificates, and determinism."""

import numpy as np
import pytest

from graphnodal import (
    Graph,
    adjacency_matrix,
    eigendecompose,
    laplacian_matrix,
    operator_norm,
    sample_gnp,
    sample_regular,
    substream,
)
from graphnodal.spectral import Spectrum, write_spectrum_csv


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
    spectrum = Spectrum(values, vectors, "descending", 0.0, 0.0)
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
