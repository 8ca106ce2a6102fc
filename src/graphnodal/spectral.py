"""Dense symmetric eigendecomposition with certificates and fixed conventions.

Conventions, chosen once so downstream nodal-domain output is reproducible:
eigenvectors are l2-normalized; each eigenvector's largest-magnitude
coordinate is made positive (ties broken by smallest index); eigenvalues are
sorted per the requested ordering, and runs of exactly equal eigenvalues are
ordered by the lexicographic order of their sign-fixed eigenvectors.  Every
decomposition is checked against the residual and orthogonality tolerances
below, and two decompositions of the same matrix are bit-identical.

Around its one eigh call, eigendecompose makes at most one n x n copy,
the sign-fixed columns in descending order (ascending order flips eigh's
own array), and two products, A V and V^T V; every other n x n step works
in place.  The residual A V - V diag(w) is formed, squared and summed by
column inside the first product's buffer, which gives the per-column
residual norms (Spectrum.residuals), and |V^T V - I| inside the second's.
Entries are tested for finiteness through the Frobenius norm that the
residual tolerance needs anyway; only a norm that is not finite, from a
non-finite entry or from overflow, takes a pass over the entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

import numpy as np

from . import _text
from .graph_core import ParameterError

__all__ = ["Spectrum", "eigendecompose", "operator_norm", "write_spectrum_csv"]

# max_i ||A v_i - lambda_i v_i||_2 <= RESIDUAL_TOL * (1 + ||A||_F)
RESIDUAL_TOL = 1e-8
ORTHOGONALITY_TOL = 1e-8


@dataclass(frozen=True)
class Spectrum:
    """Full eigensystem of a symmetric matrix.

    eigenvalues[i] pairs with the column eigenvectors[:, i].  residuals[i]
    is ||A v_i - lambda_i v_i||_2 for the returned pair, computed exactly
    as np.linalg.norm(A @ V - V * w, axis=0) would; residual_bound is
    their max and orthogonality_defect is max |V^T V - I|.  All three
    arrays are read-only.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    ordering: str
    residuals: np.ndarray
    orthogonality_defect: float

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def residual_bound(self) -> float:
        return float(self.residuals.max())

    def vector(self, i: int) -> np.ndarray:
        """i-th eigenvector (0-based, in the spectrum's ordering)."""
        return self.eigenvectors[:, i]


def _fixed_columns(vectors: np.ndarray, ordering: str) -> np.ndarray:
    """eigh's columns in the requested order, each flipped so its
    largest-|.| coordinate (first on ties) is positive: one pass, into a
    fresh array for descending order and in place for ascending."""
    top, bottom = vectors.max(axis=0), vectors.min(axis=0)
    signs = np.where(top < -bottom, -1.0, 1.0)
    # where +a and -a both reach the largest |.|, the first of them decides
    tied = np.flatnonzero(top == -bottom)
    if tied.size:
        lead = vectors[np.abs(vectors[:, tied]).argmax(axis=0), tied]
        signs[tied] = np.where(lead < 0, -1.0, 1.0)
    if ordering == "descending":
        return np.multiply(vectors[:, ::-1], signs[::-1], out=np.empty(vectors.shape))
    return np.multiply(vectors, signs, out=vectors)


def _order_equal_runs(values: np.ndarray, vectors: np.ndarray) -> None:
    """Within each run of exactly equal eigenvalues, sort columns
    lexicographically, in place."""
    if not (values[1:] == values[:-1]).any():
        return
    n = values.shape[0]
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and values[stop] == values[start]:
            stop += 1
        if stop - start > 1:
            block = sorted((tuple(vectors[:, j]), j) for j in range(start, stop))
            vectors[:, start:stop] = vectors[:, [j for _, j in block]]
        start = stop


def eigendecompose(a: np.ndarray, ordering: str = "descending") -> Spectrum:
    """Eigendecompose a symmetric matrix under the module's conventions.

    Raises ParameterError for a bad ordering name, ValueError for
    non-finite entries or asymmetry, and RuntimeError if the accuracy
    certificate fails (not observed for real symmetric input at the
    supported scale).
    """
    if ordering not in ("descending", "ascending"):
        raise ParameterError(f"ordering must be 'descending' or 'ascending', got {ordering!r}")
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    # a non-finite entry makes the norm non-finite; so can overflow
    fro = float(np.linalg.norm(a))
    if not np.isfinite(fro) and not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be exactly symmetric")

    values, vectors = np.linalg.eigh(a)
    if ordering == "descending":
        values = values[::-1].copy()
    vectors = _fixed_columns(vectors, ordering)
    _order_equal_runs(values, vectors)

    # the same operations, in the same order, as np.linalg.norm(a @ vectors
    # - vectors * values, axis=0): the same bits with one temporary, not four
    residual = a @ vectors
    residual -= vectors * values
    np.square(residual, out=residual)
    residuals = np.sqrt(np.add.reduce(residual, axis=0))
    del residual  # before the Gram product takes its n x n
    residual_bound = float(residuals.max())
    gram = vectors.T @ vectors
    gram.flat[::a.shape[0] + 1] -= 1.0
    orthogonality_defect = float(np.abs(gram, out=gram).max())

    if residual_bound > RESIDUAL_TOL * (1.0 + fro):
        raise RuntimeError(
            f"eigendecomposition residual {residual_bound:.3e} exceeds "
            f"{RESIDUAL_TOL:.0e} * (1 + ||A||_F)"
        )
    if orthogonality_defect > ORTHOGONALITY_TOL:
        raise RuntimeError(
            f"eigenvector orthogonality defect {orthogonality_defect:.3e} exceeds "
            f"{ORTHOGONALITY_TOL:.0e}"
        )

    for array in (values, vectors, residuals):
        array.flags.writeable = False
    return Spectrum(
        eigenvalues=values,
        eigenvectors=vectors,
        ordering=ordering,
        residuals=residuals,
        orthogonality_defect=orthogonality_defect,
    )


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value (l2 operator norm)."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def write_spectrum_csv(spectrum: Spectrum, stream: IO[str]) -> None:
    """One row per eigenpair: index (1-based), eigenvalue, then n coordinates.

    Values are written as '%.17g' writes them, 17 significant digits, enough
    to round-trip a double exactly; the index, a whole number, is written
    the same way, which is its '%d'.  Rows are formatted by array code in
    blocks of about _text.BLOCK_CELLS values, each written as it is made, so
    the working memory does not grow with n.
    """
    n = spectrum.n
    rows = max(1, _text.BLOCK_CELLS // (n + 2))
    seps = np.full((rows, n + 2), ord(","), dtype=np.uint8)
    seps[:, -1] = ord("\n")
    for i in range(0, n, rows):
        j = min(n, i + rows)
        block = np.empty((j - i, n + 2))
        block[:, 0] = np.arange(i + 1, j + 1)
        block[:, 1] = spectrum.eigenvalues[i:j]
        block[:, 2:] = spectrum.eigenvectors[:, i:j].T
        stream.write(_text.g17_text(block, seps[:j - i]))
