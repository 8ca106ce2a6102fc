"""Dense symmetric eigendecomposition with certificates and fixed conventions.

Conventions, chosen once so downstream nodal-domain output is reproducible:
eigenvectors are l2-normalized; each eigenvector's largest-magnitude
coordinate is made positive (ties broken by smallest index); eigenvalues are
sorted per the requested ordering, and runs of exactly equal eigenvalues are
ordered by the lexicographic order of their sign-fixed eigenvectors.  Every
decomposition is checked against the residual and orthogonality tolerances
below, and two decompositions of the same matrix are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

import numpy as np

__all__ = ["Spectrum", "eigendecompose", "operator_norm", "write_spectrum_csv"]

# max_i ||A v_i - lambda_i v_i||_2 <= RESIDUAL_TOL * (1 + ||A||_F)
RESIDUAL_TOL = 1e-8
ORTHOGONALITY_TOL = 1e-8


@dataclass(frozen=True)
class Spectrum:
    """Full eigensystem of a symmetric matrix.

    eigenvalues[i] pairs with the column eigenvectors[:, i].  residual_bound
    is the exact max over i of ||A v_i - lambda_i v_i||_2 for the returned
    pairs; orthogonality_defect is max |V^T V - I|.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    ordering: str
    residual_bound: float
    orthogonality_defect: float

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    def vector(self, i: int) -> np.ndarray:
        """i-th eigenvector (0-based, in the spectrum's ordering)."""
        return self.eigenvectors[:, i]


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    # flip each column so its largest-|.| coordinate (first on ties) is positive
    lead = vectors[np.abs(vectors).argmax(axis=0), np.arange(vectors.shape[1])]
    return vectors * np.where(lead < 0, -1.0, 1.0)


def _order_equal_runs(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Within each run of exactly equal eigenvalues, sort columns lexicographically."""
    n = values.shape[0]
    start = 0
    out = vectors
    while start < n:
        stop = start + 1
        while stop < n and values[stop] == values[start]:
            stop += 1
        if stop - start > 1:
            block = sorted((tuple(out[:, j]), j) for j in range(start, stop))
            out = out.copy() if out is vectors else out
            out[:, start:stop] = np.column_stack([vectors[:, j] for _, j in block])
        start = stop
    return out


def eigendecompose(a: np.ndarray, ordering: str = "descending") -> Spectrum:
    """Eigendecompose a symmetric matrix under the module's conventions.

    Raises ValueError for non-finite entries, asymmetry, or a bad ordering
    name, and RuntimeError if the accuracy certificate fails (not observed
    for real symmetric input at the supported scale).
    """
    if ordering not in ("descending", "ascending"):
        raise ValueError(f"ordering must be 'descending' or 'ascending', got {ordering!r}")
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be exactly symmetric")

    values, vectors = np.linalg.eigh(a)
    if ordering == "descending":
        values = values[::-1].copy()
        vectors = vectors[:, ::-1].copy()
    vectors = _fix_signs(vectors)
    vectors = _order_equal_runs(values, vectors)

    residual = a @ vectors - vectors * values[np.newaxis, :]
    residual_bound = float(np.linalg.norm(residual, axis=0).max())
    gram = vectors.T @ vectors
    orthogonality_defect = float(np.abs(gram - np.eye(a.shape[0])).max())

    fro = float(np.linalg.norm(a))
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

    values.flags.writeable = False
    vectors.flags.writeable = False
    return Spectrum(
        eigenvalues=values,
        eigenvectors=vectors,
        ordering=ordering,
        residual_bound=residual_bound,
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

    All values are written with 17 significant digits, enough to round-trip
    a double exactly.  Rows are formatted one at a time, so only one
    column is ever held as Python floats.
    """
    row = "%d,%.17g" + ",%.17g" * spectrum.n + "\n"
    for i, value in enumerate(spectrum.eigenvalues.tolist()):
        stream.write(row % (i + 1, value, *spectrum.eigenvectors[:, i].tolist()))
