"""Eigenvectors of dense symmetric matrices, by two routes.

eigendecompose computes the whole eigensystem with one eigh call, under
fixed conventions, and checks it against residual and orthogonality
tolerances: the vectors it returns are rounded output that passed a test.
certified_top_vector computes one vector, the eigenvector of the largest
eigenvalue, by Lanczos, and returns it only with a proof that every sign
the nodal layer reads from it, under a given zero tolerance, is the exact
eigenvector's: a bound on the exact residual that covers rounding, a
floating-point Cholesky factorization that proves the gap to the second
eigenvalue, and Davis and Kahan's bound on the distance to the exact
vector.  Where no proof is found it returns None, and the caller takes the
first route.  Its vector has no sign convention; weak and strong domain
counts do not depend on the sign.

Conventions of eigendecompose, chosen once so downstream nodal-domain
output is reproducible: eigenvectors are l2-normalized; each eigenvector's
largest-magnitude coordinate is made positive (ties broken by smallest
index); eigenvalues are sorted per the requested ordering, and runs of
exactly equal eigenvalues are ordered by the lexicographic order of their
sign-fixed eigenvectors.  Every decomposition is checked against the
residual and orthogonality tolerances below, and two decompositions of the
same matrix are bit-identical.

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

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from . import _text
from .graph_core import ParameterError
from .nodal import DEFAULT_TAU_SCALE, _zero_tolerance

__all__ = ["Spectrum", "certified_top_vector", "eigendecompose", "operator_norm",
           "write_spectrum_csv"]

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


def _symmetric(a: np.ndarray) -> tuple[np.ndarray, float]:
    """a as a float64 array, and its Frobenius norm; ValueError unless it is
    a square matrix of finite entries, exactly symmetric."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    # a non-finite entry makes the norm non-finite; so can overflow
    fro = float(np.linalg.norm(a))
    if not np.isfinite(fro) and not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be exactly symmetric")
    return a, fro


def eigendecompose(a: np.ndarray, ordering: str = "descending") -> Spectrum:
    """Eigendecompose a symmetric matrix under the module's conventions.

    Raises ParameterError for a bad ordering name, ValueError for
    non-finite entries or asymmetry, and RuntimeError if the accuracy
    certificate fails (not observed for real symmetric input at the
    supported scale).
    """
    if ordering not in ("descending", "ascending"):
        raise ParameterError(f"ordering must be 'descending' or 'ascending', got {ordering!r}")
    a, fro = _symmetric(a)

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


# float64's unit roundoff and smallest subnormal
_U = 2.0**-53
_ETA = 2.0**-1074

# Lanczos runs at most this many steps, and checks its certificate every
# _CHECK_EVERY steps.  On the Laplacians of G(n, 1/2), at the default tau,
# the certificate held after 16-48 steps at n=150, 24-64 at n=300 and
# 24-72 at n=1000 (40 samples each) and 32-64 at n=2000 (4 samples); a
# search that gives up at the cap costs about half an eigh call at n=300.
LANCZOS_STEPS = 120
_CHECK_EVERY = 8


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u): k roundings, each by a factor within
    [1 - u, 1 + u], move a result by a factor within [1 - gamma_k, 1 + gamma_k]
    (Higham, "Accuracy and Stability of Numerical Algorithms", 2002, 3.1)."""
    return k * _U / (1.0 - k * _U)


def _norm_above(x: np.ndarray) -> float:
    """An upper bound on the exact 2-norm of the float vector x: the computed
    sum of squares is within gamma_n of the exact one, its square root
    within u."""
    return math.sqrt(float(x @ x)) * (1.0 + 2.0 * _gamma(x.shape[0] + 2))


def _residual_above(a: np.ndarray, x: np.ndarray, rho: float) -> float:
    """An upper bound on the exact ||a x - rho x||_2 of the floats given.

    Each coordinate of the computed a x - rho x is within gamma_{n+2}
    (|a||x| + |rho||x|) of the exact one, whatever order the products are
    summed in (Higham 2002, 3.5); the bound adds the norm of that term,
    computed from terms that are all nonnegative, to the computed
    residual's."""
    g = _gamma(x.shape[0] + 2)
    y = a @ x
    y -= rho * x
    ax = np.abs(x)
    z = np.abs(a) @ ax
    z += abs(rho) * ax
    return (_norm_above(y) + g * (1.0 + 2.0 * g) * _norm_above(z)) * (1.0 + 8.0 * _U)


def _second_below(a: np.ndarray, x: np.ndarray, mu: float, sigma: float) -> bool:
    """Whether a floating-point Cholesky factorization proves that the
    second-largest eigenvalue of the symmetric matrix a is below mu.

    M = mu I - a + sigma x x^T (sigma > 0) is positive definite only if the
    largest eigenvalue of a - sigma x x^T is below mu, and that one is at
    least a's second-largest, by rank-one interlacing, for any x.  The
    factorization runs on H = fl(M - c I) = M - c I + E, each entry formed
    with at most four roundings, so |E| <= gamma_4 (sigma |x||x|^T + |a| +
    (|mu| + c) I), and ||a||_F bounds the 2-norm of |a|.  If it completes,
    its factor satisfies R^T R = H + dH with ||dH||_2 <= gamma_{n+2} tr(H)
    (Demmel 1989; Higham 2002, Theorem 10.3), so M's smallest eigenvalue
    exceeds c - gamma_{n+2} tr(H) - ||E||_2.  The shift c, after Rump
    ("Verification of positive definiteness", BIT 2006), is four times the
    sum of those two terms with c left out, plus Rump's allowance for
    underflow: c's own share of them, and the rounding of the bounds, are
    below 1/2 where n^2 u < 1/4, as for any n whose n x n matrix fits in
    memory.  LAPACK's blocked potrf sums the same products as the textbook
    algorithm, in another order, which is all the bound needs; it reads one
    triangle of H, and each entry there obeys the bound on E.
    """
    n = x.shape[0]
    diag = np.abs(np.diagonal(a))
    rank_one = sigma * float(x @ x)
    trace = rank_one + float(diag.sum()) + n * abs(mu)
    spread = rank_one + float(np.linalg.norm(a)) + abs(mu)
    largest = rank_one + float(diag.max()) + abs(mu)
    c = 4.0 * (_gamma(n + 2) * trace + _gamma(4) * spread
               + 4.0 * n * (2.0 * (n + 2) + largest) * _ETA)
    h = np.multiply.outer(sigma * x, x)
    h -= a
    h.flat[::n + 1] += mu - c
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    return True


def _signs_certain(x: np.ndarray, tau: float | None, b: float) -> bool:
    """Whether every coordinate of x has the sign, under the zero tolerance
    tau as the nodal layer reads it, of the same coordinate of any vector
    within b of x in 2-norm (and so in each coordinate): | |x(v)| - tau | > b.
    The default tau, DEFAULT_TAU_SCALE ||x||_inf, moves with the vector, by
    at most DEFAULT_TAU_SCALE b plus its own rounding."""
    tol = _zero_tolerance(x, tau)
    if tau is None:
        b += DEFAULT_TAU_SCALE * b + 2.0 * _U * float(tol)
    return float(np.abs(np.abs(x) - tol).min()) > b * (1.0 + 8.0 * _U)


def _sign_bound(a: np.ndarray, x: np.ndarray, rho: float, mu: float) -> float:
    """b such that x lies within b, in 2-norm, of a unit eigenvector for the
    largest eigenvalue of the symmetric matrix a, given that every other
    eigenvalue is below mu < rho; inf where the bound proves nothing.

    With x = nu e, ||e|| = 1, the exact residual r of x bounds ||a e - rho e||
    by r / nu, and Davis and Kahan's sin theta theorem (SIAM J. Numer.
    Anal. 1970) gives sin theta <= r / (nu (rho - mu)) between e and that
    eigenvector v; then ||e - v|| <= sqrt 2 sin theta for the sign of v
    nearer e, and ||x - e|| = |nu - 1| <= |nu^2 - 1|.  A sin theta bound
    below 1 also proves the largest eigenvalue above mu, so simple.
    """
    squares = float(x @ x)
    defect = abs(squares - 1.0) + 2.0 * _gamma(x.shape[0]) * squares  # >= |nu^2 - 1|
    gap = rho - mu
    if not (gap > 0.0 and defect < 0.5):
        return math.inf
    sin_theta = _residual_above(a, x, rho) / ((1.0 - defect) * gap)
    if not sin_theta < 1.0:
        return math.inf
    return (defect + math.sqrt(2.0) * sin_theta) * (1.0 + 32.0 * _U)


def certified_top_vector(a: np.ndarray, tau: float | None) -> np.ndarray | None:
    """The eigenvector of the largest eigenvalue of the symmetric matrix a,
    as a float vector whose every sign under the zero tolerance tau (as
    nodal reads it; None for the default) is proved to be the exact
    eigenvector's; None where no such proof was found.  Refuses what
    eigendecompose refuses, and a negative tau.

    Lanczos with full reorthogonalization (Parlett, "The Symmetric
    Eigenvalue Problem", 1998; classical Gram-Schmidt, twice) runs from a
    start vector that depends only on n.  Every _CHECK_EVERY steps it takes
    the top Ritz pair (x, rho) and mu halfway to the second Ritz value.
    Where the Ritz residual, which costs nothing, already passes the sign
    test, _sign_bound bounds the distance b to the exact eigenvector from
    the residual as computed, and where _signs_certain accepts b,
    _second_below proves that every other eigenvalue is below mu, with
    sigma = 2 (rho - mu).  The search gives up, returning None, when that
    proof fails, at LANCZOS_STEPS steps, and when the Krylov space is
    exhausted, as on matrices with few distinct eigenvalues, such as those
    of complete, empty and star graphs.
    """
    a, fro = _symmetric(a)
    _zero_tolerance(np.zeros(0), tau)  # refuses a negative tau before any step
    n = a.shape[0]
    steps = min(n, LANCZOS_STEPS)
    exhausted = n * _U * fro
    basis = np.empty((steps + 1, n))
    start = np.random.default_rng(n).standard_normal(n)
    basis[0] = start / np.linalg.norm(start)
    t = np.zeros((steps, steps))
    for j in range(steps):
        w = a @ basis[j]
        done = basis[:j + 1]
        for _ in range(2):
            h = done @ w
            w -= h @ done
            t[j, j] += h[j]
        beta = math.sqrt(float(w @ w))
        if beta <= exhausted:
            return None
        basis[j + 1] = w / beta
        if j + 1 < steps:
            t[j, j + 1] = t[j + 1, j] = beta
        if j == 0 or ((j + 1) % _CHECK_EVERY and j + 1 < steps):
            continue
        theta, s = np.linalg.eigh(t[:j + 1, :j + 1])
        rho, mu = float(theta[-1]), 0.5 * float(theta[-1] + theta[-2])
        # the Ritz residuals of the top two pairs, estimates that cost
        # nothing: the proofs are tried only once the second Ritz value lies
        # near an eigenvalue, so that mu is likely above the second, and the
        # top pair's estimate passes the sign test
        second, top = beta * np.abs(s[-1, -2:])
        if not second < 0.5 * (rho - mu):
            continue
        x = s[:, -1] @ done
        if not _signs_certain(x, tau, math.sqrt(2.0) * top / (rho - mu)):
            continue
        if _signs_certain(x, tau, _sign_bound(a, x, rho, mu)):
            return x if _second_below(a, x, mu, 2.0 * (rho - mu)) else None
    return None


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
