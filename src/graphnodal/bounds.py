"""Closed-form tail-bound constants and the exceptional-vertex bound k.

Everything here evaluates printed formulas, with q = max{p, 1-p} throughout:

    C  = p^2 (1-p)^2 / (128 q^4)
    t  = 2q sqrt(2 ((2+delta)/(1+delta)) ln 9)
    a1 = (18q/4) sqrt(2 ((2+delta)/(1+delta)) ln 9)
    a2 = 3 ((2+delta)/(1+delta)) ln 9
    alpha = (1-theta) (2/3) sqrt(p(1-p) C / 3) - gamma a1
    beta  = min(a2, (4C/9) [1 + (1-theta)^2 (2 ln(1-theta) - 1)]
                    - ln(3/gamma) / (1+delta))
    D = 2 sqrt(p(1-p)) (1 + sqrt(1/2+eps)) + xi1 + xi2 sqrt(1/2+eps)
    r = alpha sqrt(1/2+eps) / (2D)

A parameter point is feasible when alpha > 0, beta > 0, and the union-bound
condition H(1/2+eps) < min(beta (1/2+eps), xi1^2/32, xi2^2 (1/2+eps)/8)
holds, H being base-2 binary entropy.  The bound k for a feasible point is
the largest integer with (1-p)^k < 1/2-eps and

    sqrt((1-p)^k) >= r (1/2 - eps - (1-p)^k),

and the grid search returns the point maximizing k (ties by lexicographic
parameter order).  The result is self-certifying: the inequality holds at k
and fails at k+1.  With u = 1/2-eps, the second condition is
sqrt((1-p)^k) >= s for s = 2 r u / (1 + sqrt(1 + 4 r^2 u)), so k is
floor(2 ln s / ln(1-p)), settled by two guard loops on the inequality as
evaluated; a (p, eps) whose domain of k starts past an iteration cap is
refused.  Known, not fixed: where (1-p)^k underflows at the closed-form k,
the loops return the last k at which the `**` test can be evaluated, not
the root (1074, not 1476, at p = 1/2, r = 1e-206 and an eps gap of 2.8e-17;
at p = 1e-4, r = 1e-192 that walk took 0.35-0.56 s for one call).

The search walks the grid in nested loops and computes each quantity once,
at the level it depends on: t, a1, a2 per delta; alpha and beta per (delta,
theta, gamma), skipping the triple unless both are positive; 1/2+eps, its
square root and H(1/2+eps) per epsilon; D per (epsilon, xi1, xi2).  The
union-bound condition is tested before k, so k is searched only at
feasible points, and the winner is evaluated once more through
`feasibility`.

Each (delta, theta, gamma, eps) cell is searched from its largest-D point.
The feasible xi1 and xi2 of a cell are upward-closed, and in floating
point D = 2 sqrt(p(1-p)) (1 + sqrt(1/2+eps)) + xi1 + xi2 sqrt(1/2+eps)
rises with both, so D rises => r falls => k rises: the point with the
largest xi1 and xi2 has the cell's largest k, and GridSpec keeps every xi
finite, so that point's r is positive.  When that k is below the best k
so far, no point of the cell can win, and the cell is skipped.  The
objective is the largest k; the smallest k, the reading ROADMAP.md weighs,
would turn the skip around: search each cell from its smallest-D point and
skip the cell when that k is above the best.

Every expression keeps the operand order of `feasibility`, so the winner
and its constants are bit-identical to a point-by-point search, which also
searched k at infeasible points with alpha > 0.  The ranges are checked
once, by GridSpec; gamma alone depends on p, and alpha_beta refuses one
outside (0,1] at the point where that search did, with the same
ParameterError.  The arithmetic is scalar `math`: numpy's log can differ
from math.log in the last ulp, and the constants are written with 17
significant digits.

Note on the default grid: with these formulas beta can never exceed
4C/9 <= 1/288, so the union-bound condition forces the binary entropy of
1/2+eps below ~3.5e-3, i.e. eps within about 3e-4 of 1/2, and forces
1+delta into the thousands.  The default grid therefore parameterizes eps
by its gap u = 1/2 - eps and gamma as a fraction of the largest gamma
keeping alpha positive; wide, loosely spaced ranges are enough because k
depends on the parameters only through r and u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .graph_core import ParameterError

__all__ = [
    "BoundParams",
    "ConstantsResult",
    "GridSpec",
    "alpha_beta",
    "binary_entropy",
    "c_constant",
    "exceptional_bound_k",
    "feasibility",
    "kp_formula",
    "reference_k",
    "tail_constants",
]

_K_SEARCH_CAP = 1_000_000

# published reference values for the bound k; the grid search reports
# whether it reproduces them (the parameter grid behind them is unknown)
REFERENCE_K_TABLE: tuple[tuple[float, int], ...] = (
    (0.78, 29),
    (0.74, 30),
    (0.70, 32),
    (0.66, 34),
    (0.62, 37),
    (0.58, 39),
    (0.54, 43),
    (0.50, 46),
    (0.46, 54),
    (0.42, 63),
    (0.38, 75),
    (0.34, 90),
    (0.30, 109),
    (0.26, 137),
    (0.22, 181),
    (0.18, 277),
)


def reference_k(p: float) -> int | None:
    """Published k for this p, or None if p is not a tabulated value."""
    for pv, kv in REFERENCE_K_TABLE:
        if math.isclose(p, pv, rel_tol=0.0, abs_tol=1e-9):
            return kv
    return None


def _check_p(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ParameterError(f"p must lie in (0,1), got {p}")


def _check_delta(delta: float) -> None:
    if not delta > 0.0:
        raise ParameterError(f"delta must be positive, got {delta}")


def _check_theta(theta: float) -> None:
    if not 0.0 < theta < 1.0:
        raise ParameterError(f"theta must lie in (0,1), got {theta}")


def _check_gamma(gamma: float) -> None:
    if not 0.0 < gamma <= 1.0:
        raise ParameterError(f"gamma must lie in (0,1], got {gamma}")


@dataclass(frozen=True)
class BoundParams:
    """One evaluation point: p and the six analysis knobs.

    delta is the aspect slack (rectangular matrices are m x k with
    m = (1+delta) k); theta and gamma steer the net argument; epsilon sets
    the subset-size threshold (1/2+epsilon) n; xi1, xi2 are the tail slacks.
    """

    p: float
    delta: float
    theta: float
    gamma: float
    epsilon: float
    xi1: float
    xi2: float

    def __post_init__(self) -> None:
        _check_p(self.p)
        _check_delta(self.delta)
        _check_theta(self.theta)
        _check_gamma(self.gamma)
        if not 0.0 < self.epsilon < 0.5:
            raise ParameterError(f"epsilon must lie in (0,1/2), got {self.epsilon}")
        if not (self.xi1 > 0.0 and self.xi2 > 0.0):
            raise ParameterError(f"xi1, xi2 must be positive, got {self.xi1}, {self.xi2}")
        rule, ok = _XI_RULES[1]
        if not (ok(self.xi1) and ok(self.xi2)):
            raise ParameterError(f"xi1, xi2 {rule}, got {self.xi1}, {self.xi2}")


@dataclass(frozen=True)
class ConstantsResult:
    """All derived constants at one parameter point, plus the bound k.

    k is the largest integer satisfying the defining inequality (0 when no
    integer does); feasible reports alpha > 0, beta > 0 and the union-bound
    condition.  d is the norm bound D entering r."""

    q: float
    t: float
    a1: float
    a2: float
    c: float
    alpha: float
    beta: float
    d: float
    r: float
    k: int
    feasible: bool
    params: BoundParams


def c_constant(p: float) -> float:
    """C = p^2 (1-p)^2 / (128 q^4)."""
    _check_p(p)
    q = max(p, 1.0 - p)
    return (p * p * (1.0 - p) * (1.0 - p)) / (128.0 * q**4)


def tail_constants(p: float, delta: float) -> tuple[float, float, float]:
    """(t, a1, a2) for aspect slack delta; a1 = (18q/4) sqrt(...) as printed."""
    _check_p(p)
    _check_delta(delta)
    q = max(p, 1.0 - p)
    ratio = (2.0 + delta) / (1.0 + delta)
    root = math.sqrt(2.0 * ratio * math.log(9.0))
    t = 2.0 * q * root
    a1 = (18.0 * q / 4.0) * root
    a2 = 3.0 * ratio * math.log(9.0)
    return t, a1, a2


def alpha_beta(p: float, delta: float, theta: float, gamma: float) -> tuple[float, float]:
    """(alpha, beta) at this point; either may be nonpositive (infeasible)."""
    _check_theta(theta)
    _check_gamma(gamma)
    _, a1, a2 = tail_constants(p, delta)
    c = c_constant(p)
    alpha = (1.0 - theta) * (2.0 / 3.0) * math.sqrt(p * (1.0 - p) * c / 3.0) - gamma * a1
    bracket = 1.0 + (1.0 - theta) ** 2 * (2.0 * math.log(1.0 - theta) - 1.0)
    beta = min(a2, (4.0 * c / 9.0) * bracket - math.log(3.0 / gamma) / (1.0 + delta))
    return alpha, beta


def binary_entropy(x: float) -> float:
    """H(x) = -x log2 x - (1-x) log2 (1-x), with H(0) = H(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ParameterError(f"entropy argument must lie in [0,1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _largest_k(p: float, epsilon: float, r: float) -> int:
    """Largest k with (1-p)^k < 1/2-eps and sqrt((1-p)^k) >= r (1/2-eps-(1-p)^k).

    Returns 0 when no positive integer qualifies.  As k rises the left side
    of the second condition falls and its right side rises, so the second
    condition holds up to its root and fails beyond it: the answer is the
    last k meeting it, when that k lies in the first condition's domain.
    """
    u = 0.5 - epsilon
    base = 1.0 - p
    if r <= 0.0 or u <= 0.0:
        return 0
    # the domain of k, where (1-p)^k < u, must start below the cap
    if base**_K_SEARCH_CAP >= u:
        raise RuntimeError("k search exceeded iteration cap")

    def meets(k: int) -> bool:
        wk = base**k
        return math.sqrt(wk) >= r * (u - wk)

    # meets(k) is sqrt((1-p)^k) >= s, s the positive root of r s^2 + s - r u = 0
    ru = r * u
    s = 2.0 * ru / (1.0 + math.sqrt(1.0 + 4.0 * r * ru))
    k = math.floor(2.0 * math.log(s) / math.log(base))
    # (1-p)^k may round, or underflow to 0, away from the real root
    while not meets(k):
        k -= 1
    while meets(k + 1):
        k += 1
    return k if k >= 1 and base**k < u else 0


def feasibility(params: BoundParams) -> ConstantsResult:
    """Evaluate every constant at this point and test feasibility.

    Feasible means alpha > 0, beta > 0, and H(1/2+eps) strictly below
    min(beta (1/2+eps), xi1^2/32, xi2^2 (1/2+eps)/8).  The k reported is the
    largest integer satisfying the defining inequality at this point.
    """
    p = params.p
    q = max(p, 1.0 - p)
    t, a1, a2 = tail_constants(p, params.delta)
    c = c_constant(p)
    alpha, beta = alpha_beta(p, params.delta, params.theta, params.gamma)
    half = 0.5 + params.epsilon
    d = (
        2.0 * math.sqrt(p * (1.0 - p)) * (1.0 + math.sqrt(half))
        + params.xi1
        + params.xi2 * math.sqrt(half)
    )
    r = alpha * math.sqrt(half) / (2.0 * d)
    entropy_ok = binary_entropy(half) < min(
        beta * half, params.xi1**2 / 32.0, params.xi2**2 * half / 8.0
    )
    feasible = alpha > 0.0 and beta > 0.0 and entropy_ok
    k = _largest_k(p, params.epsilon, r) if alpha > 0.0 else 0
    return ConstantsResult(
        q=q, t=t, a1=a1, a2=a2, c=c, alpha=alpha, beta=beta, d=d, r=r,
        k=k, feasible=feasible, params=params,
    )


_POSITIVE = ("must be > 0", lambda v: v > 0.0)
# the union-bound condition squares each xi; BoundParams takes rule 1 too
_XI_RULES = (_POSITIVE, ("must have a finite square", lambda v: math.isfinite(v * v)))
# each range's rules after finiteness, as (refusal, test of one entry); the
# search takes epsilon = 0.5 - gap, which must lie in (0,1/2) as computed
_GRID_RULES = {
    "deltas": (_POSITIVE,),
    "thetas": (("must lie in (0,1)", lambda v: 0.0 < v < 1.0),),
    "gamma_fractions": (_POSITIVE,),
    "epsilon_gaps": (("must lie in (0,1/2)", lambda v: 0.0 < 0.5 - v < 0.5),),
    "xi1s": _XI_RULES,
    "xi2s": _XI_RULES,
}


@dataclass(frozen=True)
class GridSpec:
    """Finite parameter ranges for the k search.

    gamma_fractions give gamma as a fraction of the largest value keeping
    alpha positive at the point's (p, delta, theta), which keeps alpha a
    fixed multiple of its ceiling instead of chasing a moving cancellation.
    epsilon_gaps give epsilon through u = 1/2 - epsilon; the union-bound
    condition needs u below ~3e-4, far outside an evenly spaced grid.
    Construction refuses a range that is empty or has an entry out of
    range, so every grid point but its gamma passes the BoundParams checks.
    """

    deltas: tuple[float, ...] = (999.0, 9_999.0, 99_999.0, 999_999.0)
    thetas: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9)
    gamma_fractions: tuple[float, ...] = (0.05, 0.1, 0.25, 0.5)
    epsilon_gaps: tuple[float, ...] = (1e-3, 1e-4, 1e-5, 3e-6)
    xi1s: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0)
    xi2s: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0)

    def __post_init__(self) -> None:
        for field in fields(self):
            values = getattr(self, field.name)
            if not values:
                raise ParameterError(f"grid range {field.name} is empty")
            for rule, ok in (("must be finite", math.isfinite), *_GRID_RULES[field.name]):
                if not all(ok(v) for v in values):
                    raise ParameterError(f"{field.name} entries {rule}, got {values}")


def exceptional_bound_k(p: float, grid: GridSpec | None = None) -> ConstantsResult:
    """Largest k over all feasible grid points, ties by lexicographic order
    of (delta, theta, gamma, epsilon, xi1, xi2).

    Raises ParameterError when p is out of range or a grid point's gamma
    leaves (0,1] (the first such point in loop order), and RuntimeError
    when no grid point is feasible with a positive k.
    """
    _check_p(p)
    if grid is None:
        grid = GridSpec()
    c = c_constant(p)
    alpha_ceiling = (2.0 / 3.0) * math.sqrt(p * (1.0 - p) * c / 3.0)
    d_scale = 2.0 * math.sqrt(p * (1.0 - p))
    best_k, best_key = 1, None  # a winner needs k >= 1
    for delta in grid.deltas:
        _, a1, _ = tail_constants(p, delta)
        for theta in grid.thetas:
            gamma_max = alpha_ceiling * (1.0 - theta) / a1
            for frac in grid.gamma_fractions:
                gamma = frac * gamma_max
                # gamma depends on p, so GridSpec cannot check it: alpha_beta
                # refuses it at the first point a check per point would
                alpha, beta = alpha_beta(p, delta, theta, gamma)
                if not (alpha > 0.0 and beta > 0.0):
                    continue
                for gap in grid.epsilon_gaps:
                    epsilon = 0.5 - gap
                    half = 0.5 + epsilon
                    root = math.sqrt(half)
                    entropy = binary_entropy(half)
                    if not entropy < beta * half:
                        continue
                    xi1s = [xi1 for xi1 in grid.xi1s if entropy < xi1**2 / 32.0]
                    xi2s = [xi2 for xi2 in grid.xi2s if entropy < xi2**2 * half / 8.0]
                    if not (xi1s and xi2s):
                        continue
                    d_base = d_scale * (1.0 + root)
                    # the largest D has the smallest r, hence the cell's largest k
                    r = alpha * root / (2.0 * (d_base + max(xi1s) + max(xi2s) * root))
                    if _largest_k(p, epsilon, r) < best_k:
                        continue
                    for xi1 in xi1s:
                        for xi2 in xi2s:
                            d = d_base + xi1 + xi2 * root
                            k = _largest_k(p, epsilon, alpha * root / (2.0 * d))
                            key = (-k, delta, theta, gamma, epsilon, xi1, xi2)
                            if k >= best_k and (best_key is None or key < best_key):
                                best_k, best_key = k, key
    if best_key is None:
        raise RuntimeError(f"no feasible grid point with a positive k at p={p}")
    return feasibility(BoundParams(p, *best_key[1:]))


def kp_formula(p: float) -> int:
    """floor(1 / log2(1/(1-p))): the exceptional-vertex count bound.

    As floor(-ln 2 / log1p(-p)), so that 1 - p is never rounded.  Off by one
    at most within a few ulps of a threshold 1 - 2^(-1/m); past 2^52 (p below
    about 1e-16) only as exact as a double: ...453 at p = 1e-16, not ...452.
    """
    _check_p(p)
    return math.floor(-math.log(2.0) / math.log1p(-p))
