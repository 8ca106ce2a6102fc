"""Reference grid search for the bound k, one point at a time.

This is exceptional_bound_k as first written: every grid point becomes a
validated BoundParams and is scored as the scalar feasibility scores it,
searching k wherever alpha > 0.  graphnodal.bounds scores the whole grid by
broadcasting instead, and must return the same ConstantsResult and raise
the same ParameterError.  feasible_ks lists the k of every feasible
point, for objectives other than the largest k.  The k here comes from
reference_largest_k, the k search as first written: a walk from a log
estimate against a domain floor, so the search is checked against a rule
it does not share; only its test of the inequality is the search's, in
logs.  The floor is the least k that passes holds' own domain test
base**k < u: a running product of base can round to the other side of u
(at p = 0.2674916869125672, u = 0.5 - 0.10695916540607925 it reaches u
one step before base**k does).  reference_largest_k_exact is the
same k for the exact values of its arguments, in 80-digit decimal
arithmetic, and reference_kp is kp_formula in 60-digit decimal arithmetic.
"""

import decimal
import math
from typing import Iterator

from graphnodal.bounds import (
    BoundParams,
    ConstantsResult,
    GridSpec,
    alpha_beta,
    binary_entropy,
    c_constant,
    tail_constants,
)
from graphnodal.graph_core import ParameterError

# below this p a k can pass 2^53, where k+1 is k as a double
P_FLOOR = 2.0**-42


def grid_results(p: float, grid: GridSpec | None = None) -> Iterator[ConstantsResult]:
    """feasibility at every grid point, as a validated BoundParams, in the
    search's loop order."""
    if not 0.0 < p < 1.0:
        raise ParameterError(f"p must lie in (0,1), got {p}")
    if grid is None:
        grid = GridSpec()
    for delta in grid.deltas:
        _, a1, _ = tail_constants(p, delta)
        c = c_constant(p)
        alpha_ceiling = (2.0 / 3.0) * math.sqrt(p * (1.0 - p) * c / 3.0)
        for theta in grid.thetas:
            gamma_max = alpha_ceiling * (1.0 - theta) / a1
            for frac in grid.gamma_fractions:
                gamma = frac * gamma_max
                for gap in grid.epsilon_gaps:
                    epsilon = 0.5 - gap
                    for xi1 in grid.xi1s:
                        for xi2 in grid.xi2s:
                            yield reference_point(BoundParams(
                                p=p, delta=delta, theta=theta, gamma=gamma,
                                epsilon=epsilon, xi1=xi1, xi2=xi2,
                            ))


def reference_point(params: BoundParams) -> ConstantsResult:
    """bounds.feasibility, expression for expression, with its k from
    reference_largest_k."""
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
    k = reference_largest_k(p, params.epsilon, r) if alpha > 0.0 else 0
    return ConstantsResult(
        q=q, t=t, a1=a1, a2=a2, c=c, alpha=alpha, beta=beta, d=d, r=r,
        k=k, feasible=feasible, params=params,
    )


def feasible_ks(p: float, grid: GridSpec | None = None) -> list[int]:
    """The bound k of every feasible grid point with a positive k, in loop order."""
    return [res.k for res in grid_results(p, grid) if res.feasible and res.k >= 1]


def reference_bound_k(p: float, grid: GridSpec | None = None) -> ConstantsResult:
    best: ConstantsResult | None = None
    best_key: tuple | None = None
    for res in grid_results(p, grid):
        if not res.feasible or res.k < 1:
            continue
        params = res.params
        key = (-res.k, params.delta, params.theta, params.gamma, params.epsilon,
               params.xi1, params.xi2)
        if best_key is None or key < best_key:
            best, best_key = res, key
    if best is None:
        raise RuntimeError(f"no feasible grid point with a positive k at p={p}")
    return best


def reference_largest_k(p: float, epsilon: float, r: float) -> int:
    """The largest k with (1-p)^k < 1/2-eps and
    sqrt((1-p)^k) >= r (1/2-eps-(1-p)^k), or 0, found by a walk as first
    written, with its domain floor computed inline on every call."""
    if p < P_FLOOR:
        raise ParameterError(f"p must be at least 2^-42 for the bound k, got {p}")
    u = 0.5 - epsilon
    base = 1.0 - p
    if r <= 0.0 or u <= 0.0:
        return 0
    log_base, log_r = math.log1p(-p), math.log(r)

    def holds(k: int) -> bool:
        x = k * log_base
        wk = math.exp(x)
        return base**k < u and (wk >= u or x / 2.0 >= log_r + math.log(u - wk))

    k_min = 1
    while not base**k_min < u:
        k_min += 1
    k = max(int(2.0 * (log_r + math.log(u)) / log_base), k_min)
    if not holds(k):
        while k >= k_min and not holds(k):
            k -= 1
        return k if k >= k_min else 0
    while holds(k + 1):
        k += 1
    return k


def reference_largest_k_exact(p: float, epsilon: float, r: float) -> int:
    """The largest k with (1-p)^k < u and sqrt((1-p)^k) >= r (u - (1-p)^k),
    or 0, for the exact values of the doubles p, r and u = 0.5 - epsilon,
    in 80-digit decimal arithmetic."""
    u = 0.5 - epsilon
    if r <= 0.0 or u <= 0.0:
        return 0
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        base, u, r = 1 - decimal.Decimal(p), decimal.Decimal(u), decimal.Decimal(r)

        def meets(k: int) -> bool:
            wk = base**k
            return wk.sqrt() >= r * (u - wk)

        s = 2 * r * u / (1 + (1 + 4 * r * r * u).sqrt())
        k = int((2 * s.ln() / base.ln()).to_integral_value(rounding=decimal.ROUND_FLOOR))
        while not meets(k):
            k -= 1
        while meets(k + 1):
            k += 1
        return k if k >= 1 and base**k < u else 0


def reference_kp(p: float) -> int:
    """floor(ln 2 / -ln(1-p)) for the exact value of the double p, in
    60-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        value = decimal.Decimal(2).ln() / -(1 - decimal.Decimal(p)).ln()
        return int(value.to_integral_value(rounding=decimal.ROUND_FLOOR))
