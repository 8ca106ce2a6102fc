"""Reference regular sampler, one try at a time as first written.

This is the rejection loop of sample_regular before it tested loops on the
permutation's two strided halves: every try pairs the half-edges as rows,
takes each row's min and max, and rejects a loop or a repeat.  It draws
the same permutations, so graphnodal.graph_core.sample_regular must return
the same Graph and raise the same SamplingError.
"""

import math

import numpy as np

from graphnodal import Graph, RngStream, SamplingError
from graphnodal.graph_core import REGULAR_RESTART_BUDGET, check_regular


def reference_sample_regular(
    n: int, d: int, rng: RngStream, restart_budget: int = REGULAR_RESTART_BUDGET
) -> Graph:
    check_regular(n, d)
    gen = rng.generator()
    stubs = np.repeat(np.arange(n), d)
    for _ in range(restart_budget):
        pairs = gen.permutation(stubs).reshape(-1, 2)
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        if (lo == hi).any():
            continue
        keys = np.sort(lo * n + hi)
        if not (keys[1:] == keys[:-1]).any():
            return Graph(n, *np.divmod(keys, n))
    accept = min(1.0, math.exp(-(d * d - 1) / 4))
    raise SamplingError(
        f"no simple {d}-regular graph on {n} vertices within {restart_budget} restarts"
        f" (a try is accepted with probability about exp(-(d^2-1)/4) = {accept:.2g},"
        f" so about {math.ceil(1 / accept)} restarts are expected)"
    )
