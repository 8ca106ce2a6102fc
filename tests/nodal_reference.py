"""Reference P/N/E/Z summary composed from the vertex-set domain functions.

This is the summary as first written: weak and strong domains from the BFS
functions, then the P and N picks by explicit tie-break keys.  The census in
graphnodal.nodal must agree with it on every vector.
"""

import numpy as np

from graphnodal import Graph, NodalSummary, SignedFunction
from graphnodal.nodal import strong_nodal_domains, weak_nodal_domains


def reference_nodal_summary(g: Graph, f: SignedFunction) -> NodalSummary:
    weak = weak_nodal_domains(g, f)
    strong = strong_nodal_domains(g, f)
    signs = f.signs

    def pick(forbidden_sign: int) -> tuple[int, ...]:
        candidates = [
            verts
            for verts, _ in weak.domains
            if not any(signs[v] == forbidden_sign for v in verts)
        ]
        if not candidates:
            return ()
        best = min(
            candidates,
            key=lambda verts: (
                -len(verts),
                -sum(1 for v in verts if signs[v] != 0),
                verts[0],
            ),
        )
        return tuple(best)

    positive_part = pick(forbidden_sign=-1)
    negative_part = pick(forbidden_sign=1)
    covered = set(positive_part) | set(negative_part)
    exceptional = tuple(v for v in range(g.n) if v not in covered)
    zeros = tuple(int(v) for v in np.flatnonzero(signs == 0))
    zero_set = set(zeros)
    return NodalSummary(
        positive_part=positive_part,
        negative_part=negative_part,
        exceptional=exceptional,
        zeros=zeros,
        weak_count=weak.count,
        strong_count=strong.count,
        exceptional_zeros=sum(1 for v in exceptional if v in zero_set),
    )
