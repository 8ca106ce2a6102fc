"""Reference components, domains and P/N/E/Z summary, by breadth-first search.

This is the nodal layer as first written: components by a Python BFS over
the adjacency lists, weak and strong domains composed from them, then the P
and N picks by explicit tie-break keys.  It shares no code with the array
labeler in graphnodal.graph_core, so connected_components, the domain
functions and the census in graphnodal.nodal must all agree with it.
"""

from collections import deque

import numpy as np

from graphnodal import DomainPartition, Graph, NodalSummary, SignedFunction


def reference_components(g: Graph, mask=None) -> list[list[int]]:
    allowed = [True] * g.n if mask is None else [bool(x) for x in mask]
    adjacency = g.adjacency
    seen = [False] * g.n
    components: list[list[int]] = []
    for start in range(g.n):
        if seen[start] or not allowed[start]:
            continue
        queue = deque([start])
        seen[start] = True
        comp = []
        while queue:
            v = queue.popleft()
            comp.append(v)
            for w in adjacency[v]:
                if allowed[w] and not seen[w]:
                    seen[w] = True
                    queue.append(w)
        components.append(sorted(comp))
    return components


def _partition(kind: str, raw: list[tuple[list[int], int]]) -> DomainPartition:
    return DomainPartition(kind=kind, domains=tuple(sorted((tuple(vs), s) for vs, s in raw)))


def reference_weak_domains(g: Graph, f: SignedFunction) -> DomainPartition:
    signs = f.signs
    adjacency = g.adjacency
    raw: list[tuple[list[int], int]] = []
    for side in (1, -1):
        for comp in reference_components(g, mask=(signs * side) >= 0):
            if any(signs[v] == side for v in comp):
                raw.append((comp, side))
    for comp in reference_components(g, mask=signs == 0):
        if all(signs[w] == 0 for v in comp for w in adjacency[v]):
            raw.append((comp, 0))
    return _partition("weak", raw)


def reference_strong_domains(g: Graph, f: SignedFunction) -> DomainPartition:
    signs = f.signs
    raw = [
        (comp, side)
        for side in (1, -1)
        for comp in reference_components(g, mask=signs == side)
    ]
    return _partition("strong", raw)


def reference_nodal_summary(g: Graph, f: SignedFunction) -> NodalSummary:
    weak = reference_weak_domains(g, f)
    strong = reference_strong_domains(g, f)
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
