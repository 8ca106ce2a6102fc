"""Reference components, domains and P/N/E/Z summary, and the brute-force
domain oracle.

The reference functions are the nodal layer as first written: components by
a Python BFS over neighbour lists built from the edge arrays, weak and
strong domains composed from them, then the P and N picks by explicit
tie-break keys.  They share no code with the array labeler in
graphnodal.graph_core, so connected_components, the domain functions and
the census in graphnodal.nodal must all agree with them.  They take a sign
vector as given; reference_signs applies the documented zero rule on its own.

brute_force_domains takes no shortcut at all: it enumerates every connected
vertex subset of a graph with at most BRUTE_FORCE_LIMIT vertices and keeps
the maximal ones, so it checks the definition of a domain itself, down to
the rule that the only sign-0 weak domains are whole zero components.
"""

from collections import deque

import numpy as np

from graphnodal import (
    DEFAULT_TAU_SCALE,
    DomainPartition,
    Graph,
    NodalSummary,
    ParameterError,
)

BRUTE_FORCE_LIMIT = 20


def reference_signs(values, tau=None) -> np.ndarray:
    """sign(values) with 0 wherever |values| <= tau, and tau None taken as
    DEFAULT_TAU_SCALE times the sup norm of values."""
    vals = np.asarray(values, dtype=np.float64)
    if tau is None:
        tau = DEFAULT_TAU_SCALE * np.abs(vals).max(initial=0.0)
    return np.where(np.abs(vals) <= tau, 0, np.sign(vals)).astype(np.int8)


def neighbour_lists(g: Graph) -> list[list[int]]:
    """The sorted neighbours of every vertex, read off the edge arrays u, v."""
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for a, b in zip(g.u.tolist(), g.v.tolist()):
        nbrs[a].append(b)
        nbrs[b].append(a)
    return [sorted(x) for x in nbrs]


def reference_components(g: Graph, mask=None) -> list[list[int]]:
    allowed = [True] * g.n if mask is None else [bool(x) for x in mask]
    adjacency = neighbour_lists(g)
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


def reference_weak_domains(g: Graph, signs: np.ndarray) -> DomainPartition:
    adjacency = neighbour_lists(g)
    raw: list[tuple[list[int], int]] = []
    for side in (1, -1):
        for comp in reference_components(g, mask=(signs * side) >= 0):
            if any(signs[v] == side for v in comp):
                raw.append((comp, side))
    for comp in reference_components(g, mask=signs == 0):
        if all(signs[w] == 0 for v in comp for w in adjacency[v]):
            raw.append((comp, 0))
    return _partition("weak", raw)


def reference_strong_domains(g: Graph, signs: np.ndarray) -> DomainPartition:
    raw = [
        (comp, side)
        for side in (1, -1)
        for comp in reference_components(g, mask=signs == side)
    ]
    return _partition("strong", raw)


def brute_force_domains(g: Graph, signs: np.ndarray, kind: str) -> DomainPartition:
    """Oracle: enumerate every connected vertex subset, filter by the domain
    condition, and keep the maximal ones under inclusion.  Refuses n > 20."""
    if len(signs) != g.n:
        raise ValueError(f"function length {len(signs)} != vertex count {g.n}")
    if kind not in ("weak", "strong"):
        raise ParameterError(f"kind must be 'weak' or 'strong', got {kind!r}")
    if g.n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to n <= {BRUTE_FORCE_LIMIT}, got n={g.n}")
    nbr_mask = [0] * g.n
    for a, b in zip(g.u.tolist(), g.v.tolist()):
        nbr_mask[a] |= 1 << b
        nbr_mask[b] |= 1 << a

    def is_connected(subset: int) -> bool:
        start = subset & -subset
        reached = start
        frontier = start
        while frontier:
            grown = reached
            v_bits = frontier
            while v_bits:
                bit = v_bits & -v_bits
                grown |= nbr_mask[bit.bit_length() - 1] & subset
                v_bits ^= bit
            frontier = grown & ~reached
            reached = grown
        return reached == subset

    def sign_ok(members: list[int]) -> bool:
        s = {int(signs[v]) for v in members}
        if kind == "weak":
            return not (1 in s and -1 in s)
        return s == {1} or s == {-1}

    valid: list[int] = []
    for subset in range(1, 1 << g.n):
        members = [v for v in range(g.n) if subset >> v & 1]
        if sign_ok(members) and is_connected(subset):
            valid.append(subset)
    raw = []
    for s in valid:
        if any(t != s and t & s == s for t in valid):
            continue
        members = [v for v in range(g.n) if s >> v & 1]
        present = {int(signs[v]) for v in members}
        sign = 1 if 1 in present else (-1 if -1 in present else 0)
        raw.append((members, sign))
    return _partition(kind, raw)


def reference_nodal_summary(g: Graph, signs: np.ndarray) -> NodalSummary:
    weak = reference_weak_domains(g, signs)
    strong = reference_strong_domains(g, signs)

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
