"""Independent oracle for the benchmark's output checks.

Nothing here imports spectral_strata.  The checks rest on Stanley's
correspondence for graphical zonotopes ("A zonotope associated with
graphical degree sequences", 1991): the lattice points are the indegree
vectors of the graph's orientations and there are as many as the graph
has forests; the vertices are the indegree vectors of the acyclic
orientations; the interior points are those of the totally cyclic ones.
Everything is brute force over orientations, edge subsets and vertex
subsets, so it is slow but shares no idea with the program's DP, flow
and elimination routes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Edges = Sequence[tuple[int, int]]


def complete_edges(n: int) -> list[tuple[int, int]]:
    """Edges of K_n in the order the program numbers them: (i, j), i < j,
    lexicographic."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _closure(n: int, arcs: list[tuple[int, int]]) -> list[int]:
    """reach[v] as a bitset of the vertices reachable from v (v included)."""
    reach = [1 << v for v in range(n)]
    for t, h in arcs:
        reach[t] |= 1 << h
    for k in range(n):
        bit, rk = 1 << k, reach[k]
        for i in range(n):
            if reach[i] & bit:
                reach[i] |= rk
    return reach


def orientation_sweep(n: int, edges: Edges) -> dict[tuple[int, ...], list]:
    """Sweep all 2^e orientations of the multigraph (n vertices, edges).

    Returns indegree vector -> [multiplicity, some orientation with it is
    totally cyclic, some orientation with it is acyclic].  An orientation
    is totally cyclic when every arc lies on a directed cycle (the head
    reaches the tail), and acyclic when no arc does.
    """
    edges = list(edges)
    table: dict[tuple[int, ...], list] = {}
    for flips in range(1 << len(edges)):
        arcs = [
            (v, u) if flips >> i & 1 else (u, v) for i, (u, v) in enumerate(edges)
        ]
        counts = [0] * n
        for _, h in arcs:
            counts[h] += 1
        reach = _closure(n, arcs)
        on_cycle = [reach[h] >> t & 1 for t, h in arcs]
        entry = table.setdefault(tuple(counts), [0, False, False])
        entry[0] += 1
        entry[1] = entry[1] or all(on_cycle)
        entry[2] = entry[2] or not any(on_cycle)
    return table


def strata_table(n: int) -> dict[int, dict[tuple[int, ...], list]]:
    """Orientation sweep of every edge subset of K_n, keyed by the subset's
    edge bitmask: the strata of the n-line shape and their data."""
    edges = complete_edges(n)
    return {
        mask: orientation_sweep(n, [e for i, e in enumerate(edges) if mask >> i & 1])
        for mask in range(1 << len(edges))
    }


def forest_count(n: int, edges: Edges) -> int:
    """Number of edge subsets without a cycle, by union-find per subset."""
    edges = list(edges)
    count = 0
    for mask in range(1 << len(edges)):
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, (u, v) in enumerate(edges):
            if mask >> i & 1:
                ru, rv = find(u), find(v)
                if ru == rv:
                    break
                parent[ru] = rv
        else:
            count += 1
    return count


def components(n: int, edges: Edges) -> list[list[int]]:
    """Vertex sets of the connected components."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen: set[int] = set()
    out = []
    for start in range(n):
        if start in seen:
            continue
        comp, stack = [], [start]
        seen.add(start)
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in adj[x] - seen:
                seen.add(y)
                stack.append(y)
        out.append(sorted(comp))
    return out


def inequality_class(n: int, edges: Edges, divisor: Sequence[int]) -> str:
    """Class of a divisor by the subset inequalities alone.

    'not_indegree' unless |D| = e and D(S) >= e(S) for every vertex set S;
    'completely_reducible' when the inequality is strict for every
    nonempty proper subset of every connected component; 'irreducible'
    when that holds and the graph is connected; else 'reducible_not_cr'.
    """

    def inside(subset: int) -> int:
        return sum(1 for u, v in edges if subset >> u & 1 and subset >> v & 1)

    def total(subset: int) -> int:
        return sum(divisor[i] for i in range(n) if subset >> i & 1)

    if sum(divisor) != len(edges) or any(
        total(s) < inside(s) for s in range(1, 1 << n)
    ):
        return "not_indegree"
    comps = components(n, edges)
    for comp in comps:
        k = len(comp)
        for m in range(1, (1 << k) - 1):
            subset = sum(1 << comp[i] for i in range(k) if m >> i & 1)
            if total(subset) <= inside(subset):
                return "reducible_not_cr"
    return "irreducible" if len(comps) == 1 else "completely_reducible"


def fraction_det(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    out = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            out = -out
        out *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return out
