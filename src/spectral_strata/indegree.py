"""Indegree divisors of a multigraph and their multiplicities.

A divisor D is an indegree divisor when some orientation has indegree
divisor D.  Three equivalent tests are implemented:

* enumerate: sweep all 2^e orientations;
* flow: augmenting paths on the graph itself, each edge seeking a head
  among its endpoints and each vertex v heading at most D(v) edges
  (feasible iff |D| = e and every edge gets a head);
* inequalities: |D| = e, and D(S) >= #edges inside S for every vertex
  subset S (checking vertex-induced subgraphs suffices, since adding edges
  inside the same vertex set only tightens the requirement).

The multiplicity of D is the number of orientations with indegree D,
equivalently the coefficient of the monomial of D in the generating
polynomial built as the product over edges [u, v] of (x_u + x_v); a loop
contributes (x_u + x_u) = 2 x_u.  Coefficients are exact big integers.

Inside the package a term map keys each exponent by one integer: its
digits are the vertex exponents, vertex 0 most significant, each digit
_key_bits(e) bits wide for a graph with e edges (_key_codec converts).  No
exponent exceeds e, so keys sort as the exponent tuples do, and
multiplying by x_v adds _places(...)[v].  Tuples appear only in public
results.
"""

from __future__ import annotations

import json
import struct
from collections import deque
from enum import Enum
from functools import lru_cache
from operator import ge
from typing import Callable, Mapping, Optional, Sequence

from .errors import CapExceededError, GraphConstructionError, StrataError
from .graphs import (
    DEFAULT_MAX_EDGES,
    Divisor,
    Multigraph,
    Orientation,
    Subgraph,
    Value,
    all_orientations,
    degree_divisor,
    ensure_cap,
    indeg,
)

METHODS = ("enumerate", "flow", "inequalities")


class DivisorTag(Enum):
    NOT_INDEGREE = "not_indegree"
    IRREDUCIBLE = "irreducible"
    COMPLETELY_REDUCIBLE = "completely_reducible"
    REDUCIBLE_NOT_CR = "reducible_not_cr"


Reducibility = DivisorTag  # matpoly.reducibility's classes, all but NOT_INDEGREE


class DivisorClass(Value):
    """Classification of a divisor on a multigraph.

    irreducible means: the graph is connected and the divisor admits a
    strongly connected witness orientation.  completely_reducible means: a
    totally cyclic witness exists, equivalently the restriction to each
    connected component is irreducible, equivalently the divisor is an
    interior point of the graphical zonotope.  On a connected graph the two
    notions coincide, so the reported tag prefers COMPLETELY_REDUCIBLE and
    the finer booleans carry the full information.
    """

    tag: DivisorTag
    witness: Optional[Orientation]
    irreducible: bool
    completely_reducible: bool


class IndegPolynomial(Value):
    """Sparse generating polynomial of orientations by indegree.

    terms maps an exponent tuple (one entry per vertex) to a positive
    integer coefficient; every exponent tuple sums to the edge count and
    the coefficients sum to 2^e.
    """

    vertices: tuple[str, ...]
    n_edges: int
    terms: Mapping[tuple[int, ...], int]

    def __post_init__(self) -> None:
        for expo, coeff in self.terms.items():
            if len(expo) != len(self.vertices) or sum(expo) != self.n_edges:
                raise StrataError(f"exponent {expo} does not sum to {self.n_edges}")
            if coeff < 1:
                raise StrataError("coefficients must be positive")

    def coefficient(self, d: Divisor) -> int:
        if d.vertices != self.vertices:
            raise GraphConstructionError("divisor on a different vertex set")
        return self.terms.get(d.values, 0)

    def coefficient_sum(self) -> int:
        return sum(self.terms.values())

    def support(self) -> list[Divisor]:
        return [Divisor(self.vertices, expo) for expo in sorted(self.terms)]

    def to_json_obj(self) -> list[dict]:
        out = []
        for expo in sorted(self.terms):
            exponents = {v: e for v, e in zip(self.vertices, expo) if e != 0}
            out.append({"exponents": exponents, "coeff": str(self.terms[expo])})
        return out


def _key_bits(n_edges: int) -> int:
    """Digit width of the exponent keys of a graph with n_edges edges: the
    fewest of 8, 16, 32 and 64 bits that hold n_edges, so that a digit is
    one unsigned struct field."""
    return next(bits for bits in (8, 16, 32, 64) if n_edges >> bits == 0)


def _places(n: int, bits: int) -> list[int]:
    """place[v]: the key of x_v among n vertices, 2^(bits (n-1-v))."""
    return [1 << bits * (n - 1 - v) for v in range(n)]


def _key_codec(
    n: int, bits: int
) -> tuple[Callable[[Sequence[int]], int], Callable[[int], tuple[int, ...]]]:
    """The encode/decode pair of the exponent keys of n vertices with
    bits-bit digits: values -> key, and key -> values.  Encoding raises
    struct.error on a value that has no digit."""
    layout = struct.Struct(f">{n}{'BHIQ'[bits.bit_length() - 4]}")
    pack, unpack, size = layout.pack, layout.unpack, layout.size
    return (
        lambda values: int.from_bytes(pack(*values), "big"),
        lambda key: unpack(key.to_bytes(size, "big")),
    )


def _edges_of(mask: int, n_edges: int) -> list[int]:
    """The edge indices of a bitmask over n_edges edges, ascending."""
    return [i for i in range(n_edges) if mask >> i & 1]


def _decoder(g: Multigraph):
    """key -> divisor values, for the exponent keys of g."""
    return _key_codec(g.n_vertices, _key_bits(g.n_edges))[1]


def _divisor_template(vertices: Sequence[str], item_sep: str = ", ", key_sep: str = ": ") -> str:
    """The json.dumps text, with these separators, of a divisor
    {vertex: value} as a %-template of its values: each vertex name is
    encoded once, and its "%" doubled."""
    items = (json.dumps(v).replace("%", "%%") + key_sep + "%d" for v in vertices)
    return "{" + item_sep.join(items) + "}"


def _times_edge(terms: dict[int, int], pu: int, pv: int) -> dict[int, int]:
    """A term map (exponent key -> coefficient) times (x_u + x_v), with
    pu, pv the places of u and v: each term adds its coefficient at its
    key plus pv, then plus pu."""
    out: dict[int, int] = {}
    get = out.get
    for key, coeff in terms.items():
        bumped = key + pv
        out[bumped] = get(bumped, 0) + coeff
        bumped = key + pu
        out[bumped] = get(bumped, 0) + coeff
    return out


@lru_cache(maxsize=512)
def _bpoly_terms(g: Multigraph) -> dict[int, int]:
    place = _places(g.n_vertices, _key_bits(g.n_edges))
    terms = {0: 1}
    for u, v in reversed(g.edges):
        terms = _times_edge(terms, place[u], place[v])
    return terms


def b_polynomial(g: Multigraph, max_edges: int = DEFAULT_MAX_EDGES) -> IndegPolynomial:
    """Expanded product over edges [u, v] of (x_u + x_v), as a term map."""
    ensure_cap(g.n_edges, max_edges, "b_polynomial")
    _, decode = _key_codec(g.n_vertices, _key_bits(g.n_edges))
    terms = {decode(key): coeff for key, coeff in _bpoly_terms(g).items()}
    return IndegPolynomial(g.vertices, g.n_edges, terms)


def enumerate_indegree(g: Multigraph, max_edges: int = DEFAULT_MAX_EDGES) -> list[Divisor]:
    """All indegree divisors of g in lexicographic order."""
    return b_polynomial(g, max_edges).support()


def multiplicity(g: Multigraph, d: Divisor) -> int:
    """Number of orientations of g with indegree divisor d (0 if none)."""
    if not _degree_precheck(g, d):
        return 0
    # every value is at most the degree, the edge count, so it has a digit
    encode, _ = _key_codec(g.n_vertices, _key_bits(g.n_edges))
    return _bpoly_terms(g).get(encode(d.values), 0)


# ---------------------------------------------------------------------------
# existence tests

def _degree_precheck(g: Multigraph, d: Divisor) -> bool:
    if d.vertices != g.vertices:
        raise GraphConstructionError("divisor on a different vertex set")
    if any(x < 0 for x in d.values):
        return False
    return d.degree == g.n_edges


@lru_cache(maxsize=512)
def _orientation_witness_table(g: Multigraph) -> dict[tuple[int, ...], tuple[bool, ...]]:
    """First witness flips (smallest flip bitmask) per indegree vector."""
    table: dict[tuple[int, ...], tuple[bool, ...]] = {}
    for o in all_orientations(g, max_edges=g.n_edges):
        key = indeg(o).values
        if key not in table:
            table[key] = o.flips
    return table


def _is_indegree_enumerate(g: Multigraph, d: Divisor, max_edges: int) -> Optional[Orientation]:
    ensure_cap(g.n_edges, max_edges, "is_indegree[enumerate]")
    if not _degree_precheck(g, d):
        return None
    flips = _orientation_witness_table(g).get(d.values)
    return None if flips is None else Orientation(g, flips)


def _max_flow_orientation(g: Multigraph, d: Divisor) -> Optional[Orientation]:
    """Witness orientation by augmenting paths on the graph itself, or
    None.  Each edge has a head, or none yet, and each vertex v has room
    d(v) minus the edges it heads.  A round searches breadth first from
    every headless edge, in index order: an edge leads to its endpoints
    other than its head (u, then v), a vertex to the edges it heads (in
    index order).  The first vertex reached with room ends the path, and
    every edge on it takes the next vertex as its head.  The divisor is an
    indegree divisor iff every round finds a path.  This is the visiting
    order of Edmonds-Karp on the unit flow network source -> edges ->
    endpoints -> sink (capacity d(v)), so the witnesses are its witnesses."""
    ends = [(u,) if u == v else (u, v) for u, v in g.edges]
    incident = [[i for i, pair in enumerate(ends) if x in pair] for x in range(g.n_vertices)]
    head: list[Optional[int]] = [None] * len(ends)
    room = list(d.values)
    for _ in ends:  # each round heads one more edge
        via: dict[int, int] = {}  # vertex -> the edge it was reached by
        queue = deque(i for i, h in enumerate(head) if h is None)
        end = None
        while queue and end is None:
            i = queue.popleft()
            for x in ends[i]:
                if x != head[i] and x not in via:
                    via[x] = i
                    if room[x] > 0:
                        end = x
                        break
                    queue.extend(j for j in incident[x] if head[j] == x)
        if end is None:
            return None
        room[end] -= 1
        # an edge on the path was reached from its old head (None: start)
        while end is not None:
            i = via[end]
            head[i], end = end, head[i]
    return Orientation(g, tuple(h == u != v for h, (u, v) in zip(head, g.edges)))


def _is_indegree_flow(g: Multigraph, d: Divisor) -> Optional[Orientation]:
    if not _degree_precheck(g, d):
        return None
    return _max_flow_orientation(g, d)


def _subset_sums(weights: Sequence[int]) -> list[int]:
    """sums[S] = sum of weights[i] over the bits i of S, for every bitmask
    S: each S with top bit k is the same S without k, plus weights[k]."""
    sums = [0]
    for w in weights:
        sums += [t + w for t in sums]
    return sums


def _component_tables(
    n: int, edges: Sequence[tuple[int, int]]
) -> list[tuple[list[int], list[int]]]:
    """For every connected component of the graph on n vertices with these
    edges (pairs u <= v), by least member: its members, and inside[S] =
    #edges with both ends in S for every bitmask S over the members.  Each
    S with top member k is the same S without k, plus k's loops (the last
    entry of row k of to_lower) and k's edges to the rest of S (the other
    entries)."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    out = []
    seen = 0
    for x in range(n):
        if seen >> x & 1:
            continue
        comp = _closure(adj, 1 << x)
        seen |= comp
        members = [v for v in range(x, n) if comp >> v & 1]
        pos = {v: j for j, v in enumerate(members)}
        to_lower = [[0] * (k + 1) for k in range(len(members))]
        for u, v in edges:
            if u in pos:
                # u <= v, and pos keeps the order of the sorted members
                to_lower[pos[v]][pos[u]] += 1
        inside = [0]
        for row in to_lower:
            inside += [t + a + row[-1] for t, a in zip(inside, _subset_sums(row[:-1]))]
        out.append((members, inside))
    return out


def _interior_flags(keys: Sequence[int], n: int, bits: int, tables) -> list[bool]:
    """For each exponent key (n digits of bits bits, _key_codec), whether
    D(S) > #edges inside S for every nonempty proper subset S of every
    component of tables: the interior test, for all exponents at once.
    Every edge count and every exponent's sum is below 2^bits.

    Key j's digit v goes to lane j, bits [w j, w j + w) with w = 2 bits,
    of column v: the keys' bytes, one string for all keys, are transposed
    by slicing.  A key of at most 8 bytes is one little-endian word of
    that string, so one struct.pack call writes it; a longer key is
    converted on its own.  Adding columns over subsets puts D(S) in every
    lane; with the guard bit g = 2^(w-1), adding g - 1 - inside[S] to each
    lane gives D(S) - inside[S] - 1 + g, in [g - 2^bits, g - 1 + 2^bits),
    inside [0, 2^w).  So no lane borrows from or carries into the next,
    and the guard bit is set exactly when D(S) > inside[S]; ANDing over
    every S keeps it for interior exponents."""
    size, width = bits // 8, n * bits // 8
    if width <= 8:
        stride, raw = 8, struct.pack(f"<{len(keys)}Q", *keys)
    else:
        stride, raw = width, b"".join([k.to_bytes(width, "little") for k in keys])
    lane = bytearray(2 * size * len(keys))

    def column(v: int) -> int:
        # digit v is bytes [low, low + size) of a key, least significant first
        low = (n - 1 - v) * size
        for t in range(size):
            lane[t::2 * size] = raw[low + t::stride]
        return int.from_bytes(lane, "little")

    ones = int.from_bytes(b"\x01".ljust(2 * size, b"\x00") * len(keys), "little")
    guard = 1 << (2 * bits - 1)
    flags = guard * ones
    for members, inside in tables:
        if len(members) < 2:
            continue  # no nonempty proper subset
        sums = _subset_sums([column(v) for v in members])
        for total, count in zip(sums[1:-1], inside[1:-1]):
            flags &= total + (guard - 1 - count) * ones
    lanes = (flags >> 2 * bits - 1).to_bytes(2 * size * len(keys), "little")
    return list(map(bool, lanes[::2 * size]))


def _subset_inequalities_ok(g: Multigraph, d: Divisor) -> bool:
    """D(S) >= #edges inside S for every vertex subset S (degree already
    checked), inside each component: the sums over a union of components
    add up.  Exponential in the largest component's size."""
    if g.n_vertices > 24:
        raise CapExceededError("inequality test limited to 24 vertices")
    return all(
        all(map(ge, _subset_sums([d.values[x] for x in members]), inside))
        for members, inside in _component_tables(g.n_vertices, g.edges)
    )


def _is_indegree_inequalities(g: Multigraph, d: Divisor) -> Optional[Orientation]:
    if not _degree_precheck(g, d) or not _subset_inequalities_ok(g, d):
        return None
    # Build a witness greedily: orient edges one at a time, keeping the
    # reduced instance feasible.  At least one head choice stays feasible.
    remaining = list(g.edges)
    values = list(d.values)
    flips: list[bool] = []
    for u, v in g.edges:
        remaining.pop(0)
        chosen = None
        for head, flip in ((v, False), (u, True)):
            values[head] -= 1
            sub = Multigraph(g.vertices, tuple(remaining))
            cand = Divisor(g.vertices, tuple(values))
            if all(x >= 0 for x in cand.values) and _subset_inequalities_ok(sub, cand):
                chosen = flip
                break
            values[head] += 1
        if chosen is None:
            raise AssertionError("greedy witness construction lost feasibility")
        flips.append(chosen)
    return Orientation(g, tuple(flips))


def is_indegree(
    g: Multigraph,
    d: Divisor,
    method: str = "flow",
    max_edges: int = DEFAULT_MAX_EDGES,
) -> Optional[Orientation]:
    """Witness orientation with indegree divisor d, or None.

    method is one of 'enumerate', 'flow', 'inequalities'; all agree on
    presence.  Divisors with a negative entry or wrong degree yield None
    without error.
    """
    if method == "enumerate":
        return _is_indegree_enumerate(g, d, max_edges)
    if method == "flow":
        return _is_indegree_flow(g, d)
    if method == "inequalities":
        return _is_indegree_inequalities(g, d)
    raise StrataError(f"unknown method {method!r}; expected one of {METHODS}")


# ---------------------------------------------------------------------------
# multiplicity oracles

def circuit_count_check(g: Multigraph, o: Orientation, max_edges: int = DEFAULT_MAX_EDGES) -> int:
    """1 + the number of nonempty edge subsets that are balanced in (g, o),
    i.e. every vertex has equal in- and out-degree inside the subset.

    Balanced subsets are exactly the unions of edge-disjoint directed
    circuits, and flipping one is the generic move between orientations
    with the same indegree, so this equals multiplicity(g, indeg(o)).
    Serves as an independent oracle for the coefficient route.
    """
    ensure_cap(g.n_edges, max_edges, "circuit_count_check")
    if o.graph != g:
        raise GraphConstructionError("orientation belongs to a different graph")
    n, e = g.n_vertices, g.n_edges
    arcs = [o.arc(i) for i in range(e)]
    # Gray-code sweep: consecutive subsets differ by one edge, so the
    # per-vertex balance and its nonzero count update in O(1).
    acc = [0] * n
    nonzero = 0
    count = 0
    prev_gray = 0
    for mask in range(1, 1 << e):
        gray = mask ^ (mask >> 1)
        changed = gray ^ prev_gray
        prev_gray = gray
        i = changed.bit_length() - 1
        t, h = arcs[i]
        if t != h:
            sign = 1 if gray >> i & 1 else -1
            for vertex, step in ((h, sign), (t, -sign)):
                before = acc[vertex]
                after = before + step
                acc[vertex] = after
                nonzero += (after != 0) - (before != 0)
        if nonzero == 0 and gray:
            count += 1
    return 1 + count


def relative_multiplicity(
    g1: Subgraph,
    d1: Divisor,
    g2: Subgraph,
    d2: Divisor,
    max_edges: int = DEFAULT_MAX_EDGES,
) -> int:
    """Number of orientations of the edges of g1 not in g2 whose partial
    indegree divisor is d1 - d2.

    Requires g2 nested in g1 and d1, d2 indegree divisors of their
    subgraphs.  Restricting to the difference edge set, this is the
    multiplicity of d1 - d2 on the difference multigraph.
    """
    if g1.parent != g2.parent or not g1.contains(g2):
        raise StrataError("subgraphs are not nested (need g2 inside g1)")
    sub1, sub2 = g1.as_multigraph(), g2.as_multigraph()
    if is_indegree(sub1, d1) is None:
        raise StrataError("d1 is not an indegree divisor of g1")
    if is_indegree(sub2, d2) is None:
        raise StrataError("d2 is not an indegree divisor of g2")
    diff_edges = tuple(g1.parent.edges[i] for i in sorted(g1.edge_set - g2.edge_set))
    ensure_cap(len(diff_edges), max_edges, "relative_multiplicity")
    diff = Multigraph(g1.parent.vertices, diff_edges)
    return multiplicity(diff, d1 - d2)


# ---------------------------------------------------------------------------
# classification

def _closure(adj: list[int], start: int) -> int:
    """Bitmask of the vertices reachable from the vertex bitmask start,
    where adj[v] is the bitmask of v's neighbours."""
    reach = frontier = start
    while frontier:
        low = frontier & -frontier
        step = adj[low.bit_length() - 1] & ~reach
        reach |= step
        frontier = frontier ^ low | step
    return reach


def _totally_cyclic(n: int, pairs, flips) -> bool:
    """totally_cyclic on n vertices, edge pairs and flips (True: from the
    second vertex to the first), by out- and in-neighbour bitmasks.  The
    forward and backward closures of v are equal exactly when they are v's
    strong component with no arc in or out, so its connected component."""
    fwd, bwd = [0] * n, [0] * n
    for (u, v), flip in zip(pairs, flips):
        if flip:
            u, v = v, u
        fwd[u] |= 1 << v
        bwd[v] |= 1 << u
    reached = 0
    for v in range(n):
        if not reached >> v & 1:
            comp = _closure(fwd, 1 << v)
            if _closure(bwd, 1 << v) != comp:
                return False
            reached |= comp
    return True


def strongly_connected(o: Orientation) -> bool:
    """Every ordered vertex pair is joined by a directed path: the graph
    is connected and the orientation totally cyclic."""
    return o.graph.is_connected() and totally_cyclic(o)


def totally_cyclic(o: Orientation) -> bool:
    """Every edge lies on a directed cycle; equivalently each connected
    component is strongly connected.  Loops lie on their own cycle."""
    return _totally_cyclic(o.graph.n_vertices, o.graph.edges, o.flips)


def classify(g: Multigraph, d: Divisor, debug: bool = False) -> DivisorClass:
    """Classify a divisor: not an indegree divisor, completely reducible
    (interior), or reducible but not completely reducible.

    An indegree divisor D is interior exactly when its flow witness is
    totally cyclic, and then every witness is.  If an edge t -> h lies on
    no directed cycle, the vertices S that reach t form a nonempty proper
    subset of t's component that no arc enters, so D(S) equals the number
    of edges inside S.  If every edge lies on one, every cut of a component
    is crossed both ways, so D(S) > #edges inside S (Hakimi 1965; Stanley
    1991).  The irreducible flag is interior on a connected graph, where
    the tag reads COMPLETELY_REDUCIBLE all the same: IRREDUCIBLE is a tag
    only matpoly.reducibility returns.
    With debug=True every equivalent characterisation, the subset
    inequalities included, is evaluated and cross-checked (exponential).
    """
    witness = is_indegree(g, d, method="flow")
    if witness is None:
        if debug:
            assert is_indegree(g, d, method="enumerate") is None
            assert is_indegree(g, d, method="inequalities") is None
        return DivisorClass(DivisorTag.NOT_INDEGREE, None, False, False)
    interior = totally_cyclic(witness)
    irreducible = interior and g.is_connected()
    tag = DivisorTag.COMPLETELY_REDUCIBLE if interior else DivisorTag.REDUCIBLE_NOT_CR
    if debug:
        checks_ir = irreducible_condition_checks(g, d)
        checks_cr = cr_condition_checks(g, d)
        assert len(set(checks_ir.values())) == 1, checks_ir
        assert len(set(checks_cr.values())) == 1, checks_cr
        assert checks_ir["strongly_connected_witness"] == irreducible
        assert checks_cr["totally_cyclic_witness"] == interior
    return DivisorClass(tag, witness, irreducible, interior)


def tau(g: Multigraph, d: Divisor) -> Divisor:
    """Central-symmetry involution: the degree divisor minus d.  Maps the
    indegree divisors bijectively onto themselves (reverse every edge)."""
    return degree_divisor(g) - d


# ---------------------------------------------------------------------------
# equivalent-condition audits (used by classify(debug=True) and the tests)

def _interior_by_inequalities(g: Multigraph, d: Divisor) -> bool:
    """Oracle for the interior test: strict subset inequalities inside
    every connected component, D(S) > #edges inside S for each nonempty
    proper S of a component.  Exponential in the largest component's
    size; classify runs it only with debug=True."""
    for comp in g.connected_components():
        comp_list = sorted(comp)
        k = len(comp_list)
        for mask in range(1, (1 << k) - 1):
            subset = frozenset(comp_list[i] for i in range(k) if mask >> i & 1)
            if d.total_on(subset) <= g.induced_edge_count(subset):
                return False
    return True


def _restriction_achievable(g: Multigraph, d: Divisor, vertex_set: frozenset[int]) -> bool:
    """Is the restriction of d to the vertex set an indegree divisor of some
    subgraph on that vertex set?  Equivalently: is there a partial
    orientation of the induced edges whose indegree matches d there?"""
    induced = [
        (u, v) for (u, v) in g.edges if u in vertex_set and v in vertex_set
    ]
    target = {i: d.values[i] for i in vertex_set}
    if any(t < 0 for t in target.values()):
        return False
    need = sum(target.values())
    if need > len(induced):
        return False

    # depth-first over edges: orient toward u, toward v, or drop
    def rec(idx: int, remaining: dict[int, int], budget: int) -> bool:
        if budget == 0:
            return True
        if idx == len(induced):
            return False
        if len(induced) - idx < budget:
            return False
        u, v = induced[idx]
        for h in {u, v}:
            if remaining[h] > 0:
                remaining[h] -= 1
                if rec(idx + 1, remaining, budget - 1):
                    remaining[h] += 1
                    return True
                remaining[h] += 1
        return rec(idx + 1, remaining, budget)

    return rec(0, dict(target), need)


def irreducible_condition_checks(g: Multigraph, d: Divisor) -> dict[str, bool]:
    """The four equivalent irreducibility conditions, each computed
    independently.  Intended for indegree divisors on small graphs."""
    n = g.n_vertices
    # (a) no proper nonempty subgraph carries the restriction of d as an
    # indegree divisor
    # Proper subgraphs on the full vertex set have fewer edges than the
    # degree of d, so only proper vertex subsets can carry the restriction.
    cond_a = True
    for mask in range(1, (1 << n) - 1):
        vertex_set = frozenset(i for i in range(n) if mask >> i & 1)
        if _restriction_achievable(g, d, vertex_set):
            cond_a = False
            break
    # (b) strict inequality for every proper nonempty induced subgraph
    cond_b = True
    for mask in range(1, (1 << n) - 1):
        vertex_set = frozenset(i for i in range(n) if mask >> i & 1)
        if d.total_on(vertex_set) <= g.induced_edge_count(vertex_set):
            cond_b = False
            break
    # (c) a strongly connected witness orientation exists
    cond_c = False
    if _degree_precheck(g, d):
        for o in all_orientations(g):
            if indeg(o).values == d.values and strongly_connected(o):
                cond_c = True
                break
    # (d) connected graph and interior point (single flow witness route)
    witness = is_indegree(g, d, method="flow")
    cond_d = g.is_connected() and witness is not None and totally_cyclic(witness)
    return {
        "no_subgraph_restriction": cond_a,
        "strict_inequalities": cond_b,
        "strongly_connected_witness": cond_c,
        "connected_and_interior": cond_d,
    }


def cr_condition_checks(g: Multigraph, d: Divisor) -> dict[str, bool]:
    """The three equivalent complete-reducibility conditions, computed
    independently.  Intended for indegree divisors on small graphs."""
    # (a) restriction to every connected component is irreducible
    cond_a = True
    for comp in g.connected_components():
        comp_list = sorted(comp)
        pos = {v: i for i, v in enumerate(comp_list)}
        comp_edges = [
            (pos[u], pos[v]) for (u, v) in g.edges if u in comp and v in comp
        ]
        sub = Multigraph(tuple(g.vertices[v] for v in comp_list), tuple(comp_edges))
        restricted = Divisor(sub.vertices, tuple(d.values[v] for v in comp_list))
        checks = irreducible_condition_checks(sub, restricted)
        if not checks["strict_inequalities"] or is_indegree(sub, restricted) is None:
            cond_a = False
            break
    # (b) a totally cyclic witness orientation exists
    cond_b = False
    if _degree_precheck(g, d):
        for o in all_orientations(g):
            if indeg(o).values == d.values and totally_cyclic(o):
                cond_b = True
                break
    # (c) interior point of the graphical zonotope, via strict inequalities
    cond_c = is_indegree(g, d, method="flow") is not None and _interior_by_inequalities(g, d)
    return {
        "components_irreducible": cond_a,
        "totally_cyclic_witness": cond_b,
        "interior_point": cond_c,
    }
