"""Stratification combinatorics for isospectral varieties of matrix
polynomials with a nodal spectral curve.

A curve shape carries the dual graph of the curve (vertices are
irreducible components, edges are nodes) together with the degree m and
matrix size n.  Strata are labelled by a generating subgraph of the dual
graph and an indegree divisor on it; the stratum dimension is
m*n*(n-1)/2 - #nodes + #edges(subgraph).  The closure of one stratum
meets another exactly when the label subgraphs are nested and the
relative multiplicity of the divisors is positive, and that multiplicity
counts the local branches.  Around a stratum of codimension p the variety
is a product of p nodes and a disk, so its neighbourhood carries exactly
3^p local strata.

One walk over an edge-subset lattice (_walk) serves four builders.  In
bitmask order it builds the term map of x^D times the product of
(x_u + x_v) over a subset from the map of the subset without its lowest
edge, by the step b_polynomial also folds.  A term map sends an exponent
key, one integer whose digits are the exponents (indegree._key_codec), to
its coefficient, and adding an edge adds the key of its head.
enumerate_strata, _table_rows and _hasse_table walk all edges from
D = 0.  _hasse_table numbers each (bitmask, divisor) pair by the offset
of its bitmask, from a counting walk, plus its rank among the bitmask's
sorted keys.  Its covers come from a second walk: the keys of M plus one
edge are the merge of the keys of M shifted by the place of either end,
so ranking that merge gives the covers of M, with no index of all
elements.  _local_rows walks the edges outside a stratum from its
divisor, so its coefficients are relative multiplicities.  All give
integer rows, (bitmask, key[, multiplicity]), lazily, from one chain of
term maps: enumerate_strata, cr_strata, hasse_diagram and local_model
build their labels from them with _labelled, one Subgraph per bitmask,
and the CLI renders its Hasse exports (_hasse_dot for DOT) and local
censuses straight from the rows, as streams, with no label per
element.  _table_rows does each subgraph's work once: the
dimension check and the interior flags (strict subset inequalities) of
all its divisors in one bit-parallel pass, skipped where a vertex has
degree one (none is interior there).  It yields each edge bitmask, its
sorted keys, their flags (the classes) and its term map (the
multiplicities), which cr_strata and stratum_rows turn into labels and
dicts, and strata_csv and the CLI's strata enumerate (every format,
through _stratum_lines) and strata cr into text, one %-template per
subgraph.  Keys become divisor values only there.
irreducible_components reads b_polynomial, as its top row is one chain of
e steps.  No flow search runs on these labels; labels from a caller are
checked by max flow (_validate_stratum).
"""

from __future__ import annotations

from itertools import accumulate, compress, count, groupby
from math import factorial
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import StrataError
from .graphs import (
    DEFAULT_MAX_EDGES,
    Divisor,
    Multigraph,
    Subgraph,
    Value,
    ensure_cap,
)
from .indegree import (
    DivisorClass,
    DivisorTag,
    _component_tables,
    _decoder,
    _divisor_template,
    _edges_of,
    _interior_flags,
    _key_bits,
    _key_codec,
    _places,
    _times_edge,
    classify,
    enumerate_indegree,
    is_indegree,
    relative_multiplicity,
)


#: The class of a stratum of _table_rows by its interior flag.
_CLASS = (DivisorTag.REDUCIBLE_NOT_CR.value, DivisorTag.COMPLETELY_REDUCIBLE.value)


class CurveShape(Value):
    """Dual graph of a nodal curve plus the matrix-polynomial degree m and
    size n.  Purely combinatorial: no geometric existence check."""

    dual_graph: Multigraph
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise StrataError("curve shape requires m >= 1 and n >= 1")

    @property
    def top_dimension(self) -> int:
        return self.m * self.n * (self.n - 1) // 2


class StratumLabel(Value):
    """Label (generating subgraph, divisor).  Cheap shape checks happen at
    construction; validity of the divisor as an indegree divisor is
    checked by the operations that require it."""

    subgraph: Subgraph
    divisor: Divisor

    def __post_init__(self) -> None:
        if self.divisor.vertices != self.subgraph.parent.vertices:
            raise StrataError("divisor is not indexed by the parent vertex list")
        if self.divisor.degree != self.subgraph.n_edges:
            raise StrataError(
                "divisor degree must equal the subgraph edge count "
                f"({self.divisor.degree} != {self.subgraph.n_edges})"
            )


class LocalModel(Value):
    """Local census around a stratum: p node factors, a q-dimensional
    disk, and the multiplicity of every stratum meeting the neighbourhood.
    The census totals 3^p and assigns 1 to the stratum itself."""

    p: int
    q: int
    census: Mapping[StratumLabel, int]


class StrataPoset(Value):
    """All stratum labels of a graph with the closure order.

    cover_relations holds index pairs (lower, upper) into elements; covers
    differ by exactly one oriented edge.
    """

    elements: tuple[StratumLabel, ...]
    cover_relations: tuple[tuple[int, int], ...]

    def index_of(self, s: StratumLabel) -> int:
        try:
            return self.elements.index(s)
        except ValueError:
            raise StrataError("stratum label is not an element of the poset") from None


def _validate_stratum(c: CurveShape, s: StratumLabel) -> None:
    if s.subgraph.parent != c.dual_graph:
        raise StrataError("stratum does not belong to this curve shape")
    if is_indegree(s.subgraph.as_multigraph(), s.divisor) is None:
        raise StrataError("stratum divisor is not an indegree divisor of its subgraph")


def _dimension(c: CurveShape, n_edges: int) -> int:
    """Dimension of the strata on a subgraph with n_edges edges (checked)."""
    dim = c.top_dimension - c.dual_graph.n_edges + n_edges
    if dim < 0:
        raise StrataError(
            f"shape admits no such stratum: dimension {dim} is negative "
            "(more nodes than the degree bound permits)"
        )
    return dim


def _walk(g: Multigraph, edges: Sequence[int], base: int) -> Iterator[dict]:
    """For each mask over the positions in edges, ascending: the term map
    (exponent key -> coefficient, digits _key_bits(g.n_edges) wide) of x^D
    times (x_u + x_v) over the masked edges, where base is the key of D.
    Every exponent reached must fit a digit; here it is at most the edge
    count of g.  Each map is built from the map at mask ^ lowbit(mask)
    with only the chain of parents in memory."""
    place = _places(g.n_vertices, _key_bits(g.n_edges))
    chain: list[tuple[int, dict]] = [(0, {base: 1})]
    for mask in range(1 << len(edges)):
        if mask:
            low = mask & -mask
            while chain[-1][0] != mask ^ low:
                chain.pop()
            u, v = g.edges[edges[low.bit_length() - 1]]
            chain.append((mask, _times_edge(chain[-1][1], place[u], place[v])))
        yield chain[-1][1]


def enumerate_strata(c: CurveShape, max_edges: int = DEFAULT_MAX_EDGES) -> list[StratumLabel]:
    """All non-empty strata, ordered by subgraph bitmask then divisor."""
    g = c.dual_graph
    ensure_cap(g.n_edges, max_edges, "generating_subgraphs")
    walk = enumerate(_walk(g, range(g.n_edges), 0))
    rows = ((mask, key) for mask, terms in walk for key in sorted(terms))
    return [label for label, _ in _labelled(g, rows)]


def stratum_dimension(c: CurveShape, s: StratumLabel) -> int:
    """m n (n-1)/2 minus the number of removed edges of the dual graph."""
    _validate_stratum(c, s)
    return _dimension(c, s.subgraph.n_edges)


def adjacency_multiplicity(
    c: CurveShape, s1: StratumLabel, s2: StratumLabel, max_edges: int = DEFAULT_MAX_EDGES
) -> int:
    """Multiplicity of s1 along s2: the number of local branches of the
    closure of s1 at points of s2.  Zero iff s2 is not in the closure of
    s1; greater than one means the closure is singular along s2.  Raises,
    as stratum_dimension does, when either stratum's dimension is
    negative, and when more than max_edges edges of s1 lie outside s2."""
    _validate_stratum(c, s1)
    _validate_stratum(c, s2)
    _dimension(c, s1.subgraph.n_edges)
    _dimension(c, s2.subgraph.n_edges)
    if not s1.subgraph.contains(s2.subgraph):
        return 0
    diff = s1.divisor - s2.divisor
    if any(x < 0 for x in diff.values):
        return 0
    return relative_multiplicity(s1.subgraph, s1.divisor, s2.subgraph, s2.divisor, max_edges)


def _local_rows(
    c: CurveShape, s2: StratumLabel, max_edges: int
) -> tuple[int, int, Iterator[tuple[int, int, int]]]:
    """p, q and an iterator over the local census around s2 as rows (edge
    bitmask, exponent key, multiplicity), ordered by (bitmask, divisor).
    The checks run before it returns.  The rows are the walk over the p
    edges outside s2 from the divisor of s2: each coefficient is a
    relative multiplicity along s2."""
    _validate_stratum(c, s2)
    g = c.dual_graph
    p = g.n_edges - s2.subgraph.n_edges
    q = _dimension(c, s2.subgraph.n_edges)
    base = s2.subgraph.bitmask
    rest = [i for i in range(g.n_edges) if not base >> i & 1]
    ensure_cap(len(rest), max_edges, "local_model")
    encode, _ = _key_codec(g.n_vertices, _key_bits(g.n_edges))
    walk = _walk(g, rest, encode(s2.divisor.values))
    return p, q, _census_rows(walk, base, rest)


def _census_rows(walk: Iterator[dict], base: int, rest: Sequence[int]) -> Iterator[tuple[int, int, int]]:
    """The rows of _local_rows from its walk over the edges rest outside
    the bitmask base."""
    # ascending masks over the rest bits give ascending full bitmasks, so
    # the rows come out in canonical order without re-sorting
    for mask, terms in enumerate(walk):
        full = base | sum(1 << e for i, e in enumerate(rest) if mask >> i & 1)
        for key in sorted(terms):
            yield full, key, terms[key]


def _labelled(g: Multigraph, rows: Iterable[tuple]) -> Iterator[tuple[StratumLabel, tuple]]:
    """(label, row) for rows (edge bitmask, exponent key, ...) in bitmask
    order, with one Subgraph per bitmask."""
    decode = _decoder(g)
    for mask, group in groupby(rows, itemgetter(0)):
        sub = Subgraph(g, frozenset(_edges_of(mask, g.n_edges)))
        for row in group:
            yield StratumLabel(sub, Divisor(g.vertices, decode(row[1]))), row


def local_model(c: CurveShape, s2: StratumLabel, max_edges: int = DEFAULT_MAX_EDGES) -> LocalModel:
    """Census of the 3^p local strata in a neighbourhood of s2, keyed by the
    global strata they belong to and ordered by (subgraph bitmask, divisor);
    each multiplicity is relative along s2 (see _local_rows)."""
    p, q, rows = _local_rows(c, s2, max_edges)
    census = {label: row[2] for label, row in _labelled(c.dual_graph, rows)}
    return LocalModel(p, q, census)


def irreducible_components(c: CurveShape, max_edges: int = DEFAULT_MAX_EDGES) -> list[StratumLabel]:
    """Labels of the irreducible components of the isospectral variety:
    the top strata, one per indegree divisor of the full dual graph."""
    g = c.dual_graph
    full = Subgraph(g, frozenset(range(g.n_edges)))
    return [StratumLabel(full, d) for d in enumerate_indegree(g, max_edges)]


def _hasse_table(
    g: Multigraph, max_edges: int
) -> tuple[Iterator[tuple[int, int]], Iterator[tuple[int, tuple[int, ...]]]]:
    """The Hasse diagram of a loopless graph as integer rows: an iterator
    over its elements as (edge bitmask, exponent key) in (bitmask, divisor)
    order, and one over its covers by lower element, as (index, upper
    indices), in index order.  The checks run before it returns.

    Element (M, key) has index offset[M] plus the rank of key among the
    sorted keys of M.  A counting walk gives the 2^e + 1 offsets; no index
    of the elements is kept.  Each iterator is a walk of its own, with one
    chain of term maps in memory (see _hasse_covers)."""
    if any(u == v for u, v in g.edges):
        raise StrataError("hasse_diagram requires a loopless graph")
    ensure_cap(g.n_edges, max_edges, "generating_subgraphs")
    edges = range(g.n_edges)
    offset = list(accumulate(map(len, _walk(g, edges, 0)), initial=0))
    elements = ((mask, key) for mask, terms in enumerate(_walk(g, edges, 0)) for key in sorted(terms))
    return elements, _hasse_covers(g, offset)


def _hasse_covers(g: Multigraph, offset: Sequence[int]) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The covers of _hasse_table per lower element: edge ascending, then
    head by place.  Adding edge t to M with head h adds the place of h to
    a key, so with lo and hi the places of t's ends, the keys of M + t are
    the merge of a = keys of M + lo and b = keys of M + hi.  Ranking that
    merge from offset[M + t] gives the upper indices, read at a and b."""
    place = _places(g.n_vertices, _key_bits(g.n_edges))
    ends = [sorted((place[u], place[v])) for u, v in g.edges]
    for mask, terms in enumerate(_walk(g, range(g.n_edges), 0)):
        keys = sorted(terms)
        columns = []
        for t, (lo, hi) in enumerate(ends):
            if mask >> t & 1:
                continue
            a = [key + lo for key in keys]
            b = [key + hi for key in keys]
            rank = dict(zip(dict.fromkeys(sorted(a + b)), count(offset[mask | 1 << t])))
            columns += (list(map(rank.__getitem__, a)), list(map(rank.__getitem__, b)))
        yield from enumerate(zip(*columns), offset[mask])


def hasse_diagram(g: Multigraph, max_edges: int = DEFAULT_MAX_EDGES) -> StrataPoset:
    """Poset of pairs (generating subgraph, indegree divisor) on a loopless
    graph, with covers adding one oriented edge; both are read off the
    walk over all edges (see _hasse_table)."""
    elements, covers = _hasse_table(g, max_edges)
    labels = tuple(label for label, _ in _labelled(g, elements))
    return StrataPoset(labels, tuple((i, j) for i, uppers in covers for j in uppers))


def path_count_multiplicity(p: StrataPoset, s1: StratumLabel, s2: StratumLabel) -> int:
    """Relative multiplicity recovered from the Hasse diagram: the number
    of directed cover paths from s2 up to s1, divided by the factorial of
    the edge-count difference.  The division is exact."""
    i1, i2 = p.index_of(s1), p.index_of(s2)
    if i1 == i2:
        return 1
    up: dict[int, list[int]] = {}
    for a, b in p.cover_relations:
        up.setdefault(a, []).append(b)
    counts = {i2: 1}
    order = sorted(range(len(p.elements)), key=lambda i: p.elements[i].subgraph.n_edges)
    for i in order:
        if i not in counts:
            continue
        for j in up.get(i, ()):
            counts[j] = counts.get(j, 0) + counts[i]
    paths = counts.get(i1, 0)
    k = s1.subgraph.n_edges - s2.subgraph.n_edges
    if k < 0:
        return 0
    quotient, remainder = divmod(paths, factorial(k))
    if remainder:
        raise AssertionError("path count is not divisible by the factorial")
    return quotient


def cr_strata(c: CurveShape, max_edges: int = DEFAULT_MAX_EDGES) -> list[StratumLabel]:
    """Strata whose divisor is completely reducible.  This single index
    set simultaneously labels the completely reducible locus of the
    isospectral variety and the canonical compactified-Jacobian
    stratification.  They are the interior strata of _table_rows, in
    table order."""
    return [label for label, _ in _labelled(c.dual_graph, _cr_rows(_table_rows(c, max_edges)))]


def _cr_rows(table: Iterable[tuple]) -> Iterator[tuple[int, int]]:
    """(edge bitmask, exponent key) of each interior stratum of a
    _table_rows table, in table order."""
    for mask, _, keys, flags, _ in table:
        for key in compress(keys, flags):
            yield mask, key


def stratum_class(c: CurveShape, s: StratumLabel) -> DivisorClass:
    """Divisor classification of the stratum label."""
    return classify(s.subgraph.as_multigraph(), s.divisor)


# ---------------------------------------------------------------------------
# reports

def _table_rows(
    c: CurveShape, max_edges: int
) -> Iterator[tuple[int, int, list[int], list[bool], dict[int, int]]]:
    """Per generating subgraph, by edge bitmask: the bitmask, its stratum
    dimension (checked), the exponent keys of its strata in divisor order,
    their interior flags and the walk's term map, which gives each key's
    multiplicity on the subgraph.  A divisor is completely reducible
    exactly when it is interior (its class is _CLASS[flag]), and the
    flags of all the subgraph's divisors come from one pass of
    _interior_flags over their keys.  Taking the first subgraph, the empty
    one of the lowest dimension, raises the cap and dimension errors.

    A subgraph with a vertex of degree one (a loop counts two) has no
    interior divisor, so its flags are all False and no tables are built
    for it.  Let x have degree one, its edge xy in component C.  Interior
    needs D(x) > e({x}) = 0, and x heads at most its one edge, so D(x) = 1;
    then S = C minus x has D(S) = e(C) - 1 = e(S): D(S) > e(S) fails."""
    g = c.dual_graph
    ensure_cap(g.n_edges, max_edges, "generating_subgraphs")
    n, bits = g.n_vertices, _key_bits(g.n_edges)
    # v has degree one when the mask holds one edge at v (x, a single bit) and it is no loop
    at = [sum(1 << i for i, e in enumerate(g.edges) if v in e) for v in range(n)]
    links = sum(1 << i for i, (u, v) in enumerate(g.edges) if u != v)
    for mask, terms in enumerate(_walk(g, range(g.n_edges), 0)):
        dim = _dimension(c, mask.bit_count())
        keys = sorted(terms)
        if any((x := mask & a) and not x & x - 1 and x & links for a in at):
            flags = [False] * len(keys)
        else:
            edges = [g.edges[i] for i in _edges_of(mask, g.n_edges)]
            flags = _interior_flags(keys, n, bits, _component_tables(n, edges))
        yield mask, dim, keys, flags, terms


def _stratum_lines(g: Multigraph, table: Iterable[tuple], template_of) -> Iterator[str]:
    """One text per stratum of the _table_rows table of a shape on g:
    template_of(mask, dim) is a %-template per subgraph, filled with the
    stratum's (id, divisor values..., class, multiplicity)."""
    decode = _decoder(g)
    i = 0
    for mask, dim, keys, flags, terms in table:
        template = template_of(mask, dim)
        for key, flag in zip(keys, flags):
            yield template % (i, *decode(key), _CLASS[flag], terms[key])
            i += 1


def stratum_rows(c: CurveShape, max_edges: int = DEFAULT_MAX_EDGES) -> list[dict]:
    """Table rows for every stratum: id, edge bitmask, divisor, dimension,
    class, multiplicity (of the divisor on its subgraph)."""
    vertices, decode = c.dual_graph.vertices, _decoder(c.dual_graph)
    rows = []
    for mask, dim, keys, flags, terms in _table_rows(c, max_edges):
        for key, flag in zip(keys, flags):
            rows.append(
                {
                    "id": len(rows),
                    "edge_bitmask": mask,
                    "subgraph_edges": _edges_of(mask, c.dual_graph.n_edges),
                    "divisor": dict(zip(vertices, decode(key))),
                    "dimension": dim,
                    "class": _CLASS[flag],
                    "multiplicity": terms[key],
                }
            )
    return rows


def _csv_lines(g: Multigraph, table: Iterable[tuple]) -> Iterator[str]:
    """The lines of strata_csv's text from the _table_rows table of a
    shape on g.  The divisor cell is the json.dumps text of the divisor,
    quoted as the csv module quotes it; filling in digits neither needs
    quoting nor changes it, so the template is quoted once."""
    import csv
    import io

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([_divisor_template(g.vertices)])
    divisor = buf.getvalue()[:-1]
    yield "id,edge_bitmask,divisor,dimension,class,multiplicity\n"
    yield from _stratum_lines(g, table, lambda mask, dim: f"%d,{mask},{divisor},{dim},%s,%d\n")


def strata_csv(c: CurveShape, max_edges: int = DEFAULT_MAX_EDGES) -> str:
    return "".join(_csv_lines(c.dual_graph, _table_rows(c, max_edges)))


def stratum_report_json_obj(c: CurveShape, s: StratumLabel, max_edges: int = DEFAULT_MAX_EDGES) -> dict:
    """Full JSON report for one stratum, including its adjacency rows
    (multiplicity along every stratum in its closure)."""
    _validate_stratum(c, s)
    adjacency = []
    for other in enumerate_strata(c, max_edges):
        if other == s:
            continue
        mult = adjacency_multiplicity(c, s, other, max_edges)
        if mult > 0:
            adjacency.append(
                {
                    "subgraph_edges": list(other.subgraph.edge_list()),
                    "divisor": other.divisor.to_mapping(),
                    "multiplicity": mult,
                }
            )
    return {
        "subgraph_edges": list(s.subgraph.edge_list()),
        "divisor": s.divisor.to_mapping(),
        "dimension": stratum_dimension(c, s),
        "class": stratum_class(c, s).tag.value,
        "adjacency": adjacency,
    }


def classification_to_json_obj(label: StratumLabel) -> dict:
    return {
        "subgraph": list(label.subgraph.edge_list()),
        "divisor": label.divisor.to_mapping(),
    }


def hasse_dot_lines(
    elements: Iterable[tuple[int, Sequence[int]]],
    covers: Iterable[tuple[int, int]],
    name: str = "hasse",
) -> Iterator[str]:
    """The lines of the DOT text of a Hasse diagram given as its elements
    (edge bitmask, divisor values) and its covers (lower, upper), each line
    ending in a newline."""
    return _hasse_dot(elements, ((a, (b,)) for a, b in covers), name)


def _hasse_dot(
    elements: Iterable[tuple[int, Sequence[int]]],
    covers: Iterable[tuple[int, Sequence[int]]],
    name: str,
) -> Iterator[str]:
    """The DOT text of hasse_dot_lines with covers by lower element
    (lower, uppers), as in _hasse_table: one piece per node, from one
    %-template per bitmask, and one per lower element, its covers' lines
    joined."""
    yield f"digraph {name} {{\n"
    yield "  rankdir=BT;\n"
    last = None
    for i, (mask, values) in enumerate(elements):
        if mask != last:
            last = mask
            node = f'  n%d [label="{mask}|' + ",".join(["%d"] * len(values)) + '"];\n'
        yield node % (i, *values)
    for a, uppers in covers:
        head = f"  n{a} -> n"
        yield head + (";\n" + head).join(map(str, uppers)) + ";\n"
    yield "}\n"


def hasse_to_dot(p: StrataPoset, name: str = "hasse") -> str:
    """DOT text of the Hasse diagram; nodes are labelled 'bitmask|divisor'."""
    elements = ((s.subgraph.bitmask, s.divisor.values) for s in p.elements)
    return "".join(hasse_dot_lines(elements, p.cover_relations, name))
