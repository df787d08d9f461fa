"""Shared test utilities: canonical small graphs, the exhaustive small-graph
family, and hypothesis strategies."""

from itertools import combinations_with_replacement

import click
from hypothesis import strategies as st

from spectral_strata import Divisor, Multigraph, Orientation, build_graph


def make_e2():
    return build_graph(["v1", "v2"], [("v1", "v2")])


def make_k3():
    return build_graph(["v1", "v2", "v3"], [("v1", "v2"), ("v1", "v3"), ("v2", "v3")])


def make_k4():
    v = ["v1", "v2", "v3", "v4"]
    return build_graph(v, [(v[i], v[j]) for i in range(4) for j in range(i + 1, 4)])


def make_loop():
    return build_graph(["v"], [("v", "v")])


def divisor(g, *values):
    return Divisor(g.vertices, tuple(values))


def pair_types(k, loops=True):
    return [(i, j) for i in range(k) for j in range(i if loops else i + 1, k)]


def graph_family(max_vertices=4, max_edges=6, loops=True):
    """Every multigraph with at most max_vertices vertices and max_edges
    edges, exhaustive up to the edge multiset (loops included unless
    disabled)."""
    for k in range(1, max_vertices + 1):
        vertices = tuple(f"v{i + 1}" for i in range(k))
        types = pair_types(k, loops)
        for e in range(max_edges + 1):
            for combo in combinations_with_replacement(types, e):
                yield Multigraph(vertices, tuple(combo))


@st.composite
def multigraphs(draw, max_vertices=4, max_edges=5, loops=True):
    k = draw(st.integers(1, max_vertices))
    vertices = tuple(f"v{i + 1}" for i in range(k))
    types = pair_types(k, loops)
    if not types:
        return Multigraph(vertices, ())
    edges = draw(st.lists(st.sampled_from(types), max_size=max_edges))
    return Multigraph(vertices, tuple(sorted(edges)))


@st.composite
def graphs_with_divisors(draw, max_vertices=4, max_edges=5, loops=True):
    g = draw(multigraphs(max_vertices, max_edges, loops))
    values = draw(
        st.tuples(*[st.integers(0, g.n_edges) for _ in range(g.n_vertices)])
    )
    return g, Divisor(g.vertices, values)


@st.composite
def graphs_with_orientations(draw, max_vertices=4, max_edges=5, loops=True):
    g = draw(multigraphs(max_vertices, max_edges, loops))
    flips = draw(st.tuples(*[st.booleans() for _ in range(g.n_edges)]))
    return g, Orientation(g, flips)


def leaf_commands(group, path=()):
    """The path of every command under a click group that is no group
    itself, so a command added later is listed with no edit here."""
    for name, command in group.commands.items():
        if isinstance(command, click.Group):
            yield from leaf_commands(command, (*path, name))
        else:
            yield (*path, name)
