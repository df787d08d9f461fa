"""A seeded fuzz of the CLI contract: every request exits 0, or exits 2
with one JSON error line on stderr, and none ends in a traceback."""

import json
from datetime import timedelta

from click.testing import CliRunner
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from spectral_strata.cli import main

from helpers import leaf_commands

#: At most 9 vertex names, so a graph has at most 9 vertices; v1..v3 also
#: name the vertices of 3-line arrangements.
NAMES = ("v1", "v2", "v3", "a", "b", 'q"uote', "café", "%d%s%%", "tab\tline ")
MAX_EDGES = (None, 0, 1, 3, 25, -1)

names = st.sampled_from(NAMES)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(0, 12), st.floats(0, 2), st.text(max_size=3)
)
junk = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
#: Rationals of at most 30 digits: numerator and denominator of at most 15.
rationals = st.one_of(
    st.integers(-(10**15) + 1, 10**15 - 1).map(str),
    st.builds("{}/{}".format, st.integers(-(10**15) + 1, 10**15 - 1), st.integers(1, 10**15 - 1)),
    st.sampled_from(["0", "1", "-1", "1/2"]),
)
#: Rationals, and strings or numbers that are none.
entries = st.one_of(rationals, rationals, st.sampled_from(["1_0", "0.5", "+3", "1/0", "", 1, 0.5, None]))


def maybe(strategy):
    """Mostly the strategy's values, sometimes any JSON value."""
    return st.one_of(strategy, strategy, strategy, junk)


@st.composite
def graphs(draw):
    """Up to 9 vertices and 10 edges, loops and repeated edges included."""
    vertices = draw(st.lists(names, min_size=1, unique=True))
    ends = st.sampled_from(vertices)
    edges = draw(st.lists(st.lists(ends, min_size=2, max_size=2), max_size=10))
    return {"vertices": vertices, "edges": edges}


@st.composite
def oriented(draw):
    g = draw(graphs())
    arcs = [edge[::-1] if draw(st.booleans()) else edge for edge in g["edges"]]
    return {"graph": g, "orientation": arcs}


divisors = st.dictionaries(names, st.integers(-1, 4), max_size=4)
#: Stratum objects that need not fit any graph.
strata = st.fixed_dictionaries({"subgraph": st.lists(st.integers(-1, 11), max_size=4), "divisor": divisors})
shapes = st.fixed_dictionaries({"graph": graphs(), "m": st.integers(-1, 12), "n": st.integers(-1, 4)})
lines = st.integers(-1, 4)


@st.composite
def stratum_on(draw, edges):
    """A stratum of a graph with these edges (pairs of names): some edges,
    each with a head, and the heads counted."""
    subgraph = sorted(draw(st.sets(st.integers(0, len(edges) - 1)))) if edges else []
    divisor = {}
    for i in subgraph:
        head = edges[i][draw(st.integers(0, 1))]
        divisor[head] = divisor.get(head, 0) + 1
    return {"subgraph": subgraph, "divisor": divisor}


def complete_edges(n):
    return [[f"v{i + 1}", f"v{j + 1}"] for i in range(n) for j in range(i + 1, n)]


@st.composite
def shaped_strata(draw, count):
    """A shape, under 'shape' or as 'lines', and count strata, most of
    them strata of its graph."""
    if draw(st.booleans()):
        shape = draw(shapes)
        obj, edges = {"shape": shape}, shape["graph"]["edges"]
    else:
        n = draw(lines)
        obj, edges = {"lines": n}, complete_edges(max(n, 0))
    return obj, [draw(st.one_of(stratum_on(edges), stratum_on(edges), strata)) for _ in range(count)]


@st.composite
def matpolys(draw):
    n, degree = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    matrix = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    return {"coeffs": draw(st.lists(matrix, min_size=degree + 1, max_size=degree + 1))}


arrangements = st.fixed_dictionaries(
    {"lines": st.lists(st.lists(rationals, min_size=2, max_size=2), min_size=1, max_size=3)}
)


@st.composite
def triangular(draw):
    """An arrangement and a degree-one triangular polynomial with its lines
    (intercept, slope) on the diagonal, so that its char poly is their
    product."""
    arrangement = draw(arrangements)
    n = len(arrangement["lines"])

    def entry(i, j, k):
        return arrangement["lines"][i][k] if i == j else draw(rationals) if i < j else "0"

    coeffs = [[[entry(i, j, k) for j in range(n)] for i in range(n)] for k in (0, 1)]
    if draw(st.booleans()):
        coeffs = [[list(column) for column in zip(*matrix)] for matrix in coeffs]
    return {"coeffs": coeffs}, arrangement


@st.composite
def samples(draw):
    arrangement = draw(arrangements)
    stratum = draw(st.one_of(stratum_on(complete_edges(len(arrangement["lines"]))), strata))
    params = draw(st.lists(rationals, min_size=len(stratum["subgraph"]), max_size=len(stratum["subgraph"])))
    return {**arrangement, **stratum, "params": params}


def text(strategy):
    return maybe(strategy).map(json.dumps)


def inputs(strategy):
    """One INPUT argument: the JSON text of a value of the strategy, or of
    any JSON value."""
    return text(strategy).map(lambda s: [s])


def then(source, *extras):
    """The source's arguments followed by one of the extra option lists."""
    return st.tuples(source, st.sampled_from(extras)).map(lambda t: [*t[0], *t[1]])


@st.composite
def classify_args(draw):
    """A polynomial and --arrangement: a triangular pair or two unrelated
    values."""
    poly, arrangement = draw(st.one_of(triangular(), st.tuples(matpolys(), arrangements)))
    return [*draw(inputs(st.just(poly))), "--arrangement", *draw(inputs(st.just(arrangement)))]


complete = st.integers(-1, 5).map(lambda n: ["--complete", str(n)])
shaped_input = st.one_of(inputs(shapes.map(lambda sh: {"shape": sh})), lines.map(lambda n: ["--lines", str(n)]))
polynomials = st.one_of(triangular().map(lambda t: t[0]), matpolys())
#: Each command's arguments after its name.
ARGUMENTS = {
    ("graph", "indeg"): inputs(oriented()),
    ("graph", "bpoly"): inputs(graphs()),
    ("graph", "classify"): inputs(st.fixed_dictionaries({"graph": graphs(), "divisor": divisors})),
    ("graph", "dot"): inputs(st.one_of(graphs(), oriented())),
    ("zonotope", "points"): then(st.one_of(inputs(graphs()), complete), [], ["--count"], ["--format", "csv"]),
    ("zonotope", "vertices"): then(st.one_of(inputs(graphs()), complete), [], ["--count"]),
    ("strata", "enumerate"): then(shaped_input, [], ["--format", "csv"], ["--table"]),
    ("strata", "adjacency"): inputs(shaped_strata(2).map(lambda t: {**t[0], "upper": t[1][0], "lower": t[1][1]})),
    ("strata", "local"): inputs(shaped_strata(1).map(lambda t: {**t[0], "stratum": t[1][0]})),
    ("strata", "components"): then(shaped_input, [], ["--count"]),
    ("strata", "cr"): shaped_input,
    ("hasse", "export"): then(inputs(graphs()), [], ["--format", "dot"], ["--format", "json"]),
    ("matpoly", "charpoly"): inputs(polynomials),
    ("matpoly", "classify"): classify_args(),
    ("matpoly", "reducibility"): inputs(polynomials),
    ("sample",): inputs(samples()),
}


@st.composite
def requests(draw):
    command = draw(st.sampled_from(sorted(ARGUMENTS)))
    argv = [*command, *draw(ARGUMENTS[command])]
    cap = draw(st.sampled_from(MAX_EDGES))
    return argv if cap is None else ["--max-edges", str(cap), *argv]


def test_every_command_has_a_strategy():
    assert set(ARGUMENTS) == set(leaf_commands(main))


@seed(20261020)
@settings(
    max_examples=1500,
    deadline=timedelta(seconds=5),
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(requests())
def test_fuzzed_requests_exit_0_or_2(argv):
    """Rationals stay within 30 digits: matpoly reducibility's time grows
    with the digits of its entries (0.67 s at 400 digits, 3.6 s at 800),
    so larger ones would overrun the deadline without showing a fault of
    the contract."""
    result = CliRunner().invoke(main, argv)
    assert result.exit_code in (0, 2), (argv, result.exception)
    if result.exit_code == 2:
        error = result.stderr.splitlines()
        assert len(error) == 1, (argv, result.stderr)
        assert list(json.loads(error[0])) == ["error"], (argv, result.stderr)
    assert "Traceback" not in result.stderr
