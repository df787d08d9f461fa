"""Run a fixed list of spectral-strata CLI commands against two source
trees and report every command whose stdout, stderr or exit code differs.

    python scripts/compare_cli.py OLD_SRC NEW_SRC [--quick]

OLD_SRC and NEW_SRC are directories holding the spectral_strata package
(a checkout's src/).  Each tree runs every command in one worker
interpreter with that tree first on sys.path; a command runs in-process
as the console script would, with stdout and stderr captured as bytes.
Paths of the tree are replaced by "<src>" in the captured stderr, so
tracebacks compare equal when only the checkout differs; stdout is
hashed as it is written, and only its first 64 KiB are kept.

The commands:
  * hasse export (dot and json) on K1..K6, on K5 in seeded edge orders,
    and on seeded multigraphs (parallel edges, loops, isolated vertices);
    K6's DOT is 2.0 GB, so stdout is hashed as it is written, not held;
  * zonotope points|vertices --complete -1..7, plain, with --count and
    with --format csv, and on the seeded multigraphs;
  * strata local at the strata the lattice-hasse benchmark asks for, at
    every 3-line stratum, and at seeded strata of the multigraph shapes
    below (the negative-dimension triangle included);
  * hasse export (dot and json) and strata local on graphs whose vertex
    names JSON must escape (quotes, backslashes, non-ASCII, "%");
  * strata enumerate (JSON, --format csv, --table), cr and components
    (plain and --count) for --lines 1..5, on shapes over the seeded
    multigraphs (m = edge count, n = 2), and on a triangle with m = 1,
    n = 2, whose strata would have negative dimension;
  * strata adjacency at every ordered pair of 3-line strata, and on that
    triangle shape between its full and empty strata; and between the
    full and the empty 5-line strata, plain and at --max-edges 3 and 10;
  * strata enumerate (JSON, --format csv, --table) and cr on shapes whose
    subgraphs have degree-one vertices or bridges: an 8-vertex path, a
    7-vertex tree, two triangles joined by an edge and a pendant vertex
    with a loop; and zonotope points --format csv on 12- and 16-vertex
    paths;
  * graph classify on K1..K4 and on the seeded multigraphs, at every
    divisor of the right degree and at a few that are not (a negative
    entry, one unit too many); graph bpoly on the same graphs, and graph
    indeg at seeded orientations of them;
  * graph classify on cycles, wheels and disjoint cycles of up to 14
    vertices, at a totally cyclic orientation's divisor, at one unit
    moved and at a divisor with no orientation;
  * strata enumerate, cr and components at --lines 7 and 1500, and
    strata local at the empty stratum of {"lines": 7, 8 and 1500} (cap
    errors), and on {"lines": 1500} with no stratum, with a stratum
    without a divisor and with edge index 2000000;
  * strata cr --lines 6 (267,174 rows; strata enumerate --lines 6 is left
    out, as its 1.4 GB table runs for most of a minute);
  * graph bpoly, zonotope points --format csv, zonotope vertices and
    strata components at --max-edges 301 on 300 parallel edges a-b plus a
    loop at b, whose exponent 301 needs more than a byte;
  * zonotope points (plain, --count and --format csv) and zonotope
    vertices (plain and --count) on 12 disjoint edges among 26 vertices,
    past the 24 vertices of the subset-inequality test;
  * matpoly reducibility at n = 4..7: diagonal, upper triangular, cyclic
    and conjugated leading-diagonal polynomials;
  * sample at every 2- and 3-line stratum of several arrangements, with
    a few parameter sets and some rejected inputs; then matpoly
    charpoly|classify|reducibility on each sample OLD_SRC printed and on
    its transpose;
  * matpoly charpoly, matpoly classify and sample on rationals outside
    the grammar -?[0-9]+(/[0-9]+)? (underscores, spaces, exponents,
    decimals) and on a 5,001-digit integer, which Fraction rejects;
  * matpoly classify on a degree-two polynomial whose char poly is its
    arrangement's product but whose divisor is no indegree divisor;
  * every command that takes an INPUT on files holding JSON that is no
    object (5, 1.5, true, null, "x"), matpoly classify with the file as
    --arrangement too;
  * strata enumerate (JSON, --format csv, --table) on a shape whose six
    vertices carry all the escaped names above, a tab among them;
  * every command on an INPUT that is no valid JSON, matpoly classify
    with it as --arrangement too, and --max-edges -1 before each group
    and before sample;
  * --help of the root command, of every group and of every subcommand.

--quick drops the K5 and K6 Hasse exports and strata cr --lines 6, and keeps
the first two benchmark seeds.  Exit status: 0 when every command agrees, 1 otherwise.  Uses the
standard library only; the worker imports the package under test.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import random
import subprocess
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
LOCAL_SEEDS = range(1, 9)
ARRANGEMENTS = (
    [[0, 1], [1, 2]],
    [["1/2", "-3"], ["5/7", "4"]],
    [[0, 1], [1, 2], [3, 4]],
    [[0, 0], [1, 1], [0, 2]],
    [["1/2", "1/3"], ["-2/5", "7/4"], ["3", "-1/6"]],
    [["1234567890", "3"], ["-987654321", "1/1234567"], ["17/19", "-5"]],
)
PARAM_SETS = ("7", "2", "-3/4", "1234567891/3")
#: Vertex names that JSON must escape, or that a %-template must not read.
ODD_NAMES = ['q"uote', "back\\slash", "café", "雪", "%d%s%%", "tab\tline "]
EXCERPT = 300
#: Bytes of a command's stdout kept whole; the matpoly phase reads a
#: sample's stdout, and a short one is kept whole.
HEAD = 1 << 16
#: Every group of the CLI with its subcommands; sample is a command of
#: the root.
COMMANDS = {
    "graph": ("indeg", "bpoly", "classify", "dot"),
    "zonotope": ("points", "vertices"),
    "strata": ("enumerate", "adjacency", "local", "components", "cr"),
    "hasse": ("export",),
    "matpoly": ("charpoly", "classify", "reducibility"),
}
#: Strings that parse_rational rejects, and that Fraction accepts.
NOT_RATIONAL = ("1_0", " 2 ", "1e4300", "0.5", "+3", "1/-2")
#: A string of the grammar that Fraction rejects, past Python's 4,300 digits.
LONG_RATIONAL = "7" * 5001
#: JSON texts that are no object.
SCALARS = ("5", "1.5", "true", "null", '"x"')


def _vertices(n: int) -> list[str]:
    return [f"v{i + 1}" for i in range(n)]


def _complete_edges(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _graph(n: int, edges, names=None) -> str:
    names = names or _vertices(n)
    return json.dumps({"vertices": names, "edges": [[names[u], names[v]] for u, v in edges]})


def _multigraphs(count: int, loops: bool):
    """Seeded multigraphs with up to 5 vertices and 7 edges, drawn with
    replacement from the vertex pairs (loops too when asked)."""
    rng = random.Random(20150617 + loops)
    for _ in range(count):
        k = rng.randint(1 if loops else 2, 5)
        pairs = [(i, j) for i in range(k) for j in range(i if loops else i + 1, k)]
        yield k, sorted(rng.choice(pairs) for _ in range(rng.randint(0, 7)))


def _strata(n: int, edges=None):
    """(subgraph edge indices, divisor values) of every stratum on K_n, or
    on the graph with these edges: each edge subset with the indegree
    vector of each of its orientations."""
    if edges is None:
        edges = _complete_edges(n)
    for size in range(len(edges) + 1):
        for subset in itertools.combinations(range(len(edges)), size):
            seen = set()
            for heads in itertools.product((0, 1), repeat=size):
                values = [0] * n
                for i, h in zip(subset, heads):
                    values[edges[i][h]] += 1
                seen.add(tuple(values))
            for values in sorted(seen):
                yield list(subset), values


def _stratum_obj(subgraph, values, names=None) -> dict:
    names = names or _vertices(len(values))
    return {"subgraph": list(subgraph), "divisor": dict(zip(names, values))}


def _local_commands(shape: dict, n: int, edges, names=None, count=None) -> list[list[str]]:
    """strata local on the shape at each of its strata, or at a seeded
    sample of count of them."""
    strata = list(_strata(n, edges))
    if count is not None and len(strata) > count:
        strata = random.Random(len(strata)).sample(strata, count)
    return [
        ["strata", "local", json.dumps({**shape, "stratum": _stratum_obj(*st, names)})]
        for st in strata
    ]


def _compositions(total: int, parts: int):
    """Every tuple of parts nonnegative integers summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def _graph_commands() -> list[list[str]]:
    """graph classify, bpoly and indeg on K1..K4 and the seeded
    multigraphs."""
    cmds = []
    graphs = [(n, _complete_edges(n)) for n in range(1, 5)]
    graphs += itertools.chain(_multigraphs(12, loops=False), _multigraphs(12, loops=True))
    rng = random.Random(13)
    for k, edges in graphs:
        graph = json.loads(_graph(k, edges))
        names, e = graph["vertices"], len(edges)
        divisors = [*_compositions(e, k), (e + 1,) + (0,) * (k - 1)]
        if k > 1:
            divisors.append((-1, e + 1) + (0,) * (k - 2))
        for values in divisors:
            payload = {"graph": graph, "divisor": dict(zip(names, values))}
            cmds.append(["graph", "classify", json.dumps(payload)])
        cmds.append(["graph", "bpoly", json.dumps(graph)])
        for _ in range(3):
            arcs = [pair[::-1] if rng.random() < 0.5 else pair for pair in graph["edges"]]
            cmds.append(["graph", "indeg", json.dumps({"graph": graph, "orientation": arcs})])
    return cmds


def _cycle_commands() -> list[list[str]]:
    """graph classify on the cycles C_3..C_14, the wheels W_4..W_10 (hub
    v1) and two pairs of disjoint cycles.  Each takes the indegree of a
    totally cyclic orientation (all ones on cycles; on wheels the rim is
    a directed cycle and the spokes alternate), that divisor with one unit
    moved from v1 to v2, and with the units of v1 and v2 moved to v3, which
    leaves the edge v1-v2 no head."""
    def cycle(start, n):
        return [(start + i, start + (i + 1) % n) for i in range(n)]

    graphs = [(n, cycle(0, n)) for n in range(3, 15)]
    graphs += [(n, [(0, i) for i in range(1, n)] + cycle(1, n - 1)) for n in range(4, 11)]
    graphs += [(a + b, cycle(0, a) + cycle(a, b)) for a, b in ((3, 3), (5, 7))]
    cmds = []
    for n, edges in graphs:
        heads = [0] * n
        for i, (u, v) in enumerate(edges):
            heads[u if u == 0 and i % 2 else v] += 1
        moved = [heads[0] - 1, heads[1] + 1, *heads[2:]]
        headless = [0, 0, heads[0] + heads[1] + heads[2], *heads[3:]]
        names = _vertices(n)
        graph = {"vertices": names, "edges": [[names[u], names[v]] for u, v in edges]}
        for values in (heads, moved, headless):
            payload = {"graph": graph, "divisor": dict(zip(names, values))}
            cmds.append(["graph", "classify", json.dumps(payload)])
    return cmds


def _reducibility_inputs(n: int) -> list:
    """Degree-one n x n polynomials A_0 + lambda diag(1..n), as JSON
    coefficient lists: A_0 diagonal, upper triangular, a directed n-cycle,
    and the triangular one conjugated by I + E_(n-1),0."""
    rng = random.Random(n)
    lead = [[i + 1 if i == j else 0 for j in range(n)] for i in range(n)]
    diag = [[rng.randint(-5, 5) if i == j else 0 for j in range(n)] for i in range(n)]
    upper = [[rng.choice([-2, 1, 3]) if i < j else x for j, x in enumerate(row)] for i, row in enumerate(diag)]
    cyclic = [[3 if j == (i + 1) % n else x for j, x in enumerate(row)] for i, row in enumerate(diag)]

    def conjugate(mat):
        # S M S^-1 with S = I + E_(n-1),0: add row 0 to row n-1, then
        # subtract column n-1 from column 0
        out = [list(row) for row in mat]
        out[n - 1] = [x + y for x, y in zip(out[n - 1], out[0])]
        for row in out:
            row[0] -= row[n - 1]
        return out

    polys = [[diag, lead], [upper, lead], [cyclic, lead], [conjugate(upper), conjugate(lead)]]
    return [[[[str(x) for x in row] for row in mat] for mat in p] for p in polys]


def _sqrt(x: Fraction):
    num, den = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if x >= 0 and num * num == x.numerator and den * den == x.denominator:
        return Fraction(num, den)
    return None


def _cubic_points(lines) -> list[list[str]]:
    """Points (z, w), z and w nonzero, on the three-line interior cubic
    w (k z - w) = c1 c2 c3 z^3 of the arrangement."""
    (a1, b1), (a2, b2), (a3, b3) = [[Fraction(x) for x in line] for line in lines]
    c1, c2, c3 = b3 - b2, b1 - b3, b2 - b1
    k = c1 * a1 + c2 * a2 + c3 * a3
    points = []
    for z in range(1, 60):
        root = _sqrt(k * k * z * z - 4 * c1 * c2 * c3 * z**3)
        if root is not None:
            points += [[str(z), str(w)] for w in ((k * z + root) / 2, (k * z - root) / 2) if w]
    return points[:2]


def _scalar_commands(folder: Path) -> list[list[str]]:
    """Every command that takes an INPUT, on a file in folder holding each
    of SCALARS; matpoly classify takes the file as --arrangement too."""
    cmds = []
    for i, text in enumerate(SCALARS):
        path = folder / f"scalar{i}.json"
        path.write_text(text)
        arg = str(path)
        for group, subcommands in COMMANDS.items():
            for name in subcommands:
                extra = ["--arrangement", arg] if (group, name) == ("matpoly", "classify") else []
                cmds.append([group, name, arg, *extra])
        cmds.append(["sample", arg])
    return cmds


def _boundary_commands() -> list[list[str]]:
    """strata enumerate on the all-escaped-names shape, every command on
    invalid JSON, and the root's own --max-edges check."""
    odd = _graph(6, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (5, 5)], ODD_NAMES)
    shape = json.dumps({"shape": {"graph": json.loads(odd), "m": 8, "n": 2}})
    cmds = [["strata", "enumerate", shape, *extra] for extra in ([], ["--format", "csv"], ["--table"])]
    for group, subcommands in COMMANDS.items():
        for name in subcommands:
            extra = ["--arrangement", "{not json"] if (group, name) == ("matpoly", "classify") else []
            cmds.append([group, name, "{not json", *extra])
    cmds.append(["sample", "{not json"])
    cmds += [["--max-edges", "-1", name] for name in (*COMMANDS, "sample")]
    return cmds


def first_commands(quick: bool) -> list[list[str]]:
    cmds: list[list[str]] = []
    for n in range(1, 6 if not quick else 5):
        for fmt in ("dot", "json"):
            cmds.append(["hasse", "export", _graph(n, _complete_edges(n)), "--format", fmt])
    if not quick:
        for seed in range(2):
            order = random.Random(seed).sample(_complete_edges(5), 10)
            cmds.append(["hasse", "export", _graph(5, order)])
        for fmt in ("dot", "json"):
            cmds.append(["hasse", "export", _graph(6, _complete_edges(6)), "--format", fmt])
    for k, edges in _multigraphs(12, loops=False):
        for fmt in ("dot", "json"):
            cmds.append(["hasse", "export", _graph(k, edges), "--format", fmt])
    for k, edges in _multigraphs(12, loops=True):
        graph = _graph(k, edges)
        cmds.append(["hasse", "export", graph])
        cmds.append(["zonotope", "vertices", graph])
        cmds.append(["zonotope", "points", graph, "--format", "csv"])
    for n in range(-1, 8):
        for what in ("points", "vertices"):
            base = ["zonotope", what, "--complete", str(n)]
            cmds += [base, base + ["--count"], base + ["--format", "csv"]]

    cmds += _graph_commands()
    cmds += _cycle_commands()
    for n in (7, 8, 1500):
        empty = {"lines": n, "stratum": {"subgraph": [], "divisor": {}}}
        cmds.append(["strata", "local", json.dumps(empty)])
    for stratum in ({}, {"stratum": {"subgraph": []}}, {"stratum": {"subgraph": [2000000], "divisor": {}}}):
        cmds.append(["strata", "local", json.dumps({"lines": 1500, **stratum})])
    for n in (7, 1500):
        cmds += [["strata", what, "--lines", str(n)] for what in ("enumerate", "cr", "components")]
    if not quick:
        cmds.append(["strata", "cr", "--lines", "6"])
    wide = _graph(2, [(0, 1)] * 300 + [(1, 1)])
    wide_shape = json.dumps({"shape": {"graph": json.loads(wide), "m": 301, "n": 2}})
    for argv in (
        ["graph", "bpoly", wide],
        ["zonotope", "points", wide, "--format", "csv"],
        ["zonotope", "vertices", wide],
        ["strata", "components", wide_shape],
    ):
        cmds.append(["--max-edges", "301", *argv])
    disjoint = _graph(26, [(i, i + 1) for i in range(0, 24, 2)])
    cmds += [
        ["zonotope", "points", disjoint],
        ["zonotope", "points", disjoint, "--count"],
        ["zonotope", "points", disjoint, "--format", "csv"],
        ["zonotope", "vertices", disjoint],
        ["zonotope", "vertices", disjoint, "--count"],
    ]
    shapes = [["--lines", str(n)] for n in range(1, 6)]
    for k, edges in itertools.chain(_multigraphs(12, loops=False), _multigraphs(12, loops=True)):
        shape = {"graph": json.loads(_graph(k, edges)), "m": max(len(edges), 1), "n": 2}
        shapes.append([json.dumps({"shape": shape})])
        cmds += _local_commands({"shape": shape}, k, edges, count=24)
    triangle = {"graph": json.loads(_graph(3, _complete_edges(3))), "m": 1, "n": 2}
    shapes.append([json.dumps({"shape": triangle})])
    cmds += _local_commands({"shape": triangle}, 3, _complete_edges(3))
    cmds += _local_commands({"lines": 3}, 3, _complete_edges(3))
    for k, edges in ((4, _complete_edges(4)), (5, [(0, 1), (0, 1), (1, 2), (2, 2), (0, 2)])):
        names = ODD_NAMES[:k]
        graph = _graph(k, edges, names)
        for fmt in ("dot", "json"):
            cmds.append(["hasse", "export", graph, "--format", fmt])
        shape = {"graph": json.loads(graph), "m": len(edges), "n": 2}
        cmds += _local_commands({"shape": shape}, k, edges, names, count=40)
    for shape in shapes:
        cmds += [
            ["strata", "enumerate", *shape],
            ["strata", "enumerate", *shape, "--format", "csv"],
            ["strata", "enumerate", *shape, "--table"],
            ["strata", "cr", *shape],
            ["strata", "components", *shape],
            ["strata", "components", *shape, "--count"],
        ]

    strata3 = list(_strata(3))
    for upper, lower in itertools.product(strata3, repeat=2):
        payload = {"lines": 3, "upper": _stratum_obj(*upper), "lower": _stratum_obj(*lower)}
        cmds.append(["strata", "adjacency", json.dumps(payload)])
    full, empty = _stratum_obj([0, 1, 2], [1, 1, 1]), _stratum_obj([], [0, 0, 0])
    for upper, lower in ((full, empty), (empty, full)):
        payload = {"shape": triangle, "upper": upper, "lower": lower}
        cmds.append(["strata", "adjacency", json.dumps(payload)])
    full5, empty5 = _stratum_obj(range(10), [4, 3, 2, 1, 0]), _stratum_obj([], [0] * 5)
    payload = json.dumps({"lines": 5, "upper": full5, "lower": empty5})
    for cap in ([], ["--max-edges", "3"], ["--max-edges", "10"]):
        cmds.append([*cap, "strata", "adjacency", payload])
    leafy = (
        (8, [(i, i + 1) for i in range(7)]),
        (7, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (5, 6)]),
        (6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]),
        (3, [(0, 1), (0, 2), (0, 2), (1, 1)]),
    )
    for k, edges in leafy:
        shape = json.dumps({"shape": {"graph": json.loads(_graph(k, edges)), "m": len(edges), "n": 2}})
        for extra in ([], ["--format", "csv"], ["--table"]):
            cmds.append(["strata", "enumerate", shape, *extra])
        cmds.append(["strata", "cr", shape])
    for k in (12, 16):
        cmds.append(["zonotope", "points", _graph(k, [(i, i + 1) for i in range(k - 1)]), "--format", "csv"])
    for n in range(4, 8):
        for coeffs in _reducibility_inputs(n):
            cmds.append(["matpoly", "reducibility", json.dumps({"coeffs": coeffs})])

    sys.path.insert(0, str(BENCH))
    from cli_workloads import lattice_requests

    for seed in LOCAL_SEEDS if not quick else LOCAL_SEEDS[:2]:
        for name, argv in lattice_requests(seed):
            if name.startswith("local") and argv not in cmds:
                cmds.append(argv)

    for lines in ARRANGEMENTS:
        n = len(lines)
        for subgraph, values in _strata(n):
            stratum = {"lines": lines, "subgraph": subgraph, "divisor": dict(zip(_vertices(n), values))}
            if n == 3 and len(subgraph) == 3 and values == (1, 1, 1):
                param_sets = _cubic_points(lines) + [["1", "1"]]
            else:
                param_sets = [[x] * len(subgraph) for x in PARAM_SETS]
                param_sets.append(["0"] * len(subgraph) + ["1"])
            for params in param_sets:
                cmds.append(["sample", json.dumps({**stratum, "params": params})])

    for text in (*NOT_RATIONAL, LONG_RATIONAL):
        cmds.append(["matpoly", "charpoly", json.dumps({"coeffs": [[[text]]]})])
        lines = json.dumps({"lines": [[text, "1"], ["0", "2"]]})
        cmds.append(["matpoly", "classify", json.dumps({"coeffs": [[["1"]]]}), "--arrangement", lines])
        stratum = {"lines": ARRANGEMENTS[0], "subgraph": [0], "divisor": {"v1": 0, "v2": 1}}
        cmds.append(["sample", json.dumps({**stratum, "params": [text]})])
    cmds.append(["matpoly", "charpoly", json.dumps({"coeffs": [[["1_0"]], [[" 2 "]]]})])
    degree_two = {"coeffs": [[["0", "0"], ["0", "1"]], [["1", "0"], ["0", "2"]], [["0", "1"], ["0", "0"]]]}
    lines = json.dumps({"lines": [["0", "1"], ["1", "2"]]})
    cmds.append(["matpoly", "classify", json.dumps(degree_two), "--arrangement", lines])
    cmds.append(["--help"])
    for group, subcommands in COMMANDS.items():
        cmds.append([group, "--help"])
        cmds += [[group, name, "--help"] for name in subcommands]
    cmds.append(["sample", "--help"])
    return cmds


def second_commands(first: list[list[str]], results: list[dict]) -> list[list[str]]:
    """matpoly commands on every sample the first tree printed."""
    cmds = []
    for argv, result in zip(first, results):
        if argv[0] != "sample" or argv[1] == "--help" or result["code"] != 0:
            continue
        poly = json.loads(result["stdout"])
        transposed = {**poly, "coeffs": [[list(col) for col in zip(*mat)] for mat in poly["coeffs"]]}
        arrangement = json.dumps({"lines": json.loads(argv[1])["lines"]})
        for p in (poly, transposed):
            text = json.dumps(p)
            cmds += [
                ["matpoly", "charpoly", text],
                ["matpoly", "classify", text, "--arrangement", arrangement],
                ["matpoly", "reducibility", text],
            ]
    return cmds


# ---------------------------------------------------------------------------
# worker: runs inside the tree under test


class _Digest(io.RawIOBase):
    """A byte sink that hashes all it takes and keeps the first HEAD bytes."""

    def __init__(self) -> None:
        super().__init__()
        self.sha256 = hashlib.sha256()
        self.head = bytearray()

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.sha256.update(data)
        self.head += data[: HEAD - len(self.head)]
        return len(data)


def _capture(main, argv: list[str], src: str) -> dict:
    out, err = _Digest(), io.BytesIO()
    saved = sys.stdout, sys.stderr
    sys.stdout = io.TextIOWrapper(io.BufferedWriter(out), encoding="utf-8", newline="")
    sys.stderr = io.TextIOWrapper(err, encoding="utf-8", newline="")
    try:
        main(args=argv, prog_name="spectral-strata")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:
        traceback.print_exc()
        code = 1
    finally:
        # detach, so that dropping the wrappers does not close the buffers
        sys.stdout.detach().flush()
        sys.stderr.detach()
        sys.stdout, sys.stderr = saved
    # the tree's paths reach stderr (tracebacks); stdout is hashed as written
    stderr = err.getvalue().replace(src.encode(), b"<src>")
    return {
        "code": code,
        "sha256": out.sha256.hexdigest(),
        "stdout": bytes(out.head).decode("utf-8", "backslashreplace"),
        "stderr": stderr.decode("utf-8", "backslashreplace"),
    }


def worker(src: str) -> None:
    sys.path.insert(0, src)
    from spectral_strata.cli import main

    commands = json.load(sys.stdin)
    results = [_capture(main, argv, src) for argv in commands]
    json.dump(results, sys.stdout)


def run_tree(src: Path, commands: list[list[str]]) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", str(src)],
        input=json.dumps(commands),
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def compare(old: Path, new: Path, commands: list[list[str]]) -> tuple[list[dict], int]:
    old_results, new_results = run_tree(old, commands), run_tree(new, commands)
    differing = 0
    for argv, a, b in zip(commands, old_results, new_results):
        fields = [f for f in ("code", "sha256", "stderr") if a[f] != b[f]]
        if fields:
            differing += 1
            print(f"DIFF {' '.join(argv)[:EXCERPT]}")
            for f in fields:
                shown = "stdout" if f == "sha256" else f
                print(f"  {shown}: {str(a[shown])[:EXCERPT]!r} -> {str(b[shown])[:EXCERPT]!r}")
    return old_results, differing


def main(argv: list[str]) -> int:
    if argv[:1] == ["--worker"]:
        worker(argv[1])
        return 0
    quick = "--quick" in argv
    paths = [a for a in argv if a != "--quick"]
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (Path(p).resolve() for p in paths)
    with tempfile.TemporaryDirectory() as folder:
        first = first_commands(quick) + _scalar_commands(Path(folder)) + _boundary_commands()
        old_results, differing = compare(old, new, first)
    second = second_commands(first, old_results)
    _, more = compare(old, new, second)
    total = len(first) + len(second)
    print(f"{total - differing - more} of {total} commands agree; {differing + more} differ")
    return 1 if differing + more else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
