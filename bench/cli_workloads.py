"""Requests and output checks of the two CLI workloads.

Each request is (name, argv) for one `spectral-strata` invocation.  Each
check takes the request's stdout and argv and returns a list of problems;
an empty list means the output is right.  The checks compare
against the oracle or against properties the method must have, never
against stored output.
"""

from __future__ import annotations

import json
import random
import re
from functools import lru_cache
from math import factorial

import oracle

LINES = 5
COMPLETE = 6
LINE_EDGES = len(oracle.complete_edges(LINES))
#: Subgraph sizes of the seeded strata whose local census lattice-hasse
#: asks for, besides the empty stratum (p = 10 - size).
LOCAL_SIZES = (1, 3, 5)


@lru_cache(maxsize=None)
def k5_table():
    return oracle.strata_table(LINES)


@lru_cache(maxsize=None)
def k6_sweep():
    return oracle.orientation_sweep(COMPLETE, oracle.complete_edges(COMPLETE))


def _vertices(n: int) -> list[str]:
    return [f"v{i + 1}" for i in range(n)]


def _key(divisor: dict, n: int) -> tuple[int, ...]:
    return tuple(divisor[v] for v in _vertices(n))


def _mask(edges) -> int:
    return sum(1 << i for i in edges)


# ---------------------------------------------------------------------------
# lines5-strata


def lines5_requests(seed: int) -> list[tuple[str, list[str]]]:
    """The 5-line table, its CR rows and its components.  The inputs are
    fixed by the paper's table; the seed only orders the requests."""
    requests = [
        ("enumerate", ["strata", "enumerate", "--lines", str(LINES)]),
        ("cr", ["strata", "cr", "--lines", str(LINES)]),
        ("components", ["strata", "components", "--lines", str(LINES)]),
    ]
    random.Random(seed).shuffle(requests)
    return requests


def check_enumerate(text: str, _request) -> list[str]:
    rows = json.loads(text)
    table = k5_table()
    problems = []
    keys = []
    for row in rows:
        mask, div = row["edge_bitmask"], _key(row["divisor"], LINES)
        keys.append((mask, div))
        entry = table.get(mask, {}).get(div)
        if entry is None:
            problems.append(f"row {row['id']}: ({mask}, {div}) is not a stratum")
            continue
        mult, cyclic, _ = entry
        edges = [i for i in range(LINE_EDGES) if mask >> i & 1]
        want_class = "completely_reducible" if cyclic else "reducible_not_cr"
        if (
            row["multiplicity"] != mult
            or row["class"] != want_class
            or row["dimension"] != len(edges)
            or row["subgraph_edges"] != edges
        ):
            problems.append(f"row {row['id']}: wrong data {row}")
    expected = sorted((m, d) for m, divs in table.items() for d in divs)
    if keys != expected:
        problems.append("rows are not exactly the oracle strata in (bitmask, divisor) order")
    if [row["id"] for row in rows] != list(range(len(rows))):
        problems.append("ids do not run 0..N-1")
    return problems[:20]


def _label_keys(labels: list[dict], n: int) -> list[tuple[int, tuple[int, ...]]]:
    return [(_mask(s["subgraph"]), _key(s["divisor"], n)) for s in labels]


def check_cr(text: str, _request) -> list[str]:
    expected = sorted(
        (m, d) for m, divs in k5_table().items() for d, (_, cyclic, _) in divs.items() if cyclic
    )
    if _label_keys(json.loads(text), LINES) != expected:
        return ["cr is not the set of strata with a totally cyclic orientation"]
    return []


def check_components(text: str, _request) -> list[str]:
    full = (1 << LINE_EDGES) - 1
    got = _label_keys(json.loads(text), LINES)
    forests = oracle.forest_count(LINES, oracle.complete_edges(LINES))
    if got != sorted((full, d) for d in k5_table()[full]) or len(got) != forests:
        return [f"components are not the {forests} top strata of K5"]
    return []


# ---------------------------------------------------------------------------
# lattice-hasse


def lattice_requests(seed: int) -> list[tuple[str, list[str]]]:
    """K6 lattice points and vertices, the K5 Hasse diagram (edges listed
    in a seeded order) and local censuses at the empty 5-line stratum and
    at seeded strata with LOCAL_SIZES edges, each divisor the indegree
    vector of a seeded orientation."""
    rng = random.Random(seed)
    names = _vertices(LINES)
    edges = oracle.complete_edges(LINES)
    order = rng.sample(range(len(edges)), len(edges))
    hasse_graph = {
        "vertices": names,
        "edges": [[names[edges[i][0]], names[edges[i][1]]] for i in order],
    }
    requests = [
        ("points", ["zonotope", "points", "--complete", str(COMPLETE)]),
        ("vertices", ["zonotope", "vertices", "--complete", str(COMPLETE)]),
        ("hasse", ["hasse", "export", json.dumps(hasse_graph)]),
        ("local0", ["strata", "local", json.dumps({"lines": LINES, "stratum": {"subgraph": [], "divisor": {}}})]),
    ]
    for size in LOCAL_SIZES:
        subgraph = sorted(rng.sample(range(len(edges)), size))
        divisor = dict.fromkeys(names, 0)
        for i in subgraph:
            divisor[names[edges[i][rng.randrange(2)]]] += 1
        stratum = {"subgraph": subgraph, "divisor": divisor}
        requests.append(
            (f"local{size}", ["strata", "local", json.dumps({"lines": LINES, "stratum": stratum})])
        )
    return requests


def check_points(text: str, _request) -> list[str]:
    got = [_key(d, COMPLETE) for d in json.loads(text)]
    forests = oracle.forest_count(COMPLETE, oracle.complete_edges(COMPLETE))
    if len(got) != len(set(got)) or set(got) != set(k6_sweep()) or len(got) != forests:
        return [f"points are not the {forests} indegree vectors of K6"]
    return []


def check_vertices(text: str, _request) -> list[str]:
    got = [_key(d, COMPLETE) for d in json.loads(text)]
    images = {d for d, (_, _, acyclic) in k6_sweep().items() if acyclic}
    if len(got) != len(set(got)) or set(got) != images or len(got) != factorial(COMPLETE):
        return [f"vertices are not the {factorial(COMPLETE)} acyclic-orientation images"]
    return []


_NODE = re.compile(r'^  n(\d+) \[label="(\d+)\|([\d,]*)"\];$')
_COVER = re.compile(r"^  n(\d+) -> n(\d+);$")


def check_hasse(text: str, request) -> list[str]:
    graph = json.loads(request[-1])
    names = graph["vertices"]
    edges = [(names.index(a), names.index(b)) for a, b in graph["edges"]]
    canonical = oracle.complete_edges(LINES)
    to_canonical = [canonical.index((min(u, v), max(u, v))) for u, v in edges]
    nodes: dict[int, tuple[int, tuple[int, ...]]] = {}
    covers = []
    for line in text.splitlines():
        if m := _NODE.match(line):
            nodes[int(m[1])] = (int(m[2]), tuple(int(x) for x in m[3].split(",")))
        elif m := _COVER.match(line):
            covers.append((int(m[1]), int(m[2])))
    table = k5_table()
    want_nodes = {
        (sum(1 << i for i in range(len(edges)) if mask >> to_canonical[i] & 1), d)
        for mask, divs in table.items()
        for d in divs
    }
    problems = []
    if (
        sorted(nodes) != list(range(len(want_nodes)))
        or set(nodes.values()) != want_nodes
    ):
        problems.append("Hasse nodes are not the K5 strata table")
    for a, b in covers:
        (mask_a, div_a), (mask_b, div_b) = nodes.get(a, (0, ())), nodes.get(b, (0, ()))
        added = mask_b ^ mask_a
        raised = [i for i, (x, y) in enumerate(zip(div_a, div_b)) if y != x]
        if (
            mask_a & added
            or bin(added).count("1") != 1
            or len(raised) != 1
            or div_b[raised[0]] != div_a[raised[0]] + 1
            or raised[0] not in edges[added.bit_length() - 1]
        ):
            problems.append(f"cover n{a} -> n{b} does not add one oriented edge")
            break
    want_covers = sum(
        len(divs) * 2 * (LINE_EDGES - bin(mask).count("1")) for mask, divs in table.items()
    )
    if len(covers) != want_covers or len(set(covers)) != len(covers):
        problems.append(f"{len(covers)} covers, expected {want_covers} distinct")
    return problems


def check_local(text: str, request) -> list[str]:
    stratum = json.loads(request[-1])["stratum"]
    base = _mask(stratum["subgraph"])
    base_div = tuple(stratum["divisor"].get(v, 0) for v in _vertices(LINES))
    out = json.loads(text)
    table = k5_table()
    size = bin(base).count("1")
    expected = {}
    for extra, divs in table.items():
        if extra & base:
            continue
        for delta, (mult, _, _) in divs.items():
            expected[(base | extra, tuple(a + b for a, b in zip(base_div, delta)))] = mult
    got = {
        (_mask(s["subgraph"]), _key(s["divisor"], LINES)): s["multiplicity"]
        for s in out["census"]
    }
    p = LINE_EDGES - size
    problems = []
    if out["p"] != p or out["q"] != size:
        problems.append(f"(p, q) = ({out['p']}, {out['q']}), expected ({p}, {size})")
    if sum(got.values()) != 3**p or got.get((base, base_div)) != 1:
        problems.append("census does not sum to 3^p or misses its own stratum")
    if got != expected or len(out["census"]) != len(got):
        problems.append("census differs from the oracle's relative multiplicities")
    return problems


CHECKS = {
    "enumerate": check_enumerate,
    "cr": check_cr,
    "components": check_components,
    "points": check_points,
    "vertices": check_vertices,
    "hasse": check_hasse,
}


def check(name: str, text: str, argv: list[str]) -> list[str]:
    fn = check_local if name.startswith("local") else CHECKS[name]
    try:
        return fn(text, argv)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{name}: unreadable output ({type(exc).__name__}: {exc})"]
