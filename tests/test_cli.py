import csv
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from spectral_strata.cli import main
from spectral_strata.errors import StrataError
from spectral_strata.graphs import Multigraph, complete_graph, graph_to_json_obj

from helpers import leaf_commands

K3_GRAPH = {
    "vertices": ["v1", "v2", "v3"],
    "edges": [["v1", "v2"], ["v1", "v3"], ["v2", "v3"]],
}
E2_GRAPH = {"vertices": ["a", "b"], "edges": [["a", "b"]]}
TWO_LINES = [["0", "0"], ["1", "1"]]
# divisors of one edge on three lines: edge 0 is v1-v2, edge 1 is v1-v3
V2_ONE = {"v1": 0, "v2": 1, "v3": 0}
V3_ONE = {"v1": 0, "v2": 0, "v3": 1}
ORB2 = {
    "m": 1,
    "n": 2,
    "coeffs": [[["0", "5"], ["0", "1"]], [["0", "0"], ["0", "1"]]],
}
# 20 edges, the default cap, with 4,320 zonotope vertices
K7_LESS_AN_EDGE = Multigraph(complete_graph(7).vertices, complete_graph(7).edges[1:])
# a degree-two polynomial whose char poly is the product of the lines
# mu = lambda and mu = 1 + 2 lambda, and whose divisor is no indegree
# divisor of its eigenvector subgraph
DEGREE_TWO = {"coeffs": [[["0", "0"], ["0", "1"]], [["1", "0"], ["0", "2"]], [["0", "1"], ["0", "0"]]]}


def run(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env, catch_exceptions=False)


def run_ok(*args, env=None):
    result = run(*args, env=env)
    assert result.exit_code == 0, result.output
    return result.output


class TestGraphCommands:
    def test_indeg(self):
        payload = json.dumps(
            {
                "graph": K3_GRAPH,
                "orientation": [["v1", "v2"], ["v3", "v1"], ["v2", "v3"]],
            }
        )
        assert json.loads(run_ok("graph", "indeg", payload)) == {
            "v1": 1,
            "v2": 1,
            "v3": 1,
        }

    def test_bpoly_matches_library(self):
        from spectral_strata import b_polynomial, graph_from_json_obj

        out = run_ok("graph", "bpoly", json.dumps(K3_GRAPH))
        expected = b_polynomial(graph_from_json_obj(K3_GRAPH)).to_json_obj()
        assert json.loads(out) == expected

    def test_classify(self):
        payload = json.dumps(
            {"graph": K3_GRAPH, "divisor": {"v1": 1, "v2": 1, "v3": 1}}
        )
        obj = json.loads(run_ok("graph", "classify", payload))
        assert obj["tag"] == "completely_reducible"
        assert obj["irreducible"] is True
        assert len(obj["witness"]) == 3

    def test_dot(self):
        out = run_ok("graph", "dot", json.dumps(K3_GRAPH))
        assert out.startswith("graph G {")

    def test_file_input(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(K3_GRAPH))
        out = run_ok("graph", "bpoly", str(path))
        assert json.loads(out)

    def test_empty_graph_accepted(self):
        out = run_ok("graph", "bpoly", json.dumps({"vertices": [], "edges": []}))
        assert json.loads(out) == [{"exponents": {}, "coeff": "1"}]

    @pytest.mark.parametrize(
        "edges, values, witness",
        [
            # a-c cannot take c (room 0), so a-b moves from a to b
            ([["a", "b"], ["a", "c"]], (1, 1, 0), [["a", "b"], ["c", "a"]]),
            ([["a", "b"], ["a", "b"], ["a", "c"]], (1, 2, 0), [["a", "b"], ["a", "b"], ["c", "a"]]),
            ([["a", "b"], ["a", "a"], ["b", "b"]], (1, 2), [["a", "b"], ["a", "a"], ["b", "b"]]),
        ],
    )
    def test_classify_witness_stdout(self, edges, values, witness):
        names = ["a", "b", "c"][: len(values)]
        payload = {"graph": {"vertices": names, "edges": edges}, "divisor": dict(zip(names, values))}
        expected = {
            "tag": "reducible_not_cr",
            "irreducible": False,
            "completely_reducible": False,
            "witness": witness,
        }
        assert run_ok("graph", "classify", json.dumps(payload)) == json.dumps(
            expected, separators=(", ", ": ")
        ) + "\n"

    @pytest.mark.parametrize("n", [40, 200])
    def test_classify_long_cycles(self, n):
        # far beyond a sweep of the 2^n vertex subsets
        names = [f"c{i}" for i in range(n)]
        graph = {"vertices": names, "edges": [[names[i], names[(i + 1) % n]] for i in range(n)]}
        ones = dict.fromkeys(names, 1)
        obj = json.loads(run_ok("graph", "classify", json.dumps({"graph": graph, "divisor": ones})))
        assert obj["tag"] == "completely_reducible"
        assert obj["irreducible"] is True and len(obj["witness"]) == n
        if n == 40:
            moved = {**ones, "c0": 0, "c1": 2}
            obj = json.loads(run_ok("graph", "classify", json.dumps({"graph": graph, "divisor": moved})))
            assert obj["tag"] == "reducible_not_cr"
            assert obj["irreducible"] is False and obj["completely_reducible"] is False

    def test_schema_error_names_the_vertex(self):
        bad = json.dumps({"vertices": ["v1"], "edges": [["v1", "v9"]]})
        result = run("graph", "bpoly", bad)
        assert result.exit_code == 2
        assert "v9" in result.output


class TestZonotopeCommands:
    def test_points_count_complete_five(self):
        assert run_ok("zonotope", "points", "--complete", "5", "--count") == "291\n"

    def test_vertices_count(self):
        assert run_ok("zonotope", "vertices", "--complete", "3", "--count") == "6\n"

    def test_points_past_the_inequality_cap(self):
        # 26 vertices, 12 disjoint edges: every lattice point is a vertex
        names = [f"v{i + 1}" for i in range(26)]
        graph = json.dumps({"vertices": names, "edges": [names[i : i + 2] for i in range(0, 24, 2)]})
        for what in ("points", "vertices"):
            assert run_ok("zonotope", what, graph, "--count") == "4096\n"
        rows = run_ok("zonotope", "points", graph, "--format", "csv").splitlines()[1:]
        assert len(rows) == 4096 and all(row.endswith(",1,true,false") for row in rows)

    def test_vertices_without_orientation_sweep(self, monkeypatch):
        # the vertices are read off the b-polynomial; no orientation is listed
        import sys

        from spectral_strata import graphs

        def no_sweep(*args, **kwargs):
            raise AssertionError("orientations swept for the zonotope vertices")

        sweep = graphs.all_orientations
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "spectral_strata":
                if getattr(module, "all_orientations", None) is sweep:
                    monkeypatch.setattr(module, "all_orientations", no_sweep)
        assert len(json.loads(run_ok("zonotope", "vertices", "--complete", "5"))) == 120
        assert run_ok("zonotope", "vertices", "--complete", "5", "--count") == "120\n"

    def test_points_csv_matches_library(self):
        from spectral_strata import graph_from_json_obj, lattice_csv

        out = run_ok("zonotope", "points", json.dumps(K3_GRAPH), "--format", "csv")
        assert out == lattice_csv(graph_from_json_obj(K3_GRAPH))

    def test_points_csv_computes_lattice_points_once(self, monkeypatch):
        from spectral_strata import zonotope

        calls = []
        lattice_points = zonotope.lattice_points

        def counted(*args):
            calls.append(args)
            return lattice_points(*args)

        monkeypatch.setattr(zonotope, "lattice_points", counted)
        run_ok("zonotope", "points", "--complete", "4", "--format", "csv")
        assert len(calls) == 1

    def test_points_csv_runs_no_classify(self, monkeypatch):
        from spectral_strata import indegree, zonotope

        calls = []
        classify = indegree.classify

        def counted(*args, **kwargs):
            calls.append(args)
            return classify(*args, **kwargs)

        monkeypatch.setattr(indegree, "classify", counted)
        monkeypatch.setattr(zonotope, "classify", counted)
        out = run_ok("zonotope", "points", "--complete", "4", "--format", "csv")
        assert calls == []
        # the flags agree with the public interior test, which classifies
        g = zonotope.permutohedron_graph(4)
        flags = [row.split(",")[-1] == "true" for row in out.splitlines()[1:]]
        assert flags == [zonotope.is_interior(g, d) for d in zonotope.lattice_points(g)]
        assert len(calls) == len(flags) == 38 and any(flags)

    def test_points_json(self):
        out = json.loads(run_ok("zonotope", "points", json.dumps(K3_GRAPH)))
        assert {"v1": 1, "v2": 1, "v3": 1} in out
        assert len(out) == 7

    def test_requires_exactly_one_source(self):
        result = run("zonotope", "points")
        assert result.exit_code == 2


class TestStrataCommands:
    def test_enumerate_table_three_lines(self):
        out = run_ok("strata", "enumerate", "--lines", "3", "--table")
        lines = out.splitlines()
        assert len(lines) == 27  # header + 26 strata
        assert lines[0].split() == [
            "id",
            "edge_bitmask",
            "divisor",
            "dimension",
            "class",
            "multiplicity",
        ]

    def test_enumerate_json_matches_library(self):
        from spectral_strata import stratum_rows
        from spectral_strata.cli import _shape_from_options

        out = json.loads(run_ok("strata", "enumerate", "--lines", "2"))
        assert out == stratum_rows(_shape_from_options(2, None))

    def test_adjacency(self):
        payload = json.dumps(
            {
                "lines": 3,
                "upper": {"subgraph": [0, 1, 2], "divisor": {"v1": 1, "v2": 1, "v3": 1}},
                "lower": {"subgraph": [], "divisor": {"v1": 0, "v2": 0, "v3": 0}},
            }
        )
        assert json.loads(run_ok("strata", "adjacency", payload)) == {
            "multiplicity": 2
        }

    def test_local(self):
        payload = json.dumps(
            {
                "lines": 2,
                "stratum": {"subgraph": [], "divisor": {"v1": 0, "v2": 0}},
            }
        )
        obj = json.loads(run_ok("strata", "local", payload))
        assert obj["p"] == 1 and obj["q"] == 0
        assert len(obj["census"]) == 3
        assert sum(row["multiplicity"] for row in obj["census"]) == 3

    def test_components_count(self):
        assert run_ok("strata", "components", "--lines", "4", "--count") == "38\n"

    def test_cr(self):
        out = json.loads(run_ok("strata", "cr", "--lines", "3"))
        assert out == [
            {"subgraph": [], "divisor": {"v1": 0, "v2": 0, "v3": 0}},
            {"subgraph": [0, 1, 2], "divisor": {"v1": 1, "v2": 1, "v3": 1}},
        ]

    def test_shape_input(self):
        shape = {"shape": {"graph": K3_GRAPH, "m": 1, "n": 3}}
        out = json.loads(run_ok("strata", "enumerate", json.dumps(shape)))
        assert len(out) == 26


class TestHasseCommands:
    def test_dot_export(self):
        e2 = {"vertices": ["v1", "v2"], "edges": [["v1", "v2"]]}
        out = run_ok("hasse", "export", json.dumps(e2))
        assert out.startswith("digraph hasse {")
        assert out.count("->") == 2

    def test_json_export(self):
        e2 = {"vertices": ["v1", "v2"], "edges": [["v1", "v2"]]}
        obj = json.loads(run_ok("hasse", "export", json.dumps(e2), "--format", "json"))
        assert len(obj["elements"]) == 3
        assert obj["covers"] == [[0, 1], [0, 2]]

    def test_loops_rejected(self):
        loop = {"vertices": ["v"], "edges": [["v", "v"]]}
        result = run("hasse", "export", json.dumps(loop))
        assert result.exit_code == 2

    @pytest.mark.parametrize("n,chunk", [(3, 1), (4, 7), (5, None)])
    def test_streamed_dot_is_the_library_text(self, monkeypatch, n, chunk):
        from spectral_strata import cli, graph_to_json_obj, hasse_diagram, hasse_to_dot
        from spectral_strata.graphs import complete_graph

        if chunk is not None:
            monkeypatch.setattr(cli, "DOT_CHUNK_LINES", chunk)
        g = complete_graph(n)
        result = run("hasse", "export", json.dumps(graph_to_json_obj(g)))
        assert result.exit_code == 0
        assert result.stdout_bytes == hasse_to_dot(hasse_diagram(g)).encode()


# vertex names that JSON must escape, or that a %-template must not read
ODD_NAMES = ('q"uote', "back\\slash", "café", "雪", "%d%s%%", "tab\tline ")


def seeded_cli_graphs(count, loops):
    """Seeded multigraphs with up to 5 vertices and 6 edges, drawn with
    replacement from the vertex pairs (loops too when asked), so parallel
    edges and isolated vertices occur; every third one has odd names."""
    from spectral_strata import Multigraph

    rng = random.Random(20261019 + loops)
    for i in range(count):
        k = rng.randint(1 if loops else 2, 5)
        pairs = [(a, b) for a in range(k) for b in range(a if loops else a + 1, k)]
        edges = tuple(sorted(rng.choice(pairs) for _ in range(rng.randint(0, 6))))
        names = ODD_NAMES[:k] if i % 3 == 0 else tuple(f"v{j + 1}" for j in range(k))
        yield Multigraph(names, edges)


def library_local_text(shape, s):
    """strata local's stdout as json.dumps of local_model's census."""
    from spectral_strata import classification_to_json_obj, local_model

    model = local_model(shape, s)
    census = [
        {**classification_to_json_obj(label), "multiplicity": m}
        for label, m in model.census.items()
    ]
    return (json.dumps({"p": model.p, "q": model.q, "census": census}) + "\n").encode()


def library_hasse_json(g):
    """hasse export --format json's stdout as json.dumps of hasse_diagram."""
    from spectral_strata import classification_to_json_obj, hasse_diagram

    poset = hasse_diagram(g)
    obj = {
        "elements": [classification_to_json_obj(s) for s in poset.elements],
        "covers": [list(c) for c in poset.cover_relations],
    }
    return (json.dumps(obj) + "\n").encode()


TABLE_HEADER = ["id", "edge_bitmask", "divisor", "dimension", "class", "multiplicity"]


def library_table_text(rows):
    """strata enumerate --table's stdout, rendered from stratum_rows as
    the command rendered it before it streamed."""
    body = [
        [
            str(r["id"]),
            str(r["edge_bitmask"]),
            json.dumps(r["divisor"], separators=(",", ":")),
            str(r["dimension"]),
            r["class"],
            str(r["multiplicity"]),
        ]
        for r in rows
    ]
    widths = [
        max(len(TABLE_HEADER[c]), *(len(b[c]) for b in body)) if body else len(TABLE_HEADER[c])
        for c in range(len(TABLE_HEADER))
    ]
    lines = ["  ".join(x.ljust(w) for x, w in zip(b, widths)).rstrip() for b in [TABLE_HEADER, *body]]
    return "".join(line + "\n" for line in lines).encode()


def library_csv_text(rows):
    """strata_csv's text, written by the csv module from stratum_rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TABLE_HEADER)
    for r in rows:
        writer.writerow(
            [r["id"], r["edge_bitmask"], json.dumps(r["divisor"]), r["dimension"], r["class"], r["multiplicity"]]
        )
    return buf.getvalue()


def stratum_payload(shape_obj, s):
    stratum = {"subgraph": list(s.subgraph.edge_list()), "divisor": s.divisor.to_mapping()}
    return json.dumps({**shape_obj, "stratum": stratum})


class TestStreamedOutputIsTheLibraryText:
    """strata local and hasse export render from integer rows; their
    stdout must be byte for byte the JSON or DOT of the library objects."""

    def assert_local(self, shape, shape_obj, s):
        result = run("strata", "local", stratum_payload(shape_obj, s))
        assert result.exit_code == 0, result.output
        assert result.stdout_bytes == library_local_text(shape, s)

    def assert_hasse(self, g):
        from spectral_strata import graph_to_json_obj, hasse_diagram, hasse_to_dot

        graph = json.dumps(graph_to_json_obj(g))
        dot = run("hasse", "export", graph)
        assert dot.exit_code == 0, dot.output
        assert dot.stdout_bytes == hasse_to_dot(hasse_diagram(g)).encode()
        as_json = run("hasse", "export", graph, "--format", "json")
        assert as_json.exit_code == 0, as_json.output
        assert as_json.stdout_bytes == library_hasse_json(g)

    def assert_enumerate(self, shape, args):
        from spectral_strata import strata_csv, stratum_rows

        rows = stratum_rows(shape)
        assert strata_csv(shape) == library_csv_text(rows)
        expected = {
            (): (json.dumps(rows, separators=(", ", ": ")) + "\n").encode(),
            ("--format", "csv"): strata_csv(shape).encode(),
            ("--table",): library_table_text(rows),
        }
        for fmt, text in expected.items():
            result = run("strata", "enumerate", *args, *fmt)
            assert result.exit_code == 0, result.output
            assert result.stdout_bytes == text

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_enumerate_lines(self, monkeypatch, chunk):
        from spectral_strata import cli
        from spectral_strata.cli import _lines_shape

        monkeypatch.setattr(cli, "DOT_CHUNK_LINES", chunk)
        for lines in (1, 2, 3, 4):
            self.assert_enumerate(_lines_shape(lines), ["--lines", str(lines)])

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_enumerate_seeded_multigraphs(self, monkeypatch, chunk):
        from spectral_strata import CurveShape, cli, graph_to_json_obj

        monkeypatch.setattr(cli, "DOT_CHUNK_LINES", chunk)
        family = [*seeded_cli_graphs(24, loops=True), *seeded_cli_graphs(24, loops=False)]
        assert {name for g in family for name in g.vertices} >= set(ODD_NAMES[:5])
        for g in family:
            m = max(g.n_edges, 1)
            shape_obj = {"shape": {"graph": graph_to_json_obj(g), "m": m, "n": 2}}
            self.assert_enumerate(CurveShape(g, m, 2), [json.dumps(shape_obj)])

    def test_enumerate_all_odd_names(self):
        # every name at once, so the tab name reaches --table, whose cells
        # are split at tabs
        from spectral_strata import CurveShape, Multigraph, graph_to_json_obj

        g = Multigraph(ODD_NAMES, ((0, 1), (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (5, 5)))
        shape_obj = {"shape": {"graph": graph_to_json_obj(g), "m": g.n_edges, "n": 2}}
        self.assert_enumerate(CurveShape(g, g.n_edges, 2), [json.dumps(shape_obj)])

    @pytest.mark.parametrize("chunk", [1, 4096])
    def test_cr_lines(self, monkeypatch, chunk):
        from spectral_strata import classification_to_json_obj, cli, cr_strata
        from spectral_strata.cli import _lines_shape

        monkeypatch.setattr(cli, "DOT_CHUNK_LINES", chunk)
        for lines in (1, 2, 3, 4, 5):
            labels = cr_strata(_lines_shape(lines))
            text = cli._dumps([classification_to_json_obj(s) for s in labels]) + "\n"
            result = run("strata", "cr", "--lines", str(lines))
            assert result.exit_code == 0, result.output
            assert result.stdout_bytes == text.encode()
        # a rejected shape prints nothing, even one piece per chunk
        result = run("strata", "cr", json.dumps({"shape": {"graph": K3_GRAPH, "m": 1, "n": 2}}))
        assert result.exit_code == 2
        assert result.stdout_bytes == b""

    def test_cr_builds_no_label(self, monkeypatch):
        # strata cr streams the table's rows; a StratumLabel per row would
        # be the list that cr_strata builds for library callers
        from spectral_strata import strata

        def no_label(self):
            raise AssertionError("StratumLabel built for a row of strata cr")

        monkeypatch.setattr(strata.StratumLabel, "__post_init__", no_label)
        result = run("strata", "cr", "--lines", "4")
        assert result.exit_code == 0, result.output
        assert len(json.loads(result.output)) == 26

    @pytest.mark.parametrize("lines", [1, 2, 3])
    def test_local_every_stratum(self, lines):
        from spectral_strata import enumerate_strata
        from spectral_strata.cli import _lines_shape

        shape = _lines_shape(lines)
        for s in enumerate_strata(shape):
            self.assert_local(shape, {"lines": lines}, s)

    def test_local_seeded_four_lines(self):
        from spectral_strata import enumerate_strata
        from spectral_strata.cli import _lines_shape

        shape = _lines_shape(4)
        strata = enumerate_strata(shape)
        for s in [strata[0]] + random.Random(4).sample(strata, 12):
            self.assert_local(shape, {"lines": 4}, s)

    @pytest.mark.parametrize("chunk", [1, 7, None])
    def test_local_seeded_multigraphs(self, monkeypatch, chunk):
        from spectral_strata import CurveShape, enumerate_strata, graph_to_json_obj
        from spectral_strata import cli

        if chunk is not None:
            monkeypatch.setattr(cli, "DOT_CHUNK_LINES", chunk)
        family = list(seeded_cli_graphs(24, loops=True))
        assert any(u == v for g in family for u, v in g.edges)
        assert any(len(set(g.edges)) < g.n_edges for g in family)
        assert any(len({x for e in g.edges for x in e}) < g.n_vertices for g in family)
        for g in family:
            m = max(g.n_edges, 1)
            shape = CurveShape(g, m, 2)
            shape_obj = {"shape": {"graph": graph_to_json_obj(g), "m": m, "n": 2}}
            for s in enumerate_strata(shape):
                self.assert_local(shape, shape_obj, s)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_hasse_complete_graphs(self, n):
        from spectral_strata.graphs import complete_graph

        self.assert_hasse(complete_graph(n))

    def test_hasse_odd_names_on_k5(self):
        from spectral_strata import Multigraph
        from spectral_strata.graphs import complete_graph

        self.assert_hasse(Multigraph(ODD_NAMES[:5], complete_graph(5).edges))

    @pytest.mark.parametrize("chunk", [1, 7, None])
    def test_hasse_seeded_multigraphs(self, monkeypatch, chunk):
        from spectral_strata import cli

        if chunk is not None:
            monkeypatch.setattr(cli, "DOT_CHUNK_LINES", chunk)
        family = list(seeded_cli_graphs(24, loops=False))
        assert any(len(set(g.edges)) < g.n_edges for g in family)
        assert any(len({x for e in g.edges for x in e}) < g.n_vertices for g in family)
        for g in family:
            self.assert_hasse(g)

    @pytest.mark.parametrize(
        "args",
        [
            (
                "strata",
                "local",
                {"lines": 3, "stratum": {"subgraph": [0], "divisor": {"v1": 0, "v2": 0, "v3": 1}}},
            ),
            (
                "--max-edges",
                "2",
                "strata",
                "local",
                {"lines": 3, "stratum": {"subgraph": [], "divisor": {"v1": 0, "v2": 0, "v3": 0}}},
            ),
            ("hasse", "export", {"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "b"]]}),
            ("hasse", "export", "--format", "json", {"vertices": ["a"], "edges": [["a", "a"]]}),
            ("--max-edges", "2", "hasse", "export", K3_GRAPH),
            ("--max-edges", "2", "hasse", "export", "--format", "json", K3_GRAPH),
        ],
    )
    def test_rejected_input_prints_nothing(self, args):
        *command, payload = args
        result = run(*command, json.dumps(payload))
        assert result.exit_code == 2
        assert result.stdout_bytes == b""
        assert "error" in json.loads(result.stderr)

    @pytest.mark.parametrize("fmt", [(), ("--format", "csv"), ("--table",)])
    @pytest.mark.parametrize(
        "options,shape",
        [
            # the triangle's strata have negative dimension when m = 1, n = 2
            ((), {"graph": K3_GRAPH, "m": 1, "n": 2}),
            (("--max-edges", "2"), {"graph": K3_GRAPH, "m": 1, "n": 3}),
        ],
    )
    def test_rejected_enumerate_prints_nothing(self, monkeypatch, fmt, options, shape):
        from spectral_strata import cli

        # one piece per chunk: the error must come before the first piece
        monkeypatch.setattr(cli, "DOT_CHUNK_LINES", 1)
        result = run(*options, "strata", "enumerate", *fmt, json.dumps({"shape": shape}))
        assert result.exit_code == 2
        assert result.stdout_bytes == b""
        assert "error" in json.loads(result.stderr)


IMPORT_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from spectral_strata.cli import main
try:
    main(args=json.loads(sys.argv[3]), prog_name="spectral-strata")
    code = 0
except SystemExit as exc:
    code = exc.code
loaded = list(sys.modules)
with open(sys.argv[2], "w") as f:
    json.dump({"code": code, "loaded": loaded}, f)
"""
SAMPLE_TWO_LINES = {"lines": TWO_LINES, "subgraph": [0], "divisor": {"v1": 0, "v2": 1}, "params": ["5"]}
MATRIX_MODULES = {"spectral_strata.matpoly", "spectral_strata.exact"}


class TestImportBoundary:
    """The matrix modules load only for the commands that use them, and
    each command loads only the modules it runs."""

    def probe(self, tmp_path, argv):
        import spectral_strata

        src = str(Path(spectral_strata.__file__).resolve().parent.parent)
        out = tmp_path / "probe.json"
        subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, src, str(out), json.dumps(argv)],
            stdout=subprocess.DEVNULL,
            check=True,
        )
        result = json.loads(out.read_text())
        assert result["code"] == 0, argv
        return set(result["loaded"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["strata", "enumerate", "--lines", "3"],
            ["strata", "cr", "--lines", "3"],
            ["strata", "components", "--lines", "3"],
            ["strata", "local", json.dumps({"lines": 2, "stratum": {"subgraph": [], "divisor": {}}})],
            ["zonotope", "points", "--complete", "3"],
            ["zonotope", "vertices", "--complete", "3"],
            ["hasse", "export", json.dumps(K3_GRAPH)],
            ["graph", "bpoly", json.dumps(K3_GRAPH)],
            ["--help"],
        ],
    )
    def test_graph_commands_leave_the_matrix_modules_out(self, tmp_path, argv):
        loaded = self.probe(tmp_path, argv)
        assert "spectral_strata.cli" in loaded
        assert not loaded & MATRIX_MODULES

    @pytest.mark.parametrize(
        "argv, allowed",
        [
            (["--help"], {"cli", "errors", "graphs"}),
            (["zonotope", "points", "--complete", "3"], {"cli", "errors", "graphs", "indegree", "zonotope"}),
            (["strata", "cr", "--lines", "3"], {"cli", "errors", "graphs", "indegree", "strata"}),
        ],
    )
    def test_each_command_loads_only_its_modules(self, tmp_path, argv, allowed):
        loaded = self.probe(tmp_path, argv)
        ours = {name for name in loaded if name.startswith("spectral_strata.")}
        assert ours == {f"spectral_strata.{name}" for name in allowed}
        # the value classes generate no code, so nothing imports dataclasses
        assert "dataclasses" not in loaded

    @pytest.mark.parametrize(
        "argv", [["matpoly", "charpoly", json.dumps(ORB2)], ["sample", json.dumps(SAMPLE_TWO_LINES)]]
    )
    def test_matrix_commands_load_them(self, tmp_path, argv):
        assert MATRIX_MODULES <= self.probe(tmp_path, argv)

    def test_package_names_resolve_to_their_home_modules(self):
        from importlib import import_module

        import spectral_strata

        assert len(spectral_strata.__all__) == len(set(spectral_strata.__all__)) == 86
        listed = dir(spectral_strata)
        for name in spectral_strata.__all__:
            home = import_module(f"spectral_strata.{spectral_strata._HOMES[name]}")
            value = getattr(spectral_strata, name)
            assert value is getattr(home, name)
            if callable(value):
                assert value.__module__ == home.__name__, name
            assert name in listed
        with pytest.raises(AttributeError):
            spectral_strata.no_such_name
        from spectral_strata import matpoly

        assert matpoly.classification_to_json_obj is spectral_strata.classification_to_json_obj


class TestMatpolyCommands:
    def test_charpoly(self):
        rows = json.loads(run_ok("matpoly", "charpoly", json.dumps(ORB2)))
        assert {"lambda": 0, "mu": 2, "coeff": "1"} in rows

    def test_classify_orb2(self):
        out = json.loads(
            run_ok(
                "matpoly",
                "classify",
                json.dumps(ORB2),
                "--arrangement",
                json.dumps({"lines": TWO_LINES}),
            )
        )
        assert out == {"subgraph": [0], "divisor": {"v1": 0, "v2": 1}}

    def test_reducibility(self):
        out = json.loads(run_ok("matpoly", "reducibility", json.dumps(ORB2)))
        assert out == {"reducibility": "reducible_not_cr"}

    def test_reducibility_ten_digit_slopes(self):
        lead = [["1000000007", "0"], ["0", "1000000009"]]
        payload = {"coeffs": [[["3", "0"], ["0", "-4"]], lead]}
        out = json.loads(run_ok("matpoly", "reducibility", json.dumps(payload)))
        assert out == {"reducibility": "completely_reducible"}

    def test_sample_round_trip(self):
        payload = json.dumps(
            {
                "lines": TWO_LINES,
                "subgraph": [0],
                "divisor": {"v1": 0, "v2": 1},
                "params": ["5"],
            }
        )
        sampled = json.loads(run_ok("sample", payload))
        out = json.loads(
            run_ok(
                "matpoly",
                "classify",
                json.dumps(sampled),
                "--arrangement",
                json.dumps({"lines": TWO_LINES}),
            )
        )
        assert out == {"subgraph": [0], "divisor": {"v1": 0, "v2": 1}}


class TestCliContract:
    def test_determinism(self):
        args = ("strata", "enumerate", "--lines", "3", "--format", "csv")
        assert run_ok(*args) == run_ok(*args)

    def test_validation_error_payload(self):
        bad = json.dumps({"vertices": ["a"], "edges": [["a", "b"]]})
        result = run("graph", "bpoly", bad)
        assert result.exit_code == 2
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err["error"]["type"] == "GraphConstructionError"
        assert "unknown endpoint" in err["error"]["message"]

    @pytest.mark.parametrize(
        "args",
        [
            ("graph", "bpoly", {"vertices": ["a"], "edges": 5}),
            ("graph", "bpoly", {"vertices": ["a"], "edges": [[["a"], "a"]]}),
            ("graph", "classify", {"graph": E2_GRAPH, "divisor": {"a": True, "b": False}}),
            ("graph", "classify", {"graph": E2_GRAPH, "divisor": [1, 0]}),
            ("strata", "enumerate", {**E2_GRAPH, "m": None, "n": 2}),
            ("strata", "cr", {**E2_GRAPH, "m": None, "n": 2}),
            ("strata", "components", {**E2_GRAPH, "m": None, "n": 2}),
            ("strata", "local", {"lines": None, "stratum": {}}),
            ("strata", "local", {"lines": 2, "stratum": {"subgraph": 5, "divisor": {}}}),
            ("strata", "local", {"lines": 3, "stratum": {"subgraph": [0.7], "divisor": V2_ONE}}),
            ("strata", "local", {"lines": 3, "stratum": {"subgraph": ["0"], "divisor": V2_ONE}}),
            ("strata", "local", {"lines": 3, "stratum": {"subgraph": [True], "divisor": V3_ONE}}),
            (
                "strata",
                "adjacency",
                {
                    "lines": 3,
                    "upper": {"subgraph": {"0": 1}, "divisor": V2_ONE},
                    "lower": {"subgraph": [], "divisor": {"v1": 0, "v2": 0, "v3": 0}},
                },
            ),
            (
                "sample",
                {"lines": TWO_LINES, "subgraph": [0.0], "divisor": {"v1": 0, "v2": 1}, "params": ["5"]},
            ),
            ("matpoly", "reducibility", {"coeffs": 5}),
            ("matpoly", "reducibility", {"coeffs": [5]}),
            ("matpoly", "reducibility", {"coeffs": [[["1"]]], "m": None}),
            ("matpoly", "reducibility", {"coeffs": [[[True]]]}),
            ("matpoly", "classify", json.dumps(ORB2), "--arrangement", {"lines": 5}),
            ("matpoly", "classify", json.dumps(ORB2), "--arrangement", {"lines": [[True, 1], ["0", "0"]]}),
            ("sample", {"lines": 5, "subgraph": [], "divisor": {}}),
            (
                "sample",
                {"lines": TWO_LINES, "subgraph": [0], "divisor": {"v1": 0, "v2": 1}, "params": 5},
            ),
            ("strata", "local", {"lines": True, "stratum": {"subgraph": [], "divisor": {}}}),
            ("strata", "local", {"lines": "2", "stratum": {"subgraph": [], "divisor": {}}}),
            ("strata", "local", {"lines": 2.7, "stratum": {"subgraph": [], "divisor": {}}}),
            ("strata", "components", {**E2_GRAPH, "m": True, "n": 2}),
            ("strata", "components", {**E2_GRAPH, "m": 1, "n": "2"}),
            ("strata", "enumerate", {**E2_GRAPH, "m": 1, "n": 2.0}),
            ("--max-edges", "-1", "graph", "bpoly", E2_GRAPH),
            ("matpoly", "reducibility", {"coeffs": [[]]}),
            ("matpoly", "charpoly", {"coeffs": [[]]}),
            ("matpoly", "charpoly", {"coeffs": [[["1_0"]], [[" 2 "]]]}),
            ("matpoly", "charpoly", {"coeffs": [[["1_0"]]]}),
            ("matpoly", "charpoly", {"coeffs": [[[" 2 "]]]}),
            ("matpoly", "charpoly", {"coeffs": [[["1e4300"]]]}),
            ("matpoly", "charpoly", {"coeffs": [[["0.5"]]]}),
            ("matpoly", "classify", json.dumps(DEGREE_TWO), "--arrangement", {"lines": [["0", "1"], ["1", "2"]]}),
        ],
    )
    def test_malformed_input_exits_2(self, args):
        *command, payload = args
        result = run(*command, json.dumps(payload))
        assert result.exit_code == 2
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err["error"]["type"] in ("GraphConstructionError", "StrataError")

    def test_negative_dimension_exits_2(self):
        shape = {"vertices": ["a", "b"], "edges": [["a", "b"], ["a", "b"]], "m": 1, "n": 2}
        result = run("strata", "enumerate", json.dumps(shape))
        assert result.exit_code == 2
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err["error"]["message"] == (
            "shape admits no such stratum: dimension -1 is negative "
            "(more nodes than the degree bound permits)"
        )
        result = run("--max-edges", "1", "strata", "enumerate", json.dumps(shape))
        assert result.exit_code == 2
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err["error"]["type"] == "CapExceededError"

    def test_cr_negative_dimension_exits_2(self):
        # the dimension check is per subgraph, shared by enumerate and cr
        shape = {"shape": {"graph": K3_GRAPH, "m": 1, "n": 2}}
        for command in ("enumerate", "cr"):
            result = run("strata", command, json.dumps(shape))
            assert result.exit_code == 2
            err = json.loads(result.output.strip().splitlines()[-1])
            assert err["error"] == {
                "type": "StrataError",
                "message": "shape admits no such stratum: dimension -2 is negative "
                "(more nodes than the degree bound permits)",
            }

    def test_adjacency_negative_dimension_exits_2(self):
        payload = {
            "shape": {"graph": K3_GRAPH, "m": 1, "n": 2},
            "upper": {"subgraph": [0, 1, 2], "divisor": {"v1": 1, "v2": 1, "v3": 1}},
            "lower": {"subgraph": [], "divisor": {"v1": 0, "v2": 0, "v3": 0}},
        }
        result = run("strata", "adjacency", json.dumps(payload))
        assert result.exit_code == 2
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err["error"] == {
            "type": "StrataError",
            "message": "shape admits no such stratum: dimension -2 is negative "
            "(more nodes than the degree bound permits)",
        }

    @pytest.mark.parametrize("text", ["5", "1.5", "true", "null", '"x"'])
    def test_scalar_input_exits_2(self, tmp_path, text):
        path = tmp_path / "scalar.json"
        path.write_text(text)
        arg = str(path)
        commands = [
            *(["graph", name, arg] for name in ("indeg", "bpoly", "classify", "dot")),
            *(["zonotope", name, arg] for name in ("points", "vertices")),
            *(["strata", name, arg] for name in ("enumerate", "adjacency", "local", "components", "cr")),
            ["hasse", "export", arg],
            ["matpoly", "charpoly", arg],
            ["matpoly", "classify", arg, "--arrangement", arg],
            ["matpoly", "classify", json.dumps(ORB2), "--arrangement", arg],
            ["matpoly", "reducibility", arg],
            ["sample", arg],
        ]
        for argv in commands:
            result = run(*argv)
            assert result.exit_code == 2, argv
            assert "Traceback" not in result.stderr, argv
            err = json.loads(result.stderr.strip().splitlines()[-1])
            assert list(err) == ["error"], argv

    def test_missing_file(self):
        result = run("graph", "bpoly", "no-such-file.json")
        assert result.exit_code == 2

    def test_max_edges_flag(self):
        five_parallel = {
            "vertices": ["a", "b"],
            "edges": [["a", "b"]] * 5,
        }
        result = run("--max-edges", "4", "graph", "bpoly", json.dumps(five_parallel))
        assert result.exit_code == 2
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err["error"]["type"] == "CapExceededError"

    @pytest.mark.parametrize(
        "command, operation",
        [("enumerate", "generating_subgraphs"), ("cr", "generating_subgraphs"), ("components", "b_polynomial")],
    )
    def test_lines_cap_before_building_k_n(self, monkeypatch, command, operation):
        from spectral_strata import cli

        def capped_complete_graph(n):
            assert n * (n - 1) // 2 <= 20, f"K_{n} built before the cap check"
            return complete_graph(n)

        monkeypatch.setattr(cli, "complete_graph", capped_complete_graph)
        result = run("strata", command, "--lines", "1500")
        assert result.exit_code == 2
        err = json.loads(result.output.strip().splitlines()[-1])
        assert err["error"] == {
            "type": "CapExceededError",
            "message": f"{operation}: 1124250 edges exceed the enumeration cap 20",
        }
        result = run("strata", command, "--lines", "0")
        assert result.exit_code == 2
        assert "curve shape requires m >= 1 and n >= 1" in result.output

    def test_local_lines_cap_before_building_k_n(self, monkeypatch):
        from spectral_strata import cli

        def capped_complete_graph(n):
            assert n * (n - 1) // 2 <= 20, f"K_{n} built before the cap check"
            return complete_graph(n)

        monkeypatch.setattr(cli, "complete_graph", capped_complete_graph)
        # p counts the distinct indices, and a bad divisor now meets the cap first
        for subgraph, divisor, p in (([], {}, 1124250), ([0, 0, 5], {"zz": 1}, 1124248)):
            payload = {"lines": 1500, "stratum": {"subgraph": subgraph, "divisor": divisor}}
            result = run("strata", "local", json.dumps(payload))
            assert result.exit_code == 2
            err = json.loads(result.output.strip().splitlines()[-1])
            assert err["error"] == {
                "type": "CapExceededError",
                "message": f"local_model: {p} edges exceed the enumeration cap 20",
            }
        result = run("strata", "local", json.dumps({"lines": 0, "stratum": {"subgraph": [], "divisor": {}}}))
        assert result.exit_code == 2
        assert "curve shape requires m >= 1 and n >= 1" in result.output
        # under the cap, and on inputs of another shape, K_N is built as before
        top = {"subgraph": list(range(15)), "divisor": {f"v{i + 1}": i for i in range(6)}}
        payload = {"lines": 6, "stratum": top}
        assert json.loads(run_ok("strata", "local", json.dumps(payload)))["p"] == 0
        payload = {"lines": 6, "stratum": {"subgraph": [15], "divisor": {}}}
        assert run("strata", "local", json.dumps(payload)).exit_code == 2

    def test_local_stratum_checked_before_building_k_n(self, monkeypatch):
        # a malformed stratum on {"lines": N} is rejected from N alone, with
        # the message it got once K_N was built
        from spectral_strata import cli

        def capped_complete_graph(n):
            assert n * (n - 1) // 2 <= 20, f"K_{n} built before the stratum check"
            return complete_graph(n)

        monkeypatch.setattr(cli, "complete_graph", capped_complete_graph)
        cases = (
            (None, "StrataError", "stratum must be an object"),
            ({"subgraph": []}, "StrataError", "stratum JSON needs 'subgraph' (edge indices) and 'divisor'"),
            (
                {"subgraph": [0, True], "divisor": {}},
                "StrataError",
                "stratum 'subgraph' must be a list of integer edge indices",
            ),
            (
                {"subgraph": [2000000], "divisor": {}},
                "GraphConstructionError",
                "edge_set contains an unknown edge index",
            ),
            ({"subgraph": [-1], "divisor": {}}, "GraphConstructionError", "edge_set contains an unknown edge index"),
        )
        for stratum, kind, message in cases:
            payload = {"lines": 1500} if stratum is None else {"lines": 1500, "stratum": stratum}
            result = run("strata", "local", json.dumps(payload))
            assert result.exit_code == 2
            err = json.loads(result.output.strip().splitlines()[-1])
            assert err["error"] == {"type": kind, "message": message}
        # the index check counts K_N's edges: index 14 is K6's last edge
        payload = {"lines": 6, "stratum": {"subgraph": [14], "divisor": {"v6": 1}}}
        assert json.loads(run_ok("strata", "local", json.dumps(payload)))["p"] == 14

    def test_max_edges_env(self):
        five_parallel = {
            "vertices": ["a", "b"],
            "edges": [["a", "b"]] * 5,
        }
        result = run(
            "graph",
            "bpoly",
            json.dumps(five_parallel),
            env={"SPECTRAL_STRATA_MAX_EDGES": "4"},
        )
        assert result.exit_code == 2

    def test_programmatic_run(self, capsys):
        from spectral_strata.cli import run as cli_run

        assert cli_run(["zonotope", "points", "--complete", "3", "--count"]) == 0
        assert capsys.readouterr().out == "7\n"
        assert cli_run(["graph", "bpoly", '{"vertices": ["a"], "edges": [["a", "x"]]}']) == 2

    def test_cli_is_thin_adapter(self):
        # golden comparison against direct library output
        from spectral_strata import (
            classification_to_json_obj,
            cr_strata,
        )
        from spectral_strata.cli import _shape_from_options

        out = json.loads(run_ok("strata", "cr", "--lines", "2"))
        shape = _shape_from_options(2, None)
        assert out == [classification_to_json_obj(s) for s in cr_strata(shape)]


class TestAdjacencyCap:
    PAYLOAD = json.dumps(
        {
            "lines": 5,
            "upper": {"subgraph": list(range(10)), "divisor": {"v1": 4, "v2": 3, "v3": 2, "v4": 1, "v5": 0}},
            "lower": {"subgraph": [], "divisor": {}},
        }
    )

    def test_max_edges_caps_the_edges_between(self):
        assert json.loads(run_ok("strata", "adjacency", self.PAYLOAD)) == {"multiplicity": 1}
        result = run("--max-edges", "3", "strata", "adjacency", self.PAYLOAD)
        assert result.exit_code == 2
        assert result.stdout_bytes == b""
        assert json.loads(result.stderr) == {
            "error": {
                "type": "CapExceededError",
                "message": "relative_multiplicity: 10 edges exceed the enumeration cap 3",
            }
        }


LEAVES = list(leaf_commands(main))
MAPPED = (StrataError, ValueError, OSError)


def leaf_argv(path):
    """path with INPUT {}, and --arrangement {} where it is required."""
    extra = ["--arrangement", "{}"] if path == ("matpoly", "classify") else []
    return [*path, "{}", *extra]


class TestOneErrorBoundary:
    """The root group maps every command's errors: each leaf of the click
    tree, made to fail where it reads its input, exits 2 with one JSON
    error line, or 1 with nothing on stderr for a closed stdout."""

    def test_the_walk_finds_every_command(self):
        assert len(LEAVES) >= 16
        assert {("graph", "dot"), ("matpoly", "classify"), ("sample",)} <= set(LEAVES)

    @pytest.mark.parametrize("kind", MAPPED, ids=lambda kind: kind.__name__)
    @pytest.mark.parametrize("path", LEAVES, ids=" ".join)
    def test_mapped_error_exits_2(self, monkeypatch, path, kind):
        from spectral_strata import cli

        def fail(source):
            raise kind(f"{kind.__name__} while reading {source}")

        monkeypatch.setattr(cli, "read_json_input", fail)
        result = run(*leaf_argv(path))
        assert result.exit_code == 2
        error = {"type": kind.__name__, "message": f"{kind.__name__} while reading {{}}"}
        assert result.stderr == json.dumps({"error": error}) + "\n"

    @pytest.mark.parametrize("path", LEAVES, ids=" ".join)
    def test_broken_pipe_exits_1(self, monkeypatch, path):
        from spectral_strata import cli

        def fail(source):
            raise BrokenPipeError

        monkeypatch.setattr(cli, "read_json_input", fail)
        result = run(*leaf_argv(path))
        assert result.exit_code == 1
        assert result.stderr == ""

    @pytest.mark.parametrize(
        "argv, head",
        [
            (["strata", "enumerate", "--lines", "5"], 10),
            (["strata", "enumerate", "--lines", "5", "--table"], 10),
            (["hasse", "export", json.dumps(graph_to_json_obj(complete_graph(5)))], 10),
            # one write of the whole text, which a reader leaving in the middle
            # was seen to end with no error, so the pipe is closed before it
            (["zonotope", "points", "--complete", "6"], 0),
            # texts larger than a pipe holds (64 KiB), left in the middle
            (["zonotope", "points", "--complete", "6"], 10),
            # K6's 720 vertices fit in the pipe whole, so K7 less an edge
            (["zonotope", "vertices", json.dumps(graph_to_json_obj(K7_LESS_AN_EDGE))], 10),
            (["strata", "components", "--lines", "6"], 10),
            (["strata", "local", json.dumps({"lines": 5, "stratum": {"subgraph": [], "divisor": {}}})], 10),
            (["hasse", "export", "--format", "json", json.dumps(graph_to_json_obj(complete_graph(5)))], 10),
            # K90's DOT, 72 KB, is one piece
            (["graph", "dot", json.dumps(graph_to_json_obj(complete_graph(90)))], 10),
        ],
    )
    def test_closed_stdout_exits_1(self, argv, head):
        import spectral_strata

        src = str(Path(spectral_strata.__file__).resolve().parent.parent)
        script = "import sys; sys.path.insert(0, sys.argv.pop(1)); from spectral_strata.cli import main; main()"
        proc = subprocess.Popen(
            [sys.executable, "-c", script, src, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        assert len(proc.stdout.read(head)) == head
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert stderr == b""


class _Sink(io.RawIOBase):
    """A byte stream that takes every write whole and keeps nothing."""

    def writable(self):
        return True

    def write(self, data):
        return len(data)


class TestStreamedMemory:
    """The largest outputs stream: written into a sink, each request's
    traced allocations peak far below its text, whatever the text's size
    (K5's DOT alone is over 6 MB)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["hasse", "export", json.dumps(graph_to_json_obj(complete_graph(5)))],
            ["hasse", "export", "--format", "json", json.dumps(graph_to_json_obj(complete_graph(5)))],
            ["strata", "local", json.dumps({"lines": 5, "stratum": {"subgraph": [], "divisor": {}}})],
            ["zonotope", "points", "--complete", "6"],
        ],
        ids=["hasse-dot", "hasse-json", "local0", "points"],
    )
    def test_peak_under_4_mib(self, monkeypatch, argv):
        import tracemalloc

        from spectral_strata import cli, indegree

        # the b-polynomial cache would hide the points' term map
        indegree._bpoly_terms.cache_clear()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BufferedWriter(_Sink()), encoding="utf-8"))
        tracemalloc.start()
        try:
            code = cli.run(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 4 << 20
