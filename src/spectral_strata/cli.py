"""Command-line front end.

Every subcommand is a thin adapter over the library: parse JSON input
(inline or from a file), call one library operation, print a deterministic
rendering.  The root group (_Root) maps the errors of every command in one
place: validation failures exit with status 2 and a machine-readable error
object on stderr, and a closed stdout exits with status 1.

Of the library, only errors and graphs are imported here.  Each command
imports the modules it runs (indegree, zonotope, strata, matpoly) when
it runs, so a request loads no module it does not use, and --help
loads none of them.
"""

from __future__ import annotations

import json
import sys
from itertools import chain, islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import click

from .errors import StrataError
from .graphs import (
    DEFAULT_MAX_EDGES,
    Multigraph,
    Orientation,
    Subgraph,
    check_edge_indices,
    complete_graph,
    divisor_from_json_obj,
    ensure_cap,
    graph_from_json_obj,
    indeg,
    to_dot,
)

if TYPE_CHECKING:
    from .strata import CurveShape, StratumLabel

JSON_SEPARATORS = (", ", ": ")
#: Pieces of a streamed output written per chunk, so the whole text is
#: never held in memory at once.  A piece is a DOT line or a JSON array
#: item, or the covers of one Hasse element, which may be several lines
#: or items.
DOT_CHUNK_LINES = 4096


def _dumps(obj) -> str:
    return json.dumps(obj, separators=JSON_SEPARATORS)


def _echo_stream(pieces: Iterable[str]) -> None:
    """Write the pieces to stdout, DOT_CHUNK_LINES of them per chunk, each
    chunk whole (_write_whole)."""
    out = sys.stdout
    out.flush()
    pieces = iter(pieces)
    # a chunk is its first piece and up to DOT_CHUNK_LINES - 1 more; no
    # list of them, nor the text of the last chunk, is kept beside the text
    for first in pieces:
        chunk = chain([first], islice(pieces, DOT_CHUNK_LINES - 1))
        _write_whole(out.buffer, "".join(chunk).encode(out.encoding, out.errors))


def _write_whole(buffer, data: bytes) -> None:
    """Write data to a byte stream and flush it, writing again until all
    of it is taken.  A pipe takes a large block in parts, and a text
    stream drops the rest, with no error, if the reader leaves in
    between; the next write here raises BrokenPipeError instead."""
    view = memoryview(data)
    while view:
        view = view[buffer.write(view):]
    buffer.flush()


def _json_array(items: Iterable[str]) -> Iterator[str]:
    """The _dumps text of a list whose items are already rendered: "[",
    then the items joined by ", ", then "]"."""
    yield "["
    for i, item in enumerate(items):
        yield ", " + item if i else item
    yield "]"


def _label_texts(g: Multigraph, rows: Iterable[tuple]) -> Iterator[tuple[str, tuple]]:
    """For rows (edge bitmask, exponent key, ...) in bitmask order: the
    _dumps text of each {"subgraph": [...], "divisor": {...}} object
    without its closing brace, with its row.  Vertex names are encoded
    once, into a %-template of the divisor, and each subgraph's prefix
    once."""
    from .indegree import _decoder, _divisor_template, _edges_of

    divisor = _divisor_template(g.vertices)
    decode = _decoder(g)
    mask = template = None
    for row in rows:
        if row[0] != mask:
            mask = row[0]
            edges = _dumps(_edges_of(mask, g.n_edges))
            template = '{"subgraph": ' + edges + ', "divisor": ' + divisor
        yield template % decode(row[1]), row


def _divisor_texts(g: Multigraph, keys: Iterable[int]) -> Iterator[str]:
    """The _dumps text of the list of the divisors with these exponent
    keys, then a newline, filled into one %-template."""
    from .indegree import _decoder, _divisor_template

    divisor = _divisor_template(g.vertices)
    decode = _decoder(g)
    return chain(_json_array(divisor % decode(key) for key in keys), ["\n"])


def _cover_texts(covers: Iterable[tuple[int, Sequence[int]]]) -> Iterator[str]:
    """For covers by lower element (lower, uppers): the _dumps texts of
    its pairs [lower, upper], joined by ", ", one piece per element."""
    for a, uppers in covers:
        head = f"[{a}, "
        yield head + ("], " + head).join(map(str, uppers)) + "]"


def _stratum_texts(g: Multigraph, table: Iterable[tuple]) -> Iterator[str]:
    """The _dumps text of each stratum_rows row, from the _table_rows
    table, with one %-template per subgraph (as in _label_texts)."""
    from .indegree import _divisor_template, _edges_of
    from .strata import _stratum_lines

    divisor = _divisor_template(g.vertices)

    def template(mask: int, dim: int) -> str:
        edges = _dumps(_edges_of(mask, g.n_edges))
        return (
            f'{{"id": %d, "edge_bitmask": {mask}, "subgraph_edges": {edges}, "divisor": '
            + divisor
            + f', "dimension": {dim}, "class": "%s", "multiplicity": %d}}'
        )

    return _stratum_lines(g, table, template)


def read_json_input(source: str) -> dict:
    """Accept a file path or inline JSON (detected by a leading brace)."""
    text = source
    if not source.lstrip().startswith(("{", "[")):
        path = Path(source)
        if not path.exists():
            raise StrataError(f"input file {source!r} does not exist")
        text = path.read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise StrataError(f"invalid JSON input: {exc}") from None


class _Root(click.Group):
    """The root group: it runs its own callback and every subcommand, so
    their errors all end here.  A closed stdout exits 1; a validation
    failure exits 2 with one JSON error object on stderr.  stdout is
    flushed inside, so a write that a closed pipe refuses at the flush
    also exits 1."""

    def invoke(self, ctx: click.Context):
        try:
            result = super().invoke(ctx)
            sys.stdout.flush()
            return result
        except BrokenPipeError:
            sys.exit(1)
        except (StrataError, ValueError, OSError) as exc:
            payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
            click.echo(_dumps(payload), err=True)
            sys.exit(2)


def _graph_from_any(obj) -> Multigraph:
    if isinstance(obj, dict) and "graph" in obj:
        obj = obj["graph"]
    return graph_from_json_obj(obj)


def _orientation_from_arcs(g: Multigraph, arcs) -> Orientation:
    if not isinstance(arcs, list) or len(arcs) != g.n_edges:
        raise StrataError("orientation must list one [tail, head] pair per edge")
    flips = []
    for i, arc in enumerate(arcs):
        if not (isinstance(arc, list) and len(arc) == 2):
            raise StrataError(f"orientation entry {arc!r} is not a pair")
        t, h = g.vertex_index(arc[0]), g.vertex_index(arc[1])
        u, v = g.edges[i]
        if {t, h} != {u, v}:
            raise StrataError(f"orientation entry {i} does not match edge {i}")
        flips.append(h == u and u != v)
    return Orientation(g, tuple(flips))


def _lines_shape(lines: int) -> CurveShape:
    from .strata import CurveShape

    return CurveShape(complete_graph(lines), 1, lines)


def _shape_from_options(
    lines: int | None,
    input_arg: str | None,
    max_edges: int = DEFAULT_MAX_EDGES,
    operation: str = "generating_subgraphs",
) -> CurveShape:
    """Shape from --lines N or from an input holding a shape, bare or
    under 'shape'.  K_N's N(N-1)/2 edges meet the cap of the operation
    before K_N is built."""
    if (lines is None) == (input_arg is None):
        raise StrataError("provide exactly one of --lines N or an input shape")
    if lines is not None:
        if lines > 1:
            ensure_cap(lines * (lines - 1) // 2, max_edges, operation)
        return _lines_shape(lines)
    obj = read_json_input(input_arg)
    if not (isinstance(obj, dict) and "shape" in obj):
        obj = {"shape": obj}
    return _shape_from_obj(obj)


def _shape_from_obj(obj) -> CurveShape:
    """Shape from an input object carrying either 'lines' or 'shape'."""
    from .strata import CurveShape

    if not isinstance(obj, dict):
        raise StrataError("input must be a JSON object")
    if "lines" in obj:
        return _lines_shape(_int_field(obj, "lines"))
    if "shape" not in obj:
        raise StrataError("input needs 'lines' or 'shape'")
    sh = obj["shape"]
    g = _graph_from_any(sh)
    return CurveShape(g, _int_field(sh, "m"), _int_field(sh, "n"))


def _local_checks_before_k_n(obj, max_edges: int) -> None:
    """On {"lines": N, "stratum": ...} with N >= 1, the checks that need
    only N, in the order they would meet K_N: the stratum's structure, its
    edge indices against the N(N-1)/2 edges, and the census's
    p = N(N-1)/2 - #distinct indices edges against local_model's cap."""
    if not (isinstance(obj, dict) and "lines" in obj and _int_field(obj, "lines") > 0):
        return
    e = obj["lines"] * (obj["lines"] - 1) // 2
    edges = _stratum_edges(obj.get("stratum"))
    check_edge_indices(edges, e)
    ensure_cap(e - len(set(edges)), max_edges, "local_model")


def _int_field(obj: dict, key: str) -> int:
    try:
        value = obj[key]
    except KeyError:
        raise StrataError(f"shape JSON must carry 'm' and 'n': missing {key!r}") from None
    # bool is a subclass of int, but true/false are not sizes
    if not isinstance(value, int) or isinstance(value, bool):
        raise StrataError(f"{key!r} must be an integer")
    return value


def _stratum_edges(obj) -> list[int]:
    """The edge indices of a stratum object, whose structure is checked."""
    if not isinstance(obj, dict):
        raise StrataError("stratum must be an object")
    edges = obj.get("subgraph", obj.get("subgraph_edges"))
    if edges is None or "divisor" not in obj:
        raise StrataError("stratum JSON needs 'subgraph' (edge indices) and 'divisor'")
    # bool is a subclass of int, but true/false are not edge indices
    if not isinstance(edges, list) or not all(
        isinstance(e, int) and not isinstance(e, bool) for e in edges
    ):
        raise StrataError("stratum 'subgraph' must be a list of integer edge indices")
    return edges


def _stratum_from_obj(g: Multigraph, obj) -> StratumLabel:
    from .strata import StratumLabel

    sub = Subgraph(g, frozenset(_stratum_edges(obj)))
    return StratumLabel(sub, divisor_from_json_obj(g, obj["divisor"]))


@click.group(cls=_Root)
@click.option(
    "--max-edges",
    type=int,
    default=DEFAULT_MAX_EDGES,
    envvar="SPECTRAL_STRATA_MAX_EDGES",
    show_default=True,
    help="Edge cap for exhaustive enumerations (2^cap cases).",
)
@click.pass_context
def main(ctx: click.Context, max_edges: int) -> None:
    """Exact combinatorics of stratified isospectral varieties."""
    if max_edges < 0:
        raise StrataError(f"--max-edges must be a nonnegative integer, not {max_edges}")
    ctx.obj = max_edges


# ---------------------------------------------------------------------------
# graph

@main.group()
def graph() -> None:
    """Multigraph operations."""


@graph.command("indeg")
@click.argument("input_arg", metavar="INPUT")
def graph_indeg(input_arg: str) -> None:
    """Indegree divisor of {"graph": ..., "orientation": [[tail, head], ...]}."""
    obj = read_json_input(input_arg)
    g = _graph_from_any(obj)
    o = _orientation_from_arcs(g, obj.get("orientation"))
    click.echo(_dumps(indeg(o).to_mapping()))


@graph.command("bpoly")
@click.argument("input_arg", metavar="INPUT")
@click.pass_obj
def graph_bpoly(max_edges: int, input_arg: str) -> None:
    """Orientation generating polynomial of a graph JSON."""
    from . import indegree as _indegree

    g = _graph_from_any(read_json_input(input_arg))
    _echo_stream([_dumps(_indegree.b_polynomial(g, max_edges).to_json_obj()) + "\n"])


@graph.command("classify")
@click.argument("input_arg", metavar="INPUT")
def graph_classify(input_arg: str) -> None:
    """Classify {"graph": ..., "divisor": ...}."""
    from . import indegree as _indegree

    obj = read_json_input(input_arg)
    g = _graph_from_any(obj)
    d = divisor_from_json_obj(g, obj.get("divisor", {}))
    cls = _indegree.classify(g, d)
    witness = None
    if cls.witness is not None:
        witness = [
            [g.vertices[t], g.vertices[h]] for t, h in cls.witness.arcs()
        ]
    click.echo(
        _dumps(
            {
                "tag": cls.tag.value,
                "irreducible": cls.irreducible,
                "completely_reducible": cls.completely_reducible,
                "witness": witness,
            }
        )
    )


# ---------------------------------------------------------------------------
# zonotope

def _zonotope_graph(complete: int | None, input_arg: str | None) -> Multigraph:
    if (complete is None) == (input_arg is None):
        raise StrataError("provide exactly one of --complete N or an input graph")
    if complete is not None:
        from .zonotope import permutohedron_graph

        return permutohedron_graph(complete)
    return _graph_from_any(read_json_input(input_arg))


@main.group()
def zonotope() -> None:
    """Graphical zonotope lattice data."""


@zonotope.command("points")
@click.argument("input_arg", metavar="[INPUT]", required=False)
@click.option("--complete", type=int, default=None, help="Use the complete graph K_n.")
@click.option("--count", is_flag=True, help="Print only the number of points.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.pass_obj
def zonotope_points(max_edges: int, input_arg, complete, count, fmt) -> None:
    """Lattice points of the graphical zonotope."""
    g = _zonotope_graph(complete, input_arg)
    if fmt == "csv" and not count:
        from .zonotope import lattice_csv

        _echo_stream([lattice_csv(g, max_edges)])
        return
    from .indegree import _bpoly_terms

    # the points are the b-polynomial's exponents (zonotope.lattice_points)
    ensure_cap(g.n_edges, max_edges, "lattice_points")
    terms = _bpoly_terms(g)
    if count:
        click.echo(str(len(terms)))
        return
    _echo_stream(_divisor_texts(g, sorted(terms)))


@zonotope.command("vertices")
@click.argument("input_arg", metavar="[INPUT]", required=False)
@click.option("--complete", type=int, default=None, help="Use the complete graph K_n.")
@click.option("--count", is_flag=True, help="Print only the number of vertices.")
@click.pass_obj
def zonotope_vertices_cmd(max_edges: int, input_arg, complete, count) -> None:
    """Vertices of the graphical zonotope."""
    from .zonotope import _vertex_keys

    g = _zonotope_graph(complete, input_arg)
    keys = _vertex_keys(g, max_edges)
    if count:
        click.echo(str(len(keys)))
        return
    _echo_stream(_divisor_texts(g, keys))


# ---------------------------------------------------------------------------
# strata

@main.group()
def strata() -> None:
    """Stratification of the isospectral variety."""


def _table(shape: CurveShape, max_edges: int) -> Iterator[tuple]:
    """The _table_rows table of the shape.  Its first subgraph raises the
    cap and dimension errors, so it is taken before any output."""
    from .strata import _table_rows

    table = _table_rows(shape, max_edges)
    return chain([next(table)], table)


@strata.command("enumerate")
@click.argument("input_arg", metavar="[INPUT]", required=False)
@click.option("--lines", type=int, default=None, help="n-lines shape (dual graph K_n, m=1).")
@click.option(
    "--format", "fmt", type=click.Choice(["json", "csv", "table"]), default="json"
)
@click.option("--table", "as_table", is_flag=True, help="Shorthand for --format table.")
@click.pass_obj
def strata_enumerate(max_edges: int, input_arg, lines, fmt, as_table) -> None:
    """Enumerate all strata of a curve shape."""
    from . import strata as _strata

    shape = _shape_from_options(lines, input_arg, max_edges)
    if as_table:
        fmt = "table"
    g = shape.dual_graph
    table = _table(shape, max_edges)
    if fmt == "csv":
        _echo_stream(_strata._csv_lines(g, table))
        return
    if fmt == "json":
        _echo_stream(chain(_json_array(_stratum_texts(g, table)), ["\n"]))
        return
    # json.dumps escapes a tab in a vertex name, so a tab only ever separates cells
    divisor = _strata._divisor_template(g.vertices, ",", ":")
    cells = _strata._stratum_lines(g, table, lambda mask, dim: f"%d\t{mask}\t{divisor}\t{dim}\t%s\t%d")
    rows = [["id", "edge_bitmask", "divisor", "dimension", "class", "multiplicity"]]
    rows += (line.split("\t") for line in cells)
    widths = [max(map(len, column)) for column in zip(*rows)]
    _echo_stream("  ".join(x.ljust(w) for x, w in zip(row, widths)).rstrip() + "\n" for row in rows)


@strata.command("adjacency")
@click.argument("input_arg", metavar="INPUT")
@click.pass_obj
def strata_adjacency(max_edges: int, input_arg: str) -> None:
    """Multiplicity of stratum 'upper' along stratum 'lower'.

    INPUT: {"shape"|"lines": ..., "upper": stratum, "lower": stratum}.
    """
    from . import strata as _strata

    obj = read_json_input(input_arg)
    shape = _shape_from_obj(obj)
    s1 = _stratum_from_obj(shape.dual_graph, obj.get("upper"))
    s2 = _stratum_from_obj(shape.dual_graph, obj.get("lower"))
    mult = _strata.adjacency_multiplicity(shape, s1, s2, max_edges)
    click.echo(_dumps({"multiplicity": mult}))


@strata.command("local")
@click.argument("input_arg", metavar="INPUT")
@click.pass_obj
def strata_local(max_edges: int, input_arg: str) -> None:
    """Local census around a stratum.

    INPUT: {"shape"|"lines": ..., "stratum": {"subgraph": [...], "divisor": ...}}.
    """
    from . import strata as _strata

    obj = read_json_input(input_arg)
    _local_checks_before_k_n(obj, max_edges)
    shape = _shape_from_obj(obj)
    s = _stratum_from_obj(shape.dual_graph, obj.get("stratum"))
    p, q, rows = _strata._local_rows(shape, s, max_edges)
    census = (f'{text}, "multiplicity": {row[2]}}}' for text, row in _label_texts(shape.dual_graph, rows))
    _echo_stream(chain([f'{{"p": {p}, "q": {q}, "census": '], _json_array(census), ["}\n"]))


@strata.command("components")
@click.argument("input_arg", metavar="[INPUT]", required=False)
@click.option("--lines", type=int, default=None)
@click.option("--count", is_flag=True)
@click.pass_obj
def strata_components(max_edges: int, input_arg, lines, count) -> None:
    """Irreducible components: the top strata."""
    from . import strata as _strata

    shape = _shape_from_options(lines, input_arg, max_edges, "b_polynomial")
    comps = _strata.irreducible_components(shape, max_edges)
    if count:
        click.echo(str(len(comps)))
        return
    _echo_stream([_dumps([_strata.classification_to_json_obj(s) for s in comps]) + "\n"])


@strata.command("cr")
@click.argument("input_arg", metavar="[INPUT]", required=False)
@click.option("--lines", type=int, default=None)
@click.pass_obj
def strata_cr(max_edges: int, input_arg, lines) -> None:
    """Completely reducible strata (the compactified-Jacobian index set)."""
    from . import strata as _strata

    shape = _shape_from_options(lines, input_arg, max_edges)
    rows = _strata._cr_rows(_table(shape, max_edges))
    texts = (text + "}" for text, _ in _label_texts(shape.dual_graph, rows))
    _echo_stream(chain(_json_array(texts), ["\n"]))


# ---------------------------------------------------------------------------
# hasse

@main.group()
def hasse() -> None:
    """Poset of (subgraph, divisor) pairs on a loopless graph."""


@hasse.command("export")
@click.argument("input_arg", metavar="INPUT")
@click.option("--format", "fmt", type=click.Choice(["dot", "json"]), default="dot")
@click.pass_obj
def hasse_export(max_edges: int, input_arg: str, fmt: str) -> None:
    """Export the Hasse diagram of a graph JSON."""
    from . import strata as _strata

    g = _graph_from_any(read_json_input(input_arg))
    elements, covers = _strata._hasse_table(g, max_edges)
    if fmt == "dot":
        decode = _strata._decoder(g)
        labels = ((mask, decode(key)) for mask, key in elements)
        _echo_stream(_strata._hasse_dot(labels, covers, "hasse"))
        return
    _echo_stream(
        chain(
            ['{"elements": '],
            _json_array(text + "}" for text, _ in _label_texts(g, elements)),
            [', "covers": '],
            _json_array(_cover_texts(covers)),
            ["}\n"],
        )
    )


# ---------------------------------------------------------------------------
# matpoly

@main.group()
def matpoly() -> None:
    """Exact matrix-polynomial operations."""


@matpoly.command("charpoly")
@click.argument("input_arg", metavar="INPUT")
def matpoly_charpoly(input_arg: str) -> None:
    """Characteristic bivariate polynomial of a matrix polynomial JSON."""
    from . import matpoly as _matpoly

    p = _matpoly.matpoly_from_json_obj(read_json_input(input_arg))
    click.echo(_dumps(_matpoly.char_poly(p).to_json_obj()))


@matpoly.command("classify")
@click.argument("input_arg", metavar="INPUT")
@click.option("--arrangement", "arrangement_arg", required=True, metavar="INPUT")
def matpoly_classify(input_arg: str, arrangement_arg: str) -> None:
    """Stratum label of a matrix polynomial over a line arrangement."""
    from . import matpoly as _matpoly

    p = _matpoly.matpoly_from_json_obj(read_json_input(input_arg))
    c = _matpoly.arrangement_from_json_obj(read_json_input(arrangement_arg))
    label = _matpoly.classify_polynomial(p, c)
    click.echo(_dumps(_matpoly.classification_to_json_obj(label)))


@matpoly.command("reducibility")
@click.argument("input_arg", metavar="INPUT")
def matpoly_reducibility(input_arg: str) -> None:
    """Invariant-subspace classification (n <= 6)."""
    from . import matpoly as _matpoly

    p = _matpoly.matpoly_from_json_obj(read_json_input(input_arg))
    click.echo(_dumps({"reducibility": _matpoly.reducibility(p).value}))


# ---------------------------------------------------------------------------
# sample

@main.command("sample")
@click.argument("input_arg", metavar="INPUT")
def sample(input_arg: str) -> None:
    """Sample a matrix polynomial from a stratum.

    INPUT: {"lines": [[a, b], ...], "subgraph": [edge indices],
    "divisor": {...}, "params": [nonzero rationals]}.
    """
    from . import matpoly as _matpoly

    obj = read_json_input(input_arg)
    if not isinstance(obj, dict):
        raise StrataError("input must be a JSON object")
    if "lines" not in obj:
        raise StrataError("sample input needs 'lines'")
    c = _matpoly.arrangement_from_json_obj(obj)
    label = _stratum_from_obj(c.dual_graph, obj)
    params = obj.get("params", [])
    if not isinstance(params, list):
        raise StrataError("sample 'params' must be a list of nonzero rationals")
    p = _matpoly.sample_stratum(c, label, params)
    click.echo(_dumps(_matpoly.matpoly_to_json_obj(p)))


def run(argv) -> int:
    """Programmatic entry point: execute one CLI request and return the
    exit code (0 success, 2 validation failure)."""
    try:
        main(args=list(argv), standalone_mode=False)
    except SystemExit as exc:
        return int(exc.code or 0)
    except click.ClickException as exc:
        exc.show()
        return 2
    except click.exceptions.Abort:
        return 1
    return 0


# dot export of a plain graph, attached under `graph`

@graph.command("dot")
@click.argument("input_arg", metavar="INPUT")
def graph_dot(input_arg: str) -> None:
    """DOT export of a graph JSON, with arrows when an orientation is given."""
    obj = read_json_input(input_arg)
    g = _graph_from_any(obj)
    o = None
    if isinstance(obj, dict) and obj.get("orientation") is not None:
        o = _orientation_from_arcs(g, obj["orientation"])
    _echo_stream([to_dot(g, o)])


if __name__ == "__main__":
    main()
