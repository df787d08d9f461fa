"""Exact combinatorics of stratified isospectral varieties: indegree
divisors, graphical zonotopes, stratum posets, and classification of
rational matrix polynomials over nodal line-arrangement spectral curves.

Each public name is imported from its module on first access (PEP 562),
so a program that uses only the graph side never loads the matrix
modules, matpoly and exact."""

from importlib import import_module

#: The public names, by the module that defines them.
_EXPORTS = {
    "errors": (
        "ArrangementError",
        "CapExceededError",
        "GraphConstructionError",
        "SampleError",
        "StrataError",
    ),
    "graphs": (
        "DEFAULT_MAX_EDGES",
        "Divisor",
        "Multigraph",
        "Orientation",
        "PartialOrientation",
        "Subgraph",
        "all_orientations",
        "build_graph",
        "degree_divisor",
        "generating_subgraphs",
        "graph_from_json",
        "graph_from_json_obj",
        "graph_to_json",
        "graph_to_json_obj",
        "indeg",
        "indeg_partial",
        "to_dot",
    ),
    "indegree": (
        "DivisorClass",
        "DivisorTag",
        "IndegPolynomial",
        "Reducibility",
        "b_polynomial",
        "circuit_count_check",
        "classify",
        "cr_condition_checks",
        "enumerate_indegree",
        "irreducible_condition_checks",
        "is_indegree",
        "multiplicity",
        "relative_multiplicity",
        "strongly_connected",
        "tau",
        "totally_cyclic",
    ),
    "zonotope": (
        "GraphicalZonotope",
        "graphical_zonotope",
        "halfspace_description",
        "is_interior",
        "lattice_csv",
        "lattice_points",
        "permutohedron",
        "zonotope_vertices",
    ),
    "strata": (
        "CurveShape",
        "LocalModel",
        "StrataPoset",
        "StratumLabel",
        "adjacency_multiplicity",
        "classification_to_json_obj",
        "cr_strata",
        "enumerate_strata",
        "hasse_diagram",
        "hasse_dot_lines",
        "hasse_to_dot",
        "irreducible_components",
        "local_model",
        "path_count_multiplicity",
        "strata_csv",
        "stratum_dimension",
        "stratum_report_json_obj",
        "stratum_rows",
    ),
    "matpoly": (
        "BivariatePolynomial",
        "EigenLineData",
        "MatrixPolynomial",
        "SpectralLineArrangement",
        "arrangement_from_json_obj",
        "arrangement_product",
        "arrangement_to_json_obj",
        "char_poly",
        "check_leading_condition",
        "classify_polynomial",
        "divisor_of",
        "eigen_line_data",
        "gamma_of",
        "interior_cubic_coefficients",
        "interior_cubic_points",
        "line_arrangement",
        "matpoly_from_json_obj",
        "matpoly_to_json_obj",
        "matrix_polynomial",
        "on_interior_cubic",
        "reducibility",
        "sample_stratum",
    ),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOMES)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
