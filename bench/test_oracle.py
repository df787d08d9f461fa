"""Pins the benchmark's oracle to known numbers.

Run with: python3 -m pytest bench/test_oracle.py
"""

from collections import Counter
from fractions import Fraction
from math import factorial

import oracle


def profile(n):
    by_size = Counter()
    for mask, table in oracle.strata_table(n).items():
        by_size[bin(mask).count("1")] += len(table)
    return [by_size[k] for k in sorted(by_size)]


def test_three_lines_have_26_strata_with_profile_7_12_6_1():
    sizes = profile(3)
    assert sum(sizes) == 26
    assert sizes[::-1] == [7, 12, 6, 1]


def test_k5_profile_by_subgraph_size():
    assert profile(5) == [1, 20, 180, 950, 3205, 7092, 10345, 9830, 5850, 1980, 291]
    assert sum(profile(5)) == 39744


def test_permutohedron_lattice_counts_are_forest_counts():
    for n, expected in zip(range(1, 7), [1, 2, 7, 38, 291, 2932]):
        edges = oracle.complete_edges(n)
        assert oracle.forest_count(n, edges) == expected
        assert len(oracle.orientation_sweep(n, edges)) == expected


def test_acyclic_orientations_of_kn_have_n_factorial_images():
    for n in range(1, 7):
        table = oracle.orientation_sweep(n, oracle.complete_edges(n))
        assert sum(1 for _, _, acyclic in table.values() if acyclic) == factorial(n)


def test_inequality_class_matches_totally_cyclic_sweep():
    for n in (3, 4):
        edges = oracle.complete_edges(n)
        for mask, table in oracle.strata_table(n).items():
            sub = [e for i, e in enumerate(edges) if mask >> i & 1]
            connected = len(oracle.components(n, sub)) == 1
            for divisor, (mult, cyclic, _) in table.items():
                cls = oracle.inequality_class(n, sub, divisor)
                assert mult >= 1
                assert (cls != "reducible_not_cr") == cyclic
                assert (cls == "irreducible") == (cyclic and connected)
        assert oracle.inequality_class(n, edges, tuple(range(n))) == "reducible_not_cr"
        assert oracle.inequality_class(n, edges, (0,) * n) == "not_indegree"


def test_fraction_det():
    assert oracle.fraction_det([[Fraction(1, 2), 3], [4, 5]]) == Fraction(-19, 2)
    assert oracle.fraction_det([[0, 1], [1, 0]]) == -1
    assert oracle.fraction_det([[1, 2], [2, 4]]) == 0
