"""The matpoly-pipeline workload: one library session in one process.

    python3 bench/matpoly_pipeline.py --seed 1 --seconds 20 [--trace-out FILE]

Prints "ready" once the package is imported and the seeded inputs are
built (with --setup-only it stops there).  Then it runs whole passes over
the requests, sampling the reference task of calibration.py, until
--seconds of pass time have gone by and, with --trace-out, one more pass
without sampling and with the library's public functions wrapped.  The
last line of its output is one JSON object with each pass's wall time,
work time and request latencies (both without the reference task's
time), its scale to reference seconds, attempted and failed counts, the
peak RSS after the first pass, and the problems the output checks found.

A request is the work on one matrix polynomial:
  * n = 2, 3 samples: sample_stratum, classify_polynomial, reducibility
    and char_poly;
  * their conjugates S P S^-1 and the n = 4..6 polynomials and their
    conjugates: classify_polynomial, reducibility (n <= 3) and char_poly.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import calibration
import oracle
from request import peak_rss_mib

#: Line arrangements per pass.  Every stratum of a 2-line arrangement is
#: sampled.  The 26 strata of 3 lines are sampled 8 to an arrangement, in
#: turn, so each is sampled 8 times a pass.  A request's cost depends on
#: its arrangement's numbers, so more arrangements with fewer samples each
#: keep the median latency steadier from seed to seed.
ARRANGEMENTS = {2: 4, 3: 26}
STRATA_PER_3 = 8
#: Every BIG_EVERY-th 3-line arrangement takes 5-digit prime slopes, so
#: that exact.rational_roots costs a visible amount; primes keep its
#: divisor count, and so its cost, the same from seed to seed.
BIG_EVERY = 8
BIG_SLOPES = [p for p in range(10007, 10400) if all(p % d for d in range(2, 102))]
SMALL_SLOPES = range(1, 100)
#: Upper-triangular polynomials per pass, by size.
TRIANGULAR = {4: 8, 5: 8, 6: 6}
POINTS = 2


@dataclass
class Item:
    """Inputs of one sample (n <= 3, label set) or one upper-triangular
    polynomial (n >= 4, poly set), with its conjugator S and the seeded
    (lambda, mu) points at which det(P - mu Id) is checked."""

    n: int
    lines: list
    arrangement: object
    s: list
    s_inv: list
    points: list
    label: object = None
    key: tuple = None
    params: list = None
    poly: object = None
    conj: object = None
    results: dict = field(default_factory=dict)


def _sign(rng: random.Random) -> int:
    return rng.choice((-1, 1))


def _nodal(lines: list) -> bool:
    nodes = set()
    for (a_i, b_i), (a_j, b_j) in combinations(lines, 2):
        if b_i == b_j:
            return False
        lam = (a_j - a_i) / (b_i - b_j)
        nodes.add((lam, a_i + b_i * lam))
    return len(nodes) == len(lines) * (len(lines) - 1) // 2


def _draw_lines(rng: random.Random, n: int, slopes) -> list:
    while True:
        lines = [
            (Fraction(rng.randint(-50, 50)), Fraction(_sign(rng) * b))
            for b in rng.sample(slopes, n)
        ]
        if _nodal(lines):
            return lines


def _unimodular(rng: random.Random, n: int) -> tuple[list, list]:
    """A seeded integer matrix of determinant 1 and its integer inverse,
    as a product of 2n elementary row operations."""
    s = [[int(i == j) for j in range(n)] for i in range(n)]
    s_inv = [row[:] for row in s]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        for c in range(n):
            s[i][c] += k * s[j][c]
        for r in range(n):
            s_inv[r][j] -= k * s_inv[r][i]
    return s, s_inv


def _matmul(a, b) -> list:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _points(rng: random.Random) -> list:
    return [
        tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(2))
        for _ in range(POINTS)
    ]


def build_items(seed: int) -> list[Item]:
    from spectral_strata import matpoly as mp
    from spectral_strata import graphs

    rng = random.Random(seed)
    items = []
    for n, count in ARRANGEMENTS.items():
        edges = oracle.complete_edges(n)
        for index in range(count):
            big = n == 3 and index % BIG_EVERY == BIG_EVERY - 1
            lines = _draw_lines(rng, n, BIG_SLOPES if big else SMALL_SLOPES)
            arrangement = mp.line_arrangement(lines)
            g = arrangement.dual_graph
            strata = [(m, d) for m, ds in sorted(oracle.strata_table(n).items()) for d in sorted(ds)]
            for k, (mask, divisor) in enumerate(strata):
                if n == 3 and (k - STRATA_PER_3 * index) % len(strata) >= STRATA_PER_3:
                    continue
                sub = graphs.Subgraph(g, frozenset(i for i in range(len(edges)) if mask >> i & 1))
                if n == 3 and mask == 7 and divisor == (1, 1, 1):
                    params = _cubic_point(rng, lines)
                else:
                    params = [
                        Fraction(_sign(rng) * rng.randint(1, 999))
                        for _ in range(bin(mask).count("1"))
                    ]
                items.append(
                    Item(
                        n, lines, arrangement, *_unimodular(rng, n), _points(rng),
                        label=mp.StratumLabel(sub, graphs.Divisor(g.vertices, divisor)),
                        key=(mask, divisor),
                        params=params,
                    )
                )
    for n, count in TRIANGULAR.items():
        for _ in range(count):
            lines = _draw_lines(rng, n, SMALL_SLOPES)
            a0 = [
                [
                    lines[i][0] if i == j
                    else Fraction(_sign(rng) * rng.randint(1, 99))
                    if j > i and rng.random() < 0.5
                    else Fraction(0)
                    for j in range(n)
                ]
                for i in range(n)
            ]
            a1 = [[lines[i][1] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
            s, s_inv = _unimodular(rng, n)
            poly = mp.matrix_polynomial([a0, a1])
            conj = mp.matrix_polynomial([_matmul(_matmul(s, a), s_inv) for a in (a0, a1)])
            items.append(
                Item(n, lines, mp.line_arrangement(lines), s, s_inv, _points(rng), poly=poly, conj=conj)
            )
    return items


def _cubic_point(rng: random.Random, lines: list) -> list:
    """(z, w) on the interior cubic w (k z - w) = c1 c2 c3 z^3 of a
    3-line arrangement: w = t z with z = t (k - t) / (c1 c2 c3)."""
    (a1, b1), (a2, b2), (a3, b3) = lines
    c1, c2, c3 = b3 - b2, b1 - b3, b2 - b1
    k = c1 * a1 + c2 * a2 + c3 * a3
    while True:
        t = Fraction(_sign(rng) * rng.randint(1, 99))
        if t != k:
            z = t * (k - t) / (c1 * c2 * c3)
            return [z, t * z]


# ---------------------------------------------------------------------------
# one pass


def run_pass(items: list[Item], sampler: calibration.Sampler | None = None) -> dict:
    """Run every request once, back to back; the conjugate of a fresh
    sample is built between its two requests, outside their latencies.
    The sampler's time is taken out of the latencies and the work time;
    each latency is scaled by the samples near it, the work time by those
    of the whole pass."""
    from spectral_strata import matpoly as mp

    latencies, spans = [], []
    failed = 0
    clock = time.perf_counter
    spent = (lambda: sampler.spent) if sampler else (lambda: 0.0)
    first, spent0 = (len(sampler.samples), sampler.spent) if sampler else (0, 0.0)
    start = clock()
    for item in items:
        poly = item.poly
        for which in ("p", "conj"):
            t0, s0 = clock(), spent()
            try:
                if which == "p" and item.label is not None:
                    poly = mp.sample_stratum(item.arrangement, item.label, item.params)
                elif poly is None:
                    raise RuntimeError("no polynomial: the sample request failed")
                label = mp.classify_polynomial(poly, item.arrangement)
                red = mp.reducibility(poly) if item.n <= 3 else None
                q = mp.char_poly(poly)
            except Exception as exc:  # a failed request is counted, not fatal
                failed += 1
                item.results[which] = repr(exc)
                poly = None
                continue
            finally:
                latencies.append(clock() - t0 - (spent() - s0))
                spans.append((t0, clock()))
            item.results[which] = (poly, label, red, q)
            if which == "p":
                poly = item.conj or mp.matrix_polynomial(
                    [_matmul(_matmul(item.s, a), item.s_inv) for a in poly.coefficients]
                )
    wall = clock() - start
    out = {"wall": wall, "work": wall - (spent() - spent0), "latencies": latencies}
    if sampler:
        samples = sampler.samples[first:]
        out["scale"] = calibration.scale([d for _, d in samples])
        out["wall_ref"] = out["work"] * out["scale"]
        local = calibration.local_scales(samples, spans, out["scale"])
        out["latencies_ref"] = [t * k for t, k in zip(latencies, local)]
    return {
        **out,
        "attempted": len(latencies),
        "failed": failed,
    }


# ---------------------------------------------------------------------------
# output checks


def _evaluate(poly, lam: Fraction) -> list:
    out = [[Fraction(0)] * len(poly.coefficients[0]) for _ in poly.coefficients[0]]
    for k, mat in enumerate(poly.coefficients):
        for i, row in enumerate(mat):
            for j, x in enumerate(row):
                out[i][j] += x * lam**k
    return out


def _key(label) -> tuple:
    return (sum(1 << i for i in label.subgraph.edge_set), label.divisor.values)


_SWEEPS: dict = {}


def check_item(item: Item) -> list[str]:
    """Problems in one item's results, checked against the oracle."""
    if any(not isinstance(item.results.get(w), tuple) for w in ("p", "conj")):
        return []  # a failed request is counted in `failed`
    (p, label, red, q), (pc, label_c, red_c, q_c) = item.results["p"], item.results["conj"]
    where = f"n={item.n} {item.key or 'triangular'}"
    problems = []
    for lam, mu in item.points:
        want = Fraction(1)
        for a, b in item.lines:
            want *= a + b * lam - mu
        for poly, char in ((p, q), (pc, q_c)):
            shifted = _evaluate(poly, lam)
            for i in range(item.n):
                shifted[i][i] -= mu
            value = sum(c * lam**i * mu**j for (i, j), c in char.terms.items())
            if oracle.fraction_det(shifted) != want or value != want:
                problems.append(f"{where}: det(P - mu Id) is not the arrangement product")
    got = _key(label)
    if _key(label_c) != got or red_c != red:
        problems.append(f"{where}: the conjugate has another label or reducibility")
    mask, divisor = got
    edges = [e for i, e in enumerate(oracle.complete_edges(item.n)) if mask >> i & 1]
    if item.n <= 3:
        if got != item.key:
            problems.append(f"{where}: the sample classifies to {got}")
        if red.value != oracle.inequality_class(item.n, edges, divisor):
            problems.append(f"{where}: reducibility {red.value} disagrees with the inequalities")
    else:
        sweep = _SWEEPS.get((item.n, mask))
        if sweep is None:
            sweep = _SWEEPS[(item.n, mask)] = oracle.orientation_sweep(item.n, edges)
        if sum(divisor) != len(edges) or divisor not in sweep:
            problems.append(f"{where}: {divisor} is not an indegree divisor of its subgraph")
    return problems


def fingerprint(items: list[Item]) -> list:
    """Everything a pass produced, to compare later passes with a checked one."""
    out = []
    for item in items:
        for which in ("p", "conj"):
            r = item.results.get(which)
            if isinstance(r, tuple):
                poly, label, red, q = r
                r = (poly.coefficients, _key(label), red, sorted(q.terms.items()))
            out.append(r)
    return out


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    items = build_items(args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return

    passes, problems, reference, rss_mib = [], [], None, None
    sampler = calibration.Sampler()
    sampler.start()
    try:
        while not passes or sum(p["wall"] for p in passes) < args.seconds:
            passes.append(run_pass(items, sampler))
            if reference is None:
                # the checks' own memory must not count, so read the peak now
                rss_mib = peak_rss_mib()
                for item in items:
                    problems += check_item(item)
                reference = fingerprint(items)
            elif fingerprint(items) != reference:
                problems.append("a later pass produced other results than the checked one")
    finally:
        sampler.stop()
    traced = None
    if args.trace_out:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = run_pass(items)
        tracer.record_cache_info()
        tracer.dump(args.trace_out)
        if fingerprint(items) != reference:
            problems.append("the traced pass produced other results than the checked one")
    print(json.dumps(
        {"passes": passes, "traced": traced, "rss_mib": rss_mib, "problems": problems[:20]}
    ))


if __name__ == "__main__":
    main(sys.argv[1:])
