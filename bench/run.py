"""spectral-strata benchmark: runs one workload against the package in src/.

    python3 bench/run.py --workload lines5-strata --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md for why each was chosen):
  lines5-strata     CLI: strata enumerate | cr | components --lines 5
  lattice-hasse     CLI: zonotope points | vertices --complete 6, hasse
                    export of K5, strata local at 5-line strata
  matpoly-pipeline  one library session over seeded line arrangements

Load is a closed loop with one client: requests run back to back, each
CLI request in a fresh interpreter.  A run measures set-up several times,
then runs whole passes over the workload's requests until --seconds of
pass time have gone by, and checks every output against the oracle in
oracle.py (later passes must reproduce the checked output exactly).
With --trace 0 it reports the end-to-end metrics (medians over passes);
the pass and request times are in reference seconds, host seconds scaled
by a reference task sampled inside the working process (calibration.py),
and set-up is in seconds.  With --trace 1 it adds one pass with the
library's public functions wrapped and reports the per-layer metrics
instead.  The last line of stdout is one JSON object; a full report with
the machine's details goes to .bench_out/.  The exit code is 1 when an
output check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import cli_workloads
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
#: Set-up is measured this many times before the passes and again after
#: them (after each pass for the CLI workloads), so that the samples span
#: the run and not one moment of a machine whose speed drifts; setup_s is
#: their median.  One warm-up start before them writes the bytecode caches.
SETUP_SAMPLES = 4
CLI_WORKLOADS = {
    "lines5-strata": cli_workloads.lines5_requests,
    "lattice-hasse": cli_workloads.lattice_requests,
}
WORKLOADS = (*CLI_WORKLOADS, "matpoly-pipeline")
ENV = {k: v for k, v in os.environ.items() if k != "SPECTRAL_STRATA_MAX_EDGES"}


def spawn(argv: list[str], stdout, stderr) -> tuple[float, int, bytes]:
    """Run a fresh interpreter on argv and wait for it.  Returns (seconds
    until the first line of stdout, or until exit when stdout is a file;
    exit code; the rest of stdout when it is a pipe)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], stdout=stdout, stderr=stderr, cwd=ROOT, env=ENV
    )
    rest = b""
    if stdout is subprocess.PIPE:
        with proc.stdout:
            first = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            rest = proc.stdout.read()
        if first.strip() != b"ready":
            rest = first + rest
    proc.wait()
    if stdout is not subprocess.PIPE:
        elapsed = time.perf_counter() - start
    return elapsed, proc.returncode, rest


def p95(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def summarise(passes: list[dict], setup: list[float], rss: float | None = None) -> tuple[dict, dict]:
    """The end-to-end metrics, and the same figures in host seconds.  A
    pass's work time and request latencies leave out the time spent in the
    reference task; its scale turns them into reference seconds."""

    def times(wall: str, latencies: str) -> dict:
        return {
            "wall": statistics.median(p[wall] for p in passes),
            "request_p50": statistics.median(statistics.median(p[latencies]) for p in passes),
            "request_p95": statistics.median(p95(p[latencies]) for p in passes),
        }

    ref, raw = times("wall_ref", "latencies_ref"), times("work", "latencies")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        **{f"{name}_ref_s": (value, "ref_s") for name, value in ref.items()},
        "peak_rss_mib": (rss if rss is not None else statistics.median(p["rss"] for p in passes), "MiB"),
    }
    host = {
        **{f"{name}_s": value for name, value in raw.items()},
        "ref_task_ms": statistics.median(1000 * calibration.NOMINAL_S / p["scale"] for p in passes),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}, host


# ---------------------------------------------------------------------------
# CLI workloads


def cli_pass(requests, outdir: Path, trace_dir: Path | None = None) -> dict:
    """One pass over the requests.  Untraced, each request samples the
    reference task (calibration.py) and is scaled by its own samples, or
    by those of the whole pass when it has too few; traced, none does."""
    latencies, rss, failed, stdout_bytes = [], [], [], 0
    durations = []
    start = time.perf_counter()
    for name, argv in requests:
        rss_file, calib_file = outdir / f"{name}.rss", outdir / f"{name}.calib"
        rss_file.unlink(missing_ok=True)
        calib_file.unlink(missing_ok=True)
        prefix = [str(BENCH / "request.py"), "--rss-out", str(rss_file)]
        if trace_dir is not None:
            prefix += ["--trace-out", str(trace_dir / f"{name}.json")]
        else:
            prefix += ["--calib-out", str(calib_file)]
        with open(outdir / f"{name}.out", "wb") as out, open(outdir / f"{name}.err", "wb") as err:
            elapsed, code, _ = spawn(prefix + argv, out, err)
        durations.append([float(d) for d in calib_file.read_text().split()] if calib_file.exists() else [])
        latencies.append(elapsed - sum(durations[-1]))
        if rss_file.exists():
            rss.append(float(rss_file.read_text()))
        stdout_bytes += (outdir / f"{name}.out").stat().st_size
        if code != 0:
            failed.append(name)
    wall = time.perf_counter() - start
    out = {"wall": wall, "work": wall - sum(map(sum, durations)), "latencies": latencies}
    if trace_dir is None:
        k = calibration.scale([d for ds in durations for d in ds])
        local = [calibration.scale(ds) if len(ds) >= calibration.LOCAL_MIN else k for ds in durations]
        out["scale"] = k
        out["latencies_ref"] = [t * f for t, f in zip(latencies, local)]
        # the time between requests (spawning them) has no samples of its own
        out["wall_ref"] = sum(out["latencies_ref"]) + (out["work"] - sum(latencies)) * k
    return {
        **out,
        "requests": {name: t for (name, _), t in zip(requests, latencies)},
        "rss": max(rss, default=0.0),
        "attempted": len(requests),
        "failed": len(failed),
        "failed_requests": failed,
        "stdout_bytes": stdout_bytes,
    }


def check_cli_pass(requests, outdir: Path, result: dict, digests: dict) -> list[str]:
    """Check each successful output against the oracle the first time, and
    byte for byte against that checked output afterwards."""
    problems = []
    for name, argv in requests:
        if name in result["failed_requests"]:
            continue
        data = (outdir / f"{name}.out").read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if name not in digests:
            found = cli_workloads.check(name, data.decode(), argv)
            problems += [f"{name}: {p}" for p in found]
            if not found:
                digests[name] = digest
        elif digests[name] != digest:
            problems.append(f"{name}: output differs from the checked output")
    return problems


def run_cli(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, list, list]:
    requests = CLI_WORKLOADS[workload](seed)
    outdir = OUT / workload
    outdir.mkdir(parents=True, exist_ok=True)

    def help_starts(count: int) -> list[float]:
        out = []
        for _ in range(count):
            with open(outdir / "help.out", "wb") as f:
                elapsed, code, _ = spawn([str(BENCH / "request.py"), "--help"], f, subprocess.DEVNULL)
            if code != 0 or b"Usage:" not in (outdir / "help.out").read_bytes():
                raise SystemExit("spectral-strata --help failed; see .bench_out")
            out.append(elapsed)
        return out

    help_starts(1)
    setup = help_starts(SETUP_SAMPLES)
    passes, problems, digests = [], [], {}
    while not passes or sum(p["wall"] for p in passes) < seconds:
        passes.append(cli_pass(requests, outdir))
        problems += check_cli_pass(requests, outdir, passes[-1], digests)
        setup += help_starts(SETUP_SAMPLES)
    if not trace:
        return *summarise(passes, setup), passes, problems
    trace_dir = outdir / "trace"
    trace_dir.mkdir(exist_ok=True)
    for stale in trace_dir.glob("*.json"):
        stale.unlink()
    traced = cli_pass(requests, outdir, trace_dir)
    problems += check_cli_pass(requests, outdir, traced, digests)
    overhead = traced["work"] - statistics.median(p["work"] for p in passes)
    metrics = tracing.layer_metrics(
        sorted(str(p) for p in trace_dir.glob("*.json")), traced["stdout_bytes"], overhead
    )
    return metrics, {}, passes + [traced], problems


# ---------------------------------------------------------------------------
# matpoly-pipeline


def run_matpoly(seed: int, seconds: float, trace: bool) -> tuple[dict, dict, list, list]:
    outdir = OUT / "matpoly-pipeline"
    outdir.mkdir(parents=True, exist_ok=True)
    worker = [str(BENCH / "matpoly_pipeline.py"), "--seed", str(seed)]

    def setup_starts(count: int) -> list[float]:
        out = []
        for _ in range(count):
            elapsed, code, _ = spawn(worker + ["--setup-only"], subprocess.PIPE, subprocess.DEVNULL)
            if code != 0:
                raise SystemExit("matpoly-pipeline set-up failed")
            out.append(elapsed)
        return out

    setup_starts(1)
    setup = setup_starts(SETUP_SAMPLES)
    trace_file = outdir / "trace.json"
    args = worker + ["--seconds", str(seconds)]
    if trace:
        args += ["--trace-out", str(trace_file)]
    with open(outdir / "worker.err", "wb") as err:
        elapsed, code, rest = spawn(args, subprocess.PIPE, err)
    if code != 0:
        raise SystemExit(f"matpoly-pipeline worker exited with {code}; see .bench_out")
    setup += [elapsed] + setup_starts(SETUP_SAMPLES)
    report = json.loads(rest.decode().splitlines()[-1])
    passes, problems = report["passes"], report["problems"]
    if not trace:
        return *summarise(passes, setup, report["rss_mib"]), passes, problems
    traced = report["traced"]
    overhead = traced["work"] - statistics.median(p["work"] for p in passes)
    return tracing.layer_metrics([str(trace_file)], 0, overhead), {}, passes + [traced], problems


# ---------------------------------------------------------------------------


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spectral_strata" / "__init__.py").is_file():
        print(f"no spectral_strata package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    if args.workload == "matpoly-pipeline":
        metrics, host, passes, problems = run_matpoly(args.seed, args.seconds, bool(args.trace))
    else:
        metrics, host, passes, problems = run_cli(args.workload, args.seed, args.seconds, bool(args.trace))
    result = {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "run_s": time.perf_counter() - started,
        "host_seconds": host,
        "passes": [{k: v for k, v in p.items() if not k.startswith("latencies")} for p in passes],
        "problems": problems,
        **result,
    }
    OUT.mkdir(exist_ok=True)
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {result['attempted']} attempted, "
          f"{result['failed']} failed, {len(passes)} passes, report in .bench_out/{name}")
    for metric, m in metrics.items():
        print(f"{metric} = {m['value']} {m['unit']}")
    for name, value in host.items():
        print(f"host {name} = {value} {'ms' if name.endswith('_ms') else 's'}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
