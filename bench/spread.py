"""Run one workload on several seeds and print, per end-to-end metric, the
median and the spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, next to the bound
in BENCHMARK.json.

    python3 bench/spread.py --workload matpoly-pipeline --seeds 1-10

Each run's result line is appended to .bench_out/spread-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    log = ROOT / ".bench_out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    shares = set()
    for seed in args.seeds:
        cmd = [sys.executable, *spec["command"][1:], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.splitlines()[-1])
        with log.open("a") as f:
            f.write(json.dumps({"seed": seed, **result}) + "\n")
        shares.add(result["failed"] / result["attempted"])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()))
    print(f"failed share(s): {sorted(shares)}")
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median
        print(f"{m['name']:15} median {median:.6g} {m['unit']:4} spread {spread:.4f} "
              f"bound {m['bound']} {'ok' if spread < m['bound'] / 3 else 'WIDE'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
