"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload triad-b3 --seeds 1-10

Runs ``run.py`` once per seed and prints, per metric, the median and the
distance between the first and third quartiles as a share of the median
(``statistics.quantiles(values, n=4)``), next to the bound in
``BENCHMARK.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} ops failed", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:<14} median {med:10.4g}  spread {(q3 - q1) / med:6.3f}"
              f"  bound {bounds[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
