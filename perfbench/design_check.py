"""Workload-design check: each workload loads the layers it was chosen for.

Usage, from the root of a checkout:

    python3 perfbench/design_check.py --seed 1 --seconds 10

Runs every workload with ``--trace 1`` and prints each layer's self time as a
share of traced op time (time outside every hooked layer, such as interpreter
start-up for cli-csv, is the ``other`` share). It then checks the claims the
workloads rest on and exits 1 if one fails; the fix for a failed claim is to
resize that workload's inputs.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

INGEST = ("cli", "discovery.ingest", "distributions")

# (workload, description, test on the shares)
CLAIMS = (
    ("pairs-binary", "simplex is about half of op time (30-70%)",
     lambda s: 0.3 <= s["simplex"] <= 0.7),
    ("pairs-4x4", "simplex is the majority of op time",
     lambda s: s["simplex"] > 0.5),
    ("triad-b3", "simplex is the majority of op time",
     lambda s: s["simplex"] > 0.5),
    ("cli-csv", "simplex is a small share (< 5%)",
     lambda s: s["simplex"] < 0.05),
    ("cli-csv", "cli + discovery.ingest + distributions are the majority",
     lambda s: sum(s[k] for k in INGEST) > 0.5),
)


def shares(workload: str, seed: int, seconds: float) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    op_ms = metrics["trace.op_ms_per_op"]["value"]
    out = {}
    for layer in LAYERS:
        key = f"{layer}.self_ms_per_op"
        out[layer] = metrics[key]["value"] / op_ms if key in metrics else 0.0
    out["other"] = 1.0 - sum(out.values())
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    args = p.parse_args()
    table = {w: shares(w, args.seed, args.seconds) for w in WORKLOADS}
    print(f"{'layer':<28}" + "".join(f"{w:>14}" for w in WORKLOADS))
    for layer in (*LAYERS, "other"):
        print(f"{layer:<28}" + "".join(f"{table[w][layer]:>14.1%}"
                                       for w in WORKLOADS))
    ok = True
    for workload, text, holds in CLAIMS:
        passed = holds(table[workload])
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'}  {workload}: {text}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
