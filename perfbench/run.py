"""The causalapprox benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pairs-binary --seed 1 --seconds 10 --trace 0

Each run starts the workload in a fresh child process (``worker.py``) that
runs ops in a closed loop, one in flight, with BLAS pinned to one thread. This
process then checks every op's output against an oracle (``oracles.py``).

``--trace 0`` reports the end-to-end metrics:

- ``ops_per_s``: ops completed per second of op time;
- ``op_p50_ms``: median op wall time;
- ``op_tail_ms``: the highest percentile with at least 10 ops beyond it,
  but at most p90; the percentile and op count are printed;
- ``setup_s``: median over ``PROBES`` fresh interpreters of the time from
  launch to the end of the first op (imports, lazy set-up and one op);
- ``peak_rss_mb``: the workload child's max RSS (for cli-csv, the largest
  CLI process's).

The share of ops that raised or failed their check is the ``failed`` over
``attempted`` count of the result line, and is printed as ``failed_frac``.

``--trace 1`` runs the loop for half the time untraced, then repeats the same
inputs with spans installed (``tracing.py``), and reports the per-layer
metrics plus ``trace.overhead_frac``, the traced op time over the untraced.

Metric names and units are those of ``BENCHMARK.json``. The last line of
standard output is the result as JSON. Run records and spans
are written under ``.perfbench-out/``. The run exits non-zero without a
result when the checkout holds no ``src/causalapprox`` package.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracles
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
PROBES = 5
WORKER_TIMEOUT_S = 150
# Above p90, the tail of a 10 s run on a shared 2-vCPU VM is set by sub-second
# host stalls (pairs-binary's p99.3 read 10-29 ms across seeds) rather than
# by the program.
TAIL_CAP = 90.0

def machine_record() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: "1" for v in workloads.BLAS_THREAD_VARS},
    }


class Checker:
    """Checks op records against the oracles, one reference per input."""

    def __init__(self, workload: str, seed: int, sizes, tmp: str):
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.tmp = tmp
        self._refs: dict = {}

    def _reference(self, stream: int, index: int):
        w, s, sizes = self.workload, self.seed, self.sizes
        if w.startswith("pairs-"):
            inp = workloads.pair_input(w, s, stream, index, sizes)
            return oracles.pair_reference(
                *oracles.middle_split(inp.x, inp.y), inp.b, inp.b)
        if w == "triad-b3":
            inp = workloads.triad_input(s, stream, index, sizes)
            return oracles.support_mass_optimum(
                inp.variant, inp.b, inp.joint, inp.copies)
        with open(workloads.csv_path(self.tmp, stream, index)) as fh:
            return oracles.cli_reference(fh.read())

    def __call__(self, rec: dict) -> str | None:
        key = (rec["stream"], rec["index"])
        if key not in self._refs:
            self._refs[key] = self._reference(*key)
        ref = self._refs[key]
        if self.workload.startswith("pairs-"):
            return oracles.check_pair(rec, ref)
        if self.workload == "triad-b3":
            return oracles.check_triad(rec, ref)
        return oracles.check_cli(rec, ref)


def run_child(argv: list[str], env: dict, timeout: float) -> None:
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(argv[1:3])} exited {proc.returncode}:\n{proc.stderr}")


def worker_argv(args, mode: str, tmp: str, out: str, extra=()) -> list[str]:
    argv = [sys.executable, str(HERE / "worker.py"), mode,
            "--workload", args.workload, "--seed", str(args.seed),
            "--tmp", tmp, "--out", out, *extra]
    return argv + (["--tiny"] if args.tiny else [])


def setup_times(args, tmp: str, env: dict) -> tuple[list[float], list[dict]]:
    """Launch-to-end-of-first-op times of ``PROBES`` fresh interpreters."""
    times, records = [], []
    if args.workload == "cli-csv":
        csv = workloads.CsvFiles(args.seed, workloads.sizes_for(args.tiny))
    for k in range(PROBES):
        stream = workloads.PROBE + k
        if args.workload == "cli-csv":
            # the op is itself a fresh interpreter: time it from launch to exit
            path = workloads.csv_path(tmp, stream, 0)
            with open(path, "w") as fh:
                fh.write(csv.text(stream, 0))
            start = time.monotonic()
            rec = workloads.cli_op(workloads.cli_command(path), env)
            times.append(time.monotonic() - start)
        else:
            out = os.path.join(tmp, f"probe-{k}.json")
            argv = worker_argv(args, "probe", tmp, out, ["--probe", str(k)])
            start = time.monotonic()
            run_child(argv, env, WORKER_TIMEOUT_S)
            with open(out) as fh:
                result = json.load(fh)
            times.append(result["end"] - start)
            rec = result["records"][0]
        rec.update(stream=stream, index=0)
        records.append(rec)
    return times, records


def tail(times_ms: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 ops beyond,
    capped at ``TAIL_CAP``."""
    ordered = sorted(times_ms)
    n = len(ordered)
    beyond = max(10, math.ceil(n * (1 - TAIL_CAP / 100)))
    if n <= beyond:
        return ordered[-1], 100.0
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def measure(args, tmp: str, lines: list[str]) -> tuple[dict, list[dict], dict]:
    env = workloads.child_env(str(ROOT))
    out = os.path.join(tmp, "loop.json")
    budget = args.seconds / 2 if args.trace else args.seconds
    run_child(worker_argv(args, "loop", tmp, out,
                          ["--seconds", str(budget), "--trace", str(args.trace)]),
              env, WORKER_TIMEOUT_S)
    with open(out) as fh:
        loop = json.load(fh)
    records = loop["records"]
    times_ms = [1e3 * t for t in loop["times"]]
    n = len(times_ms)
    extra = {"ops_timed": n}
    if args.trace:
        metrics = loop["layer_metrics"]
        extra["absent_hooks"] = loop["absent"]
        spans = ROOT / ".perfbench-out" / (
            f"{args.workload}-seed{args.seed}-spans.json")
        shutil.move(os.path.join(tmp, "spans.json"), spans)
        extra["spans"] = str(spans.relative_to(ROOT))
        lines.append(f"traced {n} ops; absent hooks: "
                     f"{', '.join(loop['absent']) or 'none'}")
        return metrics, records, extra
    setup, probe_records = setup_times(args, tmp, env)
    value, pct = tail(times_ms)
    metrics = {
        "ops_per_s": n / sum(loop["times"]),
        "op_p50_ms": statistics.median(times_ms),
        "op_tail_ms": value,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": loop["maxrss_kb"] / 1024,
    }
    extra.update(tail_percentile=pct, setup_runs_s=setup)
    lines.append(f"op_tail_ms is p{pct:.2f} of {n} timed ops")
    lines.append(f"setup_s is the median of {PROBES} launches: "
                 + ", ".join(f"{t:.3f}" for t in setup))
    return metrics, records + probe_records, extra


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description="Run one causalapprox benchmark workload.")
    p.add_argument("--workload", required=True,
                   choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every input (for the benchmark's self-tests)")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "causalapprox" / "__init__.py").is_file():
        print(f"perfbench: no src/causalapprox package under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    (ROOT / ".perfbench-out").mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    lines: list[str] = []
    try:
        metrics, records, extra = measure(args, tmp, lines)
        check = Checker(args.workload, args.seed,
                        workloads.sizes_for(args.tiny), tmp)
        failures = [(rec["stream"], rec["index"], reason)
                    for rec in records if (reason := check(rec)) is not None]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    sizes = workloads.sizes_for(args.tiny)
    record = {
        "workload": args.workload,
        "why": next(w["why"] for w in bench["workloads"]
                    if w["name"] == args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": workloads.describe(args.workload, sizes),
        "machine": machine_record(),
        "failed_frac": len(failures) / len(records),
        "failures": failures[:20],
        **extra,
        **result,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(ROOT / ".perfbench-out" / name, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"inputs: {record['inputs']}")
    print("machine: " + json.dumps(record["machine"]))
    for line in lines:
        print(line)
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':<44} {record['failed_frac']:.6g} "
          f"({len(failures)} of {len(records)} ops)")
    for stream, index, reason in failures[:5]:
        print(f"FAILED op stream {stream} index {index}: {reason}",
              file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
