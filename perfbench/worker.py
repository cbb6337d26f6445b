"""One workload's program process, started by ``run.py``.

``loop`` mode runs untimed warm-up ops, then ops in a closed loop (one in
flight) until their summed time reaches the budget, at least ``MIN_OPS`` ran
and the last round of the workload's input mix is whole. With ``--trace 1``
it then repeats the same inputs with spans installed.
``probe`` mode runs a single op from a fresh interpreter and reports when it
ended, for the set-up time. Op times, outputs and peak RSS go to ``--out`` as
JSON; ``run.py`` checks the outputs, so the checks add nothing to this
process's memory.

Inputs are made between ops, outside the timed region.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import OP, Tracer, layer_metrics

# 21 ops leave 10 beyond the median, so the tail percentile is never below it
MIN_OPS = 21

ROOT = Path(__file__).resolve().parent.parent


def spans_path(csv_path: str) -> str:
    return csv_path + ".spans.json"


class Runner:
    """Makes an op's input and runs the op, for one workload."""

    def __init__(self, workload: str, seed: int, sizes, tmp: str):
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.tmp = tmp
        self.env = workloads.child_env(str(ROOT))
        self.tracer: Tracer | None = None
        self.csv = (workloads.CsvFiles(seed, sizes)
                    if workload == "cli-csv" else None)

    def prepare(self, stream: int, index: int):
        w, s = self.workload, self.seed
        if w.startswith("pairs-"):
            return workloads.pair_input(w, s, stream, index, self.sizes)
        if w == "triad-b3":
            return workloads.triad_args(
                workloads.triad_input(s, stream, index, self.sizes))
        path = workloads.csv_path(self.tmp, stream, index)
        if not os.path.exists(path):
            with open(path, "w") as fh:
                fh.write(self.csv.text(stream, index))
        return path

    def argv(self, path: str) -> list[str]:
        if self.tracer is None:
            return workloads.cli_command(path)
        return [sys.executable, str(ROOT / "perfbench" / "tracecli.py"),
                spans_path(path)] + workloads.cli_command(path)[3:]

    def op(self, arg) -> dict:
        if self.workload.startswith("pairs-"):
            return workloads.pair_op(arg)
        if self.workload == "triad-b3":
            return workloads.triad_op(arg)
        return workloads.cli_op(self.argv(arg), self.env)

    def timed(self, stream: int, index: int) -> tuple[float, dict]:
        arg = self.prepare(stream, index)
        tracer = self.tracer
        span = tracer.begin("op", OP) if tracer else -1
        start = time.monotonic()
        try:
            rec = self.op(arg)
        except Exception as exc:  # an op that raises counts as failed
            rec = {"error": "".join(
                traceback.format_exception_only(type(exc), exc)).strip()}
        elapsed = time.monotonic() - start
        if tracer:
            tracer.end()
            if self.workload == "cli-csv":
                self._adopt_cli_spans(spans_path(arg), span)
        rec.update(stream=stream, index=index)
        return elapsed, rec

    def _adopt_cli_spans(self, path: str, span: int) -> None:
        try:
            with open(path) as fh:
                child = json.load(fh)
        except FileNotFoundError:  # the CLI died before writing its spans
            return
        os.remove(path)
        self.tracer.adopt(child["spans"], span)
        self.tracer.absent = sorted(set(self.tracer.absent)
                                    | set(child["absent"]))


def verdicts(records: list[dict]) -> list[dict]:
    out = []
    for rec in records:
        if "decision" in rec:
            out.append(rec)
        elif rec.get("returncode") == 0:
            out.append(json.loads(rec["stdout"]))
    return out


def run_loop(runner: Runner, budget: float, trace: bool, spans_out: str):
    result = {}
    w = runner.workload
    warm = [runner.timed(workloads.WARMUP, i)[1]
            for i in range(workloads.WARMUP_OPS[w])]
    times, records = [], []
    while (sum(times) < budget or len(times) < MIN_OPS
           or len(times) % workloads.CYCLE[w]):
        elapsed, rec = runner.timed(workloads.LOOP, len(times))
        times.append(elapsed)
        records.append(rec)
    result["times"] = times
    result["records"] = warm + records
    who = (resource.RUSAGE_CHILDREN if w == "cli-csv"
           else resource.RUSAGE_SELF)
    result["maxrss_kb"] = resource.getrusage(who).ru_maxrss
    if trace:
        tracer = Tracer()
        tracer.install()
        runner.tracer = tracer
        traced_times, traced_records = [], []
        for index in range(len(times)):
            elapsed, rec = runner.timed(workloads.LOOP, index)
            traced_times.append(elapsed)
            traced_records.append(rec)
        runner.tracer = None
        tracer.uninstall()
        tracer.dump(spans_out)
        metrics = layer_metrics(tracer.spans, verdicts(traced_records))
        metrics["trace.overhead_frac"] = sum(traced_times) / sum(times) - 1.0
        result["layer_metrics"] = metrics
        result["absent"] = tracer.absent
        result["records"] += traced_records
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("mode", choices=["loop", "probe"])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--probe", type=int, default=0, help="set-up probe number")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--tmp", required=True, help="directory for input files")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    runner = Runner(args.workload, args.seed,
                    workloads.sizes_for(args.tiny), args.tmp)
    if args.mode == "probe":
        _, rec = runner.timed(workloads.PROBE + args.probe, 0)
        result = {"end": time.monotonic(), "records": [rec]}
    else:
        spans_out = os.path.join(args.tmp, "spans.json")
        result = run_loop(runner, args.seconds, bool(args.trace), spans_out)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
