"""Self-tests of the benchmark.

Run from the root of a checkout with ``python3 -m pytest perfbench``. They
check that a tiny run of every workload prints every metric of
``BENCHMARK.json`` with its unit, that each oracle rejects a perturbed
result, and that the tracer reports a missing hook instead of failing.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import MIN_OPS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_the_workloads_the_code_runs():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric(workload, trace, kind):
    proc = run_bench(["--workload", workload, "--seed", "3", "--seconds",
                      "0.1", "--trace", str(trace), "--tiny"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= MIN_OPS
    want = {m["name"]: m["unit"] for m in BENCH[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(["--workload", "pairs-binary", "--seed", "1",
                      "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------- oracles

def pair_case(workload: str, monotone: bool):
    """A verdict on the wanted decision path, with its plain-path reference."""
    for index in range(100):
        inp = workloads.pair_input(workload, 0, workloads.LOOP, index,
                                   workloads.FULL)
        rec = workloads.pair_op(inp)
        if rec["used_monotone_path"] == monotone and all(
                math.isfinite(rec[k]) and rec[k] > 0 for k in ("d_xy", "d_yx")):
            split = oracles.middle_split(inp.x, inp.y)
            return rec, oracles.pair_reference(*split, inp.b, inp.b)
    raise AssertionError("no dataset on the wanted path")


def test_pair_oracle_rejects_perturbed_errors():
    rec, ref = pair_case("pairs-4x4", monotone=False)
    assert oracles.check_pair(rec, ref) is None
    for key in ("d_xy", "d_yx"):
        assert oracles.check_pair({**rec, key: rec[key] + 1e-6}, ref)
        assert oracles.check_pair({**rec, key: math.inf}, ref)
    flipped = {"x->y": "y->x", "y->x": "x->y", "none": "x->y"}
    assert oracles.check_pair({**rec, "decision": flipped[rec["decision"]]}, ref)


def test_monotone_oracle_rejects_out_of_range_values():
    rec, ref = pair_case("pairs-binary", monotone=True)
    assert oracles.check_pair(rec, ref) is None
    assert oracles.check_pair({**rec, "d_xy": -1e-6}, ref)
    assert oracles.check_pair({**rec, "pns_yx": 1.0 + 1e-6}, ref)
    assert oracles.check_pair({**rec, "pns_xy": -1e-6}, ref)


# the first six ops of the cycle cover every z_* variant
@pytest.mark.parametrize("index", range(6))
def test_triad_oracle_rejects_perturbed_errors(index):
    inp = workloads.triad_input(0, workloads.LOOP, index, workloads.TINY)
    rec = workloads.triad_op(workloads.triad_args(inp))
    optimum = oracles.support_mass_optimum(inp.variant, inp.b, inp.joint,
                                           inp.copies)
    assert oracles.check_triad(rec, optimum) is None
    assert oracles.check_triad(
        {**rec, "global_error": rec["global_error"] + 1e-5}, optimum)
    assert oracles.check_triad(
        {**rec, "local_error": rec["global_error"] + 1e-6}, optimum)


def test_cli_oracle_rejects_perturbed_verdict(tmp_path):
    files = workloads.CsvFiles(0, workloads.TINY)
    for index in (0, 1):  # without and with an env column
        text = files.text(workloads.LOOP, index)
        path = tmp_path / f"{index}.csv"
        path.write_text(text)
        rec = workloads.cli_op(workloads.cli_command(str(path)),
                               workloads.child_env(str(ROOT)))
        ref = oracles.cli_reference(text)
        assert oracles.check_cli(rec, ref) is None
        got = json.loads(rec["stdout"])
        bad = json.dumps({**got, "d_xy": got["d_xy"] + 1e-6})
        assert oracles.check_cli({**rec, "stdout": bad}, ref)
        assert oracles.check_cli({**rec, "returncode": 1}, ref)


# ---------------------------------------------------------------- tracing

def test_missing_hook_is_reported_absent():
    tracer = tracing.Tracer()
    tracer.install([
        tracing.Hook("simplex", "causalapprox.approximation", "no_such_solve"),
        tracing.Hook("cli", "causalapprox.no_such_module", "main"),
    ])
    tracer.uninstall()
    assert tracer.absent == [
        "simplex:causalapprox.approximation.no_such_solve",
        "cli:causalapprox.no_such_module.main",
    ]


def test_self_time_excludes_child_spans():
    lp = {"pivots": 3, "rows": 2, "cols": 4, "optimal": True}
    spans = [
        ("op", tracing.OP, 0.0, 0.010, -1, None),
        ("solve", "simplex", 0.001, 0.005, 0, lp),
        ("marginalize", "distributions", 0.002, 0.003, 1, None),
    ]
    m = tracing.layer_metrics(spans, [])
    assert m["simplex.self_ms_per_op"] == pytest.approx(3.0)
    assert m["distributions.self_ms_per_op"] == pytest.approx(1.0)
    assert m["trace.op_ms_per_op"] == pytest.approx(10.0)
    assert m["simplex.cell_updates_per_op"] == 24
