import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from causalapprox import DiscoveryConfig, PreprocessMode, discover
from causalapprox.cli import main
from oracles import noisy_cycle_columns

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_CSV = DATA_DIR / "noiseless_xy.csv"
GOLDEN_JSON = DATA_DIR / "noiseless_xy_verdict.json"


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "causalapprox", *argv],
        capture_output=True,
        text=True,
    )


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def run_in_process(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0
    return json.loads(buf.getvalue())


def binary_or_csv(path, n=2000, rate=0.2, seed=41):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, n)
    y = np.maximum(x, (rng.random(n) < rate).astype(int))
    xi = np.repeat([0, 1], n // 2)
    yi = np.maximum(xi, (rng.random(n) < rate).astype(int))
    rows = [(a, b, "obs") for a, b in zip(x, y)]
    rows += [(a, b, f"do:{a}") for a, b in zip(xi, yi)]
    write_csv(path, ["x", "y", "env"], rows)


class TestDiscoverCommand:
    def test_golden_file(self):
        result = run_cli("discover", str(GOLDEN_CSV), "--output", "json")
        assert result.returncode == 0
        assert result.stdout == GOLDEN_JSON.read_text()

    def test_byte_stable_across_runs(self):
        first = run_cli("discover", str(GOLDEN_CSV), "--output", "json")
        second = run_cli("discover", str(GOLDEN_CSV), "--output", "json")
        assert first.stdout == second.stdout

    def test_json_schema(self):
        result = run_cli("discover", str(GOLDEN_CSV), "--output", "json")
        payload = json.loads(result.stdout)
        for key in ("decision", "d_xy", "d_yx", "epsilon"):
            assert key in payload
        assert payload["decision"] == "x->y"

    def test_two_row_file_fails(self, tmp_path):
        path = tmp_path / "tiny.csv"
        write_csv(path, ["x", "y"], [(0, 0), (1, 1)])
        result = run_cli("discover", str(path))
        assert result.returncode != 0
        assert "4 rows" in result.stderr

    def test_missing_file(self):
        result = run_cli("discover", "/nonexistent.csv")
        assert result.returncode != 0

    def test_unknown_column(self, tmp_path):
        path = tmp_path / "cols.csv"
        write_csv(path, ["a", "b"], [(0, 0)] * 6)
        result = run_cli("discover", str(path))
        assert result.returncode != 0
        assert "column" in result.stderr

    def test_column_by_index(self, tmp_path):
        path = tmp_path / "cols.csv"
        write_csv(path, ["a", "b"], [(0, 0), (1, 1)] * 10)
        result = run_cli("discover", str(path), "--x-col", "0", "--y-col", "1")
        assert result.returncode == 0

    def test_unknown_env_label_message_is_plain(self, tmp_path):
        path = tmp_path / "labels.csv"
        rows = [(0, 0, "obs"), (1, 1, "obs"), (0, 1, "do:0"), (1, 1, "do:1")]
        write_csv(path, ["x", "y", "env"], rows * 5 + [(1, 0, "observe")])
        result = run_cli("discover", str(path))
        assert result.returncode != 0
        assert "'observe'" in result.stderr
        assert "np.str_" not in result.stderr

    def test_env_disabled_by_none(self, tmp_path):
        path = tmp_path / "env.csv"
        rows = [(0, 0, "weird-label")] * 4 + [(1, 1, "weird-label")] * 4
        write_csv(path, ["x", "y", "env"], rows)
        # with env auto-detection the labels are invalid; disabling works
        assert run_cli("discover", str(path)).returncode != 0
        assert run_cli("discover", str(path), "--env-col", "none").returncode == 0

    def test_lag_with_env_rejected(self):
        result = run_cli("discover", str(GOLDEN_CSV), "--lag", "1")
        assert result.returncode != 0
        assert "lag" in result.stderr

    def test_exit_zero_on_no_decision(self, tmp_path):
        path = tmp_path / "sym.csv"
        pattern = [(a, b) for a in range(2) for b in range(2)]
        write_csv(path, ["x", "y"], pattern * 50)
        result = run_cli("discover", str(path), "--output", "json")
        assert result.returncode == 0
        assert json.loads(result.stdout)["decision"] == "none"


class TestCausationCommand:
    def test_noiseless_pns_one(self, tmp_path):
        path = tmp_path / "ident.csv"
        rows = [(a, a, "obs") for a in [0, 1] * 200]
        rows += [(0, 0, "do:0")] * 100 + [(1, 1, "do:1")] * 100
        write_csv(path, ["x", "y", "env"], rows)
        result = run_cli("causation", str(path), "--output", "json")
        payload = json.loads(result.stdout)
        assert payload["monotone_kind"] == "increasing"
        assert payload["pns"] == pytest.approx(1.0, abs=1e-9)

    def test_noisy_or_matches_analytic_pns(self, tmp_path):
        path = tmp_path / "or.csv"
        binary_or_csv(path, n=10_000, rate=0.2)
        result = run_cli("causation", str(path), "--output", "json")
        payload = json.loads(result.stdout)
        assert payload["pns"] == pytest.approx(0.8, abs=0.05)

    def test_non_binary_rejected(self, tmp_path):
        path = tmp_path / "tri.csv"
        write_csv(path, ["x", "y"], [(a % 3, a % 3) for a in range(60)])
        result = run_cli("causation", str(path))
        assert result.returncode != 0
        assert "binary" in result.stderr

    def test_explicit_binary_discretization(self, tmp_path):
        path = tmp_path / "cont.csv"
        rng = np.random.default_rng(2)
        xs = rng.normal(size=400)
        rows = [(f"{v:.4f}", f"{(v + 0.1 * rng.normal()):.4f}") for v in xs]
        write_csv(path, ["x", "y"], rows)
        result = run_cli("causation", str(path), "--bx", "2", "--by", "2")
        assert result.returncode == 0


class TestApproxCommand:
    def test_uniform_zero_error(self, tmp_path):
        path = tmp_path / "uniform.csv"
        pattern = [(a, b) for a in range(2) for b in range(2)]
        write_csv(path, ["x", "y"], pattern * 50)
        result = run_cli("approx", str(path), "--model", "x_to_y", "--output", "json")
        payload = json.loads(result.stdout)
        assert payload["global_error"] == pytest.approx(0.0, abs=1e-9)
        assert payload["s_value"] == pytest.approx(1.0, abs=1e-9)

    def test_anm_pair_dominates_plain(self, tmp_path):
        path = tmp_path / "or.csv"
        binary_or_csv(path)
        values = {}
        for model in ("x_to_y", "anm_s1", "anm_s2"):
            result = run_cli(
                "approx", str(path), "--model", model, "--output", "json"
            )
            values[model] = json.loads(result.stdout)["s_value"]
        assert max(values["anm_s1"], values["anm_s2"]) >= values["x_to_y"] - 1e-9

    def test_y_to_x_model(self, tmp_path):
        path = tmp_path / "or.csv"
        binary_or_csv(path)
        result = run_cli("approx", str(path), "--model", "y_to_x", "--output", "json")
        assert result.returncode == 0
        assert json.loads(result.stdout)["model"] == "y_to_x"

    def test_unknown_model(self, tmp_path):
        path = tmp_path / "or.csv"
        binary_or_csv(path)
        result = run_cli("approx", str(path), "--model", "nonsense")
        assert result.returncode != 0
        assert "unknown model" in result.stderr

    def test_trivariate_confounder(self, tmp_path):
        path = tmp_path / "conf.csv"
        rng = np.random.default_rng(6)
        rows = []
        for _ in range(600):
            z = int(rng.integers(0, 2))
            rows.append((z, z, z, "obs"))
        for z in (0, 1):
            rows += [(z, z, z, f"do:z={z}")] * 200
        write_csv(path, ["x", "y", "z", "env"], rows)
        result = run_cli(
            "approx", str(path), "--model", "z_confounder", "--z-col", "z",
            "--output", "json",
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert payload["global_error"] == pytest.approx(0.0, abs=1e-9)

    def test_trivariate_needs_env(self, tmp_path):
        path = tmp_path / "conf.csv"
        write_csv(path, ["x", "y", "z"], [(0, 0, 0), (1, 1, 1)] * 20)
        result = run_cli(
            "approx", str(path), "--model", "z_confounder", "--z-col", "z"
        )
        assert result.returncode != 0
        assert "environment" in result.stderr

    def test_trivariate_rejects_unknown_env_label(self, tmp_path):
        # the label check is the one discover runs, not a silent drop
        path = tmp_path / "conf.csv"
        rows = [(z, z, z, "obs") for z in (0, 1)] * 20
        rows += [(z, z, z, f"do:z={z}") for z in (0, 1)] * 20
        rows += [(0, 0, 0, "observe")]
        write_csv(path, ["x", "y", "z", "env"], rows)
        discovered = run_cli("discover", str(path))
        assert discovered.returncode != 0
        for model in ("z_confounder", "z_confounder_hidden"):
            result = run_cli(
                "approx", str(path), "--model", model, "--z-col", "z"
            )
            assert result.returncode != 0
            assert result.stderr == discovered.stderr


class TestCliMatchesLibrary:
    @pytest.mark.parametrize("mode", [m.value for m in PreprocessMode])
    def test_approx_and_discover_match_library_discover(self, tmp_path, mode):
        # approx builds each ordering's inputs through the same split as
        # discover, so its local errors are discover's d_xy and d_yx
        x, y = noisy_cycle_columns()
        path = tmp_path / "cycle.csv"
        write_csv(path, ["x", "y"], zip(x, y))
        config = DiscoveryConfig(preprocess_mode=PreprocessMode(mode))
        verdict = discover(x, y, 3, 3, config)
        common = (str(path), "--preprocess", mode, "--output", "json")
        xy = run_in_process("approx", "--model", "x_to_y", *common)
        yx = run_in_process("approx", "--model", "y_to_x", *common)
        assert xy["local_error"] == verdict.d_xy
        assert yx["local_error"] == verdict.d_yx
        cli = run_in_process("discover", *common)
        assert (cli["d_xy"], cli["d_yx"]) == (verdict.d_xy, verdict.d_yx)


class TestBenchCommand:
    def test_small_run_json(self):
        result = run_cli(
            "bench", "--sizes", "2,2", "--models", "4", "--samples", "200",
            "--output", "json",
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["rows"][0]["n_models"] == 4

    def test_table_output(self):
        result = run_cli(
            "bench", "--sizes", "2,2", "--models", "3", "--samples", "200"
        )
        assert "correct,wrong,none" in result.stdout

    def test_bad_sizes(self):
        result = run_cli("bench", "--sizes", "2x2", "--models", "2")
        assert result.returncode != 0


class TestJsonRoundTrip:
    def test_verdict_payload_round_trips(self):
        # in-process run to compare payload against parsed output
        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["discover", str(GOLDEN_CSV), "--output", "json"])
        assert code == 0
        payload = json.loads(buf.getvalue())
        assert json.loads(json.dumps(payload)) == payload
