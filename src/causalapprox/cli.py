"""Command-line interface: discover, causation, approx, bench.

Input is CSV with a header row. Columns are picked by name or 0-based index;
an optional environment column (named ``env`` by default) marks rows as
``obs`` or ``do:<value>``, which bypasses the heuristic observational /
interventional split. ``discover``, ``causation`` and the bivariate models of
``approx`` build their inputs through :func:`discovery.direction_inputs`, the
ingest ``discover`` itself uses, so every command sees the same split of the
same rows. Reports print as an aligned table or as JSON.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys

import numpy as np

from .approximation import TrivariateInputs, approximate, shift_for_time_lag
from .causation import CausationReport, calc_causal_probabilities
from .discovery import (
    DiscoveryConfig,
    DiscoveryVerdict,
    PreprocessMode,
    _environment_masks,
    direction_inputs,
    discover,
    ensure_categories,
)
from .distributions import DiscreteDistribution, empirical_joint, empirical_marginal
from .exceptions import CausalApproxError, InsufficientDataError
from .generate import run_benchmark
from .models import CausalModelSpec, ModelVariant, model_space


def _fmt(value) -> str:
    """Six significant digits for table output; handles the sentinels."""
    if value is None:
        return "undefined"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        if math.isnan(value):
            return "undefined"
        if math.isinf(value):
            return "inf"
        return f"{value:.6g}"
    return str(value)


def _json_value(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _emit(payload: dict, output: str) -> None:
    if output == "json":
        clean = {k: _json_value(v) for k, v in payload.items()}
        print(json.dumps(clean, indent=2, sort_keys=True))
    else:
        width = max(len(k) for k in payload)
        for key, value in payload.items():
            print(f"{key:<{width}}  {_fmt(value)}")


class CliDataError(Exception):
    """Bad input data or unusable column selection."""


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
        raise CliDataError(f"cannot read {path}: {exc}") from exc
    if len(rows) < 2:
        raise CliDataError(f"{path} needs a header row and data rows")
    header, data = rows[0], rows[1:]
    n_cols = len(header)
    for i, row in enumerate(data):
        if len(row) != n_cols:
            raise CliDataError(f"{path} row {i + 2} has {len(row)} fields, expected {n_cols}")
    return header, data


def _column_index(header: list[str], selector: str, what: str) -> int:
    if selector in header:
        return header.index(selector)
    try:
        idx = int(selector)
    except ValueError:
        raise CliDataError(
            f"no column {selector!r} for {what}; header is {header}"
        ) from None
    if not 0 <= idx < len(header):
        raise CliDataError(f"column index {idx} for {what} out of range")
    return idx


def _numeric_column(data: list[list[str]], idx: int, name: str) -> np.ndarray:
    try:
        return np.asarray([float(row[idx]) for row in data])
    except ValueError as exc:
        raise CliDataError(f"column {name!r} has non-numeric values: {exc}") from exc


def _resolve_env(header: list[str], data: list[list[str]], env_col: str | None):
    if env_col == "none":
        return None
    if env_col is None:
        if "env" not in header:
            return None
        env_col = "env"
    idx = _column_index(header, env_col, "environment")
    return [row[idx] for row in data]


def _infer_b(x: np.ndarray, y: np.ndarray, bx: int | None, by: int | None):
    # reference default: binary data runs at 2, everything else at 3
    both_binary = (
        np.unique(x).size <= 2 and np.unique(y).size <= 2
    )
    inferred = 2 if both_binary else 3
    return bx or inferred, by or inferred


def _load_xy(args):
    header, data = _read_csv(args.csv)
    xi = _column_index(header, args.x_col, "x")
    yi = _column_index(header, args.y_col, "y")
    x = _numeric_column(data, xi, args.x_col)
    y = _numeric_column(data, yi, args.y_col)
    env = _resolve_env(header, data, args.env_col)
    if args.lag:
        if env is not None:
            raise CliDataError(
                "time lag cannot be combined with explicit environment labels"
            )
        x, y = shift_for_time_lag(x, y, args.lag)
    return x, y, env, header, data


def _discovery_config(args) -> DiscoveryConfig:
    return DiscoveryConfig(
        preprocess_mode=PreprocessMode(args.preprocess),
        error_mode=args.error_mode,
        epsilon=args.epsilon,
        seed=args.seed,
        alpha=args.alpha,
    )


def cmd_discover(args) -> int:
    x, y, env, _, _ = _load_xy(args)
    b_x, b_y = _infer_b(x, y, args.bx, args.by)
    verdict = discover(x, y, b_x, b_y, _discovery_config(args), env=env)
    _emit(_verdict_payload(verdict), args.output)
    return 0


def _verdict_payload(v: DiscoveryVerdict) -> dict:
    return {
        "decision": v.decision.value,
        "d_xy": v.d_xy,
        "d_yx": v.d_yx,
        "epsilon": v.epsilon,
        "pns_xy": v.pns_xy,
        "pns_yx": v.pns_yx,
        "used_monotone_path": v.used_monotone_path,
    }


def cmd_causation(args) -> int:
    x, y, env, _, _ = _load_xy(args)
    b_x, b_y = _infer_b(x, y, args.bx, args.by)
    if b_x != 2 or b_y != 2:
        raise CliDataError(
            "causal probabilities are defined for binary data only "
            "(pass --bx 2 --by 2 to discretize into two bins)"
        )
    inputs, _ = direction_inputs(x, y, 2, 2, _discovery_config(args), env)
    report = calc_causal_probabilities(inputs, args.error_mode)
    _emit(_causation_payload(report), args.output)
    return 0


def _causation_payload(r: CausationReport) -> dict:
    return {
        "direction_assumed": r.direction_assumed,
        "monotone_kind": r.monotone_kind,
        "pn": r.pn,
        "ps": r.ps,
        "pns": r.pns,
        "pn_defined": r.pn_defined,
        "ps_defined": r.ps_defined,
        "error_increasing": r.errors[0],
        "error_decreasing": r.errors[1],
    }


def _trivariate_inputs(args, spec: CausalModelSpec, x, y, env, header, data):
    if env is None:
        raise CliDataError(
            "trivariate models need explicit environment labels "
            "(obs / do:z=<v> / do:x=<v>)"
        )
    space = model_space(spec)
    observed = space.observed_names
    xc = ensure_categories(x, spec.b_x)
    yc = ensure_categories(y, spec.b_y)
    columns = {"x": xc, "y": yc}
    if "z" in observed:
        if args.z_col is None:
            raise CliDataError(f"model {spec.variant.value} needs --z-col")
        zi = _column_index(header, args.z_col, "z")
        z = _numeric_column(data, zi, args.z_col)
        columns["z"] = ensure_categories(z, spec.b_z)
    labels, obs_mask, _ = _environment_masks(env)
    if not obs_mask.any():
        raise InsufficientDataError("no observational rows")
    obs_cols = [columns[name][obs_mask] for name in observed]
    sizes = {"x": spec.b_x, "y": spec.b_y, "z": spec.b_z}
    joint = empirical_joint(
        np.column_stack(obs_cols), *(sizes[n] for n in observed), alpha=args.alpha
    )
    marginals = []
    flags = []
    for copy in space.copies:
        tag = f"do:{copy.intervened}={copy.value}"
        mask = labels == tag
        if mask.any():
            marginals.append(
                empirical_marginal(columns[copy.measures][mask], copy.size, args.alpha)
            )
            flags.append(False)
        else:
            marginals.append(DiscreteDistribution.uniform((copy.size,)))
            flags.append(True)
    return TrivariateInputs(joint, tuple(marginals), tuple(flags))


def cmd_approx(args) -> int:
    x, y, env, header, data = _load_xy(args)
    b_x, b_y = _infer_b(x, y, args.bx, args.by)
    variant = ModelVariant.from_name(args.model)
    if variant.is_trivariate:
        b_z = args.bz or _infer_bz(args, header, data, env)
        spec = CausalModelSpec(variant, b_x, b_y, b_z)
        inputs = _trivariate_inputs(args, spec, x, y, env, header, data)
    else:
        spec = CausalModelSpec(variant, b_x, b_y)
        inputs_xy, inputs_yx = direction_inputs(
            x, y, b_x, b_y, _discovery_config(args), env
        )
        cause = model_space(spec).observed_names[0]
        inputs = inputs_xy if cause == "x" else inputs_yx
    result = approximate(inputs, spec, args.error_mode)
    payload = {
        "model": spec.variant.value,
        "s_value": result.s_value,
        "global_error": result.global_error,
        "local_error": result.local_error,
        "error_mode": result.error_mode,
        "degenerate": result.degenerate,
        "fallback_used": any(inputs.fallback_used),
    }
    _emit(payload, args.output)
    return 0


def _infer_bz(args, header, data, env) -> int:
    if args.z_col is not None:
        zi = _column_index(header, args.z_col, "z")
        z = _numeric_column(data, zi, args.z_col)
        return 2 if np.unique(z).size <= 2 else 3
    if env is not None:
        values = {
            int(e.split("=", 1)[1])
            for e in env
            if e.startswith("do:z=")
        }
        if values:
            return max(values) + 1
    raise CliDataError("cannot infer b_z; pass --bz")


def cmd_bench(args) -> int:
    sizes = []
    for spec in args.sizes:
        parts = spec.split(",")
        if len(parts) != 2:
            raise CliDataError(f"--sizes wants 'BX,BY', got {spec!r}")
        sizes.append((int(parts[0]), int(parts[1])))
    methods = {"default": _discovery_config(args)}
    if args.anm:
        methods["anm"] = dataclasses.replace(
            _discovery_config(args), objectives="anm"
        )
    report = run_benchmark(
        sizes,
        n_models=args.models,
        n_samples=args.samples,
        method_config=methods,
        noise_kind=args.noise,
        seed=args.seed,
    )
    print(report.to_json() if args.output == "json" else report.to_table())
    return 0


def _add_common(parser: argparse.ArgumentParser, with_input: bool = True) -> None:
    if with_input:
        parser.add_argument("csv", help="input CSV file (UTF-8, header row)")
        parser.add_argument("--x-col", default="x", help="x column name or index")
        parser.add_argument("--y-col", default="y", help="y column name or index")
        parser.add_argument(
            "--env-col",
            default=None,
            help="environment column ('none' disables auto-detection of 'env')",
        )
        parser.add_argument("--bx", type=int, default=None, help="range size of x")
        parser.add_argument("--by", type=int, default=None, help="range size of y")
        parser.add_argument("--lag", type=int, default=0, help="time lag applied as (x_t, y_{t+lag})")
    parser.add_argument(
        "--preprocess",
        choices=[m.value for m in PreprocessMode],
        default=PreprocessMode.NONE.value,
    )
    parser.add_argument("--error-mode", choices=["local", "global"], default="local")
    parser.add_argument("--epsilon", type=float, default=1e-5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--alpha", type=float, default=0.0, help="additive smoothing")
    parser.add_argument("--output", choices=["table", "json"], default="table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalapprox",
        description="Approximate empirical data to causal models, compute "
        "probabilities of causation, and infer bivariate causal direction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discover", help="infer the causal ordering of x and y")
    _add_common(p)
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("causation", help="PN/PS/PNS for binary data (x -> y)")
    _add_common(p)
    p.set_defaults(func=cmd_causation)

    p = sub.add_parser("approx", help="approximation error to one model variant")
    _add_common(p)
    p.add_argument("--model", default="x_to_y", help="model variant name")
    p.add_argument("--z-col", default=None, help="z column for trivariate models")
    p.add_argument("--bz", type=int, default=None, help="range size of z")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("bench", help="synthetic discovery benchmark")
    p.add_argument("--sizes", action="append", required=True, help="'BX,BY', repeatable")
    p.add_argument("--models", type=int, default=100, help="models per configuration")
    p.add_argument("--samples", type=int, default=1000, help="observational rows per model")
    p.add_argument("--noise", choices=["additive", "multiplicative"], default="additive")
    p.add_argument("--anm", action="store_true", help="also run the reweighted-objective method")
    _add_common(p, with_input=False)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliDataError, CausalApproxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
