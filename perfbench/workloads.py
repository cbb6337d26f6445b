"""Seeded inputs and the operation of each benchmark workload.

Every input derives from ``(seed, stream, index)`` through the generators in
this file alone, so a change to the package's own ``generate`` module cannot
move a workload. The loop draws stream ``LOOP``, the untimed warm-up op
stream ``WARMUP``, and set-up probe ``k`` stream ``PROBE + k``.

An op is one ``discover`` call (pairs), one ``approximate`` call (triad) or
one cold CLI run (cli-csv). The program is reached only through its public
entry points: ``causalapprox.discover``, ``causalapprox.approximate`` and
``python -m causalapprox discover``.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("pairs-binary", "pairs-4x4", "triad-b3", "cli-csv")

LOOP, WARMUP, PROBE = 0, 1, 2

# Symmetric Dirichlet parameter of the pair datasets' distributions; below 1
# it favours low-entropy distributions, as real categorical data often has.
CONCENTRATION = 0.3
# The triad draws from a flat Dirichlet instead: at 0.3 an observed-z fit's
# pivot count varies by +-35% from draw to draw, so a 10 s run holds too few
# fits for a steady mean.
TRIAD_CONCENTRATION = 1.0

# Hidden-z variants first, so the set-up probe's first op is a cheap one and
# set-up time is not dominated by a single large LP.
TRIAD_HIDDEN = ("z_confounder_hidden", "z_chain_hidden", "z_collider_hidden")
TRIAD_OBSERVED = ("z_confounder", "z_chain", "z_collider")
# Observed-z variants run twice per cycle of nine ops: with one of each the
# median op would fall in the gap between the ~50 ms hidden-z fits and the
# ~0.5 s observed-z fits and jump between the two clusters from run to run.
TRIAD_CYCLE = TRIAD_HIDDEN + TRIAD_OBSERVED + TRIAD_OBSERVED

# Ops in one whole round of a workload's input mix (pairs-binary alternates
# the noise kind; cli-csv files carry env labels two times in three, so the
# median op lies inside the slower, labelled cluster rather than between
# the two); a loop ends on a whole round.
CYCLE = {"pairs-binary": 2, "pairs-4x4": 1, "triad-b3": len(TRIAD_CYCLE),
         "cli-csv": 3}
# Untimed warm-up ops, enough to run every kind of op, so that first-call
# costs (heap growth for the largest tableau, page cache) are paid before
# timing.
WARMUP_OPS = {"pairs-binary": 2, "pairs-4x4": 1, "triad-b3": 6, "cli-csv": 3}


@dataclass(frozen=True)
class Sizes:
    pair_rows: int  # observational rows per pair dataset
    triad_b: int  # range of x, y and z
    triad_rows: int  # rows behind the observational joint
    csv_rows: int  # data rows per CSV file


# 150,000 CSV rows keep ingest the majority of a cold CLI run while a run and
# its checks fit the time budget of the whole benchmark.
FULL = Sizes(pair_rows=1000, triad_b=3, triad_rows=1000, csv_rows=150_000)
TINY = Sizes(pair_rows=200, triad_b=2, triad_rows=200, csv_rows=2_000)


def sizes_for(tiny: bool) -> Sizes:
    return TINY if tiny else FULL


def rng_for(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def describe(workload: str, sizes: Sizes) -> str:
    """Input sizes of a workload, for the run record."""
    if workload == "pairs-binary":
        return (f"binary SCM datasets, {sizes.pair_rows} observational + "
                f"{sizes.pair_rows} interventional rows, additive and "
                f"multiplicative noise alternating, Dirichlet {CONCENTRATION}")
    if workload == "pairs-4x4":
        return (f"4x4 additive SCM datasets, {sizes.pair_rows} observational"
                f" + {4 * (sizes.pair_rows // 4)} interventional rows, "
                f"Dirichlet {CONCENTRATION}")
    if workload == "triad-b3":
        return (f"b_x=b_y=b_z={sizes.triad_b}, multinomial counts of "
                f"{sizes.triad_rows} rows (joint) and "
                f"{sizes.triad_rows // sizes.triad_b} rows (each copy), "
                f"Dirichlet {TRIAD_CONCENTRATION}, "
                f"cycle {','.join(TRIAD_CYCLE)}")
    if workload == "cli-csv":
        return (f"CSVs of {sizes.csv_rows} rows, continuous x->y, "
                f"two files in three with an env column")
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- pairs

@dataclass(frozen=True)
class PairInput:
    x: np.ndarray
    y: np.ndarray
    b: int


def pair_input(workload: str, seed: int, stream: int, index: int,
               sizes: Sizes) -> PairInput:
    """One SCM dataset with ground truth x -> y.

    The cause is drawn from a Dirichlet-distributed categorical, the effect is
    a random non-constant function of it combined with categorical noise
    modulo the effect range, and one block of rows per intervention value
    follows the observational block.
    """
    rng = rng_for(seed, stream, index)
    b = 2 if workload == "pairs-binary" else 4
    additive = workload == "pairs-4x4" or index % 2 == 0
    while True:
        f = rng.integers(0, b, size=b)
        if np.unique(f).size >= 2:
            break
    p_x = rng.dirichlet(np.full(b, CONCENTRATION))
    p_noise = rng.dirichlet(np.full(b, CONCENTRATION))
    n_obs = sizes.pair_rows
    n_int = n_obs // b
    x = np.concatenate(
        [rng.choice(b, size=n_obs, p=p_x)]
        + [np.full(n_int, a) for a in range(b)]
    )
    noise = rng.choice(b, size=x.size, p=p_noise)
    y = (f[x] + noise) % b if additive else (f[x] * noise) % b
    return PairInput(x, y, b)


def verdict_record(verdict) -> dict:
    """A verdict as the CLI's JSON output spells it."""
    return {
        "decision": verdict.decision.value,
        "d_xy": verdict.d_xy,
        "d_yx": verdict.d_yx,
        "epsilon": verdict.epsilon,
        "pns_xy": verdict.pns_xy,
        "pns_yx": verdict.pns_yx,
        "used_monotone_path": verdict.used_monotone_path,
    }


def pair_op(inp: PairInput) -> dict:
    import causalapprox

    return verdict_record(causalapprox.discover(inp.x, inp.y, inp.b, inp.b))


# ---------------------------------------------------------------- triad

@dataclass(frozen=True)
class TriadInput:
    variant: str
    b: int
    joint: np.ndarray  # mass over the model's observed axes, flat
    copies: tuple[np.ndarray, ...]  # one mass vector per interventional copy


def _counts_mass(rng, n_cells: int, rows: int) -> np.ndarray:
    p = rng.dirichlet(np.full(n_cells, TRIAD_CONCENTRATION))
    counts = rng.multinomial(rows, p)
    return counts / counts.sum()


def triad_input(seed: int, stream: int, index: int, sizes: Sizes) -> TriadInput:
    """Finite-sample inputs for the cycle's variant at ``index``."""
    from causalapprox import CausalModelSpec, model_space

    variant = TRIAD_CYCLE[index % len(TRIAD_CYCLE)]
    b = sizes.triad_b
    space = model_space(CausalModelSpec.from_name(variant, b, b, b))
    rng = rng_for(seed, stream, index)
    n_obs_cells = math.prod(space.shape.axis_sizes[a]
                            for a in space.observed_axes)
    joint = _counts_mass(rng, n_obs_cells, sizes.triad_rows)
    copies = tuple(
        _counts_mass(rng, copy.size, sizes.triad_rows // b)
        for copy in space.copies
    )
    return TriadInput(variant, b, joint, copies)


def triad_args(inp: TriadInput):
    """The (inputs, spec) pair ``approximate`` takes; built outside the op."""
    from causalapprox import (CausalModelSpec, DiscreteDistribution,
                              TrivariateInputs, model_space)

    spec = CausalModelSpec.from_name(inp.variant, inp.b, inp.b, inp.b)
    space = model_space(spec)
    obs_sizes = tuple(space.shape.axis_sizes[a] for a in space.observed_axes)
    inputs = TrivariateInputs(
        DiscreteDistribution(obs_sizes, inp.joint),
        tuple(DiscreteDistribution((m.size,), m) for m in inp.copies),
    )
    return inputs, spec


def triad_op(args) -> dict:
    import causalapprox

    inputs, spec = args
    # looked up on the package at call time, so a traced run sees its hook
    result = causalapprox.approximate(inputs, spec)
    return {
        "variant": spec.variant.value,
        "global_error": result.global_error,
        "local_error": result.local_error,
        "degenerate": result.degenerate,
    }


# ---------------------------------------------------------------- cli-csv

class CsvFiles:
    """CSV texts with continuous x -> y; env labels unless ``stream + index``
    is a multiple of 3.

    Rows come from two pools drawn once per seed: observational rows (x
    standard normal) and interventional rows (x set to a shifted draw,
    N(1.5, 0.5)), both with y = tanh(1.5 x) + N(0, 0.5^2) noise, so the
    reverse ordering fits clearly worse. Each file samples half of its rows
    from each pool, without replacement and in its own order; formatting the
    pools once keeps input generation cheap beside a cold CLI run. Without
    env labels the observational rows come first, so the middle split
    separates the two kinds; with them the rows are shuffled, so only the
    labels do. Floats are written with ``repr`` and read back exactly.
    """

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.n = sizes.csv_rows
        rng = np.random.default_rng([seed, 2**31 - 1])  # not an op stream
        self.pools = []
        for mean, sd in ((0.0, 1.0), (1.5, 0.5)):
            x = rng.normal(mean, sd, self.n)
            y = np.tanh(1.5 * x) + 0.5 * rng.normal(0.0, 1.0, self.n)
            self.pools.append([f"{a!r},{b!r}" for a, b in
                               zip(x.tolist(), y.tolist())])

    def text(self, stream: int, index: int) -> str:
        rng = rng_for(self.seed, stream, index)
        n_obs = self.n // 2
        rows = []
        for pool, k in zip(self.pools, (n_obs, self.n - n_obs)):
            picked = rng.choice(self.n, size=k, replace=False).tolist()
            rows.append([pool[i] for i in picked])
        if (stream + index) % CYCLE["cli-csv"] == 0:
            return "x,y\n" + "\n".join(rows[0] + rows[1]) + "\n"
        labelled = ([r + ",obs" for r in rows[0]]
                    + [r + ",do:x" for r in rows[1]])
        order = rng.permutation(len(labelled)).tolist()
        return ("x,y,env\n" + "\n".join(labelled[i] for i in order)
                + "\n")


def csv_path(tmp: str, stream: int, index: int) -> str:
    return os.path.join(tmp, f"cli-{stream}-{index}.csv")


def child_env(root: str) -> dict:
    """Environment of every program process: this checkout's package on the
    path and BLAS pinned to one thread."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")

CLI_TIMEOUT_S = 60


def cli_command(path: str) -> list[str]:
    return [sys.executable, "-m", "causalapprox", "discover", path,
            "--output", "json"]


def cli_op(argv: list[str], env: dict) -> dict:
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    return {"returncode": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr[-2000:]}
