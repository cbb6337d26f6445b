"""Output checks for every benchmark op.

Each check returns ``None`` when the op's output is right and a one-line
reason when it is not. The references are computed here, independently of
the package's solver:

- pairs, plain path: the projection onto x -> y is a maximal coupling, so the
  local error is KL(min/s || P) with min(a, y) = min(P(a, y), P(y | do a))
  and s its total, computed from this file's own split of the same rows;
- pairs, monotone path: errors are nonnegative and PNS lies in [0, 1];
- triad: the global error is -log of the support-mass optimum that HiGHS
  (``scipy.optimize.linprog``) finds over an embedding built here from
  ``model_space`` and ``build_support(...).member_flags``, and the local
  error does not exceed the global one;
- cli-csv: the CLI exits 0 and prints the verdict that an in-process
  ``discover`` gives on the columns parsed here, and that verdict passes the
  pairs check on this file's own discretization and split.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import verdict_record

PAIR_TOL = 1e-9
GLOBAL_TOL = 1e-7
NONNEGATIVE_TOL = 1e-12
DEGENERATE_MASS = 1e-12  # support mass treated as none, as in the package


# ---------------------------------------------------------------- pairs

def middle_split(x, y):
    """Observational first half (odd counts give it the extra row)."""
    half = (len(x) + 1) // 2
    return x[:half], y[:half], x[half:], y[half:]


def env_split(x, y, env):
    labels = np.asarray(env)
    obs = labels == "obs"
    intv = np.char.startswith(labels, "do:")
    return x[obs], y[obs], x[intv], y[intv]


def plain_error(c_obs, e_obs, c_int, e_int, b_c: int, b_e: int) -> float:
    """Local error of the cause -> effect projection, by maximal coupling."""
    c_obs, e_obs = np.asarray(c_obs, int), np.asarray(e_obs, int)
    c_int, e_int = np.asarray(c_int, int), np.asarray(e_int, int)
    joint = np.zeros((b_c, b_e))
    np.add.at(joint, (c_obs, e_obs), 1.0)
    joint /= joint.sum()
    coupled = np.empty_like(joint)
    for a in range(b_c):
        effects = e_int[c_int == a]
        if effects.size:
            q = np.bincount(effects, minlength=b_e) / effects.size
        else:  # no interventional rows: uniform stand-in
            q = np.full(b_e, 1.0 / b_e)
        coupled[a] = np.minimum(joint[a], q)
    s = coupled.sum()
    if s < DEGENERATE_MASS:
        return math.inf
    r = coupled[coupled > 0] / s
    return float(np.sum(r * np.log(r / joint[coupled > 0])))


def pair_reference(obs_x, obs_y, int_x, int_y, b_x: int, b_y: int):
    """(d_xy, d_yx) of the plain path."""
    return (plain_error(obs_x, obs_y, int_x, int_y, b_x, b_y),
            plain_error(obs_y, obs_x, int_y, int_x, b_y, b_x))


def expected_decision(d_xy, d_yx, eps, monotone, pns_xy, pns_yx) -> str:
    """Decision rule: the clearly smaller error wins; near-ties go to the
    larger PNS on the monotone path and to no decision otherwise."""
    if not (math.isfinite(d_xy) or math.isfinite(d_yx)):
        return "none"
    if math.isfinite(d_xy) and math.isfinite(d_yx) and abs(d_xy - d_yx) < eps:
        if not monotone or pns_xy == pns_yx:
            return "none"
        return "x->y" if pns_xy > pns_yx else "y->x"
    return "x->y" if d_xy < d_yx else "y->x"


def _same_error(got: float, want: float) -> bool:
    if math.isinf(got) or math.isinf(want):
        return got == want
    return abs(got - want) <= PAIR_TOL


def check_pair(rec: dict, reference) -> str | None:
    """Check a verdict record against the plain-path reference (d_xy, d_yx)."""
    if "error" in rec:
        return f"raised {rec['error']}"
    d_xy, d_yx = rec["d_xy"], rec["d_yx"]
    if rec["used_monotone_path"]:
        for name in ("d_xy", "d_yx"):
            if math.isfinite(rec[name]) and rec[name] < -NONNEGATIVE_TOL:
                return f"monotone {name} = {rec[name]!r} is negative"
        for name in ("pns_xy", "pns_yx"):
            pns = rec[name]
            if pns is None or not (-NONNEGATIVE_TOL <= pns
                                   <= 1.0 + NONNEGATIVE_TOL):
                return f"{name} = {pns!r} outside [0, 1]"
    else:
        for name, got, want in (("d_xy", d_xy, reference[0]),
                                ("d_yx", d_yx, reference[1])):
            if not _same_error(got, want):
                return f"{name} = {got!r}, maximal coupling gives {want!r}"
    want = expected_decision(d_xy, d_yx, rec["epsilon"],
                             rec["used_monotone_path"],
                             rec["pns_xy"], rec["pns_yx"])
    if rec["decision"] != want:
        return f"decision {rec['decision']!r}, errors imply {want!r}"
    return None


# ---------------------------------------------------------------- triad

def support_mass_optimum(variant: str, b: int, joint, copies) -> float:
    """Maximal support mass over the embedding, solved by HiGHS."""
    from scipy import sparse
    from scipy.optimize import linprog

    from causalapprox import CausalModelSpec, build_support, model_space

    spec = CausalModelSpec.from_name(variant, b, b, b)
    space = model_space(spec)
    flags = build_support(spec).member_flags
    sizes = space.shape.axis_sizes
    coords = np.indices(sizes).reshape(len(sizes), -1)
    n = coords.shape[1]
    cols = np.arange(n)
    # one row per copy value, one per observed cell; both sum to one, so
    # normalization is implied
    row_ids, rhs, offset = [], [], 0
    for copy, mass in zip(space.copies, copies):
        row_ids.append(offset + coords[copy.axis])
        rhs.extend(mass)
        offset += copy.size
    obs_sizes = tuple(sizes[a] for a in space.observed_axes)
    obs_cell = np.ravel_multi_index(
        tuple(coords[a] for a in space.observed_axes), obs_sizes)
    row_ids.append(offset + obs_cell)
    rhs.extend(joint)
    rows = np.concatenate(row_ids)
    a_eq = sparse.csr_matrix(
        (np.ones(rows.size), (rows, np.tile(cols, len(row_ids)))),
        shape=(len(rhs), n))
    res = linprog(-flags.astype(float), A_eq=a_eq, b_eq=np.asarray(rhs),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return -res.fun


def check_triad(rec: dict, optimum: float) -> str | None:
    if "error" in rec:
        return f"raised {rec['error']}"
    g, loc = rec["global_error"], rec["local_error"]
    if optimum < DEGENERATE_MASS:
        if not (rec["degenerate"] and math.isinf(g)):
            return f"reference support mass {optimum!r} but global {g!r}"
        return None
    want = -math.log(optimum)
    if not abs(g - want) <= GLOBAL_TOL:
        return f"global_error {g!r}, reference -log optimum {want!r}"
    if not loc <= g + PAIR_TOL:
        return f"local_error {loc!r} exceeds global_error {g!r}"
    return None


# ---------------------------------------------------------------- cli-csv

def parse_csv(text: str):
    """(x, y, env or None) from the benchmark's own CSV files."""
    header, body = text.split("\n", 1)
    names = header.split(",")
    k = len(names)
    cells = body.replace("\n", ",").split(",")[:-1]
    x = np.array(list(map(float, cells[0::k])))
    y = np.array(list(map(float, cells[1::k])))
    env = cells[2::k] if "env" in names else None
    return x, y, env


def equal_frequency_labels(values: np.ndarray, bins: int) -> np.ndarray:
    """Label = floor(bins * (number of strictly smaller values) / n)."""
    ordered = np.sort(values)
    below = np.searchsorted(ordered, values, side="left")
    return (below * bins) // values.size


def _bins(x, y) -> tuple[int, int]:
    # the CLI's rule: binary when both columns hold at most two values
    b = 2 if np.unique(x).size <= 2 and np.unique(y).size <= 2 else 3
    return b, b


def cli_reference(text: str):
    """(verdict record, plain-path (d_xy, d_yx)) for one CSV file."""
    import causalapprox

    x, y, env = parse_csv(text)
    b_x, b_y = _bins(x, y)
    want = verdict_record(causalapprox.discover(x, y, b_x, b_y, env=env))
    xc, yc = equal_frequency_labels(x, b_x), equal_frequency_labels(y, b_y)
    split = env_split(xc, yc, env) if env is not None else middle_split(xc, yc)
    return want, pair_reference(*split, b_x, b_y)


def check_cli(rec: dict, reference) -> str | None:
    if "error" in rec:
        return f"raised {rec['error']}"
    if rec["returncode"] != 0:
        return f"exit code {rec['returncode']}: {rec['stderr'].strip()[-200:]}"
    try:
        got = json.loads(rec["stdout"])
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    want, errors = reference
    if got != want:
        return f"CLI verdict {got} differs from in-process {want}"
    return check_pair(want, errors)
