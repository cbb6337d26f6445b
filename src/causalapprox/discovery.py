"""Bivariate causal discovery by comparing approximation errors.

Sample rows are split into an observational and an interventional part, the
approximation error to a cause->effect model is computed for both variable
orderings, and the ordering with the clearly smaller error wins. For binary
data whose projections are compatible with a monotone mechanism, near-ties
are broken by the larger probability of necessary-and-sufficient causation.

:func:`direction_inputs` is the one path from rows to the cause-first inputs
of both orderings; :func:`discover` and the command-line interface share it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .approximation import EmpiricalInputs, ErrorMode, approximate
from .causation import CausationReport, calc_causal_probabilities
from .distributions import (
    DiscreteDistribution,
    discretize_equal_frequency,
    empirical_joint,
    empirical_marginal,
)
from .exceptions import InsufficientDataError, NoMonotoneModelError, UnsupportedModelError
from .models import CausalModelSpec, ModelVariant


class PreprocessMode(enum.Enum):
    NONE = "none"
    SPLIT = "split"
    SPLIT_AND_BALANCE = "split-and-balance"


class Decision(enum.Enum):
    X_TO_Y = "x->y"
    Y_TO_X = "y->x"
    NO_DECISION = "none"


_ANM_SPECS = (
    ModelVariant.ANM_S1,
    ModelVariant.ANM_S2,
    ModelVariant.ANM_S3,
    ModelVariant.ANM_S4,
)


@dataclass(frozen=True)
class EnvSplit:
    """Rows partitioned into an observational and an interventional block."""

    obs_x: np.ndarray
    obs_y: np.ndarray
    int_x: np.ndarray
    int_y: np.ndarray


@dataclass(frozen=True)
class DiscoveryConfig:
    """Pipeline parameters; the defaults follow the reference setting
    (middle split, local error as decision metric).

    ``epsilon`` is measured against the decision metric: local errors are
    divergences between nearby distributions and sit orders of magnitude
    below global errors, so the no-decision band is correspondingly tight.
    """

    preprocess_mode: PreprocessMode = PreprocessMode.NONE
    error_mode: ErrorMode = "local"
    epsilon: float = 1e-5
    epsilon_monotone: float | None = None
    seed: int = 0
    alpha: float = 0.0
    objectives: str = "plain"  # "plain" or "anm" (binary only)

    @property
    def eps_mono(self) -> float:
        return self.epsilon if self.epsilon_monotone is None else self.epsilon_monotone


@dataclass(frozen=True)
class DiscoveryVerdict:
    decision: Decision
    d_xy: float
    d_yx: float
    pns_xy: float | None
    pns_yx: float | None
    used_monotone_path: bool
    epsilon: float


def preprocess(
    x,
    y,
    mode: PreprocessMode = PreprocessMode.NONE,
    cause: str = "x",
    rng: np.random.Generator | None = None,
) -> EnvSplit:
    """Split rows into observational and interventional blocks.

    ``none`` keeps order and cuts in the middle (odd counts give the extra
    row to the observational block). ``split`` filters by each value of the
    cause column and draws disjoint halves without replacement.
    ``split-and-balance`` draws with replacement and lifts every
    interventional subset to the size of the largest one.
    """
    xs = np.asarray(x)
    ys = np.asarray(y)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if xs.size == 0:
        raise InsufficientDataError("no rows to preprocess")
    if cause not in ("x", "y"):
        raise ValueError("cause must be 'x' or 'y'")
    if mode is PreprocessMode.NONE:
        half = (xs.size + 1) // 2
        return EnvSplit(xs[:half], ys[:half], xs[half:], ys[half:])

    if rng is None:
        rng = np.random.default_rng(0)
    key = xs if cause == "x" else ys
    values = np.unique(key)
    obs_idx: list[np.ndarray] = []
    int_idx: list[np.ndarray] = []
    if mode is PreprocessMode.SPLIT:
        for v in values:
            idx = np.flatnonzero(key == v)
            perm = rng.permutation(idx)
            k = idx.size // 2
            obs_idx.append(np.sort(perm[:k]))
            int_idx.append(np.sort(perm[k:]))
    else:  # SPLIT_AND_BALANCE
        target = max(int(np.sum(key == v)) - int(np.sum(key == v)) // 2
                     for v in values)
        for v in values:
            idx = np.flatnonzero(key == v)
            n_obs = idx.size // 2
            if n_obs:
                obs_idx.append(np.sort(rng.choice(idx, size=n_obs, replace=True)))
            int_idx.append(np.sort(rng.choice(idx, size=target, replace=True)))
    obs = np.concatenate(obs_idx) if obs_idx else np.array([], dtype=int)
    intv = np.concatenate(int_idx)
    return EnvSplit(xs[obs], ys[obs], xs[intv], ys[intv])


def build_inputs(
    cause_obs,
    effect_obs,
    cause_int,
    effect_int,
    b_cause: int,
    b_effect: int,
    alpha: float = 0.0,
) -> EmpiricalInputs:
    """Empirical inputs from split rows, keyed by the cause categories.

    Intervention values with no rows fall back to a uniform effect
    distribution and are flagged.
    """
    joint = empirical_joint(
        np.column_stack([cause_obs, effect_obs]), b_cause, b_effect, alpha=alpha
    )
    cause_int = np.asarray(cause_int)
    effect_int = np.asarray(effect_int)
    marginals = []
    flags = []
    for a in range(b_cause):
        mask = cause_int == a
        if mask.any():
            marginals.append(empirical_marginal(effect_int[mask], b_effect, alpha))
            flags.append(False)
        else:
            marginals.append(DiscreteDistribution.uniform((b_effect,)))
            flags.append(True)
    return EmpiricalInputs(joint, tuple(marginals), tuple(flags))


def ensure_categories(values, b: int) -> np.ndarray:
    """Coerce a column to integer categories in [0, b).

    Columns that already hold integers in range pass through; anything else
    (continuous values, too many or out-of-range categories) goes through
    equal-frequency discretization into ``b`` bins.
    """
    arr = np.asarray(values, dtype=float).reshape(-1)
    if not np.all(np.isfinite(arr)):
        raise ValueError("values must be finite")
    as_int = arr.astype(int)
    if np.array_equal(as_int, arr) and as_int.min() >= 0 and as_int.max() < b:
        return as_int
    return discretize_equal_frequency(arr, b).labels


@dataclass(frozen=True)
class _DirectionEval:
    plain_error: float
    mono_error: float
    monotone_ok: bool
    report: CausationReport | None


def _evaluate_direction(
    inputs: EmpiricalInputs, config: DiscoveryConfig, label: str
) -> _DirectionEval:
    binary = inputs.b_cause == 2 and inputs.b_effect == 2
    if config.objectives == "anm":
        if not binary:
            raise UnsupportedModelError("ANM objectives require binary data")
        plain = min(
            approximate(inputs, CausalModelSpec(v, 2, 2), config.error_mode).error
            for v in _ANM_SPECS
        )
    else:
        spec = CausalModelSpec(
            ModelVariant.X_TO_Y, inputs.b_cause, inputs.b_effect
        )
        plain = approximate(inputs, spec, config.error_mode).error
    if not binary:
        return _DirectionEval(plain, math.inf, False, None)
    try:
        report = calc_causal_probabilities(
            inputs, config.error_mode, direction_assumed=label
        )
    except NoMonotoneModelError:
        return _DirectionEval(plain, math.inf, False, None)
    mono = min(report.errors)
    ok = math.isfinite(mono) and mono <= plain + config.eps_mono
    return _DirectionEval(plain, mono, ok, report)


def monotone_preferred(
    inputs: EmpiricalInputs,
    error_mode: ErrorMode = "local",
    epsilon: float = 1e-5,
) -> bool:
    """Whether a monotone fit is essentially as good as the unrestricted one.

    True iff min of the two monotone-variant errors is finite and within
    ``epsilon`` of the plain-model error.
    """
    config = DiscoveryConfig(
        error_mode=error_mode, epsilon=epsilon, epsilon_monotone=epsilon
    )
    return _evaluate_direction(inputs, config, "x->y").monotone_ok


def _close(d_a: float, d_b: float, eps: float) -> bool:
    return math.isfinite(d_a) and math.isfinite(d_b) and abs(d_a - d_b) < eps


def split_by_environment(x, y, env) -> EnvSplit:
    """Split rows on explicit environment labels instead of a heuristic.

    Rows labeled ``obs`` form the observational block; rows labeled
    ``do:<...>`` pool into the interventional block (keying by intervention
    value happens later, through each direction's own cause column).
    """
    xs = np.asarray(x)
    ys = np.asarray(y)
    labels, is_obs, is_do = _environment_masks(env)
    if not (xs.shape == ys.shape == labels.shape) or xs.ndim != 1:
        raise ValueError("x, y, env must be 1-d arrays of equal length")
    if not is_obs.any() or not is_do.any():
        raise InsufficientDataError(
            "need both observational and interventional rows"
        )
    return EnvSplit(xs[is_obs], ys[is_obs], xs[is_do], ys[is_do])


def _environment_masks(env) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Labels as strings, with their ``obs`` and ``do:<...>`` masks.

    Raises:
        ValueError: a label is neither ``obs`` nor ``do:<...>``.
    """
    labels = np.asarray([str(e) for e in env])
    is_obs = labels == "obs"
    is_do = np.char.startswith(labels, "do:")
    unknown = ~(is_obs | is_do)
    if unknown.any():
        bad = str(labels[unknown][0])
        raise ValueError(
            f"environment label {bad!r} is neither 'obs' nor 'do:<value>'"
        )
    return labels, is_obs, is_do


def direction_inputs(
    x,
    y,
    b_x: int,
    b_y: int,
    config: DiscoveryConfig | None = None,
    env=None,
) -> tuple[EmpiricalInputs, EmpiricalInputs]:
    """Cause-first empirical inputs for both orderings of two sample columns.

    Columns are coerced to categories, then split by explicit ``env`` labels
    when given (one split serves both orderings) or per the configured
    preprocess mode, seeded by stream ``[seed, 0]`` with x as the cause and
    ``[seed, 1]`` with y as the cause. Returns the x -> y inputs and the
    y -> x inputs, the latter with y in the cause position.
    """
    if config is None:
        config = DiscoveryConfig()
    xc = ensure_categories(x, b_x)
    yc = ensure_categories(y, b_y)
    if env is not None:
        split_x = split_y = split_by_environment(xc, yc, env)
    else:
        split_x = preprocess(
            xc, yc, config.preprocess_mode, "x",
            np.random.default_rng([config.seed, 0]),
        )
        split_y = preprocess(
            xc, yc, config.preprocess_mode, "y",
            np.random.default_rng([config.seed, 1]),
        )
    inputs_xy = build_inputs(
        split_x.obs_x, split_x.obs_y, split_x.int_x, split_x.int_y,
        b_x, b_y, config.alpha,
    )
    inputs_yx = build_inputs(
        split_y.obs_y, split_y.obs_x, split_y.int_y, split_y.int_x,
        b_y, b_x, config.alpha,
    )
    return inputs_xy, inputs_yx


def discover(
    x,
    y,
    b_x: int,
    b_y: int,
    config: DiscoveryConfig | None = None,
    env=None,
) -> DiscoveryVerdict:
    """Infer the causal ordering of two sample columns.

    Both orderings' inputs come from :func:`direction_inputs`, the same
    ingest the CLI uses, and each ordering is scored by its approximation
    error. On binary data where both orderings admit a competitive monotone
    fit, errors within ``epsilon`` of each other are resolved by the higher
    PNS; otherwise errors within ``epsilon`` yield no decision.
    """
    if config is None:
        config = DiscoveryConfig()
    xs = np.asarray(x).reshape(-1)
    ys = np.asarray(y).reshape(-1)
    if xs.size != ys.size:
        raise ValueError("x and y must have equal length")
    if xs.size < 4:
        raise InsufficientDataError("discovery needs at least 4 rows")
    inputs_xy, inputs_yx = direction_inputs(xs, ys, b_x, b_y, config, env)
    eval_xy = _evaluate_direction(inputs_xy, config, "x->y")
    eval_yx = _evaluate_direction(inputs_yx, config, "y->x")

    # One direction with a competitive monotone fit suffices: a direction
    # whose monotone fit is poor is itself directional evidence, which the
    # monotone-path error comparison picks up.
    monotone_path = (
        (eval_xy.monotone_ok or eval_yx.monotone_ok)
        and eval_xy.report is not None
        and eval_yx.report is not None
    )
    if monotone_path:
        d_xy, d_yx = eval_xy.mono_error, eval_yx.mono_error
        pns_xy = eval_xy.report.pns
        pns_yx = eval_yx.report.pns
    else:
        d_xy, d_yx = eval_xy.plain_error, eval_yx.plain_error
        pns_xy = pns_yx = None

    decision = _decide(d_xy, d_yx, config.epsilon, monotone_path, pns_xy, pns_yx)
    return DiscoveryVerdict(
        decision=decision,
        d_xy=d_xy,
        d_yx=d_yx,
        pns_xy=pns_xy,
        pns_yx=pns_yx,
        used_monotone_path=monotone_path,
        epsilon=config.epsilon,
    )


def _decide(
    d_xy: float,
    d_yx: float,
    eps: float,
    monotone_path: bool,
    pns_xy: float | None,
    pns_yx: float | None,
) -> Decision:
    if not (math.isfinite(d_xy) or math.isfinite(d_yx)):
        return Decision.NO_DECISION
    if _close(d_xy, d_yx, eps):
        if not monotone_path:
            return Decision.NO_DECISION
        if pns_xy > pns_yx:
            return Decision.X_TO_Y
        if pns_yx > pns_xy:
            return Decision.Y_TO_X
        return Decision.NO_DECISION
    return Decision.X_TO_Y if d_xy < d_yx else Decision.Y_TO_X


def verdict_with_swapped_columns(verdict: DiscoveryVerdict) -> DiscoveryVerdict:
    """The verdict the pipeline produces when the input columns are swapped."""
    mirrored = {
        Decision.X_TO_Y: Decision.Y_TO_X,
        Decision.Y_TO_X: Decision.X_TO_Y,
        Decision.NO_DECISION: Decision.NO_DECISION,
    }[verdict.decision]
    return replace(
        verdict,
        decision=mirrored,
        d_xy=verdict.d_yx,
        d_yx=verdict.d_xy,
        pns_xy=verdict.pns_yx,
        pns_yx=verdict.pns_xy,
    )
