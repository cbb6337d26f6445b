"""Projection of empirical distributions onto causal-model support sets.

The pipeline embeds the observational joint and the interventional marginals
as equality constraints over the model's product space, maximizes the mass the
embedded distribution places on the model support, and re-weights the optimum
onto the support. The lost mass determines the global approximation error; the
divergence between the observed-variable marginals before and after
re-weighting is the local approximation error.

The optimum is found on one of three routes:

- the plain cause -> effect models (``x_to_y``, ``y_to_x``) in closed form:
  the optimum is a maximal coupling of each interventional copy with its row
  of the observational joint;
- the observed-z trivariate models (``z_confounder``, ``z_chain``,
  ``z_collider``) by a linear program over the joint of the two copies the
  support predicate reads at each observed cell, plus one slack per copy
  value;
- every other variant (monotone, ANM, hidden z) by the linear program over
  the whole embedded space.

The two decomposed routes glue their optimum into the embedded space with
the copies conditionally independent given the observed cell, so every
route yields the same kind of result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .distributions import (
    DiscreteDistribution,
    Shape,
    kl_divergence,
    marginalize,
)
from .exceptions import (
    InfeasibleConstraintsError,
    InsufficientDataError,
    SolverFailureError,
    UnsupportedModelError,
)
from .models import (
    CausalModelSpec,
    ModelSpace,
    ModelVariant,
    SupportSet,
    _pair_holds,
    _pair_reads,
    build_support,
    model_space,
)
from .simplex import LpProblem, LpStatus, solve

ErrorMode = Literal["global", "local"]

# Mass below this on the support counts as "no fit": errors become infinite
# instead of amplifying rounding noise through the re-weighting.
DEGENERATE_MASS = 1e-12

MAX_BIVARIATE_RANGE = 4

# Variants whose optimum is the maximal coupling, projected without an LP.
_CLOSED_FORM = {ModelVariant.X_TO_Y, ModelVariant.Y_TO_X}
# Variants projected by the per-cell pair LP instead of the embedding LP.
_PAIR_LP = {ModelVariant.Z_CONFOUNDER, ModelVariant.Z_CHAIN, ModelVariant.Z_COLLIDER}


@dataclass(frozen=True)
class EmpiricalInputs:
    """Cause-first empirical inputs for a bivariate approximation.

    ``joint`` is the observational distribution over (cause, effect);
    ``interventional[a]`` is the effect distribution observed under the
    intervention fixing the cause to ``a``. ``fallback_used[a]`` marks
    interventions for which no data existed and a uniform stand-in was
    substituted.
    """

    joint: DiscreteDistribution
    interventional: tuple[DiscreteDistribution, ...]
    fallback_used: tuple[bool, ...] = ()

    def __post_init__(self):
        if self.joint.shape.ndim != 2:
            raise ValueError("joint must be a two-axis distribution")
        b_cause, b_effect = self.joint.shape.axis_sizes
        if len(self.interventional) != b_cause:
            raise ValueError(
                f"need {b_cause} interventional distributions, "
                f"got {len(self.interventional)}"
            )
        for dist in self.interventional:
            if dist.shape.axis_sizes != (b_effect,):
                raise ValueError(
                    "interventional distributions must range over the effect"
                )
        flags = self.fallback_used or tuple(False for _ in self.interventional)
        if len(flags) != b_cause:
            raise ValueError("one fallback flag per intervention value")
        object.__setattr__(self, "fallback_used", tuple(bool(f) for f in flags))

    @property
    def b_cause(self) -> int:
        return self.joint.shape.axis_sizes[0]

    @property
    def b_effect(self) -> int:
        return self.joint.shape.axis_sizes[1]


@dataclass(frozen=True)
class TrivariateInputs:
    """Empirical inputs for a three-variable approximation.

    ``joint`` ranges over the model's observed axes ((x, y, z) for observed-z
    variants, (x, y) for hidden-z variants); ``copy_marginals`` align with the
    model space's interventional copies in axis order.
    """

    joint: DiscreteDistribution
    copy_marginals: tuple[DiscreteDistribution, ...]
    fallback_used: tuple[bool, ...] = ()

    def __post_init__(self):
        flags = self.fallback_used or tuple(False for _ in self.copy_marginals)
        if len(flags) != len(self.copy_marginals):
            raise ValueError("one fallback flag per interventional copy")
        object.__setattr__(self, "fallback_used", tuple(bool(f) for f in flags))


@dataclass(frozen=True)
class ApproximationResult:
    """Projection outcome for one model variant.

    ``p_hat`` is the optimum over the full embedded space: the glued maximal
    coupling for the plain cause -> effect variants, the glued pair-LP vertex
    for the observed-z variants, the embedding-LP vertex otherwise.
    ``s_value`` is the objective at the optimum (equal to the support mass
    for plain variants, possibly larger for the reweighted ANM objectives).
    ``global_error`` is the relative entropy from the projection to the
    optimum, ``-log`` of the support mass (never below zero); ``local_error``
    is the divergence of the observed-variable marginals. A degenerate fit
    (no mass reachable on the support) reports both errors as infinity and no
    projection.
    """

    model: CausalModelSpec
    p_hat: DiscreteDistribution
    p_tilde: DiscreteDistribution | None
    s_value: float
    global_error: float
    local_error: float
    error_mode: ErrorMode
    degenerate: bool

    @property
    def error(self) -> float:
        """The approximation error selected by ``error_mode``."""
        return self.local_error if self.error_mode == "local" else self.global_error


def create_constraint_matrix(b_x: int, b_y: int) -> np.ndarray:
    """0/1 constraint matrix of the bivariate embedding.

    Shape is b_x(2 b_y - 1) rows by b_x * b_y^(b_x + 1) columns: a leading
    all-ones normalization row, then one row per interventional marginal entry
    (per intervention value, dropping each block's last entry), then one row
    per observational joint cell (lexicographic, dropping the last).
    """
    _check_bivariate_ranges(b_x, b_y)
    space = model_space(CausalModelSpec(ModelVariant.X_TO_Y, b_x, b_y))
    return _constraint_rows(space)


def get_constraint_distribution(inputs: EmpiricalInputs) -> np.ndarray:
    """Right-hand side aligned with :func:`create_constraint_matrix`."""
    _check_bivariate_ranges(inputs.b_cause, inputs.b_effect)
    return _constraint_rhs(
        inputs.joint, inputs.interventional
    )


def _check_bivariate_ranges(b_cause: int, b_effect: int) -> None:
    if not (2 <= b_cause <= MAX_BIVARIATE_RANGE
            and 2 <= b_effect <= MAX_BIVARIATE_RANGE):
        raise UnsupportedModelError(
            f"range sizes must lie in [2, {MAX_BIVARIATE_RANGE}], "
            f"got ({b_cause}, {b_effect})"
        )


def _constraint_rows(space: ModelSpace) -> np.ndarray:
    coords = space.shape.coordinates()
    n = len(coords)
    rows = [np.ones(n)]
    for copy in space.copies:
        for v in range(copy.size - 1):
            rows.append((coords[:, copy.axis] == v).astype(float))
    obs = space.observed_axes
    obs_sizes = tuple(space.shape.axis_sizes[a] for a in obs)
    obs_cells = Shape(obs_sizes).coordinates()
    for cell in obs_cells[:-1]:
        mask = np.ones(n, dtype=bool)
        for axis, value in zip(obs, cell):
            mask &= coords[:, axis] == value
        rows.append(mask.astype(float))
    return np.vstack(rows)


def _constraint_rhs(
    joint: DiscreteDistribution,
    copy_marginals: Sequence[DiscreteDistribution],
) -> np.ndarray:
    rhs = [1.0]
    for marg in copy_marginals:
        rhs.extend(marg.mass[:-1])
    rhs.extend(joint.mass[:-1])
    return np.asarray(rhs, dtype=float)


def _as_generic(
    inputs: EmpiricalInputs | TrivariateInputs, space: ModelSpace
) -> tuple[DiscreteDistribution, tuple[DiscreteDistribution, ...]]:
    if isinstance(inputs, EmpiricalInputs):
        joint, marginals = inputs.joint, inputs.interventional
    else:
        joint, marginals = inputs.joint, inputs.copy_marginals
    obs_sizes = tuple(space.shape.axis_sizes[a] for a in space.observed_axes)
    if joint.shape.axis_sizes != obs_sizes:
        raise ValueError(
            f"joint ranges over {joint.shape.axis_sizes}, model observes "
            f"{obs_sizes}"
        )
    if len(marginals) != len(space.copies):
        raise ValueError(
            f"model has {len(space.copies)} interventional copies, "
            f"got {len(marginals)} marginals"
        )
    for marg, copy in zip(marginals, space.copies):
        if marg.shape.axis_sizes != (copy.size,):
            raise ValueError(
                f"marginal for copy {copy} must range over {copy.size} values"
            )
    return joint, tuple(marginals)


def _lp_optimum(
    support: SupportSet,
    joint: DiscreteDistribution,
    marginals: Sequence[DiscreteDistribution],
) -> DiscreteDistribution:
    """Optimal vertex of the embedding LP under the support's objective."""
    a = _constraint_rows(support.space)
    c = _constraint_rhs(joint, marginals)
    p = _solve_checked(LpProblem(a, c, support.objective_coeffs))
    return DiscreteDistribution(support.shape, p)


def _solve_checked(problem: LpProblem) -> np.ndarray:
    solution = solve(problem)
    if solution.status is LpStatus.INFEASIBLE:
        raise InfeasibleConstraintsError(
            "empirical marginals admit no joint distribution"
        )
    if solution.status is not LpStatus.OPTIMAL:
        raise SolverFailureError(f"LP solver returned {solution.status.value}")
    return solution.p


def _pair_lp_optimum(
    spec: CausalModelSpec,
    space: ModelSpace,
    joint: DiscreteDistribution,
    marginals: Sequence[DiscreteDistribution],
) -> tuple[DiscreteDistribution, np.ndarray]:
    """Optimum of an observed-z projection from a per-cell LP over copy pairs.

    At observed cell (x, y, z) the support predicate reads only the two
    copies :func:`_pair_reads` names, so the LP runs over w[cell, u, v], the
    joint of those two copies at each cell, plus a slack s[k, t] per copy
    value: each cell's w sums to P(cell), and for each copy k and value t the
    mass that the cells reading k put on t plus s[k, t] equals q_k(t). The
    cells that do not read copy k can take any copy-k distribution that
    totals their mass, and s_k totals exactly that, so the inequality is
    exact. The full optimum glues w with every unread copy k drawn from
    s_k / sum(s_k), independently given the cell.

    Returns the embedded optimum and the support mass per observed cell.
    """
    x, y, z = joint.shape.coordinates().T
    first, second = _pair_reads(spec, x, z)
    sizes = [copy.size for copy in space.copies]
    # every cell reads copies of the same two ranges
    n_u, n_v = sizes[first[0]], sizes[second[0]]
    u, v = np.indices((n_u, n_v)).reshape(2, -1)
    n_cells, n_pairs, n_slack = x.size, n_u * n_v, sum(sizes)
    n_w = n_cells * n_pairs
    offset = np.cumsum([0] + sizes[:-1])  # slack of copy k's value 0
    cols = np.arange(n_w).reshape(n_cells, n_pairs)
    a = np.zeros((n_cells + n_slack, n_w + n_slack))
    a[np.arange(n_cells)[:, None], cols] = 1.0
    a[n_cells + offset[first][:, None] + u, cols] = 1.0
    a[n_cells + offset[second][:, None] + v, cols] = 1.0
    a[n_cells:, n_w:] = np.eye(n_slack)
    rhs = np.concatenate([joint.mass] + [marg.mass for marg in marginals])
    holds = _pair_holds(spec.variant, u, v, x[:, None], y[:, None])
    c = np.concatenate([holds.reshape(-1), np.zeros(n_slack)])
    p = _solve_checked(LpProblem(a, rhs, c))

    w = p[:n_w].reshape(n_cells, n_u, n_v)
    values = np.indices(sizes).reshape(len(sizes), -1)  # copy cells, flat order
    grid = w[np.arange(n_cells)[:, None], values[first], values[second]]
    slacks = np.split(p[n_w:], offset[1:])
    for k, (slack, value) in enumerate(zip(slacks, values)):
        total = slack.sum()
        draw = slack / total if total > 0.0 else np.zeros_like(slack)
        grid[(first != k) & (second != k)] *= draw[value]
    on_support = (w.reshape(n_cells, n_pairs) * holds).sum(axis=1)
    return (
        DiscreteDistribution(space.shape, grid.reshape(-1)),
        on_support.reshape(joint.shape.axis_sizes),
    )


def _maximal_coupling(
    joint: DiscreteDistribution, marginals: Sequence[DiscreteDistribution]
) -> tuple[DiscreteDistribution, np.ndarray]:
    """Closed-form optimum of the plain cause -> effect projection.

    No feasible point puts more than m(a, y) = min(P(a, y), P(y | do a)) on
    the support at observed cell (a, y), and this point attains every bound
    (Lindvall 1992). Given the observed cell, the copies are independent.
    Copy a's kernel puts m_a on the diagonal of row a and couples the rest of
    that row with the leftover q_a - m_a as a product divided by
    1 - sum(m_a); every other row draws copy a from that leftover alone. The
    product never lands on the support: where a row keeps mass, the copy has
    none left at that value.

    Returns the embedded optimum and the coupled mass m over (cause, effect).
    """
    p = joint.as_array()
    q = np.stack([marg.mass for marg in marginals])
    m = np.minimum(p, q)
    b_cause, b_effect = p.shape
    left = 1.0 - m.sum(axis=1, keepdims=True)
    spread = np.divide(q - m, left, out=np.zeros_like(q), where=left > 0.0)
    grid = np.ones((b_cause, b_effect) + (1,) * b_cause)
    for a in range(b_cause):
        # copy a given (cause, effect); row a also carries that row's mass
        kernel = np.broadcast_to(spread[a], (b_cause, b_effect, b_effect)).copy()
        kernel[a] = np.diag(m[a]) + np.outer(p[a] - m[a], spread[a])
        axes = [b_cause, b_effect] + [1] * b_cause
        axes[2 + a] = b_effect
        grid = grid * kernel.reshape(axes)
    return DiscreteDistribution(grid.shape, grid.reshape(-1)), m


def approximate(
    inputs: EmpiricalInputs | TrivariateInputs,
    spec: CausalModelSpec,
    error_mode: ErrorMode = "local",
) -> ApproximationResult:
    """Project empirical inputs onto a model's support set.

    The plain cause -> effect variants take the closed-form optimum of
    :func:`_maximal_coupling`, the observed-z variants the per-cell pair LP
    of :func:`_pair_lp_optimum`; every other variant builds the equality
    constraints over the embedded space and maximizes the model objective by
    linear programming. The optimum is then re-weighted onto the support.
    Inputs are cause-first: for y-cause variants, build them from
    column-swapped data.

    Raises:
        InfeasibleConstraintsError: the constraints admit no distribution
            (cannot happen for normalized inputs; signals corrupted data).
        SolverFailureError: the LP solver broke down.
    """
    if error_mode not in ("global", "local"):
        raise ValueError(f"unknown error mode {error_mode!r}")
    support = build_support(spec)
    space = support.space
    if not spec.is_trivariate:
        sizes = space.shape.axis_sizes
        _check_bivariate_ranges(sizes[0], sizes[1])
    joint, marginals = _as_generic(inputs, space)

    if spec.variant in _CLOSED_FORM:
        p_hat, cell_support = _maximal_coupling(joint, marginals)
    elif spec.variant in _PAIR_LP:
        p_hat, cell_support = _pair_lp_optimum(spec, space, joint, marginals)
    else:
        p_hat, cell_support = _lp_optimum(support, joint, marginals), None
    s_value = float(support.objective_coeffs @ p_hat.mass)
    support_mass = float(support.member_flags.astype(float) @ p_hat.mass)
    if support_mass < DEGENERATE_MASS:
        return ApproximationResult(
            model=spec,
            p_hat=p_hat,
            p_tilde=None,
            s_value=s_value,
            global_error=math.inf,
            local_error=math.inf,
            error_mode=error_mode,
            degenerate=True,
        )
    tilde = np.where(support.member_flags, p_hat.mass, 0.0) / support_mass
    p_tilde = DiscreteDistribution(space.shape, tilde)
    if cell_support is not None:
        local = kl_divergence(
            DiscreteDistribution(joint.shape, cell_support / support_mass),
            joint,
        )
    else:
        observed = space.observed_axes
        local = kl_divergence(
            marginalize(p_tilde, observed), marginalize(p_hat, observed)
        )
    return ApproximationResult(
        model=spec,
        p_hat=p_hat,
        p_tilde=p_tilde,
        s_value=s_value,
        # rounding can lift a full fit's support mass above 1
        global_error=max(0.0, -math.log(support_mass)),
        local_error=local,
        error_mode=error_mode,
        degenerate=False,
    )


def shift_for_time_lag(x, y, lag: int) -> tuple[np.ndarray, np.ndarray]:
    """Re-pair ordered samples as (x_t, y_{t+lag}), dropping the overhang."""
    if lag < 0:
        raise ValueError("lag must be nonnegative")
    xs = np.asarray(x)
    ys = np.asarray(y)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if lag >= xs.size:
        raise InsufficientDataError(
            f"lag {lag} leaves no rows out of {xs.size}"
        )
    if lag == 0:
        return xs.copy(), ys.copy()
    return xs[:-lag].copy(), ys[lag:].copy()
