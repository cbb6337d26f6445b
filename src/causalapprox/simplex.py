"""Dense two-phase simplex for equality-constrained maximization.

Solves max c'p subject to A p = b, p >= 0. Everything is kept dense and
simple: the problems have few rows, and the widest the package solves is
the hidden-z embedding at ranges of 3, 21 rows by 6,561 columns.

Pivoting starts with the largest-coefficient rule and switches permanently to
Bland's rule once a run of degenerate pivots is detected, which guarantees
termination on the highly degenerate 0/1 constraint matrices produced by the
model embeddings. The pivot order is fixed, so identical problem data yields
an identical solution vector.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

PIVOT_TOL = 1e-10
FEASIBILITY_TOL = 1e-7
REDUCED_COST_TOL = 1e-9
# consecutive pivots without objective progress before Bland's rule kicks in
DEGENERACY_LIMIT = 40


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass(frozen=True)
class LpProblem:
    """max c'p  s.t.  A p = b, p >= 0 (dense data, all finite)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.asarray(self.b, dtype=float).reshape(-1)
        c = np.asarray(self.c, dtype=float).reshape(-1)
        if a.shape != (b.size, c.size):
            raise ValueError(
                f"inconsistent dimensions: A is {a.shape}, b has {b.size}, "
                f"c has {c.size}"
            )
        for name, arr in (("A", a), ("b", b), ("c", c)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def n_rows(self) -> int:
        return self.a.shape[0]

    @property
    def n_cols(self) -> int:
        return self.a.shape[1]


@dataclass(frozen=True)
class LpSolution:
    """Solver outcome; ``p`` and ``objective`` are meaningful iff OPTIMAL."""

    status: LpStatus
    p: np.ndarray | None
    objective: float
    iterations: int
    pivot_tol: float = field(default=PIVOT_TOL)
    feasibility_tol: float = field(default=FEASIBILITY_TOL)


@dataclass(frozen=True)
class FeasibilityReport:
    max_residual: float
    min_component: float


def feasibility_check(prob: LpProblem, p) -> FeasibilityReport:
    """Max equality residual and min component of a candidate point."""
    vec = np.asarray(p, dtype=float).reshape(-1)
    if vec.size != prob.n_cols:
        raise ValueError(f"p has {vec.size} entries, expected {prob.n_cols}")
    residual = prob.a @ vec - prob.b
    return FeasibilityReport(
        max_residual=float(np.max(np.abs(residual), initial=0.0)),
        min_component=float(vec.min()),
    )


class _Tableau:
    """Working state: rows of B^-1 A | B^-1 b plus the current basis."""

    def __init__(self, body: np.ndarray, rhs: np.ndarray, basis: np.ndarray):
        self.body = body
        self.rhs = rhs
        self.basis = basis

    def pivot(self, row: int, col: int) -> None:
        piv = self.body[row, col]
        self.body[row] /= piv
        self.rhs[row] /= piv
        factors = self.body[:, col].copy()
        factors[row] = 0.0
        self.body -= np.outer(factors, self.body[row])
        self.rhs -= factors * self.rhs[row]
        # pivot column should be exactly the unit vector; stamp out roundoff
        self.body[:, col] = 0.0
        self.body[row, col] = 1.0
        self.basis[row] = col


def _run_phase(
    tab: _Tableau, costs: np.ndarray, allowed: np.ndarray, max_iter: int
) -> tuple[str, int]:
    """Minimize costs'x over the tableau; returns (outcome, iterations)."""
    m = tab.rhs.size
    degenerate_run = 0
    use_bland = False
    for it in range(max_iter):
        # reduced costs of the minimization problem
        reduced = costs - costs[tab.basis] @ tab.body
        candidates = np.flatnonzero(allowed & (reduced < -REDUCED_COST_TOL))
        if candidates.size == 0:
            return "optimal", it
        if use_bland:
            col = int(candidates[0])
        else:
            col = int(candidates[np.argmin(reduced[candidates])])
        column = tab.body[:, col]
        rows = np.flatnonzero(column > PIVOT_TOL)
        if rows.size == 0:
            return "unbounded", it
        ratios = tab.rhs[rows] / column[rows]
        best = np.min(ratios)
        tied = rows[ratios <= best + 1e-12]
        # break ratio ties on the smallest basis index (part of Bland's rule)
        row = int(tied[np.argmin(tab.basis[tied])])
        if best <= 1e-12:
            degenerate_run += 1
            if degenerate_run >= DEGENERACY_LIMIT:
                use_bland = True
        else:
            degenerate_run = 0
        tab.pivot(row, col)
    return "stalled", max_iter


def solve(prob: LpProblem) -> LpSolution:
    """Solve the LP; infeasibility is reported as a status, never raised.

    An OPTIMAL solution satisfies ``|A p - b| <= FEASIBILITY_TOL`` per row and
    ``min(p) >= -1e-9``; violations downgrade the status to
    NUMERICAL_FAILURE.
    """
    m, n = prob.n_rows, prob.n_cols
    a = prob.a.copy()
    b = prob.b.copy()
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0

    # Phase 1: artificial basis, minimize sum of artificials.
    body = np.hstack([a, np.eye(m)])
    tab = _Tableau(body, b.copy(), np.arange(n, n + m))
    phase1_costs = np.concatenate([np.zeros(n), np.ones(m)])
    allowed = np.concatenate([np.ones(n, dtype=bool), np.zeros(m, dtype=bool)])
    max_iter = 2000 + 50 * (m + n)
    outcome, it1 = _run_phase(tab, phase1_costs, allowed, max_iter)
    if outcome != "optimal":
        return LpSolution(LpStatus.NUMERICAL_FAILURE, None, float("nan"), it1)
    artificial_level = float(phase1_costs[tab.basis] @ tab.rhs)
    if artificial_level > 1e-8:
        return LpSolution(LpStatus.INFEASIBLE, None, float("nan"), it1)

    keep = _evict_artificials(tab, n)
    tab.body = tab.body[keep][:, :n]
    tab.rhs = tab.rhs[keep]
    tab.basis = tab.basis[keep]

    # Phase 2: minimize -c'x on the original columns.
    phase2_costs = -prob.c
    allowed2 = np.ones(n, dtype=bool)
    outcome, it2 = _run_phase(tab, phase2_costs, allowed2, max_iter)
    if outcome == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED, None, float("inf"), it1 + it2)
    if outcome != "optimal":
        return LpSolution(
            LpStatus.NUMERICAL_FAILURE, None, float("nan"), it1 + it2
        )

    p = np.zeros(n)
    p[tab.basis] = tab.rhs
    report = feasibility_check(prob, p)
    if report.max_residual > FEASIBILITY_TOL or report.min_component < -1e-9:
        return LpSolution(
            LpStatus.NUMERICAL_FAILURE, None, float("nan"), it1 + it2
        )
    return LpSolution(
        LpStatus.OPTIMAL, p, float(prob.c @ p), it1 + it2
    )


def _evict_artificials(tab: _Tableau, n: int) -> np.ndarray:
    """Pivot zero-level artificials out of the basis; mark redundant rows.

    Returns a boolean row mask; rows whose artificial cannot be replaced by
    any original column are linearly dependent on the others and get dropped.
    """
    keep = np.ones(tab.rhs.size, dtype=bool)
    for row in range(tab.rhs.size):
        if tab.basis[row] < n:
            continue
        pivots = np.flatnonzero(np.abs(tab.body[row, :n]) > PIVOT_TOL)
        if pivots.size == 0:
            keep[row] = False
        else:
            tab.pivot(row, int(pivots[0]))
    return keep
