"""Independent reference computations used by several test modules.

Everything here is deliberately written as direct transcriptions (explicit
loops over quantifiers, exhaustive basis enumeration) so it exercises none of
the package's own vectorized or algorithmic code paths.
"""

import itertools
from functools import lru_cache

import numpy as np

from causalapprox import DiscreteDistribution, EmpiricalInputs


def random_inputs(b_cause, b_effect, seed):
    rng = np.random.default_rng(seed)
    joint = DiscreteDistribution(
        (b_cause, b_effect), rng.dirichlet(np.ones(b_cause * b_effect))
    )
    marginals = tuple(
        DiscreteDistribution((b_effect,), rng.dirichlet(np.ones(b_effect)))
        for _ in range(b_cause)
    )
    return EmpiricalInputs(joint, marginals)


def noisy_cycle_columns():
    """400 rows of 3x3 data, y = 2x + 1 (mod 3) with 30 % uniform noise."""
    rng = np.random.default_rng(5)
    x = rng.integers(0, 3, 400)
    y = np.where(rng.random(400) < 0.7, (2 * x + 1) % 3, rng.integers(0, 3, 400))
    return x, y


def cause_effect_support_by_union(b_cause, b_effect):
    """Support of the cause->effect model built from the union-of-products
    form: for each (cause value a, effect value y), cells with cause=a,
    effect=y, the a-th copy pinned to y and every other copy free."""
    sizes = [b_cause, b_effect] + [b_effect] * b_cause
    support = set()
    for a in range(b_cause):
        for y in range(b_effect):
            free_axes = [range(b_effect)] * (b_cause - 1)
            for free in itertools.product(*free_axes):
                copies = list(free[:a]) + [y] + list(free[a:])
                cell = (a, y, *copies)
                support.add(int(np.ravel_multi_index(cell, sizes)))
    return support


@lru_cache(maxsize=None)
def _binary_bases():
    """All invertible 6-column bases of the fixed binary constraint matrix,
    with their inverses precomputed."""
    from causalapprox import create_constraint_matrix

    a = create_constraint_matrix(2, 2)
    bases = []
    inverses = []
    for cols in itertools.combinations(range(16), 6):
        sub = a[:, cols]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        bases.append(cols)
        inverses.append(np.linalg.inv(sub))
    return tuple(bases), np.stack(inverses)


def binary_lp_optimum(rhs, objective):
    """Exhaustive vertex enumeration for the 6x16 binary instances.

    Every vertex of {A p = rhs, p >= 0} is a basic solution of some
    invertible 6-column basis, so the optimum is the max objective over all
    feasibility-filtered basic solutions.
    """
    bases, inverses = _binary_bases()
    candidates = inverses @ rhs
    feasible = np.all(candidates >= -1e-9, axis=1)
    best = -np.inf
    for cols, x, ok in zip(bases, candidates, feasible):
        if not ok:
            continue
        value = float(np.asarray(objective)[list(cols)] @ x)
        if value > best:
            best = value
    return best


def trivariate_zero_cells(variant, space, b_x, b_y, b_z):
    """Flat indices that the published zero-pattern equations force to zero,
    obtained by looping over the quantifiers of each equation literally."""
    sizes = space.shape.axis_sizes
    copy_axis = {
        (c.intervened, c.value, c.measures): c.axis for c in space.copies
    }
    zeros = set()

    def mark(fixed):
        """All cells agreeing with the axis->value constraints in ``fixed``."""
        free = [
            range(size) if axis not in fixed else [fixed[axis]]
            for axis, size in enumerate(sizes)
        ]
        for cell in itertools.product(*free):
            zeros.add(int(np.ravel_multi_index(cell, sizes)))

    observed_z = "z" in space.observed_names

    if variant in ("z_confounder", "z_confounder_hidden"):
        for a in range(b_z):
            xa = copy_axis[("z", a, "x")]
            ya = copy_axis[("z", a, "y")]
            for x_val in range(b_x):
                for y_val in range(b_y):
                    base = {0: x_val, 1: y_val}
                    if observed_z:
                        base[2] = a
                    for x_bar in range(b_x):
                        if x_bar != x_val:
                            mark({**base, xa: x_bar, ya: y_val})
                    for y_bar in range(b_y):
                        if y_bar != y_val:
                            mark({**base, xa: x_val, ya: y_bar})
    elif variant in ("z_chain", "z_chain_hidden"):
        for a in range(b_z):
            for x_val in range(b_x):
                xa = copy_axis[("z", a, "x")]
                yx = copy_axis[("x", x_val, "y")]
                for y_val in range(b_y):
                    base = {0: x_val, 1: y_val}
                    if observed_z:
                        base[2] = a
                    for x_bar in range(b_x):
                        if x_bar != x_val:
                            mark({**base, xa: x_bar, yx: y_val})
                    for y_bar in range(b_y):
                        if y_bar != y_val:
                            mark({**base, xa: x_val, yx: y_bar})
    elif variant in ("z_collider", "z_collider_hidden"):
        for a in range(b_z):
            for b_val in range(b_x):
                ya = copy_axis[("z", a, "y")]
                yb = copy_axis[("x", b_val, "y")]
                for y_val in range(b_y):
                    base = {0: b_val, 1: y_val}
                    if observed_z:
                        base[2] = a
                    for y_bar in range(b_y):
                        if y_bar != y_val:
                            mark({**base, ya: y_val, yb: y_bar})
                            mark({**base, ya: y_bar, yb: y_val})
                            mark({**base, ya: y_bar, yb: y_bar})
    else:
        raise ValueError(variant)
    return zeros


def highs_support_mass(spec, joint, copy_marginals):
    """Largest support mass over the whole embedded space, solved by HiGHS.

    One equality row per observed cell and one per copy value, each built
    here from the axes of ``model_space``; the support is
    ``build_support(spec).member_flags``. Dual simplex with feasibility
    tolerances of 1e-10, so the optimum is a vertex accurate well past the
    default 1e-7.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    from causalapprox import build_support, model_space

    space = model_space(spec)
    sizes = space.shape.axis_sizes
    coords = np.indices(sizes).reshape(len(sizes), -1)
    obs_sizes = tuple(sizes[a] for a in space.observed_axes)
    row_of_cell = [np.ravel_multi_index(
        tuple(coords[a] for a in space.observed_axes), obs_sizes)]
    rhs = [np.asarray(joint.mass)]
    offset = int(np.prod(obs_sizes))
    for copy, marg in zip(space.copies, copy_marginals):
        row_of_cell.append(offset + coords[copy.axis])
        rhs.append(np.asarray(marg.mass))
        offset += copy.size
    rows = np.concatenate(row_of_cell)
    cols = np.tile(np.arange(coords.shape[1]), len(row_of_cell))
    a_eq = sparse.csr_matrix((np.ones(rows.size), (rows, cols)),
                             shape=(offset, coords.shape[1]))
    flags = build_support(spec).member_flags.astype(float)
    res = linprog(-flags, A_eq=a_eq, b_eq=np.concatenate(rhs),
                  bounds=(0, None), method="highs-ds",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return -res.fun
