"""The closed-form projection of the plain models against the LP oracle.

``approximate`` projects ``x_to_y``/``y_to_x`` by maximal coupling; the dense
simplex over the embedded space, which every other variant still uses, is the
reference here for the support mass, in total and per observed cell. The
errors are checked against a 50-digit evaluation from min(P, q) instead: the
LP vertex is exact to a few 1e-13 in mass, which the logarithms amplify past
``TOL`` when little mass is coupled.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causalapprox import (
    CausalModelSpec,
    DiscreteDistribution,
    EmpiricalInputs,
    ModelVariant,
    approximate,
    build_support,
    create_constraint_matrix,
    get_constraint_distribution,
    marginalize,
)
from causalapprox.discovery import build_inputs
from causalapprox.simplex import LpProblem, LpStatus, solve
from oracles import random_inputs

TOL = 1e-12
SIZES = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (4, 4)]
PLAIN = [ModelVariant.X_TO_Y, ModelVariant.Y_TO_X]


def plain_spec(variant, b_cause, b_effect):
    """Spec whose cause-first layout has the given range sizes."""
    if variant is ModelVariant.X_TO_Y:
        return CausalModelSpec(variant, b_cause, b_effect)
    return CausalModelSpec(variant, b_effect, b_cause)


def coupled_mass(inputs):
    """min(P(a, y), P(y | do a)) for each observed cell (a, y)."""
    q = np.stack([marg.mass for marg in inputs.interventional])
    return np.minimum(inputs.joint.as_array(), q)


def precise_errors(inputs):
    """Global error -log s and local error KL(min(P, q) / s || P), with
    s = sum min(P, q), evaluated with 50 significant digits."""
    with mpmath.workdps(50):
        m = [mpmath.mpf(float(v)) for v in coupled_mass(inputs).reshape(-1)]
        p = [mpmath.mpf(float(v)) for v in inputs.joint.mass]
        s = mpmath.fsum(m)
        local = mpmath.fsum(
            mi / s * mpmath.log(mi / s / pi) for mi, pi in zip(m, p) if mi > 0
        )
        return float(-mpmath.log(s)), float(local)


def lp_projection(inputs, spec):
    """(s, support mass per observed cell) of the LP optimum, or None when
    degenerate."""
    support = build_support(spec)
    solution = solve(LpProblem(
        create_constraint_matrix(inputs.b_cause, inputs.b_effect),
        get_constraint_distribution(inputs),
        support.objective_coeffs,
    ))
    assert solution.status is LpStatus.OPTIMAL
    p = DiscreteDistribution(support.shape, solution.p)
    s = float(support.member_flags.astype(float) @ p.mass)
    if s < 1e-12:
        return None
    on_support = np.where(support.member_flags, p.mass, 0.0)
    per_cell = on_support.reshape(inputs.b_cause, inputs.b_effect, -1).sum(axis=2)
    return s, per_cell


def assert_matches_lp(inputs, variant):
    spec = plain_spec(variant, inputs.b_cause, inputs.b_effect)
    res = approximate(inputs, spec)
    ref = lp_projection(inputs, spec)
    if ref is None:
        assert res.degenerate
        assert res.s_value < 1e-12
        return res
    s, per_cell = ref
    assert not res.degenerate
    assert abs(res.s_value - s) <= TOL
    # every LP optimum couples exactly min(P, q) on each observed cell
    assert np.max(np.abs(per_cell - coupled_mass(inputs))) <= TOL
    glob, local = precise_errors(inputs)
    assert abs(res.global_error - glob) <= TOL
    assert abs(res.local_error - local) <= TOL
    return res


def assert_glued_marginals(res, inputs):
    xy = marginalize(res.p_hat, (0, 1))
    assert np.max(np.abs(xy.mass - inputs.joint.mass)) <= TOL
    for a, marg in enumerate(inputs.interventional):
        copy = marginalize(res.p_hat, (2 + a,))
        assert np.max(np.abs(copy.mass - marg.mass)) <= TOL


@pytest.mark.parametrize("variant", PLAIN, ids=lambda v: v.value)
@pytest.mark.parametrize("b_cause,b_effect", SIZES)
def test_matches_lp_oracle(variant, b_cause, b_effect):
    for seed in range(4):
        inputs = random_inputs(b_cause, b_effect, seed=(b_cause, b_effect, seed))
        res = assert_matches_lp(inputs, variant)
        assert_glued_marginals(res, inputs)


def test_zero_support_mass_is_degenerate():
    # every observed row sits where its intervention puts no mass
    joint = DiscreteDistribution((2, 2), [0.5, 0.0, 0.0, 0.5])
    inputs = EmpiricalInputs(joint, (
        DiscreteDistribution((2,), [0.0, 1.0]),
        DiscreteDistribution((2,), [1.0, 0.0]),
    ))
    for variant in PLAIN:
        res = assert_matches_lp(inputs, variant)
        assert res.degenerate
        assert res.global_error == math.inf
        assert res.local_error == math.inf
        assert res.p_tilde is None
        assert_glued_marginals(res, inputs)


def test_all_zero_cause_row():
    base = random_inputs(3, 3, seed=31)
    mass = base.joint.as_array().copy()
    mass[1] = 0.0
    inputs = EmpiricalInputs(
        DiscreteDistribution((3, 3), mass / mass.sum()), base.interventional
    )
    for variant in PLAIN:
        res = assert_matches_lp(inputs, variant)
        assert_glued_marginals(res, inputs)


def test_uniform_fallback_marginal():
    rng = np.random.default_rng(17)
    obs_x = rng.integers(0, 3, 300)
    obs_y = (obs_x + rng.integers(0, 2, 300)) % 3
    # no interventional rows for x = 2
    int_x = rng.integers(0, 2, 200)
    int_y = (int_x + rng.integers(0, 2, 200)) % 3
    inputs = build_inputs(obs_x, obs_y, int_x, int_y, 3, 3)
    assert inputs.fallback_used == (False, False, True)
    assert inputs.interventional[2] == DiscreteDistribution.uniform((3,))
    for variant in PLAIN:
        res = assert_matches_lp(inputs, variant)
        assert_glued_marginals(res, inputs)


def test_exact_fit():
    # every observed cell is covered by its intervention: s = 1
    joint = DiscreteDistribution((2, 3), [0.1, 0.2, 0.0, 0.3, 0.1, 0.3])
    inputs = EmpiricalInputs(joint, (
        DiscreteDistribution((3,), [0.3, 0.5, 0.2]),
        DiscreteDistribution((3,), [0.4, 0.2, 0.4]),
    ))
    for variant in PLAIN:
        res = assert_matches_lp(inputs, variant)
        assert res.s_value == pytest.approx(1.0, abs=TOL)
        assert res.global_error == pytest.approx(0.0, abs=TOL)
        assert res.local_error == pytest.approx(0.0, abs=TOL)
        assert_glued_marginals(res, inputs)


@settings(max_examples=40, deadline=None)
@given(
    b_cause=st.integers(2, 4),
    b_effect=st.integers(2, 4),
    concentration=st.sampled_from([0.1, 0.5, 1.0, 5.0]),
    seed=st.integers(0, 2**32 - 1),
    variant=st.sampled_from(PLAIN),
)
# draws where the LP vertex's errors are off by more than TOL: its local
# error in the first two, its global error in the last two
@example(b_cause=2, b_effect=4, concentration=0.1, seed=962,
         variant=ModelVariant.X_TO_Y)
@example(b_cause=2, b_effect=2, concentration=0.1, seed=1061,
         variant=ModelVariant.X_TO_Y)
@example(b_cause=3, b_effect=4, concentration=0.1, seed=3435,
         variant=ModelVariant.X_TO_Y)
@example(b_cause=2, b_effect=2, concentration=0.1, seed=51341,
         variant=ModelVariant.X_TO_Y)
def test_closed_form_equals_lp_on_dirichlet_inputs(
    b_cause, b_effect, concentration, seed, variant
):
    rng = np.random.default_rng(seed)
    alpha = np.full(b_cause * b_effect, concentration)
    joint = DiscreteDistribution((b_cause, b_effect), rng.dirichlet(alpha))
    marginals = tuple(
        DiscreteDistribution((b_effect,), rng.dirichlet(alpha[:b_effect]))
        for _ in range(b_cause)
    )
    inputs = EmpiricalInputs(joint, marginals)
    res = assert_matches_lp(inputs, variant)
    assert_glued_marginals(res, inputs)
