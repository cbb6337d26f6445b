"""The closed-form projection of the plain models against the LP oracle.

``approximate`` projects ``x_to_y``/``y_to_x`` by maximal coupling; the dense
simplex over the embedded space, which every other variant still uses, is the
reference here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
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
    kl_divergence,
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


def lp_projection(inputs, spec):
    """(s, global, local) of the LP optimum, or None when degenerate."""
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
    tilde = DiscreteDistribution(
        support.shape, np.where(support.member_flags, p.mass, 0.0) / s
    )
    local = kl_divergence(marginalize(tilde, (0, 1)), marginalize(p, (0, 1)))
    return s, -math.log(s), local


def assert_matches_lp(inputs, variant):
    spec = plain_spec(variant, inputs.b_cause, inputs.b_effect)
    res = approximate(inputs, spec)
    ref = lp_projection(inputs, spec)
    if ref is None:
        assert res.degenerate
        assert res.s_value < 1e-12
        return res
    s, glob, local = ref
    assert not res.degenerate
    assert abs(res.s_value - s) <= TOL
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
