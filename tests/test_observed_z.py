"""The observed-z pair LP against LPs over the whole embedded space.

``approximate`` projects ``z_confounder``, ``z_chain`` and ``z_collider`` by
a per-cell LP over the two copies that each cell's predicate reads. The
references solve the LP over the whole embedded space: the package's dense
simplex where every range is 2, and HiGHS wherever a range is 3 (the dense
simplex takes up to a second per call there). Support mass and global error
must match to ``TOL``. The local error is not compared: the optimum is often
a face, and the local error differs between its vertices.

Random inputs are flat Dirichlet draws, or empirical frequencies: counts of
1000 rows for the joint and 333 per copy, drawn from Dirichlet
probabilities. Raw Dirichlet draws with concentration 0.1 put masses down to
1e-19 on cells, below every LP tolerance; there the references disagree
with each other by up to 1e-7.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalapprox import (
    CausalModelSpec,
    DiscreteDistribution,
    ModelVariant,
    TrivariateInputs,
    approximate,
    build_support,
    model_space,
)
from causalapprox.approximation import DEGENERATE_MASS, _lp_optimum
from oracles import highs_support_mass

TOL = 1e-12
OBSERVED_Z = [ModelVariant.Z_CONFOUNDER, ModelVariant.Z_CHAIN,
              ModelVariant.Z_COLLIDER]
SIZES = list(itertools.product((2, 3), repeat=3))


def random_trivariate(spec, rng, concentration=1.0, rows=None):
    """Dirichlet inputs; with ``rows``, frequencies of that many draws (a
    third as many per copy)."""
    def draw(n, n_rows):
        p = rng.dirichlet(np.full(n, concentration))
        if n_rows is None:
            return p
        return rng.multinomial(n_rows, p) / n_rows

    sizes = (spec.b_x, spec.b_y, spec.b_z)
    joint = DiscreteDistribution(sizes, draw(math.prod(sizes), rows))
    copy_rows = None if rows is None else rows // 3
    return TrivariateInputs(joint, tuple(
        DiscreteDistribution((copy.size,), draw(copy.size, copy_rows))
        for copy in model_space(spec).copies
    ))


def reference_support_mass(inputs, spec):
    if (spec.b_x, spec.b_y, spec.b_z) == (2, 2, 2):
        support = build_support(spec)
        p = _lp_optimum(support, inputs.joint, inputs.copy_marginals)
        return float(support.member_flags.astype(float) @ p.mass)
    return highs_support_mass(spec, inputs.joint, inputs.copy_marginals)


def assert_glued_feasible(res, inputs):
    """The embedded optimum is nonnegative and meets the embedding's
    constraints: the observed joint and every copy marginal."""
    grid = res.p_hat.as_array()
    assert grid.min() >= 0.0
    observed = grid.sum(axis=tuple(range(3, grid.ndim)))
    assert np.max(np.abs(observed - inputs.joint.as_array())) <= TOL
    for k, marg in enumerate(inputs.copy_marginals):
        others = tuple(a for a in range(grid.ndim) if a != 3 + k)
        assert np.max(np.abs(grid.sum(axis=others) - marg.mass)) <= TOL


def assert_matches_reference(inputs, spec):
    res = approximate(inputs, spec)
    assert_glued_feasible(res, inputs)
    s = reference_support_mass(inputs, spec)
    if s < DEGENERATE_MASS:
        assert res.degenerate
        assert res.global_error == math.inf and res.local_error == math.inf
        assert res.p_tilde is None
        return res
    assert not res.degenerate
    assert abs(res.s_value - s) <= TOL
    assert abs(res.global_error - max(0.0, -math.log(s))) <= TOL
    assert 0.0 <= res.local_error <= res.global_error + TOL
    return res


@pytest.mark.parametrize("variant", OBSERVED_Z, ids=lambda v: v.value)
@pytest.mark.parametrize("sizes", SIZES, ids=lambda s: "x".join(map(str, s)))
def test_matches_full_lp(variant, sizes):
    spec = CausalModelSpec(variant, *sizes)
    rng = np.random.default_rng([*sizes, 7])
    assert_matches_reference(random_trivariate(spec, rng), spec)
    assert_matches_reference(
        random_trivariate(spec, rng, concentration=0.2, rows=1000), spec
    )


@pytest.mark.parametrize("variant", OBSERVED_Z, ids=lambda v: v.value)
def test_zero_support_mass_is_degenerate(variant):
    # all mass on the cell x = y = z = 0; of the two copies it reads, the
    # first agrees with it and the second does not, which is off the support
    # for every structure
    spec = CausalModelSpec(variant, 2, 2, 2)
    second = 1 if variant is ModelVariant.Z_CONFOUNDER else spec.b_z
    marginals = [DiscreteDistribution.uniform((2,))] * 4
    marginals[0] = DiscreteDistribution.point_mass((2,), (0,))
    marginals[second] = DiscreteDistribution.point_mass((2,), (1,))
    joint = DiscreteDistribution.point_mass((2, 2, 2), (0, 0, 0))
    res = assert_matches_reference(
        TrivariateInputs(joint, tuple(marginals)), spec
    )
    assert res.degenerate
    assert res.s_value == 0.0


@pytest.mark.parametrize("variant", OBSERVED_Z, ids=lambda v: v.value)
def test_observed_conditionals_fit_exactly(variant):
    # copies equal to the observed conditionals P(measured | intervened = v)
    # make every cell read its own values: support mass 1
    spec = CausalModelSpec(variant, 3, 3, 3)
    rng = np.random.default_rng(11)
    joint = DiscreteDistribution((3, 3, 3), rng.dirichlet(np.ones(27)))
    p = joint.as_array()
    axis = {"x": 0, "y": 1, "z": 2}
    marginals = []
    for copy in model_space(spec).copies:
        at_value = np.take(p, copy.value, axis=axis[copy.intervened])
        kept = [name for name in "xyz" if name != copy.intervened]
        summed = tuple(i for i, name in enumerate(kept) if name != copy.measures)
        cond = at_value.sum(axis=summed)
        marginals.append(DiscreteDistribution((3,), cond / cond.sum()))
    inputs = TrivariateInputs(joint, tuple(marginals))
    res = approximate(inputs, spec)
    assert_glued_feasible(res, inputs)
    assert res.s_value == pytest.approx(1.0, abs=TOL)
    assert res.global_error <= TOL
    assert 0.0 <= res.local_error <= TOL


@pytest.mark.parametrize("variant", OBSERVED_Z, ids=lambda v: v.value)
def test_one_point_copy_marginal(variant):
    spec = CausalModelSpec(variant, 3, 2, 3)
    base = random_trivariate(spec, np.random.default_rng(12))
    marginals = list(base.copy_marginals)
    marginals[1] = DiscreteDistribution.point_mass(
        (len(marginals[1].mass),), (1,))
    assert_matches_reference(TrivariateInputs(base.joint, tuple(marginals)),
                             spec)


@pytest.mark.parametrize("variant", OBSERVED_Z, ids=lambda v: v.value)
def test_empty_z_slice(variant):
    # no observed row has z = 1: the copies under do(z = 1) are read by
    # empty cells only
    spec = CausalModelSpec(variant, 3, 2, 3)
    base = random_trivariate(spec, np.random.default_rng(13))
    mass = base.joint.as_array().copy()
    mass[:, :, 1] = 0.0
    joint = DiscreteDistribution(mass.shape, mass.reshape(-1) / mass.sum())
    assert_matches_reference(TrivariateInputs(joint, base.copy_marginals),
                             spec)


@settings(max_examples=30, deadline=None)
@given(
    variant=st.sampled_from(OBSERVED_Z),
    sizes=st.sampled_from(SIZES),
    concentration=st.floats(0.1, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_matches_full_lp_on_dirichlet_frequencies(
    variant, sizes, concentration, seed
):
    spec = CausalModelSpec(variant, *sizes)
    rng = np.random.default_rng(seed)
    inputs = random_trivariate(spec, rng, concentration, rows=1000)
    assert_matches_reference(inputs, spec)
