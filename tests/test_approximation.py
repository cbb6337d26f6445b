import math

import numpy as np
import pytest

from causalapprox import (
    CausalModelSpec,
    DiscreteDistribution,
    EmpiricalInputs,
    InsufficientDataError,
    ModelVariant,
    TrivariateInputs,
    UnsupportedModelError,
    approximate,
    create_constraint_matrix,
    get_constraint_distribution,
    kl_divergence,
    marginalize,
    model_space,
    shift_for_time_lag,
)
from causalapprox.discovery import DiscoveryConfig, discover
from oracles import highs_support_mass, random_inputs

DELTA0 = DiscreteDistribution((2,), [1.0, 0.0])
DELTA1 = DiscreteDistribution((2,), [0.0, 1.0])
UNIFORM2 = DiscreteDistribution.uniform((2,))


def uniform_inputs():
    return EmpiricalInputs(
        DiscreteDistribution.uniform((2, 2)), (UNIFORM2, UNIFORM2)
    )


def deterministic_equal_inputs():
    joint = DiscreteDistribution((2, 2), [0.5, 0.0, 0.0, 0.5])
    return EmpiricalInputs(joint, (DELTA0, DELTA1))


class TestConstraintMatrix:
    def test_binary_dimensions_and_ones_row(self):
        a = create_constraint_matrix(2, 2)
        assert a.shape == (6, 16)
        assert np.array_equal(a[0], np.ones(16))

    def test_three_by_three_dimensions(self):
        a = create_constraint_matrix(3, 3)
        assert a.shape == (15, 243)

    def test_row_support_sizes(self):
        a = create_constraint_matrix(2, 2)
        # fixing one of the four binary axes keeps half of the 16 cells,
        # fixing the first two keeps a quarter
        for row in a[1:3]:
            assert row.sum() == 8
        for row in a[3:]:
            assert row.sum() == 4

    def test_entries_are_binary(self):
        a = create_constraint_matrix(3, 2)
        assert set(np.unique(a)) <= {0.0, 1.0}

    def test_range_bounds(self):
        with pytest.raises(UnsupportedModelError):
            create_constraint_matrix(5, 2)
        with pytest.raises(UnsupportedModelError):
            create_constraint_matrix(2, 1)


class TestConstraintDistribution:
    def test_uniform(self):
        c = get_constraint_distribution(uniform_inputs())
        assert np.allclose(c, [1.0, 0.5, 0.5, 0.25, 0.25, 0.25])

    def test_deterministic_opposite(self):
        joint = DiscreteDistribution((2, 2), [0.0, 0.0, 0.0, 1.0])
        inputs = EmpiricalInputs(joint, (DELTA0, DELTA1))
        c = get_constraint_distribution(inputs)
        assert np.allclose(c, [1.0, 1.0, 0.0, 0.0, 0.0, 0.0])

    def test_known_feasible_point_satisfies_system(self):
        a = create_constraint_matrix(2, 2)
        c = get_constraint_distribution(uniform_inputs())
        # quarter mass on 0000, 0111, 1000, 1111
        p = np.zeros(16)
        p[[0, 7, 8, 15]] = 0.25
        assert np.allclose(a @ p, c, atol=1e-12)


class TestApproximate:
    def test_uniform_is_error_free(self):
        res = approximate(uniform_inputs(), CausalModelSpec(ModelVariant.X_TO_Y, 2, 2))
        assert res.s_value == pytest.approx(1.0, abs=1e-9)
        assert res.global_error == pytest.approx(0.0, abs=1e-9)
        assert res.local_error == pytest.approx(0.0, abs=1e-9)
        assert not res.degenerate

    def test_deterministic_equal_fits_exactly(self):
        res = approximate(
            deterministic_equal_inputs(), CausalModelSpec(ModelVariant.X_TO_Y, 2, 2)
        )
        assert res.s_value == pytest.approx(1.0, abs=1e-9)
        # the unique feasible point: half mass each on 0001 and 1101
        assert res.p_hat.mass[1] == pytest.approx(0.5, abs=1e-9)
        assert res.p_hat.mass[13] == pytest.approx(0.5, abs=1e-9)

    def test_deterministic_equal_breaks_decreasing_variant(self):
        res = approximate(
            deterministic_equal_inputs(),
            CausalModelSpec(ModelVariant.X_TO_Y_MONO_DEC, 2, 2),
        )
        # both feasible cells carry the increasing contrast, so the
        # decreasing variant gets no mass at all
        assert res.degenerate
        assert res.global_error == math.inf
        assert res.local_error == math.inf
        assert res.p_tilde is None

    def test_projection_identity_and_dpi(self):
        for b_c, b_e in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            for seed in range(10):
                inputs = random_inputs(b_c, b_e, seed=(b_c, b_e, seed))
                res = approximate(inputs, CausalModelSpec(ModelVariant.X_TO_Y, b_c, b_e))
                if res.degenerate:
                    continue
                d = kl_divergence(res.p_tilde, res.p_hat)
                assert abs(d + math.log(res.s_value)) <= 1e-9
                assert res.local_error <= res.global_error + 1e-9

    def test_feasibility_of_optimum(self):
        inputs = random_inputs(3, 2, seed=9)
        res = approximate(inputs, CausalModelSpec(ModelVariant.X_TO_Y, 3, 2))
        xy = marginalize(res.p_hat, (0, 1))
        assert np.allclose(xy.mass, inputs.joint.mass, atol=1e-7)
        for a, marg in enumerate(inputs.interventional):
            got = marginalize(res.p_hat, (2 + a,))
            assert np.allclose(got.mass, marg.mass, atol=1e-7)

    def test_monotone_restriction_never_beats_plain(self):
        for seed in range(10):
            inputs = random_inputs(2, 2, seed=(5, seed))
            plain = approximate(inputs, CausalModelSpec(ModelVariant.X_TO_Y, 2, 2))
            inc = approximate(
                inputs, CausalModelSpec(ModelVariant.X_TO_Y_MONO_INC, 2, 2)
            )
            dec = approximate(
                inputs, CausalModelSpec(ModelVariant.X_TO_Y_MONO_DEC, 2, 2)
            )
            assert plain.s_value >= max(inc.s_value, dec.s_value) - 1e-9

    def test_anm_pair_dominates_plain(self):
        for seed in range(8):
            inputs = random_inputs(2, 2, seed=(6, seed))
            plain = approximate(inputs, CausalModelSpec(ModelVariant.X_TO_Y, 2, 2))
            s1 = approximate(inputs, CausalModelSpec(ModelVariant.ANM_S1, 2, 2))
            s2 = approximate(inputs, CausalModelSpec(ModelVariant.ANM_S2, 2, 2))
            # S1 + S2 doubles the plain indicator, so the better of the two
            # reweighted optima is at least the plain optimum
            assert max(s1.s_value, s2.s_value) >= plain.s_value - 1e-9

    def test_error_mode_selection(self):
        inputs = random_inputs(2, 2, seed=44)
        res_local = approximate(
            inputs, CausalModelSpec(ModelVariant.X_TO_Y_MONO_INC, 2, 2), "local"
        )
        res_global = approximate(
            inputs, CausalModelSpec(ModelVariant.X_TO_Y_MONO_INC, 2, 2), "global"
        )
        assert res_local.error == res_local.local_error
        assert res_global.error == res_global.global_error
        with pytest.raises(ValueError):
            approximate(inputs, CausalModelSpec(ModelVariant.X_TO_Y, 2, 2), "median")

    def test_input_validation(self):
        joint = DiscreteDistribution.uniform((2, 2))
        with pytest.raises(ValueError):
            EmpiricalInputs(joint, (UNIFORM2,))
        with pytest.raises(ValueError):
            EmpiricalInputs(joint, (UNIFORM2, DiscreteDistribution.uniform((3,))))
        mismatched = EmpiricalInputs(
            DiscreteDistribution.uniform((3, 2)),
            tuple(DiscreteDistribution.uniform((2,)) for _ in range(3)),
        )
        with pytest.raises(ValueError):
            approximate(mismatched, CausalModelSpec(ModelVariant.X_TO_Y, 2, 2))


class TestTrivariateApproximate:
    def test_consistent_confounder_data_fits(self):
        # z fans out to x = z and y = z; interventions pin both copies
        joint = np.zeros((2, 2, 2))
        joint[0, 0, 0] = 0.5
        joint[1, 1, 1] = 0.5
        spec = CausalModelSpec(ModelVariant.Z_CONFOUNDER, 2, 2, 2)
        delta = {0: DELTA0, 1: DELTA1}
        inputs = TrivariateInputs(
            DiscreteDistribution((2, 2, 2), joint.reshape(-1)),
            (delta[0], delta[0], delta[1], delta[1]),
        )
        res = approximate(inputs, spec)
        assert res.s_value == pytest.approx(1.0, abs=1e-9)
        assert res.global_error == pytest.approx(0.0, abs=1e-9)

    def test_contradictory_copies_are_penalized(self):
        joint = np.zeros((2, 2, 2))
        joint[0, 0, 0] = 0.5
        joint[1, 1, 1] = 0.5
        spec = CausalModelSpec(ModelVariant.Z_CONFOUNDER, 2, 2, 2)
        # copies claim x responds to z inverted: mass under z=0 must leave
        # the support
        inputs = TrivariateInputs(
            DiscreteDistribution((2, 2, 2), joint.reshape(-1)),
            (DELTA1, DELTA0, DELTA0, DELTA1),
        )
        res = approximate(inputs, spec)
        assert res.global_error > 0.1

    @pytest.mark.parametrize(
        "variant", [v for v in ModelVariant if v.is_trivariate],
        ids=lambda v: v.value,
    )
    @pytest.mark.parametrize("copies", [
        (DELTA0, DELTA0, DELTA1, DELTA1),  # as in the consistent case
        (DELTA1, DELTA0, DELTA0, DELTA1),  # as in the contradictory case
    ], ids=["consistent", "contradictory"])
    def test_two_cases_match_highs(self, variant, copies):
        joint = np.zeros((2, 2, 2))
        joint[0, 0, 0] = 0.5
        joint[1, 1, 1] = 0.5
        spec = CausalModelSpec(variant, 2, 2, 2)
        if "z" not in model_space(spec).observed_names:
            joint = joint.sum(axis=2)
        observed = DiscreteDistribution(joint.shape, joint.reshape(-1))
        res = approximate(TrivariateInputs(observed, copies), spec)
        s = highs_support_mass(spec, observed, copies)
        if s < 1e-12:
            assert res.degenerate
            return
        assert abs(res.s_value - s) <= 1e-12
        assert abs(res.global_error - max(0.0, -math.log(s))) <= 1e-12

    def test_global_error_clamped_at_zero(self):
        # an exact fit whose support mass rounds to 1.0000000000000002: the
        # global error reads 0.0, not -2.2e-16
        joint = DiscreteDistribution(
            (3, 3), np.array([78, 103, 60, 81, 13, 320, 1, 280, 64]) / 1000
        )
        counts = [[59, 160, 114], [29, 214, 90], [31, 151, 151],
                  [19, 97, 217], [190, 138, 5], [48, 145, 140]]
        copies = tuple(
            DiscreteDistribution((3,), np.array(c) / 333) for c in counts
        )
        spec = CausalModelSpec(ModelVariant.Z_CONFOUNDER_HIDDEN, 3, 3, 3)
        res = approximate(TrivariateInputs(joint, copies), spec)
        assert res.s_value > 1.0
        assert res.global_error == 0.0
        assert math.copysign(1.0, res.global_error) == 1.0


class TestTimeLag:
    def test_zero_lag_is_identity(self):
        x, y = shift_for_time_lag([1, 2, 3], [4, 5, 6], 0)
        assert x.tolist() == [1, 2, 3] and y.tolist() == [4, 5, 6]

    def test_definition(self):
        x, y = shift_for_time_lag([0, 1, 2], [10, 11, 12], 1)
        assert x.tolist() == [0, 1] and y.tolist() == [11, 12]

    def test_lag_too_large(self):
        with pytest.raises(InsufficientDataError):
            shift_for_time_lag([1, 2], [3, 4], 2)
        with pytest.raises(ValueError):
            shift_for_time_lag([1, 2], [3, 4], -1)

    def test_lag_scan_recovers_shift(self):
        # y lags the cause by two steps; a sticky chain keeps wrongly-lagged
        # pairs correlated, so only the true lag reconciles the observational
        # block with the intervention blocks
        rng = np.random.default_rng(55)
        n_obs, n_blk = 600, 200
        x = np.empty(n_obs + 3 * n_blk, dtype=int)
        x[0] = 0
        for t in range(1, n_obs):
            x[t] = x[t - 1] if rng.random() < 0.7 else rng.integers(0, 3)
        for b in range(3):
            x[n_obs + b * n_blk:n_obs + (b + 1) * n_blk] = b
        f = np.array([0, 0, 1])
        y = np.empty_like(x)
        y[2:] = f[x[:-2]]
        y[:2] = f[x[:2]]
        errors = {}
        for lag in range(5):
            xs, ys = shift_for_time_lag(x, y, lag)
            verdict = discover(xs, ys, 3, 3, DiscoveryConfig(error_mode="global"))
            errors[lag] = verdict.d_xy
        assert min(errors, key=errors.get) == 2
        assert errors[2] <= 1e-6
        assert all(errors[lag] > 0.05 for lag in (0, 1, 3, 4))
