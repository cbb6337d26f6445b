import math

import numpy as np
import pytest

from causalapprox import (
    Decision,
    DiscoveryConfig,
    DiscreteDistribution,
    EmpiricalInputs,
    InsufficientDataError,
    PreprocessMode,
    ScmConfig,
    build_inputs,
    discover,
    monotone_preferred,
    preprocess,
    sample_scm,
    split_by_environment,
)
from causalapprox.discovery import ensure_categories, verdict_with_swapped_columns
from oracles import noisy_cycle_columns


def deterministic_skewed_data(seed=5):
    """Noiseless non-invertible mechanism with a skewed cause distribution:
    the forward direction fits exactly, the reverse direction cannot."""
    cfg = ScmConfig(
        b_x=3, b_y=3, noise_kind="additive", f=(0, 0, 1),
        p_x=(0.7, 0.2, 0.1), p_noise=(1.0, 0.0, 0.0),
        n_obs=999, seed=seed,
    )
    return sample_scm(cfg)


class TestPreprocess:
    def test_middle_split_keeps_order(self):
        x = np.arange(10)
        y = np.arange(10) * 10
        split = preprocess(x, y, PreprocessMode.NONE)
        assert split.obs_x.tolist() == [0, 1, 2, 3, 4]
        assert split.int_x.tolist() == [5, 6, 7, 8, 9]
        assert split.obs_y.tolist() == [0, 10, 20, 30, 40]

    def test_odd_count_extra_row_goes_observational(self):
        split = preprocess(np.arange(7), np.arange(7), PreprocessMode.NONE)
        assert split.obs_x.size == 4 and split.int_x.size == 3

    def test_split_mode_accounting(self):
        rng = np.random.default_rng(17)
        x = np.repeat([0, 1], 50)
        y = rng.integers(0, 2, 100)
        split = preprocess(x, y, PreprocessMode.SPLIT, "x", np.random.default_rng(3))
        # per value: half observational, half interventional, disjoint draws
        assert split.obs_x.size == 50 and split.int_x.size == 50
        for v in (0, 1):
            assert np.sum(split.obs_x == v) == 25
            assert np.sum(split.int_x == v) == 25
        # multiset accounting: obs + int recover the original rows exactly
        combined = sorted(
            zip(np.concatenate([split.obs_x, split.int_x]),
                np.concatenate([split.obs_y, split.int_y]))
        )
        assert combined == sorted(zip(x, y))

    def test_split_and_balance_lifts_small_subsets(self):
        rng = np.random.default_rng(18)
        x = np.concatenate([np.zeros(90, int), np.ones(10, int)])
        y = rng.integers(0, 2, 100)
        split = preprocess(
            x, y, PreprocessMode.SPLIT_AND_BALANCE, "x", np.random.default_rng(4)
        )
        assert np.sum(split.int_x == 0) == np.sum(split.int_x == 1) == 45

    def test_empty_rows(self):
        with pytest.raises(InsufficientDataError):
            preprocess(np.array([]), np.array([]), PreprocessMode.NONE)

    def test_seeded_split_is_deterministic(self):
        rng = np.random.default_rng(19)
        x = rng.integers(0, 2, 60)
        y = rng.integers(0, 2, 60)
        a = preprocess(x, y, PreprocessMode.SPLIT, "x", np.random.default_rng(9))
        b = preprocess(x, y, PreprocessMode.SPLIT, "x", np.random.default_rng(9))
        assert np.array_equal(a.obs_x, b.obs_x)
        assert np.array_equal(a.int_y, b.int_y)


class TestBuildInputs:
    def test_missing_intervention_value_falls_back_to_uniform(self):
        inputs = build_inputs([0, 1], [0, 1], [0, 0], [0, 0], 2, 2)
        assert inputs.fallback_used == (False, True)
        assert np.allclose(inputs.interventional[1].mass, [0.5, 0.5])

    def test_keying_by_cause_category(self):
        inputs = build_inputs([0, 1], [0, 1], [0, 0, 1], [1, 1, 0], 2, 2)
        assert np.allclose(inputs.interventional[0].mass, [0.0, 1.0])
        assert np.allclose(inputs.interventional[1].mass, [1.0, 0.0])


class TestEnsureCategories:
    def test_passthrough_for_in_range_integers(self):
        out = ensure_categories(np.array([0, 1, 1, 0]), 2)
        assert out.tolist() == [0, 1, 1, 0]

    def test_continuous_values_are_binned(self):
        out = ensure_categories(np.array([0.1, 0.9, 2.5, 3.7]), 2)
        assert out.tolist() == [0, 0, 1, 1]

    def test_out_of_range_integers_are_rebinned(self):
        out = ensure_categories(np.array([10, 20, 30, 40]), 2)
        assert out.tolist() == [0, 0, 1, 1]


class TestMonotonePreferred:
    def test_noiseless_equal_data(self):
        joint = DiscreteDistribution((2, 2), [0.5, 0.0, 0.0, 0.5])
        delta0 = DiscreteDistribution((2,), [1.0, 0.0])
        delta1 = DiscreteDistribution((2,), [0.0, 1.0])
        assert monotone_preferred(EmpiricalInputs(joint, (delta0, delta1)))

    def test_uniform_data(self):
        uniform = EmpiricalInputs(
            DiscreteDistribution.uniform((2, 2)),
            (DiscreteDistribution.uniform((2,)), DiscreteDistribution.uniform((2,))),
        )
        assert monotone_preferred(uniform)

    def test_data_forcing_both_contrasts(self):
        # both interventional marginals put 0.7 on the effect value 1 while
        # the joint is uniform: the unrestricted model still fits exactly,
        # but each monotone variant must push mass off its support
        joint = DiscreteDistribution.uniform((2, 2))
        skew = DiscreteDistribution((2,), [0.3, 0.7])
        inputs = EmpiricalInputs(joint, (skew, skew))
        assert not monotone_preferred(inputs)


class TestDiscover:
    def test_deterministic_forward_mechanism(self):
        data = deterministic_skewed_data()
        verdict = discover(data.x, data.y, 3, 3)
        assert verdict.decision is Decision.X_TO_Y
        assert verdict.d_xy <= 1e-9
        assert verdict.d_yx > verdict.epsilon

    def test_swapped_columns_mirror_exactly(self):
        data = deterministic_skewed_data()
        forward = discover(data.x, data.y, 3, 3)
        backward = discover(data.y, data.x, 3, 3)
        assert backward.decision is Decision.Y_TO_X
        assert backward.d_xy == forward.d_yx
        assert backward.d_yx == forward.d_xy
        assert verdict_with_swapped_columns(forward) == backward

    def test_exactly_uniform_independent_data(self):
        # balanced cell counts in both halves: everything ties exactly
        pattern = [(a, b) for a in range(2) for b in range(2)]
        rows = np.array(pattern * 25 + pattern * 25)
        verdict = discover(rows[:, 0], rows[:, 1], 2, 2)
        assert verdict.decision is Decision.NO_DECISION
        assert verdict.d_xy == verdict.d_yx

    def test_antisymmetry_on_random_datasets(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = 200
            x = rng.integers(0, 2, n)
            y = (x + rng.integers(0, 2, n)) % 2
            forward = discover(x, y, 2, 2)
            backward = discover(y, x, 2, 2)
            assert verdict_with_swapped_columns(forward) == backward

    def test_epsilon_growth_never_creates_general_path_decisions(self):
        rng = np.random.default_rng(24)
        for _ in range(5):
            x = rng.integers(0, 3, 300)
            y = (x + rng.integers(0, 2, 300)) % 3
            previous = None
            for eps in (1e-6, 1e-4, 1e-2, 1.0):
                verdict = discover(x, y, 3, 3, DiscoveryConfig(epsilon=eps))
                if previous is Decision.NO_DECISION:
                    assert verdict.decision is Decision.NO_DECISION
                previous = verdict.decision

    def test_row_permutation_within_halves_is_irrelevant(self):
        rng = np.random.default_rng(25)
        x = rng.integers(0, 2, 120)
        y = x ^ (rng.random(120) < 0.2).astype(int)
        base = discover(x, y, 2, 2)
        half = 60
        perm_obs = rng.permutation(half)
        perm_int = rng.permutation(half) + half
        order = np.concatenate([perm_obs, perm_int])
        shuffled = discover(x[order], y[order], 2, 2)
        assert shuffled == base

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            discover([0, 1], [0, 1], 2, 2)

    def test_degenerate_both_directions(self):
        # observational columns disagree with every interventional response
        x = np.array([0, 1] * 20 + [0] * 20 + [1] * 20)
        y = np.array([1, 0] * 20 + [0] * 20 + [1] * 20)
        env = ["obs"] * 40 + ["do:0"] * 20 + ["do:1"] * 20
        verdict = discover(x, y, 2, 2, env=env)
        assert verdict.decision in (Decision.NO_DECISION, Decision.X_TO_Y,
                                    Decision.Y_TO_X)

    @pytest.mark.parametrize("mode", list(PreprocessMode), ids=lambda m: m.value)
    def test_errors_never_negative(self, mode):
        # near-exact fits round the divergence to a few ulps around zero
        x, y = noisy_cycle_columns()
        verdict = discover(x, y, 3, 3, DiscoveryConfig(preprocess_mode=mode))
        assert verdict.d_xy >= 0.0 and verdict.d_yx >= 0.0

    def test_continuous_inputs_are_discretized(self):
        rng = np.random.default_rng(26)
        x = rng.normal(size=500)
        y = x + 0.1 * rng.normal(size=500)
        verdict = discover(x, y, 3, 3)
        assert isinstance(verdict.decision, Decision)


class TestEnvironmentSplit:
    def test_obs_and_do_rows(self):
        x = np.array([0, 1, 0, 1])
        y = np.array([0, 1, 1, 0])
        env = ["obs", "obs", "do:0", "do:1"]
        split = split_by_environment(x, y, env)
        assert split.obs_x.tolist() == [0, 1]
        assert split.int_x.tolist() == [0, 1]
        assert split.int_y.tolist() == [1, 0]

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            split_by_environment([0], [0], ["observe"])

    def test_missing_block(self):
        with pytest.raises(InsufficientDataError):
            split_by_environment([0, 1], [0, 1], ["obs", "obs"])

    def test_explicit_env_matches_positional_split(self):
        data = deterministic_skewed_data()
        by_env = discover(data.x, data.y, 3, 3, env=data.env)
        positional = discover(data.x, data.y, 3, 3)
        assert by_env == positional
