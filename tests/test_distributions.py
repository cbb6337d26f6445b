import itertools
import math

import numpy as np
import pytest

from causalapprox import (
    DiscreteDistribution,
    InsufficientDataError,
    MarginalSelector,
    Shape,
    discretize_equal_frequency,
    empirical_joint,
    empirical_marginal,
    kl_divergence,
    marginalize,
)

# 0.5*ln(0.5/0.25) + 0.5*ln(0.5/0.75), evaluated at 30 digits with mpmath
KL_HALF_VS_QUARTER = 0.14384103622589045


def random_distribution(shape, seed):
    rng = np.random.default_rng(seed)
    return DiscreteDistribution(shape, rng.dirichlet(np.ones(Shape(shape).n_cells)))


def marginal_by_loops(dist, axes):
    """Independent oracle: brute-force nested summation over every cell."""
    sizes = dist.shape.axis_sizes
    out_sizes = tuple(sizes[a] for a in axes)
    out = np.zeros(out_sizes)
    for cell in itertools.product(*(range(s) for s in sizes)):
        key = tuple(cell[a] for a in axes)
        out[key] += dist.prob(cell)
    return out


class TestShape:
    def test_cell_count(self):
        assert Shape((2, 2, 2, 2)).n_cells == 16
        assert Shape((3, 4)).n_cells == 12

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            Shape(())
        with pytest.raises(ValueError):
            Shape((2, 0))

    def test_flat_index_matches_binary_reading(self):
        # pattern "0110" read as a base-2 number
        assert Shape((2, 2, 2, 2)).flat_index((0, 1, 1, 0)) == 6


class TestDiscreteDistribution:
    def test_renormalizes_small_drift(self):
        d = DiscreteDistribution((2,), [0.5 + 2e-7, 0.5])
        assert abs(d.mass.sum() - 1.0) <= 1e-9

    def test_rejects_large_drift(self):
        with pytest.raises(ValueError):
            DiscreteDistribution((2,), [0.6, 0.6])

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            DiscreteDistribution((2,), [1.1, -0.1])

    def test_clips_solver_scale_negatives(self):
        d = DiscreteDistribution((2,), [1.0, -1e-9])
        assert d.mass[1] == 0.0

    def test_mass_is_read_only(self):
        d = DiscreteDistribution.uniform((2, 2))
        with pytest.raises(ValueError):
            d.mass[0] = 1.0


class TestMarginalize:
    def test_uniform_stays_uniform(self):
        d = DiscreteDistribution.uniform((2, 2))
        m = marginalize(d, (0,))
        assert np.allclose(m.mass, [0.5, 0.5])

    def test_point_mass_pushforward(self):
        d = DiscreteDistribution.point_mass((2, 2, 2, 2), (0, 1, 1, 0))
        m = marginalize(d, (0, 1))
        assert m.prob((0, 1)) == 1.0

    def test_matches_nested_loop_oracle(self):
        d = random_distribution((3, 3, 3, 3, 3), seed=11)
        m = marginalize(d, (0, 1))
        assert np.allclose(m.as_array(), marginal_by_loops(d, (0, 1)), atol=1e-12)

    def test_identity_when_all_axes_kept(self):
        d = random_distribution((2, 3), seed=4)
        m = marginalize(d, (0, 1))
        assert np.allclose(m.mass, d.mass)

    def test_normalization_preserved(self):
        d = random_distribution((4, 3, 2), seed=5)
        for axes in [(0,), (1,), (2,), (0, 2)]:
            assert abs(marginalize(d, axes).mass.sum() - 1.0) <= 1e-9

    def test_nested_composition(self):
        d = random_distribution((3, 2, 4, 2), seed=6)
        # keeping (0, 2, 3) then axis 1 of the result == keeping axis 2
        two_step = marginalize(marginalize(d, (0, 2, 3)), (1,))
        one_step = marginalize(d, (2,))
        assert np.allclose(two_step.mass, one_step.mass, atol=1e-12)

    def test_invalid_selector(self):
        d = DiscreteDistribution.uniform((2, 2))
        with pytest.raises(ValueError):
            marginalize(d, (1, 0))
        with pytest.raises(ValueError):
            marginalize(d, (0, 5))
        with pytest.raises(ValueError):
            MarginalSelector(())


class TestKlDivergence:
    def test_zero_on_identity(self):
        d = random_distribution((2, 2, 2, 2), seed=7)
        assert kl_divergence(d, d) == 0.0

    def test_infinite_on_support_violation(self):
        p = DiscreteDistribution.point_mass((2,), (0,))
        q = DiscreteDistribution.point_mass((2,), (1,))
        assert kl_divergence(p, q) == math.inf

    def test_frozen_value(self):
        p = DiscreteDistribution((2,), [0.5, 0.5])
        q = DiscreteDistribution((2,), [0.25, 0.75])
        assert kl_divergence(p, q) == pytest.approx(KL_HALF_VS_QUARTER, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence(
                DiscreteDistribution.uniform((2,)), DiscreteDistribution.uniform((3,))
            )

    def test_against_naive_summation(self):
        rng = np.random.default_rng(8)
        shape = (3, 3, 3, 3, 3)
        n = Shape(shape).n_cells
        for _ in range(5):
            p = DiscreteDistribution(shape, rng.dirichlet(np.ones(n)))
            q = DiscreteDistribution(shape, rng.dirichlet(np.ones(n)))
            naive = sum(
                pv * math.log(pv / qv)
                for pv, qv in zip(p.mass, q.mass)
                if pv > 0
            )
            assert kl_divergence(p, q) == pytest.approx(naive, abs=1e-12)
            assert kl_divergence(p, q) >= 0.0

    def test_positive_when_different(self):
        p = DiscreteDistribution((2,), [0.9, 0.1])
        q = DiscreteDistribution((2,), [0.1, 0.9])
        assert kl_divergence(p, q) > 0.0


class TestEmpiricalJoint:
    def test_two_point_sample(self):
        d = empirical_joint([(0, 0), (1, 1)], 2, 2)
        assert np.allclose(d.mass, [0.5, 0.0, 0.0, 0.5])

    def test_repeated_row_is_point_mass(self):
        d = empirical_joint([(0, 1)] * 4, 2, 2)
        assert d.prob((0, 1)) == 1.0

    def test_binomial_concentration(self):
        rng = np.random.default_rng(12)
        rows = rng.integers(0, 2, size=(1000, 2))
        d = empirical_joint(rows, 2, 2)
        assert np.all(np.abs(d.mass - 0.25) < 0.08)

    def test_empty_input(self):
        with pytest.raises(InsufficientDataError):
            empirical_joint([], 2, 2)

    def test_out_of_range_category(self):
        with pytest.raises(ValueError):
            empirical_joint([(0, 2)], 2, 2)

    def test_smoothing(self):
        d = empirical_joint([(0, 0)], 2, 2, alpha=1.0)
        assert np.allclose(d.mass, [2 / 5, 1 / 5, 1 / 5, 1 / 5])

    def test_negative_smoothing_rejected(self):
        with pytest.raises(ValueError):
            empirical_joint([(0, 0)], 2, 2, alpha=-0.5)

    def test_symmetric_rows_unchanged_by_column_swap(self):
        rows = np.array([(0, 0), (1, 1), (0, 0)])
        assert empirical_joint(rows[:, ::-1], 2, 2) == empirical_joint(rows, 2, 2)

    def test_column_permutation_transposes_joint(self):
        rng = np.random.default_rng(21)
        rows = rng.integers(0, 3, size=(200, 2))
        original = empirical_joint(rows, 3, 3).as_array()
        swapped = empirical_joint(rows[:, ::-1], 3, 3).as_array()
        assert np.allclose(swapped, original.T)
        rows = np.column_stack([rows, rng.integers(0, 2, 200)])
        original = empirical_joint(rows, 3, 3, 2).as_array()
        permuted = empirical_joint(rows[:, [2, 0, 1]], 2, 3, 3).as_array()
        assert np.allclose(permuted, original.transpose(2, 0, 1))

    def test_three_columns_count_cells(self):
        rows = [(0, 1, 2), (0, 1, 2), (1, 0, 0), (1, 2, 1)]
        d = empirical_joint(rows, 2, 3, 3)
        assert d.shape.axis_sizes == (2, 3, 3)
        assert d.prob((0, 1, 2)) == 0.5
        assert d.prob((1, 0, 0)) == d.prob((1, 2, 1)) == 0.25
        with pytest.raises(ValueError):
            empirical_joint(rows, 2, 3, 2)  # z = 2 out of range

    def test_column_count_must_match_sizes(self):
        with pytest.raises(ValueError):
            empirical_joint([(0, 1, 0)], 2, 2)

    def test_marginal_helper(self):
        d = empirical_marginal([0, 0, 1, 1], 2)
        assert np.allclose(d.mass, [0.5, 0.5])
        with pytest.raises(InsufficientDataError):
            empirical_marginal([], 2)


class TestDiscretize:
    def test_median_split(self):
        res = discretize_equal_frequency([1, 2, 3, 4], 2)
        assert res.labels.tolist() == [0, 0, 1, 1]
        assert not res.degraded

    def test_constant_vector_degrades(self):
        res = discretize_equal_frequency([3.3, 3.3, 3.3], 2)
        assert res.labels.tolist() == [0, 0, 0]
        assert res.degraded

    def test_quantile_rank_oracle(self):
        rng = np.random.default_rng(13)
        values = rng.normal(size=1000)
        res = discretize_equal_frequency(values, 4)
        counts = np.bincount(res.labels, minlength=4)
        assert np.all(np.abs(counts - 250) <= 1)
        # independent oracle: label = quartile of the argsort rank
        order = np.argsort(values, kind="stable")
        ranks = np.empty(1000, dtype=int)
        ranks[order] = np.arange(1000)
        assert np.array_equal(res.labels, ranks * 4 // 1000)

    def test_monotone(self):
        rng = np.random.default_rng(14)
        values = rng.normal(size=300)
        labels = discretize_equal_frequency(values, 5).labels
        order = np.argsort(values)
        assert np.all(np.diff(labels[order]) >= 0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(15)
        values = rng.integers(0, 7, size=200).astype(float)  # plenty of ties
        base = discretize_equal_frequency(values, 3).labels
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(200)
            shuffled = discretize_equal_frequency(values[perm], 3).labels
            unshuffled = np.empty(200, dtype=int)
            unshuffled[perm] = shuffled
            assert np.array_equal(unshuffled, base)

    def test_fewer_distinct_than_bins(self):
        res = discretize_equal_frequency([1.0, 1.0, 2.0, 2.0], 4)
        assert res.degraded
        assert len(set(res.labels.tolist())) <= 2

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            discretize_equal_frequency([1.0, 2.0], 1)
        with pytest.raises(InsufficientDataError):
            discretize_equal_frequency([], 2)
        with pytest.raises(ValueError):
            discretize_equal_frequency([1.0, float("nan")], 2)
