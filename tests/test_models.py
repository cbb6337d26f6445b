import itertools

import numpy as np
import pytest

from causalapprox import (
    CausalModelSpec,
    ModelVariant,
    UnsupportedModelError,
    build_support,
    model_space,
)
from oracles import cause_effect_support_by_union, trivariate_zero_cells

# the eight binary patterns, read as base-2 numbers: 0000, 0001, 0110, 0111,
# 1000, 1010, 1101, 1111
BINARY_SUPPORT = {0, 1, 6, 7, 8, 10, 13, 15}


def spec(variant, b_x=2, b_y=2, b_z=None):
    return CausalModelSpec(variant, b_x, b_y, b_z)


class TestBivariateSupport:
    def test_binary_pattern_list(self):
        supp = build_support(spec(ModelVariant.X_TO_Y))
        assert set(supp.member_indices().tolist()) == BINARY_SUPPORT

    def test_monotone_increasing_removes_antitone_contrast(self):
        supp = build_support(spec(ModelVariant.X_TO_Y_MONO_INC))
        assert set(supp.member_indices().tolist()) == BINARY_SUPPORT - {6, 10}

    def test_monotone_decreasing_removes_monotone_contrast(self):
        supp = build_support(spec(ModelVariant.X_TO_Y_MONO_DEC))
        assert set(supp.member_indices().tolist()) == BINARY_SUPPORT - {1, 13}

    def test_three_by_three_member_count_and_predicate(self):
        supp = build_support(spec(ModelVariant.X_TO_Y, 3, 3))
        members = set(supp.member_indices().tolist())
        assert len(members) == 3 * 3**3
        # exhaustive check of the agreement rule on all 243 cells
        sizes = (3, 3, 3, 3, 3)
        for idx, cell in enumerate(itertools.product(*(range(3),) * 5)):
            x, y = cell[0], cell[1]
            expected = cell[2 + x] == y
            assert (idx in members) == expected

    def test_union_formula_oracle_all_ranges(self):
        for b_c, b_e in itertools.product(range(2, 6), repeat=2):
            supp = build_support(spec(ModelVariant.X_TO_Y, b_c, b_e))
            members = set(supp.member_indices().tolist())
            assert members == cause_effect_support_by_union(b_c, b_e)
            assert len(members) == b_c * b_e**b_c

    def test_monotone_supports_are_strict_subsets(self):
        plain = set(build_support(spec(ModelVariant.X_TO_Y)).member_indices().tolist())
        inc = set(
            build_support(spec(ModelVariant.X_TO_Y_MONO_INC)).member_indices().tolist()
        )
        dec = set(
            build_support(spec(ModelVariant.X_TO_Y_MONO_DEC)).member_indices().tolist()
        )
        assert inc < plain and dec < plain
        # the two variants drop disjoint contrast pairs, so the union covers
        # the plain support while the intersection loses all four cells
        assert inc | dec == plain
        assert inc & dec == plain - {6, 10, 1, 13}

    def test_y_cause_support_swaps_ranges(self):
        supp = build_support(spec(ModelVariant.Y_TO_X, 2, 3))
        # cause axis ranges over y (3 values), effect over x (2 values)
        assert supp.shape.axis_sizes == (3, 2, 2, 2, 2)
        assert len(supp.member_indices()) == 3 * 2**3

    def test_plain_objective_equals_indicator(self):
        supp = build_support(spec(ModelVariant.X_TO_Y, 3, 2))
        assert np.array_equal(supp.objective_coeffs, supp.member_flags.astype(float))

    def test_monotone_requires_binary(self):
        with pytest.raises(UnsupportedModelError):
            spec(ModelVariant.X_TO_Y_MONO_INC, 3, 3)

    def test_bivariate_rejects_b_z(self):
        with pytest.raises(UnsupportedModelError):
            CausalModelSpec(ModelVariant.X_TO_Y, 2, 2, b_z=2)

    def test_unknown_name(self):
        with pytest.raises(UnsupportedModelError):
            CausalModelSpec.from_name("nonsense", 2, 2)
        with pytest.raises(UnsupportedModelError, match="known models: x_to_y"):
            ModelVariant.from_name("nonsense")

    def test_trivariate_names(self):
        trivariate = {v for v in ModelVariant if v.is_trivariate}
        assert trivariate == set(TRIVARIATE)
        for v in ModelVariant:
            b_z = 2 if v.is_trivariate else None
            assert CausalModelSpec(v, 2, 2, b_z).is_trivariate is v.is_trivariate


class TestAnmObjectives:
    # coefficient vectors of the four reweighted objectives, frozen from the
    # published expressions (cells in base-2 order)
    EXPECTED = {
        1: {0: 2, 1: 2, 6: 1, 7: 1, 8: 1, 10: 1},
        2: {6: 1, 7: 1, 8: 1, 10: 1, 13: 2, 15: 2},
        3: {0: 1, 1: 1, 6: 2, 7: 2, 13: 1, 15: 1},
        4: {0: 1, 1: 1, 8: 2, 10: 2, 13: 1, 15: 1},
    }

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_frozen_coefficients(self, k):
        variant = ModelVariant(f"anm_s{k}")
        coeffs = build_support(spec(variant)).objective_coeffs
        expected = np.zeros(16)
        for idx, value in self.EXPECTED[k].items():
            expected[idx] = value
        assert np.array_equal(coeffs, expected)

    def test_pairs_sum_to_twice_plain(self):
        plain = build_support(spec(ModelVariant.X_TO_Y)).objective_coeffs
        s = {
            k: build_support(spec(ModelVariant(f"anm_s{k}"))).objective_coeffs
            for k in (1, 2, 3, 4)
        }
        assert np.array_equal(s[1] + s[2], 2 * plain)
        assert np.array_equal(s[3] + s[4], 2 * plain)

    def test_support_flags_stay_plain(self):
        plain = build_support(spec(ModelVariant.X_TO_Y))
        anm = build_support(spec(ModelVariant.ANM_S1))
        assert np.array_equal(anm.member_flags, plain.member_flags)

    def test_requires_binary(self):
        with pytest.raises(UnsupportedModelError):
            spec(ModelVariant.ANM_S2, 3, 3)


TRIVARIATE = [
    ModelVariant.Z_CONFOUNDER,
    ModelVariant.Z_CONFOUNDER_HIDDEN,
    ModelVariant.Z_CHAIN,
    ModelVariant.Z_CHAIN_HIDDEN,
    ModelVariant.Z_COLLIDER,
    ModelVariant.Z_COLLIDER_HIDDEN,
]
HIDDEN = TRIVARIATE[1::2]


class TestTrivariateSupport:
    @pytest.mark.parametrize("variant", TRIVARIATE)
    def test_zero_equations_binary(self, variant):
        model = spec(variant, 2, 2, 2)
        supp = build_support(model)
        space = model_space(model)
        zeros = trivariate_zero_cells(variant.value, space, 2, 2, 2)
        n = space.shape.n_cells
        assert n <= 256
        for idx in range(n):
            if idx in zeros:
                assert not supp.member_flags[idx], f"cell {idx} must be zero"
            else:
                assert supp.member_flags[idx], f"cell {idx} wrongly excluded"

    @pytest.mark.parametrize("variant", TRIVARIATE)
    def test_mixed_ranges_match_oracle(self, variant):
        model = spec(variant, 2, 3, 2)
        supp = build_support(model)
        space = model_space(model)
        zeros = trivariate_zero_cells(variant.value, space, 2, 3, 2)
        members = set(supp.member_indices().tolist())
        assert members == set(range(space.shape.n_cells)) - zeros

    @pytest.mark.parametrize("hidden", HIDDEN, ids=lambda v: v.value)
    @pytest.mark.parametrize("sizes", list(itertools.product((2, 3), repeat=3)))
    def test_hidden_z_is_observed_z_at_every_z(self, hidden, sizes):
        # a hidden-z cell is in the support iff the observed-z cell with the
        # same x, y and copies is, for every value z could take
        observed = ModelVariant(hidden.value.removesuffix("_hidden"))
        flags_h = build_support(spec(hidden, *sizes))
        flags_o = build_support(spec(observed, *sizes))
        grid_o = flags_o.member_flags.reshape(flags_o.shape.axis_sizes)
        expected = grid_o.all(axis=2).reshape(-1)
        assert flags_h.shape.axis_sizes == grid_o.shape[:2] + grid_o.shape[3:]
        assert np.array_equal(flags_h.member_flags, expected)

    def test_hidden_variants_observe_two_axes(self):
        observed = model_space(spec(ModelVariant.Z_CHAIN_HIDDEN, 2, 2, 2))
        assert observed.observed_names == ("x", "y")
        observed = model_space(spec(ModelVariant.Z_CHAIN, 2, 2, 2))
        assert observed.observed_names == ("x", "y", "z")

    def test_needs_b_z(self):
        with pytest.raises(UnsupportedModelError):
            CausalModelSpec(ModelVariant.Z_CONFOUNDER, 2, 2)

    def test_range_size_cap(self):
        with pytest.raises(UnsupportedModelError):
            CausalModelSpec(ModelVariant.Z_CONFOUNDER, 4, 4, 4)
