import numpy as np
import pytest

from sparseca.errors import InputError
from sparseca.linalg import full_svd, l1_constrained_unit_vector
from sparseca.sparse import (
    SparsityConstraint,
    explained_variance,
    pmd_rank1,
    ppmd_deflate,
)
from sparseca.tuning import (
    bic_criterion,
    cv_error,
    default_coupled_grid,
    grid_search_1d,
    grid_search_2d,
    is_criterion,
    residual_variance_estimate,
    weight_paths,
)


def rank1(rng, shape, scale=3.0):
    u = rng.normal(size=shape[0])
    u /= np.linalg.norm(u)
    v = rng.normal(size=shape[1])
    v /= np.linalg.norm(v)
    return scale * np.outer(u, v)


class TestIsCriterion:
    def test_zero_sparsity_scores_zero(self, rng):
        z = rng.normal(size=(8, 6))
        factor = pmd_rank1(
            z, SparsityConstraint.absolute(np.sqrt(8.0), np.sqrt(6.0))
        )
        assert factor.nnz_u == 8 and factor.nnz_v == 6
        assert is_criterion(z, [factor]) == 0.0

    def test_sign_flip_invariance(self, rng):
        z = rng.normal(size=(8, 6))
        factor = pmd_rank1(z, SparsityConstraint.coupled(0.6))
        value = is_criterion(z, [factor])
        flipped = pmd_rank1(z, SparsityConstraint.coupled(0.6))
        flipped.u, flipped.v = -flipped.u, -flipped.v
        assert is_criterion(z, [flipped]) == pytest.approx(value, abs=1e-14)

    def test_orientations_multiply_to_zero_fraction_power(self, rng):
        # the two ratio orientations are reciprocal, so the product of
        # the criteria is the fourth power of the zero fraction
        z = rng.normal(size=(9, 7))
        factor = pmd_rank1(z, SparsityConstraint.coupled(0.55))
        zeros = (9 - factor.nnz_u) + (7 - factor.nnz_v)
        frac = zeros / 16
        assert frac > 0
        tradeoff = is_criterion(z, [factor], orientation="tradeoff")
        printed = is_criterion(z, [factor], orientation="printed")
        assert tradeoff * printed == pytest.approx(frac**4, rel=1e-10)

    def test_matches_explicit_counts(self, rng):
        z = rng.normal(size=(8, 6))
        factor = pmd_rank1(z, SparsityConstraint.unpenalized_rows(1.4))
        auto = is_criterion(z, [factor])
        explicit = is_criterion(
            z, [factor], total_params=6, nnz_total=factor.nnz_v
        )
        assert auto == pytest.approx(explicit, abs=1e-14)

    def test_accumulates_over_dimensions(self, rng):
        z = rng.normal(size=(9, 7))
        f1 = pmd_rank1(z, SparsityConstraint.coupled(0.6))
        f2 = pmd_rank1(ppmd_deflate(z, f1), SparsityConstraint.coupled(0.6))
        value = is_criterion(z, [f1, f2])
        fit_sparse = explained_variance(z, np.column_stack([f1.v, f2.v]))
        fit_full = explained_variance(z, full_svd(z).V[:, :2])
        zeros = (9 - f1.nnz_u) + (7 - f1.nnz_v) + (9 - f2.nnz_u) + (7 - f2.nnz_v)
        expected = fit_sparse / fit_full * (zeros / 32) ** 2
        assert value == pytest.approx(expected, rel=1e-12)

    def test_validation(self, rng):
        z = rng.normal(size=(5, 4))
        factor = pmd_rank1(z, SparsityConstraint.coupled(0.7))
        with pytest.raises(InputError):
            is_criterion(z, [])
        with pytest.raises(InputError):
            is_criterion(z, [factor], orientation="sideways")


class TestBicCriterion:
    def test_exact_rank_one_has_zero_residual_term(self, rng):
        z = rank1(rng, (8, 6))
        factor = pmd_rank1(
            z, SparsityConstraint.absolute(np.sqrt(8.0), np.sqrt(6.0))
        )
        value = bic_criterion(z, factor, sigma2_hat=1.0)
        expected_penalty = np.log(48) / 48 * (8 + 6)
        assert value == pytest.approx(expected_penalty, abs=1e-10)

    def test_unconstrained_residual_identity(self, rng):
        z = rng.normal(size=(7, 5))
        factor = pmd_rank1(
            z, SparsityConstraint.absolute(np.sqrt(7.0), np.sqrt(5.0))
        )
        sigma = np.linalg.svd(z, compute_uv=False)
        total = (z**2).sum()
        expected_residual = (total - sigma[0] ** 2) / (35 * 2.5)
        value = bic_criterion(z, factor, sigma2_hat=2.5)
        assert value == pytest.approx(
            expected_residual + np.log(35) / 35 * 12, abs=1e-8
        )

    def test_df_counts_penalized_sides_only(self, rng):
        z = rng.normal(size=(8, 6))
        factor = pmd_rank1(z, SparsityConstraint.unpenalized_rows(1.4))
        auto = bic_criterion(z, factor, sigma2_hat=1.0)
        explicit = bic_criterion(z, factor, sigma2_hat=1.0, df=factor.nnz_v)
        assert auto == pytest.approx(explicit, abs=1e-14)

    def test_variance_estimate_formula(self, rng):
        z = rng.normal(size=(9, 6))
        sigma = np.linalg.svd(z, compute_uv=False)
        expected = (sigma[1:] ** 2).sum() / (54 - 15)
        assert residual_variance_estimate(z) == pytest.approx(expected, rel=1e-10)

    def test_rejects_bad_sigma(self, rng):
        z = rng.normal(size=(6, 5))
        factor = pmd_rank1(z, SparsityConstraint.coupled(0.7))
        with pytest.raises(InputError):
            bic_criterion(z, factor, sigma2_hat=0.0)


class TestCvError:
    def test_exact_rank_one_imputes_perfectly(self, rng):
        z = rank1(rng, (12, 10), scale=1.0)
        err = cv_error(
            z,
            SparsityConstraint.absolute(np.sqrt(12.0), np.sqrt(10.0)),
            seed=3,
        )
        assert err <= 1e-6

    def test_seed_determinism(self, rng):
        z = rng.normal(size=(9, 7))
        c = SparsityConstraint.coupled(0.7)
        assert cv_error(z, c, seed=11) == cv_error(z, c, seed=11)
        assert cv_error(z, c, seed=11) != cv_error(z, c, seed=12)

    def test_moderate_sparsity_beats_one_sparse(self, rng):
        # rank-2 signal plus light noise: a near-1-sparse budget cannot
        # reconstruct held-out cells as well as a moderate budget
        z = rank1(rng, (20, 15), scale=4.0) + rank1(rng, (20, 15), scale=2.5)
        z += 0.05 * rng.normal(size=(20, 15))
        lo = max(1 / np.sqrt(20), 1 / np.sqrt(15)) + 0.01
        tight = cv_error(z, SparsityConstraint.coupled(lo), repeats=10, seed=5)
        moderate = cv_error(z, SparsityConstraint.coupled(0.7), repeats=10, seed=5)
        assert moderate <= tight

    def test_too_many_folds_rejected(self, rng):
        z = rng.normal(size=(2, 2))
        with pytest.raises(InputError):
            cv_error(z, SparsityConstraint.coupled(0.9), folds=10)

    @pytest.mark.parametrize("kwargs", [{"folds": 0}, {"folds": -1}, {"repeats": 0}])
    def test_nonpositive_folds_or_repeats_rejected(self, rng, kwargs):
        z = rng.normal(size=(6, 5))
        with pytest.raises(InputError, match="at least 1"):
            cv_error(z, SparsityConstraint.coupled(0.9), **kwargs)


class TestGridSearch1d:
    def test_singleton_grid_is_unconstrained(self, rng):
        z = rng.normal(size=(8, 6))
        result = grid_search_1d(z, grid=[1.0], criterion="is")
        assert result.optimum == 1.0
        assert result.optimum_nnz == (8, 6)
        assert result.grid.values.shape == (1,)

    def test_optimum_matches_exhaustive_recheck(self, rng):
        z = rng.normal(size=(9, 7))
        grid = default_coupled_grid(z.shape, step=0.05)
        for criterion in ("is", "bic"):
            result = grid_search_1d(z, grid=grid, criterion=criterion)
            values = result.grid.values
            best = 0
            for i in range(1, values.size):
                better = (
                    values[i] > values[best]
                    if criterion == "is"
                    else values[i] < values[best]
                )
                if better:
                    best = i
            assert result.optimum == grid[best]

    def test_deterministic(self, rng):
        z = rng.normal(size=(8, 6))
        grid = default_coupled_grid(z.shape, step=0.1)
        first = grid_search_1d(z, grid=grid, criterion="is")
        second = grid_search_1d(z, grid=grid, criterion="is")
        np.testing.assert_array_equal(first.grid.values, second.grid.values)
        assert first.optimum == second.optimum

    def test_prior_factors_shift_the_problem(self, rng):
        z = rng.normal(size=(9, 7))
        f1 = pmd_rank1(z, SparsityConstraint.coupled(0.6))
        result = grid_search_1d(z, grid=[0.9], criterion="is", prior_factors=[f1])
        direct = pmd_rank1(ppmd_deflate(z, f1), SparsityConstraint.coupled(0.9))
        assert result.optimum_nnz == (direct.nnz_u, direct.nnz_v)

    def test_cv_criterion_is_seeded(self, rng):
        z = rng.normal(size=(8, 6))
        grid = [0.5, 0.8]
        a = grid_search_1d(z, grid=grid, criterion="cv", seed=7)
        b = grid_search_1d(z, grid=grid, criterion="cv", seed=7)
        np.testing.assert_array_equal(a.grid.values, b.grid.values)

    def test_bad_grids(self, rng):
        z = rng.normal(size=(6, 5))
        with pytest.raises(InputError):
            grid_search_1d(z, grid=[])
        with pytest.raises(InputError):
            grid_search_1d(z, grid=[0.8, 0.6])

    def test_default_grid_bounds(self):
        grid = default_coupled_grid((10, 9))
        low = max(1 / np.sqrt(10), 1 / 3)
        assert grid[0] > low
        assert grid[-1] == 1.0
        assert np.allclose(np.diff(grid), 0.01)

    @pytest.mark.parametrize("step", [0.0, -0.1, np.nan, np.inf])
    def test_default_grid_rejects_bad_step(self, step):
        with pytest.raises(InputError, match="step"):
            default_coupled_grid((10, 9), step=step)


class TestGridSearch2d:
    def test_single_cell(self, rng):
        z = rng.normal(size=(7, 5))
        result = grid_search_2d(z, grid_u=[1.5], grid_v=[1.4], criterion="is")
        assert result.optimum == (1.5, 1.4)
        assert result.grid.values.shape == (1, 1)

    def test_optimum_matches_surface(self, rng):
        z = rng.normal(size=(8, 6))
        gu = np.linspace(1.0, np.sqrt(8.0), 5)
        gv = np.linspace(1.0, np.sqrt(6.0), 5)
        result = grid_search_2d(z, grid_u=gu, grid_v=gv, criterion="is")
        surface = result.grid.values
        best = None
        for i in range(5):
            for j in range(5):
                if best is None or surface[i, j] > surface[best]:
                    best = (i, j)
        assert result.optimum == (gu[best[0]], gv[best[1]])
        assert surface.max() == surface[best]

    def test_bic_surface_finite(self, rng):
        z = rng.normal(size=(7, 6))
        result = grid_search_2d(
            z,
            grid_u=np.linspace(1.0, 2.0, 3),
            grid_v=np.linspace(1.0, 2.0, 3),
            criterion="bic",
        )
        assert np.all(np.isfinite(result.grid.values))

    def test_default_grids_span_ranges(self, rng):
        z = rng.normal(size=(9, 7))
        result = grid_search_2d(z, criterion="is")
        assert result.grid.axis1[0] == 1.0
        assert result.grid.axis1[-1] == pytest.approx(3.0)
        assert result.grid.axis2[-1] == pytest.approx(np.sqrt(7.0))


class TestWeightPaths:
    def test_unconstrained_end_matches_svd(self, rng):
        z = rng.normal(size=(8, 6))
        path = weight_paths(z, grid=[0.6, 1.0])
        u, _, v = full_svd(z)
        np.testing.assert_allclose(path.u_path[-1], u[:, 0], atol=1e-8)
        np.testing.assert_allclose(path.v_path[-1], v[:, 0], atol=1e-8)
        assert path.zero_fraction[-1] == 0.0

    def test_shapes_constant_along_path(self, rng):
        z = rng.normal(size=(8, 6))
        grid = default_coupled_grid(z.shape, step=0.1)
        path = weight_paths(z, grid=grid)
        assert path.u_path.shape == (grid.size, 8)
        assert path.v_path.shape == (grid.size, 6)
        assert np.all((0.0 <= path.zero_fraction) & (path.zero_fraction <= 1.0))

    def test_single_step_threshold_sweep_monotone(self, rng):
        # for one fixed input vector, tightening the budget can only
        # remove nonzeros
        x = rng.normal(size=12)
        budgets = np.linspace(1.0, np.sqrt(12.0), 40)
        counts = [
            np.count_nonzero(l1_constrained_unit_vector(x, c)) for c in budgets
        ]
        assert all(a <= b for a, b in zip(counts, counts[1:]))
