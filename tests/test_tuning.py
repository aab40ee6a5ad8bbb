import numpy as np
import pytest

from sparseca.ca import ContingencyTable, correspondence_matrix, standardized_residuals
from sparseca.datasets import colors_of_music
from sparseca.errors import DegenerateInputError, InputError
from sparseca.linalg import full_svd, l1_constrained_unit_vector
from sparseca.sparse import (
    SparsityConstraint,
    explained_variance,
    nnz_target_search,
    pmd_rank1,
    ppmd_deflate,
)
from sparseca.tuning import (
    _deflate_through,
    _pick_optimum,
    _residual_variance,
    bic_criterion,
    cv_error,
    default_absolute_grid,
    default_coupled_grid,
    grid_search_1d,
    grid_search_2d,
    is_criterion,
    residual_variance_estimate,
    weight_paths,
)

from conftest import BIC_WITHOUT_RESIDUAL


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
        # unpenalized rows add neither entries nor zeros: only the 6
        # column weights are counted
        z = rng.normal(size=(8, 6))
        factor = pmd_rank1(z, SparsityConstraint.unpenalized_rows(1.4))
        frac = (6 - factor.nnz_v) / 6
        assert frac > 0
        fit_sparse = explained_variance(z, factor.v[:, None])
        fit_full = explained_variance(z, full_svd(z).V[:, :1])
        expected = fit_sparse / fit_full * frac**2
        assert is_criterion(z, [factor]) == pytest.approx(expected, rel=1e-12)

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
        # the 8 unpenalized row weights are all nonzero, yet only the
        # surviving column weights count as degrees of freedom
        assert factor.nnz_u == 8 and factor.nnz_v < 6
        alpha = factor.u @ z @ factor.v
        residual = ((z - alpha * np.outer(factor.u, factor.v)) ** 2).sum()
        expected = residual / 48 + np.log(48) / 48 * factor.nnz_v
        assert bic_criterion(z, factor, sigma2_hat=1.0) == pytest.approx(expected, abs=1e-14)

    def test_variance_estimate_formula(self, rng):
        z = rng.normal(size=(9, 6))
        sigma = np.linalg.svd(z, compute_uv=False)
        expected = (sigma[1:] ** 2).sum() / (54 - 15)
        assert residual_variance_estimate(z) == pytest.approx(expected, rel=1e-10)

    def test_variance_estimate_takes_given_singular_values(self, rng, svd_calls):
        # a grid search hands the private helper the singular values of
        # its own decomposition
        z = rng.normal(size=(9, 6))
        sigma = np.linalg.svd(z, compute_uv=False)
        assert _residual_variance(z, sigma) == pytest.approx(
            residual_variance_estimate(z), rel=1e-12
        )
        assert len(svd_calls) == 1

    def test_variance_estimate_checks_size_before_decomposing(self, svd_calls):
        with pytest.raises(InputError, match="matrix too small"):
            residual_variance_estimate(np.full((2, 2), np.nan))
        assert svd_calls == []

    @pytest.mark.parametrize("rows", BIC_WITHOUT_RESIDUAL, ids=["exact", "wide", "tall"])
    def test_no_residual_variance_is_degenerate(self, rows):
        table = ContingencyTable.from_counts(np.array(rows, dtype=float))
        z = standardized_residuals(*correspondence_matrix(table))
        factor = pmd_rank1(z, SparsityConstraint.coupled(0.9))
        for call in (
            lambda: residual_variance_estimate(z),
            lambda: bic_criterion(z, factor),
            lambda: grid_search_1d(z, grid=[0.8, 1.0], criterion="bic"),
        ):
            with pytest.raises(DegenerateInputError, match="no residual variance"):
                call()

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
        with pytest.raises(InputError, match="10 folds need at least 10 cells, got 4"):
            cv_error(z, SparsityConstraint.coupled(0.9))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sweeps": 0},
            {"sweeps": -3},
            {"holdout_fraction": -1.0},
            {"holdout_fraction": 0.0},
            {"holdout_fraction": 5.0},
            {"holdout_fraction": np.nan},
            {"holdout_fraction": np.inf},
            {"holdout_fraction": 0.3},
            {"holdout_fraction": 0.5},
            {"holdout_fraction": 1.0},
            {"holdout_fraction": 0.3, "folds": 4},
        ],
    )
    def test_bad_sweeps_or_holdout_rejected(self, rng, kwargs):
        # the scheme is fixed (CV_FOLDS, CV_SWEEPS): a caller that still
        # passes a sweep count, holdout fraction or fold count is refused,
        # not silently given the fixed scheme
        z = rng.normal(size=(8, 6))
        with pytest.raises(TypeError, match="sweeps|holdout|folds"):
            cv_error(z, SparsityConstraint.coupled(0.9), seed=0, **kwargs)

    def test_folds_may_hold_out_every_cell(self):
        # 48 cells make ten folds of 48 // 10 = 4 cells; 10 cells make ten
        # folds of one cell each, which together hold out every cell
        z = np.random.default_rng(0).normal(size=(8, 6))
        assert cv_error(z, SparsityConstraint.coupled(0.8), seed=1) == 2.168907438730693
        z = np.random.default_rng(0).normal(size=(2, 5))
        assert cv_error(z, SparsityConstraint.coupled(0.8), seed=1) == 0.537573542196737

    @pytest.mark.parametrize("kwargs", [{"folds": 0}, {"folds": -1}, {"repeats": 0}])
    def test_nonpositive_folds_or_repeats_rejected(self, rng, kwargs):
        z = rng.normal(size=(6, 5))
        if "folds" in kwargs:
            with pytest.raises(TypeError, match="folds"):
                cv_error(z, SparsityConstraint.coupled(0.9), **kwargs)
        else:
            with pytest.raises(InputError, match="repeats must be at least 1, got 0"):
                cv_error(z, SparsityConstraint.coupled(0.9), **kwargs)

    @pytest.mark.parametrize("seed", [-1, -7])
    def test_negative_seed_rejected(self, rng, seed):
        z = rng.normal(size=(6, 5))
        with pytest.raises(InputError, match=f"seed must be non-negative, got {seed}"):
            cv_error(z, SparsityConstraint.coupled(0.9), seed=seed)


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

    @pytest.mark.filterwarnings("ignore:rank-1 fit did not converge")
    def test_cv_values_equal_cv_error_per_cell(self, rng):
        # the search stacks all its cells; each value is still exactly the
        # cell's own cross-validation error
        z = rng.normal(size=(8, 6))
        f1 = pmd_rank1(z, SparsityConstraint.coupled(0.7))
        grid = [0.45, 0.6, 0.8, 1.0]
        for prior, repeats in (([], 1), ([f1], 2)):
            result = grid_search_1d(
                z, grid=grid, criterion="cv", seed=3, cv_repeats=repeats,
                prior_factors=prior,
            )
            z_work = _deflate_through(z, prior)
            expected = [
                cv_error(z_work, SparsityConstraint.coupled(v), seed=3, repeats=repeats)
                for v in grid
            ]
            np.testing.assert_array_equal(result.grid.values, expected)

    @pytest.mark.filterwarnings("ignore:rank-1 fit did not converge")
    def test_cv_2d_values_equal_cv_error_per_cell(self, rng):
        z = rng.normal(size=(7, 6))
        gu, gv = [1.2, 2.0, np.sqrt(7.0)], [1.5, np.sqrt(6.0)]
        result = grid_search_2d(z, grid_u=gu, grid_v=gv, criterion="cv", seed=1)
        expected = [
            [cv_error(z, SparsityConstraint.absolute(su, sv), seed=1) for sv in gv]
            for su in gu
        ]
        np.testing.assert_array_equal(result.grid.values, expected)

    def test_bad_grids(self, rng):
        z = rng.normal(size=(6, 5))
        with pytest.raises(InputError):
            grid_search_1d(z, grid=[])
        with pytest.raises(InputError):
            grid_search_1d(z, grid=[0.8, 0.6])

    def test_unknown_criterion_rejected_before_any_fit(self, rng, svd_calls):
        z = rng.normal(size=(6, 5))
        with pytest.raises(InputError, match="criterion"):
            grid_search_1d(z, grid=[0.8], criterion="aic")
        assert svd_calls == []

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


def loop_pick(values, maximize):
    """Reference optimum: the first non-NaN value beaten by no later one."""
    best = None
    for i, value in enumerate(values):
        if np.isnan(value):
            continue
        if best is None or (value > values[best] if maximize else value < values[best]):
            best = i
    return best


class TestPickOptimum:
    @pytest.mark.parametrize(
        "values, maximize, expected",
        [
            ([np.nan, -np.inf], True, 1),
            ([np.nan, np.inf], False, 1),
            ([1.0, 3.0, 3.0, 2.0], True, 1),
            ([2.0, 0.5, 0.5, 1.0], False, 1),
            ([0.0, -0.0], True, 0),
            ([-0.0, 0.0], False, 0),
            ([np.nan, 2.0, np.nan, 2.0], True, 1),
            ([np.inf, np.inf, 1.0], True, 0),
        ],
    )
    def test_first_best_value(self, values, maximize, expected):
        assert _pick_optimum(np.array(values), maximize) == expected
        assert loop_pick(values, maximize) == expected

    @pytest.mark.parametrize("maximize", [True, False])
    def test_all_nan_rejected(self, maximize):
        with pytest.raises(InputError, match="undefined on the whole grid"):
            _pick_optimum(np.full(3, np.nan), maximize)

    def test_matches_the_loop_on_fuzzed_values(self):
        rng = np.random.default_rng(11)
        pool = np.array([np.nan, -np.inf, np.inf, -1.0, 0.0, -0.0, 1.0, 2.0])
        for _ in range(2000):
            values = rng.choice(pool, size=rng.integers(1, 7))
            for maximize in (True, False):
                if np.isnan(values).all():
                    with pytest.raises(InputError):
                        _pick_optimum(values, maximize)
                else:
                    assert _pick_optimum(values, maximize) == loop_pick(values, maximize)

    def test_searches_pick_the_first_cell_in_row_major_order(self, monkeypatch):
        # one scripted value per cell; the 2-D grid ties at cells (0, 2),
        # (1, 0) and (1, 2), and the 1-D one has a NaN cell ahead of -inf
        scripted = iter([
            [np.nan, 5.0, 1.0, 1.0, 3.0, 1.0],
            [np.nan, -np.inf],
        ])

        def evaluate(z, constraints, *args):
            values = next(scripted)
            assert len(values) == len(constraints)
            return [(value, i, 10 + i, 0.5) for i, value in enumerate(values)]

        monkeypatch.setattr("sparseca.tuning._evaluate_cells", evaluate)
        z = np.zeros((4, 9))
        result = grid_search_2d(
            z, grid_u=[1.0, 1.5], grid_v=[1.0, 2.0, 3.0], criterion="bic"
        )
        assert result.optimum == (1.0, 3.0)
        assert result.optimum_nnz == (2, 12)
        assert result.grid.values.shape == (2, 3)
        result = grid_search_1d(z, grid=[0.6, 0.9], criterion="is")
        assert result.optimum == 0.9
        assert result.optimum_nnz == (1, 11)
        assert result.grid.axis2 is None


@pytest.mark.filterwarnings("ignore:rank-1 fit did not converge")
class TestOneSvdPerSearch:
    """A search shares one SVD per matrix among its cells, and the shared
    warm start, variance scale and reference fit give the same numbers as
    cells fitted and scored on their own."""

    @pytest.mark.parametrize("criterion", ["is", "bic"])
    def test_grid_search_1d(self, rng, svd_calls, criterion):
        z = rng.normal(size=(9, 7))
        grid = default_coupled_grid(z.shape, step=0.1)
        result = grid_search_1d(z, grid=grid, criterion=criterion)
        assert svd_calls == [z.shape]
        expected = []
        for value in grid:
            factor = pmd_rank1(z, SparsityConstraint.coupled(value))
            if criterion == "is":
                expected.append(is_criterion(z, [factor]))
            else:
                expected.append(bic_criterion(z, factor))
        np.testing.assert_array_equal(result.grid.values, expected)

    def test_grid_search_1d_with_prior_factors(self, rng, svd_calls):
        z = rng.normal(size=(9, 7))
        f1 = pmd_rank1(z, SparsityConstraint.coupled(0.6))
        del svd_calls[:]
        grid = [0.5, 0.7, 0.9]
        result = grid_search_1d(z, grid=grid, criterion="is", prior_factors=[f1])
        assert svd_calls == [z.shape, z.shape]
        z_work = ppmd_deflate(z, f1)
        expected = [
            is_criterion(z, [f1, pmd_rank1(z_work, SparsityConstraint.coupled(v))])
            for v in grid
        ]
        np.testing.assert_array_equal(result.grid.values, expected)

    def test_grid_search_2d(self, rng, svd_calls):
        z = rng.normal(size=(8, 6))
        gu = np.linspace(1.0, np.sqrt(8.0), 3)
        gv = np.linspace(1.0, np.sqrt(6.0), 3)
        result = grid_search_2d(z, grid_u=gu, grid_v=gv, criterion="is")
        assert svd_calls == [z.shape]
        expected = [
            [is_criterion(z, [pmd_rank1(z, SparsityConstraint.absolute(su, sv))])
             for sv in gv]
            for su in gu
        ]
        np.testing.assert_array_equal(result.grid.values, expected)

    @pytest.mark.parametrize("repeats", [1, 2])
    def test_cv_search_stacks_every_sweep(self, rng, svd_calls, repeats):
        # the search's own SVD, then one stacked SVD per sweep for all
        # cells, repeats and folds at once
        z = rng.normal(size=(8, 6))
        grid = [0.5, 0.7, 0.9]
        grid_search_1d(z, grid=grid, criterion="cv", seed=0, cv_repeats=repeats)
        assert svd_calls == [z.shape] + [(len(grid) * repeats * 10, 8, 6)] * 20

    def test_cv_chunks_keep_the_values(self, rng, svd_calls, monkeypatch):
        # a cap of 25 matrices cuts the 30 members into two chunks
        z = rng.normal(size=(8, 6))
        grid = [0.5, 0.7, 0.9]
        whole = grid_search_1d(z, grid=grid, criterion="cv", seed=4).grid.values
        monkeypatch.setattr("sparseca.tuning.CV_STACK_ENTRIES", 25 * z.size)
        del svd_calls[:]
        chunked = grid_search_1d(z, grid=grid, criterion="cv", seed=4).grid.values
        np.testing.assert_array_equal(chunked, whole)
        assert svd_calls[1:] == [(25, 8, 6)] * 20 + [(5, 8, 6)] * 20

    def test_weight_paths(self, rng, svd_calls):
        z = rng.normal(size=(8, 6))
        grid = default_coupled_grid(z.shape, step=0.1)
        path = weight_paths(z, grid=grid)
        assert svd_calls == [z.shape]
        for value, u, v in zip(grid, path.u_path, path.v_path):
            factor = pmd_rank1(z, SparsityConstraint.coupled(value))
            np.testing.assert_array_equal(u, factor.u)
            np.testing.assert_array_equal(v, factor.v)


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

    @pytest.mark.parametrize(
        "grids",
        [
            {"grid_u": [2.0, 1.5, 1.5]},
            {"grid_u": [1.5, 2.0], "grid_v": [1.2, 1.2]},
            {"grid_v": [2.0, 1.1]},
        ],
        ids=["rows folding back", "repeated column value", "decreasing columns"],
    )
    def test_grids_must_increase(self, rng, grids, svd_calls):
        # the tie rule, toward the sparser pair, assumes increasing axes
        z = rng.normal(size=(7, 6))
        with pytest.raises(InputError, match="strictly increasing"):
            grid_search_2d(z, criterion="is", **grids)
        assert svd_calls == []

    @pytest.mark.parametrize("grids", [{"grid_u": []}, {"grid_v": []}])
    def test_empty_grid_rejected(self, rng, grids):
        with pytest.raises(InputError, match="at least one value"):
            grid_search_2d(rng.normal(size=(7, 6)), **grids)

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

    @pytest.mark.parametrize(
        "grid", [[0.9, 0.5, 0.5, 0.7], [0.5, 0.5], [1.0, 0.6]]
    )
    def test_grid_must_increase(self, rng, grid, svd_calls):
        # a grid that folds back would draw a path that folds back
        z = rng.normal(size=(8, 6))
        with pytest.raises(InputError, match="strictly increasing"):
            weight_paths(z, grid=grid)
        assert svd_calls == []

    def test_single_step_threshold_sweep_monotone(self, rng):
        # for one fixed input vector, tightening the budget can only
        # remove nonzeros
        x = rng.normal(size=12)
        budgets = np.linspace(1.0, np.sqrt(12.0), 40)
        counts = [
            np.count_nonzero(l1_constrained_unit_vector(x, c)) for c in budgets
        ]
        assert all(a <= b for a, b in zip(counts, counts[1:]))


EMPTY_MATRIX_CALLS = {
    "pmd_rank1": lambda z: pmd_rank1(z, SparsityConstraint.coupled(0.9)),
    # the target lies on the axis that has entries
    "nnz_target_search": lambda z: nnz_target_search(z, 1, "rows" if z.shape[0] else "cols"),
    "weight_paths": weight_paths,
    "weight_paths_grid": lambda z: weight_paths(z, grid=[0.8, 1.0]),
    "grid_search_1d": grid_search_1d,
    "grid_search_1d_grid": lambda z: grid_search_1d(z, grid=[0.8, 1.0]),
    "grid_search_2d": grid_search_2d,
    "grid_search_2d_grid": lambda z: grid_search_2d(z, grid_u=[1.0], grid_v=[1.0]),
    "cv_error": lambda z: cv_error(z, SparsityConstraint.coupled(0.9)),
}


class TestDegenerateInputs:
    @pytest.mark.parametrize("shape", [(5, 0), (0, 5)])
    @pytest.mark.parametrize("name", list(EMPTY_MATRIX_CALLS))
    def test_matrix_without_rows_or_columns(self, name, shape):
        # cross-validation counts cells before anything else, and the
        # default 2-D grid has an axis of length 0
        message = "at least 10 cells|no rows or columns|axis of length 0"
        error = InputError if name == "cv_error" else DegenerateInputError
        with pytest.raises(error, match=message):
            EMPTY_MATRIX_CALLS[name](np.zeros(shape))

    @pytest.mark.parametrize("points", [0, -1])
    def test_absolute_grid_needs_a_point(self, points):
        with pytest.raises(InputError, match=f"grid points must be at least 1, got {points}"):
            default_absolute_grid(9, points)

    def test_absolute_grid_needs_an_axis(self):
        with pytest.raises(DegenerateInputError, match="length 0"):
            default_absolute_grid(0)

    @pytest.mark.parametrize(
        "n_prior, budget, degenerate",
        [(5, 1.0, False), (6, 1.0, True), (7, 1.0, True), (7, 0.5, False)],
    )
    def test_prior_dimensions_leaving_roundoff(self, n_prior, budget, degenerate):
        # the music table has residual rank 6: six unpenalized dimensions
        # leave about 1e-32 of the squared norm
        z = standardized_residuals(*correspondence_matrix(colors_of_music()))
        prior, z_work = [], z
        for _ in range(n_prior):
            prior.append(pmd_rank1(z_work, SparsityConstraint.coupled(budget)))
            z_work = ppmd_deflate(z_work, prior[-1])
        calls = (
            lambda: _deflate_through(z, prior),
            lambda: grid_search_1d(z, grid=[0.8, 1.0], prior_factors=prior),
            lambda: weight_paths(z, grid=[0.8, 1.0], prior_factors=prior),
        )
        for call in calls:
            if degenerate:
                with pytest.raises(DegenerateInputError, match="roundoff"):
                    call()
            else:
                call()
