"""Searches that fit many budgets of one matrix run them as one stack over
that matrix. Every member must equal its own ``pmd_rank1`` fit, so each
search is checked here against a copy of the serial loop it replaced."""

import tracemalloc
import warnings

import numpy as np
import pytest

from sparseca.linalg import _leading_svd
from sparseca.sparse import (
    NNZ_CHUNK,
    NNZ_GRID_STEP,
    NnzSearchResult,
    SparsityConstraint,
    _rank1_fits,
    nnz_target_search,
    pmd_rank1,
    ppmd_deflate,
)
from sparseca.tuning import (
    _cv_errors,
    _deflate_through,
    _residual_variance,
    bic_criterion,
    default_coupled_grid,
    explained_variance,
    grid_search_1d,
    grid_search_2d,
    is_criterion,
    weight_paths,
)

from conftest import large_table_residuals


@pytest.fixture(scope="module")
def large_z():
    return large_table_residuals(1, 0)


# Reference copies of the serial loops, one pmd_rank1 fit per budget.


def serial_weight_paths(z, grid, prior_factors=()):
    z_work = _deflate_through(z, prior_factors)
    factors = [pmd_rank1(z_work, SparsityConstraint.coupled(value)) for value in grid]
    return np.array([f.u for f in factors]), np.array([f.v for f in factors])


def serial_evaluate_cells(
    z, constraints, prior_factors, criterion, orientation, seed, cv_repeats
):
    prior_factors = list(prior_factors)
    z_work = _deflate_through(z, prior_factors)
    s = _leading_svd(z_work)[0]
    sigma2_hat = _residual_variance(z_work, s) if criterion == "bic" else None
    if criterion == "cv":
        cv_values = _cv_errors(z_work, constraints, seed=seed, repeats=cv_repeats)
    results = []
    for i, constraint in enumerate(constraints):
        factor = pmd_rank1(z_work, constraint)
        chain = prior_factors + [factor]
        fit = explained_variance(z, np.column_stack([f.v for f in chain]))
        if criterion == "is":
            value = is_criterion(z, chain, orientation=orientation)
        elif criterion == "bic":
            value = bic_criterion(z_work, factor, sigma2_hat=sigma2_hat)
        else:
            value = float(cv_values[i])
        results.append((value, factor.nnz_u, factor.nnz_v, fit))
    return results


def serial_nnz_target_search(z, target, axis="cols"):
    length = z.shape[0] if axis == "rows" else z.shape[1]
    grid = np.arange(1.0, np.sqrt(length) + 1e-9, NNZ_GRID_STEP)
    best = None
    for value in grid:
        if axis == "cols":
            constraint = SparsityConstraint.unpenalized_rows(value)
        else:
            constraint = SparsityConstraint.absolute(value, np.sqrt(z.shape[1]))
        factor = pmd_rank1(z, constraint)
        nnz = factor.nnz_v if axis == "cols" else factor.nnz_u
        if nnz >= target:
            return NnzSearchResult(float(value), nnz, True)
        if best is None or nnz > best.nnz:
            best = NnzSearchResult(float(value), nnz, False)
    warnings.warn(
        f"no grid budget reaches {target} nonzero {axis} weights; "
        f"closest is {best.nnz} at {best.value:.6g}",
        stacklevel=2,
    )
    return best


def messages_of(call, *args, **kwargs):
    """Result of ``call`` and the texts of every warning it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call(*args, **kwargs)
    return result, [str(w.message) for w in caught]


class TestSharedMatrixStack:
    constraints = [
        SparsityConstraint.coupled(0.5),
        SparsityConstraint.unpenalized_rows(1.3),
        SparsityConstraint.absolute(1.2, 1.1),
        SparsityConstraint.coupled(0.9),
        SparsityConstraint.unpenalized_rows(1.0),
        SparsityConstraint.absolute(1.0, 1.0),
        SparsityConstraint.absolute(2.5, 2.4),
        SparsityConstraint.absolute(np.sqrt(8.0), np.sqrt(7.0)),
    ]

    def test_members_equal_their_own_fits(self):
        z = np.random.default_rng(3).normal(size=(8, 7))
        stack = _rank1_fits(z, self.constraints)
        for i, constraint in enumerate(self.constraints):
            own = pmd_rank1(z, constraint)
            np.testing.assert_array_equal(stack.u[i], own.u)
            np.testing.assert_array_equal(stack.v[i], own.v)
            assert stack.alpha[i] == own.alpha
            assert (stack.n_iter[i], stack.converged[i]) == (own.n_iter, own.converged)
        # the 1-sparse members stop at once and others later, so the
        # stack is compacted on the way
        assert len(set(stack.n_iter)) >= 3
        assert np.count_nonzero(stack.v[4]) == np.count_nonzero(stack.v[5]) == 1

    @pytest.mark.filterwarnings("ignore:rank-1 fit did not converge")
    def test_shared_matrix_is_not_tiled(self):
        # 91 grid values on a 120x800 matrix: a stack that copied the
        # matrix per member would hold 91 times its bytes
        z = np.random.default_rng(0).normal(size=(120, 800))
        assert default_coupled_grid(z.shape).size == 91
        weight_paths(z)
        tracemalloc.start()
        try:
            weight_paths(z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 91 * z.nbytes / 4


@pytest.mark.filterwarnings("ignore:rank-1 fit did not converge")
class TestWeightPathsMatchSerial:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded(self, seed):
        z = np.random.default_rng(seed).normal(size=(9, 12))
        grid = default_coupled_grid(z.shape, step=0.02)
        path = weight_paths(z, grid=grid)
        u_path, v_path = serial_weight_paths(z, grid)
        np.testing.assert_array_equal(path.u_path, u_path)
        np.testing.assert_array_equal(path.v_path, v_path)

    def test_with_prior_factors(self):
        z = np.random.default_rng(4).normal(size=(9, 12))
        prior = [pmd_rank1(z, SparsityConstraint.coupled(0.6))]
        grid = [0.4, 0.55, 0.7, 1.0]
        path = weight_paths(z, grid=grid, prior_factors=prior)
        u_path, v_path = serial_weight_paths(z, grid, prior)
        np.testing.assert_array_equal(path.u_path, u_path)
        np.testing.assert_array_equal(path.v_path, v_path)

    def test_large_table(self, large_z):
        grid = default_coupled_grid(large_z.shape)
        path = weight_paths(large_z)
        u_path, v_path = serial_weight_paths(large_z, grid)
        np.testing.assert_array_equal(path.u_path, u_path)
        np.testing.assert_array_equal(path.v_path, v_path)


def assert_same_search(actual, expected):
    assert actual.optimum == expected.optimum
    assert actual.optimum_nnz == expected.optimum_nnz
    for name in ("values", "nnz_u", "nnz_v", "fit", "axis1"):
        np.testing.assert_array_equal(
            getattr(actual.grid, name), getattr(expected.grid, name)
        )


@pytest.mark.filterwarnings("ignore:rank-1 fit did not converge")
class TestGridSearchesMatchSerial:
    """The searches give the same grids and picks as with a copy of the
    serial cell loop put in place of the stacked one."""

    def run_both(self, monkeypatch, search, *args, **kwargs):
        actual = search(*args, **kwargs)
        with monkeypatch.context() as patch:
            patch.setattr("sparseca.tuning._evaluate_cells", serial_evaluate_cells)
            expected = search(*args, **kwargs)
        return actual, expected

    @pytest.mark.parametrize("criterion", ["is", "bic", "cv"])
    @pytest.mark.parametrize("with_prior", [False, True])
    def test_1d(self, monkeypatch, criterion, with_prior):
        z = np.random.default_rng(5).normal(size=(8, 10))
        prior = [pmd_rank1(z, SparsityConstraint.coupled(0.6))] if with_prior else []
        grid = default_coupled_grid(z.shape, step=0.1)
        actual, expected = self.run_both(
            monkeypatch, grid_search_1d, z, grid=grid, criterion=criterion,
            prior_factors=prior, seed=2,
        )
        assert_same_search(actual, expected)

    @pytest.mark.parametrize("criterion", ["is", "bic", "cv"])
    @pytest.mark.parametrize("with_prior", [False, True])
    def test_2d(self, monkeypatch, criterion, with_prior):
        z = np.random.default_rng(6).normal(size=(8, 10))
        prior = [pmd_rank1(z, SparsityConstraint.coupled(0.6))] if with_prior else []
        gu = np.linspace(1.0, np.sqrt(8.0), 4)
        gv = np.linspace(1.0, np.sqrt(10.0), 3)
        actual, expected = self.run_both(
            monkeypatch, grid_search_2d, z, grid_u=gu, grid_v=gv,
            criterion=criterion, prior_factors=prior, seed=3,
        )
        assert_same_search(actual, expected)
        np.testing.assert_array_equal(actual.grid.axis2, expected.grid.axis2)

    @pytest.mark.parametrize("criterion", ["is", "bic"])
    def test_large_table(self, monkeypatch, large_z, criterion):
        grid = default_coupled_grid(large_z.shape, step=0.1)
        actual, expected = self.run_both(
            monkeypatch, grid_search_1d, large_z, grid=grid, criterion=criterion
        )
        assert_same_search(actual, expected)


class TestNnzWalkMatchesSerial:
    """Seed 2's 12x30 matrix keeps 1, 4, 4, 4, 4, 6, 10, 12, 14, 15, ...
    column weights along the 23-value grid, so each target below is first
    reached at a known place in the chunks of 8."""

    @pytest.fixture
    def z(self):
        return np.random.default_rng(2).normal(size=(12, 30))

    @pytest.mark.parametrize(
        "target, first_hit",
        [(6, 5), (12, 7), (15, 9), (26, 15), (1, 0)],
        ids=["inside first chunk", "last of first chunk", "inside second chunk",
             "last of second chunk", "first value"],
    )
    def test_hit(self, z, target, first_hit):
        grid = np.arange(1.0, np.sqrt(30.0) + 1e-9, NNZ_GRID_STEP)
        expected = serial_nnz_target_search(z, target)
        assert expected.value == grid[first_hit] and expected.target_met
        assert nnz_target_search(z, target) == expected

    def test_rows_axis(self, z):
        for target in (2, 5, 9):
            assert nnz_target_search(z, target, axis="rows") == (
                serial_nnz_target_search(z, target, axis="rows")
            )

    def test_unreachable_target(self, z):
        z[:, 2] = 0.0
        expected, expected_messages = messages_of(serial_nnz_target_search, z, 30)
        result, result_messages = messages_of(nnz_target_search, z, 30)
        assert result == expected and not result.target_met
        assert result_messages == expected_messages
        assert len(result_messages) == 1 and "closest" in result_messages[0]

    def test_large_table(self, large_z):
        for target in (40, 200):
            assert nnz_target_search(large_z, target) == (
                serial_nnz_target_search(large_z, target)
            )

    def test_large_table_warns_as_the_serial_walk(self):
        # the second dimension of this table, as a column-sparse fit with
        # target 40 deflates it, has two fits before the hit that stop at
        # the iteration cap
        z = large_table_residuals(1, 1)
        first = nnz_target_search(z, 40)
        z = ppmd_deflate(z, pmd_rank1(z, SparsityConstraint.unpenalized_rows(first.value)))
        expected, expected_messages = messages_of(serial_nnz_target_search, z, 40)
        result, result_messages = messages_of(nnz_target_search, z, 40)
        assert result == expected
        assert result_messages == expected_messages
        assert len(result_messages) == 2


class TestNnzWalkWarnings:
    """Only the fits a walk of single fits would have made may warn."""

    def walk_with_unconverged(self, mark_unconverged, changes):
        # target 6 is first reached at grid index 5, inside the first
        # chunk; ``changes`` maps the members made to look capped to the
        # last change their warning reports
        z = np.random.default_rng(2).normal(size=(12, 30))
        mark_unconverged(changes)
        return messages_of(nnz_target_search, z, 6)

    def test_members_after_the_hit_do_not_warn(self, mark_unconverged):
        assert NNZ_CHUNK == 8
        result, messages = self.walk_with_unconverged(mark_unconverged, {6: 0.5, 7: 0.5})
        assert result.value == pytest.approx(2.0) and result.target_met
        assert messages == []

    def test_members_up_to_the_hit_warn_in_grid_order(self, mark_unconverged):
        _, messages = self.walk_with_unconverged(mark_unconverged, {5: 0.5, 1: 0.25, 7: 1.0})
        assert len(messages) == 2
        assert "did not converge in" in messages[0]
        assert "(last column-weight change 2.50e-01)" in messages[0]
        assert "(last column-weight change 5.00e-01)" in messages[1]
