import itertools
import warnings

import numpy as np
import pytest

import sparseca.sparse
from sparseca.ca import ContingencyTable, contributions, fit_ca
from sparseca.datasets import colors_of_music
from sparseca.errors import DegenerateInputError, InputError, SparseCAError
from sparseca.linalg import _leading_svd, full_svd
from sparseca.sparse import (
    SparsityConstraint,
    _rank1_fits,
    _warn_unconverged,
    column_sparse_coordinates,
    coordinates_from_weights,
    explained_variance,
    fit_sparse_ca,
    nnz_target_search,
    pmd_rank1,
    ppmd_deflate,
)

from conftest import large_table_residuals, random_table


def inactive(shape):
    return SparsityConstraint.absolute(np.sqrt(shape[0]), np.sqrt(shape[1]))


class TestSparsityConstraint:
    def test_absolute_budgets(self):
        c = SparsityConstraint.absolute(2.0, 1.5)
        assert c.budgets((9, 4)) == (2.0, 1.5)

    def test_absolute_out_of_range(self):
        with pytest.raises(InputError):
            SparsityConstraint.absolute(3.5, 1.5).budgets((9, 4))
        with pytest.raises(InputError):
            SparsityConstraint.absolute(2.0, 0.9).budgets((9, 4))

    def test_coupled_budgets(self):
        c = SparsityConstraint.coupled(0.5)
        bu, bv = c.budgets((16, 9))
        assert bu == pytest.approx(2.0)
        assert bv == pytest.approx(1.5)

    def test_coupled_range_is_open_below(self):
        # at the lower endpoint one side budget hits 1 exactly only for
        # strictly larger values
        with pytest.raises(InputError):
            SparsityConstraint.coupled(0.5).budgets((4, 9))
        with pytest.raises(InputError):
            SparsityConstraint.coupled(1.1).budgets((4, 9))
        SparsityConstraint.coupled(0.51).budgets((4, 9))

    def test_unpenalized_rows(self):
        bu, bv = SparsityConstraint.unpenalized_rows(1.5).budgets((7, 5))
        assert bu is None
        assert bv == 1.5

    def test_nonzero_target_has_no_budget(self):
        with pytest.raises(InputError, match="resolved"):
            SparsityConstraint.nonzero_target(3, "cols").budgets((7, 5))

    def test_nonzero_target_validation(self):
        with pytest.raises(InputError):
            SparsityConstraint.nonzero_target(3, "diag")
        with pytest.raises(InputError):
            SparsityConstraint.nonzero_target(0, "cols")

    def test_penalized_sides(self):
        assert SparsityConstraint.coupled(0.6).penalized_sides() == ("rows", "cols")
        assert SparsityConstraint.unpenalized_rows(1.5).penalized_sides() == ("cols",)


class TestPmdRank1:
    def test_inactive_constraints_reduce_to_svd(self, rng):
        for _ in range(10):
            shape = tuple(rng.integers(3, 12, size=2))
            z = rng.normal(size=shape)
            factor = pmd_rank1(z, inactive(shape))
            u, s, v = full_svd(z)
            sign = np.sign(factor.v @ v[:, 0]) or 1.0
            np.testing.assert_allclose(factor.u, sign * u[:, 0], atol=1e-8)
            np.testing.assert_allclose(factor.v, sign * v[:, 0], atol=1e-8)
            assert factor.alpha == pytest.approx(s[0], abs=1e-8)
            assert factor.converged

    def test_l1_feasibility(self, rng):
        for _ in range(20):
            z = rng.normal(size=(8, 6))
            bu = float(rng.uniform(1.0, np.sqrt(8)))
            bv = float(rng.uniform(1.0, np.sqrt(6)))
            factor = pmd_rank1(z, SparsityConstraint.absolute(bu, bv))
            assert np.linalg.norm(factor.u) == pytest.approx(1.0, abs=1e-9)
            assert np.linalg.norm(factor.v) == pytest.approx(1.0, abs=1e-9)
            assert np.abs(factor.u).sum() <= bu + 1e-8
            assert np.abs(factor.v).sum() <= bv + 1e-8

    def test_beats_random_feasible_points(self, rng):
        # the fitted bilinear form dominates 10^4 random feasible pairs
        z = rng.normal(size=(6, 5))
        budget_v = 1.5
        factor = pmd_rank1(
            z, SparsityConstraint.absolute(np.sqrt(6.0), budget_v)
        )
        n = 10_000
        us = rng.normal(size=(n, 6))
        us /= np.linalg.norm(us, axis=1, keepdims=True)
        vs = np.zeros((n, 5))
        support_sizes = rng.integers(1, 4, size=n)
        for i, size in enumerate(support_sizes):
            support = rng.choice(5, size=size, replace=False)
            raw = rng.normal(size=size)
            raw /= np.linalg.norm(raw)
            if np.abs(raw).sum() > budget_v:
                raw = np.zeros(size)
                raw[0] = 1.0
            vs[i, support] = raw
        objectives = np.einsum("ni,ij,nj->n", us, z, vs)
        assert factor.alpha >= objectives.max() - 1e-9

    def test_exact_zeros_and_counts(self, rng):
        z = rng.normal(size=(9, 7))
        factor = pmd_rank1(z, SparsityConstraint.absolute(1.5, 1.5))
        assert factor.nnz_u == np.count_nonzero(factor.u)
        assert factor.nnz_v == np.count_nonzero(factor.v)
        assert factor.nnz_v < 7

    def test_unpenalized_rows_keeps_dense_u(self, rng):
        z = rng.normal(size=(8, 6))
        factor = pmd_rank1(z, SparsityConstraint.unpenalized_rows(1.2))
        assert factor.nnz_u == 8
        assert factor.nnz_v < 6

    def test_sign_convention(self, rng):
        for _ in range(10):
            z = rng.normal(size=(6, 6))
            factor = pmd_rank1(z, SparsityConstraint.coupled(0.7))
            anchor = np.abs(factor.v).argmax()
            assert factor.v[anchor] > 0
            assert factor.alpha >= 0

    def test_deterministic(self, rng):
        z = rng.normal(size=(7, 5))
        c = SparsityConstraint.coupled(0.6)
        first = pmd_rank1(z, c)
        second = pmd_rank1(z, c)
        np.testing.assert_array_equal(first.u, second.u)
        np.testing.assert_array_equal(first.v, second.v)

    def test_nonconvergence_warns(self, rng):
        z = rng.normal(size=(8, 6))
        with pytest.warns(UserWarning, match="did not converge"):
            factor = pmd_rank1(
                z, SparsityConstraint.absolute(1.3, 1.2), max_iter=1
            )
        assert not factor.converged

    def test_iteration_cap_below_one_rejected(self, rng):
        z = rng.normal(size=(8, 6))
        with pytest.raises(InputError, match="max_iter"):
            pmd_rank1(z, SparsityConstraint.coupled(0.8), max_iter=0)

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateInputError):
            pmd_rank1(np.zeros((4, 4)), SparsityConstraint.coupled(0.8))

    def test_unresolved_target_rejected(self, rng):
        z = rng.normal(size=(4, 4))
        with pytest.raises(InputError, match="resolved"):
            pmd_rank1(z, SparsityConstraint.nonzero_target(2, "cols"))

    @pytest.mark.parametrize("call, side", [(2, "column"), (3, "row")])
    def test_broken_ascent_raises(self, rng, monkeypatch, call, side):
        # projection calls run: warm start, then row and column per iteration;
        # negating one result lowers the objective on that half-step
        real = sparseca.sparse._l1_project_rows
        calls = itertools.count()

        def worse(x, c):
            u = real(x, c)
            return -u if next(calls) == call else u

        monkeypatch.setattr("sparseca.sparse._l1_project_rows", worse)
        z = rng.normal(size=(8, 6))
        with pytest.raises(SparseCAError, match=f"ascent broken: {side} update"):
            pmd_rank1(z, SparsityConstraint.absolute(2.0, 2.0))

    def test_negative_alpha_raises(self, rng, monkeypatch):
        # a sign-flipping normalization holds the singular-vector start
        # fixed, so no half-step drops and only the final check can fire
        monkeypatch.setattr(
            "sparseca.sparse._l1_project_rows",
            lambda x, c: -x / np.linalg.norm(x, axis=-1, keepdims=True),
        )
        with pytest.raises(SparseCAError, match="negative u'Zv"):
            pmd_rank1(rng.normal(size=(8, 6)), SparsityConstraint.absolute(2.0, 2.0))


class TestRank1Stack:
    """The alternating loop on a stack: every member ends as its own
    ``pmd_rank1`` fit would, whatever else the stack holds."""

    constraints = [
        SparsityConstraint.coupled(0.5),
        SparsityConstraint.unpenalized_rows(1.3),
        SparsityConstraint.absolute(1.2, 1.1),
        SparsityConstraint.coupled(0.9),
        SparsityConstraint.unpenalized_rows(2.0),
        SparsityConstraint.absolute(2.5, 2.4),
        SparsityConstraint.absolute(np.sqrt(8.0), np.sqrt(7.0)),
    ]

    def test_members_equal_their_own_fits(self):
        z = np.random.default_rng(3).normal(size=(7, 8, 7))
        fit = _rank1_fits(z, self.constraints)
        for i, constraint in enumerate(self.constraints):
            own = pmd_rank1(z[i], constraint)
            np.testing.assert_array_equal(fit.u[i], own.u)
            np.testing.assert_array_equal(fit.v[i], own.v)
            assert fit.alpha[i] == own.alpha
            assert (fit.n_iter[i], fit.converged[i]) == (own.n_iter, own.converged)
        # the members stop at different iterations, so the stack is
        # compacted on the way
        assert len(set(fit.n_iter)) >= 4

    def test_only_the_capped_member_warns(self):
        z = np.random.default_rng(3).normal(size=(7, 8, 7))
        own = [pmd_rank1(z[i], c).n_iter for i, c in enumerate(self.constraints)]
        cap = sorted(own)[-1] - 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit = _rank1_fits(z, self.constraints, max_iter=cap)
            _warn_unconverged(fit, stacklevel=1)
        messages = [str(w.message) for w in caught]
        assert len(messages) == 1 and "did not converge in" in messages[0]
        assert list(fit.converged) == [n <= cap for n in own]

    @pytest.mark.parametrize("call, side", [(2, "column"), (3, "row")])
    def test_broken_ascent_of_one_member_raises(self, monkeypatch, call, side):
        # as in the single-fit test, with the result of member 1 alone
        # negated on one projection call
        from sparseca.linalg import _l1_project_rows

        calls = itertools.count()

        def worse(x, c):
            out = _l1_project_rows(x, c)
            if next(calls) == call:
                out[1] = -out[1]
            return out

        monkeypatch.setattr("sparseca.sparse._l1_project_rows", worse)
        z = np.random.default_rng(5).normal(size=(3, 8, 6))
        with pytest.raises(SparseCAError, match=f"ascent broken: {side} update"):
            _rank1_fits(z, [SparsityConstraint.absolute(2.0, 2.0)] * 3)

    def test_member_checks(self):
        # the loop's own checks, so the warm starts are those of ``z``
        z = np.random.default_rng(4).normal(size=(3, 5, 4))
        constraints = [SparsityConstraint.coupled(0.8)] * 3
        start = _leading_svd(z)[1][:, :, 0]
        zero = z.copy()
        zero[1] = 0.0
        with pytest.raises(DegenerateInputError, match="all-zero matrix"):
            _rank1_fits(zero, constraints, start)
        bad = z.copy()
        bad[2, 0, 0] = np.inf
        with pytest.raises(InputError, match="non-finite"):
            _rank1_fits(bad, constraints, start)

    def test_omitted_start_is_the_leading_vector(self):
        stack = np.random.default_rng(6).normal(size=(7, 8, 7))
        shared = stack[0]
        for z, start in ((shared, _leading_svd(shared)[1][:, 0]),
                         (stack, _leading_svd(stack)[1][:, :, 0])):
            own = _rank1_fits(z, self.constraints)
            given = _rank1_fits(z, self.constraints, start)
            for name in own._fields:
                np.testing.assert_array_equal(getattr(own, name), getattr(given, name))


def plain_loop(monkeypatch):
    """Switch extrapolation off: the loop then takes plain steps only."""
    monkeypatch.setattr("sparseca.sparse.ANDERSON_WARMUP", 10**9)


class TestAcceleratedLoop:
    """The safeguarded Anderson steps of the rank-1 loop."""

    @pytest.mark.parametrize(
        "constraint",
        [SparsityConstraint.coupled(0.3), SparsityConstraint.absolute(3.0, 8.0)],
        ids=["sumabs", "sumabsu-sumabsv"],
    )
    def test_slow_fits_converge_within_the_cap(self, monkeypatch, constraint):
        # dimension 2 of `sca --sumabs 0.3` and of `sca --sumabsu 3
        # --sumabsv 8` on the benchmark's first large table: plain steps
        # need 428 and 534 iterations to converge
        z = large_table_residuals(1, 0)
        z = ppmd_deflate(z, pmd_rank1(z, constraint))
        fast = pmd_rank1(z, constraint)
        plain_loop(monkeypatch)
        plain = pmd_rank1(z, constraint, max_iter=1000)
        assert fast.converged and fast.n_iter <= 200
        assert plain.converged and plain.n_iter > 400
        assert (fast.nnz_u, fast.nnz_v) == (plain.nnz_u, plain.nnz_v)
        assert fast.alpha >= plain.alpha * (1 - 1e-12)

    def test_worse_extrapolation_is_refused(self, monkeypatch):
        # every extrapolated point is replaced by a fixed direction, which
        # lowers u'Zv; each such step must give way to the plain step, so
        # the fits end as the plain loop's, bit for bit
        z = large_table_residuals(1, 0)
        grid = np.arange(1.0, 2.6, sparseca.sparse.NNZ_GRID_STEP)
        constraints = [SparsityConstraint.unpenalized_rows(value) for value in grid]
        far = np.random.default_rng(0).normal(size=z.shape[1])
        forced = []

        def worse(v, *history):
            forced.append(len(v))
            return np.tile(far, (len(v), 1)), np.ones(len(v), dtype=bool)

        monkeypatch.setattr("sparseca.sparse._anderson_point", worse)
        fit = _rank1_fits(z, constraints)
        assert forced
        plain_loop(monkeypatch)
        plain = _rank1_fits(z, constraints)
        for name in plain._fields:
            np.testing.assert_array_equal(getattr(fit, name), getattr(plain, name))


class TestPpmdDeflate:
    def test_annihilates_both_directions(self, rng):
        for _ in range(20):
            z = rng.normal(size=(9, 6))
            factor = pmd_rank1(z, SparsityConstraint.absolute(1.8, 1.6))
            deflated = ppmd_deflate(z, factor)
            assert np.abs(deflated @ factor.v).max() <= 1e-12
            assert np.abs(factor.u @ deflated).max() <= 1e-12

    def test_exact_singular_pair_subtracts_component(self, rng):
        z = rng.normal(size=(7, 5))
        u, s, v = full_svd(z)
        factor = pmd_rank1(z, inactive(z.shape))
        deflated = ppmd_deflate(z, factor)
        np.testing.assert_allclose(
            deflated, z - s[0] * np.outer(u[:, 0], v[:, 0]), atol=1e-7
        )
        remaining = np.linalg.svd(deflated, compute_uv=False)
        np.testing.assert_allclose(remaining[:4], s[1:], atol=1e-7)

    def test_rejects_non_unit_weights(self, rng):
        z = rng.normal(size=(5, 4))
        factor = pmd_rank1(z, inactive(z.shape))
        factor.u = factor.u * 2.0
        with pytest.raises(InputError, match="unit-norm"):
            ppmd_deflate(z, factor)


class TestCoordinatesFromWeights:
    def test_exact_singular_vectors_reduce_to_ca(self, rng):
        d = fit_ca(ContingencyTable.from_counts(random_table(rng, 7, 5)))
        for k in range(3):
            a, b = coordinates_from_weights(
                d.residuals,
                d.row_masses,
                d.col_masses,
                d.row_vectors[:, k],
                d.col_vectors[:, k],
                d.eigenvalues[k],
            )
            np.testing.assert_allclose(a, d.row_coords[:, k], atol=1e-10)
            np.testing.assert_allclose(b, d.col_coords[:, k], atol=1e-10)

    def test_weighted_variance_scaling(self, rng):
        d = fit_ca(ContingencyTable.from_counts(random_table(rng, 8, 6)))
        z = d.residuals
        factor = pmd_rank1(z, SparsityConstraint.coupled(0.6))
        lam = float(factor.u @ z @ factor.v) ** 2
        a, b = coordinates_from_weights(
            d.residuals, d.row_masses, d.col_masses, factor.u, factor.v, lam
        )
        assert a**2 @ d.row_masses == pytest.approx(lam, abs=1e-12)
        assert b**2 @ d.col_masses == pytest.approx(lam, abs=1e-12)

    def test_matches_independent_route(self, rng):
        # recompute through the centered frequency matrix instead of the
        # residual matrix
        d = fit_ca(ContingencyTable.from_counts(random_table(rng, 6, 7)))
        p, r, c = d.frequencies, d.row_masses, d.col_masses
        v = np.zeros(7)
        v[[0, 3, 5]] = [0.6, -0.64, 0.48]
        u = rng.normal(size=6)
        u /= np.linalg.norm(u)
        lam = 0.21
        a, _ = coordinates_from_weights(d.residuals, r, c, u, v, lam)
        direct = ((p - np.outer(r, c)) @ (v / np.sqrt(c))) / r
        direct *= np.sqrt(lam / (direct**2 @ r))
        if direct @ (u / np.sqrt(r)) < 0:
            direct = -direct
        np.testing.assert_allclose(a, direct, atol=1e-12)

    def test_rejects_zero_eigenvalue(self, rng):
        d = fit_ca(ContingencyTable.from_counts(random_table(rng, 5, 4)))
        with pytest.raises(DegenerateInputError):
            coordinates_from_weights(
                d.residuals,
                d.row_masses,
                d.col_masses,
                d.row_vectors[:, 0],
                d.col_vectors[:, 0],
                0.0,
            )

    @pytest.mark.parametrize(
        "side, u, v",
        [
            ("column", [1.0, 0.0], [np.sqrt(0.5), np.sqrt(0.5), 0.0]),
            ("row", [0.0, 1.0], [1.0, 0.0, 0.0]),
        ],
    )
    def test_rejects_weights_in_the_null_space(self, side, u, v):
        # z maps the first column weights, and the second row weights, to zero
        z = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
        r, c = np.full(2, 0.5), np.full(3, 1 / 3)
        with pytest.raises(DegenerateInputError, match=f"{side} weights lie in the null space"):
            coordinates_from_weights(z, r, c, np.array(u), np.array(v), 0.5)


class TestColumnSparseCoordinates:
    def test_barycentric_is_transition_image(self, rng):
        d = fit_ca(ContingencyTable.from_counts(random_table(rng, 7, 6)))
        k = 0
        lam = d.eigenvalues[k]
        a = d.row_coords[:, k]
        bary = column_sparse_coordinates(
            d.frequencies, d.row_masses, d.col_masses, a, spread="barycentric"
        )
        np.testing.assert_allclose(
            bary, np.sqrt(lam) * d.col_coords[:, k], atol=1e-10
        )

    def test_rescaled_restores_weighted_variance(self, rng):
        d = fit_ca(ContingencyTable.from_counts(random_table(rng, 7, 6)))
        lam = d.eigenvalues[0]
        b = column_sparse_coordinates(
            d.frequencies,
            d.row_masses,
            d.col_masses,
            d.row_coords[:, 0],
            spread="rescaled",
        )
        assert b**2 @ d.col_masses == pytest.approx(lam, abs=1e-12)
        np.testing.assert_allclose(b, d.col_coords[:, 0], atol=1e-10)

    def test_independence_collapses_to_origin(self):
        r = np.array([0.3, 0.2, 0.5])
        c = np.array([0.25, 0.75])
        p = np.outer(r, c)
        a = np.array([1.0, 1.0, -1.0])
        a -= a @ r
        bary = column_sparse_coordinates(p, r, c, a, spread="barycentric")
        np.testing.assert_allclose(bary, 0.0, atol=1e-14)
        with pytest.raises(DegenerateInputError):
            column_sparse_coordinates(p, r, c, a, spread="rescaled")

    def test_unknown_spread(self, rng):
        d = fit_ca(ContingencyTable.from_counts(random_table(rng, 5, 4)))
        with pytest.raises(InputError):
            column_sparse_coordinates(
                d.frequencies,
                d.row_masses,
                d.col_masses,
                d.row_coords[:, 0],
                spread="projected",
            )


class TestNnzTargetSearch:
    def test_target_one_returns_grid_start(self, rng):
        z = rng.normal(size=(8, 6))
        result = nnz_target_search(z, 1, axis="cols")
        assert result.value == 1.0
        assert result.nnz >= 1
        assert result.target_met

    def test_smallest_feasible_grid_value(self, rng):
        z = rng.normal(size=(9, 7))
        result = nnz_target_search(z, 4, axis="cols")
        assert result.target_met
        assert result.nnz >= 4
        # exhaustive recheck: every smaller grid value falls short
        for value in np.arange(1.0, result.value - 1e-9, 0.2):
            factor = pmd_rank1(z, SparsityConstraint.unpenalized_rows(value))
            assert factor.nnz_v < 4

    def test_rows_axis(self, rng):
        z = rng.normal(size=(9, 7))
        result = nnz_target_search(z, 3, axis="rows")
        factor = pmd_rank1(
            z, SparsityConstraint.absolute(result.value, np.sqrt(7.0))
        )
        assert factor.nnz_u == result.nnz >= 3

    def test_unreachable_target_warns(self, rng):
        z = rng.normal(size=(6, 5))
        z[:, 2] = 0.0
        with pytest.warns(UserWarning, match="closest"):
            result = nnz_target_search(z, 5, axis="cols")
        assert not result.target_met
        assert result.nnz < 5

    def test_one_svd_per_search(self, rng, svd_calls):
        z = rng.normal(size=(12, 30))
        result = nnz_target_search(z, 20, axis="cols")
        assert result.value > 2.0
        assert svd_calls == [(12, 30)]

    def test_bad_target(self, rng):
        z = rng.normal(size=(6, 5))
        with pytest.raises(InputError):
            nnz_target_search(z, 6, axis="cols")
        with pytest.raises(InputError):
            nnz_target_search(z, 2, axis="sideways")


class TestExplainedVariance:
    def test_full_right_basis_explains_everything(self, rng):
        z = rng.normal(size=(8, 5))
        _, _, v = full_svd(z)
        assert explained_variance(z, v) == pytest.approx(1.0, abs=1e-10)

    def test_leading_vector_share(self, rng):
        z = rng.normal(size=(8, 5))
        _, s, v = full_svd(z)
        expected = s[0] ** 2 / (s**2).sum()
        assert explained_variance(z, v[:, 0]) == pytest.approx(expected, abs=1e-10)

    def test_projector_trace_oracle(self, rng):
        # orthonormal columns: projection simplifies to V V', computed
        # here via an explicit projector trace
        z = rng.normal(size=(9, 6))
        basis, _ = np.linalg.qr(rng.normal(size=(6, 2)))
        projector = basis @ basis.T
        oracle = np.trace(projector @ z.T @ z @ projector) / np.trace(z.T @ z)
        assert explained_variance(z, basis) == pytest.approx(oracle, abs=1e-10)

    def test_rank_deficient_columns_warn(self, rng):
        z = rng.normal(size=(6, 4))
        v = rng.normal(size=4)
        v /= np.linalg.norm(v)
        stacked = np.column_stack([v, v])
        with pytest.warns(UserWarning, match="dependent"):
            value = explained_variance(z, stacked)
        assert value == pytest.approx(explained_variance(z, v), abs=1e-10)

    def test_bounds(self, rng):
        for _ in range(10):
            z = rng.normal(size=(7, 5))
            v = rng.normal(size=(5, 2))
            assert 0.0 <= explained_variance(z, v) <= 1.0


class TestFitSparseCa:
    def test_no_penalty_matches_standard_ca(self, rng):
        t = ContingencyTable.from_counts(random_table(rng, 8, 6))
        d = fit_ca(t, n_dims=2)
        model = fit_sparse_ca(
            t, [inactive(t.shape)] * 2, variant="doubly_sparse"
        )
        for k in range(2):
            sign = np.sign(model.row_coords[0, k] * d.row_coords[0, k]) or 1.0
            np.testing.assert_allclose(
                model.row_coords[:, k], sign * d.row_coords[:, k], atol=1e-6
            )
            np.testing.assert_allclose(
                model.col_coords[:, k], sign * d.col_coords[:, k], atol=1e-6
            )
            assert model.factors[k].eigenvalue == pytest.approx(
                d.eigenvalues[k], abs=1e-8
            )

    def test_deflation_chain_annihilation(self, rng):
        t = ContingencyTable.from_counts(random_table(rng, 9, 7))
        model = fit_sparse_ca(t, [SparsityConstraint.coupled(0.6)] * 3)
        z = model.residuals
        for factor in model.factors:
            deflated = ppmd_deflate(z, factor)
            assert np.abs(deflated @ factor.v).max() <= 1e-12
            assert np.abs(factor.u @ deflated).max() <= 1e-12
            z = deflated

    def test_factor_feasibility(self, rng):
        t = ContingencyTable.from_counts(random_table(rng, 9, 7))
        model = fit_sparse_ca(t, [SparsityConstraint.coupled(0.55)] * 2)
        bu, bv = SparsityConstraint.coupled(0.55).budgets(t.shape)
        for factor in model.factors:
            assert np.abs(factor.u).sum() <= bu + 1e-8
            assert np.abs(factor.v).sum() <= bv + 1e-8

    def test_eigenvalue_measured_on_original_residuals(self, rng):
        t = ContingencyTable.from_counts(random_table(rng, 8, 7))
        model = fit_sparse_ca(t, [SparsityConstraint.coupled(0.6)] * 2)
        f2 = model.factors[1]
        assert f2.alpha == pytest.approx(
            abs(f2.u @ model.residuals @ f2.v), abs=1e-12
        )
        assert f2.alpha >= 0

    def test_weights_differ_from_coordinates(self, rng):
        t = ContingencyTable.from_counts(random_table(rng, 9, 8))
        model = fit_sparse_ca(t, SparsityConstraint.coupled(0.5))
        factor = model.factors[0]
        assert factor.nnz_v < 8
        b = model.col_coords[:, 0]
        cosine = abs(factor.v @ b) / (np.linalg.norm(factor.v) * np.linalg.norm(b))
        assert cosine < 1.0 - 1e-6

    def test_dimensions_past_roundoff_rejected(self):
        # music has residual rank 6: six unpenalized dimensions leave about
        # 1e-32 of the squared norm, so a seventh has nothing to fit
        music = colors_of_music()
        assert fit_sparse_ca(music, [SparsityConstraint.coupled(1.0)] * 6).n_dims == 6
        with pytest.raises(DegenerateInputError, match="roundoff"):
            fit_sparse_ca(music, [SparsityConstraint.coupled(1.0)] * 7)

    def test_explained_fractions_behave(self, rng):
        t = ContingencyTable.from_counts(random_table(rng, 9, 8))
        model = fit_sparse_ca(t, [SparsityConstraint.coupled(0.7)] * 4)
        assert np.all(model.explained_ratios >= 0.0)
        assert np.all(model.explained_cumulative <= 1.0 + 1e-12)
        assert np.all(np.diff(model.explained_cumulative) >= -1e-12)
        np.testing.assert_allclose(
            model.explained_cumulative,
            np.cumsum(model.explained_ratios),
            atol=1e-10,
        )

    def test_gram_report(self, rng):
        # the products the SparseCAModel docstring gives
        t = ContingencyTable.from_counts(random_table(rng, 9, 8))
        model = fit_sparse_ca(t, [SparsityConstraint.coupled(0.6)] * 2)
        u_gram = model.row_weights.T @ model.row_weights
        v_gram = model.col_weights.T @ model.col_weights
        a_gram = model.row_coords.T @ (model.row_coords * model.row_masses[:, None])
        b_gram = model.col_coords.T @ (model.col_coords * model.col_masses[:, None])
        np.testing.assert_allclose(np.diag(u_gram), 1.0, atol=1e-9)
        np.testing.assert_allclose(np.diag(v_gram), 1.0, atol=1e-9)
        np.testing.assert_allclose(
            np.diag(a_gram), model.eigenvalues, atol=1e-10
        )
        np.testing.assert_allclose(
            np.diag(b_gram), model.eigenvalues, atol=1e-10
        )

    def test_column_sparse_variant(self, rng):
        t = ContingencyTable.from_counts(random_table(rng, 10, 8))
        model = fit_sparse_ca(
            t,
            [SparsityConstraint.unpenalized_rows(1.6)] * 2,
            variant="column_sparse",
        )
        for k, factor in enumerate(model.factors):
            assert factor.nnz_u == 10
            b = model.col_coords[:, k]
            assert b**2 @ model.col_masses == pytest.approx(
                factor.eigenvalue, abs=1e-10
            )

    def test_column_sparse_barycentric(self, rng):
        t = ContingencyTable.from_counts(random_table(rng, 10, 8))
        model = fit_sparse_ca(
            t,
            SparsityConstraint.unpenalized_rows(1.6),
            variant="column_sparse",
            col_scale="barycentric",
        )
        a = model.row_coords[:, 0]
        expected = (model.frequencies.T @ a) / model.col_masses
        np.testing.assert_allclose(model.col_coords[:, 0], expected, atol=1e-12)

    def test_column_sparse_rejects_doubly_constraints(self, rng):
        t = ContingencyTable.from_counts(random_table(rng, 6, 5))
        with pytest.raises(InputError, match="column_sparse"):
            fit_sparse_ca(
                t, SparsityConstraint.coupled(0.6), variant="column_sparse"
            )

    def test_column_sparse_rejects_row_targets(self, rng):
        t = ContingencyTable.from_counts(random_table(rng, 6, 5))
        with pytest.raises(InputError, match="column_sparse"):
            fit_sparse_ca(
                t, SparsityConstraint.nonzero_target(3, "rows"), variant="column_sparse"
            )

    def test_nonzero_target_resolution(self, rng):
        t = ContingencyTable.from_counts(random_table(rng, 10, 8))
        model = fit_sparse_ca(
            t,
            SparsityConstraint.nonzero_target(4, "cols"),
            variant="column_sparse",
        )
        assert model.factors[0].nnz_v >= 4

    def test_one_svd_per_dimension_with_nonzero_target(self, rng, svd_calls):
        t = ContingencyTable.from_counts(random_table(rng, 12, 30, total=3000))
        model = fit_sparse_ca(
            t,
            [SparsityConstraint.nonzero_target(20, "cols")] * 2,
            variant="column_sparse",
        )
        assert [f.nnz_v >= 20 for f in model.factors] == [True, True]
        assert svd_calls == [(12, 30), (12, 30)]

    @pytest.mark.filterwarnings("ignore:rank-1 fit did not converge")
    @pytest.mark.parametrize(
        "variant, target, refits",
        [("column_sparse", SparsityConstraint.nonzero_target(20, "cols"), 0),
         ("doubly_sparse", SparsityConstraint.nonzero_target(5, "rows"), 0),
         ("doubly_sparse", SparsityConstraint.nonzero_target(20, "cols"), 0)],
    )
    def test_nonzero_target_keeps_the_walks_fit(self, rng, monkeypatch, variant, target, refits):
        # a dimension fitted at the budget the walk found is the walk's own
        # fit, not a second one
        t = ContingencyTable.from_counts(random_table(rng, 12, 30, total=3000))
        real = sparseca.sparse.pmd_rank1
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr("sparseca.sparse.pmd_rank1", counting)
        model = fit_sparse_ca(t, [target] * 2, variant=variant)
        assert len(calls) == refits
        z = model.residuals
        for factor in model.factors:
            own = real(z, factor.constraint)
            np.testing.assert_array_equal(factor.v, own.v)
            sign = 1.0 if np.array_equal(factor.u, own.u) else -1.0
            np.testing.assert_array_equal(factor.u, sign * own.u)
            assert (factor.n_iter, factor.converged) == (own.n_iter, own.converged)
            z = ppmd_deflate(z, factor)

    def test_dimension_rule_matches_fit_ca(self, rng):
        # one rule, with fit_ca's messages, for both fits
        row = ContingencyTable.from_counts([[3, 1, 2]])
        with pytest.raises(InputError, match="at least two rows and two columns"):
            fit_ca(row)
        with pytest.raises(InputError, match="at least two rows and two columns"):
            fit_sparse_ca(row, SparsityConstraint.coupled(0.9))
        t = ContingencyTable.from_counts(random_table(rng, 5, 4))
        with pytest.raises(InputError, match=r"n_dims must be in \[1, 3\], got 0"):
            fit_sparse_ca(t, [])

    def test_dimension_validation(self, rng):
        t = ContingencyTable.from_counts(random_table(rng, 5, 4))
        with pytest.raises(InputError, match=r"n_dims must be in \[1, 3\], got 4"):
            fit_sparse_ca(t, [SparsityConstraint.coupled(0.6)] * 4)


class TestSparseContributions:
    def test_reduces_to_standard_formula_when_dense(self, rng):
        t = ContingencyTable.from_counts(random_table(rng, 7, 6))
        model = fit_sparse_ca(t, [inactive(t.shape)] * 2)
        tab = contributions(model)
        for k in range(2):
            direct = (
                model.row_masses
                * model.row_coords[:, k] ** 2
                / model.factors[k].eigenvalue
            )
            np.testing.assert_allclose(tab.row_contrib[:, k], direct, atol=1e-12)
        assert np.any(model.row_weights != 0.0, axis=1).all()
        assert np.any(model.col_weights != 0.0, axis=1).all()

    def test_axis_columns_sum_to_one(self, rng):
        t = ContingencyTable.from_counts(random_table(rng, 8, 7))
        model = fit_sparse_ca(t, [SparsityConstraint.coupled(0.6)] * 2)
        tab = contributions(model)
        np.testing.assert_allclose(tab.row_contrib.sum(axis=0), 1.0, atol=1e-10)
        np.testing.assert_allclose(tab.col_contrib.sum(axis=0), 1.0, atol=1e-10)

    def test_zero_weight_flags(self, rng):
        t = ContingencyTable.from_counts(random_table(rng, 9, 8))
        model = fit_sparse_ca(t, [SparsityConstraint.coupled(0.42)] * 2)
        weights = model.col_weights
        assert weights.shape == (8, 2)
        assert (weights == 0.0).any()
        for k, factor in enumerate(model.factors):
            np.testing.assert_array_equal(weights[:, k], factor.v)
