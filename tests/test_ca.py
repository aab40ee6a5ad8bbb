import numpy as np
import pytest

from sparseca.ca import (
    CADecomposition,
    ContingencyTable,
    contributions,
    correspondence_matrix,
    fit_ca,
    standardized_residuals,
    total_inertia,
)
from sparseca.errors import DegenerateInputError, InputError, SingularMarginError

from conftest import random_table


def eigen_oracle(counts):
    """Eigenvalues of the row-profile transition operator, trivial 1 dropped.

    Computed through a symmetric eigendecomposition, independent of the
    SVD route used by the fit.
    """
    p = counts / counts.sum()
    r = p.sum(axis=1)
    c = p.sum(axis=0)
    sym = (p / np.sqrt(r)[:, None]) @ np.diag(1.0 / c) @ (p / np.sqrt(r)[:, None]).T
    evals = np.sort(np.linalg.eigvalsh(sym))[::-1]
    assert evals[0] == pytest.approx(1.0, abs=1e-10)
    return np.clip(evals[1:], 0.0, None)


class TestContingencyTable:
    def test_valid_construction(self):
        t = ContingencyTable([[1, 2], [3, 4]], ["a", "b"], ["x", "y"])
        assert t.shape == (2, 2)
        assert t.total == 10.0

    def test_real_valued_entries_accepted(self):
        t = ContingencyTable([[0.5, 1.5], [2.0, 0.25]], ["a", "b"], ["x", "y"])
        assert t.total == pytest.approx(4.25)

    def test_zero_row_names_offender(self):
        with pytest.raises(SingularMarginError, match="'middle'"):
            ContingencyTable(
                [[1, 2], [0, 0], [3, 4]], ["top", "middle", "bottom"], ["x", "y"]
            )

    def test_zero_column_names_offender(self):
        with pytest.raises(SingularMarginError, match="column.*'y'"):
            ContingencyTable([[1, 0], [2, 0]], ["a", "b"], ["x", "y"])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InputError, match="duplicate"):
            ContingencyTable([[1, 2], [3, 4]], ["a", "a"], ["x", "y"])

    def test_negative_entry_rejected(self):
        with pytest.raises(InputError, match="negative"):
            ContingencyTable([[1, -2], [3, 4]], ["a", "b"], ["x", "y"])

    def test_label_length_mismatch(self):
        with pytest.raises(InputError):
            ContingencyTable([[1, 2], [3, 4]], ["a"], ["x", "y"])

    def test_from_counts_generates_labels(self):
        t = ContingencyTable.from_counts([[1, 2], [3, 4]])
        assert t.row_labels == ["r1", "r2"]
        assert t.col_labels == ["c1", "c2"]

    def test_from_counts_drop_empty(self):
        t = ContingencyTable.from_counts(
            [[1, 0, 2], [0, 0, 0], [3, 0, 4]],
            ["a", "b", "c"],
            ["x", "y", "z"],
            drop_empty=True,
        )
        assert t.row_labels == ["a", "c"]
        assert t.col_labels == ["x", "z"]
        np.testing.assert_array_equal(t.counts, [[1, 2], [3, 4]])


class TestCorrespondenceMatrix:
    def test_uniform_table(self):
        t = ContingencyTable([[1, 1], [1, 1]], ["a", "b"], ["x", "y"])
        p, r, c = correspondence_matrix(t)
        np.testing.assert_allclose(p, 0.25)
        np.testing.assert_allclose(r, [0.5, 0.5])
        np.testing.assert_allclose(c, [0.5, 0.5])

    def test_margins_match_summation_oracle(self, rng):
        counts = random_table(rng, 5, 4)
        t = ContingencyTable.from_counts(counts)
        p, r, c = correspondence_matrix(t)
        n = counts.sum()
        for i in range(5):
            assert r[i] == pytest.approx(sum(counts[i, j] for j in range(4)) / n)
        for j in range(4):
            assert c[j] == pytest.approx(sum(counts[i, j] for i in range(5)) / n)


class TestStandardizedResiduals:
    def test_independence_gives_zero(self):
        r = np.array([0.2, 0.3, 0.5])
        c = np.array([0.6, 0.4])
        p = np.outer(r, c)
        np.testing.assert_allclose(standardized_residuals(p, r, c), 0.0, atol=1e-15)

    def test_elementwise_formula(self, rng):
        counts = random_table(rng, 6, 5)
        p, r, c = correspondence_matrix(ContingencyTable.from_counts(counts))
        z = standardized_residuals(p, r, c)
        for i in range(6):
            for j in range(5):
                direct = (p[i, j] - r[i] * c[j]) / np.sqrt(r[i] * c[j])
                assert z[i, j] == pytest.approx(direct, abs=1e-15)

    def test_frobenius_norm_is_total_inertia(self, rng):
        t = ContingencyTable.from_counts(random_table(rng, 7, 4))
        p, r, c = correspondence_matrix(t)
        z = standardized_residuals(p, r, c)
        assert (z**2).sum() == pytest.approx(total_inertia(t), abs=1e-12)

    def test_underflowing_margin_product_rejected(self):
        # both margins are positive, but 1e-300 * 1e-300 is 0 in floating point
        r = np.array([1e-300, 1.0])
        c = np.array([1.0, 1e-300])
        with pytest.raises(DegenerateInputError, match="products must be strictly positive"):
            standardized_residuals(np.array([[0.0, 1e-300], [1.0, 0.0]]), r, c)


class TestFitCa:
    def test_two_by_two_single_axis(self):
        t = ContingencyTable([[2, 0], [0, 2]], ["a", "b"], ["x", "y"])
        d = fit_ca(t)
        assert d.eigenvalues.shape == (1,)
        assert d.eigenvalues[0] == pytest.approx(total_inertia(t), abs=1e-12)
        assert d.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)

    def test_eigenvalues_match_eigen_oracle(self, rng):
        counts = random_table(rng, 7, 5)
        d = fit_ca(ContingencyTable.from_counts(counts))
        oracle = eigen_oracle(counts)
        np.testing.assert_allclose(d.eigenvalues, oracle[:4], atol=1e-10)
        np.testing.assert_allclose(oracle[4:], 0.0, atol=1e-10)

    def test_eigen_oracle_many_shapes(self, rng):
        for _ in range(25):
            shape = rng.integers(2, 9, size=2)
            counts = random_table(rng, *shape)
            d = fit_ca(ContingencyTable.from_counts(counts))
            oracle = eigen_oracle(counts)
            k = d.eigenvalues.size
            np.testing.assert_allclose(d.eigenvalues, oracle[:k], atol=1e-10)

    def test_transition_formulas(self, rng):
        counts = random_table(rng, 8, 6)
        d = fit_ca(ContingencyTable.from_counts(counts))
        p, r, c = d.frequencies, d.row_masses, d.col_masses
        for k in range(d.n_dims):
            lam = d.eigenvalues[k]
            if lam < 1e-12:
                continue
            a, b = d.row_coords[:, k], d.col_coords[:, k]
            np.testing.assert_allclose(
                a, (p @ b) / r / np.sqrt(lam), atol=1e-10
            )
            np.testing.assert_allclose(
                b, (p.T @ a) / c / np.sqrt(lam), atol=1e-10
            )

    def test_weighted_variance_equals_eigenvalue(self, rng):
        d = fit_ca(ContingencyTable.from_counts(random_table(rng, 6, 9)))
        for k in range(d.n_dims):
            a, b = d.row_coords[:, k], d.col_coords[:, k]
            assert a**2 @ d.row_masses == pytest.approx(d.eigenvalues[k], abs=1e-10)
            assert b**2 @ d.col_masses == pytest.approx(d.eigenvalues[k], abs=1e-10)

    def test_trivial_solution_appears_unscaled(self, rng):
        # factorizing the margin-scaled frequencies directly adds one
        # extra unit singular value on top of the fitted spectrum
        counts = random_table(rng, 6, 5)
        d = fit_ca(ContingencyTable.from_counts(counts))
        p, r, c = d.frequencies, d.row_masses, d.col_masses
        scaled = p / np.sqrt(r)[:, None] / np.sqrt(c)[None, :]
        sigma = np.linalg.svd(scaled, compute_uv=False)
        assert sigma[0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(sigma[1:] ** 2, d.eigenvalues, atol=1e-10)

    def test_inertia_sum_identity(self, rng):
        for _ in range(10):
            t = ContingencyTable.from_counts(random_table(rng, 5, 5))
            d = fit_ca(t)
            assert d.eigenvalues.sum() == pytest.approx(
                total_inertia(t), abs=1e-10
            )

    def test_n_dims_restriction(self, rng):
        t = ContingencyTable.from_counts(random_table(rng, 6, 5))
        d = fit_ca(t, n_dims=2)
        assert d.row_coords.shape == (6, 2)
        assert d.col_coords.shape == (5, 2)
        assert d.eigenvalues.shape == (4,)

    def test_n_dims_too_large(self, rng):
        t = ContingencyTable.from_counts(random_table(rng, 4, 4))
        with pytest.raises(InputError):
            fit_ca(t, n_dims=4)


class TestTotalInertia:
    def test_independence_table(self):
        t = ContingencyTable([[6, 4], [3, 2]], ["a", "b"], ["x", "y"])
        assert total_inertia(t) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal_two_by_two(self):
        t = ContingencyTable([[2, 0], [0, 2]], ["a", "b"], ["x", "y"])
        assert total_inertia(t) == pytest.approx(1.0, abs=1e-14)

    def test_underflowing_margins_raise(self):
        # (P - rc')² / rc' is 0 / 0 here: a NaN, which passes a `<= 1e-14` test
        t = ContingencyTable([[0, 1e-300], [1, 0]], ["x", "y"], ["a", "b"])
        with pytest.raises(DegenerateInputError, match="products must be strictly positive"):
            total_inertia(t)


class TestContributions:
    def test_symmetric_table_splits_evenly(self):
        t = ContingencyTable([[2, 0], [0, 2]], ["a", "b"], ["x", "y"])
        ct = contributions(fit_ca(t))
        np.testing.assert_allclose(ct.row_contrib[:, 0], [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(ct.col_contrib[:, 0], [0.5, 0.5], atol=1e-12)
        assert not ct.degenerate.any()

    def test_columns_sum_to_one(self, rng):
        d = fit_ca(ContingencyTable.from_counts(random_table(rng, 7, 6)))
        ct = contributions(d)
        live = ~ct.degenerate
        np.testing.assert_allclose(ct.row_contrib[:, live].sum(axis=0), 1.0, atol=1e-10)
        np.testing.assert_allclose(ct.col_contrib[:, live].sum(axis=0), 1.0, atol=1e-10)

    def test_matches_direct_formula(self, rng):
        d = fit_ca(ContingencyTable.from_counts(random_table(rng, 5, 6)))
        ct = contributions(d)
        for k in range(d.n_dims):
            if ct.degenerate[k]:
                continue
            for i in range(5):
                direct = d.row_masses[i] * d.row_coords[i, k] ** 2 / d.eigenvalues[k]
                assert ct.row_contrib[i, k] == pytest.approx(direct, abs=1e-12)

    def test_degenerate_axis_flagged(self):
        # independence table: every axis carries zero inertia
        t = ContingencyTable([[6, 4], [3, 2]], ["a", "b"], ["x", "y"])
        ct = contributions(fit_ca(t))
        assert ct.degenerate.all()
        np.testing.assert_array_equal(ct.row_contrib, 0.0)
