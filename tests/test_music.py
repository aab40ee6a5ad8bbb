"""Checks on the bundled color-by-music survey table.

The headline numbers asserted here (inertia share, nonzero pattern,
pseudo-eigenvalues, explained shares, near-orthogonality) are the
documented reference results for this dataset; the acceptance suite
re-checks them together with the tuning optima.
"""

import numpy as np
import pytest

from sparseca.ca import fit_ca
from sparseca.datasets import MUSIC_COLS, MUSIC_ROWS, colors_of_music
from sparseca.sparse import SparsityConstraint, fit_sparse_ca


@pytest.fixture(scope="module")
def table():
    return colors_of_music()


@pytest.fixture(scope="module")
def coupled_fit(table):
    return fit_sparse_ca(table, [SparsityConstraint.coupled(0.52),
                                 SparsityConstraint.coupled(0.61)])


class TestDataset:
    def test_shape_and_labels(self, table):
        assert table.counts.shape == (10, 9)
        assert table.row_labels == MUSIC_ROWS
        assert table.col_labels == MUSIC_COLS
        assert "Black" in table.row_labels and "Low F" in table.col_labels

    def test_balanced_design(self, table):
        # one choice per listener, 22 listeners per excerpt
        assert (table.counts.sum(axis=0) == 22).all()
        assert table.counts.sum() == 198
        assert (table.counts == np.round(table.counts)).all()
        assert (table.counts >= 0).all()

    def test_every_color_was_chosen(self, table):
        assert (table.counts.sum(axis=1) > 0).all()


class TestStandardCA:
    def test_first_two_dimensions_carry_about_two_thirds(self, table):
        model = fit_ca(table)
        share = (model.eigenvalues[0] + model.eigenvalues[1]) / model.total_inertia
        assert share == pytest.approx(0.65, abs=0.01)

    def test_spectrum_length_and_positivity(self, table):
        model = fit_ca(table)
        assert model.eigenvalues.size == 8
        assert (model.eigenvalues >= 0).all()
        assert model.eigenvalues[0] >= model.eigenvalues[-1]


class TestCoupledFit:
    def test_dim1_keeps_six_colors_three_excerpts(self, coupled_fit):
        f1 = coupled_fit.factors[0]
        assert (f1.nnz_u, f1.nnz_v) == (6, 3)

    def test_budgets_scale_with_axis_lengths(self, coupled_fit):
        bu, bv = coupled_fit.factors[0].constraint.budgets((10, 9))
        assert bu == pytest.approx(0.52 * np.sqrt(10))
        assert bv == pytest.approx(0.52 * 3.0)

    def test_pseudo_eigenvalues(self, coupled_fit):
        lam1, lam2 = coupled_fit.eigenvalues
        assert lam1 == pytest.approx(0.2277, abs=0.01)
        assert lam2 == pytest.approx(0.1175, abs=0.01)

    def test_explained_shares(self, coupled_fit):
        er1, er2 = coupled_fit.explained_ratios
        assert er1 == pytest.approx(0.305, abs=0.02)
        assert er2 == pytest.approx(0.1828, abs=0.02)

    def test_weight_vectors_stay_nearly_orthogonal(self, coupled_fit):
        f1, f2 = coupled_fit.factors
        assert abs(np.dot(f1.u, f2.u)) <= 0.05
        assert abs(np.dot(f1.v, f2.v)) <= 0.05

    def test_gram_report_matches_direct_products(self, coupled_fit):
        # the coordinate products the SparseCAModel docstring gives
        a, b = coupled_fit.row_coords, coupled_fit.col_coords
        a_gram = a.T @ (a * coupled_fit.row_masses[:, None])
        b_gram = b.T @ (b * coupled_fit.col_masses[:, None])
        assert abs(a_gram[0, 1]) <= 0.2
        assert abs(b_gram[0, 1]) <= 0.2

    def test_coordinate_variances_equal_pseudo_eigenvalues(self, coupled_fit):
        for k, lam in enumerate(coupled_fit.eigenvalues):
            a = coupled_fit.row_coords[:, k]
            var = float(a ** 2 @ coupled_fit.row_masses)
            assert var == pytest.approx(float(lam), rel=1e-10)

    def test_row_coordinates_are_scaled_images_of_column_weights(self, coupled_fit):
        f1 = coupled_fit.factors[0]
        z = coupled_fit.residuals
        r = coupled_fit.row_masses
        image = (z @ f1.v) / np.sqrt(r)
        image *= np.sqrt(float(coupled_fit.eigenvalues[0])) / np.linalg.norm(z @ f1.v)
        a1 = coupled_fit.row_coords[:, 0]
        flip = 1.0 if float(image @ (f1.u / np.sqrt(r))) >= 0 else -1.0
        np.testing.assert_allclose(a1, flip * image, atol=1e-10)
