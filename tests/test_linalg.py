import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sparseca.errors import DegenerateInputError, InputError
from sparseca.linalg import full_svd, l1_constrained_unit_vector, soft_threshold


class TestFullSvd:
    def test_reconstruction_and_orthonormality(self, rng):
        for shape in [(7, 5), (5, 7), (12, 12), (1, 4), (4, 1)]:
            x = rng.normal(size=shape)
            u, s, v = full_svd(x)
            k = min(shape)
            assert u.shape == (shape[0], k)
            assert s.shape == (k,)
            assert v.shape == (shape[1], k)
            np.testing.assert_allclose(u @ np.diag(s) @ v.T, x, atol=1e-10)
            np.testing.assert_allclose(u.T @ u, np.eye(k), atol=1e-10)
            np.testing.assert_allclose(v.T @ v, np.eye(k), atol=1e-10)
            assert np.all(np.diff(s) <= 1e-12)
            assert np.all(s >= 0)

    def test_matches_eigendecomposition_oracle(self, rng):
        # singular values squared are the eigenvalues of x.T @ x
        x = rng.normal(size=(30, 20))
        _, s, v = full_svd(x)
        evals, evecs = np.linalg.eigh(x.T @ x)
        evals, evecs = evals[::-1], evecs[:, ::-1]
        np.testing.assert_allclose(s**2, evals, atol=1e-8)
        for k in range(v.shape[1]):
            dot = abs(v[:, k] @ evecs[:, k])
            assert dot == pytest.approx(1.0, abs=1e-8)

    def test_large_matrix_reconstruction(self, rng):
        x = rng.normal(size=(500, 500))
        u, s, v = full_svd(x)
        assert np.abs(u @ np.diag(s) @ v.T - x).max() < 1e-8

    def test_sign_convention(self, rng):
        for _ in range(20):
            x = rng.normal(size=(8, 6))
            _, _, v = full_svd(x)
            for k in range(v.shape[1]):
                anchor = np.abs(v[:, k]).argmax()
                assert v[anchor, k] > 0

    def test_deterministic(self, rng):
        x = rng.normal(size=(9, 4))
        first = full_svd(x)
        second = full_svd(x.copy())
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            full_svd(np.ones(3))
        with pytest.raises(InputError):
            full_svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestSoftThreshold:
    def test_hand_values(self):
        x = np.array([3.0, -2.0, 0.5, 0.0])
        np.testing.assert_allclose(soft_threshold(x, 1.0), [2.0, -1.0, 0.0, 0.0])
        np.testing.assert_allclose(soft_threshold(x, 0.0), x)

    @given(
        hnp.arrays(float, 6, elements=st.floats(-50, 50)),
        st.floats(0, 60),
    )
    def test_magnitude_property(self, x, t):
        out = soft_threshold(x, t)
        np.testing.assert_allclose(np.abs(out), np.clip(np.abs(x) - t, 0, None))
        assert np.all(out * x >= 0)


class TestL1ConstrainedUnitVector:
    def test_inactive_constraint_returns_normalized_input(self):
        x = np.array([3.0, 4.0])
        u = l1_constrained_unit_vector(x, np.sqrt(2.0))
        np.testing.assert_allclose(u, [0.6, 0.8])

    def test_budget_one_is_one_sparse(self):
        u = l1_constrained_unit_vector(np.array([1.0, -5.0, 4.0]), 1.0)
        np.testing.assert_array_equal(u, [0.0, -1.0, 0.0])

    def test_budget_one_tie_breaks_low(self):
        u = l1_constrained_unit_vector(np.array([2.0, -2.0, 1.0]), 1.0)
        np.testing.assert_array_equal(u, [1.0, 0.0, 0.0])

    def test_matches_threshold_sweep_oracle(self):
        # brute force over thresholds: best feasible objective within the
        # soft-thresholded family the exact projection solves in closed form
        x = np.array([3.0, 2.0, 1.0])
        c = 1.3
        best = -np.inf
        for delta in np.arange(0.0, 3.0, 1e-5):
            shrunk = soft_threshold(x, delta)
            norm = np.linalg.norm(shrunk)
            if norm == 0:
                continue
            cand = shrunk / norm
            if np.abs(cand).sum() <= c + 1e-8:
                best = max(best, float(x @ cand))
        u = l1_constrained_unit_vector(x, c)
        assert np.abs(u).sum() <= c + 1e-6
        assert x @ u == pytest.approx(best, abs=1e-4)

    def test_constraint_active_at_optimum(self, rng):
        for _ in range(50):
            n = rng.integers(2, 12)
            x = rng.normal(size=n)
            c = float(rng.uniform(1.0, np.sqrt(n)))
            u = l1_constrained_unit_vector(x, c)
            assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-9)
            assert np.abs(u).sum() <= c + 1e-6

    def test_binding_budget_is_met_exactly(self, rng):
        # budgets at sqrt(k) sit on the breakpoints between survivor counts
        binding = 0
        for trial in range(400):
            n = int(rng.integers(2, 300))
            x = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
            if trial % 2:
                c = float(np.sqrt(rng.integers(1, n + 1)))
            else:
                c = float(rng.uniform(1.0, np.sqrt(n)))
            a = np.abs(x)
            if c == 1.0 or a.sum() <= c * np.linalg.norm(x):
                continue
            assert np.count_nonzero(a == a.max()) == 1
            binding += 1
            u = l1_constrained_unit_vector(x, c)
            assert abs(np.abs(u).sum() - c) <= 1e-10 * c
        assert binding > 200

    def test_near_tied_maxima_stay_feasible(self):
        # maxima one ulp apart: no threshold is representable between them
        top = np.nextafter(1.0, 2.0)
        for x in ([top, 1.0, np.nextafter(1.0, 0.0), 0.5], [10.0, np.nextafter(10.0, 11.0)]):
            x = np.array(x)
            for c in (1.0015, 1.2, np.sqrt(2.0) - 1e-12):
                u = l1_constrained_unit_vector(x, c)
                assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
                assert np.abs(u).sum() <= c * (1 + 1e-12)
                assert x @ u >= np.abs(x).max() * (1 - 1e-12)

    def test_budget_at_tie_count_spreads_over_ties(self):
        x = np.array([2.0, -2.0, 2.0, 1.0])
        u = l1_constrained_unit_vector(x, np.sqrt(3.0))
        np.testing.assert_allclose(u, np.array([1.0, -1.0, 1.0, 0.0]) / np.sqrt(3.0))

    def test_tied_maxima_fall_back_to_one_sparse(self):
        u = l1_constrained_unit_vector(np.ones(4), 1.2)
        np.testing.assert_array_equal(u, [1.0, 0.0, 0.0, 0.0])

    @settings(max_examples=60)
    @given(
        hnp.arrays(
            float,
            5,
            elements=st.floats(-10, 10, allow_nan=False),
        ).filter(lambda x: np.linalg.norm(x) > 1e-3),
        st.floats(1.0, np.sqrt(5.0) - 1e-9),
    )
    def test_beats_one_sparse_baseline(self, x, c):
        u = l1_constrained_unit_vector(x, c)
        one_sparse = np.zeros(5)
        j = np.abs(x).argmax()
        one_sparse[j] = np.sign(x[j]) or 1.0
        assert x @ u >= x @ one_sparse - 1e-9

    def test_rejects_bad_input(self):
        with pytest.raises(DegenerateInputError):
            l1_constrained_unit_vector(np.zeros(3), 1.5)
        with pytest.raises(InputError):
            l1_constrained_unit_vector(np.ones(4), 0.5)
        with pytest.raises(InputError):
            l1_constrained_unit_vector(np.ones(4), 2.5)
        with pytest.raises(InputError):
            l1_constrained_unit_vector(np.ones((2, 2)), 1.0)
