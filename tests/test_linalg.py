import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sparseca.ca import correspondence_matrix, standardized_residuals
from sparseca.datasets import colors_of_music, presidents_scale_corpus
from sparseca.errors import DegenerateInputError, InputError
from sparseca.linalg import (
    _l1_project_rows,
    _leading_svd,
    full_svd,
    l1_constrained_unit_vector,
)
from sparseca.sparse import SparsityConstraint, nnz_target_search, pmd_rank1, ppmd_deflate
from sparseca.tuning import cv_error, grid_search_1d, weight_paths

from conftest import large_table_residuals, soft_threshold


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
        with pytest.raises(InputError, match="2-d"):
            full_svd(np.ones((2, 3, 3)))


def _residuals(table):
    return standardized_residuals(*correspondence_matrix(table))


def _with_spectrum(rng, shape, s):
    """A matrix of ``shape`` with singular values ``s`` (descending) and
    random singular vectors."""
    q1, _ = np.linalg.qr(rng.normal(size=(shape[0], len(s))))
    q2, _ = np.linalg.qr(rng.normal(size=(shape[1], len(s))))
    return (q1 * s) @ q2.T, q2


class TestLeadingSvd:
    """Leading singular vectors from the Gram matrix of the shorter side,
    checked against the full thin SVD."""

    @pytest.fixture(scope="class")
    def tables(self):
        tables = {
            "music": _residuals(colors_of_music()),
            "corpus": _residuals(presidents_scale_corpus()),
        }
        for seed, round_ in [(1, 0), (1, 1), (2, 0)]:
            tables[f"large({seed}, {round_})"] = large_table_residuals(seed, round_)
        return tables

    def assert_agrees(self, x, k):
        s, v = _leading_svd(x, k)
        svd = full_svd(x)
        assert v.shape == (x.shape[1], k)
        assert np.abs(v - svd.V[:, :k]).max() <= 1e-12
        scale = svd.s[0] ** 2
        assert abs(s[0] ** 2 - scale) <= 1e-12 * scale
        # the BIC residual: every squared singular value past the first
        assert abs((s[1:] ** 2).sum() - (svd.s[1:] ** 2).sum()) <= 1e-12 * scale

    def test_agrees_with_full_svd_on_tables(self, tables):
        # the two leading vectors of each residual matrix, and the leading
        # vector after a sparse first dimension is deflated out
        for z in tables.values():
            self.assert_agrees(z, 2)
            first = pmd_rank1(z, SparsityConstraint.coupled(0.5))
            self.assert_agrees(ppmd_deflate(z, first), 1)

    @pytest.mark.parametrize(
        "shape", [(30, 7), (7, 30), (12, 12), (200, 40), (40, 200), (2, 9), (9, 1)]
    )
    def test_fuzz_gapped_spectrum(self, rng, shape):
        for _ in range(10):
            r = min(shape)
            s = np.sort(rng.uniform(0.0, 1.0, size=r))[::-1]
            s[:2] += [3.0, 1.5][:r]
            x, _ = _with_spectrum(rng, shape, s)
            self.assert_agrees(x, min(2, r))

    @pytest.mark.parametrize("shape", [(9, 4), (4, 9), (6, 6)])
    def test_fuzz_rank_one(self, rng, shape):
        for _ in range(10):
            a, b = rng.normal(size=shape[0]), rng.normal(size=shape[1])
            s, v = _leading_svd(np.outer(a, b))
            expected = b / np.linalg.norm(b)
            expected *= np.sign(expected[np.abs(expected).argmax()])
            assert np.abs(v[:, 0] - expected).max() <= 1e-12
            top = np.linalg.norm(a) * np.linalg.norm(b)
            assert s[0] == pytest.approx(top, rel=1e-12)
            # squaring leaves the null singular values at roundoff's square root
            assert np.all(s[1:] <= 1e-7 * top)

    def test_stack_matches_member_calls(self, rng):
        # a stack is decomposed member by member, signs included; one member
        # has a repeated column, so its V has a tied-magnitude anchor
        for shape in [(5, 7, 4), (4, 4, 6), (2, 3, 5, 5), (3, 20, 50)]:
            x = rng.normal(size=shape)
            x[(0,) * (len(shape) - 2)][:, 1] = x[(0,) * (len(shape) - 2)][:, 0]
            stacked = _leading_svd(x, 2)
            for index in np.ndindex(*shape[:-2]):
                single = _leading_svd(x[index], 2)
                for got, want in zip(stacked, single):
                    np.testing.assert_array_equal(got[index], want)
                svd = full_svd(x[index])
                assert np.abs(single[1][:, 0] - svd.V[:, 0]).max() <= 1e-12

    @pytest.mark.parametrize("shape", [(8, 5), (5, 8)])
    def test_tied_leading_value_gives_a_unit_vector_in_the_tie(self, rng, shape):
        for _ in range(10):
            x, q2 = _with_spectrum(rng, shape, np.array([3.0, 3.0, 1.0, 0.5]))
            s, v = _leading_svd(x)
            assert np.linalg.norm(v[:, 0]) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(q2[:, :2].T @ v[:, 0]) == pytest.approx(1.0, abs=1e-12)
            assert s[:2] == pytest.approx([3.0, 3.0], rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("shape", [(6, 4), (4, 6)])
    def test_zero_matrix_and_member(self, shape):
        s, v = _leading_svd(np.zeros(shape), 2)
        assert np.all(s == 0.0) and np.all(np.isfinite(v))
        stack = np.random.default_rng(0).normal(size=(3, *shape))
        stack[1] = 0.0
        s, v = _leading_svd(stack)
        assert np.all(s[1] == 0.0) and np.all(np.isfinite(v))
        np.testing.assert_array_equal(v[2], _leading_svd(stack[2])[1])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("shape", [(6, 4), (4, 6)])
    def test_zero_input_fails_as_before(self, shape):
        # the fits still reject a zero matrix themselves, with the same error
        zero = np.zeros(shape)
        calls = [
            lambda: pmd_rank1(zero, SparsityConstraint.coupled(0.8)),
            lambda: nnz_target_search(zero, 2),
            lambda: grid_search_1d(zero, grid=[0.8, 1.0], criterion="bic"),
            lambda: weight_paths(zero, grid=[0.8, 1.0]),
        ]
        # a single nonzero cell leaves the fold that blanks it all zero
        one_cell = zero.copy()
        one_cell[1, 2] = 1.0
        calls.append(lambda: cv_error(one_cell, SparsityConstraint.coupled(0.8), seed=0))
        for call in calls:
            with pytest.raises(DegenerateInputError, match="all-zero matrix"):
                call()

    def test_rejects_bad_input(self):
        with pytest.raises(InputError, match="2-d"):
            _leading_svd(np.ones(3))
        with pytest.raises(InputError, match="non-finite"):
            _leading_svd(np.array([[[1.0, np.nan], [0.0, 1.0]]]))
        with pytest.raises(InputError, match="overflows"):
            _leading_svd(np.full((3, 2), 1e200))


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
        # below sqrt(#ties) no threshold binds: the weight lies on the first
        # floor(c^2) = 1 tie and the rest of the budget on the next one
        u = l1_constrained_unit_vector(np.ones(4), 1.2)
        a = (1.2 + np.sqrt(2.0 - 1.2**2)) / 2.0
        np.testing.assert_allclose(u, [a, 1.2 - a, 0.0, 0.0], rtol=0, atol=1e-15)
        assert not np.signbit(u).any()

    @pytest.mark.parametrize("n_ties", [2, 3, 5, 8])
    def test_tie_row_reaches_budget_times_max(self, rng, n_ties):
        # a unit vector with L1 norm c can reach at most c * max|x|; on the
        # tied entries it does, for every c between 1 and sqrt(#ties)
        for _ in range(40):
            x = rng.uniform(-1.0, 1.0, size=12)
            top = rng.choice(12, size=n_ties, replace=False)
            x[top] = 2.0 * rng.choice([-1.0, 1.0], size=n_ties)
            c = float(rng.uniform(1.0, np.sqrt(n_ties)))
            u = l1_constrained_unit_vector(x, c)
            assert x @ u == pytest.approx(2.0 * c, rel=1e-14)
            assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-14)
            assert np.abs(u).sum() <= c * (1 + 1e-14)
            assert np.count_nonzero(u) == np.floor(c * c) + 1
            assert not np.signbit(u[u == 0.0]).any()

    def test_tie_rows_in_a_stack_equal_single_calls(self, rng):
        rows, budgets = [], []
        for n_ties in (1, 2, 3, 4, 6):
            for c in (1.0, 1.1, 1.5, np.sqrt(2.0), 1.9, 2.3):
                x = rng.normal(size=9)
                x[:n_ties] = -3.0 if n_ties % 2 else 3.0
                rows.append(rng.permutation(x))
                budgets.append(c)
        x, c = np.array(rows), np.array(budgets)
        stacked = _l1_project_rows(x, c)
        for row, budget, got in zip(x, c, stacked):
            np.testing.assert_array_equal(got, l1_constrained_unit_vector(row, budget))

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


def _near_tie_and_fuzz_rows(rng, n):
    """Rows of length n in the styles of the near-tie and binding-budget
    tests: one-ulp maxima, exact ties, and normal draws over six scales."""
    top = np.nextafter(1.0, 2.0)
    rows = [
        np.concatenate([[top, 1.0, np.nextafter(1.0, 0.0)], np.full(n - 3, 0.5)]),
        np.concatenate([[2.0, -2.0, 2.0], rng.uniform(-1.9, 1.9, n - 3)]),
        np.ones(n),
    ]
    for scale in 10.0 ** np.arange(-3, 4):
        rows.append(rng.normal(size=n) * scale)
    return np.array(rows)


class TestStackedProjection:
    """The row routine behind ``l1_constrained_unit_vector`` on stacks with
    mixed budgets: each row comes out exactly as its own call."""

    @pytest.mark.parametrize("n", [4, 9, 57, 300])
    def test_rows_equal_single_calls(self, rng, n):
        x = _near_tie_and_fuzz_rows(rng, n)
        x = np.concatenate([x, x, x, x])
        budgets = []
        for row in x:
            n_tied = np.count_nonzero(np.abs(row) == np.abs(row).max())
            budgets.append(
                rng.choice(
                    [
                        1.0,
                        np.sqrt(n_tied),
                        np.sqrt(n),
                        float(np.sqrt(rng.integers(1, n + 1))),
                        float(rng.uniform(1.0, np.sqrt(n))),
                    ]
                )
            )
        c = np.array(budgets)
        stacked = _l1_project_rows(x, c)
        kinds = set()
        for row, budget, got in zip(x, c, stacked):
            want = l1_constrained_unit_vector(row, budget)
            np.testing.assert_array_equal(got, want)
            assert np.linalg.norm(got) == pytest.approx(1.0, abs=1e-12)
            assert np.abs(got).sum() <= budget * (1 + 1e-10)
            assert row @ got >= np.abs(row).max() * (1 - 1e-12)
            if np.abs(row).sum() <= budget * np.linalg.norm(row):
                kinds.add("inactive")
            elif np.count_nonzero(got) == 1:
                kinds.add("one-sparse")
            else:
                kinds.add("binding")
        assert kinds == {"inactive", "one-sparse", "binding"}

    def test_infinite_budget_only_normalizes(self, rng):
        x = rng.normal(size=(3, 6))
        c = np.array([np.inf, 1.5, np.inf])
        out = _l1_project_rows(x, c)
        for i in (0, 2):
            np.testing.assert_array_equal(out[i], x[i] / np.linalg.norm(x[i]))
        np.testing.assert_array_equal(out[1], l1_constrained_unit_vector(x[1], 1.5))

    def test_inactive_stack_is_not_sorted(self, rng, monkeypatch):
        x = rng.normal(size=(5, 8))
        inactive = np.full(5, np.sqrt(8.0))
        sorts = []
        real_sort = np.sort

        def counting_sort(*args, **kwargs):
            sorts.append(args[0].shape)
            return real_sort(*args, **kwargs)

        monkeypatch.setattr(np, "sort", counting_sort)
        _l1_project_rows(x, inactive)
        assert sorts == []
        binding = inactive.copy()
        binding[[1, 3]] = 1.3
        _l1_project_rows(x, binding)
        assert sorts == [(2, 8)]

    def test_bad_rows_rejected(self, rng):
        x = rng.normal(size=(3, 4))
        c = np.full(3, 1.5)
        zero = x.copy()
        zero[1] = 0.0
        with pytest.raises(DegenerateInputError):
            _l1_project_rows(zero, c)
        bad = x.copy()
        bad[2, 0] = np.nan
        with pytest.raises(InputError, match="non-finite"):
            _l1_project_rows(bad, c)
        # finite entries whose squared norm overflows would normalize to 0
        with pytest.raises(InputError, match="overflows"), np.errstate(over="ignore"):
            l1_constrained_unit_vector(np.array([3e200, -1e200, 2e200]), 1.2)
