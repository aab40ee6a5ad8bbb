"""Clustering and typicality tests.

Three oracles check the merge history: the Lance-Williams recurrence
on a dict of node pairs, scanned in node-id order (on squared or plain
distances), free of the implementation's matrix-slot bookkeeping;
Ward's definition of the D2 height from the members of the merged
clusters, which uses no recurrence at all; and scipy's agglomerative
routine as an outside check.
"""

import warnings
from itertools import combinations

import numpy as np
import pytest
import scipy.cluster.hierarchy as sch
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseca.cluster import (
    WARD_VARIANTS,
    Dendrogram,
    aggregate_by_cluster,
    cut_tree,
    typicality_zscores,
    ward_cluster,
)
from sparseca.errors import InputError


def recurrence_merges(points, squared=True):
    """Reference merge history on squared or plain Euclidean distances."""
    n = len(points)
    sizes = {i: 1 for i in range(n)}
    d2 = {}
    for a, b in combinations(range(n), 2):
        gap = points[a] - points[b]
        d2[(a, b)] = float(gap @ gap) if squared else float(np.sqrt(gap @ gap))
    merges = []
    nxt = n
    while len(sizes) > 1:
        best = None
        for a, b in combinations(sorted(sizes), 2):
            if best is None or d2[(a, b)] < best[0]:
                best = (d2[(a, b)], a, b)
        val, a, b = best
        merges.append((a, b, float(np.sqrt(val)) if squared else val))
        na, nb = sizes[a], sizes[b]
        for k in sorted(sizes):
            if k in (a, b):
                continue
            nk = sizes[k]
            d2[(k, nxt)] = (
                (na + nk) * d2[tuple(sorted((k, a)))]
                + (nb + nk) * d2[tuple(sorted((k, b)))]
                - nk * val
            ) / (na + nb + nk)
        sizes[nxt] = na + nb
        del sizes[a], sizes[b]
        nxt += 1
    return merges


def leaf_sets(merges, n):
    """Members of the cluster each merge creates."""
    members = {i: frozenset([i]) for i in range(n)}
    out = []
    for t, (a, b, _h) in enumerate(merges):
        members[n + t] = members[a] | members[b]
        out.append(members[n + t])
    return out


class TestWardCluster:
    def test_three_collinear_points_by_hand(self):
        # points 0, 1, 3: first merge joins 0 and 1 at distance 1; the
        # variance increase of adding 3 to {0, 1} is 25/6, so the
        # second height is sqrt(25/3)
        d = ward_cluster(np.array([[0.0], [1.0], [3.0]]))
        assert d.merges[0][:2] == (0, 1)
        assert d.merges[0][2] == pytest.approx(1.0)
        assert set(d.merges[1][:2]) == {2, 3}
        assert d.merges[1][2] == pytest.approx(np.sqrt(25.0 / 3.0))

    def test_matches_recurrence_oracle(self, rng):
        for _ in range(25):
            n = int(rng.integers(4, 11))
            points = rng.normal(size=(n, 3))
            for variant in WARD_VARIANTS:
                got = ward_cluster(points, variant=variant).merges
                want = recurrence_merges(points, squared=variant == "D2")
                assert [m[:2] for m in got] == [m[:2] for m in want]
                np.testing.assert_allclose(
                    [m[2] for m in got], [m[2] for m in want], atol=1e-10
                )

    def test_d2_heights_match_sum_of_squares_definition(self, rng):
        def within_ss(points):
            return float(((points - points.mean(axis=0)) ** 2).sum())

        for _ in range(10):
            n = int(rng.integers(2, 16))
            points = rng.normal(size=(n, 3))
            merges = ward_cluster(points).merges
            members = [frozenset([i]) for i in range(n)] + leaf_sets(merges, n)
            for a, b, height in merges:
                pa = points[sorted(members[a])]
                pb = points[sorted(members[b])]
                increase = within_ss(np.vstack([pa, pb])) - within_ss(pa) - within_ss(pb)
                assert height == pytest.approx(np.sqrt(2.0 * increase), rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("variant", ["D2", "D"])
    def test_unit_square_ties_go_to_lowest_node_ids(self, variant):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        merges = ward_cluster(square, variant=variant).merges
        assert [m[:2] for m in merges] == [(0, 1), (2, 3), (4, 5)]

    @pytest.mark.parametrize(
        "variant, points",
        [
            # {0, 1} has centroid 0; 4/3 * |leaf 2|^2 = 36 = |leaf 2 - leaf 3|^2
            ("D2", [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [3.0, 3.0, 3.0], [9.0, 3.0, 3.0]]),
            # (2 * 3 + 2 * 3 - 0) / 3 = 4 = |7 - 3|
            ("D", [[0.0], [0.0], [3.0], [7.0]]),
        ],
    )
    def test_tie_with_merged_node_goes_to_lower_node_ids(self, variant, points):
        # node 4 = {0, 1} is tied with leaf 3 as leaf 2's nearest; the
        # pair (2, 3) has the lower ids, though node 4 sits in an
        # earlier matrix slot than leaf 3
        merges = ward_cluster(np.array(points), variant=variant).merges
        assert [m[:2] for m in merges] == [(0, 1), (2, 3), (4, 5)]
        assert merges[1][2] == (6.0 if variant == "D2" else 4.0)

    def test_overflowing_distances_rejected(self):
        with pytest.raises(InputError, match="overflow"):
            ward_cluster(np.array([[0.0], [1e200]]))

    def test_matches_scipy_heights_and_partitions(self, rng):
        points = rng.normal(size=(20, 4))
        d = ward_cluster(points)
        link = sch.linkage(points, method="ward")
        np.testing.assert_allclose(
            [m[2] for m in d.merges], link[:, 2], rtol=1e-9
        )
        for k in (2, 3, 5):
            mine = cut_tree(d, k)
            theirs = sch.fcluster(link, k, criterion="maxclust")
            mine_parts = {frozenset(np.flatnonzero(mine == c)) for c in set(mine)}
            their_parts = {
                frozenset(np.flatnonzero(theirs == c)) for c in set(theirs)
            }
            assert mine_parts == their_parts

    def test_heights_nondecreasing(self, rng):
        points = rng.normal(size=(15, 2))
        heights = [m[2] for m in ward_cluster(points).merges]
        assert all(b >= a - 1e-12 for a, b in zip(heights, heights[1:]))

    def test_two_separated_clouds(self, rng):
        left = rng.normal(size=(6, 2)) * 0.1
        right = rng.normal(size=(5, 2)) * 0.1 + 50.0
        d = ward_cluster(np.vstack([left, right]))
        assignment = cut_tree(d, 2)
        assert len(set(assignment[:6])) == 1
        assert len(set(assignment[6:])) == 1
        assert assignment[0] != assignment[6]

    def test_duplicate_points_merge_at_zero(self):
        d = ward_cluster(np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 5.0]]))
        assert d.merges[0][2] == pytest.approx(0.0, abs=1e-15)

    def test_one_dimensional_input_accepted(self):
        d = ward_cluster(np.array([0.0, 1.0, 3.0]))
        assert d.merges[0][2] == pytest.approx(1.0)

    def test_labels_default_and_explicit(self):
        d = ward_cluster(np.zeros((3, 2)), labels=["a", "b", "c"])
        assert d.labels == ["a", "b", "c"]
        assert ward_cluster(np.zeros((2, 2))).labels == ["0", "1"]

    def test_unsquared_variant_by_hand(self):
        # with plain distances the update for point 3 against {0, 1}
        # gives (2*3 + 2*2 - 1*1) / 3 = 3
        d = ward_cluster(np.array([[0.0], [1.0], [3.0]]), variant="D")
        assert d.merges[0] == (0, 1, 1.0)
        assert set(d.merges[1][:2]) == {2, 3}
        assert d.merges[1][2] == pytest.approx(3.0)

    def test_variants_differ_generically(self, rng):
        points = rng.normal(size=(12, 3))
        h2 = [m[2] for m in ward_cluster(points, variant="D2").merges]
        h1 = [m[2] for m in ward_cluster(points, variant="D").merges]
        assert not np.allclose(h1, h2)

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            ward_cluster(np.zeros((0, 2)))
        with pytest.raises(InputError):
            ward_cluster(np.array([[np.nan, 0.0]]))
        with pytest.raises(InputError):
            ward_cluster(np.zeros((3, 2)), variant="ward")
        with pytest.raises(InputError):
            ward_cluster(np.zeros((3, 2)), labels=["a"])


class TestCutTree:
    def test_hand_assignments(self):
        d = ward_cluster(np.array([[0.0], [1.0], [3.0]]))
        np.testing.assert_array_equal(cut_tree(d, 1), [0, 0, 0])
        np.testing.assert_array_equal(cut_tree(d, 2), [0, 0, 1])
        np.testing.assert_array_equal(cut_tree(d, 3), [0, 1, 2])

    def test_ids_follow_first_appearance(self, rng):
        points = rng.normal(size=(10, 2))
        assignment = cut_tree(ward_cluster(points), 4)
        seen = []
        for c in assignment:
            if c not in seen:
                seen.append(c)
        assert seen == sorted(seen)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12))
    def test_finer_cuts_refine_coarser(self, seed, n):
        points = np.random.default_rng(seed).normal(size=(n, 2))
        d = ward_cluster(points)
        for k in range(1, n):
            coarse = cut_tree(d, k)
            fine = cut_tree(d, k + 1)
            for c in set(fine):
                inside = coarse[fine == c]
                assert len(set(inside)) == 1

    def test_k_out_of_range(self):
        d = ward_cluster(np.zeros((3, 2)))
        with pytest.raises(InputError):
            cut_tree(d, 0)
        with pytest.raises(InputError):
            cut_tree(d, 4)

    @pytest.mark.parametrize(
        "merges",
        [
            [],
            [(0, 1, 1.0)],
            [(0, 1, 1.0), (0, 1, 2.0)],
            [(0, 5, 1.0), (2, 3, 1.0)],
            [(-1, 0, 1.0), (1, 2, 1.0)],
        ],
        ids=[
            "no merges",
            "too few merges",
            "leaf merged twice",
            "node id not yet made",
            "negative node id",
        ],
    )
    def test_malformed_dendrogram_rejected(self, merges):
        d = Dendrogram(merges=merges, labels=["a", "b", "c"])
        with pytest.raises(InputError, match="one tree"):
            cut_tree(d, 1)

    def test_merge_node_numbering(self, rng):
        points = rng.normal(size=(8, 2))
        d = ward_cluster(points)
        sets = leaf_sets(d.merges, 8)
        assert sets[-1] == frozenset(range(8))
        for a, b, _h in d.merges:
            assert 0 <= a < 8 + len(d.merges)
            assert 0 <= b < 8 + len(d.merges)


class TestAggregateByCluster:
    def test_sums_rows_within_clusters(self):
        counts = np.array([[1, 2], [3, 4], [5, 6]])
        got = aggregate_by_cluster(counts, [0, 1, 0])
        np.testing.assert_array_equal(got, [[6, 8], [3, 4]])

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            aggregate_by_cluster(np.zeros((3, 2)), [0, 1])

    def test_negative_cluster_number_rejected(self):
        # the row would otherwise drop out of every total
        with pytest.raises(InputError, match="non-negative"):
            aggregate_by_cluster(np.ones((2, 2)), [-1, 0])

    def test_empty_assignment_rejected(self):
        with pytest.raises(InputError, match="no rows"):
            aggregate_by_cluster(np.zeros((0, 2)), [])


class TestTypicalityZscores:
    def test_diagonal_table_by_hand(self):
        # cluster 1 holds all 10 of category 1 against an expected 5
        # with standard deviation sqrt(5 * 0.5), so z = 3.16228
        table = typicality_zscores(np.array([[10.0, 0.0], [0.0, 10.0]]))
        assert table.z[0, 0] == pytest.approx(3.16228, abs=1e-5)
        assert table.z[0, 1] == pytest.approx(-3.16228, abs=1e-5)
        assert table.z[1, 1] == pytest.approx(3.16228, abs=1e-5)

    def test_reflected_counts_negate_scores(self):
        a = typicality_zscores(np.array([[10.0, 0.0], [0.0, 10.0]]))
        b = typicality_zscores(np.array([[0.0, 10.0], [10.0, 0.0]]))
        np.testing.assert_allclose(a.z, -b.z, atol=1e-12)

    def test_independent_table_scores_zero(self):
        counts = np.outer([5.0, 10.0], [6.0, 9.0]) / 15.0
        table = typicality_zscores(counts)
        np.testing.assert_allclose(table.z, 0.0, atol=1e-12)

    def test_ranked_descending_and_truncated(self):
        counts = np.array([[8.0, 1.0, 1.0, 5.0], [2.0, 9.0, 9.0, 5.0]])
        table = typicality_zscores(counts, top_m=2)
        for row in table.ranked:
            assert len(row) == 2
            assert row[0][1] >= row[1][1]
        assert table.ranked[0][0][0] == "category 1"

    def test_zero_total_category_excluded_with_warning(self):
        counts = np.array([[3.0, 0.0, 1.0], [4.0, 0.0, 2.0]])
        with pytest.warns(UserWarning, match="without typicality variance"):
            table = typicality_zscores(counts)
        assert table.excluded_categories == ["category 2"]
        assert np.isnan(table.z[:, 1]).all()
        assert np.isfinite(table.z[:, [0, 2]]).all()

    def test_saturated_category_excluded(self):
        # a single category carries every observation: no variance
        with pytest.warns(UserWarning, match="without typicality variance"):
            table = typicality_zscores(np.array([[3.0], [2.0]]))
        assert table.excluded_categories == ["category 1"]
        assert table.ranked == [[], []]

    def test_empty_cluster_warns(self):
        with pytest.warns(UserWarning, match="no observations"):
            table = typicality_zscores(
                np.array([[2.0, 3.0], [0.0, 0.0], [4.0, 1.0]])
            )
        assert np.isnan(table.z[1]).all() or np.allclose(table.z[1], 0.0)

    def test_margins_recorded(self):
        counts = np.array([[1.0, 2.0], [3.0, 4.0]])
        table = typicality_zscores(counts)
        np.testing.assert_array_equal(table.cluster_sizes, [3.0, 7.0])
        np.testing.assert_array_equal(table.category_totals, [4.0, 6.0])
        assert table.total == 10.0

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            typicality_zscores(np.array([1.0, 2.0]))
        with pytest.raises(InputError):
            typicality_zscores(np.array([[-1.0, 2.0]]))
        with pytest.raises(InputError):
            typicality_zscores(np.zeros((2, 2)))
        with pytest.raises(InputError):
            typicality_zscores(np.array([[1.0, 2.0]]), top_m=0)

    def test_overflowing_expected_counts_rejected(self):
        # 1e300 * 1e300 overflows: every z would be NaN
        with pytest.raises(InputError, match="overflow the expected counts"):
            typicality_zscores(np.array([[0.0, 1e300], [1e300, 0.0]]))

    def test_custom_labels_flow_through(self):
        table = typicality_zscores(
            np.array([[10.0, 0.0], [0.0, 10.0]]),
            cluster_labels=["left", "right"],
            category_labels=["sun", "rain"],
        )
        assert table.ranked[0][0][0] == "sun"
        assert table.cluster_labels == ["left", "right"]


def test_dendrogram_reports_leaf_count():
    d = Dendrogram(merges=[(0, 1, 1.0)], labels=["a", "b"])
    assert d.n_leaves == 2
