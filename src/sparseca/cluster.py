"""Ward clustering of map coordinates and per-cluster typicality scores."""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError

WARD_VARIANTS = ("D", "D2")


@dataclass
class Dendrogram:
    """Agglomerative merge history.

    ``merges`` holds one (left, right, height) triple per merge; leaves
    are numbered 0..n-1 and merge t creates node n+t. Heights are
    nondecreasing.
    """

    merges: list
    labels: list

    @property
    def n_leaves(self) -> int:
        return len(self.labels)


def ward_cluster(coords, labels=None, variant: str = "D2") -> Dendrogram:
    """Agglomerative clustering with Ward's minimum-variance criterion.

    Both variants run one Lance-Williams recurrence on a distance
    matrix: merging clusters a and b (sizes n_a, n_b at distance d_ab)
    puts every other cluster k (size n_k) at

        ((n_a + n_k) d_ka + (n_b + n_k) d_kb - n_k d_ab) / (n_a + n_b + n_k)

    from the union, and each step merges the closest pair. The default
    "D2" variant runs it on squared Euclidean distances, which makes
    d_ab twice the increase of the within-cluster sum of squares, and
    reports sqrt(d_ab) as the merge height (so two singletons merge at
    their Euclidean distance); the "D" variant runs it on unsquared
    distances and reports d_ab. Among exactly equal distances the pair
    with the lowest (smaller node id, larger node id) merges first.

    Parameters
    ----------
    coords : ndarray of shape (n, d)
        Finite coordinates, one row per item. Duplicate rows are fine
        and merge at height zero.
    labels : sequence of str, optional
    variant : str
        "D2" (default) or "D".
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim == 1:
        coords = coords[:, None]
    if coords.ndim != 2 or coords.shape[0] == 0:
        raise InputError(f"expected a nonempty 2-d array, got shape {coords.shape}")
    if not np.all(np.isfinite(coords)):
        raise InputError("coordinates contain non-finite entries")
    if variant not in WARD_VARIANTS:
        raise InputError(f"variant must be one of {WARD_VARIANTS}, got {variant!r}")
    n = coords.shape[0]
    if labels is None:
        labels = [str(i) for i in range(n)]
    labels = list(labels)
    if len(labels) != n:
        raise InputError(f"{len(labels)} labels for {n} points")
    return Dendrogram(merges=_ward(coords, squared=variant == "D2"), labels=labels)


def _ward(coords, squared):
    """Lance-Williams merges on (squared) Euclidean distances.

    Slot i of the distance matrix holds node ``node[i]``; a merge
    reuses the lower of its two slots for the new node and fills the
    other with infinity. Infinite entries, the diagonal included, stay
    infinite under the update.
    """
    n = coords.shape[0]
    dist = np.empty((n, n))
    with np.errstate(over="ignore"):
        for i, point in enumerate(coords):
            # stacked 1-d dot products round each sum as ``gap @ gap`` does
            gap = coords - point
            dist[i] = (gap[:, None, :] @ gap[:, :, None]).ravel()
    if not np.all(np.isfinite(dist)):
        raise InputError("coordinates too far apart: squared distances overflow")
    if not squared:
        dist = np.sqrt(dist)
    np.fill_diagonal(dist, np.inf)
    node = np.arange(n)
    size = np.ones(n)
    merges = []
    for t in range(n - 1):
        d_ab = dist.min()
        rows, cols = np.nonzero(dist == d_ab)
        low = np.minimum(node[rows], node[cols])
        high = np.maximum(node[rows], node[cols])
        pick = np.argmin(low * (2 * n) + high)
        i, j = sorted((rows[pick], cols[pick]))
        merges.append((int(low[pick]), int(high[pick]),
                       float(np.sqrt(d_ab) if squared else d_ab)))
        n_a, n_b = size[i], size[j]
        merged = ((n_a + size) * dist[i] + (n_b + size) * dist[j]
                  - size * d_ab) / (n_a + n_b + size)
        dist[i], dist[:, i] = merged, merged
        dist[j], dist[:, j] = np.inf, np.inf
        size[i] = n_a + n_b
        node[i] = n + t
    return merges


def cut_tree(dendrogram: Dendrogram, k: int) -> np.ndarray:
    """Assignment into ``k`` clusters by dropping the k-1 highest merges.

    Cluster ids are 0..k-1 in order of first appearance by leaf index.
    Merge ``t`` must join two distinct node ids below ``n + t``, neither
    of them merged before; otherwise the dendrogram is rejected.
    """
    n = dendrogram.n_leaves
    if not 1 <= k <= n:
        raise InputError(f"k must be in [1, {n}], got {k}")
    merged = [False] * (n + len(dendrogram.merges))
    for t, (a, b, _height) in enumerate(dendrogram.merges):
        if not (
            all(isinstance(x, (int, np.integer)) and 0 <= x < n + t for x in (a, b))
            and a != b
            and not (merged[a] or merged[b])
        ):
            raise InputError(
                f"merge {t} joins ({a}, {b}), not two distinct unmerged nodes"
                f" below {n + t}: the merges do not join {n} leaves into one tree"
            )
        merged[a] = merged[b] = True
    parent = list(range(n + len(dendrogram.merges)))

    def find(node):
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for t, (a, b, _height) in enumerate(dendrogram.merges[: n - k]):
        parent[find(a)] = n + t
        parent[find(b)] = n + t
    assignment = np.empty(n, dtype=int)
    relabel = {}
    for i in range(n):
        root = find(i)
        if root not in relabel:
            relabel[root] = len(relabel)
        assignment[i] = relabel[root]
    if len(relabel) != k:
        raise InputError(
            f"dendrogram gives {len(relabel)} clusters for k={k}: its merges"
            f" do not join {n} leaves into one tree"
        )
    return assignment


def aggregate_by_cluster(counts, assignment):
    """Sum table rows within clusters: (clusters x categories) counts, for
    the clusters 0 to ``max(assignment)`` that ``cut_tree`` numbers."""
    counts = np.asarray(counts, dtype=float)
    assignment = np.asarray(assignment, dtype=int)
    if counts.shape[0] != assignment.size:
        raise InputError(
            f"{assignment.size} assignments for {counts.shape[0]} rows"
        )
    if assignment.size == 0:
        raise InputError("no rows to aggregate")
    if assignment.min() < 0:
        raise InputError(f"cluster numbers must be non-negative, got {assignment.min()}")
    n_clusters = int(assignment.max()) + 1
    out = np.zeros((n_clusters, counts.shape[1]))
    for cluster in range(n_clusters):
        out[cluster] = counts[assignment == cluster].sum(axis=0)
    return out


@dataclass
class TypicalityTable:
    """Standardized over-representation of categories within clusters.

    ``z[i, j]`` compares the observed count of category ``j`` in
    cluster ``i`` to the count expected from the margins, scaled by the
    binomial standard deviation; NaN marks excluded lines. ``ranked``
    lists, per cluster, the top categories as (label, z) pairs in
    descending z order.
    """

    z: np.ndarray
    ranked: list
    cluster_sizes: np.ndarray
    category_totals: np.ndarray
    total: float
    cluster_labels: list
    category_labels: list
    excluded_categories: list


def typicality_zscores(
    counts,
    top_m: int = 3,
    cluster_labels=None,
    category_labels=None,
) -> TypicalityTable:
    """Typicality z-scores of categories per cluster.

    The score for cluster ``i`` and category ``j`` is the observed
    count minus the margin-expected count, divided by the standard
    deviation of a draw of the cluster total at the category's overall
    rate. Categories with a zero total, and categories present in every
    single observation (zero variance), are excluded with a warning;
    their z entries are NaN.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 2:
        raise InputError(f"expected a 2-d table, got shape {counts.shape}")
    if np.any(counts < 0) or not np.all(np.isfinite(counts)):
        raise InputError("counts must be finite and nonnegative")
    if top_m < 1:
        raise InputError(f"top_m must be at least 1, got {top_m}")
    n_clusters, n_categories = counts.shape
    if cluster_labels is None:
        cluster_labels = [f"cluster {i + 1}" for i in range(n_clusters)]
    if category_labels is None:
        category_labels = [f"category {j + 1}" for j in range(n_categories)]
    cluster_labels = list(cluster_labels)
    category_labels = list(category_labels)

    k_i = counts.sum(axis=1)
    k_j = counts.sum(axis=0)
    k = float(counts.sum())
    if k <= 0:
        raise InputError("counts sum to zero")
    if np.any(k_i <= 0):
        empty = [cluster_labels[i] for i in np.flatnonzero(k_i <= 0)]
        warnings.warn(f"clusters with no observations: {empty}", stacklevel=2)
    excluded = (k_j <= 0) | (k_j >= k)
    if excluded.any():
        names = [category_labels[j] for j in np.flatnonzero(excluded)]
        warnings.warn(
            f"categories without typicality variance excluded: {names}",
            stacklevel=2,
        )

    expected = np.outer(k_i, k_j) / k
    variance = expected * (1.0 - k_j / k)
    live = (variance > 0) & ~excluded
    z = np.full((n_clusters, n_categories), np.nan)
    z[live] = (counts[live] - expected[live]) / np.sqrt(variance[live])

    ranked = []
    for i in range(n_clusters):
        order = [
            (category_labels[j], float(z[i, j]))
            for j in np.argsort(-z[i], kind="stable")
            if not np.isnan(z[i, j])
        ]
        ranked.append(order[:top_m])
    return TypicalityTable(
        z=z,
        ranked=ranked,
        cluster_sizes=k_i,
        category_totals=k_j,
        total=k,
        cluster_labels=cluster_labels,
        category_labels=category_labels,
        excluded_categories=[
            category_labels[j] for j in np.flatnonzero(excluded)
        ],
    )
