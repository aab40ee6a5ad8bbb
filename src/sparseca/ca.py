"""Standard correspondence analysis of two-way contingency tables.

The fit works on the standardized residuals of the table: observed
frequencies minus the product of the margins, scaled by the square
roots of the margins. Its singular value decomposition gives the
principal axes; squared singular values are the eigenvalues and sum
to Pearson's mean-square contingency of the table.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, InputError, SingularMarginError
from .linalg import full_svd


@dataclass
class ContingencyTable:
    """A labelled nonnegative two-way table of counts or frequencies.

    Parameters
    ----------
    counts : ndarray of shape (n_rows, n_cols)
        Nonnegative real entries. Integer counts are the usual case but
        pre-aggregated frequencies are accepted unchanged.
    row_labels, col_labels : sequence of str
        Unique names per axis, same lengths as the table sides.

    Raises
    ------
    InputError
        On shape or label problems, negative or non-finite entries, or
        an empty table.
    SingularMarginError
        If any row or column sums to zero; such lines make the weighted
        metrics singular and must be dropped explicitly beforehand.
    """

    counts: np.ndarray
    row_labels: Sequence[str]
    col_labels: Sequence[str]

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=float)
        self.row_labels = list(self.row_labels)
        self.col_labels = list(self.col_labels)
        if self.counts.ndim != 2:
            raise InputError(f"expected a 2-d table, got shape {self.counts.shape}")
        n_rows, n_cols = self.counts.shape
        if len(self.row_labels) != n_rows:
            raise InputError(
                f"{len(self.row_labels)} row labels for {n_rows} rows"
            )
        if len(self.col_labels) != n_cols:
            raise InputError(
                f"{len(self.col_labels)} column labels for {n_cols} columns"
            )
        for axis, labels in (("row", self.row_labels), ("column", self.col_labels)):
            seen = set()
            for name in labels:
                if name in seen:
                    raise InputError(f"duplicate {axis} label {name!r}")
                seen.add(name)
        if not np.all(np.isfinite(self.counts)):
            raise InputError("table contains non-finite entries")
        if np.any(self.counts < 0):
            i, j = np.argwhere(self.counts < 0)[0]
            raise InputError(
                f"negative entry at row {self.row_labels[i]!r}, "
                f"column {self.col_labels[j]!r}"
            )
        if self.counts.sum() <= 0:
            raise InputError("table total must be positive")
        row_sums = self.counts.sum(axis=1)
        col_sums = self.counts.sum(axis=0)
        if row_sums.min() == 0:
            idx = int(row_sums.argmin())
            raise SingularMarginError("row", self.row_labels[idx])
        if col_sums.min() == 0:
            idx = int(col_sums.argmin())
            raise SingularMarginError("column", self.col_labels[idx])

    @classmethod
    def from_counts(cls, counts, row_labels=None, col_labels=None, drop_empty=False):
        """Build a table, generating labels and optionally dropping empty lines.

        With ``drop_empty`` true, all-zero rows and columns are removed
        (labels kept aligned) instead of raising.
        """
        counts = np.asarray(counts, dtype=float)
        if counts.ndim != 2:
            raise InputError(f"expected a 2-d table, got shape {counts.shape}")
        if row_labels is None:
            row_labels = [f"r{i + 1}" for i in range(counts.shape[0])]
        if col_labels is None:
            col_labels = [f"c{j + 1}" for j in range(counts.shape[1])]
        row_labels = list(row_labels)
        col_labels = list(col_labels)
        if drop_empty and counts.size:
            keep_rows = counts.sum(axis=1) > 0
            keep_cols = counts.sum(axis=0) > 0
            counts = counts[keep_rows][:, keep_cols]
            row_labels = [l for l, k in zip(row_labels, keep_rows) if k]
            col_labels = [l for l, k in zip(col_labels, keep_cols) if k]
        return cls(counts, row_labels, col_labels)

    @property
    def shape(self) -> tuple:
        return self.counts.shape

    @property
    def total(self) -> float:
        return float(self.counts.sum())


def correspondence_matrix(table: ContingencyTable):
    """Relative frequencies and their margins.

    Returns
    -------
    (P, r, c)
        ``P`` is the table divided by its grand total; ``r`` and ``c``
        are its row and column sums, each a probability vector.
    """
    p = table.counts / table.counts.sum()
    r = p.sum(axis=1)
    c = p.sum(axis=0)
    if r.min() <= 0:
        raise SingularMarginError("row", table.row_labels[int(r.argmin())])
    if c.min() <= 0:
        raise SingularMarginError("column", table.col_labels[int(c.argmin())])
    return p, r, c


def standardized_residuals(p: np.ndarray, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Margin-scaled deviations from independence.

    Entry ``(i, j)`` is ``(p_ij - r_i c_j) / sqrt(r_i c_j)``. The squared
    Frobenius norm of the result equals the table's total inertia.
    Raises ``DegenerateInputError`` unless every margin and every product
    ``r_i c_j`` is positive; a product of positive margins can underflow.
    """
    r = np.asarray(r, dtype=float)
    c = np.asarray(c, dtype=float)
    expected = np.outer(r, c)
    if r.min() <= 0 or c.min() <= 0 or expected.min() <= 0:
        raise DegenerateInputError("margins and their products must be strictly positive")
    return (p - expected) / np.sqrt(expected)


def _residual_matrices(table: ContingencyTable) -> tuple:
    """``(P, r, c, Z)`` of the table: the one place the package derives Z."""
    p, r, c = correspondence_matrix(table)
    return p, r, c, standardized_residuals(p, r, c)


def total_inertia(table: ContingencyTable) -> float:
    """Pearson's mean-square contingency of the table, ``||Z||²`` as in
    ``SparseCAModel``; equals the sum of all eigenvalues of the fit."""
    return float((_residual_matrices(table)[3] ** 2).sum())


@dataclass
class CADecomposition:
    """Fitted correspondence analysis.

    Attributes
    ----------
    table : ContingencyTable
        The input table.
    frequencies : ndarray of shape (n_rows, n_cols)
        Relative frequencies.
    row_masses, col_masses : ndarray
        Margins of ``frequencies``.
    residuals : ndarray of shape (n_rows, n_cols)
        Standardized residuals whose SVD drives everything below.
    eigenvalues : ndarray
        Full spectrum, ``min(n_rows, n_cols) - 1`` values, nonincreasing.
    singular_values : ndarray
        Square roots of ``eigenvalues``.
    row_vectors, col_vectors : ndarray
        Leading ``n_dims`` singular vectors of the residual matrix.
    row_coords, col_coords : ndarray
        Principal coordinates: singular vectors divided by root masses
        and scaled by the singular values, so the weighted variance of
        each axis equals its eigenvalue.
    n_dims : int
        Number of axes kept in the coordinate matrices.
    """

    table: ContingencyTable
    frequencies: np.ndarray
    row_masses: np.ndarray
    col_masses: np.ndarray
    residuals: np.ndarray
    eigenvalues: np.ndarray
    singular_values: np.ndarray
    row_vectors: np.ndarray
    col_vectors: np.ndarray
    row_coords: np.ndarray
    col_coords: np.ndarray
    n_dims: int

    @property
    def total_inertia(self) -> float:
        return float(self.eigenvalues.sum())

    @property
    def explained_ratios(self) -> np.ndarray:
        """Share of total inertia per axis, full spectrum."""
        total = self.eigenvalues.sum()
        if total == 0:
            return np.zeros_like(self.eigenvalues)
        return self.eigenvalues / total


def _dims_limit(shape: tuple, n_dims: int | None) -> int:
    """Most dimensions a table of ``shape`` has, once ``n_dims`` (None for
    all) is checked against it; ``fit_ca`` and ``fit_sparse_ca`` share it."""
    max_dims = min(shape) - 1
    if max_dims < 1:
        raise InputError("table must have at least two rows and two columns")
    if n_dims is not None and not 1 <= n_dims <= max_dims:
        raise InputError(f"n_dims must be in [1, {max_dims}], got {n_dims}")
    return max_dims


def fit_ca(table: ContingencyTable, n_dims: int | None = None) -> CADecomposition:
    """Fit correspondence analysis, keeping the leading ``n_dims`` axes.

    Parameters
    ----------
    table : ContingencyTable
    n_dims : int, optional
        Number of axes for the coordinate matrices, at most
        ``min(n_rows, n_cols) - 1``. Defaults to that maximum.

    Returns
    -------
    CADecomposition
    """
    max_dims = _dims_limit(table.shape, n_dims)
    if n_dims is None:
        n_dims = max_dims
    p, r, c, z = _residual_matrices(table)
    svd = full_svd(z)
    # the trailing singular value is the numerically-zero trivial direction
    sigma = svd.s[:max_dims]
    eigenvalues = sigma**2
    u = svd.U[:, :n_dims]
    v = svd.V[:, :n_dims]
    row_coords = u * sigma[:n_dims] / np.sqrt(r)[:, None]
    col_coords = v * sigma[:n_dims] / np.sqrt(c)[:, None]
    return CADecomposition(
        table=table,
        frequencies=p,
        row_masses=r,
        col_masses=c,
        residuals=z,
        eigenvalues=eigenvalues,
        singular_values=sigma,
        row_vectors=u,
        col_vectors=v,
        row_coords=row_coords,
        col_coords=col_coords,
        n_dims=n_dims,
    )


@dataclass
class ContributionTable:
    """Per-axis contributions of rows and columns to the inertia.

    ``row_contrib[i, k]`` is the mass-weighted squared coordinate of row
    ``i`` on axis ``k`` divided by the axis eigenvalue; each non-degenerate
    axis column sums to 1. Axes with zero eigenvalue carry no signal:
    their columns are all zero and flagged in ``degenerate``.
    """

    row_contrib: np.ndarray
    col_contrib: np.ndarray
    degenerate: np.ndarray


def contributions(decomposition: CADecomposition) -> ContributionTable:
    """Contributions of each row and column to each kept axis."""
    lam = decomposition.eigenvalues[: decomposition.n_dims]
    scale = max(float(lam.max(initial=0.0)), 1.0)
    degenerate = lam <= 1e-14 * scale
    safe = np.where(degenerate, 1.0, lam)
    row = decomposition.row_masses[:, None] * decomposition.row_coords**2 / safe
    col = decomposition.col_masses[:, None] * decomposition.col_coords**2 / safe
    row[:, degenerate] = 0.0
    col[:, degenerate] = 0.0
    return ContributionTable(row_contrib=row, col_contrib=col, degenerate=degenerate)
