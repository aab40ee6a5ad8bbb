"""Dense SVD, leading singular vectors from the Gram matrix, and the L1-constrained
projections used by the penalized fits."""

import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateInputError, InputError


class SvdResult(NamedTuple):
    """Thin SVD ``x = U @ diag(s) @ V.T`` with deterministic signs.

    Attributes
    ----------
    U : ndarray of shape (n_rows, k)
        Left singular vectors, one per column.
    s : ndarray of shape (k,)
        Singular values in decreasing order, all nonnegative.
    V : ndarray of shape (n_cols, k)
        Right singular vectors, one per column.
    """

    U: np.ndarray
    s: np.ndarray
    V: np.ndarray


def full_svd(x: np.ndarray) -> SvdResult:
    """Thin SVD of one matrix, with a fixed sign convention.

    Each right singular vector is flipped, together with its left partner,
    so that its largest-magnitude entry is positive (first such entry on
    ties). This makes repeated factorizations of equal matrices identical.
    Standard CA takes every component from here; a search that needs only
    the leading vectors takes them from ``_leading_svd``.

    Parameters
    ----------
    x : ndarray of shape (n_rows, n_cols)
        Real matrix with finite entries.

    Returns
    -------
    SvdResult
        ``U``, ``s``, ``V`` with ``k = min(n_rows, n_cols)`` components.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise InputError(f"expected a 2-d array, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InputError("matrix contains non-finite entries")
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    flip = _column_signs(vt.T)
    return SvdResult(u * flip, s, vt.T * flip)


def _leading_svd(x: np.ndarray, k: int = 1) -> tuple:
    """Singular values and the first ``k`` right singular vectors of a
    matrix or of each member of a stack, from the Gram matrix of the
    shorter side.

    ``eigh`` of ``x'x`` (at most as many columns as rows) gives the right
    vectors directly; ``eigh`` of ``xx'`` (fewer rows) gives left vectors,
    which ``x'`` maps to right ones. Squaring costs accuracy in the small
    singular values, not in leading vectors a gap separates from the
    rest, so on such vectors this agrees with ``full_svd(x).V[:, :k]``,
    whose sign rule it applies, to roundoff. Every stack member gets the
    result its own call would give. A zero matrix, or a zero member, gets
    finite output without a warning: its singular values are 0, and the
    fits reject it themselves.

    Returns
    -------
    s : ndarray of shape (..., min(n_rows, n_cols))
        All singular values, in decreasing order.
    V : ndarray of shape (..., n_cols, k)
        The leading right singular vectors, one per column.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim < 2:
        raise InputError(f"expected a 2-d array or a stack of them, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InputError("matrix contains non-finite entries")
    xt = np.swapaxes(x, -1, -2)
    tall = x.shape[-1] <= x.shape[-2]
    with np.errstate(over="ignore"):
        gram = np.matmul(xt, x) if tall else np.matmul(x, xt)
    if not np.all(np.isfinite(gram)):
        raise InputError("matrix norm overflows")
    evals, evecs = np.linalg.eigh(gram)
    # eigh sorts the eigenvalues in increasing order
    v = evecs[..., ::-1][..., :k]
    if not tall:
        v = np.matmul(xt, v)
        norm = np.sqrt((v * v).sum(axis=-2, keepdims=True))
        norm[norm == 0.0] = 1.0
        v /= norm
    s = np.sqrt(np.maximum(evals[..., ::-1], 0.0))
    return s, v * _column_signs(v)


def _column_signs(v: np.ndarray) -> np.ndarray:
    """The sign, +1 or -1, of each column's first largest-magnitude entry,
    shaped ``(..., 1, k)`` to multiply ``v`` of shape ``(..., n, k)``."""
    anchor = np.abs(v).argmax(axis=-2)[..., None, :]
    sign = np.sign(np.take_along_axis(v, anchor, axis=-2))
    sign[sign == 0.0] = 1.0
    return sign


def soft_threshold(x: np.ndarray, t: float) -> np.ndarray:
    """Shrink ``x`` toward zero by ``t``, clipping at zero."""
    return np.sign(x) * np.clip(np.abs(x) - t, 0.0, None)


def l1_constrained_unit_vector(x: np.ndarray, c: float) -> np.ndarray:
    """Maximize ``x @ u`` over unit vectors with L1 norm at most ``c``.

    The maximizer is a soft-thresholded copy of ``x`` scaled to unit
    length. The threshold is zero when ``x`` already satisfies the L1
    bound; otherwise it is computed exactly from one sort of ``|x|``:
    the L1/L2 ratio of the thresholded vector rises with the number of
    surviving entries, so the breakpoints fix the survivor count ``k``
    and a quadratic in the threshold gives the value where the ratio
    equals ``c``. When ``c`` is 1, or below the square root of the
    number of entries tied at ``max|x|``, no threshold reaches the
    budget and the answer is 1-sparse at the first maximal entry.
    ``c`` must lie in ``[1, sqrt(len(x))]``: below 1 the constraints
    are incompatible with a unit vector, above ``sqrt(len(x))`` the
    bound can never bind.

    The rank-1 fits project a stack of rows, each under its own budget,
    with one sort along the rows; this function runs that routine on a
    stack of one row.

    Parameters
    ----------
    x : ndarray of shape (n,)
        Direction to project. Must contain a nonzero entry.
    c : float
        L1 budget, between 1 and ``sqrt(n)`` inclusive.

    Returns
    -------
    ndarray of shape (n,)
        Unit vector ``u`` with ``sum(abs(u)) <= c`` up to roundoff.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise InputError(f"expected a 1-d array, got shape {x.shape}")
    n = x.size
    if n == 0:
        raise DegenerateInputError("cannot project an empty vector")
    if not (1.0 <= c <= math.sqrt(n) + 1e-12):
        raise InputError(f"L1 budget {c} outside [1, sqrt({n})]")
    return _l1_project_rows(x[None], np.array([c], dtype=float))[0]


def _l1_project_rows(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``l1_constrained_unit_vector`` of each row of a stack.

    ``x`` has shape (B, n) and ``c`` shape (B,): one budget per row, each
    in ``[1, sqrt(n)]`` or infinite; an infinite budget never binds, so
    its row is only normalized. Every row's result depends on that row and
    its budget alone.
    """
    # one dot product per row, the way np.linalg.norm takes it
    norm = np.sqrt(np.matmul(x[:, None, :], x[:, :, None]))[:, 0, 0]
    if np.count_nonzero((norm > 0.0) & (norm < np.inf)) < norm.size:
        if not np.isfinite(x).all():
            raise InputError("vector contains non-finite entries")
        if np.count_nonzero(norm) < norm.size:
            raise DegenerateInputError("cannot project an all-zero vector")
        raise InputError("vector norm overflows")
    abs_x = np.abs(x)
    # ||x||_1 <= c ||x||_2 means the budget does not bind and the answer
    # is x / ||x||; one L1 and one L2 reduction per row find those rows
    # before anything is sorted
    binding = abs_x.sum(axis=-1) > c * norm
    n_binding = np.count_nonzero(binding)
    if n_binding < binding.size:
        out = x / norm[:, None]
        if n_binding:
            # a stack with some binding rows: project just those
            rows = np.flatnonzero(binding)
            out[rows] = _l1_project_rows(x[rows], c[rows])
        return out

    n = x.shape[-1]
    # |x| in decreasing order, padded with the 0 that follows the last entry
    a = np.zeros((x.shape[0], n + 1))
    a[:, :n] = np.sort(abs_x, axis=-1)[:, ::-1]
    top = a[:, :1]
    # L1 and L2 norms of the top k entries shrunk by the next one, a[k],
    # for k = 1..n; summed from the nonnegative gaps between neighbours so
    # that no large cumulative sums cancel
    gaps = a[:, :n] - a[:, 1:]
    weighted = np.arange(1, n + 1) * gaps
    l1 = np.zeros(a.shape)
    weighted.cumsum(axis=-1, out=l1[:, 1:])
    l2 = np.sqrt((gaps * (2.0 * l1[:, :n] + weighted)).cumsum(axis=-1))
    l1 = l1[:, 1:]
    # the gaps, and so l1, are exactly 0 up to the entries tied at max|x|
    moved = l1 > 0.0
    n_tied = moved.argmax(axis=-1) + 1
    # The ratio rises with k, so the first k >= n_tied reaching c is the
    # survivor count; a row the gap sums put just inside the budget keeps
    # all n entries.
    reach = (l1 >= c[:, None] * l2) & moved
    reach[:, -1] = True
    k = reach.argmax(axis=-1) + 1
    # With depths d = max|x| - |x| of the survivors, sigma = max|x| -
    # threshold solves sum(sigma - d) = c * norm(sigma - d); depths stay
    # exact for near-ties at the top, where the threshold itself would
    # round onto one of them. The survivor sums are running sums read at
    # k, so a row's result does not depend on the other rows of a stack.
    k_max = k.max()
    depth = top - a[:, : k_max + 1]
    mean = _row_pick(depth[:, :k_max].cumsum(axis=-1), k - 1) / k
    squares = ((depth[:, :k_max] - mean[:, None]) ** 2).cumsum(axis=-1)
    spread = k * _row_pick(squares, k - 1)
    slack = k - c * c
    # sigma is capped at max|x| - a[k] so that rounding turns on no entry
    # past the survivors. With the survivors tied (spread 0, or slack <= 0
    # from rounding) every threshold below them gives the same direction
    # and the cap is the answer.
    cap = _row_pick(depth, k)
    solved = (spread > 0.0) & (slack > 0.0)
    if np.count_nonzero(solved) < solved.size:
        spread, slack = np.where(solved, spread, np.inf), np.where(solved, slack, 1.0)
    sigma = np.minimum(cap, mean + c / k * np.sqrt(spread / slack))
    u = np.copysign(np.maximum(sigma[:, None] - (top - abs_x), 0.0), x)
    u /= np.sqrt(np.matmul(u[:, None, :], u[:, :, None]))[:, 0]
    # c = 1, or c below sqrt(#ties at the top), admits no threshold: the
    # answer is 1-sparse at the first maximal entry
    one_sparse = (c == 1.0) | (c < np.sqrt(n_tied))
    if np.count_nonzero(one_sparse):
        first = abs_x.argmax(axis=-1)[:, None]
        e = np.zeros_like(u)
        np.put_along_axis(e, first, np.sign(np.take_along_axis(x, first, axis=-1)), axis=-1)
        u = np.where(one_sparse[:, None], e, u)
    return u


def _row_pick(x: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Entry ``index[i]`` of row ``i``, for every row of a stack."""
    return x[np.arange(len(index)), index]
