"""Dense SVD and the L1-constrained projections used by the penalized fits."""

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
    """Thin SVD with a fixed sign convention, of one matrix or a stack.

    Each right singular vector is flipped, together with its left partner,
    so that its largest-magnitude entry is positive (first such entry on
    ties). This makes repeated factorizations of equal matrices identical.
    A stack of shape ``(..., n_rows, n_cols)`` is factorized member by
    member in one call, with the sign rule applied to each; every member
    gets the same result as its own call. Cross-validation factorizes all
    the refilled matrices of a sweep this way.

    Parameters
    ----------
    x : ndarray of shape (n_rows, n_cols) or (..., n_rows, n_cols)
        Real matrix, or stack of matrices, with finite entries.

    Returns
    -------
    SvdResult
        ``U``, ``s``, ``V`` with ``k = min(n_rows, n_cols)`` components,
        carrying the stack's leading axes in front.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim < 2:
        raise InputError(f"expected a 2-d array or a stack of them, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InputError("matrix contains non-finite entries")
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    # argmax over |v| picks the first maximal entry, so ties break low.
    anchor = np.abs(vt).argmax(axis=-1)
    rows = vt.reshape(-1, vt.shape[-1])
    flip = np.sign(_row_pick(rows, anchor.ravel())).reshape(anchor.shape)
    flip[flip == 0.0] = 1.0
    flip = flip[..., None, :]
    return SvdResult(u * flip, s, np.swapaxes(vt, -1, -2) * flip)


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

    This is the one-row case of a routine that projects a stack of rows,
    each under its own budget, with one sort along the rows; the rank-1
    fits of a cross-validation sweep project all their rows that way.

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
    return _l1_project_rows(x, c)


def _l1_project_rows(x: np.ndarray, c) -> np.ndarray:
    """``l1_constrained_unit_vector`` of a vector, or of each row of a stack.

    ``x`` has shape (B, n) and ``c`` shape (B,): one budget per row, each
    in ``[1, sqrt(n)]`` or infinite; an infinite budget never binds, so
    its row is only normalized. Every row's result depends on that row and
    its budget alone. A single vector (``x`` of shape (n,), ``c`` a float)
    runs the same code with numpy scalars in place of the per-row arrays.
    """
    # one dot product per row, the way np.linalg.norm takes it
    norm = np.sqrt(np.matmul(x[..., None, :], x[..., :, None]))[..., 0, 0][()]
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
        out = x / norm[..., None]
        if n_binding:
            # a stack with some binding rows: project just those
            rows = np.flatnonzero(binding)
            out[rows] = _l1_project_rows(x[rows], c[rows])
        return out

    n = x.shape[-1]
    # |x| in decreasing order, padded with the 0 that follows the last entry
    a = np.zeros(x.shape[:-1] + (n + 1,))
    a[..., :n] = np.sort(abs_x, axis=-1)[..., ::-1]
    top = a[..., :1]
    # L1 and L2 norms of the top k entries shrunk by the next one, a[k],
    # for k = 1..n; summed from the nonnegative gaps between neighbours so
    # that no large cumulative sums cancel
    gaps = a[..., :n] - a[..., 1:]
    weighted = np.arange(1, n + 1) * gaps
    l1 = np.zeros(a.shape)
    weighted.cumsum(axis=-1, out=l1[..., 1:])
    l2 = np.sqrt((gaps * (2.0 * l1[..., :n] + weighted)).cumsum(axis=-1))
    l1 = l1[..., 1:]
    # the gaps, and so l1, are exactly 0 up to the entries tied at max|x|
    moved = l1 > 0.0
    n_tied = moved.argmax(axis=-1) + 1
    # The ratio rises with k, so the first k >= n_tied reaching c is the
    # survivor count; a row the gap sums put just inside the budget keeps
    # all n entries.
    reach = (l1 >= np.asarray(c)[..., None] * l2) & moved
    reach[..., -1] = True
    k = reach.argmax(axis=-1) + 1
    # With depths d = max|x| - |x| of the survivors, sigma = max|x| -
    # threshold solves sum(sigma - d) = c * norm(sigma - d); depths stay
    # exact for near-ties at the top, where the threshold itself would
    # round onto one of them. The survivor sums are running sums read at
    # k, so a row's result does not depend on the other rows of a stack.
    k_max = k.max() if k.ndim else k
    depth = top - a[..., : k_max + 1]
    mean = _row_pick(depth[..., :k_max].cumsum(axis=-1), k - 1) / k
    squares = ((depth[..., :k_max] - mean[..., None]) ** 2).cumsum(axis=-1)
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
    u = np.copysign(np.maximum(sigma[..., None] - (top - abs_x), 0.0), x)
    u /= np.sqrt(np.matmul(u[..., None, :], u[..., :, None]))[..., 0]
    # c = 1, or c below sqrt(#ties at the top), admits no threshold: the
    # answer is 1-sparse at the first maximal entry
    one_sparse = (c == 1.0) | (c < np.sqrt(n_tied))
    if np.count_nonzero(one_sparse):
        first = abs_x.argmax(axis=-1)[..., None]
        e = np.zeros_like(u)
        np.put_along_axis(e, first, np.sign(np.take_along_axis(x, first, axis=-1)), axis=-1)
        u = np.where(np.asarray(one_sparse)[..., None], e, u)
    return u


def _row_pick(x: np.ndarray, index) -> np.ndarray:
    """``x[..., index]`` taken row by row: entry ``index[i]`` of row ``i``
    of a stack, or entry ``index`` of a single vector."""
    if np.ndim(index) == 0:
        return x[..., index]
    return x[np.arange(len(index)), index]
