"""Dense SVD and the L1-constrained projections used by the penalized fits."""

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
    """Thin SVD with a fixed sign convention.

    Each right singular vector is flipped, together with its left partner,
    so that its largest-magnitude entry is positive (first such entry on
    ties). This makes repeated factorizations of equal matrices identical.

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
    v = vt.T
    # argmax over |v| picks the first maximal entry, so ties break low.
    anchor = np.abs(v).argmax(axis=0)
    flip = np.sign(v[anchor, np.arange(v.shape[1])])
    flip[flip == 0.0] = 1.0
    return SvdResult(u * flip, s, v * flip)


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
    if not np.all(np.isfinite(x)):
        raise InputError("vector contains non-finite entries")
    n = x.size
    if n == 0:
        raise DegenerateInputError("cannot project an empty vector")
    if not (1.0 <= c <= np.sqrt(n) + 1e-12):
        raise InputError(f"L1 budget {c} outside [1, sqrt({n})]")
    norm2 = np.linalg.norm(x)
    if norm2 == 0.0:
        raise DegenerateInputError("cannot project an all-zero vector")

    a = np.sort(np.abs(x))[::-1]
    n_tied = int(np.count_nonzero(a == a[0]))
    if c == 1.0 or c < np.sqrt(n_tied):
        u = np.zeros(n)
        j = int(np.abs(x).argmax())
        u[j] = np.sign(x[j])
        return u
    # L1 and L2 norms of the top k entries shrunk by the next one, a[k]
    # (0 past the end), for k = 1..n; summed from the nonnegative gaps
    # between neighbours so that no large cumulative sums cancel
    below = np.append(a[1:], 0.0)
    gaps = a - below
    counts = np.arange(1, n + 1)
    l1 = np.cumsum(counts * gaps)
    l2 = np.sqrt(np.cumsum(gaps * (2.0 * np.append(0.0, l1[:-1]) + counts * gaps)))
    if l1[-1] <= c * l2[-1]:
        return x / norm2
    # The ratio rises with k, so the first k reaching c is the survivor
    # count. With depths d = max|x| - |x| of the survivors, sigma =
    # max|x| - threshold solves sum(sigma - d) = c * norm(sigma - d);
    # depths stay exact for near-ties at the top, where the threshold
    # itself would round onto one of them.
    k = n_tied + int(np.argmax(l1[n_tied - 1 :] >= c * l2[n_tied - 1 :]))
    depth = a[0] - a[:k]
    mean = depth.mean()
    spread = k * float(((depth - mean) ** 2).sum())
    slack = k - c * c
    # sigma is capped at max|x| - a[k] so that rounding turns on no entry
    # past the survivors. With the survivors tied (spread 0, or slack <= 0
    # from rounding) every threshold below them gives the same direction
    # and the cap is the answer.
    sigma = a[0] - below[k - 1]
    if spread > 0.0 and slack > 0.0:
        sigma = min(sigma, mean + c / k * np.sqrt(spread / slack))
    u = np.sign(x) * np.clip(sigma - (a[0] - np.abs(x)), 0.0, None)
    return u / np.linalg.norm(u)
