"""Sparse correspondence analysis via penalized rank-1 decomposition.

Each dimension solves ``max u' Z v`` over unit vectors with L1 budgets
on one or both sides, by alternating soft-thresholded projections in
the one loop that every fit and search runs through (``_rank1_fits``).
After a few plain iterations the loop steps from a safeguarded Anderson
extrapolation of the column weights, kept only when it does not lower
``u' Z v``, so fits whose plain iterates contract slowly stop in a few
dozen iterations instead of hundreds.
The fitted direction is removed from the working matrix with a two-sided
projection before the next dimension is extracted, which keeps later
weight vectors nearly orthogonal to earlier ones even though sparsity
breaks exact orthogonality.
"""

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ca import ContingencyTable, _dims_limit, _residual_matrices
from .errors import DegenerateInputError, InputError, SparseCAError
from .linalg import _column_signs, _l1_project_rows, _leading_svd

VARIANTS = ("doubly_sparse", "column_sparse")
COL_SCALES = ("barycentric", "rescaled")
# spacing of the budget grid walked by nnz_target_search
NNZ_GRID_STEP = 0.2
# a rank-1 fit stops at its first column-weight change below STOP_TOL
STOP_TOL = 1e-7
# the rank-1 loop takes ANDERSON_WARMUP plain steps, then extrapolates each
# member's column weights from its last ANDERSON_MEMORY steps; the least
# squares behind an extrapolation carry a ridge of ANDERSON_RIDGE times
# their scale, and at least _TINY, so that a history whose residuals did
# not change still has a solution
ANDERSON_WARMUP = 5
ANDERSON_MEMORY = 3
ANDERSON_RIDGE = 1e-10
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class SparsityConstraint:
    """L1 budget specification for one fitted dimension.

    Four modes:

    - ``absolute``: explicit budgets for row weights (``sumabsu``, in
      ``[1, sqrt(n_rows)]``) and column weights (``sumabsv``, in
      ``[1, sqrt(n_cols)]``).
    - ``coupled``: one scale-free value ``sumabs`` in
      ``(max(1/sqrt(n_rows), 1/sqrt(n_cols)), 1]``; the side budgets are
      ``sumabs`` times the square root of each dimension.
    - ``unpenalized_rows``: row weights only normalized, column budget
      ``sumabsv`` applies.
    - ``nonzero_target``: ask for at least ``count`` surviving weights
      on ``axis`` ("rows" or "cols"); resolved to a concrete budget by
      a grid search before fitting.
    """

    mode: str
    sumabsu: float | None = None
    sumabsv: float | None = None
    sumabs: float | None = None
    count: int | None = None
    axis: str | None = None

    @classmethod
    def absolute(cls, sumabsu: float, sumabsv: float) -> "SparsityConstraint":
        return cls(mode="absolute", sumabsu=float(sumabsu), sumabsv=float(sumabsv))

    @classmethod
    def coupled(cls, sumabs: float) -> "SparsityConstraint":
        return cls(mode="coupled", sumabs=float(sumabs))

    @classmethod
    def unpenalized_rows(cls, sumabsv: float) -> "SparsityConstraint":
        return cls(mode="unpenalized_rows", sumabsv=float(sumabsv))

    @classmethod
    def nonzero_target(cls, count: int, axis: str) -> "SparsityConstraint":
        if axis not in ("rows", "cols"):
            raise InputError(f"axis must be 'rows' or 'cols', got {axis!r}")
        if count < 1:
            raise InputError(f"nonzero target must be at least 1, got {count}")
        return cls(mode="nonzero_target", count=int(count), axis=axis)

    def budgets(self, shape: tuple) -> tuple:
        """Effective (row budget, column budget) for a matrix of ``shape``.

        A row budget of None means the row weights are only normalized,
        never thresholded. Raises on out-of-range values; a
        ``nonzero_target`` constraint has no budget until resolved.
        """
        n_rows, n_cols = shape
        lim_u, lim_v = np.sqrt(n_rows), np.sqrt(n_cols)
        if self.mode == "absolute":
            if self.sumabsu is None or self.sumabsv is None:
                raise InputError("absolute mode needs both sumabsu and sumabsv")
            for name, value, lim in (
                ("sumabsu", self.sumabsu, lim_u),
                ("sumabsv", self.sumabsv, lim_v),
            ):
                if not 1.0 <= value <= lim + 1e-12:
                    raise InputError(f"{name}={value} outside [1, {lim:.6g}]")
            return self.sumabsu, self.sumabsv
        if self.mode == "coupled":
            if self.sumabs is None:
                raise InputError("coupled mode needs sumabs")
            low = max(1.0 / lim_u, 1.0 / lim_v)
            if not low < self.sumabs <= 1.0:
                raise InputError(
                    f"sumabs={self.sumabs} outside ({low:.6g}, 1]"
                )
            return self.sumabs * lim_u, self.sumabs * lim_v
        if self.mode == "unpenalized_rows":
            if self.sumabsv is None:
                raise InputError("unpenalized_rows mode needs sumabsv")
            if not 1.0 <= self.sumabsv <= lim_v + 1e-12:
                raise InputError(f"sumabsv={self.sumabsv} outside [1, {lim_v:.6g}]")
            return None, self.sumabsv
        if self.mode == "nonzero_target":
            raise InputError(
                "nonzero_target constraints must be resolved to a budget "
                "(see nnz_target_search) before fitting"
            )
        raise InputError(f"unknown constraint mode {self.mode!r}")

    def penalized_sides(self) -> tuple:
        """Which sides carry an active budget, as a subset of ("rows", "cols")."""
        if self.mode == "unpenalized_rows":
            return ("cols",)
        if self.mode == "nonzero_target":
            return (self.axis,)
        return ("rows", "cols")


@dataclass
class SparseFactor:
    """One fitted rank-1 component.

    ``u`` and ``v`` are unit weight vectors; ``alpha`` is the bilinear
    form ``u' Z v`` they achieve and ``eigenvalue`` its square, the
    sparse analogue of a CA eigenvalue. Weights thresholded away are
    exact zeros, counted by ``nnz_u`` and ``nnz_v``.
    """

    u: np.ndarray
    v: np.ndarray
    alpha: float
    eigenvalue: float
    nnz_u: int
    nnz_v: int
    constraint: SparsityConstraint
    converged: bool
    n_iter: int


def pmd_rank1(
    z: np.ndarray,
    constraint: SparsityConstraint,
    max_iter: int = 200,
) -> SparseFactor:
    """Penalized rank-1 fit of ``z`` by alternating L1 projections.

    Starts from the feasible projection of the leading right singular
    vector of ``z``, taken from its Gram matrix (``linalg._leading_svd``),
    and alternates ``u <- project(z v)``, ``v <- project(z' u)`` until the
    column weights move less than ``STOP_TOL`` (1e-7) in the max norm. After
    ``ANDERSON_WARMUP`` (5) such iterations, an iteration steps from an
    Anderson extrapolation of the last ``ANDERSON_MEMORY`` (3) steps
    instead of from ``v``, and keeps that step only when it does not
    lower ``u'Zv``; otherwise it takes the plain step. With both budgets
    at their upper bounds the projections are plain normalizations and
    the result is the leading singular triplet. The fit is a stack of one
    member of the loop every fit and search shares (``_rank1_fits``),
    which takes that warm start itself.

    Parameters
    ----------
    z : ndarray of shape (n_rows, n_cols)
        Matrix to decompose; must be nonzero.
    constraint : SparsityConstraint
        Budget specification. ``nonzero_target`` must be resolved first.
    max_iter : int
        Iteration cap.

    Returns
    -------
    SparseFactor
        With ``alpha`` evaluated on ``z`` itself. A fit that hits
        ``max_iter`` is returned with ``converged=False`` and a warning.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 2:
        raise InputError(f"expected a 2-d matrix, got shape {z.shape}")
    fit = _rank1_fits(z, [constraint], max_iter=max_iter)
    _warn_unconverged(fit, stacklevel=2)
    return fit.factor(0, constraint)


class _StackFit(NamedTuple):
    """Rank-1 fits of ``_rank1_fits``, with one entry per member;
    ``change`` is each member's last column-weight change."""

    u: np.ndarray
    v: np.ndarray
    alpha: np.ndarray
    converged: np.ndarray
    n_iter: np.ndarray
    change: np.ndarray

    def factor(self, member: int, constraint: SparsityConstraint) -> SparseFactor:
        """The ``SparseFactor`` of one member, fitted under ``constraint``."""
        u, v, alpha = self.u[member], self.v[member], float(self.alpha[member])
        return SparseFactor(
            u=u,
            v=v,
            alpha=alpha,
            eigenvalue=alpha**2,
            nnz_u=int(np.count_nonzero(u)),
            nnz_v=int(np.count_nonzero(v)),
            constraint=constraint,
            converged=bool(self.converged[member]),
            n_iter=int(self.n_iter[member]),
        )


def _rank1_fits(z, constraints, start=None, max_iter=200) -> _StackFit:
    """The alternating loop of ``pmd_rank1``, for a stack of fits with one
    member per constraint.

    ``z`` is a stack of shape (B, n, m), or one matrix of shape (n, m)
    that every member fits; the budgets are taken over (n, m), once per
    distinct constraint, and unpenalized rows get an infinite row budget.
    ``start`` defaults to the leading right singular vector of ``z``, or
    of each member of a stack (``linalg._leading_svd``). A start of shape
    (m,) is broadcast over the members, and a shared matrix too: neither
    is copied per member.

    One iteration is one step ``u <- project(z x)``, ``v <- project(z' u)``
    of the column-weight map. In the first ``ANDERSON_WARMUP`` iterations
    ``x`` is the current column weights ``v``. After them, a member with a
    history steps from the type-II Anderson extrapolation ``x`` of its last
    ``ANDERSON_MEMORY`` steps instead (``_anderson_point``). The safeguard
    keeps that step only when its ``u'Zv`` is at least the current pair's;
    otherwise the member takes the plain step from ``v`` in the same
    iteration and clears its history. So ``u'Zv`` never falls, and
    ``_check_ascent`` checks each half-step once, over every member whose
    step was plain. A member stops at its first column-weight change below
    ``STOP_TOL``, or at ``max_iter``; the change of a step is the larger of
    its moves from ``v`` and from ``x``.

    Members are independent: each one ends with the weights, iteration
    count and checks its own fit would give, to the last bit. A member's
    state (budgets, iterate, objective, history) is allocated before the
    first step and dropped in one statement once the member stops.

    Cross-validation fits the folds and grid cells of a sweep as a stack
    of matrices; ``weight_paths``, the grid searches and
    ``nnz_target_search`` fit their budgets of one matrix as a
    shared-matrix stack, the last up to the first budget whose square
    reaches its target, as a binding budget then keeps enough weights;
    ``pmd_rank1`` is a stack of one member. The loop never warns: each
    caller warns for the members it uses that stopped at ``max_iter``
    (``_warn_unconverged``). The weights leave under the SVDs' sign rule,
    ``linalg._column_signs``.
    """
    if start is None:
        start = _leading_svd(z)[1][..., 0]
    resolved = {c: c.budgets(z.shape[-2:]) for c in dict.fromkeys(constraints)}
    budgets = [resolved[c] for c in constraints]
    budget_u = np.array([np.inf if bu is None else bu for bu, _ in budgets])
    budget_v = np.array([bv for _, bv in budgets])
    if max_iter < 1:
        raise InputError(f"max_iter must be at least 1, got {max_iter}")
    if not np.isfinite(z).all():
        raise InputError("matrix contains non-finite entries")
    nonzero = z.any(axis=(-2, -1))
    if np.count_nonzero(nonzero) < nonzero.size:
        raise DegenerateInputError("cannot decompose an all-zero matrix")
    # the raw leading singular vector can exceed the L1 budget, so warm
    # start from its feasible projection; with an inactive budget this is
    # the singular vector itself
    starts = np.broadcast_to(start, (budget_v.size, z.shape[-1]))
    v = _l1_project_rows(starts, budget_v)
    # members still iterating; each member that stops is written to its own
    # row of the results
    live = np.arange(budget_v.size)
    u_out = np.empty((live.size, z.shape[-2]))
    v_out = np.empty_like(v)
    change_out = np.empty(live.size)
    n_iter = np.empty(live.size, dtype=int)
    zs, zts, bu, bv = z, np.swapaxes(z, -1, -2), budget_u, budget_v
    objective = np.full(live.size, -np.inf)
    # each member's Anderson history: how the residual f = v_new - x and the
    # image v_new changed between successive steps, in a ring of
    # ANDERSON_MEMORY slots that all members write at every step, with the
    # Gram matrix of the residual changes; a member's n_diff newest slots
    # are valid. Single precision halves its memory; the steps themselves,
    # which the safeguard and the stop rule judge, stay double.
    d_f = np.zeros((live.size, ANDERSON_MEMORY, v.shape[-1]), dtype=np.float32)
    d_g = np.zeros_like(d_f)
    gram = np.zeros((live.size, ANDERSON_MEMORY, ANDERSON_MEMORY))
    f_last = np.zeros_like(v, dtype=np.float32)
    n_diff = np.zeros(live.size, dtype=int)

    def full_step(zs, zts, x, bu, bv):
        """One iteration from column weights ``x``, per member: ``u =
        project(z x)``, ``u'Zx``, ``v = project(z' u)`` and ``u'Zv``."""
        zx = np.matmul(zs, x[..., None])[..., 0]
        u = _l1_project_rows(zx, bu)
        zu = np.matmul(zts, u[..., None])[..., 0]
        v = _l1_project_rows(zu, bv)
        return u, (u * zx).sum(axis=-1), v, (zu * v).sum(axis=-1)

    for step in range(1, max_iter + 1):
        x, tried = v, np.zeros(live.size, dtype=bool)
        if step > ANDERSON_WARMUP and np.count_nonzero(n_diff):
            newest = (step - 1) % ANDERSON_MEMORY
            x, tried = _anderson_point(v, f_last, d_f, d_g, gram, n_diff, newest)
        u, after_u, v_new, after_v = full_step(zs, zts, x, bu, bv)
        # the safeguard: a member whose extrapolated step lowered u'Zv takes
        # the plain step from v instead
        refused = tried & (after_v < objective)
        if np.count_nonzero(refused):
            rows = np.flatnonzero(refused)
            z_rows = (zs[rows], zts[rows]) if zs.ndim == 3 else (zs, zts)
            x[rows] = v[rows]
            u[rows], after_u[rows], v_new[rows], after_v[rows] = full_step(
                *z_rows, v[rows], bu[rows], bv[rows]
            )
        # each plain half-step maximizes the bilinear form over a set that
        # contains the previous iterate; a step from an extrapolated point
        # need not, and the safeguard has judged it
        plain = ~tried | refused
        _check_ascent("row", np.where(plain, objective, -np.inf), after_u)
        _check_ascent("column", np.where(plain, after_u, -np.inf), after_v)
        residual = v_new - x
        # a step from an extrapolated point also has to be short from that
        # point, or a far point that happens to map near the last iterate
        # would pass for convergence; for a plain step both moves are one
        change = np.maximum(np.abs(v_new - v).max(axis=-1), np.abs(residual).max(axis=-1))
        slot = step % ANDERSON_MEMORY
        d_f[:, slot], d_g[:, slot] = residual - f_last, v_new - v
        column = np.matmul(d_f, d_f[:, slot, :, None])[..., 0]
        gram[:, slot, :], gram[:, :, slot] = column, column
        # a refused member starts its history afresh
        n_diff = np.where(refused, 0, np.minimum(n_diff + 1, ANDERSON_MEMORY))
        f_last = residual.astype(np.float32)
        v, objective = v_new, after_v
        done = (change < STOP_TOL) | (step == max_iter)
        n_done = np.count_nonzero(done)
        if n_done:
            members = live[done]
            u_out[members], v_out[members] = u[done], v[done]
            change_out[members], n_iter[members] = change[done], step
            if n_done == done.size:
                break
            keep = ~done
            live, bu, bv, v, objective, n_diff, d_f, d_g, gram, f_last = (
                a[keep] for a in (live, bu, bv, v, objective, n_diff, d_f, d_g, gram, f_last)
            )
            # a matrix stack gives each member its own matrix; a shared one stays whole
            zs, zts = (zs[keep], zts[keep]) if zs.ndim == 3 else (zs, zts)

    sign = _column_signs(v_out.T).T
    u, v, change = u_out * sign, v_out * sign, change_out
    alpha = np.matmul(np.matmul(u[:, None, :], z), v[:, :, None])[:, 0, 0]
    if np.count_nonzero(alpha < 0.0):
        raise SparseCAError(
            f"rank-1 fit ended with negative u'Zv = {alpha[alpha < 0.0][0]:.9g}"
        )
    return _StackFit(u, v, alpha, change < STOP_TOL, n_iter, change)


def _anderson_point(v, f_last, d_f, d_g, gram, n_diff, newest) -> tuple:
    """Type-II Anderson extrapolation of each member's column weights, and
    which members have a history to extrapolate from.

    ``gamma`` minimizes ``|f_last - d_f' gamma|`` over a member's valid
    history slots, the ``n_diff`` written last (``newest`` is the slot of
    the last step), by the normal equations with a ridge of
    ``ANDERSON_RIDGE`` times their trace, solved for all members at once.
    The point is ``v - d_g' gamma``, as ``v`` is the image of the last
    step; a member without a history keeps ``v``.
    """
    slots = np.arange(ANDERSON_MEMORY)
    valid = (newest - slots) % ANDERSON_MEMORY < n_diff[:, None]
    lhs = np.where(valid[:, :, None] & valid[:, None, :], gram, 0.0)
    rhs = np.where(valid[..., None], np.matmul(d_f, f_last[..., None]), 0.0)
    ridge = np.maximum(ANDERSON_RIDGE * np.trace(lhs, axis1=1, axis2=2), _TINY)
    # an invalid slot gets a unit diagonal, and so a zero weight
    lhs[:, slots, slots] += np.where(valid, ridge[:, None], 1.0)
    gamma = np.linalg.solve(lhs, rhs)
    tried = n_diff > 0
    x = v - np.matmul(np.swapaxes(gamma, -1, -2).astype(np.float32), d_g)[:, 0]
    return np.where(tried[:, None], x, v), tried


def _warn_unconverged(fit: _StackFit, stacklevel: int, count=None) -> None:
    """Warn, in member order, for each member of ``fit`` that stopped at
    the iteration cap: of all members, or of the first ``count``.

    ``stacklevel`` is counted from the caller, as ``warnings.warn``
    counts it from its own caller.
    """
    for i in np.flatnonzero(~fit.converged[:count]):
        warnings.warn(
            f"rank-1 fit did not converge in {fit.n_iter[i]} iterations "
            f"(last column-weight change {fit.change[i]:.2e})",
            stacklevel=stacklevel + 1,
        )


def _check_ascent(side: str, before: np.ndarray, after: np.ndarray) -> None:
    """Raise if a half-step lowered any member's objective beyond roundoff."""
    # the allowance is at least 1e-7, so smaller drops need no closer look
    if not np.count_nonzero(before - after > 1e-7):
        return
    dropped = after < before - 1e-7 * np.maximum(1.0, np.abs(after))
    if np.count_nonzero(dropped):
        i = int(dropped.argmax())
        raise SparseCAError(
            f"rank-1 ascent broken: {side} update lowered u'Zv from "
            f"{before[i]:.9g} to {after[i]:.9g}"
        )


def ppmd_deflate(z: np.ndarray, factor: SparseFactor) -> np.ndarray:
    """Remove a fitted component by projecting both sides of ``z``.

    Returns ``(I - u u') z (I - v v')``, which annihilates ``u`` on the
    left and ``v`` on the right exactly (up to roundoff), whatever the
    sparsity of the weights.
    """
    u, v = factor.u, factor.v
    if abs(np.linalg.norm(u) - 1.0) > 1e-8 or abs(np.linalg.norm(v) - 1.0) > 1e-8:
        raise InputError("deflation requires unit-norm weight vectors")
    uz = u @ z
    zv = z @ v
    return z - np.outer(u, uz) - np.outer(zv, v) + (u @ zv) * np.outer(u, v)


def _deflate_through(z: np.ndarray, prior_factors, total=None) -> np.ndarray:
    """``z`` with ``prior_factors`` deflated out in turn. A remainder of at
    most 1e-14 of ``total``, the squared norm of the undeflated matrix
    (``z``'s by default), is roundoff: ``DegenerateInputError``."""
    z_work = z
    for factor in prior_factors:
        z_work = ppmd_deflate(z_work, factor)
    rest = float((z_work**2).sum())
    total = float((z**2).sum()) if total is None else total
    # a zero matrix is left to the fits, which reject it themselves
    if total > 0.0 and rest <= 1e-14 * total:
        raise DegenerateInputError(
            f"the prior dimensions leave {rest / total:.3g} of the squared norm,"
            " which is roundoff: no dimension is left to fit"
        )
    return z_work


def coordinates_from_weights(
    z: np.ndarray,
    r: np.ndarray,
    c: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    eigenvalue: float,
) -> tuple:
    """Map weight vectors to row and column coordinates.

    The row coordinate is the margin-scaled image of ``v`` through ``z``,
    the standardized residuals of a table with margins ``r`` and ``c``,
    rescaled so its weighted variance equals ``eigenvalue``; likewise for
    columns through ``u``. Exact singular vectors and their eigenvalue
    give the standard CA coordinates. Signs follow the weights: the row
    coordinate keeps a nonnegative inner product with the margin-scaled
    ``u``, the column coordinate with the margin-scaled ``v``.
    """
    if eigenvalue <= 0:
        raise DegenerateInputError("coordinates need a positive eigenvalue")
    if abs(np.linalg.norm(u) - 1.0) > 1e-8 or abs(np.linalg.norm(v) - 1.0) > 1e-8:
        raise InputError("weights must be unit vectors")
    scale = np.sqrt(eigenvalue)
    coords = []
    for image, mass, weights, side in ((z @ v, r, u, "column"), (z.T @ u, c, v, "row")):
        norm = np.linalg.norm(image)
        if norm < 1e-300:
            raise DegenerateInputError(f"{side} weights lie in the null space")
        coord = image / np.sqrt(mass) * (scale / norm)
        coords.append(-coord if coord @ (weights / np.sqrt(mass)) < 0 else coord)
    return tuple(coords)


def column_sparse_coordinates(
    p: np.ndarray,
    r: np.ndarray,
    c: np.ndarray,
    a: np.ndarray,
    spread: str = "rescaled",
) -> np.ndarray:
    """Column coordinates for a fit that only sparsifies column weights.

    ``barycentric`` places each column at the weighted mean of the row
    coordinates ``a`` of its profile; ``rescaled`` stretches that
    direction so the weighted variance of the columns equals that of the
    rows, ``a**2 @ r`` (the eigenvalue, for rows from
    ``coordinates_from_weights``).
    """
    if spread not in COL_SCALES:
        raise InputError(f"spread must be one of {COL_SCALES}, got {spread!r}")
    barycenter = (p.T @ a) / c
    if spread == "barycentric":
        return barycenter
    weighted = float(barycenter**2 @ c)
    if weighted < 1e-300:
        raise DegenerateInputError(
            "column barycenters are all at the origin; use spread='barycentric'"
        )
    return barycenter * np.sqrt(float(a**2 @ r) / weighted)


class NnzSearchResult(NamedTuple):
    """Outcome of a budget search for a nonzero-count target."""

    value: float
    nnz: int
    target_met: bool


def nnz_target_search(z: np.ndarray, target: int, axis: str = "cols") -> NnzSearchResult:
    """Smallest grid budget whose fit keeps at least ``target`` weights.

    Walks a grid from 1 to the square root of the axis length in
    increments of ``NNZ_GRID_STEP``, fitting a rank-1 component per
    value with the other side unpenalized, and returns the first budget
    reaching ``target`` nonzeros on ``axis``. If no grid value reaches
    it, the closest achieving budget is returned with
    ``target_met=False`` and a warning.

    The walk ends at the first budget ``c`` with ``c**2 >= target``: a
    unit vector's L1 norm is at most the square root of its nonzero
    count, so a binding budget keeps at least ``c**2`` weights
    (``floor(c**2)`` or one more on tied maxima) at every iterate, the
    capped one included. Without a bind the weights are the normalized
    image of the other side, short only where it has exact zeros, and
    the walk reports the closest count among the budgets it fitted.
    These are fitted as one stack over ``z`` from its leading right
    singular vector, as ``pmd_rank1`` starts; each fit equals its own
    ``pmd_rank1`` fit, and only the fits up to the hit warn when they do
    not converge, as a walk of single fits would.
    """
    return _nnz_walk(z, target, axis, stacklevel=2)[0]


def _nnz_walk(z, target, axis, stacklevel) -> tuple:
    """``nnz_target_search``, and the ``SparseFactor`` fitted at the budget
    it returns. ``stacklevel`` is counted from the caller, as in
    ``_warn_unconverged``."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 2:
        raise InputError(f"expected a 2-d matrix, got shape {z.shape}")
    if axis not in ("rows", "cols"):
        raise InputError(f"axis must be 'rows' or 'cols', got {axis!r}")
    length = z.shape[0] if axis == "rows" else z.shape[1]
    if not 1 <= target <= length:
        raise InputError(f"target must be in [1, {length}], got {target}")
    grid = np.arange(1.0, np.sqrt(length) + 1e-9, NNZ_GRID_STEP)
    # the first budget with c**2 >= target is the last the walk can need
    grid = grid[: np.count_nonzero(grid * grid < target) + 1]
    if axis == "cols":
        constraints = [SparsityConstraint.unpenalized_rows(value) for value in grid]
    else:
        constraints = [
            SparsityConstraint.absolute(value, np.sqrt(z.shape[1])) for value in grid
        ]
    fit = _rank1_fits(z, constraints)
    nnz = np.count_nonzero(fit.v if axis == "cols" else fit.u, axis=1)
    # the first hit, or else the first of the largest counts, as a walk of
    # single fits finds them
    i = int(np.minimum(nnz, target).argmax())
    met = bool(nnz[i] >= target)
    _warn_unconverged(fit, stacklevel + 1, count=i + 1 if met else None)
    found = NnzSearchResult(float(grid[i]), int(nnz[i]), met)
    if not met:
        warnings.warn(
            f"no grid budget reaches {target} nonzero {axis} weights; "
            f"closest is {found.nnz} at {found.value:.6g}",
            stacklevel=stacklevel + 1,
        )
    return found, fit.factor(i, constraints[i])


@dataclass
class SparseCAModel:
    """Fitted sparse correspondence analysis.

    Attributes
    ----------
    table : ContingencyTable
    variant : str
        "doubly_sparse" (budgets on both sides) or "column_sparse"
        (row weights unpenalized, columns placed from the rows).
    factors : list of SparseFactor
        In extraction order; ``alpha``/``eigenvalue`` are evaluated on
        the original residual matrix, not the deflated ones.
    row_coords, col_coords : ndarray
        One column per dimension. Row coordinates always carry weighted
        variance equal to the eigenvalue; column coordinates do too,
        except under ``col_scale="barycentric"``.
    explained_ratios, explained_cumulative : ndarray
        Per-dimension and running share of the residual variance
        captured by projection onto the span of the column weights.

    Sparse dimensions are only nearly orthogonal; the off-diagonal
    entries of their weight and mass-weighted coordinate products
    measure how far::

        u_gram = model.row_weights.T @ model.row_weights
        v_gram = model.col_weights.T @ model.col_weights
        a_gram = model.row_coords.T @ (model.row_coords * model.row_masses[:, None])
        b_gram = model.col_coords.T @ (model.col_coords * model.col_masses[:, None])

    Like ``CADecomposition`` it reports ``eigenvalues``, ``n_dims`` and
    ``total_inertia``, so ``ca.contributions`` applies unchanged; the
    weight vectors are ``row_weights`` and ``col_weights``.
    """

    table: ContingencyTable
    variant: str
    col_scale: str
    factors: list
    frequencies: np.ndarray
    row_masses: np.ndarray
    col_masses: np.ndarray
    residuals: np.ndarray
    row_coords: np.ndarray
    col_coords: np.ndarray
    explained_ratios: np.ndarray
    explained_cumulative: np.ndarray

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([f.eigenvalue for f in self.factors])

    @property
    def n_dims(self) -> int:
        return len(self.factors)

    @property
    def total_inertia(self) -> float:
        """Squared norm of the residual matrix, the table's total inertia."""
        return float(np.sum(self.residuals**2))

    @property
    def row_weights(self) -> np.ndarray:
        """Row weight vectors, one column per dimension; thresholded
        entries are exact zeros."""
        return np.column_stack([f.u for f in self.factors])

    @property
    def col_weights(self) -> np.ndarray:
        """Column weight vectors, one column per dimension."""
        return np.column_stack([f.v for f in self.factors])


def explained_variance(z: np.ndarray, weight_columns: np.ndarray) -> float:
    """Share of squared norm captured by projecting onto weight columns.

    Projects the rows of ``z`` onto the span of the given columns and
    returns the ratio of projected to total squared Frobenius norm,
    a value in [0, 1]. Because sparse weight vectors need not be
    orthogonal, the projector uses the inverse Gram matrix; a
    rank-deficient set degrades to a pseudo-inverse with a warning.
    """
    z = np.asarray(z, dtype=float)
    vk = np.asarray(weight_columns, dtype=float)
    if vk.ndim == 1:
        vk = vk[:, None]
    if vk.ndim != 2 or vk.shape[0] != z.shape[1]:
        raise InputError(
            f"weight columns of shape {vk.shape} do not match {z.shape[1]} columns"
        )
    total = float((z**2).sum())
    if total == 0.0:
        raise DegenerateInputError("zero matrix has no variance to explain")
    gram = vk.T @ vk
    evals = np.linalg.eigvalsh(gram)
    if evals.min() <= 1e-12 * max(evals.max(), 1.0):
        warnings.warn(
            "weight columns are linearly dependent; using a pseudo-inverse",
            stacklevel=2,
        )
        inv = np.linalg.pinv(gram, rcond=1e-12)
    else:
        inv = np.linalg.inv(gram)
    projected = z @ vk @ inv @ vk.T
    return float(np.clip((projected**2).sum() / total, 0.0, 1.0))


def fit_sparse_ca(
    table: ContingencyTable,
    constraints,
    variant: str = "doubly_sparse",
    col_scale: str = "rescaled",
) -> SparseCAModel:
    """Fit a sparse correspondence analysis with one constraint per dimension.

    Parameters
    ----------
    table : ContingencyTable
    constraints : SparsityConstraint or sequence of SparsityConstraint
        One per extracted dimension, so their number is the number of
        dimensions, in [1, ``min(n_rows, n_cols) - 1``] as for
        ``fit_ca``; a single constraint fits one dimension.
    variant : str
        "doubly_sparse" or "column_sparse". The column-sparse variant
        leaves row weights unpenalized and derives column coordinates
        from the row coordinates, spread per ``col_scale``.
    col_scale : str
        "rescaled" (default) or "barycentric"; column-sparse only.

    Returns
    -------
    SparseCAModel

    Raises ``DegenerateInputError`` when the dimensions fitted so far leave
    at most 1e-14 of the residual's squared norm: none is left to fit.
    """
    if variant not in VARIANTS:
        raise InputError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if col_scale not in COL_SCALES:
        raise InputError(f"col_scale must be one of {COL_SCALES}, got {col_scale!r}")
    if isinstance(constraints, SparsityConstraint):
        constraints = [constraints]
    constraints = list(constraints)
    # a column-sparse fit penalizes the column weights alone
    if variant == "column_sparse" and any(
        constraint.penalized_sides() != ("cols",) for constraint in constraints
    ):
        raise InputError(
            "column_sparse fits take unpenalized_rows or "
            "nonzero_target(axis='cols') constraints"
        )

    _dims_limit(table.shape, len(constraints))
    p, r, c, z0 = _residual_matrices(table)

    factors = []
    a_cols, b_cols = [], []
    cumulative = []
    total = float((z0**2).sum())
    z_work = z0
    for constraint in constraints:
        if factors:
            z_work = _deflate_through(z_work, factors[-1:], total)
        # the nonzero-target walk fits a column target with unpenalized
        # rows and a row target with inactive column budgets, so its fit
        # at the found budget is the dimension's own; in a doubly-sparse
        # fit too, as a row budget of sqrt(n_rows) never binds
        if constraint.mode == "nonzero_target":
            count, axis = constraint.count, constraint.axis
            factor = _nnz_walk(z_work, count, axis, stacklevel=1)[1]
        else:
            factor = pmd_rank1(z_work, constraint)
        # the variance reported for a dimension is measured against the
        # original residual matrix, not the deflated one it was fitted on
        alpha = float(factor.u @ z0 @ factor.v)
        if alpha < 0:
            factor.u = -factor.u
            alpha = -alpha
        factor.alpha = alpha
        factor.eigenvalue = alpha**2
        a, b = coordinates_from_weights(z0, r, c, factor.u, factor.v, factor.eigenvalue)
        if variant == "column_sparse":
            b = column_sparse_coordinates(p, r, c, a, spread=col_scale)
        factors.append(factor)
        a_cols.append(a)
        b_cols.append(b)
        cumulative.append(
            explained_variance(z0, np.column_stack([f.v for f in factors]))
        )

    row_coords = np.column_stack(a_cols)
    col_coords = np.column_stack(b_cols)
    cumulative = np.array(cumulative)
    ratios = np.clip(np.diff(cumulative, prepend=0.0), 0.0, None)
    return SparseCAModel(
        table=table,
        variant=variant,
        col_scale=col_scale,
        factors=factors,
        frequencies=p,
        row_masses=r,
        col_masses=c,
        residuals=z0,
        row_coords=row_coords,
        col_coords=col_coords,
        explained_ratios=ratios,
        explained_cumulative=cumulative,
    )
