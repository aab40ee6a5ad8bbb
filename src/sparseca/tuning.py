"""Choosing the sparsity budgets: criteria, grids, and weight paths.

Three selection routes over a grid of budgets: a sparsity index that
rewards zeros while penalizing lost fit, a BIC built on the rank-1
residual, and matrix-completion cross-validation. Grids come in a 1-D
coupled form (one scale-free value driving both sides) and a 2-D form
(independent row and column budgets).

A search takes one eigendecomposition per matrix, not one per grid
cell: ``linalg._leading_svd`` diagonalizes the Gram matrix of the
shorter side, the leading right singular vector of the deflated matrix
warm-starts every cell's rank-1 fit, and the eigenvalues give the BIC
variance scale. The sparsity index compares against plain singular
vectors of the undeflated matrix, which is a second eigendecomposition
only when earlier dimensions were deflated out. No search takes a full
thin SVD. The cells' rank-1 fits then run as one stack over that
one matrix, which every member shares rather than copies: a grid search
or a weight path fits all its budgets in one alternating loop (the
nonzero-target search in ``sparse`` walks its grid 8 budgets at a time
the same way), and each member equals its own ``pmd_rank1`` fit.

Cross-validation refits every fold for a fixed number of sweeps, and the
folds and cells of a search are independent, so each sweep fits them as
one stack: one stacked eigendecomposition of the Gram matrices of all
refilled matrices gives the warm starts, and one stacked rank-1 loop
fits them, each member exactly as its own fit would. The stack is cut into chunks of at most
``CV_STACK_ENTRIES`` (2**17) matrix entries.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import _leading_svd
from .sparse import (
    SparseFactor,
    SparsityConstraint,
    _budget_arrays,
    _rank1_stack,
    _sparse_factor,
    _stack_inputs,
    explained_variance,
    ppmd_deflate,
)

# Cross-validation stacks the refilled matrices of all folds and grid
# cells of a sweep, in chunks of at most this many matrix entries (1 MiB
# per float array of the stack) so that large tables stay within memory.
CV_STACK_ENTRIES = 2**17


@dataclass
class TuningGrid:
    """Criterion surface over a budget grid.

    ``axis1`` holds coupled values (1-D search) or row budgets (2-D);
    ``axis2`` is None for 1-D searches and holds column budgets
    otherwise. ``values``, ``nnz_u``, ``nnz_v`` and ``fit`` have one
    entry per cell, shaped ``(len(axis1),)`` or
    ``(len(axis1), len(axis2))``.
    """

    criterion: str
    axis1: np.ndarray
    axis2: np.ndarray | None
    values: np.ndarray
    nnz_u: np.ndarray
    nnz_v: np.ndarray
    fit: np.ndarray


@dataclass
class TuningResult:
    """Outcome of a grid search.

    ``optimum`` is the selected budget (a float for 1-D, a pair for
    2-D): the argmax for the sparsity index, the argmin for BIC and
    cross-validation, with ties broken toward the sparser budget.
    """

    criterion: str
    optimum: object
    optimum_nnz: tuple
    grid: TuningGrid


@dataclass
class WeightPath:
    """Fitted weights along a 1-D budget grid.

    ``u_path`` has shape (grid length, n_rows), ``v_path``
    (grid length, n_cols); ``zero_fraction`` is the share of zero
    weights per grid value.
    """

    values: np.ndarray
    u_path: np.ndarray
    v_path: np.ndarray
    zero_fraction: np.ndarray


IS_ORIENTATIONS = ("tradeoff", "printed")


def is_criterion(
    z: np.ndarray,
    factors,
    total_params: int | None = None,
    nnz_total: int | None = None,
    orientation: str = "tradeoff",
    full_fit: float | None = None,
) -> float:
    """Index of sparsity for a set of fitted factors.

    The index multiplies a fit ratio by the squared fraction of zero
    weights. The default "tradeoff" orientation divides the sparse fit
    by the fit of the same number of plain SVD components, so the index
    climbs only while zeros are cheap; the "printed" orientation
    inverts the ratio. A factor set with no zero weights scores exactly
    0 either way.

    Parameters
    ----------
    z : ndarray
        The undeflated residual matrix the factors decompose.
    factors : sequence of SparseFactor
        Accumulated factors, earlier dimensions first.
    total_params, nnz_total : int, optional
        Weight-entry count and nonzero count over the penalized sides;
        derived from the factors when omitted.
    orientation : str
        "tradeoff" (default) or "printed".
    full_fit : float, optional
        The reference fit: ``explained_variance(z, V)`` with ``V`` the first
        ``k = len(factors)`` right singular vectors of ``z``, as
        ``full_svd(z).V[:, :k]`` gives them. A grid search computes it once
        for all its cells; when omitted it is computed here from the Gram
        matrix of ``z`` (``linalg._leading_svd``).
    """
    factors = list(factors)
    if not factors:
        raise InputError("at least one factor is required")
    return _sparsity_index(
        np.asarray(z, dtype=float), factors, total_params, nnz_total, orientation, full_fit
    )


def _sparsity_index(z, factors, total_params, nnz_total, orientation, full_fit, fit_sparse=None):
    """``is_criterion`` of a nonempty factor list. ``fit_sparse`` is the
    explained variance of the factors' column weights on ``z``; a grid
    search passes the value it computed for the cell, otherwise it is
    computed here."""
    if orientation not in IS_ORIENTATIONS:
        raise InputError(
            f"orientation must be one of {IS_ORIENTATIONS}, got {orientation!r}"
        )
    shape = z.shape
    if total_params is None or nnz_total is None:
        params = 0
        nnz = 0
        for factor in factors:
            sides = factor.constraint.penalized_sides(shape)
            if "rows" in sides:
                params += shape[0]
                nnz += factor.nnz_u
            if "cols" in sides:
                params += shape[1]
                nnz += factor.nnz_v
        if total_params is None:
            total_params = params
        if nnz_total is None:
            nnz_total = nnz
    if total_params <= 0:
        raise InputError("total_params must be positive")
    zero_fraction = (total_params - nnz_total) / total_params
    if zero_fraction == 0.0:
        return 0.0
    if fit_sparse is None:
        fit_sparse = explained_variance(z, np.column_stack([f.v for f in factors]))
    if full_fit is None:
        full_fit = explained_variance(z, _leading_svd(z, len(factors))[1])
    if orientation == "tradeoff":
        ratio = fit_sparse / full_fit if full_fit > 0 else 0.0
    else:
        ratio = full_fit / fit_sparse if fit_sparse > 0 else np.inf
    return float(ratio * zero_fraction**2)


def residual_variance_estimate(
    z: np.ndarray, singular_values: np.ndarray | None = None
) -> float:
    """Error-variance scale for the BIC: mean squared residual of the
    unconstrained rank-1 fit, with one degree of freedom per weight.

    ``singular_values`` are all those of ``z``, in decreasing order, as
    ``full_svd(z).s`` gives them; a grid search passes the ones its Gram
    eigendecomposition already gave. When omitted they are computed here
    the same way (``linalg._leading_svd``), so the residual is the sum of
    all but the largest eigenvalue of the Gram matrix.
    """
    z = np.asarray(z, dtype=float)
    n_cells = z.size
    df_full = z.shape[0] + z.shape[1]
    if n_cells <= df_full:
        raise InputError("matrix too small to estimate a residual variance")
    if singular_values is None:
        sigma = _leading_svd(z)[0]
    else:
        sigma = np.asarray(singular_values, dtype=float)
        if sigma.shape != (min(z.shape),):
            raise InputError(
                f"{sigma.shape} singular values for a matrix of shape {z.shape}"
            )
    residual = float((sigma[1:] ** 2).sum())
    return residual / (n_cells - df_full)


def bic_criterion(
    z: np.ndarray,
    factor: SparseFactor,
    sigma2_hat: float | None = None,
    df: int | None = None,
) -> float:
    """Bayesian information criterion for one rank-1 factor on ``z``.

    Scaled residual of the rank-1 reconstruction plus a model-size
    penalty counting the surviving weights on the penalized sides.
    ``sigma2_hat`` defaults to the estimate from the unconstrained
    rank-1 fit of the same matrix, so it does not move with the budget.
    """
    z = np.asarray(z, dtype=float)
    if sigma2_hat is None:
        sigma2_hat = residual_variance_estimate(z)
    if sigma2_hat <= 0:
        raise InputError(f"sigma2_hat must be positive, got {sigma2_hat}")
    if df is None:
        sides = factor.constraint.penalized_sides(z.shape)
        df = (factor.nnz_u if "rows" in sides else 0) + (
            factor.nnz_v if "cols" in sides else 0
        )
    alpha = float(factor.u @ z @ factor.v)
    residual = float(((z - alpha * np.outer(factor.u, factor.v)) ** 2).sum())
    n_cells = z.size
    return residual / (n_cells * sigma2_hat) + np.log(n_cells) / n_cells * df


def cv_error(
    z: np.ndarray,
    constraint: SparsityConstraint,
    folds: int = 10,
    holdout_fraction: float = 0.10,
    repeats: int = 1,
    seed: int | None = None,
    sweeps: int = 20,
) -> float:
    """Matrix-completion cross-validation error for one budget.

    Per fold, a scattered random tenth of the cells is blanked, the
    rank-1 fit is alternated with refilling the blanks (starting from
    zero) for a fixed number of sweeps, and the squared error of the
    final reconstruction on the blanks is recorded. Returns the mean
    over folds and repeats. The same seed always yields the same folds
    and therefore the same error. The folds of a repeat are disjoint,
    so ``holdout_fraction * folds`` may not exceed 1 (``InputError``).

    All folds and repeats run as one stack: each sweep takes one stacked
    eigendecomposition of the refilled matrices' Gram matrices for the
    warm starts and one stacked rank-1 fit, and a grid search stacks its
    cells too (see ``CV_STACK_ENTRIES``). Each member gets the numbers
    its own fit would give, so a grid search's value for a cell equals
    this function's value for that cell's constraint.
    """
    return float(
        _cv_errors(z, [constraint], folds, holdout_fraction, repeats, seed, sweeps)[0]
    )


def _cv_errors(
    z: np.ndarray,
    constraints,
    folds: int = 10,
    holdout_fraction: float = 0.10,
    repeats: int = 1,
    seed: int | None = None,
    sweeps: int = 20,
) -> np.ndarray:
    """``cv_error`` of each constraint, on the same folds.

    Every constraint draws the same folds from ``seed``, so the masks are
    built once, and the refilled matrices of all constraints, repeats and
    folds form one stack per sweep: one stacked Gram eigendecomposition
    gives every member's warm start and one stacked rank-1 loop fits them
    all. The stack is cut into chunks of at most ``CV_STACK_ENTRIES``
    matrix entries (at least one matrix per chunk), which bounds the
    memory a large table takes.
    """
    if folds < 1 or repeats < 1:
        raise InputError(f"folds and repeats must be at least 1, got {folds} and {repeats}")
    if sweeps < 1:
        raise InputError(f"sweeps must be at least 1, got {sweeps}")
    if not (np.isfinite(holdout_fraction) and 0.0 < holdout_fraction <= 1.0):
        raise InputError(f"holdout_fraction must lie in (0, 1], got {holdout_fraction}")
    # folds partition a permutation of the cells, so together they can
    # hold out at most all of them; 1e-9 forgives round-off such as
    # (0.1 / 0.7) * 7 = 1.0000000000000002
    if holdout_fraction * folds > 1.0 + 1e-9:
        raise InputError(
            f"holdout_fraction {holdout_fraction} times {folds} folds exceeds 1;"
            f" disjoint folds can hold out at most 1/{folds} of the cells each"
        )
    z = np.asarray(z, dtype=float)
    n_cells = z.size
    # cap the holdout so that all folds fit even when the fraction rounds
    # past n/folds
    holdout = min(max(1, int(round(n_cells * holdout_fraction))), n_cells // folds)
    if holdout < 1:
        raise InputError(
            f"{folds} folds need at least {folds} cells, got {n_cells}"
        )
    rng = np.random.default_rng(seed)
    masks = np.zeros((repeats * folds, n_cells), dtype=bool)
    for r in range(repeats):
        order = rng.permutation(n_cells)
        for fold in range(folds):
            masks[r * folds + fold, order[fold * holdout : (fold + 1) * holdout]] = True
    masks = masks.reshape(-1, *z.shape)
    budget_u, budget_v = _budget_arrays(constraints, z.shape)

    # member i is fold i % len(masks) of constraint i // len(masks)
    n_members = len(constraints) * len(masks)
    per_chunk = max(1, CV_STACK_ENTRIES // n_cells)
    fold_errors = np.empty(n_members)
    for lo in range(0, n_members, per_chunk):
        members = np.arange(lo, min(lo + per_chunk, n_members))
        mask = masks[members % len(masks)]
        cell = members // len(masks)
        filled = np.where(mask, 0.0, z)
        for _ in range(sweeps):
            start = _leading_svd(filled)[1][:, :, 0]
            fit = _rank1_stack(filled, budget_u[cell], budget_v[cell], start)
            reconstruction = fit.alpha[:, None, None] * (
                fit.u[:, :, None] * fit.v[:, None, :]
            )
            filled = np.where(mask, reconstruction, z)
        held = (z - reconstruction)[mask] ** 2
        fold_errors[members] = held.reshape(-1, holdout).mean(axis=1)
    return fold_errors.reshape(len(constraints), -1).mean(axis=1)


def _deflate_through(z: np.ndarray, prior_factors) -> np.ndarray:
    for factor in prior_factors:
        z = ppmd_deflate(z, factor)
    return z


def default_coupled_grid(shape: tuple, step: float = 0.01) -> np.ndarray:
    """Coupled budgets from just above the 1-sparse bound up to 1."""
    if not (np.isfinite(step) and step > 0):
        raise InputError(f"grid step must be positive and finite, got {step}")
    low = max(1.0 / np.sqrt(shape[0]), 1.0 / np.sqrt(shape[1]))
    start = np.floor(low / step + 1.0 + 1e-9) * step
    return np.round(np.arange(start, 1.0 + step / 2, step), 10)


def _increasing_grid(grid) -> np.ndarray:
    """``grid`` as a float array, checked to be nonempty and strictly increasing."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise InputError("grid must contain at least one value")
    if np.any(np.diff(grid) <= 0):
        raise InputError("grid values must be strictly increasing")
    return grid


def _pick_optimum(values: np.ndarray, maximize: bool) -> int:
    """Index of the best of ``values``, skipping NaN; the first (sparser)
    winner on ties."""
    if np.isnan(values).all():
        raise InputError("criterion is undefined on the whole grid")
    best = np.nanmax(values) if maximize else np.nanmin(values)
    # nanargmax would return a NaN cell ahead of a best value of -inf
    return int(np.flatnonzero(values == best)[0])


def _evaluate_cells(z, constraints, prior_factors, criterion, orientation, seed, cv_repeats):
    """Fit and score every cell of one grid search.

    Returns one ``(value, nnz_u, nnz_v, fit)`` tuple per constraint. What
    the cells share is computed once, before the first cell: one Gram
    eigendecomposition of the deflated matrix gives every cell's warm
    start and the BIC variance scale, and the IS reference fit reuses it
    unless prior factors make the undeflated matrix a different one. The
    cells' own rank-1 fits run as one stack over the deflated matrix, and
    cross-validation errors for all cells come from one stacked
    computation of their own. An IS cell's fit ratio reuses the cell's
    explained variance.
    """
    if criterion not in ("is", "bic", "cv"):
        raise InputError(f"criterion must be 'is', 'bic' or 'cv', got {criterion!r}")
    prior_factors = list(prior_factors)
    z_work = _deflate_through(z, prior_factors)
    s, v = _leading_svd(z_work)
    start = v[:, 0]
    sigma2_hat = residual_variance_estimate(z_work, s) if criterion == "bic" else None
    full_fit = None
    if criterion == "is":
        reference = _leading_svd(z, len(prior_factors) + 1)[1] if prior_factors else v
        full_fit = explained_variance(z, reference)
    if criterion == "cv":
        cv_values = _cv_errors(z_work, constraints, seed=seed, repeats=cv_repeats)

    stack = _rank1_stack(z_work, *_stack_inputs(constraints, z_work.shape, start))
    results = []
    for i, constraint in enumerate(constraints):
        factor = _sparse_factor(stack, constraint, i)
        chain = prior_factors + [factor]
        fit = explained_variance(z, np.column_stack([f.v for f in chain]))
        if criterion == "is":
            value = _sparsity_index(z, chain, None, None, orientation, full_fit, fit)
        elif criterion == "bic":
            value = bic_criterion(z_work, factor, sigma2_hat=sigma2_hat)
        else:
            value = float(cv_values[i])
        results.append((value, factor.nnz_u, factor.nnz_v, fit))
    return results


def _grid_search(z, axes, constraint, criterion, prior_factors, orientation, seed, cv_repeats):
    """Fit and score one cell ``constraint(*cell)`` per cell of the grid
    spanned by ``axes``, and pick the optimum.

    Cells run in row-major order, and a tie goes to the first of them,
    which on increasing axes is the lexicographically sparser one.
    """
    constraints = [constraint(*cell) for cell in itertools.product(*axes)]
    results = _evaluate_cells(
        z, constraints, prior_factors, criterion, orientation, seed, cv_repeats
    )
    shape = tuple(axis.size for axis in axes)
    values, nnz_u, nnz_v, fit = (np.array(column).reshape(shape) for column in zip(*results))
    best = np.unravel_index(_pick_optimum(values.ravel(), criterion == "is"), shape)
    optimum = tuple(float(axis[i]) for axis, i in zip(axes, best))
    return TuningResult(
        criterion=criterion,
        optimum=optimum if len(axes) == 2 else optimum[0],
        optimum_nnz=(int(nnz_u[best]), int(nnz_v[best])),
        grid=TuningGrid(
            criterion=criterion,
            axis1=axes[0],
            axis2=axes[1] if len(axes) == 2 else None,
            values=values,
            nnz_u=nnz_u,
            nnz_v=nnz_v,
            fit=fit,
        ),
    )


def grid_search_1d(
    z: np.ndarray,
    grid=None,
    criterion: str = "is",
    prior_factors=(),
    orientation: str = "tradeoff",
    seed: int | None = None,
    cv_repeats: int = 1,
) -> TuningResult:
    """Search a coupled-budget grid for one dimension.

    ``z`` is the undeflated residual matrix; ``prior_factors`` are the
    already-fixed earlier dimensions, re-deflated internally so the
    candidate factor for this dimension is fitted on the right matrix.
    The sparsity index is evaluated on the accumulated factor set, BIC
    and cross-validation on the current dimension alone.
    """
    z = np.asarray(z, dtype=float)
    if grid is None:
        grid = default_coupled_grid(z.shape)
    return _grid_search(
        z, (_increasing_grid(grid),), SparsityConstraint.coupled,
        criterion, prior_factors, orientation, seed, cv_repeats,
    )


def default_absolute_grid(length: int, points: int = 10) -> np.ndarray:
    """Evenly spaced budgets from 1 to the square root of the axis length."""
    return np.linspace(1.0, np.sqrt(length), points)


def grid_search_2d(
    z: np.ndarray,
    grid_u=None,
    grid_v=None,
    criterion: str = "is",
    prior_factors=(),
    orientation: str = "tradeoff",
    seed: int | None = None,
    cv_repeats: int = 1,
) -> TuningResult:
    """Search independent row and column budgets for one dimension.

    Full factorial evaluation of ``grid_u`` times ``grid_v``, each of
    them strictly increasing; ties are broken toward the lexicographically
    sparser pair.
    """
    z = np.asarray(z, dtype=float)
    if grid_u is None:
        grid_u = default_absolute_grid(z.shape[0])
    if grid_v is None:
        grid_v = default_absolute_grid(z.shape[1])
    return _grid_search(
        z, (_increasing_grid(grid_u), _increasing_grid(grid_v)), SparsityConstraint.absolute,
        criterion, prior_factors, orientation, seed, cv_repeats,
    )


def weight_paths(z: np.ndarray, grid=None, prior_factors=()) -> WeightPath:
    """Fitted weight vectors along a strictly increasing coupled grid, for
    path plots.

    All grid values are fitted as one stack over the one deflated matrix,
    warm-started from its leading right singular vector; each path entry equals that value's
    own ``pmd_rank1`` fit.
    """
    z = np.asarray(z, dtype=float)
    if grid is None:
        grid = default_coupled_grid(z.shape)
    grid = _increasing_grid(grid)
    z_work = _deflate_through(z, prior_factors)
    start = _leading_svd(z_work)[1][:, 0]
    constraints = [SparsityConstraint.coupled(value) for value in grid]
    stack = _rank1_stack(z_work, *_stack_inputs(constraints, z_work.shape, start))
    u_path, v_path = stack.u, stack.v
    zeros = (u_path == 0).sum(axis=1) + (v_path == 0).sum(axis=1)
    zero_fraction = zeros / (z.shape[0] + z.shape[1])
    return WeightPath(
        values=grid, u_path=u_path, v_path=v_path, zero_fraction=zero_fraction
    )
