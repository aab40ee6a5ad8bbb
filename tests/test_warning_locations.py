"""Where non-convergence warnings point.

A warning for a rank-1 fit that stopped at its iteration cap names the
source line that asked for the fit: the caller's own line for the public
fits, and the line inside the package that started the stacked work for
the searches. Every fit is made to look capped by marking its members
unconverged, which leaves the fitted numbers as they are.
"""

import linecache
import warnings

import numpy as np
import pytest

import sparseca.sparse
import sparseca.tuning
from sparseca.ca import ContingencyTable, correspondence_matrix, standardized_residuals
from sparseca.sparse import (
    NNZ_GRID_STEP,
    SparsityConstraint,
    fit_sparse_ca,
    nnz_target_search,
    pmd_rank1,
)
from sparseca.tuning import cv_error, grid_search_1d, weight_paths

from conftest import random_table

UNCONVERGED = "rank-1 fit did not converge"


@pytest.fixture
def all_capped(monkeypatch):
    real = sparseca.sparse._rank1_fits

    def capped(*args, **kwargs):
        fit = real(*args, **kwargs)
        return fit._replace(converged=np.zeros_like(fit.converged))

    monkeypatch.setattr("sparseca.sparse._rank1_fits", capped)


def warned_lines(call, *args, **kwargs):
    """(file name, stripped source line) of each non-convergence warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call(*args, **kwargs)
    return [
        (w.filename, linecache.getline(w.filename, w.lineno).strip())
        for w in caught
        if str(w.message).startswith(UNCONVERGED)
    ]


def test_pmd_rank1_names_the_callers_line():
    z = np.random.default_rng(0).normal(size=(8, 6))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        factor = pmd_rank1(z, SparsityConstraint.absolute(1.3, 1.2), max_iter=1)
    assert not factor.converged
    assert len(caught) == 1
    assert caught[0].filename == __file__
    assert "factor = pmd_rank1(z" in linecache.getline(__file__, caught[0].lineno)


def test_weight_paths_names_the_callers_line(all_capped):
    z = np.random.default_rng(1).normal(size=(8, 10))
    grid = [0.5, 0.7, 1.0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        weight_paths(z, grid=grid)
    assert len(caught) == len(grid)
    assert {w.filename for w in caught} == {__file__}
    assert {linecache.getline(__file__, w.lineno).strip() for w in caught} == {
        "weight_paths(z, grid=grid)"
    }


def test_grid_search_cells_name_the_cell_evaluation(all_capped):
    z = np.random.default_rng(2).normal(size=(8, 10))
    grid = [0.5, 0.7, 1.0]
    lines = warned_lines(grid_search_1d, z, grid=grid, criterion="bic")
    assert len(lines) == len(grid)
    (filename, line), = set(lines)
    assert filename == sparseca.tuning.__file__
    assert "_evaluate_cells(" in line


def test_cv_fits_name_the_cv_computation(all_capped):
    z = np.random.default_rng(3).normal(size=(6, 8))
    grid = [0.6, 1.0]
    lines = warned_lines(grid_search_1d, z, grid=grid, criterion="cv", seed=0)
    # 10 folds times 20 sweeps per cell, then one fit per cell
    assert len(lines) == len(grid) * 10 * 20 + len(grid)
    assert {filename for filename, _ in lines} == {sparseca.tuning.__file__}
    cv_lines = {line for _, line in lines[:-len(grid)]}
    cell_lines = {line for _, line in lines[-len(grid):]}
    assert len(cv_lines) == 1 and "_cv_errors(" in cv_lines.pop()
    assert len(cell_lines) == 1 and "_evaluate_cells(" in cell_lines.pop()

    lines = warned_lines(cv_error, z, SparsityConstraint.coupled(0.6), seed=0)
    assert len(lines) == 10 * 20
    (filename, line), = set(lines)
    assert filename == sparseca.tuning.__file__
    assert "_cv_errors(" in line


def test_nonzero_walk_names_the_budget_search(all_capped):
    rng = np.random.default_rng(4)
    counts = random_table(rng, 9, 12, total=900)
    table = ContingencyTable(
        counts, [f"r{i}" for i in range(9)], [f"c{j}" for j in range(12)]
    )
    lines = warned_lines(
        fit_sparse_ca,
        table,
        SparsityConstraint.nonzero_target(4, "cols"),
        variant="column_sparse",
    )
    # the walk warns for its fits up to the hit, and the dimension keeps
    # the hit's fit, so that fit warns once
    z = standardized_residuals(*correspondence_matrix(table))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        found = nnz_target_search(z, 4)
    hit = round((found.value - 1.0) / NNZ_GRID_STEP)
    assert hit >= 1 and len(lines) == hit + 1
    assert set(lines) == {(
        sparseca.sparse.__file__,
        "found, fit = _nnz_walk(z, constraint.count, constraint.axis, start, stacklevel=1)",
    )}
