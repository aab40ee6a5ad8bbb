import importlib.util
from pathlib import Path

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes of the matrices whose leading singular vectors the fitting
    and tuning modules compute (``linalg._leading_svd``), recorded while
    the test runs."""
    from sparseca.linalg import _leading_svd

    calls = []

    def counting(x, k=1):
        calls.append(np.shape(x))
        return _leading_svd(x, k)

    for module in ("sparseca.sparse", "sparseca.tuning"):
        monkeypatch.setattr(f"{module}._leading_svd", counting)
    return calls


@pytest.fixture
def mark_unconverged(monkeypatch):
    """Make the rank-1 loop (``sparse._rank1_fits``) report members as
    stopped at the iteration cap, leaving the fitted numbers as they are.

    ``mark_unconverged()`` marks every member of every stack;
    ``mark_unconverged({member: change})`` marks the given members, each
    with the last column-weight change its warning reports.
    """
    from sparseca.sparse import _rank1_fits

    def mark(changes=None):
        def capped(*args, **kwargs):
            fit = _rank1_fits(*args, **kwargs)
            if changes is None:
                return fit._replace(converged=np.zeros_like(fit.converged))
            converged, change = fit.converged.copy(), fit.change.copy()
            for member, last in changes.items():
                converged[member], change[member] = False, last
            return fit._replace(converged=converged, change=change)

        for module in ("sparseca.sparse", "sparseca.tuning"):
            monkeypatch.setattr(f"{module}._rank1_fits", capped)

    return mark


# tables whose residual matrix is rank 1: exactly, or to roundoff
# (residual variances of 2.5e-18 and 7.6e-18 after the first dimension)
BIC_WITHOUT_RESIDUAL = [
    [[50, 1, 1], [1, 1, 1], [1, 1, 1]],
    [[50, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1]],
    [[7, 1, 1], [1, 1, 1], [1, 1, 1], [1, 1, 1]],
]


def soft_threshold(x: np.ndarray, t: float) -> np.ndarray:
    """Shrink ``x`` toward zero by ``t``, clipping at zero."""
    return np.sign(x) * np.clip(np.abs(x) - t, 0.0, None)


def random_table(rng, n_rows, n_cols, total=500):
    """Random nonnegative integer table with every margin positive."""
    while True:
        probs = rng.dirichlet(np.ones(n_rows * n_cols) * 0.8)
        counts = rng.multinomial(total, probs).reshape(n_rows, n_cols)
        if counts.sum(axis=1).min() > 0 and counts.sum(axis=0).min() > 0:
            return counts.astype(float)


def large_table_residuals(seed, round_):
    """Residual matrix of the benchmark's seeded 120x800 table."""
    from sparseca.ca import ContingencyTable, correspondence_matrix, standardized_residuals

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    t = workloads.large_table(seed, round_)
    table = ContingencyTable(t.counts, t.row_labels, t.col_labels)
    return standardized_residuals(*correspondence_matrix(table))
