import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes of the matrices passed to ``full_svd`` by the fitting and
    tuning modules, recorded while the test runs."""
    from sparseca.linalg import full_svd

    calls = []

    def counting(x):
        calls.append(np.shape(x))
        return full_svd(x)

    for module in ("sparseca.sparse", "sparseca.tuning"):
        monkeypatch.setattr(f"{module}.full_svd", counting)
    return calls


def random_table(rng, n_rows, n_cols, total=500):
    """Random nonnegative integer table with every margin positive."""
    while True:
        probs = rng.dirichlet(np.ones(n_rows * n_cols) * 0.8)
        counts = rng.multinomial(total, probs).reshape(n_rows, n_cols)
        if counts.sum(axis=1).min() > 0 and counts.sum(axis=0).min() > 0:
            return counts.astype(float)
