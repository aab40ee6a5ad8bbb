"""Output checks for each pipeline step, computed apart from the program.

Every check reads the files a step wrote and compares them with numpy
or scipy computations on the workload's expected table, or with
properties the method must have. None compares with a stored copy of
an earlier run. Tables are written with six significant digits, so
comparisons allow a relative error of 1e-4 where a value is rounded.
"""

import csv
import math
import re

import numpy as np

RTOL = 1e-4


class CheckFailed(Exception):
    """An output does not match its independent computation."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _close(a, b, scale=1.0):
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + 1e-12 * scale


def _read_rows(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def residuals(counts):
    """Standardized residuals and margins, from their definition."""
    p = counts / counts.sum()
    r = p.sum(axis=1)
    c = p.sum(axis=0)
    expected = np.outer(r, c)
    return (p - expected) / np.sqrt(expected), r, c


def coupled_grid(shape, step):
    """Coupled budgets from the first multiple of ``step`` above
    max(1/sqrt(rows), 1/sqrt(cols)) up to 1."""
    low = max(1.0 / math.sqrt(shape[0]), 1.0 / math.sqrt(shape[1]))
    k = math.floor(low / step + 1e-9) + 1
    values = []
    while k * step <= 1.0 + 1e-9:
        values.append(round(k * step, 10))
        k += 1
    return values


def check_dtm(workload, stdout):
    rows = _read_rows(workload.table_path)
    expected = workload.expected
    _require(rows[0] == ["id", *expected.col_labels], "dtm: column labels or their order differ")
    _require([row[0] for row in rows[1:]] == expected.row_labels, "dtm: document labels differ")
    counts = np.array([[float(x) for x in row[1:]] for row in rows[1:]])
    _require(counts.shape == expected.counts.shape, f"dtm: shape {counts.shape}")
    _require(np.array_equal(counts, expected.counts), "dtm: counts differ from the generator's")


def check_ca(workload, stdout):
    z, _, _ = residuals(workload.expected.counts)
    sigma = np.linalg.svd(z, compute_uv=False)
    lam = sigma[: min(z.shape) - 1] ** 2
    rows = _read_rows(workload.out_dir("ca") / "eigenvalues.csv")[1:]
    got = np.array([float(row[1]) for row in rows])
    _require(got.size == lam.size, f"ca: {got.size} eigenvalues, expected {lam.size}")
    bad = [k for k in range(lam.size) if not _close(got[k], lam[k], scale=lam[0])]
    _require(not bad, f"ca: eigenvalues {bad[:5]} differ from the squared singular values")


_SCA_LINE = re.compile(
    r"dim (\d+): pseudo-eigenvalue (\S+) \(\S+\), nonzeros (\d+) rows / (\d+) cols, sumabsv (\S+)"
)


def _weights(path):
    rows = _read_rows(path)
    header = rows[0]
    cols = [j for j, name in enumerate(header) if name.startswith("weight_")]
    return np.array([[float(row[j]) for j in cols] for row in rows[1:]])


def check_sca(workload, stdout):
    flags = workload.flags["sca"]
    target = int(flags[flags.index("--nnz") + 1])
    column_variant = "column" in flags
    z, _, _ = residuals(workload.expected.counts)
    lam1 = np.linalg.svd(z, compute_uv=False)[0] ** 2
    out = workload.out_dir("sca")
    u_all = _weights(out / "rows.csv")
    v_all = _weights(out / "cols.csv")
    eig = [float(row[1]) for row in _read_rows(out / "eigenvalues.csv")[1:]]
    reports = _SCA_LINE.findall(stdout)
    _require(len(reports) == u_all.shape[1] == v_all.shape[1] == len(eig),
             "sca: dimension counts of stdout and tables disagree")
    for d, (_dim, pseudo, nnz_u, nnz_v, budget_v) in enumerate(reports):
        u, v = u_all[:, d], v_all[:, d]
        for side, w in (("row", u), ("column", v)):
            _require(abs(np.linalg.norm(w) - 1.0) <= RTOL, f"sca: dim {d + 1} {side} weights not unit norm")
        _require(np.abs(v).sum() <= float(budget_v) * (1 + RTOL),
                 f"sca: dim {d + 1} column weights exceed the L1 budget {budget_v}")
        if not column_variant:
            # the row side carries the inactive budget sqrt(n_rows)
            _require(np.abs(u).sum() <= math.sqrt(u.size) * (1 + RTOL), f"sca: dim {d + 1} row L1")
        _require(np.count_nonzero(u) == int(nnz_u) and np.count_nonzero(v) == int(nnz_v),
                 f"sca: dim {d + 1} nonzero counts differ from the reported ones")
        _require(int(nnz_v) >= target, f"sca: dim {d + 1} keeps {nnz_v} columns, target {target}")
        fit = float(u @ z @ v) ** 2
        _require(fit <= lam1 * (1 + RTOL), f"sca: dim {d + 1} (u'Zv)^2 = {fit:.6g} exceeds CA lambda1 {lam1:.6g}")
        _require(_close(fit, eig[d]) and _close(fit, float(pseudo)),
                 f"sca: dim {d + 1} pseudo-eigenvalue {eig[d]:.6g} is not (u'Zv)^2 = {fit:.6g}")


_TUNE_LINE = re.compile(r"criterion (\w+): optimum (\S+) with (\d+) row / (\d+) column nonzeros")


def check_tune(workload, stdout):
    flags = workload.flags["tune"]
    criterion = flags[flags.index("--criterion") + 1]
    step = float(flags[flags.index("--step") + 1]) if "--step" in flags else 0.01
    counts = workload.expected.counts
    path = workload.out_dir("tune") / "tuning_grid.csv"
    rows = _read_rows(path)
    _require(rows[0] == ["value", "criterion", "nnz_u", "nnz_v", "fit", "selected"], "tune: header")
    rows = rows[1:]
    values = [float(row[0]) for row in rows]
    crit = [float(row[1]) for row in rows]
    nnz_u = [int(row[2]) for row in rows]
    nnz_v = [int(row[3]) for row in rows]
    grid = coupled_grid(counts.shape, step)
    _require(len(values) == len(grid) and all(_close(a, b) for a, b in zip(values, grid)),
             "tune: grid values differ from the coupled grid")
    selected = [i for i, row in enumerate(rows) if row[5] == "1"]
    _require(len(selected) == 1, f"tune: {len(selected)} rows selected")
    sel = selected[0]
    # the argmax (IS) or argmin (BIC, CV); cells that tie only after
    # rounding to six digits cannot be ordered from the file, so the tie
    # rule is checked where ties are exact: no earlier cell may print a
    # strictly better value, and an exact-zero optimum is the first zero
    best = max(crit) if criterion == "is" else min(crit)
    _require(crit[sel] == best, f"tune: selected value {crit[sel]} is not the {criterion} optimum {best}")
    _require(rows[sel][1] != "0" or crit.index(best) == sel,
             "tune: a tie was not broken toward the sparser budget")
    report = _TUNE_LINE.search(stdout)
    _require(report is not None and _close(float(report.group(2)), values[sel])
             and (int(report.group(3)), int(report.group(4))) == (nnz_u[sel], nnz_v[sel]),
             "tune: reported optimum differs from the selected row")
    n_rows, n_cols = counts.shape
    _require(all(1 <= a <= n_rows and 1 <= b <= n_cols for a, b in zip(nnz_u, nnz_v)),
             "tune: nonzero counts out of range")
    if criterion == "cv":
        data = path.read_bytes()
        first = workload.state.setdefault(("cv", workload.tune_seed()), data)
        _require(data == first, "tune: cross-validation output changed between repetitions of one seed")


def _svg_paths(text):
    """Points per (side, index) from polylines and single-point circles."""
    paths = {}
    for tag in re.findall(r"<(?:polyline|circle)\b[^>]*>", text):
        attrs = dict(re.findall(r'([\w-]+)="([^"]*)"', tag))
        side = attrs.get("class", "")
        if side not in ("u-path", "v-path"):
            continue
        key = (side, int(attrs["data-index"]))
        _require(key not in paths, f"paths: {key} drawn twice")
        paths[key] = len(attrs["points"].split()) if "points" in attrs else 1
    return paths


def check_paths(workload, stdout):
    n_rows, n_cols = workload.expected.counts.shape
    n_grid = len(coupled_grid((n_rows, n_cols), 0.01))
    _require(f"weight paths over {n_grid} budgets" in stdout, f"paths: expected {n_grid} budgets in the report")
    text = (workload.out_dir("paths") / "weight_paths.svg").read_text(encoding="utf-8")
    paths = _svg_paths(text)
    want = {("u-path", i) for i in range(n_rows)} | {("v-path", j) for j in range(n_cols)}
    _require(set(paths) == want, f"paths: {len(paths)} paths drawn, expected {len(want)}")
    short = [key for key, n in paths.items() if n != n_grid]
    _require(not short, f"paths: {len(short)} paths without one point per budget, e.g. {short[:1]}")


def check_cluster(workload, stdout):
    from scipy.cluster.hierarchy import fcluster, linkage

    flags = workload.flags["cluster"]
    k = int(flags[flags.index("--k") + 1])
    table = workload.expected
    z, r, _ = residuals(table.counts)
    u, s, _ = np.linalg.svd(z, full_matrices=False)
    coords = u[:, :2] * s[:2] / np.sqrt(r)[:, None]
    want = _first_appearance(fcluster(linkage(coords, method="ward"), k, criterion="maxclust"))
    out = workload.out_dir("cluster")
    rows = _read_rows(out / "clusters.csv")[1:]
    _require([row[0] for row in rows] == table.row_labels, "cluster: row labels differ")
    got = np.array([int(row[1]) for row in rows])
    _require(np.array_equal(_first_appearance(got), want), "cluster: partition differs from scipy's Ward")
    _check_typicality(table, got, k, _read_rows(out / "typicality.csv")[1:], flags)


def _first_appearance(labels):
    relabel = {}
    return np.array([relabel.setdefault(x, len(relabel)) for x in labels])


def _check_typicality(table, assignment, k, rows, flags):
    top_m = int(flags[flags.index("--top-words") + 1]) if "--top-words" in flags else 3
    sums = np.array([table.counts[assignment == i].sum(axis=0) for i in range(k)])
    k_i = sums.sum(axis=1)[:, None]
    k_j = sums.sum(axis=0)[None, :]
    total = sums.sum()
    expected = k_i * k_j / total
    zscores = (sums - expected) / np.sqrt(expected * (1.0 - k_j / total))
    index = {label: j for j, label in enumerate(table.col_labels)}
    for i in range(k):
        listed = [row for row in rows if row[0] == f"cluster {i}"]
        _require(len(listed) == min(top_m, len(index)), f"cluster: cluster {i} lists {len(listed)} categories")
        got = [(row[2], float(row[3])) for row in listed]
        for category, value in got:
            _require(_close(value, zscores[i, index[category]]),
                     f"cluster: typicality of {category!r} in cluster {i} is {value}, "
                     f"recomputed {zscores[i, index[category]]:.6g}")
        _require(all(a[1] >= b[1] for a, b in zip(got, got[1:])), f"cluster: cluster {i} ranking not descending")
        rest = [zscores[i, j] for c, j in index.items() if c not in {g[0] for g in got}]
        _require(not rest or max(rest) <= got[-1][1] + RTOL * abs(got[-1][1]),
                 f"cluster: cluster {i} omits a more typical category")


CHECKS = {
    "dtm": check_dtm,
    "ca": check_ca,
    "tune": check_tune,
    "sca": check_sca,
    "paths": check_paths,
    "cluster": check_cluster,
}
