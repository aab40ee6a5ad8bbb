"""CSV ingestion and serialization.

Contingency tables travel as UTF-8 CSV with a label header row and a
label column; write→read→write is byte-stable. Result tables use six
significant digits, except structural zeros which are written as a
literal "0" so sparsity survives grep.
"""

import csv
import io
import os
from itertools import accumulate, islice
from pathlib import Path

import numpy as np

from .ca import CADecomposition, ContingencyTable, contributions
from .errors import InputError, ParseError
from .sparse import SparseCAModel
from .tuning import TuningResult


def _parse_cell(cell: str, line: int, column: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"non-numeric cell {cell!r}", line=line, column=column)
    if not np.isfinite(value):
        raise ParseError(f"non-finite cell {cell!r}", line=line, column=column)
    if value < 0:
        raise ParseError(f"negative cell {cell!r}", line=line, column=column)
    return value


def _parsed(cells, count: int):
    """``count`` cells as a float array, or None if one of them fails
    ``_parse_cell``; Python's ``float`` reads each cell, so the accepted
    spellings are the same, and one array test checks them all."""
    try:
        values = np.fromiter(map(float, cells), dtype=float, count=count)
    except ValueError:
        return None
    if ((values >= 0) & (values < np.inf)).all():
        return values
    return None


def read_contingency_csv(path, drop_empty: bool = False) -> ContingencyTable:
    """Load a labeled contingency table.

    The header row starts with an empty cell or ``id`` followed by the
    column labels; every other row starts with its row label. Ragged
    rows, non-numeric or negative cells, and duplicate labels raise
    ``ParseError`` with the offending line and column (1-based).

    Each data row is converted with one ``float`` per cell and tested
    as one array; only a row that fails goes through ``_parse_cell``
    cell by cell, to name the first bad cell.
    """
    with open(path, encoding="utf-8-sig", newline="") as handle:
        rows = [(i, row) for i, row in enumerate(csv.reader(handle), start=1) if row]
    if not rows:
        raise ParseError("empty file", line=1, column=1)
    _line, header = rows[0]
    if len(header) < 2:
        raise ParseError("header must hold a label cell and at least one column", line=1, column=1)
    if header[0] not in ("", "id"):
        raise ParseError(
            f"first header cell must be empty or 'id', got {header[0]!r}",
            line=1,
            column=1,
        )
    col_labels = header[1:]
    seen = {}
    for j, label in enumerate(col_labels, start=2):
        if label in seen:
            raise ParseError(f"duplicate column label {label!r}", line=1, column=j)
        seen[label] = j

    row_labels = []
    counts = []
    seen = {}
    for line, row in rows[1:]:
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} cells, got {len(row)}",
                line=line,
                column=min(len(row), len(header)) + 1,
            )
        label = row[0]
        if label in seen:
            raise ParseError(f"duplicate row label {label!r}", line=line, column=1)
        seen[label] = line
        row_labels.append(label)
        values = _parsed(row[1:], len(col_labels))
        if values is None:
            for j, cell in enumerate(row[1:], start=2):
                _parse_cell(cell, line, j)
        counts.append(values)
    if not counts:
        raise ParseError("no data rows", line=1, column=1)
    return ContingencyTable.from_counts(
        np.array(counts, dtype=float),
        row_labels=row_labels,
        col_labels=col_labels,
        drop_empty=drop_empty,
    )


def _format_count(value: float) -> str:
    # integers print without a decimal point; everything else uses the
    # shortest representation that parses back to the same float
    value = float(value)
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _row_text(row: np.ndarray, spec: str) -> str:
    """``row``'s cells printed by the printf conversion ``spec`` and
    joined by commas, with one ``%`` for the row; -0.0 prints as 0."""
    return ",".join([spec] * len(row)) % tuple((row + 0.0).tolist())


def _write_rows(path, header, rows) -> None:
    """Write a CSV file: the header, then each row, as the csv writer
    quotes them."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_labeled_rows(path, header, labels, texts) -> None:
    """Write a CSV file: the header, then one ``label,text`` line per
    label, the label quoted as the csv writer quotes a cell that more
    cells follow."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerow(header)
        for label, text in zip(labels, texts):
            buffer.seek(0)
            buffer.truncate()
            writer.writerow([label, ""])
            handle.write(f"{buffer.getvalue()[:-1]}{text}\n")


def write_contingency_csv(table: ContingencyTable, path) -> None:
    """Inverse of ``read_contingency_csv``, byte-stable on round trips.

    A row of integers below 1e16 is printed with ``%d`` in one step;
    any other row goes through ``_format_count`` cell by cell.
    """
    counts = table.counts
    integral = np.all((counts == np.trunc(counts)) & (np.abs(counts) < 1e16), axis=1)
    texts = (
        _row_text(row, "%d") if whole else ",".join(map(_format_count, row))
        for row, whole in zip(counts, integral)
    )
    _write_labeled_rows(path, ["id", *table.col_labels], table.row_labels, texts)


def build_dtm(
    token_counts_path,
    stoplist_path=None,
    min_count: int = 1,
    max_vocab: int | None = None,
) -> ContingencyTable:
    """Documents-by-tokens table from a (doc_id, token, count) CSV.

    Stoplisted tokens are removed, tokens whose corpus-wide count is
    not strictly above ``min_count`` are dropped, and the vocabulary is
    capped at the ``max_vocab`` most frequent tokens (ties by token).
    Documents keep their order of first appearance; token columns are
    ordered by descending corpus count, then token. Documents left
    empty after filtering are dropped.

    The count column is converted in one pass and tested as one array,
    like a table row in ``read_contingency_csv``; ragged lines and bad
    counts raise ``ParseError`` for the earliest offending line.
    """
    if min_count < 1:
        raise InputError(f"min_count must be at least 1, got {min_count}")
    if max_vocab is not None and max_vocab < 1:
        raise InputError(f"max_vocab must be at least 1, got {max_vocab}")

    stoplist = set()
    if stoplist_path is not None:
        with open(stoplist_path, encoding="utf-8") as handle:
            stoplist = {line.strip() for line in handle if line.strip()}

    with open(token_counts_path, encoding="utf-8-sig", newline="") as handle:
        rows = [(i, row) for i, row in enumerate(csv.reader(handle), start=1) if row]
    if not rows:
        raise ParseError("empty token-counts file", line=1, column=1)
    _line, header = rows[0]
    expected = ["doc_id", "token", "count"]
    if [cell.strip().lower() for cell in header[:3]] != expected:
        raise ParseError(
            f"header must be doc_id,token,count, got {header!r}", line=1, column=1
        )

    # the lines before the first ragged one hold the counts to parse; a
    # bad count among them comes first, else the ragged line's error
    ragged = next((k for k in range(1, len(rows)) if len(rows[k][1]) != 3), len(rows))
    counts = _parsed((row[2] for _line, row in islice(rows, 1, ragged)), ragged - 1)
    if counts is None:
        for line, row in islice(rows, 1, ragged):
            _parse_cell(row[2], line, 3)
    if ragged < len(rows):
        line, row = rows[ragged]
        raise ParseError(f"expected 3 cells, got {len(row)}", line=line, column=len(row) + 1)

    doc_order = []
    cells = {}
    totals = {}
    for (_line, (doc, token, _raw)), count in zip(islice(rows, 1, None), map(float, counts)):
        if token in stoplist:
            continue
        if doc not in cells:
            doc_order.append(doc)
            cells[doc] = {}
        cells[doc][token] = cells[doc].get(token, 0.0) + count
        totals[token] = totals.get(token, 0.0) + count

    kept = [token for token, total in totals.items() if total > min_count]
    kept.sort(key=lambda token: (-totals[token], token))
    if max_vocab is not None:
        kept = kept[:max_vocab]
    if not kept or not doc_order:
        raise InputError("no tokens survive the stoplist and frequency filters")

    counts = np.zeros((len(doc_order), len(kept)))
    index = {token: j for j, token in enumerate(kept)}
    for i, doc in enumerate(doc_order):
        for token, count in cells[doc].items():
            j = index.get(token)
            if j is not None:
                counts[i, j] = count
    return ContingencyTable.from_counts(
        counts, row_labels=doc_order, col_labels=kept, drop_empty=True
    )


def format_sig(value: float) -> str:
    """Six significant digits; exact zeros become a literal "0"."""
    if value == 0:
        return "0"
    return f"{float(value):.6g}"


def write_tables_csv(model, out_dir) -> list:
    """Serialize a fitted model to eigenvalues.csv, rows.csv, cols.csv.

    Accepts either a plain or a sparse fit. The eigenvalue table lists
    each dimension with its share of total inertia and the running
    cumulative share. Row and column tables carry one contribution and
    one coordinate column per dimension; sparse fits prepend the weight
    columns, plain fits omit them (the weights are just rescaled
    coordinates there).
    """
    out_dir = Path(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    sparse = isinstance(model, SparseCAModel)
    if not sparse and not isinstance(model, CADecomposition):
        raise InputError(f"cannot serialize {type(model).__name__}")
    n_dims = model.n_dims
    inertia = model.total_inertia
    contrib = contributions(model)
    table = model.table

    paths = []
    path = out_dir / "eigenvalues.csv"
    shares = [100.0 * lam / inertia for lam in model.eigenvalues]
    figures = zip(model.eigenvalues, shares, accumulate(shares))
    _write_rows(path, ["dim", "eigenvalue", "percent", "cumulative_percent"],
                ([k, *map(format_sig, row)] for k, row in enumerate(figures, start=1)))
    paths.append(path)

    for name, labels, coords, contrib_side, weights in (
        ("rows.csv", table.row_labels, model.row_coords, contrib.row_contrib,
         model.row_weights if sparse else None),
        ("cols.csv", table.col_labels, model.col_coords, contrib.col_contrib,
         model.col_weights if sparse else None),
    ):
        path = out_dir / name
        header = ["label"]
        for d in range(1, n_dims + 1):
            if weights is not None:
                header.append(f"weight_{d}")
            header += [f"contrib_{d}", f"coord_{d}"]
        # per dimension: [weight,] contrib, coord
        columns = [contrib_side, coords] if weights is None else [weights, contrib_side, coords]
        cells = np.stack([c[:, :n_dims] for c in columns], axis=2).reshape(len(coords), -1)
        _write_labeled_rows(path, header, labels, (_row_text(row, "%.6g") for row in cells))
        paths.append(path)
    return paths


def write_tuning_csv(result: TuningResult, path) -> None:
    """One grid cell per row, with the selected cell flagged."""
    grid = result.grid
    axes = (grid.axis1,) if grid.axis2 is None else (grid.axis1, grid.axis2)
    optimum = tuple(np.atleast_1d(result.optimum))
    head = ["value"] if grid.axis2 is None else ["value_u", "value_v"]
    rows = []
    for cell in np.ndindex(grid.values.shape):
        budgets = tuple(axis[i] for axis, i in zip(axes, cell))
        rows.append([
            *map(format_sig, budgets), format_sig(grid.values[cell]),
            int(grid.nnz_u[cell]), int(grid.nnz_v[cell]),
            format_sig(grid.fit[cell]), int(budgets == optimum),
        ])
    _write_rows(path, [*head, "criterion", "nnz_u", "nnz_v", "fit", "selected"], rows)


def write_clusters_csv(labels, assignment, path) -> None:
    """Row label and cluster id, one line per clustered item."""
    assignment = np.asarray(assignment, dtype=int)
    if len(labels) != assignment.size:
        raise InputError(f"{assignment.size} assignments for {len(labels)} labels")
    _write_rows(path, ["label", "cluster"],
                ([label, int(cluster)] for label, cluster in zip(labels, assignment)))


def write_typicality_csv(table, path) -> None:
    """Ranked typical categories per cluster."""
    _write_rows(path, ["cluster", "rank", "category", "z"], (
        [table.cluster_labels[i], rank, category, format_sig(z)]
        for i, ranked in enumerate(table.ranked)
        for rank, (category, z) in enumerate(ranked, start=1)
    ))
