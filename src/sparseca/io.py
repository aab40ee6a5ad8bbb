"""CSV ingestion and serialization.

Contingency tables travel as UTF-8 CSV with a label header row and a
label column; write→read→write is byte-stable. Both inputs, a table and
a token-counts file, are read by ``_records`` and their numbers parsed
by ``_parse_records``: a byte-order mark is accepted, and blank lines
are skipped but counted in the line an error names. Result tables use
six significant digits, except structural zeros which are written as a
literal "0" so sparsity survives grep.
"""

import csv
import io
import os
from itertools import accumulate, chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .ca import CADecomposition, ContingencyTable, contributions
from .errors import InputError, ParseError
from .sparse import SparseCAModel
from .tuning import TuningResult


def _records(path, empty: str):
    """The nonblank records of a UTF-8 CSV file (a byte-order mark
    allowed) and their 1-based record numbers, blank records counted;
    ``ParseError(empty)`` when there are none."""
    with open(path, encoding="utf-8-sig", newline="") as handle:
        records = list(csv.reader(handle))
    lines = range(1, len(records) + 1)
    if not all(records):
        lines = [line for line, record in zip(lines, records) if record]
        records = list(filter(None, records))
    if not records:
        raise ParseError(empty, line=1, column=1)
    return records, lines


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


def _parse_records(records, lines, width: int, start: int, stop: int):
    """Cells ``start:`` of the records before ``stop``, one float array
    row each, or ``ParseError`` for the earliest record there that holds
    a bad cell or not ``width`` cells; a wrong width at ``stop`` comes
    before the caller's own fault there. Python's ``float`` reads every
    cell in one pass and one array test checks them all; only if it
    fails does ``_parse_cell`` read them in order, to name the bad one.
    """
    ragged = next((k for k, record in enumerate(records) if len(record) != width), len(records))
    end = min(ragged, stop)
    block = records[:end]
    cells = chain.from_iterable(map(itemgetter(slice(start, None)), block))
    try:
        values = np.fromiter(map(float, cells), dtype=float, count=end * (width - start))
    except ValueError:
        values = None
    if values is None or not ((values >= 0) & (values < np.inf)).all():
        for line, record in zip(lines, block):
            for column, cell in enumerate(record[start:], start=start + 1):
                _parse_cell(cell, line, column)
    if ragged == end < len(records):
        record = records[ragged]
        raise ParseError(f"expected {width} cells, got {len(record)}",
                         line=lines[ragged], column=min(len(record), width) + 1)
    return values.reshape(end, width - start)


def read_contingency_csv(path, drop_empty: bool = False) -> ContingencyTable:
    """Load a labeled contingency table.

    The header row starts with an empty cell or ``id`` followed by the
    column labels; every other row starts with its row label. Blank
    lines are skipped but counted. Ragged rows, non-numeric or negative
    cells, and duplicate labels raise ``ParseError`` with the line and
    column (1-based) of the earliest fault; on one line a wrong width
    comes first, then a duplicate row label, then a bad cell.
    """
    records, lines = _records(path, "empty file")
    header, line = records[0], lines[0]
    if len(header) < 2:
        raise ParseError("header must hold a label cell and at least one column",
                         line=line, column=1)
    if header[0] not in ("", "id"):
        raise ParseError(f"first header cell must be empty or 'id', got {header[0]!r}",
                         line=line, column=1)
    seen = {}
    for j, label in enumerate(header[1:], start=2):
        if seen.setdefault(label, j) != j:
            raise ParseError(f"duplicate column label {label!r}", line=line, column=j)

    rows = records[1:]
    if not rows:
        raise ParseError("no data rows", line=1, column=1)
    seen = {}
    repeat = next((k for k, row in enumerate(rows) if seen.setdefault(row[0], k) != k), len(rows))
    counts = _parse_records(rows, lines[1:], len(header), 1, repeat)
    if repeat < len(rows):
        raise ParseError(f"duplicate row label {rows[repeat][0]!r}",
                         line=lines[repeat + 1], column=1)
    return ContingencyTable.from_counts(counts, row_labels=[row[0] for row in rows],
                                        col_labels=header[1:], drop_empty=drop_empty)


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

    The counts are read like a table's cells: blank lines are skipped
    but counted, and a ragged line or a bad count raises ``ParseError``
    for the earliest one. The counts of a token, and of a document's
    token, are summed in file order.
    """
    if min_count < 1:
        raise InputError(f"min_count must be at least 1, got {min_count}")
    if max_vocab is not None and max_vocab < 1:
        raise InputError(f"max_vocab must be at least 1, got {max_vocab}")

    stoplist = set()
    if stoplist_path is not None:
        with open(stoplist_path, encoding="utf-8-sig") as handle:
            stoplist = {line.strip() for line in handle if line.strip()}

    records, lines = _records(token_counts_path, "empty token-counts file")
    header = records[0]
    if [cell.strip().lower() for cell in header[:3]] != ["doc_id", "token", "count"]:
        raise ParseError(f"header must be doc_id,token,count, got {header!r}",
                         line=lines[0], column=1)
    triples = records[1:]
    counts = _parse_records(triples, lines[1:], 3, 2, len(triples))[:, 0]
    if stoplist:
        live = [k for k, (_doc, token, _raw) in enumerate(triples) if token not in stoplist]
        triples = [triples[k] for k in live]
        counts = counts[live]

    docs, tokens = {}, {}
    doc_codes = np.array([docs.setdefault(doc, len(docs)) for doc, _, _ in triples], dtype=int)
    token_codes = np.array(
        [tokens.setdefault(token, len(tokens)) for _, token, _ in triples], dtype=int
    )
    totals = np.bincount(token_codes, weights=counts, minlength=len(tokens)).tolist()
    names = list(tokens)
    kept = sorted(
        (code for code, total in enumerate(totals) if total > min_count),
        key=lambda code: (-totals[code], names[code]),
    )[:max_vocab]
    if not kept:
        raise InputError("no tokens survive the stoplist and frequency filters")

    # the counts of dropped tokens go to a spare last column
    column = np.full(len(names), len(kept))
    column[kept] = np.arange(len(kept))
    table = np.zeros((len(docs), len(kept) + 1))
    np.add.at(table, (doc_codes, column[token_codes]), counts)
    return ContingencyTable.from_counts(
        table[:, :-1], row_labels=list(docs), col_labels=[names[c] for c in kept], drop_empty=True
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
