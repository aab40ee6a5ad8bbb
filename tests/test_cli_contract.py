"""The command line's contract, checked on generated tables.

Whatever readable table a table command is given, it either succeeds
with finite output or refuses the input: exit 0 with no ``nan`` or
``inf`` in any CSV cell or SVG attribute, or exit 2 with exactly one
``error:`` line and no out dir. Exit 1 is for runtime failures, such as
an unwritable path or a broken invariant, and never follows from the
table's numbers. The cells mix small counts with values whose sums and
products underflow or overflow.
"""

import contextlib
import csv
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparseca.cli import main

COUNTS = st.integers(0, 50).map(float)
EXTREMES = st.sampled_from([0.0, 0.5, 1e6, 1e-300, 1e-150, 1e154, 1e300, 5e-324])

COMMANDS = [
    ["ca"],
    ["sca", "--sumabs", "0.9", "--dims", "1"],
    ["sca", "--sumabs", "0.6"],
    ["sca", "--nnz", "2", "--dims", "1"],
    ["sca", "--variant", "column", "--sumabsv", "1.5", "--dims", "1"],
    ["tune", "--step", "0.1"],
    ["tune", "--criterion", "bic", "--step", "0.1"],
    ["tune", "--criterion", "cv", "--step", "0.5", "--seed", "0"],
    ["tune", "--grid-2d", "--points", "3"],
    ["paths"],
    ["cluster", "--k", "2", "--dims", "1"],
    ["cluster", "--k", "3"],
    ["cluster", "--k", "2", "--sumabs", "0.9"],
    ["cluster", "--k", "2", "--ward-variant", "D"],
]

NOT_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)
SVG_ATTRIBUTE = re.compile(r'=\s*"([^"]*)"')


@st.composite
def tables(draw):
    """Up to 8 x 8 counts, up to three of them replaced by extreme values;
    a table of mostly extremes is refused for a zero margin or underflow
    before any command gets to fit it."""
    n_rows, n_cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rows = [[draw(COUNTS) for _ in range(n_cols)] for _ in range(n_rows)]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_cols - 1))
        rows[i][j] = draw(EXTREMES)
    return rows


def write_table(path, rows):
    lines = ["id," + ",".join(f"c{j}" for j in range(len(rows[0])))]
    lines += [f"r{i}," + ",".join(repr(v) for v in row) for i, row in enumerate(rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stderr.getvalue()


def non_finite_outputs(out):
    """The files in ``out`` with a non-finite CSV cell or SVG attribute."""
    found = []
    for path in sorted(out.iterdir()):
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".csv":
            cells = [cell.strip() for row in csv.reader(io.StringIO(text)) for cell in row]
        else:
            cells = SVG_ATTRIBUTE.findall(text)
        if any(NOT_FINITE.search(cell) for cell in cells):
            found.append(path.name)
    return found


# A rank-1 fit that stops at its iteration cap warns, and the suite turns
# that warning into an error, which main would report as exit 1. Such fits
# are a known convergence defect of the loop on some budgets, not a breach
# of this contract, so only here the warning is ignored; a numpy
# RuntimeWarning stays an error, as a NaN behind it would break the contract.
# cluster's notice that it excludes a category without typicality variance
# is part of its output, not a failure.
@pytest.mark.filterwarnings("ignore:rank-1 fit did not converge:UserWarning")
@pytest.mark.filterwarnings("ignore:categories without typicality variance:UserWarning")
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(rows=tables(), drop_empty=st.booleans())
# positive margins whose product underflows to 0
@example(rows=[[0.0, 1e-300], [1.0, 0.0]], drop_empty=False)
# cluster and category totals whose product overflows
@example(rows=[[0.0, 1e300], [1e300, 0.0]], drop_empty=False)
def test_every_table_command_succeeds_finitely_or_refuses_once(rows, drop_empty):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        table = tmp / "table.csv"
        write_table(table, rows)
        flags = ["--drop-empty"] if drop_empty else []
        for i, command in enumerate(COMMANDS):
            out = tmp / f"out{i}"
            argv = [command[0], str(table), *command[1:], *flags, "--out-dir", str(out)]
            code, err = run(argv)
            assert code in (0, 2), (argv, code, err)
            if code == 0:
                bad = non_finite_outputs(out)
                assert not bad, (argv, bad)
            else:
                errors = [line for line in err.splitlines() if line.startswith("error:")]
                assert len(errors) == 1, (argv, err)
                assert not out.exists(), argv
