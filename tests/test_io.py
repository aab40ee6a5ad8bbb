"""CSV ingestion and serialization tests."""

import csv

import numpy as np
import pytest

from sparseca.ca import ContingencyTable, contributions, fit_ca
from sparseca.cluster import typicality_zscores
from sparseca.errors import InputError, ParseError, SingularMarginError
from sparseca.io import (
    _format_count,
    _parse_cell,
    _row_text,
    build_dtm,
    format_sig,
    read_contingency_csv,
    write_clusters_csv,
    write_contingency_csv,
    write_tables_csv,
    write_tuning_csv,
    write_typicality_csv,
)
from sparseca.sparse import SparsityConstraint, fit_sparse_ca
from sparseca.tuning import grid_search_1d, grid_search_2d

from conftest import random_table


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestReadContingencyCsv:
    def test_small_well_formed_file(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, ["id,a,b", "x,1,2", "y,3,4"])
        table = read_contingency_csv(path)
        np.testing.assert_array_equal(table.counts, [[1, 2], [3, 4]])
        assert table.row_labels == ["x", "y"]
        assert table.col_labels == ["a", "b"]
        assert table.total == 10

    def test_empty_first_header_cell_accepted(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, [",a,b", "x,1,2", "y,3,4"])
        assert read_contingency_csv(path).col_labels == ["a", "b"]

    def test_bad_first_header_cell(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, ["labels,a,b", "x,1,2"])
        with pytest.raises(ParseError, match="line 1, column 1"):
            read_contingency_csv(path)

    def test_ragged_row_position(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, ["id,a,b", "x,1,2", "y,3"])
        with pytest.raises(ParseError, match="line 3"):
            read_contingency_csv(path)

    def test_non_numeric_cell_position(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, ["id,a,b", "x,1,2", "y,oops,4"])
        with pytest.raises(ParseError, match="line 3, column 2"):
            read_contingency_csv(path)

    def test_negative_cell_position(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, ["id,a,b", "x,1,-2", "y,3,4"])
        with pytest.raises(ParseError, match="line 2, column 3"):
            read_contingency_csv(path)

    def test_duplicate_row_label(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, ["id,a,b", "x,1,2", "x,3,4"])
        with pytest.raises(ParseError, match="line 3, column 1"):
            read_contingency_csv(path)

    def test_duplicate_column_label(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, ["id,a,a", "x,1,2"])
        with pytest.raises(ParseError, match="line 1, column 3"):
            read_contingency_csv(path)

    def test_zero_column_names_the_column(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, ["id,a,b", "x,1,0", "y,3,0"])
        with pytest.raises(SingularMarginError, match="'b'"):
            read_contingency_csv(path)

    def test_drop_empty_removes_zero_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, ["id,a,b,c", "x,1,0,2", "y,3,0,4", "z,0,0,0"])
        table = read_contingency_csv(path, drop_empty=True)
        assert table.row_labels == ["x", "y"]
        assert table.col_labels == ["a", "c"]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ParseError, match="empty"):
            read_contingency_csv(path)

    def test_header_with_one_cell(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, ["id", "x"])
        with pytest.raises(ParseError, match="at least one column"):
            read_contingency_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        write_lines(path, ["id,a,b"])
        with pytest.raises(ParseError, match="no data rows"):
            read_contingency_csv(path)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,a,b\n\nx,1,2\ny,3,4\n\n", encoding="utf-8")
        assert read_contingency_csv(path).shape == (2, 2)


class TestRoundTrip:
    def test_write_read_write_is_byte_stable(self, tmp_path, rng):
        counts = random_table(rng, 6, 5).astype(float)
        counts[0, 0] += 0.5
        table = ContingencyTable.from_counts(counts)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_contingency_csv(table, first)
        again = read_contingency_csv(first)
        write_contingency_csv(again, second)
        assert first.read_bytes() == second.read_bytes()
        np.testing.assert_array_equal(again.counts, table.counts)
        assert again.row_labels == table.row_labels
        assert again.col_labels == table.col_labels

    def test_integer_counts_written_without_decimal_point(self, tmp_path):
        table = ContingencyTable.from_counts(
            np.array([[1.0, 2.0], [3.0, 400000.0]])
        )
        path = tmp_path / "t.csv"
        write_contingency_csv(table, path)
        body = path.read_text(encoding="utf-8")
        assert "1,2" in body
        assert "400000" in body
        assert "." not in body.splitlines()[1]

    def test_labels_with_commas_survive(self, tmp_path):
        table = ContingencyTable.from_counts(
            np.array([[1.0, 2.0]]), row_labels=["a, b"], col_labels=["c", "d,e"]
        )
        path = tmp_path / "t.csv"
        write_contingency_csv(table, path)
        again = read_contingency_csv(path)
        assert again.row_labels == ["a, b"]
        assert again.col_labels == ["c", "d,e"]


class TestBuildDtm:
    def corpus(self, tmp_path, rows):
        path = tmp_path / "tokens.csv"
        write_lines(path, ["doc_id,token,count", *rows])
        return path

    def test_threshold_is_strict(self, tmp_path):
        path = self.corpus(tmp_path, [
            "d1,apple,2", "d2,apple,1",
            "d1,pear,2", "d2,plum,1",
        ])
        table = build_dtm(path, min_count=2)
        # pear has corpus count 2, not > 2; apple has 3
        assert table.col_labels == ["apple"]
        np.testing.assert_array_equal(table.counts, [[2], [1]])

    def test_stoplist_removed_before_counting(self, tmp_path):
        path = self.corpus(tmp_path, ["d1,the,50", "d1,apple,3", "d2,apple,1"])
        stop = tmp_path / "stop.txt"
        stop.write_text("the\n\nand\n", encoding="utf-8")
        table = build_dtm(path, stoplist_path=stop)
        assert table.col_labels == ["apple"]

    def test_everything_stoplisted_errors(self, tmp_path):
        path = self.corpus(tmp_path, ["d1,the,5", "d2,the,2"])
        stop = tmp_path / "stop.txt"
        stop.write_text("the\n", encoding="utf-8")
        with pytest.raises(InputError, match="no tokens survive"):
            build_dtm(path, stoplist_path=stop)

    def test_max_vocab_keeps_most_frequent_with_tie_order(self, tmp_path):
        path = self.corpus(tmp_path, [
            "d1,zebra,4", "d1,ant,4", "d1,moth,9", "d1,bee,2",
        ])
        table = build_dtm(path, max_vocab=3)
        assert table.col_labels == ["moth", "ant", "zebra"]

    def test_duplicate_doc_token_pairs_are_summed(self, tmp_path):
        path = self.corpus(tmp_path, ["d1,apple,2", "d1,apple,3"])
        table = build_dtm(path)
        np.testing.assert_array_equal(table.counts, [[5]])

    def test_documents_keep_first_appearance_order(self, tmp_path):
        path = self.corpus(tmp_path, [
            "b,apple,2", "a,apple,3", "b,pear,4", "c,pear,2",
        ])
        table = build_dtm(path)
        assert table.row_labels == ["b", "a", "c"]

    def test_empty_documents_dropped_by_default(self, tmp_path):
        path = self.corpus(tmp_path, [
            "d1,apple,5", "d2,rare,1", "d3,apple,2",
        ])
        table = build_dtm(path, min_count=1)
        # rare occurs once and falls below the strict threshold, which
        # empties d2
        assert table.row_labels == ["d1", "d3"]

    def test_header_required(self, tmp_path):
        path = tmp_path / "tokens.csv"
        write_lines(path, ["d1,apple,5"])
        with pytest.raises(ParseError, match="doc_id,token,count"):
            build_dtm(path)

    def test_ragged_and_bad_counts(self, tmp_path):
        path = self.corpus(tmp_path, ["d1,apple"])
        with pytest.raises(ParseError, match="line 2"):
            build_dtm(path)
        path = self.corpus(tmp_path, ["d1,apple,-3"])
        with pytest.raises(ParseError, match="negative"):
            build_dtm(path)

    def test_min_count_validated(self, tmp_path):
        path = self.corpus(tmp_path, ["d1,apple,5"])
        with pytest.raises(InputError, match="min_count"):
            build_dtm(path, min_count=0)

    def test_max_vocab_validated(self, tmp_path):
        path = self.corpus(tmp_path, ["d1,apple,5"])
        with pytest.raises(InputError, match="max_vocab must be at least 1, got 0"):
            build_dtm(path, max_vocab=0)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "tokens.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ParseError, match="empty token-counts file"):
            build_dtm(path)


class TestFormatSig:
    def test_zero_is_bare(self):
        assert format_sig(0.0) == "0"
        assert format_sig(-0.0) == "0"

    def test_six_significant_digits(self):
        assert format_sig(0.123456789) == "0.123457"
        assert format_sig(-1234567.0) == "-1.23457e+06"
        assert format_sig(2.5) == "2.5"


def parse_csv(path):
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


class TestWriteTablesCsv:
    def test_standard_fit_omits_weight_columns(self, tmp_path, rng):
        table = ContingencyTable.from_counts(random_table(rng, 6, 5))
        model = fit_ca(table)
        paths = write_tables_csv(model, tmp_path)
        assert [p.name for p in paths] == ["eigenvalues.csv", "rows.csv", "cols.csv"]
        header, _rows = parse_csv(tmp_path / "rows.csv")
        assert not any(name.startswith("weight") for name in header)
        assert header[:3] == ["label", "contrib_1", "coord_1"]

    def test_eigenvalue_shares_reparse_to_model(self, tmp_path, rng):
        table = ContingencyTable.from_counts(random_table(rng, 6, 5))
        model = fit_ca(table)
        write_tables_csv(model, tmp_path)
        _header, rows = parse_csv(tmp_path / "eigenvalues.csv")
        assert len(rows) == len(model.eigenvalues)
        for record, lam in zip(rows, model.eigenvalues):
            assert float(record[1]) == pytest.approx(lam, rel=1e-5)
            share = 100 * lam / model.total_inertia
            assert float(record[2]) == pytest.approx(share, rel=1e-5)
        cumulative = [float(r[3]) for r in rows]
        assert cumulative == sorted(cumulative)
        assert cumulative[-1] == pytest.approx(100.0, abs=1e-3)

    def test_sparse_fit_zero_weights_are_literal_zero(self, tmp_path, rng):
        table = ContingencyTable.from_counts(random_table(rng, 8, 6, total=900))
        model = fit_sparse_ca(table, [SparsityConstraint.coupled(0.5)] * 2)
        write_tables_csv(model, tmp_path)
        header, rows = parse_csv(tmp_path / "cols.csv")
        assert header[1] == "weight_1"
        weight_col = header.index("weight_1")
        written = [r[weight_col] for r in rows]
        zeros = [w for w in written if w == "0"]
        assert len(zeros) == 6 - model.factors[0].nnz_v
        assert model.factors[0].nnz_v < 6

    def test_sparse_coordinates_reparse(self, tmp_path, rng):
        table = ContingencyTable.from_counts(random_table(rng, 8, 6, total=900))
        model = fit_sparse_ca(table, [SparsityConstraint.coupled(0.6)] * 2)
        write_tables_csv(model, tmp_path)
        header, rows = parse_csv(tmp_path / "rows.csv")
        coord_col = header.index("coord_2")
        for record, want in zip(rows, model.row_coords[:, 1]):
            assert float(record[coord_col]) == pytest.approx(want, rel=1e-5, abs=1e-9)

    def test_unknown_model_rejected(self, tmp_path):
        with pytest.raises(InputError):
            write_tables_csv(object(), tmp_path)


class TestTuningAndClusterWriters:
    def test_tuning_grid_1d_layout(self, tmp_path, rng):
        table = ContingencyTable.from_counts(random_table(rng, 7, 6, total=600))
        model = fit_ca(table)
        result = grid_search_1d(model.residuals, grid=[0.5, 0.7, 0.9])
        write_tuning_csv(result, tmp_path / "tuning_grid.csv")
        header, rows = parse_csv(tmp_path / "tuning_grid.csv")
        assert header == ["value", "criterion", "nnz_u", "nnz_v", "fit", "selected"]
        assert len(rows) == 3
        assert sum(int(r[-1]) for r in rows) == 1
        selected = next(r for r in rows if r[-1] == "1")
        assert float(selected[0]) == pytest.approx(result.optimum)

    def test_tuning_grid_2d_layout(self, tmp_path, rng):
        table = ContingencyTable.from_counts(random_table(rng, 7, 6, total=600))
        model = fit_ca(table)
        result = grid_search_2d(
            model.residuals, grid_u=[1.2, 1.8], grid_v=[1.3, 1.9]
        )
        write_tuning_csv(result, tmp_path / "tuning_grid.csv")
        header, rows = parse_csv(tmp_path / "tuning_grid.csv")
        assert header[:2] == ["value_u", "value_v"]
        assert len(rows) == 4
        assert sum(int(r[-1]) for r in rows) == 1

    def test_clusters_csv(self, tmp_path):
        write_clusters_csv(["a", "b", "c"], [0, 1, 0], tmp_path / "clusters.csv")
        header, rows = parse_csv(tmp_path / "clusters.csv")
        assert header == ["label", "cluster"]
        assert rows == [["a", "0"], ["b", "1"], ["c", "0"]]
        with pytest.raises(InputError):
            write_clusters_csv(["a"], [0, 1], tmp_path / "x.csv")

    def test_typicality_csv(self, tmp_path):
        table = typicality_zscores(np.array([[10.0, 0.0], [0.0, 10.0]]), top_m=2)
        write_typicality_csv(table, tmp_path / "typicality.csv")
        header, rows = parse_csv(tmp_path / "typicality.csv")
        assert header == ["cluster", "rank", "category", "z"]
        assert [r[0] for r in rows] == ["cluster 1", "cluster 1", "cluster 2", "cluster 2"]
        assert [r[1] for r in rows] == ["1", "2", "1", "2"]
        assert rows[0][2] == "category 1"
        assert float(rows[0][3]) == pytest.approx(3.16228, abs=1e-4)


# Reference loops: the cell-by-cell reader and writers the row-at-a-time
# code replaced. The tests require the same values, errors and bytes.


def reference_write_contingency(table, path):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["id", *table.col_labels])
        for label, row in zip(table.row_labels, table.counts):
            writer.writerow([label, *[_format_count(v) for v in row]])


def reference_table_rows(labels, weights, contrib, coords, n_dims, path):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        for i, label in enumerate(labels):
            row = [label]
            for d in range(n_dims):
                if weights is not None:
                    row.append(format_sig(weights[i, d]))
                row += [format_sig(contrib[i, d]), format_sig(coords[i, d])]
            writer.writerow(row)


def parse_outcome(call):
    """The value ``call`` returns, or its ParseError as (message, line, column)."""
    try:
        return call()
    except ParseError as exc:
        return (str(exc), exc.line, exc.column)


SPELLINGS = ["1_0", " 3 ", "１２", "1e3", "-0", "nan", "inf", "-1", "x", ""]


class TestRowParsingMatchesCellParsing:
    @pytest.mark.parametrize("cell", SPELLINGS)
    def test_reader_cell(self, tmp_path, cell):
        path = tmp_path / "t.csv"
        write_lines(path, ["id,a,b", "x,1,2", f"y,4,{cell}", "z,5,6"])
        want = parse_outcome(lambda: _parse_cell(cell, 3, 3))
        got = parse_outcome(lambda: read_contingency_csv(path).counts[1, 1])
        assert got == want
        if isinstance(want, float):
            assert np.signbit(got) == np.signbit(want)

    @pytest.mark.parametrize("cell", SPELLINGS)
    def test_dtm_count(self, tmp_path, cell):
        path = tmp_path / "tokens.csv"
        write_lines(path, ["doc_id,token,count", "d1,pear,5", f"d1,apple,{cell}", "d2,apple,3"])
        want = parse_outcome(lambda: _parse_cell(cell, 3, 3))

        def apple_in_d1():
            table = build_dtm(path)
            return table.counts[0, table.col_labels.index("apple")]

        assert parse_outcome(apple_in_d1) == want

    @pytest.mark.parametrize(
        "cells, column, message",
        [
            ("1,x,-1", 3, "non-numeric cell 'x'"),
            ("1,-1,x", 3, "negative cell '-1'"),
            ("1,2,inf", 4, "non-finite cell 'inf'"),
            ("oops,2,nan", 2, "non-numeric cell 'oops'"),
        ],
    )
    def test_first_bad_cell_of_row_is_named(self, tmp_path, cells, column, message):
        path = tmp_path / "t.csv"
        write_lines(path, ["id,a,b,c", "x,1,2,3", f"y,{cells}"])
        with pytest.raises(ParseError) as info:
            read_contingency_csv(path)
        assert (info.value.line, info.value.column) == (3, column)
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize(
        "lines, position",
        [
            # a bad cell on line 3 comes before the ragged line 4 and the
            # duplicate label on line 5
            (["id,a,b", "x,1,2", "y,1,oops", "z,1", "y,3,4"], (3, 3)),
            (["id,a,b", "x,1,2", "y,-1,2", "x,3,4"], (3, 2)),
            # and the other way round
            (["id,a,b", "x,1,2", "z,1", "y,1,oops"], (3, 3)),
            (["id,a,b", "x,1,2", "x,3,4", "y,-1,2"], (3, 1)),
        ],
    )
    def test_reader_reports_earliest_line(self, tmp_path, lines, position):
        path = tmp_path / "t.csv"
        write_lines(path, lines)
        with pytest.raises(ParseError) as info:
            read_contingency_csv(path)
        assert (info.value.line, info.value.column) == position

    @pytest.mark.parametrize(
        "rows, position, message",
        [
            (["d1,a,2", "d1,b,2", "d2,a,3", "d2,c,oops", "d3,a,1", "d3,b,1", "d4,a,1", "d4"],
             (5, 3), "non-numeric"),
            (["d1,a,2", "d1", "d2,a,3", "d2,c,-4"], (3, 2), "expected 3 cells"),
            (["d1,a,2", "d1,b,nan", "d2,a,3,4"], (3, 3), "non-finite"),
            (["d1,a,2,9", "d1,b,nan"], (2, 5), "expected 3 cells"),
        ],
    )
    def test_dtm_reports_earliest_line(self, tmp_path, rows, position, message):
        path = tmp_path / "tokens.csv"
        write_lines(path, ["doc_id,token,count", *rows])
        with pytest.raises(ParseError, match=message) as info:
            build_dtm(path)
        assert (info.value.line, info.value.column) == position


class TestCellParserNotCalledOnValidInput:
    """Structural guard: valid input never reaches the per-cell parser."""

    @pytest.fixture
    def parse_calls(self, monkeypatch):
        import sparseca.io

        calls = []

        def counting(cell, line, column):
            calls.append((line, column))
            return _parse_cell(cell, line, column)

        monkeypatch.setattr(sparseca.io, "_parse_cell", counting)
        return calls

    def test_valid_table(self, tmp_path, rng, parse_calls):
        table = ContingencyTable.from_counts(random_table(rng, 60, 50, total=20000))
        path = tmp_path / "t.csv"
        write_contingency_csv(table, path)
        again = read_contingency_csv(path)
        np.testing.assert_array_equal(again.counts, table.counts)
        assert parse_calls == []

    def test_valid_triples(self, tmp_path, rng, parse_calls):
        counts = random_table(rng, 30, 40, total=5000)
        lines = [f"d{i},t{j},{int(counts[i, j])}" for i, j in zip(*np.nonzero(counts))]
        path = tmp_path / "tokens.csv"
        write_lines(path, ["doc_id,token,count", *lines])
        build_dtm(path)
        assert parse_calls == []

    def test_one_bad_cell_falls_back(self, tmp_path, parse_calls):
        path = tmp_path / "t.csv"
        write_lines(path, ["id,a,b,c", "x,1,2,3", "y,4,5,-6", "z,7,8,9"])
        with pytest.raises(ParseError, match="line 3, column 4"):
            read_contingency_csv(path)
        assert parse_calls == [(3, 2), (3, 3), (3, 4)]

    def test_one_bad_count_falls_back(self, tmp_path, parse_calls):
        path = tmp_path / "tokens.csv"
        write_lines(path, ["doc_id,token,count", "d1,a,2", "d1,b,x", "d2,a,3"])
        with pytest.raises(ParseError, match="line 3, column 3"):
            build_dtm(path)
        assert parse_calls == [(2, 3), (3, 3)]


EDGE_VALUES = [0.0, -0.0, 1e-05, 0.0001, 999999.5, 1e16, 9999999999999998.0,
               2.5, 1.0 / 3.0, 123456789.0, 7.0, 5e-324]
TRICKY_LABELS = ["plain", "a,b", 'say "hi"', "line\nbreak", "carriage\rreturn", " pad ", ""]


class TestRowFormatterMatchesCellFormatters:
    def test_sig_row_equals_format_sig(self):
        values = np.array(EDGE_VALUES + [-v for v in EDGE_VALUES] + [np.nan, np.inf, -np.inf])
        assert _row_text(values, "%.6g") == ",".join(format_sig(v) for v in values)

    def test_count_row_equals_format_count(self):
        values = np.array([0.0, -0.0, 1.0, 400000.0, 9999999999999998.0])
        assert _row_text(values, "%d") == ",".join(_format_count(v) for v in values)

    @pytest.mark.parametrize("fractional", [False, True])
    def test_contingency_writer_equals_reference(self, tmp_path, rng, fractional):
        counts = random_table(rng, 9, len(EDGE_VALUES) + 1, total=800)
        counts[0, :-1] = EDGE_VALUES
        counts[1, :3] = [1e16, 2e16, 3.0]
        if fractional:
            counts[2:, 0] += 0.5
        labels = TRICKY_LABELS + ["r7", "r8"]
        table = ContingencyTable.from_counts(counts, row_labels=labels)
        write_contingency_csv(table, tmp_path / "new.csv")
        reference_write_contingency(table, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_round_trip_with_edge_values(self, tmp_path, rng):
        counts = random_table(rng, 5, len(EDGE_VALUES) + 1, total=800)
        counts[0, :-1] = EDGE_VALUES
        table = ContingencyTable.from_counts(counts)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_contingency_csv(table, first)
        again = read_contingency_csv(first)
        write_contingency_csv(again, second)
        assert first.read_bytes() == second.read_bytes()
        np.testing.assert_array_equal(again.counts, table.counts)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_table_writer_equals_reference(self, tmp_path, rng, sparse):
        labels = TRICKY_LABELS + [f"r{i}" for i in range(len(TRICKY_LABELS), 12)]
        table = ContingencyTable.from_counts(random_table(rng, 12, 9, total=900),
                                             row_labels=labels)
        if sparse:
            model = fit_sparse_ca(table, [SparsityConstraint.coupled(0.5)] * 3)
            weights = np.column_stack([f.u for f in model.factors])
            contrib = contributions(model).row_contrib
            n_dims = 3
        else:
            model = fit_ca(table)
            weights = None
            contrib = contributions(model).row_contrib
            n_dims = model.n_dims
        write_tables_csv(model, tmp_path)
        reference_table_rows(labels, weights, contrib, model.row_coords, n_dims,
                             tmp_path / "old.csv")
        written = (tmp_path / "rows.csv").read_bytes()
        body = written[written.index(b"\n") + 1:]
        assert body == (tmp_path / "old.csv").read_bytes()
        if sparse:
            assert b",0," in body
