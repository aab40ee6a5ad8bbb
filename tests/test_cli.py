"""End-to-end command-line tests: exit codes, emitted files, reports."""

import csv
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sparseca
from sparseca.ca import _residual_matrices
from sparseca.cli import main
from sparseca.datasets import colors_of_music
from sparseca.io import format_sig, write_contingency_csv
from sparseca.sparse import SparsityConstraint, column_sparse_coordinates, fit_sparse_ca
from sparseca.tuning import default_coupled_grid, grid_search_1d

from conftest import BIC_WITHOUT_RESIDUAL, random_table


@pytest.fixture
def table_csv(tmp_path):
    rng = np.random.default_rng(20240817)
    counts = random_table(rng, 8, 6, total=900)
    path = tmp_path / "table.csv"
    lines = ["id," + ",".join(f"c{j}" for j in range(6))]
    for i, row in enumerate(counts):
        lines.append(f"r{i}," + ",".join(str(int(v)) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def small_csv(tmp_path):
    path = tmp_path / "small.csv"
    path.write_text(
        "id,a,b,c,d\nw,9,1,4,2\nx,2,8,3,1\ny,1,2,9,4\nz,4,2,1,8\n",
        encoding="utf-8",
    )
    return path


# one light form of each subcommand that reads a table
TABLE_COMMANDS = [
    ["ca"],
    ["sca", "--sumabs", "0.9", "--dims", "1"],
    ["tune"],
    ["paths"],
    ["cluster", "--k", "2", "--dims", "1"],
]


def read_rows(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def read_column(path, name):
    header, *rows = read_rows(path)
    return [row[header.index(name)] for row in rows]


@pytest.fixture
def music_csv(tmp_path):
    path = tmp_path / "music.csv"
    write_contingency_csv(colors_of_music(), path)
    return path


class TestCaCommand:
    def test_writes_tables_and_plots(self, table_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["ca", str(table_csv), "--out-dir", str(out)]) == 0
        for name in ("eigenvalues.csv", "rows.csv", "cols.csv", "map.svg", "scree.svg"):
            assert (out / name).exists()
        assert "total inertia" in capsys.readouterr().out

    def test_two_by_two_emits_one_dimension(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,a,b\nx,5,1\ny,2,7\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ca", str(path), "--out-dir", str(out)]) == 0
        rows = read_rows(out / "eigenvalues.csv")
        assert len(rows) == 2
        assert rows[1][0] == "1"

    def test_dims_flag_restricts_output(self, table_csv, tmp_path):
        out = tmp_path / "out"
        assert main(["ca", str(table_csv), "--dims", "2", "--out-dir", str(out)]) == 0
        header = read_rows(out / "rows.csv")[0]
        assert "coord_2" in header and "coord_3" not in header

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        assert main(["ca", str(tmp_path / "absent.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_file_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("id,a,b\nx,1,oops\n", encoding="utf-8")
        assert main(["ca", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_zero_column_without_drop_empty(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,a,b,c\nx,1,0,2\ny,3,0,4\n", encoding="utf-8")
        assert main(["ca", str(path), "--out-dir", str(tmp_path / "o1")]) == 2
        assert main([
            "ca", str(path), "--drop-empty", "--out-dir", str(tmp_path / "o2")
        ]) == 0

    def test_unwritable_out_dir(self, table_csv, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        assert main(["ca", str(table_csv), "--out-dir", str(blocker / "sub")]) == 1


class TestScaCommand:
    def test_col_scale_reaches_the_fit(self, music_csv, tmp_path):
        out = tmp_path / "out"
        code = main([
            "sca", str(music_csv), "--variant", "column", "--sumabsv", "1.5", "--dims", "1",
            "--col-scale", "barycentric", "--out-dir", str(out),
        ])
        assert code == 0
        table = colors_of_music()
        p, r, c, _z = _residual_matrices(table)
        fit = fit_sparse_ca(table, [SparsityConstraint.unpenalized_rows(1.5)],
                            variant="column_sparse")
        want = {spread: column_sparse_coordinates(p, r, c, fit.row_coords[:, 0], spread=spread)
                for spread in ("barycentric", "rescaled")}
        got = np.array(read_column(out / "cols.csv", "coord_1"), dtype=float)
        np.testing.assert_allclose(got, want["barycentric"], rtol=1e-5, atol=1e-12)
        assert not np.allclose(want["barycentric"], want["rescaled"], rtol=1e-3)

    def test_coupled_budget_reports_nonzeros(self, table_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "sca", str(table_csv), "--sumabs", "0.5", "--dims", "2",
            "--out-dir", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "pseudo-eigenvalue" in stdout
        assert "nonzeros" in stdout
        header = read_rows(out / "rows.csv")[0]
        assert "weight_1" in header

    def test_per_dim_budgets(self, table_csv, tmp_path):
        code = main([
            "sca", str(table_csv), "--sumabs", "0.5", "--sumabs", "0.8",
            "--dims", "2", "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 0

    def test_absolute_budgets(self, table_csv, tmp_path):
        code = main([
            "sca", str(table_csv), "--sumabsu", "1.6", "--sumabsv", "1.4",
            "--dims", "1", "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 0

    def test_nnz_target_resolves_budget(self, table_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "sca", str(table_csv), "--variant", "column", "--nnz", "3",
            "--dims", "1", "--out-dir", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "sumabsv" in stdout
        cols = read_rows(out / "cols.csv")
        weight_idx = cols[0].index("weight_1")
        nnz = sum(1 for row in cols[1:] if row[weight_idx] != "0")
        assert nnz >= 3

    def test_column_variant_sumabsv_broadcast(self, tmp_path, capsys):
        # one --sumabsv serves every dimension of the column variant
        path = tmp_path / "music.csv"
        write_contingency_csv(colors_of_music(), path)
        out = tmp_path / "out"
        code = main([
            "sca", str(path), "--variant", "column", "--sumabsv", "1.5",
            "--dims", "2", "--out-dir", str(out),
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        for k in (1, 2):
            assert lines[k - 1].startswith(f"dim {k}: ")
            assert lines[k - 1].endswith("nonzeros 10 rows / 3 cols, sumabsv 1.5")
        cols = read_rows(out / "cols.csv")
        for k in (1, 2):
            weight_idx = cols[0].index(f"weight_{k}")
            l1 = sum(abs(float(row[weight_idx])) for row in cols[1:])
            assert l1 <= 1.5 + 1e-5

    def test_broken_invariant_is_runtime_error(self, table_csv, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            "sparseca.sparse._l1_project_rows",
            lambda x, c: -x / np.linalg.norm(x, axis=-1, keepdims=True),
        )
        code = main(["sca", str(table_csv), "--sumabs", "0.6", "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert "negative u'Zv" in capsys.readouterr().err

    def test_conflicting_flags(self, table_csv, capsys):
        assert main(["sca", str(table_csv), "--sumabs", "0.5", "--nnz", "3"]) == 2
        assert "one of" in capsys.readouterr().err

    def test_no_budget_flag(self, table_csv):
        assert main(["sca", str(table_csv)]) == 2

    def test_sumabsu_alone_rejected(self, table_csv):
        assert main(["sca", str(table_csv), "--sumabsu", "1.5"]) == 2

    def test_sumabsu_rejected_for_column_variant(self, table_csv):
        code = main([
            "sca", str(table_csv), "--variant", "column",
            "--sumabsu", "1.5", "--sumabsv", "1.4",
        ])
        assert code == 2

    @pytest.mark.parametrize("value, expected", [("-5", 2), ("1.5", 2), ("0.01", 0)])
    def test_column_variant_sumabs_range(self, tmp_path, capsys, value, expected):
        # a scale outside (0, 1] is refused under its own flag; a small
        # positive one keeps the 1-sparse column budget of 1
        path = tmp_path / "music.csv"
        write_contingency_csv(colors_of_music(), path)
        out = tmp_path / "out"
        code = main([
            "sca", str(path), "--variant", "column", "--sumabs", value,
            "--out-dir", str(out),
        ])
        assert code == expected
        if expected == 2:
            err = capsys.readouterr().err
            assert f"--sumabs values must lie in (0, 1], got [{float(value)}]" in err
            assert not out.exists()
        else:
            assert "sumabsv 1\n" in capsys.readouterr().out

    def test_wrong_budget_count(self, table_csv):
        code = main([
            "sca", str(table_csv), "--sumabs", "0.5", "--sumabs", "0.6",
            "--dims", "3",
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "dims, budgets",
        [
            ("0", ["--sumabs", "0.5"]),
            ("-2", ["--nnz", "4"]),
            ("-1", ["--sumabs", "0.5", "--sumabs", "0.6"]),
        ],
    )
    def test_dims_below_one_rejected(self, table_csv, tmp_path, capsys, dims, budgets):
        # refused under its own flag, before any budget is matched to it
        out = tmp_path / "out"
        code = main(["sca", str(table_csv), "--dims", dims, *budgets, "--out-dir", str(out)])
        assert code == 2
        assert f"--dims must be at least 1, got {dims}" in capsys.readouterr().err
        assert not out.exists()

    def test_nonzero_only_map(self, table_csv, tmp_path):
        out = tmp_path / "out"
        code = main([
            "sca", str(table_csv), "--sumabs", "0.45", "--dims", "2",
            "--nonzero-only", "--out-dir", str(out),
        ])
        assert code == 0
        assert (out / "map.svg").exists()


class TestTuneCommand:
    def test_orientation_reaches_the_search(self, music_csv, tmp_path):
        out = tmp_path / "out"
        code = main([
            "tune", str(music_csv), "--step", "0.1", "--orientation", "printed",
            "--out-dir", str(out),
        ])
        assert code == 0
        z = _residual_matrices(colors_of_music())[3]
        grid = default_coupled_grid(z.shape, step=0.1)
        want = {orientation: [format_sig(v) for v in grid_search_1d(
                    z, grid=grid, orientation=orientation).grid.values]
                for orientation in ("printed", "tradeoff")}
        assert read_column(out / "tuning_grid.csv", "criterion") == want["printed"]
        assert want["printed"] != want["tradeoff"]

    def test_grid_1d_default(self, small_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "tune", str(small_csv), "--criterion", "is", "--grid-1d",
            "--step", "0.1", "--out-dir", str(out),
        ])
        assert code == 0
        assert (out / "tuning_grid.csv").exists()
        assert (out / "criterion_curve.svg").exists()
        stdout = capsys.readouterr().out
        assert "optimum" in stdout
        rows = read_rows(out / "tuning_grid.csv")
        assert rows[0][0] == "value"
        assert sum(1 for r in rows[1:] if r[-1] == "1") == 1

    def test_grid_2d_bic(self, small_csv, tmp_path):
        out = tmp_path / "out"
        code = main([
            "tune", str(small_csv), "--criterion", "bic", "--grid-2d",
            "--points", "4", "--out-dir", str(out),
        ])
        assert code == 0
        assert (out / "contour.svg").exists()
        rows = read_rows(out / "tuning_grid.csv")
        assert rows[0][:2] == ["value_u", "value_v"]

    def test_cv_deterministic_per_seed(self, small_csv, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main([
                "tune", str(small_csv), "--criterion", "cv", "--seed", "11",
                "--step", "0.1", "--out-dir", str(out),
            ])
            assert code == 0
            outs.append((out / "tuning_grid.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_after_fixes_leading_dimension(self, small_csv, tmp_path):
        code = main([
            "tune", str(small_csv), "--after", "0.7", "--step", "0.1",
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 0

    def test_both_grid_flags_rejected(self, small_csv):
        assert main(["tune", str(small_csv), "--grid-1d", "--grid-2d"]) == 2

    def test_zero_step_is_validation_error(self, small_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["tune", str(small_csv), "--step", "0", "--out-dir", str(out)])
        assert code == 2
        assert "step" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_points_is_validation_error(self, small_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "tune", str(small_csv), "--grid-2d", "--points", "0", "--out-dir", str(out),
        ])
        assert code == 2
        assert "grid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--grid-2d", "--points", "-1"], "grid points must be at least 1, got -1"),
            (["--criterion", "cv", "--seed", "-1"], "seed must be non-negative, got -1"),
        ],
        ids=["points", "seed"],
    )
    def test_negative_flag_is_validation_error(self, small_csv, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert main(["tune", str(small_csv), *argv, "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_zero_cv_repeats_is_validation_error(self, small_csv, tmp_path, capsys):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                "tune", str(small_csv), "--criterion", "cv", "--repeats", "0",
                "--out-dir", str(out),
            ])
        assert code == 2
        assert "repeats must be at least 1" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv", TABLE_COMMANDS, ids=lambda argv: argv[0])
def test_zero_inertia_table_is_validation_error(tmp_path, capsys, argv):
    # rows proportional to each other: the table is exactly independent
    path = tmp_path / "indep.csv"
    path.write_text("id,a,b\nx,1,2\ny,2,4\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main([argv[0], str(path), *argv[1:], "--out-dir", str(out)]) == 2
    assert "total inertia" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", TABLE_COMMANDS, ids=lambda argv: argv[0])
def test_underflowing_margins_are_validation_error(tmp_path, capsys, argv):
    # every margin is positive, but the product 1e-300 * 1e-300 is 0
    path = tmp_path / "tiny.csv"
    path.write_text("id,a,b\nx,0,1e-300\ny,1,0\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main([argv[0], str(path), *argv[1:], "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert "products must be strictly positive" in err
    assert not out.exists()


def test_overflowing_typicality_is_validation_error(tmp_path, capsys):
    # cluster and category totals of 1e300 multiply past the largest float
    path = tmp_path / "huge.csv"
    path.write_text("id,a,b\nx,0,1e300\ny,1e300,0\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["cluster", str(path), "--k", "2", "--dims", "1", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert "overflow the expected counts" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["ca"],
        ["sca", "--sumabs", "0.5"],
        ["cluster", "--k", "2"],
        ["cluster", "--k", "2", "--sumabs", "0.5"],
    ],
    ids=["ca", "sca", "cluster", "cluster-sparse"],
)
def test_one_message_per_dims_mistake(tmp_path, capsys, argv):
    # music is 10x9, so it has at most 8 dimensions; a count below one is
    # refused before the table is read, one above the table's by the fit
    path = tmp_path / "music.csv"
    write_contingency_csv(colors_of_music(), path)
    for dims, message in (
        ("0", "--dims must be at least 1, got 0"),
        ("-1", "--dims must be at least 1, got -1"),
        ("9", "n_dims must be in [1, 8], got 9"),
        ("1.5", "argument --dims: invalid int value: '1.5'"),
    ):
        out = tmp_path / f"out{dims}"
        code = main([argv[0], str(path), *argv[1:], "--dims", dims, "--out-dir", str(out)])
        assert code == 2, dims
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "argv, map_name",
    [
        (["sca", "--sumabs", "0.9"], "map.svg"),
        (["cluster", "--k", "2"], "cluster_map.svg"),
        (["cluster", "--k", "2", "--sumabs", "0.9"], "cluster_map.svg"),
    ],
    ids=["sca", "cluster", "cluster-sparse"],
)
def test_default_dims_fit_the_only_dimension_of_a_2x2_table(tmp_path, capsys, argv, map_name):
    # without --dims, sca and cluster fit two dimensions, or one on a
    # table that has only one
    path = tmp_path / "two.csv"
    path.write_text(",a,b\nx,5,1\ny,2,7\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main([argv[0], str(path), *argv[1:], "--out-dir", str(out)]) == 0
    assert "error:" not in capsys.readouterr().err
    drawn = (out / map_name).read_text(encoding="utf-8")
    assert "dim 1 (" in drawn and "dim 2" not in drawn
    if argv[0] == "sca":
        header = read_rows(out / "rows.csv")[0]
        assert "coord_1" in header and not [name for name in header if name.endswith("_2")]


@pytest.mark.parametrize(
    "argv",
    [["sca", "--dims", "1", "--sumabs", "0.8"], ["paths"]],
    ids=lambda argv: argv[0],
)
def test_tied_weights_keep_the_ascent(tmp_path, capsys, argv):
    # columns b and c, and rows y and z, are interchangeable, so the
    # projections meet entries tied at the maximum; each half-step must
    # still raise u'Zv, or the fit stops with "rank-1 ascent broken"
    path = tmp_path / "tied.csv"
    path.write_text("id,a,b,c\nx,50,1,1\ny,1,1,1\nz,1,1,1\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main([argv[0], str(path), *argv[1:], "--out-dir", str(out)]) == 0
    assert "ascent" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["tune", "paths"])
def test_after_past_the_last_dimension_is_validation_error(tmp_path, capsys, command):
    # music is 10x9, so it has at most 8 dimensions: 7 fixed ones
    # leave the 8th to tune, 8 leave none; at 1.0 seven fixed ones would
    # leave only roundoff (see the test below), at 0.5 they do not
    path = tmp_path / "music.csv"
    write_contingency_csv(colors_of_music(), path)
    for n_after, budget, expected in ((8, "1.0", 2), (7, "0.5", 0)):
        out = tmp_path / f"out{n_after}"
        extra = ["--step", "0.2"] if command == "tune" else []
        code = main([
            command, str(path), *["--after", budget] * n_after, *extra,
            "--out-dir", str(out),
        ])
        assert code == expected
        if expected == 2:
            assert "at most 8" in capsys.readouterr().err
            assert not out.exists()


@pytest.mark.parametrize("command", ["tune", "paths"])
def test_after_leaving_roundoff_is_validation_error(tmp_path, capsys, command):
    # music has residual rank 6: five unpenalized dimensions leave 0.0046
    # of the squared norm, six or seven leave about 1e-32, seven at 0.5
    # leave 2.6e-4
    path = tmp_path / "music.csv"
    write_contingency_csv(colors_of_music(), path)
    extra = ["--step", "0.2"] if command == "tune" else []
    for n_after, budget, expected in ((5, "1.0", 0), (6, "1.0", 2), (7, "1.0", 2),
                                      (7, "0.5", 0)):
        out = tmp_path / f"out{n_after}-{budget}"
        code = main([
            command, str(path), *["--after", budget] * n_after, *extra,
            "--out-dir", str(out),
        ])
        assert code == expected, (n_after, budget)
        if expected == 2:
            assert "roundoff" in capsys.readouterr().err
            assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["sca"], ["sca", "--variant", "column"], ["cluster", "--k", "3"]],
    ids=["sca", "sca-column", "cluster"],
)
def test_dims_past_roundoff_is_validation_error(tmp_path, capsys, argv):
    # six unpenalized dimensions of music leave about 1e-32 of the squared
    # norm, so a seventh or eighth would be fitted to roundoff
    path = tmp_path / "music.csv"
    write_contingency_csv(colors_of_music(), path)
    for dims, expected in (("6", 0), ("7", 2), ("8", 2)):
        out = tmp_path / f"out{dims}"
        code = main([
            argv[0], str(path), *argv[1:], "--sumabs", "1.0", "--dims", dims,
            "--out-dir", str(out),
        ])
        assert code == expected, dims
        if expected == 2:
            assert "roundoff" in capsys.readouterr().err
            assert not out.exists()


@pytest.mark.parametrize("grid", [[], ["--grid-2d"]], ids=["1d", "2d"])
@pytest.mark.parametrize("rows", BIC_WITHOUT_RESIDUAL, ids=["exact", "wide", "tall"])
def test_bic_without_residual_variance_is_validation_error(tmp_path, capsys, grid, rows):
    path = tmp_path / "rank1.csv"
    header = "id," + ",".join(f"c{j}" for j in range(len(rows[0])))
    lines = [header] + [f"r{i}," + ",".join(map(str, row)) for i, row in enumerate(rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["tune", str(path), "--criterion", "bic", *grid, "--out-dir", str(out)]) == 2
    assert "no residual variance" in capsys.readouterr().err
    assert not out.exists()


class TestPathsCommand:
    def test_writes_weight_paths(self, small_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["paths", str(small_csv), "--out-dir", str(out)]) == 0
        assert (out / "weight_paths.svg").exists()
        assert "budgets" in capsys.readouterr().out


class TestClusterCommand:
    def test_full_pipeline(self, table_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "cluster", str(table_csv), "--k", "3", "--top-words", "2",
            "--out-dir", str(out),
        ])
        assert code == 0
        for name in ("clusters.csv", "typicality.csv", "dendrogram.svg", "cluster_map.svg"):
            assert (out / name).exists()
        rows = read_rows(out / "clusters.csv")
        assert len(rows) == 9
        assert len({r[1] for r in rows[1:]}) == 3
        typ = read_rows(out / "typicality.csv")
        assert max(int(r[1]) for r in typ[1:]) <= 2
        assert "cluster 0" in capsys.readouterr().out

    def test_sparse_coordinates_clustered(self, table_csv, tmp_path):
        code = main([
            "cluster", str(table_csv), "--k", "2", "--sumabs", "0.6",
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 0

    def test_bad_k(self, table_csv):
        assert main(["cluster", str(table_csv), "--k", "0"]) == 2
        assert main(["cluster", str(table_csv), "--k", "99"]) == 2


class TestDtmCommand:
    def test_corpus_to_contingency_csv(self, tmp_path, capsys):
        tokens = tmp_path / "tokens.csv"
        tokens.write_text(
            "doc_id,token,count\n"
            "d1,apple,4\nd1,the,9\nd2,apple,2\nd2,pear,3\nd3,pear,5\nd3,plum,1\n",
            encoding="utf-8",
        )
        stop = tmp_path / "stop.txt"
        stop.write_text("the\n", encoding="utf-8")
        out = tmp_path / "dtm.csv"
        code = main([
            "dtm", str(tokens), "--stoplist", str(stop), "--min-count", "1",
            "--out", str(out),
        ])
        assert code == 0
        rows = read_rows(out)
        assert rows[0][0] == "id"
        assert "the" not in rows[0]
        assert "plum" not in rows[0]
        assert "documents" in capsys.readouterr().out

    def test_max_vocab_caps_the_columns(self, tmp_path):
        tokens = tmp_path / "tokens.csv"
        tokens.write_text(
            "doc_id,token,count\nd1,apple,4\nd1,the,9\nd2,pear,3\nd3,pear,5\nd3,plum,2\n",
            encoding="utf-8",
        )
        out = tmp_path / "dtm.csv"
        assert main(["dtm", str(tokens), "--max-vocab", "2", "--out", str(out)]) == 0
        assert read_rows(out)[0] == ["id", "the", "pear"]

    def test_empty_result_is_validation_error(self, tmp_path):
        tokens = tmp_path / "tokens.csv"
        tokens.write_text("doc_id,token,count\nd1,rare,1\n", encoding="utf-8")
        assert main(["dtm", str(tokens), "--min-count", "5"]) == 2


class TestUsageErrors:
    def test_unknown_flag(self, table_csv, capsys):
        assert main(["ca", str(table_csv), "--bogus"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_arguments(self):
        assert main([]) == 2


def run_with_closed_stdout(argv, unbuffered):
    """Exit code and stderr of the command line run in a fresh interpreter
    whose stdout reader is gone before the command has imported."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(sparseca.__file__).parents[1]), *filter(None, [env.get("PYTHONPATH")])]
    )
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "sparseca.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    _out, err = proc.communicate(timeout=120)
    return proc.returncode, err.decode()


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_fails_once_with_exit_1(music_csv, tmp_path, unbuffered):
    out = tmp_path / "out"
    code, err = run_with_closed_stdout(["ca", str(music_csv), "--out-dir", str(out)], unbuffered)
    assert code == 1, err
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1, err
    assert "Exception ignored" not in err
    assert sorted(path.name for path in out.iterdir()) == [
        "cols.csv", "eigenvalues.csv", "map.svg", "rows.csv", "scree.svg",
    ]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_after_help_keeps_the_exit_codes(unbuffered):
    # argparse ignores a failed write of its help, which unbuffered leaves
    # nothing to report (exit 0); buffered, main's flush finds it (exit 1)
    code, err = run_with_closed_stdout(["tune", "--help"], unbuffered)
    assert code == (0 if unbuffered else 1), err
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == code, err
    assert "Exception ignored" not in err
