"""The public surface, spelled out: the package's exported names and
each subcommand's arguments. A change to either is made on purpose, by
editing the lists below."""

import argparse

import sparseca
from sparseca.cli import build_parser

EXPORTS = [
    "CADecomposition",
    "ContingencyTable",
    "ContributionTable",
    "DegenerateInputError",
    "Dendrogram",
    "InputError",
    "ParseError",
    "PlotSpec",
    "SingularMarginError",
    "SparseCAError",
    "SparseCAModel",
    "SparseFactor",
    "SparsityConstraint",
    "TuningResult",
    "TypicalityTable",
    "WeightPath",
    "aggregate_by_cluster",
    "bic_criterion",
    "build_dtm",
    "colors_of_music",
    "column_sparse_coordinates",
    "contributions",
    "coordinates_from_weights",
    "correspondence_matrix",
    "cut_tree",
    "cv_error",
    "default_absolute_grid",
    "default_coupled_grid",
    "explained_variance",
    "fit_ca",
    "fit_sparse_ca",
    "full_svd",
    "grid_search_1d",
    "grid_search_2d",
    "is_criterion",
    "l1_constrained_unit_vector",
    "nnz_target_search",
    "pmd_rank1",
    "ppmd_deflate",
    "presidents_scale_corpus",
    "read_contingency_csv",
    "render_svg",
    "standardized_residuals",
    "total_inertia",
    "typicality_zscores",
    "ward_cluster",
    "weight_paths",
    "write_contingency_csv",
    "write_tables_csv",
]

TABLE_ARGS = ["table", "--drop-empty", "--out-dir"]

SUBCOMMANDS = {
    "ca": [*TABLE_ARGS, "--dims"],
    "sca": [*TABLE_ARGS, "--variant", "--dims", "--sumabs", "--sumabsu",
            "--sumabsv", "--nnz", "--col-scale", "--nonzero-only"],
    "tune": [*TABLE_ARGS, "--criterion", "--grid-1d", "--grid-2d", "--orientation",
             "--step", "--points", "--seed", "--repeats", "--after"],
    "paths": [*TABLE_ARGS, "--after"],
    "cluster": [*TABLE_ARGS, "--k", "--top-words", "--sumabs", "--dims",
                "--ward-variant"],
    "dtm": ["tokens", "--stoplist", "--min-count", "--max-vocab", "--out"],
}


def test_exports():
    assert EXPORTS == sorted(EXPORTS)
    assert sparseca.__all__ == EXPORTS
    for name in EXPORTS:
        assert hasattr(sparseca, name), name


def test_subcommand_arguments():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(SUBCOMMANDS)
    for name, expected in SUBCOMMANDS.items():
        actions = sub.choices[name]._actions
        assert actions[0].option_strings == ["-h", "--help"]
        got = [s for a in actions[1:] for s in (a.option_strings or [a.dest])]
        assert got == expected, name
