"""Command-line surface: ca, sca, tune, paths, cluster, dtm.

Exit codes: 0 on success, 2 when inputs or flags fail validation, 1 on
runtime failures such as unreadable or unwritable paths or a closed
standard output.
"""

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .ca import _dims_limit, _residual_matrices, fit_ca, total_inertia
from .cluster import (
    WARD_VARIANTS,
    aggregate_by_cluster,
    cut_tree,
    typicality_zscores,
    ward_cluster,
)
from .errors import DegenerateInputError, InputError
from .io import (
    build_dtm,
    read_contingency_csv,
    write_clusters_csv,
    write_contingency_csv,
    write_tables_csv,
    write_tuning_csv,
    write_typicality_csv,
)
from .sparse import COL_SCALES, SparsityConstraint, fit_sparse_ca
from .svg import PlotSpec, render_svg
from .tuning import (
    CRITERIA,
    IS_ORIENTATIONS,
    default_absolute_grid,
    default_coupled_grid,
    grid_search_1d,
    grid_search_2d,
    weight_paths,
)


def _add_table_arg(parser):
    parser.add_argument("table", help="contingency CSV (label header row and label column)")
    parser.add_argument("--drop-empty", action="store_true",
                        help="drop all-zero rows and columns instead of failing")
    parser.add_argument("--out-dir", default=".", help="where outputs are written")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparseca",
        description="Sparse correspondence analysis of contingency tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ca", help="standard correspondence analysis")
    _add_table_arg(p)
    p.add_argument("--dims", type=int, default=None, help="dimensions to keep (default: all)")
    p.set_defaults(func=_cmd_ca)

    p = sub.add_parser("sca", help="sparse correspondence analysis")
    _add_table_arg(p)
    p.add_argument("--variant", choices=("doubly", "column"), default="doubly")
    p.add_argument("--dims", type=int, default=None,
                   help="fitted dimensions (default: 2, or 1 if the table has one)")
    p.add_argument("--sumabs", type=float, action="append",
                   help="coupled scale-free budget in (0, 1]; repeat per dimension")
    p.add_argument("--sumabsu", type=float, action="append",
                   help="row-side L1 budget; repeat per dimension")
    p.add_argument("--sumabsv", type=float, action="append",
                   help="column-side L1 budget; repeat per dimension")
    p.add_argument("--nnz", type=int, action="append",
                   help="target nonzero column weights; repeat per dimension")
    p.add_argument("--col-scale", choices=COL_SCALES, default="rescaled")
    p.add_argument("--nonzero-only", action="store_true",
                   help="drop zero-weight items from the map")
    p.set_defaults(func=_cmd_sca)

    p = sub.add_parser("tune", help="grid search for sparsity budgets")
    _add_table_arg(p)
    p.add_argument("--criterion", choices=CRITERIA, default="is")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--grid-1d", action="store_true", help="coupled budget grid (default)")
    mode.add_argument("--grid-2d", action="store_true", help="independent row/column budget grids")
    p.add_argument("--orientation", choices=IS_ORIENTATIONS, default="tradeoff",
                   help="direction of the sparsity index")
    p.add_argument("--step", type=float, default=0.01,
                   help="spacing of the coupled 1-D grid")
    p.add_argument("--points", type=int, default=10,
                   help="points per axis of the 2-D grid")
    p.add_argument("--seed", type=int, default=None, help="cross-validation seed")
    p.add_argument("--repeats", type=int, default=1, help="cross-validation repeats")
    p.add_argument("--after", type=float, action="append",
                   help="coupled budget of an already-fixed leading dimension; repeatable")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("paths", help="weight paths over the coupled budget grid")
    _add_table_arg(p)
    p.add_argument("--after", type=float, action="append",
                   help="coupled budget of an already-fixed leading dimension; repeatable")
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("cluster", help="Ward clustering of row coordinates + typicality")
    _add_table_arg(p)
    p.add_argument("--k", type=int, required=True, help="number of clusters")
    p.add_argument("--top-words", type=int, default=3, help="typical categories per cluster")
    p.add_argument("--sumabs", type=float, action="append",
                   help="cluster sparse coordinates at this coupled budget instead of plain CA")
    p.add_argument("--dims", type=int, default=None,
                   help="fitted dimensions, first two clustered"
                        " (default: 2, or 1 if the table has one)")
    p.add_argument("--ward-variant", choices=WARD_VARIANTS, default="D2")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("dtm", help="token counts to a contingency CSV")
    p.add_argument("tokens", help="CSV of doc_id,token,count with a header")
    p.add_argument("--stoplist", default=None, help="one token per line")
    p.add_argument("--min-count", type=int, default=1,
                   help="keep tokens with corpus count strictly above this")
    p.add_argument("--max-vocab", type=int, default=None, help="vocabulary cap")
    p.add_argument("--out", default="dtm.csv", help="output contingency CSV path")
    p.set_defaults(func=_cmd_dtm)
    return parser


def _read_table(args):
    """Read the table argument, refusing one with nothing to decompose."""
    table = read_contingency_csv(args.table, drop_empty=args.drop_empty)
    inertia = total_inertia(table)
    if inertia <= 1e-14:
        raise DegenerateInputError(
            f"total inertia {inertia:.3g}: rows and columns are independent, "
            "so there is no axis to fit"
        )
    return table


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _map_dims(model):
    """The dimensions a map shows: the first two, or the only one."""
    return (0, 1) if model.n_dims >= 2 else (0,)


def _fitted_dims(args, shape):
    """``--dims``, or two dimensions by default, or one on a table that has one."""
    return min(2, _dims_limit(shape, None)) if args.dims is None else args.dims


def _per_dim(values, n_dims, flag):
    if len(values) == 1:
        return list(values) * n_dims
    if len(values) != n_dims:
        raise InputError(f"{flag} given {len(values)} times for {n_dims} dimensions")
    return list(values)


def _sca_constraints(args, shape):
    variant = "doubly_sparse" if args.variant == "doubly" else "column_sparse"
    n_rows, n_cols = shape
    n_dims = _fitted_dims(args, shape)
    chosen = [
        name for name, given in (
            ("--sumabs", args.sumabs),
            ("--sumabsu/--sumabsv", args.sumabsu or args.sumabsv),
            ("--nnz", args.nnz),
        ) if given
    ]
    if len(chosen) != 1:
        raise InputError(
            "pick exactly one of --sumabs, --sumabsu/--sumabsv, or --nnz"
        )
    if args.sumabs:
        values = _per_dim(args.sumabs, n_dims, "--sumabs")
        if variant == "column_sparse":
            if not all(0.0 < s <= 1.0 for s in args.sumabs):
                raise InputError(f"--sumabs values must lie in (0, 1], got {args.sumabs}")
            # coupled scale applied to the penalized column side only; a
            # scale below 1/sqrt(n_cols) keeps the 1-sparse budget of 1
            constraints = [
                SparsityConstraint.unpenalized_rows(max(1.0, s * np.sqrt(n_cols)))
                for s in values
            ]
        else:
            constraints = [SparsityConstraint.coupled(s) for s in values]
    elif args.nnz:
        values = _per_dim(args.nnz, n_dims, "--nnz")
        constraints = [
            SparsityConstraint.nonzero_target(n, axis="cols") for n in values
        ]
    else:
        if variant == "column_sparse":
            if args.sumabsu:
                raise InputError("--sumabsu does not apply to the column variant")
            values = _per_dim(args.sumabsv, n_dims, "--sumabsv")
            constraints = [SparsityConstraint.unpenalized_rows(v) for v in values]
        else:
            if not (args.sumabsu and args.sumabsv):
                raise InputError("--sumabsu and --sumabsv must be given together")
            us = _per_dim(args.sumabsu, n_dims, "--sumabsu")
            vs = _per_dim(args.sumabsv, n_dims, "--sumabsv")
            constraints = [
                SparsityConstraint.absolute(u, v) for u, v in zip(us, vs)
            ]
    return variant, constraints


def _prior_factors(table, after):
    after = after or []
    max_dims = _dims_limit(table.shape, None)  # the tuned dimension comes after the fixed ones
    if len(after) + 1 > max_dims:
        raise InputError(
            f"--after fixes {len(after)} dimensions, so the tuned one would be "
            f"dimension {len(after) + 1}; this table has at most {max_dims}"
        )
    constraints = [SparsityConstraint.coupled(budget) for budget in after]
    return fit_sparse_ca(table, constraints).factors if after else []


def _cmd_ca(args):
    table = _read_table(args)
    model = fit_ca(table, n_dims=args.dims)
    out = _out_dir(args)
    paths = write_tables_csv(model, out)
    render_svg(model, PlotSpec("symmetric_map", dims=_map_dims(model), out_path=out / "map.svg"))
    render_svg(model, PlotSpec("scree", out_path=out / "scree.svg"))
    print(f"table: {table.shape[0]} x {table.shape[1]}, total inertia {model.total_inertia:.6g}")
    for k, lam in enumerate(model.eigenvalues[: model.n_dims], start=1):
        print(f"dim {k}: eigenvalue {lam:.6g} ({100 * lam / model.total_inertia:.2f}%)")
    print(f"wrote {', '.join(str(p) for p in paths)}, map.svg, scree.svg in {out}")
    return 0


def _cmd_sca(args):
    table = _read_table(args)
    variant, constraints = _sca_constraints(args, table.shape)
    model = fit_sparse_ca(table, constraints, variant=variant, col_scale=args.col_scale)
    out = _out_dir(args)
    write_tables_csv(model, out)
    label_filter = "nonzero_only" if args.nonzero_only else "all"
    render_svg(model, PlotSpec("symmetric_map", dims=_map_dims(model),
                               label_filter=label_filter, out_path=out / "map.svg"))
    render_svg(model, PlotSpec("scree", out_path=out / "scree.svg"))
    inertia = model.total_inertia
    for k, factor in enumerate(model.factors, start=1):
        budget = factor.constraint.sumabsv
        budget_note = f", sumabsv {budget:.6g}" if budget is not None else ""
        print(
            f"dim {k}: pseudo-eigenvalue {factor.eigenvalue:.6g}"
            f" ({100 * factor.eigenvalue / inertia:.2f}%),"
            f" nonzeros {factor.nnz_u} rows / {factor.nnz_v} cols{budget_note}"
        )
    print(f"wrote tables and maps in {out}")
    return 0


def _cmd_tune(args):
    table = _read_table(args)
    z = _residual_matrices(table)[3]
    prior = _prior_factors(table, args.after)
    common = dict(criterion=args.criterion, prior_factors=prior,
                  orientation=args.orientation, seed=args.seed,
                  cv_repeats=args.repeats)
    if args.grid_2d:
        grid_u = default_absolute_grid(z.shape[0], points=args.points)
        grid_v = default_absolute_grid(z.shape[1], points=args.points)
        result = grid_search_2d(z, grid_u=grid_u, grid_v=grid_v, **common)
        plot_kind = "contour"
        optimum = f"({result.optimum[0]:.6g}, {result.optimum[1]:.6g})"
    else:
        grid = default_coupled_grid(z.shape, step=args.step)
        result = grid_search_1d(z, grid=grid, **common)
        plot_kind = "criterion_curve"
        optimum = f"{result.optimum:.6g}"
    out = _out_dir(args)
    plot_name = f"{plot_kind}.svg"
    render_svg(result, PlotSpec(plot_kind, out_path=out / plot_name))
    write_tuning_csv(result, out / "tuning_grid.csv")
    nnz_u, nnz_v = result.optimum_nnz
    print(
        f"criterion {args.criterion}: optimum {optimum}"
        f" with {nnz_u} row / {nnz_v} column nonzeros"
    )
    print(f"wrote tuning_grid.csv, {plot_name} in {out}")
    return 0


def _cmd_paths(args):
    table = _read_table(args)
    z = _residual_matrices(table)[3]
    prior = _prior_factors(table, args.after)
    wp = weight_paths(z, prior_factors=prior)
    out = _out_dir(args)
    render_svg(wp, PlotSpec("weight_path", out_path=out / "weight_paths.svg"))
    span = f"{wp.values[0]:.6g} .. {wp.values[-1]:.6g}"
    print(f"weight paths over {len(wp.values)} budgets ({span}); wrote weight_paths.svg in {out}")
    return 0


def _cmd_cluster(args):
    table = _read_table(args)
    n_dims = _fitted_dims(args, table.shape)
    if args.sumabs:
        constraints = [
            SparsityConstraint.coupled(s)
            for s in _per_dim(args.sumabs, n_dims, "--sumabs")
        ]
        model = fit_sparse_ca(table, constraints)
    else:
        model = fit_ca(table, n_dims=n_dims)
    map_dims = _map_dims(model)
    coords = model.row_coords[:, : len(map_dims)]
    dendrogram = ward_cluster(coords, labels=table.row_labels, variant=args.ward_variant)
    assignment = cut_tree(dendrogram, args.k)
    counts_by_cluster = aggregate_by_cluster(table.counts, assignment)
    typicality = typicality_zscores(
        counts_by_cluster,
        top_m=args.top_words,
        cluster_labels=[f"cluster {i}" for i in range(args.k)],
        category_labels=table.col_labels,
    )
    out = _out_dir(args)
    write_clusters_csv(table.row_labels, assignment, out / "clusters.csv")
    write_typicality_csv(typicality, out / "typicality.csv")
    render_svg(dendrogram, PlotSpec("dendrogram", out_path=out / "dendrogram.svg"))
    render_svg((model, assignment, typicality),
               PlotSpec("cluster_map", dims=map_dims, out_path=out / "cluster_map.svg"))
    for i, ranked in enumerate(typicality.ranked):
        size = int(np.sum(assignment == i))
        words = ", ".join(f"{label} ({z:+.2f})" for label, z in ranked)
        print(f"cluster {i}: {size} rows; typical: {words}")
    print(f"wrote clusters.csv, typicality.csv, dendrogram.svg, cluster_map.svg in {out}")
    return 0


def _cmd_dtm(args):
    table = build_dtm(
        args.tokens,
        stoplist_path=args.stoplist,
        min_count=args.min_count,
        max_vocab=args.max_vocab,
    )
    write_contingency_csv(table, args.out)
    print(
        f"wrote {table.shape[0]} documents x {table.shape[1]} tokens"
        f" (n = {table.total:.0f}) to {args.out}"
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            # --help, or a usage error argparse has reported
            code = int(exc.code or 0)
        else:
            # one rule for every subcommand's --dims, checked before any table is read
            if getattr(args, "dims", None) is not None and args.dims < 1:
                raise InputError(f"--dims must be at least 1, got {args.dims}")
            code = args.func(args)
        # a closed stdout fails here, buffered or not, not at interpreter exit
        sys.stdout.flush()
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError as exc:
        # as Python's signal docs advise: the flush at exit then writes nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
