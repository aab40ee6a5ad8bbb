"""Timing wrappers around the program's layer functions, kept in memory.

``Tracer.install`` replaces each function listed in ``LAYERS`` with a
wrapper that records a span (id, name, start, end, parent, thread),
in the defining module and in every module that bound the name with a
from-import. A span opened in a pool worker with nothing open in its
own thread takes the innermost span of the installing thread as its
parent, so grid cells hang under the grid search that spawned them.
``uninstall`` puts the original functions back.
"""

import functools
import itertools
import sys
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# module -> public functions timed as that layer's spans
LAYERS = {
    "cli": ["main"],
    "io": [
        "read_contingency_csv", "build_dtm", "write_contingency_csv", "write_tables_csv",
        "write_tuning_csv", "write_clusters_csv", "write_typicality_csv",
    ],
    "ca": ["fit_ca"],
    "linalg": ["full_svd", "l1_constrained_unit_vector"],
    "sparse": [
        "pmd_rank1", "ppmd_deflate", "coordinates_from_weights", "explained_variance",
        "nnz_target_search", "fit_sparse_ca",
    ],
    "tuning": [
        "grid_search_1d", "grid_search_2d", "weight_paths", "is_criterion", "bic_criterion",
        "cv_error",
    ],
    "cluster": ["ward_cluster", "cut_tree", "aggregate_by_cluster", "typicality_zscores"],
    "svg": ["render_svg"],
}

GRID_SPANS = ("tuning.grid_search_1d", "tuning.grid_search_2d", "tuning.weight_paths")


def _written_bytes(paths):
    return sum(Path(p).stat().st_size for p in paths if p is not None and Path(p).is_file())


def _observe(tracer, name, args, kwargs, result):
    """Counts read from a call's arguments and result."""
    counts = tracer.counts
    if name == "sparse.pmd_rank1":
        counts["sparse.pmd_rank1.iters"] += result.n_iter
        counts["sparse.pmd_rank1.unconverged"] += not result.converged
    elif name in GRID_SPANS:
        values = result.values if name == "tuning.weight_paths" else result.grid.values
        counts["tuning.cells"] += values.size
    elif name == "io.write_tables_csv":
        counts["io.bytes_written"] += _written_bytes(result)
    elif name.startswith("io.write_"):
        counts["io.bytes_written"] += _written_bytes([kwargs.get("path", args[-1])])
    elif name == "svg.render_svg":
        counts["svg.bytes_written"] += len(result.encode("utf-8"))


class Tracer:
    """Spans and counts of one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._home = None
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._home[-1] if tracer._home else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent, threading.get_ident()))
            _observe(tracer, name, args, kwargs, result)
            return result

        return wrapper

    def install(self, package="sparseca"):
        """Wrap every listed function wherever the package binds it."""
        self._home = self._stack()
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for layer, names in LAYERS.items():
            home = sys.modules[f"{package}.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self.wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def take(self):
        """Spans and counts recorded since the last take, then reset."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced round.

    Times are summed span durations, so work done by two pool threads
    at once counts twice: they are busy time, not wall time.
    """
    total = defaultdict(float)
    calls = Counter()
    for _id, name, start, end, _parent, _thread in spans:
        total[name] += end - start
        calls[name] += 1

    def seconds(*names):
        return sum(total[n] for n in names)

    return {
        "cli.main_s": seconds("cli.main"),
        "io.read_contingency_csv_s": seconds("io.read_contingency_csv"),
        "io.build_dtm_s": seconds("io.build_dtm"),
        "io.write_csv_s": seconds(*[f"io.{n}" for n in LAYERS["io"] if n.startswith("write_")]),
        "io.bytes_written": counts["io.bytes_written"],
        "ca.fit_ca_s": seconds("ca.fit_ca"),
        "linalg.full_svd.calls": calls["linalg.full_svd"],
        "linalg.full_svd_s": seconds("linalg.full_svd"),
        "linalg.l1_projection.calls": calls["linalg.l1_constrained_unit_vector"],
        "linalg.l1_projection_s": seconds("linalg.l1_constrained_unit_vector"),
        "sparse.pmd_rank1.calls": calls["sparse.pmd_rank1"],
        "sparse.pmd_rank1_s": seconds("sparse.pmd_rank1"),
        "sparse.pmd_rank1.iters": counts["sparse.pmd_rank1.iters"],
        "sparse.pmd_rank1.unconverged": counts["sparse.pmd_rank1.unconverged"],
        "sparse.fit_sparse_ca_s": seconds("sparse.fit_sparse_ca"),
        "sparse.nnz_target_search_s": seconds("sparse.nnz_target_search"),
        "tuning.grid_search_s": seconds("tuning.grid_search_1d", "tuning.grid_search_2d"),
        "tuning.cells": counts["tuning.cells"],
        "tuning.cv_error.calls": calls["tuning.cv_error"],
        "tuning.criterion_s": seconds("tuning.is_criterion", "tuning.bic_criterion", "tuning.cv_error"),
        "tuning.weight_paths_s": seconds("tuning.weight_paths"),
        "tuning.pool_efficiency": pool_efficiency(spans),
        "cluster.ward_s": seconds("cluster.ward_cluster"),
        "cluster.typicality_s": seconds("cluster.typicality_zscores"),
        "svg.render_s": seconds("svg.render_svg"),
        "svg.bytes_written": counts["svg.bytes_written"],
    }


def pool_efficiency(spans):
    """Busy time of grid cells over grid wall time times threads used.

    A cell's work is the spans whose parent is a grid span; the threads
    used are the distinct threads those spans ran on.
    """
    grids = {s[0]: s for s in spans if s[1] in GRID_SPANS}
    busy = defaultdict(float)
    threads = defaultdict(set)
    for span_id, _name, start, end, parent, thread in spans:
        if parent in grids:
            busy[parent] += end - start
            threads[parent].add(thread)
    capacity = sum((g[3] - g[2]) * len(threads[i]) for i, g in grids.items() if threads[i])
    return sum(busy.values()) / capacity if capacity else 0.0


def self_times(spans):
    """Per layer: span time not covered by the span's children.

    A child that ran on another thread covers its interval of the parent
    once, however many threads overlap there.
    """
    children = defaultdict(list)
    for span in spans:
        children[span[4]].append((span[2], span[3]))
    out = defaultdict(float)
    for span_id, name, start, end, _parent, _thread in spans:
        covered, reach = 0.0, start
        for a, b in sorted(children.get(span_id, [])):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out[name.split(".")[0]] += (end - start) - covered
    return dict(out)
