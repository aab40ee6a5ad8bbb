"""Hand-rolled SVG rendering: maps, paths, curves, contours, trees.

Output is deterministic text: same artifact and spec, same bytes. Each
plot area carries data-* attributes describing the affine viewport
mapping so coordinates can be recovered from the file.

``_el`` alone writes markup: attribute syntax, tag closing, escaping.
Both maps share ``_point_map``, paths and curves share ``_series``,
curves and contours share ``_optimum``.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ca import CADecomposition
from .errors import InputError
from .sparse import SparseCAModel
from .tuning import TuningResult, WeightPath

LABEL_FILTERS = ("all", "nonzero_only")

# row/col markers, then a cycling cluster palette
ROW_COLOR = "#1f6fb4"
COL_COLOR = "#c0392b"
PALETTE = (
    "#1f6fb4", "#c0392b", "#1e8449", "#8e44ad", "#d68910",
    "#148f9f", "#b03a6b", "#5d6d7e", "#7d6608", "#2e4053",
)

WIDTH, HEIGHT, MARGIN = 640, 480, 56


@dataclass
class PlotSpec:
    """What to draw (a ``PLOT_KINDS`` kind, the map dimensions, "all" or
    "nonzero_only" labels) and where to write it, if anywhere; untitled."""

    kind: str
    dims: tuple = (0, 1)
    label_filter: str = "all"
    out_path: object = None


def _num(x: float) -> str:
    return f"{float(x):.10g}"


def _px(x: float) -> str:
    return f"{float(x):.3f}"


def _esc(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _attrs(attrs) -> str:
    """Attributes in keyword order, escaped, those set to None left out;
    a name's ``_`` is written ``-``, and a trailing one (``class_``)
    dropped."""
    return "".join([
        f' {name.rstrip("_").replace("_", "-")}="{_esc(value)}"'
        for name, value in attrs.items() if value is not None
    ])


def _el(tag, content=None, **attrs) -> str:
    """One element: self-closing without ``content``, children one per
    line when ``content`` is a list of elements, else escaped text."""
    if content is None:
        return f"<{tag}{_attrs(attrs)}/>"
    if isinstance(content, list):
        return f"<{tag}{_attrs(attrs)}>\n" + "\n".join(content) + f"\n</{tag}>"
    return f"<{tag}{_attrs(attrs)}>{_esc(content)}</{tag}>"


class _Frame:
    """Affine map from a data rectangle to a pixel rectangle (y flipped)."""

    def __init__(self, xs, ys, x0=MARGIN, y0=MARGIN,
                 width=WIDTH - 2 * MARGIN, height=HEIGHT - 2 * MARGIN, pad=0.05):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.size == 0 or ys.size == 0:
            raise InputError("nothing to plot: no coordinates")
        self.xmin, self.xmax = _padded(xs, pad)
        self.ymin, self.ymax = _padded(ys, pad)
        self.x0, self.y0, self.width, self.height = x0, y0, width, height

    def x(self, v) -> float:
        return self.x0 + (v - self.xmin) / (self.xmax - self.xmin) * self.width

    def y(self, v) -> float:
        return self.y0 + self.height - (v - self.ymin) / (self.ymax - self.ymin) * self.height

    def data(self) -> dict:
        """The mapping as ``_el`` attributes."""
        return dict(
            data_xmin=_num(self.xmin), data_xmax=_num(self.xmax),
            data_ymin=_num(self.ymin), data_ymax=_num(self.ymax),
            data_plot_x=_num(self.x0), data_plot_y=_num(self.y0),
            data_plot_width=_num(self.width), data_plot_height=_num(self.height),
        )


def _padded(values, pad):
    lo = float(np.min(values))
    hi = float(np.max(values))
    if hi - lo < 1e-12:
        lo -= 0.5
        hi += 0.5
    span = hi - lo
    return lo - pad * span, hi + pad * span


def _place_labels(entries):
    """Greedy collision avoidance: push a clashing label down in steps.

    Each label tries 24 baselines 12 px apart and takes the first whose
    box overlaps no placed box, or the 25th when all 24 clash. All 24
    are tested against the placed boxes in one array comparison.
    """
    boxes = np.empty((len(entries), 4))
    steps = np.full(25, 12.0)
    out = []
    for n, (px, py, text) in enumerate(entries):
        w = 6.5 * len(text) + 4
        h = 11.0
        lx = px + 5.0
        # the baselines by repeated addition, as when pushed step by step
        steps[0] = py - 4.0
        lys = np.cumsum(steps)
        placed = boxes[:n]
        near = placed[(lx < placed[:, 2]) & (placed[:, 0] < lx + w)]
        clash = (
            (lys[:24, None] - h < near[:, 3]) & (near[:, 1] < lys[:24, None])
        ).any(axis=1)
        ly = float(lys[24 if clash.all() else np.argmin(clash)])
        boxes[n] = (lx, ly - h, lx + w, ly)
        out.append((lx, ly, text))
    return out


def _svg_document(body, frame):
    background = _el("rect", x=0, y=0, width=WIDTH, height=HEIGHT, fill="#ffffff")
    return _el(
        "svg", [background, body], xmlns="http://www.w3.org/2000/svg", width=WIDTH,
        height=HEIGHT, viewBox=f"0 0 {WIDTH} {HEIGHT}", **frame.data(),
    ) + "\n"


def _text(px, py, content, size=10, anchor="start", color="#222222", **attrs):
    return _el("text", content, x=_px(px), y=_px(py), font_size=size,
               font_family="sans-serif", text_anchor=anchor, fill=color, **attrs)


def _x_caption(caption):
    return _text(WIDTH / 2, HEIGHT - 16, caption, anchor="middle")


def _y_caption(caption):
    return _text(16, MARGIN - 10, caption)


def _line(x1, y1, x2, y2, color, class_=None, **data):
    return _el("line", class_=class_, x1=_px(x1), y1=_px(y1), x2=_px(x2), y2=_px(y2),
               stroke=color, stroke_width=1, **data)


def _axis_cross(frame):
    """Origin axes, drawn only where the origin is inside the frame."""
    parts = []
    if frame.xmin < 0 < frame.xmax:
        x = frame.x(0.0)
        parts.append(_line(x, frame.y0, x, frame.y0 + frame.height, "#bbbbbb"))
    if frame.ymin < 0 < frame.ymax:
        y = frame.y(0.0)
        parts.append(_line(frame.x0, y, frame.x0 + frame.width, y, "#bbbbbb"))
    return parts


def _series(xs, ys, color, class_=None, **data):
    """A dot for one point, else a polyline through ``(xs[i], ys[i])``,
    formatted as ``_px`` does in one ``%``."""
    if len(xs) == 1:
        return _el("circle", class_=class_, cx=_px(xs[0]), cy=_px(ys[0]), r=2, fill=color,
                   **data)
    xy = np.column_stack([xs, ys]).ravel().tolist()
    points = " ".join(["%.3f,%.3f"] * len(xs)) % tuple(xy)
    return _el("polyline", points=points, fill="none", stroke=color, stroke_width=1.2,
               class_=class_, **data)


def _optimum(frame, x, y, **data):
    """The selected cell, ringed."""
    return _el("circle", class_="optimum", cx=_px(frame.x(x)), cy=_px(frame.y(y)), r=5,
               fill="none", stroke=COL_COLOR, stroke_width=2, **data)


def _check_dims(dims, n_dims):
    if len(dims) not in (1, 2) or len(set(dims)) != len(dims):
        raise InputError(f"dims must be one or two distinct indices, got {dims}")
    for d in dims:
        if not 0 <= d < n_dims:
            raise InputError(f"dimension {d} out of range for a {n_dims}-dim fit")


def _shown(model, spec, side):
    """Indices of the items a map shows: every one, or with "nonzero_only"
    a sparse fit's items with a nonzero weight on a plotted dimension."""
    coords = model.row_coords if side == "row" else model.col_coords
    if spec.label_filter == "all" or not isinstance(model, SparseCAModel):
        return np.arange(len(coords))
    weights = model.row_weights if side == "row" else model.col_weights
    return np.flatnonzero(np.any(weights[:, list(spec.dims)] != 0, axis=1))


def _axis_captions(model, dims):
    """Each plotted dimension's eigenvalue and share of the inertia."""
    return [
        caption(f"dim {d + 1} ({model.eigenvalues[d]:.4g},"
                f" {100 * model.eigenvalues[d] / model.total_inertia:.1f}%)")
        for caption, d in zip((_x_caption, _y_caption), dims)
    ]


def _point_map(model, dims, coords, labels, marker, size=10, legend=()):
    """A labelled-point map of ``coords`` on ``dims``: axis cross,
    ``marker(k, px, py, label)`` for each point, the placed labels, then
    ``legend`` and axis captions."""
    xs = coords[:, dims[0]]
    ys = coords[:, dims[1]] if len(dims) == 2 else np.zeros(len(coords))
    frame = _Frame(xs, ys)
    parts = _axis_cross(frame)
    entries = []
    for k, label in enumerate(labels):
        px, py = frame.x(xs[k]), frame.y(ys[k])
        parts.append(marker(k, px, py, label))
        entries.append((px, py, label))
    parts += [_text(lx, ly, text, size=size) for lx, ly, text in _place_labels(entries)]
    parts += [*legend, *_axis_captions(model, dims)]
    return _svg_document("\n".join(parts), frame)


def _render_symmetric_map(model, spec):
    if not isinstance(model, (CADecomposition, SparseCAModel)):
        raise InputError(f"cannot map a {type(model).__name__}")
    _check_dims(spec.dims, model.n_dims)
    rows, cols = _shown(model, spec, "row"), _shown(model, spec, "col")
    coords = np.vstack([model.row_coords[rows], model.col_coords[cols]])
    labels = [model.table.row_labels[i] for i in rows] + [model.table.col_labels[j] for j in cols]

    def marker(k, px, py, label):
        if k < len(rows):
            return _el("circle", class_="row", cx=_px(px), cy=_px(py), r=3, fill=ROW_COLOR,
                       data_label=label)
        return _el("rect", class_="col", x=_px(px - 3), y=_px(py - 3), width=6, height=6,
                   fill=COL_COLOR, data_label=label)

    return _point_map(model, spec.dims, coords, labels, marker)


def _render_scree(model, spec):
    eigenvalues = model.eigenvalues
    n = len(eigenvalues)
    frame = _Frame([0.5, n + 0.5], [0.0, float(np.max(eigenvalues))])
    parts = []
    base = frame.y(0.0)
    for k, lam in enumerate(eigenvalues, start=1):
        x = frame.x(k)
        top = frame.y(float(lam))
        parts.append(_el("rect", class_="bar", x=_px(x - 8), y=_px(top), width=16,
                         height=_px(max(base - top, 0.0)), fill=ROW_COLOR,
                         data_value=_num(lam)))
        parts.append(_text(x, base + 14, k, anchor="middle"))
    parts.append(_x_caption("dimension"))
    return _svg_document("\n".join(parts), frame)


def _render_weight_path(path_result, spec):
    if not isinstance(path_result, WeightPath):
        raise InputError(f"weight_path expects a WeightPath, got {type(path_result).__name__}")
    values = np.asarray(path_result.values, dtype=float)
    panels = (("u", path_result.u_path), ("v", path_result.v_path))
    panel_h = (HEIGHT - 3 * MARGIN) / 2
    parts = []
    for p, (side, matrix) in enumerate(panels):
        matrix = np.asarray(matrix, dtype=float)
        y0 = MARGIN + p * (panel_h + MARGIN)
        frame = _Frame(values, matrix, y0=y0, height=panel_h)
        xs, ys = frame.x(values), frame.y(matrix)
        inner = _axis_cross(frame) + [
            _series(xs, ys[:, j], PALETTE[j % len(PALETTE)], class_=f"{side}-path", data_index=j)
            for j in range(matrix.shape[1])
        ]
        inner.append(_text(16, y0 - 6, f"{side} weights"))
        parts.append(_el("g", inner, id=f"{side}-panel", **frame.data()))
    parts.append(_x_caption("budget"))
    return _svg_document("\n".join(parts), frame)


def _render_criterion_curve(result, spec):
    if not isinstance(result, TuningResult) or result.grid.axis2 is not None:
        raise InputError("criterion_curve expects a 1-D tuning result")
    grid = result.grid
    finite = np.isfinite(grid.values)
    if not finite.any():
        raise InputError("criterion surface holds no finite values")
    frame = _Frame(grid.axis1, grid.values[finite])
    parts = _axis_cross(frame)
    # NaN cells split the curve into runs of finite cells
    for run in np.split(np.arange(len(finite)), np.flatnonzero(~finite)):
        run = run[finite[run]]
        if len(run):
            parts.append(_series(frame.x(grid.axis1[run]), frame.y(grid.values[run]), ROW_COLOR))
    idx = int(np.flatnonzero(grid.axis1 == result.optimum)[0])
    parts.append(_optimum(frame, result.optimum, grid.values[idx],
                          data_value=_num(result.optimum)))
    parts.append(_x_caption(f"budget ({result.criterion})"))
    return _svg_document("\n".join(parts), frame)


def _cell_crossings(level, corners):
    """Linear interpolation of level crossings on a cell's four edges."""
    pts = []
    for (va, pa), (vb, pb) in zip(corners, corners[1:] + corners[:1]):
        if (va - level) * (vb - level) < 0:
            t = (level - va) / (vb - va)
            pts.append((pa[0] + t * (pb[0] - pa[0]), pa[1] + t * (pb[1] - pa[1])))
    return pts


def _render_contour(result, spec):
    if not isinstance(result, TuningResult) or result.grid.axis2 is None:
        raise InputError("contour expects a 2-D tuning result")
    grid = result.grid
    surface = np.asarray(grid.values, dtype=float)
    finite = np.isfinite(surface)
    if not finite.any():
        raise InputError("criterion surface holds no finite values")
    frame = _Frame(grid.axis1, grid.axis2)
    lo, hi = float(surface[finite].min()), float(surface[finite].max())
    if hi - lo < 1e-15:
        levels = []
    else:
        levels = [lo + (hi - lo) * (k + 1) / 9.0 for k in range(8)]
    gx, gy = frame.x(grid.axis1), frame.y(grid.axis2)
    # each cell whose four corners are finite, corners in drawing order
    cells = [
        [(surface[i + di, j + dj], (gx[i + di], gy[j + dj]))
         for di, dj in ((0, 0), (1, 0), (1, 1), (0, 1))]
        for i in range(surface.shape[0] - 1) for j in range(surface.shape[1] - 1)
        if finite[i : i + 2, j : j + 2].all()
    ]
    parts = _axis_cross(frame)
    for level in levels:
        for corners in cells:
            pts = _cell_crossings(level, corners)
            # pair crossings in order; the saddle case pairs (0,1), (2,3)
            for a, b in zip(pts[0::2], pts[1::2]):
                parts.append(_line(*a, *b, ROW_COLOR, class_="level", data_level=_num(level)))
    ou, ov = result.optimum
    parts.append(_optimum(frame, ou, ov, data_value_u=_num(ou), data_value_v=_num(ov)))
    parts.append(_x_caption(f"row budget ({result.criterion})"))
    parts.append(_y_caption("column budget"))
    return _svg_document("\n".join(parts), frame)


def _leaf_order(merges, n_leaves):
    if not merges:
        return list(range(n_leaves))
    # left child first, on an explicit stack: a chain is as deep as it is long
    order, stack = [], [n_leaves + len(merges) - 1]
    while stack:
        node = stack.pop()
        if node < n_leaves:
            order.append(node)
        else:
            a, b, _h = merges[node - n_leaves]
            stack += [b, a]
    return order


def _render_dendrogram(dendrogram, spec):
    merges = dendrogram.merges
    n = dendrogram.n_leaves
    order = _leaf_order(merges, n)
    top = max((m[2] for m in merges), default=1.0) or 1.0
    frame = _Frame([-0.5, n - 0.5], [0.0, top])
    # each node's slot on the leaf axis and its height
    nodes = {leaf: (float(i), 0.0) for i, leaf in enumerate(order)}
    parts = []
    for t, (a, b, h) in enumerate(merges):
        (xa, ya), (xb, yb) = nodes[a], nodes[b]
        px_a, px_b, py = frame.x(xa), frame.x(xb), frame.y(h)
        parts += [
            _line(px_a, frame.y(ya), px_a, py, "#333333"),
            _line(px_b, frame.y(yb), px_b, py, "#333333"),
            _line(px_a, py, px_b, py, "#333333", class_="merge", data_height=_num(h)),
        ]
        nodes[n + t] = ((xa + xb) / 2.0, h)
    base = frame.y(0.0)
    for leaf in range(n):
        x, y = frame.x(nodes[leaf][0]) + 3, base + 10
        parts.append(_text(x, y, dendrogram.labels[leaf], size=9,
                           transform=f"rotate(90 {_px(x)} {_px(y)})"))
    return _svg_document("\n".join(parts), frame)


def _render_cluster_map(artifact, spec):
    try:
        model, assignment = artifact[0], np.asarray(artifact[1], dtype=int)
        typicality = artifact[2] if len(artifact) > 2 else None
    except (TypeError, IndexError):
        raise InputError("cluster_map expects (model, assignment[, typicality])")
    _check_dims(spec.dims, model.n_dims)
    n_rows = len(model.row_coords)
    if len(assignment) != n_rows:
        raise InputError(f"{len(assignment)} assignments for {n_rows} rows")
    n_clusters = int(assignment.max()) + 1 if len(assignment) else 0
    ranked = typicality.ranked if typicality is not None else []
    legend = []
    for cluster in range(n_clusters):
        words = ", ".join(word for word, _z in ranked[cluster]) if cluster < len(ranked) else ""
        legend.append(_text(16, HEIGHT - 16 - 12 * (n_clusters - 1 - cluster),
                            f"cluster {cluster}: {words}" if words else f"cluster {cluster}",
                            size=9, color=PALETTE[cluster % len(PALETTE)],
                            class_="legend", data_cluster=cluster))

    def marker(k, px, py, label):
        return _el("circle", class_="row", cx=_px(px), cy=_px(py), r=3,
                   fill=PALETTE[assignment[k] % len(PALETTE)], data_label=label,
                   data_cluster=assignment[k])

    return _point_map(model, spec.dims, model.row_coords, model.table.row_labels, marker,
                      size=9, legend=legend)


_RENDERERS = {
    "symmetric_map": _render_symmetric_map,
    "weight_path": _render_weight_path,
    "criterion_curve": _render_criterion_curve,
    "contour": _render_contour,
    "scree": _render_scree,
    "dendrogram": _render_dendrogram,
    "cluster_map": _render_cluster_map,
}
PLOT_KINDS = tuple(_RENDERERS)


def render_svg(artifact, spec: PlotSpec) -> str:
    """Render one plot; returns the SVG text and writes it if asked.

    ``artifact`` is whatever the plot kind consumes: a fitted model for
    maps and screes, a tuning result for curves and contours, a weight
    path, a dendrogram, or a (model, assignment, typicality) triple for
    cluster maps.
    """
    if spec.kind not in PLOT_KINDS:
        raise InputError(f"kind must be one of {PLOT_KINDS}, got {spec.kind!r}")
    if spec.label_filter not in LABEL_FILTERS:
        raise InputError(
            f"label_filter must be one of {LABEL_FILTERS}, got {spec.label_filter!r}"
        )
    text = _RENDERERS[spec.kind](artifact, spec)
    if spec.out_path is not None:
        Path(spec.out_path).write_text(text, encoding="utf-8")
    return text
