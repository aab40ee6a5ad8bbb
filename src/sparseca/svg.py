"""Hand-rolled SVG rendering: maps, paths, curves, contours, trees.

Output is deterministic text: same artifact and spec, same bytes. Each
plot area carries data-* attributes describing the affine viewport
mapping so coordinates can be recovered from the file.
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

    def attrs(self) -> str:
        return (
            f' data-xmin="{_num(self.xmin)}" data-xmax="{_num(self.xmax)}"'
            f' data-ymin="{_num(self.ymin)}" data-ymax="{_num(self.ymax)}"'
            f' data-plot-x="{_num(self.x0)}" data-plot-y="{_num(self.y0)}"'
            f' data-plot-width="{_num(self.width)}" data-plot-height="{_num(self.height)}"'
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


def _svg_document(body, frame=None):
    attrs = frame.attrs() if frame is not None else ""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}"'
        f' viewBox="0 0 {WIDTH} {HEIGHT}"{attrs}>',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        body,
        "</svg>\n",
    ]
    return "\n".join(parts)


def _text(px, py, content, size=10, anchor="start", color="#222222", extra=""):
    return (
        f'<text x="{_px(px)}" y="{_px(py)}" font-size="{size}"'
        f' font-family="sans-serif" text-anchor="{anchor}" fill="{color}"{extra}>'
        f"{_esc(content)}</text>"
    )


def _axis_cross(frame):
    """Origin axes, drawn only where the origin is inside the frame."""
    parts = []
    if frame.xmin < 0 < frame.xmax:
        x = frame.x(0.0)
        parts.append(
            f'<line x1="{_px(x)}" y1="{_px(frame.y0)}" x2="{_px(x)}"'
            f' y2="{_px(frame.y0 + frame.height)}" stroke="#bbbbbb" stroke-width="1"/>'
        )
    if frame.ymin < 0 < frame.ymax:
        y = frame.y(0.0)
        parts.append(
            f'<line x1="{_px(frame.x0)}" y1="{_px(y)}" x2="{_px(frame.x0 + frame.width)}"'
            f' y2="{_px(y)}" stroke="#bbbbbb" stroke-width="1"/>'
        )
    return parts


def _check_dims(dims, n_dims):
    if len(dims) not in (1, 2) or len(set(dims)) != len(dims):
        raise InputError(f"dims must be one or two distinct indices, got {dims}")
    for d in dims:
        if not 0 <= d < n_dims:
            raise InputError(f"dimension {d} out of range for a {n_dims}-dim fit")


def _plotted_coords(coords, dims):
    xs = coords[:, dims[0]]
    ys = coords[:, dims[1]] if len(dims) == 2 else np.zeros(len(coords))
    return xs, ys


def _active_mask(model, dims, side):
    """Items with a nonzero weight on at least one plotted dimension."""
    if not isinstance(model, SparseCAModel):
        size = len(model.row_coords) if side == "row" else len(model.col_coords)
        return np.ones(size, dtype=bool)
    weights = model.row_weights if side == "row" else model.col_weights
    return np.any(weights[:, list(dims)] != 0, axis=1)


def _axis_captions(model, dims, frame):
    eigenvalues, inertia = model.eigenvalues, model.total_inertia
    parts = []
    lam = eigenvalues[dims[0]]
    caption = f"dim {dims[0] + 1} ({lam:.4g}, {100 * lam / inertia:.1f}%)"
    parts.append(_text(frame.x0 + frame.width / 2, HEIGHT - 16, caption, anchor="middle"))
    if len(dims) == 2:
        lam = eigenvalues[dims[1]]
        caption = f"dim {dims[1] + 1} ({lam:.4g}, {100 * lam / inertia:.1f}%)"
        parts.append(_text(16, MARGIN - 10, caption))
    return parts


def _render_symmetric_map(model, spec):
    if not isinstance(model, (CADecomposition, SparseCAModel)):
        raise InputError(f"cannot map a {type(model).__name__}")
    _check_dims(spec.dims, model.n_dims)
    row_x, row_y = _plotted_coords(model.row_coords, spec.dims)
    col_x, col_y = _plotted_coords(model.col_coords, spec.dims)
    keep_rows = np.ones(len(row_x), dtype=bool)
    keep_cols = np.ones(len(col_x), dtype=bool)
    if spec.label_filter == "nonzero_only":
        keep_rows = _active_mask(model, spec.dims, "row")
        keep_cols = _active_mask(model, spec.dims, "col")

    frame = _Frame(np.concatenate([row_x[keep_rows], col_x[keep_cols]]),
                   np.concatenate([row_y[keep_rows], col_y[keep_cols]]))
    parts = _axis_cross(frame)
    labels = []
    for i in np.flatnonzero(keep_rows):
        px, py = frame.x(row_x[i]), frame.y(row_y[i])
        parts.append(
            f'<circle class="row" cx="{_px(px)}" cy="{_px(py)}" r="3"'
            f' fill="{ROW_COLOR}" data-label="{_esc(model.table.row_labels[i])}"/>'
        )
        labels.append((px, py, model.table.row_labels[i]))
    for j in np.flatnonzero(keep_cols):
        px, py = frame.x(col_x[j]), frame.y(col_y[j])
        parts.append(
            f'<rect class="col" x="{_px(px - 3)}" y="{_px(py - 3)}" width="6" height="6"'
            f' fill="{COL_COLOR}" data-label="{_esc(model.table.col_labels[j])}"/>'
        )
        labels.append((px, py, model.table.col_labels[j]))
    for lx, ly, text in _place_labels(labels):
        parts.append(_text(lx, ly, text))
    parts.extend(_axis_captions(model, spec.dims, frame))
    return _svg_document("\n".join(parts), frame)


def _render_scree(model, spec):
    eigenvalues = model.eigenvalues
    n = len(eigenvalues)
    frame = _Frame([0.5, n + 0.5], [0.0, float(np.max(eigenvalues))])
    parts = []
    base = frame.y(0.0)
    for k, lam in enumerate(eigenvalues, start=1):
        x = frame.x(k)
        top = frame.y(float(lam))
        parts.append(
            f'<rect class="bar" x="{_px(x - 8)}" y="{_px(top)}" width="16"'
            f' height="{_px(max(base - top, 0.0))}" fill="{ROW_COLOR}"'
            f' data-value="{_num(lam)}"/>'
        )
        parts.append(_text(x, base + 14, str(k), anchor="middle"))
    parts.append(_text(frame.x0 + frame.width / 2, HEIGHT - 16,
                       "dimension", anchor="middle"))
    return _svg_document("\n".join(parts), frame)


def _polyline(xs, ys, color, extra=""):
    """Points ``(xs[i], ys[i])`` formatted as ``_px`` does, in one ``%``."""
    xy = np.column_stack([xs, ys]).ravel().tolist()
    joined = " ".join(["%.3f,%.3f"] * len(xs)) % tuple(xy)
    return (
        f'<polyline points="{joined}" fill="none" stroke="{color}"'
        f' stroke-width="1.2"{extra}/>'
    )


def _render_weight_path(path_result, spec):
    if not isinstance(path_result, WeightPath):
        raise InputError(f"weight_path expects a WeightPath, got {type(path_result).__name__}")
    values = np.asarray(path_result.values, dtype=float)
    panels = (("u", path_result.u_path), ("v", path_result.v_path))
    panel_h = (HEIGHT - 3 * MARGIN) / 2
    parts = []
    frame = None
    for p, (side, matrix) in enumerate(panels):
        matrix = np.asarray(matrix, dtype=float)
        y0 = MARGIN + p * (panel_h + MARGIN)
        frame = _Frame(values, matrix, y0=y0, height=panel_h)
        inner = _axis_cross(frame)
        xs, ys = frame.x(values), frame.y(matrix)
        for j in range(matrix.shape[1]):
            if len(values) == 1:
                inner.append(
                    f'<circle class="{side}-path" cx="{_px(xs[0])}" cy="{_px(ys[0, j])}" r="2"'
                    f' fill="{PALETTE[j % len(PALETTE)]}" data-index="{j}"/>'
                )
            else:
                inner.append(_polyline(xs, ys[:, j], PALETTE[j % len(PALETTE)],
                                       f' class="{side}-path" data-index="{j}"'))
        parts.append(f'<g id="{side}-panel"{frame.attrs()}>')
        parts.extend(inner)
        parts.append(_text(16, y0 - 6, f"{side} weights"))
        parts.append("</g>")
    parts.append(_text(WIDTH / 2, HEIGHT - 16, "budget", anchor="middle"))
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
    # NaN cells split the curve into segments
    segment = []
    segments = []
    for value, score in zip(grid.axis1, grid.values):
        if np.isfinite(score):
            segment.append((frame.x(value), frame.y(score)))
        elif segment:
            segments.append(segment)
            segment = []
    if segment:
        segments.append(segment)
    for seg in segments:
        if len(seg) == 1:
            x, y = seg[0]
            parts.append(f'<circle cx="{_px(x)}" cy="{_px(y)}" r="2" fill="{ROW_COLOR}"/>')
        else:
            xs, ys = zip(*seg)
            parts.append(_polyline(xs, ys, ROW_COLOR))
    idx = int(np.flatnonzero(grid.axis1 == result.optimum)[0])
    parts.append(
        f'<circle class="optimum" cx="{_px(frame.x(result.optimum))}"'
        f' cy="{_px(frame.y(grid.values[idx]))}" r="5" fill="none"'
        f' stroke="{COL_COLOR}" stroke-width="2" data-value="{_num(result.optimum)}"/>'
    )
    parts.append(_text(frame.x0 + frame.width / 2, HEIGHT - 16,
                       f"budget ({result.criterion})", anchor="middle"))
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
    parts = _axis_cross(frame)
    for level in levels:
        lines = []
        for i in range(surface.shape[0] - 1):
            for j in range(surface.shape[1] - 1):
                block = surface[i : i + 2, j : j + 2]
                if not np.isfinite(block).all():
                    continue
                corners = [
                    (surface[i, j], (frame.x(grid.axis1[i]), frame.y(grid.axis2[j]))),
                    (surface[i + 1, j], (frame.x(grid.axis1[i + 1]), frame.y(grid.axis2[j]))),
                    (surface[i + 1, j + 1], (frame.x(grid.axis1[i + 1]), frame.y(grid.axis2[j + 1]))),
                    (surface[i, j + 1], (frame.x(grid.axis1[i]), frame.y(grid.axis2[j + 1]))),
                ]
                pts = _cell_crossings(level, corners)
                # pair crossings in order; the saddle case pairs (0,1), (2,3)
                for a, b in zip(pts[0::2], pts[1::2]):
                    lines.append(
                        f'<line class="level" x1="{_px(a[0])}" y1="{_px(a[1])}"'
                        f' x2="{_px(b[0])}" y2="{_px(b[1])}" stroke="{ROW_COLOR}"'
                        f' stroke-width="1" data-level="{_num(level)}"/>'
                    )
        parts.extend(lines)
    ou, ov = result.optimum
    parts.append(
        f'<circle class="optimum" cx="{_px(frame.x(ou))}" cy="{_px(frame.y(ov))}"'
        f' r="5" fill="none" stroke="{COL_COLOR}" stroke-width="2"'
        f' data-value-u="{_num(ou)}" data-value-v="{_num(ov)}"/>'
    )
    parts.append(_text(frame.x0 + frame.width / 2, HEIGHT - 16,
                       f"row budget ({result.criterion})", anchor="middle"))
    parts.append(_text(16, MARGIN - 10, "column budget"))
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
    slot = {leaf: i for i, leaf in enumerate(order)}
    top = max((m[2] for m in merges), default=1.0) or 1.0
    frame = _Frame([-0.5, n - 0.5], [0.0, top])
    xs = {leaf: float(slot[leaf]) for leaf in range(n)}
    heights = {leaf: 0.0 for leaf in range(n)}
    parts = []
    for t, (a, b, h) in enumerate(merges):
        xa, xb = xs[a], xs[b]
        ya, yb = heights[a], heights[b]
        px_a, px_b = frame.x(xa), frame.x(xb)
        py = frame.y(h)
        parts.append(
            f'<line x1="{_px(px_a)}" y1="{_px(frame.y(ya))}" x2="{_px(px_a)}"'
            f' y2="{_px(py)}" stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<line x1="{_px(px_b)}" y1="{_px(frame.y(yb))}" x2="{_px(px_b)}"'
            f' y2="{_px(py)}" stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<line class="merge" x1="{_px(px_a)}" y1="{_px(py)}" x2="{_px(px_b)}"'
            f' y2="{_px(py)}" stroke="#333333" stroke-width="1" data-height="{_num(h)}"/>'
        )
        xs[n + t] = (xa + xb) / 2.0
        heights[n + t] = h
    base = frame.y(0.0)
    for leaf in range(n):
        x = frame.x(xs[leaf])
        parts.append(_text(
            x + 3, base + 10, dendrogram.labels[leaf], size=9,
            extra=f' transform="rotate(90 {_px(x + 3)} {_px(base + 10)})"',
        ))
    return _svg_document("\n".join(parts), frame)


def _render_cluster_map(artifact, spec):
    try:
        model, assignment = artifact[0], np.asarray(artifact[1], dtype=int)
        typicality = artifact[2] if len(artifact) > 2 else None
    except (TypeError, IndexError):
        raise InputError("cluster_map expects (model, assignment[, typicality])")
    _check_dims(spec.dims, model.n_dims)
    row_x, row_y = _plotted_coords(model.row_coords, spec.dims)
    if len(assignment) != len(row_x):
        raise InputError(f"{len(assignment)} assignments for {len(row_x)} rows")
    frame = _Frame(row_x, row_y)
    parts = _axis_cross(frame)
    labels = []
    for i in range(len(row_x)):
        px, py = frame.x(row_x[i]), frame.y(row_y[i])
        color = PALETTE[assignment[i] % len(PALETTE)]
        parts.append(
            f'<circle class="row" cx="{_px(px)}" cy="{_px(py)}" r="3" fill="{color}"'
            f' data-label="{_esc(model.table.row_labels[i])}" data-cluster="{assignment[i]}"/>'
        )
        labels.append((px, py, model.table.row_labels[i]))
    for lx, ly, text in _place_labels(labels):
        parts.append(_text(lx, ly, text, size=9))
    n_clusters = int(assignment.max()) + 1 if len(assignment) else 0
    for cluster in range(n_clusters):
        color = PALETTE[cluster % len(PALETTE)]
        caption = f"cluster {cluster}"
        if typicality is not None and cluster < len(typicality.ranked):
            words = ", ".join(word for word, _z in typicality.ranked[cluster])
            if words:
                caption += f": {words}"
        parts.append(_text(16, HEIGHT - 16 - 12 * (n_clusters - 1 - cluster),
                           caption, size=9, color=color,
                           extra=f' class="legend" data-cluster="{cluster}"'))
    parts.extend(_axis_captions(model, spec.dims, frame))
    return _svg_document("\n".join(parts), frame)


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
