"""SVG rendering tests.

Every kind must parse as XML; scatter kinds additionally expose the
viewport mapping through data-* attributes, and the tests recover each
plotted point's data coordinates from pixel positions via the inverse
affine map.
"""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from sparseca.ca import ContingencyTable, fit_ca
from sparseca.cluster import Dendrogram, cut_tree, typicality_zscores, ward_cluster
from sparseca.errors import InputError
from sparseca.sparse import SparsityConstraint, fit_sparse_ca
from sparseca import svg
from sparseca.svg import PlotSpec, render_svg
from sparseca.tuning import WeightPath, grid_search_1d, grid_search_2d, weight_paths

from conftest import random_table


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(20240817)
    table = ContingencyTable.from_counts(
        random_table(rng, 8, 6, total=900),
        row_labels=[f"row{i}" for i in range(8)],
        col_labels=[f"col{j}" for j in range(6)],
    )
    return fit_ca(table)


@pytest.fixture(scope="module")
def sparse_model():
    rng = np.random.default_rng(20240817)
    table = ContingencyTable.from_counts(random_table(rng, 8, 6, total=900))
    return fit_sparse_ca(table, [SparsityConstraint.coupled(0.5)] * 2)


def parse(svg_text):
    return ET.fromstring(svg_text)


def tagged(root, name):
    return [el for el in root.iter() if el.tag.endswith("}" + name)]


def inverse_map(root, px, py):
    a = root.attrib
    x0, y0 = float(a["data-plot-x"]), float(a["data-plot-y"])
    w, h = float(a["data-plot-width"]), float(a["data-plot-height"])
    xmin, xmax = float(a["data-xmin"]), float(a["data-xmax"])
    ymin, ymax = float(a["data-ymin"]), float(a["data-ymax"])
    x = xmin + (px - x0) / w * (xmax - xmin)
    y = ymin + (y0 + h - py) / h * (ymax - ymin)
    return x, y


class TestSymmetricMap:
    def test_points_back_map_to_coordinates(self, model):
        root = parse(render_svg(model, PlotSpec("symmetric_map")))
        circles = {
            el.attrib["data-label"]: el
            for el in tagged(root, "circle")
            if el.attrib.get("class") == "row"
        }
        assert len(circles) == 8
        span = np.ptp(model.row_coords[:, :2]) or 1.0
        for i, label in enumerate(model.table.row_labels):
            el = circles[label]
            x, y = inverse_map(root, float(el.attrib["cx"]), float(el.attrib["cy"]))
            assert x == pytest.approx(model.row_coords[i, 0], abs=1e-4 * span)
            assert y == pytest.approx(model.row_coords[i, 1], abs=1e-4 * span)

    def test_column_markers_back_map(self, model):
        root = parse(render_svg(model, PlotSpec("symmetric_map")))
        rects = [el for el in tagged(root, "rect") if el.attrib.get("class") == "col"]
        assert len(rects) == 6
        span = np.ptp(model.col_coords[:, :2]) or 1.0
        by_label = {el.attrib["data-label"]: el for el in rects}
        for j, label in enumerate(model.table.col_labels):
            el = by_label[label]
            px = float(el.attrib["x"]) + 3.0
            py = float(el.attrib["y"]) + 3.0
            x, y = inverse_map(root, px, py)
            assert x == pytest.approx(model.col_coords[j, 0], abs=1e-4 * span)
            assert y == pytest.approx(model.col_coords[j, 1], abs=1e-4 * span)

    def test_every_point_labeled(self, model):
        root = parse(render_svg(model, PlotSpec("symmetric_map")))
        texts = {el.text for el in tagged(root, "text")}
        for label in model.table.row_labels + model.table.col_labels:
            assert label in texts

    def test_axis_captions_carry_eigenvalue_and_share(self, model):
        text = render_svg(model, PlotSpec("symmetric_map"))
        share = 100 * model.eigenvalues[0] / model.total_inertia
        assert f"dim 1 ({model.eigenvalues[0]:.4g}, {share:.1f}%)" in text

    def test_nonzero_only_drops_zero_weight_items(self, sparse_model):
        spec = PlotSpec("symmetric_map", label_filter="nonzero_only")
        root = parse(render_svg(sparse_model, spec))
        n_rows = len([el for el in tagged(root, "circle") if el.attrib.get("class") == "row"])
        n_cols = len([el for el in tagged(root, "rect") if el.attrib.get("class") == "col"])
        u = np.column_stack([f.u for f in sparse_model.factors])
        v = np.column_stack([f.v for f in sparse_model.factors])
        assert n_rows == int(np.sum(np.any(u != 0, axis=1)))
        assert n_cols == int(np.sum(np.any(v != 0, axis=1)))
        assert n_rows < 8 or n_cols < 6

    def test_single_dimension_map(self, model):
        root = parse(render_svg(model, PlotSpec("symmetric_map", dims=(0,))))
        assert len(tagged(root, "circle")) >= 8

    def test_dims_validation(self, model):
        with pytest.raises(InputError):
            render_svg(model, PlotSpec("symmetric_map", dims=(0, 99)))
        with pytest.raises(InputError):
            render_svg(model, PlotSpec("symmetric_map", dims=(1, 1)))

    def test_deterministic_bytes(self, model):
        spec = PlotSpec("symmetric_map")
        assert render_svg(model, spec) == render_svg(model, spec)

    def test_writes_file(self, model, tmp_path):
        out = tmp_path / "map.svg"
        text = render_svg(model, PlotSpec("symmetric_map", out_path=out))
        assert out.read_text(encoding="utf-8") == text


class TestScree:
    def test_one_bar_per_eigenvalue(self, model):
        root = parse(render_svg(model, PlotSpec("scree")))
        bars = [el for el in tagged(root, "rect") if el.attrib.get("class") == "bar"]
        assert len(bars) == len(model.eigenvalues)
        values = [float(el.attrib["data-value"]) for el in bars]
        np.testing.assert_allclose(values, model.eigenvalues, rtol=1e-9)

    def test_bar_heights_proportional(self, model):
        root = parse(render_svg(model, PlotSpec("scree")))
        bars = [el for el in tagged(root, "rect") if el.attrib.get("class") == "bar"]
        heights = np.array([float(el.attrib["height"]) for el in bars])
        ratio = heights / np.asarray(model.eigenvalues)
        assert np.ptp(ratio) < 1e-2 * ratio.mean()


class TestCriterionCurve:
    def test_optimum_marker(self, model):
        result = grid_search_1d(model.residuals, grid=[0.5, 0.7, 0.9])
        root = parse(render_svg(result, PlotSpec("criterion_curve")))
        marker = [el for el in tagged(root, "circle") if el.attrib.get("class") == "optimum"]
        assert len(marker) == 1
        assert float(marker[0].attrib["data-value"]) == pytest.approx(result.optimum)

    def test_wrong_artifact_rejected(self, model):
        result = grid_search_2d(model.residuals, grid_u=[1.2, 1.8], grid_v=[1.3, 1.9])
        with pytest.raises(InputError):
            render_svg(result, PlotSpec("criterion_curve"))


class TestContour:
    def test_valid_with_levels_and_optimum(self, model):
        result = grid_search_2d(
            model.residuals,
            grid_u=[1.0, 1.4, 1.8, 2.2],
            grid_v=[1.0, 1.4, 1.8, 2.2],
        )
        root = parse(render_svg(result, PlotSpec("contour")))
        marker = [el for el in tagged(root, "circle") if el.attrib.get("class") == "optimum"]
        assert len(marker) == 1
        assert float(marker[0].attrib["data-value-u"]) == pytest.approx(result.optimum[0])
        assert float(marker[0].attrib["data-value-v"]) == pytest.approx(result.optimum[1])
        levels = {el.attrib["data-level"] for el in tagged(root, "line")
                  if el.attrib.get("class") == "level"}
        assert levels

    def test_rejects_1d_result(self, model):
        result = grid_search_1d(model.residuals, grid=[0.5, 0.9])
        with pytest.raises(InputError):
            render_svg(result, PlotSpec("contour"))


class TestWeightPath:
    def test_both_panels_one_line_per_coefficient(self, model):
        wp = weight_paths(model.residuals, grid=[0.5, 0.7, 0.9, 1.0])
        root = parse(render_svg(wp, PlotSpec("weight_path")))
        u_lines = [el for el in tagged(root, "polyline")
                   if el.attrib.get("class") == "u-path"]
        v_lines = [el for el in tagged(root, "polyline")
                   if el.attrib.get("class") == "v-path"]
        assert len(u_lines) == model.residuals.shape[0]
        assert len(v_lines) == model.residuals.shape[1]

    def test_singleton_grid_renders_markers(self, model):
        wp = weight_paths(model.residuals, grid=[0.8])
        root = parse(render_svg(wp, PlotSpec("weight_path")))
        dots = [el for el in tagged(root, "circle")
                if el.attrib.get("class") in ("u-path", "v-path")]
        assert len(dots) == sum(model.residuals.shape)
        assert not tagged(root, "polyline")

    def test_empty_path_rejected(self):
        wp = WeightPath(values=np.array([]), u_path=np.zeros((0, 3)),
                        v_path=np.zeros((0, 2)), zero_fraction=np.array([]))
        with pytest.raises(InputError, match="nothing to plot"):
            render_svg(wp, PlotSpec("weight_path"))


class TestDendrogramPlot:
    def test_merge_lines_match_heights(self, rng):
        points = rng.normal(size=(9, 2))
        d = ward_cluster(points, labels=[f"p{i}" for i in range(9)])
        root = parse(render_svg(d, PlotSpec("dendrogram")))
        merge_lines = [el for el in tagged(root, "line")
                       if el.attrib.get("class") == "merge"]
        assert len(merge_lines) == 8
        got = sorted(float(el.attrib["data-height"]) for el in merge_lines)
        want = sorted(m[2] for m in d.merges)
        np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_deep_chain_keeps_leaf_order(self):
        # merge t joins the previous merge with leaf t + 1, so the tree is
        # as deep as it has leaves, far past the recursion limit
        n = 1500
        merges = [(0, 1, 1.0)] + [(n + t - 1, t + 1, t + 1.0) for t in range(1, n - 1)]
        d = Dendrogram(merges=merges, labels=[f"p{i}" for i in range(n)])
        assert svg._leaf_order(merges, n) == list(range(n))
        root = parse(render_svg(d, PlotSpec("dendrogram")))
        merge_lines = [el for el in tagged(root, "line") if el.attrib.get("class") == "merge"]
        assert len(merge_lines) == n - 1

    def test_leaf_labels_present(self, rng):
        points = rng.normal(size=(5, 2))
        d = ward_cluster(points, labels=["aa", "bb", "cc", "dd", "ee"])
        text = render_svg(d, PlotSpec("dendrogram"))
        for label in d.labels:
            assert label in text


class TestClusterMap:
    def test_points_carry_cluster_ids(self, model, rng):
        d = ward_cluster(model.row_coords[:, :2], labels=model.table.row_labels)
        assignment = cut_tree(d, 3)
        root = parse(render_svg((model, assignment), PlotSpec("cluster_map")))
        circles = [el for el in tagged(root, "circle") if el.attrib.get("class") == "row"]
        assert len(circles) == 8
        by_label = {el.attrib["data-label"]: int(el.attrib["data-cluster"])
                    for el in circles}
        for i, label in enumerate(model.table.row_labels):
            assert by_label[label] == assignment[i]

    def test_legend_lists_typical_words(self, model):
        d = ward_cluster(model.row_coords[:, :2], labels=model.table.row_labels)
        assignment = cut_tree(d, 2)
        from sparseca.cluster import aggregate_by_cluster

        counts = aggregate_by_cluster(model.table.counts, assignment)
        typicality = typicality_zscores(counts, top_m=2,
                                        category_labels=model.table.col_labels)
        text = render_svg((model, assignment, typicality), PlotSpec("cluster_map"))
        top_word = typicality.ranked[0][0][0]
        assert top_word in text

    def test_assignment_length_checked(self, model):
        with pytest.raises(InputError):
            render_svg((model, [0, 1]), PlotSpec("cluster_map"))


class TestEscaping:
    ROWS = ["a&b", "<r>", 'say "hi"', "it's", "x > y & z < w", "&amp;", "plain", "'\"<&>"]
    COLS = [f"{label}." for label in ROWS[:6]]

    def test_labels_round_trip(self):
        rng = np.random.default_rng(31)
        table = ContingencyTable.from_counts(
            random_table(rng, 8, 6, total=900), row_labels=self.ROWS, col_labels=self.COLS,
        )
        model = fit_ca(table)
        d = ward_cluster(model.row_coords[:, :2], labels=self.ROWS)
        for artifact, kind, labels, marked in (
            (model, "symmetric_map", self.ROWS + self.COLS, True),
            ((model, cut_tree(d, 3)), "cluster_map", self.ROWS, True),
            (d, "dendrogram", self.ROWS, False),
        ):
            root = parse(render_svg(artifact, PlotSpec(kind)))
            texts = [el.text for el in tagged(root, "text")]
            assert all(texts.count(label) == 1 for label in labels), kind
            if marked:
                data = [el.attrib["data-label"] for el in root.iter() if "data-label" in el.attrib]
                assert sorted(data) == sorted(labels), kind


class TestRenderSvgDispatch:
    def test_unknown_kind(self, model):
        with pytest.raises(InputError):
            render_svg(model, PlotSpec("pie"))

    def test_unknown_filter(self, model):
        with pytest.raises(InputError):
            render_svg(model, PlotSpec("symmetric_map", label_filter="some"))

    def test_all_kinds_are_valid_xml(self, model, sparse_model, rng):
        result_1d = grid_search_1d(model.residuals, grid=[0.5, 0.9])
        result_2d = grid_search_2d(model.residuals, grid_u=[1.2, 1.8], grid_v=[1.3, 1.9])
        wp = weight_paths(model.residuals, grid=[0.6, 1.0])
        d = ward_cluster(model.row_coords[:, :2], labels=model.table.row_labels)
        assignment = cut_tree(d, 2)
        for artifact, kind in (
            (model, "symmetric_map"),
            (sparse_model, "symmetric_map"),
            (model, "scree"),
            (result_1d, "criterion_curve"),
            (result_2d, "contour"),
            (wp, "weight_path"),
            (d, "dendrogram"),
            ((model, assignment), "cluster_map"),
        ):
            root = parse(render_svg(artifact, PlotSpec(kind)))
            assert root.tag.endswith("svg")


# Reference loops: the label placement and point-by-point polyline
# formatting that the array code replaced. Outputs must be identical.


def reference_place_labels(entries):
    boxes = []
    out = []
    for px, py, text in entries:
        w = 6.5 * len(text) + 4
        h = 11.0
        lx, ly = px + 5.0, py - 4.0
        for _ in range(24):
            box = (lx, ly - h, lx + w, ly)
            clash = any(
                box[0] < b[2] and b[0] < box[2] and box[1] < b[3] and b[1] < box[3]
                for b in boxes
            )
            if not clash:
                break
            ly += 12.0
        boxes.append((lx, ly - h, lx + w, ly))
        out.append((lx, ly, text))
    return out


def reference_polyline(points, color, extra=""):
    joined = " ".join(f"{svg._px(x)},{svg._px(y)}" for x, y in points)
    return (
        f'<polyline points="{joined}" fill="none" stroke="{color}"'
        f' stroke-width="1.2"{extra}/>'
    )


def reference_weight_path(path_result, spec):
    values = np.asarray(path_result.values, dtype=float)
    panels = (("u", path_result.u_path), ("v", path_result.v_path))
    panel_h = (svg.HEIGHT - 3 * svg.MARGIN) / 2
    parts = []
    frame = None
    for p, (side, matrix) in enumerate(panels):
        matrix = np.asarray(matrix, dtype=float)
        y0 = svg.MARGIN + p * (panel_h + svg.MARGIN)
        frame = svg._Frame(values, matrix, y0=y0, height=panel_h)
        inner = svg._axis_cross(frame)
        for j in range(matrix.shape[1]):
            pts = [(frame.x(values[g]), frame.y(matrix[g, j]))
                   for g in range(len(values))]
            color = svg.PALETTE[j % len(svg.PALETTE)]
            if len(pts) == 1:
                x, y = pts[0]
                inner.append(
                    f'<circle class="{side}-path" cx="{svg._px(x)}" cy="{svg._px(y)}" r="2"'
                    f' fill="{color}" data-index="{j}"/>'
                )
            else:
                inner.append(reference_polyline(pts, color,
                                                f' class="{side}-path" data-index="{j}"'))
        parts.append(f'<g id="{side}-panel"{svg._attrs(frame.data())}>')
        parts.extend(inner)
        parts.append(svg._text(16, y0 - 6, f"{side} weights"))
        parts.append("</g>")
    parts.append(svg._text(svg.WIDTH / 2, svg.HEIGHT - 16, "budget", anchor="middle"))
    return svg._svg_document("\n".join(parts), frame)


def label_entries(rng, n, spread, max_len, centers=4):
    """``n`` labels around a few centers; every tenth sits exactly on
    its center, so stacks of identical points exhaust the 24 pushes."""
    middle = rng.uniform([60, 60], [580, 420], size=(centers, 2))
    pick = rng.integers(centers, size=n)
    points = middle[pick] + rng.normal(scale=spread, size=(n, 2))
    points[::10] = middle[pick[::10]]
    lengths = rng.integers(1, max_len + 1, size=n)
    return [(float(x), float(y), "w" * int(k)) for (x, y), k in zip(points, lengths)]


class TestArrayCodeMatchesReference:
    @pytest.mark.parametrize(
        "n, spread, max_len",
        [(1, 5.0, 4), (2, 0.0, 3), (7, 3.0, 40), (60, 2.0, 12), (300, 40.0, 8),
         (300, 1.0, 60), (920, 120.0, 9), (1500, 200.0, 10)],
    )
    def test_place_labels(self, n, spread, max_len):
        rng = np.random.default_rng([n, int(spread), max_len])
        entries = label_entries(rng, n, spread, max_len)
        got = svg._place_labels(entries)
        want = reference_place_labels(entries)
        assert got == want

    def test_place_labels_exhausts_pushes(self):
        entries = [(100.0, 100.0, f"label{k}") for k in range(40)]
        got = svg._place_labels(entries)
        assert got == reference_place_labels(entries)
        # the 26th label finds all 24 baselines taken and gets the 25th
        assert got[25][1] == got[24][1] == 100.0 - 4.0 + 24 * 12.0

    def test_place_labels_touching_boxes(self):
        # "ab" boxes are 17 px wide and 11 px tall: on a 17 x 11 lattice
        # neighbours touch without overlapping, on 16 x 10 they overlap
        for dx, dy in ((17.0, 11.0), (16.0, 10.0), (17.0, 10.0), (16.0, 11.0)):
            entries = [(dx * i, dy * j, "ab") for j in range(6) for i in range(6)]
            got = svg._place_labels(entries)
            assert got == reference_place_labels(entries)
            pushed = sum(ly != py - 4.0 for (_x, py, _t), (_lx, ly, _l) in zip(entries, got))
            assert (pushed == 0) == ((dx, dy) == (17.0, 11.0))

    def test_place_labels_numpy_coordinates_and_nan(self, model):
        entries = [(np.float64(x), np.float64(y), t)
                   for x, y, t in label_entries(np.random.default_rng(3), 50, 4.0, 6)]
        entries[7] = (np.float64(np.nan), np.float64(10.0), "nan x")
        entries[9] = (np.float64(30.0), np.float64(np.nan), "nan y")
        got = svg._place_labels(entries)
        want = reference_place_labels(entries)
        assert [t for *_xy, t in got] == [t for *_xy, t in want]
        np.testing.assert_array_equal([xy for *xy, _t in got], [xy for *xy, _t in want])

    @pytest.mark.parametrize("grid", [[0.5, 0.7, 0.9, 1.0], [0.8], np.linspace(0.45, 1.0, 15)])
    def test_weight_path_matches_point_formatting(self, model, grid):
        wp = weight_paths(model.residuals, grid=grid)
        spec = PlotSpec("weight_path")
        assert render_svg(wp, spec) == reference_weight_path(wp, spec)

    def test_criterion_curve_polylines_match_point_formatting(self, model):
        result = grid_search_1d(model.residuals, grid=[0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
        result.grid.values[2] = np.nan
        root = parse(render_svg(result, PlotSpec("criterion_curve")))
        frame = svg._Frame(result.grid.axis1, result.grid.values[np.isfinite(result.grid.values)])
        want = [
            " ".join(f"{svg._px(frame.x(v))},{svg._px(frame.y(result.grid.values[i]))}"
                     for i, v in enumerate(result.grid.axis1) if i in segment)
            for segment in ((0, 1), (3, 4, 5))
        ]
        assert [el.attrib["points"] for el in tagged(root, "polyline")] == want
