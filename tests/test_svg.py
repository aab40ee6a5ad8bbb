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
from sparseca.cluster import cut_tree, typicality_zscores, ward_cluster
from sparseca.errors import InputError
from sparseca.sparse import SparsityConstraint, fit_sparse_ca
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
    return fit_sparse_ca(table, [SparsityConstraint.coupled(0.5)] * 2, n_dims=2)


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

        counts = aggregate_by_cluster(model.table.counts, assignment, 2)
        typicality = typicality_zscores(counts, top_m=2,
                                        category_labels=model.table.col_labels)
        text = render_svg((model, assignment, typicality), PlotSpec("cluster_map"))
        top_word = typicality.ranked[0][0][0]
        assert top_word in text

    def test_assignment_length_checked(self, model):
        with pytest.raises(InputError):
            render_svg((model, [0, 1]), PlotSpec("cluster_map"))


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
