import math

import pytest

from homlab.svgplot import format_number, plot_series, write_csv

THREE_POINTS = [(4.0, 1.0), (8.0, 0.5), (16.0, 0.25)]


class TestPlotSeries:
    def test_three_point_series_is_one_polyline(self):
        svg = plot_series(THREE_POINTS)
        assert svg.count("<polyline") == 1
        points_attr = svg.split('points="')[1].split('"')[0]
        assert len(points_attr.split()) == 3

    def test_svg_is_version_1_1_and_self_contained(self):
        svg = plot_series(THREE_POINTS)
        assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" '
                              'version="1.1"')
        assert svg.rstrip().endswith("</svg>")
        assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")

    def test_axes_labeled_r_and_value_by_default(self):
        svg = plot_series(THREE_POINTS)
        assert ">R</text>" in svg
        assert ">value</text>" in svg

    def test_one_polyline_per_series_with_legend(self):
        svg = plot_series({"penalized": THREE_POINTS,
                           "masked": [(4.0, 0.2), (16.0, 0.2)]})
        assert svg.count("<polyline") == 2
        assert ">penalized</text>" in svg
        assert ">masked</text>" in svg

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="no series"):
            plot_series({})
        with pytest.raises(ValueError, match="at least 2"):
            plot_series([(1.0, 1.0)])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            plot_series([(1.0, 1.0), (2.0, math.nan)])
        with pytest.raises(ValueError, match="non-finite"):
            plot_series([(1.0, math.inf), (2.0, 1.0)])

    def test_log_x_needs_positive_abscissas(self):
        with pytest.raises(ValueError, match="positive"):
            plot_series([(0.0, 1.0), (2.0, 1.0)])

    def test_deterministic_output(self):
        a = plot_series(THREE_POINTS)
        b = plot_series([(4.0, 1.0), (8.0, 0.5), (16.0, 0.25)])
        assert a == b

    def test_constant_series_has_nonzero_range(self):
        svg = plot_series([(1.0, 2.0), (2.0, 2.0), (3.0, 2.0)])
        assert svg.count("<polyline") == 1

    def test_span_at_rounding_level_plots_flat(self):
        # a one-ulp spread is drawn like an exactly constant series: one
        # height for every point, and distinct tick labels
        svg = plot_series([(1, 1.8749999999999998), (2, 1.875), (4, 1.875)])
        points = svg.split('points="')[1].split('"')[0].split()
        assert len({p.split(",")[1] for p in points}) == 1
        assert svg == plot_series([(1, 1.875), (2, 1.875), (4, 1.875)])

    def test_labels_are_escaped(self):
        svg = plot_series(THREE_POINTS, x_label="a<b", y_label="c&d")
        assert "a&lt;b" in svg
        assert "c&amp;d" in svg


class TestWriteCsv:
    def test_format_is_twelve_significant_digits(self):
        assert format_number(1.0 / 3.0) == "0.333333333333"
        assert format_number(2.0) == "2"
        assert format_number(64) == "64"
        assert format_number(1.2345678901234567e-7) == "1.23456789012e-07"

    def test_header_rows_and_line_endings(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["R", "value"], [[8.0, 1.0 / 3.0], [16, 0.25]])
        raw = path.read_bytes()
        assert raw == b"R,value\n8,0.333333333333\n16,0.25\n"

    def test_row_width_checked(self, tmp_path):
        with pytest.raises(ValueError, match="header"):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1.0]])

    def test_non_finite_cell_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="finite"):
            write_csv(tmp_path / "t.csv", ["a"], [[math.nan]])

    def test_rewrites_are_byte_identical(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [[4.0, 0.1], [8.0, 0.2]]
        write_csv(path, ["n", "v"], rows)
        first = path.read_bytes()
        write_csv(path, ["n", "v"], rows)
        assert path.read_bytes() == first
