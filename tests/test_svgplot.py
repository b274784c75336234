"""SVG rendering: document validity, panel layout, the solid/dashed
split between asymptotic and empirical series, and the exact bytes of a
four-panel figure."""

import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from sobotest.harness import PowerRow, PowerTable
from sobotest.svgplot import emit_svg

SVG_NS = "{http://www.w3.org/2000/svg}"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def row(test="rayleigh", n=500, ell=2, tau=0.0, freq=0.05, asym=None):
    return PowerRow(test, n, ell, tau, freq, 0.005, asym)


def figure_shaped_table():
    rows = []
    for ell in (2, 4, 6, 12):
        for tau in (0.0, 1.0, 2.0):
            on = ell == 2
            rows.append(row(ell=ell, tau=tau, freq=0.05 + 0.1 * tau,
                            asym=0.05 + 0.09 * tau if on else None))
            rows.append(row(n=5000, ell=ell, tau=tau, freq=0.06 + 0.1 * tau))
    return PowerTable(tuple(rows))


def elements(svg, local_name):
    root = ET.fromstring(svg)
    return [el for el in root.iter(SVG_NS + local_name)]


def test_layout_validation():
    table = PowerTable((row(),))
    for alpha in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            emit_svg(table, alpha=alpha)


def test_empty_table_rejected():
    with pytest.raises(ValueError):
        emit_svg(PowerTable(()))


def test_single_row_single_marker():
    svg = emit_svg(PowerTable((row(),)))
    ET.fromstring(svg)
    assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    markers = [c for c in elements(svg, "circle") if c.get("r") == "2.5"]
    assert len(markers) == 1
    assert elements(svg, "polyline") == []


def test_single_point_asymptotic_open_circle():
    svg = emit_svg(PowerTable((row(asym=0.05),)))
    open_circles = [c for c in elements(svg, "circle")
                    if c.get("fill") == "none"]
    assert len(open_circles) == 1


def test_four_panels_in_rate_order():
    svg = emit_svg(figure_shaped_table())
    ET.fromstring(svg)
    titles = [t for t in ("ell = 2", "ell = 4", "ell = 6", "ell = 12")]
    positions = [svg.find(t) for t in titles]
    assert all(p >= 0 for p in positions)
    assert positions == sorted(positions)
    # one frame rectangle per panel plus the background
    assert len(elements(svg, "rect")) == 5


def test_solid_curve_only_on_threshold():
    svg = emit_svg(figure_shaped_table())
    polylines = elements(svg, "polyline")
    solid = [p for p in polylines if p.get("stroke-dasharray") is None]
    dashed = [p for p in polylines if p.get("stroke-dasharray") is not None]
    # one asymptotic curve (ell = 2 only); empirical series in every
    # panel for both sample sizes
    assert len(solid) == 1
    assert len(dashed) == 8


def test_experiment_shaped_table_has_one_solid_curve():
    # both sample sizes carry the asymptotic curve at ell = 2, as in a
    # run_power_experiment table, and each lists tau = 1 twice
    rows = []
    for n in (500, 5000):
        for tau in (0.0, 1.0, 1.0, 2.0):
            rows.append(row(n=n, tau=tau, freq=0.05 + 0.1 * tau,
                            asym=0.05 + 0.09 * tau))
        rows.append(row(n=n, ell=4, tau=1.0))
    svg = emit_svg(PowerTable(tuple(rows)))
    solid = [p for p in elements(svg, "polyline")
             if p.get("stroke-dasharray") is None]
    assert len(solid) == 1
    assert len(solid[0].get("points").split()) == 3


def test_trivial_table_has_no_solid_curve():
    rows = tuple(row(tau=t, freq=0.04 + 0.01 * t) for t in (0.0, 1.0, 2.0))
    svg = emit_svg(PowerTable(rows))
    polylines = elements(svg, "polyline")
    assert all(p.get("stroke-dasharray") is not None for p in polylines)
    assert len(polylines) == 1


def test_alpha_reference_follows_layout():
    table = PowerTable((row(),))
    assert "alpha = 0.05" in emit_svg(table)
    assert "alpha = 0.1" in emit_svg(table, alpha=0.1)


def test_series_colors_distinct():
    rows = (row(), row(test="bingham"))
    svg = emit_svg(PowerTable(rows))
    markers = {c.get("fill") for c in elements(svg, "circle")
               if c.get("r") == "2.5"}
    assert len(markers) == 2


def test_labels_escaped():
    svg = emit_svg(PowerTable((row(test="v<1>"),)))
    ET.fromstring(svg)
    assert "v&lt;1&gt;" in svg
    # text content needs only &, < and > escaped; quotes stay as written
    svg = emit_svg(PowerTable((row(test="a&b<c>\"d'e"),)))
    assert ">a&amp;b&lt;c&gt;\"d'e, n=500 (" in svg
    legend = [el.text for el in elements(svg, "text") if el.text.startswith("a&b")]
    assert legend == ["a&b<c>\"d'e, n=500 (2,4)"]


def test_degenerate_tau_span():
    rows = (row(tau=1.0), row(n=5000, tau=1.0))
    svg = emit_svg(PowerTable(rows))
    ET.fromstring(svg)


def test_document_dimensions_cover_grid():
    svg = emit_svg(figure_shaped_table())
    root = ET.fromstring(svg)
    width = int(root.get("width"))
    height = int(root.get("height"))
    assert width >= 2 * 380
    assert height >= 2 * 300
    assert root.get("viewBox") == f"0 0 {width} {height}"


@pytest.mark.parametrize("kwargs, name", [
    ({}, "figure_alpha_0.05.svg"),
    ({"alpha": 0.1}, "figure_alpha_0.1.svg"),
])
def test_figure_matches_golden_bytes(kwargs, name):
    """The four-panel figure at the default level and at alpha = 0.1,
    byte for byte against the files in tests/golden/."""
    svg = emit_svg(figure_shaped_table(), **kwargs)
    assert svg == (GOLDEN_DIR / name).read_text(encoding="utf-8")
