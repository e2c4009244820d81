import xml.etree.ElementTree as ET

import numpy as np
import pytest

from levelmix import charts
from levelmix import evaluation as ev
from levelmix.errors import EmptyMatrix


def matrix(values, chars):
    return ev.TileDensityMatrix(values=np.array(values, dtype=float), tile_chars=list(chars), k=len(values))


def test_one_svg_per_component_and_well_formed():
    m = matrix([[1.0, 0.2], [0.5, 1.0], [0.0, 0.3]], ["X", "o"])
    documents = charts.emit_radial_charts(m)
    assert len(documents) == 3
    for doc in documents:
        root = ET.fromstring(doc)
        assert root.tag.endswith("svg")


def test_nan_row_gets_no_chart():
    m = matrix([[1.0, 0.2], [np.nan, np.nan], [0.0, 1.0]], ["X", "o"])
    documents = charts.emit_radial_charts(m)
    assert documents[1] is None
    assert documents[0] == charts.radial_chart_svg(m.values[0], ["X", "o"], 0)
    assert documents[2] == charts.radial_chart_svg(m.values[2], ["X", "o"], 2)


def test_full_density_bar_spans_max_radius():
    doc = charts.radial_chart_svg([1.0], ["X"], 0)
    root = ET.fromstring(doc)
    ns = {"s": "http://www.w3.org/2000/svg"}
    paths = root.findall("s:path", ns)
    assert len(paths) == 1
    # the arc radius in the path equals the chart's maximum radius
    d = paths[0].attrib["d"]
    assert f"A {charts.SIZE / 2.0 - charts.MARGIN:.2f}" in d


def test_zero_density_no_bar_but_label_present():
    doc = charts.radial_chart_svg([0.0, 1.0], ["o", "X"], 4)
    root = ET.fromstring(doc)
    ns = {"s": "http://www.w3.org/2000/svg"}
    assert len(root.findall("s:path", ns)) == 1  # only the full bar
    texts = [t.text for t in root.findall("s:text", ns)]
    assert "o" in texts and "X" in texts
    assert "component 4" in texts


def test_angle_order_follows_tile_order():
    doc = charts.radial_chart_svg([1.0, 1.0, 1.0, 1.0], list("ABCD"), 0)
    root = ET.fromstring(doc)
    ns = {"s": "http://www.w3.org/2000/svg"}
    labels = [t for t in root.findall("s:text", ns) if t.text in "ABCD"]
    # first tile sits at angle 0 (straight up), second to the east
    ax, ay = float(labels[0].attrib["x"]), float(labels[0].attrib["y"])
    bx, by = float(labels[1].attrib["x"]), float(labels[1].attrib["y"])
    assert ay < charts.SIZE / 2.0  # above center
    assert bx > charts.SIZE / 2.0  # east of center


def test_xml_escaping_of_angle_bracket_tiles():
    doc = charts.radial_chart_svg([0.5, 0.7], ["<", ">"], 1)
    root = ET.fromstring(doc)  # parse would fail without escaping
    ns = {"s": "http://www.w3.org/2000/svg"}
    texts = [t.text for t in root.findall("s:text", ns)]
    assert "<" in texts and ">" in texts


def test_empty_matrix_rejected():
    with pytest.raises(EmptyMatrix):
        charts.emit_radial_charts(matrix(np.zeros((0, 2)), ["X", "o"]))
    with pytest.raises(EmptyMatrix):
        charts.radial_chart_svg([], [], 0)


def test_bar_radius_clamped_to_unit():
    doc = charts.radial_chart_svg([2.5], ["X"], 0)  # out-of-range density
    root = ET.fromstring(doc)
    ns = {"s": "http://www.w3.org/2000/svg"}
    d = root.findall("s:path", ns)[0].attrib["d"]
    assert f"A {charts.SIZE / 2.0 - charts.MARGIN:.2f}" in d


def test_charts_from_trained_density_matrix(trained_gmvae, toy_setup):
    from levelmix import gmvae as gm

    model, _ = trained_gmvae
    rng = np.random.default_rng(0)
    groups = [gm.generate(model, i, 5, rng) for i in range(model.config.k)]
    m = ev.tile_densities(groups, model.vocab)
    documents = charts.emit_radial_charts(m)
    assert len(documents) == model.config.k
    for doc in documents:
        ET.fromstring(doc)
