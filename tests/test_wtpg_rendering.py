"""Focused tests for WTPG construction and rendering details."""

import pytest

from repro.profiler.postprocess import ComponentMetrics, ProfileAnalysis
from repro.profiler.wtpg import (_wait_to_color, bottleneck_nodes, build_wtpg,
                                 to_dot, to_text)


def analysis_with(waits: dict, edges: dict) -> ProfileAnalysis:
    comps = {}
    for name, wait_frac in waits.items():
        cm = ComponentMetrics(comp=name)
        cm.work_cycles = (1 - wait_frac) * 1000
        cm.wait_cycles = wait_frac * 1000
        comps[name] = cm
    return ProfileAnalysis(sim_speed=0.01, wall_seconds=1.0, sim_seconds=0.01,
                           components=comps, edge_wait_fraction=edges)


def test_color_spectrum_endpoints():
    # exact endpoints: warm red for a pure bottleneck, dashboard green
    # for a fully-waiting node (green ramps 55 -> 200, never zero)
    assert _wait_to_color(0.0) == "#ff3740"
    assert _wait_to_color(1.0) == "#00c840"


def test_color_midpoint_interpolates_green():
    # both channels hit 127 halfway: red 255->0, green 55->200
    assert _wait_to_color(0.5) == "#7f7f40"


def test_color_ramp_is_monotonic():
    fracs = [i / 10 for i in range(11)]
    greens = [int(_wait_to_color(f)[3:5], 16) for f in fracs]
    reds = [int(_wait_to_color(f)[1:3], 16) for f in fracs]
    assert greens == sorted(greens) and greens[0] == 0x37
    assert reds == sorted(reds, reverse=True)


def test_color_clamps_out_of_range():
    assert _wait_to_color(-1.0) == _wait_to_color(0.0)
    assert _wait_to_color(2.0) == _wait_to_color(1.0)


def test_graph_has_nodes_and_edges():
    analysis = analysis_with({"a": 0.1, "b": 0.9},
                             {("b", "a"): 0.9})
    g = build_wtpg(analysis)
    assert set(g.nodes) == {"a", "b"}
    assert g.edges["b", "a"]["wait_fraction"] == 0.9
    assert g.nodes["a"]["wait_fraction"] == pytest.approx(0.1)


def test_edge_to_unknown_node_creates_it():
    analysis = analysis_with({"a": 0.5}, {("a", "ghost"): 0.5})
    g = build_wtpg(analysis)
    assert "ghost" in g.nodes


def test_bottleneck_threshold():
    analysis = analysis_with({"hot": 0.05, "warm": 0.4, "cold": 0.95}, {})
    g = build_wtpg(analysis)
    assert bottleneck_nodes(g, threshold=0.25) == ["hot"]
    assert set(bottleneck_nodes(g, threshold=0.5)) == {"hot", "warm"}


def test_dot_output_is_valid_shape():
    analysis = analysis_with({"a": 0.2, "b": 0.8}, {("b", "a"): 0.8})
    dot = to_dot(build_wtpg(analysis), title="T")
    assert dot.startswith("digraph wtpg {")
    assert dot.rstrip().endswith("}")
    assert '"b" -> "a" [label="80%"];' in dot
    assert 'label="T"' in dot


def test_text_output_ranks_by_wait():
    analysis = analysis_with({"idle": 0.9, "busy": 0.1}, {})
    text = to_text(build_wtpg(analysis))
    assert text.index("busy") < text.index("idle")
    assert "BOTTLENECK" in text
