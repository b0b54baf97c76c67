"""Reference generators and the vertex file format."""

import math

import numpy as np
import pytest

from meissner import (
    ParseError,
    ValidationMismatch,
    build_diameter_graph,
    build_meissner,
    load_vertex_file,
    meissner_area,
    regular_pyramid,
    regular_tetrahedron,
    save_vertex_file,
)

from conftest import TETRA_AREA


def test_regular_tetrahedron_is_extremal():
    vs = regular_tetrahedron()
    assert vs.m == 4
    assert vs.diameter_count == 6
    dists = [
        np.linalg.norm(vs.points[i] - vs.points[j])
        for i in range(4)
        for j in range(i + 1, 4)
    ]
    assert max(abs(d - 1.0) for d in dists) < 1e-12


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_regular_pyramid_structure(k):
    n = 2 * k + 1
    vs = regular_pyramid(k)
    assert vs.m == n + 1
    assert vs.diameter_count == 2 * vs.m - 2
    apex, base = vs.points[0], vs.points[1:]
    for b in base:
        assert np.linalg.norm(apex - b) == pytest.approx(1.0, abs=1e-12)
    # step-k diagonals of the base polygon realize the diameter, the
    # shorter steps stay strictly inside it
    for i in range(n):
        diag = np.linalg.norm(base[i] - base[(i + k) % n])
        assert diag == pytest.approx(1.0, abs=1e-12)
    for step in range(1, k):
        chord = np.linalg.norm(base[0] - base[step])
        assert chord < 1.0 - 1e-6


def test_pyramid_k1_matches_tetrahedron():
    area = meissner_area(build_meissner(regular_pyramid(1)))
    assert area == pytest.approx(TETRA_AREA, abs=1e-12)


def test_regular_pyramid_rejects_bad_k():
    with pytest.raises(ValueError):
        regular_pyramid(0)


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "pyr3.txt"
    vs = regular_pyramid(3)
    save_vertex_file(vs, path)
    loaded = load_vertex_file(path)
    # %.17g serialization reproduces doubles exactly
    assert np.array_equal(loaded.points, vs.points)


def test_save_load_with_edges(tmp_path):
    path = tmp_path / "tetra.txt"
    vs = regular_tetrahedron()
    save_vertex_file(vs, path, edges=True)
    text = path.read_text()
    assert "EDGES" in text
    loaded = load_vertex_file(path)
    assert loaded.diameter_count == 6


def test_edge_mismatch_detected(tmp_path):
    path = tmp_path / "bad_edges.txt"
    vs = regular_tetrahedron()
    save_vertex_file(vs, path, edges=True)
    lines = path.read_text().splitlines()
    lines.remove("0 1")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationMismatch) as info:
        load_vertex_file(path)
    assert "missing" in str(info.value)


def test_missing_file_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError):
        load_vertex_file(tmp_path / "nope.txt")


def test_parse_errors(tmp_path):
    cases = {
        "empty.txt": "",
        "bad_count.txt": "four\n",
        "too_few.txt": "3\n0 0 0\n1 0 0\n0 1 0\n",
        "short.txt": "4\n0 0 0\n1 0 0\n",
        "bad_coord.txt": "4\n0 0 0\n1 0 x\n0 1 0\n0 0 1\n",
        "two_coords.txt": "4\n0 0\n1 0 0\n0 1 0\n0 0 1\n",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ParseError):
            load_vertex_file(path)


def test_parse_error_names_the_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("4\n0 0 0\n1 0 0\nnot a point\n0 0 1\n")
    with pytest.raises(ParseError) as info:
        load_vertex_file(path)
    assert f"{path}:4" in str(info.value)


def test_bad_edge_section(tmp_path):
    vs = regular_tetrahedron()
    good = tmp_path / "good.txt"
    save_vertex_file(vs, good, edges=True)
    lines = good.read_text().splitlines()

    marker = tmp_path / "marker.txt"
    marker.write_text("\n".join(lines).replace("EDGES", "LINKS") + "\n")
    with pytest.raises(ParseError):
        load_vertex_file(marker)

    out_of_range = tmp_path / "range.txt"
    out_of_range.write_text("\n".join(lines).replace("0 1", "0 9", 1) + "\n")
    with pytest.raises(ParseError):
        load_vertex_file(out_of_range)

    # an edge line of one index, or a word, names its line
    for bad in ("0", "0 x"):
        broken = tmp_path / "edge.txt"
        broken.write_text("\n".join(lines + [bad]) + "\n")
        with pytest.raises(ParseError) as info:
            load_vertex_file(broken)
        assert f"{broken}:{len(lines) + 1}: bad edge line" in str(info.value)


def test_loading_applies_validation(tmp_path):
    # a parseable file with a non-extremal point set still fails
    path = tmp_path / "square-ish.txt"
    h = math.sqrt(3.0) / 2.0
    path.write_text(f"4\n0 0 0\n1 0 0\n0.5 {h} 0\n0.5 {h / 3} 0\n")
    from meissner import NotExtremal

    with pytest.raises(NotExtremal):
        load_vertex_file(path)
