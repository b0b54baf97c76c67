"""End-to-end command line tests, exercised in process through main()."""

import math

import numpy as np
import pytest

import meissner.cli
from meissner import McResult, build_meissner, load_vertex_file, meissner_volume, regular_tetrahedron
from meissner.cli import main
from conftest import TETRA_AREA, TETRA_VOLUME, triangle_center_set


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def tetra_file(tmp_path, capsys):
    path = tmp_path / "tetra.txt"
    code, out, err = run(capsys, "gen", "tetra", "--out", str(path))
    assert code == 0
    assert out == f"wrote 4 points to {path}\n"
    return str(path)


@pytest.fixture
def pyr2_file(tmp_path, capsys):
    path = tmp_path / "pyr2.txt"
    code, _, _ = run(capsys, "gen", "pyramid:2", "--out", str(path), "--edges")
    assert code == 0
    return str(path)


def test_validate(tetra_file, capsys):
    code, out, err = run(capsys, "validate", tetra_file)
    assert code == 0
    assert err == ""
    assert out.splitlines() == [
        "points: 4",
        "unit distances: 6",
        "max distance: 1",
        "dual pairs: 3",
        "valid extremal set",
    ]


def test_validate_pyramid(pyr2_file, capsys):
    assert "EDGES" in open(pyr2_file).read()
    code, out, _ = run(capsys, "validate", pyr2_file)
    assert code == 0
    assert "points: 6" in out
    assert "dual pairs: 5" in out


def test_validate_missing_file(tmp_path, capsys):
    code, out, err = run(capsys, "validate", str(tmp_path / "nope.txt"))
    assert code == 2
    assert err.startswith("error:")


def test_validate_rejects_bad_set(tmp_path, capsys):
    pts = triangle_center_set()
    path = tmp_path / "flat.txt"
    path.write_text("4\n" + "\n".join(" ".join(f"{c:.17g}" for c in p) for p in pts) + "\n")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "error:" in err


def test_analyze(tetra_file, tmp_path, capsys):
    csv = tmp_path / "report.csv"
    code, out, _ = run(capsys, "analyze", tetra_file, "--csv", str(csv))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "pair,e_i,e_j,dual_i,dual_j,theta,theta_dual,phi,phi_dual,alpha,f"
    assert len(lines) == 1 + 3 + 4  # header, one row per pair, smoothing + 3 summaries
    assert lines[4].startswith("smoothing,")
    values = dict(line.split(",", 1) for line in lines[5:])
    assert float(values["meissner_area"]) == pytest.approx(TETRA_AREA, abs=1e-12)
    assert float(values["meissner_volume"]) == pytest.approx(TETRA_VOLUME, abs=1e-12)
    csv_lines = csv.read_text().splitlines()
    assert csv_lines[0] == lines[0]
    assert len(csv_lines) == 1 + 3 + 3  # no smoothing row in the file


def test_each_main_call_parses_its_own_smoothing(tetra_file, capsys):
    # the parser is built once per process, so no option may leak from one call into the next
    optimal = "".join("1" if b else "0" for b in build_meissner(load_vertex_file(tetra_file)).choice.bits)
    other = "".join("0" if c == "1" else "1" for c in optimal)
    code, out, _ = run(capsys, "analyze", tetra_file, "--smoothing", f"bits:{other}")
    assert code == 0
    assert f"smoothing,{other}" in out.splitlines()
    code, out, _ = run(capsys, "analyze", tetra_file)
    assert code == 0
    assert f"smoothing,{optimal}" in out.splitlines()


def test_analyze_smoothing_bits(tetra_file, capsys):
    code, out, _ = run(capsys, "analyze", tetra_file, "--smoothing", "bits:010")
    assert code == 0
    assert "smoothing,010" in out.splitlines()

    for bad in ("010", "bits:01", "bits:012"):
        code, _, err = run(capsys, "analyze", tetra_file, "--smoothing", bad)
        assert code == 2
        assert "smoothing" in err


def test_enumerate(tetra_file, tmp_path, capsys):
    csv = tmp_path / "table.csv"
    code, out, _ = run(capsys, "enumerate", tetra_file, "--csv", str(csv))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "bits,area"
    assert len(lines) == 1 + 2**3 + 1
    tag, bits, area = lines[-1].split(",")
    assert tag == "minimum"
    assert len(bits) == 3
    assert float(area) == pytest.approx(TETRA_AREA, abs=1e-12)
    assert csv.read_text().splitlines() == lines[:-1]


def test_mc_check_deterministic(tetra_file, capsys):
    argv = ("mc-check", tetra_file, "--samples", "20000", "--seed", "3")
    code, first, _ = run(capsys, *argv)
    assert code == 0
    code, again, _ = run(capsys, *argv)
    assert again == first
    code, threaded, _ = run(capsys, *argv, "--threads", "3")
    assert threaded == first

    header, row = first.splitlines()
    assert header == "volume,std_error,samples,seed,closed_form,sigmas"
    fields = row.split(",")
    assert fields[2] == "20000" and fields[3] == "3"
    assert float(fields[5]) < 6.0


def test_mc_check_sigmas_without_spread(tetra_file, capsys, monkeypatch):
    # one sample has no spread: a miss by more than the whole volume is infinitely many sigmas
    code, out, _ = run(capsys, "mc-check", tetra_file, "--samples", "1", "--seed", "3")
    assert code == 0
    assert out.splitlines()[1] == "1.0495288290548281,0,1,3,0.41986004596508053,inf"
    # and an exact hit without spread has no sigma count
    closed = meissner_volume(build_meissner(load_vertex_file(tetra_file)))

    def exact(system, samples, seed, threads):
        return McResult(closed, 0.0, samples, seed, 1)

    monkeypatch.setattr(meissner.cli, "mc_volume", exact)
    code, out, _ = run(capsys, "mc-check", tetra_file, "--samples", "1", "--seed", "3")
    assert code == 0
    assert out.splitlines()[1].split(",")[5] == "nan"


def test_mc_check_bad_arguments(tetra_file, capsys):
    code, _, err = run(capsys, "mc-check", tetra_file, "--samples", "0")
    assert code == 2
    assert "--samples" in err
    code, _, err = run(capsys, "mc-check", tetra_file, "--threads", "-1")
    assert code == 2
    assert "--threads" in err


def test_gen_unknown_generator(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "hexagon", "--out", str(tmp_path / "x.txt"))
    assert code == 2
    assert "unknown generator" in err
    code, _, err = run(capsys, "gen", "pyramid:zero", "--out", str(tmp_path / "x.txt"))
    assert code == 2
    code, _, err = run(capsys, "gen", "pyramid:0", "--out", str(tmp_path / "x.txt"))
    assert code == 2


def test_usage_errors(capsys):
    assert run(capsys, )[0] == 64
    assert run(capsys, "frobnicate")[0] == 64
    assert run(capsys, "validate")[0] == 64
    assert run(capsys, "enumerate", "x.txt", "--bogus")[0] == 64


def test_tolerance_env(tmp_path, capsys, monkeypatch):
    rng = np.random.Generator(np.random.Philox(7))
    pts = regular_tetrahedron().points + rng.uniform(-5e-8, 5e-8, size=(4, 3))
    path = tmp_path / "noisy.txt"
    path.write_text("4\n" + "\n".join(" ".join(f"{c:.17g}" for c in p) for p in pts) + "\n")

    code, _, err = run(capsys, "validate", str(path))
    assert code == 2  # default tolerance 1e-9 rejects the noise

    monkeypatch.setenv("MEISSNER_TOL", "1e-6")
    assert run(capsys, "validate", str(path))[0] == 0

    monkeypatch.setenv("MEISSNER_TOL", "abc")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "MEISSNER_TOL" in err

    monkeypatch.setenv("MEISSNER_TOL", "2.0")
    assert run(capsys, "validate", str(path))[0] == 2


def test_analyze_at_a_loose_tolerance(tmp_path, capsys, monkeypatch):
    # seed 0's set validates at 1e-5 but has an arc endpoint 1.1e-6 off its circle's plane
    pts = regular_tetrahedron().points + np.random.default_rng(0).normal(scale=4e-7, size=(4, 3))
    path = tmp_path / "noisy.txt"
    path.write_text("4\n" + "\n".join(" ".join(f"{c:.17g}" for c in p) for p in pts) + "\n")
    monkeypatch.setenv("MEISSNER_TOL", "1e-5")
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, err) == (0, "")
    values = dict(line.split(",", 1) for line in out.splitlines()[5:])
    assert float(values["meissner_volume"]) == pytest.approx(TETRA_VOLUME, abs=1e-4)


def test_f_table(tmp_path, capsys):
    csv = tmp_path / "f.csv"
    code, out, _ = run(capsys, "f-table", "--grid", "12", "--csv", str(csv))
    assert code == 0
    for name in (
        "increasing_x",
        "increasing_y",
        "convex_x",
        "convex_y",
        "swap_dominance",
        "derivative_match",
    ):
        assert f"{name}: PASS" in out
    assert "FAIL" not in out
    rows = csv.read_text().splitlines()
    assert rows[0] == "x,y,f"
    assert len(rows) == 1 + 12 * 12

    code, _, err = run(capsys, "f-table", "--grid", "1", "--csv", str(csv))
    assert code == 2
    assert "--grid" in err


def test_mesh_command(tetra_file, tmp_path, capsys):
    out_path = tmp_path / "tetra.obj"
    code, out, _ = run(capsys, "mesh", tetra_file, "--refine", "1", "--out", str(out_path))
    assert code == 0
    gap = float(next(l for l in out.splitlines() if l.startswith("relative gap:")).split(":")[1])
    assert gap < 0.2
    assert out_path.read_text().startswith("v ")

    ply_path = tmp_path / "tetra.ply"
    code, out, _ = run(
        capsys, "mesh", tetra_file, "--refine", "1", "--out", str(ply_path),
        "--format", "ply", "--body", "reuleaux",
    )
    assert code == 0
    assert ply_path.read_text().startswith("ply\n")

    code, _, err = run(capsys, "mesh", tetra_file, "--refine", "9", "--out", str(out_path))
    assert code == 2
    assert "--refine" in err


def test_pyramid_command(tmp_path, capsys):
    csv = tmp_path / "restarts.csv"
    code, out, _ = run(capsys, "pyramid", "--n", "3", "--restarts", "1", "--csv", str(csv))
    assert code == 0
    assert "all restarts at or above the bound: yes" in out
    # n = 3 base vertices is the tetrahedron corner of the family
    area = float(next(l for l in out.splitlines() if l.startswith("best area:")).split(":")[1])
    assert area == pytest.approx(TETRA_AREA, abs=1e-6)
    rows = csv.read_text().splitlines()
    assert rows[0] == "restart,objective,area,residual,rounds,converged,validated,meets_bound"
    assert len(rows) == 2
    assert rows[1].startswith("0,")
    # the objective column is the smoothing gain, 2*pi - area
    objective, area = map(float, rows[1].split(",")[1:3])
    assert objective + area == pytest.approx(2.0 * math.pi, abs=1e-12)

    code, _, err = run(capsys, "pyramid", "--n", "4")
    assert code == 2


def test_search_command(tetra_file, capsys):
    code, out, _ = run(capsys, "search", tetra_file, "--restarts", "1")
    assert code == 0
    lines = out.splitlines()
    area = float(next(l for l in lines if l.startswith("best area:")).split(":")[1])
    assert area == pytest.approx(TETRA_AREA, abs=1e-6)
    assert any(l.startswith("restart 0:") and l.endswith("ok") for l in lines)


def test_zero_restarts_are_rejected(tetra_file, capsys):
    for argv in (("pyramid", "--n", "5"), ("search", tetra_file)):
        code, _, err = run(capsys, *argv, "--restarts", "0")
        assert code == 2
        assert "restarts" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("pyramid", "--n", "4", "--csv", "OUT"),
        ("analyze", "FILE", "--smoothing", "bits:01", "--csv", "OUT"),
        ("mc-check", "FILE", "--seed", "-1"),
        ("search", "FILE", "--restarts", "2", "--seed", "-1"),
        ("mc-check", "FILE", "--samples", "0"),
        ("mesh", "FILE", "--refine", "9", "--out", "OUT"),
        ("f-table", "--grid", "1", "--csv", "OUT"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_invalid_input_exits_2_with_one_error_line(argv, tetra_file, tmp_path, capsys):
    before = sorted(tmp_path.iterdir())
    argv = [{"FILE": tetra_file, "OUT": str(tmp_path / "out.txt")}.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert sorted(tmp_path.iterdir()) == before


def test_gen_ignores_the_tolerance_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MEISSNER_TOL", "abc")
    path = tmp_path / "tetra.txt"
    code, out, err = run(capsys, "gen", "tetra", "--out", str(path))
    assert (code, err) == (0, "")
    assert load_vertex_file(path).m == 4
