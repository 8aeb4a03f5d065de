"""End-to-end checks of the command-line interface (in process)."""

import csv
import json
import math
import warnings

import numpy as np
import pytest

from conforminv import QuadConfig, cli, invariants, kernel
from conforminv.cli import main
from conforminv.curves import make_amoeba, make_opened_slit_disk, make_polygon
from conforminv.exact import oracle_reduced_modulus
from conforminv.invariants import conformal_radius, harmonic_measure, reduced_modulus_slit_disk

FULL_TURN = 2.0 * math.pi


@pytest.fixture
def disk_json(tmp_path):
    path = tmp_path / "disk.json"
    path.write_text(json.dumps(
        {"kind": "arcs", "arcs": [[[0, 0], 1.0, 0.0, FULL_TURN]], "ns": 256}))
    return str(path)


@pytest.fixture
def square_json(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(
        {"kind": "polygon",
         "vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]],
         "ns": 128}))
    return str(path)


@pytest.fixture
def lshape_json(tmp_path):
    path = tmp_path / "L.json"
    path.write_text(json.dumps(
        {"kind": "polygon",
         "vertices": [[6, 1], [1, 1], [1, 4], [-1, 4], [-1, -1], [6, -1]],
         "ns": 128}))
    return str(path)


@pytest.fixture
def ellipse_json(tmp_path):
    path = tmp_path / "E.json"
    path.write_text(json.dumps(
        {"kind": "ellipse", "a": 1.0, "b": 0.5, "side": "exterior", "n": 256}))
    return str(path)


@pytest.fixture
def slit_json(tmp_path):
    path = tmp_path / "G3.json"
    path.write_text(json.dumps(
        {"kind": "opened_slit", "case": "G3", "r": 0.6, "a": 0.2, "ns": 64}))
    return str(path)


def _stdout_float(capsys):
    return float(capsys.readouterr().out.strip().splitlines()[-1])


def test_hypdist_scalar(disk_json, capsys):
    rc = main(["hypdist", disk_json, "--z1", "0", "--z2", "0.5"])
    assert rc == 0
    # unit disk: d(0, 1/2) = 2 atanh(1/2) = log 3
    assert abs(_stdout_float(capsys) - math.log(3.0)) < 1e-10


def test_hypdist_grid_csv(disk_json, tmp_path):
    out = tmp_path / "field.csv"
    rc = main(["hypdist", disk_json, "--z1", "0",
               "--grid=-0.8,0.8,-0.8,0.8,4,4", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["x", "y", "inside", "value"]
    assert len(rows) == 1 + 16
    by_flag = {r[2] for r in rows[1:]}
    assert by_flag == {"0", "1"}
    for r in rows[1:]:
        if r[2] == "0":
            assert r[3] == "nan"
        else:
            assert np.isfinite(float(r[3]))


def test_repeated_grid_run_reuses_the_solve(lshape_json, tmp_path, assemblies):
    # a second run in the same process rebuilds the curve from the file,
    # hits the memoized solve and writes the same bytes
    outs = [tmp_path / "first.csv", tmp_path / "second.csv"]
    counts = []
    for out in outs:
        assert main(["hypdist", lshape_json, "--z1", "2i",
                     "--grid=-1,6,-1,4,15,11", "--out", str(out)]) == 0
        counts.append(len(assemblies))
    assert counts == [1, 1]
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_hypdist_grid_json(disk_json, tmp_path):
    out = tmp_path / "field.json"
    rc = main(["hypdist", disk_json, "--z1", "0.1+0.1i",
               "--grid=-0.5,0.5,-0.5,0.5,3,3",
               "--out", str(out), "--format", "json"])
    assert rc == 0
    doc = json.load(out.open())
    assert len(doc["grid_x"]) == 3 and len(doc["grid_y"]) == 3
    assert len(doc["values"]) == 3 and len(doc["values"][0]) == 3
    assert doc["inside"][1][1] is True


def test_harm_grid_matches_pointwise(square_json, tmp_path):
    # a negative first grid value needs the --grid=... form
    grid = "--grid=-0.9,0.9,-0.9,0.9,7,7"
    harm_out, dist_out = tmp_path / "harm.csv", tmp_path / "dist.csv"
    assert main(["harm", square_json, "--side", "2", grid, "--out", str(harm_out)]) == 0
    assert main(["hypdist", square_json, "--z1", "0", grid, "--out", str(dist_out)]) == 0
    rows = list(csv.reader(harm_out.open()))[1:]
    assert [r[:3] for r in rows] == [r[:3] for r in list(csv.reader(dist_out.open()))[1:]]
    inside = [r for r in rows if r[2] == "1"]
    assert 0 < len(inside) < len(rows)
    z = [complex(float(x), float(y)) for x, y, _, _ in inside]
    want = harmonic_measure(make_polygon([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j], 128), 2, 0.0, z)
    np.testing.assert_allclose([float(r[3]) for r in inside], want, rtol=0, atol=1e-12)

    assert main(["harm", square_json, "--sum", grid, "--out", str(harm_out)]) == 0
    sums = [float(r[3]) for r in csv.reader(harm_out.open()) if r[2] == "1"]
    np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-8)


def test_node_collapse_is_validation_error(tmp_path, capsys):
    path = tmp_path / "L.json"
    path.write_text(json.dumps(
        {"kind": "polygon",
         "vertices": [[6, 1], [1, 1], [1, 4], [-1, 4], [-1, -1], [6, -1]]}))
    rc = main(["hypdist", str(path), "--ns", "1024", "--grading-p", "6",
               "--z1", "2i", "--z2", "3"])
    assert rc == 2
    assert "lower the grading exponent" in capsys.readouterr().err


def test_redmod_exterior_scalar(tmp_path, capsys):
    path = tmp_path / "eext.json"
    path.write_text(json.dumps(
        {"kind": "ellipse", "a": 1.0, "b": 0.5, "side": "exterior", "n": 512}))
    rc = main(["redmod", str(path)])
    assert rc == 0
    ref = oracle_reduced_modulus("ellipse_exterior", 0.5)
    assert abs(_stdout_float(capsys) - ref) < 1e-12


def test_redmod_sweep(tmp_path):
    path = tmp_path / "eext.json"
    path.write_text(json.dumps(
        {"kind": "ellipse", "a": 1.0, "b": 0.5, "side": "exterior", "n": 512}))
    out = tmp_path / "sweep.csv"
    rc = main(["redmod", str(path), "--sweep", "0.4:0.8:0.2", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["parameter", "computed", "exact", "abs_error"]
    assert len(rows) == 4
    assert [float(r[0]) for r in rows[1:]] == pytest.approx([0.4, 0.6, 0.8])
    assert all(float(r[3]) < 1e-10 for r in rows[1:])


@pytest.mark.parametrize("desc, sweep, family, want, tol", [
    # interior ellipses (cosh r, sinh r), base 0
    ({"kind": "ellipse", "a": 1.0, "b": 0.5, "n": 512}, "0.2:0.6:0.2",
     "ellipse_interior", [0.2, 0.4, 0.6], 1e-10),
    # opened G3 slit disks at a = 0.2: r <= a is skipped, and the coarse
    # ns = 64 is within the slit families' 1e-6 up to r = 0.5
    ({"kind": "opened_slit", "case": "G3", "r": 0.6, "a": 0.2, "ns": 64}, "0.1:0.5:0.1",
     "G3", [0.3, 0.4, 0.5], 1e-6),
], ids=["ellipse-interior", "slit-G3"])
def test_redmod_sweep_families(desc, sweep, family, want, tol, tmp_path):
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(desc))
    out = tmp_path / "sweep.csv"
    assert main(["redmod", str(path), "--sweep", sweep, "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))[1:]
    params = [float(r[0]) for r in rows]
    assert params == pytest.approx(want)
    exact = [oracle_reduced_modulus(family, r, desc.get("a", 0.0)) for r in params]
    assert [float(r[2]) for r in rows] == pytest.approx(exact, rel=1e-14)
    assert all(abs(float(r[1]) - e) < tol for r, e in zip(rows, exact))


def test_redmod_ngon_sweep(tmp_path):
    out = tmp_path / "ngon.csv"
    rc = main(["redmod", "--ngon-sweep", "3:5", "--ns", "128", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["parameter", "computed"]
    moduli = [float(r[1]) for r in rows[1:]]
    # inscribed in the unit circle, so below the disk's modulus 0,
    # and approaching it from below as the polygon gains sides
    assert all(m < 0.0 for m in moduli)
    assert moduli == sorted(moduli)


def test_confrad_disk(disk_json, capsys):
    rc = main(["confrad", disk_json, "--base", "0"])
    assert rc == 0
    assert abs(_stdout_float(capsys) - 1.0) < 1e-12


def test_redmod_opened_slit_scalar_is_the_library_value(slit_json, capsys):
    assert main(["redmod", slit_json]) == 0
    assert capsys.readouterr().out == f"{reduced_modulus_slit_disk('G3', 0.6, 0.2, n_s=64):.15g}\n"


@pytest.mark.parametrize("desc, curve, base", [
    ({"kind": "opened_slit", "case": "G3", "r": 0.6, "a": 0.2, "ns": 64},
     lambda: make_opened_slit_disk("G3", 0.6, 0.2, 64), "0.8"),
    ({"kind": "amoeba", "n": 256}, lambda: make_amoeba(256), "0"),
    # vertices as complex literals, and as plain numbers
    ({"kind": "polygon", "vertices": ["1+1i", "-1+1i", "-1-1i", "1-1i"], "ns": 32},
     lambda: make_polygon([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j], 32), "0.1+0.1j"),
    ({"kind": "polygon", "vertices": [1, "1i", -1, "-1i"], "ns": 32},
     lambda: make_polygon([1, 1j, -1, -1j], 32), "0.1+0.1j"),
], ids=["opened-slit", "amoeba", "string-vertices", "number-vertices"])
def test_confrad_domain_file_is_the_library_value(desc, curve, base, tmp_path, capsys):
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(desc))
    assert main(["confrad", str(path), "--base", base]) == 0
    assert capsys.readouterr().out == f"{conformal_radius(curve(), complex(base)):.15g}\n"


def test_cli_leaves_library_defaults_to_the_library(lshape_json, tmp_path, monkeypatch):
    # a value that no flag and no domain file field gives is not passed on,
    # so the builders' and QuadConfig's own defaults apply
    calls = []

    def spy(name):
        def call(*args, **kwargs):
            calls.append((name, kwargs))
            raise ValueError("spied")  # main reports it as exit 2; nothing is solved
        return call

    for name in ("make_polygon", "make_opened_slit_disk", "reduced_modulus_slit_disk",
                 "quad_modulus"):
        monkeypatch.setattr(cli, name, spy(name))
    slit = tmp_path / "G1.json"
    slit.write_text(json.dumps({"kind": "opened_slit", "case": "G1", "r": 0.5}))
    for argv in (["confrad", lshape_json, "--base", "2i"], ["confrad", str(slit), "--base", "0.8"],
                 ["redmod", str(slit)], ["quadmod", "--points", "1,i,-1,-i"]):
        assert main(argv) == 2
    assert [name for name, _ in calls] == ["make_polygon", "make_opened_slit_disk",
                                           "reduced_modulus_slit_disk", "quad_modulus"]
    assert all(not {"p", "n_s", "a"} & kwargs.keys() for _, kwargs in calls)
    assert calls[-1][1]["cfg"] == QuadConfig()

    # given values do reach the library
    calls.clear()
    assert main(["confrad", str(slit), "--base", "0.8", "--ns", "64", "--grading-p", "4"]) == 2
    assert main(["quadmod", "--points", "1,i,-1,-i", "--ns", "64"]) == 2
    assert calls[0][1] == {"n_s": 64, "p": 4.0}
    assert calls[1][1]["cfg"] == QuadConfig(n_s=64)


def test_solver_failure_exit_code(lshape_json, capsys, monkeypatch):
    monkeypatch.setattr(kernel, "_MAX_ITERS", 1)
    assert main(["hypdist", lshape_json, "--z1", "2i", "--z2", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "solver failure" in captured.err


def test_harm_center_and_sum(square_json, capsys):
    rc = main(["harm", square_json, "--side", "2", "--z", "0"])
    assert rc == 0
    assert abs(_stdout_float(capsys) - 0.25) < 1e-8

    rc = main(["harm", square_json, "--z", "0.3+0.2i", "--sum"])
    assert rc == 0
    assert abs(_stdout_float(capsys) - 1.0) < 1e-8


def test_harm_default_base_on_l_shape(lshape_json, capsys):
    # the L's vertex and node means lie outside it; the default base must not
    argv = ["harm", lshape_json, "--ns", "512", "--side", "2", "--z", "0.5+2i"]
    assert main(argv) == 0
    default = _stdout_float(capsys)
    assert main(argv + ["--alpha", "2i"]) == 0
    assert abs(default - _stdout_float(capsys)) < 1e-8


def test_quadmod_angles_with_oracle_and_trace(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    rc = main(["quadmod", "--angles-pi=-1,-0.5,0,0.5", "--ns", "128",
               "--oracle", "--trace", str(trace)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    values = {}
    for line in lines:
        key, _, text = line.partition("=")
        values[key.strip()] = float(text)
    assert abs(values["r"] - 1.0) < 1e-10
    assert abs(values["oracle"] - 1.0) < 1e-14
    assert values["rel_error"] < 1e-10
    rows = list(csv.reader(trace.open()))
    assert rows[0] == ["k", "r_k", "abs_step", "delta_k"]
    assert len(rows) == 2 + int(values["iterations"])
    assert float(rows[1][1]) == 1.0  # the iteration starts from r = 1


def test_quadmod_oracle_takes_angles_past_two_pi(capsys):
    # 3.5 pi marks -i, as 1.5 pi does; the oracle used to refuse the raw
    # offset 3.5 pi after the iteration had printed its result, with exit 2
    assert main(["quadmod", "--angles-pi=0,0.5,1,3.5", "--ns", "64", "--oracle"]) == 0
    captured = capsys.readouterr()
    assert "oracle = 1\n" in captured.out
    assert captured.err == ""


def test_quadmod_points_mode(capsys):
    rc = main(["quadmod", "--points", "1,i,-1,-i", "--ns", "128"])
    assert rc == 0
    out = capsys.readouterr().out
    r = float(out.splitlines()[0].partition("=")[2])
    assert abs(r - 1.0) < 1e-10


@pytest.mark.parametrize("mode", [["--points", "1,i,-1,-i"],
                                  ["{square}", "--params", "0,1.5,3,4.5"]])
def test_quadmod_oracle_rejected_before_solving(mode, square_json, capsys):
    argv = ["quadmod", "--ns", "64", "--oracle"] + [a.format(square=square_json) for a in mode]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--oracle applies to --angles-pi mode" in captured.err


def test_quadmod_nonconvergence_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(invariants, "_QUAD_MAX_ITER", 2)
    trace = tmp_path / "trace.csv"
    rc = main(["quadmod", "--angles-pi=-0.5,-0.1,0.3,0.8", "--ns", "64",
               "--trace", str(trace)])
    assert rc == 4
    captured = capsys.readouterr()
    assert "did not converge" in captured.err
    assert captured.out.startswith("r = ")  # partial result still reported
    rows = list(csv.reader(trace.open()))
    assert len(rows) == 4  # header + r_0, r_1, r_2


@pytest.mark.parametrize("argv", [
    ["hypdist", "{path}", "--z1", "0"],                   # no --z2 / --grid
    ["hypdist", "{path}", "--z1", "0", "--z2", "5"],      # z2 outside
    ["redmod", "{path}"],                                 # bounded, no base
    ["quadmod"],                                          # nothing to solve
    ["quadmod", "--angles-pi=-1,0,-0.5,0.5"],             # not ccw ordered
    ["harm", "{path}", "--z", "5+5i"],                    # z outside
    # a sweep step that is zero or not finite
    ["redmod", "{E}", "--sweep", "0.1:1:0"],
    ["redmod", "{E}", "--sweep", "0.1:1:nan"],
    ["redmod", "{E}", "--sweep", "0.1:inf:0.1"],
    # sweep ranges that hold no value
    ["redmod", "{E}", "--sweep", "1:0.9:0.1"],
    ["redmod", "{E}", "--sweep", "1:0.5:0.1"],
    ["redmod", "--ngon-sweep", "5:3"],
    # nan marked points or parameters
    ["quadmod", "{L}", "--params", "nan,1,2,3"],
    ["quadmod", "--angles-pi=nan,0.5,1,1.5"],
    ["quadmod", "--points", "nan,1j,-1,-1j"],
    # base points outside the domain or not finite
    ["hypdist", "{L}", "--z1", "2i", "--z2", "2", "--alpha", "10"],
    ["hypdist", "{L}", "--z1", "2i", "--z2", "2", "--alpha", "nan"],
    ["hypdist", "{L}", "--z1", "nan", "--z2", "2"],
    # an explicit 0 reaches validation instead of the default
    ["quadmod", "--angles-pi=-1,-0.5,0,0.5", "--ns", "0"],
    ["quadmod", "--angles-pi=-1,-0.5,0,0.5", "--grading-p", "0"],
    # a grid extent that is not finite
    ["hypdist", "{L}", "--z1", "2i", "--grid=-1,inf,-1,4,5,5", "--out", "{out}"],
    # no DOMAIN and no --ngon-sweep
    ["redmod"],
    ["redmod", "--sweep", "0.1:1:0.1"],
    # an opened slit disk has its family's base point
    ["redmod", "{G3}", "--ns", "64", "--base", "0.1"],
    # the modes of one subcommand exclude each other
    ["hypdist", "{L}", "--z1", "2i", "--z2", "5", "--grid=-1,6,-1,4,5,5", "--out", "{out}"],
    ["harm", "{path}", "--z", "0", "--grid=-0.9,0.9,-0.9,0.9,7,7", "--out", "{out}"],
    ["harm", "{path}", "--z", "0", "--side", "2", "--sum"],
    ["quadmod", "--angles-pi=-1,-0.5,0,0.5", "--points", "1,i,-1,-i"],
    ["redmod", "{E}", "--sweep", "0.4:0.6:0.2", "--ngon-sweep", "3:4"],
    # input that the chosen mode would not read
    ["quadmod", "{L}", "--angles-pi=-1,-0.5,0,0.5"],
    ["quadmod", "--points", "1,i,-1,-i", "--alpha", "0.5"],
    ["quadmod", "--params", "0,1.5,3,4.5"],
    ["redmod", "{E}", "--ngon-sweep", "3:4"],
    ["redmod", "--ngon-sweep", "3:4", "--base", "0.1"],
    ["redmod", "{E}", "--sweep", "0.4:0.6:0.2", "--base", "0.3"],
    ["hypdist", "{path}", "--z1", "0", "--z2", "0.5", "--out", "{out}"],
    ["harm", "{path}", "--z", "0", "--out", "{out}"],
    ["hypdist", "{path}", "--z1", "0", "--z2", "0.5", "--format", "json"],
    ["redmod", "{E}", "--out", "{out}"],
    # options that a subcommand does not have
    ["confrad", "{E}", "--out", "{out}"],
    ["quadmod", "--angles-pi=-1,-0.5,0,0.5", "--format", "json"],
    ["redmod", "{E}", "--format", "json"],
    # mode values that do not parse
    ["quadmod", "--angles-pi=-1,-0.5,0"],
    ["hypdist", "{path}", "--z1", "zero", "--z2", "0.5"],
    # a smooth domain has no grading exponent
    ["confrad", "{E}", "--grading-p", "7"],
    # node counts a builder refuses
    ["confrad", "{G3}", "--ns", "4"],
    ["confrad", "{E}", "--ns", "5"],
    ["hypdist", "{L}", "--z1", "2i", "--z2", "2", "--ns", "7"],
    # a side the domain does not have, and sides of a domain with no corners
    ["harm", "{path}", "--side", "5", "--z", "0"],
    ["harm", "{E}", "--sum", "--z", "2"],
    # a finite base on an unbounded domain, and a family with no oracle
    ["confrad", "{E}", "--base", "0"],
    ["redmod", "{L}", "--sweep", "0.1:0.5:0.1"],
    # a grid of five values
    ["hypdist", "{L}", "--z1", "2i", "--grid=-1,6,-1,4,5", "--out", "{out}"],
])
def test_validation_exit_codes(argv, disk_json, square_json, lshape_json, ellipse_json,
                               slit_json, tmp_path, capsys):
    path = square_json if argv[0] == "harm" else disk_json
    out = tmp_path / "f.csv"
    argv = [a.format(path=path, L=lshape_json, E=ellipse_json, G3=slit_json, out=out)
            for a in argv]
    rc = main(argv)
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["redmod", "{E}", "--sweep", "1:0.9:0.1"], "sweep range is empty"),
    (["redmod", "{E}", "--sweep", "1:0.5:0.1"], "sweep range is empty"),
    (["redmod", "--ngon-sweep", "5:3"], "ngon sweep range is empty"),
    (["quadmod", "{L}", "--params", "nan,1,2,3"], "strictly increasing"),
    (["quadmod", "--angles-pi=nan,0.5,1,1.5"], "must lie on the unit circle"),
    (["quadmod", "--points", "nan,1j,-1,-1j"], "must lie on the unit circle"),
    # every value lies at or below the slit end a = 0.5
    (["redmod", "{G3a}", "--sweep", "0.1:0.4:0.1"], "sweep range is empty"),
    # r = 1.1 is out of the family's range, so r = 0.9 is not solved either
    (["redmod", "{E}", "--sweep", "0.9:1.1:0.2"], "ellipse_exterior requires 0 < r <= 1"),
])
def test_empty_ranges_and_nan_points_name_the_fault(argv, message, lshape_json,
                                                    ellipse_json, tmp_path, capsys,
                                                    assemblies):
    # nan fails every comparison, and an empty range used to print a bare
    # CSV header with exit 0 or numpy's own message
    slit = tmp_path / "G3a.json"
    slit.write_text(json.dumps(
        {"kind": "opened_slit", "case": "G3", "r": 0.6, "a": 0.5, "ns": 64}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([a.format(L=lshape_json, E=ellipse_json, G3a=slit) for a in argv])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert message in captured.err
    assert assemblies == []  # refused before anything is solved


@pytest.mark.parametrize("desc", [
    {"kind": "polygon", "vertices": [[0, 0], [1, 0], ["nan", 1]], "ns": 32},
    {"kind": "ellipse", "a": "nan", "b": 0.5, "n": 64},
    {"kind": "ellipse", "a": "inf", "b": 0.5, "n": 64},
    {"kind": "arcs", "arcs": [[[0, 0], "nan", 0.0, FULL_TURN]], "ns": 32},
    {"kind": "rectangle", "r": "nan", "ns": 32},
], ids=["polygon", "ellipse-nan", "ellipse-inf", "arcs", "rectangle"])
def test_nonfinite_domain_is_validation_error(desc, tmp_path, capsys):
    # refused while the curve is built, not blamed on the base point later
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(desc))
    assert main(["confrad", str(path), "--base", "0.1"]) == 2
    assert "curve data must be finite" in capsys.readouterr().err


SQUARE = [[1, 1], [-1, 1], [-1, -1], [1, -1]]
CONFRAD = ["confrad", "{path}", "--base", "0.1+0.1i"]
NO_KIND = {"case": "G3", "r": 0.6}
NO_CASE = {"kind": "opened_slit", "r": 0.6}


@pytest.mark.parametrize("doc, message, argv", [
    ({"kind": "ellipse", "a": None, "b": 0.5, "n": 64}, "field 'a'", CONFRAD),
    ({"kind": "polygon", "vertices": 5, "ns": 16}, "field 'vertices'", CONFRAD),
    ([1, 2], "one JSON object", CONFRAD),
    ({"kind": "polygon", "vertices": SQUARE, "ns": [16]}, "field 'ns'", CONFRAD),
    ({"kind": "polygon", "vertices": [[1]] + SQUARE[1:], "ns": 16}, "need [re, im]", CONFRAD),
    ({"kind": "polygon", "vertices": SQUARE}, "needs field 'ns'", CONFRAD),
    # three sides of 9 nodes: the solver's even-count check
    ({"kind": "polygon", "vertices": [[0, 0], [2, 0], [0, 2]], "ns": 9}, "must be even", CONFRAD),
    (NO_KIND, "domain file needs field 'kind'", ["redmod", "{path}"]),
    (NO_KIND, "domain file needs field 'kind'", CONFRAD),
    (NO_CASE, "domain file needs field 'case'", CONFRAD),
    (NO_CASE, "domain file needs field 'case'", ["redmod", "{path}"]),
    (NO_CASE, "domain file needs field 'case'", ["redmod", "{path}", "--sweep", "0.3:0.5:0.1"]),
    # a fractional count, or a field the kind does not have, used to be
    # cut or ignored with exit 0; a boolean count reached the builder as 1
    ({"kind": "polygon", "vertices": SQUARE, "ns": 16.5}, "field 'ns'", CONFRAD),
    ({"kind": "polygon", "vertices": SQUARE, "ns": 16, "grading-p": 2.0}, "field 'grading-p'",
     CONFRAD),
    ({"kind": "ellipse", "a": 1.0, "b": 0.5, "n": 64, "ns": 64}, "field 'ns'", CONFRAD),
    ({"kind": "ellipse", "a": 1.0, "b": 0.5, "n": 64, "grading_p": 2.0}, "field 'grading_p'",
     CONFRAD),
    ({"kind": "ellipse", "a": 1.0, "b": 0.5, "n": True}, "field 'n'", CONFRAD),
], ids=["null-semiaxis", "number-vertices", "list-document", "list-ns", "one-element-pair",
        "no-ns", "odd-node-count", "no-kind-redmod", "no-kind-confrad", "no-case-confrad",
        "no-case-redmod", "no-case-redmod-sweep", "fractional-ns", "polygon-grading-dash",
        "ellipse-ns", "ellipse-grading-p", "boolean-n"])
def test_malformed_domain_file_is_validation_error(doc, message, argv, tmp_path, capsys):
    # a field of the wrong JSON type, or a document that is no object, used
    # to escape as a TypeError or AttributeError with exit 1; a missing kind
    # or case was reported as the bare KeyError text
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main([a.format(path=path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and message in err and "Traceback" not in err


def test_clockwise_arc_chain_is_validation_error(tmp_path, capsys):
    # this point lies outside the lens; a clockwise chain labelled "ccw"
    # used to answer 0.9908 with exit 0
    path = tmp_path / "lens_cw.json"
    path.write_text(json.dumps({"kind": "arcs", "ns": 64, "arcs": [
        [[1, 0], math.sqrt(2.0), 1.25 * math.pi, 0.75 * math.pi],
        [[0, 0], 1.0, 0.5 * math.pi, -0.5 * math.pi]]}))
    rc = main(["harm", str(path), "--side", "1", "--z", "0.27079613190137286-0.96875i"])
    assert rc == 2
    assert "must run counterclockwise" in capsys.readouterr().err


def test_usage_errors_and_help_return_their_exit_codes(capsys):
    # argparse's own exits come back from main as return codes
    assert main(["hypdist"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert "hypdist" in capsys.readouterr().out


def test_unknown_domain_kind(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "fractal"}))
    rc = main(["hypdist", str(path), "--z1", "0", "--z2", "0.1"])
    assert rc == 2
    assert "unknown domain kind" in capsys.readouterr().err
