"""Digest the outputs of a fixed list of reference CLI invocations.

Each invocation runs ``python -m conforminv.cli`` on the ``src`` tree
beside this script's parent, in a fresh temporary directory that holds
the domain files below, with one BLAS thread. One line is printed per
invocation: the exit code, the sha256 of standard output, the sha256 of
each file the run wrote, then the command line.

The CLI prints scalars with 15 significant digits, so a change in the
last bits of a result can leave its digest the same. A second section
therefore runs the library calls behind the invocations in this process,
also with one BLAS thread, and prints their results exactly: float.hex
of each scalar and the sha256 of each array's bytes. It first prints the
node count, orientation and corners of the curve of each domain file and
of a few more curves (two opened slit disks, a three-arc chain, a
clockwise full turn).

Run it in two checkouts and diff the outputs to see which results
changed in any bit:

    python3 tools/cli_digest.py

The longest invocation is the 19-point exterior-ellipse sweep at n=4096.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

SRC = Path(__file__).resolve().parents[1] / "src"

DOMAINS = {
    "L.json": {"kind": "polygon",
               "vertices": [[6, 1], [1, 1], [1, 4], [-1, 4], [-1, -1], [6, -1]],
               "ns": 512, "grading_p": 3.0},
    # a quarter of L.json's nodes, so the grid fields' standoff masks every node of a 36x26 grid
    "L128.json": {"kind": "polygon",
                  "vertices": [[6, 1], [1, 1], [1, 4], [-1, 4], [-1, -1], [6, -1]],
                  "ns": 128, "grading_p": 3.0},
    "E.json": {"kind": "ellipse", "a": 1.0, "b": 0.5, "side": "exterior", "n": 4096},
    "Ei.json": {"kind": "ellipse", "a": 1.0, "b": 0.5, "side": "interior", "n": 1024},
    "G3.json": {"kind": "opened_slit", "case": "G3", "r": 0.6, "a": 0.2, "ns": 512},
    "A.json": {"kind": "amoeba", "n": 1024},
    "R.json": {"kind": "rectangle", "r": 2.0, "ns": 256},
    "D.json": {"kind": "arcs", "arcs": [[[0, 0], 1.0, 0.0, 6.283185307179586]], "ns": 256},
}

INVOCATIONS = (
    ["hypdist", "L.json", "--z1", "2i", "--grid=-1,6,-1,4,141,101", "--out", "f.csv"],
    ["hypdist", "A.json", "--z1", "0", "--grid=-1.5,2.8,-1.1,2,87,63", "--out", "a.csv"],
    ["hypdist", "L128.json", "--z1", "2i", "--grid=-1,6,-1,4,36,26", "--out", "l.csv"],
    ["hypdist", "L.json", "--z1", "2i", "--z2", "5"],
    ["quadmod", "--angles-pi=-1,-0.5,0,0.5", "--trace", "t.csv"],
    ["quadmod", "--angles-pi=0,0.5,0.8,1.5", "--oracle"],
    ["quadmod", "--angles-pi=0,0.5,1,3.5", "--oracle"],  # 3.5 pi marks -i, as 1.5 pi does
    ["quadmod", "--points", "1,i,-1,-i"],
    ["quadmod", "L.json", "--params", "0,1.5,3,4.5"],
    ["redmod", "E.json"],
    ["redmod", "G3.json"],
    ["redmod", "E.json", "--sweep", "0.1:1.0:0.05"],
    ["redmod", "Ei.json", "--sweep", "0.2:1.0:0.2"],
    ["redmod", "G3.json", "--sweep", "0.3:0.9:0.1"],
    ["redmod", "--ngon-sweep", "3:6"],
    ["harm", "L.json", "--side", "2", "--z", "2i"],  # a lone point's Cauchy sum
    ["harm", "L.json", "--sum", "--z", "2i"],
    ["harm", "L.json", "--sum", "--grid=-1,6,-1,4,36,26", "--out", "h.json", "--format", "json"],
    ["confrad", "G3.json", "--base", "0.8"],
    ["confrad", "A.json", "--base", "0"],
    ["confrad", "R.json", "--base", "0.5+1i"],
    ["confrad", "D.json", "--base", "0.3+0.2i"],
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(argv: list, env: dict) -> str:
    """'exit=... stdout=... [file=...] command' for one invocation."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, desc in DOMAINS.items():
            (work / name).write_text(json.dumps(desc))
        run = subprocess.run([sys.executable, "-m", "conforminv.cli", *argv], cwd=work,
                             env=env, capture_output=True, check=False)
        written = sorted(p for p in work.iterdir() if p.name not in DOMAINS)
        parts = [f"exit={run.returncode}", f"stdout={_sha(run.stdout)}"]
        parts += [f"{p.name}={_sha(p.read_bytes())}" for p in written]
    return " ".join(parts + argv)


def library_lines():
    """'name exact-value' lines for the library calls behind the invocations."""
    import numpy as np

    from conforminv import (QuadConfig, cli, harmonic_measure, harmonic_measure_all, make_amoeba,
                            make_circular_arc_polygon, make_ellipse, make_opened_slit_disk,
                            make_polygon, make_rectangle, map_bounded, map_unbounded,
                            quad_modulus, reduced_modulus)

    # the curves as the CLI loads the domain files, with no --ns or --grading-p
    no_overrides = SimpleNamespace(size=None, grading_p=None)
    curves = {name: cli._build_domain(desc, no_overrides) for name, desc in DOMAINS.items()}
    third = 2.0 * np.pi / 3.0
    curves.update({
        "G1 0.5": make_opened_slit_disk("G1", 0.5), "G2 0.5": make_opened_slit_disk("G2", 0.5),
        "three arcs": make_circular_arc_polygon(
            [(0j, 1.0, k * third, (k + 1) * third) for k in range(3)], 64),
        "clockwise full turn": make_circular_arc_polygon([(1j, 2.0, 2.0 * np.pi, 0.0)], 64)})
    for name, cv in curves.items():
        yield f"curve {name} n={cv.n} orientation={cv.orientation} corners={list(cv.corners)}"

    lshape = DOMAINS["L.json"]
    curve = make_polygon([complex(*v) for v in lshape["vertices"]], lshape["ns"],
                         p=lshape["grading_p"])
    ellipse = make_ellipse(1.0, 0.5, 4096, "exterior")
    maps = {"L base 2i": map_bounded(curve, 2j), "L base 2": map_bounded(curve, 2.0),
            "amoeba base 0": map_bounded(make_amoeba(DOMAINS["A.json"]["n"]), 0.0),
            # off both axes, so unfolded
            "exterior ellipse beta 0.1+0.05i": map_unbounded(ellipse, 0.1 + 0.05j),
            # folded over both axes, both midlines and the real axis
            "exterior ellipse default beta": map_unbounded(ellipse),
            "rectangle 2 default alpha": map_bounded(make_rectangle(2.0, DOMAINS["R.json"]["ns"])),
            "G3 0.6, 0.2 base 0.8": map_bounded(make_opened_slit_disk("G3", 0.6, 0.2), 0.8)}
    for name, dmap in maps.items():
        sol = dmap.solution
        yield f"{name} rho={_sha(sol.rho.tobytes())}"
        for field in ("h", "h_spread", "residual"):
            yield f"{name} {field}={float(getattr(sol, field)).hex()}"
        yield f"{name} gmres_iters={sol.gmres_iters} folded={sol.folded}"
    yield f"harm L side 2 at 2i={float(harmonic_measure(curve, 2, None, [2j])[0]).hex()}"
    # every side and the column sums at three points, from one batch
    points = (2j, 3.0, 0.5 - 0.5j)
    sides = harmonic_measure_all(curve, 2j, list(points))
    for z, column in zip(points, sides.T):
        values = " ".join(float(v).hex() for v in column)
        yield f"harm_all L base 2i at {z} sides={values} sum={float(column.sum()).hex()}"
    yield f"redmod exterior ellipse 1, 0.5={float(reduced_modulus(ellipse)).hex()}"
    for name, angles in (("-1,-0.5,0,0.5", (-1.0, -0.5, 0.0, 0.5)),
                         ("0,0.5,0.8,1.5", (0.0, 0.5, 0.8, 1.5))):
        trace = quad_modulus(*(complex(np.exp(1j * np.pi * a)) for a in angles),
                             cfg=QuadConfig(n_s=512))
        yield f"quadmod angles-pi {name} r={float(trace.r).hex()} iterations={trace.iterations}"
    # the quad-sweep workload's marked points (1, i, e^{i theta2}, -i) at its nine angles
    for theta2 in np.pi * np.arange(0.6, 1.45, 0.1):
        trace = quad_modulus(1.0, 1j, complex(np.exp(1j * theta2)), -1j, cfg=QuadConfig(n_s=256))
        yield (f"quad sweep theta2/pi={theta2 / np.pi:.1f} n_s=256 "
               f"r={float(trace.r).hex()} iterations={trace.iterations}")


def main() -> int:
    # before numpy is first imported, so library_lines runs on one BLAS thread too
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    for argv in INVOCATIONS:
        print(digest(argv, env), flush=True)
    sys.path.insert(0, str(SRC))
    for line in library_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
