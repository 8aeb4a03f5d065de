"""Command-line front end.

Subcommands
-----------
hypdist   hyperbolic distance between two points, or a masked grid field
redmod    reduced modulus, with optional oracle comparison sweeps
confrad   conformal radius
harm      harmonic measure of a boundary side at points or on a grid
quadmod   quadrilateral modulus via the rectangle iteration

Domains are JSON files such as

    {"kind": "polygon", "vertices": [[6,1],[1,1],[1,4],[-1,4],[-1,-1],[6,-1]],
     "ns": 512, "grading_p": 3.0}
    {"kind": "ellipse", "a": 1.0, "b": 0.5, "side": "exterior", "n": 1024}
    {"kind": "amoeba", "n": 1024}
    {"kind": "rectangle", "r": 2.0, "ns": 512}
    {"kind": "arcs", "arcs": [[[0,0], 1.0, 0.0, 6.283185307179586]], "ns": 256}
    {"kind": "opened_slit", "case": "G2", "r": 0.5, "a": 0.0, "ns": 512}

Complex values on the command line accept either "1+4j" or "1+4i".
Exit codes: 0 success, 2 validation error, 3 solver failure,
4 quadrilateral iteration did not converge.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

import numpy as np

from .curves import (
    make_amoeba,
    make_circular_arc_polygon,
    make_ellipse,
    make_opened_slit_disk,
    make_polygon,
    make_rectangle,
)
from .exact import oracle_quad_r, oracle_reduced_modulus
from .invariants import (
    _SLIT_BASE_IMAGE,
    GridSpec,
    QuadConfig,
    conformal_radius,
    harmonic_measure,
    harmonic_measure_all,
    harmonic_measure_field,
    hyperbolic_distance,
    hyperbolic_distance_field,
    quad_modulus,
    quad_modulus_general,
    reduced_modulus,
)
from .kernel import ConvergenceError, SolveConfig

_GRID_HELP = '"xmin,xmax,ymin,ymax,nx,ny"; write a negative xmin as --grid=-1,...'


def _parse_complex(text: str) -> complex:
    cleaned = text.strip().replace("i", "j").replace(" ", "")
    try:
        return complex(cleaned)
    except ValueError:
        raise ValueError(f"cannot parse complex number {text!r}") from None


def _as_complex(value) -> complex:
    """JSON field to complex: [re, im] pair, number, or string literal."""
    if isinstance(value, str):
        return _parse_complex(value)
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ValueError(f"complex entries need [re, im], got {value!r}")
        return complex(float(value[0]), float(value[1]))
    return complex(float(value), 0.0)


def _parse_grid(text: str) -> GridSpec:
    parts = text.split(",")
    if len(parts) != 6:
        raise ValueError('grid must be "xmin,xmax,ymin,ymax,nx,ny"')
    xmin, xmax, ymin, ymax = (float(v) for v in parts[:4])
    nx, ny = int(parts[4]), int(parts[5])
    return GridSpec(xmin, xmax, ymin, ymax, nx, ny)


def _setting(value, desc: dict, key: str, default=None):
    """A command-line override unless it is None, else the domain file's field.

    An explicit 0 is kept, so the builders reject it instead of a default
    silently taking its place.
    """
    if value is None:
        value = desc.get(key, default)
        if value is None:
            raise ValueError(f"domain file needs field {key!r}")
    return value


def _read_domain(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def load_domain(path: str, size: int | None = None, grading_p: float | None = None):
    """Build the BoundaryCurve described by a JSON domain file.

    `size` overrides the file's n (smooth kinds) or ns (panelled kinds).
    Returns (curve, description dict) so callers can inspect family parameters.
    """
    desc = _read_domain(path)
    return _build_domain(desc, size, grading_p), desc


def _build_domain(desc: dict, size: int | None, grading_p: float | None):
    kind = desc.get("kind")
    p = float(_setting(grading_p, desc, "grading_p", 3.0))

    def count(key, default=None):
        return int(_setting(size, desc, key, default))

    if kind == "polygon":
        vertices = [_as_complex(v) for v in desc["vertices"]]
        return make_polygon(vertices, count("ns"), p=p)
    if kind == "ellipse":
        side = desc.get("side", "interior")
        return make_ellipse(float(desc["a"]), float(desc["b"]), count("n"), side)
    if kind == "amoeba":
        return make_amoeba(count("n"))
    if kind == "arcs":
        arcs = [(_as_complex(c), float(r), float(t0), float(t1))
                for c, r, t0, t1 in desc["arcs"]]
        return make_circular_arc_polygon(arcs, count("ns"), p=p)
    if kind == "rectangle":
        return make_rectangle(float(desc["r"]), count("ns"), p=p)
    if kind == "opened_slit":
        return make_opened_slit_disk(desc["case"], float(desc["r"]),
                                     a=float(desc.get("a", 0.0)),
                                     n_s=count("ns", 512), p=p)
    raise ValueError(f"unknown domain kind {kind!r}")


def _solve_cfg(args) -> SolveConfig:
    return SolveConfig(gmres_tol=args.gmres_tol, max_iters=args.max_gmres)


def _emit_field(field, out: str, fmt: str):
    if fmt == "json":
        field.write_json(out)
    else:
        field.write_csv(out)


def _print_scalar(value: float):
    print(f"{value:.15g}")


def _write_lines(lines, path: str | None):
    """Write lines, newline-terminated, to the file at path or to stdout."""
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
        print("\n".join(lines), file=fh)


def cmd_hypdist(args) -> int:
    curve, _ = load_domain(args.domain, args.size, args.grading_p)
    z1 = _parse_complex(args.z1)
    alpha = _parse_complex(args.alpha) if args.alpha else z1
    cfg = _solve_cfg(args)
    if args.grid:
        if not args.out:
            raise ValueError("--grid mode needs --out")
        field = hyperbolic_distance_field(curve, alpha, z1, _parse_grid(args.grid), cfg=cfg)
        _emit_field(field, args.out, args.format)
        return 0
    if args.z2 is None:
        raise ValueError("either --z2 or --grid is required")
    _print_scalar(hyperbolic_distance(curve, alpha, z1, _parse_complex(args.z2), cfg=cfg))
    return 0


def _redmod_sweep(args, desc) -> int:
    start, stop, step = (float(v) for v in args.sweep.split(":"))
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)) or step == 0.0:
        raise ValueError("sweep needs finite values and a nonzero step")
    # linspace lands exactly on stop; arange can overshoot by an ulp,
    # which matters when stop sits on an oracle's domain boundary
    count = int(round((stop - start) / step)) + 1
    if count < 1:
        raise ValueError("sweep range is empty")
    values = np.linspace(start, stop, count)
    kind = desc["kind"]
    rows = []
    cfg = _solve_cfg(args)
    for r in values:
        r = float(r)
        if kind == "opened_slit":
            a = float(desc.get("a", 0.0))
            if r <= a:
                continue
            m = _redmod(args, dict(desc, r=r), cfg)
            exact = oracle_reduced_modulus(desc["case"], r, a)
        elif kind == "ellipse" and desc.get("side", "interior") == "exterior":
            curve = make_ellipse(1.0, r, int(_setting(args.size, desc, "n")), "exterior")
            m = reduced_modulus(curve, base=None, cfg=cfg)
            exact = oracle_reduced_modulus("ellipse_exterior", r)
        elif kind == "ellipse":
            curve = make_ellipse(float(np.cosh(r)), float(np.sinh(r)),
                                 int(_setting(args.size, desc, "n")), "interior")
            m = reduced_modulus(curve, base=0.0, cfg=cfg)
            exact = oracle_reduced_modulus("ellipse_interior", r)
        else:
            raise ValueError(f"no oracle sweep for domain kind {kind!r}")
        rows.append((r, m, exact, abs(m - exact)))
    lines = ["parameter,computed,exact,abs_error"]
    lines += [f"{r:.15g},{m:.15g},{e:.15g},{d:.15g}" for r, m, e, d in rows]
    _write_lines(lines, args.out)
    return 0


def _redmod_ngon_sweep(args) -> int:
    start, stop = (int(v) for v in args.ngon_sweep.split(":"))
    if stop < start:
        raise ValueError("ngon sweep range is empty")
    cfg = _solve_cfg(args)
    ns = int(_setting(args.size, {}, "ns", 512))
    p = float(_setting(args.grading_p, {}, "grading_p", 3.0))
    lines = ["parameter,computed"]
    for ell in range(start, stop + 1):
        vertices = np.exp(2j * np.pi * np.arange(ell) / ell)
        curve = make_polygon(list(vertices), ns, p=p)
        m = reduced_modulus(curve, base=0.0, cfg=cfg)
        lines.append(f"{ell},{m:.15g}")
    _write_lines(lines, args.out)
    return 0


def _redmod(args, desc: dict, cfg: SolveConfig) -> float:
    """Reduced modulus of a domain description; an opened slit disk uses its family's base."""
    if desc["kind"] == "opened_slit" and args.base:
        raise ValueError("an opened slit disk uses its family's base point")
    curve = _build_domain(desc, args.size, args.grading_p)
    if desc["kind"] == "opened_slit":
        base = _SLIT_BASE_IMAGE[desc["case"]](float(desc["r"]), float(desc.get("a", 0.0)))
    else:
        base = _parse_complex(args.base) if args.base else None
    return reduced_modulus(curve, base=base, cfg=cfg)


def cmd_redmod(args) -> int:
    if args.ngon_sweep:
        return _redmod_ngon_sweep(args)
    if not args.domain:
        raise ValueError("redmod needs DOMAIN unless --ngon-sweep is given")
    desc = _read_domain(args.domain)
    if args.sweep:
        return _redmod_sweep(args, desc)
    _print_scalar(_redmod(args, desc, _solve_cfg(args)))
    return 0


def cmd_confrad(args) -> int:
    curve, _ = load_domain(args.domain, args.size, args.grading_p)
    base = _parse_complex(args.base) if args.base else None
    _print_scalar(conformal_radius(curve, base=base, cfg=_solve_cfg(args)))
    return 0


def cmd_harm(args) -> int:
    curve, _ = load_domain(args.domain, args.size, args.grading_p)
    alpha = _parse_complex(args.alpha) if args.alpha else None
    cfg = _solve_cfg(args)

    if args.grid:
        if not args.out:
            raise ValueError("--grid mode needs --out")
        sides = range(1, len(curve.corners) + 1) if args.sum else [args.side]
        field = harmonic_measure_field(curve, sides, alpha, _parse_grid(args.grid), cfg=cfg)
        _emit_field(field, args.out, args.format)
        return 0

    if args.z is None:
        raise ValueError("either --z or --grid is required")
    z = _parse_complex(args.z)
    if args.sum:
        _print_scalar(float(harmonic_measure_all(curve, alpha, [z], cfg=cfg).sum()))
    else:
        _print_scalar(float(harmonic_measure(curve, args.side, alpha, [z], cfg=cfg)[0]))
    return 0


def _write_quad_trace(trace, path: str):
    # factors has one entry fewer than r_iterates; pad so the final
    # (converged) iterate still appears in the trace
    factors = list(trace.factors) + [float("nan")]
    lines = ["k,r_k,abs_step,delta_k"]
    prev = None
    for k, (rk, dk) in enumerate(zip(trace.r_iterates, factors)):
        step = abs(rk - prev) if prev is not None else float("nan")
        lines.append(f"{k},{rk:.15g},{step:.15g},{dk:.15g}")
        prev = rk
    _write_lines(lines, path)


def cmd_quadmod(args) -> int:
    qcfg = QuadConfig(n_s=int(_setting(args.size, {}, "ns", 512)),
                      grading_p=float(_setting(args.grading_p, {}, "grading_p", 3.0)),
                      eps=args.quad_eps, max_iter=args.quad_max,
                      solve=_solve_cfg(args))
    if args.oracle and not args.angles_pi:
        raise ValueError("--oracle applies to --angles-pi mode")
    if args.angles_pi:
        angles = [np.pi * float(v) for v in args.angles_pi.split(",")]
        if len(angles) != 4:
            raise ValueError("--angles-pi needs four comma-separated values")
        pts = [complex(np.exp(1j * th)) for th in angles]
        trace = quad_modulus(*pts, cfg=qcfg)
    elif args.points:
        pts = [_parse_complex(v) for v in args.points.split(",")]
        if len(pts) != 4:
            raise ValueError("--points needs four comma-separated values")
        trace = quad_modulus(*pts, cfg=qcfg)
    else:
        if not args.domain or not args.params:
            raise ValueError("quadmod needs --angles-pi, --points, or DOMAIN --params")
        curve, _ = load_domain(args.domain, args.size, args.grading_p)
        params = [float(v) for v in args.params.split(",")]
        alpha = _parse_complex(args.alpha) if args.alpha else None
        trace = quad_modulus_general(curve, params, alpha=alpha, cfg=qcfg)

    if args.trace:
        _write_quad_trace(trace, args.trace)
    print(f"r = {trace.r:.15g}")
    print(f"iterations = {trace.iterations}")
    if args.oracle:
        t1, t2, t3, t4 = angles
        ref = oracle_quad_r(t2 - t1, t3 - t1, t4 - t1)
        print(f"oracle = {ref:.15g}")
        print(f"rel_error = {abs(trace.r - ref) / ref:.15g}")
    if not trace.converged:
        print("warning: iteration did not converge", file=sys.stderr)
        return 4
    return 0


def _add_common(sub):
    sub.add_argument("--ns", "--n", dest="size", type=int, default=None,
                     help="override the domain file's node count (n or per-side ns)")
    sub.add_argument("--grading-p", dest="grading_p", type=float, default=None)
    sub.add_argument("--gmres-tol", dest="gmres_tol", type=float, default=0.5e-14)
    sub.add_argument("--max-gmres", dest="max_gmres", type=int, default=100)
    sub.add_argument("--out", default=None, help="output file path")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conforminv",
        description="Conformal invariants of planar simply connected domains.")
    subs = parser.add_subparsers(dest="command", required=True)

    hyp = subs.add_parser("hypdist", help="hyperbolic distance")
    hyp.add_argument("domain")
    hyp.add_argument("--z1", required=True)
    hyp.add_argument("--z2", default=None)
    hyp.add_argument("--alpha", default=None,
                     help="interior base point for the map (default: z1)")
    hyp.add_argument("--grid", default=None, help=_GRID_HELP)
    _add_common(hyp)
    hyp.set_defaults(func=cmd_hypdist)

    red = subs.add_parser("redmod", help="reduced modulus")
    red.add_argument("domain", nargs="?", default=None)
    red.add_argument("--base", default=None)
    red.add_argument("--sweep", default=None, help='oracle sweep "start:stop:step"')
    red.add_argument("--ngon-sweep", dest="ngon_sweep", default=None,
                     help='regular polygon sweep "lmin:lmax", base 0')
    _add_common(red)
    red.set_defaults(func=cmd_redmod)

    cra = subs.add_parser("confrad", help="conformal radius")
    cra.add_argument("domain")
    cra.add_argument("--base", default=None)
    _add_common(cra)
    cra.set_defaults(func=cmd_confrad)

    har = subs.add_parser("harm", help="harmonic measure of a boundary side")
    har.add_argument("domain")
    har.add_argument("--side", type=int, default=1,
                     help="1-based side index; side k runs from corner k to corner k+1")
    har.add_argument("--z", default=None)
    har.add_argument("--alpha", default=None,
                     help="interior base point for the map (default: the node mean if it "
                          "lies inside, else the grid point farthest from the boundary)")
    har.add_argument("--grid", default=None, help=_GRID_HELP)
    har.add_argument("--sum", action="store_true",
                     help="sum over all sides instead of one side")
    _add_common(har)
    har.set_defaults(func=cmd_harm)

    qua = subs.add_parser("quadmod", help="quadrilateral modulus")
    qua.add_argument("domain", nargs="?", default=None)
    qua.add_argument("--angles-pi", dest="angles_pi", default=None,
                     help='four circle angles as multiples of pi, e.g. "-1,-0.5,0,0.5"')
    qua.add_argument("--points", default=None,
                     help="four complex points on the unit circle")
    qua.add_argument("--params", default=None,
                     help="four boundary parameter values in [0, 2pi)")
    qua.add_argument("--alpha", default=None)
    qua.add_argument("--oracle", action="store_true")
    qua.add_argument("--trace", default=None, help="write iteration trace CSV")
    qua.add_argument("--quad-eps", dest="quad_eps", type=float, default=0.5e-13)
    qua.add_argument("--quad-max", dest="quad_max", type=int, default=50)
    _add_common(qua)
    qua.set_defaults(func=cmd_quadmod)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
