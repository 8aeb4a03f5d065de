"""Command-line front end.

Subcommands and their modes; the modes of one subcommand exclude each other
---------------------------------------------------------------------------
hypdist DOMAIN --z1 Z (--z2 Z | --grid G --out FILE [--format csv|json])
    hyperbolic distance between two points, or a masked grid field
harm DOMAIN [--side K | --sum] (--z Z | --grid G --out FILE [--format csv|json])
    harmonic measure of one boundary side, or of all, at a point or on a grid
redmod DOMAIN [--base B]
    reduced modulus; an opened slit disk's at its family's base point
redmod DOMAIN --sweep START:STOP:STEP [--out FILE]
    reduced modulus against its oracle over an ellipse or slit-disk family
redmod --ngon-sweep LMIN:LMAX [--out FILE]
    reduced modulus of regular polygons inscribed in the unit circle, base 0
confrad DOMAIN [--base B]
    conformal radius
quadmod (--angles-pi T1,T2,T3,T4 [--oracle] | --points P1,P2,P3,P4
         | DOMAIN --params S1,S2,S3,S4 [--alpha A])
    quadrilateral modulus via the rectangle iteration

Domains are JSON files such as

    {"kind": "polygon", "vertices": [[6,1],[1,1],[1,4],[-1,4],[-1,-1],[6,-1]],
     "ns": 512, "grading_p": 3.0}
    {"kind": "ellipse", "a": 1.0, "b": 0.5, "side": "exterior", "n": 1024}
    {"kind": "amoeba", "n": 1024}
    {"kind": "rectangle", "r": 2.0, "ns": 512}
    {"kind": "arcs", "arcs": [[[0,0], 1.0, 0.0, 6.283185307179586]], "ns": 256}
    {"kind": "opened_slit", "case": "G2", "r": 0.5, "a": 0.0, "ns": 512}

The table _KINDS declares each kind once: its builder, the fields it needs
and its optional fields, which are side for an ellipse, grading_p for the
cornered kinds, and a and ns for an opened slit disk. One loader,
_build_domain, turns a description into its builder call and applies --ns
and --grading-p; a field or flag left out is left to the builder's own
default. redmod's sweeps hand it one description per family member or
regular polygon, and every mode takes its modulus from one helper. A
missing or mistyped field, a field the kind does not have, a count n or ns
that is not a whole number, and --grading-p on an ellipse or amoeba are
validation errors naming the field or flag.

Complex values on the command line accept either "1+4j" or "1+4i".
Exit codes: 0 success, 2 validation or usage error, 3 solver failure,
4 quadrilateral iteration did not converge.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

import numpy as np

# _build_domain calls these through their names in _KINDS, so patching one here takes effect
from .curves import (  # noqa: F401
    make_amoeba,
    make_circular_arc_polygon,
    make_ellipse,
    make_opened_slit_disk,
    make_polygon,
    make_rectangle,
)
from .exact import oracle_quad_r, oracle_reduced_modulus
from .invariants import (
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
    reduced_modulus_slit_disk,
)
from .kernel import ConvergenceError

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


def _parse_four(text: str, parse=float) -> list:
    """Four comma-separated values, each read by `parse`."""
    values = [parse(v) for v in text.split(",")]
    if len(values) != 4:
        raise ValueError("needs four comma-separated values")
    return values


def _parse_sweep(text: str) -> list[float]:
    start, stop, step = (float(v) for v in text.split(":"))
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)) or step == 0.0:
        raise ValueError("sweep needs finite values and a nonzero step")
    # linspace lands exactly on stop; arange can overshoot by an ulp,
    # which matters when stop sits on an oracle's domain boundary
    count = int(round((stop - start) / step)) + 1
    return [float(r) for r in np.linspace(start, stop, max(count, 0))]


def _parse_ngon_sweep(text: str) -> range:
    start, stop = (int(v) for v in text.split(":"))
    if stop < start:
        raise ValueError("ngon sweep range is empty")
    return range(start, stop + 1)


def _arg(parse):
    """An argparse type from a parser: its ValueError is reported with the flag."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _setting(desc: dict, key: str, read=float, default=None, override=None):
    """A command-line override unless it is None, else the domain file's field, read by `read`.

    default stands in for an absent field. An explicit 0 is kept, so the
    builders reject it instead of a default silently taking its place. A
    missing field, or one whose JSON type `read` cannot take, is a
    ValueError naming the field, not the cast's TypeError.
    """
    value = desc.get(key, default) if override is None else override
    if value is None:
        raise ValueError(f"domain file needs field {key!r}")
    try:
        return read(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"domain file field {key!r}: {exc}") from None


def _whole(value) -> int:
    """A JSON count: a whole number such as 64 or 64.0, not 64.5, true or "64"."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"needs a whole number, got {value!r}")
    return value


def _read_domain(path: str) -> dict:
    with open(path) as fh:
        desc = json.load(fh)
    if not isinstance(desc, dict):
        raise ValueError("a domain file holds one JSON object")
    return desc


def _curve(args):
    """The BoundaryCurve of the DOMAIN file, with the --ns/--grading-p overrides."""
    return _build_domain(_read_domain(args.domain), args)


# kind -> (name of its builder in this module, the fields it needs in the
# builder's argument order, its optional fields -> the builder's keywords)
_KINDS = {
    "polygon": ("make_polygon", ("vertices", "ns"), {"grading_p": "p"}),
    "ellipse": ("make_ellipse", ("a", "b", "n"), {"side": "kind"}),
    "amoeba": ("make_amoeba", ("n",), {}),
    "arcs": ("make_circular_arc_polygon", ("arcs", "ns"), {"grading_p": "p"}),
    "rectangle": ("make_rectangle", ("r", "ns"), {"grading_p": "p"}),
    "opened_slit": ("make_opened_slit_disk", ("case", "r"),
                    {"a": "a", "ns": "n_s", "grading_p": "p"}),
}

# field -> its reader; any other field is read by float
_READERS = {
    "vertices": lambda vs: [_as_complex(v) for v in vs],
    "arcs": lambda arcs: [(_as_complex(c), float(r), float(t0), float(t1))
                          for c, r, t0, t1 in arcs],
    "case": str, "side": str,
    "n": _whole, "ns": _whole,
}


def _build_domain(desc: dict, args, slit=None):
    """The builder call a domain description asks for, with the --ns/--grading-p overrides.

    Needed fields go positionally; an optional field is passed as its keyword
    only when given, so the builder's own default applies otherwise. A field
    the kind does not have is refused. The builder is looked up by name on
    every call. An opened slit disk's fields go to `slit` when it is given:
    reduced_modulus_slit_disk, for its modulus at the family's base point.
    """
    kind = _setting(desc, "kind", str)
    if kind not in _KINDS:
        raise ValueError(f"unknown domain kind {kind!r}")
    builder, needed, optional = _KINDS[kind]
    unknown = sorted(desc.keys() - {"kind", *needed, *optional})
    if unknown:
        raise ValueError(f"domain file field {unknown[0]!r} does not apply to kind {kind!r}")
    if args.grading_p is not None and "grading_p" not in optional:
        raise ValueError(f"--grading-p applies to cornered domains, not to kind {kind!r}")
    # --ns overrides the file's n (smooth kinds) or ns (panelled kinds)
    overrides = {"n": args.size, "ns": args.size, "grading_p": args.grading_p}

    def read(key):
        return _setting(desc, key, _READERS.get(key, float), override=overrides.get(key))

    given = {name: read(key) for key, name in optional.items()
             if key in desc or overrides.get(key) is not None}
    return (slit or globals()[builder])(*map(read, needed), **given)


def _print_scalar(value: float):
    print(f"{value:.15g}")


def _write_lines(lines, path: str | None):
    """Write lines, newline-terminated, to the file at path or to stdout."""
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
        print("\n".join(lines), file=fh)


def _check_grid_options(args) -> None:
    if (args.grid is None) != (args.out is None):
        raise ValueError("--out goes with --grid mode, and only with it")
    if args.grid is None and args.format is not None:
        raise ValueError("--format applies to --grid mode")


def _write_grid(args, field, *leading) -> None:
    """Evaluate field(*leading, grid) on --grid and write it to --out."""
    result = field(*leading, args.grid)
    (result.write_json if args.format == "json" else result.write_csv)(args.out)


def cmd_hypdist(args) -> None:
    _check_grid_options(args)
    curve = _curve(args)
    alpha = args.z1 if args.alpha is None else args.alpha
    if args.grid is not None:
        return _write_grid(args, hyperbolic_distance_field, curve, alpha, args.z1)
    _print_scalar(hyperbolic_distance(curve, alpha, args.z1, args.z2))


def _modulus(desc: dict, args, base) -> float:
    """Reduced modulus of a domain description; an opened slit disk's is at its family's base."""
    if _setting(desc, "kind", str) != "opened_slit":
        return reduced_modulus(_build_domain(desc, args), base=base)
    if base is not None:
        raise ValueError("an opened slit disk uses its family's base point")
    return _build_domain(desc, args, slit=reduced_modulus_slit_disk)


def _ngon_rows(ells) -> list:
    """(ell, description, base, no oracle value) of each regular ell-gon of --ngon-sweep."""
    rows = []
    for ell in ells:
        vertices = np.exp(2j * np.pi * np.arange(ell) / ell)  # inscribed in the unit circle
        desc = {"kind": "polygon", "vertices": [(v.real, v.imag) for v in vertices], "ns": 512}
        rows.append((ell, desc, 0.0, None))
    return rows


def _sweep_rows(desc: dict, values) -> list:
    """(r, description, base, oracle value) of each member of a --sweep family."""
    kind = _setting(desc, "kind", str)
    if kind == "opened_slit":
        case, a = _setting(desc, "case", str), _setting(desc, "a", float, 0.0)
        rows = [(r, dict(desc, r=r), None) for r in values if r > a]
    elif kind == "ellipse":
        side = _setting(desc, "side", str, "interior")
        case, a = f"ellipse_{side}", 0.0
        if side == "exterior":  # semiaxes (1, r), base at infinity
            rows = [(r, dict(desc, a=1.0, b=r), None) for r in values]
        else:  # semiaxes (cosh r, sinh r), base 0
            rows = [(r, dict(desc, a=float(np.cosh(r)), b=float(np.sinh(r))), 0.0)
                    for r in values]
    else:
        raise ValueError(f"no oracle sweep for domain kind {kind!r}")
    if not rows:
        raise ValueError("sweep range is empty")
    # the oracle refuses a parameter out of range before anything is solved
    return [(r, d, base, oracle_reduced_modulus(case, r, a)) for r, d, base in rows]


def cmd_redmod(args) -> None:
    if args.ngon_sweep is not None:
        if args.domain:
            raise ValueError("--ngon-sweep takes no DOMAIN")
        rows = _ngon_rows(args.ngon_sweep)
    elif not args.domain:
        raise ValueError("redmod needs DOMAIN unless --ngon-sweep is given")
    elif args.sweep is not None:
        rows = _sweep_rows(_read_domain(args.domain), args.sweep)
    elif args.out is not None:
        raise ValueError("--out applies to --sweep and --ngon-sweep")
    else:
        return _print_scalar(_modulus(_read_domain(args.domain), args, args.base))
    lines = ["parameter,computed" + (",exact,abs_error" if args.sweep is not None else "")]
    for param, desc, base, exact in rows:
        m = _modulus(desc, args, base)
        values = [param, m] if exact is None else [param, m, exact, abs(m - exact)]
        lines.append(",".join(f"{v:.15g}" for v in values))
    _write_lines(lines, args.out)


def cmd_confrad(args) -> None:
    _print_scalar(conformal_radius(_curve(args), base=args.base))


def cmd_harm(args) -> None:
    _check_grid_options(args)
    curve = _curve(args)
    if args.grid is not None:
        sides = range(1, len(curve.corners) + 1) if args.sum else [args.side]
        return _write_grid(args, harmonic_measure_field, curve, sides, args.alpha)
    if args.sum:
        _print_scalar(float(harmonic_measure_all(curve, args.alpha, [args.z]).sum()))
    else:
        _print_scalar(float(harmonic_measure(curve, args.side, args.alpha, [args.z])[0]))


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


def cmd_quadmod(args) -> int | None:
    # only the given flags, so QuadConfig's own defaults apply otherwise
    flags = {"n_s": args.size, "grading_p": args.grading_p}
    qcfg = QuadConfig(**{name: value for name, value in flags.items() if value is not None})
    if args.oracle and args.angles_pi is None:
        raise ValueError("--oracle applies to --angles-pi mode")
    if args.alpha is not None and args.params is None:
        raise ValueError("--alpha applies to --params mode")
    if (args.domain is None) != (args.params is None):
        raise ValueError("DOMAIN goes with --params mode, and only with it")
    if args.params is not None:
        trace = quad_modulus_general(_curve(args), args.params, alpha=args.alpha, cfg=qcfg)
    elif args.angles_pi is not None:
        angles = [np.pi * v for v in args.angles_pi]
        trace = quad_modulus(*(complex(np.exp(1j * th)) for th in angles), cfg=qcfg)
    else:
        trace = quad_modulus(*args.points, cfg=qcfg)

    if args.trace:
        _write_quad_trace(trace, args.trace)
    print(f"r = {trace.r:.15g}")
    print(f"iterations = {trace.iterations}")
    if args.oracle:
        # offsets from t1 within one turn: points given past 2 pi are the same points
        ref = oracle_quad_r(*((t - angles[0]) % (2 * np.pi) for t in angles[1:]))
        print(f"oracle = {ref:.15g}")
        print(f"rel_error = {abs(trace.r - ref) / ref:.15g}")
    if not trace.converged:
        print("warning: iteration did not converge", file=sys.stderr)
        return 4


def _add_common(sub):
    sub.add_argument("--ns", "--n", dest="size", type=int,
                     help="override the domain file's node count (n or per-side ns)")
    sub.add_argument("--grading-p", type=float)


def _add_grid_mode(sub, modes):
    """--grid in the subcommand's modes, and the --out/--format it writes with."""
    modes.add_argument("--grid", type=_arg(_parse_grid), help=_GRID_HELP)
    sub.add_argument("--out", help="output file path (--grid mode)")
    sub.add_argument("--format", choices=("csv", "json"), help="default: csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conforminv",
        description="Conformal invariants of planar simply connected domains.")
    subs = parser.add_subparsers(dest="command", required=True)
    point = _arg(_parse_complex)

    hyp = subs.add_parser("hypdist", help="hyperbolic distance")
    hyp.add_argument("domain")
    hyp.add_argument("--z1", type=point, required=True)
    hyp.add_argument("--alpha", type=point, help="interior base point for the map (default: z1)")
    modes = hyp.add_mutually_exclusive_group(required=True)
    modes.add_argument("--z2", type=point)
    _add_grid_mode(hyp, modes)
    _add_common(hyp)
    hyp.set_defaults(func=cmd_hypdist)

    red = subs.add_parser("redmod", help="reduced modulus")
    red.add_argument("domain", nargs="?")
    modes = red.add_mutually_exclusive_group()
    modes.add_argument("--base", type=point)
    modes.add_argument("--sweep", type=_arg(_parse_sweep), help='oracle sweep "start:stop:step"')
    modes.add_argument("--ngon-sweep", type=_arg(_parse_ngon_sweep),
                       help='regular polygon sweep "lmin:lmax", base 0')
    red.add_argument("--out", help="sweep output file path (default: stdout)")
    _add_common(red)
    red.set_defaults(func=cmd_redmod)

    cra = subs.add_parser("confrad", help="conformal radius")
    cra.add_argument("domain")
    cra.add_argument("--base", type=point)
    _add_common(cra)
    cra.set_defaults(func=cmd_confrad)

    har = subs.add_parser("harm", help="harmonic measure of a boundary side")
    har.add_argument("domain")
    har.add_argument("--alpha", type=point,
                     help="interior base point for the map (default: a rectangle's centre or "
                          "the node mean, if inside, else the grid point farthest from the edge)")
    sides = har.add_mutually_exclusive_group()
    sides.add_argument("--side", type=int, default=1,
                       help="1-based side index; side k runs from corner k to corner k+1")
    sides.add_argument("--sum", action="store_true",
                       help="sum over all sides instead of one side")
    modes = har.add_mutually_exclusive_group(required=True)
    modes.add_argument("--z", type=point)
    _add_grid_mode(har, modes)
    _add_common(har)
    har.set_defaults(func=cmd_harm)

    qua = subs.add_parser("quadmod", help="quadrilateral modulus")
    qua.add_argument("domain", nargs="?", help="domain file (--params mode)")
    modes = qua.add_mutually_exclusive_group(required=True)
    modes.add_argument("--angles-pi", type=_arg(_parse_four),
                       help='four circle angles as multiples of pi, e.g. "-1,-0.5,0,0.5"')
    modes.add_argument("--points", type=_arg(lambda text: _parse_four(text, _parse_complex)),
                       help="four complex points on the unit circle")
    modes.add_argument("--params", type=_arg(_parse_four),
                       help="four boundary parameter values in [0, 2pi) of DOMAIN")
    qua.add_argument("--alpha", type=point, help="base point (--params mode)")
    qua.add_argument("--oracle", action="store_true")
    qua.add_argument("--trace", help="write iteration trace CSV")
    _add_common(qua)
    qua.set_defaults(func=cmd_quadmod)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return exc.code
    try:
        return args.func(args) or 0
    except ConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
