"""Command-line front end.

Verbs: eval | star | conj | sym | recip | zeros | factor | mult | series |
laurent | singular | cauchy | volume-cauchy | douren | selftest.

Input is a JSON object, either inline or via --input PATH. Quaternions are
always [w, x, y, z] (bare numbers are accepted for reals). Function specs:

    {"poly": [c0, c1, ...]}                  right coefficients, ascending
    {"rational": {"num": [...], "den": [...]}}
    {"douren": "f" | "g" | "h" | "ell" | "m" | "D"}

Output is deterministic JSON (sorted keys) or CSV for table-shaped reports.
Exit codes: 0 success, 2 domain/precondition errors, 3 numeric failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import douren as douren_mod
from .algebra import (QPoly, QRational, _as_slicefn, conjugate, reciprocal,
                      star_product, symmetrize)
from .domains import BOUNDARY_TOL, cap_component, slice_clearance
from .errors import (EmptyInput, NotInDomain, NumericError, ParamOutOfRange,
                     SliceRegularError)
from .integral import SymmetricRegion, local_cauchy, volume_cauchy
from .quaternion import Quaternion
from .series import classify_singularity, laurent_coeffs, spherical_coeffs
from .slicefn import spherical_data
from .zeros import (factor_out_point, factor_out_sphere, multiplicities,
                    poly_zeros, zero_scan)


# ---------------------------------------------------------------------------
# Spec parsing

def parse_quat(v) -> Quaternion:
    if isinstance(v, (int, float)):
        return Quaternion(float(v))
    if isinstance(v, (list, tuple)) and len(v) == 4:
        return Quaternion(*[float(c) for c in v])
    raise ParamOutOfRange("a quaternion must be a number or [w,x,y,z]: %r" % (v,))


def parse_probes(v) -> list:
    if not isinstance(v, list):
        raise ParamOutOfRange("probes must be a list of quaternions: %r"
                              % (v,))
    return [parse_quat(p) for p in v]


def parse_poly(coeffs) -> QPoly:
    return QPoly([parse_quat(c) for c in coeffs])


# the douren fixtures a function spec may name
DOUREN_FUNCTIONS = ("f", "g", "h", "ell", "m", "D")


def parse_function(spec):
    if isinstance(spec, list):
        return parse_poly(spec)
    if not isinstance(spec, dict):
        raise ParamOutOfRange("bad function spec %r" % (spec,))
    if "poly" in spec:
        return parse_poly(spec["poly"])
    if "rational" in spec:
        num = parse_poly(spec["rational"]["num"])
        den = parse_poly(spec["rational"]["den"])
        if den.is_real():
            return QRational(num, den)
        # non-real denominator: interpret as the star quotient den^{-*} * num
        return QRational(star_product(den.conjugate(), num), den.symmetrize())
    if "douren" in spec:
        name = spec["douren"]
        if name not in DOUREN_FUNCTIONS:
            raise ParamOutOfRange("unknown douren function %r: one of %s"
                                  % (name, ", ".join(DOUREN_FUNCTIONS)))
        # fixture members are built on first access: only this one is
        return getattr(douren_mod.fixtures(), name)
    raise ParamOutOfRange("function spec needs 'poly', 'rational' or 'douren'")


def load_payload(args) -> dict:
    raw = args.input
    if raw is None:
        raise EmptyInput("this verb needs --input (a path or inline JSON)")
    text = raw if raw.lstrip().startswith(("{", "[")) else open(raw).read()
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ParamOutOfRange("the input must be a JSON object: %r" % (data,))
    return data


# ---------------------------------------------------------------------------
# Output

def _jsonify(x):
    if isinstance(x, Quaternion):
        return x.to_json()
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, dict):
        return {k: _jsonify(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonify(v) for v in x]
    return x


def emit(report, args) -> None:
    report = _jsonify(report)
    if args.format == "csv" and isinstance(report, dict) and "rows" in report:
        lines = [",".join(str(c) for c in report.get("columns", []))]
        for row in report["rows"]:
            lines.append(",".join(json.dumps(c, separators=(",", ":"))
                                  if isinstance(c, (list, dict)) else str(c)
                                  for c in row))
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(report, sort_keys=True, indent=2,
                          separators=(",", ": ")) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def poly_json(p: QPoly):
    return {"coeffs": [c.to_json() for c in p.coeffs]}


# ---------------------------------------------------------------------------
# Verb handlers

def cmd_eval(args):
    data = load_payload(args)
    f = _as_slicefn(parse_function(data["function"]))
    rows = [[q.to_json(), f(q).to_json()]
            for q in parse_probes(data["probes"])]
    return {"columns": ["probe", "value"], "rows": rows}


def _operation(args, key, op, binary=False):
    """op on f (and g): exact coefficients under key when every operand is
    a polynomial, else the result's value at each probe. A unary verb reads
    "f" or "function"."""
    data = load_payload(args)
    if binary:
        fs = [parse_function(data["f"]), parse_function(data["g"])]
    else:
        fs = [parse_function(data["f"] if "f" in data else data["function"])]
    out = op(*fs)
    if all(isinstance(f, QPoly) for f in fs):
        if isinstance(out, QPoly):
            return {key: poly_json(out)}
        return {key: {"num": poly_json(out.num), "den": poly_json(out.den)}}
    out = _as_slicefn(out)
    rows = [[q.to_json(), out(q).to_json()]
            for q in parse_probes(data.get("probes", []))]
    return {"columns": ["probe", "value"], "rows": rows}


def cmd_star(args):
    return _operation(args, "product", star_product, binary=True)


def cmd_conj(args):
    return _operation(args, "conjugate", conjugate)


def cmd_sym(args):
    return _operation(args, "symmetrization", symmetrize)


def cmd_recip(args):
    return _operation(args, "reciprocal", reciprocal)


def cmd_zeros(args):
    data = load_payload(args)
    f = parse_function(data["function"])
    if isinstance(f, QPoly):
        return poly_zeros(f).to_json()
    if isinstance(f, QRational):
        return poly_zeros(f.num).to_json()
    return zero_scan(f, resolution=data.get("resolution", 0.05)).to_json()


def cmd_factor(args):
    data = load_payload(args)
    f = parse_function(data["function"])
    if "point" in data:
        out = factor_out_point(f, parse_quat(data["point"]))
    else:
        x0, y0 = data["sphere"]
        out = factor_out_sphere(f, float(x0), float(y0))
    if isinstance(out, QPoly):
        return {"quotient": poly_json(out)}
    rows = [[q.to_json(), out(q).to_json()]
            for q in parse_probes(data.get("probes", []))]
    return {"columns": ["probe", "quotient_value"], "rows": rows}


def cmd_mult(args):
    data = load_payload(args)
    f = parse_function(data["function"])
    p = parse_quat(data["point"])
    classical, spherical, isolated = multiplicities(f, p)
    return {"point": p.to_json(), "classical": classical,
            "spherical": spherical, "isolated": isolated}


def cmd_series(args):
    data = load_payload(args)
    f = parse_function(data["function"])
    x0, y0 = [float(v) for v in data["sphere"]]
    cap = None
    if "cap_point" in data:
        fn = _as_slicefn(f)
        cap = cap_component(fn.domain, parse_quat(data["cap_point"]))
    s = spherical_coeffs(f, x0, y0, cap=cap,
                         depth=data.get("depth", 32),
                         nodes=data.get("nodes", 1024),
                         window_bottom=data.get("window_bottom", -8))
    out = s.to_json()
    r1, r2 = s.cassini_radii()
    out["cassini_radii"] = [r1, r2 if math.isfinite(r2) else "inf"]
    out["spherical_order"] = s.spherical_order()
    return out


def cmd_laurent(args):
    data = load_payload(args)
    f = parse_function(data["function"])
    window = data.get("window", [-12, 12])
    s = laurent_coeffs(f, parse_quat(data["point"]), window=window,
                       radius=data.get("radius"),
                       nodes=data.get("nodes", 2048))
    out = s.to_json()
    out["window"] = list(window)
    out["inner_radius"] = s.inner_radius()
    r2 = s.outer_radius()
    out["outer_radius"] = r2 if math.isfinite(r2) else "inf"
    return out


def cmd_singular(args):
    data = load_payload(args)
    f = parse_function(data["function"])
    rep = classify_singularity(f, parse_quat(data["point"]),
                               window=data.get("window", [-16, 8]),
                               radius=data.get("radius"),
                               nodes=data.get("nodes", 2048))
    return rep.to_json()


def _parse_region(spec) -> SymmetricRegion:
    if "ball" in spec:
        c, r = spec["ball"]
        return SymmetricRegion.ball(float(c), float(r))
    if "tube" in spec:
        x0, y0, rho = spec["tube"]
        return SymmetricRegion.sphere_shell(float(x0), float(y0), float(rho))
    raise ParamOutOfRange("region spec needs 'ball' or 'tube'")


def _parse_unit(v) -> Quaternion:
    q = parse_quat(v if len(v) == 4 else [0.0] + list(v))
    n = q.im_norm()
    if q.re() != 0.0 or n == 0.0:
        raise ParamOutOfRange("a slice unit must be purely imaginary")
    return q * (1.0 / n)


def cmd_cauchy(args):
    data = load_payload(args)
    f = _as_slicefn(parse_function(data["function"]))
    U = _parse_region(data["region"])
    I = _parse_unit(data.get("unit", [0.0, 1.0, 0.0, 0.0]))
    j0 = _parse_unit(data["j0"]) if "j0" in data else None
    nodes = data.get("nodes", 1024)
    rows = []
    for q in parse_probes(data["probes"]):
        v = local_cauchy(f, I, U, q, j0=j0, nodes=nodes)
        # one membership test: f(q) runs it and raises NotInDomain
        try:
            d = f(q)
        except NotInDomain:
            resid = None
        else:
            resid = (v - d).norm() / max(d.norm(), 1.0)
        rows.append([q.to_json(), v.to_json(), resid])
    return {"columns": ["probe", "value", "residual"], "rows": rows}


def cmd_volume_cauchy(args):
    data = load_payload(args)
    f = _as_slicefn(parse_function(data["function"]))
    c, r = data["ball"]
    U = SymmetricRegion.ball(float(c), float(r))
    rows = []
    for q in parse_probes(data["probes"]):
        v = volume_cauchy(f, U, q,
                          curve_nodes=data.get("curve_nodes", 256),
                          sphere_nodes=data.get("sphere_nodes", 590))
        d = f(q)
        rows.append([q.to_json(), v.to_json(),
                     (v - d).norm() / max(d.norm(), 1.0)])
    return {"columns": ["probe", "value", "residual"], "rows": rows}


# ---------------------------------------------------------------------------
# douren

def cmd_douren(args):
    fx = douren_mod.fixtures()
    if args.grid:
        return _douren_grid(fx, args.grid)
    report = {"caps": _douren_cap_table(fx)}
    if args.caps:
        return report["caps"]
    report["jump"] = {"argument_jump": douren_mod.cut_jump(),
                      "expected": 2.0 * math.pi}
    report["fixtures"] = _douren_fixture_report(fx)
    return report


def _douren_cap_table(fx):
    rows = []
    for name, cap, unit in (("C+", fx.cap_plus, fx.cfg.base_unit),
                            ("C-", fx.cap_minus, fx.I0)):
        p = Quaternion(-1.0) + unit * 2.0
        d = spherical_data(fx.f, p)
        rows.append([name, [-1.0, 2.0], d.value.to_json(),
                     d.derivative.to_json()])
    return {"columns": ["cap", "sphere", "spherical_value",
                        "spherical_derivative"], "rows": rows}


def _douren_fixture_report(fx):
    """The ghost divisor of the three-case factorization example: with
    p~ = -1 + 2·I0 on the far cap C-, q - p~ divides shifted_g(p~) near C+
    although shifted_g(p~)(p~) != 0."""
    from .zeros import divides_near, vanishes_on_cap
    p_tilde = Quaternion(-1.0) + fx.I0 * 2.0
    sg = fx.shifted_g(p_tilde)
    return {
        "ghost_divisor_at_far_cap_point": bool(
            divides_near(sg, p_tilde, fx.cap_plus)),
        "g_nonzero_there": sg(p_tilde).norm() > 1e-3,
        "ell_vanishes_on_C+": bool(vanishes_on_cap(fx.ell, fx.cap_plus)),
        "h_value_scale_near_far_cap": fx.h(
            Quaternion(-1.0) + fx.I1 * 2.000001).norm(),
    }


def _douren_grid(fx, grid: str):
    try:
        nx, ny = [int(v) for v in grid.lower().split("x")]
    except ValueError:
        raise ParamOutOfRange("--grid wants NxM, e.g. 80x60")
    I = fx.cfg.base_unit
    xs = np.linspace(-4.0, 2.0, nx)
    ys = np.linspace(0.05, 4.0, ny)
    # one membership call and one evaluation call for the whole grid, row
    # by row in y
    z = (xs[None, :] + 1j * ys[:, None]).ravel()
    inside = slice_clearance(fx.domain, z, I) > BOUNDARY_TOL
    vals = np.zeros((z.size, 4))
    vals[inside] = fx.f.eval_slice_many(z[inside], I)
    cells = [v.tolist() if ok else None for v, ok in zip(vals, inside)]
    rows = [cells[k * nx:(k + 1) * nx] for k in range(ny)]
    return {"x": xs.tolist(), "y": ys.tolist(), "unit": I.to_json(),
            "values": rows}


# ---------------------------------------------------------------------------
# selftest: the flagship check battery at a quick scale

# selftest's sample counts as a fraction of the acceptance suite's
SELFTEST_SCALE = 0.05


def cmd_selftest(args):
    # imported here: the battery stays out of the CLI's import time
    from . import checks
    rows = []
    for name, seed, check in checks.battery(checks.FX.phi0_pbar):
        rng = np.random.default_rng([args.seed, seed or 0])
        try:
            ok, note = check(rng, SELFTEST_SCALE)
        except Exception as exc:  # a crashed check is a failed check
            ok, note = False, "%s: %s" % (type(exc).__name__, exc)
        rows.append([name, "pass" if ok else "FAIL", note])
        print("%-44s %s  (%s)" % tuple(rows[-1]))
    failed = sum(row[1] == "FAIL" for row in rows)
    if args.out:
        emit({"columns": ["criterion", "status", "note"], "rows": rows,
              "all_pass": not failed}, args)
    if failed:
        raise NumericError("%d of %d checks failed" % (failed, len(rows)))


# ---------------------------------------------------------------------------
# Entry point

@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged. The
    # handler each verb's set_defaults binds is fixed at the first call, so
    # a cmd_* function patched later is not the one main runs (no test
    # patches one).
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output file (default stdout)")
    common.add_argument("--format", choices=("json", "csv"), default="json")

    ap = argparse.ArgumentParser(
        prog="sliceregular",
        description="calculator/verifier for quaternionic slice regular "
                    "functions on general slice domains")
    sub = ap.add_subparsers(dest="verb", required=True)
    verbs = {
        "eval": cmd_eval, "star": cmd_star, "conj": cmd_conj,
        "sym": cmd_sym, "recip": cmd_recip, "zeros": cmd_zeros,
        "factor": cmd_factor, "mult": cmd_mult, "series": cmd_series,
        "laurent": cmd_laurent, "singular": cmd_singular,
        "cauchy": cmd_cauchy, "volume-cauchy": cmd_volume_cauchy,
    }
    for name, fn in verbs.items():
        sp = sub.add_parser(name, parents=[common])
        sp.add_argument("--input", help="spec path or inline JSON")
        sp.set_defaults(handler=fn)
    sp = sub.add_parser("douren", parents=[common])
    sp.add_argument("--caps", action="store_true",
                    help="emit only the cap spherical-data table")
    sp.add_argument("--grid", help="NxM slice grid for field output")
    sp.set_defaults(handler=cmd_douren)
    sp = sub.add_parser("selftest", parents=[common])
    sp.add_argument("--seed", type=int, default=0,
                    help="combined with each check's own seed")
    sp.set_defaults(handler=cmd_selftest)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.handler(args)
    except SliceRegularError as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return exc.exit_code
    except (KeyError, ValueError, OSError) as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2
    if report is not None:
        emit(report, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
