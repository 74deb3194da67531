"""The four benchmark workloads.

Each workload has three parts:

* ``setup()`` builds what every task needs (the part a user pays once per
  process) and returns it;
* ``make_input(rng, i)`` draws task ``i`` from the seeded generator with
  numpy alone, so the library sees only the generated inputs;
* ``run(state, inp)`` makes the library calls of one task; the worker times
  this part and nothing else;
* ``check(inp, out)`` compares the answers with the independent references
  of ``refs.py`` and returns ``(ok, digits)``: whether every check passed,
  and the worst -log10(relative error) against a numeric reference (None
  when the task has none).

Tolerances are those of the tier-1 tests for the same quantity, never
looser.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

import refs

# cap of -1 + 2S that each singular-sweep task visits, in a fixed repeating
# order so every run has the same mix: the median of every prefix longer
# than two falls on C+ points, the middle cost mode; the fixed point pbar
# (the slowest task) comes early so every run's maximum is the same kind of
# task; a C- task, the one with a numeric reference, comes first
SWEEP_KINDS = ("C-", "pbar", "C+", "C+", "C+", "C+")


def _quat(v):
    from sliceregular.quaternion import Quaternion
    return Quaternion(*[float(c) for c in v])


def _run_cli(argv):
    """sliceregular.cli.main in-process; the parsed JSON report."""
    from sliceregular import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError("cli %s exited with %d" % (argv[0], code))
    return json.loads(buf.getvalue())


def _worst(ds):
    ds = [d for d in ds if d is not None]
    return min(ds) if ds else None


# ---------------------------------------------------------------------------

class PolyExact:
    """Exact symmetric path: one seeded degree-5 polynomial per task."""

    name = "poly-exact"
    # sphere centres (x, y) of the quadratic factor and of r1, r2, r3, far
    # enough apart (>= 0.9 after jitter) that the Laurent disk of radius 0.4
    # around r1 holds no other pole of the reciprocal
    CENTRES = np.array([[-1.3, 1.0], [1.0, 0.9], [0.0, 1.7], [-0.2, 0.5]])
    BALL = (0.0, 1.5)
    CAUCHY_NODES = 512
    VOLUME_NODES = (32, 24)     # (curve, sphere): exact for degree 5

    def setup(self):
        import sliceregular   # noqa: F401  (the whole package, as users load it)
        return None

    def make_input(self, rng, i):
        centres = self.CENTRES + rng.uniform(-0.1, 0.1, self.CENTRES.shape)
        roots = [np.array([x, 0.0, 0.0, 0.0]) + y * refs.random_unit(rng)
                 for x, y in centres[1:]]
        c = rng.standard_normal(4)
        c *= rng.uniform(0.5, 2.0) / np.linalg.norm(c)
        x0, y0 = centres[0]
        on_quad = np.array([x0, 0.0, 0.0, 0.0]) + y0 * refs.random_unit(rng)
        probes = []
        for _ in range(4):
            v = rng.standard_normal(4)
            probes.append(v / np.linalg.norm(v) * rng.uniform(0.1, 1.0))
        near = [on_quad + 0.2 * rng.standard_normal(4) for _ in range(4)]
        v = rng.standard_normal(4)
        vol_probe = v / np.linalg.norm(v) * rng.uniform(0.1, 0.5)
        return dict(x0=x0, y0=y0, roots=roots, c=c, on_quad=on_quad,
                    probes=probes, near=near, vol_probe=vol_probe)

    def run(self, state, inp):
        from sliceregular import algebra, integral, series, zeros
        from sliceregular.slicefn import SliceFunction
        f = algebra.real_quadratic(inp["x0"], inp["y0"])
        for r in inp["roots"]:
            f = algebra.star_product(f, algebra.binom(_quat(r)))
        f = algebra.star_product(f, algebra.QPoly([_quat(inp["c"])]))
        recip = algebra.reciprocal_poly(f)
        ident = algebra.star_product(f, recip.num)
        report = zeros.poly_zeros(f)
        r1, r3 = _quat(inp["roots"][0]), _quat(inp["roots"][2])
        mults = [zeros.multiplicities(f, _quat(inp["on_quad"])),
                 zeros.multiplicities(f, r1), zeros.multiplicities(f, r3)]
        ser = series.spherical_coeffs(f, inp["x0"], inp["y0"])
        ser_vals = [ser.eval(_quat(q)) for q in inp["near"]]
        fn = SliceFunction.from_exact(f)
        U = integral.SymmetricRegion.ball(*self.BALL)
        unit = _quat([0.0, 1.0, 0.0, 0.0])
        cauchy = [integral.local_cauchy(fn, unit, U, _quat(q),
                                        nodes=self.CAUCHY_NODES)
                  for q in inp["probes"]]
        lser = series.laurent_coeffs(recip, r1, window=(-4, 4))
        vol = integral.volume_cauchy(
            fn, integral.SymmetricRegion.ball(0.0, 1.0),
            _quat(inp["vol_probe"]), curve_nodes=self.VOLUME_NODES[0],
            sphere_nodes=self.VOLUME_NODES[1])
        return dict(
            coeffs=[c.components() for c in f.coeffs],
            num=[c.components() for c in recip.num.coeffs],
            den=[c.components() for c in recip.den.coeffs],
            ident=[c.components() for c in ident.coeffs],
            spherical=[(s.x, s.y, s.multiplicity) for s in report.spherical],
            isolated=[z.point.components() for z in report.isolated],
            mults=mults,
            ser_vals=[v.components() for v in ser_vals],
            cauchy=[v.components() for v in cauchy],
            laurent={n: c.components() for n, c in lser.coeffs.items()},
            vol=vol.components())

    def check(self, inp, out):
        x0, y0 = inp["x0"], inp["y0"]
        quad = [[x0 * x0 + y0 * y0, 0, 0, 0], [-2 * x0, 0, 0, 0], [1, 0, 0, 0]]
        want = np.array(quad, dtype=float)
        for r in inp["roots"]:
            want = refs.star_coeffs(want, [-r, [1.0, 0, 0, 0]])
        want = refs.star_coeffs(want, [inp["c"]])
        scale = np.linalg.norm(want)
        got = np.array(out["coeffs"])
        errs = [np.linalg.norm(got - want) / scale]
        ok = got.shape == want.shape
        # reciprocal: num/den (common real factors cancelled) must equal
        # f^c/f^s, and f * num = den is the identity f * f^{-*} = 1
        fc = refs.conj_coeffs(want)
        fs = refs.star_coeffs(want, fc)
        num, den = np.array(out["num"]), np.array(out["den"])
        errs.append(refs.rel_err(refs.star_coeffs(num, fs),
                                 refs.star_coeffs(fc, den)))
        errs.append(refs.rel_err(out["ident"], den))
        ok = ok and max(errs) <= 1e-9 \
            and np.abs(den[:, 1:]).max() <= 1e-9 * np.linalg.norm(den)
        # zeros: the quadratic's sphere with multiplicity 2 and one isolated
        # zero per root sphere, equal to r1 on the sphere of r1
        sph = out["spherical"]
        ok = ok and len(sph) == 1 and sph[0][2] == 2 \
            and abs(sph[0][0] - x0) < 1e-8 and abs(sph[0][1] - y0) < 1e-8
        iso = [np.array(z) for z in out["isolated"]]
        ok = ok and len(iso) == 3
        r1 = inp["roots"][0]
        for r in inp["roots"]:
            on = [z for z in iso
                  if abs(z[0] - r[0]) < 1e-8
                  and abs(np.linalg.norm(z[1:]) - np.linalg.norm(r[1:])) < 1e-8]
            ok = ok and len(on) == 1
            for z in on:
                mod = sum(np.linalg.norm(c) * np.linalg.norm(z) ** n
                          for n, c in enumerate(want))
                errs.append(np.linalg.norm(refs.poly_eval(want, z)) / mod)
        errs.append(min((refs.rel_err(z, r1) for z in iso), default=1.0))
        ok = ok and errs[-1] < 1e-8
        # multiplicity normal forms: (classical, spherical, isolated)
        ok = ok and [tuple(m) for m in out["mults"]] == \
            [(1, 2, 0), (1, 0, 1), (0, 0, 1)]
        # exact spherical series round trip
        for q, v in zip(inp["near"], out["ser_vals"]):
            ref = refs.poly_eval(want, q)
            e = np.linalg.norm(np.array(v) - ref) / (1.0 + np.linalg.norm(ref))
            errs.append(e)
            ok = ok and e <= 1e-9
        # local Cauchy on the ball, unit-independent reconstruction
        for q, v in zip(inp["probes"], out["cauchy"]):
            ref = refs.poly_eval(want, q)
            e = np.linalg.norm(np.array(v) - ref) / (1.0 + np.linalg.norm(ref))
            errs.append(e)
            ok = ok and e <= 1e-8
        # Laurent of the reciprocal at r1: a simple pole with
        # a_{-1} = (f^s)'(r1)^{-1} f^c(r1)
        res = refs.quat_mul(refs.qinv(refs.real_poly_derivative_at(fs, r1)),
                            refs.poly_eval(fc, r1))
        lc = out["laurent"]
        e = refs.rel_err(lc[-1], res)
        errs.append(e)
        big = max(np.linalg.norm(v) for v in lc.values())
        ok = ok and e <= 1e-9 and all(np.linalg.norm(lc[n]) <= 1e-10 * big
                                      for n in lc if n < -1)
        # one volume Cauchy probe (tier-1 holds it to 1e-6)
        ref = refs.poly_eval(want, inp["vol_probe"])
        e = np.linalg.norm(np.array(out["vol"]) - ref) / (1.0 + np.linalg.norm(ref))
        errs.append(e)
        ok = ok and e <= 1e-6
        return bool(ok), _worst(refs.digits(e) for e in errs)


# ---------------------------------------------------------------------------

class CapLocal:
    """Cap-local Cauchy with j0 plus the ghost-divisor tests on Omega."""

    name = "cap-local"
    NODES = 256
    TUBE = (-1.0, 2.0, 0.4)

    def setup(self):
        from sliceregular import cli, douren  # noqa: F401
        douren.fixtures()
        return None

    def make_input(self, rng, i):
        # j0 in C- and clear of every cap boundary the tube's spheres carry
        # (|J - I| = t* ranges over [0.3, 0.7] across the tube)
        j0 = refs.unit_at_chord(rng, 0.8, 1.9)
        p = np.array([-1.0, 0.0, 0.0, 0.0]) + 2.0 * j0
        x = -1.0 + rng.uniform(-0.15, 0.15)
        y = 2.0 + rng.uniform(-0.15, 0.15)
        probe_unit = refs.rotate(j0, refs.random_unit(rng),
                                 rng.uniform(0.0, 0.04))
        probe = np.array([x, 0.0, 0.0, 0.0]) + y * probe_unit
        payload = json.dumps({
            "function": {"douren": "f"},
            "region": {"tube": list(self.TUBE)},
            "unit": j0[1:].tolist(), "j0": j0[1:].tolist(),
            "probes": [probe.tolist()], "nodes": self.NODES})
        return dict(p=p, probe=probe, payload=payload)

    def run(self, state, inp):
        from sliceregular import douren, zeros
        rep = _run_cli(["cauchy", "--input", inp["payload"]])
        fx = douren.fixtures()
        p = _quat(inp["p"])
        sg = fx.shifted_g(p)
        return dict(value=rep["rows"][0][1],
                    divides=zeros.divides_near(sg, p, fx.cap_plus),
                    ghost=sg(p).components(),
                    vanishes=zeros.vanishes_on_cap(fx.ell, fx.cap_plus))

    def check(self, inp, out):
        e_val = refs.rel_err(out["value"], refs.douren_value(inp["probe"]))
        vp, dp = refs.douren_spherical(-1.0, 2.0, refs.BASE_UNIT)
        ghost = refs.ghost_shift_value(inp["p"], vp, dp)
        e_ghost = refs.rel_err(out["ghost"], ghost)
        ok = (e_val <= 1e-7 and out["divides"] and out["vanishes"]
              and np.linalg.norm(out["ghost"]) > 1e-2 and e_ghost <= 1e-9)
        return bool(ok), _worst([refs.digits(e_val), refs.digits(e_ghost)])


# ---------------------------------------------------------------------------

class SingularSweep:
    """The branch-log quotient sweep through the CLI `singular` verb."""

    name = "singular-sweep"
    NODES = 512
    WINDOW = [-8, 4]

    def setup(self):
        from sliceregular import cli, douren  # noqa: F401
        douren.fixtures()
        return None

    def make_input(self, rng, i):
        kind = SWEEP_KINDS[i % len(SWEEP_KINDS)]
        if kind == "pbar":
            unit = -refs.BASE_UNIT
        elif kind == "C+":
            unit = refs.unit_at_chord(rng, 0.02, 0.45)
        else:   # C-, kept 0.68 or more from pbar as in the tier-1 sweep
            unit = refs.unit_at_chord(rng, 0.562, 2.0 * math.sin(1.4))
        p = np.array([-1.0, 0.0, 0.0, 0.0]) + 2.0 * unit
        payload = json.dumps({"function": {"douren": "h"}, "point": p.tolist(),
                              "nodes": self.NODES, "window": self.WINDOW})
        return dict(kind=kind, unit=unit, payload=payload)

    def run(self, state, inp):
        return _run_cli(["singular", "--input", inp["payload"]])

    def check(self, inp, out):
        kind = inp["kind"]
        if kind == "C+":
            return out["kind"] == "removable" and out["order"] == 0.0, None
        if kind == "pbar":
            return out["kind"] == "nonremovable" and out["order"] == 0.0, None
        e = refs.rel_err(out["coeffs"]["-1"], refs.h_pole_residue(inp["unit"]))
        ok = out["kind"] == "pole" and out["order"] == 1.0 and e <= 1e-9
        return bool(ok), refs.digits(e)


# ---------------------------------------------------------------------------

class GridCaps:
    """Flood-fill caps of a fresh two-cap sphere near -1 + 2S."""

    name = "grid-caps"
    ANGULAR_STEP = 2.0      # degrees: the 10,242-vertex icosphere
    MEMBERS = 24            # units checked against the closed-form band
    DATA_UNITS = 3          # spherical-data probes per cap
    # chord margin kept from the cap boundary: three grid edges. The flood
    # fill drops vertices within one edge of clearance and a unit takes the
    # label of its nearest vertex, so closer units are below the grid's
    # resolution (0.05, the tier-1 margin for the 0.5-degree grid, is not
    # enough at 2 degrees)
    COLLAR = 3.0 * math.radians(ANGULAR_STEP)

    def setup(self):
        from sliceregular import domains, douren
        douren.fixtures()
        # the level-5 icosphere (2-degree edges) is a process-wide cache
        # that every process pays for once
        domains.icosphere(5)
        return douren.DourenConfig()

    def _unit(self, rng, band, inside):
        if inside:
            return refs.unit_at_chord(rng, 0.02, band - self.COLLAR)
        return refs.unit_at_chord(rng, band + self.COLLAR, 1.9)

    def make_input(self, rng, i):
        x = -1.0 + rng.uniform(-0.1, 0.1)
        y = 2.0 + rng.uniform(-0.1, 0.1)
        band = refs.sphere_band(x, y)
        return dict(
            x=x, y=y, band=band,
            inner=[self._unit(rng, band, True) for _ in range(self.DATA_UNITS)],
            outer=[self._unit(rng, band, False) for _ in range(self.DATA_UNITS)],
            members=[self._unit(rng, band, k % 2 == 0)
                     for k in range(self.MEMBERS)])

    def run(self, cfg, inp):
        from sliceregular import domains, douren
        from sliceregular.slicefn import SliceFunction, spherical_data
        x, y, step = inp["x"], inp["y"], self.ANGULAR_STEP
        dom = douren.omega_domain(cfg, closed_form_caps=False)

        def at(u):
            return _quat(np.array([x, 0.0, 0.0, 0.0]) + y * u)

        cap_in = domains.cap_component(dom, at(inp["inner"][0]), step)
        cap_out = domains.cap_component(dom, at(inp["outer"][0]), step)
        members = [(cap_in.contains_unit(_quat(u)),
                    cap_out.contains_unit(_quat(u))) for u in inp["members"]]
        f = SliceFunction(dom, lambda q: douren.f_douren(cfg, q),
                          label="douren-f-grid")
        data = []
        for u in inp["inner"] + inp["outer"]:
            d = spherical_data(f, at(u), step)
            data.append((d.value.components(), d.derivative.components()))
        return dict(members=members, data=data,
                    indices=(cap_in.index, cap_out.index))

    def check(self, inp, out):
        x, y, band = inp["x"], inp["y"], inp["band"]
        ok = out["indices"][0] != out["indices"][1]
        for u, (m_in, m_out) in zip(inp["members"], out["members"]):
            inside = np.linalg.norm(u - refs.BASE_UNIT) < band
            ok = ok and m_in == inside and m_out == (not inside)
        units = inp["inner"] + inp["outer"]
        wants = {}
        errs = []
        for k, (u, (v, d)) in enumerate(zip(units, out["data"])):
            side = k < len(inp["inner"])
            if side not in wants:
                wants[side] = refs.douren_spherical(x, y, u)
            wv, wd = wants[side]
            errs += [refs.rel_err(v, wv), refs.rel_err(d, wd)]
        ok = ok and max(errs) <= 1e-9
        return bool(ok), _worst(refs.digits(e) for e in errs)


WORKLOADS = {w.name: w for w in (PolyExact(), CapLocal(), SingularSweep(),
                                 GridCaps())}
