import math

import numpy as np
import pytest

from sliceregular.algebra import (QPoly, binom, real_quadratic, star_product,
                                  sym_eval)
from sliceregular.douren import DourenConfig, fixtures
from sliceregular.errors import NotADivisor, NotInDomain
from sliceregular.quaternion import (QI, QJ, QK, Quaternion, embed_complex,
                                     rotate_unit, slice_decompose)
from sliceregular.slicefn import SliceFunction
from sliceregular.zeros import (cap_zeros, divides_near, factor_out_point,
                                factor_out_sphere, multiplicities,
                                newton_polish_on_slice, poly_zeros,
                                real_poly_roots, zero_scan)

FX = fixtures(DourenConfig())


def star_chain(factors):
    acc = QPoly([1.0])
    for f in factors:
        acc = star_product(acc, f)
    return acc


def test_real_poly_roots_frozen():
    # (x - 1)^2 (x + 3): double root at 1, simple at -3
    roots = sorted(real_poly_roots([ -3.0, 5.0, -1.0, -1.0][::-1] if False
                                   else [3.0, -5.0, 1.0, 1.0]), key=lambda r: r.real)
    # coefficients ascending of (x-1)^2(x+3) = x^3 + x^2 - 5x + 3
    vals = sorted(r.real for r in roots)
    assert vals[0] == pytest.approx(-3.0, abs=1e-8)
    assert vals[1] == pytest.approx(1.0, abs=1e-6)
    assert vals[2] == pytest.approx(1.0, abs=1e-6)


def test_zero_collapse():
    p = star_chain([binom(QI), binom(QJ)])
    rep = poly_zeros(p)
    assert len(rep.isolated) == 1 and not rep.spherical
    z = rep.isolated[0]
    assert (z.point - QI).norm() < 1e-12
    assert p.eval(z.point).norm() < 1e-12


def test_symmetric_pair_gives_sphere():
    p = star_chain([binom(QI), binom(-QI)])   # = q^2 + 1
    rep = poly_zeros(p)
    assert not rep.isolated and len(rep.spherical) == 1
    s = rep.spherical[0]
    assert (s.x, s.y) == pytest.approx((0.0, 1.0), abs=1e-10)
    assert s.multiplicity == 2


def test_mixed_normal_form_report():
    quad = real_quadratic(0.0, 1.0)
    p = star_chain([quad, quad, binom(QI), binom(QJ), binom(Quaternion(3.0))])
    rep = poly_zeros(p)
    spheres = {(round(s.x, 6), round(s.y, 6)): s.multiplicity
               for s in rep.spherical}
    assert spheres == {(0.0, 1.0): 4}
    pts = sorted(rep.isolated, key=lambda z: z.point.re())
    assert len(pts) == 2
    assert (pts[0].point - QI).norm() < 1e-8
    assert pts[0].classical == 3       # two quads contribute (q-i) factors
    assert pts[0].isolated == 2
    assert (pts[1].point - Quaternion(3.0)).norm() < 1e-8
    assert pts[1].classical == 1


def test_multiplicities_on_constructed_products():
    rng = np.random.default_rng(71)
    for _ in range(10):
        x0 = rng.uniform(-1.5, 1.5)
        y0 = rng.uniform(0.4, 2.0)
        v = rng.standard_normal(3)
        J = Quaternion(0.0, *(v / np.linalg.norm(v)))
        p = Quaternion(x0) + J * y0
        m = int(rng.integers(0, 3))
        n = int(rng.integers(0, 4))
        g_tail = binom(Quaternion(5.0) + QI * 3.0)   # far-away extra factor
        factors = [real_quadratic(x0, y0)] * m + [binom(p)] * n + [g_tail]
        f = star_chain(factors)
        classical, spherical, isolated = multiplicities(f, p)
        assert spherical == 2 * m
        assert isolated == n
        assert classical == m + n


def test_multiplicities_alternating_chain():
    # (q-p)*(q-pbar)*(q-p) is NOT quad*(q-p): the chain alternates
    p = QI
    f = star_chain([binom(p), binom(p.conj()), binom(p)])
    classical, spherical, isolated = multiplicities(f, p)
    assert spherical == 2 and isolated == 1 and classical == 2


def test_factor_out_point_exact():
    g = QPoly([Quaternion(1, 0, 2, 0), 1.0])
    f = star_product(binom(QJ), g)
    quot = factor_out_point(f, QJ)
    assert (quot - g).scale() < 1e-12
    with pytest.raises(NotADivisor):
        factor_out_point(f, QK * 2.0)


def test_factor_out_sphere_exact():
    g = QPoly([QI, 1.0])
    f = star_product(real_quadratic(0.5, 1.5), g)
    quot = factor_out_sphere(f, 0.5, 1.5)
    assert (quot - g).scale() < 1e-12


def test_factor_out_point_numeric_ghost():
    # dividing the ghost divisor out of the branch-log fixture: the quotient
    # times (q - p_tilde) must reproduce the function on the near cap
    I = DourenConfig().base_unit
    p_tilde = Quaternion(-1.0) + rotate_unit(I, QJ, 2.0) * 2.0
    sg = FX.shifted_g(p_tilde)
    quot = factor_out_point(sg, p_tilde, cap=FX.cap_plus)
    from sliceregular.algebra import star_eval
    bfn = SliceFunction.from_exact(binom(p_tilde))
    for ang in (0.1, 0.25):
        J = rotate_unit(I, QK, ang)
        q = Quaternion(-0.7) + J * 2.2
        back = star_eval(bfn, quot, q)
        assert (back - sg(q)).norm() < 1e-6 * (1.0 + sg(q).norm())


def test_divides_near_requires_cap_sphere():
    from sliceregular.errors import CapMismatch
    with pytest.raises(CapMismatch):
        divides_near(FX.g, Quaternion(3.0) + QI * 1.0, FX.cap_plus)


def test_cap_zeros_on_fixtures():
    # ell vanishes identically on C+ and at the single point pbar on C-
    kind, _ = cap_zeros(FX.ell, FX.cap_plus)
    assert kind == "cap"
    kind, pt = cap_zeros(FX.ell, FX.cap_minus)
    assert kind == "point"
    assert (pt - FX.pbar).norm() < 1e-8
    # m has one isolated zero per cap: p0 on the far cap, and the
    # conjugation-transported point on the near cap
    kind, pt = cap_zeros(FX.m, FX.cap_plus)
    assert kind == "point"
    assert FX.cap_plus.contains_unit(slice_decompose(pt).unit)
    assert FX.m(pt).norm() < 1e-8
    kind2, pt2 = cap_zeros(FX.m, FX.cap_minus)
    assert kind2 == "point"
    assert (pt2 - FX.p0).norm() < 1e-8


def test_newton_polish_quadratic_convergence():
    p = star_chain([binom(Quaternion(0.5) + QJ * 1.5), binom(QI * 3.0)])
    f = SliceFunction.from_exact(p)
    z = newton_polish_on_slice(f, complex(0.47, 1.52), QJ, iters=8)
    assert abs(z - complex(0.5, 1.5)) < 1e-12


def test_zero_scan_finds_isolated_and_spherical():
    p = star_chain([real_quadratic(0.0, 1.0), binom(Quaternion(0.5) + QK * 0.5)])
    f = SliceFunction.from_exact(p, domain=None)
    from sliceregular.domains import ball
    rep = zero_scan(f, dom=ball(0.0, 2.0), resolution=0.1)
    assert any((z.point - (Quaternion(0.5) + QK * 0.5)).norm() < 1e-6
               for z in rep.isolated)
    assert any(abs(s.x) < 1e-6 and abs(s.y - 1.0) < 1e-6
               for s in rep.spherical)


def test_report_json_round_trip():
    p = star_chain([binom(QI), binom(QJ)])
    rep = poly_zeros(p)
    data = rep.to_json()
    assert data["isolated"][0]["point"] == pytest.approx([0.0, 1.0, 0.0, 0.0],
                                                         abs=1e-12)
    assert data["spherical"] == []


def _sphere_rows(cap, n, seed):
    """n units of the cap, at the point -1 + 2i of -1 + 2S, as rows."""
    units = np.array([u.components()[1:] for u in
                      cap.sample_units(n, np.random.default_rng(seed))])
    return np.full(n, complex(-1.0, 2.0)), units


def test_factor_out_point_fills_the_removable_sphere():
    # on -1 + 2S in C+ every row of the quotient is a fill; its stem rows
    # satisfy (q - p~) * g = shifted_g(p~) there
    from sliceregular.algebra import star_stems
    p_tilde = FX.p0
    sg = FX.shifted_g(p_tilde)
    quot = factor_out_point(sg, p_tilde, cap=FX.cap_plus)
    z, units = _sphere_rows(FX.cap_plus, 16, 1213)
    back = star_stems(binom(p_tilde).stems(z), quot.stems(z, units))
    want = sg.stems(z, units)
    assert np.abs(back - want).max() < 1e-13 * np.abs(want).max()


def test_factor_out_sphere_fills_the_removable_sphere():
    # f = S * g with S = (q+1)^2 + 4 vanishes on both caps of -1 + 2S: the
    # quotient f / S is g on the sphere (filled rows) and 0.05 off it
    S = SliceFunction.from_exact(real_quadratic(-1.0, 2.0))
    f = star_product(S, FX.g)
    for cap in (FX.cap_plus, FX.cap_minus):
        h = factor_out_sphere(f, -1.0, 2.0, cap)
        z, units = _sphere_rows(cap, 16, 1214)
        for zz in (z, z + 0.05 * np.exp(1j * np.arange(16))):
            want = FX.g.stems(zz, units)
            assert np.abs(h.stems(zz, units) - want).max() \
                < 1e-13 * np.abs(want).max()


def test_factor_out_point_leaves_out_the_sphere_off_its_cap():
    # (q - p0) divides shifted_g(p0) on C+ only: on C- the sphere -1 + 2S is
    # a pole of the quotient, so pbar is not in its domain
    from sliceregular.domains import slice_clearance
    quot = factor_out_point(FX.shifted_g(FX.p0), FX.p0, cap=FX.cap_plus)
    with pytest.raises(NotInDomain):
        quot(FX.pbar)
    assert quot(FX.pbar + Quaternion(1e-6)).norm() > 1e5
    assert np.isfinite(quot(FX.p).norm())
    z, units = _sphere_rows(FX.cap_minus, 8, 1215)
    assert np.all(slice_clearance(quot.domain, z, units) == 0.0)
    z, units = _sphere_rows(FX.cap_plus, 8, 1216)
    assert np.all(slice_clearance(quot.domain, z, units) > 0.0)
