import math

import numpy as np
import pytest

from sliceregular.domains import DomainSpec, _flood_fill, icosphere
from sliceregular.douren import (DourenConfig, arc_point, arg_branch,
                                 cut_distance, f_douren, fixtures,
                                 omega_domain, phi_value)
from sliceregular.errors import NotInDomain, OnCut, ParamOutOfRange
from sliceregular.quaternion import QI, QJ, QK, Quaternion, rotate_unit
from sliceregular.slicefn import spherical_data
from sliceregular.zeros import divides_near, vanishes_on_cap

from oracles import trace_arg

CFG = DourenConfig()
FX = fixtures(CFG)
I = CFG.base_unit


def c_minus_unit(ang=2.2):
    return rotate_unit(I, QJ, ang)


def test_arc_point_endpoints():
    for t in (0.0, 0.3, 0.5, 1.0):
        for J in (QI, QJ, rotate_unit(QI, QK, 1.1)):
            a0 = arc_point(t, J, 0.0)
            a1 = arc_point(t, J, 0.5)
            assert (a0 - J * 2.0).norm() < 1e-12
            assert (a1 - (Quaternion(-2.0) + J * 2.0)).norm() < 1e-12
    mid = arc_point(0.5, QI, 0.25)
    assert (mid - (Quaternion(-1.0) + QI * 2.0)).norm() < 1e-12
    with pytest.raises(ParamOutOfRange):
        arc_point(-0.1, QI, 0.2)


def test_arg_branch_normalization():
    for x in (0.1, 1.0, 7.5):
        for t in (0.0, 0.4, 0.5, 0.9):
            assert abs(arg_branch(t, complex(x, 0.0))) < 1e-12


def test_arg_branch_frozen_values():
    assert arg_branch(0.0, -1 + 0j) == pytest.approx(-math.pi, abs=1e-12)
    assert arg_branch(0.0, -1 - 4j) == pytest.approx(-1.8157749899217608,
                                                     abs=1e-12)
    # the same probe on the other side of the degenerate pocket
    assert arg_branch(1.0, -1 + 0j) == pytest.approx(math.pi, abs=1e-12)


def test_arg_branch_on_cut_rejected():
    with pytest.raises(OnCut):
        arg_branch(0.0, -3.0 + 0j)        # on the halfline
    with pytest.raises(OnCut):
        arg_branch(0.0, -1.0 + 1.0j)      # top of the unit pocket


def test_arg_branch_vs_tracing_oracle():
    # dual route: the library classifies regions in closed form, the oracle
    # walks cut-avoiding polylines and accumulates argument increments
    rng = np.random.default_rng(61)
    n = 0
    while n < 80:
        t = rng.uniform(0.0, 1.0)
        w = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if abs(w) < 0.35 or cut_distance(t, w) < 5e-3:
            continue
        assert arg_branch(t, w) == pytest.approx(trace_arg(t, w), abs=1e-9)
        n += 1


def test_phi_real_trace():
    # phi_t(x + 2I) = ln(x) for x > 0 (w = x is a positive real)
    for t in (0.0, 0.25, 0.5, 0.8):
        for x in (0.5, 1.0, 3.0):
            v = phi_value(t, complex(x, 2.0))
            assert v == pytest.approx(complex(math.log(x), 0.0), abs=1e-12)


def test_phi_jump_inside_pocket():
    # phi_t - phi_0 = 2*pi*I inside C_t, 0 outside h union C_t
    t = 0.8
    inside = complex(-1.0, 2.0 - 0.3)     # inside the lower pocket of C_t
    outside = complex(2.0, 4.0)
    d_in = phi_value(t, inside) - phi_value(0.0, inside)
    d_out = phi_value(t, outside) - phi_value(0.0, outside)
    assert d_in == pytest.approx(complex(0.0, 2.0 * math.pi), abs=1e-12)
    assert abs(d_out) < 1e-12


def test_f_on_base_slice_is_branch_log():
    # T(I) = 0, so on L_I the function is the t = 0 branch log
    for z in (complex(0.5, 2.0), complex(-1.0, 4.5), complex(2.0, 1.0)):
        q = Quaternion(z.real) + I * z.imag
        want = phi_value(0.0, z)
        got = f_douren(CFG, q)
        assert (got - (Quaternion(want.real) + I * want.imag)).norm() < 1e-12


def test_f_membership_errors():
    # the real axis maps to height -2 of the translated plane, away from
    # every cut, so real points (even very negative ones) are in the domain
    got = FX.f(Quaternion(-3.0))
    want = phi_value(0.0, complex(-3.0, 0.0))
    assert (got - (Quaternion(want.real) + I * want.imag)).norm() < 1e-12
    J = c_minus_unit(2.8)
    # a point on the arc cut of its own slice
    t = min((J - I).norm(), 1.0)
    bad = arc_point(t, J, 0.2)
    with pytest.raises((NotInDomain, OnCut)):
        FX.f(bad)


def test_cap_data_closed_form():
    # spherical data on the two caps of -1 + 2S from the branch log at pbar
    phi0 = FX.phi0_pbar
    for unit, sgn in ((I, 1.0), (c_minus_unit(), -1.0)):
        d = spherical_data(FX.f, Quaternion(-1.0) + unit * 2.0)
        want_v = (phi0 - I * (sgn * math.pi)) * 0.5
        want_d = (I * phi0 - Quaternion(sgn * math.pi)) * 0.25
        assert (d.value - want_v).norm() < 1e-12
        assert (d.derivative - want_d).norm() < 1e-12


def test_cap_data_constant_on_each_cap():
    rng = np.random.default_rng(62)
    ref_p = spherical_data(FX.f, Quaternion(-1.0) + I * 2.0)
    ref_m = spherical_data(FX.f, Quaternion(-1.0) + c_minus_unit() * 2.0)
    for _ in range(20):
        v = rng.standard_normal(3)
        J = Quaternion(0.0, *(v / np.linalg.norm(v)))
        d = (J - I).norm()
        if abs(d - 0.5) < 0.05:
            continue
        ref = ref_p if d < 0.5 else ref_m
        got = spherical_data(FX.f, Quaternion(-1.0) + J * 2.0)
        assert (got.value - ref.value).norm() < 1e-10
        assert (got.derivative - ref.derivative).norm() < 1e-10


def test_torus_zero_divisor():
    rng = np.random.default_rng(63)
    for _ in range(30):
        v = rng.standard_normal(3)
        J = Quaternion(0.0, *(v / np.linalg.norm(v)))
        q = Quaternion(-1.0) + J * 2.0
        want = (I + J) * math.pi
        assert (FX.D(q) - want).norm() < 1e-10
    # D is not identically zero but is a zero divisor: it vanishes at -I
    assert (FX.D(Quaternion(-1.0) - I * 2.0)).norm() < 1e-10
    assert FX.D(Quaternion(-1.0) + QJ * 2.0).norm() > 1.0


def test_jump_across_cut():
    # two-sided limits across the t=0 arc differ by 2*pi in the argument
    dists = np.array([8e-5, 4e-5, 2e-5, 1e-5])
    top = complex(-1.0, 3.0)   # top of the cut circle in the base slice
    inner, outer = [], []
    for d in dists:
        zi = complex(-1.0, 3.0 - d)
        zo = complex(-1.0, 3.0 + d)
        inner.append(phi_value(0.0, zi).imag)
        outer.append(phi_value(0.0, zo).imag)
    # quadratic extrapolation of each side to distance 0
    ci = np.polyfit(dists, inner, 2)[-1]
    co = np.polyfit(dists, outer, 2)[-1]
    assert abs(abs(ci - co) - 2.0 * math.pi) < 1e-6


def test_ghost_divisor_fixtures():
    p_tilde = Quaternion(-1.0) + c_minus_unit(1.9) * 2.0
    sg = FX.shifted_g(p_tilde)
    assert divides_near(sg, p_tilde, FX.cap_plus)
    assert sg(p_tilde).norm() > 1e-2
    assert vanishes_on_cap(FX.ell, FX.cap_plus)
    # ell does NOT vanish on C- away from pbar
    probe = Quaternion(-1.0) + c_minus_unit(2.5) * 2.0
    assert FX.ell(probe).norm() > 1e-2


def test_base_unit_config():
    cfg2 = DourenConfig(base_unit=QJ)
    fx2 = fixtures(cfg2)
    d = spherical_data(fx2.f, Quaternion(-1.0) + QJ * 2.0)
    phi0 = fx2.phi0_pbar
    want_v = (phi0 - QJ * math.pi) * 0.5
    assert (d.value - want_v).norm() < 1e-12


def test_sphere_clearance_matches_scalar_clearance():
    # the array hook against the scalar boundary_distance at every level-5
    # vertex of spheres near -1 + 2S, and the flood fill it drives against
    # the per-vertex fill of the same domain without the hook
    dom = omega_domain(CFG, closed_form_caps=False)
    plain = DomainSpec(contains=dom.contains, bbox=dom.bbox,
                       boundary_distance=dom.boundary_distance)
    verts, _ = icosphere(5)
    spheres = ((-1.0, 2.0), (-1.04, 2.02), (-0.95, 1.97), (-1.08, 2.06),
               (-0.92, 2.09))
    for x, y in spheres:
        got = dom.sphere_clearance(x, y, verts)
        want = np.array([dom.boundary_distance(Quaternion(x, *(y * v)))
                         for v in verts])
        assert np.abs(got - want).max() <= 1e-12
    x, y = spheres[1]
    _, lab_hook, e_hook = _flood_fill(dom, x, y, 5)
    _, lab_plain, e_plain = _flood_fill(plain, x, y, 5)
    assert e_hook == e_plain
    assert np.array_equal(lab_hook, lab_plain)
    assert lab_hook.max() == 1   # the two caps of the sphere
