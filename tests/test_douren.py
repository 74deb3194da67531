import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st, target

from sliceregular import douren
from sliceregular.domains import (BOUNDARY_TOL, DomainSpec, _flood_fill,
                                  icosphere)
from sliceregular.douren import (DourenConfig, arc_point, arg_branch,
                                 cut_distance, f_douren, fixtures,
                                 omega_domain, phi_value)
from sliceregular.errors import NotInDomain, OnCut, ParamOutOfRange
from sliceregular.quaternion import (QI, QJ, QK, Quaternion, rotate_unit,
                                     slice_decompose)
from sliceregular.slicefn import spherical_data
from sliceregular.zeros import divides_near, vanishes_on_cap

from oracles import (arc_distance_ref, arc_local_minima, quat_mul,
                     trace_arg, trace_log)

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
    # the array hook against the scalar reference clearance at every level-5
    # vertex of spheres near -1 + 2S, and the flood fill it drives against
    # the per-vertex fill of a domain made of the reference alone
    dom = omega_domain(CFG, closed_form_caps=False)
    plain = DomainSpec(contains=lambda q: _ref_clearance(q) > BOUNDARY_TOL,
                       bbox=dom.bbox, boundary_distance=_ref_clearance)
    verts, _ = icosphere(5)
    spheres = ((-1.0, 2.0), (-1.04, 2.02), (-0.95, 1.97), (-1.08, 2.06),
               (-0.92, 2.09))
    for x, y in spheres:
        got = dom.sphere_clearance(x, y, verts)
        want = np.array([_ref_clearance(Quaternion(x, *(y * v)))
                         for v in verts])
        assert np.abs(got - want).max() <= 1e-12
    x, y = spheres[1]
    _, lab_hook, e_hook = _flood_fill(dom, x, y, 5)
    _, lab_plain, e_plain = _flood_fill(plain, x, y, 5)
    assert e_hook == e_plain
    assert np.array_equal(lab_hook, lab_plain)
    assert lab_hook.max() == 1   # the two caps of the sphere


# the 60-step ternary arc distance the Newton refinement replaced, kept as an
# independent reference
_REF_TH = np.linspace(0.0, math.pi, 721)


def _ref_arc_distance(t, w):
    b = 1.0 - 2.0 * t
    if b == 0.0:
        # the segment [-2, 0]
        x = min(max(w.real, -2.0), 0.0)
        return math.hypot(w.real - x, w.imag)
    pts = (-1.0 + np.cos(_REF_TH)) + 1j * b * np.sin(_REF_TH)
    d = np.abs(pts - w)
    i = int(np.argmin(d))
    lo = _REF_TH[max(i - 1, 0)]
    hi = _REF_TH[min(i + 1, len(_REF_TH) - 1)]

    def dist(a):
        return abs(complex(-1.0 + math.cos(a), b * math.sin(a)) - w)

    for _ in range(60):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if dist(m1) <= dist(m2):
            hi = m2
        else:
            lo = m1
    return dist(0.5 * (lo + hi))


@functools.lru_cache(maxsize=None)
def _ref_cut_distance(t, w):
    d = math.hypot(max(w.real + 2.0, 0.0), w.imag)
    if abs(w + 1.0) > 1.0 + d:
        return d
    return min(d, _ref_arc_distance(t, w))


def _ref_clearance(q):
    """The scalar clearance of Omega, kept as an independent reference:
    the cut distance in the slice of q (T = min(|J - I|, 1)), and the
    distance to the cap collar |J - I| = t* where the sphere of q has two
    caps; 1 on the real axis."""
    sc = slice_decompose(q)
    if sc.unit is None:
        return 1.0
    t = min((sc.unit - I).norm(), 1.0)
    d = _ref_cut_distance(t, complex(sc.x, sc.y - 2.0))
    s2 = 1.0 - (sc.x + 1.0) ** 2
    if s2 > 0.0:
        v = (sc.y - 2.0) / math.sqrt(s2)
        if abs(v) < 1.0 - 1e-14:
            d = min(d, abs(t - 0.5 * (1.0 - v)) * sc.y)
    return d


def _arc_probe_points(rng, n):
    """(t, w) pairs: a box, offsets of 1e-12..1e-1 from the arc, t = 1/2,
    t within 1e-6 of 1/2, near the ellipse centre, near the arc's end
    centres of curvature, within 5e-6 of the tips w = 0 and w = -2."""
    out = []
    for _ in range(n):
        out.append((rng.uniform(0, 1),
                    complex(rng.uniform(-3, 1), rng.uniform(-2, 2))))
        t, th = rng.uniform(0, 1), rng.uniform(0, math.pi)
        b = 1.0 - 2.0 * t
        normal = complex(b * math.cos(th), math.sin(th))
        off = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-12, -1)
        out.append((t, complex(-1.0 + math.cos(th), b * math.sin(th))
                    + off * normal / abs(normal)))
        for t in (0.5, 0.5 + rng.uniform(-1e-6, 1e-6)):
            out.append((t, complex(rng.uniform(-3, 1),
                                   rng.uniform(-1, 1)
                                   * 10 ** rng.uniform(-12, 0))))
        out.append((rng.uniform(0, 1), complex(-1.0 + 0.05 * rng.normal(),
                                               0.05 * rng.normal())))
        t = rng.uniform(0, 1)
        x = (1.0 - 2.0 * t) ** 2
        x = -x if rng.random() < 0.5 else x - 2.0
        out.append((t, complex(x + 1e-3 * rng.normal(), 1e-3 * rng.normal())))
        t = rng.choice([0.5, 0.5 + 1e-7, 0.5 - 1e-7, 0.5005, 0.4995,
                        rng.uniform(0, 1)])
        x = rng.uniform(-5e-6, 0.0)
        y = rng.choice([0.0, rng.uniform(-1, 1) * 10 ** rng.uniform(-14, -6)])
        out.append((t, complex(x, y)))
        out.append((t, complex(-2.0 - x, y)))
    return out


# points within BOUNDARY_TOL of the cut next to a tip of the arc, where the
# squared distance is stationary at the tip itself (distances 0, 1e-10, 0,
# 2.8e-10, 2.8e-10)
_TIP_ON_CUT = [(0.5, complex(-1e-6, 0.0)),
               (0.5, complex(-1e-6, 1e-10)),
               (0.5, complex(-2.0 + 1e-6, 0.0)),
               (0.5 + 1e-7, complex(-1e-6, 0.0)),
               (0.5 - 1e-7, complex(-1e-6, 0.0))]


def test_cut_distance_matches_ternary_reference():
    rng = np.random.default_rng(71)
    pts = _arc_probe_points(rng, 300) + _TIP_ON_CUT
    worst = max(abs(cut_distance(t, w) - _ref_cut_distance(t, w))
                for t, w in pts)
    assert worst <= 1e-12


def _near_evolute_points(rng, n):
    """(t, w) within 1e-12..1e-3 of the evolute of the arc's ellipse, the
    centre of curvature -1 + e cos^3(th) - i (e/b) sin^3(th) (b = 1 - 2t,
    e = 1 - b^2) of the arc point at th, where two critical points of the
    squared distance merge."""
    out = []
    for _ in range(n):
        t, th = rng.uniform(0, 1), rng.uniform(0, math.pi)
        b = 1.0 - 2.0 * t
        e = 1.0 - b * b
        centre = complex(-1.0 + e * math.cos(th) ** 3,
                         -e / b * math.sin(th) ** 3)
        off = 10 ** rng.uniform(-12, -3) * np.exp(2j * math.pi * rng.random())
        out.append((t, centre + off))
    return out


def test_cut_distance_matches_quartic_oracle():
    # the oracle takes every critical point of the squared distance from a
    # quartic, so it shares no search with the library
    rng = np.random.default_rng(76)
    pts = (_arc_probe_points(rng, 300) + _TIP_ON_CUT
           + _near_evolute_points(rng, 1000))
    want = np.array([min(math.hypot(max(w.real + 2.0, 0.0), w.imag),
                         arc_distance_ref(t, w)) for t, w in pts])
    got = cut_distance(np.array([t for t, _ in pts]),
                       np.array([w for _, w in pts]))
    assert np.abs(got - want).max() <= 1e-12
    got = np.array([cut_distance(t, w) for t, w in pts])
    assert np.abs(got - want).max() <= 1e-12


@st.composite
def _by_a_tip_or_cusp(draw):
    """(t, w) within 1e-12..1e-1 of a tip of the arc or of a cusp of its
    ellipse's evolute (-1 +- e on the major axis, -1 - i e/b on the minor
    one); t anywhere or within 1e-6 of 1/2."""
    t = draw(st.one_of(st.floats(0.0, 1.0),
                       st.floats(0.5 - 1e-6, 0.5 + 1e-6)))
    b = 1.0 - 2.0 * t
    e = 1.0 - b * b
    centres = [0.0, -2.0, -1.0 + e, -1.0 - e]
    if b != 0.0:
        centres.append(complex(-1.0, -e / b))
    r = 10 ** draw(st.floats(-12.0, -1.0))
    phi = draw(st.floats(0.0, 2.0 * math.pi))
    return t, draw(st.sampled_from(centres)) + r * complex(math.cos(phi),
                                                           math.sin(phi))


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(st.lists(_by_a_tip_or_cusp(), min_size=1, max_size=6))
def test_arc_distance_where_two_minima_meet(pts):
    # steered towards inputs whose two nearest local minima of the distance
    # along the arc are almost equally near, where a search picks wrongly
    ts = np.array([t for t, _ in pts])
    ws = np.array([w for _, w in pts])
    got = douren._arc_distance(ts, ws)
    gaps = []
    for (t, w), d in zip(pts, got):
        assert abs(d - arc_distance_ref(t, w)) <= 1e-12
        mins = arc_local_minima(t, w)
        if len(mins) > 1:
            gaps.append(mins[1] - mins[0])
    target(-min(gaps, default=1.0), label="gap of the two nearest minima")
    assert np.array_equal(got, [douren._arc_distance(t, w) for t, w in pts])


def test_arg_branch_rejects_points_by_the_arc_tips():
    for t, w in _TIP_ON_CUT:
        assert cut_distance(t, w) <= BOUNDARY_TOL
        with pytest.raises(OnCut):
            arg_branch(t, w)


def test_arc_distance_array_form_matches_float_form():
    rng = np.random.default_rng(72)
    ts = np.concatenate([[0.0, 0.5, 1.0, 0.5 + 1e-9],
                         rng.uniform(0.0, 1.0, 60)])
    for _, w in _arc_probe_points(rng, 5):
        got = douren._arc_distance(ts, w)
        want = np.array([douren._arc_distance(t, w) for t in ts])
        assert got.shape == ts.shape
        assert np.abs(got - want).max() <= 1e-14


def test_off_axis_eval_runs_one_cut_test(monkeypatch):
    # the guard runs at z only: conj(z) - 2i lies below every cut
    seen = []
    real = douren.cut_distance

    def counted(t, w):
        seen.append(w)
        return real(t, w)

    monkeypatch.setattr(douren, "cut_distance", counted)
    q = Quaternion(-0.4) + c_minus_unit(2.5) * 1.7
    f_douren(CFG, q)
    assert len(seen) == 1 and abs(seen[0] - complex(-0.4, -0.3)) < 1e-12


def test_checked_fixture_call_runs_one_cut_test(monkeypatch):
    # the membership test of a checked call is one call of the clearance
    # routine, and its cut distance the only one: the stem row that gives
    # the value runs no second cut test
    clears, cuts = [], []
    real_clear = douren._clearance
    real_cut = douren.cut_distance

    def counted_clear(cfg, x, y, units):
        clears.append(complex(x, y))
        return real_clear(cfg, x, y, units)

    def counted_cut(t, w):
        cuts.append(w)
        return real_cut(t, w)

    monkeypatch.setattr(douren, "_clearance", counted_clear)
    monkeypatch.setattr(douren, "cut_distance", counted_cut)
    q = Quaternion(-0.4) + c_minus_unit(2.5) * 1.7
    sg = FX.shifted_g(Quaternion(-1.0) + c_minus_unit(1.9) * 2.0)
    for fn in (FX.f, FX.g, sg):
        clears.clear()
        cuts.clear()
        fn(q)
        assert len(clears) == 1 and abs(clears[0] - complex(-0.4, 1.7)) < 1e-12
        assert len(cuts) == 1 and abs(cuts[0] - complex(-0.4, -0.3)) < 1e-12


def test_arc_distance_broadcasts_t_and_w():
    rng = np.random.default_rng(73)
    pts = _arc_probe_points(rng, 40) + _TIP_ON_CUT
    pts += [(0.5, w) for _, w in pts[:40]]
    ts = np.array([t for t, _ in pts])
    ws = np.array([w for _, w in pts])
    want = np.array([douren._arc_distance(t, w) for t, w in pts])
    got = douren._arc_distance(ts, ws)
    assert got.shape == ts.shape
    assert np.abs(got - want).max() <= 1e-14
    # one t against an array of w
    got = douren._arc_distance(0.5, ws)
    want = np.array([douren._arc_distance(0.5, w) for w in ws])
    assert np.abs(got - want).max() <= 1e-14


def test_slice_clearance_matches_scalar_clearance():
    # x, y arrays broadcast against one unit row, rows with y < 0 included
    from sliceregular.domains import slice_clearance
    from sliceregular.quaternion import embed_complex
    rng = np.random.default_rng(74)
    for dom in (FX.domain, FX.h.domain):
        for _ in range(6):
            unit = Quaternion(0.0, *rng.standard_normal(3))
            unit = unit * (1.0 / unit.norm())
            z = complex(-1.0, 2.0) + rng.uniform(-1.5, 1.5, 200) \
                + 1j * rng.uniform(-1.5, 1.5, 200)
            z[:20] = z[:20].conjugate() - 4j
            got = slice_clearance(dom, z, unit)
            want = np.array([_ref_clearance(embed_complex(zz, unit))
                             for zz in z])
            assert np.abs(got - want).max() <= 1e-12


def _ref_contains(dom, q):
    """Membership by the reference clearance; the domain of h also leaves
    out the sphere -1 + 2S."""
    sc = slice_decompose(q)
    removed = dom is FX.h.domain and (sc.x, sc.y) == (-1.0, 2.0)
    return _ref_clearance(q) > BOUNDARY_TOL and not removed


def _disk_in_domain_per_point(dom, zc, unit, radius, rings=12, spokes=48):
    # the per-point disk test the array form replaced, on the reference
    # clearance
    from sliceregular.quaternion import embed_complex
    spacing = max(2.0 * math.pi * radius / spokes, radius / rings)
    theta = 2.0 * math.pi * np.arange(spokes) / spokes
    for k in range(1, rings + 1):
        r = radius * k / rings
        for t in theta:
            q = embed_complex(zc + r * np.exp(1j * t), unit)
            if not _ref_contains(dom, q) or _ref_clearance(q) < spacing:
                return False
    return True


def test_disk_in_domain_array_form_matches_per_point():
    # centres near the half-line, near the arc of their slice and near the
    # cap collar; radii inside, just short of and just across the cut
    from sliceregular.quaternion import embed_complex
    from sliceregular.series import _disk_in_domain
    rng = np.random.default_rng(75)
    triples = []
    for k in range(4):
        dom = FX.domain if k % 2 else FX.h.domain
        unit = Quaternion(0.0, *rng.standard_normal(3))
        unit = unit * (1.0 / unit.norm())
        t = CFG.t_of(unit)
        th = rng.uniform(0.2, math.pi - 0.2)
        arc = complex(-1.0 + math.cos(th), 2.0 + (1.0 - 2.0 * t) * math.sin(th))
        for zc in (complex(rng.uniform(-3.5, -2.3), 2.0 + rng.uniform(-0.3, 0.3)),
                   arc + rng.uniform(-0.2, 0.2) * 1j,
                   complex(-1.0, 2.0) + 0.1 * rng.standard_normal()):
            q = embed_complex(zc, unit)
            if not _ref_contains(FX.domain, q):
                continue
            d = _ref_clearance(q)
            for fac in (0.3, 0.999, 1.001):
                triples.append((dom, zc, unit, d * fac))
    answers = []
    for dom, zc, unit, radius in triples:
        want = _disk_in_domain_per_point(dom, zc, unit, radius)
        assert _disk_in_domain(dom, zc, unit, radius) == want
        answers.append(want)
    assert any(answers) and not all(answers)


# ---------------------------------------------------------------------------
# point values and stem rows against the polyline tracer

def _emb(c):
    """A complex number in the base slice, as a 4-vector."""
    return np.array([c.real, c.imag * I.x, c.imag * I.y, c.imag * I.z])


def _traced_pair(t, z):
    """(b, c) of the one-slice extension of phi_t at z = x + iy, y >= 0,
    from traced logarithms at z - 2i and conj(z) - 2i."""
    A = trace_log(t, z - 2j)
    B = trace_log(t, z.conjugate() - 2j)
    return 0.5 * (A + B), (A - B) / 2j


def _traced_value(b, c, unit):
    """b + unit c as a 4-vector (b alone on the real axis)."""
    if unit is None:
        return _emb(b)
    return _emb(b) + quat_mul(unit.components(), _emb(c))


def _traced_f(q):
    sc = slice_decompose(q)
    t = 0.0 if sc.unit is None else min((sc.unit - I).norm(), 1.0)
    return _traced_value(*_traced_pair(t, complex(sc.x, sc.y)), sc.unit)


def _traced_D(q):
    sc = slice_decompose(q)
    z = complex(sc.x, sc.y)
    d = trace_log(1.0, z - 2j) - trace_log(0.0, z - 2j)
    return _traced_value(0.5 * d, d / 2j, sc.unit)


def _trace_points(rng):
    """Points on both caps of -1 + 2S, within 1e-3 rad of the collar of
    -1 + 2S and of two nearby two-cap spheres, and real points."""
    def unit_at(angle):
        v = rng.standard_normal(3)
        return rotate_unit(I, Quaternion(0.0, *(v / np.linalg.norm(v))), angle)

    pts = [Quaternion(-1.0) + unit_at(a) * 2.0 for a in (0.1, 0.3, 1.2, 2.2, 3.0)]
    for x, y in ((-1.0, 2.0), (-0.97, 2.04), (-1.05, 1.97)):
        collar = 2.0 * math.asin(0.5 * douren._sphere_band(x, y))
        for delta in (-1e-3, -3e-4, 3e-4, 1e-3):
            pts.append(Quaternion(x) + unit_at(collar + delta) * y)
    return pts + [Quaternion(x) for x in (-2.5, -0.4, 0.7, 1.5)]


def test_fixture_values_match_traced_logarithm():
    # f, g, shifted_g and D through checked calls and through stem rows,
    # the rows also mirrored below the real axis: x - yi at -J is x + yJ
    rng = np.random.default_rng(76)
    pts = _trace_points(rng)
    p_tilde = Quaternion(-1.0) + c_minus_unit(1.9) * 2.0
    # shifted_g subtracts the value the C+ data of f extend to at p_tilde
    b_plus, c_plus = _traced_pair(0.0, complex(-1.0, 2.0))
    at_tilde = _traced_value(b_plus, c_plus, slice_decompose(p_tilde).unit)
    cases = [(FX.f, _traced_f),
             (FX.g, lambda q: _traced_f(q) + _emb(1j * math.pi)),
             (FX.shifted_g(p_tilde), lambda q: _traced_f(q) - at_tilde),
             (FX.D, _traced_D)]
    for fn, ref in cases:
        inside = [q for q in pts if fn.domain.contains(q)]
        # D lives on the torus about -1 + 2S, which holds no real point
        assert len(inside) == (len(pts) - 4 if fn is FX.D else len(pts))
        want = np.array([ref(q) for q in inside])
        scale = max(1.0, np.abs(want).max())
        got = np.array([fn(q).components() for q in inside])
        assert np.abs(got - want).max() <= 1e-9 * scale, fn.label
        coords = [slice_decompose(q) for q in inside]
        z = np.array([complex(c.x, c.y) for c in coords])
        units = np.array([(QI if c.unit is None else c.unit).components()[1:]
                          for c in coords])
        rows = fn.eval_slice_many(np.concatenate([z, z.conj()]),
                                  np.concatenate([units, -units]))
        assert np.abs(rows - np.concatenate([want, want])).max() \
            <= 1e-9 * scale, fn.label


def _forbidden(*args, **kwargs):
    raise AssertionError("built eagerly")


def test_fixture_functions_need_no_cap_or_cut_test(monkeypatch):
    # members are built on first access: the functions need neither a cap,
    # nor spherical data, nor a cut distance until they are evaluated
    for name in ("cap_component", "spherical_data", "cut_distance"):
        monkeypatch.setattr(douren, name, _forbidden)
    fx = fixtures()
    for name in ("f", "g", "D", "ell", "h"):
        assert getattr(fx, name) is getattr(fx, name)


def test_fixtures_are_built_per_call():
    a, b = fixtures(), fixtures()
    assert a is not b and a.f is not b.f and a.f.domain is not b.f.domain


def test_bad_I0_raises_at_construction(monkeypatch):
    monkeypatch.setattr(douren, "omega_domain", _forbidden)
    for I0 in (I, -I):
        with pytest.raises(douren.BadUnitChoice):
            fixtures(I0=I0)


def test_fixtures_at_a_non_default_I0():
    fx = fixtures(I0=QK)
    assert (fx.I0 - QK).norm() == 0.0
    assert (fx.p0 - (Quaternion(-1.0) + QK * 2.0)).norm() < 1e-15
    gp0 = fx.g(fx.p0)
    assert (fx.p1 - gp0.inverse() * fx.p0 * gp0).norm() < 1e-14
    assert (fx.I1 - gp0.inverse() * QK * gp0).norm() < 1e-14
    assert fx.m(fx.p0).norm() < 1e-12
