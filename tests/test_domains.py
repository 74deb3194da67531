import math

import numpy as np
import pytest

from sliceregular import domains
from sliceregular.domains import (CAP_CACHE_SIZE, SECOND_UNIT_MARGIN, BandCap,
                                  CassiniRegion, DomainSpec, GridCap,
                                  WholeSphereCap, ball, cap_component,
                                  gamma_tube, icosphere, preset,
                                  sigma_tau_omega, whole_space)
from sliceregular.errors import CapTooSmall, NotInDomain, ParamOutOfRange
from sliceregular.quaternion import QI, QJ, QK, Quaternion, rotate_unit


def test_ball_membership():
    b = ball(0.0, 1.0)
    assert b.contains(Quaternion(0.5))
    assert b.contains(Quaternion(0.0, 0.3, 0.3, 0.3))
    assert not b.contains(Quaternion(1.5))
    assert b.boundary_distance(Quaternion(0.5)) == pytest.approx(0.5)
    with pytest.raises(NotInDomain):
        b.require(Quaternion(2.0))


def test_ball_is_symmetric_cap():
    b = ball(0.0, 2.0)
    p = Quaternion(0.3) + QI * 1.0
    cap = cap_component(b, p)
    # the whole sphere is one cap on a symmetric domain
    for u in (QI, QJ, QK, -QI, rotate_unit(QI, QJ, 1.0)):
        assert cap.contains_unit(u)


def test_whole_space_and_presets():
    assert whole_space().contains(Quaternion(100.0, -5.0, 2.0, 0.0))
    assert preset("ball", radius=3.0).contains(Quaternion(2.5))
    assert preset("douren").label
    with pytest.raises(ParamOutOfRange):
        preset("nonsense")


def test_cassini_region():
    reg = CassiniRegion(0.0, 1.0, 0.0, 0.8)
    dom = reg.to_domain()
    # |(q - 0)^2 + 1| < 0.64 near the sphere 0 + 1S
    q = Quaternion(0.0, 0.99, 0.0, 0.0)
    assert abs((q * q + Quaternion(1.0)).norm()) < 0.64
    assert dom.contains(q)
    assert not dom.contains(Quaternion(1.0))


def test_sigma_tau_omega_basics():
    p = Quaternion(0.0) + QI * 1.0
    # at the center point itself both vanish
    s, t, w = sigma_tau_omega(p, p)
    assert s < 1e-12 and t < 1e-12
    # on the same sphere but another slice: tau = 0, sigma = 2y
    q = Quaternion(0.0) + QJ * 1.0
    s, t, w = sigma_tau_omega(q, p)
    assert t < 1e-12
    assert s == pytest.approx(2.0, abs=1e-12)
    # moving radially in-slice: sigma = tau = |q - p|
    q = Quaternion(0.0) + QI * 1.5
    s, t, w = sigma_tau_omega(q, p)
    assert s == pytest.approx(0.5, abs=1e-12)
    assert t == pytest.approx(0.5, abs=1e-12)


def test_gamma_tube_contains_samples():
    samples = [Quaternion(0.0), Quaternion(0.5) + QI * 0.5,
               Quaternion(1.0) + QI * 1.0]
    dom = gamma_tube(samples, 0.3)
    for s in samples:
        assert dom.contains(s)
    assert not dom.contains(Quaternion(5.0))


def test_half_plane_domain_splits_caps():
    # a domain holding only units with positive j-component near the sphere:
    # the two caps around i-ish and (-i)-ish units must be distinct
    def contains(q):
        from sliceregular.quaternion import slice_decompose
        sc = slice_decompose(q)
        if sc.unit is None:
            return abs(sc.x) < 3.0
        return abs(sc.x) < 3.0 and sc.y < 3.0 and abs(sc.unit.x) > 0.05
    dom = DomainSpec(contains=contains,
                     bbox=((-3.0, 3.0), (-3.0, 3.0), (-3.0, 3.0), (-3.0, 3.0)),
                     label="split")
    p_up = Quaternion(0.0) + QI * 1.0
    p_dn = Quaternion(0.0) - QI * 1.0
    cap_up = cap_component(dom, p_up)
    cap_dn = cap_component(dom, p_dn)
    assert cap_up.index != cap_dn.index
    assert cap_up.contains_unit(QI)
    assert not cap_up.contains_unit(-QI)


def test_douren_caps_grid_vs_closed_form_membership():
    # same cap membership from the lattice flood fill and the closed form;
    # indices may differ between backends, membership must not
    from sliceregular.douren import DourenConfig, omega_domain
    cfg = DourenConfig()
    dom_cf = omega_domain(cfg, closed_form_caps=True)
    dom_gr = omega_domain(cfg, closed_form_caps=False)
    I = cfg.base_unit
    p = Quaternion(-1.0) + I * 2.0
    cap_cf = cap_component(dom_cf, p)
    cap_gr = cap_component(dom_gr, p)
    rng = np.random.default_rng(5)
    for _ in range(60):
        v = rng.standard_normal(3)
        J = Quaternion(0.0, *(v / np.linalg.norm(v)))
        d = (J - I).norm()
        if abs(d - 0.5) < 0.05:
            continue   # stay away from the cap boundary collar
        assert cap_cf.contains_unit(J) == cap_gr.contains_unit(J), \
            "backends disagree at |J-I| = %.3f" % d


def _rand_unit(rng):
    v = rng.standard_normal(3)
    return Quaternion(0.0, *(v / np.linalg.norm(v)))


def _walk_second_unit(cap, unit):
    # reference: the 1-degree great-circle walk through axis and unit,
    # keeping the in-cap candidate farthest from unit
    best, best_d = None, -1.0
    for ang in np.linspace(0.0, math.pi, 181):
        for sign in (1.0, -1.0):
            k = rotate_unit(cap.axis, unit, sign * ang)
            if not cap.contains_unit(k):
                continue
            d = (k - unit).norm()
            if d > best_d and d > 1e-6:
                best, best_d = k, d
    return best


def _unit_in_cap(rng, cap, near_collar):
    alpha = 2.0 * math.asin(cap.chord / 2.0)
    if near_collar:
        ang = alpha - 1e-3 if cap.inside else alpha + 1e-3
        return rotate_unit(cap.axis, _rand_unit(rng), ang)
    while True:
        J = _rand_unit(rng)
        if cap.contains_unit(J):
            return J


def test_band_cap_second_unit_is_farthest_in_cap():
    rng = np.random.default_rng(71)
    slack = 2.0 * math.sin(SECOND_UNIT_MARGIN / 2.0)
    antipodal = 0
    for k in range(120):
        cap = BandCap(_rand_unit(rng), rng.uniform(0.02, 1.98),
                      inside=k % 2 == 0)
        J = _unit_in_cap(rng, cap, near_collar=k % 5 == 0)
        assert cap.contains_unit(J)
        K = cap.second_unit(J)
        assert cap.contains_unit(K)
        if cap.contains_unit(-J):
            assert (K + J).norm() == 0.0
            antipodal += 1
        assert (K - J).norm() >= (_walk_second_unit(cap, J) - J).norm() - slack
    assert 0 < antipodal < 120


def test_band_cap_second_unit_tiny_cap():
    # caps narrower than the margin: an in-cap unit or CapTooSmall
    rng = np.random.default_rng(72)
    margin_chord = 2.0 * math.sin(SECOND_UNIT_MARGIN / 2.0)
    found = 0
    for chord in (1e-8, 1e-6, 1e-4, 1e-3, 0.5 * margin_chord,
                  0.99 * margin_chord):
        for inside in (True, False):
            axis = _rand_unit(rng)
            cap = BandCap(axis, chord if inside else 2.0 - chord, inside)
            alpha = 2.0 * math.asin(chord / 2.0)
            center = axis if inside else -axis
            for _ in range(10):
                J = rotate_unit(center, _rand_unit(rng),
                                rng.uniform(0.0, 0.9 * alpha))
                if not cap.contains_unit(J):
                    continue
                try:
                    K = cap.second_unit(J)
                except CapTooSmall:
                    # only caps too narrow to hold a unit 1e-6 away
                    assert chord < 1e-4
                    continue
                assert cap.contains_unit(K)
                assert (K - J).norm() > 1e-6
                found += 1
    assert found > 0
    with pytest.raises(CapTooSmall):
        BandCap(QI, 0.0, inside=True).second_unit(QI)


def test_whole_sphere_and_grid_second_unit():
    rng = np.random.default_rng(73)
    for _ in range(5):
        J = _rand_unit(rng)
        assert WholeSphereCap().second_unit(J) == -J
    verts, edges = icosphere(2)
    labels = np.where(verts[:, 0] > 0.3, 0, -1)
    edge = float(np.linalg.norm(verts[edges[0, 0]] - verts[edges[0, 1]]))
    cap = GridCap(verts, labels, 0, edge)
    members = verts[labels == 0]
    for _ in range(5):
        J = Quaternion(0.0, *members[rng.integers(len(members))])
        v = np.array(J.components()[1:])
        want = members[np.argmax(np.linalg.norm(members - v, axis=1))]
        assert cap.second_unit(J).components() == (0.0, *want)
    lone = GridCap(verts, np.where(np.arange(len(verts)) == 0, 0, -1), 0, edge)
    with pytest.raises(CapTooSmall):
        lone.second_unit(Quaternion(0.0, *verts[0]))


def test_cap_cache_is_bounded_lru(monkeypatch):
    dom = DomainSpec(contains=lambda q: q.norm() < 10.0,
                     bbox=((-10.0, 10.0),) * 4, label="ball, grid caps")
    fills = []
    flood_fill = domains._flood_fill

    def counting_fill(d, x, y, level):
        fills.append((x, y))
        return flood_fill(d, x, y, level)

    monkeypatch.setattr(domains, "_flood_fill", counting_fill)
    step = 16.0   # the 162-vertex icosphere
    ys = [1.0 + 0.5 * k for k in range(CAP_CACHE_SIZE + 2)]
    for y in ys:
        cap_component(dom, QI * y, step)
        cap_component(dom, QJ * y, step)   # the current sphere: a hit
        assert len(dom._cap_cache) <= CAP_CACHE_SIZE
    assert [y for _, y in fills] == ys
    assert len(dom._cap_cache) == CAP_CACHE_SIZE
    # the oldest spheres were evicted and are filled again
    cap_component(dom, QI * ys[0], step)
    assert len(fills) == len(ys) + 1
    # a hit makes the oldest sphere the most recent, so it outlives the
    # next fill
    oldest = ys[-CAP_CACHE_SIZE + 1]
    cap_component(dom, QI * oldest, step)
    cap_component(dom, QI * 9.0, step)
    cap_component(dom, QI * oldest, step)
    assert len(fills) == len(ys) + 2
