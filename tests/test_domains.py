import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sliceregular import domains
from sliceregular.domains import (BOUNDARY_TOL, CAP_CACHE_SIZE,
                                  SECOND_UNIT_MARGIN, BandCap,
                                  CassiniRegion, DomainSpec, GridCap,
                                  WholeSphereCap, axial_clearance, ball,
                                  cap_component, gamma_tube, icosphere,
                                  preset, sigma_tau_omega, slice_clearance,
                                  whole_space)
from sliceregular.errors import CapTooSmall, NotInDomain, ParamOutOfRange
from sliceregular.quaternion import (QI, QJ, QK, Quaternion, rotate_unit,
                                     slice_rows)


def test_ball_membership():
    b = ball(0.0, 1.0)
    assert b.contains(Quaternion(0.5))
    assert b.contains(Quaternion(0.0, 0.3, 0.3, 0.3))
    assert not b.contains(Quaternion(1.5))
    assert slice_clearance(b, [0.5], QI)[0] == pytest.approx(0.5)
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
    def clearance(x, y, units):
        # within a slice the domain is |x| < 3, y < 3; off R it leaves out
        # the units whose i-component is at most 0.05 in size
        d = np.minimum(3.0 - np.abs(x), 3.0 - y)
        return np.where((y == 0.0) | (np.abs(units[..., 0]) > 0.05), d, -1.0)
    dom = DomainSpec(clearance=clearance,
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


@pytest.mark.parametrize("inside", [True, False])
def test_band_cap_sample_units_lie_in_the_cap(inside):
    # the inside cap holds 1/16 of the sphere: 40 units take several blocks
    cap = BandCap(rotate_unit(QI, QJ, 0.7), 0.5 if inside else 1.5, inside)
    units = cap.sample_units(40, np.random.default_rng(74))
    assert len(units) == 40
    assert all(cap.contains_unit(u) for u in units)
    again = cap.sample_units(40, np.random.default_rng(74))
    assert [u.components() for u in again] == [u.components() for u in units]


@pytest.mark.parametrize("edge_factor", [1.0, 0.1])
def test_grid_cap_membership_is_nearest_vertex_rule(edge_factor):
    # reference: the nearest vertex by distance, in the cap's component and
    # within two edges; a shrunken edge makes that second test decide too
    verts, edges = icosphere(3)
    labels = np.where(verts[:, 2] > 0.2, 0, 1)
    edge = edge_factor * float(np.linalg.norm(verts[edges[0, 0]]
                                              - verts[edges[0, 1]]))
    cap = GridCap(verts, labels, 0, edge)
    rng = np.random.default_rng(75)
    verdicts = set()
    for _ in range(400):
        J = _rand_unit(rng)
        d = np.linalg.norm(verts - np.array(J.components()[1:]), axis=1)
        i = int(np.argmin(d))
        want = bool(labels[i] == 0 and d[i] <= 2.0 * edge)
        assert bool(cap.contains_unit(J)) == want
        verdicts.add((want, bool(labels[i] == 0)))
    assert (True, True) in verdicts and (False, False) in verdicts
    assert ((False, True) in verdicts) == (edge_factor < 1.0)


def test_cap_cache_is_bounded_lru(monkeypatch):
    dom = DomainSpec(clearance=lambda x, y, u: axial_clearance(
                         10.0 - np.hypot(x, y), u),
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
    cap_component(dom, QI * 6.0, step)
    cap_component(dom, QI * oldest, step)
    assert len(fills) == len(ys) + 2


def _reference_labels(member, edges):
    # scipy's components of the in-domain subgraph, numbered by their
    # smallest vertex index; -1 off the domain
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    n = len(member)
    e = edges[member[edges[:, 0]] & member[edges[:, 1]]]
    graph = coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(n, n))
    _, comp = connected_components(graph, directed=False)
    labels = np.full(n, -1)
    first = {}
    for v in np.flatnonzero(member):
        labels[v] = first.setdefault(comp[v], len(first))
    return labels


def _mask_domain(mask):
    # every vertex of the sphere y = 1 whose mask entry is set is in the
    # domain, with a clearance well above the flood fill's one-edge collar;
    # a single point (one (3,) unit row) is always in it
    return DomainSpec(clearance=lambda x, y, u: (np.where(mask, 9.0, -1.0)
                                                 if np.ndim(u) == 2 else 9.0),
                      bbox=((-2.0, 2.0),) * 4, label="mask")


def test_flood_fill_labels_match_scipy_components():
    rng = np.random.default_rng(76)
    counts = []
    for level in (2, 3, 4, 5):
        verts, edges = icosphere(level)
        for density in (0.2, 0.35, 0.5, 0.7, 0.95):
            mask = rng.random(len(verts)) < density
            _, labels, _ = domains._flood_fill(_mask_domain(mask), 0.0, 1.0,
                                               level)
            assert np.array_equal(labels, _reference_labels(mask, edges))
            counts.append(labels.max() + 1)
    assert min(counts) == 1 and max(counts) >= 100


def test_flood_fill_labels_match_scipy_on_douren_spheres():
    from sliceregular.douren import DourenConfig, omega_domain
    dom = omega_domain(DourenConfig(), closed_form_caps=False)
    verts, edges = icosphere(5)
    for x, y in ((-1.0, 2.0), (-1.04, 2.02), (-0.95, 1.97), (-1.08, 2.06),
                 (-0.92, 2.09)):
        _, labels, edge = domains._flood_fill(dom, x, y, 5)
        member = dom.clearance(x, y, verts) > y * edge
        assert np.array_equal(labels, _reference_labels(member, edges))
        assert labels.max() == 1


def _patchy_mask():
    # the level-3 grid (8-degree step) of the sphere 0 + 1S, cut into six
    # components that cover a third of it
    verts, _ = icosphere(3)
    return np.sin(6.0 * verts[:, 0]) + np.cos(5.0 * verts[:, 1]) > 0.3


def test_cap_component_picks_the_nearest_labelled_vertex():
    # reference: the 12 nearest vertices by distance, nearest first; the
    # first labelled one within two edges names the cap
    dom = _mask_domain(_patchy_mask())
    step = 8.0
    cap_component(dom, QI, step)
    (verts, labels, edge, _), = dom._cap_cache.values()
    assert labels.max() == 5
    rng = np.random.default_rng(77)
    unlabelled_nearest = too_small = 0
    for _ in range(300):
        J = _rand_unit(rng)
        d = np.linalg.norm(verts - np.array(J.components()[1:]), axis=1)
        order = np.argsort(d)
        want = next((int(labels[i]) for i in order[:12]
                     if labels[i] >= 0 and d[i] <= 2.0 * edge), -1)
        if want < 0:
            with pytest.raises(CapTooSmall):
                cap_component(dom, J, step)
            too_small += 1
            continue
        assert cap_component(dom, J, step).index == want
        unlabelled_nearest += labels[order[0]] < 0
    assert unlabelled_nearest > 0 and too_small > 0


def test_cap_cache_hits_share_one_grid_cap():
    mask = _patchy_mask()
    dom = _mask_domain(mask)
    verts, _ = icosphere(3)
    first = cap_component(dom, Quaternion(0.0, *verts[mask][0]), 8.0)
    (_, labels, _, _), = dom._cap_cache.values()
    rng = np.random.default_rng(78)
    by_index = {first.index: first._resolver}
    for i in rng.choice(np.flatnonzero(mask), 40):
        cap = cap_component(dom, Quaternion(0.0, *verts[i]), 8.0)
        assert cap.index == labels[i]
        assert by_index.setdefault(cap.index, cap._resolver) is cap._resolver
    assert len(by_index) == 6
    assert len({id(r) for r in by_index.values()}) == 6


def test_grid_second_unit_breaks_ties_by_the_norm_rule():
    # on the whole icosphere, which is centrally symmetric, the members
    # farthest from an axis, edge or corner direction of the cube tie; the
    # pick is the vertex the exact-distance argmax picks, which is not
    # always the one with the smallest dot product
    ties = dot_picks_differ = 0
    for level in (2, 3, 4):
        verts, edges = icosphere(level)
        edge = float(np.linalg.norm(verts[edges[0, 0]] - verts[edges[0, 1]]))
        cap = GridCap(verts, np.zeros(len(verts), dtype=int), 0, edge)
        for c in itertools.product((-1.0, 0.0, 1.0), repeat=3):
            if not any(c):
                continue
            v = np.array(c) / np.linalg.norm(c)
            d = np.linalg.norm(verts - v, axis=1)
            want = int(np.argmax(d))
            assert (cap.second_unit(Quaternion(0.0, *v)).components()
                    == (0.0, *verts[want]))
            ties += np.count_nonzero(d >= d[want] - 1e-12) > 1
            dot_picks_differ += int(np.argmin(verts @ v)) != want
    assert ties > 0 and dot_picks_differ > 0


# ---------------------------------------------------------------------------
# The clearance contract of every builder, against brute-force distances

def _units(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def _shell(rng, center, radius, n):
    """n random points of the 3-sphere |q - center| = radius in H."""
    v = rng.standard_normal((n, 4))
    return center + radius * v / np.linalg.norm(v, axis=1)[:, None]


def _nearest(pts, samples):
    """The 4D distance from each row of pts to the nearest sample."""
    return np.array([np.linalg.norm(samples - p, axis=1).min() for p in pts])


def _ball_params(rng):
    return rng.uniform(-2.0, 2.0), rng.uniform(0.2, 3.0)


def _off_ball(pts, c, r):
    return np.linalg.norm(pts - [c, 0.0, 0.0, 0.0], axis=1) >= r


def _ball_case(rng, c, r):
    pts = rng.uniform(-1.3 * r, 1.3 * r, (60, 4)) + [c, 0.0, 0.0, 0.0]
    # the boundary sphere, sampled, plus the radial foot of every point
    rad = pts - [c, 0.0, 0.0, 0.0]
    feet = [c, 0.0, 0.0, 0.0] + r * rad / np.linalg.norm(rad, axis=1)[:, None]
    return pts, _off_ball(pts, c, r), np.vstack([
        _shell(rng, [c, 0.0, 0.0, 0.0], r, 400), feet])


def _case_ball(rng):
    c, r = _ball_params(rng)
    return (ball(c, r),) + _ball_case(rng, c, r)


def _case_whole_space(rng):
    limit = rng.uniform(0.5, 4.0)
    return (whole_space(limit),) + _ball_case(rng, 0.0, limit)


def _case_torus(rng):
    from sliceregular.douren import fixtures
    dom = fixtures().D.domain
    x = rng.uniform(-2.5, 0.5, 60)
    y = rng.uniform(0.0, 3.5, 60)
    u = _units(rng, 60)
    pts = np.column_stack([x, y[:, None] * u])
    off = np.hypot(x + 1.0, y - 2.0) >= 1.0
    # the boundary torus: the circle about (-1, 2) in (x, |v|), swept over
    # units; the foot of every point on its own half-plane
    phi = rng.uniform(0.0, 2.0 * np.pi, 600)
    ring = np.column_stack([-1.0 + np.cos(phi), (2.0 + np.sin(phi))[:, None]
                            * _units(rng, 600)])
    a = np.arctan2(y - 2.0, x + 1.0)
    feet = np.column_stack([-1.0 + np.cos(a), (2.0 + np.sin(a))[:, None] * u])
    return dom, pts, off, np.vstack([ring, feet])


def _case_gamma_tube(rng):
    J = Quaternion(0.0, *_units(rng, 1)[0])
    samples = [Quaternion(s) + J * abs(h) for s, h in
               zip(rng.uniform(-1.0, 1.0, 4), rng.uniform(0.0, 1.5, 4))]
    eps = rng.uniform(0.1, 0.6)
    dom = gamma_tube(samples, eps)
    P = np.array([s.components() for s in samples])
    ims = np.linalg.norm(P[:, 1:], axis=1)
    radii = np.where(ims > 0, ims / ims.max() * eps, eps)
    pts = P[rng.integers(0, 4, 80)] + rng.uniform(-1.0, 1.0, (80, 4)) * eps
    gaps = np.linalg.norm(pts[:, None] - P, axis=2) - radii
    off = gaps.min(axis=1) >= 0.0
    # boundary points of every ball, and every point's foot on each ball,
    # kept where they lie outside all the other balls
    cand = [_shell(rng, p, r, 300) for p, r in zip(P, radii)]
    for p, r in zip(P, radii):
        d = pts - p
        n = np.linalg.norm(d, axis=1)
        cand.append(p + r * d[n > 0] / n[n > 0][:, None])
    cand = np.vstack(cand)
    cgap = np.linalg.norm(cand[:, None] - P, axis=2) - radii
    return dom, pts, off, cand[cgap.min(axis=1) >= -1e-12]


def _cassini_mod(q, x0, y0):
    """|(q - x0)^2 + y0^2| from the quaternion square (a0^2 - |v|^2,
    2 a0 v), a = q - x0 = (a0, v)."""
    a0 = q[:, 0] - x0
    v2 = (q[:, 1:] ** 2).sum(axis=1)
    return np.hypot(a0 * a0 - v2 + y0 * y0, 2.0 * np.abs(a0) * np.sqrt(v2))


def _case_cassini(rng, hole=True):
    x0, y0 = rng.uniform(-1.0, 1.0), rng.uniform(0.3, 1.5)
    r1 = rng.uniform(0.05, 0.8) * y0 if hole else 0.0
    r2 = r1 + rng.uniform(0.3, 2.0)
    dom = CassiniRegion(x0, y0, r1, r2).to_domain()
    span = r2 + y0 + 1.0
    pts = rng.uniform(-span, span, (80, 4)) + [x0, 0.0, 0.0, 0.0]
    # points about the sphere x0 + y0 S, inside and around the inner hole
    near = np.column_stack([np.full(40, x0), y0 * _units(rng, 40)])
    spread = 0.3 * r1 if hole else 0.05
    pts = np.vstack([pts, near + rng.normal(0.0, spread, (40, 4))])
    m = _cassini_mod(pts, x0, y0)
    off = (m <= r1 * r1) | (m >= r2 * r2)
    # the complement, sampled: a dense cloud filtered by the modulus and,
    # around a hole, the sphere x0 + y0 S, where the modulus is 0
    cloud = rng.uniform(-span, span, (6000, 4)) + [x0, 0.0, 0.0, 0.0]
    cloud = np.vstack([cloud, np.repeat(near, 50, axis=0)
                       + rng.normal(0.0, 3.0 * spread, (2000, 4))])
    cm = _cassini_mod(cloud, x0, y0)
    if not hole:
        # the sphere reads 0 and bounds nothing: only the outer side counts
        assert np.all(slice_clearance(dom, np.full(40, complex(x0, y0)),
                                      near[:, 1:] / y0) == 0.0)
        return dom, pts, off, cloud[cm >= r2 * r2]
    ring = np.column_stack([np.full(500, x0), y0 * _units(rng, 500)])
    return dom, pts, off, np.vstack([ring,
                                     cloud[(cm <= r1 * r1) | (cm >= r2 * r2)]])


def _case_intersection(rng):
    from sliceregular.slicefn import intersect_domains
    (c1, r1), (c2, r2) = _ball_params(rng), _ball_params(rng)
    p1, _, s1 = _ball_case(rng, c1, r1)
    p2, _, s2 = _ball_case(rng, c2, r2)
    pts = np.vstack([p1, p2])
    off = _off_ball(pts, c1, r1) | _off_ball(pts, c2, r2)
    # each ball's boundary lies off the intersection
    return (intersect_domains(ball(c1, r1), ball(c2, r2)), pts, off,
            np.vstack([s1, s2]))


_CASES = {"ball": _case_ball, "whole_space": _case_whole_space,
          "torus": _case_torus, "gamma_tube": _case_gamma_tube,
          "cassini": _case_cassini,
          "cassini_r1_0": lambda rng: _case_cassini(rng, hole=False),
          "intersection": _case_intersection}


@pytest.mark.parametrize("name", sorted(_CASES))
@settings(derandomize=True, deadline=None, max_examples=10, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_clearance_is_a_4d_lower_bound_and_reads_off_the_domain(name, seed):
    rng = np.random.default_rng(seed)
    dom, pts, off, complement = _CASES[name](rng)
    got = slice_clearance(dom, *slice_rows(pts))
    assert got.shape == (len(pts),)
    assert np.all(got[off] <= BOUNDARY_TOL)
    dist = _nearest(pts[~off], complement)
    assert np.all(got[~off] <= dist * (1.0 + 1e-12) + 1e-12)
    _assert_unit_free_on_r(dom, rng)


def _assert_unit_free_on_r(dom, rng):
    x = rng.uniform(-3.0, 3.0, 5)
    for xx in x:
        vals = dom.clearance(xx, 0.0, _units(rng, 16))
        assert np.all(vals == vals[0])


def _omega_cut_distance(cfg, z, units):
    """Distance from x + y*unit (z = x + iy, y >= 0) to the cut of its
    half-slice {x + s*unit : s >= 0}: the arc of T(unit), sampled at 4001
    angles, and the half-line."""
    I = cfg.base_unit
    th = np.linspace(0.0, np.pi, 4001)
    out = []
    for zz, u in zip(z, units):
        t = min(np.linalg.norm(u - [I.x, I.y, I.z]), 1.0)
        arc = (-1.0 + np.cos(th)) + 1j * (2.0 + (1.0 - 2.0 * t) * np.sin(th))
        out.append(min(np.abs(arc - zz).min(),
                       abs(complex(min(zz.real, -2.0), 2.0) - zz)))
    return np.array(out)


@settings(derandomize=True, deadline=None, max_examples=10, database=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_omega_clearance_is_a_half_slice_lower_bound(seed):
    from sliceregular.douren import DourenConfig, fixtures, omega_domain
    cfg = DourenConfig()
    rng = np.random.default_rng(seed)
    FX = fixtures(cfg)
    units = _units(rng, 60)
    I = cfg.base_unit
    t = np.minimum(np.linalg.norm(units - [I.x, I.y, I.z], axis=1), 1.0)
    # points all over, next to the arcs and on the cuts themselves
    th = rng.uniform(0.0, np.pi, 60)
    arc = (-1.0 + np.cos(th)) + 1j * (2.0 + (1.0 - 2.0 * t) * np.sin(th))
    z = np.concatenate([
        rng.uniform(-4.0, 2.0, 60) + 1j * rng.uniform(0.0, 4.0, 60),
        arc + rng.normal(0.0, 0.05, 60) + 1j * rng.normal(0.0, 0.05, 60)])
    z = z.real + 1j * np.abs(z.imag)
    u = np.vstack([units, units])
    for dom in (omega_domain(cfg), omega_domain(cfg, closed_form_caps=False)):
        got = slice_clearance(dom, z, u)
        dist = _omega_cut_distance(cfg, z, u)
        assert np.all(got <= dist * (1.0 + 1e-12) + 1e-12)
        on_cut = np.concatenate([arc, rng.uniform(-6.0, -2.0, 20) + 2.0j])
        assert np.all(slice_clearance(dom, on_cut, np.vstack(
            [units, units[:20]])) <= BOUNDARY_TOL)
        _assert_unit_free_on_r(dom, rng)
    # the spheres taken out read 0 on them, whatever else the unit sees
    sphere = np.full(60, complex(-1.0, 2.0))
    assert np.all(slice_clearance(FX.h.domain, sphere, units) == 0.0)
    _assert_unit_free_on_r(FX.h.domain, rng)


def test_contains_unit_on_rows_matches_each_unit():
    rng = np.random.default_rng(79)
    verts, edges = icosphere(3)
    labels = np.where(np.sin(6.0 * verts[:, 0]) > 0.2, 0, -1)
    edge = float(np.linalg.norm(verts[edges[0, 0]] - verts[edges[0, 1]]))
    resolvers = [WholeSphereCap(), GridCap(verts, labels, 0, edge)] + [
        BandCap(_rand_unit(rng), chord, inside)
        for chord, inside in ((0.8, True), (1.2, False))]
    rows = rng.standard_normal((200, 3))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    for cap in resolvers:
        want = [bool(cap.contains_unit(Quaternion(0.0, *r))) for r in rows]
        got = cap.contains_unit(rows)
        assert got.shape == (200,) and got.tolist() == want
        assert sum(want) > 0
