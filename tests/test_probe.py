"""The batched 4D boundedness probe against the point-by-point loop, and
unit arguments with one unit per row."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st, target

from sliceregular import algebra, douren, series
from sliceregular.algebra import (QPoly, QRational, _as_slicefn,
                                  real_quadratic, star_product)
from sliceregular.domains import BOUNDARY_TOL, ball, slice_clearance
from sliceregular.quaternion import (QI, QJ, QK, Quaternion, embed_complex,
                                     perp_unit, rotate_unit, slice_decompose)
from sliceregular.slicefn import SliceFunction, extend_from_slices

from test_douren import _ref_clearance

FX = douren.fixtures()
I = FX.cfg.base_unit


def _scalar_probe_sups(f, p):
    """The point-by-point probe: one membership test and one scalar
    evaluation per probe point."""
    rng = np.random.default_rng(2024)
    sc = slice_decompose(p)
    sup = []
    for r in (1e-2, 1e-3, 1e-4):
        best = 0.0
        got = 0
        for _ in range(400):
            v = rng.normal(size=4)
            v /= np.linalg.norm(v)
            q = p + Quaternion(*(v * r))
            if f.domain.contains(q):
                best = max(best, f.eval_unchecked(q).norm())
                got += 1
            if got >= 64:
                break
        if sc.unit is not None:
            t1 = perp_unit(sc.unit)
            t2 = sc.unit * t1
            for k in range(8):
                a = 2.0 * math.pi * k / 8.0
                toward = t1 * math.cos(a) + t2 * math.sin(a)
                J = rotate_unit(sc.unit, toward, r)
                for dx, dy in ((r * r, 0.0), (0.0, r * r), (-r * r, 0.0),
                               (0.0, -r * r)):
                    q = Quaternion(sc.x + dx) + J * (sc.y + dy)
                    if f.domain.contains(q):
                        best = max(best, f.eval_unchecked(q).norm())
        sup.append(best)
    return sup


def _bounded(sup):
    return not (sup[2] > 30.0 * sup[0] + 1e-30 or sup[1] > 30.0 * sup[0])


def _hookless_essential():
    """The extension of z -> exp(2/(z - i)) from the slices of i and j on a
    ball: a bare evaluator without stem rows or sphere_clearance."""
    def h(z):
        return cmath.exp(2.0 / (z - 1j))

    return extend_from_slices(lambda z: embed_complex(h(z), QI),
                              lambda z: embed_complex(h(z), QJ),
                              QI, QJ, ball(0.0, 4.0))


def _probe_cases():
    plus = [Quaternion(-1.0) + rotate_unit(I, perp_unit(I), a) * 2.0
            for a in (0.1, 0.3, 0.45)]
    rational = QRational(QPoly([-QI, QK, 1.0]),
                         real_quadratic(0.0, 1.0).star(QPoly([2.0, 1.0])))
    on_edge = SliceFunction.from_exact(QPoly([QK, QJ, 2.0]), ball(0.0, 1.0))
    essential = _hookless_essential()
    return ([("h", FX.h, FX.pbar, False)]
            + [("h", FX.h, p, True) for p in plus]
            + [("poly", _as_slicefn(QPoly([1.0, QJ, 2.0])), QI, True),
               ("rational", _as_slicefn(rational),
                Quaternion(0.2) + QK * 0.7, True),
               # on the ball's boundary: at every radius about half the
               # candidates pass, so the stream runs on past the first 64
               ("on-edge", on_edge, Quaternion(0.6) + QJ * 0.8, True),
               ("hookless", essential, Quaternion(0.3) + QK * 0.5, True),
               ("hookless-real", essential, Quaternion(-0.4), True)])


@pytest.mark.parametrize("case", _probe_cases(), ids=lambda c: c[0])
def test_batched_probe_matches_scalar_loop(case):
    _, f, p, bounded = case
    want = _scalar_probe_sups(f, p)
    got = series._probe_sups(f, p)
    assert len(got) == 3
    for a, b in zip(got, want):
        assert abs(a - b) <= 1e-9 * b
    assert _bounded(want) is bounded
    assert series._bounded_near(f, p) is bounded


def test_classification_of_probed_points():
    rep = series.classify_singularity(FX.h, FX.pbar, window=(-8, 4),
                                      nodes=512)
    assert rep.kind == "nonremovable"
    q = Quaternion(-1.0) + rotate_unit(I, perp_unit(I), 0.3) * 2.0
    assert series.classify_singularity(FX.h, q, window=(-8, 4),
                                       nodes=512).kind == "removable"
    assert series.classify_singularity(QPoly([1.0, QJ, 2.0]), QI).kind == \
        "removable"
    # (q^2 + 1)^{-1}(q - i): bounded in the slice of i, not near i in H
    r = QRational(QPoly([-QI, 1.0]), real_quadratic(0.0, 1.0))
    assert series.classify_singularity(r, QI).kind == "nonremovable"
    assert series.classify_singularity(r, -QI).kind == "pole"
    assert not series._bounded_near(_as_slicefn(r), QI)


def test_probe_makes_array_calls_only(monkeypatch):
    clear_calls = []
    eval_calls = []
    clear = series.slice_clearance
    many = SliceFunction.eval_slice_many

    def counted_clear(dom, z, unit):
        clear_calls.append(len(z))
        return clear(dom, z, unit)

    def counted_many(self, z, unit):
        eval_calls.append(len(z))
        return many(self, z, unit)

    def forbidden(*args, **kwargs):
        raise AssertionError("scalar evaluation in the probe")

    monkeypatch.setattr(series, "slice_clearance", counted_clear)
    monkeypatch.setattr(SliceFunction, "eval_slice_many", counted_many)
    monkeypatch.setattr(SliceFunction, "eval_unchecked", forbidden)
    monkeypatch.setattr(algebra, "star_eval", forbidden)
    assert not series._bounded_near(FX.h, FX.pbar)
    # every first candidate passes: one membership call on the first 64
    # candidates and the 32 structured points of all three radii, one
    # evaluation call on all of them
    assert clear_calls == [288]
    assert eval_calls == [288]
    clear_calls.clear()
    eval_calls.clear()
    f = SliceFunction.from_exact(QPoly([QK, QJ, 2.0]), ball(0.0, 1.0))
    assert series._bounded_near(f, Quaternion(0.6) + QJ * 0.8)
    # a second membership call on the other 336 candidates at every radius;
    # the first radius runs past 64 directions, so the later two redo their
    # first 64 candidates
    assert clear_calls == [288, 336, 64, 336, 64, 336]
    assert len(eval_calls) == 1


def _inside_ball_edge(depth, unit=QJ):
    """The unit ball's edge polynomial and a point at the given depth inside
    its boundary (outside for a negative depth)."""
    f = SliceFunction.from_exact(QPoly([QK, QJ, 2.0]), ball(0.0, 1.0))
    return f, (Quaternion(0.6) + unit * 0.8) * (1.0 - depth)


def test_batched_guess_redone_after_a_long_first_radius(monkeypatch):
    # 5e-3 inside the ball: radius 1e-2 loses candidates and runs past 64
    # directions, the smaller radii lose none, so their first 64 candidates
    # are not those the batched membership call assumed
    f, p = _inside_ball_edge(5e-3)
    calls = []
    clear = series.slice_clearance

    def counted(dom, z, unit):
        calls.append(len(z))
        return clear(dom, z, unit)

    monkeypatch.setattr(series, "slice_clearance", counted)
    got = series._probe_sups(f, p)
    assert calls == [288, 336, 64, 64]
    want = _scalar_probe_sups(f, p)
    for a, b in zip(got, want):
        assert abs(a - b) <= 1e-9 * b


@settings(derandomize=True, deadline=None, max_examples=50, database=None)
@given(st.floats(-5.0, math.log10(3e-2)), st.booleans(),
       st.sampled_from([QI, QJ, QK, (QI + QJ) * math.sqrt(0.5)]))
def test_probe_near_a_ball_edge_matches_scalar_loop(log_depth, outside, unit):
    # steered towards a distance from the boundary equal to a probe radius,
    # where a radius starts to lose candidates
    depth = 10.0 ** log_depth
    target(-min(abs(log_depth - math.log10(r)) for r in series._PROBE_RADII),
           label="closeness of the distance to a probe radius")
    f, p = _inside_ball_edge(-depth if outside else depth, unit)
    got = series._probe_sups(f, p)
    want = _scalar_probe_sups(f, p)
    for a, b in zip(got, want):
        assert abs(a - b) <= 1e-9 * b


def _rotate_unit_rows(p, r):
    """The 32 structured probe points of radius r, built with rotate_unit."""
    sc = slice_decompose(p)
    t1 = perp_unit(sc.unit)
    t2 = sc.unit * t1
    rows = []
    for k in range(8):
        a = 2.0 * math.pi * k / 8.0
        J = rotate_unit(sc.unit, t1 * math.cos(a) + t2 * math.sin(a), r)
        for dx, dy in ((r * r, 0.0), (0.0, r * r), (-r * r, 0.0),
                       (0.0, -r * r)):
            rows.append((Quaternion(sc.x + dx) + J * (sc.y + dy)).components())
    return np.array(rows)


def test_near_sphere_rows_match_rotate_unit():
    rng = np.random.default_rng(146)
    units = [QI, -QI, QJ, -QJ, QK, -QK] + [_random_unit(rng)
                                           for _ in range(20)]
    radii = (1e-2, 1e-3, 1e-4, 0.3)
    for unit in units:
        p = Quaternion(rng.uniform(-1.0, 1.0)) + unit * rng.uniform(0.5, 2.0)
        got = series._near_sphere_points(p, radii)
        assert got.shape == (len(radii), 32, 4)
        for rows, r in zip(got, radii):
            assert np.abs(rows - _rotate_unit_rows(p, r)).max() <= 1e-15
    assert series._near_sphere_points(Quaternion(0.7), radii).shape == \
        (len(radii), 0, 4)


def test_report_keeps_the_probe_margin():
    q = Quaternion(-1.0) + rotate_unit(I, perp_unit(I), 0.3) * 2.0
    rep = series.classify_singularity(FX.h, q, window=(-8, 4), nodes=512)
    assert rep.kind == "removable"
    assert rep.probe["radii"] == [1e-2, 1e-3, 1e-4]
    assert rep.probe["threshold"] == 30.0
    sups = rep.probe["sups"]
    # bounded on a C+ point: the same sup at every radius
    assert max(sups) <= 1.01 * min(sups)
    assert rep.to_json()["probe"] == rep.probe


def test_h_domain_has_no_clearance_on_its_removed_sphere():
    dom = FX.h.domain
    assert not dom.contains(FX.p) and not dom.contains(FX.pbar)
    z = np.array([complex(-1.0, 2.0)] * 2)
    units = np.array([[I.x, I.y, I.z], [-I.x, -I.y, -I.z]])
    assert slice_clearance(dom, z, units).tolist() == [0.0, 0.0]
    assert slice_clearance(dom, [-1.0 + 2.0j], I).tolist() == [0.0]
    # off the sphere the clearance is that of the douren domain
    near = Quaternion(-1.0) + I * 2.01
    got = slice_clearance(dom, [complex(-1.0, 2.01)], I)[0]
    assert dom.contains(near)
    assert got == pytest.approx(_ref_clearance(near), abs=1e-12)


# ---------------------------------------------------------------------------
# unit arguments with one unit per row


def _random_unit(rng):
    v = rng.standard_normal(3)
    return Quaternion(0.0, *(v / np.linalg.norm(v)))


def _rows(rng, on_sphere=True):
    """(z, units) rows on both caps of -1 + 2S (or of two nearby spheres
    when h, undefined on it, is tested), at real points and at random
    points."""
    z, units = [], []
    spheres = [(-1.0, 2.0)] if on_sphere else []
    spheres += [(-0.97, 2.04), (-1.05, 1.97)]
    for x, y in spheres:
        collar = 2.0 * math.asin(0.5 * douren._sphere_band(x, y))
        for angle in (0.3 * collar, collar - 1e-3, collar + 1e-3,
                      collar + 1.0, math.pi):
            z.append(complex(x, y))
            units.append(rotate_unit(I, _random_unit(rng), angle))
    for x in (-2.5, -0.4, 0.7):
        z.append(complex(x, 0.0))
        units.append(_random_unit(rng))
    for _ in range(8):
        z.append(complex(rng.uniform(-2.0, 1.0), rng.uniform(0.05, 3.0)))
        units.append(_random_unit(rng))
    return np.array(z), np.array([u.components()[1:] for u in units])


def _assert_rows_match(fn, z, units, tol=1e-12):
    got = fn.eval_slice_many(z, units)
    assert got.shape == (len(z), 4)
    for k in range(len(z)):
        q = embed_complex(complex(z[k]), Quaternion(0.0, *units[k]))
        want = np.array(fn.eval_unchecked(q).components())
        assert np.abs(got[k] - want).max() <= tol * max(1.0, np.abs(want).max()), \
            (fn.label, k)


@pytest.mark.parametrize("name", ["f", "g", "D", "ell", "m"])
def test_douren_values_at_row_units(name):
    z, units = _rows(np.random.default_rng(141))
    _assert_rows_match(getattr(FX, name), z, units)


def test_h_values_at_row_units():
    z, units = _rows(np.random.default_rng(142), on_sphere=False)
    _assert_rows_match(FX.h, z, units)


def test_exact_and_composite_values_at_row_units():
    rng = np.random.default_rng(143)
    z, units = _rows(rng)
    p = QPoly([Quaternion(*r) for r in rng.standard_normal((4, 4))])
    r = QRational(p, real_quadratic(0.3, 1.1).star(QPoly([2.0, 1.0])))
    for fn in (SliceFunction.from_exact(p), SliceFunction.from_exact(r),
               star_product(FX.g, SliceFunction.from_exact(p))):
        _assert_rows_match(fn, z, units)


def test_fallbacks_use_each_rows_unit():
    # without a stem hook: the evaluator, and the two-unit stems, per row
    z, units = _rows(np.random.default_rng(144))
    bare = SliceFunction(FX.f.domain, FX.f.evaluator)
    _assert_rows_match(bare, z, units)
    assert np.abs(bare.stems(z, units) - FX.f.stems(z, units)).max() <= 1e-10


def test_slice_clearance_at_row_units():
    rng = np.random.default_rng(145)
    z, units = _rows(rng)
    # rows below the real axis mean x + |y|(-unit)
    z = np.concatenate([z, np.conj(z[-4:])])
    units = np.concatenate([units, units[-4:]])
    quats = [embed_complex(complex(zz), Quaternion(0.0, *u))
             for zz, u in zip(z, units)]
    got = slice_clearance(FX.domain, z, units)
    want = np.array([_ref_clearance(q) for q in quats])
    real = z.imag == 0.0
    assert np.abs(got - want)[~real].max() <= 1e-12
    # on the real axis the clearance is 1 at every unit: a bound for every
    # slice, not the distance to the cuts of the row's own slice
    assert real.sum() == 3 and np.all(want[real] == 1.0)
    assert np.all(got[real] == 1.0)
    # the torus: its closed form 1 - hypot(x + 1, |y| - 2) at every row,
    # and its members are the rows that clear BOUNDARY_TOL
    torus = FX.D.domain
    got = slice_clearance(torus, z, units)
    want = [1.0 - math.hypot(q.re() + 1.0, q.im_norm() - 2.0) for q in quats]
    assert np.abs(got - want).max() <= 1e-12
    inside = got > BOUNDARY_TOL
    assert [torus.contains(q) for q in quats] == inside.tolist()
    assert inside.sum() >= 8
