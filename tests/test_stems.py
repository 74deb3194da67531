"""Stem rows against the two-unit spherical data, and the array guards of
the contour and boundary paths that use them."""

import math

import numpy as np
import pytest

from sliceregular import douren, series
from sliceregular.algebra import (QPoly, QRational, conjugate, reciprocal,
                                  real_quadratic, star_product, symmetrize)
from sliceregular.domains import BOUNDARY_TOL
from sliceregular.errors import NoAnnulus, NotInDomain
from sliceregular.integral import SymmetricRegion, local_cauchy
from sliceregular.quaternion import (QJ, QK, Quaternion, embed_complex,
                                     perp_unit, rotate_unit)
from sliceregular.slicefn import SliceFunction, spherical_data

FX = douren.fixtures()
I = FX.cfg.base_unit


def _two_unit(fn):
    """The same evaluator without a stem hook: spherical data by the
    two-unit solve."""
    return SliceFunction(fn.domain, fn.evaluator)


def _random_unit(rng):
    v = rng.standard_normal(3)
    return Quaternion(0.0, *(v / np.linalg.norm(v)))


def _collar_unit(rng, angle, delta):
    """A unit at `angle` + delta from I on a random great circle."""
    return rotate_unit(I, _random_unit(rng), angle + delta)


def _douren_points(rng, on_sphere=True):
    """(x, y, unit) on both caps of -1 + 2S (or of nearby two-cap spheres),
    within 1e-3 rad of the collar, and on spheres with y down to 1e-3."""
    pts = []
    spheres = [(-1.0, 2.0)] if on_sphere else []
    spheres += [(-0.97, 2.04), (-1.05, 1.97)]
    for x, y in spheres:
        band = douren._sphere_band(x, y)
        collar = 2.0 * math.asin(0.5 * band)
        for delta in (-1e-3, -3e-4, 3e-4, 1e-3):
            pts.append((x, y, _collar_unit(rng, collar, delta)))
        pts.append((x, y, _collar_unit(rng, 0.3 * collar, 0.0)))
        pts.append((x, y, _collar_unit(rng, collar + 1.0, 0.0)))
    for x, y in ((-1.0, 1e-3), (0.4, 1e-2), (-2.5, 1e-3), (1.5, 0.3),
                 (-1.0, 3.5)):
        pts.append((x, y, _random_unit(rng)))
    return pts


def _assert_stems_match(fn, pts, tol=1e-10):
    ref = _two_unit(fn)
    for x, y, unit in pts:
        S = fn.stems(np.array([complex(x, y)]), unit)
        assert S.shape == (1, 2, 4)
        d = spherical_data(ref, Quaternion(x) + unit * y)
        want = np.array([d.value.components(),
                         (d.derivative * y).components()])
        scale = max(1.0, np.abs(want).max())
        assert np.abs(S[0] - want).max() <= tol * scale, (fn.label, x, y)


@pytest.mark.parametrize("name", ["f", "g", "ell", "m"])
def test_douren_stems_match_two_unit_solve(name):
    rng = np.random.default_rng(121)
    _assert_stems_match(getattr(FX, name), _douren_points(rng))


def test_shifted_g_stems_match_two_unit_solve():
    rng = np.random.default_rng(122)
    sg = FX.shifted_g(Quaternion(-1.0) + rotate_unit(I, QJ, 1.9) * 2.0)
    _assert_stems_match(sg, _douren_points(rng))


def test_torus_difference_stems_match_two_unit_solve():
    rng = np.random.default_rng(128)
    pts = [(x, y, u) for x, y, u in _douren_points(rng)
           if FX.D.domain.contains(Quaternion(x) + u * y)]
    assert len(pts) >= 12
    _assert_stems_match(FX.D, pts)


def test_h_stems_match_two_unit_solve():
    # h is undefined on -1 + 2S itself: both caps of nearby spheres
    rng = np.random.default_rng(123)
    _assert_stems_match(FX.h, _douren_points(rng, on_sphere=False))


def test_composite_stems_match_two_unit_solve():
    rng = np.random.default_rng(124)
    pts = _douren_points(rng, on_sphere=False)
    for fn in (star_product(FX.f, FX.g), conjugate(FX.g), symmetrize(FX.g),
               reciprocal(FX.g)):
        _assert_stems_match(fn, pts)


def test_noncommuting_composite_stems():
    # quaternion coefficients off every common slice: the order of each
    # product in the stem kernels matters
    rng = np.random.default_rng(127)
    p1, p2 = (QPoly([Quaternion(*r) for r in rng.standard_normal((3, 4))])
              for _ in range(2))
    f1, f2 = SliceFunction.from_exact(p1), SliceFunction.from_exact(p2)
    pts = [(rng.uniform(-1.0, 1.0), y, _random_unit(rng))
           for y in (1e-3, 0.3, 0.8, 1.4)]
    for fn, exact in ((star_product(f1, f2), p1.star(p2)),
                      (star_product(f2, f1), p2.star(p1)),
                      (conjugate(f1), p1.conjugate()),
                      (symmetrize(f1), p1.symmetrize())):
        _assert_stems_match(fn, pts)
        z = np.array([complex(x, y) for x, y, _ in pts])
        assert np.abs(fn.stems(z, pts[0][2]) - exact.stems(z)).max() <= 1e-12
    _assert_stems_match(reciprocal(f1), pts)


def test_exact_stems_match_two_unit_solve():
    rng = np.random.default_rng(125)
    p = QPoly([Quaternion(*r) for r in rng.standard_normal((5, 4))])
    r = QRational(p, real_quadratic(0.3, 1.1).star(QPoly([2.0, 1.0])))
    pts = [(rng.uniform(-1.5, 1.5), y, _random_unit(rng))
           for y in (1e-3, 1e-2, 0.4, 0.9, 1.7)]
    for exact in (p, r):
        fn = SliceFunction.from_exact(exact)
        _assert_stems_match(fn, pts)
        z = np.array([complex(x, y) for x, y, _ in pts])
        unit = pts[0][2]
        got = exact.eval_slice_many(z, unit)
        for k, zz in enumerate(z):
            want = exact.eval(embed_complex(complex(zz), unit))
            assert np.abs(got[k] - want.components()).max() <= \
                1e-12 * (1.0 + want.norm())


def test_h_slice_values_run_no_scalar_evaluator(monkeypatch):
    # every SliceFunction the fixtures build counts its evaluator calls
    calls = []
    init = SliceFunction.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        evaluator = self.evaluator

        def counted(q):
            calls.append(q)
            return evaluator(q)
        self.evaluator = counted

    monkeypatch.setattr(SliceFunction, "__init__", counting_init)
    fx = douren.fixtures()
    rng = np.random.default_rng(126)
    for unit in (rotate_unit(I, QK, 0.3), rotate_unit(I, QJ, 2.2)):
        theta = rng.uniform(0.0, 2.0 * math.pi, 64)
        z = complex(-1.0, 2.0) + 0.3 * np.exp(1j * theta)
        calls.clear()
        got = fx.h.eval_slice_many(z, unit)
        assert calls == []
        for k, zz in enumerate(z):
            want = fx.h.eval_unchecked(embed_complex(complex(zz), unit))
            assert np.abs(got[k] - want.components()).max() <= \
                1e-11 * (1.0 + want.norm())


def test_contour_touching_a_cut_is_rejected():
    # a node of the contour sits on the arc cut of its slice: the arc of
    # t = 0.3 passes through z = -1 + 2.4i
    unit = rotate_unit(I, perp_unit(I), 2.0 * math.asin(0.15))
    assert abs(FX.cfg.t_of(unit) - 0.3) < 1e-12
    on_arc = complex(-1.0, 2.4)
    assert douren.cut_distance(0.3, on_arc - 2j) <= BOUNDARY_TOL
    zc = on_arc - 0.2
    with pytest.raises(NotInDomain):
        series._contour_values(FX.h, zc, unit, 0.2, 64)
    with pytest.raises(NoAnnulus):
        series.laurent_coeffs(FX.h, Quaternion(zc.real) + unit * zc.imag,
                              radius=0.2, nodes=64)


def test_synthesized_boundary_touching_a_cut_is_rejected():
    # choose j0 so that the arc cut of its slice passes through one node
    # x + |y| j0 of the synthesized boundary
    U = SymmetricRegion.sphere_shell(-1.0, 2.0, 0.4)
    s, _ = U.slice_contour(I, 256).samples()
    k = int(np.argmin(np.abs(s - complex(-1.3, 2.3))))
    x, y = s[k].real, abs(s[k].imag)
    t = 0.5 * (1.0 - (y - 2.0) / math.sqrt(1.0 - (x + 1.0) ** 2))
    j0 = rotate_unit(I, perp_unit(I), 2.0 * math.asin(0.5 * t))
    assert douren.cut_distance(FX.cfg.t_of(j0), complex(x, y - 2.0)) \
        <= BOUNDARY_TOL
    q = Quaternion(-1.0) + j0 * 2.1
    with pytest.raises(NotInDomain):
        local_cauchy(FX.f, I, U, q, j0=j0, nodes=256)


def test_slice_boundary_leaving_the_domain_is_rejected():
    # a composite on the unit ball: the per-point path raised NotInDomain
    # at the first boundary node outside the ball, the stem rows must too
    from sliceregular.domains import ball
    p = QPoly([Quaternion(0.5, 0.1, 0.0, 0.2), 1.0])
    f = SliceFunction.from_exact(p, ball(0.0, 1.0))
    fg = star_product(f, f)
    q = Quaternion(0.1) + QJ * 0.3
    inside = local_cauchy(fg, QK, SymmetricRegion.ball(0.0, 0.8), q)
    assert (inside - p.star(p).eval(q)).norm() < 1e-9
    with pytest.raises(NotInDomain):
        local_cauchy(fg, QK, SymmetricRegion.ball(0.0, 1.5), q)


def test_rows_below_the_real_axis_are_mirrored_points():
    # a row x + iy with y < 0 at the unit U is the point x + |y|(-U), on the
    # cap of -U: -1 - 2.3i at -I is -1 + 2.3 I, where f = 0.0431 - 3.433 I
    # (the hook read at the row itself gives 0.0431 + 2.850 I, a 2 pi jump)
    got = FX.f.eval_slice_many(np.array([-1.0 - 2.3j]), -I)[0]
    want = FX.f(Quaternion(-1.0) + I * 2.3)
    assert np.abs(got - want.components()).max() <= 1e-12
    assert np.abs(got - [0.0431, -3.433, 0.0, 0.0]).max() <= 5e-4
    rng = np.random.default_rng(127)
    z = complex(-1.0, -2.0) + 0.3 * np.exp(1j * rng.uniform(0, 2 * math.pi, 24))
    units = [_random_unit(rng) for _ in z]
    rows = np.array([u.components()[1:] for u in units])
    for fn in (FX.h, FX.ell):
        got = fn.eval_slice_many(z, rows)
        for k, (zz, u) in enumerate(zip(z, units)):
            want = fn(embed_complex(complex(zz), u))
            assert np.abs(got[k] - want.components()).max() <= \
                1e-11 * (1.0 + want.norm()), fn.label
    # polynomial and rational rows do not move: b(conj z) = b(z) and
    # c(conj z) = -c(z) bit for bit
    p = QPoly([Quaternion(*r) for r in rng.standard_normal((5, 4))])
    r = QRational(p, real_quadratic(0.3, 1.1).star(QPoly([2.0, 1.0])))
    for exact in (p, r):
        got = SliceFunction.from_exact(exact).eval_slice_many(z, rows)
        assert np.array_equal(got, exact.eval_slice_many(z, rows))
