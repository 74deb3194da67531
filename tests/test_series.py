import cmath
import math

import numpy as np
import pytest

from sliceregular.algebra import (QPoly, QRational, binom, real_quadratic,
                                  reciprocal_poly, star_product)
from sliceregular.domains import CassiniRegion, ball
from sliceregular.errors import OutsideConvergenceRegion
from sliceregular.quaternion import (ONE, QI, QJ, QK, Quaternion,
                                     embed_complex, rotate_unit)
from sliceregular.series import (classify_singularity, laurent_coeffs,
                                 spherical_coeffs)
from sliceregular.slicefn import SliceFunction, extend_from_slices


def rand_poly(rng, terms):
    return QPoly([Quaternion(*row) for row in rng.standard_normal((terms, 4))])


def test_poly_spherical_round_trip_degree_12():
    rng = np.random.default_rng(81)
    p = rand_poly(rng, 13)
    ser = spherical_coeffs(p, 0.3, 1.1)
    assert ser.exact
    assert ser.spherical_order() == 0
    assert ser.cassini_radii() == (0.0, math.inf)
    for _ in range(10):
        q = Quaternion(*rng.standard_normal(4))
        want = p.eval(q)
        got = ser.eval(q, region_check=False)
        assert (got - want).norm() < 1e-9 * (1.0 + want.norm())


def test_rational_spherical_orders():
    quad = real_quadratic(0.0, 1.0)
    r = QRational(QPoly([1.0]), quad)
    ser = spherical_coeffs(r, 0.0, 1.0)
    assert ser.spherical_order() == 2
    assert ser.cassini_radii()[1] == math.inf
    # away from the singular sphere the series reproduces the rational
    q = Quaternion(0.5, 0.5, 0.5, 0.0)
    assert (ser.eval(q, region_check=False) - r.eval(q)).norm() < 1e-10
    # double sphere factor doubles the order
    r2 = QRational(QPoly([1.0]), star_product(quad, quad))
    assert spherical_coeffs(r2, 0.0, 1.0).spherical_order() == 4
    # a regular function has order 0
    assert spherical_coeffs(QPoly([1.0, 2.0, 1.0]), 0.0, 1.0
                            ).spherical_order() == 0


def test_rational_spherical_pairs_reproduce_values():
    # quaternionic numerators over real denominators that are nonzero on
    # the sphere x0 + y0 S, and that vanish on it (negative indices)
    rng = np.random.default_rng(2602)
    x0, y0 = 0.3, 1.1
    worst = 0.0
    for vanishing in (False, True):
        for _ in range(5):
            den = real_quadratic(x0 + rng.uniform(2.0, 3.0),
                                 rng.uniform(0.5, 1.5))
            if vanishing:
                den = star_product(real_quadratic(x0, y0), den)
            r = QRational(rand_poly(rng, 4), den)
            ser = spherical_coeffs(r, x0, y0)
            for _ in range(10):
                v = rng.standard_normal(3)
                unit = Quaternion(0.0, *(v / np.linalg.norm(v)))
                q = (Quaternion(x0) + unit * y0
                     + Quaternion(*(0.1 * rng.standard_normal(4))))
                want = r.eval(q)
                worst = max(worst, (ser.eval(q) - want).norm() / want.norm())
    assert worst < 1e-10


def test_laurent_simple_pole_residue():
    # (q - i)^{-*} restricted to L_i is 1/(z - i): a_{-1} = 1, rest noise
    r = reciprocal_poly(binom(QI))
    ser = laurent_coeffs(r, QI, window=(-3, 3))
    assert (ser.coeffs[-1] - ONE).norm() < 1e-10
    for n, c in ser.coeffs.items():
        if n != -1:
            assert c.norm() < 1e-10
    assert ser.inner_radius() == 0.0


def test_laurent_outer_radius_from_decay():
    # 1/(q-2) expanded at i converges up to |z - i| = sqrt(5)
    r = reciprocal_poly(binom(Quaternion(2.0)))
    ser = laurent_coeffs(r, QI, window=(-2, 12))
    assert ser.inner_radius() == 0.0
    assert 1.8 < ser.outer_radius() < 2.8


def test_laurent_reconstructs_poly():
    rng = np.random.default_rng(82)
    p = rand_poly(rng, 6)
    center = Quaternion(0.2) + QK * 0.9
    ser = laurent_coeffs(p, center, window=(-2, 8))
    for _ in range(6):
        q = center + Quaternion(*rng.standard_normal(4)) * 0.05
        if q.im_norm() < 1e-3:
            continue
        want = p.eval(q)
        assert (ser.eval(q, region_check=False) - want).norm() \
            < 1e-9 * (1.0 + want.norm())


def test_numeric_spherical_extraction_matches_exact():
    rng = np.random.default_rng(83)
    p = rand_poly(rng, 7)
    exact = spherical_coeffs(p, 0.4, 1.2)
    f = SliceFunction(ball(0.0, 6.0), p.eval, backing="closed-form")
    num = spherical_coeffs(f, 0.4, 1.2, depth=10)
    scale = exact.scale()
    for n in range(0, 4):
        ea, eb = exact.pairs.get(n, (Quaternion(), Quaternion()))
        na, nb = num.pairs[n]
        assert (na - ea).norm() < 1e-8 * scale
        assert (nb - eb).norm() < 1e-8 * scale
    for n in range(-3, 0):
        na, nb = num.pairs[n]
        assert na.norm() + nb.norm() < 1e-8 * scale


def test_classify_pole_orders():
    r1 = reciprocal_poly(binom(QI))
    rep = classify_singularity(r1, QI, window=(-6, 4), nodes=1024)
    assert rep.kind == "pole" and rep.order == 1.0

    quad = real_quadratic(0.0, 1.0)
    r2 = QRational(QPoly([1.0]), star_product(quad, quad))
    rep = classify_singularity(r2, QI, window=(-6, 4), nodes=1024)
    assert rep.kind == "pole" and rep.order == 2.0


def test_classify_removable_for_polynomial():
    p = QPoly([1.0, QJ, 2.0])
    rep = classify_singularity(p, QI, window=(-6, 4), nodes=1024)
    assert rep.kind == "removable" and rep.order == 0.0


def test_classify_essential():
    # extension of z -> exp(2/(z - i)) from two slices: essential at i
    J, K = QI, QJ

    def h(z):
        return cmath.exp(2.0 / (z - 1j))

    def r(z):
        return embed_complex(h(z), J)

    def s(z):
        return embed_complex(h(z), K)

    f = extend_from_slices(r, s, J, K, ball(0.0, 4.0))
    rep = classify_singularity(f, QI, radius=0.5)
    assert rep.kind == "essential"
    assert rep.order == math.inf


def test_series_region_check_raises_outside():
    r = reciprocal_poly(binom(Quaternion(2.0)))
    ser = laurent_coeffs(r, QI, window=(-2, 12))
    with pytest.raises(OutsideConvergenceRegion):
        ser.eval(Quaternion(10.0) + QI * 1.0)


def test_spherical_series_json_shape():
    ser = spherical_coeffs(QPoly([QI, 1.0]), 0.0, 1.0)
    data = ser.to_json()
    assert data["sphere"] == [0.0, 1.0]
    assert "0" in data["pairs"]


# ---------------------------------------------------------------------------
# One stem contour per extraction, on the branch-log fixtures

def _douren():
    from sliceregular.douren import fixtures
    return fixtures()


def test_spherical_coeffs_use_one_contour_and_no_unit_pair(monkeypatch):
    from sliceregular import domains, slicefn

    def banned(*args, **kwargs):
        raise AssertionError("two-unit path used")

    FX = _douren()
    monkeypatch.setattr(domains.CapId, "second_unit", banned)
    monkeypatch.setattr(slicefn, "solve_two_units", banned)
    for cap in (FX.cap_plus, FX.cap_minus):
        ser = spherical_coeffs(FX.g, -1.0, 2.0, cap=cap, depth=12)
        assert ser.pairs[0][0].norm() > 1.0


def test_spherical_pairs_of_g_reproduce_it_and_keep_decaying():
    # g is regular on -1 + 2S: cap-wide pairs that decay with the order,
    # reproducing g on both caps from a distance 0.01 to 0.1 off the sphere
    FX = _douren()
    rng = np.random.default_rng(1207)
    for cap in (FX.cap_plus, FX.cap_minus):
        ser = spherical_coeffs(FX.g, -1.0, 2.0, cap=cap, depth=12)
        size = [a.norm() + b.norm() for a, b in
                (ser.pairs[n] for n in range(8, 13))]
        assert all(b <= a for a, b in zip(size, size[1:])), size
        worst = 0.0
        for U, rho in zip(cap.sample_units(12, rng),
                          np.tile([0.01, 0.03, 0.1], 4)):
            z = complex(-1.0, 2.0) + rho * cmath.exp(1j * rng.uniform(0, 7))
            q = Quaternion(z.real) + U * z.imag
            want = FX.g(q)
            worst = max(worst, (ser.eval(q) - want).norm() / want.norm())
        assert worst < 1e-12


def test_laurent_coeffs_match_the_kernel_formula():
    # reference: a_n = mean of e^{-J n theta} r^{-n} h(samples) with the
    # kernel multiplied on the left, as quaternion rows, one order at a time
    from sliceregular.quaternion import emb_arr, qmul_arr
    FX = _douren()
    for U in (rotate_unit(FX.cfg.base_unit, QJ, 0.3), FX.I0):
        p = Quaternion(-1.0) + U * 2.0
        ser = laurent_coeffs(FX.h, p, window=(-8, 4), nodes=512)
        theta = 2.0 * math.pi * np.arange(512) / 512
        z = complex(-1.0, 2.0) + ser.radius * np.exp(1j * theta)
        vals = FX.h.eval_slice_many(z, U)
        scale = ser.scale()
        for n in range(-8, 5):
            kern = np.exp(-1j * n * theta) * ser.radius ** (-float(n))
            want = qmul_arr(emb_arr(kern, U), vals).mean(axis=0)
            got = np.array(ser.coeffs[n].components())
            assert np.abs(got - want).max() <= 1e-13 * scale, n


@pytest.mark.parametrize("r1, most", [(0.1, 0.1), (0.3, 0.05)])
def test_laurent_disk_keeps_off_a_cassini_hole(r1, most):
    # 1/(q^2 + 1) on the Cassini region r1^2 < |q^2 + 1| < 4, at 0.1 + 1.1i:
    # the hole about the pole at i (about 0.005 wide for r1 = 0.1) sits
    # 0.14 away, inside the default 0.4 disk, which only a clearance that
    # sees the hole turns down; r1 = 0.3 is the control with a wide hole
    def stems(z, unit):
        F = 1.0 / (np.atleast_1d(z) ** 2 + 1.0)
        S = np.zeros((F.size, 2, 4))
        S[:, 0, 0], S[:, 1, 0] = F.real, F.imag
        return S

    dom = CassiniRegion(0.0, 1.0, r1, 2.0).to_domain()
    f = SliceFunction(dom, slice_many=stems, label="1/(q^2+1)")
    rep = classify_singularity(f, Quaternion(0.1, 1.1, 0.0, 0.0),
                               window=(-8, 4), nodes=512)
    assert rep.kind == "removable"
    assert rep.series.radius <= most
