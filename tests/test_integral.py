import math

import numpy as np
import pytest

from sliceregular.algebra import QPoly, binom, star_product
from sliceregular.douren import DourenConfig, fixtures
from sliceregular.errors import (BadUnitChoice, OpenContour, ProbeOutside,
                                 ProbeOutsideValidated)
from sliceregular import integral
from sliceregular.integral import (Arc, Contour, SymmetricRegion,
                                   local_cauchy, nc_line_integral,
                                   pairwise_sum, slicewise_cauchy,
                                   volume_cauchy)
from sliceregular.quaternion import (ONE, QI, QJ, QK, Quaternion,
                                     embed_complex, perp_unit, rotate_unit)
from sliceregular.slicefn import SliceFunction

FX = fixtures(DourenConfig())
I0 = DourenConfig().base_unit


def const(v):
    return lambda q: v


def test_open_contour_rejected():
    with pytest.raises(OpenContour):
        Contour(QI, [Arc(0.0 + 0.0j, 1.0, 0.0, math.pi)])


def test_nc_residue_is_2_pi_I():
    # ∫ ds (s - z0)^{-1} = 2πI around an enclosed point of L_I
    for unit in (QI, QJ, rotate_unit(QI, QK, 0.7)):
        z0 = complex(0.3, 0.9)
        ctr = Contour.circle(z0, 0.5, unit, nodes=256)
        p0 = embed_complex(z0, unit)

        def kern(s):
            return (s - p0).inverse()

        val = nc_line_integral(kern, ctr, const(ONE))
        want = unit * (2.0 * math.pi)
        assert (val - want).norm() < 1e-12


def test_nc_integral_reduces_on_slice_values():
    # with both integrands valued in L_I, the four-term split collapses to
    # the plain complex line integral computed componentwise
    unit = rotate_unit(QI, QJ, 0.4)
    ctr = Contour.circle(0.0 + 1.0j, 0.7, unit, nodes=256)
    s, wds = ctr.samples()

    def g(q):
        return q * q

    def f(q):
        return q + ONE

    ref = np.zeros(4)
    for z, w in zip(s, wds):
        val = g(embed_complex(complex(z), unit)) * \
            (embed_complex(complex(w), unit)
             * f(embed_complex(complex(z), unit)))
        ref = ref + np.array(val.components())
    got = nc_line_integral(g, ctr, f)
    assert np.allclose(np.array(got.components()), ref, atol=1e-10)


def test_nc_bad_split_unit_rejected():
    ctr = Contour.circle(1.0j, 0.5, QI, nodes=64)
    with pytest.raises(BadUnitChoice):
        nc_line_integral(const(ONE), ctr, const(ONE), j_unit=QI)


def test_slicewise_cauchy_frozen_and_basic():
    p = QPoly([Quaternion(0, 0, 1, 0), Quaternion(2.0), 1.0])
    f = SliceFunction.from_exact(p)
    ctr = Contour.circle(0.0 + 1.2j, 0.8, QI, nodes=256)
    for z in (complex(0.1, 1.0), complex(-0.3, 1.5)):
        want = p.eval(embed_complex(z, QI))
        got = slicewise_cauchy(f, QI, ctr, z)
        assert (got - want).norm() < 1e-12
    with pytest.raises(ProbeOutside):
        slicewise_cauchy(f, QI, ctr, complex(3.0, 0.0))


def test_slicewise_cauchy_node_refinement():
    # halving the node count must cost accuracy; the full count reaches 1e-10
    p = QPoly([QK, Quaternion(0, 1, 0, 0), 1.0, 0.5])
    f = SliceFunction.from_exact(p)
    z = complex(0.2, 1.1)
    want = p.eval(embed_complex(z, QI))
    errs = []
    for nodes in (32, 64, 128):
        ctr = Contour.circle(0.0 + 1.0j, 0.9, QI, nodes=nodes)
        errs.append((slicewise_cauchy(f, QI, ctr, z) - want).norm())
    assert errs[2] < 1e-10
    assert errs[0] > errs[2]


def test_local_cauchy_square_at_perp_probe():
    # the slice-L_i boundary of the unit ball reconstructs f on EVERY slice:
    # f(j/2) = -1/4 for f(q) = q^2
    f = SliceFunction.from_exact(QPoly([0.0, 0.0, 1.0]))
    U = SymmetricRegion.ball(0.0, 1.0)
    got = local_cauchy(f, QI, U, QJ * 0.5)
    assert (got - Quaternion(-0.25)).norm() < 1e-10
    # and a real probe
    got = local_cauchy(f, QI, U, Quaternion(0.3))
    assert (got - Quaternion(0.09)).norm() < 1e-10


def test_local_cauchy_unit_independence():
    rng = np.random.default_rng(91)
    p = QPoly([Quaternion(*r) for r in rng.standard_normal((5, 4))])
    f = SliceFunction.from_exact(p)
    U = SymmetricRegion.ball(0.2, 1.5)
    q = Quaternion(0.1) + rotate_unit(QI, QJ, 1.1) * 0.8
    want = p.eval(q)
    for _ in range(5):
        v = rng.standard_normal(3)
        unit = Quaternion(0.0, *(v / np.linalg.norm(v)))
        got = local_cauchy(f, unit, U, q)
        assert (got - want).norm() < 1e-8 * (1.0 + want.norm())


def test_local_cauchy_cap_synthesis_on_tube():
    # reconstruct the branch log near the base cap from spherical data at j0
    U = SymmetricRegion.sphere_shell(-1.0, 2.0, 0.4)
    j0 = I0
    q = Quaternion(-1.1) + rotate_unit(I0, QJ, 0.05) * 2.1
    got = local_cauchy(FX.f, I0, U, q, j0=j0, nodes=2048)
    want = FX.f(q)
    assert (got - want).norm() < 1e-7
    # a probe outside the validated cone is rejected
    far = Quaternion(-1.0) + rotate_unit(I0, QJ, 2.0) * 2.0
    with pytest.raises(ProbeOutsideValidated):
        local_cauchy(FX.f, I0, U, far, j0=j0, nodes=2048)


def test_local_cauchy_is_cap_local():
    # perturbing f far from the reference cap must not change the
    # synthesized reconstruction near it
    U = SymmetricRegion.sphere_shell(-1.0, 2.0, 0.4)
    q = Quaternion(-1.05) + rotate_unit(I0, QK, 0.04) * 2.05

    def tampered(p):
        from sliceregular.quaternion import slice_decompose
        sc = slice_decompose(p)
        if sc.unit is not None and (sc.unit - I0).norm() > 1.2:
            return FX.f(p) + Quaternion(100.0)
        return FX.f(p)

    g = SliceFunction(FX.f.domain, tampered, backing="closed-form")
    a = local_cauchy(FX.f, I0, U, q, j0=I0, nodes=2048)
    b = local_cauchy(g, I0, U, q, j0=I0, nodes=2048)
    assert (a - b).norm() < 1e-12


def test_volume_cauchy_const_and_poly():
    U = SymmetricRegion.ball(0.0, 1.0)
    got = volume_cauchy(const(ONE), U, QI * 0.2)
    assert (got - ONE).norm() < 1e-6
    f = SliceFunction.identity()
    got = volume_cauchy(f, U, QI * 0.2)
    assert (got - QI * 0.2).norm() < 1e-6
    sq = SliceFunction.from_exact(QPoly([0.0, 0.0, 1.0]))
    q = Quaternion(0.1) + QK * 0.2
    got = volume_cauchy(sq, U, q)
    assert (got - q * q).norm() < 1e-6


def test_volume_cauchy_probe_outside():
    U = SymmetricRegion.ball(0.0, 1.0)
    with pytest.raises(ProbeOutside):
        volume_cauchy(const(ONE), U, Quaternion(2.0))


def test_pairwise_sum_matches_plain_sum():
    rng = np.random.default_rng(92)
    a = rng.standard_normal((1000, 4))
    assert np.allclose(pairwise_sum(a), a.sum(axis=0), atol=1e-12)


def test_panel_rule_is_the_mapped_16_node_rule():
    x, w = np.polynomial.legendre.leggauss(16)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    for total, panels in ((16, 1), (24, 2), (256, 16), (1000, 62)):
        ts, ws = integral._panel_rule(total)
        assert np.array_equal(
            ts, np.concatenate([(k + x) / panels for k in range(panels)]))
        assert np.array_equal(ws, np.tile(w / panels, panels))


def _volume_cauchy_per_unit(f, c, r, q, curve_nodes, sphere_nodes):
    """The volume formula one unit of the sphere grid at a time."""
    from sliceregular.quaternion import emb_arr, qinv_arr, qmul_arr
    th, wth = integral._panel_rule(curve_nodes)
    th, wth = th * math.pi, wth * math.pi
    units, wu = integral._unit_sphere_grid(sphere_nodes)
    qc = np.array(q.components())
    x, y = c + r * np.cos(th), r * np.sin(th)
    qx = np.tile(qc, (th.size, 1))
    qx[:, 0] -= x
    sq = qmul_arr(qx, qx)
    sq[:, 0] += y ** 2
    scal = qinv_arr(sq) / (2.0 * math.pi * y[:, None]) ** 2
    area_w = (r ** 3) * np.sin(th) ** 2 * wth
    acc = np.zeros((units.shape[0], 4))
    for iu in range(units.shape[0]):
        Iu = Quaternion(0.0, *units[iu])
        w_pts = emb_arr(x + 1j * y, Iu)
        xmy = w_pts.copy()
        xmy[:, 1:] *= -1.0
        xmy -= qc
        kern = qmul_arr(scal, xmy)
        normal = (w_pts - np.array([c, 0.0, 0.0, 0.0])) / r
        fv = f.eval_slice_many(x + 1j * y, Iu)
        rows = qmul_arr(qmul_arr(kern, normal), fv)
        acc[iu] = pairwise_sum(rows * area_w[:, None]) * wu[iu]
    return Quaternion(*pairwise_sum(acc))


def test_volume_cauchy_is_one_call_and_the_per_unit_sum(monkeypatch):
    rng = np.random.default_rng(1212)
    p = QPoly([Quaternion(*row) for row in rng.standard_normal((6, 4))])
    f = SliceFunction.from_exact(p)
    calls = {"member": 0, "eval": 0}
    member, evaluate = integral.require_slice_points, f.eval_slice_many

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    U = SymmetricRegion.ball(0.0, 1.5)
    q = Quaternion(0.1, 0.2, -0.3, 0.25)
    for nodes in ((32, 24), (256, 590)):
        want = _volume_cauchy_per_unit(f, 0.0, 1.5, q, *nodes)
        monkeypatch.setattr(integral, "require_slice_points",
                            counted("member", member))
        monkeypatch.setattr(f, "eval_slice_many", counted("eval", evaluate))
        got = volume_cauchy(f, U, q, *nodes)
        monkeypatch.undo()
        assert calls == {"member": 1, "eval": 1}
        calls.update(member=0, eval=0)
        assert got.components() == want.components()
        assert (got - p.eval(q)).norm() < 1e-12
