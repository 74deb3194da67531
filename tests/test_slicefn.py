import math

import numpy as np
import pytest

from sliceregular.algebra import QPoly, binom, star_product
from sliceregular.domains import DomainSpec, ball
from sliceregular.errors import OnRealAxis, RealTraceMismatch, UnitsEqual
from sliceregular.quaternion import (ONE, QI, QJ, QK, Quaternion,
                                     embed_complex, rotate_unit,
                                     slice_decompose)
from sliceregular.slicefn import (SliceFunction, cullen_derivative,
                                  differential, extend_from_slices,
                                  intersect_domains, is_differential_singular,
                                  is_slice_preserving,
                                  slice_regularity_residual, spherical_data)


def rand_units(rng, n):
    out = []
    for _ in range(n):
        v = rng.standard_normal(3)
        out.append(Quaternion(0.0, *(v / np.linalg.norm(v))))
    return out


def test_spherical_data_of_square():
    # f(x + yJ) = x^2 - y^2 + J 2xy: value x^2 - y^2, derivative 2x
    f = SliceFunction.from_exact(QPoly([0.0, 0.0, 1.0]))
    for x, y in ((0.3, 0.8), (-1.2, 2.0), (0.0, 1.0)):
        d = spherical_data(f, Quaternion(x) + QJ * y)
        assert (d.value - Quaternion(x * x - y * y)).norm() < 1e-12
        assert (d.derivative - Quaternion(2 * x)).norm() < 1e-12


def test_spherical_data_unit_independent():
    rng = np.random.default_rng(41)
    p = QPoly([Quaternion(*r) for r in rng.standard_normal((6, 4))])
    f = SliceFunction.from_exact(p)
    x, y = 0.4, 1.3
    datas = [spherical_data(f, Quaternion(x) + J * y)
             for J in rand_units(rng, 6)]
    scale = max(d.value.norm() + d.derivative.norm() for d in datas)
    for d in datas[1:]:
        assert (d.value - datas[0].value).norm() < 1e-10 * scale
        assert (d.derivative - datas[0].derivative).norm() < 1e-10 * scale


def test_spherical_data_reconstructs():
    rng = np.random.default_rng(42)
    p = QPoly([Quaternion(*r) for r in rng.standard_normal((5, 4))])
    f = SliceFunction.from_exact(p)
    for J in rand_units(rng, 5):
        q = Quaternion(0.2) + J * 0.9
        d = spherical_data(f, q)
        assert (d.reconstruct(q) - f(q)).norm() < 1e-11 * (1 + f(q).norm())


def test_spherical_data_caches_each_angular_step():
    # a domain with no cap structure: its caps are grid flood fills, finer
    # at the smaller step
    dom = DomainSpec(contains=lambda q: q.norm() < 10.0,
                     bbox=((-10.0, 10.0),) * 4, label="ball, grid caps")
    f = SliceFunction.from_exact(QPoly([QI, 1.0]), dom)
    p = Quaternion(0.2) + QJ * 1.3
    coarse = spherical_data(f, p, 8.0)
    fine = spherical_data(f, p, 2.0)
    assert fine.cap._resolver.edge < 0.5 * coarse.cap._resolver.edge
    assert spherical_data(f, p, 8.0) is coarse


def test_spherical_data_real_axis_rejected():
    f = SliceFunction.identity()
    with pytest.raises(OnRealAxis):
        spherical_data(f, Quaternion(0.5))


def test_cullen_derivative_exact_and_numeric():
    p = QPoly([1.0, Quaternion(0, 1, 0, 0), 2.0, Quaternion(0, 0, 0, 3)])
    f_exact = SliceFunction.from_exact(p)
    # same polynomial behind an opaque closed-form evaluator
    f_num = SliceFunction(f_exact.domain, p.eval, backing="closed-form")
    rng = np.random.default_rng(43)
    for _ in range(8):
        q = Quaternion(*rng.standard_normal(4))
        de = cullen_derivative(f_exact, q)
        dn = cullen_derivative(f_num, q)
        assert (de - p.cullen().eval(q)).norm() == 0.0
        assert (dn - de).norm() < 1e-8 * (1.0 + de.norm())


def test_extension_formula_reproduces_polynomial():
    p = QPoly([Quaternion(1, 2, 0, 0), Quaternion(0, 0, 1, 0), 1.0])
    J, K = QI, QJ

    def r(z):
        return p.eval(embed_complex(z, J))

    def s(z):
        return p.eval(embed_complex(z, K))

    f = extend_from_slices(r, s, J, K, ball(0.0, 3.0))
    rng = np.random.default_rng(44)
    for _ in range(10):
        v = rng.standard_normal(4)
        q = Quaternion(*(v / np.linalg.norm(v)))
        assert (f(q) - p.eval(q)).norm() < 1e-11


def test_extension_formula_equal_units_rejected():
    with pytest.raises(UnitsEqual):
        extend_from_slices(lambda z: Quaternion(1.0), lambda z: Quaternion(1.0),
                           QI, QI, ball())


def test_extension_with_disagreeing_real_traces_raises_on_r():
    # r and s differ on the real axis: real rows raise, other rows solve
    f = extend_from_slices(lambda z: embed_complex(z, QI),
                           lambda z: embed_complex(z, QJ) + Quaternion(1.0),
                           QI, QJ, ball(0.0, 3.0))
    with pytest.raises(RealTraceMismatch):
        f(Quaternion(0.5))
    with pytest.raises(RealTraceMismatch):
        f.stems(np.array([0.5 + 0.5j, 0.5 + 0.0j]), QI)
    assert np.isfinite(f(Quaternion(0.5) + QJ * 0.5).components()).all()


def test_differential_matches_finite_differences():
    p = QPoly([Quaternion(0, 1, 2, 0), 1.0, Quaternion(0.5)])
    f = SliceFunction.from_exact(p)
    rng = np.random.default_rng(45)
    h = 1e-5
    for _ in range(8):
        q = Quaternion(*rng.standard_normal(4))
        if q.im_norm() < 0.1:
            continue
        v = Quaternion(*rng.standard_normal(4))
        got = differential(f, q, v)
        fd = (p.eval(q + v * h) - p.eval(q - v * h)) / (2.0 * h)
        assert (got - fd).norm() < 1e-7 * (1.0 + got.norm())


def test_differential_singular_for_square_on_imaginary_axis():
    f = SliceFunction.from_exact(QPoly([0.0, 0.0, 1.0]))
    # d(q^2)_p(v) = pv + vp kills the slice-orthogonal directions at re(p)=0
    assert is_differential_singular(f, QI * 1.3)
    assert not is_differential_singular(f, Quaternion(0.5) + QI * 1.3)


def test_slice_regularity_residual_small():
    p = QPoly([Quaternion(1, 1, 0, 0), 2.0, Quaternion(0, 0, 1, 0)])
    f = SliceFunction.from_exact(p)
    for q in (Quaternion(0.3) + QI * 0.7, Quaternion(-1.0) + QK * 2.0):
        assert slice_regularity_residual(f, q) < 1e-7


def test_is_slice_preserving():
    real = SliceFunction.from_exact(QPoly([1.0, -2.0, 3.0]))
    mixed = SliceFunction.from_exact(QPoly([QI, 1.0]))
    probes = [Quaternion(0.1) + QJ * 0.8, Quaternion(-0.4) + QI * 1.2]
    assert is_slice_preserving(real, probes)
    assert not is_slice_preserving(mixed, probes)


def test_intersect_domains():
    a = ball(0.0, 2.0)
    b = ball(1.0, 2.0)
    c = intersect_domains(a, b)
    assert c.contains(Quaternion(0.5))
    assert not c.contains(Quaternion(-1.5))
    assert c.boundary_distance(Quaternion(0.5)) == pytest.approx(
        min(a.boundary_distance(Quaternion(0.5)),
            b.boundary_distance(Quaternion(0.5))))


def test_eval_slice_many_matches_pointwise():
    p = QPoly([Quaternion(0, 1, 1, 0), Quaternion(2.0), 1.0])
    f = SliceFunction.from_exact(p)
    z = np.array([0.1 + 0.2j, -1.0 + 1.5j, 2.0 + 0.0j])
    u = rotate_unit(QI, QK, 0.9)
    block = f.eval_slice_many(z, u)
    for k, zz in enumerate(z):
        want = p.eval(embed_complex(complex(zz), u))
        assert np.allclose(block[k], want.components(), atol=1e-12)


def test_intersect_domains_sphere_clearance():
    units = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]])
    a, b, c = ball(0.0, 2.0), ball(1.0, 2.0), ball(0.0, 3.0)
    a.sphere_clearance = lambda x, y, u: np.full(len(u), 0.5)
    b.sphere_clearance = lambda x, y, u: u[:, 0]
    both = intersect_domains(a, b)
    assert both.sphere_clearance(0.0, 1.0, units).tolist() == [0.5, 0.0]
    # one side without the hook: the flood fill needs its contains test
    assert intersect_domains(a, c).sphere_clearance is None
