"""The flagship check battery of `sliceregular selftest` and the acceptance
suite: the polynomial identities, and on the branch-log fixtures ghost
divisors, a zero set on one cap only, the torus zero divisor and a
nonremovable singularity of order 0.

Each check is a function of (rng, scale) that returns (ok, note), the note
giving the worst measured value next to its bound. `scale` multiplies the
number of random samples a check draws (at least one each): 1.0 is the
acceptance suite. Bounds, degrees, windows and node counts ignore it.
"""

from __future__ import annotations

import math
import operator
import time

import numpy as np

from .algebra import (QPoly, binom, real_quadratic, reciprocal_poly,
                      star_product, sym_eval)
from .douren import cut_jump, fixtures
from .integral import Contour, SymmetricRegion, local_cauchy, slicewise_cauchy
from .quaternion import (ONE, QI, QJ, QK, Quaternion, embed_complex,
                         perp_unit, rotate_unit, slice_decompose)
from .series import classify_singularity, laurent_coeffs, spherical_coeffs
from .slicefn import (SliceFunction, cullen_derivative,
                      is_differential_singular, spherical_data)
from .zeros import cap_zeros, divides_near, multiplicities, poly_zeros

FX = fixtures()
I = FX.cfg.base_unit

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
        ">=": operator.ge}


def _bound(what: str, value: float, op: str, bound: float):
    """(ok, note) of `value op bound`."""
    return _OPS[op](value, bound), "%s %.2e (%s %g)" % (what, value, op, bound)


def _all(*results):
    return (all(ok for ok, _ in results),
            "; ".join(note for _, note in results))


def _count(n: int, scale: float) -> int:
    return max(1, round(n * scale))


def rand_poly(rng, terms):
    return QPoly([Quaternion(*row) for row in rng.standard_normal((terms, 4))])


def rand_unit(rng):
    v = rng.standard_normal(3)
    return Quaternion(0.0, *(v / np.linalg.norm(v)))


def cap_unit(rng, near: bool):
    """A unit in the near cap (chord to I < 0.45) or the far cap (> 0.55),
    staying clear of the cap-boundary collar."""
    a = rng.uniform(0.0, 2.0 * math.pi)
    t1 = perp_unit(I)
    t2 = I * t1
    toward = t1 * math.cos(a) + t2 * math.sin(a)
    if near:
        ang = rng.uniform(0.02, 2.0 * math.asin(0.219))
    else:
        ang = rng.uniform(2.0 * math.asin(0.281), 2.8)
    return rotate_unit(I, toward, ang)


def _gauss_newton(p: QPoly, target: Quaternion, start: Quaternion,
                  iters: int = 25):
    x = np.array(start.components())
    h = 1e-6
    for _ in range(iters):
        q = Quaternion(*x)
        r = np.array((p.eval(q) - target).components())
        if np.linalg.norm(r) < 1e-12:
            break
        jac = np.empty((4, 4))
        for k in range(4):
            dx = np.zeros(4)
            dx[k] = h
            fp = np.array(p.eval(Quaternion(*(x + dx))).components())
            fm = np.array(p.eval(Quaternion(*(x - dx))).components())
            jac[:, k] = (fp - fm) / (2.0 * h)
        step, *_ = np.linalg.lstsq(jac, r, rcond=None)
        x = x - step
    return Quaternion(*x)


def representation_formula_unit_independence(rng, scale):
    """b = (J-K)^{-1}[J f(x+yJ) - K f(x+yK)], c = (J-K)^{-1}[f(.) - f(.)]
    do not depend on the pair (J, K); five pairs per point at any scale."""
    worst = 0.0
    for _ in range(_count(100, scale)):
        p = rand_poly(rng, int(rng.integers(2, 10)))
        for _ in range(_count(20, scale)):
            x = rng.uniform(-2.0, 2.0)
            y = rng.uniform(0.1, 2.5)
            datas = []
            for _ in range(5):
                J = rand_unit(rng)
                K = rand_unit(rng)
                while (J - K).norm() < 0.3:
                    K = rand_unit(rng)
                fJ = p.eval(Quaternion(x) + J * y)
                fK = p.eval(Quaternion(x) + K * y)
                d = (J - K).inverse()
                datas.append((d * (J * fJ - K * fK), d * (fJ - fK)))
            scale_bc = max(b.norm() + c.norm() for b, c in datas) or 1.0
            b0, c0 = datas[0]
            for b, c in datas[1:]:
                worst = max(worst, max((b - b0).norm(), (c - c0).norm())
                            / scale_bc)
    return _bound("max relative (b, c) deviation", worst, "<=", 1e-10)


def regular_reciprocal_identity(rng, scale):
    worst = 0.0
    for _ in range(_count(50, scale)):
        p = rand_poly(rng, int(rng.integers(2, 6)))
        r = reciprocal_poly(p)
        left = star_product(p, r.num)
        right = star_product(r.num, p)
        sym = p.symmetrize()
        floor = 1e-2 * (sym.scale() or 1.0)
        n = 0
        while n < _count(1000, scale):
            q = Quaternion(*rng.standard_normal(4))
            if sym.eval(q).norm() < floor:
                continue
            dinv = r.den.eval(q).inverse()
            worst = max(worst, (dinv * left.eval(q) - ONE).norm(),
                        (dinv * right.eval(q) - ONE).norm())
            n += 1
    return _bound("max |f * f^-* - 1|", worst, "<=", 1e-9)


def zero_collapse_unique_isolated_zero(rng, scale):
    p = star_product(binom(QI), binom(QJ))
    rep = poly_zeros(p)
    if len(rep.isolated) != 1 or rep.spherical:
        return False, "%d isolated and %d spherical zeros (want 1 and 0)" % (
            len(rep.isolated), len(rep.spherical))
    z = rep.isolated[0].point
    # dense sampling oracle: away from i the product stays bounded below
    lo = math.inf
    n = 0
    while n < _count(10_000, scale):
        J = rand_unit(rng)
        if (J - QI).norm() < 0.05:
            continue
        lo = min(lo, p.eval(J).norm())
        n += 1
    return _all(_bound("|z - i|", (z - QI).norm(), "<", 1e-12),
                _bound("|p(z)|", p.eval(z).norm(), "<=", 1e-12),
                _bound("min |p(J)| off i", lo, ">", 1e-2))


def cauchy_reproduction_on_and_off_slice(rng, scale):
    worst = 0.0
    for _ in range(_count(5, scale)):
        p = rand_poly(rng, int(rng.integers(3, 10)))
        f = SliceFunction.from_exact(p)
        unit = rand_unit(rng)
        ctr = Contour.circle(0.0 + 0.9j, 0.7, unit, nodes=1024)
        for _ in range(_count(10, scale)):
            z = complex(rng.uniform(-0.3, 0.3), 0.9 + rng.uniform(-0.3, 0.3))
            want = p.eval(embed_complex(z, unit))
            got = slicewise_cauchy(f, unit, ctr, z)
            worst = max(worst, (got - want).norm() / (1.0 + want.norm()))
        U = SymmetricRegion.ball(0.0, 1.6)
        for _ in range(_count(10, scale)):
            v = rng.standard_normal(4)
            q = Quaternion(*(v / np.linalg.norm(v))) * rng.uniform(0.0, 0.9)
            want = p.eval(q)
            got = local_cauchy(f, unit, U, q, nodes=2048)
            worst = max(worst, (got - want).norm() / (1.0 + want.norm()))
    return _bound("max relative residual", worst, "<=", 1e-8)


def branch_log_cap_data(phi0: Quaternion):
    """The cap-data check against the caller's phi0 = phi0(pbar): the
    acceptance suite builds it from an independent argument tracer."""

    def branch_log_cap_data_vs_tracing_oracle(rng, scale):
        worst = 0.0
        for unit, sgn in ((I, 1.0), (cap_unit(rng, False), -1.0)):
            d = spherical_data(FX.f, Quaternion(-1.0) + unit * 2.0)
            want_v = (phi0 - I * (sgn * math.pi)) * 0.5
            want_d = (I * phi0 - Quaternion(sgn * math.pi)) * 0.25
            worst = max(worst, (d.value - want_v).norm(),
                        (d.derivative - want_d).norm())
        return _bound("max cap-data error", worst, "<=", 1e-9)

    return branch_log_cap_data_vs_tracing_oracle


def no_regular_extension_jump(rng, scale):
    # two-sided limits across the base-slice cut differ by 2*pi in argument
    return _bound("|jump - 2 pi|", abs(cut_jump() - 2.0 * math.pi), "<",
                  1e-6)


def ghost_divisors_near_cap(rng, scale):
    tried = divides = 0
    least = math.inf
    for _ in range(_count(5, scale)):
        J = cap_unit(rng, False)
        p_tilde = Quaternion(-1.0) + J * 2.0
        if (p_tilde - FX.pbar).norm() < 0.2:
            continue
        sg = FX.shifted_g(p_tilde)
        tried += 1
        divides += divides_near(sg, p_tilde, FX.cap_plus)
        least = min(least, sg(p_tilde).norm())
    return _all((divides == tried,
                 "q - p~ divides near C+ at %d of %d p~" % (divides, tried)),
                _bound("min |g(p~)|", least, ">", 1e-2))


def ghost_ell_vanishes_on_one_cap_only(rng, scale):
    worst = 0.0
    for _ in range(_count(100, scale)):
        q = Quaternion(-1.0) + cap_unit(rng, True) * 2.0
        worst = max(worst, FX.ell(q).norm())
    kind, pt = cap_zeros(FX.ell, FX.cap_minus)
    if kind != "point":
        return False, "C- zero set: %s (want one point)" % kind
    least = math.inf
    for _ in range(_count(20, scale)):
        q = Quaternion(-1.0) + cap_unit(rng, False) * 2.0
        if (q - FX.pbar).norm() < 0.3:
            continue
        least = min(least, FX.ell(q).norm())
    return _all(_bound("max |ell| on C+", worst, "<=", 1e-9),
                _bound("|C- zero - pbar|", (pt - FX.pbar).norm(), "<", 1e-8),
                _bound("min |ell| on C-", least, ">", 1e-2))


def ghost_m_has_one_zero_per_cap(rng, scale):
    kind, pt = cap_zeros(FX.m, FX.cap_plus)
    kind2, pt2 = cap_zeros(FX.m, FX.cap_minus)
    if kind != "point" or kind2 != "point" or not FX.cap_plus.contains_unit(
            slice_decompose(pt).unit):
        return False, "zero sets %s and %s (want a point on C+, one on C-)" % (
            kind, kind2)
    return _all(_bound("|m| at the C+ zero", FX.m(pt).norm(), "<", 1e-8),
                _bound("|C- zero - p0|", (pt2 - FX.p0).norm(), "<", 1e-8))


def ghost_symmetrization_vanishes_without_zeros(rng, scale):
    p_tilde = Quaternion(-1.0) + cap_unit(rng, False) * 2.0
    sg = FX.shifted_g(p_tilde)
    worst = 0.0
    least = math.inf
    for _ in range(_count(20, scale)):
        q = Quaternion(-1.0) + cap_unit(rng, True) * 2.0
        worst = max(worst, sym_eval(sg, q).norm())
        least = min(least, sg(q).norm())
    return _all(_bound("max |g^s| on C+", worst, "<=", 1e-9),
                _bound("min |g| on C+", least, ">", 1e-2))


def locally_slice_zero_divisor_on_torus(rng, scale):
    worst_val = worst_sym = top = 0.0
    for _ in range(_count(1000, scale)):
        J = rand_unit(rng)
        q = Quaternion(-1.0) + J * 2.0
        v = FX.D(q)
        worst_val = max(worst_val, (v - (I + J) * math.pi).norm())
        worst_sym = max(worst_sym, sym_eval(FX.D, q).norm())
        top = max(top, v.norm())
    return _all(_bound("max |D - pi(I + J)|", worst_val, "<=", 1e-10),
                _bound("max |D^s|", worst_sym, "<=", 1e-10),
                _bound("max |D|", top, ">=", 1.0))


def series_round_trips(rng, scale):
    p = rand_poly(rng, 13)
    ser = spherical_coeffs(p, 0.3, 1.1)
    worst = 0.0
    for _ in range(_count(50, scale)):
        q = Quaternion(0.3, 1.1, 0.0, 0.0) + \
            Quaternion(*rng.standard_normal(4)) * 0.2
        want = p.eval(q)
        worst = max(worst, (ser.eval(q) - want).norm() / (1.0 + want.norm()))
    lworst = 0.0
    for center in (QI, Quaternion(0.4) + QK * 1.2):
        r = reciprocal_poly(binom(center))
        lser = laurent_coeffs(r, center, window=(-4, 4))
        lworst = max(lworst, (lser.coeffs[-1] - ONE).norm(),
                     *(c.norm() for n, c in lser.coeffs.items() if n != -1))
    return _all(_bound("max relative series error", worst, "<=", 1e-9),
                _bound("max Laurent coefficient error", lworst, "<=", 1e-10))


def multiplicity_normal_form_extraction(rng, scale):
    wrong = 0
    count = _count(50, scale)
    for k in range(count):
        x0 = rng.uniform(-1.5, 1.5)
        y0 = rng.uniform(0.4, 2.0)
        J = rand_unit(rng)
        p = Quaternion(x0) + J * y0
        # tail factor on a sphere separated from p's by at least 0.5
        while True:
            xg = rng.uniform(-2.0, 2.0)
            yg = rng.uniform(0.3, 2.5)
            if math.hypot(xg - x0, yg - y0) >= 0.5:
                break
        g_tail = binom(Quaternion(xg) + rand_unit(rng) * yg)
        if k % 5 == 4:
            # alternating chain: (q-p)*(q-pbar)*(q-p) normalizes to
            # one spherical factor followed by one linear factor
            f = star_product(star_product(binom(p), binom(p.conj())),
                             star_product(binom(p), g_tail))
            want = (2, 2, 1)
        else:
            m = int(rng.integers(0, 3))
            n = int(rng.integers(0, 4))
            f = QPoly([1.0])
            for _ in range(m):
                f = star_product(f, real_quadratic(x0, y0))
            for _ in range(n):
                f = star_product(f, binom(p))
            f = star_product(f, g_tail)
            want = (m + n, 2 * m, n)
        got = multiplicities(f, p)
        rep = poly_zeros(f)
        isolated = want[2] == 0 or any((z.point - p).norm() < 1e-8
                                       for z in rep.isolated)
        spherical = want[1] == 0 or any(
            abs(s.x - x0) < 1e-8 and abs(s.y - y0) < 1e-8
            and s.multiplicity == want[1] for s in rep.spherical)
        wrong += not (got == want and isolated and spherical)
    return wrong == 0, "%d of %d normal forms wrong (zeros within 1e-8)" % (
        wrong, count)


def branch_log_quotient_singularity_sweep(rng, scale):
    # removable on C+ and nonremovable at pbar, both of order 0; poles on C-
    t0 = time.time()
    points = [(Quaternion(-1.0) + cap_unit(rng, True) * 2.0, "removable")
              for _ in range(_count(5, scale))]
    points.append((FX.pbar, "nonremovable"))
    for _ in range(_count(4, scale)):
        q = Quaternion(-1.0) + cap_unit(rng, False) * 2.0
        if (q - FX.pbar).norm() >= 0.3:
            points.append((q, "pole"))
    for q, kind in points:
        rep = classify_singularity(FX.h, q, window=(-8, 4), nodes=512)
        if rep.kind != kind or not (rep.order >= 1.0 if kind == "pole"
                                    else rep.order == 0.0):
            return False, "%s of order %s at %r (want %s)" % (
                rep.kind, rep.order, q, kind)
    return _bound("seconds for %d points" % len(points), time.time() - t0,
                  "<", 300.0)


def minimum_modulus_interior_minima_are_zeros(rng, scale):
    # scipy.optimize loads in about 0.2 s: only this check pays for it
    from scipy.optimize import minimize
    worst = 0.0
    for _ in range(_count(20, scale)):
        nfac = int(rng.integers(2, 5))
        p = QPoly([1.0])
        for _ in range(nfac):
            root = Quaternion(*rng.standard_normal(4)) * 0.6
            p = star_product(p, binom(root))
        # best of 2000 candidates, then bound-constrained refinement
        best, bx = math.inf, None
        for _ in range(_count(2000, scale)):
            x = rng.uniform(-2.0, 2.0, size=4)
            v = p.eval(Quaternion(*x)).norm()
            if v < best:
                best, bx = v, x
        obj = lambda x: p.eval(Quaternion(*x)).norm() ** 2
        res = minimize(obj, bx, method="L-BFGS-B",
                       bounds=[(-2.0, 2.0)] * 4,
                       options={"ftol": 1e-20, "gtol": 1e-14})
        q = _gauss_newton(p, Quaternion(), Quaternion(*res.x))
        if np.all(np.abs(np.array(q.components())) < 1.999):
            worst = max(worst, p.eval(q).norm())
    return _bound("max |p| at interior minima", worst, "<=", 1e-8)


def open_mapping_image_ball_coverage(rng, scale):
    p = star_product(binom(Quaternion(0.2, 1.0, 0.0, 0.0)),
                     QPoly([Quaternion(0.5, 0.0, 1.0, 0.0), 1.0]))
    f = SliceFunction.from_exact(p)
    worst_res = worst_step = 0.0
    done = 0
    while done < _count(50, scale):
        c = Quaternion(*rng.standard_normal(4))
        if c.im_norm() < 0.2 or cullen_derivative(f, c).norm() < 0.3 \
                or is_differential_singular(f, c):
            continue
        w0 = p.eval(c)
        for _ in range(3):
            d = rng.standard_normal(4)
            target = w0 + Quaternion(*(1e-3 * d / np.linalg.norm(d)))
            q = _gauss_newton(p, target, c)
            worst_res = max(worst_res, (p.eval(q) - target).norm()
                            / (1.0 + target.norm()))
            worst_step = max(worst_step, (q - c).norm())
        done += 1
    return _all(_bound("max relative |p(q) - target|", worst_res, "<=", 1e-9),
                _bound("max |q - c|", worst_step, "<", 0.5))


def battery(phi0: Quaternion):
    """The ordered battery: (name, seed, check) per entry, where seed is the
    acceptance suite's generator seed (None: the check draws nothing) and
    phi0 the reference phi0(pbar) of the cap-data check."""
    return [(check.__name__, seed, check) for seed, check in (
        (101, representation_formula_unit_independence),
        (102, regular_reciprocal_identity),
        (103, zero_collapse_unique_isolated_zero),
        (104, cauchy_reproduction_on_and_off_slice),
        (105, branch_log_cap_data(phi0)),
        (None, no_regular_extension_jump),
        (107, ghost_divisors_near_cap),
        (108, ghost_ell_vanishes_on_one_cap_only),
        (None, ghost_m_has_one_zero_per_cap),
        (109, ghost_symmetrization_vanishes_without_zeros),
        (110, locally_slice_zero_divisor_on_torus),
        (111, series_round_trips),
        (112, multiplicity_normal_form_extraction),
        (113, branch_log_quotient_singularity_sweep),
        (114, minimum_modulus_interior_minima_are_zeros),
        (115, open_mapping_image_ball_coverage))]
