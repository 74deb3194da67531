"""Slice regular functions: representation, evaluation, spherical data.

A slice regular function f on a slice domain restricts to a holomorphic map
on every slice L_I it meets. On each cap C of a sphere x+yS, the values are
an affine function of the imaginary unit:

    f(x+yJ) = b + J c   for all x+yJ in C,

with b (the spherical value) and c cap-constant. The pair (b, c) is the stem
pair of f on the cap; everything downstream (star products, reciprocals,
factor extraction) is built from that local representation and never
assumes the antipodal point x-yJ is available.

Stem rows are the vectorised form. The `slice_many` hook of a SliceFunction
maps complex points z = x + iy (an (N,) array) and a unit argument to an
(N, 2, 4) array S with

    f(x+yU) = S[:, 0] + U S[:, 1]   for every U in the cap of row k's unit.

The unit argument is one Quaternion for a whole slice, so one call serves a
contour, or an (N, 3) array with one unit per row, so one call serves a
batch of 4D points x_k + y_k U_k. Exact backings (QPoly, QRational) ignore
it, the douren fixtures read T(U) per row, and the composites of `algebra`
pass it on. Hooks see y >= 0 only: `stems` runs a row with y < 0, the
point x + |y|(-U), at x + |y|i and -U and negates its c half. With a hook
a point value is one stem row, b + U c; an evaluator is needed only without
one, and `stems` then solves two evaluations per row's cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import stem_values
from .domains import CapId, DomainSpec, cap_component, whole_space
from .errors import (NotInDomain, OnRealAxis, RealTraceMismatch, UnitsEqual)
from .quaternion import (ONE, QI, Quaternion, embed_complex, qmul_arr,
                         row_units, slice_decompose, unit_rows)


@dataclass(frozen=True)
class SphericalData:
    """Cap-constant spherical value f°_s and derivative f'_s."""

    value: Quaternion
    derivative: Quaternion
    cap: CapId

    def reconstruct(self, q: Quaternion) -> Quaternion:
        """f(q) = f°_s + im(q) f'_s at a point q of the cap (or its slice)."""
        return self.value + q.im() * self.derivative

    def null_unit(self, y: float) -> Quaternion:
        """u = -f°_s (y f'_s)^{-1}, the solution of f°_s + y u f'_s = 0.

        f vanishes at x + yJ exactly when J = u is an imaginary unit
        (re u = 0, |u| = 1); callers judge how close u comes to one.
        Needs f'_s != 0.
        """
        c = self.derivative * y
        return -(self.value * c.inverse())


def solve_two_units(J: Quaternion, fJ: Quaternion, K: Quaternion,
                    fK: Quaternion):
    """(b, c) with v = b + U c at both U = J (v = fJ) and U = K (v = fK):

        b = (J-K)^{-1} [J fJ - K fK],    c = (J-K)^{-1} [fJ - fK].

    For values f(x+yJ), f(x+yK) at two distinct units of one cap, b is the
    spherical value and c / y the spherical derivative.
    """
    dinv = (J - K).inverse()
    return dinv * (J * fJ - K * fK), dinv * (fJ - fK)


class SliceFunction:
    """domain + stem hook or evaluator + optional exact backing.

    slice_many: optional stem hook (z, unit) -> (N, 2, 4) stem rows (see
    the module docstring); an exact payload with `stems` supplies it. The
    evaluator defaults to one stem row per point.
    """

    def __init__(self, domain: DomainSpec, evaluator=None,
                 backing="closed-form", payload=None, label="",
                 slice_many=None):
        self.domain = domain
        self.backing = backing
        self.payload = payload
        self.label = label
        if slice_many is None and hasattr(payload, "stems"):
            slice_many = lambda z, unit: payload.stems(z)
        if evaluator is None and slice_many is None:
            raise TypeError("a SliceFunction needs an evaluator or a stem hook")
        self._slice_many = slice_many
        self.evaluator = (evaluator if evaluator is not None
                          else self._stem_value)
        self._sph_cache = {}

    def __repr__(self):
        return "SliceFunction(%s, backing=%s)" % (self.label or "?", self.backing)

    def __call__(self, q: Quaternion) -> Quaternion:
        self.domain.require(q)
        return self.evaluator(q)

    def eval_unchecked(self, q: Quaternion) -> Quaternion:
        return self.evaluator(q)

    def _stem_value(self, q: Quaternion) -> Quaternion:
        """b + unit·c from one stem row at q (b on R, where any unit serves)."""
        sc = slice_decompose(q)
        b, c = (Quaternion(*row) for row in self._slice_many(
            complex(sc.x, sc.y), QI if sc.unit is None else sc.unit)[0])
        return b if sc.unit is None else b + sc.unit * c

    def eval_slice_many(self, z: np.ndarray, unit) -> np.ndarray:
        """Values at x + y*unit for complex z = x+iy, as (N, 4); unit is a
        Quaternion or an (N, 3) array with one unit per row."""
        if self._slice_many is not None:
            return stem_values(self.stems(z, unit), unit)
        z = np.atleast_1d(z)
        out = np.empty((z.size, 4))
        for k, (zz, u) in enumerate(zip(z, row_units(unit, z.size))):
            out[k] = self.evaluator(embed_complex(complex(zz), u)).components()
        return out

    def stems(self, z: np.ndarray, unit) -> np.ndarray:
        """Stem rows (N, 2, 4) at z = x+iy on the cap of each x+y*unit
        (unit: a Quaternion or one unit per row).

        A row with y < 0 is x + |y|(-unit). Without a stem hook: the
        two-unit spherical data of every point at its own unit (the
        evaluator itself on the real axis).
        """
        z = np.atleast_1d(z)
        if self._slice_many is not None:
            below = z.imag < 0.0
            if not below.any():
                return self._slice_many(z, unit)
            sign = np.where(below, -1.0, 1.0)[:, None]
            S = self._slice_many(np.where(below, z.conj(), z),
                                 sign * unit_rows(unit))
            S[:, 1] *= sign
            return S
        out = np.zeros((z.size, 2, 4))
        for k, (zz, u) in enumerate(zip(z, row_units(unit, z.size))):
            if zz.imag == 0.0:
                out[k, 0] = self.evaluator(Quaternion(zz.real)).components()
                continue
            d = spherical_data(self, embed_complex(complex(zz), u))
            out[k, 0] = d.value.components()
            out[k, 1] = (d.derivative * zz.imag).components()
        return out

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_exact(cls, poly_or_rational, domain: DomainSpec | None = None):
        from .algebra import QPoly, QRational
        p = poly_or_rational
        if isinstance(p, QPoly):
            if domain is None:
                domain = whole_space()
            return cls(domain, p.eval, backing="polynomial", payload=p,
                       label="poly(deg %d)" % p.degree)
        if isinstance(p, QRational):
            dom = minus_zero_spheres(domain or whole_space(), p.den, "poles")
            return cls(dom, p.eval, backing="rational", payload=p,
                       label="rational")
        raise TypeError("expected QPoly or QRational")

    @classmethod
    def constant(cls, c: Quaternion, domain: DomainSpec | None = None):
        from .algebra import QPoly
        return cls.from_exact(QPoly([c]), domain)

    @classmethod
    def identity(cls, domain: DomainSpec | None = None):
        from .algebra import QPoly
        return cls.from_exact(QPoly([0.0, 1.0]), domain)


def minus_zero_spheres(base: DomainSpec, den, what: str) -> DomainSpec:
    """base without the spheres on which the real polynomial den (a QPoly)
    vanishes. Its sphere_clearance, when base has one, reads 0 on them, so
    it agrees with `contains`."""
    coeffs = list(reversed(den.real_coeffs()))
    clear = None
    if base.sphere_clearance is not None:
        clear = lambda x, y, units: np.where(
            np.polyval(coeffs, x + 1j * np.asarray(y)) != 0.0,
            base.sphere_clearance(x, y, units), 0.0)
    return DomainSpec(
        contains=lambda q: base.contains(q) and den.eval(q).norm() > 0.0,
        bbox=base.bbox, label="%s \\ %s" % (base.label, what),
        symmetric=base.symmetric,
        boundary_distance=base.boundary_distance,
        cap_structure=base.cap_structure,
        sphere_clearance=clear)


def intersect_domains(a: DomainSpec, b: DomainSpec) -> DomainSpec:
    if a is b:
        return a
    bbox = tuple((max(lo1, lo2), min(hi1, hi2))
                 for (lo1, hi1), (lo2, hi2) in zip(a.bbox, b.bbox))
    bd = None
    if a.boundary_distance and b.boundary_distance:
        bd = lambda q: min(a.boundary_distance(q), b.boundary_distance(q))
    elif a.boundary_distance or b.boundary_distance:
        bd = a.boundary_distance or b.boundary_distance
    sc = None
    if a.sphere_clearance and b.sphere_clearance:
        sc = lambda x, y, units: np.minimum(a.sphere_clearance(x, y, units),
                                            b.sphere_clearance(x, y, units))
    cs = a.cap_structure or b.cap_structure
    if a.cap_structure and b.cap_structure and a.cap_structure is not b.cap_structure:
        cs = None  # fall back to the grid on genuinely mixed geometry
    return DomainSpec(contains=lambda q: a.contains(q) and b.contains(q),
                      bbox=bbox, label="(%s)∩(%s)" % (a.label, b.label),
                      symmetric=a.symmetric and b.symmetric,
                      boundary_distance=bd,
                      cap_structure=cs,
                      sphere_clearance=sc)


# ---------------------------------------------------------------------------
# eval / spherical data

def spherical_data(f: SliceFunction, p: Quaternion,
                   angular_step: float = 0.5) -> SphericalData:
    """Local representation on p's cap: value = b and derivative = c / y.

    With a stem hook, (b, c) is one stem row at p's unit. Otherwise it picks
    two units J != K in the cap (J = the unit of p, K as far from J as the
    cap allows, for conditioning of (J-K)^{-1}) and solves for (b, c) with
    `solve_two_units`.
    """
    sc = slice_decompose(p)
    if sc.unit is None:
        raise OnRealAxis("spherical data is undefined on the real axis")
    key = (round(sc.x, 14), round(sc.y, 14), sc.unit.components(),
           angular_step)
    cached = f._sph_cache.get(key)
    if cached is not None:
        return cached
    cap = cap_component(f.domain, p, angular_step)
    J = sc.unit
    x, y = sc.x, sc.y
    if f._slice_many is not None:
        b, c = (Quaternion(*row) for row in f.stems(complex(x, y), J)[0])
    else:
        K = cap.second_unit(J)
        fJ = f.eval_unchecked(p)
        fK = f.eval_unchecked(Quaternion(x) + K * y)
        b, c = solve_two_units(J, fJ, K, fK)
    out = SphericalData(b, c / y, cap)
    if len(f._sph_cache) < 4096:
        f._sph_cache[key] = out
    return out


# ---------------------------------------------------------------------------
# Cullen derivative

def cullen_derivative(f: SliceFunction, q: Quaternion) -> Quaternion:
    """In-slice complex derivative of the restriction f_I.

    Exact coefficient shift for polynomial backing; exact quotient rule for
    rational backing; otherwise 4th-order central differences along the
    slice with one Richardson extrapolation.
    """
    f.domain.require(q)
    if f.backing == "polynomial":
        return f.payload.cullen().eval(q)
    if f.backing == "rational":
        return f.payload.cullen_eval(q)
    sc = slice_decompose(q)
    unit = sc.unit if sc.unit is not None else ONE * 0.0
    step = 1e-3 * (1.0 + abs(q))
    # stay inside the domain: shrink until the whole stencil is admissible
    for _ in range(40):
        pts = [q + Quaternion(s * step) for s in (-2, -1, 1, 2)]
        if all(f.domain.contains(p) for p in pts):
            break
        step *= 0.5
    else:
        raise NotInDomain("no admissible finite-difference stencil at %r" % (q,))

    def d4(h):
        fm2 = f.eval_unchecked(q - Quaternion(2 * h))
        fm1 = f.eval_unchecked(q - Quaternion(h))
        fp1 = f.eval_unchecked(q + Quaternion(h))
        fp2 = f.eval_unchecked(q + Quaternion(2 * h))
        return (fm2 - fp2 + (fp1 - fm1) * 8.0) / (12.0 * h)

    a = d4(step)
    b = d4(step / 2.0)
    return (b * 16.0 - a) / 15.0


# ---------------------------------------------------------------------------
# Extension Formula (two holomorphic slices -> slice regular function)

def extend_from_slices(r, s, J: Quaternion, K: Quaternion,
                       domain: DomainSpec, real_trace_tol: float = 1e-10
                       ) -> SliceFunction:
    """Build f on `domain` from holomorphic data r on L_J and s on L_K.

    r and s are callables of a complex coordinate z = x+iy meaning x+yJ
    (resp. x+yK), returning quaternion values. The stem hook calls each
    once per row and solves the pair of f(x+yI) = b + I c,

        b = (J-K)^{-1}[J r - K s],    c = (J-K)^{-1}[r - s],

    on arrays; on a real row r and s must agree (RealTraceMismatch).
    """
    if (J - K).norm() < 1e-12:
        raise UnitsEqual("extension needs two distinct units")
    dinv = np.array((J - K).inverse().components())
    Jc, Kc = np.array(J.components()), np.array(K.components())

    def stems(z, unit):
        z = np.atleast_1d(z)
        rv = np.array([r(complex(zz)).components() for zz in z])
        sv = np.array([s(complex(zz)).components() for zz in z])
        diff = rv - sv
        real = z.imag == 0.0
        bad = (np.linalg.norm(diff, axis=1)
               > real_trace_tol * (1.0 + np.linalg.norm(rv, axis=1)))
        if np.any(real & bad):
            raise RealTraceMismatch("slice data disagree at real point %g"
                                    % z[real & bad][0].real)
        return np.stack([qmul_arr(dinv, qmul_arr(Jc, rv) - qmul_arr(Kc, sv)),
                         qmul_arr(dinv, diff)], axis=1)

    return SliceFunction(domain, backing="closed-form", label="extension",
                         slice_many=stems)


# ---------------------------------------------------------------------------
# Real differential

def differential(f: SliceFunction, p: Quaternion, v: Quaternion) -> Quaternion:
    """df_p(v) = v∥ f'_c(p) + v⊥ f'_s(p), split against the slice L_I of p."""
    f.domain.require(p)
    sc = slice_decompose(p)
    fc = cullen_derivative(f, p)
    if sc.unit is None:
        return v * fc
    I = sc.unit
    dot = v.x * I.x + v.y * I.y + v.z * I.z
    v_par = Quaternion(v.w) + I * dot
    v_perp = v - v_par
    fs = spherical_data(f, p).derivative
    return v_par * fc + v_perp * fs


def is_differential_singular(f: SliceFunction, p: Quaternion,
                             tol: float = 1e-9) -> bool:
    """True iff the real differential df_p is singular.

    At real p this is the vanishing of f'_c(p); off the real axis it is
    membership of f'_c(p)·conj(f'_s(p)) in the orthogonal complement of the
    slice plane L_I.
    """
    f.domain.require(p)
    sc = slice_decompose(p)
    fc = cullen_derivative(f, p)
    if sc.unit is None:
        # compare against the local scale of the derivative
        probe = 0.1 * (1.0 + abs(p))
        ref = fc.norm()
        for s in (-1.0, 1.0):
            pp = p + Quaternion(s * probe)
            if f.domain.contains(pp):
                ref = max(ref, cullen_derivative(f, pp).norm())
        return fc.norm() <= tol * max(ref, 1e-30)
    fs = spherical_data(f, p).derivative
    u = fc * fs.conj()
    scale = fc.norm() * fs.norm()
    if scale == 0.0:
        return True
    I = sc.unit
    along = abs(u.re()) + abs(u.x * I.x + u.y * I.y + u.z * I.z)
    return along <= tol * scale


# ---------------------------------------------------------------------------
# Validation helpers

def slice_regularity_residual(f: SliceFunction, q: Quaternion,
                              h: float = 1e-4) -> float:
    """|dbar_I f| at a non-real interior point, by central differences."""
    sc = slice_decompose(q)
    if sc.unit is None:
        raise OnRealAxis("the residual needs a slice direction")
    I = sc.unit
    fx = (f.eval_unchecked(q + Quaternion(h))
          - f.eval_unchecked(q - Quaternion(h))) / (2.0 * h)
    fy = (f.eval_unchecked(q + I * h) - f.eval_unchecked(q - I * h)) / (2.0 * h)
    return ((fx + I * fy) * 0.5).norm()


def is_slice_preserving(f: SliceFunction, probes, tol: float = 1e-9) -> bool:
    """True iff spherical value and derivative are real at all probes."""
    for p in probes:
        d = spherical_data(f, p)
        scale = max(d.value.norm(), d.derivative.norm(), 1.0)
        if d.value.im_norm() > tol * scale or d.derivative.im_norm() > tol * scale:
            return False
    return True
