"""The non-symmetric slice domain counterexample and its fixtures.

The construction: fix a base imaginary unit I. In the slice-profile plane,
translate by -2i, so the half line h = {y = 2, x <= -2} and the arc family

    alpha_t : theta -> (-1 + cos(theta)) + i (1-2t) sin(theta),  theta in [0, pi]

(half-ellipses degenerating to the segment [-2, 0] at t = 1/2) become the
branch cuts of a holomorphic logarithm phi_t on L_I, normalized by
phi_t(x + 2I) = ln(x) for x > 0. Each slice L_J of the domain Omega removes
the cut of parameter t = T(J) := min(|J - I|, 1); the function f glues the
one-slice extensions of phi_{T(J)} slice by slice. The sphere -1 + 2S meets
Omega in two caps C+ = {|J-I| < 1/2} and C- = {|J-I| > 1/2}, on which f has
different spherical data -- the engine behind ghost divisors, one-cap zeros
and nonremovable order-zero singularities.

The branch argument arg_t is evaluated in closed form: outside the closed
unit disk centered at -1 the domain retracts onto the slit plane and arg_t
is the principal argument; inside the disk the branch differs from the
principal value by -2pi (t < 1/2) or +2pi (t > 1/2) exactly on the pocket
between the arc and the real segment (-2, 0).

One routine per quantity takes floats or arrays: the branch argument, the
stem pair of f_t, the cut distance and Omega's clearance. f_douren is the
cut test (OnCut within BOUNDARY_TOL) plus the stem pair; the fixtures are
stem hooks alone, whose checked calls leave the cut test to membership, and
each is built on first access. The
arc distance needs no search: the geometry of the half-ellipse brackets its
nearest point in closed form (the tip, the crown, or the one stationary point
in a bracket), and one safeguarded Newton solve per entry, over whole
arrays, finds the stationary point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import binom, real_quadratic, scale_stems, star_stems
from .domains import (BOUNDARY_TOL, BandCap, CapId, DomainSpec,
                      WholeSphereCap, cap_component)
from .errors import (BadUnitChoice, OnCut, ParamOutOfRange)
from .quaternion import (QI, Quaternion, emb_arr, embed_complex, perp_unit,
                         rotate_unit, slice_decompose, unit_imaginary)
from .slicefn import (SliceFunction, SphericalData, minus_zero_spheres,
                      spherical_data)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class DourenConfig:
    base_unit: Quaternion = QI

    def __post_init__(self):
        object.__setattr__(self, "base_unit", unit_imaginary(self.base_unit))

    def t_of(self, unit):
        """T(J) = min(|J - I|, 1); for an (N, 3) array of units, one T per
        row."""
        if isinstance(unit, Quaternion):
            return min((unit - self.base_unit).norm(), 1.0)
        I = self.base_unit
        return np.minimum(np.linalg.norm(unit - [I.x, I.y, I.z], axis=-1), 1.0)


def arc_point(t: float, J: Quaternion, s: float) -> Quaternion:
    """The arc point -1 + 2J + (1-t) e^{2 pi J s} + t e^{-2 pi J s}."""
    if not 0.0 <= t <= 1.0:
        raise ParamOutOfRange("t must be in [0, 1]")
    if not 0.0 <= s <= 0.5:
        raise ParamOutOfRange("s must be in [0, 1/2]")
    ang = TWO_PI * s
    x = -1.0 + math.cos(ang)
    h = 2.0 + (1.0 - 2.0 * t) * math.sin(ang)
    return Quaternion(x) + J * h


# ---------------------------------------------------------------------------
# Cut geometry in the translated w-plane (w = z - 2i)

# The arc distance. Centred on -1 and mirrored to X = |Re w + 1| >= 0 and
# Y = sign(b) Im w, the arc is (cos th, beta sin th), beta = |b|, and its
# nearest point to (X, Y) lies on th in [0, pi/2]: since X >= 0, the other
# half is no nearer. There, half the th-derivative of the squared distance is
# g = h cos th with h(th) = X tan th - e sin th + B, e = 1 - beta^2 and
# B = -beta Y. h is convex, smallest at th_m with cos^3 th_m = min(X/e, 1),
# so the nearest point is the tip th = 0, the crown th = pi/2, or, when
# h(th_m) < 0, the one zero of h above th_m. That zero lies in the bracket
# [th_m, th_hi], th_hi = atan2(e - B, X), because h >= X tan th - e + B.
# Newton steps on h from th_hi stay in the bracket and fall monotonically to
# the zero, since h is convex and increasing there. An entry stops once its
# step moves th by at most _ARC_STEP_TOL, or after _ARC_NEWTON_MAX steps.
# Most entries take 1-4 steps. Next to the ellipse's evolute, where the
# zero is nearly double, and next to a tip at t ~ 1/2, where the minimum is
# flat (quartic), they take up to about 30.
_ARC_STEP_TOL = 1e-8
_ARC_NEWTON_MAX = 40


def _arc_distance(t, w):
    """Distance from w to the half-ellipse arc of parameter t. t and w are
    floats or arrays broadcast against each other: one distance per entry."""
    b, w = np.broadcast_arrays(1.0 - 2.0 * np.asarray(t, dtype=float),
                               np.asarray(w, dtype=complex))
    shape = b.shape
    b, w = b.ravel(), w.ravel()
    X = np.abs(w.real + 1.0)
    Y = np.copysign(1.0, b) * w.imag
    beta = np.abs(b)
    e = 1.0 - beta * beta
    B = -beta * Y
    with np.errstate(divide="ignore", invalid="ignore"):
        # cos th_m; fmin maps the NaN of X = e = 0 to 1
        cm = np.fmin(np.cbrt(X / e), 1.0)
        sm = np.sqrt(1.0 - cm * cm)
        # th_hi, a point of [0, pi/2] also where there is no zero
        th = np.arctan2(np.maximum(e - B, 0.0), X)
        # solve where g(th_m) = h(th_m) cos th_m < 0, dropping each entry
        # once it stops
        idx = np.flatnonzero((X - e * cm) * sm + B * cm < 0.0)
        th_i, X_i, e_i, B_i = th[idx], X[idx], e[idx], B[idx]
        lo, hi = np.arccos(cm[idx]), th_i.copy()
        for _ in range(_ARC_NEWTON_MAX):
            if not idx.size:
                break
            tn = np.tan(th_i)
            new = th_i - (X_i * tn - e_i * np.sin(th_i) + B_i) / (
                X_i * (1.0 + tn * tn) - e_i * np.cos(th_i))
            # rounding aside the steps stay in [lo, hi]; fmin maps a NaN
            # step to hi
            new = np.fmin(np.maximum(new, lo), hi)
            done = np.abs(new - th_i) <= _ARC_STEP_TOL
            th_i = new
            if done.any():
                th[idx[done]] = th_i[done]
                keep = ~done
                idx, th_i, X_i, e_i, B_i, lo, hi = (
                    idx[keep], th_i[keep], X_i[keep], e_i[keep], B_i[keep],
                    lo[keep], hi[keep])
        th[idx] = th_i
    d = np.minimum(np.hypot(np.cos(th) - X, beta * np.sin(th) - Y),
                   np.minimum(np.hypot(1.0 - X, Y), np.hypot(X, beta - Y)))
    return d.reshape(shape)[()]


def cut_distance(t, w):
    """Distance from w to the full cut set of phi_t: the half-line, and the
    arc through _arc_distance. t and w are floats or arrays broadcast
    against each other, one distance per entry (a float for floats).

    The arc distance runs only where the cheap reject fails (the arc lies in
    the closed unit disk about -1), in one call on all those entries: its
    bracket and Newton solve take whole arrays. For one w against an array
    of t (one sphere of the flood fill) it runs once per distinct t.
    """
    d = np.hypot(np.maximum(np.real(w) + 2.0, 0.0), np.imag(w))
    near = np.abs(w + 1.0) <= 1.0 + d
    if np.ndim(w) == 0:
        if np.ndim(t) == 0:
            return min(d, _arc_distance(t, w)) if near else d
        t = np.asarray(t, dtype=float)
        if not near:
            return np.full(t.shape, d)
        tn, back = np.unique(t, return_inverse=True)
        arc = _arc_distance(tn, w)
        return np.minimum(d, arc[back].reshape(t.shape))
    t, w, d, near = np.broadcast_arrays(np.asarray(t, dtype=float), w, d,
                                        near)
    out = d.copy()
    out[near] = np.minimum(d[near], _arc_distance(t[near], w[near]))
    return out


def _require_off_cut(t: float, w: complex):
    """ParamOutOfRange unless 0 <= t <= 1, OnCut within BOUNDARY_TOL of the
    cut of phi_t."""
    if not 0.0 <= t <= 1.0:
        raise ParamOutOfRange("t must be in [0, 1]")
    if cut_distance(t, w) <= BOUNDARY_TOL:
        raise OnCut("point within %g of the branch cut" % BOUNDARY_TOL)


def _arg_closed_form(t, w):
    """arg_t(w) in closed form, without the cut-distance guard; t and w are
    floats or arrays broadcast against each other."""
    u = np.real(w) + 1.0
    v = np.imag(w)
    b = 1.0 - 2.0 * t
    inside = u * u + v * v < 1.0
    # the pocket lies on the side the arc bulges to, v b > 0 (so b != 0),
    # under the arc u^2 + (v/b)^2 < 1; the branch there is the principal one
    # minus 2 pi sign(v)
    pocket = inside & (v * b > 0.0) & (u * u * b * b + v * v < b * b)
    out = np.arctan2(v, np.real(w)) - np.copysign(TWO_PI, v) * pocket
    # the real segment (-2, 0) for t < 1/2 is reached from below the arc
    return np.where(inside & (b > 0.0) & (v == 0.0), -math.pi, out)


def arg_branch(t: float, w) -> float:
    """Continuous argument on the cut plane, with arg_t(x) = 0 for x > 0.

    w may be complex or a quaternion in the base slice (projected via its
    own slice coordinates).
    """
    if isinstance(w, Quaternion):
        sc = slice_decompose(w)
        w = complex(sc.x, sc.y if sc.unit is not None else 0.0)
    w = complex(w)
    _require_off_cut(t, w)
    return float(_arg_closed_form(t, w))


def _phi(t, z):
    """phi_t(z) = log|w| + i arg_t(w), w = z - 2i, without the cut guard;
    floats or arrays."""
    w = z - 2j
    return 0.5 * np.log((w * np.conj(w)).real) + 1j * _arg_closed_form(t, w)


def phi_value(t: float, z: complex) -> complex:
    """phi_t at the slice coordinate z = x + iy, as a complex number."""
    _require_off_cut(t, z - 2j)
    return complex(_phi(t, z))


def cut_jump() -> float:
    """|arg_0 inside - arg_0 outside| across the t = 0 cut at its top,
    -1 + 3i in the base slice: each side's argument at distance 8e-5,
    4e-5, 2e-5 and 1e-5 from the cut, extrapolated to 0 by a quadratic
    fit. No regular extension crosses the cut, where it is 2 pi."""
    dists = np.array([8e-5, 4e-5, 2e-5, 1e-5])
    inner = [phi_value(0.0, complex(-1.0, 3.0 - d)).imag for d in dists]
    outer = [phi_value(0.0, complex(-1.0, 3.0 + d)).imag for d in dists]
    ci = np.polyfit(dists, inner, 2)[-1]
    co = np.polyfit(dists, outer, 2)[-1]
    return float(abs(ci - co))


# ---------------------------------------------------------------------------
# The domain Omega

# a sphere whose cap chord is within _TANGENT of 0 or 1 has one cap
_TANGENT = 5e-13


def _sphere_band(x, y):
    """Chord t* = (1 - v)/2, v = (y - 2)/sqrt(1 - (x+1)^2), of the collar
    |J - I| = t* between the two caps of x + yS where 0 < t* < 1; NaN where
    |x + 1| >= 1. x and y are floats or arrays."""
    s2 = 1.0 - (x + 1.0) ** 2
    return 0.5 * (1.0 - (y - 2.0) / np.sqrt(np.where(s2 > 0.0, s2, np.nan)))


def _clearance(cfg: DourenConfig, x, y, units):
    """Boundary clearance of x + y*unit (y >= 0): distance to the cut of
    the unit's slice and to the cap collar, 1 on R. Floats with one
    Quaternion unit, or arrays broadcast against (N, 3) unit rows."""
    t = cfg.t_of(units)
    d = cut_distance(t, x + 1j * (y - 2.0))
    band = _sphere_band(x, y)
    collar = np.abs(band - 0.5) < 0.5 - _TANGENT
    d = np.where(collar, np.minimum(d, np.abs(t - band) * y), d)
    return np.where(y == 0.0, 1.0, d)


def omega_domain(cfg: DourenConfig, closed_form_caps: bool = True) -> DomainSpec:
    """Omega, whose boundary_distance and sphere_clearance are _clearance.

    On the real axis the clearance is 1 at every unit: every cut point
    x' + y'J has y' >= 1, so 1 bounds the distance from R to the boundary
    in every slice, not only to the cuts of the row's own slice.
    """
    I = cfg.base_unit

    def boundary_distance(q: Quaternion) -> float:
        sc = slice_decompose(q)
        return float(_clearance(cfg, sc.x, sc.y,
                                I if sc.unit is None else sc.unit))

    def cap_structure(x: float, y: float):
        band = float(_sphere_band(x, y))
        off = abs(band - 0.5)
        if off < 0.5 - _TANGENT:
            return [BandCap(I, band, inside=True),
                    BandCap(I, band, inside=False)]
        if off <= 0.5 + _TANGENT:
            if band < 0.5:
                return [BandCap(I, 0.0, inside=False)]
            return [BandCap(I, 1.0, inside=True)]
        return [WholeSphereCap()]

    lim = 50.0
    return DomainSpec(contains=lambda q: boundary_distance(q) > BOUNDARY_TOL,
                      bbox=((-lim, lim),) * 4,
                      label="douren-omega",
                      symmetric=False,
                      boundary_distance=boundary_distance,
                      cap_structure=cap_structure if closed_form_caps else None,
                      sphere_clearance=lambda x, y, units:
                          _clearance(cfg, x, y, units))


# ---------------------------------------------------------------------------
# Evaluation

def _stem_pair(t, z):
    """(b, c), complex in the base slice, with f_t(x+yJ) = b + J c at
    z = x + iy, y >= 0: b = (A + B)/2, c = (A - B)/2i, A = phi_t(z),
    B = phi_t(conj z). Floats or arrays; no cut guard."""
    A = _phi(t, z)
    # conj(z) - 2i lies outside the unit disk about -1 and below every cut,
    # where the branch is the principal one
    B = np.log(np.conj(z) - 2j)
    return 0.5 * (A + B), (A - B) / 2j


def f_t_value(cfg: DourenConfig, t: float, q: Quaternion) -> Quaternion:
    """The one-slice extension of phi_t, at an arbitrary point q; raises
    OnCut within BOUNDARY_TOL of the cut of phi_t."""
    sc = slice_decompose(q)
    z = complex(sc.x, sc.y)
    _require_off_cut(t, z - 2j)
    b, c = _stem_pair(t, z)
    base = embed_complex(b, cfg.base_unit)
    if sc.unit is None:
        return base
    return base + sc.unit * embed_complex(c, cfg.base_unit)


def f_douren(cfg: DourenConfig, q: Quaternion) -> Quaternion:
    """The counterexample function f: on the slice of q it is the extension
    of phi_{T(J)}; raises OnCut within BOUNDARY_TOL of the removed cut."""
    sc = slice_decompose(q)
    t = 0.0 if sc.unit is None else cfg.t_of(sc.unit)
    return f_t_value(cfg, t, q)


def _f_slice_many(cfg: DourenConfig, unit, z: np.ndarray) -> np.ndarray:
    """Stem rows (N, 2, 4) of f on the cap of each x + y*unit (y >= 0): the
    pair of f_t with t = T(unit) per row (unit: a Quaternion or an (N, 3)
    array), whole arrays at once. No cut guard: callers check the points."""
    b, c = _stem_pair(cfg.t_of(unit), np.atleast_1d(z).astype(complex))
    return np.stack([emb_arr(b, cfg.base_unit), emb_arr(c, cfg.base_unit)],
                    axis=1)


# ---------------------------------------------------------------------------
# Fixtures

class DourenFixtures:
    """The functions, points and caps of the worked example.

    cfg, p, pbar, p0 and I0 are set at construction, where a bad I0 raises
    BadUnitChoice. Every other member is built on first access and kept, so
    a caller pays only for what it reads: the functions f, g, D, ell, m and
    h, the domain, p1 and I1 (one evaluation of g at p0), the caps cap_plus
    and cap_minus, and phi0_pbar. shifted_g(p_tilde) reads the C+ spherical
    data of f, built on its first call.

    Every fixture function is its stem hook: a point value is one stem row,
    and a checked call tests membership in `require`, so no second cut test
    runs.
    """

    def __init__(self, cfg: DourenConfig, I0: Quaternion | None = None):
        I = cfg.base_unit
        if I0 is None:
            I0 = rotate_unit(I, perp_unit(I), 2.0 * math.pi / 5.0)
        else:
            I0 = unit_imaginary(I0)
        if (I0 - I).norm() <= 0.5:
            raise BadUnitChoice("need |I0 - I| > 1/2")
        if (I0 + I).norm() <= 1e-9:
            raise BadUnitChoice("I0 = -I is excluded (m would coincide with ell)")
        self.cfg = cfg
        self.I0 = I0
        self.p = Quaternion(-1.0) + I * 2.0
        self.pbar = Quaternion(-1.0) - I * 2.0
        self.p0 = Quaternion(-1.0) + I0 * 2.0

    def _f_plus(self, v: Quaternion, label: str) -> SliceFunction:
        """f + v for a constant v: the stems shift their value rows."""
        cfg = self.cfg
        shift = np.array([v.components(), (0.0,) * 4])
        return SliceFunction(self.domain, backing="closed-form", label=label,
                             slice_many=lambda z, unit:
                                 _f_slice_many(cfg, unit, z) + shift)

    @cached_property
    def domain(self) -> DomainSpec:
        return omega_domain(self.cfg)

    @cached_property
    def f(self) -> SliceFunction:
        cfg = self.cfg
        return SliceFunction(self.domain, backing="closed-form",
                             label="douren-f", slice_many=lambda z, unit:
                                 _f_slice_many(cfg, unit, z))

    @cached_property
    def g(self) -> SliceFunction:
        """g = f - f(p) = f + pi*I."""
        return self._f_plus(self.cfg.base_unit * math.pi, "douren-g")

    @cached_property
    def D(self) -> SliceFunction:
        """The locally-slice difference D = f_1 - f_0 on the open solid
        torus: the stems of f_1 and f_0 are those of f on the caps of -I
        and I, where T = 1 and T = 0."""
        cfg, I = self.cfg, self.cfg.base_unit

        def torus_contains(q):
            sc = slice_decompose(q)
            return ((sc.x + 1.0) ** 2 + (sc.y - 2.0) ** 2
                    < (1.0 - BOUNDARY_TOL) ** 2)

        torus = DomainSpec(contains=torus_contains,
                           bbox=((-2.0, 0.0), (-3.0, 3.0), (-3.0, 3.0),
                                 (-3.0, 3.0)),
                           label="douren-torus", symmetric=True,
                           boundary_distance=lambda q: 1.0 - math.hypot(
                               slice_decompose(q).x + 1.0,
                               slice_decompose(q).y - 2.0))
        return SliceFunction(torus, backing="closed-form", label="douren-D",
                             slice_many=lambda z, unit:
                                 _f_slice_many(cfg, -I, z)
                                 - _f_slice_many(cfg, I, z))

    @cached_property
    def _ell_stems(self):
        """The stem hook of ell = (q - pbar) * g: the pointwise star with the
        global binomial."""
        bfn = SliceFunction.from_exact(binom(self.pbar))
        g = self.g
        return lambda z, unit: star_stems(bfn.stems(z, unit), g.stems(z, unit))

    @cached_property
    def ell(self) -> SliceFunction:
        return SliceFunction(self.domain, backing="composite",
                             label="douren-ell", slice_many=self._ell_stems)

    @cached_property
    def _g_p0(self) -> Quaternion:
        return self.g(self.p0)

    @cached_property
    def p1(self) -> Quaternion:
        """g(p0)^{-1} p0 g(p0)."""
        return self._g_p0.inverse() * self.p0 * self._g_p0

    @cached_property
    def I1(self) -> Quaternion:
        """g(p0)^{-1} I0 g(p0)."""
        return self._g_p0.inverse() * self.I0 * self._g_p0

    @cached_property
    def m(self) -> SliceFunction:
        """m = g * (q - p1)."""
        g = self.g
        b1fn = SliceFunction.from_exact(binom(self.p1))
        return SliceFunction(self.domain, backing="composite",
                             label="douren-m", slice_many=lambda z, unit:
                                 star_stems(g.stems(z, unit),
                                            b1fn.stems(z, unit)))

    @cached_property
    def h(self) -> SliceFunction:
        """h = (q-p)^{-*} * g = (q^2+2q+5)^{-1} (q-pbar) * g, off the sphere
        -1+2S."""
        quad = real_quadratic(-1.0, 2.0)
        hdom = minus_zero_spheres(self.domain, quad, "(-1+2S)")
        quad_c = quad.real_coeffs()[::-1]
        ell_stems = self._ell_stems
        return SliceFunction(hdom, backing="composite", label="douren-h",
                             slice_many=lambda z, unit: scale_stems(
                                 1.0 / np.polyval(quad_c, np.atleast_1d(z)),
                                 ell_stems(z, unit)))

    @cached_property
    def cap_plus(self) -> CapId:
        return cap_component(self.domain, self.p)

    @cached_property
    def cap_minus(self) -> CapId:
        return cap_component(self.domain, self.pbar)

    @cached_property
    def phi0_pbar(self) -> Quaternion:
        return embed_complex(phi_value(0.0, complex(-1.0, -2.0)),
                             self.cfg.base_unit)

    @cached_property
    def _f_cap_plus_data(self) -> SphericalData:
        return spherical_data(self.f, self.p)

    def shifted_g(self, p_tilde: Quaternion) -> SliceFunction:
        """g of the three-case factorization example: f minus the value its
        C+ cap data extends to at p_tilde (a point of -1 + 2S)."""
        sc = slice_decompose(p_tilde)
        if abs(sc.x + 1.0) > 1e-9 or abs(sc.y - 2.0) > 1e-9:
            raise ParamOutOfRange("p_tilde must lie on the sphere -1 + 2S")
        return self._f_plus(-self._f_cap_plus_data.reconstruct(p_tilde),
                            "douren-shifted-g")


def fixtures(cfg: DourenConfig | None = None,
             I0: Quaternion | None = None) -> DourenFixtures:
    """A fresh DourenFixtures for cfg (the default DourenConfig when None)
    and I0, the unit of p0 on the far cap C- (a default one at 2 pi/5 from
    the base unit when None). Only cfg, p, pbar, p0 and I0 are built here;
    every other member is built on first access. Each call builds a new
    object, with functions whose spherical-data caches start empty. The
    CLI's function spec {"douren": name} reads one of f, g, h, ell, m and
    D, and builds that member alone."""
    return DourenFixtures(cfg or DourenConfig(), I0)
