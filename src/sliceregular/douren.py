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

Evaluation raises OnCut within BOUNDARY_TOL of the cut; the fixtures'
evaluators leave that test to the membership check of a checked call, and
their stem rows come from the same closed form on whole arrays. The distance
to the arc starts from the nearest point of a fixed 721-point theta grid and
refines it by Newton steps on |arc(theta) - w|^2, kept within one grid step
and run until they stall; one routine serves floats and arrays of t and w.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import binom, real_quadratic, scale_stems, star_eval, star_stems
from .domains import (BOUNDARY_TOL, BandCap, DomainSpec, WholeSphereCap,
                      cap_component)
from .errors import (BadUnitChoice, OnCut, ParamOutOfRange)
from .quaternion import (QI, Quaternion, emb_arr, embed_complex, perp_unit,
                         rotate_unit, slice_decompose, unit_imaginary)
from .slicefn import SliceFunction, minus_zero_spheres

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

def _halfline_distance(w: complex) -> float:
    return math.hypot(max(w.real + 2.0, 0.0), w.imag)


# the coarse theta grid of the arc distance, and the Newton refinement of
# its nearest point: it stops once no step moves theta by more than
# _ARC_STEP_TOL, or after _ARC_NEWTON_MAX steps. Most points take 2-4; a point
# near a tip's centre of curvature, where the minimum is flat (quartic),
# takes up to about 28.
_ARC_TH = np.linspace(0.0, math.pi, 721)
_ARC_COS = np.cos(_ARC_TH)
_ARC_SIN = np.sin(_ARC_TH)
_ARC_LAST = len(_ARC_TH) - 1
_ARC_STEP_TOL = 1e-8
_ARC_NEWTON_MAX = 40
# a curvature floor: where |arc - w|^2 is not convex the step runs downhill
# to the end of its bracket
_ARC_CURV_MIN = 1e-12
# rows of sphere_clearance's (rows x 721) coarse search held at once: two
# such arrays of 64 rows take 0.74 MB
_ARC_CHUNK = 64


def _arc_distance(t, w):
    """Distance from w to the half-ellipse arc of parameter t. t and w are
    floats or arrays broadcast against each other: one distance per entry."""
    b = 1.0 - 2.0 * np.asarray(t, dtype=float)
    w = np.asarray(w, dtype=complex)
    wr, wi = w.real, w.imag
    # nearest grid point, from squared distances built in place
    d2 = b[..., None] * _ARC_SIN - wi[..., None]
    d2 *= d2
    dx = _ARC_COS - 1.0 - wr[..., None]
    dx *= dx
    d2 += dx
    i = d2.argmin(axis=-1)
    lo = _ARC_TH[np.maximum(i - 1, 0)]
    hi = _ARC_TH[np.minimum(i + 1, _ARC_LAST)]
    # start mid-bracket: at a tip theta = 0 or pi the squared distance is
    # stationary when t = 1/2 or w is real, and Newton would stay there
    th = 0.5 * (lo + hi)
    for _ in range(_ARC_NEWTON_MAX):
        c = np.cos(th)
        s = np.sin(th)
        u = c - 1.0 - wr
        v = b * s - wi
        # first and second theta-derivatives of |arc(theta) - w|^2 / 2
        g1 = b * v * c - u * s
        g2 = s * s - u * c + b * b * c * c - b * v * s
        prev = th
        th = np.minimum(np.maximum(th - g1 / np.maximum(g2, _ARC_CURV_MIN),
                                   lo), hi)
        if np.all(np.abs(th - prev) <= _ARC_STEP_TOL):
            break
    return np.hypot(np.cos(th) - 1.0 - wr, b * np.sin(th) - wi)


def cut_distance(t: float, w: complex) -> float:
    """Distance from w to the full cut set of phi_t: the half-line, and the
    arc through _arc_distance (coarse grid plus Newton refinement)."""
    d = _halfline_distance(w)
    # cheap reject: the arc lies in the closed unit disk centered -1
    if abs(w + 1.0) > 1.0 + d:
        return d
    return min(d, float(_arc_distance(t, w)))


def arg_branch(t: float, w) -> float:
    """Continuous argument on the cut plane, with arg_t(x) = 0 for x > 0.

    w may be complex or a quaternion in the base slice (projected via its
    own slice coordinates).
    """
    if isinstance(w, Quaternion):
        sc = slice_decompose(w)
        w = complex(sc.x, sc.y if sc.unit is not None else 0.0)
    w = complex(w)
    if not 0.0 <= t <= 1.0:
        raise ParamOutOfRange("t must be in [0, 1]")
    if cut_distance(t, w) <= BOUNDARY_TOL:
        raise OnCut("point within %g of the branch cut" % BOUNDARY_TOL)
    return _branch_arg(t, w)


def _branch_arg(t: float, w: complex) -> float:
    """arg_t(w) in closed form, without the cut-distance guard."""
    u = w.real + 1.0
    v = w.imag
    principal = math.atan2(v, w.real)
    if u * u + v * v >= 1.0:
        return principal
    b = 1.0 - 2.0 * t
    if t < 0.5:
        if v == 0.0:
            # on the real segment (-2, 0), reached from below the arc
            return -math.pi
        if v > 0.0 and u * u + (v / b) ** 2 < 1.0:
            return principal - TWO_PI
        return principal
    if t > 0.5:
        if v < 0.0 and u * u + (v / b) ** 2 < 1.0:
            return principal + TWO_PI
        return principal
    return principal


def _arg_branch_vec(t, w: np.ndarray) -> np.ndarray:
    """Vectorized _branch_arg (no cut-distance guard); t is a float or an
    array broadcast against w, one parameter per entry."""
    u = w.real + 1.0
    v = w.imag
    out = np.arctan2(v, w.real)
    b = 1.0 - 2.0 * t
    inside = u * u + v * v < 1.0
    # the pocket lies on the side the arc bulges to, v b > 0 (so b != 0);
    # the branch there is the principal one minus 2 pi sign(v)
    side = inside & (v * b > 0.0)
    pocket = side & (u * u + (v / np.where(side, b, 1.0)) ** 2 < 1.0)
    out -= np.copysign(TWO_PI, v) * pocket
    return np.where(inside & (b > 0.0) & (v == 0.0), -math.pi, out)


def phi_value(t: float, z: complex) -> complex:
    """phi_t at the slice coordinate z = x + iy, as a complex number."""
    w = z - 2j
    return 0.5 * math.log((w * w.conjugate()).real) + 1j * arg_branch(t, w)


# ---------------------------------------------------------------------------
# The domain Omega

def _sphere_band(x: float, y: float):
    """Closed-form cap data of the sphere x + yS: chord radius t* or None."""
    s2 = 1.0 - (x + 1.0) ** 2
    if s2 <= 0.0:
        return None
    vv = (y - 2.0) / math.sqrt(s2)
    if abs(vv) >= 1.0 - 1e-14:
        if abs(abs(vv) - 1.0) <= 1e-12:
            return 0.0 if vv > 0 else 1.0
        return None
    return 0.5 * (1.0 - vv)


def omega_domain(cfg: DourenConfig, closed_form_caps: bool = True) -> DomainSpec:
    I = cfg.base_unit

    def clearance(q: Quaternion) -> float:
        sc = slice_decompose(q)
        if sc.unit is None:
            return 1.0  # R is contained in Omega with cuts at height 2
        t = cfg.t_of(sc.unit)
        w = complex(sc.x, sc.y - 2.0)
        d = cut_distance(t, w)
        band = _sphere_band(sc.x, sc.y)
        if band is not None and 0.0 < band < 1.0:
            chord = min((sc.unit - I).norm(), 1.0)
            d = min(d, abs(chord - band) * sc.y)
        return d

    def contains(q: Quaternion) -> bool:
        return clearance(q) > BOUNDARY_TOL

    def sphere_clearance(x, y, units: np.ndarray) -> np.ndarray:
        # clearance(x + y*unit) for every row, x and y broadcast against the
        # rows: the half-line term and the cheap reject of cut_distance run
        # on whole arrays, the arc distance on the rows it does not reject
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        w = x + 1j * (y - 2.0)
        chord = cfg.t_of(units)
        chord, wb = np.broadcast_arrays(chord, w)
        d = np.hypot(np.maximum(wb.real + 2.0, 0.0), wb.imag)
        near = np.abs(wb + 1.0) <= 1.0 + d
        t, back = chord[near], slice(None)
        if w.ndim == 0:
            # one sphere: w is shared and few chords are distinct
            t, back = np.unique(t, return_inverse=True)
        ws = np.broadcast_to(w, t.shape) if w.ndim == 0 else wb[near]
        if t.size:
            arc = np.concatenate([
                _arc_distance(t[s:s + _ARC_CHUNK], ws[s:s + _ARC_CHUNK])
                for s in range(0, t.size, _ARC_CHUNK)])
            d[near] = np.minimum(d[near], arc[back])
        # the cap collar of _sphere_band, where the sphere has two caps
        s2 = 1.0 - (x + 1.0) ** 2
        vv = (y - 2.0) / np.sqrt(np.where(s2 > 0.0, s2, 1.0))
        band = 0.5 * (1.0 - vv)
        collar = (s2 > 0.0) & (np.abs(vv) < 1.0 - 1e-14)
        return np.where(collar, np.minimum(d, np.abs(chord - band) * y), d)

    def cap_structure(x: float, y: float):
        band = _sphere_band(x, y)
        if band is None:
            return [WholeSphereCap()]
        if band <= 0.0:
            return [BandCap(I, 0.0, inside=False)]
        if band >= 1.0:
            return [BandCap(I, 1.0, inside=True)]
        return [BandCap(I, band, inside=True), BandCap(I, band, inside=False)]

    lim = 50.0
    return DomainSpec(contains=contains,
                      bbox=((-lim, lim),) * 4,
                      label="douren-omega",
                      symmetric=False,
                      boundary_distance=clearance,
                      cap_structure=cap_structure if closed_form_caps else None,
                      sphere_clearance=sphere_clearance)


# ---------------------------------------------------------------------------
# Evaluation

def _extend(cfg: DourenConfig, sc, A: complex) -> Quaternion:
    """b + J c at q = x + yJ (slice coordinates sc) from A = phi_t(z)."""
    z = complex(sc.x, sc.y)
    # conj(z) - 2i lies outside the unit disk about -1, where the branch is
    # the principal one, and below every cut: phi_t there needs no cut test
    B = cmath.log(z.conjugate() - 2j)
    b = 0.5 * (A + B)
    c = (A - B) / 2j
    base = embed_complex(b, cfg.base_unit)
    if sc.unit is None:
        return base
    return base + sc.unit * embed_complex(c, cfg.base_unit)


def f_t_value(cfg: DourenConfig, t: float, q: Quaternion) -> Quaternion:
    """The one-slice extension of phi_t, at an arbitrary point q."""
    sc = slice_decompose(q)
    return _extend(cfg, sc, phi_value(t, complex(sc.x, sc.y)))


def f_douren(cfg: DourenConfig, q: Quaternion) -> Quaternion:
    """The counterexample function f: on the slice of q it is the extension
    of phi_{T(J)}; raises OnCut within BOUNDARY_TOL of the removed cut."""
    sc = slice_decompose(q)
    t = 0.0 if sc.unit is None else cfg.t_of(sc.unit)
    return f_t_value(cfg, t, q)


def _f_value(cfg: DourenConfig, q: Quaternion) -> Quaternion:
    """f_douren without the cut test, for a q whose membership in Omega is
    already known (the fixtures' checked calls test it in `require`)."""
    sc = slice_decompose(q)
    t = 0.0 if sc.unit is None else cfg.t_of(sc.unit)
    w = complex(sc.x, sc.y - 2.0)
    A = complex(0.5 * math.log((w * w.conjugate()).real), _branch_arg(t, w))
    return _extend(cfg, sc, A)


def _f_slice_many(cfg: DourenConfig, unit, z: np.ndarray) -> np.ndarray:
    """Stem rows (N, 2, 4) of f on the cap of each x + y*unit: the halves b
    and c of f_t_value with t = T(unit) per row (unit: a Quaternion or an
    (N, 3) array), whole arrays at once. No cut guard: callers check the
    points."""
    t = cfg.t_of(unit)
    z = np.atleast_1d(z).astype(complex)
    wa = z - 2j
    wb = np.conj(z) - 2j
    A = 0.5 * np.log((wa * np.conj(wa)).real) + 1j * _arg_branch_vec(t, wa)
    # as in _extend: for y >= 0, conj(z) - 2i lies outside the unit disk
    # about -1 and below every cut, where the branch is the principal one
    B = np.log(wb)
    return np.stack([emb_arr(0.5 * (A + B), cfg.base_unit),
                     emb_arr((A - B) / 2j, cfg.base_unit)], axis=1)


# ---------------------------------------------------------------------------
# Fixtures

@dataclass
class DourenFixtures:
    cfg: DourenConfig
    domain: DomainSpec
    f: SliceFunction
    D: SliceFunction
    g: SliceFunction
    ell: SliceFunction
    m: SliceFunction
    h: SliceFunction
    p: Quaternion
    pbar: Quaternion
    p0: Quaternion
    p1: Quaternion
    I0: Quaternion
    I1: Quaternion
    cap_plus: object
    cap_minus: object
    phi0_pbar: Quaternion
    shifted_g: object  # p_tilde -> SliceFunction (f minus its C+ cap value at p_tilde)


def fixtures(cfg: DourenConfig | None = None,
             I0: Quaternion | None = None) -> DourenFixtures:
    cfg = cfg or DourenConfig()
    I = cfg.base_unit
    dom = omega_domain(cfg)

    # a checked call tests membership in `require`, so the evaluators run
    # without a second cut test
    f = SliceFunction(dom, lambda q: _f_value(cfg, q), backing="closed-form",
                      label="douren-f",
                      slice_many=lambda z, unit: _f_slice_many(cfg, unit, z))

    def f_plus(v: Quaternion, label: str) -> SliceFunction:
        """f + v for a constant v: the stems shift their value rows."""
        shift = np.array([v.components(), (0.0,) * 4])
        return SliceFunction(dom, lambda q: _f_value(cfg, q) + v,
                             backing="closed-form", label=label,
                             slice_many=lambda z, unit:
                                 _f_slice_many(cfg, unit, z) + shift)

    p = Quaternion(-1.0) + I * 2.0
    pbar = Quaternion(-1.0) - I * 2.0

    # g = f - f(p) = f + pi*I
    g = f_plus(I * math.pi, "douren-g")

    # the locally-slice difference D = f_1 - f_0 on the open solid torus
    def torus_contains(q):
        sc = slice_decompose(q)
        return (sc.x + 1.0) ** 2 + (sc.y - 2.0) ** 2 < (1.0 - BOUNDARY_TOL) ** 2

    torus = DomainSpec(contains=torus_contains,
                       bbox=((-2.0, 0.0), (-3.0, 3.0), (-3.0, 3.0), (-3.0, 3.0)),
                       label="douren-torus", symmetric=True,
                       boundary_distance=lambda q: 1.0 - math.hypot(
                           slice_decompose(q).x + 1.0,
                           slice_decompose(q).y - 2.0))
    # the stems of f_1 and f_0 are those of f on the caps of -I and I,
    # where T = 1 and T = 0
    D = SliceFunction(torus,
                      lambda q: f_t_value(cfg, 1.0, q) - f_t_value(cfg, 0.0, q),
                      backing="closed-form", label="douren-D",
                      slice_many=lambda z, unit: _f_slice_many(cfg, -I, z)
                      - _f_slice_many(cfg, I, z))

    # ell = (q - pbar) * g, via the pointwise star with the global binomial
    bfn = SliceFunction.from_exact(binom(pbar))

    def ell_stems(z, unit):
        return star_stems(bfn.stems(z, unit), g.stems(z, unit))

    ell = SliceFunction(dom, lambda q: star_eval(bfn, g, q),
                        backing="composite", label="douren-ell",
                        slice_many=ell_stems)

    # m = g * (q - p1) with p1 = g(p0)^{-1} p0 g(p0)
    if I0 is None:
        I0 = rotate_unit(I, perp_unit(I), 2.0 * math.pi / 5.0)
    else:
        I0 = unit_imaginary(I0)
    if (I0 - I).norm() <= 0.5:
        raise BadUnitChoice("need |I0 - I| > 1/2")
    if (I0 + I).norm() <= 1e-9:
        raise BadUnitChoice("I0 = -I is excluded (m would coincide with ell)")
    p0 = Quaternion(-1.0) + I0 * 2.0
    gp0 = g(p0)
    p1 = gp0.inverse() * p0 * gp0
    I1 = gp0.inverse() * I0 * gp0
    b1fn = SliceFunction.from_exact(binom(p1))
    m = SliceFunction(dom, lambda q: star_eval(g, b1fn, q),
                      backing="composite", label="douren-m",
                      slice_many=lambda z, unit: star_stems(
                          g.stems(z, unit), b1fn.stems(z, unit)))

    # h = (q-p)^{-*} * g = (q^2+2q+5)^{-1} (q-pbar) * g, off the sphere -1+2S
    quad = real_quadratic(-1.0, 2.0)
    hdom = minus_zero_spheres(dom, quad, "(-1+2S)")
    quad_c = quad.real_coeffs()[::-1]
    h = SliceFunction(hdom,
                      lambda q: quad.eval(q).inverse() * star_eval(bfn, g, q),
                      backing="composite", label="douren-h",
                      slice_many=lambda z, unit: scale_stems(
                          1.0 / np.polyval(quad_c, np.atleast_1d(z)),
                          ell_stems(z, unit)))

    cap_plus = cap_component(dom, p)
    cap_minus = cap_component(dom, pbar)
    phi0_pbar = embed_complex(phi_value(0.0, complex(-1.0, -2.0)), I)

    fplus = f.spherical(p)

    def shifted_g(p_tilde: Quaternion) -> SliceFunction:
        """g of the three-case factorization example: f minus the value its
        C+ cap data extends to at p_tilde (a point of -1 + 2S)."""
        sc = slice_decompose(p_tilde)
        if abs(sc.x + 1.0) > 1e-9 or abs(sc.y - 2.0) > 1e-9:
            raise ParamOutOfRange("p_tilde must lie on the sphere -1 + 2S")
        return f_plus(-fplus.reconstruct(p_tilde), "douren-shifted-g")

    return DourenFixtures(cfg=cfg, domain=dom, f=f, D=D, g=g, ell=ell, m=m,
                          h=h, p=p, pbar=pbar, p0=p0, p1=p1, I0=I0, I1=I1,
                          cap_plus=cap_plus, cap_minus=cap_minus,
                          phi0_pbar=phi0_pbar, shifted_g=shifted_g)
