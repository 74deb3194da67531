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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import QPoly, binom, real_quadratic, star_eval
from .domains import BandCap, DomainSpec, WholeSphereCap, cap_component
from .errors import (BadUnitChoice, OnCut, ParamOutOfRange)
from .quaternion import (QI, Quaternion, embed_complex, perp_unit,
                         rotate_unit, slice_decompose, unit_imaginary)
from .slicefn import SliceFunction

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class DourenConfig:
    base_unit: Quaternion = QI
    tol: float = 1e-9

    def __post_init__(self):
        object.__setattr__(self, "base_unit", unit_imaginary(self.base_unit))

    def t_of(self, unit: Quaternion) -> float:
        """T(J) = min(|J - I|, 1)."""
        return min((unit - self.base_unit).norm(), 1.0)


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


# the coarse theta grid of the arc distance and the ternary steps refining
# its minimum, shared by the scalar and the array routine
_ARC_TH = np.linspace(0.0, math.pi, 721)
_ARC_COS = np.cos(_ARC_TH)
_ARC_SIN = np.sin(_ARC_TH)
_ARC_STEPS = 60
# rows of the array routine's (rows x 721) coarse search held at once
_ARC_CHUNK = 1024


def _arc_distance(t: float, w: complex) -> float:
    """Distance from w to the half-ellipse arc of parameter t."""
    b = 1.0 - 2.0 * t
    if b == 0.0:
        # the segment [-2, 0]
        x = min(max(w.real, -2.0), 0.0)
        return math.hypot(w.real - x, w.imag)
    pts = (-1.0 + _ARC_COS) + 1j * b * _ARC_SIN
    d = np.abs(pts - w)
    i = int(np.argmin(d))
    lo = _ARC_TH[max(i - 1, 0)]
    hi = _ARC_TH[min(i + 1, len(_ARC_TH) - 1)]

    def dist(a):
        return abs(complex(-1.0 + math.cos(a), b * math.sin(a)) - w)

    for _ in range(_ARC_STEPS):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if dist(m1) <= dist(m2):
            hi = m2
        else:
            lo = m1
    return dist(0.5 * (lo + hi))


def _arc_distance_many(t: np.ndarray, w: complex) -> np.ndarray:
    """_arc_distance(t[k], w) for every k: the same coarse minimum and
    ternary refinement, run on all distinct t at once."""
    t, back = np.unique(t, return_inverse=True)
    b = 1.0 - 2.0 * t
    out = np.empty(b.shape)
    seg = b == 0.0
    x = min(max(w.real, -2.0), 0.0)
    out[seg] = math.hypot(w.real - x, w.imag)
    rows = np.flatnonzero(~seg)
    du = -1.0 + _ARC_COS - w.real
    last = len(_ARC_TH) - 1
    for s in range(0, len(rows), _ARC_CHUNK):
        r = rows[s:s + _ARC_CHUNK]
        br = b[r]
        i = np.hypot(du, br[:, None] * _ARC_SIN - w.imag).argmin(axis=1)
        lo = _ARC_TH[np.maximum(i - 1, 0)]
        hi = _ARC_TH[np.minimum(i + 1, last)]

        def dist(a):
            return np.hypot(-1.0 + np.cos(a) - w.real, br * np.sin(a) - w.imag)

        for _ in range(_ARC_STEPS):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            left = dist(m1) <= dist(m2)
            hi = np.where(left, m2, hi)
            lo = np.where(left, lo, m1)
        out[r] = dist(0.5 * (lo + hi))
    return out[back]


def cut_distance(t: float, w: complex) -> float:
    """Distance from w to the full cut set of phi_t."""
    d = _halfline_distance(w)
    # cheap reject: the arc lies in the closed unit disk centered -1
    if abs(w + 1.0) > 1.0 + d:
        return d
    return min(d, _arc_distance(t, w))


def arg_branch(t: float, w, tol: float = 1e-9) -> float:
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
    if cut_distance(t, w) <= tol:
        raise OnCut("point within %g of the branch cut" % tol)
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


def _arg_branch_vec(t: float, w: np.ndarray) -> np.ndarray:
    """Vectorized arg_branch without the cut-distance guard."""
    u = w.real + 1.0
    v = w.imag
    out = np.arctan2(v, w.real)
    inside = u * u + v * v < 1.0
    b = 1.0 - 2.0 * t
    if t < 0.5:
        pocket = inside & (v > 0.0) & (u * u + (v / b) ** 2 < 1.0)
        out = np.where(pocket, out - TWO_PI, out)
        out = np.where(inside & (v == 0.0), -math.pi, out)
    elif t > 0.5:
        pocket = inside & (v < 0.0) & (u * u + (v / b) ** 2 < 1.0)
        out = np.where(pocket, out + TWO_PI, out)
    return out


def phi_value(t: float, z: complex, tol: float = 1e-9) -> complex:
    """phi_t at the slice coordinate z = x + iy, as a complex number."""
    w = z - 2j
    return 0.5 * math.log((w * w.conjugate()).real) + 1j * arg_branch(t, w, tol)


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
    tol = cfg.tol

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
        return clearance(q) > tol

    def sphere_clearance(x: float, y: float, units: np.ndarray) -> np.ndarray:
        # clearance(x + y*unit) for every row: the sphere fixes w, so the
        # half-line term and the cheap reject of cut_distance are shared
        chord = np.minimum(
            np.linalg.norm(units - [I.x, I.y, I.z], axis=1), 1.0)
        w = complex(x, y - 2.0)
        d_half = _halfline_distance(w)
        d = np.full(chord.shape, d_half)
        if abs(w + 1.0) <= 1.0 + d_half:
            d = np.minimum(d, _arc_distance_many(chord, w))
        band = _sphere_band(x, y)
        if band is not None and 0.0 < band < 1.0:
            d = np.minimum(d, np.abs(chord - band) * y)
        return d

    def cap_structure(x: float, y: float):
        band = _sphere_band(x, y)
        if band is None:
            return [WholeSphereCap()]
        if band <= 0.0:
            return [BandCap(I, 0.0, inside=False, collar=tol)]
        if band >= 1.0:
            return [BandCap(I, 1.0, inside=True, collar=tol)]
        return [BandCap(I, band, inside=True, collar=tol),
                BandCap(I, band, inside=False, collar=tol)]

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

def f_t_value(cfg: DourenConfig, t: float, q: Quaternion) -> Quaternion:
    """The one-slice extension of phi_t, at an arbitrary point q."""
    sc = slice_decompose(q)
    z = complex(sc.x, sc.y)
    A = phi_value(t, z, cfg.tol)
    B = phi_value(t, z.conjugate(), cfg.tol)
    b = 0.5 * (A + B)
    c = (A - B) / 2j
    base = embed_complex(b, cfg.base_unit)
    if sc.unit is None:
        return base
    return base + sc.unit * embed_complex(c, cfg.base_unit)


def f_douren(cfg: DourenConfig, q: Quaternion) -> Quaternion:
    """The counterexample function f: on the slice of q it is the extension
    of phi_{T(J)}; raises OnCut within tol of the removed cut."""
    sc = slice_decompose(q)
    t = 0.0 if sc.unit is None else cfg.t_of(sc.unit)
    return f_t_value(cfg, t, q)


def _f_slice_many(cfg: DourenConfig, unit, z: np.ndarray) -> np.ndarray:
    """Vectorized f on one slice; no cut guard (callers stay off cuts)."""
    from .quaternion import emb_arr, qmul_arr
    t = 0.0 if unit is None else cfg.t_of(unit)
    z = np.atleast_1d(z).astype(complex)
    wa = z - 2j
    wb = np.conj(z) - 2j
    A = 0.5 * np.log((wa * np.conj(wa)).real) + 1j * _arg_branch_vec(t, wa)
    B = 0.5 * np.log((wb * np.conj(wb)).real) + 1j * _arg_branch_vec(t, wb)
    bb = 0.5 * (A + B)
    cc = (A - B) / 2j
    out = emb_arr(bb, cfg.base_unit)
    if unit is not None:
        ua = np.broadcast_to(np.array(unit.components()), (z.size, 4))
        out = out + qmul_arr(ua, emb_arr(cc, cfg.base_unit))
    return out


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

    f = SliceFunction(dom, lambda q: f_douren(cfg, q), backing="closed-form",
                      label="douren-f",
                      slice_many=lambda z, unit: _f_slice_many(cfg, unit, z))

    p = Quaternion(-1.0) + I * 2.0
    pbar = Quaternion(-1.0) - I * 2.0

    # g = f - f(p) = f + pi*I
    piI = I * math.pi
    g = SliceFunction(dom, lambda q: f_douren(cfg, q) + piI,
                      backing="closed-form", label="douren-g",
                      slice_many=lambda z, unit:
                          _f_slice_many(cfg, unit, z)
                          + np.array(piI.components()))

    # the locally-slice difference D = f_1 - f_0 on the open solid torus
    def torus_contains(q):
        sc = slice_decompose(q)
        return (sc.x + 1.0) ** 2 + (sc.y - 2.0) ** 2 < (1.0 - cfg.tol) ** 2

    torus = DomainSpec(contains=torus_contains,
                       bbox=((-2.0, 0.0), (-3.0, 3.0), (-3.0, 3.0), (-3.0, 3.0)),
                       label="douren-torus", symmetric=True,
                       boundary_distance=lambda q: 1.0 - math.hypot(
                           slice_decompose(q).x + 1.0,
                           slice_decompose(q).y - 2.0))
    D = SliceFunction(torus,
                      lambda q: f_t_value(cfg, 1.0, q) - f_t_value(cfg, 0.0, q),
                      backing="closed-form", label="douren-D")

    # ell = (q - pbar) * g, via the pointwise star with the global binomial
    bfn = SliceFunction.from_exact(binom(pbar))
    ell = SliceFunction(dom, lambda q: star_eval(bfn, g, q),
                        backing="composite", label="douren-ell")

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
                      backing="composite", label="douren-m")

    # h = (q-p)^{-*} * g = (q^2+2q+5)^{-1} (q-pbar) * g, off the sphere -1+2S
    quad = real_quadratic(-1.0, 2.0)
    hdom = DomainSpec(
        contains=lambda q: dom.contains(q) and quad.eval(q).norm() > 0.0,
        bbox=dom.bbox, label="douren-omega \\ (-1+2S)",
        boundary_distance=dom.boundary_distance,
        cap_structure=dom.cap_structure,
        sphere_clearance=dom.sphere_clearance)
    h = SliceFunction(hdom,
                      lambda q: quad.eval(q).inverse() * star_eval(bfn, g, q),
                      backing="composite", label="douren-h")

    cap_plus = cap_component(dom, p)
    cap_minus = cap_component(dom, pbar)
    phi0_pbar = embed_complex(phi_value(0.0, complex(-1.0, -2.0), cfg.tol), I)

    fplus = f.spherical(p)

    def shifted_g(p_tilde: Quaternion) -> SliceFunction:
        """g of the three-case factorization example: f minus the value its
        C+ cap data extends to at p_tilde (a point of -1 + 2S)."""
        sc = slice_decompose(p_tilde)
        if abs(sc.x + 1.0) > 1e-9 or abs(sc.y - 2.0) > 1e-9:
            raise ParamOutOfRange("p_tilde must lie on the sphere -1 + 2S")
        v = fplus.reconstruct(p_tilde)
        return SliceFunction(dom, lambda q: f_douren(cfg, q) - v,
                             backing="closed-form", label="douren-shifted-g",
                             slice_many=lambda z, unit:
                                 _f_slice_many(cfg, unit, z)
                                 - np.array(v.components()))

    return DourenFixtures(cfg=cfg, domain=dom, f=f, D=D, g=g, ell=ell, m=m,
                          h=h, p=p, pbar=pbar, p0=p0, p1=p1, I0=I0, I1=I1,
                          cap_plus=cap_plus, cap_minus=cap_minus,
                          phi0_pbar=phi0_pbar, shifted_g=shifted_g)
