"""Laurent and spherical power series, singularity classification.

Two expansion shapes:

* slice Laurent at a point p: f(q) = sum_n (q-p)^{*n} a_n, with star powers
  of (q-p). Restricted to the slice of p these are plain complex powers, so
  the coefficients are contour integrals of the slice restriction.

* spherical series at a sphere x0+y0*S:
  f(q) = sum_n [(q-x0)^2+y0^2]^n (a_{2n} + q a_{2n+1}),
  convergent on Cassini shells of the modulus |(q-x0)^2+y0^2|.

A point with order 0 need not be removable: on a non-symmetric domain the
in-slice restriction can extend holomorphically while no slice regular
extension exists. Removability is therefore decided by a boundedness probe
over a 4-dimensional neighborhood, not by the order alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .algebra import (QPoly, QRational, binom, real_quadratic,
                      reciprocal_poly, stem_values)
from .domains import (BOUNDARY_TOL, require_slice_points, sigma_tau_omega,
                      slice_clearance)
from .errors import (MaxTermsExceeded, NoAnnulus, NumericError,
                     OutsideConvergenceRegion, ParamOutOfRange)
from .quaternion import (ONE, Quaternion, QI, perp_unit, slice_decompose,
                         slice_rows)
from .slicefn import SliceFunction

_NOISE = 1e-12


# ---------------------------------------------------------------------------
# Slice Laurent series

@dataclass
class LaurentSeries:
    """f(q) = sum (q-center)^{*n} a_n over the window [nmin, nmax]."""

    center: Quaternion
    coeffs: dict  # n -> Quaternion
    radius: float  # contour radius used for extraction
    nodes: int
    _pow_cache: dict = field(default_factory=dict, repr=False)

    def scale(self) -> float:
        return max((c.norm() for c in self.coeffs.values()), default=0.0)

    def significant(self, noise=_NOISE):
        s = self.scale()
        return sorted(n for n, c in self.coeffs.items() if c.norm() > noise * s)

    def inner_radius(self) -> float:
        """limsup |a_{-m}|^{1/m}; zero when the negative part terminates
        inside the window (a finite principal part converges everywhere)."""
        neg = [n for n in self.significant() if n < 0]
        if not neg or min(neg) > min(self.coeffs) + 1:
            return 0.0
        tail = sorted(neg)[:6]
        return max(self.coeffs[n].norm() ** (1.0 / -n) for n in tail)

    def outer_radius(self) -> float:
        pos = [n for n in self.significant() if n > 0]
        if not pos or max(pos) < max(self.coeffs) - 1:
            return math.inf
        tail = sorted(pos)[-6:]
        r = max(self.coeffs[n].norm() ** (1.0 / n) for n in tail)
        return math.inf if r == 0.0 else 1.0 / r

    def _power(self, n: int):
        """(q-center)^{*n} as an exactly evaluable object (n may be < 0)."""
        got = self._pow_cache.get(n)
        if got is not None:
            return got
        b = binom(self.center)
        p = QPoly([1.0])
        for _ in range(abs(n)):
            p = p.star(b)
        out = p if n >= 0 else reciprocal_poly(p)
        self._pow_cache[n] = out
        return out

    def eval(self, q: Quaternion, region_check: bool = True) -> Quaternion:
        if region_check:
            sig, tau, _ = sigma_tau_omega(q, self.center)
            if not (self.inner_radius() < tau and sig < self.outer_radius()):
                raise OutsideConvergenceRegion(
                    "probe outside the sigma/tau annulus of the series")
        acc = Quaternion()
        for n in sorted(self.coeffs):
            c = self.coeffs[n]
            if c.norm() == 0.0:
                continue
            acc = acc + self._power(n).eval(q) * c
        return acc

    def to_json(self):
        return {"center": self.center.to_json(),
                "radius": self.radius, "nodes": self.nodes,
                "coeffs": {str(n): self.coeffs[n].to_json()
                           for n in sorted(self.coeffs)}}


def _contour_values(f, zc: complex, unit: Quaternion, radius: float,
                    nodes: int):
    """(theta, z, F) on the circle z = zc + radius e^{i theta}: F = b + i c
    from one stem call at unit, as a complex (nodes, 4) array, so
    f(x + y unit) = Re F + unit Im F there."""
    theta = 2.0 * math.pi * np.arange(nodes) / nodes
    z = zc + radius * np.exp(1j * theta)
    require_slice_points(f.domain, z, unit)
    S = f.stems(z, unit)
    return theta, z, S[:, 0] + 1j * S[:, 1]


def _disk_in_domain(dom, zc, unit, radius, rings=12, spokes=48):
    """True iff the punctured disk of the given radius sits inside the
    domain of the slice.

    Pointwise membership alone can miss a measure-zero cut crossing the
    disk, so every point of a polar grid must clear the grid spacing; a cut
    threading the disk then leaves some grid point too close to the
    boundary. One slice_clearance call covers the grid.
    """
    spacing = max(2.0 * math.pi * radius / spokes, radius / rings)
    r = radius * np.arange(1, rings + 1) / rings
    theta = 2.0 * math.pi * np.arange(spokes) / spokes
    z = zc + np.outer(r, np.exp(1j * theta)).ravel()
    return bool(np.all(slice_clearance(dom, z, unit) >= spacing))


def _pick_radius(f, zc, unit, radius=None):
    if radius is not None:
        if not _disk_in_domain(f.domain, zc, unit, radius):
            raise NoAnnulus("requested contour leaves the domain")
        return radius
    r = 0.4
    for _ in range(24):
        if _disk_in_domain(f.domain, zc, unit, r):
            return r
        r *= 0.5
    raise NoAnnulus("no punctured disk around the center fits the domain")


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _check_laurent_params(window, radius, nodes) -> None:
    """ParamOutOfRange unless window is two integers lo <= hi, nodes an
    integer with the window's orders distinct modulo nodes, and radius, if
    given, finite and > 0."""
    if not (isinstance(window, (tuple, list)) and len(window) == 2
            and all(_is_int(n) for n in window) and window[0] <= window[1]):
        raise ParamOutOfRange("window must be two integers lo <= hi: %r"
                              % (window,))
    width = window[1] - window[0] + 1
    if not (_is_int(nodes) and nodes >= width):
        raise ParamOutOfRange("nodes must be an integer >= %d, the number of "
                              "orders in the window: %r" % (width, nodes))
    if radius is not None and not (
            isinstance(radius, numbers.Real) and not isinstance(radius, bool)
            and math.isfinite(radius) and radius > 0):
        raise ParamOutOfRange("radius must be finite and > 0: %r" % (radius,))


def laurent_coeffs(f, p: Quaternion, window=(-12, 12), radius=None,
                   nodes: int = 2048) -> LaurentSeries:
    """Slice-Laurent coefficients of f at p by trapezoid contour quadrature
    in the slice of p (spectrally accurate for analytic restrictions).

    With `nodes` samples the orders n and n + nodes alias, so the window may
    hold at most `nodes` orders."""
    _check_laurent_params(window, radius, nodes)
    from .algebra import _as_slicefn
    f = _as_slicefn(f)
    sc = slice_decompose(p)
    unit = sc.unit if sc.unit is not None else QI
    zc = complex(sc.x, sc.y)
    radius = _pick_radius(f, zc, unit, radius)
    theta, _, F = _contour_values(f, zc, unit, radius, nodes)
    # X_n, the Laurent coefficients of F at zc, one kernel row per order; a
    # complex factor commutes with X -> Re X + unit Im X, so that is a_n
    ns = np.arange(window[0], window[1] + 1)
    kern = (np.exp(-1j * np.outer(ns, theta))
            * radius ** -ns.astype(float)[:, None])
    X = kern @ F / nodes
    a = stem_values(np.stack([X.real, X.imag], axis=1), unit)
    coeffs = {int(n): Quaternion(*row) for n, row in zip(ns, a)}
    return LaurentSeries(p, coeffs, radius, nodes)


# ---------------------------------------------------------------------------
# Spherical series

@dataclass
class SphericalSeries:
    """f(q) = sum_n [(q-x0)^2+y0^2]^n (a_{2n} + q a_{2n+1})."""

    x0: float
    y0: float
    pairs: dict  # n -> (a_{2n}, a_{2n+1})
    exact: bool = False  # exact peeling: the negative part is known finite

    def scale(self) -> float:
        return max((a.norm() + b.norm() for a, b in self.pairs.values()),
                   default=0.0)

    def significant(self, noise=_NOISE):
        s = self.scale()
        return sorted(n for n, (a, b) in self.pairs.items()
                      if a.norm() + b.norm() > noise * s)

    def cassini_radii(self):
        """(R1, R2) bounds on the Cassini modulus from coefficient decay.

        A window that ends in insignificant pairs is a terminating series:
        its radius on that side is unconstrained. Otherwise the limsup is
        estimated from the last few significant entries.
        """
        sig = self.significant()
        if not sig:
            return 0.0, math.inf
        have = sorted(self.pairs)
        r1 = 0.0
        if not self.exact and min(sig) < 0 and min(sig) <= min(have) + 1:
            tail = [n for n in sig if n < 0][:6]
            r1 = max((self.pairs[n][0].norm()
                      + self.pairs[n][1].norm()) ** (1.0 / -n) for n in tail)
        if max(sig) <= 0 or max(sig) < max(have):
            return r1, math.inf
        tail = [n for n in sig if n > 0][-6:]
        r = max((self.pairs[n][0].norm()
                 + self.pairs[n][1].norm()) ** (1.0 / n) for n in tail)
        return r1, (math.inf if r == 0.0 else 1.0 / r)

    def spherical_order(self) -> int:
        sig = self.significant()
        m = min(sig) if sig else 0
        return -2 * m if m < 0 else 0

    def eval(self, q: Quaternion, region_check: bool = True) -> Quaternion:
        quad = real_quadratic(self.x0, self.y0)
        u = quad.eval(q)  # lies in the slice of q: commutes with q
        mod = u.norm()
        if region_check:
            r1, r2 = self.cassini_radii()
            if not (r1 < mod < r2) and not (r1 == 0.0 and mod == 0.0):
                if mod <= r1 or mod >= r2:
                    raise OutsideConvergenceRegion(
                        "Cassini modulus %g outside (%g, %g)" % (mod, r1, r2))
        # a numeric series sums its significant pairs: below the noise floor
        # a pair is quadrature noise, which negative powers of a small
        # Cassini modulus would amplify
        sig = self.significant()
        acc = Quaternion()
        last = math.inf
        for n in sorted(self.pairs) if self.exact else sig:
            a, b = self.pairs[n]
            if a.norm() + b.norm() == 0.0:
                continue
            if n >= 0:
                un = ONE if n == 0 else _qpow(u, n)
            else:
                un = _qpow(u.inverse(), -n)
            term = un * (a + q * b)
            acc = acc + term
            last = term.norm()
        if sig and last > 1e-9 * max(acc.norm(), 1.0) and max(sig) >= 0 \
                and len(sig) > 24:
            raise MaxTermsExceeded("spherical series not converged in the "
                                   "available window")
        return acc

    def to_json(self):
        return {"sphere": [self.x0, self.y0],
                "pairs": {str(n): [a.to_json(), b.to_json()]
                          for n, (a, b) in sorted(self.pairs.items())}}


def _qpow(u: Quaternion, n: int) -> Quaternion:
    out = ONE
    for _ in range(n):
        out = out * u
    return out


def _poly_spherical_pairs(p: QPoly, x0: float, y0: float):
    pairs = {}
    n = 0
    h = p
    while not h.is_zero():
        q, r0, r1 = h.divide_real_quadratic(x0, y0)
        pairs[n] = (r0, r1)
        h = q
        n += 1
    pairs[n] = (Quaternion(), Quaternion())  # terminating sentinel
    return pairs


def _rational_spherical_pairs(f: QRational, x0: float, y0: float,
                              depth: int):
    """Exact recursion on rationals: reduce the denominator by the sphere
    polynomial, then peel pairs with exact division at every step."""
    den = f.den
    shift = 0
    while den.degree >= 2:
        g, r0, r1 = den.divide_real_quadratic(x0, y0)
        if (r0.norm() + r1.norm()) > 1e-12 * (den.scale() or 1.0):
            break
        den, shift = g, shift + 1
    h = QRational(f.num, den, reduce=False)
    pairs = {}
    for k in range(depth):
        n = k - shift
        # h's stem pair at z0 = x0 + i y0 (den is nonzero on the sphere):
        # b + J c = w + J v with w = a0 + x0 a1, v = y0 a1
        b, c = (Quaternion(*row) for row in h.stems(complex(x0, y0))[0])
        a1 = c / y0
        a0 = b - Quaternion(x0) * a1
        pairs[n] = (a0, a1)
        rem_num = h.num - h.den.star(QPoly([a0, a1]))
        qout, r0, r1 = rem_num.divide_real_quadratic(x0, y0)
        ref = max(h.num.scale(), h.den.scale(), 1e-300)
        if (r0.norm() + r1.norm()) > 1e-7 * ref:
            raise NumericError("spherical recursion residual too large")
        if qout.is_zero():
            pairs[n + 1] = (Quaternion(), Quaternion())  # terminated
            break
        h = QRational(qout, h.den, reduce=False)
    return pairs


def _numeric_spherical_pairs(f: SliceFunction, x0: float, y0: float, cap,
                             depth: int, nodes: int, window_bottom: int):
    """One-contour extraction on the stem F = b + i c, with subtraction.

    On the cap, F(z) = sum_n S(z)^n (a_{2n} + z a_{2n+1}) with the complex
    scalar S(z) = (z-x0)^2 + y0^2 = (z-z0)(z-z0+2i y0), z0 = x0 + i y0. Term
    n has leading Laurent order n at z0, with coefficient
    (2i y0)^n (w + i v), w = a_{2n} + x0 a_{2n+1}, v = y0 a_{2n+1}.
    Extracting that order from the contour samples of F and subtracting the
    term from them keeps the extraction stable at every depth.
    """
    from .domains import cap_component
    if cap is None:
        cap = cap_component(f.domain, Quaternion(x0, y0, 0.0, 0.0))
    J = cap.representative
    z0 = complex(x0, y0)
    r = _pick_radius(f, z0, J, None)
    theta, z, F = _contour_values(f, z0, J, r, nodes)
    S = (z - x0) ** 2 + y0 ** 2
    pairs = {}
    for n in range(window_bottom, depth + 1):
        kern = np.exp(-1j * n * theta) * r ** (-float(n))
        wv = kern @ F / nodes / (2j * y0) ** n
        a1 = wv.imag / y0
        a0 = wv.real - x0 * a1
        pairs[n] = (Quaternion(*a0), Quaternion(*a1))
        F = F - S[:, None] ** n * (a0 + z[:, None] * a1)
    return pairs


def spherical_coeffs(f, x0: float, y0: float, cap=None, depth: int = 32,
                     nodes: int = 1024, window_bottom: int = -8
                     ) -> SphericalSeries:
    """Spherical series pairs (a_{2n}, a_{2n+1}) at the sphere x0+y0*S.

    Exact peeling for polynomial/rational backing (negative indices arise
    when the rational denominator vanishes on the sphere); one stem contour
    about x0 + i y0 at the cap's representative unit otherwise; its orders
    window_bottom .. depth must be distinct modulo nodes.
    """
    _check_laurent_params((window_bottom, depth), None, nodes)
    if isinstance(f, QPoly):
        return SphericalSeries(x0, y0, _poly_spherical_pairs(f, x0, y0), exact=True)
    if isinstance(f, QRational):
        return SphericalSeries(x0, y0,
                               _rational_spherical_pairs(f, x0, y0, depth),
                               exact=True)
    if isinstance(f, SliceFunction) and f.backing == "polynomial":
        return SphericalSeries(x0, y0,
                               _poly_spherical_pairs(f.payload, x0, y0),
                               exact=True)
    if isinstance(f, SliceFunction) and f.backing == "rational":
        return SphericalSeries(x0, y0,
                               _rational_spherical_pairs(f.payload, x0, y0,
                                                         depth), exact=True)
    pairs = _numeric_spherical_pairs(f, x0, y0, cap, depth, nodes,
                                     window_bottom)
    return SphericalSeries(x0, y0, pairs)


# ---------------------------------------------------------------------------
# Singularity classification

@dataclass
class SingularityReport:
    point: Quaternion
    kind: str  # removable | nonremovable | pole | essential
    order: float  # 0, pole order, or inf for essential
    series: LaurentSeries
    # the boundedness probe behind an order-0 verdict: its radii, sup |f|
    # at each and the growth threshold; None for a pole or an essential
    # singularity, which are decided from the series alone
    probe: dict | None = None

    def to_json(self):
        return {"point": self.point.to_json(), "kind": self.kind,
                "order": (self.order if math.isfinite(self.order) else "inf"),
                "noise_floor": _NOISE,
                "coeffs": self.series.to_json()["coeffs"],
                "probe": self.probe}


# the boundedness probe: its radii, the random points it keeps per radius
# from at most _PROBE_DRAWS candidates, and the growth of sup |f| from the
# largest radius that marks a blow-up
_PROBE_RADII = (1e-2, 1e-3, 1e-4)
_PROBE_KEEP = 64
_PROBE_DRAWS = 400
_PROBE_GROWTH = 30.0


def _near_sphere_points(p: Quaternion, radii) -> np.ndarray:
    """The 32 structured probe points of each radius r as (len(radii), 32, 4)
    rows (none for a real p): 8 units at angle r from p's unit, each moved
    by r^2 along +x, +y, -x, -y in that order.

    The units are rotate_unit(u, cos a t1 + sin a t2, r) for a = k pi / 4,
    with t1 = perp_unit(u) and t2 = u t1, written out on arrays."""
    radii = np.asarray(radii, dtype=float)
    sc = slice_decompose(p)
    if sc.unit is None:
        return np.empty((len(radii), 0, 4))
    u = np.array(sc.unit.components()[1:])
    t1 = np.array(perp_unit(sc.unit).components()[1:])
    t2 = np.cross(u, t1)  # u t1 as quaternions: both imaginary, orthogonal
    angles = [2.0 * math.pi * k / 8.0 for k in range(8)]
    toward = (np.array([math.cos(a) for a in angles])[:, None] * t1
              + np.array([math.sin(a) for a in angles])[:, None] * t2)
    # rotate_unit's tangent: toward, projected off u and normalised
    d = toward[:, 0] * u[0] + toward[:, 1] * u[1] + toward[:, 2] * u[2]
    t = toward - d[:, None] * u
    t = t / np.sqrt(t[:, 0] * t[:, 0] + t[:, 1] * t[:, 1]
                    + t[:, 2] * t[:, 2])[:, None]
    c = np.array([math.cos(r) for r in radii])
    s = np.array([math.sin(r) for r in radii])
    J = c[:, None, None] * u + s[:, None, None] * t  # (radii, 8, 3)
    rr = radii * radii
    zero = np.zeros_like(rr)
    dx = np.stack([rr, zero, -rr, zero], axis=1)  # (radii, 4)
    dy = np.stack([zero, rr, zero, -rr], axis=1)
    out = np.empty((len(radii), 8, 4, 4))
    out[..., 0] = (sc.x + dx)[:, None, :]
    out[..., 1:] = J[:, :, None, :] * (sc.y + dy)[:, None, :, None]
    return out.reshape(len(radii), 32, 4)


def _probe_sups(f: SliceFunction, p: Quaternion) -> list:
    """sup |f| over the probe set of each radius in _PROBE_RADII.

    The probe set of radius r: the points p + r v for the first 64
    directions v (normalised draws of one seeded normal stream, at most 400
    per radius) that land in the domain, and the 32 structured near-sphere
    points that do. The stream runs on across radii: a radius starts at the
    first direction the previous one did not use.

    One slice_clearance call covers the structured points of every radius
    and the first 64 candidates of each, placed as if every earlier radius
    had used exactly 64 directions. A radius whose stream starts later
    (an earlier one needed more) gets its own 64-row call, and a radius
    with fewer than 64 of its first candidates in the domain a second call
    on the other 336. One eval_slice_many call then evaluates every kept
    point of every radius, each row at its own unit.
    """
    rng = np.random.default_rng(2024)
    radii = np.array(_PROBE_RADII)
    keep = _PROBE_KEEP
    centre = np.array(p.components())
    stream = rng.normal(size=(len(radii) * keep, 4))

    def directions(stop):
        """The stream's first `stop` directions, drawing any still missing."""
        nonlocal stream
        if stop > len(stream):
            stream = np.vstack([stream,
                                rng.normal(size=(stop - len(stream), 4))])
        return stream[:stop]

    def around(v, r):
        return centre + r * (v / np.linalg.norm(v, axis=1)[:, None])

    near = _near_sphere_points(p, radii)
    guess = around(stream, np.repeat(radii, keep)[:, None])
    ok = _in_domain(f.domain, np.vstack([guess, near.reshape(-1, 4)]))
    ok_guess = ok[:len(guess)].reshape(len(radii), keep)
    ok_near = ok[len(guess):].reshape(near.shape[:2])

    kept = []
    start = 0  # the first direction of the stream this radius may use
    for k, r in enumerate(radii):
        if start == k * keep:
            rand, ok_rand = guess[start:start + keep], ok_guess[k]
        else:
            rand = around(directions(start + keep)[start:], r)
            ok_rand = _in_domain(f.domain, rand)
        if ok_rand.sum() < keep:
            more = around(directions(start + _PROBE_DRAWS)[start + keep:], r)
            rand = np.vstack([rand, more])
            ok_rand = np.concatenate([ok_rand, _in_domain(f.domain, more)])
        # the draws stop at the 64th accepted direction
        hits = np.flatnonzero(ok_rand)[:keep]
        start += hits[-1] + 1 if len(hits) == keep else len(rand)
        kept.append(np.vstack([rand[hits], near[k][ok_near[k]]]))

    sizes = [len(rows) for rows in kept]
    norms = np.empty(0)
    if sum(sizes):
        z, units = slice_rows(np.vstack(kept))
        norms = np.linalg.norm(f.eval_slice_many(z, units), axis=1)
    return [float(part.max()) if len(part) else 0.0
            for part in np.split(norms, np.cumsum(sizes)[:-1])]


def _in_domain(dom, pts: np.ndarray) -> np.ndarray:
    """Membership of each (N, 4) row: one slice_clearance call."""
    z, units = slice_rows(pts)
    return slice_clearance(dom, z, units) > BOUNDARY_TOL


def _bounded_near(f: SliceFunction, p: Quaternion, sups=None) -> bool:
    """Boundedness probe over shrinking 4-dimensional neighborhoods of p.

    Random directions alone can miss a blow-up concentrated along the
    sphere of p (angular offset ~r paired with radial offset ~r^2), which
    is exactly how a cap-level obstruction manifests while the in-slice
    restriction stays bounded. Structured near-sphere probes cover it. Per
    radius (1e-2, 1e-3, 1e-4) the probe set is up to 64 random and 32
    structured points; _probe_sups finds the sups of all three radii with
    one membership call (slice_clearance) and one evaluation call
    (eval_slice_many) on arrays, plus extra membership calls only where
    random candidates fall outside the domain. Growth of sup |f| by more
    than 30x from the largest radius marks a blow-up. `sups`, when given,
    are those _probe_sups found, and nothing is probed again.
    """
    sup = _probe_sups(f, p) if sups is None else sups
    return not (sup[2] > _PROBE_GROWTH * sup[0] + 1e-30
                or sup[1] > _PROBE_GROWTH * sup[0])


def classify_singularity(f, p: Quaternion, window=(-16, 8), radius=None,
                         nodes: int = 2048) -> SingularityReport:
    """Classification of the singularity of f at p.

    Pole order comes from the significant negative slice-Laurent window; a
    run of >= 8 consecutive deep coefficients above the noise floor
    (1e-12 x scale) declares an essential singularity. Order 0 is split
    into removable vs nonremovable by the 4D boundedness probe, because on
    non-symmetric domains the restriction can be holomorphic at p while no
    slice regular extension exists; the report keeps the probe's sups.
    """
    from .algebra import _as_slicefn
    f = _as_slicefn(f)
    series = laurent_coeffs(f, p, window=window, radius=radius, nodes=nodes)
    neg = [n for n in series.significant() if n < 0]
    nmin = window[0]
    if neg:
        deep = sorted(neg)
        run = 1
        longest = 1
        for a, b in zip(deep, deep[1:]):
            run = run + 1 if b == a + 1 else 1
            longest = max(longest, run)
        if longest >= 8 and deep[0] <= nmin + 1:
            return SingularityReport(p, "essential", math.inf, series)
        return SingularityReport(p, "pole", float(-deep[0]), series)
    sups = _probe_sups(f, p)
    probe = {"radii": list(_PROBE_RADII), "sups": sups,
             "threshold": _PROBE_GROWTH}
    kind = "removable" if _bounded_near(f, p, sups) else "nonremovable"
    return SingularityReport(p, kind, 0.0, series, probe)
