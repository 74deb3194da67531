"""Zero sets, cap-relative divisibility, factorization, multiplicities.

On a non-symmetric slice domain, a sphere x+yS meets the domain in caps,
and the zero structure is cap-local: a cap either lies entirely in Z(f) or
contains at most one zero. A binomial q-p~ can divide f near one cap while
f(p~) != 0 (a "ghost divisor") -- those are reported in a dedicated list,
never merged with zeros.

Everything exact runs on QPoly right-coefficient arithmetic; everything
else runs on spherical data probes; the cap tests probe all their sampled
units in one array call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import QPoly, binom, scale_stems, star_stems
from .domains import (CapId, DomainSpec, cap_component, clears,
                      require_slice_points, slice_clearance)
from .errors import (CapMismatch, IdenticallyZero, NotADivisor,
                     NotVanishingOnCap, ZeroPolynomial)
from .quaternion import (QI, Quaternion, qarr, qmul_arr, same_sphere,
                         slice_decompose, unit_rows)
from .slicefn import SliceFunction, cullen_derivative, spherical_data

_DIV_TOL = 1e-9
_CAP_TOL = 1e-8
_CLUSTER = 1e-7


@dataclass
class IsolatedZero:
    point: Quaternion
    cap: object  # CapId or None for real-axis zeros
    classical: int
    isolated: int
    provenance: str = "exact"

    def to_json(self):
        return {"point": self.point.to_json(),
                "cap": self.cap.to_json() if isinstance(self.cap, CapId) else None,
                "classical_multiplicity": self.classical,
                "isolated_multiplicity": self.isolated,
                "provenance": self.provenance}


@dataclass
class SphericalZero:
    x: float
    y: float
    cap: object  # CapId or None for the whole sphere
    multiplicity: int  # the even number 2m
    provenance: str = "exact"

    def to_json(self):
        return {"sphere": [self.x, self.y],
                "cap": self.cap.to_json() if isinstance(self.cap, CapId) else None,
                "spherical_multiplicity": self.multiplicity,
                "provenance": self.provenance}


@dataclass
class GhostDivisor:
    point: Quaternion
    cap: object

    def to_json(self):
        return {"point": self.point.to_json(),
                "cap": self.cap.to_json() if isinstance(self.cap, CapId) else None}


@dataclass
class ZeroReport:
    isolated: list = field(default_factory=list)
    spherical: list = field(default_factory=list)
    ghosts: list = field(default_factory=list)
    flags: list = field(default_factory=list)

    def to_json(self):
        return {"isolated": [z.to_json() for z in self.isolated],
                "spherical": [z.to_json() for z in self.spherical],
                "ghost_divisors": [g.to_json() for g in self.ghosts],
                "flags": list(self.flags)}


# ---------------------------------------------------------------------------
# Real-coefficient root backend: companion matrix + Newton polish

def real_poly_roots(coeffs):
    """Roots of a real polynomial (ascending coefficients), polished."""
    c = np.asarray(coeffs, dtype=float)
    nz = np.flatnonzero(np.abs(c) > 0)
    if len(nz) == 0:
        raise ZeroPolynomial("root finding on the zero polynomial")
    c = c[: nz[-1] + 1]
    if len(c) == 1:
        return np.array([], dtype=complex)
    roots = np.roots(c[::-1])
    d = np.polyder(c[::-1])
    for _ in range(2):
        num = np.polyval(c[::-1], roots)
        den = np.polyval(d, roots)
        step = np.where(np.abs(den) > 1e-300, num / np.where(den == 0, 1, den), 0)
        # Newton can stall on multiple roots; cap the step size
        step = np.where(np.abs(step) < 1.0, step, 0.0)
        roots = roots - step
    return roots


def _root_clusters(coeffs, radius=0.02):
    """Distinct roots of a real polynomial with their multiplicities.

    A root of multiplicity k comes out of the companion matrix smeared over
    a disk of radius ~eps^(1/k), so raw roots are clustered generously.
    The cluster mean (a locally smooth symmetric function of the perturbed
    roots) is already near machine accurate; it is then polished by Newton
    on the (k-1)-th derivative, where the root is simple. Returns
    [(root, multiplicity)] with complex entries in the upper half-plane.
    Distinct roots closer than `radius` apart are merged -- callers that
    construct fixtures keep zeros separated beyond that.
    """
    raw = sorted(real_poly_roots(coeffs), key=lambda r: (r.real, r.imag))
    clusters = []
    for r in raw:
        for i, (v, k) in enumerate(clusters):
            if abs(r - v) <= radius * (1.0 + abs(v)):
                clusters[i] = ((v * k + r) / (k + 1), k + 1)
                break
        else:
            clusters.append((r, 1))
    rev = list(reversed([float(c) for c in coeffs]))
    out = []
    for v, k in clusters:
        # the cluster mean of a smeared multiplicity-k root is O(eps) accurate
        real = abs(v.imag) <= 1e-6 * (1.0 + abs(v))
        if not real and v.imag < 0.0:
            continue  # handled by the conjugate cluster
        dp = rev
        for _ in range(k - 1):
            dp = np.polyder(dp).tolist()
        d1 = np.polyder(dp)
        z = complex(v.real, 0.0) if real else v
        for _ in range(40):
            den = np.polyval(d1, z)
            if abs(den) < 1e-300:
                break
            step = np.polyval(dp, z) / den
            z = z - step
            if abs(step) <= 1e-15 * (1.0 + abs(z)):
                break
        if real:
            out.append((complex(z.real, 0.0), k))
        else:
            out.append((complex(z.real, abs(z.imag)), k))
    return out


# ---------------------------------------------------------------------------
# Exact polynomial zero structure (normal-form driven)

def _poly_chain(h: QPoly, x: float, y: float, tol: float):
    """Extract the maximal chain h = (q-p1)*...*(q-pk)*rest on sphere (x,y)."""
    chain = []
    scale = h.scale() or 1.0
    while h.degree >= 1:
        b, r1 = h.sphere_restriction(x, y)
        # on the sphere h(q) = q r1 + r0 with b = x r1 + r0
        r0 = b - Quaternion(x) * r1
        if r1.norm() <= 1e-12 * scale:
            break
        p = -(r0 * r1.inverse())
        on_sphere = Quaternion(x) + Quaternion(0.0, y, 0.0, 0.0)
        if not same_sphere(p, on_sphere, 1e-6 * (1.0 + abs(x) + y)):
            break
        g, rem = h.divide_right_linear(p)
        if rem.norm() > _DIV_TOL * scale:
            break
        chain.append(p)
        h = g
    return chain, h


def _deflate_linear(h: QPoly, p: Quaternion, scale: float):
    """(m, rest) with h = (q-p)^{*m} * rest, dividing while exact."""
    m = 0
    while not h.is_zero():
        g, rem = h.divide_right_linear(p)
        if rem.norm() > _DIV_TOL * scale:
            break
        h, m = g, m + 1
    return m, h


def _deflate_sphere(h: QPoly, x: float, y: float, scale: float):
    """(m, rest) with h = [(q-x)^2+y^2]^m rest, dividing while exact."""
    m = 0
    while not h.is_zero():
        g, r0, r1 = h.divide_real_quadratic(x, y)
        if (r0.norm() + r1.norm()) > _DIV_TOL * scale:
            break
        h, m = g, m + 1
    return m, h


def _leading_count(chain, p: Quaternion) -> int:
    """Number of leading chain points equal to p (within 1e-6 relative)."""
    lead = 0
    for pt in chain:
        if (pt - p).norm() <= 1e-6 * (1.0 + p.norm()):
            lead += 1
        else:
            break
    return lead


def poly_zeros(f: QPoly) -> ZeroReport:
    """Full zero structure of a polynomial via symmetrization roots and
    exact deflation (spheres first, then the point chain)."""
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial has no zero report")
    report = ZeroReport()
    if f.degree == 0:
        return report
    fs = f.symmetrize()
    roots = _root_clusters(fs.real_coeffs())
    scale = f.scale() or 1.0

    # real roots of f^s are exactly the real zeros of f
    for r, _k in roots:
        if r.imag > 0.0:
            continue
        p = Quaternion(r.real)
        m, _ = _deflate_linear(f, p, scale)
        if m > 0:
            report.isolated.append(IsolatedZero(p, None, m, m, "exact"))

    # spheres: conjugate pairs of f^s roots
    for r, _k in roots:
        if r.imag <= 0.0:
            continue
        x, y = r.real, r.imag
        m, h = _deflate_sphere(f, x, y, scale)
        chain, _rest = _poly_chain(h, x, y, _DIV_TOL)
        if m == 0 and not chain:
            continue
        if m > 0:
            report.spherical.append(SphericalZero(x, y, None, 2 * m, "exact"))
        if chain:
            classical = m + _leading_count(chain, chain[0])
            report.isolated.append(IsolatedZero(chain[0], None, classical,
                                                len(chain), "exact"))
        # borderline check: if the undivided rest nearly vanished on the
        # sphere again, the find sits within 10x of the threshold
        if not _rest.is_zero():
            _, q0, q1 = _rest.divide_real_quadratic(x, y)
            res = q0.norm() + q1.norm()
            if _DIV_TOL * scale < res <= 10 * _DIV_TOL * scale:
                report.flags.append(
                    "sphere (%g,%g): residual within 10x of threshold" % (x, y))
    return report


# ---------------------------------------------------------------------------
# Cap-relative divisibility and factors

def _require_on_cap_sphere(p_tilde: Quaternion, cap: CapId):
    sc = slice_decompose(p_tilde)
    if abs(sc.x - cap.x) > 1e-9 * (1 + abs(cap.x)) or \
       abs(sc.y - cap.y) > 1e-9 * (1 + cap.y):
        raise CapMismatch("point %r is not on the sphere of the cap" % (p_tilde,))


def divides_near(f: SliceFunction, p_tilde: Quaternion, cap: CapId,
                 probes: int = 20, tol: float = _CAP_TOL) -> bool:
    """True iff f°_s == -im(p~)·f'_s identically on the cap.

    Spherical data is cap-constant, but we still check at >= `probes`
    sampled units: a misidentified cap shows up as probe disagreement. One
    membership call and one stem call serve every sampled unit.
    """
    _require_on_cap_sphere(p_tilde, cap)
    z, units = _cap_rows(cap, probes, np.random.default_rng(12345))
    require_slice_points(f.domain, z, units)
    S = f.stems(z, units)
    b, d = S[:, 0], S[:, 1] / cap.y
    # f°_s + im(p~) f'_s, the value the cap data extend to at p~
    at_p = b + qmul_arr(np.array(p_tilde.im().components()), d)
    norm = lambda a: np.linalg.norm(a, axis=1)
    scale = np.maximum(np.maximum(norm(b), p_tilde.im_norm() * norm(d)), 1e-30)
    return bool(np.all(norm(at_p) <= tol * scale))


def vanishes_on_cap(f: SliceFunction, cap: CapId, probes: int = 20,
                    tol: float = _CAP_TOL) -> bool:
    """True iff |f| <= tol max(1, y) at `probes` sampled units of the cap:
    one evaluation call for all of them."""
    z, units = _cap_rows(cap, probes, np.random.default_rng(54321))
    vals = f.eval_slice_many(z, units)
    return bool(np.all(np.linalg.norm(vals, axis=1) <= tol * max(1.0, cap.y)))


def _cap_rows(cap: CapId, n: int, rng):
    """z = x + iy of the cap's sphere and n sampled cap units, as rows."""
    units = qarr(cap.sample_units(n, rng))[:, 1:]
    return np.full(len(units), complex(cap.x, cap.y)), units


# a row on the divisor's sphere (|S(z)| <= _ON_SPHERE (1 + |z|^2)) is
# filled by the mean of the quotient over _RING nodes on a circle about it
_ON_SPHERE = 1e-8
_RING = np.exp(2j * np.pi * np.arange(32) / 32)


def _on_sphere(z, x0: float, y0: float):
    """S(z) = (z-x0)^2 + y0^2 and the rows on the sphere x0 + y0 S, where
    |S(z)| <= _ON_SPHERE (1 + |z|^2)."""
    s = (z - x0) ** 2 + y0 ** 2
    return s, np.abs(s) <= _ON_SPHERE * (1.0 + np.abs(z) ** 2)


def _minus_sphere_off_cap(base: DomainSpec, x0: float, y0: float,
                          cap: CapId) -> DomainSpec:
    """base without the points of the sphere x0 + y0 S off the cap, where a
    quotient by S has a pole: its clearance reads 0 there, as in
    minus_zero_spheres."""
    def clearance(x, y, units):
        d = np.array(base.clearance(x, y, units), dtype=float)
        on = np.broadcast_to(_on_sphere(x + 1j * np.asarray(y), x0, y0)[1],
                             d.shape)
        rows = np.broadcast_to(units, d.shape + (3,))[on]
        d[on] = np.where(cap.contains_unit(rows), d[on], 0.0)
        return d

    return DomainSpec(
        clearance=clearance, bbox=base.bbox,
        label="%s \\ (%g + %gS off its cap)" % (base.label, x0, y0),
        symmetric=base.symmetric, cap_structure=base.cap_structure)


def _sphere_quotient(f, x0: float, y0: float, num_stems, label: str,
                     cap: CapId | None):
    """The SliceFunction with stem rows num_stems(z, unit) divided by the
    complex scalar S(z) = (z-x0)^2 + y0^2, on f's domain without the sphere
    x0 + y0 S off the cap, where the quotient has a pole (all of f's domain
    when cap is None).

    A row on the sphere x0 + y0 S gets the mean of that quotient over a
    circle about its z, of radius a quarter of its clearance and at most
    half its height off R (1/2 on R): the value of the removable
    singularity, where num_stems vanishes on the row's cap.
    """
    def quotient(z, unit):
        """(rows on the sphere, num_stems / S(z) off them, unfilled)."""
        s, on = _on_sphere(z, x0, y0)
        return on, scale_stems(1.0 / np.where(on, 1.0, s), num_stems(z, unit))

    def stems(z, unit):
        z = np.atleast_1d(z).astype(complex)
        on, out = quotient(z, unit)
        if on.any():
            zc = z[on]
            uc = np.broadcast_to(unit_rows(unit), (z.size, 3))[on]
            rho = np.minimum(0.25 * slice_clearance(f.domain, zc, uc),
                             0.5 * np.where(zc.imag > 0.0, zc.imag, 1.0))
            ring = (zc[:, None] + rho[:, None] * _RING).ravel()
            _, vals = quotient(ring, np.repeat(uc, _RING.size, axis=0))
            out[on] = vals.reshape(len(zc), _RING.size, 2, 4).mean(axis=1)
        return out

    dom = f.domain if cap is None else _minus_sphere_off_cap(f.domain, x0,
                                                             y0, cap)
    return SliceFunction(dom, backing="composite", label=label,
                         slice_many=stems)


def factor_out_point(f, p: Quaternion, cap: CapId | None = None):
    """g with f = (q-p)*g: exact right division on polynomials, the regular
    quotient (q-p)^{-*}*f = [(q-x_p)^2+y_p^2]^{-1} (q-conj p)*f elsewhere,
    filled on p's sphere."""
    if isinstance(f, QPoly):
        g, rem = f.divide_right_linear(p)
        if rem.norm() > _DIV_TOL * (f.scale() or 1.0):
            raise NotADivisor("(q - %r) does not divide the polynomial" % (p,))
        return g
    sc = slice_decompose(p)
    if sc.unit is None:
        if f(p).norm() > _DIV_TOL:
            raise NotADivisor("f does not vanish at the real point")
    else:
        if cap is None:
            cap = cap_component(f.domain, p)
        if not divides_near(f, p, cap):
            raise NotADivisor("(q - p) does not divide f near the cap")
    conj_binom = binom(p.conj())
    return _sphere_quotient(
        f, sc.x, sc.y,
        lambda z, unit: star_stems(conj_binom.stems(z), f.stems(z, unit)),
        "factor_out_point", cap)


def factor_out_sphere(f, x0: float, y0: float, cap: CapId | None = None):
    """h with f = [(q-x0)^2+y0^2]*h, requiring f to vanish on the cap."""
    if isinstance(f, QPoly):
        g, r0, r1 = f.divide_real_quadratic(x0, y0)
        if (r0.norm() + r1.norm()) > _DIV_TOL * (f.scale() or 1.0):
            raise NotVanishingOnCap("the sphere polynomial does not divide f")
        return g
    if cap is None:
        cap = cap_component(f.domain, Quaternion(x0) + Quaternion(0, y0, 0, 0))
    if not vanishes_on_cap(f, cap):
        raise NotVanishingOnCap("f does not vanish identically on the cap")
    return _sphere_quotient(f, x0, y0, f.stems, "factor_out_sphere", cap)


def _near_unit(u: Quaternion, tol: float):
    """u renormalized to an imaginary unit when within tol of one, else None."""
    n = u.im_norm()
    if abs(u.re()) > tol or abs(n - 1.0) > tol:
        return None
    return Quaternion(0.0, u.x / n, u.y / n, u.z / n)


def _dividing_point_on_cap(f, cap: CapId):
    """The p~ on the cap's sphere with f°_s == -im(p~) f'_s, if any."""
    q = cap.point(cap.representative)
    d = spherical_data(f, q)
    b = d.value
    c = d.derivative * cap.y
    scale = max(b.norm(), c.norm(), 1e-30)
    if abs(b.norm() - c.norm()) > _CAP_TOL * scale \
            or abs((b * c.conj()).re()) > _CAP_TOL * scale * scale:
        return None
    if c.norm() <= _CAP_TOL * scale:
        return None
    jstar = _near_unit(d.null_unit(cap.y), 1e-6)
    if jstar is None:
        return None
    return cap.point(jstar)


def multiplicities(f, p: Quaternion, cap: CapId | None = None,
                   max_chain: int = 16):
    """(classical m_f^C(p), spherical 2m, isolated n) relative to p's cap.

    The spherical count m is the number of [(q-x)^2+y^2] factors, the chain
    p1..pn the successive dividing points (p_i != conj(p_{i+1}) by the
    spheres-first order), and the classical multiplicity is m plus the
    count of leading chain points equal to p.
    """
    sc = slice_decompose(p)
    if isinstance(f, QPoly):
        if f.is_zero():
            raise IdenticallyZero("multiplicities of the zero polynomial")
        scale = f.scale() or 1.0
        if sc.unit is None:
            m, _ = _deflate_linear(f, p, scale)
            return m, 0, m
        m, h = _deflate_sphere(f, sc.x, sc.y, scale)
        chain, _ = _poly_chain(h, sc.x, sc.y, _DIV_TOL)
        return m + _leading_count(chain, p), 2 * m, len(chain)

    # general slice function: cap-local factor chain
    if cap is None:
        cap = cap_component(f.domain, p)
    m = 0
    h = f
    for _ in range(max_chain):
        if not vanishes_on_cap(h, cap):
            break
        h = factor_out_sphere(h, cap.x, cap.y, cap)
        m += 1
    chain = []
    for _ in range(max_chain):
        pt = _dividing_point_on_cap(h, cap)
        if pt is None:
            break
        h = factor_out_point(h, pt, cap)
        chain.append(pt)
    if m == 0 and not chain:
        probe = h.eval_unchecked(cap.point(cap.representative))
        if probe.norm() <= 1e-14:
            raise IdenticallyZero("f vanishes identically near the cap")
    return m + _leading_count(chain, p), 2 * m, len(chain)


# ---------------------------------------------------------------------------
# Numeric scan

def newton_polish_on_slice(f, z0: complex, unit: Quaternion, iters: int = 6):
    """Newton refinement of a zero of the slice restriction f_I."""
    from .quaternion import embed_complex
    z = z0
    for _ in range(iters):
        q = embed_complex(z, unit)
        if not f.domain.contains(q):
            break
        v = f.eval_unchecked(q)
        d = cullen_derivative(f, q)
        if d.norm() == 0.0:
            break
        # right-coefficient structure: f(z+h) - f(z) = h f'_c(z) + O(h^2),
        # so the Newton increment is f(z) f'_c(z)^{-1}
        delta = v * d.inverse()
        # project the quaternion step onto the slice plane
        dz = complex(delta.re(), delta.x * unit.x + delta.y * unit.y
                     + delta.z * unit.z)
        z = z - dz
        if abs(dz) < 1e-14 * (1.0 + abs(z)):
            break
    return z


def cap_zeros(f: SliceFunction, cap: CapId, tol: float = _CAP_TOL):
    """Zeros of f on a cap, per the cap criterion: either the whole cap
    (value and derivative both vanish) or at most one point J* = -b(yc)^{-1}.

    Returns ("cap", None) | ("point", p) | ("none", None).
    """
    q = cap.point(cap.representative)
    d = spherical_data(f, q)
    b = d.value
    c = d.derivative * cap.y
    # reference magnitude from off-sphere probes on the same slice, so a cap
    # where f vanishes identically is not measured against its own noise
    ref = 0.0
    for fac in (0.9, 1.1):
        qq = Quaternion(cap.x) + cap.representative * (cap.y * fac)
        if f.domain.contains(qq):
            ref = max(ref, f.eval_unchecked(qq).norm())
    scale = max(b.norm(), c.norm(), ref, 1e-30)
    if b.norm() <= tol * scale and c.norm() <= tol * scale:
        return "cap", None
    if c.norm() <= tol * scale:
        return "none", None
    jstar = _near_unit(d.null_unit(cap.y), 1e-7)
    if jstar is None or not cap.contains_unit(jstar):
        return "none", None
    return "point", cap.point(jstar)


def _sphere_min(f: SliceFunction, dom, x: float, y: float) -> float:
    """min over the sphere x+yS of |f|, from the spherical-data closed form:
    f = b + Jc on the sphere, so min_J |b + Jc| = |c| hypot(re b/c, |im b/c|-1)."""
    if y <= 1e-3:
        return np.inf
    for u in WHOLE_SPHERE_PROBES:
        q = Quaternion(x) + u * y
        if dom.contains(q) and f.domain.contains(q):
            d = spherical_data(f, q)
            c = d.derivative * y
            if c.norm() < 1e-300:
                return d.value.norm()
            u = d.null_unit(y)
            return c.norm() * float(np.hypot(u.re(), u.im_norm() - 1.0))
    return np.inf


def zero_scan(f: SliceFunction, dom=None, resolution: float = 0.05,
              units=None, spheres=None) -> ZeroReport:
    """Numeric zero report: lattice scan of |f| over sampled slices with
    Newton polish, plus the cap solve on any sphere the scan touches."""
    dom = dom or f.domain
    report = ZeroReport()
    rng = np.random.default_rng(7)
    if units is None:
        units = []
        for _ in range(6):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            units.append(Quaternion(0.0, *v))
    (wlo, whi) = dom.bbox[0]
    ymax = max(abs(dom.bbox[i][0]) + abs(dom.bbox[i][1]) for i in (1, 2, 3))
    wlo, whi = max(wlo, -10.0), min(whi, 10.0)
    ymax = min(ymax, 10.0)
    found = []
    from .quaternion import embed_complex
    xs = np.arange(wlo, whi + resolution, resolution * 10)
    ys = np.arange(resolution, ymax, resolution * 10)
    grid = (xs[:, None] + 1j * ys[None, :]).ravel()
    for unit in units:
        # the lattice points of the unit's slice in dom: one clearance call
        for zz in grid[clears(slice_clearance(dom, grid, unit))]:
            v = f.eval_unchecked(embed_complex(complex(zz), unit)).norm()
            if v < 0.5:
                z = newton_polish_on_slice(f, complex(zz), unit)
                q2 = embed_complex(z, unit)
                if dom.contains(q2) and f.eval_unchecked(q2).norm() <= 1e-9:
                    found.append(q2)
    spheres = list(spheres or [])
    for q in found:
        sc = slice_decompose(q)
        if sc.unit is not None:
            spheres.append((sc.x, sc.y))
    # sphere candidates from the closed-form over-sphere minimum: this sees
    # zeros whose slice is not among the sampled units
    from scipy.optimize import minimize as _minimize
    mvals = []
    for x in xs:
        for y in ys:
            m = _sphere_min(f, dom, float(x), float(y))
            if np.isfinite(m):
                mvals.append((m, float(x), float(y)))
    mvals.sort()
    typical = mvals[len(mvals) // 2][0] if mvals else 1.0
    accept = 1e-9 * (1.0 + typical)
    for m, x, y in mvals[:12]:
        if m > max(1.0, typical):
            break
        res = _minimize(lambda v: _sphere_min(f, dom, v[0], v[1]),
                        np.array([x, y]), method="Nelder-Mead",
                        options={"xatol": 1e-12, "fatol": 0.0, "maxiter": 600})
        if res.fun <= accept:
            sx, sy = float(res.x[0]), float(res.x[1])
            if all(np.hypot(sx - px, sy - py) > 1e-6 for (px, py) in spheres):
                spheres.append((sx, sy))
    done_caps = set()
    for (x, y) in spheres:
        for u in WHOLE_SPHERE_PROBES:
            q = Quaternion(x) + u * y
            if not dom.contains(q):
                continue
            cap = cap_component(dom, q)
            key = (round(x, 9), round(y, 9), cap.index)
            if key in done_caps:
                continue
            done_caps.add(key)
            kind, pt = cap_zeros(f, cap)
            if kind == "cap":
                if all(np.hypot(x - s.x, y - s.y) > 1e-6
                       for s in report.spherical):
                    report.spherical.append(
                        SphericalZero(x, y, cap, 0, "scanned"))
            elif kind == "point":
                if all((pt - z.point).norm() > 1e-6 for z in report.isolated):
                    report.isolated.append(
                        IsolatedZero(pt, cap, 1, 1, "scanned"))
    # real-axis zeros
    xr = np.arange(wlo, whi, resolution)
    for x in xr[clears(slice_clearance(dom, xr, QI))]:
        q = Quaternion(x)
        if f.eval_unchecked(q).norm() < 1e-9:
            report.isolated.append(IsolatedZero(q, None, 1, 1, "scanned"))
    return report


WHOLE_SPHERE_PROBES = [
    Quaternion(0, 1, 0, 0), Quaternion(0, -1, 0, 0),
    Quaternion(0, 0, 1, 0), Quaternion(0, 0, -1, 0),
    Quaternion(0, 0, 0, 1), Quaternion(0, 0, 0, -1),
    Quaternion(0, 0.5773502691896258, 0.5773502691896258, 0.5773502691896258),
    Quaternion(0, -0.5773502691896258, 0.5773502691896258, -0.5773502691896258),
]
