"""Cauchy-type integral representations on slice domains.

Four layers:

  * Contour          -- closed piecewise-circular curves in a single slice L_I
  * nc_line_integral -- the noncommutative line integral  ∫ g(s) ds f(s)
                        computed through the four-term complex split
  * slicewise_cauchy / local_cauchy / volume_cauchy -- reproduction formulas

The local formula reconstructs f at points OFF the slice carrying the
contour, using only boundary data on L_I. When the symmetric set U is not
contained in the (possibly non-symmetric) domain of f, boundary values are
synthesized cap-locally from spherical data at a reference unit J0:

    f~(x+yJ) = f°_s(x+yJ0) + yJ f'_s(x+yJ0),

which is valid for slice units J within a small cone |J-J0| < eps; the code
bisects eps downward from the cap's angular radius until the synthesized
data agrees with f wherever both are defined.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .algebra import stem_values
from .domains import (BOUNDARY_TOL, cap_component, require_slice_points,
                      slice_clearance)
from .errors import (BadUnitChoice, OpenContour, ParamOutOfRange,
                     ProbeOutside, ProbeOutsideValidated)
from .quaternion import (Quaternion, emb_arr, embed_complex, perp_unit,
                         project_to_slice, qconj_arr, qinv_arr, qmul_arr,
                         rotate_unit, row_units, slice_decompose)
from .slicefn import SliceFunction

_CLOSE_TOL = 1e-12


# ---------------------------------------------------------------------------
# Quadrature: composite Gauss-Legendre panels on [0, 1]

# the 16-node Gauss-Legendre reference panel on [0, 1]
_PANEL_X, _PANEL_W = np.polynomial.legendre.leggauss(16)
_PANEL_X = 0.5 * (_PANEL_X + 1.0)
_PANEL_W = 0.5 * _PANEL_W


def _panel_rule(total_nodes: int):
    """Nodes/weights of a composite 16-node Gauss-Legendre rule on [0,1]."""
    panels = max(1, int(round(total_nodes / 16)))
    ts = np.concatenate([(k + _PANEL_X) / panels for k in range(panels)])
    ws = np.tile(_PANEL_W / panels, panels)
    return ts, ws


def _check_node_counts(**counts) -> None:
    """ParamOutOfRange unless every count is an integer >= 1."""
    for name, n in counts.items():
        if not (isinstance(n, numbers.Integral) and not isinstance(n, bool)
                and n >= 1):
            raise ParamOutOfRange("%s must be an integer >= 1: %r"
                                  % (name, n))


def pairwise_sum(a: np.ndarray) -> np.ndarray:
    """Deterministic pairwise summation along axis 0."""
    a = np.asarray(a)
    while a.shape[0] > 1:
        n = a.shape[0]
        half = n // 2
        head = a[:half] + a[half:2 * half]
        a = head if n % 2 == 0 else np.concatenate([head, a[-1:]], axis=0)
    return a[0]


# ---------------------------------------------------------------------------
# Contours

@dataclass(frozen=True)
class Arc:
    """Circular arc t -> center + radius * exp(i*(a0 + t*(a1-a0))) in L_I."""

    center: complex
    radius: float
    a0: float = 0.0
    a1: float = 2.0 * math.pi

    def point(self, t: np.ndarray) -> np.ndarray:
        ang = self.a0 + t * (self.a1 - self.a0)
        return self.center + self.radius * np.exp(1j * ang)

    def velocity(self, t: np.ndarray) -> np.ndarray:
        ang = self.a0 + t * (self.a1 - self.a0)
        return 1j * (self.a1 - self.a0) * self.radius * np.exp(1j * ang)


@dataclass(frozen=True)
class Contour:
    """Closed curve(s) in the slice L_unit, oriented, with a node budget.

    Pieces are circles or full-turn arcs; orientation is carried by the
    sign of (a1 - a0) of each piece. Each piece must close on itself
    within 1e-12.
    """

    unit: Quaternion
    pieces: tuple = field(default_factory=tuple)
    nodes: int = 256

    def __post_init__(self):
        for p in self.pieces:
            gap = abs(p.point(np.array([0.0]))[0] - p.point(np.array([1.0]))[0])
            if gap > _CLOSE_TOL:
                raise OpenContour("contour piece endpoints differ by %g" % gap)

    @classmethod
    def circle(cls, center: complex, radius: float, unit: Quaternion,
               nodes: int = 256, orientation: int = +1) -> "Contour":
        if orientation >= 0:
            arc = Arc(center, radius)
        else:
            arc = Arc(center, radius, 2.0 * math.pi, 0.0)
        return cls(unit=unit, pieces=(arc,), nodes=nodes)

    @classmethod
    def circles(cls, specs, unit: Quaternion, nodes: int = 256) -> "Contour":
        """specs: iterable of (center, radius, orientation)."""
        pieces = []
        for center, radius, orient in specs:
            if orient >= 0:
                pieces.append(Arc(center, radius))
            else:
                pieces.append(Arc(center, radius, 2.0 * math.pi, 0.0))
        return cls(unit=unit, pieces=tuple(pieces), nodes=nodes)

    def samples(self):
        """(points, weighted velocities) for all pieces, concatenated."""
        t, w = _panel_rule(self.nodes)
        pts, dvs = [], []
        for p in self.pieces:
            pts.append(p.point(t))
            dvs.append(p.velocity(t) * w)
        return np.concatenate(pts), np.concatenate(dvs)

    def winding(self, z: complex) -> int:
        s, wds = self.samples()
        acc = pairwise_sum(wds / (s - z))
        return int(round((acc / (2j * math.pi)).real))


# ---------------------------------------------------------------------------
# Noncommutative line integral

def _split_left(vals: np.ndarray, I: Quaternion, J: Quaternion):
    """f = F + G J with F, G : L_I-valued, as complex slice coordinates."""
    IJ = I * J
    a = vals[:, 0]
    b = vals[:, 1] * I.x + vals[:, 2] * I.y + vals[:, 3] * I.z
    c = vals[:, 1] * J.x + vals[:, 2] * J.y + vals[:, 3] * J.z
    d = vals[:, 1] * IJ.x + vals[:, 2] * IJ.y + vals[:, 3] * IJ.z
    return a + 1j * b, c + 1j * d


def _split_right(vals: np.ndarray, I: Quaternion, J: Quaternion):
    """g = H + J K with H, K : L_I-valued. Uses JI = -IJ."""
    F, G = _split_left(vals, I, J)
    return F, G.conjugate()


def nc_line_integral(g, contour: Contour, f, j_unit: Quaternion | None = None
                     ) -> Quaternion:
    """∫_γ g(s) ds f(s) over a closed contour in L_I.

    g and f are callables on quaternions in L_I. The integral is the
    four-term split against an orthogonal unit J (f = F + GJ, g = H + JK):

        ∫ H ds F  +  ∫ H ds G · J  +  J ∫ K ds F  +  J ∫ K ds G · J,

    each term a complex line integral inside the commutative plane L_I.
    """
    I = contour.unit
    J = j_unit if j_unit is not None else perp_unit(I)
    dot = I.x * J.x + I.y * J.y + I.z * J.z
    if abs(dot) > 1e-9:
        raise BadUnitChoice("the split unit must be orthogonal to the slice")
    s, wds = contour.samples()
    F, G = _split_left(_eval_on_slice(f, s, I), I, J)
    H, K = _split_right(_eval_on_slice(g, s, I), I, J)
    hf = pairwise_sum(H * wds * F)
    hg = pairwise_sum(H * wds * G)
    kf = pairwise_sum(K * wds * F)
    kg = pairwise_sum(K * wds * G)
    e = lambda z: embed_complex(z, I)
    return e(hf) + e(hg) * J + J * e(kf) + J * e(kg) * J


# ---------------------------------------------------------------------------
# Slicewise Cauchy formula

def slicewise_cauchy(f, I: Quaternion, contour: Contour, z) -> Quaternion:
    """f(z) = (2πI)^{-1} ∫_{∂U_I} ds (s-z)^{-1} f(s) for z interior in L_I."""
    if isinstance(z, Quaternion):
        zc = project_to_slice(z, I)
    else:
        zc = complex(z)
    if contour.winding(zc) != 1:
        raise ProbeOutside("probe %s is not enclosed with winding +1" % zc)
    s, wds = contour.samples()
    vals = _eval_on_slice(f, s, I)
    # kernel and ds live in L_I; left-multiply the sampled values
    terms = qmul_arr(emb_arr(wds / (s - zc), I), vals)
    acc = Quaternion(*pairwise_sum(terms))
    return (I * (2.0 * math.pi)).inverse() * acc


def _eval_on_slice(f, s: np.ndarray, I) -> np.ndarray:
    """Values of f at x + y I for s = x + iy as (N, 4): one membership call
    and one evaluation call for a SliceFunction. I is a Quaternion or an
    (N, 3) array with one unit per row."""
    if isinstance(f, SliceFunction):
        require_slice_points(f.domain, s, I)
    if hasattr(f, "eval_slice_many"):
        return np.atleast_2d(f.eval_slice_many(s, I))
    return np.array([f(embed_complex(complex(z), u)).components()
                     for z, u in zip(s, row_units(I, s.size))])


# ---------------------------------------------------------------------------
# Symmetric regions (the U of the local formulas)

class SymmetricRegion:
    """A bounded circular (symmetric) open set, described in half-plane
    coordinates (x, y) with y >= 0: q = x + y J belongs to U iff (x, |y|)
    is in the planar region. Slices U_I are symmetric about the real axis.
    """

    def __init__(self, disks, label=""):
        # disks: list of (center complex with im >= 0, radius)
        self.disks = list(disks)
        self.label = label

    @classmethod
    def ball(cls, center_x: float, radius: float) -> "SymmetricRegion":
        return cls([(complex(center_x, 0.0), radius)],
                   label="B(%g,%g)" % (center_x, radius))

    @classmethod
    def sphere_shell(cls, x0: float, y0: float, rho: float) -> "SymmetricRegion":
        """Symmetric annular set: tube of radius rho around the sphere
        x0 + y0 S (slice trace: disks around x0 ± y0 i)."""
        if not (0.0 < rho < y0):
            raise ValueError("need 0 < rho < y0 for a real-axis-free tube")
        return cls([(complex(x0, y0), rho)],
                   label="tube(%g+%gS,%g)" % (x0, y0, rho))

    def planar_contains(self, x: float, y: float) -> bool:
        z = complex(x, abs(y))
        return any(abs(z - c) < r or abs(z.conjugate() - c) < r
                   for c, r in self.disks)

    def contains(self, q: Quaternion) -> bool:
        return self.planar_contains(q.re(), q.im_norm())

    def slice_contour(self, I: Quaternion, nodes: int = 256) -> Contour:
        """∂U_I as a positively oriented contour (mirror disks included)."""
        specs = []
        for c, r in self.disks:
            if c.imag > 0.0:
                specs.append((c, r, +1))
                specs.append((c.conjugate(), r, +1))
            else:
                specs.append((c, r, +1))
        return Contour.circles(specs, I, nodes)

    def boundary_upper_sample(self):
        """One representative boundary point (x, y) with y > 0."""
        c, r = self.disks[0]
        if c.imag > 0.0:
            return c.real, c.imag + 0.5 * r
        return c.real + 0.2 * r, 0.8 * r


# ---------------------------------------------------------------------------
# Local Cauchy formula (slice-boundary data, off-slice reconstruction)

def _kernel_terms(s: np.ndarray, wds: np.ndarray, I: Quaternion,
                  q: Quaternion, vals: np.ndarray) -> np.ndarray:
    """(s-q)^{-*} (2πI)^{-1} ds f~(s) at each node, as (N,4) rows."""
    n = s.size
    sq = emb_arr(s, I)
    # (|s|^2 - 2 Re(s) q + q^2) has real coefficients: evaluate directly
    q2 = (q * q).components()
    head = np.empty((n, 4))
    head[:] = q2
    head[:, 0] += np.abs(s) ** 2
    head -= (2.0 * s.real)[:, None] * np.array(q.components())
    kern = qmul_arr(qinv_arr(head), qconj_arr(sq) - np.array(q.components()))
    pref = emb_arr(wds / (2.0 * math.pi), I)
    pref = qmul_arr(pref, np.tile((I.inverse()).components(), (n, 1)))
    return qmul_arr(qmul_arr(kern, pref), vals)


def local_cauchy(f, I: Quaternion, U: SymmetricRegion, q: Quaternion,
                 j0: Quaternion | None = None, nodes: int = 1024,
                 tol: float = 1e-8) -> Quaternion:
    """Reconstruct f(q) from boundary data of U on the single slice L_I.

    With j0 = None, f must be defined on all of ∂U_I and the boundary data
    is f itself (valid for q anywhere in U when f lives on a symmetric
    domain containing the closure of U).

    With j0 given, boundary values are synthesized from cap spherical data
    at the reference unit j0, and q must lie in the validated cone
    |unit(q) - j0| < eps (or on the real axis inside U); eps is found by
    bisecting downward from the cap's angular radius.
    """
    _check_node_counts(nodes=nodes)
    if not U.contains(q):
        raise ProbeOutside("probe %r lies outside U" % (q,))
    contour = U.slice_contour(I, nodes)
    s, wds = contour.samples()

    if j0 is None:
        vals = _eval_on_slice(f, s, I)
    else:
        vals, eps = _synth_boundary(f, s, I, U, j0, tol)
        sc = slice_decompose(q)
        if sc.unit is not None and (sc.unit - j0).norm() >= eps:
            raise ProbeOutsideValidated(
                "probe unit is %.3g from the reference unit; validated cone "
                "has aperture %.3g" % ((sc.unit - j0).norm(), eps))
    terms = _kernel_terms(s, wds, I, q, vals)
    return Quaternion(*pairwise_sum(terms))


def _synth_boundary(f, s: np.ndarray, I: Quaternion, U: SymmetricRegion,
                    j0: Quaternion, tol: float):
    """Boundary data f~(x+yI) = f°_s(x+yj0) + yI f'_s(x+yj0), plus the
    validated cone aperture eps (bisected until cap-consistent).

    One stem call at j0 gives (b, c) at every x + |y| j0, after one
    clearance check of those points; then f~ = b + sign(y) I c.
    """
    xb, yb = U.boundary_upper_sample()
    cap = cap_component(f.domain, Quaternion(xb) + j0 * yb)
    zj = s.real + 1j * np.abs(s.imag)
    require_slice_points(f.domain, zj, j0)
    S = f.stems(zj, j0)
    # widest aperture the cap certifies at the representative point,
    # probed on the great circle through j0
    toward = perp_unit(j0)
    eps = 1.9
    for _ in range(40):
        Jp = rotate_unit(j0, toward, eps)
        if cap.contains_unit(Jp) and _data_consistent(f, s, S, Jp, tol):
            break
        eps *= 0.5
    signed = S.copy()
    signed[:, 1] *= np.sign(s.imag)[:, None]
    return stem_values(signed, I), eps


def _data_consistent(f, s: np.ndarray, S: np.ndarray, Jp: Quaternion,
                     tol: float) -> bool:
    """Check the synthesized data (stem rows S at j0) matches f on the
    slice L_Jp at a few boundary points of the upper half plane (the
    cap-consistency test driving the bisection): one membership call and
    one evaluation call. Each point is held to tol times the largest |f|
    so far (at least 1)."""
    idx = np.linspace(0, s.size - 1, 7).astype(int)
    upper = s[idx].imag > 1e-14
    z = s[idx][upper]
    if not np.all(slice_clearance(f.domain, z, Jp) > BOUNDARY_TOL):
        return False
    synth = stem_values(S[idx][upper], Jp)
    direct = np.atleast_2d(f.eval_slice_many(z, Jp))
    norms = np.linalg.norm(direct, axis=1)
    scale = np.maximum.accumulate(np.maximum(norms, 1.0))
    return bool(np.all(np.linalg.norm(synth - direct, axis=1) <= tol * scale))


# ---------------------------------------------------------------------------
# Volume Cauchy formula

def volume_cauchy(f, U: SymmetricRegion, q: Quaternion,
                  curve_nodes: int = 256, sphere_nodes: int = 590
                  ) -> Quaternion:
    """f(q) = ∫_{∂U} C(q,w) n(w) f(w) dσ_w over the 3-sphere boundary of a
    symmetric ball U = B(c, r), with C(q, x+yI) = (2πy)^{-2}[(q-x)^2+y^2]^{-1}
    (x - yI - q) and n the outer normal versor.

    Quadrature: product of a Gauss-Legendre rule on the half-circle angle
    (weight r^3 sin^2 θ) and a Gauss×uniform grid on the sphere of units.
    """
    _check_node_counts(curve_nodes=curve_nodes, sphere_nodes=sphere_nodes)
    if len(U.disks) != 1 or U.disks[0][0].imag != 0.0:
        raise ProbeOutside("the volume formula needs a symmetric ball")
    if not U.contains(q):
        raise ProbeOutside("probe %r lies outside U" % (q,))
    c, r = U.disks[0][0].real, U.disks[0][1]

    th, wth = _panel_rule(curve_nodes)
    th = th * math.pi
    wth = wth * math.pi
    units, wu = _unit_sphere_grid(sphere_nodes)

    qc = np.array(q.components())
    x = c + r * np.cos(th)
    y = r * np.sin(th)
    # scalar part of the kernel: (2πy)^{-2} [(q-x)^2 + y^2]^{-1}
    n = th.size
    qx = np.tile(qc, (n, 1))
    qx[:, 0] -= x
    sq = qmul_arr(qx, qx)
    sq[:, 0] += y ** 2
    scal = qinv_arr(sq) / (2.0 * math.pi * y[:, None]) ** 2
    area_w = (r ** 3) * np.sin(th) ** 2 * wth

    # one row per (unit, curve node), unit-major: w = x + y I at the unit
    nu = units.shape[0]
    rows_u = np.repeat(units, n, axis=0)
    w_pts = np.column_stack([np.tile(x, nu), np.tile(y, nu)[:, None] * rows_u])
    kern = qmul_arr(np.tile(scal, (nu, 1)), qconj_arr(w_pts) - qc)
    normal = (w_pts - np.array([c, 0.0, 0.0, 0.0])) / r
    fv = _eval_on_slice(f, np.tile(x + 1j * y, nu), rows_u)
    rows = qmul_arr(qmul_arr(kern, normal), fv) * np.tile(area_w, nu)[:, None]
    # each unit's nodes summed pairwise, then the units
    per_unit = pairwise_sum(rows.reshape(nu, n, 4).transpose(1, 0, 2))
    return Quaternion(*pairwise_sum(per_unit * wu[:, None]))


def _unit_sphere_grid(total: int):
    """Deterministic product grid on the unit 2-sphere of imaginary units:
    Gauss-Legendre in the polar cosine × uniform azimuth, weights summing
    to 4π. For total = 590 this is 10 polar × 59 azimuthal nodes."""
    npol = max(2, int(round(math.sqrt(total / 6.0))))
    naz = max(4, int(round(total / npol)))
    u, wp = np.polynomial.legendre.leggauss(npol)
    phi = 2.0 * math.pi * np.arange(naz) / naz
    su = np.sqrt(1.0 - u ** 2)
    pts = np.empty((npol * naz, 3))
    wts = np.empty(npol * naz)
    k = 0
    for i in range(npol):
        for j in range(naz):
            pts[k] = (su[i] * math.cos(phi[j]), su[i] * math.sin(phi[j]), u[i])
            wts[k] = wp[i] * (2.0 * math.pi / naz)
            k += 1
    return pts, wts
