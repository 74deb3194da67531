"""Geometry of slice domains.

A slice domain is a connected open subset of H that meets the real axis and
whose intersection with every slice L_I is a planar domain. On non-symmetric
domains the sphere x+yS can meet the domain in several connected components
("caps"); all the cap machinery lives here.

Domains are predicate-based: a DomainSpec carries a membership test plus
optional analytic hooks (signed boundary clearance, a closed-form cap
structure) that sharpen the generic grid algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import (CapTooSmall, EmptyInput, NotInDomain, OnRealAxis,
                     ParamOutOfRange)
from .quaternion import Quaternion, rotate_unit, same_slice, slice_decompose

BOUNDARY_TOL = 1e-9
# angle by which BandCap.second_unit keeps its unit inside the cap collar:
# off the boundary, so a contour on the second unit's slice keeps its radius
SECOND_UNIT_MARGIN = math.pi / 360.0
# flood fills each DomainSpec keeps in its LRU _cap_cache
CAP_CACHE_SIZE = 4


@dataclass
class DomainSpec:
    """Membership predicate + metadata for a slice domain.

    contains: Quaternion -> bool, the membership predicate.
    bbox: ((w-, w+), (x-, x+), (y-, y+), (z-, z+)) bounding intervals.
    label: human-readable name.
    symmetric: True when the domain is axially symmetric (every sphere it
        meets is contained whole, so each sphere is a single cap).
    boundary_distance: optional Quaternion -> float, a lower bound on the
        distance to the domain boundary (used as a collar by the cap flood
        fill; domains with razor-thin excluded sets need it).
    cap_structure: optional (x, y) -> list of cap descriptors, a closed-form
        replacement for the grid flood fill.
    sphere_clearance: optional (x, y, units (N,3) array) -> float array, the
        boundary_distance of every x + y*unit at once; the flood fill then
        makes one call per sphere instead of one per grid vertex.
    """

    contains: object
    bbox: tuple
    label: str = ""
    symmetric: bool = False
    boundary_distance: object = None
    cap_structure: object = None
    sphere_clearance: object = None
    # flood fills by (x, y, level), least recently used first
    _cap_cache: dict = field(default_factory=dict, repr=False)

    def __contains__(self, q: Quaternion) -> bool:
        return bool(self.contains(q))

    def require(self, q: Quaternion):
        if not self.contains(q):
            raise NotInDomain("%r is not in domain %s" % (q, self.label or "?"))


@dataclass
class CapId:
    """A connected component of (x+yS) ∩ Ω, identified by sphere and index."""

    x: float
    y: float
    index: int
    representative: Quaternion
    _resolver: object = field(default=None, repr=False, compare=False)

    def contains_unit(self, unit: Quaternion) -> bool:
        return self._resolver.contains_unit(unit)

    def second_unit(self, unit: Quaternion) -> Quaternion:
        """A cap member far from `unit`, for well-conditioned unit pairs."""
        return self._resolver.second_unit(unit)

    def sample_units(self, n: int, rng=None) -> list:
        return self._resolver.sample_units(n, rng)

    def point(self, unit: Quaternion) -> Quaternion:
        return Quaternion(self.x) + unit * self.y

    def to_json(self):
        return {"x": self.x, "y": self.y, "index": self.index,
                "representative": self.representative.to_json()}


class WholeSphereCap:
    """Resolver for symmetric domains: the cap is the whole sphere."""

    def contains_unit(self, unit):
        return True

    def second_unit(self, unit):
        return -unit

    def sample_units(self, n, rng=None):
        rng = rng or np.random.default_rng(0)
        v = rng.normal(size=(n, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        return [Quaternion(0.0, *row) for row in v]


class BandCap:
    """Resolver for caps of the form {J : |J - axis| < chord} or its complement."""

    def __init__(self, axis: Quaternion, chord: float, inside: bool,
                 collar: float = BOUNDARY_TOL):
        self.axis = axis
        self.chord = chord
        self.inside = inside
        self.collar = collar

    def _dist(self, unit):
        return (unit - self.axis).norm()

    def contains_unit(self, unit):
        d = self._dist(unit)
        if self.inside:
            return d < self.chord - self.collar
        return d > self.chord + self.collar

    def second_unit(self, unit):
        # the in-cap unit farthest from `unit`: -unit if the cap holds it,
        # else the collar point on the great circle through axis and unit,
        # on the far side of the axis, pulled SECOND_UNIT_MARGIN into the cap
        # (half the cap's angular room when that is smaller)
        k = -unit
        if not self.contains_unit(k):
            alpha = 2.0 * math.asin(min(0.5 * self.chord, 1.0))
            room = alpha if self.inside else math.pi - alpha
            pull = min(SECOND_UNIT_MARGIN, 0.5 * room)
            ang = alpha - pull if self.inside else alpha + pull
            k = rotate_unit(self.axis, unit, -ang)
        if not self.contains_unit(k) or (k - unit).norm() <= 1e-6:
            raise CapTooSmall("no second unit found in cap")
        return k

    def sample_units(self, n, rng=None):
        rng = rng or np.random.default_rng(0)
        out = []
        while len(out) < n:
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            k = Quaternion(0.0, *v)
            if self.contains_unit(k):
                out.append(k)
        return out


class GridCap:
    """Resolver backed by a flood-filled icosphere component."""

    def __init__(self, verts: np.ndarray, labels: np.ndarray, comp: int,
                 edge: float):
        self.verts = verts
        self.labels = labels
        self.comp = comp
        self.edge = edge
        self._members = verts[labels == comp]

    def contains_unit(self, unit):
        v = np.array([unit.x, unit.y, unit.z])
        d = np.linalg.norm(self.verts - v, axis=1)
        i = int(np.argmin(d))
        return self.labels[i] == self.comp and d[i] <= 2.0 * self.edge

    def second_unit(self, unit):
        v = np.array([unit.x, unit.y, unit.z])
        d = np.linalg.norm(self._members - v, axis=1)
        i = int(np.argmax(d))
        if d[i] < 1e-6:
            raise CapTooSmall("cap has no second grid unit")
        m = self._members[i]
        return Quaternion(0.0, *m)

    def sample_units(self, n, rng=None):
        rng = rng or np.random.default_rng(0)
        idx = rng.choice(len(self._members), size=min(n, len(self._members)),
                         replace=len(self._members) < n)
        return [Quaternion(0.0, *self._members[i]) for i in idx]


# ---------------------------------------------------------------------------
# Icosphere geodesic grid

_ICO_CACHE = {}


def icosphere(level: int):
    """Subdivided icosahedron: (vertices (N,3) unit, edges (M,2) index pairs)."""
    if level in _ICO_CACHE:
        return _ICO_CACHE[level]
    t = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array([
        (-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
        (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
        (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1)], dtype=float)
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = np.array([
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1)])
    for _ in range(level):
        edges = np.vstack([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
        edges.sort(axis=1)
        uniq, inverse = np.unique(edges, axis=0, return_inverse=True)
        mids = verts[uniq[:, 0]] + verts[uniq[:, 1]]
        mids /= np.linalg.norm(mids, axis=1)[:, None]
        mid_idx = len(verts) + np.arange(len(uniq))
        verts = np.vstack([verts, mids])
        n = len(faces)
        m01 = mid_idx[inverse[:n]]
        m12 = mid_idx[inverse[n:2 * n]]
        m20 = mid_idx[inverse[2 * n:]]
        faces = np.vstack([
            np.stack([faces[:, 0], m01, m20], axis=1),
            np.stack([faces[:, 1], m12, m01], axis=1),
            np.stack([faces[:, 2], m20, m12], axis=1),
            np.stack([m01, m12, m20], axis=1)])
    edges = np.vstack([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    edges.sort(axis=1)
    edges = np.unique(edges, axis=0)
    _ICO_CACHE[level] = (verts, edges)
    return verts, edges


def _level_for_step(angular_step_deg: float) -> int:
    # the icosahedron edge subtends ~63.435 degrees; each subdivision halves it
    lvl = 0
    edge = 63.435
    while edge > angular_step_deg and lvl < 8:
        edge /= 2.0
        lvl += 1
    return lvl


def cap_component(dom: DomainSpec, p: Quaternion,
                  angular_step: float = 0.5) -> CapId:
    """The cap (connected component of (x+yS) ∩ Ω) containing p.

    angular_step is in degrees and controls the geodesic grid resolution of
    the generic flood-fill path; domains exposing a closed-form cap_structure
    bypass the grid entirely.
    """
    sc = slice_decompose(p)
    if sc.unit is None:
        raise OnRealAxis("caps are defined off the real axis")
    dom.require(p)
    x, y = sc.x, sc.y

    if dom.cap_structure is not None:
        for idx, resolver in enumerate(dom.cap_structure(x, y)):
            if resolver.contains_unit(sc.unit):
                return CapId(x, y, idx, sc.unit, resolver)
        raise NotInDomain("unit not in any cap of the sphere")

    if dom.symmetric:
        return CapId(x, y, 0, sc.unit, WholeSphereCap())

    level = _level_for_step(angular_step)
    key = (round(x, 12), round(y, 12), level)
    cache = dom._cap_cache
    fill = cache.pop(key, None)
    if fill is None:
        fill = _flood_fill(dom, x, y, level)
    cache[key] = fill
    if len(cache) > CAP_CACHE_SIZE:
        del cache[next(iter(cache))]
    verts, labels, edge = fill

    v = np.array([sc.unit.x, sc.unit.y, sc.unit.z])
    d = np.linalg.norm(verts - v, axis=1)
    order = np.argsort(d)
    comp = -1
    for i in order[:12]:
        if labels[i] >= 0 and d[i] <= 2.0 * edge:
            comp = labels[i]
            break
    if comp < 0:
        raise CapTooSmall("no grid vertex of the cap near the representative")
    return CapId(x, y, int(comp), sc.unit, GridCap(verts, labels, comp, edge))


def _flood_fill(dom: DomainSpec, x: float, y: float, level: int):
    verts, edges = icosphere(level)
    edge_len = float(np.linalg.norm(verts[edges[0, 0]] - verts[edges[0, 1]]))

    if dom.sphere_clearance is not None:
        member = dom.sphere_clearance(x, y, verts) > y * edge_len
    else:
        member = np.fromiter(
            (dom.contains(Quaternion(x, y * v[0], y * v[1], y * v[2]))
             for v in verts), dtype=bool, count=len(verts))
        if dom.boundary_distance is not None:
            clear = np.fromiter(
                (dom.boundary_distance(Quaternion(x, y * v[0], y * v[1],
                                                  y * v[2]))
                 if m else -1.0 for v, m in zip(verts, member)),
                dtype=float, count=len(verts))
            member &= clear > y * edge_len

    labels = np.full(len(verts), -1, dtype=int)
    idx = np.flatnonzero(member)
    if len(idx) == 0:
        raise CapTooSmall("no grid vertex is inside the domain on this sphere")
    keep = member[edges[:, 0]] & member[edges[:, 1]]
    e = edges[keep]
    remap = np.full(len(verts), -1)
    remap[idx] = np.arange(len(idx))
    rows, cols = remap[e[:, 0]], remap[e[:, 1]]
    graph = coo_matrix((np.ones(len(rows)), (rows, cols)),
                       shape=(len(idx), len(idx)))
    _, comp = connected_components(graph, directed=False)
    # canonical component numbering: by smallest vertex index
    firsts = {}
    for vi, c in zip(idx, comp):
        firsts.setdefault(c, vi)
    order = sorted(firsts, key=firsts.get)
    rename = {c: i for i, c in enumerate(order)}
    labels[idx] = [rename[c] for c in comp]
    return verts, labels, edge_len


# ---------------------------------------------------------------------------
# The Γ(C, ε) tube of a slice curve

def gamma_tube(samples, eps: float) -> DomainSpec:
    """Tube around a sampled curve C inside one closed half-slice.

    Membership is the union of balls B(p, (|im p|/|im q0|)·eps) over the
    non-real samples (q0 the sample of largest |im|) and B(p, eps) over the
    real samples. Contains C, and meets R whenever C does.
    """
    samples = list(samples)
    if not samples:
        raise EmptyInput("gamma_tube needs at least one sample")
    if eps <= 0:
        raise ParamOutOfRange("eps must be > 0")
    for a in samples[1:]:
        if not same_slice(samples[0], a, 1e-9):
            raise ParamOutOfRange("samples must lie in one slice")
    pts = np.array([p.components() for p in samples])
    ims = np.linalg.norm(pts[:, 1:], axis=1)
    ymax = float(ims.max())
    radii = np.where(ims > 0, (ims / ymax if ymax > 0 else 0.0) * eps, eps)

    def clearance(q: Quaternion) -> float:
        d = np.linalg.norm(pts - np.array(q.components()), axis=1)
        return float((radii - d).max())

    lo = pts.min(axis=0) - eps
    hi = pts.max(axis=0) + eps
    return DomainSpec(
        contains=lambda q: clearance(q) > 0.0,
        bbox=tuple(zip(lo, hi)),
        label="gamma_tube(eps=%g)" % eps,
        boundary_distance=clearance)


# ---------------------------------------------------------------------------
# σ / τ / ω distances (convergence geometry of regular Laurent series)

def sigma_tau_omega(q: Quaternion, p: Quaternion):
    dre = q.re() - p.re()
    yq, yp = q.im_norm(), p.im_norm()
    omega = math.sqrt(dre * dre + (yq + yp) ** 2)
    if same_slice(q, p):
        d = (q - p).norm()
        return d, d, omega
    tau = math.sqrt(dre * dre + (yq - yp) ** 2)
    return omega, tau, omega


# ---------------------------------------------------------------------------
# Cassini regions |(q-x0)^2 + y0^2| between r1^2 and r2^2

@dataclass(frozen=True)
class CassiniRegion:
    x0: float
    y0: float
    r1: float
    r2: float

    def __post_init__(self):
        if self.r1 < 0 or self.r2 <= self.r1:
            raise ParamOutOfRange("need 0 <= r1 < r2")

    def modulus(self, q: Quaternion) -> float:
        v = q * q - q * (2.0 * self.x0) + Quaternion(self.x0 ** 2 + self.y0 ** 2)
        return v.norm()

    def contains(self, q: Quaternion) -> bool:
        m = self.modulus(q)
        return self.r1 ** 2 < m < self.r2 ** 2

    def to_domain(self) -> DomainSpec:
        r = self.r2 + abs(self.x0) + abs(self.y0) + 1.0
        return DomainSpec(contains=self.contains,
                          bbox=((-r, r),) * 4,
                          label="cassini(%g,%g;%g,%g)" % (self.x0, self.y0,
                                                          self.r1, self.r2),
                          symmetric=True)


# ---------------------------------------------------------------------------
# Presets

def ball(center: float = 0.0, radius: float = 1.0) -> DomainSpec:
    """Euclidean ball around a real center (axially symmetric slice domain)."""
    c = float(center)
    r = float(radius)

    def bd(q):
        return r - (q - Quaternion(c)).norm()

    return DomainSpec(contains=lambda q: bd(q) > 0.0,
                      bbox=((c - r, c + r), (-r, r), (-r, r), (-r, r)),
                      label="ball(%g,%g)" % (c, r),
                      symmetric=True,
                      boundary_distance=bd)


def whole_space(limit: float = 1e6) -> DomainSpec:
    return DomainSpec(contains=lambda q: q.norm() < limit,
                      bbox=((-limit, limit),) * 4,
                      label="H", symmetric=True,
                      boundary_distance=lambda q: limit - q.norm())


def preset(name: str, **kw) -> DomainSpec:
    if name == "ball":
        return ball(kw.get("center", 0.0), kw.get("radius", 1.0))
    if name == "cassini":
        return CassiniRegion(kw.get("x0", 0.0), kw.get("y0", 1.0),
                             kw.get("r1", 0.0), kw.get("r2", 1.0)).to_domain()
    if name == "tube":
        samples = [Quaternion.from_json(s) for s in kw["samples"]]
        return gamma_tube(samples, kw.get("eps", 0.5))
    if name == "douren":
        from .douren import DourenConfig, omega_domain
        return omega_domain(DourenConfig())
    raise ParamOutOfRange("unknown domain preset %r" % name)
