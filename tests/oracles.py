"""Independent numeric oracles used by the test suite.

The main one is a polyline-tracing oracle for the branch argument used by
the branch-cut fixtures: instead of the library's closed-form region
classification, it routes a cut-avoiding polyline from the positive real
axis to the probe and accumulates principal argument increments along it.
The two implementations share no code paths, so agreement is meaningful.
"""

import cmath
import math
from heapq import heappop, heappush

import numpy as np

ORIGIN_CLEARANCE = 0.25   # keep polylines away from w = 0 (arg conditioning)
_EPS = 1e-12


# ---------------------------------------------------------------------------
# closed-form segment/obstacle intersection tests (w-plane coordinates)

def _crosses_real_ray(a: complex, b: complex, lo: float, hi: float) -> bool:
    """Does segment a->b cross the real-axis interval [lo, hi]?"""
    va, vb = a.imag, b.imag
    if abs(va) < _EPS and abs(vb) < _EPS:
        # collinear with the axis: overlap test
        u1, u2 = sorted((a.real, b.real))
        return u2 >= lo - _EPS and u1 <= hi + _EPS
    if va * vb > 0.0:
        return False
    u = a.real + (b.real - a.real) * (va / (va - vb)) if va != vb else a.real
    return lo - _EPS <= u <= hi + _EPS


def _crosses_halfline(a: complex, b: complex) -> bool:
    return _crosses_real_ray(a, b, -1e18, -2.0)


def _crosses_pocket(t: float, a: complex, b: complex) -> bool:
    """Does segment a->b hit the half-ellipse cut of parameter t?

    The cut is {-1 + cos(th) + i (1-2t) sin(th) : th in [0, pi]}; for
    t = 1/2 it degenerates to the real interval [-2, 0].
    """
    s = 1.0 - 2.0 * t
    if abs(s) < 1e-9:
        return _crosses_real_ray(a, b, -2.0, 0.0)
    # scale the imaginary part so the arc becomes the unit half circle
    ap = complex(a.real + 1.0, a.imag / s)
    bp = complex(b.real + 1.0, b.imag / s)
    d = bp - ap
    aa = abs(d) ** 2
    if aa < _EPS:
        return abs(abs(ap) - 1.0) < _EPS and ap.imag >= -_EPS
    bb = 2.0 * (ap.real * d.real + ap.imag * d.imag)
    cc = abs(ap) ** 2 - 1.0
    disc = bb * bb - 4.0 * aa * cc
    if disc < 0.0:
        return False
    r = math.sqrt(disc)
    for u in ((-bb - r) / (2.0 * aa), (-bb + r) / (2.0 * aa)):
        if -_EPS <= u <= 1.0 + _EPS:
            hit = ap + u * d
            if hit.imag >= -1e-9:   # the arc is the sin(th) >= 0 half
                return True
    return False


def _too_close_to_origin(a: complex, b: complex) -> bool:
    d = b - a
    L2 = abs(d) ** 2
    if L2 < _EPS:
        return abs(a) < ORIGIN_CLEARANCE
    u = max(0.0, min(1.0, -(a.real * d.real + a.imag * d.imag) / L2))
    return abs(a + u * d) < ORIGIN_CLEARANCE


def segment_clear(t: float, a: complex, b: complex) -> bool:
    return not (_crosses_halfline(a, b) or _crosses_pocket(t, a, b)
                or _too_close_to_origin(a, b))


# ---------------------------------------------------------------------------
# routing + accumulation

def _waypoints(w: complex):
    pts = []
    radii = (0.45, 0.8, 1.3, 2.2, 3.5, 5.0, max(6.0, 1.5 * abs(w)))
    for r in radii:
        for k in range(24):
            ang = 2.0 * math.pi * (k + 0.5) / 24.0
            pts.append(cmath.rect(r, ang))
    return pts


def trace_arg(t: float, w: complex) -> float:
    """Continuous argument of w on the cut plane of parameter t, normalized
    to 0 on the positive real axis, by polyline tracing."""
    if abs(w) < ORIGIN_CLEARANCE:
        raise ValueError("probe too close to the origin for tracing")
    start = complex(abs(w), 0.0)
    nodes = [start, w] + _waypoints(w)
    n = len(nodes)
    # Dijkstra on the visibility graph (euclidean edge lengths keep the
    # route short, which keeps the accumulation well conditioned)
    dist = [math.inf] * n
    prev = [-1] * n
    dist[0] = 0.0
    heap = [(0.0, 0)]
    seen = [False] * n
    while heap:
        d, i = heappop(heap)
        if seen[i]:
            continue
        seen[i] = True
        if i == 1:
            break
        for j in range(n):
            if seen[j]:
                continue
            step = abs(nodes[i] - nodes[j])
            if step > 4.5:   # sparse graph: only reasonably short hops
                continue
            if dist[i] + step < dist[j] and segment_clear(t, nodes[i], nodes[j]):
                dist[j] = dist[i] + step
                prev[j] = i
                heappush(heap, (dist[j], j))
    if not seen[1] and prev[1] < 0:
        raise ValueError("no cut-avoiding route to %r" % (w,))
    path = []
    i = 1
    while i >= 0:
        path.append(nodes[i])
        i = prev[i]
    path.reverse()

    acc = 0.0
    for a, b in zip(path, path[1:]):
        steps = max(1, int(math.ceil(abs(b - a) / 0.02)))
        zs = [a + (b - a) * (k / steps) for k in range(steps + 1)]
        for z0, z1 in zip(zs, zs[1:]):
            inc = cmath.phase(z1 / z0)
            if abs(inc) >= 0.5 * math.pi:
                raise ValueError("turn increment too large; refine the route")
            acc += inc
    return acc


def trace_log(t: float, w: complex) -> complex:
    """log|w| + i * traced branch argument."""
    return complex(math.log(abs(w)), trace_arg(t, w))


# ---------------------------------------------------------------------------
# distance to the arc cut, from every critical point of the squared distance

def _arc_point(t: float, th: float) -> complex:
    return complex(-1.0 + math.cos(th), (1.0 - 2.0 * t) * math.sin(th))


def _arc_candidates(t: float, w: complex) -> list:
    """Both tips and every theta in [0, pi] where |arc(theta) - w|^2 is
    stationary, each root also after a few Newton steps in theta.

    With z = e^{i theta}, 4i z^2 times half the theta-derivative of the
    squared distance is a quartic in z. np.roots drops its leading zero in
    the circle case t in {0, 1}.
    """
    b = 1.0 - 2.0 * t
    x0, wi = w.real + 1.0, w.imag
    e = 1.0 - b * b
    roots = np.roots([-e, 2.0 * x0 - 2j * b * wi, 0.0,
                      -2.0 * x0 - 2j * b * wi, e])
    out = [0.0, math.pi]
    for z in roots:
        th = cmath.phase(z)
        if not 0.0 <= th <= math.pi:
            continue
        out.append(th)
        for _ in range(4):
            c, s = math.cos(th), math.sin(th)
            g1 = x0 * s - e * s * c - b * wi * c
            g2 = x0 * c - e * (c * c - s * s) + b * wi * s
            if g2 == 0.0:
                break
            th = min(max(th - g1 / g2, 0.0), math.pi)
        out.append(th)
    return out


def arc_distance_ref(t: float, w: complex) -> float:
    """Distance from w to the half-ellipse arc
    {(-1 + cos th) + i (1-2t) sin th : th in [0, pi]}: the smallest
    distance over the tips and the critical points of the quartic."""
    return min(abs(_arc_point(t, th) - w) for th in _arc_candidates(t, w))


def arc_local_minima(t: float, w: complex, h: float = 1e-4) -> list:
    """Sorted distances of the distinct local minima of |arc(theta) - w|
    over [0, pi] among the candidates of arc_distance_ref (a candidate is
    one when no point h away along the arc is nearer)."""
    found = []
    for th in sorted(_arc_candidates(t, w)):
        d = abs(_arc_point(t, th) - w)
        if any(abs(_arc_point(t, a) - w) < d
               for a in (th - h, th + h) if 0.0 <= a <= math.pi):
            continue
        if found and th - found[-1][0] <= 1e-6:
            continue
        found.append((th, d))
    return sorted(d for _, d in found)


# ---------------------------------------------------------------------------
# small frozen helpers shared by several test modules

def quat_mul(a, b):
    """Reference quaternion product on [w,x,y,z] 4-vectors (hand-coded
    Hamilton table, independent of the library)."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def poly_eval_ref(coeffs, q):
    """Reference evaluation sum_n q^n c_n with right coefficients."""
    out = np.zeros(4)
    qp = np.array([1.0, 0.0, 0.0, 0.0])
    for c in coeffs:
        out = out + quat_mul(qp, np.asarray(c, dtype=float))
        qp = quat_mul(qp, q)
    return out
