"""Independent references for the benchmark's correctness checks.

Nothing here calls the library. Quaternions are [w, x, y, z] float arrays,
products go through the hand-coded Hamilton table of ``tests/oracles.py``,
and the branch logarithm of the worked domain comes from that module's
polyline-tracing oracle, which shares no code with the library's closed-form
region classification.
"""

from __future__ import annotations

import math

import numpy as np

from oracles import poly_eval_ref, quat_mul, trace_log

BASE_UNIT = np.array([0.0, 1.0, 0.0, 0.0])   # the base unit I = i of Omega
DIGITS_CAP = 17.0   # a relative error of exactly 0 reads as 17 digits


def digits(rel_err: float) -> float:
    """-log10 of a relative error, capped so an exact answer stays finite."""
    return min(DIGITS_CAP, -math.log10(max(rel_err, 10.0 ** -DIGITS_CAP)))


def rel_err(got, want) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))


def conj(q):
    return np.array([q[0], -q[1], -q[2], -q[3]])


def qinv(q):
    return conj(q) / float(np.dot(q, q))


def emb(z: complex, unit) -> np.ndarray:
    """z = a + ib as the quaternion a + b*unit."""
    return np.array([z.real, 0.0, 0.0, 0.0]) + z.imag * np.asarray(unit)


def random_unit(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return np.concatenate([[0.0], v / np.linalg.norm(v)])


def rotate(base, toward, angle: float) -> np.ndarray:
    """The unit at `angle` from `base` on the great circle toward `toward`."""
    t = toward - np.dot(base, toward) * base
    t = t / np.linalg.norm(t)
    return math.cos(angle) * base + math.sin(angle) * t


def unit_at_chord(rng, chord_lo: float, chord_hi: float) -> np.ndarray:
    """A unit J with |J - I| uniform in [chord_lo, chord_hi]."""
    chord = rng.uniform(chord_lo, chord_hi)
    return rotate(BASE_UNIT, random_unit(rng), 2.0 * math.asin(chord / 2.0))


# ---------------------------------------------------------------------------
# Exact algebra on right-coefficient polynomials

def star_coeffs(a, b) -> np.ndarray:
    """(sum q^n a_n) * (sum q^m b_m) = sum q^(n+m) a_n b_m."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.zeros((len(a) + len(b) - 1, 4))
    for n in range(len(a)):
        for m in range(len(b)):
            out[n + m] += quat_mul(a[n], b[m])
    return out


def conj_coeffs(a) -> np.ndarray:
    return np.array([conj(c) for c in np.asarray(a, dtype=float)])


def poly_eval(coeffs, q) -> np.ndarray:
    return poly_eval_ref(np.asarray(coeffs, dtype=float), np.asarray(q))


def real_poly_derivative_at(coeffs, q) -> np.ndarray:
    """Derivative of a real polynomial (first components) at q."""
    re = np.asarray(coeffs, dtype=float)[:, 0]
    d = [n * re[n] for n in range(1, len(re))]
    return poly_eval([[c, 0.0, 0.0, 0.0] for c in d], q)


# ---------------------------------------------------------------------------
# The branch-log domain Omega (slice-dependent cuts, caps on -1 + 2S)

def sphere_band(x: float, y: float) -> float:
    """Chord radius t* of the cap boundary |J - I| = t* on the sphere x + yS
    (valid for the two-cap spheres near -1 + 2S)."""
    return 0.5 * (1.0 - (y - 2.0) / math.sqrt(1.0 - (x + 1.0) ** 2))


def _slice_pair(x: float, y: float, unit):
    """(b, c) with f(x + yK) = b + K c for every K on the cap of `unit`."""
    t = min(float(np.linalg.norm(np.asarray(unit) - BASE_UNIT)), 1.0)
    z = complex(x, y)
    a_up = trace_log(t, z - 2j)
    a_dn = trace_log(t, z.conjugate() - 2j)
    return emb(0.5 * (a_up + a_dn), BASE_UNIT), emb((a_up - a_dn) / 2j,
                                                      BASE_UNIT)


def douren_spherical(x: float, y: float, unit):
    """Spherical value and derivative of the branch log f on the cap of
    `unit` on the sphere x + yS."""
    b, c = _slice_pair(x, y, unit)
    return b, c / y


def douren_value(q) -> np.ndarray:
    """f(q) for the branch log f of Omega."""
    q = np.asarray(q, dtype=float)
    y = float(np.linalg.norm(q[1:]))
    unit = np.concatenate([[0.0], q[1:] / y])
    b, c = _slice_pair(q[0], y, unit)
    return b + quat_mul(unit, c)


def ghost_shift_value(p, cap_plus_value, cap_plus_derivative) -> np.ndarray:
    """(f - v)(p) with v the C+ cap data of f extended to p, the shifted g
    of the ghost-divisor example."""
    imp = np.concatenate([[0.0], np.asarray(p)[1:]])
    v = cap_plus_value + quat_mul(imp, cap_plus_derivative)
    return douren_value(p) - v


def h_pole_residue(unit) -> np.ndarray:
    """Slice-Laurent coefficient a_{-1} of h = (q - p)^{-*} * g at the point
    -1 + 2J of the far cap C-, with g = f + pi I.

    On the slice of J, h(z) = [(z - z0)(z - conj z0)]^{-1} ell(z) with
    ell = (q - pbar) * g, so a_{-1} = (z0 - conj z0)^{-1} ell(z0) =
    (4J)^{-1} ell(z0); ell(z0) comes from the spherical data of g on C-.
    """
    x, y = -1.0, 2.0
    unit = np.asarray(unit, dtype=float)
    gv, gd = douren_spherical(x, y, unit)
    gv = gv + math.pi * BASE_UNIT
    pbar = np.array([-1.0, 0.0, 0.0, 0.0]) - 2.0 * BASE_UNIT
    fv = np.array([x, 0.0, 0.0, 0.0]) - pbar    # spherical data of q - pbar
    im = y * unit
    ell = (quat_mul(fv, gv) - y * y * gd
           + quat_mul(im, quat_mul(fv, gd) + gv))
    return quat_mul(qinv(4.0 * unit), ell)
