"""Quaternion arithmetic and slice coordinates.

A quaternion q = w + x i + y j + z k lives in the real algebra H. Every
non-real q lies in exactly one slice L_I = R + I R, where I = im(q)/|im(q)|
is an imaginary unit (a point of the 2-sphere S of unit purely imaginary
quaternions), and has slice coordinates q = x0 + y0 I with y0 > 0. Real
points belong to every slice; they get a sentinel unit of None so that
formulas which are undefined on the real axis (the spherical derivative,
for one) must branch explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParamOutOfRange


class Quaternion:
    """Immutable quaternion with float components (w, x, y, z)."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w=0.0, x=0.0, y=0.0, z=0.0):
        object.__setattr__(self, "w", float(w))
        object.__setattr__(self, "x", float(x))
        object.__setattr__(self, "y", float(y))
        object.__setattr__(self, "z", float(z))

    def __setattr__(self, name, value):
        raise AttributeError("Quaternion is immutable")

    # -- representation ----------------------------------------------------

    def __repr__(self):
        return "Quaternion(%g, %g, %g, %g)" % (self.w, self.x, self.y, self.z)

    def components(self):
        return (self.w, self.x, self.y, self.z)

    def to_json(self):
        """Canonical JSON encoding: the 4-array [w, x, y, z]."""
        return [self.w, self.x, self.y, self.z]

    @classmethod
    def from_json(cls, data):
        if isinstance(data, (int, float)):
            return cls(data)
        if len(data) != 4:
            raise ParamOutOfRange("quaternion JSON must be [w,x,y,z]")
        return cls(*data)

    # -- algebra -----------------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.components() == other.components()

    def __hash__(self):
        return hash(self.components())

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        if not isinstance(other, Quaternion):
            return NotImplemented
        a, b, c, d = self.w, self.x, self.y, self.z
        e, f, g, h = other.w, other.x, other.y, other.z
        return Quaternion(a * e - b * f - c * g - d * h,
                          a * f + b * e + c * h - d * g,
                          a * g - b * h + c * e + d * f,
                          a * h + b * g - c * f + d * e)

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w / other, self.x / other,
                              self.y / other, self.z / other)
        if isinstance(other, Quaternion):
            return self * other.inverse()
        return NotImplemented

    def conj(self):
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm2(self):
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self):
        return math.sqrt(self.norm2())

    def __abs__(self):
        return self.norm()

    def inverse(self):
        n2 = self.norm2()
        if n2 == 0.0:
            raise ZeroDivisionError("inverse of zero quaternion")
        return Quaternion(self.w / n2, -self.x / n2, -self.y / n2, -self.z / n2)

    def re(self):
        return self.w

    def im(self):
        return Quaternion(0.0, self.x, self.y, self.z)

    def im_norm(self):
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def is_real(self, tol=0.0):
        return self.im_norm() <= tol

    def is_zero(self, tol=0.0):
        return self.norm() <= tol


ZERO = Quaternion()
ONE = Quaternion(1.0)
QI = Quaternion(0.0, 1.0, 0.0, 0.0)
QJ = Quaternion(0.0, 0.0, 1.0, 0.0)
QK = Quaternion(0.0, 0.0, 0.0, 1.0)


def _coerce(v):
    if isinstance(v, Quaternion):
        return v
    if isinstance(v, (int, float)):
        return Quaternion(v)
    return None


def unit_imaginary(v: Quaternion, tol: float = 1e-12) -> Quaternion:
    """Validate and renormalize an imaginary unit (re = 0, norm = 1)."""
    if abs(v.re()) > tol:
        raise ParamOutOfRange("imaginary unit must have zero real part")
    n = v.im_norm()
    if abs(n - 1.0) > 1e-6:
        raise ParamOutOfRange("imaginary unit must have unit norm")
    return Quaternion(0.0, v.x / n, v.y / n, v.z / n)


@dataclass(frozen=True)
class SliceCoords:
    """Slice coordinates q = x + y*unit with y >= 0; unit is None on R."""

    x: float
    y: float
    unit: Quaternion | None


def slice_decompose(q: Quaternion) -> SliceCoords:
    y = q.im_norm()
    if y == 0.0:
        return SliceCoords(q.w, 0.0, None)
    return SliceCoords(q.w, y, Quaternion(0.0, q.x / y, q.y / y, q.z / y))


def same_sphere(p: Quaternion, q: Quaternion, tol: float) -> bool:
    """True iff p and q lie on the same sphere x + yS (within tol)."""
    if tol < 0:
        raise ParamOutOfRange("tol must be >= 0")
    return (abs(p.re() - q.re()) <= tol
            and abs(p.im_norm() - q.im_norm()) <= tol)


def same_slice(p: Quaternion, q: Quaternion, tol: float = 1e-12) -> bool:
    """True iff p, q, and the real axis are coplanar (p, q in one L_I).

    Real points lie in every slice. L_I = L_{-I}, so antiparallel
    imaginary parts count as coplanar.
    """
    a, b = p.im(), q.im()
    na, nb = a.norm(), b.norm()
    if na <= tol or nb <= tol:
        return True
    # cross product of the imaginary 3-vectors must vanish
    cx = a.y * b.z - a.z * b.y
    cy = a.z * b.x - a.x * b.z
    cz = a.x * b.y - a.y * b.x
    return math.sqrt(cx * cx + cy * cy + cz * cz) <= tol * na * nb


def embed_complex(z: complex, unit: Quaternion) -> Quaternion:
    """Embed a complex number into the slice L_unit."""
    return Quaternion(z.real) + unit * z.imag


def project_to_slice(q: Quaternion, unit: Quaternion) -> complex:
    """Complex coordinate of q relative to L_unit (valid when q is in it)."""
    return complex(q.re(), q.x * unit.x + q.y * unit.y + q.z * unit.z)


def perp_unit(unit: Quaternion) -> Quaternion:
    """Some imaginary unit orthogonal to the given one."""
    # pick the basis vector least aligned with unit and Gram-Schmidt it
    cands = [QI, QJ, QK]
    dots = [abs(unit.x), abs(unit.y), abs(unit.z)]
    e = cands[dots.index(min(dots))]
    d = e.x * unit.x + e.y * unit.y + e.z * unit.z
    v = Quaternion(0.0, e.x - d * unit.x, e.y - d * unit.y, e.z - d * unit.z)
    n = v.im_norm()
    return Quaternion(0.0, v.x / n, v.y / n, v.z / n)


def rotate_unit(base: Quaternion, toward: Quaternion, angle: float) -> Quaternion:
    """Unit at the given angle from `base` along the great circle toward `toward`."""
    d = base.x * toward.x + base.y * toward.y + base.z * toward.z
    t = Quaternion(0.0, toward.x - d * base.x, toward.y - d * base.y,
                   toward.z - d * base.z)
    n = t.im_norm()
    if n < 1e-14:
        t = perp_unit(base)
    else:
        t = Quaternion(0.0, t.x / n, t.y / n, t.z / n)
    c, s = math.cos(angle), math.sin(angle)
    return Quaternion(0.0, c * base.x + s * t.x, c * base.y + s * t.y,
                      c * base.z + s * t.z)


# ---------------------------------------------------------------------------
# Vectorized component math on (N, 4) float arrays, for quadrature loops.

def qarr(quats) -> np.ndarray:
    return np.array([q.components() for q in quats], dtype=float)


def from_qarr(a: np.ndarray):
    return [Quaternion(*row) for row in np.atleast_2d(a)]


def qmul_arr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    w = a[:, 0] * b[:, 0] - a[:, 1] * b[:, 1] - a[:, 2] * b[:, 2] - a[:, 3] * b[:, 3]
    x = a[:, 0] * b[:, 1] + a[:, 1] * b[:, 0] + a[:, 2] * b[:, 3] - a[:, 3] * b[:, 2]
    y = a[:, 0] * b[:, 2] - a[:, 1] * b[:, 3] + a[:, 2] * b[:, 0] + a[:, 3] * b[:, 1]
    z = a[:, 0] * b[:, 3] + a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1] + a[:, 3] * b[:, 0]
    return np.stack([w, x, y, z], axis=1)


def qconj_arr(a: np.ndarray) -> np.ndarray:
    out = np.atleast_2d(a).copy()
    out[:, 1:] *= -1.0
    return out


def qnorm2_arr(a: np.ndarray) -> np.ndarray:
    a = np.atleast_2d(a)
    return np.einsum("ij,ij->i", a, a)


def qinv_arr(a: np.ndarray) -> np.ndarray:
    return qconj_arr(a) / qnorm2_arr(a)[:, None]


def unit_rows(unit) -> np.ndarray:
    """A unit argument as rows: a Quaternion unit as one (1, 3) row, an
    (N, 3) array (one imaginary unit per row) as it is."""
    if isinstance(unit, Quaternion):
        return np.array([[unit.x, unit.y, unit.z]])
    return np.asarray(unit, dtype=float)


def row_units(unit, n: int) -> list:
    """The unit of each of n rows, as Quaternions (the same one n times for
    a Quaternion unit)."""
    return [Quaternion(0.0, *u)
            for u in np.broadcast_to(unit_rows(unit), (n, 3))]


def slice_rows(a: np.ndarray):
    """Slice coordinates of each row of an (N, 4) array: z = x + iy with
    y >= 0 and the (N, 3) unit rows. A real row gets the unit i; any unit
    serves there."""
    a = np.atleast_2d(a)
    y = np.linalg.norm(a[:, 1:], axis=1)
    units = np.where(y[:, None] > 0.0,
                     a[:, 1:] / np.where(y > 0.0, y, 1.0)[:, None],
                     [1.0, 0.0, 0.0])
    return a[:, 0] + 1j * y, units


def emb_arr(z: np.ndarray, unit: Quaternion) -> np.ndarray:
    """Embed an array of complex numbers into the slice L_unit as (N,4)."""
    z = np.atleast_1d(z)
    out = np.empty((z.size, 4))
    out[:, 0] = z.real
    out[:, 1] = z.imag * unit.x
    out[:, 2] = z.imag * unit.y
    out[:, 3] = z.imag * unit.z
    return out
