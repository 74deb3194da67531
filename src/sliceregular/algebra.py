"""The *-algebra of slice regular functions.

Exact polynomial/rational mode: QPoly stores right coefficients
(f(q) = a0 + q a1 + ... + q^n an) and the regular product is coefficient
convolution; QRational keeps a quaternionic numerator over a
slice-preserving real-coefficient denominator, so pointwise division is
legitimate.

Along a slice the same calculus runs on stem rows: an (N, 2, 4) array S
with f(x+yJ) = S[:, 0] + J S[:, 1] on a cap, one row per z = x + iy. On a
cap, f*g has the stem pair (b1 b2 - c1 c2, b1 c2 + c1 b2), f^c has
(conj b, conj c), f^s the real pair (|b|^2 - |c|^2, 2 re(b conj c)), and a
function with real-coefficient values w(z) = u + iv in each slice (a real
polynomial, its inverse) scales a pair as (u b - v c, v b + u c). These
row kernels alone are the composites of general slice functions, and the
value of f*g, f^c, f^s or f^{-*} at a point (star_eval, conj_eval,
sym_eval, recip_eval) is the composite's value there: one stem row on the
point's own slice. Nothing ever pairs q with its conjugate point q-bar: on
a non-symmetric domain q-bar may sit in a different cap, or outside the
domain altogether.
"""

from __future__ import annotations

import numpy as np

from .errors import (DegeneratePair, DomainMismatch, IdenticallyZero,
                     ZeroPolynomial)
from .quaternion import ONE, Quaternion, ZERO, qmul_arr, unit_rows

_COEFF_REAL_TOL = 1e-9


def _as_quat(c):
    if isinstance(c, Quaternion):
        return c
    return Quaternion(c)


class QPoly:
    """Quaternionic polynomial with right coefficients, ascending degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_quat(c) for c in coeffs]
        while cs and cs[-1].norm() == 0.0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __repr__(self):
        return "QPoly(%r)" % (list(self.coeffs),)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_real(self, tol=_COEFF_REAL_TOL):
        scale = self.scale() or 1.0
        return all(c.im_norm() <= tol * scale for c in self.coeffs)

    def scale(self):
        return max((c.norm() for c in self.coeffs), default=0.0)

    def to_json(self):
        return {"coeffs": [c.to_json() for c in self.coeffs]}

    @classmethod
    def from_json(cls, data):
        return cls([Quaternion.from_json(c) for c in data["coeffs"]])

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float, Quaternion)):
            other = QPoly([other])
        if not isinstance(other, QPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [ZERO] * (n - len(self.coeffs))
        b = list(other.coeffs) + [ZERO] * (n - len(other.coeffs))
        return QPoly([x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, float, Quaternion)):
            other = QPoly([other])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def left_mul_real(self, r: float) -> "QPoly":
        return QPoly([a * float(r) for a in self.coeffs])

    def star(self, other: "QPoly") -> "QPoly":
        """Regular product: coefficient convolution c_k = sum a_i b_{k-i}."""
        if self.is_zero() or other.is_zero():
            return QPoly()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return QPoly(out)

    def conjugate(self) -> "QPoly":
        return QPoly([c.conj() for c in self.coeffs])

    def symmetrize(self) -> "QPoly":
        """f^s = f * f^c; has real coefficients, coerced exactly real."""
        s = self.star(self.conjugate())
        scale = s.scale() or 1.0
        for c in s.coeffs:
            if c.im_norm() > _COEFF_REAL_TOL * scale:
                raise AssertionError("symmetrization produced non-real "
                                     "coefficient %r" % (c,))
        return QPoly([Quaternion(c.w) for c in s.coeffs])

    def real_coeffs(self):
        if not self.is_real():
            raise ValueError("polynomial does not have real coefficients")
        return [c.w for c in self.coeffs]

    # -- evaluation ----------------------------------------------------------

    def eval(self, q: Quaternion) -> Quaternion:
        """Horner from the top: a0 + q(a1 + q(a2 + ...))."""
        q = _as_quat(q)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = q * acc + c
        return acc

    __call__ = eval

    def stems(self, z: np.ndarray) -> np.ndarray:
        """Stem rows at z = x+iy: b = sum re(z^n) a_n, c = sum im(z^n) a_n,
        the same for every unit, as (N, 2, 4)."""
        z = np.atleast_1d(z).astype(complex)
        if not self.coeffs:
            return np.zeros((z.size, 2, 4))
        a = np.array([c.components() for c in self.coeffs])
        pw = np.vander(z, len(self.coeffs), increasing=True)
        return np.stack([pw.real @ a, pw.imag @ a], axis=1)

    def eval_slice_many(self, z: np.ndarray, unit: Quaternion) -> np.ndarray:
        """Vectorized evaluation at x+y*unit for complex z = x+iy, as (N,4)."""
        return stem_values(self.stems(z), unit)

    def cullen(self) -> "QPoly":
        """Exact Cullen derivative a1 + q·2a2 + ... + q^{n-1}·n·a_n."""
        return QPoly([c * float(n) for n, c in enumerate(self.coeffs)][1:])

    # -- division ------------------------------------------------------------

    def divide_right_linear(self, p: Quaternion):
        """Exact right division by (q - p): f = (q-p)*g + r with r constant."""
        if self.is_zero():
            return QPoly(), ZERO
        n = self.degree
        g = [ZERO] * max(n, 0)
        acc = self.coeffs[n]
        for k in range(n - 1, -1, -1):
            g[k] = acc
            acc = self.coeffs[k] + p * acc
        return QPoly(g), acc

    def divide_real_quadratic(self, x0: float, y0: float):
        """Division by the real quadratic (q-x0)^2 + y0^2.

        Returns (quotient, r0, r1) with f = [(q-x0)^2+y0^2]*quotient
        + q·r1 + r0. The divisor is central, so ordinary synthetic
        division is valid.
        """
        b = -2.0 * x0
        c = x0 * x0 + y0 * y0
        a = list(self.coeffs)
        n = len(a)
        quot = [ZERO] * max(n - 2, 0)
        for k in range(n - 1, 1, -1):
            t = a[k]
            quot[k - 2] = t
            a[k - 1] = a[k - 1] - t * b
            a[k - 2] = a[k - 2] - t * c
        r1 = a[1] if n > 1 else ZERO
        r0 = a[0] if n > 0 else ZERO
        return QPoly(quot), r0, r1

    def sphere_restriction(self, x0: float, y0: float):
        """The value f°_s and derivative f'_s of f on the sphere x0 + y0·S.

        On the sphere, f(q) = q·r1 + r0, so f°_s = x0·r1 + r0 and
        f'_s = r1 (exact).
        """
        _, r0, r1 = self.divide_real_quadratic(x0, y0)
        return Quaternion(x0) * r1 + r0, r1


def qpoly(*coeffs) -> QPoly:
    return QPoly(coeffs)


def binom(p: Quaternion) -> QPoly:
    """The linear polynomial q - p."""
    return QPoly([-_as_quat(p), ONE])


def real_quadratic(x0: float, y0: float) -> QPoly:
    """(q - x0)^2 + y0^2, the minimal real polynomial of the sphere."""
    return QPoly([x0 * x0 + y0 * y0, -2.0 * x0, 1.0])


class QRational:
    """num over a slice-preserving real denominator: f(q) = den(q)^{-1} num(q)."""

    __slots__ = ("num", "den")

    def __init__(self, num: QPoly, den: QPoly, reduce=True):
        if den.is_zero():
            raise ZeroPolynomial("zero denominator polynomial")
        den = QPoly([Quaternion(c) for c in den.real_coeffs()])
        if reduce:
            num, den = _reduce_common_real_factors(num, den)
        # normalize the denominator to be monic
        lead = den.coeffs[-1].w
        self.num = num.left_mul_real(1.0 / lead)
        self.den = den.left_mul_real(1.0 / lead)

    def __repr__(self):
        return "QRational(%r, %r)" % (self.num, self.den)

    def eval(self, q: Quaternion) -> Quaternion:
        d = self.den.eval(q)
        return d.inverse() * self.num.eval(q)

    __call__ = eval

    def stems(self, z):
        """Stem rows of the numerator scaled by 1/den(z), as (N, 2, 4)."""
        z = np.atleast_1d(z).astype(complex)
        dv = np.polyval(list(reversed(self.den.real_coeffs())), z)
        return scale_stems(1.0 / dv, self.num.stems(z))

    def eval_slice_many(self, z, unit):
        return stem_values(self.stems(z), unit)

    def cullen_eval(self, q: Quaternion) -> Quaternion:
        d = self.den.eval(q)
        dprime = self.den.cullen().eval(q)
        di = d.inverse()
        return (-(di * di) * dprime * self.num.eval(q)
                + di * self.num.cullen().eval(q))

    def star(self, other):
        if isinstance(other, QPoly):
            other = QRational(other, QPoly([1.0]))
        return QRational(self.num.star(other.num), self.den.star(other.den))

    def conjugate(self):
        return QRational(self.num.conjugate(), self.den)

    def symmetrize(self):
        return QRational(self.num.symmetrize(), self.den.star(self.den))

    def reciprocal(self):
        if self.num.is_zero():
            raise IdenticallyZero("reciprocal of the zero function")
        return QRational(self.den.star(self.num.conjugate()),
                         self.num.symmetrize())

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, data):
        return cls(QPoly.from_json(data["num"]), QPoly.from_json(data["den"]))


def _reduce_common_real_factors(num: QPoly, den: QPoly, tol=1e-10):
    """Cancel real linear/quadratic factors of den that also divide num."""
    changed = True
    while changed and den.degree >= 1 and not num.is_zero():
        changed = False
        rc = den.real_coeffs()
        roots = np.roots(list(reversed(rc)))
        nscale = num.scale() or 1.0
        for r in roots:
            if abs(r.imag) <= 1e-12:
                p = Quaternion(r.real)
                g, rem = num.divide_right_linear(p)
                if rem.norm() <= tol * nscale:
                    dg, drem = den.divide_right_linear(p)
                    if drem.norm() <= tol * (den.scale() or 1.0):
                        num, den = g, dg
                        changed = True
                        break
            elif r.imag > 1e-12:
                x0, y0 = r.real, r.imag
                g, r0, r1 = num.divide_real_quadratic(x0, y0)
                if (r0.norm() + r1.norm()) <= tol * nscale:
                    dg, d0, d1 = den.divide_real_quadratic(x0, y0)
                    if (d0.norm() + d1.norm()) <= tol * (den.scale() or 1.0):
                        num, den = g, dg
                        changed = True
                        break
    return num, den


# ---------------------------------------------------------------------------
# The regular reciprocal

def reciprocal_poly(f: QPoly) -> QRational:
    """f^{-*} = (f^s)^{-1} f^c as an exact rational."""
    if f.is_zero():
        raise ZeroPolynomial("reciprocal of the zero polynomial")
    return QRational(f.conjugate(), f.symmetrize())


# ---------------------------------------------------------------------------
# Stem-row kernels: S[:, 0] = b and S[:, 1] = c with f(x+yJ) = b + J c

def stem_values(S: np.ndarray, unit) -> np.ndarray:
    """b + unit·c for every row, as (N, 4); unit is a Quaternion or an
    (N, 3) array with one unit per row."""
    rows = unit_rows(unit)
    u = np.concatenate([np.zeros((len(rows), 1)), rows], axis=1)
    return S[:, 0] + qmul_arr(u, S[:, 1])


def scale_stems(w: np.ndarray, S: np.ndarray) -> np.ndarray:
    """The pair of (u + J v)(b + J c) for complex w = u + iv per row."""
    u = w.real[:, None]
    v = w.imag[:, None]
    return np.stack([u * S[:, 0] - v * S[:, 1], v * S[:, 0] + u * S[:, 1]],
                    axis=1)


def star_stems(S: np.ndarray, T: np.ndarray) -> np.ndarray:
    """The pair of f*g: (b1 b2 - c1 c2, b1 c2 + c1 b2)."""
    b1, c1, b2, c2 = S[:, 0], S[:, 1], T[:, 0], T[:, 1]
    return np.stack([qmul_arr(b1, b2) - qmul_arr(c1, c2),
                     qmul_arr(b1, c2) + qmul_arr(c1, b2)], axis=1)


def conj_stems(S: np.ndarray) -> np.ndarray:
    """The pair of f^c: (conj b, conj c)."""
    out = S.copy()
    out[:, :, 1:] *= -1.0
    return out


def _sym_complex(S: np.ndarray) -> np.ndarray:
    """f^s = (|b|^2 - |c|^2) + J 2 re(b conj c) per row, as a complex u + iv."""
    b, c = S[:, 0], S[:, 1]
    return (np.einsum("ij,ij->i", b, b) - np.einsum("ij,ij->i", c, c)
            + 2j * np.einsum("ij,ij->i", b, c))


def sym_stems(S: np.ndarray) -> np.ndarray:
    """The real pair of f^s."""
    w = _sym_complex(S)
    out = np.zeros_like(S)
    out[:, 0, 0] = w.real
    out[:, 1, 0] = w.imag
    return out


def recip_stems(S: np.ndarray) -> np.ndarray:
    """The pair of f^{-*} = (f^s)^{-1} f^c."""
    w = _sym_complex(S)
    if not np.all(w):
        raise DegeneratePair("f^s vanishes: |b| = |c| and re(b conj(c)) = 0")
    return scale_stems(1.0 / w, conj_stems(S))


# ---------------------------------------------------------------------------
# Kind-dispatching wrappers (exact on polynomials/rationals, stem-row
# composites on general slice functions, whose point values are stem rows)

def star_product(f, g):
    if isinstance(f, QPoly) and isinstance(g, QPoly):
        return f.star(g)
    if isinstance(f, (QPoly, QRational)) and isinstance(g, (QPoly, QRational)):
        fr = f if isinstance(f, QRational) else QRational(f, QPoly([1.0]))
        return fr.star(g)
    from .slicefn import SliceFunction, intersect_domains
    f = _as_slicefn(f)
    g = _as_slicefn(g)
    dom = intersect_domains(f.domain, g.domain)
    return SliceFunction(dom, backing="composite", label="star",
                         slice_many=lambda z, unit: star_stems(
                             f.stems(z, unit), g.stems(z, unit)))


def conjugate(f):
    if isinstance(f, (QPoly, QRational)):
        return f.conjugate()
    from .slicefn import SliceFunction
    f = _as_slicefn(f)
    return SliceFunction(f.domain, backing="composite", label="conj",
                         slice_many=lambda z, unit: conj_stems(
                             f.stems(z, unit)))


def symmetrize(f):
    if isinstance(f, (QPoly, QRational)):
        return f.symmetrize()
    from .slicefn import SliceFunction
    f = _as_slicefn(f)
    return SliceFunction(f.domain, backing="composite", label="sym",
                         slice_many=lambda z, unit: sym_stems(
                             f.stems(z, unit)))


def reciprocal(f):
    if isinstance(f, QPoly):
        return reciprocal_poly(f)
    if isinstance(f, QRational):
        return f.reciprocal()
    from .slicefn import SliceFunction
    f = _as_slicefn(f)
    return SliceFunction(f.domain, backing="composite", label="recip",
                         slice_many=lambda z, unit: recip_stems(
                             f.stems(z, unit)))


def _as_slicefn(f):
    from .slicefn import SliceFunction
    if isinstance(f, SliceFunction):
        return f
    if isinstance(f, (QPoly, QRational)):
        return SliceFunction.from_exact(f)
    raise DomainMismatch("cannot interpret %r as a slice function" % (f,))


# ---------------------------------------------------------------------------
# Point values of the composites

def star_eval(f, g, q: Quaternion) -> Quaternion:
    """(f*g)(q)."""
    return _as_slicefn(star_product(f, g))(q)


def conj_eval(f, q: Quaternion) -> Quaternion:
    """f^c(q)."""
    return _as_slicefn(conjugate(f))(q)


def sym_eval(f, q: Quaternion) -> Quaternion:
    """f^s(q)."""
    return _as_slicefn(symmetrize(f))(q)


def recip_eval(f, q: Quaternion) -> Quaternion:
    """f^{-*}(q); DegeneratePair where f^s(q) = 0."""
    return _as_slicefn(reciprocal(f))(q)
