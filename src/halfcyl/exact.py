"""Exact complex-rational scalars and the sparse mode series built on them.

Closure decisions must not depend on float rank estimation, so every
coefficient is exact.  An exact scalar is a Gaussian rational held as
three plain integers, (x + iy)/d, so the bracket kernel and the exact
elimination run on ``int`` arithmetic alone.  A finite binary float is a
dyadic rational, so a float or complex input is lifted to the exact value
it stores; a NaN or an infinity is rejected.  ``ModeSeries`` holds such
coefficients for both Witt elements and trigonometric polynomials; only
point evaluation returns floats.
"""

from __future__ import annotations

import cmath
import sys
from fractions import Fraction
from math import gcd, isfinite
from numbers import Complex, Rational


class QC:
    """Complex number (x + iy)/d with exact rational real and imaginary parts.

    The value is stored as three ``int``s in canonical form: d > 0 and
    gcd(x, y, d) = 1, so equal values have equal triples.  ``+ * /`` work
    on the integers (``a - b`` is ``a + -b``) and reduce once with a gcd,
    skipped when d = 1 (Gaussian integers take none).  ``re`` and ``im`` are
    read-only: an ``int`` when the part is integral, else a ``Fraction``.

    The constructor takes ints, ``Fraction``s and anything ``Fraction``
    accepts (a float converts exactly).  A float or complex operand of
    ``+ - * / ==`` takes part with the exact value it stores, as in
    ``Fraction(1, 10) == 0.1``, which is False; a non-finite one raises
    ``ValueError`` in arithmetic and compares unequal.  With an operand
    that is not a number arithmetic returns NotImplemented, so that
    ``c * series`` reaches the series' own exact ``__rmul__``.
    """

    __slots__ = ("_x", "_y", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._x, self._y, self._d = re, im, 1
            return
        p, q = _ratio(re)
        r, s = _ratio(im)
        x, y, d = p * s, r * q, q * s
        g = gcd(x, y, d)
        self._x, self._y, self._d = x // g, y // g, d // g

    @property
    def re(self):
        return _part(self._x, self._d)

    @property
    def im(self):
        return _part(self._y, self._d)

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        if type(other) is not QC:
            other = _lift(other)
            if other is NotImplemented:
                return other
        d, e = self._d, other._d
        if d == e:
            return _qc(self._x + other._x, self._y + other._y, d)
        return _qc(self._x * e + other._x * d, self._y * e + other._y * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _qc(-self._x, -self._y, self._d)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is QC:
            x, y, a, b = self._x, self._y, other._x, other._y
            return _qc(x * a - y * b, x * b + y * a, self._d * other._d)
        if type(other) is int:
            return _qc(self._x * other, self._y * other, self._d)
        other = _lift(other)
        return other if other is NotImplemented else self * other

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not QC:
            other = _lift(other)
            if other is NotImplemented:
                return other
        # (x + iy)/d / ((a + ib)/e) = (x + iy)(a - ib) e / (d (a^2 + b^2))
        x, y, a, b, e = self._x, self._y, other._x, other._y, other._d
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("division by exact zero")
        return _qc((x * a + y * b) * e, (y * a - x * b) * e, self._d * n)

    # -- structure ----------------------------------------------------
    def conjugate(self):
        return _qc(self._x, -self._y, self._d)

    def __bool__(self):
        return bool(self._x or self._y)

    def __eq__(self, other):
        if type(other) is not QC:
            try:
                other = _lift(other)
            except ValueError:  # NaN or infinity: equal to no exact number
                return False
            if other is NotImplemented:
                return other
        return self._x == other._x and self._y == other._y and self._d == other._d

    def __hash__(self):
        # equal numbers hash equal: a real value hashes as its real part
        # (an int or Fraction) does, a complex one by the rule of the
        # built-in complex, hash(re) + sys.hash_info.imag * hash(im) in
        # unsigned machine arithmetic, so that QC(3) is found in {3}
        h = hash(self.re)
        if not self._y:
            return h
        m = 2 ** sys.hash_info.width
        h = (h + sys.hash_info.imag * hash(self.im)) % m
        h = h - m if h >= m // 2 else h
        return -2 if h == -1 else h

    def __complex__(self):
        d = self._d
        return complex(self._x / d, self._y / d)

    def __repr__(self):
        if not self._y:
            return str(self.re)
        if not self._x:
            return f"{self.im}*i"
        return f"({self.re} + {self.im}*i)"


_new = object.__new__


def _qc(x, y, d):
    """QC (x + iy)/d from integers with d > 0, reduced to canonical form."""
    if d != 1:
        g = gcd(x, y, d)
        if g != 1:
            x, y, d = x // g, y // g, d // g
    q = _new(QC)
    q._x, q._y, q._d = x, y, d
    return q


def _ratio(v):
    """(numerator, denominator) of an exact rational or of Fraction(v)."""
    if not isinstance(v, Rational):
        v = Fraction(v)
    return int(v.numerator), int(v.denominator)


def _part(n, d):
    """n/d as an int when it is integral, else as a Fraction."""
    if d == 1:
        return n
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


QC_I = QC(0, 1)


def _lift(x):
    """The exact QC of a number, NotImplemented for what is not a number.

    A float or complex lifts to the dyadic rational that it stores, read
    with ``float.as_integer_ratio``; a NaN or infinity raises ValueError.
    """
    if type(x) is QC:
        return x
    if type(x) is int:
        return _qc(x, 0, 1)
    if isinstance(x, Rational):  # Fraction, bool, other exact rationals
        return QC(x)
    if not isinstance(x, Complex):
        return NotImplemented
    z = x if isinstance(x, float) else complex(x)
    if not (isfinite(z.real) and isfinite(z.imag)):
        raise ValueError(f"not finite: {x!r}")
    a, b = z.real.as_integer_ratio()
    c, e = z.imag.as_integer_ratio()
    return _qc(a * e, c * b, b * e)


def _exact_bracket(a: dict, b: dict) -> dict:
    """Unreduced (x, y, d) of each mode of the Witt bracket of two exact
    coefficient dictionaries: (k - j) a_j b_k summed in mode j + k."""
    out = {}
    for j, p in a.items():
        x, y, d = p._x, p._y, p._d
        for k, q in b.items():
            if j != k:
                f, e = k - j, d * q._d
                u, v = f * (x * q._x - y * q._y), f * (x * q._y + y * q._x)
                m = j + k
                if m in out:
                    s, t, c = out[m]
                    out[m] = (s + u, t + v, e) if c == e else (s * e + u * c, t * e + v * c, c * e)
                else:
                    out[m] = (u, v, e)
    return out


class ModeSeries:
    """Finite complex combination sum_j c_j e_j of integer modes.

    Every coefficient is stored exactly as a ``QC``; a float or complex
    one is lifted to the exact value it stores, and a NaN or infinity
    raises ``ValueError``.  Zero coefficients are dropped.  Every operation
    returns the class of its left operand.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        lifted = {int(j): _lift(c) for j, c in (coeffs or {}).items()}
        if any(c is NotImplemented for c in lifted.values()):
            raise TypeError(f"mode coefficients must be numbers: {coeffs!r}")
        self.coeffs = {j: c for j, c in lifted.items() if c}

    @classmethod
    def _new(cls, coeffs):
        """Series from canonical scalars, without a subclass's input checks."""
        out = object.__new__(cls)
        out.coeffs = {j: c for j, c in coeffs.items() if c}
        return out

    # -- queries --------------------------------------------------------
    @property
    def support(self):
        return tuple(sorted(self.coeffs))

    @property
    def is_zero(self):
        return not self.coeffs

    def get(self, j):
        return self.coeffs.get(j, QC(0))

    # -- linear structure -------------------------------------------------
    def __add__(self, other):
        out = dict(self.coeffs)
        for j, c in other.coeffs.items():
            out[j] = out[j] + c if j in out else c
        return self._new(out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self._new({j: -c for j, c in self.coeffs.items()})

    def __rmul__(self, scalar):
        s = _lift(scalar)
        if s is NotImplemented:
            return NotImplemented
        return self._new({j: s * c for j, c in self.coeffs.items()})

    __mul__ = __rmul__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple((j, complex(c)) for j, c in sorted(self.coeffs.items())))

    # -- calculus in phi, for modes e_j = e^{ij phi} ------------------------
    def derivative(self):
        return self._new({j: (QC_I * j) * c for j, c in self.coeffs.items()})

    def product(self, other):
        out = {}
        for j, a in self.coeffs.items():
            for k, b in other.coeffs.items():
                m = j + k
                out[m] = out[m] + a * b if m in out else a * b
        return self._new(out)

    def bracket(self, other):
        """The Witt bracket: (k - j) a_j b_k lands in mode j + k.

        Read as Fourier series this is i (f' g - f g'), which makes it the
        Poisson bracket of momentum functions as well.  Each mode sums
        integer triples (x, y, d), one term at a time, and becomes a ``QC``
        once, at the end.
        """
        out = object.__new__(type(self))  # all QC, none zero: canonical
        out.coeffs = {m: _qc(x, y, d) for m, (x, y, d) in _exact_bracket(
            self.coeffs, other.coeffs).items() if x or y}
        return out

    def __call__(self, phi: float) -> complex:
        return sum((complex(c) * cmath.exp(1j * j * phi)
                    for j, c in self.coeffs.items()), 0j)

    def __repr__(self):
        return f"{type(self).__name__}({ {j: repr(c) for j, c in sorted(self.coeffs.items())} })"
