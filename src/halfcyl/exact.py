"""Exact complex-rational scalars and the sparse mode series built on them.

Closure decisions must not depend on float rank estimation, so bracket
coefficients stay exact (pairs of ``Fraction``) as long as every input is
rational.  Any float in the inputs demotes the whole computation to
ordinary complex arithmetic.  ``ModeSeries`` holds such coefficients for
both Witt elements and trigonometric polynomials.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from numbers import Complex, Rational


class QC:
    """Complex number with exact rational real and imaginary parts.

    Arithmetic with a float or complex operand gives a complex float;
    with an operand that is not a number it returns NotImplemented, so
    that ``c * series`` reaches the series' own exact ``__rmul__``.  Parts
    that are ``int`` stay ``int`` (Gaussian-integer arithmetic allocates
    no ``Fraction``); only a division makes a ``Fraction``.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is int else Fraction(re)
        self.im = im if type(im) is int else Fraction(im)

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        other = _lift(other)
        if isinstance(other, QC):
            return QC(self.re + other.re, self.im + other.im)
        return other if other is NotImplemented else complex(self) + other

    __radd__ = __add__

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __sub__(self, other):
        other = _lift(other)
        if isinstance(other, QC):
            return QC(self.re - other.re, self.im - other.im)
        return other if other is NotImplemented else complex(self) - other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is int:
            return QC(self.re * other, self.im * other)
        other = _lift(other)
        if isinstance(other, QC):
            return QC(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re)
        return other if other is NotImplemented else complex(self) * other

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _lift(other)
        if isinstance(other, QC):
            d = other.re * other.re + other.im * other.im
            if d == 0:
                raise ZeroDivisionError("division by exact zero")
            return self * QC(Fraction(other.re, d), Fraction(-other.im, d))
        return other if other is NotImplemented else complex(self) / other

    # -- structure ----------------------------------------------------
    def conjugate(self):
        return QC(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = _lift(other)
        if isinstance(other, QC):
            return self.re == other.re and self.im == other.im
        return other if other is NotImplemented else complex(self) == other

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        return f"({self.re} + {self.im}*i)"


QC_I = QC(0, 1)


def _lift(x):
    """Canonical scalar: QC for ints and Fractions, complex for any other
    number, NotImplemented for what is not a number."""
    if isinstance(x, QC):
        return x
    if isinstance(x, Rational):  # int, Fraction, bool
        return QC(x)
    if isinstance(x, Complex):
        return complex(x)
    return NotImplemented


def _canonical(coeffs: dict) -> dict:
    """Drop zero coefficients; demote to complex if exact and float mix."""
    out = {j: c for j, c in coeffs.items() if c}
    if len({type(c) for c in out.values()}) > 1:
        out = {j: complex(c) for j, c in out.items() if complex(c)}
    return out


class ModeSeries:
    """Finite complex combination sum_j c_j e_j of integer modes.

    Coefficients given as ints or Fractions are stored exactly (``QC``); a
    float or complex coefficient anywhere demotes the whole series to
    complex floats.  Zero coefficients are dropped.  Every operation
    returns the class of its left operand.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        lifted = {int(j): _lift(c) for j, c in (coeffs or {}).items()}
        if any(c is NotImplemented for c in lifted.values()):
            raise TypeError(f"mode coefficients must be numbers: {coeffs!r}")
        self.coeffs = _canonical(lifted)

    @classmethod
    def _new(cls, coeffs):
        """Series from canonical scalars, without a subclass's input checks."""
        out = object.__new__(cls)
        out.coeffs = _canonical(coeffs)
        return out

    # -- queries --------------------------------------------------------
    @property
    def support(self):
        return tuple(sorted(self.coeffs))

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def is_exact(self):
        return all(type(c) is QC for c in self.coeffs.values())

    def get(self, j):
        return self.coeffs.get(j, QC(0) if self.is_exact else 0j)

    # -- linear structure -------------------------------------------------
    def __add__(self, other):
        out = dict(self.coeffs)
        for j, c in other.coeffs.items():
            out[j] = out[j] + c if j in out else c
        return self._new(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for j, c in other.coeffs.items():
            out[j] = out[j] - c if j in out else -c
        return self._new(out)

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
        i = QC_I if self.is_exact else 1j
        return self._new({j: (i * j) * c for j, c in self.coeffs.items()})

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
        Poisson bracket of momentum functions as well.
        """
        out = {}
        for j, a in self.coeffs.items():
            for k, b in other.coeffs.items():
                if j != k:
                    term = (k - j) * (a * b)
                    m = j + k
                    out[m] = out[m] + term if m in out else term
        return self._new(out)

    def __call__(self, phi: float) -> complex:
        return sum((complex(c) * cmath.exp(1j * j * phi)
                    for j, c in self.coeffs.items()), 0j)

    def __repr__(self):
        return f"{type(self).__name__}({ {j: repr(c) for j, c in sorted(self.coeffs.items())} })"
