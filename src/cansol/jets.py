"""Forward-mode 2-jets in one variable: truncated Taylor arithmetic on arrays.

A ``Jet`` holds a value v, its first derivative d1 and (at order 2) its
second derivative d2, arrays of one shape, or None in d2 on a 1-jet.  A
second derivative known to vanish (of the variable, of constants, of
affine expressions) is kept as the scalar 0.0 and the terms it would
multiply are skipped.  Every operation is elementwise (an entry's jet does
not depend on the other entries) and the value part is the plain numpy
expression, so a function written with these operations gives bitwise the
same values on arrays as on jets.  The library differentiates in time
only: the canonical metric's profiles w(t) and psi(t), and a background's
phi(t) and R(t).
"""

from __future__ import annotations

import numpy as np

__all__ = ["Jet", "lift", "derivatives"]


class Jet:
    """Value, first and (at order 2) second derivative of a function of one variable."""

    __slots__ = ("v", "d1", "_d2")
    __array_ufunc__ = None      # array (op) jet defers to the jet's reflected operator

    def __init__(self, v, d1, d2=None):
        self.v, self.d1, self._d2 = v, d1, d2

    @staticmethod
    def variable(t, order: int) -> "Jet":
        """The variable t (an array of any shape) as a jet over itself, of order 1 or 2."""
        t = np.asarray(t, dtype=float)
        return Jet(t, np.ones(t.shape), 0.0 if order > 1 else None)

    shape = property(lambda self: self.v.shape)

    @property
    def d2(self):
        """The second derivative, an array of d1's shape, or None on a 1-jet."""
        d2 = self._d2
        return np.zeros(self.d1.shape) if type(d2) is float else d2

    def __neg__(self):
        return Jet(-self.v, -self.d1, None if self._d2 is None else -self._d2)

    def __add__(self, b):
        d2 = self._d2
        if type(b) is Jet:
            return Jet(self.v + b.v, self.d1 + b.d1, None if d2 is None else d2 + b._d2)
        v = self.v + b
        if v.shape == self.v.shape:
            return Jet(v, self.d1, d2)
        return Jet(v, self.d1 + np.zeros(v.shape), d2 if d2 is None or type(d2) is float else d2 + np.zeros(v.shape))

    def __sub__(self, b):
        return self + (-b)

    def __rsub__(self, b):
        return -self + b

    def __mul__(self, b):
        d2 = self._d2
        if type(b) is not Jet:
            return Jet(self.v * b, self.d1 * b, d2 if d2 is None or type(d2) is float else d2 * b)
        d1 = self.d1 * b.v
        d1 += self.v * b.d1
        if d2 is None:
            return Jet(self.v * b.v, d1)
        dd = 2.0 * self.d1 * b.d1
        if type(d2) is not float:
            dd += d2 * b.v
        if type(b._d2) is not float:
            dd += self.v * b._d2
        return Jet(self.v * b.v, d1, dd)

    def __truediv__(self, b):
        d2 = self._d2
        if type(b) is not Jet:
            return Jet(self.v / b, self.d1 / b, d2 if d2 is None or type(d2) is float else d2 / b)
        return _quotient(self, b)

    def __rtruediv__(self, b):
        return _quotient(b, self)

    def __pow__(self, n):
        v, d2 = self.v, self._d2
        df = n * _power(v, n - 1)
        if d2 is None:
            return Jet(v**n, df * self.d1)
        dd = self.d1 * self.d1
        dd *= n * (n - 1) * _power(v, n - 2)
        if type(d2) is not float:
            dd += df * d2
        return Jet(v**n, df * self.d1, dd)

    __radd__ = __add__
    __rmul__ = __mul__


def _power(v, e):
    return 1.0 if e == 0 else v if e == 1 else v**e


def _quotient(a, b: Jet) -> Jet:
    """a / b for a jet b and a jet or a constant a, from a = q b."""
    jet = type(a) is Jet
    q = (a.v if jet else a) / b.v
    d1 = q * b.d1
    d1 = a.d1 - d1 if jet else -d1
    d1 /= b.v
    if b._d2 is None:
        return Jet(q, d1)
    dd = 2.0 * d1 * b.d1
    if type(b._d2) is not float:
        dd += q * b._d2
    dd = a._d2 - dd if jet and type(a._d2) is not float else -dd
    dd /= b.v
    return Jet(q, d1, dd)


def lift(a, like: Jet) -> Jet:
    """a as a jet of like's order: itself, or a constant (a scalar takes like's shape)."""
    if type(a) is Jet:
        return a
    a = np.asarray(a, dtype=float)
    if not a.ndim:
        a = np.full(like.shape, a)
    return Jet(a, np.zeros(a.shape), None if like._d2 is None else 0.0)


def derivatives(fn, t, order: int = 2) -> tuple:
    """(f, f') or (f, f', f'') at the times t of a function of one variable written with jet operations."""
    time = Jet.variable(t, order)
    f = lift(fn(time), time)
    return (f.v, f.d1) if order < 2 else (f.v, f.d1, f.d2)
