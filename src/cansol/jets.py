"""Forward-mode 2-jets in one variable: truncated Taylor arithmetic on arrays.

A ``Jet`` holds a value v, its first derivative d1 and (at order 2) its
second derivative d2, arrays of one shape, or None in d2 on a 1-jet.  A
second derivative known to vanish (of the variable, of constants, of
affine expressions) is kept as the scalar 0.0 and the terms it would
multiply are skipped.  A first derivative that is one number in every
entry (the variable's 1.0, and its multiples in affine expressions) is
kept as that Python float; a product with the unit 1.0 is skipped, since
x * 1.0 is x exactly, and the ``d1`` and ``d2`` properties give arrays.
Every operation is elementwise (an entry's jet does not depend on the
other entries) and the value part is the plain numpy expression, so a
function written with these operations gives bitwise the same values on
arrays as on jets.  The library differentiates in time
only: the canonical metric's profiles w(t) and psi(t), and a background's
phi(t) and R(t).
"""

from __future__ import annotations

import numpy as np

__all__ = ["Jet", "lift", "derivatives"]


class Jet:
    """Value, first and (at order 2) second derivative of a function of one variable."""

    __slots__ = ("v", "_d1", "_d2")
    __array_ufunc__ = None      # array (op) jet defers to the jet's reflected operator

    def __init__(self, v, d1, d2=None):
        self.v, self._d1, self._d2 = v, d1, d2

    @staticmethod
    def variable(t, order: int) -> "Jet":
        """The variable t (an array of any shape) as a jet over itself, of order 1 or 2."""
        return Jet(np.asarray(t, dtype=float), 1.0, 0.0 if order > 1 else None)

    shape = property(lambda self: self.v.shape)

    @property
    def d1(self):
        """The first derivative, an array of the value's shape."""
        return _filled(self._d1, self.v)

    @property
    def d2(self):
        """The second derivative, an array of the value's shape, or None on a 1-jet."""
        d2 = self._d2
        return np.zeros(self.v.shape) if type(d2) is float else d2

    def __neg__(self):
        return Jet(-self.v, -self._d1, None if self._d2 is None else -self._d2)

    def __add__(self, b):
        d2 = self._d2
        if type(b) is Jet:
            return Jet(self.v + b.v, self._d1 + b._d1, None if d2 is None else d2 + b._d2)
        v = self.v + b
        if v.shape == self.v.shape:
            return Jet(v, self._d1, d2)
        return Jet(v, self._d1 + np.zeros(v.shape), d2 if d2 is None or type(d2) is float else d2 + np.zeros(v.shape))

    def __sub__(self, b):
        return self + (-b)

    def __rsub__(self, b):
        return -self + b

    def __mul__(self, b):
        d2 = self._d2
        if type(b) is not Jet:
            b = _coefficient(b)
            return Jet(self.v * b, self._d1 * b, d2 if d2 is None or type(d2) is float else d2 * b)
        v = self.v * b.v
        d1 = self._d1 * b.v + self.v * b._d1
        if d2 is None:
            return Jet(v, d1)
        dd = 2.0 * self._d1 * b._d1
        if type(d2) is not float:
            dd = dd + d2 * b.v
        if type(b._d2) is not float:
            dd = dd + self.v * b._d2
        return Jet(v, d1, _filled(dd, v))

    def __truediv__(self, b):
        d2 = self._d2
        if type(b) is not Jet:
            # numpy's division for a constant d1 too: a zero b gives inf, as on arrays, not an exception
            return Jet(self.v / b, np.true_divide(self._d1, b), d2 if d2 is None or type(d2) is float else d2 / b)
        return _quotient(self, b)

    def __rtruediv__(self, b):
        return _quotient(b, self)

    def __pow__(self, n):
        v, d1, d2 = self.v, self._d1, self._d2
        # the coefficients as the floats numpy would convert the ints to, at more cost per call
        df = float(n) * _power(v, n - 1)
        if d2 is None:
            return Jet(v**n, _scaled(df, d1))
        dd = _filled(_scaled(float(n * (n - 1)) * _power(v, n - 2), d1 * d1), v)
        if type(d2) is not float:
            dd = dd + df * d2
        return Jet(v**n, _scaled(df, d1), dd)

    __radd__ = __add__
    __rmul__ = __mul__


def _coefficient(c):
    """A constant operand, a Python int as the float numpy converts it to (which costs more per call)."""
    return float(c) if type(c) is int else c


def _power(v, e):
    return 1.0 if e == 0 else v if e == 1 else v**e


def _scaled(a, c):
    """a * c, where c may be a constant derivative: a itself if c is the unit 1.0."""
    return a if type(c) is float and c == 1.0 else a * c


def _filled(a, like):
    """A derivative as an array: a constant one (a scalar) filled to the shape of the value ``like``."""
    if type(a) is np.ndarray:
        return a
    out = np.empty(np.shape(like))
    out.fill(a)
    return out


def _quotient(a, b: Jet) -> Jet:
    """a / b for a jet b and a jet or a constant a, from a = q b."""
    jet = type(a) is Jet
    q = (a.v if jet else _coefficient(a)) / b.v
    d1 = _scaled(q, b._d1)
    d1 = (a._d1 - d1 if jet else -d1) / b.v
    if b._d2 is None:
        return Jet(q, d1)
    dd = _scaled(2.0 * d1, b._d1)
    if type(b._d2) is not float:
        dd = dd + q * b._d2
    return Jet(q, d1, (a._d2 - dd if jet and type(a._d2) is not float else -dd) / b.v)


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
