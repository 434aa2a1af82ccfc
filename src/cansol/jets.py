"""Forward-mode 2-jets: truncated Taylor arithmetic on stacks of points.

A ``Jet`` over k variables holds a value v of shape L, its gradient g of
shape (k,) + L and its Hessian h of shape (k, k) + L, or None on a 1-jet.
The derivative axes come first, so the parts broadcast against each other
and against constants as arrays of shape L do.  A Hessian known to vanish
(of the variables, of constants, of affine expressions) is kept as the
scalar 0.0 and the terms it would multiply are skipped.  Every operation is
elementwise over L (a point's jet does not depend on its stack) and the
value part is the plain numpy expression, so a function written with these
operations gives bitwise the same values on arrays as on jets.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Jet", "sin", "cos", "tan", "sqrt", "exp", "log", "concatenate", "cumprod",
           "lift", "derivatives", "metric_jet"]

_ALL = (slice(None),)
_EYES = {}


class Jet:
    """Value, gradient and (at order 2) Hessian of a function of k variables."""

    __slots__ = ("v", "g", "_h")
    __array_ufunc__ = None      # array (op) jet defers to the jet's reflected operator

    def __init__(self, v, g, h=None):
        self.v, self.g, self._h = v, g, h

    @staticmethod
    def variables(x, order: int) -> "Jet":
        """The coordinates x (..., k) as a jet over themselves, of order 1 or 2."""
        x = np.asarray(x, dtype=float)
        k = x.shape[-1]
        if k not in _EYES:
            _EYES[k] = np.eye(k)
        g = np.empty((k,) + x.shape)
        g[...] = _EYES[k].reshape((k,) + (1,) * (x.ndim - 1) + (k,))
        return Jet(x, g, 0.0 if order > 1 else None)

    @staticmethod
    def variable(t, order: int) -> "Jet":
        """The one variable t (an array of any shape) as a jet over itself."""
        t = np.asarray(t, dtype=float)
        return Jet(t, np.ones((1,) + t.shape), 0.0 if order > 1 else None)

    shape = property(lambda self: self.v.shape)

    @property
    def h(self):
        """The Hessian, (k, k) + L, or None on a 1-jet."""
        h = self._h
        return np.zeros(self.g.shape[:1] + self.g.shape) if type(h) is float else h

    def __getitem__(self, key):
        key = key if type(key) is tuple else (key,)
        h = self._h
        return Jet(self.v[key], self.g[_ALL + key], h if h is None or type(h) is float else h[_ALL + _ALL + key])

    def __neg__(self):
        return Jet(-self.v, -self.g, None if self._h is None else -self._h)

    def __add__(self, b):
        h = self._h
        if type(b) is Jet:
            return Jet(self.v + b.v, self.g + b.g, None if h is None else h + b._h)
        v = self.v + b
        if v.shape == self.v.shape:
            return Jet(v, self.g, h)
        return Jet(v, self.g + np.zeros(v.shape), h if h is None or type(h) is float else h + np.zeros(v.shape))

    def __sub__(self, b):
        return self + (-b)

    def __rsub__(self, b):
        return Jet(b - self.v, -self.g, None if self._h is None else -self._h)

    def __mul__(self, b):
        h = self._h
        if type(b) is not Jet:
            return Jet(self.v * b, self.g * b, h if h is None or type(h) is float else h * b)
        g = self.g * b.v
        g += self.v * b.g
        if h is None:
            return Jet(self.v * b.v, g)
        hab = _sym_outer(self.g, b.g)
        if type(h) is not float:
            hab += h * b.v
        if type(b._h) is not float:
            hab += self.v * b._h
        return Jet(self.v * b.v, g, hab)

    def __truediv__(self, b):
        h = self._h
        if type(b) is not Jet:
            return Jet(self.v / b, self.g / b, h if h is None or type(h) is float else h / b)
        return _quotient(self, b)

    def __rtruediv__(self, b):
        return _quotient(b, self)

    def __pow__(self, n):
        v = self.v
        return _chain(self, v**n, n * _power(v, n - 1), lambda: n * (n - 1) * _power(v, n - 2))

    __radd__ = __add__
    __rmul__ = __mul__


def _power(v, e):
    return 1.0 if e == 0 else v if e == 1 else v**e


def _sym_outer(a, b):
    """a b^T + b a^T over the derivative axes of two gradients."""
    if len(a) == 1:
        return (2.0 * a * b)[None]
    outer = a[:, None] * b[None]
    return outer + outer.swapaxes(0, 1)


def _chain(x: Jet, f, df, d2f) -> Jet:
    """The jet of f(x) from f, f' and (a thunk of) f'' at x.v."""
    if x._h is None:
        return Jet(f, df * x.g)
    h = (x.g * x.g)[None] if len(x.g) == 1 else x.g[:, None] * x.g[None]
    h *= d2f()
    if type(x._h) is not float:
        h += df * x._h
    return Jet(f, df * x.g, h)


def _quotient(a, b: Jet) -> Jet:
    """a / b for a jet b and a jet or a constant a, from a = q b."""
    jet = type(a) is Jet
    q = (a.v if jet else a) / b.v
    g = q * b.g
    g = a.g - g if jet else -g
    g /= b.v
    if b._h is None:
        return Jet(q, g)
    h = _sym_outer(g, b.g)
    if type(b._h) is not float:
        h += q * b._h
    h = a._h - h if jet and type(a._h) is not float else -h
    h /= b.v
    return Jet(q, g, h)


def _elementwise(fn, derivs):
    """fn on arrays, and on jets with (f', thunk of f'') = derivs(x, f(x))."""
    def op(x):
        if type(x) is not Jet:
            return fn(x)
        f = fn(x.v)
        return _chain(x, f, *derivs(x.v, f))
    op.__name__ = fn.__name__
    return op


sin = _elementwise(np.sin, lambda x, f: (np.cos(x), lambda: -f))
cos = _elementwise(np.cos, lambda x, f: (-np.sin(x), lambda: -f))
tan = _elementwise(np.tan, lambda x, f: (1.0 + f * f, lambda: 2.0 * f * (1.0 + f * f)))
sqrt = _elementwise(np.sqrt, lambda x, f: (0.5 / f, lambda: -0.25 / (f * x)))
exp = _elementwise(np.exp, lambda x, f: (f, lambda: f))
log = _elementwise(np.log, lambda x, f: (1.0 / x, lambda: -1.0 / (x * x)))


def lift(a, like: Jet) -> Jet:
    """a as a jet over the variables of ``like``: itself, or a constant (a scalar takes like's shape)."""
    if type(a) is Jet:
        return a
    a = np.asarray(a, dtype=float)
    if not a.ndim:
        a = np.full(like.shape, a)
    return Jet(a, np.zeros(like.g.shape[:1] + a.shape), None if like._h is None else 0.0)


def concatenate(items, axis: int = -1):
    """np.concatenate along a negative axis, of arrays and jets over the same variables."""
    for like in items:
        if type(like) is Jet:
            break
    else:
        return np.concatenate(items, axis)
    items = [a if type(a) is Jet else lift(a, like) for a in items]
    v, g = np.concatenate([a.v for a in items], axis), np.concatenate([a.g for a in items], axis)
    if like._h is None or all(type(a._h) is float for a in items):
        return Jet(v, g, like._h)
    return Jet(v, g, np.concatenate([a.h for a in items], axis))


def cumprod(x):
    """Cumulative product along the last axis, factor by factor as np.cumprod."""
    if type(x) is not Jet:
        return np.multiply.accumulate(x, axis=-1)
    parts = [x[..., :1]]
    for i in range(1, x.shape[-1]):
        parts.append(parts[-1] * x[..., i : i + 1])
    return concatenate(parts)


def derivatives(fn, t, order: int = 2) -> tuple:
    """(f, f') or (f, f', f'') at the times t of a function of one variable written with jet operations."""
    time = Jet.variable(t, order)
    f = lift(fn(time), time)
    return (f.v, f.g[0]) if order < 2 else (f.v, f.g[0], f.h[0, 0])


def metric_jet(components):
    """The ``MetricField.jet`` callback of ``components`` written with jet operations.

    Returns (g,) at order 0, (g, dg) at order 1 and (g, dg, ddg) at order 2
    in the kernel's layout, the point axes first: dg[..., a, b, c] = d_a g_bc
    and ddg[..., a, b, c, d] = d_a d_b g_cd.
    """
    constant = []       # set once the components come back a plain array from a jet

    def jet(points, order: int) -> tuple:
        if constant or not order:
            g = components(np.asarray(points, dtype=float))
        else:
            g = components(Jet.variables(points, order))
            if type(g) is not Jet:
                constant.append(True)
        if type(g) is not Jet:
            d = np.shape(points)[-1:]
            return (g,) + tuple(np.zeros(g.shape[:-2] + d * o + g.shape[-2:]) for o in range(1, order + 1))
        lead = tuple(range(1, g.v.ndim - 1))        # the point axes of g.g
        out = (g.v, np.ascontiguousarray(g.g.transpose(lead + (0, -2, -1))))
        if order > 1:
            out += (np.ascontiguousarray(g.h.transpose(tuple(i + 1 for i in lead) + (0, 1, -2, -1))),)
        return out

    return jet
