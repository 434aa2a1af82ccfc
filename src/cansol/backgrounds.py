"""Closed-form geometric-flow backgrounds and hypersurface flows.

The catalog holds metric families g(t) solving the forward flow
dg/dt = -2 Ric or the backward flow dg/dtau = +2 Ric, together with
hypersurface families F_t moving by dF/dt = -H nu inside them.  All
catalog entries are exact solutions given in closed form, with analytic
derivatives, so they serve as fixtures whose residuals under the
defining equations must vanish to machine precision.  A metric is its
2-jet, one callback, and a conformal family gives its phi(t) written with
the operations of ``cansol.jets``, whose partials come from the jet type.
A background answers at a stack of (point, time) rows: ``bundle`` and
``curvature``.  A flow's analytic data is its 2-jet, one callback
``MCFSolution.jet(x, t)`` on a point or a stack, and the partials of its
mean curvature, dH/dx and dH/dt, which every flow supplies;
``slice_stack`` reads the jet once per stack and carries it to the
space-time track.  The single-point slice, ``hypersurface_point_data``,
is the P = 1 case of ``slice_stack``.

Orientation convention: the unit normal nu is chosen so that a round
sphere in flat space has positive mean curvature with the outward normal
(H = n/r, second fundamental form h = g/r).  Concretely
h_ij = <d_i nu, d_j F> = -<D_{T_i} T_j, nu>, and the shrinking sphere
moves inward under -H nu.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import jets
from .geometry import (
    DegenerateMetricError,
    MetricBundle,
    MetricField,
    ScalarField,
    _door,
    _drop,
    _inverse,
    _metric_bundle,
    _one_point,
    _point_errors,
    _raise_first,
    _symmetrized,
    christoffel_batch,
    hessian_batch,
    ricci_batch,
    scalar_d1,
)

__all__ = [
    "POLE_BAND",
    "VARIANT_SIGNS",
    "ConformalFamily",
    "RicciFlowBackground",
    "BackgroundCurvature",
    "GradientSolitonData",
    "MCFSolution",
    "HypersurfacePointData",
    "BackgroundError",
    "model_background",
    "model_mcf",
    "catalog_background_names",
    "catalog_mcf_names",
    "ricci_flow_residual",
    "gradient_soliton_residual",
    "mcf_soliton_residual",
    "SliceStack",
    "hypersurface_point_data",
    "slice_stack",
    "extrinsic_geometry_batch",
    "unit_sphere_metric",
    "sphere_embedding_jet",
]

# Polar charts exclude a band of this width around coordinate singularities.
POLE_BAND = 1e-2


class BackgroundError(ValueError):
    """Unknown model name or invalid model parameters."""


# ---------------------------------------------------------------------------
# round-sphere chart: metric and embedding
# ---------------------------------------------------------------------------


def unit_sphere_metric(d: int) -> MetricField:
    """Round unit d-sphere in polar angles (theta_1 .. theta_d).

    g_ii = prod_{k<i} sin^2(theta_k), diagonal; the chart excludes a band
    of width POLE_BAND around theta_k in {0, pi} for k < d.  The components
    and their partials are rows of one factor table (``_angle_products``),
    scattered onto the diagonal; order 0 reads the value table alone.  The
    callbacks take points of any leading shape: (d,) or a (P, d) stack.
    """
    if d < 1:
        raise BackgroundError(f"sphere dimension must be >= 1, got {d}")
    tables, dd_rows = _sphere_metric_tables(d)
    m, diag, eye = d - 1, np.arange(d), np.eye(d)

    def jet(p, order: int) -> tuple:
        y = tables[order](p)
        g = y[..., 0, :, None] * eye
        if not order:
            return (g,)
        dg = np.zeros(y.shape[:-2] + (d,) * 3)
        dg[..., :m, diag, diag] = y[..., 1 : 1 + m, :]
        if order < 2:
            return g, dg
        ddg = np.zeros(y.shape[:-2] + (d,) * 4)
        ddg[..., :m, :m, diag, diag] = y.take(dd_rows, axis=-2)
        return g, dg, ddg

    def in_domain(p):
        q = p[..., : d - 1]
        return np.logical_and.reduce((q > POLE_BAND) & (q < math.pi - POLE_BAND), axis=-1)

    return MetricField(dim=d, jet=jet, in_domain=in_domain)


def _euclidean_metric(d: int) -> MetricField:
    eye = np.eye(d)

    def jet(p, order: int) -> tuple:
        lead = np.shape(p)[:-1]
        return (np.zeros(lead + (d, d)) + eye,) + tuple(np.zeros(lead + (d,) * (2 + o)) for o in range(1, order + 1))

    return MetricField(dim=d, jet=jet)


# The per-angle values a factor can take: value 0 is the constant 1, the
# others are functions of the angles' sines and cosines.
_VALUES = (None, lambda s, c: s, lambda s, c: c, lambda s, c: -s, lambda s, c: -c,
           lambda s, c: s**2, lambda s, c: 2.0 * s * c, lambda s, c: 2.0 * (c * c - s**2))
# _FACTOR[j, k] is the value of a factor of kind k (0 absent, 1 sin, 2 cos,
# 3 sin^2) differentiated j times; a partial of an absent factor is masked.
_FACTOR = np.array([[0, 1, 2, 5], [0, 2, 3, 6], [0, 3, 4, 7]])


def _angle_products(kinds: np.ndarray, orders: np.ndarray):
    """Map angles x to products of one factor per angle, and their partials.

    kinds[m, k] is product m's factor in angle k (see ``_FACTOR``).  Row q
    of the (..., Q, M) result differentiates orders[q, k] times in angle k;
    it is a product of its factors in angle order, and +0.0 where it
    differentiates an absent factor.  x has shape (n,) or (..., n).  Only
    the values that some factor takes are computed.
    """
    n = kinds.shape[1]
    live = np.all((orders[:, None, :] == 0) | (kinds != 0), axis=-1)
    everywhere = bool(live.all())
    value = _FACTOR[orders[:, None, :], kinds]                    # (Q, M, n)
    used = sorted(set(value.ravel().tolist()) - {0})
    block = np.zeros(len(_VALUES), dtype=int)
    block[used] = np.arange(len(used))
    # each factor's place in the values [1, then each used value of every angle]
    places = np.where(value > 0, 1 + block[value] * n + np.arange(n), 0)
    fns = [(np.s_[..., 1 + j * n : 1 + (j + 1) * n], _VALUES[v]) for j, v in enumerate(used)]
    cosines = not set(used) <= {1, 3, 5}

    def partials(x):
        s = np.sin(x)
        c = np.cos(x) if cosines else None
        values = np.empty(s.shape[:-1] + (1 + len(fns) * n,))
        values[..., 0] = 1.0
        for span, f in fns:
            values[span] = f(s, c)
        y = np.multiply.accumulate(values.take(places, axis=-1), axis=-1)[..., -1]
        return y if everywhere else np.where(live, y, 0.0)

    return partials


def _partial_orders(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Table rows over n angles: the value, d_a for a < m, then d_a d_b for a <= b < m.

    Returns the rows' orders and the (m, m) row numbers of the second partials.
    """
    eye = np.eye(n, dtype=int)
    iu, ju = np.triu_indices(m)
    orders = np.concatenate((np.zeros((1, n), dtype=int), eye[:m], eye[iu] + eye[ju]))
    dd_rows = np.empty((m, m), dtype=int)
    dd_rows[iu, ju] = dd_rows[ju, iu] = 1 + m + np.arange(len(iu))
    return orders, dd_rows


# The tables are built once per dimension: a catalog background or flow is
# built per suite, and building the three tables costs more than a jet call.
@functools.lru_cache(maxsize=16)
def _sphere_metric_tables(d: int) -> tuple:
    """The unit d-sphere metric's tables of orders 0, 1 and 2, and its second-partial rows.

    Diagonal entry i is the product of sin^2 of every angle below i;
    theta_d enters none.
    """
    orders, dd_rows = _partial_orders(d, d - 1)
    kinds = 3 * np.tril(np.ones((d, d), dtype=int), -1)
    return tuple(_angle_products(kinds, orders[:rows]) for rows in (1, d, len(orders))), dd_rows


@functools.lru_cache(maxsize=16)
def _embedding_tables(n: int) -> tuple:
    """The unit n-sphere embedding's tables of orders 0 and 2, and its second-partial rows.

    Component m is sin x_0 ... sin x_{m-1} cos x_m, the last one all sines.
    """
    orders, dd_rows = _partial_orders(n, n)
    kinds = np.tril(np.ones((n + 1, n), dtype=int), -1) + 2 * np.eye(n + 1, n, dtype=int)
    return (_angle_products(kinds, orders[:1]), _angle_products(kinds, orders)), dd_rows


def sphere_embedding_jet(n: int):
    """Map polar angles x to (omega, d_omega, dd_omega) of the unit n-sphere.

    omega(x) is the position on the unit sphere in R^{n+1}, d_omega[i] =
    d omega / d x^i and dd_omega[i, j] the second partials, all from one
    vectorized pass.  x is one point (n,) or a stack (..., n); the results
    gain its leading shape.
    """
    (_, partials), dd_rows = _embedding_tables(n)

    def jet(x):
        y = partials(x)
        return y[..., 0, :], y[..., 1 : n + 1, :], y[..., dd_rows, :]

    return jet


def _polar_box(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample box of a polar chart: angles 0.1 inside the pole band, azimuth a full turn."""
    low = np.full(d, POLE_BAND + 0.1)
    high = np.full(d, math.pi - POLE_BAND - 0.1)
    low[-1], high[-1] = 0.0, 2.0 * math.pi
    return low, high


def _per_time(fn, t, shape: tuple) -> np.ndarray:
    """The time scalar fn at each time of t broadcast to ``shape``, an array of that shape.

    fn runs on Python floats, one time at a time: array ``**`` rounds
    differently from float ``**``, and a point's value must not depend on
    the stack it came in.
    """
    ts = np.asarray(t, dtype=float)
    if ts.shape != shape:
        ts = np.broadcast_to(ts, shape)
    return np.reshape(np.array([fn(s) for s in ts.ravel().tolist()], dtype=float), shape)


# ---------------------------------------------------------------------------
# backgrounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConformalFamily:
    """Time family g(t) = phi(t) * sigma(y) with sigma static.

    sigma_scalar is the (spatially constant) scalar curvature of sigma and
    ric_sigma its Ricci tensor; both are scale-invariant, which is what
    makes the curvature of the whole family closed-form.  phi takes a
    float, an array or a jet of t; ``jets.derivatives`` gives its
    t-derivatives and those of R.
    """

    sigma: MetricField
    phi: Callable[[float], float]
    sigma_scalar: float
    ric_sigma: Callable[[np.ndarray], np.ndarray]

    def R(self, t, phi=None):
        """Scalar curvature of g(t), sigma_scalar / phi(t); ``phi`` is phi(t), if the caller has it."""
        return self.sigma_scalar / (self.phi(t) if phi is None else phi)


class BackgroundCurvature(NamedTuple):
    """Closed-form curvature of g(t) at a stack of P (point, time) rows."""

    ric: np.ndarray               # (P, m, m) Ricci tensor
    R: np.ndarray                 # (P,) scalar curvature
    dRdt: np.ndarray              # (P,)
    dRdy: np.ndarray              # (P, m) coordinate partials of R


@dataclass(frozen=True)
class RicciFlowBackground:
    """A closed-form solution of the (possibly backward) metric flow.

    ``direction`` selects the flow sign: "forward" means dg/dt = -2 Ric,
    "backward" means dg/dtau = +2 Ric with tau stored directly as the time
    variable.  ``bundle`` and ``curvature`` answer for a stack of (point,
    time) rows; the curvature is closed-form and is cross-checked against
    the numeric kernel in the test suite.  ``sample_box`` is the (low,
    high) box, scalars or per-coordinate arrays, that ``sample_points``
    draws from.
    """

    name: str
    dim: int
    direction: str                       # "forward" | "backward"
    time_domain: tuple[float, float]     # (0, T], endpoint inclusive
    conformal: ConformalFamily
    soliton: "GradientSolitonData | None" = None
    sample_box: tuple = (-1.5, 1.5)

    def __post_init__(self):
        if self.direction not in ("forward", "backward"):
            raise BackgroundError(f"unknown flow direction {self.direction!r}")

    def _door(self, points, ts, *vectors, floor=-math.inf) -> tuple:
        """``geometry._door`` of (point, time) pairs here: this background's time domain, then sigma's chart."""
        return _door(points, ts, self.dim, (self.time_domain,), *vectors,
                     floor=floor, in_domain=self.conformal.sigma.in_domain)

    @property
    def flat(self) -> bool:
        """Whether g(t) is flat; on the catalog, whose only scalar-flat sigma is Euclidean, iff R = 0."""
        return self.conformal.sigma_scalar == 0.0

    def bundle(self, points, ts, order: int = 1) -> MetricBundle:
        """The ``metric_bundle`` of g(t_p) = phi(t_p) sigma at a stack of points p, one time each.

        A pair that fails the door (its time, then its point) is left out and
        its error recorded in ``errors``, as ``metric_bundle`` records a
        point; sigma and its jet are evaluated once for the whole stack.
        """
        errors, index, pts, times = self._door(points, ts)
        return self._bundle(pts, times.tolist(), order, errors, index)

    def _bundle(self, pts: np.ndarray, ts: list, order: int, errors=None, index=None) -> MetricBundle:
        """``bundle``'s core on checked rows: (P, m) chart points, P float times, the door's errors and index."""
        c = self.conformal
        return _metric_bundle(c.sigma, pts, order, np.array([c.phi(t) for t in ts], dtype=float), errors, index)

    def curvature(self, points, ts) -> BackgroundCurvature:
        """The curvature of g(t_p) at a (P, m) stack of points p, one time each, checked as by ``bundle``.

        A bare (m,) point is a one-row stack: every array has a leading axis of length 1.
        The first failing pair raises its error.
        """
        errors, _, pts, times = self._door(points, ts)
        _raise_first(errors)
        return self._curvature(pts, times.tolist())

    def _curvature(self, pts: np.ndarray, ts: list) -> BackgroundCurvature:
        """``curvature``'s core: a (P, m) stack of points and their P float times, the times checked."""
        c = self.conformal
        R, dRdt = jets.derivatives(c.R, ts, order=1)
        # R = sigma_scalar / phi(t) is constant in space
        return BackgroundCurvature(np.asarray(c.ric_sigma(pts)), R, dRdt, np.zeros(pts.shape))

    def dt_metric_at(self, p: np.ndarray, t: float) -> np.ndarray:
        """dg/dt at one (point, time) pair, checked as by ``curvature``."""
        errors, _, pts, times = self._door(_one_point(p), [t])
        _raise_first(errors)
        return self._dt_metric(pts, times.tolist())[0]

    def _dt_metric(self, pts: np.ndarray, ts: list) -> np.ndarray:
        """``dt_metric_at``'s core: dg/dt at a (P, m) stack of checked points and their P float times."""
        dphi = jets.derivatives(self.conformal.phi, ts, order=1)[1]
        return dphi[:, None, None] * self.conformal.sigma.components(pts)

    def sample_points(self, count: int, rng: np.random.Generator) -> list[np.ndarray]:
        """Random chart points from ``sample_box``, away from coordinate singularities."""
        return list(rng.uniform(*self.sample_box, (count, self.dim)))


# Sign s of each soliton variant: the canonical expanding and shrinking
# solitons are one construction in t and in tau with s flipped, the steady one
# has no time scaling.  From s follow the soliton constant s/2 (s/(2t) on a
# background soliton), the direction (forward iff s > 0) and the time scale.
VARIANT_SIGNS = {"expanding": 1, "shrinking": -1, "steady": 0}


@dataclass(frozen=True)
class GradientSolitonData:
    """Potential and class of a gradient soliton structure on a background.

    ``potential(t)`` is the potential f at time t, a ``ScalarField``.
    """

    potential: Callable[[float], ScalarField]
    soliton_class: str   # a key of VARIANT_SIGNS

    def __post_init__(self):
        if self.soliton_class not in VARIANT_SIGNS:
            raise BackgroundError(f"unknown soliton class {self.soliton_class!r}")

    @property
    def c(self) -> float:
        return float(VARIANT_SIGNS[self.soliton_class])


# ---------------------------------------------------------------------------
# the value contract shared by the catalog and the run configuration
# ---------------------------------------------------------------------------


class _Number(NamedTuple):
    """A finite number, no bool, of ``kind`` int or float: an integer >= ``low``, a real > ``low``."""

    kind: type = float
    low: float | None = None

    def ok(self, v) -> bool:
        if isinstance(v, bool) or not isinstance(v, numbers.Integral if self.kind is int else numbers.Real):
            return False
        low = self.low is None or (v >= self.low if self.kind is int else v > self.low)
        return low and (self.kind is int or math.isfinite(v))

    def describe(self, plural=False) -> str:
        noun = ("integer" if self.kind is int else "finite number") + ("s" if plural else "")
        bound = "" if self.low is None else f" {'>=' if self.kind is int else '>'} {self.low}"
        return f"{'' if plural else 'an ' if self.kind is int else 'a '}{noun}{bound}"


class _List(NamedTuple):
    """A non-empty list of ``item`` numbers; ``length`` of them if given, strictly ascending if asked."""

    item: _Number
    length: int | None = None
    ascending: bool = False

    def ok(self, v) -> bool:
        return (isinstance(v, (list, tuple)) and (len(v) == self.length if self.length else len(v) > 0)
                and all(map(self.item.ok, v))
                and not (self.ascending and any(a >= b for a, b in zip(v, v[1:]))))

    def describe(self) -> str:
        count = {None: "a non-empty list of", 2: "two", 3: "three"}[self.length]
        return f"{count} {self.item.describe(plural=True)}{', strictly ascending' if self.ascending else ''}"


def _check(value, spec, where: str, error: type):
    """``value`` if it meets ``spec``, its numbers converted to their kind; else ``error``.

    A spec is a ``_Number``, a ``_List``, ``str``, a tuple of the strings allowed,
    ``dict`` (any object) or a dict, whose keys are the accepted ones, each with the
    spec of its value.  A key left out stays out.  ``where`` names the value.
    """
    name = where or "config"
    if isinstance(spec, dict) or spec is dict:
        if not isinstance(value, dict):
            raise error(f"{name} must be an object, got {value!r}")
        if spec is dict:
            return value
        unknown = set(value) - set(spec)
        if unknown:
            raise error(f"unknown {name} keys: {sorted(unknown)}")
        return {k: _check(v, spec[k], f"{where}.{k}" if where else k, error) for k, v in value.items()}
    if spec is str:
        ok, what = isinstance(value, str), "a string"
    elif isinstance(spec, (_Number, _List)):
        ok, what = spec.ok(value), spec.describe()
    else:
        ok, what = value in spec, f"one of {list(spec)}"
    if not ok:
        raise error(f"{name} must be {what}, got {value!r}")
    return spec.kind(value) if isinstance(spec, _Number) else value


def _build(table: dict, kind: str, name: str, params: dict, *args):
    """The catalog entry ``name`` built on ``args`` and its parameters, checked where given, else defaults."""
    if name not in table:
        raise BackgroundError(f"unknown {kind} {name!r}; known: {list(table)}")
    build, entry = table[name]
    given = _check(params, {k: spec for k, (_, spec) in entry.items()}, name, BackgroundError)
    return build(*args, **{**{k: default for k, (default, _) in entry.items()}, **given})


_POSITIVE = _Number(float, low=0)
# (default, spec) pairs of the catalog parameters that several entries take
_DIM = (3, _Number(int, low=1))
_DIRECTION = ("forward", ("forward", "backward"))
_TIME = (1.0, _POSITIVE)


def _euclidean_static(dim, direction, T):
    conf = ConformalFamily(
        sigma=_euclidean_metric(dim),
        phi=lambda t: 1.0,
        sigma_scalar=0.0,
        ric_sigma=lambda p: np.zeros(np.shape(p)[:-1] + (dim, dim)),
    )
    return RicciFlowBackground("euclidean_static", dim, direction, (0.0, T), conf)


def _round_sphere(dim, r0, direction, T):
    rate = 2.0 * (dim - 1)
    if direction == "forward":
        t_sing = r0**2 / rate
        T = 0.8 * t_sing if T is None else T
        if not T < t_sing:
            raise BackgroundError(f"round_sphere forward needs 0 < T < {t_sing}, got T={T}")
        phi = lambda t: r0**2 - rate * t
    else:
        T = 1.0 if T is None else T
        phi = lambda t: r0**2 + rate * t
    sigma = unit_sphere_metric(dim)
    conf = ConformalFamily(
        sigma=sigma,
        phi=phi,
        sigma_scalar=float(dim * (dim - 1)),
        ric_sigma=lambda p: (dim - 1) * np.asarray(sigma.components(p)),
    )
    return RicciFlowBackground("round_sphere", dim, direction, (0.0, T), conf, sample_box=_polar_box(dim))


def _gaussian_shrinker_flat(dim, T):
    def potential(t):
        return ScalarField(
            value=lambda y: _square(y) / (4.0 * t),
            d1=lambda y: y / (2.0 * t),
            d2=lambda y: np.broadcast_to(np.eye(dim) / (2.0 * t), y.shape + (dim,)),
        )

    soliton = GradientSolitonData(potential, "shrinking")
    return replace(_euclidean_static(dim, "backward", T), name="gaussian_shrinker_flat", soliton=soliton)


# each catalog background: its builder, and the (default, spec) pair of each parameter
_BACKGROUNDS = {
    "euclidean_static": (_euclidean_static, {"dim": _DIM, "direction": _DIRECTION, "T": _TIME}),
    "round_sphere": (_round_sphere, {"dim": (3, _Number(int, low=2)), "r0": (1.0, _POSITIVE),
                                     "direction": _DIRECTION, "T": (None, _POSITIVE)}),
    "gaussian_shrinker_flat": (_gaussian_shrinker_flat, {"dim": _DIM, "T": _TIME}),
}


def catalog_background_names() -> list[str]:
    return list(_BACKGROUNDS)


def model_background(name: str, **params) -> RicciFlowBackground:
    """Build a catalog background.

    euclidean_static(dim, direction="forward", T=1.0): flat static metric.
    round_sphere(dim, r0, direction, T=None): g(t) = (r0^2 -+ 2(d-1)t) * round
        unit metric; forward direction shrinks toward the singular time
        r0^2 / (2(d-1)), backward grows without bound.
    gaussian_shrinker_flat(dim, T=1.0): flat backward background carrying
        the potential f = |y|^2 / (4 tau), shrinking class.
    """
    return _build(_BACKGROUNDS, "background", name, params)


def _square(y: np.ndarray) -> np.ndarray:
    """|y|^2 over the last axis."""
    return np.einsum("...i,...i->...", y, y)


# ---------------------------------------------------------------------------
# hypersurface flows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MCFSolution:
    """Closed-form family of immersions F_t : M^n -> O^{n+1}.

    ``jet(x, t)`` is the analytic 2-jet of the flow, the tuple
    (F, d_t F, d_x F, d_x d_x F, d_x d_t F, d_t d_t F) of shapes (n+1,),
    (n+1,), (n, n+1), (n, n, n+1), (n, n+1) and (n+1,) at one point.
    ``dx_mean_curvature`` and ``dt_mean_curvature`` give the analytic
    partials of H, (n,) and a scalar per point; every flow supplies both.
    Everything else (induced metric, normal, second fundamental form, H
    itself) is computed by the kernel.  Every callback takes x of shape
    (n,) or a stack (..., n), with t broadcastable to the leading shape,
    and its results gain that leading shape.  ``time_domain`` defaults to
    the ambient's; ``sample_box`` is the (low, high) box that
    ``sample_xs`` draws from.
    """

    name: str
    hypersurface_dim: int
    ambient: RicciFlowBackground
    jet: Callable[[np.ndarray, float], tuple]
    orientation_hint: Callable[[np.ndarray, float], np.ndarray]
    dx_mean_curvature: Callable[[np.ndarray, float], np.ndarray]
    dt_mean_curvature: Callable[[np.ndarray, float], float]
    time_domain: tuple[float, float] | None = None
    sample_box: tuple = (-1.5, 1.5)

    def __post_init__(self):
        if self.time_domain is None:
            object.__setattr__(self, "time_domain", self.ambient.time_domain)

    def sample_xs(self, count: int, rng: np.random.Generator) -> list[np.ndarray]:
        return list(rng.uniform(*self.sample_box, (count, self.hypersurface_dim)))


def _shrinking_sphere_flat(bg, n, r0):
    if not bg.flat:
        raise BackgroundError("shrinking_sphere_flat needs a flat background")
    omega_jet = sphere_embedding_jet(n)
    # the outward hint is omega alone, not a second full jet
    omega = _embedding_tables(n)[0][0]
    t_sing = r0**2 / (2.0 * n)
    T = min(bg.time_domain[1], 0.8 * t_sing)

    def r(t):
        return math.sqrt(r0**2 - 2.0 * n * t)

    def jet(x, t):
        w, dw, ddw = omega_jet(x)
        rt = _per_time(r, t, w.shape[:-1])[..., None]
        d2r = _per_time(lambda s: -(n**2) / r(s) ** 3, t, w.shape[:-1])[..., None]
        dr = -n / rt
        rb, drb = rt[..., None], dr[..., None]
        return rt * w, dr * w, rb * dw, rb[..., None] * ddw, drb * dw, d2r * w

    return MCFSolution(
        name="shrinking_sphere_flat",
        hypersurface_dim=n,
        ambient=bg,
        jet=jet,
        orientation_hint=lambda x, t: omega(x)[..., 0, :],
        dx_mean_curvature=lambda x, t: np.zeros(np.shape(x)),
        dt_mean_curvature=lambda x, t: _per_time(lambda s: n**2 / r(s) ** 3, t, np.shape(x)[:-1]),
        time_domain=(0.0, T),
        sample_box=_polar_box(n),
    )


def _equator_in_sphere(bg, n):
    if bg.name != "round_sphere":
        raise BackgroundError("equator_in_sphere needs a round_sphere background")
    return MCFSolution(
        name="equator_in_sphere",
        hypersurface_dim=n,
        ambient=bg,
        # the polar angle pi/2 prepended to x
        jet=lambda x, t: _static_jet(x, math.pi / 2.0, 0, np.eye(n, n + 1, k=1)),
        orientation_hint=lambda x, t: _static_hint(x, 0),
        dx_mean_curvature=lambda x, t: np.zeros(np.shape(x)),
        dt_mean_curvature=lambda x, t: np.zeros(np.shape(x)[:-1]),
        sample_box=_polar_box(n),
    )


def _static_plane_flat(bg, n, height):
    if not bg.flat:
        raise BackgroundError("static_plane_flat needs a flat background")
    return MCFSolution(
        name="static_plane_flat",
        hypersurface_dim=n,
        ambient=bg,
        # the coordinate ``height`` appended to x
        jet=lambda x, t: _static_jet(x, height, n, np.eye(n, n + 1)),
        orientation_hint=lambda x, t: _static_hint(x, n),
        dx_mean_curvature=lambda x, t: np.zeros(np.shape(x)),
        dt_mean_curvature=lambda x, t: np.zeros(np.shape(x)[:-1]),
    )


# each catalog flow: its builder, and the (default, spec) pair of each parameter
_FLOWS = {
    "shrinking_sphere_flat": (_shrinking_sphere_flat, {"r0": (1.0, _POSITIVE)}),
    "equator_in_sphere": (_equator_in_sphere, {}),
    "static_plane_flat": (_static_plane_flat, {"height": (0.0, _Number(float))}),
}


def catalog_mcf_names() -> list[str]:
    return list(_FLOWS)


def model_mcf(name: str, bg: RicciFlowBackground, **params) -> MCFSolution:
    """Build a catalog hypersurface flow inside a given background.

    shrinking_sphere_flat(r0): round sphere of radius r(t) = sqrt(r0^2 - 2nt)
        in a flat background (n = bg.dim - 1).
    equator_in_sphere(): totally geodesic equator of a round-sphere
        background, static in sphere coordinates.
    static_plane_flat(height=0.0): fixed coordinate hyperplane in a flat
        background.
    """
    if bg.dim < 2:
        raise BackgroundError("background dimension too small for hypersurfaces")
    return _build(_FLOWS, "hypersurface flow", name, params, bg, bg.dim - 1)


def _static_jet(x, value: float, k: int, tangents: np.ndarray) -> tuple:
    """2-jet of a static, affinely embedded flow F(x) = x with ``value`` inserted at index k.

    Only F and d_x F are non-zero.
    """
    x = np.asarray(x, dtype=float)
    lead = x.shape[:-1]
    n, m = tangents.shape
    F = np.concatenate((x[..., :k], np.full(lead + (1,), value), x[..., k:]), axis=-1)
    return (F, np.zeros(lead + (m,)), tangents + np.zeros(lead + (n, m)),
            np.zeros(lead + (n, n, m)), np.zeros(lead + (n, m)), np.zeros(lead + (m,)))


def _static_hint(x, k: int) -> np.ndarray:
    """Unit coordinate vector e_k of the (n+1)-dimensional ambient chart, per point of x."""
    x = np.asarray(x)
    hint = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
    hint[..., k] = 1.0
    return hint


# ---------------------------------------------------------------------------
# residual operations
# ---------------------------------------------------------------------------


def ricci_flow_residual(bg: RicciFlowBackground, p: np.ndarray, t: float) -> np.ndarray:
    """dg/dt - S with S = -2 Ric (forward) or +2 Ric (backward), symmetrized, (d, d).

    Vanishes identically on exact solutions; the Ricci tensor comes from
    the numeric kernel, not from the background's closed forms.
    """
    b = bg.bundle(_one_point(p), [t], order=2)
    b.raise_error()
    sign = -2.0 if bg.direction == "forward" else 2.0
    return _symmetrized(bg._dt_metric(b.points, [float(t)])[0] - sign * ricci_batch(b)[0])


def gradient_soliton_residual(
    bg: RicciFlowBackground,
    sol: GradientSolitonData,
    p: np.ndarray,
    t: float,
) -> np.ndarray:
    """Gradient-soliton defect Ric + Hess(f) + (c / 2t) g at (p, t), (d, d), from one metric bundle."""
    b = bg.bundle(_one_point(p), [t], order=2)
    b.raise_error()
    hess = hessian_batch(b, sol.potential(t))[0]
    return _symmetrized(ricci_batch(b)[0] + hess + (sol.c / (2.0 * t)) * b.g[0])


def mcf_soliton_residual(
    mcf: MCFSolution,
    potential: Callable[[float], ScalarField],
    sign: float,
    x: np.ndarray,
    t: float,
) -> float:
    """Pointwise soliton defect H + sign * (nu f) of a hypersurface.

    ``potential`` is t -> f at time t, as in ``GradientSolitonData``;
    ``sign`` is +1 or -1; the normal is the catalog orientation (outward
    for spheres).  The defect vanishes on exact hypersurface solitons.
    """
    if sign not in (+1.0, -1.0, 1, -1):
        raise BackgroundError(f"sign must be +1 or -1, got {sign}")
    data = hypersurface_point_data(mcf, x, t)
    nu_f = float(data.normal @ scalar_d1(potential(t), data.position))
    return data.mean_curvature + float(sign) * nu_f


# ---------------------------------------------------------------------------
# hypersurface pointwise geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HypersurfacePointData:
    """Extrinsic geometry of M_t at one point of the hypersurface chart.

    ``ambient`` is the background M_t lives in; the slice-level forms read
    it and ``t`` from here, so a slice cannot meet another background or time.
    """

    ambient: RicciFlowBackground
    x: np.ndarray
    t: float
    jet: tuple                    # the flow's 2-jet at (x, t), see MCFSolution
    g: np.ndarray                 # ambient g_ab(t) at F_t(x)
    ginv: np.ndarray
    curvature: BackgroundCurvature  # the ambient's, one row at (F_t(x), t)
    induced: np.ndarray           # g_ij
    induced_inv: np.ndarray
    normal: np.ndarray            # unit, catalog orientation
    second_ff: np.ndarray         # h_ij = -<D_{T_i} T_j, nu>
    mean_curvature: float
    dx_mean_curvature: np.ndarray # coordinate partials d_i H
    dt_mean_curvature: float

    position = property(lambda self: self.jet[0])   # F_t(x) in the ambient chart
    velocity = property(lambda self: self.jet[1])   # d_t F
    tangents = property(lambda self: self.jet[2])   # (n, n+1) rows d_i F


def extrinsic_geometry_batch(tangents, second_partials, g, gamma, hint):
    """(induced, induced_inv, normal, h, H) of a hypersurface at a stack of P points.

    Takes the (P, n, n+1) tangent rows d_i F, the (P, n, n, n+1) second
    partials, and the ambient g and Gamma at the image points; each unit
    normal is oriented toward its ``hint``.  Slices and the space-time
    track both use it.  The induced metrics are inverted with the kernel's
    1-norm condition check.  Returns the five results, stacked over the
    points whose induced metric inverts, and per point None or the
    ``DegenerateMetricError`` of a degenerate one.

    The normal is the null vector of T g from its signed n x n minors,
    which never all vanish once the degenerate points are dropped.  A
    point's result does not depend on the rest of the stack: the inputs
    and every intermediate are C contiguous before each contraction,
    since numpy's matmul takes another path on a strided operand, and a
    one-row stack can count as contiguous where a longer one does not.
    """
    tangents, second_partials, g, gamma, hint = (
        np.ascontiguousarray(a) for a in (tangents, second_partials, g, gamma, hint))
    induced = tangents @ g @ tangents.transpose(0, 2, 1)
    induced = 0.5 * (induced + induced.transpose(0, 2, 1))
    induced_inv, errors = _inverse(induced, tangents)
    for i, cause in enumerate(errors):
        if cause is not None:
            errors[i] = DegenerateMetricError("degenerate induced metric")
            errors[i].__cause__ = cause
    _, tangents, second_partials, g, gamma, hint, induced, induced_inv = _drop(
        errors, np.arange(len(errors)), errors, tangents, second_partials, g, gamma, hint, induced, induced_inv)
    # the null vector of the n x m matrix T g from its signed n x n minors,
    # then g-normalized and oriented: g(nu, hint) keeps its sign
    n, m = tangents.shape[1:]
    drop = np.arange(n) + (np.arange(n) >= np.arange(m)[:, None])   # row k: every column but k
    minors = np.ascontiguousarray((tangents @ g)[:, :, drop].transpose(0, 2, 1, 3))
    nu = np.ascontiguousarray(np.linalg.det(minors)) * (-1.0) ** np.arange(m)
    g_nu = g @ nu[..., None]
    scale = np.sqrt(nu[:, None] @ g_nu)
    scale = np.where(hint[:, None] @ g_nu < 0.0, -scale, scale)
    nu, g_nu = nu / scale[:, 0], g_nu / scale
    # (D_{T_i} T_j)^c = dd_ij F^c + Gamma^c_ab T_i^a T_j^b, staged as T (Gamma T^T)
    gamma_T = gamma @ np.ascontiguousarray(tangents.transpose(0, 2, 1))[:, None]
    cov = second_partials + (tangents[:, None] @ gamma_T).transpose(0, 2, 3, 1)
    h = -(np.ascontiguousarray(cov) @ g_nu[:, None])[..., 0]
    h = 0.5 * (h + h.transpose(0, 2, 1))
    return (induced, induced_inv, nu, h, np.einsum("pij,pij->p", induced_inv, h)), errors


class SliceStack(NamedTuple):
    """The geometry of M_t at a stack of (x, t) pairs, stacked over the pairs in ``index``.

    ``errors`` has one entry per pair: None, or the exception
    ``hypersurface_point_data`` raises there.  Row j lies over pair
    ``index[j]``: ``xs`` and ``ts`` hold the rows' points and times, ``ext``
    the ``extrinsic_geometry_batch`` results, ``g`` and ``ginv`` the ambient
    metric at the image points.
    """

    mcf: MCFSolution
    xs: np.ndarray                # (P, n), the stacked rows
    ts: list                      # P floats, the stacked rows
    index: np.ndarray
    errors: list
    jet: tuple
    ext: tuple
    g: np.ndarray
    ginv: np.ndarray

    def record(self, j: int) -> HypersurfacePointData:
        """The ``HypersurfacePointData`` of stacked row j, with the ambient's curvature there."""
        x, t = self.xs[j], self.ts[j]
        induced, induced_inv, nu, h, H = (a[j] for a in self.ext)
        jet = tuple(a[j] for a in self.jet)
        return HypersurfacePointData(
            ambient=self.mcf.ambient,
            x=x,
            t=t,
            jet=jet,
            g=self.g[j],
            ginv=self.ginv[j],
            curvature=BackgroundCurvature._make(a[0] for a in self.mcf.ambient._curvature(jet[0][None], [t])),
            induced=induced,
            induced_inv=induced_inv,
            normal=nu,
            second_ff=h,
            mean_curvature=float(H),
            dx_mean_curvature=np.asarray(self.mcf.dx_mean_curvature(x, t), dtype=float),
            dt_mean_curvature=float(self.mcf.dt_mean_curvature(x, t)),
        )


def slice_stack(mcf: MCFSolution, xs, ts) -> SliceStack:
    """The flow's 2-jets and the extrinsic geometry of M_t at a stack of (x, t) pairs.

    ``xs`` is a (P, n) stack of chart points and ``ts`` their P times.  Each
    pair is checked, and its failure recorded in ``errors``, as
    ``metric_bundle`` does.  The door (``geometry._door``) checks a time
    outside the flow's domain, then the ambient's, then a non-finite x; the
    core, an image outside the ambient chart (``ChartDomainError``), then a
    degenerate ambient or induced metric (``DegenerateMetricError``).  The
    flow's callbacks and the ambient's bundle run once, on the pairs that pass.
    """
    return _slice_stack(mcf, *_door(xs, ts, mcf.hypersurface_dim, (mcf.time_domain, mcf.ambient.time_domain)))


def _slice_stack(mcf: MCFSolution, errors: list, index, x: np.ndarray, t: np.ndarray) -> SliceStack:
    """``slice_stack``'s core on a door's output: its per-pair errors, index, (P, n) points and (P,) times.

    The images F_t(x) are checked against the ambient's chart here, once.
    """
    jet = tuple(np.asarray(a, dtype=float) for a in mcf.jet(x, t))
    amb = mcf.ambient
    index, x, t, *jet = _drop(errors, index, _point_errors(jet[0], amb.conformal.sigma.in_domain), x, t, *jet)
    b = amb._bundle(jet[0], t.tolist(), 1)
    index, x, t, *jet = _drop(errors, index, b.errors, x, t, *jet)
    hint = np.asarray(mcf.orientation_hint(x, t), dtype=float)
    ext, bad = extrinsic_geometry_batch(jet[2], jet[3], b.g, christoffel_batch(b), hint)
    index, x, t, g, ginv, *jet = _drop(errors, index, bad, x, t, b.g, b.ginv, *jet)
    return SliceStack(mcf, x, t.tolist(), index, errors, tuple(jet), ext, g, ginv)


def hypersurface_point_data(mcf: MCFSolution, x: np.ndarray, t: float) -> HypersurfacePointData:
    """Compute induced metric, normal, h, H and H-derivatives at (x, t).

    The one-pair case of ``slice_stack``: it raises the error that
    ``slice_stack`` records at (x, t).  The H-derivatives are the flow's
    own callbacks.
    """
    stack = slice_stack(mcf, _one_point(x), [t])
    _raise_first(stack.errors)
    return stack.record(0)
