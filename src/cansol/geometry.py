"""Chart-based numerical Riemannian geometry.

A metric is one callback, its jet: the component matrix g_ij at chart
points and, on request, its first and second partials (the catalog
gives them in closed form, and differentiates in time with
``cansol.jets``).  A jet that answers the value alone is
value-only, and central finite differences with the fixed steps FD_H1
and FD_H2 stand in for its partials, so the same curvature code doubles
as an independent check of any closed-form input (the FD backend).
``check_metric_derivatives`` adds one level of Richardson extrapolation
to its comparison stencil.

The kernel is batched over a leading sample axis.  ``metric_bundle``
evaluates g, g^-1, dg and (when asked) ddg once for a stack of P points,
and the ``*_batch`` operations contract those into (P, ...) arrays.  The
single-point ``inverse_metric`` and ``christoffel`` are the P = 1 case
of the same code.  Each point's result is independent of how many
points share the call: a contraction is an elementwise product or sum, a
per-point ``np.einsum``, or a stacked matmul whose operands are C
contiguous.  numpy's matmul takes another path on a strided operand, and
a one-row stack can count as contiguous where a longer one does not.

Input is checked at the door.  A public stacked entry validates what it
is given once, through ``_door``: the stack's shape and pairing, then
each pair's time, then its point's finiteness and chart domain, so a
pair's error is the first it meets in that order, whatever the entry.
It then hands the rows that pass to a ``_``-private core, which trusts
them and checks only what it computes itself (a callback's shapes, the
conditioning of g).  ``metric_bundle`` is the door of the core
``_metric_bundle`` for points without times; entries in other modules
that have validated their rows call the cores directly.

Conventions
-----------
* Points are float arrays of chart coordinates: one point has shape (d,),
  a stack has shape (P, d).  On space-time charts index 0 is always the
  time coordinate.
* Callbacks take a (P, d) stack and return arrays with a leading P axis.
  A call on a single point (P = 1) may return the per-point shape instead;
  any other shape raises ``GeometryError``.
* ``christoffel_batch`` returns Gamma[p, a, b, c] = Gamma^a_{bc}.
* ``ricci_batch`` returns Ric[p, b, d] = Ric_bd with
  Ric_bd = d_a Gamma^a_{bd} - d_d Gamma^a_{ab}
           + Gamma^a_{ae} Gamma^e_{bd} - Gamma^a_{de} Gamma^e_{ab},
  the sign for which the round sphere has positive Ricci curvature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

__all__ = [
    "GeometryError",
    "DegenerateMetricError",
    "ChartDomainError",
    "FD_H1",
    "FD_H2",
    "MetricField",
    "ScalarField",
    "ConnectionCoeffs",
    "MetricBundle",
    "metric_bundle",
    "scalar_d1",
    "inverse_metric",
    "christoffel",
    "christoffel_batch",
    "ricci_batch",
    "scalar_curvature_batch",
    "hessian_batch",
    "tensor_norm_batch",
    "gradient_batch",
    "check_metric_derivatives",
]

# Matrix inversion is refused above this condition number; beyond it the
# curvature output would be numerical noise.
COND_LIMIT = 1e12

# Finite-difference steps for first and second partials.  The step along
# coordinate a is ``h * max(1, |p_a|)``.
FD_H1 = 1e-5
FD_H2 = 1e-4


class GeometryError(Exception):
    """Base class for errors raised by the geometry kernel."""


class DegenerateMetricError(GeometryError):
    """Metric is singular (condition number above COND_LIMIT) at a point."""


class ChartDomainError(GeometryError, ValueError):
    """Point lies outside the declared chart domain."""


def _one_point(coords) -> np.ndarray:
    """The (1, d) stack of one point (d,): an empty list is one point, of dimension 0."""
    p = np.asarray(coords, dtype=float)
    if p.ndim != 1:
        raise ChartDomainError(f"chart point must be a 1-d coordinate array, got shape {p.shape}")
    return p[None]


def _point_stack(coords, dim: int | None = None, row: str = "point") -> tuple[np.ndarray, bool]:
    """(P, d) float stack of one point (d,) or a stack; also whether it was one point.

    An empty list is the empty stack.  ``row`` names the rows in the
    errors: the points of a chart, or the vectors at them.
    """
    pts = np.asarray(coords, dtype=float)
    if pts.shape == (0,):
        pts = pts.reshape(0, dim or 0)
    single = pts.ndim == 1
    if single:
        pts = pts[None]
    if pts.ndim != 2:
        raise ChartDomainError(f"chart {row}s must have shape (d,) or (P, d), got {pts.shape}")
    if dim is not None and pts.shape[1] != dim:
        raise ChartDomainError(f"{row} has dimension {pts.shape[1]}, chart has {dim}")
    return pts, single


def _door(points, ts, dim: int, windows, *vectors, floor=-math.inf, in_domain=None) -> tuple:
    """The one door of the stacked entries: (errors, index, points, times, *vectors).

    It checks the pairing of ``points`` and ``vectors`` with ``ts``, then
    each pair's time (``_time_errors`` over ``windows`` with ``floor``),
    then its point (finiteness and ``in_domain``).  A bare (dim,) point is a
    one-row stack and an empty list the empty one.  Rows of another
    dimension raise the ``ChartDomainError`` of ``metric_bundle``; times
    that are not 1-d or not one per row, a ``GeometryError``.  ``errors``
    holds each pair's first error or None; the (P, dim) float stacks and
    the (P,) times come back at the rows that pass, ``index`` their pairs.
    """
    times = np.asarray(ts, dtype=float)
    if times.ndim != 1:
        raise GeometryError(f"times must have shape (P,), got {times.shape}")
    stacks = []
    for rows in (points, *vectors):
        row = "vector" if stacks else "point"
        rows, _ = _point_stack(rows, dim, row)
        if len(rows) != len(times):
            raise GeometryError(f"{len(times)} times for {len(rows)} {row}s")
        stacks.append(rows)
    errors = _time_errors(times.tolist(), *windows, floor=floor)
    index, times, *stacks = _drop(errors, np.arange(len(times)), errors, times, *stacks)
    index, times, *stacks = _drop(errors, index, _point_errors(stacks[0], in_domain), times, *stacks)
    return (errors, index, stacks[0], times, *stacks[1:])


def _point_errors(pts: np.ndarray, in_domain=None) -> list:
    """Per point of a (P, d) stack: None, or the ChartDomainError it raises.

    The one point validator: non-finite coordinates, then the chart-domain
    predicate (which only sees finite points).  The whole stack is tested
    for finiteness at once; rows are reduced only when some entry is not.
    """
    errors = [None] * len(pts)
    if _every(np.isfinite(pts)):
        if in_domain is None:
            return errors
        ok = _evaluate(in_domain, pts, (), "in_domain", dtype=bool)
    else:
        finite = np.logical_and.reduce(np.isfinite(pts), axis=1)
        ok = finite.copy()
        if in_domain is not None:
            ok[finite] = _evaluate(in_domain, pts[finite], (), "in_domain", dtype=bool)
    if _every(ok):
        return errors
    for i in np.flatnonzero(~ok):
        errors[i] = ChartDomainError(
            f"point {pts[i]} outside chart domain" if np.isfinite(pts[i]).all()
            else f"chart point has non-finite entries: {pts[i]}"
        )
    return errors


def _every(mask: np.ndarray) -> bool:
    """``mask.all()`` without its Python-level wrapper, which costs more than the count on a one-row stack."""
    return np.count_nonzero(mask) == mask.size


def _raise_first(errors):
    if errors.count(None) != len(errors):
        raise next(exc for exc in errors if exc is not None)


def _drop(errors: list, index, failed, *arrays) -> tuple:
    """``index`` and ``arrays`` without the rows that ``failed``: the one row filter.

    ``failed`` has one entry per row of a stack: None, or the exception
    that row raised.  ``index`` maps the rows to the caller's ``errors``,
    one entry per input pair, and each failed row's exception is recorded
    there unless the pair already has one: a pair keeps its first error.
    With no failed row, ``index`` and ``arrays`` come back as the same
    objects.  A None in ``arrays`` stays None.
    """
    # entries are None or exceptions; counting the Nones (by identity) is cheaper than any()
    if failed.count(None) == len(failed):
        return (index, *arrays)
    for i, exc in zip(index, failed):
        if errors[i] is None:
            errors[i] = exc
    keep = [exc is None for exc in failed]
    return tuple(None if a is None else a[keep] for a in (index, *arrays))


def _checked(p, dim: int | None = None, in_domain=None) -> tuple[np.ndarray, bool]:
    """``_point_stack`` that raises the first point's error."""
    pts, single = _point_stack(p, dim)
    _raise_first(_point_errors(pts, in_domain))
    return pts, single


def _time_errors(ts, *domains, floor=-math.inf) -> list:
    """Per time of ``ts``: None, or the ChartDomainError of the first window it leaves.

    The one time validator.  The windows are the domains (lo, hi] in order,
    with the sampling floor (t >= floor) right after the first; a NaN
    leaves every domain.  Only a time outside their intersection is
    checked window by window.
    """
    (lo, hi), *rest = domains
    for a, b in rest:
        lo, hi = max(lo, a), min(hi, b)
    errors = [None] * len(ts)
    for i, t in enumerate(ts):
        if lo < t <= hi and not t < floor:
            continue
        for k, (a, b) in enumerate(domains):
            if not a < t <= b:
                errors[i] = ChartDomainError(f"time {t} outside domain ({a}, {b}]")
                break
            if not k and t < floor:
                errors[i] = ChartDomainError(f"t={t} below the sampling floor t_min={floor}")
                break
    return errors


def _evaluate(fn, pts: np.ndarray, shape: tuple, what: str, dtype=float) -> np.ndarray:
    """Call a callback on a (P, d) stack and check that it returned (P, *shape)."""
    if not len(pts):
        return np.empty((0,) + shape, dtype=dtype)
    return _shaped(fn(pts), pts, shape, what, dtype)


def _shaped(out, pts: np.ndarray, shape: tuple, what: str, dtype=float) -> np.ndarray:
    """A callback's result on a (P, d) stack, checked to have shape (P, *shape).

    At a single point the per-point ``shape`` is accepted too, so callbacks
    written for one point (a constant ``d2`` matrix, say) keep working.
    """
    full = (pts.shape[0],) + shape
    out = np.asarray(out, dtype=dtype)
    if out.shape == full:
        return out
    if out.shape == shape and len(pts) == 1:
        return out[None]
    raise GeometryError(
        f"{what} callback returned shape {out.shape} for {pts.shape[0]} points, expected {full}"
    )


@dataclass(frozen=True)
class MetricField:
    """A smooth symmetric positive-definite metric on a coordinate chart.

    Every callback takes a (P, d) stack of points.

    Parameters
    ----------
    dim : chart dimension d.
    jet : (points, order) -> the 2-jet of g up to ``order`` 0, 1 or 2: the
        tuple (g,), (g, dg) or (g, dg, ddg), of shapes (P, d, d) symmetric,
        (P, d, d, d) with [p, a, b, c] = d_a g_bc and (P, d, d, d, d) with
        [p, a, b, c, d] = d_a d_b g_cd.  A jet that answers (g,) at every
        order is value-only: its partials come from finite differences.
    in_domain : optional chart-domain predicate, points -> (P,) bool;
        violations raise ``ChartDomainError`` from every kernel operation.
    """

    dim: int
    jet: Callable[[np.ndarray, int], tuple]
    in_domain: Callable[[np.ndarray], np.ndarray] | None = None

    def components(self, points) -> np.ndarray:
        """g_ij at points, the order-0 value of the jet."""
        return self.jet(points, 0)[0]

    def at(self, p: np.ndarray) -> np.ndarray:
        """g_ij at one point (d,) -> (d, d), or at a stack (P, d) -> (P, d, d)."""
        pts, single = _checked(p, self.dim, self.in_domain)
        g = _evaluate(self.components, pts, (self.dim, self.dim), "metric")
        return g[0] if single else g

    def without_analytic_derivatives(self) -> "MetricField":
        """Copy of this field whose jet is value-only (the FD backend)."""
        jet = self.jet
        return replace(self, jet=lambda points, order: jet(points, 0))


@dataclass(frozen=True)
class ScalarField:
    """A scalar function on a chart with optional analytic partials.

    Callbacks take a (P, d) stack: ``value`` -> (P,), ``d1`` -> (P, d),
    ``d2`` -> (P, d, d).
    """

    value: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray] | None = None
    d2: Callable[[np.ndarray], np.ndarray] | None = None

    def at(self, p: np.ndarray) -> np.ndarray:
        """f at one point (d,) -> (), or at a stack (P, d) -> (P,)."""
        pts, single = _checked(p)
        out = _evaluate(self.value, pts, (), "scalar")
        return out[0] if single else out

    @staticmethod
    def constant(c: float) -> "ScalarField":
        return ScalarField(
            value=lambda p: np.full(p.shape[:-1], float(c)),
            d1=lambda p: np.zeros(p.shape),
            d2=lambda p: np.zeros(p.shape + p.shape[-1:]),
        )


@dataclass(frozen=True)
class ConnectionCoeffs:
    """Levi-Civita connection coefficients Gamma^a_{bc} at a point."""

    gamma: np.ndarray   # (d, d, d), [a, b, c] = Gamma^a_{bc}


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def _steps(pts: np.ndarray, h: float) -> np.ndarray:
    return h * np.maximum(1.0, np.abs(pts))


def _central_d1(f, pts: np.ndarray, h: float, shape: tuple, what: str) -> np.ndarray:
    """Central first differences [P, a, ...] from one callback call on every shifted point."""
    P, d = pts.shape
    hs = _steps(pts, h)
    shift = hs[:, :, None] * np.eye(d)                    # [P, a] = hs_a e_a
    shifted = np.stack((pts[:, None] + shift, pts[:, None] - shift))
    vals = _evaluate(f, shifted.reshape(-1, d), shape, what).reshape((2, P, d) + shape)
    span = (2.0 * hs).reshape((P, d) + (1,) * len(shape))
    return (vals[0] - vals[1]) / span


def _central_d2(f, pts: np.ndarray, h: float, shape: tuple, what: str) -> np.ndarray:
    """Central second differences [P, a, b, ...] of d_a d_b f, one callback call."""
    P, d = pts.shape
    hs = _steps(pts, h)
    shift = hs[:, :, None] * np.eye(d)
    ia, ib = np.triu_indices(d, 1)
    p, ea, eb = pts[:, None], shift[:, ia], shift[:, ib]
    shifted = np.concatenate(
        (p, p + shift, p - shift, p + ea + eb, p + ea - eb, p - ea + eb, p - ea - eb), axis=1
    )
    k = len(ia)
    vals = _evaluate(f, shifted.reshape(-1, d), shape, what).reshape((P, 1 + 2 * d + 4 * k) + shape)
    f0, fp, fm = vals[:, :1], vals[:, 1 : 1 + d], vals[:, 1 + d : 1 + 2 * d]
    fpp, fpm, fmp, fmm = (vals[:, 1 + 2 * d + j * k : 1 + 2 * d + (j + 1) * k] for j in range(4))
    tail = (1,) * len(shape)
    out = np.zeros((P, d, d) + shape)
    diag = np.arange(d)
    out[:, diag, diag] = (fp - 2.0 * f0 + fm) / (hs**2).reshape((P, d) + tail)
    cross = (fpp - fpm - fmp + fmm) / (4.0 * hs[:, ia] * hs[:, ib]).reshape((P, k) + tail)
    out[:, ia, ib] = cross
    out[:, ib, ia] = cross
    return out


def _partials(analytic, values, pts: np.ndarray, order: int, shape: tuple, what: str,
              richardson: bool = False) -> np.ndarray:
    """Partials of ``order`` 1 or 2, [P, a(, b), ...], of a field with per-point ``shape``.

    The ``analytic`` callback if there is one, else central differences of
    ``values`` with step FD_H1 or FD_H2, Richardson-extrapolated on request.
    """
    if analytic is not None:
        return _evaluate(analytic, pts, (pts.shape[1],) * order + shape, f"{what} d{order}")
    stencil, h = (_central_d1, FD_H1) if order == 1 else (_central_d2, FD_H2)
    coarse = stencil(values, pts, h, shape, what)
    if not richardson:
        return coarse
    fine = stencil(values, pts, 0.5 * h, shape, what)
    return (4.0 * fine - coarse) / 3.0


def _shaped_jet(metric: MetricField, pts: np.ndarray, order: int) -> list:
    """[g, ..] up to ``order`` at a (P, d) stack from one call of the field's jet.

    A value-only jet gives [g] alone; an empty stack calls nothing.
    """
    shape = (metric.dim,) * 2
    if not len(pts):
        return [np.empty((0,) + (metric.dim,) * o + shape) for o in range(order + 1)]
    out = metric.jet(pts, order)
    if len(out) not in (1, order + 1):
        raise GeometryError(f"metric jet returned {len(out)} entries at order {order}, expected 1 or {order + 1}")
    return [_shaped(a, pts, (metric.dim,) * o + shape, f"metric jet d{o}" if o else "metric")
            for o, a in enumerate(out)]


def scalar_d1(f: ScalarField, p: np.ndarray) -> np.ndarray:
    pts, single = _checked(p)
    out = _partials(f.d1, f.value, pts, 1, (), "scalar")
    return out[0] if single else out


# ---------------------------------------------------------------------------
# the bundle: metric data at a stack of points
# ---------------------------------------------------------------------------


@dataclass
class MetricBundle:
    """g, g^-1, dg and (at order 2) ddg at the valid points of a stack.

    Arrays have a leading axis over ``points``, the points of the input
    stack that passed the chart-domain and conditioning checks; ``index``
    gives their positions in that stack.  ``errors`` has one entry per
    input point: None, or the exception a single-point call raises there.
    Not frozen: a frozen dataclass's ``__init__`` costs a one-row bundle more.
    """

    points: np.ndarray          # (P, d)
    index: np.ndarray           # (P,)
    errors: tuple
    g: np.ndarray               # (P, d, d)
    ginv: np.ndarray            # (P, d, d)
    dg: np.ndarray | None       # (P, d, d, d), [p, a, b, c] = d_a g_bc
    ddg: np.ndarray | None      # (P, d, d, d, d)
    _dg_memo: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def raise_error(self):
        """Raise the first recorded per-point error, if any."""
        _raise_first(self.errors)

    @property
    def _dg_bracket(self) -> np.ndarray:
        """``_bracket(dg)``, formed on first use: the Christoffel symbols, the Ricci tensor and
        the Hessian of one bundle share it, and a flat bundle's Hessian never forms it.  A plain
        memo, since ``cached_property`` takes a lock per bundle."""
        if self._dg_memo is None:
            self._dg_memo = _bracket(self.dg)
        return self._dg_memo


def _norm1(a: np.ndarray) -> np.ndarray:
    """Matrix 1-norms (largest column sum of |a|) of a (P, d, d) stack."""
    return np.maximum.reduce(np.add.reduce(np.abs(a), axis=1), axis=1)


# Positive diagonals in (_TINY, _HUGE] have a finite reciprocal.
_HUGE = np.finfo(float).max
_TINY = 1.0 / _HUGE


def _inverse_and_condition(g: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Stacked g^-1, the 1-norm condition estimates, and per point None or the singular error.

    The 1-norm estimate is within a factor of dim of the spectral condition
    number, and much cheaper than an SVD.  A stack of diagonal matrices with
    finite positive entries (every catalog metric) is inverted entrywise,
    which gives LAPACK's bits: 1/d on the diagonal, and max(d) * max(1/d) as
    the condition estimate.  Both maxima reduce over the d rows of a contiguous
    (d, P) copy of the diagonals, along the stack axis, by the ufuncs' own
    reductions (``ndarray.max`` adds a Python wrapper).  Any other stack goes
    to LAPACK whole.
    """
    errors = [None] * len(g)
    P, d = g.shape[:2]
    diag = g.reshape(P, d * d)[:, :: d + 1]
    if (P and np.count_nonzero(g) == diag.size and (lo := np.minimum.reduce(diag, None)) > _TINY
            and (hi := np.maximum.reduce(diag, None)) <= _HUGE):
        rows = np.ascontiguousarray(diag.T)
        inv = 1.0 / rows
        ginv = np.zeros((P, d, d))   # C order, so the reshape below is a view
        ginv.reshape(P, d * d)[:, :: d + 1] = inv.T
        rmax, imax = np.maximum.reduce(rows, 0), np.maximum.reduce(inv, 0)
        # no estimate exceeds max(d) * (1 / min(d)) over the stack; only when
        # that bound overflows may one, to inf, which the check refuses
        if float(hi) * (1.0 / float(lo)) < math.inf:
            cond = rmax * imax
        else:
            with np.errstate(over="ignore"):
                cond = rmax * imax
    else:
        try:
            ginv = np.linalg.inv(g)
        except np.linalg.LinAlgError:
            # only a singular point makes the stacked call fail; find it
            ginv = np.empty_like(g)
            for i in range(len(g)):
                try:
                    ginv[i] = np.linalg.inv(g[i])
                except np.linalg.LinAlgError:
                    ginv[i] = np.eye(d)
                    errors[i] = DegenerateMetricError(f"metric at {pts[i]} is singular")
        # both 1-norms from one reduction over the stacked pair
        norms = _norm1(np.concatenate((g, ginv)))
        cond = norms[:P] * norms[P:]
    return ginv, cond, errors


def _inverse(g: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, list]:
    """Stacked g^-1 with the condition check; per point None or the error."""
    ginv, cond, errors = _inverse_and_condition(g, pts)
    ok = cond <= COND_LIMIT   # False for nan too
    if not _every(ok):
        for i in np.flatnonzero(~ok):
            errors[i] = errors[i] or DegenerateMetricError(
                f"metric at {pts[i]} has condition number {cond[i]:.3e} (limit {COND_LIMIT:.0e})"
            )
    return ginv, errors


def metric_bundle(metric: MetricField, points, order: int = 1, scale=None) -> MetricBundle:
    """Evaluate the metric once for a stack of points (or one point).

    ``order`` 0 gives g and g^-1, 1 adds dg (enough for Christoffel
    symbols, Hessians and norms), 2 adds ddg (curvature).  Points outside
    the chart domain or with an ill-conditioned metric are left out and
    recorded in ``errors``; callbacks never see them.  The points are
    checked once, here, the door of ``_metric_bundle``.
    ``scale``, one positive factor per point, gives the bundle of the metric
    scale_p * g at point p: a conformal family at per-point times.
    """
    pts, _ = _point_stack(points, metric.dim)
    if scale is not None:
        scale = np.asarray(scale, dtype=float)
        if scale.shape != (len(pts),):
            raise GeometryError(f"scale factors of shape {scale.shape} for {len(pts)} points")
    errors = _point_errors(pts, metric.in_domain)
    index, q, scale = _drop(errors, np.arange(len(pts)), errors, pts, scale)
    return _metric_bundle(metric, q, order, scale, errors, index)


def _metric_bundle(metric: MetricField, pts: np.ndarray, order: int, scale=None,
                   errors=None, index=None) -> MetricBundle:
    """``metric_bundle``'s core, on a (P, d) stack of finite points inside the chart.

    It trusts its rows: the jet is called once on all of them, its shapes
    are checked, and the rows whose metric is ill-conditioned are left out;
    if the jet is value-only, the FD stencils run once on the rest.
    ``scale`` is None or a (P,) float array.  The bundle's ``index`` and
    ``errors`` refer to the rows of ``pts``, unless the door passes its own
    per-point ``errors`` and the ``index`` of ``pts`` in them.
    """
    if errors is None:
        errors, index = [None] * len(pts), np.arange(len(pts))
    g, *partials = _shaped_jet(metric, pts, order)
    if scale is not None:
        g = scale[:, None, None] * g
    ginv, bad = _inverse(g, pts)
    index, pts, g, ginv, scale, *partials = _drop(errors, index, bad, pts, g, ginv, scale, *partials)
    if len(partials) < order:
        # a value-only jet: central differences of its value
        partials = [_partials(None, metric.components, pts, o, g.shape[1:], "metric")
                    for o in range(1, order + 1)]
    dg, ddg = (*partials, None, None)[:2]
    if scale is not None:
        dg, ddg = (None if a is None else scale.reshape((-1,) + (1,) * (a.ndim - 1)) * a
                   for a in (dg, ddg))
    return MetricBundle(pts, index, tuple(errors), g, ginv, dg, ddg)


def _at_point(metric: MetricField, p, order: int) -> MetricBundle:
    """Bundle of one point, raising the error a failed check recorded."""
    b = metric_bundle(metric, _one_point(p), order)
    b.raise_error()
    return b


# ---------------------------------------------------------------------------
# batched tensor operations
# ---------------------------------------------------------------------------


def _symmetrized(T: np.ndarray) -> np.ndarray:
    return 0.5 * (T + T.swapaxes(-1, -2))


def _bracket(dg: np.ndarray) -> np.ndarray:
    # bracket[p, d, b, c] = d_b g_dc + d_c g_bd - d_d g_bc
    return dg.transpose(0, 2, 1, 3) + dg.transpose(0, 3, 2, 1) - dg


def christoffel_batch(b: MetricBundle) -> np.ndarray:
    """Christoffel symbols [p, a, b, c] = Gamma^a_{bc} at the bundle's points.

    Gamma^a_{bc} = 1/2 g^{ad} (d_b g_dc + d_c g_bd - d_d g_bc); the result
    is symmetric in (b, c) exactly, given symmetric input components.  When
    every metric partial of the stack is zero, Gamma = 0 (+0.0, the bits of
    the contraction) and nothing is contracted.
    """
    if not np.count_nonzero(b.dg):
        return np.zeros(b.dg.shape)
    gamma = 0.5 * np.einsum("pad,pdbc->pabc", b.ginv, b._dg_bracket)
    return 0.5 * (gamma + gamma.swapaxes(2, 3))


def ricci_batch(b: MetricBundle) -> np.ndarray:
    """Ricci tensors Ric_bd (see the module docstring), symmetrized, (P, d, d).

    Needs an order-2 bundle.  The two traces of d Gamma come from
    2 d_e Gamma^a_bc = (d_e g^am) B_mbc + g^am d_e B_mbc, B the bracket of
    ``christoffel_batch``; d Gamma itself is never formed.
    """
    if b.ddg is None:
        raise GeometryError("ricci needs a bundle of order 2")
    P, d = b.g.shape[:2]
    ginv, dg, ddg, gamma = map(np.ascontiguousarray, (b.ginv, b.dg, b.ddg, christoffel_batch(b)))
    flat = ginv.reshape(P, 1, d * d)                                # g^am over the pair (a, m)
    bracket = np.ascontiguousarray(b._dg_bracket)                   # [m, b, c] = B_mbc
    bracket_t = np.ascontiguousarray(bracket.transpose(0, 2, 1, 3)).reshape(P, d * d, d)
    dbracket = np.ascontiguousarray(_bracket(ddg.reshape(P * d, d, d, d)))  # [e, m, b, c] = d_e B_mbc
    # d_e g^-1 = -g^-1 (d_e g) g^-1, and its divergence u^m = d_a g^am
    dg_ginv = dg @ ginv[:, None]
    dginv = -(ginv[:, None] @ dg_ginv)
    u = -(flat @ dg_ginv.reshape(P, d * d, d))
    # each term is twice its share of Ric: 2 d_a Gamma^a_bc, 2 d_c Gamma^a_ab as [c, b]
    div = u @ bracket.reshape(P, d, d * d) + flat @ dbracket.reshape(P, d * d, d * d)
    trace = dginv.reshape(P, d, d * d) @ bracket_t + (flat[:, None] @ dbracket.reshape(P, d, d * d, d))[:, :, 0]
    # 2 Gamma^a_ae Gamma^e_bc, and 2 Gamma^a_ce Gamma^e_ab as [c, b]
    swapped = np.ascontiguousarray(gamma.transpose(0, 2, 1, 3))     # [c, a, e] = Gamma^a_ce
    quadratic = (flat @ bracket_t) @ gamma.reshape(P, d, d * d)
    cross = swapped.reshape(P, d, d * d) @ swapped.reshape(P, d * d, d)
    twice = (div + quadratic).reshape(P, d, d) - (trace + 2.0 * cross).swapaxes(1, 2)
    return 0.5 * _symmetrized(twice)


def scalar_curvature_batch(b: MetricBundle) -> np.ndarray:
    """Scalar curvatures R = g^{bd} Ric_bd, (P,)."""
    return np.einsum("pbd,pbd->p", b.ginv, ricci_batch(b))


def hessian_batch(b: MetricBundle, f: ScalarField, grad: np.ndarray | None = None) -> np.ndarray:
    """Covariant Hessians Hess(f)_ab = d_a d_b f - Gamma^c_{ab} d_c f, symmetrized, (P, d, d).

    Gamma^c_{ab} d_c f is contracted as 1/2 (grad f)^d bracket[d, a, b], which
    skips forming the Christoffel symbols themselves.  When every metric
    partial of the stack is zero, Gamma = 0 and the term is left out.
    ``grad`` is ``gradient_batch(b, f)``, if the caller has it already.
    """
    if grad is None:
        grad = gradient_batch(b, f)
    ddf = _partials(f.d2, f.value, b.points, 2, (), "scalar")
    if not np.count_nonzero(b.dg):
        return _symmetrized(ddf)
    return _symmetrized(ddf - 0.5 * np.einsum("pd,pdab->pab", grad, b._dg_bracket))


def tensor_norm_batch(b: MetricBundle, T: np.ndarray) -> np.ndarray:
    """Metric norms |T| of covariant symmetric 2-tensors T (P, d, d) at the bundle's points.

    |T|^2 = g^{ac} g^{bd} T_ab T_cd; returns the nonnegative square roots.
    """
    sq = np.einsum("pac,pbd,pab,pcd->p", b.ginv, b.ginv, T, T)
    return np.sqrt(np.maximum(sq, 0.0))


def gradient_batch(b: MetricBundle, f: ScalarField) -> np.ndarray:
    """Contravariant gradients (grad f)^a = g^{ab} d_b f, (P, d)."""
    df = _partials(f.d1, f.value, b.points, 1, (), "scalar")
    return np.einsum("pab,pb->pa", b.ginv, df)


# ---------------------------------------------------------------------------
# single-point operations: the P = 1 case of the batched ones
# ---------------------------------------------------------------------------


def inverse_metric(metric: MetricField, p: np.ndarray) -> np.ndarray:
    """Inverse component matrix g^ab, refusing ill-conditioned input."""
    return _at_point(metric, p, order=0).ginv[0]


def christoffel(metric: MetricField, p: np.ndarray) -> ConnectionCoeffs:
    """Levi-Civita Christoffel symbols at a point (see ``christoffel_batch``)."""
    return ConnectionCoeffs(christoffel_batch(_at_point(metric, p, order=1))[0])


def check_metric_derivatives(metric: MetricField, points, rtol: float = 1e-6) -> float:
    """Cross-check a field's jet against its components, the jet's order-0 value.

    On the whole stack of points, the jet's values at orders 1 and 2 are
    compared with the components, and each order of its partials with one
    Richardson-extrapolated stencil of them, so that steep closed forms are
    checked at the oracle's best accuracy.  Each point's deviation is scaled
    by max(1, its largest jet entry).  Returns the worst one; raises
    ``GeometryError``, naming what deviates, if it exceeds ``rtol``.  A
    value-only field passes trivially.
    """
    if not len(points):
        return 0.0
    pts, _ = _checked(points, metric.dim, metric.in_domain)
    g = _shaped_jet(metric, pts, 0)[0]
    checks = [(f"metric jet's order-{o} value deviates from its components", _shaped_jet(metric, pts, o)[0], g)
              for o in (1, 2)]
    for order, ana in enumerate(_shaped_jet(metric, pts, 2)[1:], 1):
        num = _partials(None, metric.components, pts, order, g.shape[1:], "metric", True)
        checks.append(("metric jet deviates from the components' finite differences", ana, num))
    worst = 0.0
    for what, ana, ref in checks:
        axes = tuple(range(1, ana.ndim))
        dev = np.max(np.abs(ana - ref), axis=axes) / np.maximum(1.0, np.max(np.abs(ana), axis=axes))
        worst = max(worst, float(np.max(dev)))
        if worst > rtol:
            raise GeometryError(f"{what} by {worst:.3e} (tol {rtol:.1e})")
    return worst
