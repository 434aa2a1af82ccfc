"""Chart-based numerical Riemannian geometry.

A metric is a callable producing the component matrix g_ij at chart
points, optionally accompanied by its 2-jet, one callback giving the
first and second partials (the catalog builds it with ``cansol.jets``).
When the jet is absent, central finite differences with the fixed steps
FD_H1 and FD_H2 stand in, so the same curvature code doubles as an
independent check of any closed-form input.  ``check_metric_derivatives``
adds one level of Richardson extrapolation to its comparison stencil.

The kernel is batched over a leading sample axis.  ``metric_bundle``
evaluates g, g^-1, dg and (when asked) ddg once for a stack of P points,
and the ``*_batch`` operations contract those into (P, ...) arrays.  The
single-point functions (``christoffel``, ``ricci``, ...) are the P = 1
case of the same code.  Each point's result is independent of how many
points share the call: contractions are per-point ``np.einsum`` calls,
never BLAS over the stack.

Conventions
-----------
* Points are float arrays of chart coordinates: one point has shape (d,),
  a stack has shape (P, d).  On space-time charts index 0 is always the
  time coordinate.
* Callbacks take a (P, d) stack and return arrays with a leading P axis.
  A call on a single point (P = 1) may return the per-point shape instead;
  any other shape raises ``GeometryError``.
* ``christoffel`` returns Gamma[a, b, c] = Gamma^a_{bc}.
* ``riemann`` returns R[a, b, c, d] = R^a_{bcd} with
  R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb}
             + Gamma^a_{ce} Gamma^e_{db} - Gamma^a_{de} Gamma^e_{cb},
  and ``ricci`` is the trace Ric_bd = R^a_{bad}.  The overall sign is
  fixed so that the round sphere has positive Ricci curvature.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    "SymTensor2",
    "ConnectionCoeffs",
    "MetricBundle",
    "chart_point",
    "metric_bundle",
    "scalar_d1",
    "scalar_d2",
    "inverse_metric",
    "christoffel",
    "christoffel_batch",
    "christoffel_d1",
    "christoffel_d1_batch",
    "riemann",
    "riemann_batch",
    "ricci",
    "ricci_batch",
    "scalar_curvature",
    "scalar_curvature_batch",
    "hessian",
    "hessian_batch",
    "laplacian",
    "laplacian_batch",
    "tensor_norm",
    "tensor_norm_batch",
    "gradient",
    "gradient_batch",
    "directional_derivative",
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
    p = np.asarray(coords, dtype=float)
    if p.ndim != 1:
        raise ChartDomainError(f"chart point must be a 1-d coordinate array, got shape {p.shape}")
    return p


def _point_stack(coords, dim: int | None = None) -> tuple[np.ndarray, bool]:
    """(P, d) float stack of one point (d,) or a stack; also whether it was one point."""
    pts = np.asarray(coords, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None]
    if pts.ndim != 2:
        raise ChartDomainError(f"chart points must have shape (d,) or (P, d), got {pts.shape}")
    if dim is not None and pts.shape[1] != dim:
        raise ChartDomainError(f"point has dimension {pts.shape[1]}, chart has {dim}")
    return pts, single


def _point_errors(pts: np.ndarray, in_domain=None) -> list:
    """Per point of a (P, d) stack: None, or the ChartDomainError it raises.

    The one point validator: non-finite coordinates, then the chart-domain
    predicate (which only sees finite points).
    """
    finite = np.logical_and.reduce(np.isfinite(pts), axis=1)
    if in_domain is None:
        ok = finite
    elif finite.all():
        ok = _evaluate(in_domain, pts, (), "in_domain", dtype=bool)
    else:
        ok = finite.copy()
        ok[finite] = _evaluate(in_domain, pts[finite], (), "in_domain", dtype=bool)
    errors = [None] * len(pts)
    if ok.all():
        return errors
    for i in np.flatnonzero(~ok):
        errors[i] = ChartDomainError(
            f"point {pts[i]} outside chart domain" if finite[i]
            else f"chart point has non-finite entries: {pts[i]}"
        )
    return errors


def _raise_first(errors):
    if any(errors):
        raise next(exc for exc in errors if exc is not None)


def _kept(errors: list, arrays: tuple) -> tuple:
    """``arrays`` restricted to their rows whose entry in ``errors`` is None.

    The one row filter for stacks that carry per-point errors; a None in
    ``arrays`` stays None.
    """
    if not any(errors):
        return arrays
    keep = [e is None for e in errors]
    return tuple(None if a is None else a[keep] for a in arrays)


def _checked(p, dim: int | None = None, in_domain=None) -> tuple[np.ndarray, bool]:
    """``_point_stack`` that raises the first point's error."""
    pts, single = _point_stack(p, dim)
    _raise_first(_point_errors(pts, in_domain))
    return pts, single


def chart_point(coords) -> np.ndarray:
    """Validate chart coordinates and return them as a float array.

    Raises ``ChartDomainError`` if any entry is non-finite.
    """
    p = _one_point(coords)
    _checked(p)
    return p


def _evaluate(fn, pts: np.ndarray, shape: tuple, what: str, dtype=float) -> np.ndarray:
    """Call a callback on a (P, d) stack and check that it returned (P, *shape)."""
    if not len(pts):
        return np.empty((0,) + shape, dtype=dtype)
    return _shaped(fn(pts), pts, shape, what, dtype)


def _shaped(out, pts: np.ndarray, shape: tuple, what: str, dtype=float) -> np.ndarray:
    """A callback's result on a (P, d) stack, checked to have shape (P, *shape).

    At a single point the per-point ``shape`` is accepted too, so callbacks
    written for one point keep working in the single-point functions.
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
    components : points -> (P, d, d) symmetric matrices g_ij.
    jet : optional, (points, order) -> the 2-jet of ``components``: the
        tuple (g, dg) at order 1 and (g, dg, ddg) at order 2, of shapes
        (P, d, d), (P, d, d, d) with [p, a, b, c] = d_a g_bc and
        (P, d, d, d, d) with [p, a, b, c, d] = d_a d_b g_cd.  The kernel
        reads g from ``components`` and the partials from here.
    in_domain : optional chart-domain predicate, points -> (P,) bool;
        violations raise ``ChartDomainError`` from every kernel operation.
    """

    dim: int
    components: Callable[[np.ndarray], np.ndarray]
    jet: Callable[[np.ndarray, int], tuple] | None = None
    in_domain: Callable[[np.ndarray], np.ndarray] | None = None

    def at(self, p: np.ndarray) -> np.ndarray:
        """g_ij at one point (d,) -> (d, d), or at a stack (P, d) -> (P, d, d)."""
        pts, single = _checked(p, self.dim, self.in_domain)
        g = _evaluate(self.components, pts, (self.dim, self.dim), "metric")
        return g[0] if single else g

    def check_point(self, p) -> np.ndarray:
        p = _one_point(p)
        _checked(p, self.dim, self.in_domain)
        return p

    def without_analytic_derivatives(self) -> "MetricField":
        """Copy of this field using only finite differences (FD backend)."""
        return replace(self, jet=None)


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
class SymTensor2:
    """A symmetric 2-tensor at a point, covariant or contravariant."""

    entries: np.ndarray
    variance: str = "covariant"

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", e)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError(f"SymTensor2 entries must be square, got shape {e.shape}")
        scale = max(1.0, float(np.max(np.abs(e))))
        if np.max(np.abs(e - e.T)) > 1e-12 * scale:
            raise ValueError("SymTensor2 entries are not symmetric")
        if self.variance not in ("covariant", "contravariant"):
            raise ValueError(f"unknown variance {self.variance!r}")

    @staticmethod
    def symmetrized(entries, variance: str = "covariant") -> "SymTensor2":
        e = np.asarray(entries, dtype=float)
        return SymTensor2(0.5 * (e + e.T), variance)


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
    vals = _evaluate(f, shifted.reshape(-1, d), shape, what).reshape((P, -1) + shape)
    k = len(ia)
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


def _metric_partials(metric: MetricField, pts: np.ndarray, order: int) -> list:
    """[dg] or [dg, ddg] at a (P, d) stack: one call of the field's jet, else central differences."""
    shape = (metric.dim,) * 2
    if not len(pts):
        return [np.empty((0,) + (metric.dim,) * o + shape) for o in range(1, order + 1)]
    if metric.jet is None or not order:
        return [_partials(None, metric.components, pts, o, shape, "metric") for o in range(1, order + 1)]
    out = metric.jet(pts, order)
    return [_shaped(out[o], pts, (metric.dim,) * o + shape, f"metric jet d{o}")
            for o in range(1, order + 1)]


def scalar_d1(f: ScalarField, p: np.ndarray) -> np.ndarray:
    pts, single = _checked(p)
    out = _partials(f.d1, f.value, pts, 1, (), "scalar")
    return out[0] if single else out


def scalar_d2(f: ScalarField, p: np.ndarray) -> np.ndarray:
    pts, single = _checked(p)
    out = _partials(f.d2, f.value, pts, 2, (), "scalar")
    return out[0] if single else out


# ---------------------------------------------------------------------------
# the bundle: metric data at a stack of points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricBundle:
    """g, g^-1, dg and (at order 2) ddg at the valid points of a stack.

    Arrays have a leading axis over ``points``, the points of the input
    stack that passed the chart-domain and conditioning checks; ``index``
    gives their positions in that stack.  ``errors`` has one entry per
    input point: None, or the exception a single-point call raises there.
    """

    points: np.ndarray          # (P, d)
    index: np.ndarray           # (P,)
    errors: tuple
    g: np.ndarray               # (P, d, d)
    ginv: np.ndarray            # (P, d, d)
    dg: np.ndarray | None       # (P, d, d, d), [p, a, b, c] = d_a g_bc
    ddg: np.ndarray | None      # (P, d, d, d, d)

    def raise_error(self):
        """Raise the first recorded per-point error, if any."""
        _raise_first(self.errors)


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
    the condition estimate.  Any other stack goes to LAPACK whole.
    """
    errors = [None] * len(g)
    P, d = g.shape[:2]
    diag = g.reshape(P, d * d)[:, :: d + 1]
    if P and np.count_nonzero(g) == diag.size and diag.min() > _TINY and diag.max() <= _HUGE:
        inv = 1.0 / diag
        ginv = np.zeros((P, d, d))   # C order, so the reshape below is a view
        ginv.reshape(P, d * d)[:, :: d + 1] = inv
        cond = diag.max(axis=1) * inv.max(axis=1)
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
        cond = _norm1(g) * _norm1(ginv)
    return ginv, cond, errors


def _inverse(g: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, list]:
    """Stacked g^-1 with the condition check; per point None or the error."""
    ginv, cond, errors = _inverse_and_condition(g, pts)
    ok = cond <= COND_LIMIT   # False for nan too
    if not ok.all():
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
    checked once, here; ``components`` is then called once on the valid
    ones, and the jet (or the FD stencils) once on the well-conditioned ones.
    ``scale``, one positive factor per point, gives the bundle of the metric
    scale_p * g at point p: a conformal family at per-point times.
    """
    pts, _ = _point_stack(points, metric.dim)
    errors = _point_errors(pts, metric.in_domain)
    index, q = _kept(errors, (np.arange(len(pts)), pts))
    shape = (metric.dim, metric.dim)
    g = _evaluate(metric.components, q, shape, "metric")
    if scale is not None:
        scale = np.asarray(scale, dtype=float)[index]
        g = scale[:, None, None] * g
    ginv, bad = _inverse(g, q)
    if any(bad):
        for i, exc in zip(index, bad):
            errors[i] = errors[i] or exc
        index, q, g, ginv, scale = _kept(bad, (index, q, g, ginv, scale))
    dg, ddg = (*_metric_partials(metric, q, order), None, None)[:2]
    if scale is not None:
        dg, ddg = (None if a is None else scale.reshape((-1,) + (1,) * (a.ndim - 1)) * a
                   for a in (dg, ddg))
    return MetricBundle(
        points=q,
        index=index,
        errors=tuple(errors),
        g=g,
        ginv=ginv,
        dg=dg,
        ddg=ddg,
    )


def _at_point(metric: MetricField, p, order: int) -> MetricBundle:
    """Bundle of one point, raising the error a failed check recorded."""
    b = metric_bundle(metric, _one_point(p), order)
    b.raise_error()
    return b


# ---------------------------------------------------------------------------
# batched tensor operations
# ---------------------------------------------------------------------------


def _symmetrized(T: np.ndarray) -> np.ndarray:
    return 0.5 * (T + np.swapaxes(T, -1, -2))


def _bracket(dg: np.ndarray) -> np.ndarray:
    # bracket[p, d, b, c] = d_b g_dc + d_c g_bd - d_d g_bc
    return dg.transpose(0, 2, 1, 3) + dg.transpose(0, 3, 2, 1) - dg


def christoffel_batch(b: MetricBundle) -> np.ndarray:
    """Christoffel symbols [p, a, b, c] = Gamma^a_{bc} at the bundle's points.

    Gamma^a_{bc} = 1/2 g^{ad} (d_b g_dc + d_c g_bd - d_d g_bc); the result
    is symmetric in (b, c) exactly, given symmetric input components.
    """
    gamma = 0.5 * np.einsum("pad,pdbc->pabc", b.ginv, _bracket(b.dg))
    return 0.5 * (gamma + np.swapaxes(gamma, 2, 3))


def christoffel_d1_batch(b: MetricBundle) -> np.ndarray:
    """Partial derivatives [p, e, a, b, c] = d_e Gamma^a_{bc}; needs an order-2 bundle.

    Assembled from metric first and second partials, so the accuracy is
    that of the underlying derivative backend (no nested differencing).
    """
    if b.ddg is None:
        raise GeometryError("christoffel_d1 needs a bundle of order 2")
    ginv, dg, ddg = b.ginv, b.dg, b.ddg
    # d_e bracket[d, b, c] from second partials of g
    dbracket = ddg.transpose(0, 1, 3, 2, 4) + ddg.transpose(0, 1, 4, 3, 2) - ddg
    # d_e g^{ad} = -g^{am} (d_e g_mn) g^{nd}
    dginv = -np.einsum("pean,pnd->pead", np.einsum("pam,pemn->pean", ginv, dg), ginv)
    dgamma = 0.5 * np.einsum("pead,pdbc->peabc", dginv, _bracket(dg))
    dgamma += 0.5 * np.einsum("pad,pedbc->peabc", ginv, dbracket)
    return 0.5 * (dgamma + np.swapaxes(dgamma, 3, 4))


def riemann_batch(b: MetricBundle) -> np.ndarray:
    """Riemann tensor [p, a, b, c, d] = R^a_{bcd} (sign convention as in the module docstring)."""
    gamma = christoffel_batch(b)
    dgamma = christoffel_d1_batch(b)
    return (
        np.einsum("pcadb->pabcd", dgamma)
        - np.einsum("pdacb->pabcd", dgamma)
        + np.einsum("pace,pedb->pabcd", gamma, gamma)
        - np.einsum("pade,pecb->pabcd", gamma, gamma)
    )


def ricci_batch(b: MetricBundle) -> np.ndarray:
    """Ricci tensors Ric_bd = R^a_{bad}, symmetrized, (P, d, d)."""
    return _symmetrized(np.einsum("pabad->pbd", riemann_batch(b)))


def scalar_curvature_batch(b: MetricBundle) -> np.ndarray:
    """Scalar curvatures R = g^{bd} Ric_bd, (P,)."""
    return np.einsum("pbd,pbd->p", b.ginv, ricci_batch(b))


def hessian_batch(b: MetricBundle, f: ScalarField, grad: np.ndarray | None = None) -> np.ndarray:
    """Covariant Hessians Hess(f)_ab = d_a d_b f - Gamma^c_{ab} d_c f, symmetrized, (P, d, d).

    Gamma^c_{ab} d_c f is contracted as 1/2 (grad f)^d bracket[d, a, b], which
    skips forming the Christoffel symbols themselves.  ``grad`` is
    ``gradient_batch(b, f)``, if the caller has it already.
    """
    if grad is None:
        grad = gradient_batch(b, f)
    ddf = _partials(f.d2, f.value, b.points, 2, (), "scalar")
    return _symmetrized(ddf - 0.5 * np.einsum("pd,pdab->pab", grad, _bracket(b.dg)))


def laplacian_batch(b: MetricBundle, f: ScalarField) -> np.ndarray:
    """Metric Laplacians, the traces of the Hessians against g^{ab}, (P,)."""
    return np.einsum("pab,pab->p", b.ginv, hessian_batch(b, f))


def tensor_norm_batch(b: MetricBundle, T: np.ndarray, variance: str = "covariant") -> np.ndarray:
    """Metric norms |T| of symmetric 2-tensors T (P, d, d) at the bundle's points.

    Covariant: |T|^2 = g^{ac} g^{bd} T_ab T_cd; contravariant indices are
    contracted with g instead.  Returns the nonnegative square roots.
    """
    m = b.ginv if variance == "covariant" else b.g
    sq = np.einsum("pac,pbd,pab,pcd->p", m, m, T, T)
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


def christoffel_d1(metric: MetricField, p: np.ndarray) -> np.ndarray:
    """Partial derivatives d_e Gamma^a_{bc}, index order [e, a, b, c]."""
    return christoffel_d1_batch(_at_point(metric, p, order=2))[0]


def riemann(metric: MetricField, p: np.ndarray) -> np.ndarray:
    """Riemann tensor R^a_{bcd} (sign convention as in the module docstring)."""
    return riemann_batch(_at_point(metric, p, order=2))[0]


def ricci(metric: MetricField, p: np.ndarray) -> SymTensor2:
    """Ricci tensor Ric_bd = R^a_{bad}; positive on round spheres."""
    return SymTensor2(ricci_batch(_at_point(metric, p, order=2))[0], "covariant")


def scalar_curvature(metric: MetricField, p: np.ndarray) -> float:
    """Scalar curvature R = g^{bd} Ric_bd."""
    return float(scalar_curvature_batch(_at_point(metric, p, order=2))[0])


def hessian(metric: MetricField, f: ScalarField, p: np.ndarray) -> SymTensor2:
    """Covariant Hessian Hess(f)_ab = d_a d_b f - Gamma^c_{ab} d_c f."""
    return SymTensor2(hessian_batch(_at_point(metric, p, order=1), f)[0], "covariant")


def laplacian(metric: MetricField, f: ScalarField, p: np.ndarray) -> float:
    """Metric Laplacian: trace of the Hessian against g^{ab}."""
    return float(laplacian_batch(_at_point(metric, p, order=1), f)[0])


def tensor_norm(metric: MetricField, T: SymTensor2, p: np.ndarray) -> float:
    """Pointwise metric norm |T| of a symmetric 2-tensor (see ``tensor_norm_batch``)."""
    b = _at_point(metric, p, order=0)
    return float(tensor_norm_batch(b, T.entries[None], T.variance)[0])


def gradient(metric: MetricField, f: ScalarField, p: np.ndarray) -> np.ndarray:
    """Contravariant gradient (grad f)^a = g^{ab} d_b f."""
    return gradient_batch(_at_point(metric, p, order=0), f)[0]


def directional_derivative(metric: MetricField, f: ScalarField, v: np.ndarray, p: np.ndarray) -> float:
    """Derivative of f along the (contravariant) vector v: v^a d_a f."""
    metric.check_point(p)
    v = np.asarray(v, dtype=float)
    return float(v @ scalar_d1(f, p))


def check_metric_derivatives(metric: MetricField, points, rtol: float = 1e-6) -> float:
    """Cross-check a field's jet against its components and central differences.

    The jet is called once on the whole stack of points, and each order is
    compared with one Richardson-extrapolated stencil, so that steep closed
    forms are checked at the oracle's best accuracy.  Each point's deviation
    is scaled by max(1, its largest jet entry).  Returns the worst one;
    raises ``GeometryError`` if it exceeds ``rtol``.  Fields without a jet
    pass trivially.
    """
    if metric.jet is None or not len(points):
        return 0.0
    pts, _ = _checked(points, metric.dim, metric.in_domain)
    shape = (metric.dim,) * 2
    jet = metric.jet(pts, 2)
    worst = 0.0
    for order in range(3):
        ana = _shaped(jet[order], pts, (metric.dim,) * order + shape, f"metric jet d{order}")
        num = (_evaluate(metric.components, pts, shape, "metric") if order == 0
               else _partials(None, metric.components, pts, order, shape, "metric", True))
        axes = tuple(range(1, ana.ndim))
        dev = np.max(np.abs(ana - num), axis=axes) / np.maximum(1.0, np.max(np.abs(ana), axis=axes))
        worst = max(worst, float(np.max(dev)))
    if worst > rtol:
        raise GeometryError(
            f"metric jet deviates from the components and their finite differences by {worst:.3e} "
            f"(tol {rtol:.1e})"
        )
    return worst
