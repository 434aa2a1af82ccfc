"""Closed-form geometric-flow backgrounds and hypersurface flows.

The catalog holds metric families g(t) solving the forward flow
dg/dt = -2 Ric or the backward flow dg/dtau = +2 Ric, together with
hypersurface families F_t moving by dF/dt = -H nu inside them.  All
catalog entries are exact solutions given in closed form, with analytic
derivative callbacks, so they serve as fixtures whose residuals under the
defining equations must vanish to machine precision.  A flow's analytic
data is its 2-jet, one callback ``MCFSolution.jet(x, t)`` that takes a
point or a stack of points; ``slice_stack`` reads it once per stack and
carries it to the space-time track.  The single-point slice,
``hypersurface_point_data``, is the P = 1 case of ``slice_stack``.

Orientation convention: the unit normal nu is chosen so that a round
sphere in flat space has positive mean curvature with the outward normal
(H = n/r, second fundamental form h = g/r).  Concretely
h_ij = <d_i nu, d_j F> = -<D_{T_i} T_j, nu>, and the shrinking sphere
moves inward under -H nu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .geometry import (
    FD_H1,
    ChartDomainError,
    DegenerateMetricError,
    MetricField,
    ScalarField,
    SymTensor2,
    _inverse,
    _kept,
    _raise_first,
    chart_point,
    christoffel_batch,
    hessian,
    metric_bundle,
    ricci,
    scalar_d1,
)

__all__ = [
    "POLE_BAND",
    "VARIANT_SIGNS",
    "ConformalFamily",
    "RicciFlowBackground",
    "GradientSolitonData",
    "TimeScalarField",
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
# round-sphere chart: metric and embedding with analytic derivatives
# ---------------------------------------------------------------------------


def unit_sphere_metric(d: int) -> MetricField:
    """Round unit d-sphere in polar angles (theta_1 .. theta_d).

    g_ii = prod_{k<i} sin^2(theta_k), diagonal; the chart excludes a band
    of width POLE_BAND around theta_k in {0, pi} for k < d.  First and
    second partials are supplied analytically.  The callbacks take points
    of any leading shape: (d,) or a (P, d) stack.
    """
    if d < 1:
        raise BackgroundError(f"sphere dimension must be >= 1, got {d}")
    eye = np.eye(d)
    # (a, i) with a < i: d_a g_ii = 2 cot(theta_a) g_ii
    pa, pi_ = np.triu_indices(d, 1)
    # (a, b, i) with a != b both below i: d_a d_b g_ii = 4 cot_a cot_b g_ii
    triples = [(a, b, i) for i in range(d) for a in range(i) for b in range(i) if a != b]
    ta, tb, ti = np.array(triples, dtype=int).reshape(-1, 3).T

    def diag(p):
        s2 = np.sin(p[..., : d - 1]) ** 2
        return np.concatenate((np.ones(p.shape[:-1] + (1,)), np.cumprod(s2, axis=-1)), axis=-1)

    def comps(p):
        return diag(p)[..., :, None] * eye

    def d1(p):
        g = diag(p)
        cot = 1.0 / np.tan(p[..., : d - 1])
        out = np.zeros(p.shape[:-1] + (d, d, d))
        out[..., pa, pi_, pi_] = 2.0 * cot[..., pa] * g[..., pi_]
        return out

    def d2(p):
        g = diag(p)
        cot = 1.0 / np.tan(p[..., : d - 1])
        csc2 = 1.0 / np.sin(p[..., : d - 1]) ** 2
        out = np.zeros(p.shape[:-1] + (d, d, d, d))
        out[..., pa, pa, pi_, pi_] = (4.0 * cot[..., pa] ** 2 - 2.0 * csc2[..., pa]) * g[..., pi_]
        out[..., ta, tb, ti, ti] = 4.0 * cot[..., ta] * cot[..., tb] * g[..., ti]
        return out

    def in_domain(p):
        q = p[..., : d - 1]
        return np.all((q > POLE_BAND) & (q < math.pi - POLE_BAND), axis=-1)

    return MetricField(dim=d, components=comps, d1=d1, d2=d2, in_domain=in_domain)


def _euclidean_metric(d: int) -> MetricField:
    eye = np.eye(d)
    return MetricField(
        dim=d,
        components=lambda p: np.zeros(p.shape[:-1] + (d, d)) + eye,
        d1=lambda p: np.zeros(p.shape[:-1] + (d, d, d)),
        d2=lambda p: np.zeros(p.shape[:-1] + (d, d, d, d)),
    )


def _sphere_partials(n: int, orders: np.ndarray):
    """Map x to the partials of the unit n-sphere embedding omega(x) in R^{n+1}.

    Component m of omega is sin x_0 ... sin x_{m-1} cos x_m (the last one
    all sines).  Row q of the (..., Q, n+1) result differentiates
    orders[q, k] times in angle k; it is a product of its factors in angle
    order, and +0.0 where it differentiates an absent factor.  x has shape
    (n,) or (..., n).
    """
    # factor kind per (component, angle): 0 absent (a 1), 1 sin, 2 cos
    kinds = np.tril(np.ones((n + 1, n), dtype=int), -1) + 2 * np.eye(n + 1, n, dtype=int)
    live = np.all((orders[:, None, :] == 0) | (kinds != 0), axis=-1)
    # each factor's place in the values (sin, cos, -sin, -cos, 1, 0) of every
    # angle, laid out [s_0 .. s_{n-1}, c_0 .., -s_0 .., -c_0 .., 1, 0]
    a = np.arange(n)
    table = np.array([[np.full(n, 4 * n), a, n + a],                   # order 0
                      [np.full(n, 4 * n + 1), n + a, 2 * n + a],       # order 1
                      [np.full(n, 4 * n + 1), 2 * n + a, 3 * n + a]])  # order 2
    places = table[orders[:, None, :], kinds, a]        # (Q, n+1, n)

    def partials(x):
        sc = np.concatenate((np.sin(x), np.cos(x)), axis=-1)
        lead = sc.shape[:-1]
        values = np.concatenate((sc, -sc, np.ones(lead + (1,)), np.zeros(lead + (1,))), axis=-1)
        factors = values[..., places]
        return np.where(live, np.cumprod(factors, axis=-1)[..., -1], 0.0)

    return partials


def sphere_embedding_jet(n: int):
    """Map polar angles x to (omega, d_omega, dd_omega) of the unit n-sphere.

    omega(x) is the position on the unit sphere in R^{n+1}, d_omega[i] =
    d omega / d x^i and dd_omega[i, j] the second partials, all from one
    vectorized pass.  x is one point (n,) or a stack (..., n); the results
    gain its leading shape.
    """
    # rows: omega, then d_i omega, then d_i d_j omega for i <= j
    eye = np.eye(n, dtype=int)
    iu, ju = np.triu_indices(n)
    orders = np.concatenate((np.zeros((1, n), dtype=int), eye, eye[iu] + eye[ju]))
    partials = _sphere_partials(n, orders)
    dd_rows = np.empty((n, n), dtype=int)
    dd_rows[iu, ju] = dd_rows[ju, iu] = 1 + n + np.arange(len(iu))

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


def _check_time(domain: tuple[float, float], t: float) -> float:
    lo, hi = domain
    if not (lo < t <= hi):
        raise ChartDomainError(f"time {t} outside domain ({lo}, {hi}]")
    return float(t)


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
    makes the curvature of the whole family closed-form.
    """

    sigma: MetricField
    phi: Callable[[float], float]
    dphi: Callable[[float], float]
    d2phi: Callable[[float], float]
    sigma_scalar: float
    ric_sigma: Callable[[np.ndarray], np.ndarray]

    def R(self, t):
        """Scalar curvature of g(t), sigma_scalar / phi(t)."""
        return self.sigma_scalar / self.phi(t)

    def dR(self, t):
        return -self.sigma_scalar * self.dphi(t) / self.phi(t) ** 2

    def d2R(self, t):
        phi, dphi = self.phi(t), self.dphi(t)
        return self.sigma_scalar * (2.0 * dphi**2 / phi**3 - self.d2phi(t) / phi**2)


@dataclass(frozen=True)
class RicciFlowBackground:
    """A closed-form solution of the (possibly backward) metric flow.

    ``direction`` selects the flow sign: "forward" means dg/dt = -2 Ric,
    "backward" means dg/dtau = +2 Ric with tau stored directly as the time
    variable.  Curvature evaluators are closed-form and are cross-checked
    against the numeric kernel in the test suite.  ``sample_box`` is the
    (low, high) box, scalars or per-coordinate arrays, that
    ``sample_points`` draws from.
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

    def check_time(self, t: float) -> float:
        return _check_time(self.time_domain, t)

    def metric_at(self, t: float) -> MetricField:
        """Spatial metric snapshot at time t, with analytic derivatives."""
        t = self.check_time(t)
        c = self.conformal
        phi = c.phi(t)
        return MetricField(
            dim=self.dim,
            components=lambda p: phi * c.sigma.components(p),
            d1=lambda p: phi * c.sigma.d1(p),
            d2=lambda p: phi * c.sigma.d2(p),
            in_domain=c.sigma.in_domain,
        )

    def dt_metric_at(self, p: np.ndarray, t: float) -> np.ndarray:
        t = self.check_time(t)
        return self.conformal.dphi(t) * np.asarray(self.conformal.sigma.components(p))

    def ricci_at(self, p: np.ndarray, t: float) -> np.ndarray:
        self.check_time(t)
        return np.asarray(self.conformal.ric_sigma(p))

    def scalar_at(self, p: np.ndarray, t: float) -> float:
        return self.conformal.R(self.check_time(t))

    def dt_scalar_at(self, p: np.ndarray, t: float) -> float:
        return self.conformal.dR(self.check_time(t))

    def dy_scalar_at(self, p: np.ndarray, t: float) -> np.ndarray:
        self.check_time(t)
        return np.zeros(self.dim)

    def sample_points(self, count: int, rng: np.random.Generator) -> list[np.ndarray]:
        """Random chart points from ``sample_box``, away from coordinate singularities."""
        return [rng.uniform(*self.sample_box, self.dim) for _ in range(count)]


@dataclass(frozen=True)
class TimeScalarField:
    """Scalar function of (points, time) with analytic partials.

    The spatial callbacks follow the ``ScalarField`` contract: they take a
    (P, d) stack of points and return (P,), (P, d) and (P, d, d) arrays.
    """

    value: Callable[[np.ndarray, float], np.ndarray]
    dy: Callable[[np.ndarray, float], np.ndarray] | None = None
    dyy: Callable[[np.ndarray, float], np.ndarray] | None = None

    def at_time(self, t: float) -> ScalarField:
        return ScalarField(
            value=lambda p: self.value(p, t),
            d1=None if self.dy is None else (lambda p: self.dy(p, t)),
            d2=None if self.dyy is None else (lambda p: self.dyy(p, t)),
        )


# Sign s of each soliton variant: the canonical expanding and shrinking
# solitons are one construction in t and in tau with s flipped, the steady one
# has no time scaling.  From s follow the soliton constant s/2 (s/(2t) on a
# background soliton), the direction (forward iff s > 0) and the time scale.
VARIANT_SIGNS = {"expanding": 1, "shrinking": -1, "steady": 0}


@dataclass(frozen=True)
class GradientSolitonData:
    """Potential and class of a gradient soliton structure on a background."""

    potential: TimeScalarField
    soliton_class: str   # a key of VARIANT_SIGNS

    def __post_init__(self):
        if self.soliton_class not in VARIANT_SIGNS:
            raise BackgroundError(f"unknown soliton class {self.soliton_class!r}")

    @property
    def c(self) -> float:
        return float(VARIANT_SIGNS[self.soliton_class])


def catalog_background_names() -> list[str]:
    return ["euclidean_static", "round_sphere", "gaussian_shrinker_flat"]


def model_background(name: str, **params) -> RicciFlowBackground:
    """Build a catalog background.

    euclidean_static(dim, direction="forward", T=1.0): flat static metric.
    round_sphere(dim, r0, direction, T=None): g(t) = (r0^2 -+ 2(d-1)t) * round
        unit metric; forward direction shrinks toward the singular time
        r0^2 / (2(d-1)), backward grows without bound.
    gaussian_shrinker_flat(dim, T=1.0): flat backward background carrying
        the potential f = |y|^2 / (4 tau), shrinking class.
    """
    if name == "euclidean_static":
        dim = int(params.pop("dim", 3))
        direction = params.pop("direction", "forward")
        T = float(params.pop("T", 1.0))
        _reject_extras(name, params)
        conf = ConformalFamily(
            sigma=_euclidean_metric(dim),
            phi=lambda t: 1.0,
            dphi=lambda t: 0.0,
            d2phi=lambda t: 0.0,
            sigma_scalar=0.0,
            ric_sigma=lambda p: np.zeros((dim, dim)),
        )
        return RicciFlowBackground(name, dim, direction, (0.0, T), conf)

    if name == "round_sphere":
        dim = int(params.pop("dim", 3))
        r0 = float(params.pop("r0", 1.0))
        direction = params.pop("direction", "forward")
        T = params.pop("T", None)
        _reject_extras(name, params)
        if r0 <= 0:
            raise BackgroundError(f"round_sphere needs r0 > 0, got {r0}")
        if dim < 2:
            raise BackgroundError("round_sphere needs dim >= 2")
        rate = 2.0 * (dim - 1)
        if direction == "forward":
            t_sing = r0**2 / rate
            T = 0.8 * t_sing if T is None else float(T)
            if not (0.0 < T < t_sing):
                raise BackgroundError(
                    f"round_sphere forward needs 0 < T < {t_sing}, got T={T}"
                )
            phi = lambda t: r0**2 - rate * t
            dphi = lambda t: -rate
        else:
            T = 1.0 if T is None else float(T)
            phi = lambda t: r0**2 + rate * t
            dphi = lambda t: rate
        sigma = unit_sphere_metric(dim)
        conf = ConformalFamily(
            sigma=sigma,
            phi=phi,
            dphi=dphi,
            d2phi=lambda t: 0.0,
            sigma_scalar=float(dim * (dim - 1)),
            ric_sigma=lambda p: (dim - 1) * np.asarray(sigma.components(p)),
        )
        return RicciFlowBackground(name, dim, direction, (0.0, T), conf, sample_box=_polar_box(dim))

    if name == "gaussian_shrinker_flat":
        dim = int(params.pop("dim", 3))
        T = float(params.pop("T", 1.0))
        _reject_extras(name, params)
        flat = model_background("euclidean_static", dim=dim, direction="backward", T=T)
        potential = TimeScalarField(
            value=lambda y, t: _square(y) / (4.0 * t),
            dy=lambda y, t: y / (2.0 * t),
            dyy=lambda y, t: np.broadcast_to(np.eye(dim) / (2.0 * t), y.shape + (dim,)),
        )
        soliton = GradientSolitonData(potential, "shrinking")
        return RicciFlowBackground(flat.name, dim, "backward", (0.0, T), flat.conformal, soliton)

    raise BackgroundError(f"unknown background {name!r}; known: {catalog_background_names()}")


def _square(y: np.ndarray) -> np.ndarray:
    """|y|^2 over the last axis."""
    return np.einsum("...i,...i->...", y, y)


def _reject_extras(name, params):
    if params:
        raise BackgroundError(f"unknown parameters for {name}: {sorted(params)}")


# ---------------------------------------------------------------------------
# hypersurface flows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MCFSolution:
    """Closed-form family of immersions F_t : M^n -> O^{n+1}.

    ``jet(x, t)`` is the analytic 2-jet of the flow, the tuple
    (F, d_t F, d_x F, d_x d_x F, d_x d_t F, d_t d_t F) of shapes (n+1,),
    (n+1,), (n, n+1), (n, n, n+1), (n, n+1) and (n+1,) at one point.  The
    derivatives of H are analytic when set; everything else (induced
    metric, normal, second fundamental form, H itself) is computed by the
    kernel.  Every callback takes x of shape (n,) or a stack (..., n), with
    t broadcastable to the leading shape, and its results gain that
    leading shape.  ``time_domain`` defaults to the ambient's;
    ``sample_box`` is the (low, high) box that ``sample_xs`` draws from.
    """

    name: str
    hypersurface_dim: int
    ambient: RicciFlowBackground
    jet: Callable[[np.ndarray, float], tuple]
    orientation_hint: Callable[[np.ndarray, float], np.ndarray]
    dx_mean_curvature: Callable[[np.ndarray, float], np.ndarray] | None = None
    dt_mean_curvature: Callable[[np.ndarray, float], float] | None = None
    time_domain: tuple[float, float] | None = None
    sample_box: tuple = (-1.5, 1.5)

    def __post_init__(self):
        if self.time_domain is None:
            object.__setattr__(self, "time_domain", self.ambient.time_domain)

    def check_time(self, t: float) -> float:
        return _check_time(self.time_domain, t)

    def sample_xs(self, count: int, rng: np.random.Generator) -> list[np.ndarray]:
        return [rng.uniform(*self.sample_box, self.hypersurface_dim) for _ in range(count)]


def catalog_mcf_names() -> list[str]:
    return ["shrinking_sphere_flat", "equator_in_sphere", "static_plane_flat"]


def model_mcf(name: str, bg: RicciFlowBackground, **params) -> MCFSolution:
    """Build a catalog hypersurface flow inside a given background.

    shrinking_sphere_flat(r0): round sphere of radius r(t) = sqrt(r0^2 - 2nt)
        in a flat background (n = bg.dim - 1).
    equator_in_sphere(): totally geodesic equator of a round-sphere
        background, static in sphere coordinates.
    static_plane_flat(height=0.0): fixed coordinate hyperplane in a flat
        background.
    """
    n = bg.dim - 1
    if n < 1:
        raise BackgroundError("background dimension too small for hypersurfaces")

    if name == "shrinking_sphere_flat":
        if bg.name != "euclidean_static":
            raise BackgroundError("shrinking_sphere_flat needs a flat background")
        r0 = float(params.pop("r0", 1.0))
        _reject_extras(name, params)
        if r0 <= 0:
            raise BackgroundError(f"needs r0 > 0, got {r0}")
        omega_jet = sphere_embedding_jet(n)
        # the outward hint is omega alone, not a second full jet
        omega = _sphere_partials(n, np.zeros((1, n), dtype=int))
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
            name=name,
            hypersurface_dim=n,
            ambient=bg,
            jet=jet,
            orientation_hint=lambda x, t: omega(x)[..., 0, :],
            dx_mean_curvature=lambda x, t: np.zeros(np.shape(x)),
            dt_mean_curvature=lambda x, t: _per_time(lambda s: n**2 / r(s) ** 3, t, np.shape(x)[:-1]),
            time_domain=(0.0, T),
            sample_box=_polar_box(n),
        )

    if name == "equator_in_sphere":
        if bg.name != "round_sphere":
            raise BackgroundError("equator_in_sphere needs a round_sphere background")
        _reject_extras(name, params)
        return MCFSolution(
            name=name,
            hypersurface_dim=n,
            ambient=bg,
            # the polar angle pi/2 prepended to x
            jet=lambda x, t: _static_jet(x, math.pi / 2.0, 0, np.eye(n, n + 1, k=1)),
            orientation_hint=lambda x, t: _static_hint(x, 0),
            dx_mean_curvature=lambda x, t: np.zeros(np.shape(x)),
            dt_mean_curvature=lambda x, t: np.zeros(np.shape(x)[:-1]),
            sample_box=_polar_box(n),
        )

    if name == "static_plane_flat":
        if bg.name != "euclidean_static":
            raise BackgroundError("static_plane_flat needs a flat background")
        height = float(params.pop("height", 0.0))
        _reject_extras(name, params)
        return MCFSolution(
            name=name,
            hypersurface_dim=n,
            ambient=bg,
            # the coordinate ``height`` appended to x
            jet=lambda x, t: _static_jet(x, height, n, np.eye(n, n + 1)),
            orientation_hint=lambda x, t: _static_hint(x, n),
            dx_mean_curvature=lambda x, t: np.zeros(np.shape(x)),
            dt_mean_curvature=lambda x, t: np.zeros(np.shape(x)[:-1]),
        )

    raise BackgroundError(f"unknown hypersurface flow {name!r}; known: {catalog_mcf_names()}")


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


def ricci_flow_residual(bg: RicciFlowBackground, p: np.ndarray, t: float) -> SymTensor2:
    """dg/dt - S with S = -2 Ric (forward) or +2 Ric (backward).

    Vanishes identically on exact solutions; the Ricci tensor comes from
    the numeric kernel, not from the background's closed forms.
    """
    t = bg.check_time(t)
    snap = bg.metric_at(t)
    p = snap.check_point(p)
    ric = ricci(snap, p).entries
    sign = -2.0 if bg.direction == "forward" else 2.0
    return SymTensor2.symmetrized(bg.dt_metric_at(p, t) - sign * ric)


def gradient_soliton_residual(
    bg: RicciFlowBackground,
    sol: GradientSolitonData,
    p: np.ndarray,
    t: float,
) -> SymTensor2:
    """Gradient-soliton defect Ric + Hess(f) + (c / 2t) g at (p, t)."""
    t = bg.check_time(t)
    if t == 0.0:
        raise ChartDomainError("gradient soliton residual undefined at t = 0")
    snap = bg.metric_at(t)
    p = snap.check_point(p)
    ric = ricci(snap, p).entries
    hess = hessian(snap, sol.potential.at_time(t), p).entries
    g = snap.at(p)
    return SymTensor2.symmetrized(ric + hess + (sol.c / (2.0 * t)) * g)


def mcf_soliton_residual(
    mcf: MCFSolution,
    potential: TimeScalarField,
    sign: float,
    x: np.ndarray,
    t: float,
) -> float:
    """Pointwise soliton defect H + sign * (nu f) of a hypersurface.

    ``sign`` is +1 or -1; the normal is the catalog orientation (outward
    for spheres).  The defect vanishes on exact hypersurface solitons.
    """
    if sign not in (+1.0, -1.0, 1, -1):
        raise BackgroundError(f"sign must be +1 or -1, got {sign}")
    data = hypersurface_point_data(mcf, x, t)
    nu_f = float(data.normal @ scalar_d1(potential.at_time(t), data.position))
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
    ``DegenerateMetricError`` of a degenerate one.  A point's result does
    not depend on the rest of the stack.
    """
    induced = tangents @ g @ tangents.transpose(0, 2, 1)
    induced = 0.5 * (induced + induced.transpose(0, 2, 1))
    induced_inv, errors = _inverse(induced, tangents)
    for i, cause in enumerate(errors):
        if cause is not None:
            errors[i] = DegenerateMetricError("degenerate induced metric")
            errors[i].__cause__ = cause
    tangents, second_partials, g, gamma, hint, induced, induced_inv = _kept(
        errors, (tangents, second_partials, g, gamma, hint, induced, induced_inv))
    # null space of the n x m matrix T g, then g-normalized and oriented
    _, _, vh = np.linalg.svd(tangents @ g)
    nu = vh[:, -1]
    nu_g = nu[:, None] @ g
    nu = nu / np.sqrt(nu_g @ nu[..., None])[:, 0]
    # g(nu, hint) has the same sign before and after normalizing
    nu = np.where((nu_g @ hint[..., None])[:, 0] < 0.0, -nu, nu)
    # (D_{T_i} T_j)^c = dd_ij F^c + Gamma^c_ab T_i^a T_j^b
    cov = second_partials + np.einsum("pcab,pia,pjb->pijc", gamma, tangents, tangents)
    h = -np.einsum("pijc,pcd,pd->pij", cov, g, nu)
    h = 0.5 * (h + h.transpose(0, 2, 1))
    return (induced, induced_inv, nu, h, np.einsum("pij,pij->p", induced_inv, h)), errors


class SliceStack(NamedTuple):
    """The geometry of M_t at a stack of (x, t) pairs, stacked over the pairs in ``index``.

    ``errors`` has one entry per pair: None, or the exception
    ``hypersurface_point_data`` raises there.  ``ext`` holds the
    ``extrinsic_geometry_batch`` results.
    """

    mcf: MCFSolution
    xs: np.ndarray                # (P, n), every pair
    ts: list                      # P floats, every pair
    index: np.ndarray
    errors: list
    jet: tuple
    ext: tuple

    def record(self, j: int) -> HypersurfacePointData:
        """The ``HypersurfacePointData`` of stacked row j."""
        i = self.index[j]
        x, t = self.xs[i], self.ts[i]
        induced, induced_inv, nu, h, H = (a[j] for a in self.ext)
        H = float(H)
        dxH, dtH = _mean_curvature_partials(self.mcf, x, t, H)
        return HypersurfacePointData(
            ambient=self.mcf.ambient,
            x=x,
            t=t,
            jet=tuple(a[j] for a in self.jet),
            induced=induced,
            induced_inv=induced_inv,
            normal=nu,
            second_ff=h,
            mean_curvature=H,
            dx_mean_curvature=dxH,
            dt_mean_curvature=dtH,
        )


def slice_stack(mcf: MCFSolution, xs: np.ndarray, ts: list) -> SliceStack:
    """The flow's 2-jets and the extrinsic geometry of M_t at a stack of (x, t) pairs.

    ``xs`` is a (P, n) stack of finite chart points and ``ts`` their P
    times, floats in the flow's time domain.  The flow's callbacks run once
    on the stack, and the ambient metric at the image points is phi(t_p) *
    sigma, from one evaluation of sigma for the whole stack; a time outside
    the ambient's domain raises.
    """
    bg = mcf.ambient
    c = bg.conformal
    times = np.asarray(ts, dtype=float)
    jet = tuple(np.asarray(a, dtype=float) for a in mcf.jet(xs, times))
    amb = metric_bundle(c.sigma, jet[0], order=1, scale=[c.phi(bg.check_time(t)) for t in ts])
    index, errors = amb.index, list(amb.errors)
    *jet, x, times = _kept(errors, jet + (xs, times))
    hint = np.asarray(mcf.orientation_hint(x, times), dtype=float)
    ext, bad = extrinsic_geometry_batch(jet[2], jet[3], amb.g, christoffel_batch(amb), hint)
    for i, exc in zip(index, bad):
        if exc is not None:
            errors[i] = BackgroundError(f"degenerate induced metric at x={xs[i]}, t={ts[i]}")
    index, *jet = _kept(bad, (index, *jet))
    return SliceStack(mcf, xs, ts, index, errors, tuple(jet), ext)


def _mean_curvature_partials(mcf: MCFSolution, x: np.ndarray, t: float, H: float) -> tuple:
    """(dH/dx, dH/dt) at one pair, from the flow's callbacks.

    A missing callback is replaced by the kernel's central differences of
    H along x, or along t.  Where t + h leaves the ambient's time domain,
    dH/dt comes from the second-order backward stencil instead.
    """
    def H_at(ys, ss):
        stack = slice_stack(mcf, np.asarray(ys, dtype=float), list(ss))
        _raise_first(stack.errors)
        return stack.ext[-1]

    if mcf.dx_mean_curvature is None:
        dxH = scalar_d1(ScalarField(lambda ys: H_at(ys, [t] * len(ys))), x)
    else:
        dxH = np.asarray(mcf.dx_mean_curvature(x, t), dtype=float)
    step = FD_H1 * max(1.0, abs(t))
    if mcf.dt_mean_curvature is not None:
        dtH = float(mcf.dt_mean_curvature(x, t))
    elif t + step <= mcf.ambient.time_domain[1]:
        dtH = float(scalar_d1(ScalarField(lambda ss: H_at([x] * len(ss), ss[:, 0].tolist())), [t])[0])
    else:
        back = H_at([x, x], [t - step, t - 2.0 * step])
        dtH = float((3.0 * H - 4.0 * back[0] + back[1]) / (2.0 * step))
    return dxH, dtH


def hypersurface_point_data(mcf: MCFSolution, x: np.ndarray, t: float) -> HypersurfacePointData:
    """Compute induced metric, normal, h, H and H-derivatives at (x, t).

    The P = 1 case of ``slice_stack``.  A missing mean-curvature callback
    is replaced by the kernel's central differences of H.
    """
    t = mcf.check_time(t)
    x = chart_point(x)
    stack = slice_stack(mcf, x[None], [t])
    _raise_first(stack.errors)
    return stack.record(0)
