"""Harnack quantities, the large-N second-fundamental-form limit, and
weighted scalar/mean-curvature boundary functionals.

Three strands meet here:

* the flow Harnack quadratic Z(X, X) = Ric(X, X) + <X, grad R> +
  (dR/dt + R/t)/2, which is the large-N Ricci limit of the canonical
  expander, ``canonical.limit_riccis``;
* the hypersurface Harnack quadratic Z~(V, V) = dH/dt + h(V, V) +
  2 <V, grad H> + H/(2t), which is ``limit_second_ff`` on a flat
  background; on a curved one that form, the large-N limit of the
  track's second fundamental form, completes it;
* the weighted functionals I_infty = int R^inf e^-f dV + 2 int H^inf e^-f dA
  (R^inf = R + 2 Lap f - |grad f|^2, H^inf = H - nu f) and the boundary
  integrand of their evolution, which ``limit_second_ff(-grad f)``
  reproduces up to the H/(2t) term.

The slice and track forms take a ``SliceStack`` (or a ``TrackStack``) and
one vector or differential per row, and return (P,) arrays; a row's value
does not depend on its stack.

Quadrature is product trapezoid on explicit chart grids with sqrt(det g)
densities baked into the weights.  ``weighted_functionals`` takes the grid
through the batched kernel once, in chunks of QUADRATURE_CHUNK nodes, and
each chunk serves both I_infty and I_GHY.  The per-node terms are summed
with ``math.fsum`` (correctly rounded), so the result does not depend on
the summation order or the chunking and is bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations_with_replacement, permutations
from typing import NamedTuple

import numpy as np

from .backgrounds import POLE_BAND, SliceStack, _flow_terms, model_background
from .canonical import CanonicalConfigError
from .geometry import (
    GeometryError,
    MetricField,
    ScalarField,
    _evaluate,
    _partials,
    _point_stack,
    gradient_batch,
    hessian_batch,
    inverse_metric,  # noqa: F401  (harnack.inverse_metric, a binding the benchmark tracer patches)
    metric_bundle,
    scalar_curvature_batch,
)
from .track import TrackStack

__all__ = [
    "limit_second_ff",
    "stripped_track_form",
    "tangential_gradient",
    "lott_boundary_integrand",
    "lott_match_defect",
    "WeightedManifoldData",
    "QuadratureError",
    "weighted_scalar_curvature",
    "WeightedFunctionals",
    "weighted_functionals",
    "flat_ball_domain",
    "random_polynomial_field",
    "random_polynomial_gradients",
]


class QuadratureError(ValueError):
    """Empty or inconsistent quadrature data."""


# ---------------------------------------------------------------------------
# Harnack quadratics
# ---------------------------------------------------------------------------


def _row_vectors(vectors, count: int, dim: int) -> np.ndarray:
    """One (dim,) vector per stacked row, (count, dim); else a ``ChartDomainError`` or ``GeometryError``."""
    V, _ = _point_stack(vectors, dim, "vector")
    if len(V) != count:
        raise GeometryError(f"{len(V)} vectors for {count} stacked rows")
    return V


def _chain(a: np.ndarray, *B: np.ndarray) -> np.ndarray:
    """a_p . B1_p ... Bk_p c_p at every row p, (P,), with c the last of B: one stacked matmul chain."""
    return (reduce(np.matmul, B[:-1], a[:, None]) @ B[-1][..., None])[:, 0, 0]


def limit_second_ff(stack: SliceStack, Vs) -> np.ndarray:
    """Large-N limit of the track's second fundamental form on V + d/dt, at each row of ``stack``.

    dH/dt + h(V, V) + H/(2t) + 2 <V, grad H> + 2 Ric(V, nu)
    - H Ric(nu, nu) + nu(R)/2, assembled from the slice and its background
    only (no N enters), with ``Vs`` one (n,) vector per row.  Reduces to
    Z~(V, V) when the background is flat.
    """
    V = _row_vectors(Vs, len(stack.xs), stack.xs.shape[1])
    return _limit_form(stack, _flow_terms(stack), V)


def _limit_form(stack: SliceStack, terms: tuple, V: np.ndarray) -> np.ndarray:
    """``limit_second_ff`` on checked rows V, given the stack's ``_flow_terms``."""
    if stack.mcf.ambient.direction != "forward":
        raise CanonicalConfigError("the limit form is defined along the forward flow")
    (ric, _, _, dRdy), dH, dHdt = terms
    _, _, nu, h, H = stack.ext
    return (
        dHdt
        + _chain(V, h, V)
        + H / (2.0 * np.array(stack.ts))
        + 2.0 * _chain(V, dH)
        + 2.0 * _chain(V, stack.jet[2], ric, nu)
        - H * _chain(nu, ric, nu)
        + 0.5 * _chain(nu, dRdy)
    )


def stripped_track_form(stack: TrackStack, Vs) -> np.ndarray:
    """Finite-N track form on the lifted vectors at each row of ``stack``, normalization removed.

    Evaluates h^S(V + d/dt, V + d/dt) and multiplies by t sigma_N, the
    explicit prefactor of the closed forms; without the stripping the
    sigma_N -> 1/sqrt(t) limit would rescale the comparison against
    ``limit_second_ff``.  This normalization choice is recorded in run
    provenance blocks.  ``Vs`` holds one (n,) vector per row of the stack.
    """
    V = _row_vectors(Vs, len(stack.index), stack.slices.xs.shape[1])
    W = np.column_stack((np.ones(len(V)), V))
    return _chain(W, stack.ext[3], W) * stack.z[:, 0] * stack.sigma_N


# ---------------------------------------------------------------------------
# boundary integrand and the matching identity
# ---------------------------------------------------------------------------


def tangential_gradient(stack: SliceStack, dfs):
    """Boundary gradients of potentials at the rows of ``stack``, from their differentials ``dfs`` there.

    The slice forms take a potential f by its differential, ``scalar_d1(f,
    stack.jet[0])``, so one evaluation serves every form.  Returns the (P, n)
    chart components w.r.t. the slice tangents and the (P, n+1) ambient vectors.
    """
    df = _row_vectors(dfs, len(stack.xs), stack.g.shape[1])
    g, nu = stack.g, stack.ext[2]
    grad = (stack.ginv @ df[..., None])[..., 0]
    tang = grad - _chain(grad, g, nu)[:, None] * nu
    return (stack.ext[1] @ (stack.jet[2] @ g @ tang[..., None]))[..., 0], tang


def lott_boundary_integrand(stack: SliceStack, dfs) -> np.ndarray:
    """Boundary integrand of the weighted functional's evolution, at each row of ``stack``.

    dH/dt - 2 <grad f, grad H> + h(grad f, grad f) - 2 Ric(nu, grad f)
    + nu(R)/2 - H Ric(nu, nu), with grad f the boundary-tangential
    gradient of the potential with differential ``dfs`` (one per row).
    dH/dt comes with the flow; there is no hidden time differencing across
    unrelated snapshots.
    """
    return _lott_integrand(stack, _flow_terms(stack), *tangential_gradient(stack, dfs))


def _lott_integrand(stack: SliceStack, terms: tuple, comps: np.ndarray, tang: np.ndarray) -> np.ndarray:
    """``lott_boundary_integrand`` given the ``_flow_terms`` and the boundary gradients (comps, tang)."""
    (ric, _, _, dRdy), dH, dHdt = terms
    _, _, nu, h, H = stack.ext
    return (
        dHdt
        - 2.0 * _chain(comps, dH)
        + _chain(comps, h, comps)
        - 2.0 * _chain(nu, ric, tang)
        + 0.5 * _chain(nu, dRdy)
        - H * _chain(nu, ric, nu)
    )


def lott_match_defect(stack: SliceStack, dfs) -> np.ndarray:
    """limit_second_ff(-grad f) - boundary integrand - H/(2t) at each row of ``stack``, f given by ``dfs``.

    Identically zero: the limit form evaluated on the negative boundary
    gradient reproduces the evolution integrand up to the H/(2t) term.  One
    boundary gradient and one read of the flow terms serve both sides.
    """
    comps, tang = tangential_gradient(stack, dfs)
    terms = _flow_terms(stack)
    lhs = _limit_form(stack, terms, -comps)
    return lhs - _lott_integrand(stack, terms, comps, tang) - stack.ext[-1] / (2.0 * np.array(stack.ts))


# ---------------------------------------------------------------------------
# weighted functionals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightedManifoldData:
    """A compact weighted domain with boundary, discretized for quadrature.

    Weights carry the volume/area densities sqrt(det g) and must be finite
    and positive; normals are outward unit vectors at the boundary samples,
    and the boundary mean curvatures must be finite.  ``scalar_curvature_at``
    optionally short-circuits the engine curvature with a closed form
    (used by catalogs); the engine remains the fallback.
    """

    metric: MetricField
    potential: ScalarField
    interior_points: np.ndarray
    interior_weights: np.ndarray
    boundary_points: np.ndarray
    boundary_weights: np.ndarray
    boundary_normals: np.ndarray
    boundary_mean_curvatures: np.ndarray
    scalar_curvature_at: ScalarField | None = None

    def __post_init__(self):
        if len(self.interior_points) == 0 or len(self.boundary_points) == 0:
            raise QuadratureError("quadrature grid is empty")
        weights = (self.interior_weights, self.boundary_weights)
        if not all(np.isfinite(w).all() for w in weights):
            raise QuadratureError("quadrature weights must be finite")
        if any(np.any(w <= 0) for w in weights):
            raise QuadratureError("quadrature weights must be positive")
        if not np.isfinite(self.boundary_mean_curvatures).all():
            raise QuadratureError("boundary mean curvatures must be finite")
        nus = self.boundary_normals
        g = self.metric.at(self.boundary_points)
        # a NaN deviation fails the test too
        if not np.max(np.abs(np.einsum("pa,pab,pb->p", nus, g, nus) - 1.0)) <= 1e-8:
            raise QuadratureError("boundary normals must be unit vectors")


def _weighted_scalar_curvatures(wm: WeightedManifoldData, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R^inf, R) at a (P, d) stack of interior points, R^inf = R + 2 Lap f - |grad f|^2.

    One bundle (order 2 only when R comes from the engine, not the closed
    form) and one evaluation of df serve every term.  The bundle checks
    the points once; the closed form reads its checked rows.
    """
    closed = wm.scalar_curvature_at
    b = metric_bundle(wm.metric, pts, order=1 if closed is not None else 2)
    b.raise_error()
    grad = gradient_batch(b, wm.potential)
    lap = np.einsum("pab,pab->p", b.ginv, hessian_batch(b, wm.potential, grad))
    grad_sq = np.einsum("pa,pab,pb->p", grad, b.g, grad)
    R = _evaluate(closed.value, b.points, (), "scalar") if closed is not None else scalar_curvature_batch(b)
    return R + 2.0 * lap - grad_sq, R


def _weighted_mean_curvatures(wm: WeightedManifoldData, idx) -> np.ndarray:
    """H^inf = H - nu f at the boundary samples ``idx``, which ``WeightedManifoldData`` checked."""
    f = wm.potential
    nu_f = np.einsum("pa,pa->p", wm.boundary_normals[idx],
                     _partials(f.d1, f.value, wm.boundary_points[idx], 1, (), "scalar"))
    return wm.boundary_mean_curvatures[idx] - nu_f


def weighted_scalar_curvature(wm: WeightedManifoldData, p: np.ndarray) -> float:
    """R^inf = R + 2 Lap f - |grad f|^2 at an interior point.

    The Laplacian is the metric trace of the covariant Hessian.
    """
    r_inf, _ = _weighted_scalar_curvatures(wm, np.asarray(p, dtype=float)[None])
    return float(r_inf[0])


# Grid nodes per kernel call in the quadratures; bounds the memory of one call.
QUADRATURE_CHUNK = 1024


def _chunks(n: int):
    return (slice(i, min(i + QUADRATURE_CHUNK, n)) for i in range(0, n, QUADRATURE_CHUNK))


class WeightedFunctionals(NamedTuple):
    """The two weighted functionals of one domain, from one quadrature pass."""

    I_infty: float   # int R^inf e^-f dV + 2 int H^inf e^-f dA
    I_GHY: float     # int R e^-f dV + 2 int H dA (boundary term unweighted)


def weighted_functionals(wm: WeightedManifoldData) -> WeightedFunctionals:
    """I_infty and I_GHY over the supplied grids, from one loop over the chunks.

    Each interior chunk's bundle, R, e^-f and weights serve both sums.  The
    potential is read without a second check, at interior rows the chunk's
    bundle checked and at boundary rows ``WeightedManifoldData`` checked.
    """
    f = wm.potential
    terms_inf, terms_ghy = [], []
    for sl in _chunks(len(wm.interior_points)):
        pts = wm.interior_points[sl]
        r_inf, R = _weighted_scalar_curvatures(wm, pts)
        w, ef = wm.interior_weights[sl], np.exp(-_evaluate(f.value, pts, (), "scalar"))
        terms_inf.append(w * r_inf * ef)
        terms_ghy.append(w * R * ef)
    for sl in _chunks(len(wm.boundary_points)):
        terms_inf.append(2.0 * wm.boundary_weights[sl] * _weighted_mean_curvatures(wm, sl)
                         * np.exp(-_evaluate(f.value, wm.boundary_points[sl], (), "scalar")))
    terms_ghy.append(2.0 * wm.boundary_weights * wm.boundary_mean_curvatures)
    return WeightedFunctionals(math.fsum(np.concatenate(terms_inf).tolist()),
                               math.fsum(np.concatenate(terms_ghy).tolist()))


# ---------------------------------------------------------------------------
# catalog domain: flat ball in spherical coordinates
# ---------------------------------------------------------------------------


def _trapezoid_nodes(a: float, b: float, k: int):
    xs = np.linspace(a, b, k)
    w = np.full(k, (b - a) / (k - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return xs, w


def _periodic_nodes(k: int):
    xs = np.arange(k) * (2.0 * math.pi / k)
    return xs, np.full(k, 2.0 * math.pi / k)


def flat_ball_domain(
    potential: ScalarField | None = None,
    grid: tuple[int, int, int] = (32, 48, 16),
) -> WeightedManifoldData:
    """Euclidean unit 3-ball in Cartesian coordinates, quadrature in sphericals.

    ``grid`` = (radial, polar, azimuthal) node counts; polar nodes stay
    POLE_BAND away from the axes, azimuth is periodic.  Boundary samples
    carry the outward radial normal and H = 2.
    """
    nr, nth, nph = grid
    if min(nr, nth, nph) < 2:
        raise QuadratureError(f"grid {grid} too coarse")
    if potential is None:
        potential = ScalarField.constant(0.0)

    rs, wr = _trapezoid_nodes(0.0, 1.0, nr)
    ths, wth = _trapezoid_nodes(POLE_BAND, math.pi - POLE_BAND, nth)
    phs, wph = _periodic_nodes(nph)

    # r outer, polar middle, azimuth inner; the r = 0 shell has zero density.
    # sin and cos run on the 1-d axes and broadcast over the grid.
    r, a = rs[1:, None, None], wr[1:, None, None]
    b, s, c = wth[:, None], np.sin(ths)[:, None], np.cos(ths)[:, None]
    grid_pts = np.empty((nr - 1, nth, nph, 3))
    r_sin = r * s
    np.multiply(r_sin, np.cos(phs), out=grid_pts[..., 0])
    np.multiply(r_sin, np.sin(phs), out=grid_pts[..., 1])
    grid_pts[..., 2] = r * c
    pts = grid_pts.reshape(-1, 3)
    wts = (a * b * wph * r**2 * s).reshape(-1)

    # linspace ends exactly at 1.0, so the last shell is the unit sphere
    bnus = grid_pts[-1].reshape(-1, 3)
    bwts = (b * wph * s).reshape(-1)

    metric = model_background("euclidean_static", dim=3).conformal.sigma
    return WeightedManifoldData(
        metric=metric,
        potential=potential,
        interior_points=pts,
        interior_weights=wts,
        boundary_points=bnus,
        boundary_weights=bwts,
        boundary_normals=bnus,
        boundary_mean_curvatures=np.full(len(bnus), 2.0),
        scalar_curvature_at=ScalarField.constant(0.0),
    )


# ---------------------------------------------------------------------------
# seeded polynomial potentials
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _monomial_partials(dim: int, degree: int, order: int):
    """Index table of the order-``order`` partials of the monomials of degree <= ``degree``.

    One row per monomial, in coefficient order, and per ordered choice of
    factors to differentiate away: the monomial, its kept factors padded
    with ``dim`` (a ones column), and the flat index of the partial.
    """
    combos = [c for d in range(degree + 1) for c in combinations_with_replacement(range(dim), d)]
    term, factors, target = [], [], []
    for k, c in enumerate(combos):
        for drop in permutations(range(len(c)), order):
            term.append(k)
            factors.append([i for j, i in enumerate(c) if j not in drop] + [dim] * (degree - len(c)))
            target.append(sum(c[j] * dim ** (order - 1 - n) for n, j in enumerate(drop)))
    return np.array(term, dtype=int), np.array(factors, dtype=int), np.array(target, dtype=int)


def _polynomial_partials(coeffs: np.ndarray, p: np.ndarray, dim: int, degree: int, order: int) -> np.ndarray:
    """Flat order-``order`` partials of polynomials, one row per row of ``coeffs`` or per point.

    Either one polynomial (``coeffs`` of shape (C,)) at a stack of points
    ``p``, or a (K, C) stack of polynomials at one point.  Each table row,
    a coefficient times its kept factors left to right, adds to one
    partial, in table order, so a row's bits do not depend on the stack.
    """
    term, factors, target = _monomial_partials(dim, degree, order)
    q = np.column_stack((p.reshape(-1, dim), np.ones(p.size // dim)))
    prod = coeffs[..., term]
    for col in factors.T:
        prod = prod * q[:, col]
    out = np.zeros(np.broadcast_shapes(coeffs.shape[:-1], q.shape[:1]) + (dim**order,))
    np.add.at(out, (slice(None), target), prod)
    return out


def random_polynomial_field(dim: int, rng: np.random.Generator, degree: int = 3) -> ScalarField:
    """Random polynomial with coefficients in [-1, 1], analytic first and second partials.

    Used by the matching suite; the caller records the generator seed so
    reported defects are reproducible.
    """
    coeffs = rng.uniform(-1, 1, math.comb(dim + degree, degree))

    def partials(p, order):
        """Partials of the given order (0, 1 or 2), indexed [..., i_1, .., i_order]."""
        return _polynomial_partials(coeffs, p, dim, degree, order).reshape(p.shape[:-1] + (dim,) * order)

    return ScalarField(
        value=lambda p: partials(p, 0), d1=lambda p: partials(p, 1), d2=lambda p: partials(p, 2)
    )


def random_polynomial_gradients(dim: int, rng: np.random.Generator, count: int, p: np.ndarray) -> np.ndarray:
    """The (count, dim) differentials at the point p of ``count`` random polynomials, in one pass.

    The coefficients are drawn as ``count`` successive ``random_polynomial_field``
    calls (of its default degree 3) on ``rng`` draw them, and row k equals the
    ``scalar_d1`` at p of the k-th such field, bit for bit.
    """
    coeffs = rng.uniform(-1, 1, (count, math.comb(dim + 3, 3)))
    return _polynomial_partials(coeffs, np.asarray(p, dtype=float), dim, 3, 1)
