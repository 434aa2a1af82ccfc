"""Harnack quantities, the large-N second-fundamental-form limit, and
weighted scalar/mean-curvature boundary functionals.

Three strands meet here:

* the flow Harnack quadratic Z(X, X) = Ric(X, X) + <X, grad R> +
  (dR/dt + R/t)/2, which is the large-N Ricci limit of the canonical
  expander, ``canonical.limit_ricci``;
* the hypersurface Harnack quadratic Z~(V, V) = dH/dt + h(V, V) +
  2 <V, grad H> + H/(2t), which is ``limit_second_ff`` on a flat
  background; on a curved one that form, the large-N limit of the
  track's second fundamental form, completes it;
* the weighted functionals I_infty = int R^inf e^-f dV + 2 int H^inf e^-f dA
  (R^inf = R + 2 Lap f - |grad f|^2, H^inf = H - nu f) and the boundary
  integrand of their evolution, which ``limit_second_ff(-grad f)``
  reproduces up to the H/(2t) term.

Quadrature is product trapezoid on explicit chart grids with sqrt(det g)
densities baked into the weights.  The grid goes through the batched
kernel in chunks of QUADRATURE_CHUNK nodes, and the per-node terms are
summed with ``math.fsum`` (correctly rounded), so the result does not
depend on the summation order or the chunking and is bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, permutations

import numpy as np

from .backgrounds import POLE_BAND, HypersurfacePointData, model_background
from .canonical import CanonicalConfigError
from .geometry import (
    MetricBundle,
    MetricField,
    ScalarField,
    gradient_batch,
    hessian_batch,
    inverse_metric,  # noqa: F401  (harnack.inverse_metric, a binding the benchmark tracer patches)
    metric_bundle,
    scalar_curvature_batch,
    scalar_d1,
)
from .track import SpaceTimeTrack, TrackPointData, track_point_data

__all__ = [
    "limit_second_ff",
    "stripped_track_quadratic",
    "stripped_track_form",
    "tangential_gradient",
    "lott_boundary_integrand",
    "lott_match_defect",
    "lott_gradient_match_defect",
    "WeightedManifoldData",
    "QuadratureError",
    "weighted_scalar_curvature",
    "weighted_mean_curvature",
    "I_infty",
    "I_GHY",
    "flat_ball_domain",
    "random_polynomial_field",
    "random_polynomial_gradients",
]


class QuadratureError(ValueError):
    """Empty or inconsistent quadrature data."""


# ---------------------------------------------------------------------------
# Harnack quadratics
# ---------------------------------------------------------------------------


def limit_second_ff(hyp: HypersurfacePointData, V: np.ndarray) -> float:
    """Large-N limit of the track's second fundamental form on V + d/dt.

    dH/dt + h(V, V) + H/(2t) + 2 <V, grad H> + 2 Ric(V, nu)
    - H Ric(nu, nu) + nu(R)/2, assembled from the slice and its background
    only (no N enters).  Reduces to Z~(V, V) when the background is flat.
    """
    if hyp.ambient.direction != "forward":
        raise CanonicalConfigError("the limit form is defined along the forward flow")
    V = np.asarray(V, dtype=float)
    ric, dRdy = hyp.curvature.ric, hyp.curvature.dRdy
    return (
        hyp.dt_mean_curvature
        + float(V @ hyp.second_ff @ V)
        + hyp.mean_curvature / (2.0 * hyp.t)
        + 2.0 * float(V @ hyp.dx_mean_curvature)
        + 2.0 * float(V @ hyp.tangents @ ric @ hyp.normal)
        - hyp.mean_curvature * float(hyp.normal @ ric @ hyp.normal)
        + 0.5 * float(hyp.normal @ dRdy)
    )


def stripped_track_quadratic(track: SpaceTimeTrack, V: np.ndarray, x: np.ndarray, t: float) -> float:
    """Finite-N track form on the lifted vector, normalization removed.

    Evaluates h^S(V + d/dt, V + d/dt) and multiplies by t sigma_N, the
    explicit prefactor of the closed forms; without the stripping the
    sigma_N -> 1/sqrt(t) limit would rescale the comparison against
    ``limit_second_ff``.  This normalization choice is recorded in run
    provenance blocks.  The one-metric case of ``stripped_track_form`` on
    a ``track_point_sweep``.
    """
    return stripped_track_form(track_point_data(track, x, t), V)


def stripped_track_form(d: TrackPointData, V: np.ndarray) -> float:
    """``stripped_track_quadratic`` of the track point ``d``, the data of one metric at one pair."""
    W = np.concatenate(([1.0], np.asarray(V, dtype=float)))
    return float(W @ d.second_ff @ W) * d.t * d.sigma_N


# ---------------------------------------------------------------------------
# boundary integrand and the matching identity
# ---------------------------------------------------------------------------


def tangential_gradient(hyp: HypersurfacePointData, f: ScalarField):
    """Boundary gradient of f at a slice point.

    Returns (chart components w.r.t. the slice tangents, ambient vector).
    """
    return _tangential(hyp, scalar_d1(f, hyp.position))


def _tangential(hyp: HypersurfacePointData, df: np.ndarray):
    """``tangential_gradient`` of a potential whose differential at the slice point is ``df``."""
    grad_amb = hyp.ginv @ df
    tang = grad_amb - float(grad_amb @ hyp.g @ hyp.normal) * hyp.normal
    comps = hyp.induced_inv @ (hyp.tangents @ hyp.g @ tang)
    return comps, tang


def lott_boundary_integrand(hyp: HypersurfacePointData, f: ScalarField) -> float:
    """Boundary integrand of the weighted functional's evolution.

    dH/dt - 2 <grad f, grad H> + h(grad f, grad f) - 2 Ric(nu, grad f)
    + nu(R)/2 - H Ric(nu, nu), with grad f the boundary-tangential
    gradient.  dH/dt must come with the hypersurface data; there is no
    hidden time differencing across unrelated snapshots.
    """
    return _lott_integrand(hyp, *tangential_gradient(hyp, f))


def _lott_integrand(hyp: HypersurfacePointData, comps: np.ndarray, tang: np.ndarray) -> float:
    """``lott_boundary_integrand`` given the boundary gradient (comps, tang) of f."""
    ric, dRdy = hyp.curvature.ric, hyp.curvature.dRdy
    return (
        hyp.dt_mean_curvature
        - 2.0 * float(comps @ hyp.dx_mean_curvature)
        + float(comps @ hyp.second_ff @ comps)
        - 2.0 * float(hyp.normal @ ric @ tang)
        + 0.5 * float(hyp.normal @ dRdy)
        - hyp.mean_curvature * float(hyp.normal @ ric @ hyp.normal)
    )


def lott_match_defect(hyp: HypersurfacePointData, f: ScalarField) -> float:
    """limit_second_ff(-grad f) - boundary integrand - H/(2t) on one slice.

    Identically zero: the limit form evaluated on the negative boundary
    gradient reproduces the evolution integrand up to the H/(2t) term.
    """
    return lott_gradient_match_defect(hyp, scalar_d1(f, hyp.position))


def lott_gradient_match_defect(hyp: HypersurfacePointData, df: np.ndarray) -> float:
    """``lott_match_defect`` of a potential given by its differential ``df`` at the slice point."""
    comps, tang = _tangential(hyp, df)
    lhs = limit_second_ff(hyp, -comps)
    rhs = _lott_integrand(hyp, comps, tang)
    return lhs - rhs - hyp.mean_curvature / (2.0 * hyp.t)


# ---------------------------------------------------------------------------
# weighted functionals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightedManifoldData:
    """A compact weighted domain with boundary, discretized for quadrature.

    Weights carry the volume/area densities sqrt(det g); normals are
    outward unit vectors at the boundary samples.  ``scalar_curvature_at``
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
        if np.any(self.interior_weights <= 0) or np.any(self.boundary_weights <= 0):
            raise QuadratureError("quadrature weights must be positive")
        nus = self.boundary_normals
        g = self.metric.at(self.boundary_points)
        if np.max(np.abs(np.einsum("pa,pab,pb->p", nus, g, nus) - 1.0)) > 1e-8:
            raise QuadratureError("boundary normals must be unit vectors")

    def curvatures(self, pts: np.ndarray, b: MetricBundle | None = None) -> np.ndarray:
        """Scalar curvature R at a (P, d) stack of points.

        Without a closed form, R comes from the engine on ``b``, an order-2
        bundle at ``pts`` if the caller has one, else on a new one.
        """
        if self.scalar_curvature_at is not None:
            return self.scalar_curvature_at.at(pts)
        if b is None:
            b = metric_bundle(self.metric, pts, order=2)
            b.raise_error()
        return scalar_curvature_batch(b)


def _weighted_scalar_curvatures(wm: WeightedManifoldData, pts: np.ndarray) -> np.ndarray:
    """R^inf = R + 2 Lap f - |grad f|^2 at a (P, d) stack of interior points.

    One bundle (order 2 only when R comes from the engine) and one
    evaluation of df serve every term.
    """
    b = metric_bundle(wm.metric, pts, order=1 if wm.scalar_curvature_at is not None else 2)
    b.raise_error()
    grad = gradient_batch(b, wm.potential)
    lap = np.einsum("pab,pab->p", b.ginv, hessian_batch(b, wm.potential, grad))
    grad_sq = np.einsum("pa,pab,pb->p", grad, b.g, grad)
    return wm.curvatures(b.points, b) + 2.0 * lap - grad_sq


def _weighted_mean_curvatures(wm: WeightedManifoldData, idx) -> np.ndarray:
    """H^inf = H - nu f at the boundary samples ``idx``."""
    nu_f = np.einsum("pa,pa->p", wm.boundary_normals[idx],
                     scalar_d1(wm.potential, wm.boundary_points[idx]))
    return wm.boundary_mean_curvatures[idx] - nu_f


def weighted_scalar_curvature(wm: WeightedManifoldData, p: np.ndarray) -> float:
    """R^inf = R + 2 Lap f - |grad f|^2 at an interior point.

    The Laplacian is the metric trace of the covariant Hessian.
    """
    return float(_weighted_scalar_curvatures(wm, np.asarray(p, dtype=float)[None])[0])


def weighted_mean_curvature(wm: WeightedManifoldData, idx: int) -> float:
    """H^inf = H - nu f at boundary sample ``idx``."""
    if not (0 <= idx < len(wm.boundary_points)):
        raise QuadratureError(
            f"boundary index {idx} out of range ({len(wm.boundary_points)} samples); "
            "interior points have no weighted mean curvature"
        )
    return float(_weighted_mean_curvatures(wm, [idx])[0])


# Grid nodes per kernel call in the quadratures; bounds the memory of one call.
QUADRATURE_CHUNK = 1024


def _chunks(n: int):
    return (slice(i, min(i + QUADRATURE_CHUNK, n)) for i in range(0, n, QUADRATURE_CHUNK))


def I_infty(wm: WeightedManifoldData) -> float:
    """int R^inf e^-f dV + 2 int H^inf e^-f dA over the supplied grids."""
    terms = []
    for sl in _chunks(len(wm.interior_points)):
        pts = wm.interior_points[sl]
        terms.append(wm.interior_weights[sl] * _weighted_scalar_curvatures(wm, pts)
                     * np.exp(-wm.potential.at(pts)))
    for sl in _chunks(len(wm.boundary_points)):
        terms.append(2.0 * wm.boundary_weights[sl] * _weighted_mean_curvatures(wm, sl)
                     * np.exp(-wm.potential.at(wm.boundary_points[sl])))
    return math.fsum(np.concatenate(terms).tolist())


def I_GHY(wm: WeightedManifoldData) -> float:
    """int R e^-f dV + 2 int H dA (boundary term unweighted)."""
    terms = []
    for sl in _chunks(len(wm.interior_points)):
        pts = wm.interior_points[sl]
        terms.append(wm.interior_weights[sl] * wm.curvatures(pts) * np.exp(-wm.potential.at(pts)))
    terms.append(2.0 * wm.boundary_weights * wm.boundary_mean_curvatures)
    return math.fsum(np.concatenate(terms).tolist())


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

    # r outer, polar middle, azimuth inner; the r = 0 shell has zero density
    r, th, ph = np.meshgrid(rs[rs != 0.0], ths, phs, indexing="ij")
    a, b, cw = np.meshgrid(wr[rs != 0.0], wth, wph, indexing="ij")
    s, c = np.sin(th), np.cos(th)
    pts = np.stack((r * s * np.cos(ph), r * s * np.sin(ph), r * c), axis=-1).reshape(-1, 3)
    wts = (a * b * cw * r**2 * s).reshape(-1)

    th, ph = np.meshgrid(ths, phs, indexing="ij")
    b, cw = np.meshgrid(wth, wph, indexing="ij")
    s, c = np.sin(th), np.cos(th)
    bnus = np.stack((s * np.cos(ph), s * np.sin(ph), c), axis=-1).reshape(-1, 3)
    bwts = (b * cw * s).reshape(-1)

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
