"""Canonical expanding / shrinking / steady space-time metrics.

Given a flow background g(t) on O of dimension m = n + 1, a large
parameter N produces a metric on the space-time O x (0, T] (chart index 0
is time) that is an approximate gradient soliton.  Each variant is a sign
s (``backgrounds.VARIANT_SIGNS``): +1 expanding on a forward flow, -1
shrinking and 0 steady on a backward one, whose time t is then tau:

    s = +-1:  time-time N/(2t^3) + R/t + s m/(2t^2), spatial block g/t,
              potential -s N/(2t)
    s = 0:    time-time N + R, spatial block g, potential -N t

The soliton defect E_N = Ric + Hess(f) + (s/2) * metric then satisfies:
N |E_N| stays bounded as N grows.  ``ricci_soliton_residuals`` evaluates
it at a stack of (p, t) pairs and returns a ``ResidualStack``: the
per-pair errors, the index of the pairs that evaluate, and their E_N and
norms.  Only its one-pair case, ``ricci_soliton_residual``, builds a
``ResidualSample``.  The positivity threshold on N does not depend on N,
so ``check_admissible`` checks a sweep's smallest N against it once.

The numeric kernel is the ground truth for every verified statement.
Reference closed-form Christoffel tables for these metrics circulate with
a few typographical slips; ``canonical_christoffel_closed_forms`` therefore
evaluates both the literal printed table and the rederived one, and
``CHRISTOFFEL_CORRECTIONS`` records every place the two differ so that
cross-check reports can show, rather than hide, the slips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import jets
from .backgrounds import VARIANT_SIGNS, RicciFlowBackground
from .geometry import (
    MetricField,
    ScalarField,
    _drop,
    _metric_bundle,
    _pairs,
    _point_errors,
    _raise_first,
    _time_errors,
    christoffel,  # noqa: F401  (canonical.christoffel, a binding the benchmark tracer patches)
    christoffel_batch,
    hessian_batch,
    metric_bundle,
    ricci_batch,
    tensor_norm_batch,
)

__all__ = [
    "VARIANTS",
    "T_MIN_FRACTION",
    "CanonicalConfigError",
    "CanonicalMetric",
    "ResidualSample",
    "ResidualStack",
    "FormCorrection",
    "CHRISTOFFEL_CORRECTIONS",
    "build_canonical_metric",
    "minimal_admissible_N",
    "check_admissible",
    "canonical_christoffel_closed_forms",
    "christoffel_crosscheck",
    "ricci_soliton_residual",
    "ricci_soliton_residuals",
    "canonical_ricci_quadratics",
    "limit_riccis",
]

VARIANTS = tuple(VARIANT_SIGNS)

# default sampling floor, as a fraction of the time horizon
T_MIN_FRACTION = 0.05


class CanonicalConfigError(ValueError):
    """Unknown variant, variant/direction mismatch, inadmissible N or a foreign background.

    A configuration error only: a point that cannot be evaluated is a
    ``ChartDomainError`` or a ``DegenerateMetricError``.
    """


def _sign(variant: str) -> int:
    if variant not in VARIANTS:
        raise CanonicalConfigError(f"unknown variant {variant!r}; known: {VARIANTS}")
    return VARIANT_SIGNS[variant]


@dataclass(frozen=True)
class CanonicalMetric:
    """Space-time metric of one canonical variant, ready for the kernel.

    ``field`` is an (m + 1)-dimensional MetricField on z = (t, y) whose
    jet is the separable product of the time profiles' jets in t and the
    jet of sigma in y (value-only when sigma's is); ``potential`` is the
    matching soliton potential as a scalar field on the same chart.
    """

    variant: str
    N: float
    base: RicciFlowBackground
    field: MetricField
    potential: ScalarField

    @property
    def sign(self) -> int:
        """s = +1 expanding, -1 shrinking, 0 steady."""
        return VARIANT_SIGNS[self.variant]

    @property
    def soliton_constant(self) -> float:
        """The constant s/2 of the soliton defect E_N = Ric + Hess(f) + (s/2) * metric."""
        return self.sign / 2

    def time_scale(self, t: float) -> float:
        """The spatial block is g(t) / time_scale: t (tau when shrinking), or 1 when steady."""
        return t if self.sign else 1.0

    @property
    def t_min(self) -> float:
        """Default sampling floor, T_MIN_FRACTION of the time horizon."""
        return T_MIN_FRACTION * self.base.time_domain[1]

    def spacetime_point(self, p: np.ndarray, t: float) -> np.ndarray:
        return np.concatenate(([float(t)], np.asarray(p, dtype=float)))


@dataclass(frozen=True)
class ResidualSample:
    """One point of a defect sweep: the defect, its norm, and N * norm.

    ``value`` is the soliton defect E_N, a (d, d) array, or on a track the
    float H^S -+ nu^S f; ``point`` is the chart point, or the track's x.
    """

    point: np.ndarray
    t: float
    N: float
    value: np.ndarray | float
    norm: float
    scaled_norm: float


class ResidualStack(NamedTuple):
    """A defect sweep in one metric at a stack of pairs, stacked over the pairs in ``index``.

    ``errors`` has one entry per pair: None, or the per-point error the
    single-pair call raises there.  Row j of ``values`` (E_N, or on a track
    H^S -+ nu^S f) and of ``norms`` (its norm, an array) lies over pair
    ``index[j]``; N * norm is the scaled norm a ``ResidualSample`` carries.
    """

    errors: list
    index: np.ndarray
    values: np.ndarray
    norms: np.ndarray


def _profiles(bg: RicciFlowBackground, s: int, N: float):
    """t -> (w, psi): the time-time component w(t) and the factor psi(t) of
    the spatial block psi(t) * sigma(y), for t a float, an array or a jet."""
    m = bg.dim
    conf = bg.conformal

    def profiles(t):
        phi = conf.phi(t)
        R = conf.R(t, phi)
        return (N + R, phi) if s == 0 else (N / (2 * t**3) + R / t + s * m / (2 * t**2), phi / t)

    return profiles


def minimal_admissible_N(bg: RicciFlowBackground, variant: str, ts) -> float:
    """Smallest N making the time-time component >= 1 at the sample times ``ts``.

    w is its N = 0 profile plus N or N / (2 t^3), so the point of a sample
    plays no part.  The first time outside the background's domain raises.
    The positivity threshold is not fixed by the construction itself, so
    it is computed per run and reported.
    """
    s = _sign(variant)
    w0 = _profiles(bg, s, 0.0)
    _raise_first(_time_errors(ts, bg.time_domain))
    return max([0.0] + [(1.0 - w0(t)[0]) * (2 * t**3 if s else 1.0) for t in map(float, ts)])


def check_admissible(cms, ts) -> float:
    """``minimal_admissible_N`` at the sample times ``ts``, for a sweep of canonical metrics.

    The metrics share one background and variant; the threshold does not
    depend on N, so one scan serves the sweep, and a ``CanonicalConfigError``
    names the smallest N of ``cms`` if it lies below the threshold.
    """
    n_min = minimal_admissible_N(cms[0].base, cms[0].variant, ts)
    N = min(cm.N for cm in cms)
    if N < n_min:
        raise CanonicalConfigError(
            f"N={N} below the positivity threshold on the sampling domain; "
            f"minimal admissible N is {n_min:.6g}"
        )
    return n_min


def build_canonical_metric(bg: RicciFlowBackground, variant: str, N: float) -> CanonicalMetric:
    """Assemble the canonical space-time metric for one variant.

    The expanding variant requires a forward background, shrinking and
    steady a backward one.  Whether N clears the positivity threshold on a
    sampling set is ``check_admissible``'s question.
    """
    s = _sign(variant)
    direction = "forward" if s > 0 else "backward"
    if bg.direction != direction:
        raise CanonicalConfigError(
            f"{variant} variant needs a {direction} background, "
            f"got {bg.direction} ({bg.name})"
        )
    if not (0 < N < math.inf):
        raise CanonicalConfigError(f"N must be a finite number > 0, got {N}")

    m = bg.dim
    dim = m + 1
    sigma = bg.conformal.sigma
    profiles = _profiles(bg, s, N)
    lo, hi = bg.time_domain
    # small overhang so FD stencils near the endpoint stay evaluable
    t_max = hi * (1.0 + 1e-3)

    def jet(z, order):
        # d/dt acts on w and psi only, d/dy on sigma only; a value-only sigma
        # makes the metric value-only
        sig = sigma.jet(z[..., 1:], order)
        order = len(sig) - 1
        if order:
            t = jets.Jet.variable(z[:, 0], order)
            w, psi = (jets.lift(a, t) for a in profiles(t))
            w0, psi0 = w.v, psi.v
        else:
            w0, psi0 = profiles(z[..., 0])
        # psi and its t-derivatives, broadcast against sigma's blocks
        p0 = np.asarray(psi0)[..., None, None]
        g = np.zeros(z.shape[:-1] + (dim, dim))
        g[..., 0, 0] = w0
        g[..., 1:, 1:] = p0 * sig[0]
        if not order:
            return (g,)
        out = [g] + [np.zeros((len(z),) + (dim,) * (2 + o)) for o in range(1, order + 1)]
        p1 = psi.d1[:, None, None]
        out[1][:, 0, 0, 0] = w.d1
        out[1][:, 0, 1:, 1:] = p1 * sig[0]
        out[1][:, 1:, 1:, 1:] = p0[:, None] * sig[1]
        if order > 1:
            ddg = out[2]
            ddg[:, 0, 0, 0, 0] = w.d2
            ddg[:, 0, 0, 1:, 1:] = psi.d2[:, None, None] * sig[0]
            ddg[:, 0, 1:, 1:, 1:] = ddg[:, 1:, 0, 1:, 1:] = p1[:, None] * sig[1]
            ddg[:, 1:, 1:, 1:, 1:] = p0[:, None, None] * sig[2]
        return tuple(out)

    def in_domain(z):
        inside = (0.0 < z[..., 0]) & (z[..., 0] <= t_max)
        if sigma.in_domain is not None:
            inside &= sigma.in_domain(z[..., 1:])
        return inside

    field = MetricField(dim=dim, jet=jet, in_domain=in_domain)

    if s == 0:
        potential = ScalarField(
            value=lambda z: -N * z[..., 0],
            d1=lambda z: _time_covector(dim, np.full(z.shape[:-1], -N)),
            d2=lambda z: np.zeros(z.shape[:-1] + (dim, dim)),
        )
    else:
        potential = ScalarField(
            value=lambda z: -s * N / (2.0 * z[..., 0]),
            d1=lambda z: _time_covector(dim, s * N / (2.0 * z[..., 0] ** 2)),
            d2=lambda z: _time_matrix(dim, -s * N / z[..., 0] ** 3),
        )

    return CanonicalMetric(
        variant=variant,
        N=float(N),
        base=bg,
        field=field,
        potential=potential,
    )


def _time_covector(dim, value):
    v = np.zeros(np.shape(value) + (dim,))
    v[..., 0] = value
    return v


def _time_matrix(dim, value):
    a = np.zeros(np.shape(value) + (dim, dim))
    a[..., 0, 0] = value
    return a


# ---------------------------------------------------------------------------
# soliton residual (engine path)
# ---------------------------------------------------------------------------


def _soliton_bundle(cm: CanonicalMetric, points, ts, *vectors) -> tuple:
    """The order-2 bundle of ``cm`` at (p, t) pairs, and one entry per pair: None or its error.

    The door of the soliton kernel: the pairing, the time windows with the
    sampling floor, and the chart's spatial domain are each checked once,
    here, and the bundle's core trusts the space-time points z = (t, p)
    that pass.  A pair fails as the single-point ``ricci_soliton_residual``
    does there; the returned index maps the bundle's rows to the pairs.
    ``vectors``, stacks of one row per pair, come back after the bundle as
    ``_pairs`` stacks them.
    """
    pts, ts, *vectors = _pairs(points, ts, cm.base.dim, *vectors)
    errors = _time_errors(ts.tolist(), cm.base.time_domain, floor=cm.t_min)
    index, z = _drop(errors, np.arange(len(ts)), errors, np.concatenate((ts[:, None], pts), axis=1))
    # the times lie inside the background's domain, hence inside the chart's: p is left
    sigma = cm.base.conformal.sigma
    chart = None if sigma.in_domain is None else lambda z: sigma.in_domain(z[:, 1:])
    index, z = _drop(errors, index, _point_errors(z, chart), z)
    b = _metric_bundle(cm.field, z, 2)
    index, = _drop(errors, index, b.errors)
    return errors, index, b, *vectors


def ricci_soliton_residuals(cm: CanonicalMetric, points, ts) -> ResidualStack:
    """``ricci_soliton_residual`` at every (p, t) pair, in one kernel call.

    Returns the ``ResidualStack`` of E_N and |E_N| at the pairs that
    evaluate; ``errors`` holds the ``ChartDomainError`` (outside the
    background's time domain, below t_min, outside the chart) or
    ``DegenerateMetricError`` the single-point call raises at the others.
    """
    errors, index, b = _soliton_bundle(cm, points, ts)
    E = ricci_batch(b) + hessian_batch(b, cm.potential) + cm.soliton_constant * b.g
    return ResidualStack(errors, index, E, tensor_norm_batch(b, E))


def ricci_soliton_residual(cm: CanonicalMetric, p: np.ndarray, t: float) -> ResidualSample:
    """Engine evaluation of E_N = Ric + Hess(f) + c_var * metric at (p, t).

    Everything is computed by the numeric kernel on the space-time metric;
    the closed-form tables play no role here.  The returned sample carries
    |E_N| in the metric's own norm and the scaled value N |E_N|.  This is
    the single-pair case of ``ricci_soliton_residuals``.
    """
    p, t = np.asarray(p, dtype=float), float(t)
    errors, _, values, norms = ricci_soliton_residuals(cm, p[None], [t])
    if errors[0] is not None:
        raise errors[0]
    norm = float(norms[0])
    return ResidualSample(point=p, t=t, N=cm.N, value=values[0], norm=norm, scaled_norm=cm.N * norm)


def canonical_ricci_quadratics(cm: CanonicalMetric, Xs, points, ts) -> list:
    """Ric of the canonical metric on X + d/dt, X a spatial vector, at (p, t); one kernel call.

    One entry per (X, p, t) triple, in order: the float, or the error that
    ``ricci_soliton_residuals`` records at (p, t).
    """
    out, index, b, X = _soliton_bundle(cm, points, ts, Xs)
    Xbar = np.column_stack((np.ones(len(out)), X))[index]
    quads = (Xbar[:, None] @ ricci_batch(b) @ Xbar[..., None]).ravel().tolist()
    for i, q in zip(index.tolist(), quads):
        out[i] = q
    return out


def limit_riccis(bg: RicciFlowBackground, Xs, points, ts) -> list:
    """Large-N limit of the canonical expander's Ricci on X + d/dt at every (X, p, t) triple.

    Ric(X, X) + g(X, grad R) + (dR/dt + R/t) / 2, assembled from background
    data only, from one background curvature call; it requires a forward
    background.  One entry per triple, in order: the float, or the
    ``ChartDomainError`` of a time outside the background's domain.  An
    entry does not depend on the rest of the stack.
    """
    if bg.direction != "forward":
        raise CanonicalConfigError("limit_riccis needs a forward background")
    p, t, X = _pairs(points, ts, bg.dim, Xs)
    out = _time_errors(t.tolist(), bg.time_domain)
    index, X, p, t = _drop(out, np.arange(len(t)), out, X, p, t)
    c = bg._curvature(p, t.tolist())
    quad = (X[:, None] @ c.ric @ X[..., None]).ravel()
    transport = (X[:, None] @ c.dRdy[..., None]).ravel()
    values = quad + transport + 0.5 * (c.dRdt + c.R / t)
    for i, v in zip(index.tolist(), values.tolist()):
        out[i] = v
    return out


# ---------------------------------------------------------------------------
# closed-form Christoffel tables and their corrections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FormCorrection:
    """A place where the printed reference table and the derivation differ."""

    variant: str
    symbol: str
    printed: str
    derived: str
    visible_on_catalog: bool


CHRISTOFFEL_CORRECTIONS = (
    FormCorrection(
        "expanding", "G^0_00",
        "-3/(2t) + (1/(2tw)) (R/t + dR/dt + m/(2t^2))",
        "-3/(2t) + (1/(2tw)) (2R/t + dR/dt + m/(2t^2))",
        visible_on_catalog=True,       # sphere background has R != 0
    ),
    FormCorrection(
        "shrinking", "G^0_bc",
        "(1/w) ( -(g_bc/(2 tau^2) - Ric_bc) / tau )",
        "(1/w) (g_bc/(2 tau^2) - Ric_bc / tau)",
        visible_on_catalog=True,
    ),
    FormCorrection(
        "shrinking", "G^0_00",
        "-3/(2 tau) + (1/(2 tau w)) (R/tau + dR/dtau + m/(2 tau^2))",
        "-3/(2 tau) + (1/(2 tau w)) (2R/tau + dR/dtau - m/(2 tau^2))",
        visible_on_catalog=True,
    ),
    FormCorrection(
        "steady", "G^0_b0",
        "(1/2) d_b R",
        "(1/2) d_b R / (N + R)",
        visible_on_catalog=False,      # catalog scalar curvature is spatially constant
    ),
    FormCorrection(
        "steady", "G^0_00",
        "(1/2) dR/dtau",
        "(1/2) (dR/dtau) / (N + R)",
        visible_on_catalog=True,
    ),
)


def _sweep_base(cms) -> RicciFlowBackground:
    """The one background every metric of a sweep is built on."""
    bg = cms[0].base
    for cm in cms[1:]:
        if cm.base is not bg:
            raise CanonicalConfigError(
                f"canonical metrics of one sweep built on different backgrounds "
                f"({bg.name}, dim {bg.dim} and {cm.base.name}, dim {cm.base.dim}); build them on one"
            )
    return bg


def _spacetime_stack(bg: RicciFlowBackground, points, ts) -> np.ndarray:
    """The (P, m + 1) stack of space-time points z = (t, p) of a nonempty sample list."""
    p, t = _pairs(points, ts, bg.dim)
    if not len(t):
        raise CanonicalConfigError("no (p, t) samples: the closed-form tables need at least one")
    return np.column_stack((t, p))


def canonical_christoffel_closed_forms(cms, points, ts) -> list:
    """Closed-form Christoffel tables [p, a, b, c] = Gamma^a_{bc} of each canonical metric, index 0 time.

    Returns one ``(derived, printed)`` pair of (P, m + 1, m + 1, m + 1)
    stacks per metric of ``cms``, in order: the rederived table (what the
    Levi-Civita formula yields) and the reference table literally, slips
    included, so the cross-check suite can measure them.  The background
    half of the tables does not depend on the metric: the point and time
    checks, one background ``bundle`` and ``curvature``, Ric^a_b, the
    spatial symbols and the G^a_00 column serve every metric, which adds
    only its time-time profile and the entries that carry N or its sign.
    Every metric must be built on one background; an empty ``cms`` gives
    [].  The first failing pair raises its error: a point outside the
    chart, else a time outside the domain.
    """
    cms = list(cms)
    if not cms:
        return []
    bg = _sweep_base(cms)
    return _closed_forms(cms, _spacetime_stack(bg, points, ts))


def _closed_forms(cms, z: np.ndarray) -> list:
    """``canonical_christoffel_closed_forms`` at a (P, m + 1) stack z = (t, p) of metrics on one background."""
    bg = cms[0].base
    m = bg.dim
    # the time column of z: a strided view whatever the layout of ts, so
    # every stack takes the same numpy loop and a row's bits do not vary
    t = z[:, 0]
    times = _time_errors(t.tolist(), bg.time_domain)
    _raise_first([e or f for e, f in zip(_point_errors(z, cms[0].field.in_domain), times)])

    # the rows are checked: the background's cores take them as they are
    pts, ts = z[:, 1:], t.tolist()
    b = bg._bundle(pts, ts, 1)
    b.raise_error()
    ric, R, dRdt, dRdy = bg._curvature(pts, ts)
    ric_up = b.ginv @ ric                     # Ric^a_b
    tb, Rb = t[:, None, None], R[:, None, None]         # against (P, m, m) blocks
    g_half = b.g / (2 * tb**2)                # g_bc / (2 t^2)
    # the entries that depend on the background alone
    shared = np.zeros((len(t),) + (m + 1,) * 3)
    shared[:, 1:, 1:, 1:] = christoffel_batch(b)
    # The printed G^a_00 entry pairs the inverse metric's role with lowered
    # indices; only the inverse-metric reading typechecks, so both tables
    # use -1/2 g^{ab} d_b R and the slip is notational, not numeric.
    shared[:, 1:, 0, 0] = -0.5 * np.einsum("pab,pb->pa", b.ginv, dRdy)

    out = []
    for cm in cms:
        N, s = cm.N, cm.sign
        w = np.broadcast_to(_profiles(bg, s, N)(t)[0], t.shape)
        wb = w[:, None, None]
        derived = shared.copy()
        if s == 0:
            mixed_up = ric_up
            derived[:, 0, 1:, 1:] = -ric / (N + Rb)
            time_mixed = 0.5 * dRdy / (N + R)[:, None]
            derived[:, 0, 0, 0] = 0.5 * dRdt / (N + R)
        else:
            mixed_up = -s * ric_up - np.eye(m) / (2 * tb)
            derived[:, 0, 1:, 1:] = (s * ric / tb + g_half) / wb
            time_mixed = dRdy / (2 * t * w)[:, None]
            derived[:, 0, 0, 0] = -3 / (2 * t) + (2 * R / t + dRdt + s * m / (2 * t**2)) / (2 * t * w)
        # the mixed symbols are symmetric in their lower indices
        derived[:, 1:, 1:, 0] = derived[:, 1:, 0, 1:] = mixed_up
        derived[:, 0, 1:, 0] = derived[:, 0, 0, 1:] = time_mixed

        # the printed table: the derived one with the registered slips
        printed = derived.copy()
        if s == 0:
            printed[:, 0, 1:, 0] = printed[:, 0, 0, 1:] = 0.5 * dRdy
            printed[:, 0, 0, 0] = 0.5 * dRdt
        else:
            if s < 0:
                printed[:, 0, 1:, 1:] = -(g_half - ric) / (tb * wb)
            # both printed G^0_00 entries read R/t for 2R/t and +m for s*m
            printed[:, 0, 0, 0] = -3 / (2 * t) + (R / t + dRdt + m / (2 * t**2)) / (2 * t * w)
        out.append((derived, printed))
    return out


_SYMBOL_CLASSES = {
    "G^a_bc": np.s_[:, 1:, 1:, 1:],
    "G^a_b0": np.s_[:, 1:, 1:, 0],
    "G^a_00": np.s_[:, 1:, 0, 0],
    "G^0_bc": np.s_[:, 0, 1:, 1:],
    "G^0_b0": np.s_[:, 0, 1:, 0],
    "G^0_00": np.s_[:, 0, 0, 0],
}


def christoffel_crosscheck(cms, samples) -> list:
    """Engine-vs-closed-form comparison over (p, t) samples, for each canonical metric of ``cms``.

    Returns one pair of per-symbol-class tables of relative errors per
    metric, in order: (derived, printed), against the two closed-form
    tables, from one engine evaluation per metric.  The samples are
    stacked once, and one background evaluation serves the closed forms of
    every metric (``canonical_christoffel_closed_forms``).  Each class is
    scaled by the largest engine entry it contains over all samples;
    classes that vanish in both evaluations report their absolute
    mismatch.  Every metric must be built on one background; an empty
    ``cms`` gives [].
    """
    cms = list(cms)
    if not cms:
        return []
    samples = list(samples)
    z = _spacetime_stack(_sweep_base(cms), [p for p, _ in samples], [t for _, t in samples])
    engines = []
    for cm in cms:
        b = metric_bundle(cm.field, z, order=1)
        b.raise_error()
        engines.append(christoffel_batch(b))
    out = []
    for engine, forms in zip(engines, _closed_forms(cms, z)):
        scales = {name: float(np.max(np.abs(engine[idx]))) for name, idx in _SYMBOL_CLASSES.items()}
        tables = ({}, {})
        for table, gamma in zip(tables, forms):
            err = np.abs(engine - gamma)
            for name, idx in _SYMBOL_CLASSES.items():
                diff, scale = float(np.max(err[idx])), scales[name]
                table[name] = diff / scale if scale > 1e-14 else diff
        out.append(tables)
    return out
