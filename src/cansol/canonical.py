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
N |E_N| stays bounded as N grows.

The numeric kernel is the ground truth for every verified statement.
Reference closed-form Christoffel tables for these metrics circulate with
a few typographical slips; ``canonical_christoffel_closed_form`` therefore
evaluates either the literal printed table (``as_printed=True``) or the
rederived one, and ``CHRISTOFFEL_CORRECTIONS`` records every place the two
differ so that cross-check reports can show, rather than hide, the slips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backgrounds import VARIANT_SIGNS, RicciFlowBackground
from .geometry import (
    ChartDomainError,
    ConnectionCoeffs,
    MetricField,
    ScalarField,
    SymTensor2,
    christoffel,
    christoffel_batch,
    hessian_batch,
    metric_bundle,
    ricci,
    ricci_batch,
    tensor_norm_batch,
)

__all__ = [
    "VARIANTS",
    "T_MIN_FRACTION",
    "CanonicalConfigError",
    "CanonicalMetric",
    "ResidualSample",
    "FormCorrection",
    "CHRISTOFFEL_CORRECTIONS",
    "build_canonical_metric",
    "minimal_admissible_N",
    "canonical_christoffel_closed_form",
    "christoffel_crosscheck",
    "ricci_soliton_residual",
    "ricci_soliton_residuals",
    "canonical_ricci_quadratic",
    "limit_ricci",
]

VARIANTS = tuple(VARIANT_SIGNS)

# default sampling floor, as a fraction of the time horizon
T_MIN_FRACTION = 0.05


class CanonicalConfigError(ValueError):
    """Variant/direction mismatch or inadmissible parameter N."""


def _sign(variant: str) -> int:
    if variant not in VARIANTS:
        raise CanonicalConfigError(f"unknown variant {variant!r}; known: {VARIANTS}")
    return VARIANT_SIGNS[variant]


@dataclass(frozen=True)
class CanonicalMetric:
    """Space-time metric of one canonical variant, ready for the kernel.

    ``field`` is an (m + 1)-dimensional MetricField on z = (t, y) with
    analytic first and second partials; ``potential`` is the matching
    soliton potential as a scalar field on the same chart.
    """

    variant: str
    N: float
    base: RicciFlowBackground
    field: MetricField
    potential: ScalarField
    soliton_constant: float

    @property
    def spacetime_dim(self) -> int:
        return self.base.dim + 1

    @property
    def sign(self) -> int:
        """s = +1 expanding, -1 shrinking, 0 steady."""
        return VARIANT_SIGNS[self.variant]

    def time_scale(self, t: float) -> float:
        """The spatial block is g(t) / time_scale: t (tau when shrinking), or 1 when steady."""
        return t if self.sign else 1.0

    @property
    def t_min(self) -> float:
        """Default sampling floor, T_MIN_FRACTION of the time horizon."""
        return T_MIN_FRACTION * self.base.time_domain[1]

    def spacetime_point(self, p: np.ndarray, t: float) -> np.ndarray:
        return np.concatenate(([float(t)], np.asarray(p, dtype=float)))

    def time_time(self, p: np.ndarray, t: float) -> float:
        return float(self.field.components(self.spacetime_point(p, t))[0, 0])


@dataclass(frozen=True)
class ResidualSample:
    """One point of a residual sweep: the tensor, its norm, and N * norm."""

    point: np.ndarray
    t: float
    N: float
    residual: SymTensor2
    norm: float
    scaled_norm: float


def _time_profiles(bg: RicciFlowBackground, s: int, N: float):
    """Closed-form w, w', w'' of the time-time component and psi, psi', psi''
    of the spatial block psi(t) * sigma(y)."""
    m = bg.dim
    conf = bg.conformal
    R, dR, d2R = conf.R, conf.dR, conf.d2R
    if s == 0:
        return (lambda t: N + R(t)), dR, d2R, conf.phi, conf.dphi, conf.d2phi
    w = lambda t: N / (2 * t**3) + R(t) / t + s * m / (2 * t**2)
    dw = lambda t: -3 * N / (2 * t**4) + dR(t) / t - R(t) / t**2 - s * m / t**3
    d2w = lambda t: 6 * N / t**5 + d2R(t) / t - 2 * dR(t) / t**2 + 2 * R(t) / t**3 + 3 * s * m / t**4
    psi = lambda t: conf.phi(t) / t
    dpsi = lambda t: conf.dphi(t) / t - conf.phi(t) / t**2
    d2psi = lambda t: conf.d2phi(t) / t - 2 * conf.dphi(t) / t**2 + 2 * conf.phi(t) / t**3
    return w, dw, d2w, psi, dpsi, d2psi


def minimal_admissible_N(bg: RicciFlowBackground, variant: str, samples) -> float:
    """Smallest N making the time-time component >= 1 over the samples.

    ``samples`` is an iterable of (p, t) pairs.  The positivity threshold
    is not fixed by the construction itself, so it is computed per run and
    reported.
    """
    s = _sign(variant)
    m = bg.dim
    need = 0.0
    for p, t in samples:
        R = bg.scalar_at(np.asarray(p, dtype=float), t)
        if s == 0:
            need = max(need, 1.0 - R)
        else:
            need = max(need, 2 * t**3 * (1.0 - R / t - s * m / (2 * t**2)))
    return need


def build_canonical_metric(
    bg: RicciFlowBackground,
    variant: str,
    N: float,
    samples=None,
) -> CanonicalMetric:
    """Assemble the canonical space-time metric for one variant.

    The expanding variant requires a forward background, shrinking and
    steady a backward one.  When ``samples`` (pairs (p, t)) are given, N
    is validated against the positivity threshold on that sampling set and
    a ``CanonicalConfigError`` reports the minimal admissible value.
    """
    s = _sign(variant)
    direction = "forward" if s > 0 else "backward"
    if bg.direction != direction:
        raise CanonicalConfigError(
            f"{variant} variant needs a {direction} background, "
            f"got {bg.direction} ({bg.name})"
        )
    if not (N > 0):
        raise CanonicalConfigError(f"N must be positive, got {N}")
    if samples is not None:
        n_min = minimal_admissible_N(bg, variant, samples)
        if N < n_min:
            raise CanonicalConfigError(
                f"N={N} below the positivity threshold on the sampling domain; "
                f"minimal admissible N is {n_min:.6g}"
            )

    m = bg.dim
    dim = m + 1
    sigma = bg.conformal.sigma
    w, dw, d2w, psi, dpsi, d2psi = _time_profiles(bg, s, N)
    lo, hi = bg.time_domain
    # small overhang so FD stencils near the endpoint stay evaluable
    t_max = hi * (1.0 + 1e-3)

    # t indexes the time-time entries; tb scales the per-point spatial blocks
    def comps(z):
        t, y = z[..., 0], z[..., 1:]
        g = np.zeros(z.shape[:-1] + (dim, dim))
        g[..., 0, 0] = w(t)
        g[..., 1:, 1:] = psi(t[..., None, None]) * sigma.components(y)
        return g

    def d1(z):
        t, y = z[..., 0], z[..., 1:]
        tb = t[..., None, None]
        out = np.zeros(z.shape[:-1] + (dim, dim, dim))
        out[..., 0, 0, 0] = dw(t)
        out[..., 0, 1:, 1:] = dpsi(tb) * sigma.components(y)
        out[..., 1:, 1:, 1:] = psi(tb[..., None]) * sigma.d1(y)
        return out

    def d2(z):
        t, y = z[..., 0], z[..., 1:]
        tb = t[..., None, None]
        out = np.zeros(z.shape[:-1] + (dim, dim, dim, dim))
        out[..., 0, 0, 0, 0] = d2w(t)
        out[..., 0, 0, 1:, 1:] = d2psi(tb) * sigma.components(y)
        dsig = dpsi(tb[..., None]) * sigma.d1(y)
        out[..., 0, 1:, 1:, 1:] = dsig
        out[..., 1:, 0, 1:, 1:] = dsig
        out[..., 1:, 1:, 1:, 1:] = psi(tb[..., None, None]) * sigma.d2(y)
        return out

    def in_domain(z):
        inside = (0.0 < z[..., 0]) & (z[..., 0] <= t_max)
        if sigma.in_domain is not None:
            inside &= sigma.in_domain(z[..., 1:])
        return inside

    field = MetricField(dim=dim, components=comps, d1=d1, d2=d2, in_domain=in_domain)

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
        soliton_constant=s / 2,
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


def ricci_soliton_residuals(cm: CanonicalMetric, points, ts) -> list:
    """``ricci_soliton_residual`` at every (p, t) pair, in one kernel call.

    Returns one entry per pair, in order: the ``ResidualSample``, or the
    exception the single-point call raises there (a time below t_min, a
    point outside the chart, a degenerate metric).
    """
    ts = np.asarray(ts, dtype=float)
    pts = np.asarray(points, dtype=float).reshape(len(ts), -1)
    out = [
        ChartDomainError(f"t={t} below sampling floor t_min={cm.t_min}") if t < cm.t_min else None
        for t in ts.tolist()
    ]
    sampled = [i for i, exc in enumerate(out) if exc is None]
    b = metric_bundle(cm.field, np.column_stack((ts, pts))[sampled], order=2)
    E = ricci_batch(b) + hessian_batch(b, cm.potential) + cm.soliton_constant * b.g
    E = 0.5 * (E + np.swapaxes(E, 1, 2))
    norms = tensor_norm_batch(b, E).tolist()
    for i, exc in zip(sampled, b.errors):
        out[i] = exc
    for j, i in enumerate(sampled[k] for k in b.index):
        out[i] = ResidualSample(
            point=pts[i],
            t=float(ts[i]),
            N=cm.N,
            residual=SymTensor2(E[j]),
            norm=norms[j],
            scaled_norm=cm.N * norms[j],
        )
    return out


def ricci_soliton_residual(cm: CanonicalMetric, p: np.ndarray, t: float) -> ResidualSample:
    """Engine evaluation of E_N = Ric + Hess(f) + c_var * metric at (p, t).

    Everything is computed by the numeric kernel on the space-time metric;
    the closed-form tables play no role here.  The returned sample carries
    |E_N| in the metric's own norm and the scaled value N |E_N|.  This is
    the single-pair case of ``ricci_soliton_residuals``.
    """
    [sample] = ricci_soliton_residuals(cm, [np.asarray(p, dtype=float)], [float(t)])
    if isinstance(sample, Exception):
        raise sample
    return sample


def canonical_ricci_quadratic(cm: CanonicalMetric, X: np.ndarray, p: np.ndarray, t: float) -> float:
    """Ric of the canonical metric on the lifted vector X + d/dt.

    X is a spatial (contravariant) vector on the background; the lift
    prepends a unit time component.
    """
    z = cm.field.check_point(cm.spacetime_point(p, t))
    Xbar = np.concatenate(([1.0], np.asarray(X, dtype=float)))
    ric = ricci(cm.field, z).entries
    return float(Xbar @ ric @ Xbar)


def limit_ricci(bg: RicciFlowBackground, X: np.ndarray, p: np.ndarray, t: float) -> float:
    """Large-N limit of the canonical expander's Ricci on X + d/dt.

    Ric(X, X) + g(X, grad R) + (dR/dt + R/t) / 2, assembled from background
    data only.  Requires a forward background and t > 0.
    """
    if bg.direction != "forward":
        raise CanonicalConfigError("limit_ricci needs a forward background")
    t = bg.check_time(t)
    p = np.asarray(p, dtype=float)
    X = np.asarray(X, dtype=float)
    ric = bg.ricci_at(p, t)
    quad = float(X @ ric @ X)
    transport = float(X @ bg.dy_scalar_at(p, t))
    return quad + transport + 0.5 * (bg.dt_scalar_at(p, t) + bg.scalar_at(p, t) / t)


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


def canonical_christoffel_closed_form(
    cm: CanonicalMetric,
    p: np.ndarray,
    t: float,
    as_printed: bool = False,
) -> ConnectionCoeffs:
    """Closed-form connection coefficients of the canonical metric.

    ``as_printed=False`` evaluates the rederived table (what the
    Levi-Civita formula actually yields); ``as_printed=True`` evaluates
    the reference table literally, typographical slips included, so the
    cross-check suite can measure them.  Index 0 is time.
    """
    bg = cm.base
    t = float(t)
    z = cm.field.check_point(cm.spacetime_point(p, t))
    p = z[1:]
    m = bg.dim
    dim = m + 1
    N = cm.N

    snap = bg.metric_at(t)
    g = snap.at(p)
    ginv = np.linalg.inv(g)
    ric = bg.ricci_at(p, t)
    ric_up = ginv @ ric                       # Ric^a_b
    R = bg.scalar_at(p, t)
    dRdt = bg.dt_scalar_at(p, t)
    dRdy = bg.dy_scalar_at(p, t)
    w = cm.time_time(p, t)

    gamma = np.zeros((dim, dim, dim))
    gamma_bg = christoffel(snap, p).gamma
    gamma[1:, 1:, 1:] = gamma_bg
    # The printed G^a_00 entry pairs the inverse metric's role with lowered
    # indices; only the inverse-metric reading typechecks, so both evaluation
    # modes use -1/2 g^{ab} d_b R and the slip is notational, not numeric.
    gamma[1:, 0, 0] = -0.5 * ginv @ dRdy

    s = cm.sign
    if s == 0:
        mixed_up = ric_up
        gamma[0, 1:, 1:] = -ric / (N + R)
        time_mixed = 0.5 * dRdy if as_printed else 0.5 * dRdy / (N + R)
        gamma[0, 0, 0] = 0.5 * dRdt if as_printed else 0.5 * dRdt / (N + R)
    else:
        mixed_up = -s * ric_up - np.eye(m) / (2 * t)
        if as_printed and s < 0:
            gamma[0, 1:, 1:] = -(g / (2 * t**2) - ric) / (t * w)
        else:
            gamma[0, 1:, 1:] = (s * ric / t + g / (2 * t**2)) / w
        time_mixed = dRdy / (2 * t * w)
        # both printed G^0_00 entries read R/t for 2R/t and +m for s*m
        r_coeff, m_sign = (1, 1) if as_printed else (2, s)
        gamma[0, 0, 0] = -3 / (2 * t) + (r_coeff * R / t + dRdt + m_sign * m / (2 * t**2)) / (2 * t * w)

    # the mixed symbols are symmetric in their lower indices
    gamma[1:, 1:, 0] = mixed_up
    gamma[1:, 0, 1:] = mixed_up
    gamma[0, 1:, 0] = time_mixed
    gamma[0, 0, 1:] = time_mixed
    return ConnectionCoeffs(gamma)


_SYMBOL_CLASSES = {
    "G^a_bc": (slice(1, None), slice(1, None), slice(1, None)),
    "G^a_b0": (slice(1, None), slice(1, None), 0),
    "G^a_00": (slice(1, None), 0, 0),
    "G^0_bc": (0, slice(1, None), slice(1, None)),
    "G^0_b0": (0, slice(1, None), 0),
    "G^0_00": (0, 0, 0),
}


def christoffel_crosscheck(cm: CanonicalMetric, samples, as_printed: bool = False) -> dict:
    """Engine-vs-closed-form comparison over (p, t) samples.

    Returns a per-symbol-class table of relative errors, each class scaled
    by the largest engine entry it contains; classes that vanish in both
    evaluations report their absolute mismatch.
    """
    diff = {k: 0.0 for k in _SYMBOL_CLASSES}
    scale = {k: 0.0 for k in _SYMBOL_CLASSES}
    samples = list(samples)
    b = metric_bundle(cm.field, [cm.spacetime_point(p, t) for p, t in samples], order=1)
    b.raise_error()
    for (p, t), engine in zip(samples, christoffel_batch(b)):
        closed = canonical_christoffel_closed_form(cm, p, t, as_printed=as_printed).gamma
        for name, idx in _SYMBOL_CLASSES.items():
            e = np.atleast_1d(engine[idx])
            c = np.atleast_1d(closed[idx])
            diff[name] = max(diff[name], float(np.max(np.abs(e - c))))
            scale[name] = max(scale[name], float(np.max(np.abs(e))))
    return {
        name: (diff[name] / scale[name] if scale[name] > 1e-14 else diff[name])
        for name in _SYMBOL_CLASSES
    }
