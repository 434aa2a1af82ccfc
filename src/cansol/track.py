"""Space-time track of a hypersurface flow inside a canonical metric.

The track of F_t is the hypersurface Sigma = {(t, F_t(x))} of the
space-time O x (0, T], parametrized by u = (t, x) with index 0 = time.
Its tangent basis is {d/dt + dF/dt, d_1 F, ..., d_n F}; for an exact flow
dF/dt = -H nu, so the time leg is the familiar -H nu + d/dt.

The extrinsic geometry of Sigma (normal, induced metric, second
fundamental form h^S, mean curvature H^S) is computed by the numeric
kernel from the canonical metric's connection, with the same
``extrinsic_geometry_batch`` routine as the slices M_t.  The sign convention
matches the hypersurface one: h^S(U, V) = <D_U nu^S, V>, which makes the
leading block of h^S equal h_ij / (t sigma_N) with the positive-sphere h.

The theorems under test say Sigma is an approximate soliton: the defect

    expanding:  E~_N = H^S - nu^S f        (f = -N/(2t))
    shrinking:  E~_N = H^S + nu^S f        (f = +N/(2 tau))
    steady:     E~_N = H^S + nu^S f        (f = -N tau)

stays O(1/N), i.e. N |E~_N| is bounded.  ``mcf_canonical_residuals``
evaluates the defect on a stack of (x, t) pairs in one pass;
``mcf_canonical_residual`` and ``track_point_data`` are its single-pair
case, and a pair's result does not depend on its stack.

As with the Christoffel tables, the reference closed forms for h^S
circulate with slips in their O(1/N) correction terms;
``closed_form_second_ff`` evaluates either the literal or the rederived
version and ``SECOND_FF_CORRECTIONS`` records the differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .backgrounds import (
    HypersurfacePointData,
    MCFSolution,
    SliceStack,
    extrinsic_geometry_batch,
    hypersurface_point_data,
    slice_stack,
)
from .canonical import CanonicalConfigError, CanonicalMetric, FormCorrection
from .geometry import (
    ChartDomainError,
    SymTensor2,
    _kept,
    _point_errors,
    _raise_first,
    christoffel_batch,
    metric_bundle,
    scalar_d1,
)

__all__ = [
    "SpaceTimeTrack",
    "TrackPointData",
    "TrackResidualSample",
    "SECOND_FF_CORRECTIONS",
    "build_track",
    "track_point_data",
    "closed_form_second_ff",
    "closed_form_normal_potential",
    "mcf_canonical_residual",
    "mcf_canonical_residuals",
    "limit_inverse_metric",
]


@dataclass(frozen=True)
class SpaceTimeTrack:
    """A hypersurface flow paired with the canonical metric it lives in."""

    mcf: MCFSolution
    cm: CanonicalMetric

    @property
    def n(self) -> int:
        return self.mcf.hypersurface_dim

    def check_time(self, t: float) -> float:
        t = self.mcf.check_time(t)
        if t < self.cm.t_min:
            raise CanonicalConfigError(
                f"t={t} below the sampling floor t_min={self.cm.t_min}"
            )
        return t


def build_track(mcf: MCFSolution, cm: CanonicalMetric) -> SpaceTimeTrack:
    """Pair a flow with a canonical metric built on the flow's own background."""
    a, b = mcf.ambient, cm.base
    if a is not b:
        raise CanonicalConfigError(
            f"canonical metric built on a background ({b.name}, dim {b.dim}) other than "
            f"the flow's ambient ({a.name}, dim {a.dim}); build it on mcf.ambient"
        )
    return SpaceTimeTrack(mcf, cm)


@dataclass(frozen=True)
class TrackPointData:
    """Pointwise extrinsic geometry of the track, plus the slice data."""

    x: np.ndarray
    t: float
    z: np.ndarray                # ambient space-time point (t, F_t(x))
    basis: np.ndarray            # (n+1, n+2) tangent vectors, row 0 = time leg
    induced: np.ndarray          # (n+1, n+1)
    induced_inv: np.ndarray
    normal: np.ndarray           # (n+2,) unit space-time normal nu^S
    sigma_N: float
    second_ff: np.ndarray        # (n+1, n+1), chart index 0 = time
    mean_curvature: float        # H^S
    hyp: HypersurfacePointData   # geometry of the slice M_t


@dataclass(frozen=True)
class TrackResidualSample:
    """One point of a soliton-defect sweep on the track."""

    x: np.ndarray
    t: float
    N: float
    value: float                 # H^S -+ nu^S f, sign per variant
    norm: float
    scaled_norm: float


def _sigma_N(scale: float, H: float, w: float) -> float:
    """Normalization of the track normal at time scale ``scale`` (t, or 1 when steady)."""
    return math.sqrt(1.0 / scale + H**2 / (scale**2 * w))


class _TrackStack(NamedTuple):
    """Track geometry at a stack of (x, t) pairs, stacked over the pairs in ``index``.

    ``xs`` and ``ts`` are the pairs as floats, and ``errors`` has one
    entry per pair: None, or the exception ``track_point_data`` raises
    there.  Row j lies over row ``rows[j]`` of ``slices``; ``z`` and ``g``
    are the space-time points and metrics, and ``ext`` the
    ``extrinsic_geometry_batch`` results of the track.
    """

    xs: np.ndarray
    ts: list
    slices: SliceStack
    index: np.ndarray
    rows: np.ndarray
    errors: list
    z: np.ndarray
    g: np.ndarray
    basis: np.ndarray
    ext: tuple


def _track_stack(track: SpaceTimeTrack, xs, ts) -> _TrackStack:
    """Engine evaluation of the track geometry at a stack of (x, t) pairs, in one pass.

    The times are checked pair by pair, then the slices, the space-time
    metric and the track's extrinsic geometry are each evaluated once on
    the pairs still standing.
    """
    cm = track.cm
    mcf = track.mcf
    n = track.n
    dim = cm.spacetime_dim
    times = np.asarray(ts, dtype=float).reshape(-1)
    ts = times.tolist()
    xs = np.asarray(xs, dtype=float).reshape(len(ts), n)
    errors = _point_errors(xs)
    for i, t in enumerate(ts):
        try:
            # as in a single call: the track's time checks, then the chart point's
            track.check_time(t)
            mcf.ambient.check_time(t)
        except (ChartDomainError, CanonicalConfigError) as exc:
            # kept without its traceback, whose frames would hold this stack
            errors[i] = exc.with_traceback(None)
    live, x_live, t_live = _kept(errors, (np.arange(len(ts)), xs, times))
    slices = slice_stack(mcf, x_live, t_live.tolist())
    for i, exc in zip(live, slices.errors):
        errors[i] = exc
    index = live[slices.index]

    z = np.empty((len(index), dim))
    z[:, 0] = t_live[slices.index]
    z[:, 1:] = slices.jet[0]
    st = metric_bundle(cm.field, z, order=1)
    for i, exc in zip(index, st.errors):
        errors[i] = exc
    rows = st.index
    _, Ft, Fx, Fxx, Fxt, Ftt, nu = _kept(st.errors, (*slices.jet, slices.ext[2]))
    P = len(rows)
    # tangent basis: row 0 is d/dt + dF/dt, rows 1..n are (0, d_i F)
    basis = np.zeros((P, n + 1, dim))
    basis[:, 0, 0] = 1.0
    basis[:, 0, 1:] = Ft
    basis[:, 1:, 1:] = Fx

    # second derivatives of the parametrization Phi(u) = (u0, F(x, u0))
    ddPhi = np.zeros((P, n + 1, n + 1, dim))
    ddPhi[:, 0, 0, 1:] = Ftt
    ddPhi[:, 0, 1:, 1:] = Fxt
    ddPhi[:, 1:, 0, 1:] = Fxt
    ddPhi[:, 1:, 1:, 1:] = Fxx

    # the normal is oriented toward the lifted slice normal (0, nu)
    lifted = np.zeros((P, dim))
    lifted[:, 1:] = nu
    ext, bad = extrinsic_geometry_batch(basis, ddPhi, st.g, christoffel_batch(st), lifted)
    for r, exc in zip(rows, bad):
        if exc is not None:
            i = index[r]
            errors[i] = CanonicalConfigError(f"degenerate induced track metric at x={xs[i]}, t={ts[i]}")
    rows, z, g, basis = _kept(bad, (rows, st.points, st.g, basis))
    return _TrackStack(xs, ts, slices, index[rows], rows, errors, z, g, basis, ext)


def track_point_data(track: SpaceTimeTrack, x: np.ndarray, t: float) -> TrackPointData:
    """Engine evaluation of the track geometry at chart point (x, t).

    The single-pair case of the stacked track evaluation.
    """
    stack = _track_stack(track, [x], [t])
    _raise_first(stack.errors)
    hyp = stack.slices.record(stack.rows[0])
    induced, induced_inv, nu, h, H_track = (a[0] for a in stack.ext)
    return TrackPointData(
        x=hyp.x,
        t=hyp.t,
        z=stack.z[0],
        basis=stack.basis[0],
        induced=induced,
        induced_inv=induced_inv,
        normal=nu,
        sigma_N=_sigma_N(track.cm.time_scale(hyp.t), hyp.mean_curvature, float(stack.g[0, 0, 0])),
        second_ff=h,
        mean_curvature=float(H_track),
        hyp=hyp,
    )


def mcf_canonical_residuals(track: SpaceTimeTrack, xs, ts) -> list:
    """``mcf_canonical_residual`` at every (x, t) pair, in one stacked evaluation.

    Returns one entry per pair, in order: the ``TrackResidualSample``, or
    the exception the single-pair call raises there (a time below the
    sampling floor or outside the flow's domain, a point outside the chart,
    a degenerate slice or track metric).
    """
    cm = track.cm
    stack = _track_stack(track, xs, ts)
    out = list(stack.errors)
    nu = stack.ext[2]
    df = scalar_d1(cm.potential, stack.z)
    nu_f = (nu[:, None] @ df[..., None])[:, 0, 0]
    # H^S - nu^S f on forward (expanding) tracks, H^S + nu^S f on backward ones
    values = stack.ext[-1] + (-nu_f if cm.sign > 0 else nu_f)
    for i, value in zip(stack.index.tolist(), values.tolist()):
        out[i] = TrackResidualSample(
            x=stack.xs[i],
            t=stack.ts[i],
            N=cm.N,
            value=value,
            norm=abs(value),
            scaled_norm=cm.N * abs(value),
        )
    return out


def mcf_canonical_residual(track: SpaceTimeTrack, x: np.ndarray, t: float) -> TrackResidualSample:
    """Soliton defect of the track: H^S minus/plus the normal potential derivative.

    Entirely engine-evaluated: H^S from the kernel second fundamental
    form, nu^S f as the directional derivative of the canonical potential
    along the kernel normal.  This is the single-pair case of
    ``mcf_canonical_residuals``.
    """
    [sample] = mcf_canonical_residuals(track, [x], [t])
    if isinstance(sample, Exception):
        raise sample
    return sample


def closed_form_normal_potential(track: SpaceTimeTrack, x: np.ndarray, t: float) -> float:
    """Reference closed form of nu^S f (per variant), for cross-checking."""
    cm = track.cm
    data = track_point_data(track, x, t)
    H = data.hyp.mean_curvature
    w = float(cm.field.at(data.z)[0, 0])
    sN = data.sigma_N
    if cm.sign == 0:
        return -cm.N * H / (w * sN)
    return cm.sign * cm.N * H / (2.0 * t**3 * w * sN)


def limit_inverse_metric(track: SpaceTimeTrack, x: np.ndarray, t: float) -> SymTensor2:
    """Degenerate large-N limit of the inverse induced metric.

    Spatial block t g^{ij} (expanding), tau g^{ij} (shrinking) or g^{ij}
    (steady); the time row and column vanish in the limit, the finite-N
    time-time entry being t / (H^2 + t w) and its analogues.
    """
    t = track.check_time(t)
    hyp = hypersurface_point_data(track.mcf, x, t)
    n = track.n
    out = np.zeros((n + 1, n + 1))
    out[1:, 1:] = track.cm.time_scale(t) * hyp.induced_inv
    return SymTensor2(out, "contravariant")


# ---------------------------------------------------------------------------
# closed-form second fundamental form
# ---------------------------------------------------------------------------

SECOND_FF_CORRECTIONS = (
    FormCorrection(
        "expanding", "h^S_ij",
        "h_ij + (H/(t w)) (Ric(T_i, T_j) + g_ij/(2t))",
        "h_ij - (H/(t w)) (Ric(T_i, T_j) + g_ij/(2t))",
        visible_on_catalog=True,
    ),
    FormCorrection(
        "expanding", "h^S_i0",
        "d_i H + Ric(T_i, nu) - (H/(2 t w)) T_i(R)",
        "d_i H + Ric(T_i, nu) - (H/(t w)) (T_i(R)/2 - H Ric(T_i, nu))",
        visible_on_catalog=False,
    ),
    FormCorrection(
        "expanding", "h^S_00",
        "... + (H/(t w)) (H^2/(2t) + H^2 Ric(nu,nu) - H^2 nu(R) - R/t - R'/2 + n/(4t^2))",
        "... - (H/(t w)) (H^2/(2t) + H^2 Ric(nu,nu) - nu(R) + R/t + R'/2 + (n+1)/(4t^2))",
        visible_on_catalog=True,
    ),
    FormCorrection(
        "shrinking", "h^S_ij",
        "h_ij + (H/(tau w)) (-Ric(T_i, T_j) + g_ij/(2 tau))",
        "h_ij + (H/(tau w)) (Ric(T_i, T_j) - g_ij/(2 tau))",
        visible_on_catalog=True,
    ),
    FormCorrection(
        "shrinking", "h^S_i0",
        "d_i H - Ric(T_i, nu) - (H/(2 tau w)) T_i(R)",
        "d_i H - Ric(T_i, nu) - (H/(tau w)) (T_i(R)/2 + H Ric(T_i, nu))",
        visible_on_catalog=False,
    ),
    FormCorrection(
        "shrinking", "h^S_00",
        "... + (H/(tau w)) (-H^2/(2 tau) + H^2 Ric(nu,nu) - H^2 nu(R) - R/tau - R'/2 + n/(4 tau^2))",
        "... - (H/(tau w)) (H^2/(2 tau) - H^2 Ric(nu,nu) - nu(R) + R/tau + R'/2 - (n+1)/(4 tau^2))",
        visible_on_catalog=True,
    ),
    FormCorrection(
        "steady", "h^S_i0",
        "d_i H - Ric(T_i, nu) + (H/2) d_i R/(N+R) + (H^2/(N+R)) Ric(T_i, nu)",
        "d_i H - Ric(T_i, nu) - (H/(N+R)) (T_i(R)/2 + H Ric(T_i, nu))",
        visible_on_catalog=False,
    ),
    FormCorrection(
        "steady", "h^S_00",
        "... + (H^2/2) nu(R)/(N+R) - H^3 Ric(nu,nu)/(N+R)",
        "... + (H^2/(N+R)) nu(R) + H^3 Ric(nu,nu)/(N+R)",
        visible_on_catalog=False,
    ),
    FormCorrection(
        "steady", "leading prefactor",
        "1/(tau sigma_N)",
        "1/sigma_N",
        visible_on_catalog=True,
    ),
)

def closed_form_second_ff(
    track: SpaceTimeTrack,
    x: np.ndarray,
    t: float,
    form: str = "full",
    as_printed: bool = False,
) -> SymTensor2:
    """Closed-form second fundamental form of the track at (x, t).

    ``form="full"`` evaluates the complete reference expression (finite-N
    corrections included), ``form="leading"`` the up-to-O(1/N) version.
    ``as_printed`` selects the literal reference text instead of the
    rederived one; the differences live in ``SECOND_FF_CORRECTIONS``.
    Chart index 0 is time, matching ``track_point_data``.

    Three further reference slips need no switch, since the engine's values
    are used: h^S is defined without the ambient covariant derivative of the
    tangent basis (the engine uses h^S(U, V) = g(D_U nu^S, V)); the steady
    induced metric's time-time entry is garbled (H^2 + w is meant) and its
    inverse has a stray tau; H^S ~ (t/sigma_N) H should read H/sigma_N
    (both limit to sqrt(t) H).
    """
    if form not in ("full", "leading"):
        raise ValueError(f"form must be 'full' or 'leading', got {form!r}")
    t = track.check_time(t)
    cm = track.cm
    bg = cm.base
    n = track.n

    hyp = hypersurface_point_data(track.mcf, x, t)
    pos = hyp.position
    T = hyp.tangents
    nu = hyp.normal
    H = hyp.mean_curvature
    h = hyp.second_ff
    g = hyp.induced
    dH = hyp.dx_mean_curvature
    dHdt = hyp.dt_mean_curvature

    ric = bg.ricci_at(pos, t)
    ric_TT = T @ ric @ T.T
    ric_Tnu = T @ ric @ nu
    ric_nunu = float(nu @ ric @ nu)
    R = bg.scalar_at(pos, t)
    dRdt = bg.dt_scalar_at(pos, t)
    dRdy = bg.dy_scalar_at(pos, t)
    T_R = T @ dRdy
    nu_R = float(nu @ dRdy)

    w = cm.time_time(pos, t)
    sN = _sigma_N(cm.time_scale(t), H, w)
    s = cm.sign
    m = bg.dim   # = n + 1

    spatial = h
    if s == 0:
        pref = 1.0 / (t * sN) if (form == "leading" and as_printed) else 1.0 / sN
        NR = cm.N + R
        mixed = dH - ric_Tnu
        tt = dHdt + H * ric_nunu + 0.5 * nu_R
        if form == "full":
            spatial = spatial + (H / NR) * ric_TT
            if as_printed:
                mixed = mixed + (0.5 * H / NR) * T_R + (H**2 / NR) * ric_Tnu
                tt = tt + (0.5 * H**2 / NR) * nu_R - 0.5 * H / NR * dRdt - H**3 / NR * ric_nunu
            else:
                mixed = mixed - (H / NR) * (0.5 * T_R + H * ric_Tnu)
                tt = tt - (H / NR) * (0.5 * dRdt - H * nu_R - H**2 * ric_nunu)
    else:
        pref = 1.0 / (t * sN)
        c = H / (t * w)
        mixed = dH + s * ric_Tnu
        tt = dHdt + H / (2 * t) - s * H * ric_nunu + 0.5 * nu_R
        if form == "full":
            if as_printed:
                spatial = spatial + c * (s * ric_TT + g / (2 * t))
                mixed = mixed - (H / (2 * t * w)) * T_R
                tt = tt + c * (
                    s * H**2 / (2 * t) + H**2 * ric_nunu - H**2 * nu_R
                    - R / t - 0.5 * dRdt + n / (4 * t**2)
                )
            else:
                spatial = spatial - s * c * (ric_TT + s * g / (2 * t))
                mixed = mixed - c * (0.5 * T_R - s * H * ric_Tnu)
                tt = tt - c * (
                    R / t + 0.5 * dRdt + s * m / (4 * t**2) - nu_R
                    + s * H**2 * ric_nunu + H**2 / (2 * t)
                )

    out = np.zeros((n + 1, n + 1))
    out[1:, 1:] = spatial
    out[1:, 0] = mixed
    out[0, 1:] = mixed
    out[0, 0] = tt
    return SymTensor2.symmetrized(pref * out)
