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

stays O(1/N), i.e. N |E~_N| is bounded.  ``track_stacks`` evaluates the
track geometry on a stack of (x, t) pairs for a list of canonical
metrics: the slices, which do not depend on N, once, and the track
geometry once per metric.  Each ``TrackStack`` carries its metric and
its slices, and ``mcf_canonical_sweep`` maps it to a ``ResidualStack``;
``mcf_canonical_residual`` is the single-pair, one-metric case.  A pair's
result does not depend on its stack.  The oracles take a track and a
stack of pairs, and raise the first failing pair's error.

As with the Christoffel tables, the reference closed forms for h^S
circulate with slips in their O(1/N) correction terms;
``closed_form_second_ff`` evaluates both the literal and the rederived
version, full and leading, in one call, and ``SECOND_FF_CORRECTIONS``
records the differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .backgrounds import (
    MCFSolution,
    SliceStack,
    _flow_terms,
    _slice_stack,
    extrinsic_geometry_batch,
)
from .canonical import CanonicalConfigError, CanonicalMetric, FormCorrection, ResidualSample, ResidualStack, _profiles
from .geometry import (
    _door,
    _drop,
    _metric_bundle,
    _partials,
    _raise_first,
    christoffel_batch,
)

__all__ = [
    "SpaceTimeTrack",
    "TrackStack",
    "SECOND_FF_CORRECTIONS",
    "build_track",
    "track_stacks",
    "closed_form_second_ff",
    "closed_form_normal_potential",
    "mcf_canonical_residual",
    "mcf_canonical_sweep",
    "limit_inverse_metric",
]


@dataclass(frozen=True)
class SpaceTimeTrack:
    """A hypersurface flow paired with the canonical metric it lives in.

    The metric must be built on the flow's own ambient background; the
    pairing is checked once, when the track is made.
    """

    mcf: MCFSolution
    cm: CanonicalMetric

    def __post_init__(self):
        a, b = self.mcf.ambient, self.cm.base
        if a is not b:
            raise CanonicalConfigError(
                f"canonical metric built on a background ({b.name}, dim {b.dim}) other than "
                f"the flow's ambient ({a.name}, dim {a.dim}); build it on mcf.ambient"
            )

    @property
    def n(self) -> int:
        return self.mcf.hypersurface_dim


def build_track(mcf: MCFSolution, cm: CanonicalMetric) -> SpaceTimeTrack:
    """Pair a flow with a canonical metric built on the flow's own background."""
    return SpaceTimeTrack(mcf, cm)


def _sigma_N(scale, H, w):
    """Normalization of the track normal at time scale ``scale`` (t, or 1 when steady)."""
    return np.sqrt(1.0 / scale + H**2 / (scale**2 * w))


class _SliceRows(NamedTuple):
    """The N-independent half of a track stack: the checked pairs' slices and track inputs.

    ``slices.errors`` has one entry per pair: None, or the exception the
    sampling floor or the slice recorded there.  Row j of ``slices``,
    ``z``, ``basis``, ``ddPhi`` and ``lifted`` lies over pair
    ``slices.index[j]``: its slice, its space-time point (t, F), the
    track's tangent basis and second partials there, and the lifted slice
    normal (0, nu).
    """

    slices: SliceStack
    z: np.ndarray
    basis: np.ndarray
    ddPhi: np.ndarray
    lifted: np.ndarray


class TrackStack(NamedTuple):
    """Track geometry in the metric ``cm`` at a stack of (x, t) pairs, stacked over the pairs in ``index``.

    ``errors`` has one entry per pair: None, or the exception its check,
    its slice or its track raised.  Row j lies over pair ``index[j]``;
    ``z`` and ``g`` are the space-time points (t, F) and metrics there,
    ``basis`` the tangent basis (row 0 the time leg), and ``ext`` the
    ``extrinsic_geometry_batch`` results of the track (chart index 0 =
    time).  ``slices`` are the slices the track was built on, shared by
    every metric of a sweep.
    """

    cm: CanonicalMetric
    slices: SliceStack
    index: np.ndarray
    errors: list
    z: np.ndarray
    g: np.ndarray
    basis: np.ndarray
    ext: tuple

    @property
    def sigma_N(self) -> np.ndarray:
        """The track normal's normalization at each row, (P,), on Python floats: array ``**`` rounds otherwise."""
        H = self.slices.ext[-1][np.searchsorted(self.slices.index, self.index)].tolist()
        return np.array([_sigma_N(self.cm.time_scale(t), h, w)
                         for t, h, w in zip(self.z[:, 0].tolist(), H, self.g[:, 0, 0].tolist())])


def _slice_rows(track: SpaceTimeTrack, xs, ts) -> _SliceRows:
    """The N-independent half of the track evaluation at a stack of (x, t) pairs.

    The door of the track sweeps and oracles: ``geometry._door`` checks
    the pairing, the times (the flow's domain, the sampling floor, then the
    ambient's domain) and the points' finiteness once, here.  The slice
    core evaluates the slices once on the pairs still standing, and the
    track's space-time points, tangent basis, second partials and
    orienting vectors are built from them.
    """
    mcf = track.mcf
    windows = (mcf.time_domain, mcf.ambient.time_domain)
    slices = _slice_stack(mcf, *_door(xs, ts, track.n, windows, floor=track.cm.t_min))
    F, Ft, Fx, Fxx, Fxt, Ftt = slices.jet
    n, P = track.n, len(F)
    z = np.concatenate((np.array(slices.ts)[:, None], F), axis=1)
    # tangent basis: row 0 is d/dt + dF/dt, rows 1..n are (0, d_i F)
    basis = np.zeros((P, n + 1, n + 2))
    basis[:, 0, 0] = 1.0
    basis[:, 0, 1:] = Ft
    basis[:, 1:, 1:] = Fx
    # second derivatives of the parametrization Phi(u) = (u0, F(x, u0))
    ddPhi = np.zeros((P, n + 1, n + 1, n + 2))
    ddPhi[:, 0, 0, 1:] = Ftt
    ddPhi[:, 0, 1:, 1:] = Fxt
    ddPhi[:, 1:, 0, 1:] = Fxt
    ddPhi[:, 1:, 1:, 1:] = Fxx
    # the track normal is oriented toward the lifted slice normal (0, nu)
    lifted = np.zeros((P, n + 2))
    lifted[:, 1:] = slices.ext[2]
    return _SliceRows(slices, z, basis, ddPhi, lifted)


def _track_stack(track: SpaceTimeTrack, pairs: _SliceRows) -> TrackStack:
    """The N-dependent half: the track's extrinsic geometry in ``track.cm`` over ``pairs``.

    The space-time metric and the track's extrinsic geometry are each
    evaluated once on the pairs whose slices stand.
    """
    errors = list(pairs.slices.errors)
    # z = (t, F): t in the background's domain and F in its chart, so z lies in the canonical chart
    st = _metric_bundle(track.cm.field, pairs.z, 1)
    index, basis, ddPhi, lifted = _drop(errors, pairs.slices.index, st.errors, pairs.basis, pairs.ddPhi, pairs.lifted)
    ext, bad = extrinsic_geometry_batch(basis, ddPhi, st.g, christoffel_batch(st), lifted)
    index, z, g, basis = _drop(errors, index, bad, st.points, st.g, basis)
    return TrackStack(track.cm, pairs.slices, index, errors, z, g, basis, ext)


def track_stacks(mcf: MCFSolution, cms, xs, ts) -> list:
    """The track geometry at a stack of (x, t) pairs in each canonical metric of ``cms``, one ``TrackStack`` each.

    The door and the slices run once, the space-time metric and the track's
    extrinsic geometry once per metric.  A pair's error is a
    ``ChartDomainError`` (a time outside the flow's domain or below the
    sampling floor, a point outside the chart) or a ``DegenerateMetricError``
    (a degenerate slice or track metric).  Every metric must be built on
    ``mcf.ambient``, as in ``build_track``, so the floor is the same for all.
    """
    tracks = [build_track(mcf, cm) for cm in cms]
    if not tracks:
        return []
    pairs = _slice_rows(tracks[0], xs, ts)
    return [_track_stack(track, pairs) for track in tracks]


def _residuals(stack: TrackStack) -> ResidualStack:
    """The soliton defect in the stack's metric at its pairs, and their norms."""
    cm, nu = stack.cm, stack.ext[2]
    # z passed the track's door, so the potential's partials skip the point check
    f = cm.potential
    df = _partials(f.d1, f.value, stack.z, 1, (), "scalar")
    nu_f = (nu[:, None] @ df[..., None])[:, 0, 0]
    # H^S - nu^S f on forward (expanding) tracks, H^S + nu^S f on backward ones
    values = stack.ext[-1] + (-nu_f if cm.sign > 0 else nu_f)
    return ResidualStack(list(stack.errors), stack.index, values, np.abs(values))


def mcf_canonical_sweep(mcf: MCFSolution, cms, xs, ts) -> list:
    """``mcf_canonical_residual`` at every (x, t) pair, for each canonical metric of ``cms``.

    Returns one ``ResidualStack`` per metric, in order: the defects
    H^S -+ nu^S f and their norms at the pairs that evaluate, and per pair
    None or the exception the single-pair call raises there, from the
    ``track_stacks`` of the sweep; nu^S f runs once per metric.
    """
    return [_residuals(stack) for stack in track_stacks(mcf, cms, xs, ts)]


def mcf_canonical_residual(track: SpaceTimeTrack, x: np.ndarray, t: float) -> ResidualSample:
    """Soliton defect of the track: H^S minus/plus the normal potential derivative.

    Entirely engine-evaluated: H^S from the kernel second fundamental
    form, nu^S f as the directional derivative of the canonical potential
    along the kernel normal.  This is the single-pair, one-metric case of
    ``mcf_canonical_sweep``, on the track's own pairing of flow and metric.
    """
    stack = _residuals(_track_stack(track, _slice_rows(track, [x], [t])))
    [exc] = stack.errors
    if exc is not None:
        raise exc
    value = float(stack.values[0])
    return ResidualSample(
        point=np.asarray(x, dtype=float),
        t=float(t),
        N=track.cm.N,
        value=value,
        norm=abs(value),
        scaled_norm=track.cm.N * abs(value),
    )


def closed_form_normal_potential(track: SpaceTimeTrack, xs, ts) -> np.ndarray:
    """Reference closed form of nu^S f (per variant) at a stack of (x, t) pairs, (P,), for cross-checking.

    w is the time-time entry of the track's own metric rows; the first
    failing pair raises its error.
    """
    stack = _track_stack(track, _slice_rows(track, xs, ts))
    _raise_first(stack.errors)
    cm, t = track.cm, stack.z[:, 0]
    H, w, sN = stack.slices.ext[-1], stack.g[:, 0, 0], stack.sigma_N
    if cm.sign == 0:
        return -cm.N * H / (w * sN)
    return cm.sign * cm.N * H / (2.0 * t**3 * w * sN)


def limit_inverse_metric(track: SpaceTimeTrack, xs, ts) -> np.ndarray:
    """Degenerate large-N limit of the inverse induced metric at a stack of (x, t) pairs, (P, n+1, n+1).

    Spatial block t g^{ij} (expanding), tau g^{ij} (shrinking) or g^{ij}
    (steady); the time row and column vanish in the limit, the finite-N
    time-time entry being t / (H^2 + t w) and its analogues.  The first
    failing pair raises its error.
    """
    slices = _slice_rows(track, xs, ts).slices
    _raise_first(slices.errors)
    induced_inv = slices.ext[1]
    out = np.zeros((len(induced_inv),) + (track.n + 1,) * 2)
    out[:, 1:, 1:] = track.cm.time_scale(np.array(slices.ts)[:, None, None]) * induced_inv
    return out


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

def closed_form_second_ff(track: SpaceTimeTrack, xs, ts) -> dict:
    """Closed-form second fundamental forms of the track at a stack of (x, t) pairs, from one slice evaluation.

    Returns ``{"full": (derived, printed), "leading": (derived, printed)}``:
    (P, n+1, n+1) stacks, chart index 0 = time as in a ``TrackStack``, of
    the complete reference expression and of its up-to-O(1/N) version, each
    as rederived and as printed (``SECOND_FF_CORRECTIONS`` lists the slips).
    The first failing pair raises its error.

    Three further reference slips need no table, since the engine's values
    are used: h^S is defined without the ambient covariant derivative of the
    tangent basis (the engine uses h^S(U, V) = g(D_U nu^S, V)); the steady
    induced metric's time-time entry is garbled (H^2 + w is meant) and its
    inverse has a stray tau; H^S ~ (t/sigma_N) H should read H/sigma_N
    (both limit to sqrt(t) H).
    """
    slices = _slice_rows(track, xs, ts).slices
    _raise_first(slices.errors)
    cm = track.cm
    n = track.n
    (ric, R, dRdt, dRdy), dH, dHdt = _flow_terms(slices)
    g, _, nu, spatial, H = slices.ext
    T = slices.jet[2]
    Tt = T.transpose(0, 2, 1)
    P = len(T)
    # per row: a scalar is a (P, 1, 1) block, a covector along the tangents a (P, 1, n) row
    t, R, dRdt, dHdt, H = (np.reshape(a, (P, 1, 1)) for a in (np.array(slices.ts), R, dRdt, dHdt, H))
    nu_row, dH = nu[:, None], dH[:, None]
    ric_TT = T @ ric @ Tt
    ric_Tnu = nu_row @ ric @ Tt
    ric_nunu = nu_row @ ric @ nu[..., None]
    T_R = dRdy[:, None] @ Tt
    nu_R = nu_row @ dRdy[..., None]

    s = cm.sign
    m = n + 1
    w = np.broadcast_to(_profiles(cm.base, s, cm.N)(t)[0], t.shape)
    scale = cm.time_scale(t)
    sN = _sigma_N(scale, H, w)
    pref = 1.0 / (scale * sN)

    # the leading (spatial, mixed, time-time) blocks, and each table's corrections
    if s == 0:
        NR = cm.N + R
        mixed = dH - ric_Tnu
        tt = dHdt + H * ric_nunu + 0.5 * nu_R
        ric_term = (H / NR) * ric_TT
        derived = (
            ric_term,
            -(H / NR) * (0.5 * T_R + H * ric_Tnu),
            -(H / NR) * (0.5 * dRdt - H * nu_R - H**2 * ric_nunu),
        )
        printed = (
            ric_term,
            (0.5 * H / NR) * T_R + (H**2 / NR) * ric_Tnu,
            (0.5 * H**2 / NR) * nu_R - 0.5 * H / NR * dRdt - H**3 / NR * ric_nunu,
        )
    else:
        c = H / (t * w)
        mixed = dH + s * ric_Tnu
        tt = dHdt + H / (2 * t) - s * H * ric_nunu + 0.5 * nu_R
        derived = (
            -s * c * (ric_TT + s * g / (2 * t)),
            -c * (0.5 * T_R - s * H * ric_Tnu),
            -c * (R / t + 0.5 * dRdt + s * m / (4 * t**2) - nu_R + s * H**2 * ric_nunu + H**2 / (2 * t)),
        )
        printed = (
            c * (s * ric_TT + g / (2 * t)),
            -(H / (2 * t * w)) * T_R,
            c * (s * H**2 / (2 * t) + H**2 * ric_nunu - H**2 * nu_R - R / t - 0.5 * dRdt + n / (4 * t**2)),
        )

    def form(pref, d_spatial=0.0, d_mixed=0.0, d_tt=0.0):
        out = np.empty((P, m, m))
        out[:, 1:, 1:] = spatial + d_spatial
        out[:, :1, 1:] = mixed + d_mixed
        out[:, 1:, :1] = out[:, :1, 1:].transpose(0, 2, 1)
        out[:, :1, :1] = tt + d_tt
        return pref * out

    # the printed leading prefactor is 1/(t sigma_N): a stray 1/tau when steady
    return {
        "full": (form(pref, *derived), form(pref, *printed)),
        "leading": (form(pref), form(1.0 / (t * sN))),
    }
