"""The batched kernel: batch independence, the pointwise reference, per-point failures."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_kernel as ref
from cansol import harnack
from cansol.backgrounds import BackgroundError, model_background, model_mcf, unit_sphere_metric
from cansol.canonical import (
    VARIANTS,
    CanonicalConfigError,
    build_canonical_metric,
    canonical_christoffel_closed_form,
    canonical_christoffel_closed_forms,
    canonical_ricci_quadratic,
    canonical_ricci_quadratics,
    ricci_soliton_residual,
    ricci_soliton_residuals,
)
from cansol.cli import RunConfig, run
from cansol import geometry
from cansol.geometry import (
    ChartDomainError,
    DegenerateMetricError,
    GeometryError,
    MetricField,
    ScalarField,
    SymTensor2,
    christoffel,
    christoffel_batch,
    christoffel_d1,
    christoffel_d1_batch,
    gradient,
    gradient_batch,
    hessian,
    hessian_batch,
    inverse_metric,
    laplacian,
    laplacian_batch,
    metric_bundle,
    ricci,
    ricci_batch,
    riemann,
    riemann_batch,
    scalar_curvature,
    scalar_curvature_batch,
    scalar_d1,
    scalar_d2,
    tensor_norm,
    tensor_norm_batch,
)
from cansol.harnack import I_GHY, I_infty, flat_ball_domain, random_polynomial_field
from cansol.track import build_track, mcf_canonical_residual, mcf_canonical_residuals

DIRECTION = {"expanding": "forward", "shrinking": "backward", "steady": "backward"}


def sphere_stack(d, k, rng):
    pts = np.empty((k, d))
    pts[:, : d - 1] = rng.uniform(0.3, math.pi - 0.3, (k, d - 1))
    pts[:, d - 1] = rng.uniform(0.0, 2.0 * math.pi, k)
    return pts


def canonical(variant, dim, N):
    bg = model_background("round_sphere", dim=dim, r0=1.0, direction=DIRECTION[variant])
    return build_canonical_metric(bg, variant, N)


def spacetime_stack(cm, k, rng):
    T = cm.base.time_domain[1]
    ts = rng.uniform(cm.t_min, T, k)
    return np.column_stack((ts, sphere_stack(cm.base.dim, k, rng)))


def assert_stack_matches_single_points(metric, f, pts):
    """Every kernel op on the stack equals, bit for bit, the single-point calls."""
    b = metric_bundle(metric, pts, order=2)
    assert b.errors == (None,) * len(pts)
    ric = ricci_batch(b)
    T = ric + hessian_batch(b, f)
    batched = {
        "d1": b.dg,
        "d2": b.ddg,
        "inverse_metric": b.ginv,
        "christoffel": christoffel_batch(b),
        "christoffel_d1": christoffel_d1_batch(b),
        "riemann": riemann_batch(b),
        "ricci": ric,
        "scalar_curvature": scalar_curvature_batch(b),
        "hessian": hessian_batch(b, f),
        "laplacian": laplacian_batch(b, f),
        "gradient": gradient_batch(b, f),
        "scalar_d1": scalar_d1(f, pts),
        "scalar_d2": scalar_d2(f, pts),
        "tensor_norm": tensor_norm_batch(b, T),
        "tensor_norm_up": tensor_norm_batch(b, T, "contravariant"),
    }
    for i, p in enumerate(pts):
        single = {
            "d1": metric_bundle(metric, p, order=2).dg[0],
            "d2": metric_bundle(metric, p, order=2).ddg[0],
            "inverse_metric": inverse_metric(metric, p),
            "christoffel": christoffel(metric, p).gamma,
            "christoffel_d1": christoffel_d1(metric, p),
            "riemann": riemann(metric, p),
            "ricci": ricci(metric, p).entries,
            "scalar_curvature": scalar_curvature(metric, p),
            "hessian": hessian(metric, f, p).entries,
            "laplacian": laplacian(metric, f, p),
            "gradient": gradient(metric, f, p),
            "scalar_d1": scalar_d1(f, p),
            "scalar_d2": scalar_d2(f, p),
            "tensor_norm": tensor_norm(metric, SymTensor2(T[i]), p),
            "tensor_norm_up": tensor_norm(metric, SymTensor2(T[i], "contravariant"), p),
        }
        for name, value in single.items():
            assert np.array_equal(batched[name][i], value), (name, i)


class TestBatchIndependence:
    @given(
        d=st.integers(2, 5),
        k=st.integers(2, 7),
        seed=st.integers(0, 2**32 - 1),
        fd=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_sphere_fields(self, d, k, seed, fd):
        rng = np.random.default_rng(seed)
        metric = unit_sphere_metric(d)
        f = random_polynomial_field(d, rng)
        if fd:
            metric = metric.without_analytic_derivatives()
            f = ScalarField(value=f.value)
        assert_stack_matches_single_points(metric, f, sphere_stack(d, k, rng))

    @given(
        variant=st.sampled_from(VARIANTS),
        dim=st.integers(2, 5),
        N=st.sampled_from([1e2, 1e3, 1e5]),
        k=st.integers(2, 7),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_canonical_fields(self, variant, dim, N, k, seed):
        cm = canonical(variant, dim, N)
        pts = spacetime_stack(cm, k, np.random.default_rng(seed))
        assert_stack_matches_single_points(cm.field, cm.potential, pts)

    def test_large_stack(self):
        cm = canonical("expanding", 5, 1e4)
        pts = spacetime_stack(cm, 200, np.random.default_rng(11))
        assert_stack_matches_single_points(cm.field, cm.potential, pts)

    def test_sweep_records_equal_single_point_calls(self):
        cfg = {
            "suite": "ricci_soliton_residual",
            "variant": "shrinking",
            "background": {"name": "round_sphere",
                           "params": {"dim": 3, "r0": 1.0, "direction": "backward"}},
            "N_list": [1e2, 1e4],
            "samples": {"count": 7, "seed": 5},
        }
        report = run(RunConfig.from_dict(cfg))
        bg = model_background("round_sphere", dim=3, r0=1.0, direction="backward")
        assert len(report.records) == 14
        for rec in report.records:
            cm = build_canonical_metric(bg, "shrinking", rec["N"])
            s = ricci_soliton_residual(cm, np.asarray(rec["point"]), rec["t"])
            assert s.scaled_norm == rec["scaled_norm"]
            assert s.norm == rec["norm"]

    def test_quadrature_does_not_depend_on_the_chunk_size(self, monkeypatch):
        potential = model_background("gaussian_shrinker_flat", dim=3).soliton.potential.at_time(1.0)
        wm = flat_ball_domain(potential=potential, grid=(6, 12, 4))
        default = (I_infty(wm), I_GHY(wm))
        monkeypatch.setattr(harnack, "QUADRATURE_CHUNK", 7)
        assert (I_infty(wm), I_GHY(wm)) == default


class TestPointwiseReference:
    """The batched E_N stays within |dE|_g <= 1e-12 N |Ric|_g of the pointwise kernel."""

    TOL = 1e-12

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("dim", [3, 5])
    def test_soliton_defect(self, variant, dim):
        rng = np.random.default_rng(dim)
        worst = 0.0
        for N in (1e2, 1e3, 1e4, 1e5):
            cm = canonical(variant, dim, N)
            for z in spacetime_stack(cm, 6, rng):
                t, p = z[0], z[1:]
                E_ref, ric_ref = ref.soliton_defect(cm, p, t)
                E = ricci_soliton_residual(cm, p, t).residual.entries
                scale = N * ref.tensor_norm(cm.field, ric_ref, z)
                worst = max(worst, ref.tensor_norm(cm.field, E - E_ref, z) / scale)
        assert worst <= self.TOL, worst


def degenerate_at(cm, t_singular, t_ill):
    """cm with a singular metric at time t_singular and an ill-conditioned one at t_ill."""
    base = cm.field

    def comps(z):
        g = np.array(base.components(z))
        g[z[..., 0] == t_singular] = 0.0
        g[z[..., 0] == t_ill, 0, 0] *= 1e-20
        return g

    return dataclasses.replace(cm, field=dataclasses.replace(base, components=comps))


class TestFailuresInsideABatch:
    def test_residual_stack_matches_pointwise_loop(self):
        cm = degenerate_at(canonical("expanding", 3, 1e3), t_singular=0.071, t_ill=0.072)
        good = np.array([1.1, 0.7, 2.0])
        pairs = [
            (good, 0.09),                            # valid
            (np.array([0.005, 1.0, 1.0]), 0.09),     # polar band
            (good, 0.5 * cm.t_min),                  # below t_min
            (good, 0.071),                           # singular metric
            (good, 0.072),                           # ill-conditioned metric
            (np.array([np.nan, 1.0, 1.0]), 0.09),    # non-finite
            (np.array([0.9, 1.3, 0.2]), 0.11),       # valid
        ]
        loop = []
        for p, t in pairs:
            try:
                loop.append(ricci_soliton_residual(cm, p, t))
            except GeometryError as exc:
                loop.append(exc)
        batch = ricci_soliton_residuals(cm, [p for p, _ in pairs], [t for _, t in pairs])
        kinds = [type(r) for r in batch]
        assert kinds == [type(r) for r in loop]
        assert kinds[1:6] == [ChartDomainError, ChartDomainError, DegenerateMetricError,
                              DegenerateMetricError, ChartDomainError]
        for a, b in zip(batch, loop):
            if isinstance(a, Exception):
                assert str(a) == str(b)
            else:
                assert np.array_equal(a.residual.entries, b.residual.entries)
                assert a.scaled_norm == b.scaled_norm
        # the valid points are unaffected by their failing neighbours
        alone = ricci_soliton_residuals(cm, [pairs[0][0], pairs[6][0]], [pairs[0][1], pairs[6][1]])
        assert [s.scaled_norm for s in alone] == [batch[0].scaled_norm, batch[6].scaled_norm]

    def test_empty_residual_stack(self):
        bg = model_background("euclidean_static", dim=3, direction="forward")
        cm = build_canonical_metric(bg, "expanding", 1e3)
        assert ricci_soliton_residuals(cm, [], []) == []
        assert ricci_soliton_residuals(cm, np.empty((0, 3)), []) == []

    def test_bundle_records_errors_and_skips_the_points(self):
        seen = []

        def comps(p):
            seen.append(p.copy())
            g = np.zeros(p.shape[:-1] + (2, 2))
            g[..., 0, 0] = 1.0
            g[..., 1, 1] = p[..., 0] ** 2     # singular on x = 0
            return g

        metric = MetricField(dim=2, components=comps,
                             jet=lambda p, order: (comps(p), np.zeros(p.shape + (2, 2))),
                             in_domain=lambda p: p[..., 1] < 5.0)
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 9.0], [np.inf, 0.0], [2.0, 1.0]])
        b = metric_bundle(metric, pts, order=1)
        assert b.index.tolist() == [0, 4]
        assert np.array_equal(b.points, pts[[0, 4]])
        for i in (1, 2, 3):
            with pytest.raises(type(b.errors[i])) as info:
                christoffel(metric, pts[i])
            assert str(info.value) == str(b.errors[i])
        # components saw no point outside the chart
        assert all(np.all(s[:, 1] < 5.0) and np.all(np.isfinite(s)) for s in seen)


class TestCallbackContract:
    def test_per_point_shape_only_from_a_single_point(self):
        metric = MetricField(dim=2, components=lambda p: np.eye(2),
                             jet=lambda p, order: (np.eye(2), np.zeros((2, 2, 2))))
        assert np.array_equal(inverse_metric(metric, np.zeros(2)), np.eye(2))
        assert np.array_equal(christoffel(metric, np.zeros(2)).gamma, np.zeros((2, 2, 2)))
        for pts in (np.zeros((2, 2)), np.zeros((3, 2))):
            with pytest.raises(GeometryError, match="metric callback returned shape"):
                metric_bundle(metric, pts)
        f = ScalarField(value=lambda p: np.zeros(len(p)), d2=lambda p: np.eye(2))
        assert np.array_equal(scalar_d2(f, np.zeros(2)), np.eye(2))
        with pytest.raises(GeometryError, match="scalar d2 callback returned shape"):
            scalar_d2(f, np.zeros((2, 2)))

    def test_wrong_leading_axis_raises(self):
        metric = MetricField(dim=2, components=lambda p: np.zeros((len(p) + 1, 2, 2)))
        with pytest.raises(GeometryError):
            metric.at(np.zeros((2, 2)))

    def test_pointwise_scalar_fails_in_a_stencil(self):
        f = ScalarField(value=lambda p: 1.0)
        with pytest.raises(GeometryError):
            scalar_d1(f, np.zeros(3))


def _flow(name, dim, direction):
    kind = "round_sphere" if name == "equator_in_sphere" else "euclidean_static"
    params = {"r0": 1.0} if kind == "round_sphere" else {}
    return model_mcf(name, model_background(kind, dim=dim, direction=direction, **params))


TRACKS = [(variant, "shrinking_sphere_flat", dim) for variant in VARIANTS for dim in (3, 5)]
TRACKS.append(("steady", "equator_in_sphere", 3))


def _pointwise_loop(fn, track, xs, ts):
    out = []
    for x, t in zip(xs, ts):
        try:
            out.append(fn(track, x, t))
        except Exception as exc:
            out.append(exc)
    return out


def assert_same_entries(batch, loop):
    assert [type(r) for r in batch] == [type(r) for r in loop]
    for a, b in zip(batch, loop):
        if isinstance(a, Exception):
            assert str(a) == str(b)
        else:
            assert (a.value, a.norm, a.scaled_norm, a.t, a.N) == (b.value, b.norm, b.scaled_norm, b.t, b.N)
            assert np.array_equal(a.x, b.x)


class TestTrackStacks:
    @pytest.mark.parametrize("variant, flow, dim", TRACKS)
    def test_track_stack_matches_pointwise_loop(self, variant, flow, dim):
        mcf = _flow(flow, dim, DIRECTION[variant])
        track = build_track(mcf, build_canonical_metric(mcf.ambient, variant, 1e4))
        rng = np.random.default_rng(dim)
        # about a third of the times fall below the canonical time floor
        xs = mcf.sample_xs(24, rng)
        ts = list(rng.uniform(0.5 * track.cm.t_min, mcf.time_domain[1], 24))
        good = xs[0].copy()
        xs += [np.full(dim - 1, np.nan), good, good]
        ts += [ts[0], 2.0 * mcf.time_domain[1], 0.5 * track.cm.t_min]
        if flow == "shrinking_sphere_flat":
            # a polar angle of 1e-7 makes the slice's induced metric degenerate
            xs.append(np.concatenate(([1e-7], good[1:])))
            kinds = {ChartDomainError, CanonicalConfigError, BackgroundError}
        else:
            # the equator's image leaves the sphere chart in the pole band
            xs.append(np.concatenate(([0.005], good[1:])))
            kinds = {ChartDomainError, CanonicalConfigError}
        ts.append(float(np.mean(mcf.time_domain)))
        batch = mcf_canonical_residuals(track, xs, ts)
        loop = _pointwise_loop(mcf_canonical_residual, track, xs, ts)
        assert_same_entries(batch, loop)
        assert {type(r) for r in batch if isinstance(r, Exception)} == kinds
        assert sum(not isinstance(r, Exception) for r in batch) >= 10
        # a pair's entry does not depend on its neighbours
        assert_same_entries(mcf_canonical_residuals(track, xs[::-1], ts[::-1]), batch[::-1])

    def test_degenerate_track_is_a_per_pair_error(self):
        mcf = _flow("shrinking_sphere_flat", 3, "forward")
        # at N = 1e8 the time leg dominates the track metric near the time floor
        track = build_track(mcf, build_canonical_metric(mcf.ambient, "expanding", 1e8))
        xs = [np.array([0.1, 0.3]), np.array([1.1, 0.7])]
        ts = [0.05, 0.15]
        batch = mcf_canonical_residuals(track, xs, ts)
        assert isinstance(batch[0], CanonicalConfigError)
        assert str(batch[0]).startswith("degenerate induced track metric")
        assert_same_entries(batch, _pointwise_loop(mcf_canonical_residual, track, xs, ts))

    def test_empty_and_all_failing_stacks(self):
        mcf = _flow("shrinking_sphere_flat", 3, "forward")
        track = build_track(mcf, build_canonical_metric(mcf.ambient, "expanding", 1e4))
        assert mcf_canonical_residuals(track, np.empty((0, 2)), []) == []
        below = mcf_canonical_residuals(track, [np.array([1.1, 0.7])] * 2, [0.001, 0.002])
        assert [type(r).__name__ for r in below] == ["CanonicalConfigError"] * 2

    @pytest.mark.parametrize("flow, dim, direction", [
        ("shrinking_sphere_flat", 3, "forward"), ("shrinking_sphere_flat", 5, "backward"),
        ("equator_in_sphere", 3, "backward"), ("equator_in_sphere", 5, "forward"),
        ("static_plane_flat", 3, "forward"), ("static_plane_flat", 4, "backward"),
    ])
    def test_flow_callbacks_on_a_stack_equal_the_pointwise_calls(self, flow, dim, direction):
        mcf = _flow(flow, dim, direction)
        rng = np.random.default_rng(7)
        xs = np.array(mcf.sample_xs(9, rng))
        ts = rng.uniform(0.01, mcf.time_domain[1], 9)
        stacked = {
            "jet": mcf.jet(xs, ts),
            "hint": (mcf.orientation_hint(xs, ts),),
            "dx": (mcf.dx_mean_curvature(xs, ts),),
            "dt": (mcf.dt_mean_curvature(xs, ts),),
        }
        for i, (x, t) in enumerate(zip(xs, ts)):
            single = {
                "jet": mcf.jet(x, t),
                "hint": (mcf.orientation_hint(x, t),),
                "dx": (mcf.dx_mean_curvature(x, t),),
                "dt": (mcf.dt_mean_curvature(x, t),),
            }
            for name, arrays in single.items():
                for k, (a, b) in enumerate(zip(stacked[name], arrays)):
                    assert np.shape(b) == np.shape(a)[1:], (name, k)
                    assert np.array_equal(a[i], b), (name, k, i)
        # a (2, 3, n) stack with one time per row broadcast along it
        grid = xs[:6].reshape(2, 3, -1)
        for a, b in zip(mcf.jet(grid, ts[:2, None]), mcf.jet(xs[:6], np.repeat(ts[:2], 3))):
            assert np.array_equal(a.reshape(b.shape), b)


class TestRicciQuadraticStacks:
    def test_stack_matches_pointwise_loop(self):
        cm = degenerate_at(canonical("expanding", 3, 2e3), t_singular=0.071, t_ill=0.072)
        rng = np.random.default_rng(4)
        pts = list(sphere_stack(3, 12, rng))
        ts = list(rng.uniform(0.06, 1.0, 12))
        Xs = list(rng.uniform(-1.0, 1.0, (12, 3)))
        good = np.array([1.1, 0.7, 2.0])
        for p, t in [(np.array([0.005, 1.0, 1.0]), 0.3),    # polar band
                     (good, 2.0),                           # past the time domain
                     (good, 0.071),                         # singular metric
                     (good, 0.072),                         # ill-conditioned metric
                     (np.array([np.nan, 1.0, 1.0]), 0.3)]:  # non-finite
            pts.insert(5, p)
            ts.insert(5, t)
            Xs.insert(5, rng.uniform(-1.0, 1.0, 3))
        batch = canonical_ricci_quadratics(cm, Xs, pts, ts)
        loop, formula = [], []
        for X, p, t in zip(Xs, pts, ts):
            try:
                loop.append(canonical_ricci_quadratic(cm, X, p, t))
                # the pointwise form the stack replaced
                Xbar = np.concatenate(([1.0], X))
                ric = ricci(cm.field, cm.field.check_point(cm.spacetime_point(p, t))).entries
                formula.append(float(Xbar @ ric @ Xbar))
            except GeometryError as exc:
                loop.append(exc)
                formula.append(exc)
        assert [type(q) for q in batch] == [type(q) for q in loop]
        assert [type(q).__name__ for q in batch[5:10]] == [
            "ChartDomainError", "DegenerateMetricError", "DegenerateMetricError",
            "ChartDomainError", "ChartDomainError"]
        for a, b, c in zip(batch, loop, formula):
            if isinstance(a, Exception):
                assert str(a) == str(b) == str(c)
            else:
                assert type(a) is float and a == b == c
        # an entry does not depend on its neighbours
        reversed_ = canonical_ricci_quadratics(cm, Xs[::-1], pts[::-1], ts[::-1])[::-1]
        assert [q for q in reversed_ if isinstance(q, float)] == [
            q for q in batch if isinstance(q, float)]


def closed_form_cases():
    """(variant, background name, params): every variant on each background it runs on."""
    for variant in VARIANTS:
        direction = DIRECTION[variant]
        for dim in (2, 3, 4, 5):
            yield variant, "round_sphere", {"dim": dim, "direction": direction}
        yield variant, "euclidean_static", {"dim": 3, "direction": direction}
        if direction == "backward":
            yield variant, "gaussian_shrinker_flat", {"dim": 3}


class TestClosedFormStacks:
    @pytest.mark.parametrize("variant, name, params", list(closed_form_cases()))
    @pytest.mark.parametrize("as_printed", [False, True])
    def test_stack_matches_pointwise_loop(self, variant, name, params, as_printed):
        bg = model_background(name, **params)
        cm = build_canonical_metric(bg, variant, 1e3)
        rng = np.random.default_rng(params["dim"])
        pts = np.array(bg.sample_points(9, rng))
        ts = rng.uniform(cm.t_min, bg.time_domain[1], 9)
        ts[-1] = bg.time_domain[1]      # the inclusive end of the domain
        stack = canonical_christoffel_closed_forms(cm, pts, ts, as_printed)
        assert stack.shape == (9,) + (params["dim"] + 1,) * 3
        for i, (p, t) in enumerate(zip(pts, ts)):
            single = canonical_christoffel_closed_form(cm, p, t, as_printed).gamma
            assert np.array_equal(stack[i], single), i
            # the pointwise form the stack replaced, to round-off
            want = ref.canonical_christoffel_closed_form(cm, p, t, as_printed)
            assert np.max(np.abs(single - want)) <= 4 * np.finfo(float).eps * np.max(np.abs(want)), i
            assert np.array_equal(canonical_christoffel_closed_forms(cm, [p], [t], as_printed)[0], single)
        # an entry does not depend on its neighbours
        reversed_ = canonical_christoffel_closed_forms(cm, pts[::-1], ts[::-1], as_printed)
        assert np.array_equal(reversed_[::-1], stack)
        assert canonical_christoffel_closed_forms(cm, [], [], as_printed).shape == (0,) + stack.shape[1:]

    def test_first_failing_pair_raises_the_pointwise_error(self):
        cm = canonical("shrinking", 3, 1e3)
        good = np.array([1.1, 0.7, 2.0])
        # a point's chart check comes before its time check
        bad = [
            ((np.array([0.005, 1.0, 1.0]), 0.3), "point [0.3   0.005 1.    1.   ] outside chart domain"),
            ((np.array([np.nan, 1.0, 1.0]), 0.3), "chart point has non-finite entries: [0.3 nan 1.  1. ]"),
            ((good, float("nan")), "chart point has non-finite entries: [nan 1.1 0.7 2. ]"),
            ((good, -0.1), "point [-0.1  1.1  0.7  2. ] outside chart domain"),
            ((good, 0.0), "point [0.  1.1 0.7 2. ] outside chart domain"),
            ((good, 1.0005), "time 1.0005 outside domain (0.0, 1.0]"),      # past T, inside the chart
            ((good, 1.5), "point [1.5 1.1 0.7 2. ] outside chart domain"),
        ]
        for (p, t), message in bad:
            with pytest.raises(ChartDomainError) as single:
                canonical_christoffel_closed_form(cm, p, t)
            assert str(single.value) == message
        pairs = [(good, 0.4), (good, 0.9)] + [pair for pair, _ in bad]
        # each pair in turn leads the remaining stack, behind good ones
        for k, (_, message) in enumerate(bad):
            rest = pairs[:2] + pairs[2 + k:]
            for as_printed in (False, True):
                with pytest.raises(ChartDomainError) as stacked:
                    canonical_christoffel_closed_forms(cm, [p for p, _ in rest], [t for _, t in rest],
                                                       as_printed)
                assert type(stacked.value) is ChartDomainError
                assert str(stacked.value) == message


class TestPolynomialPartials:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_index_table_matches_the_term_loop(self, dim, degree):
        f = random_polynomial_field(dim, np.random.default_rng(dim + 10 * degree), degree)
        oracle = ref.polynomial_partials(dim, np.random.default_rng(dim + 10 * degree), degree)
        rng = np.random.default_rng(degree)
        stack = rng.uniform(-2.0, 2.0, (7, dim))
        for order, fn in enumerate((f.value, f.d1, f.d2)):
            for p in (stack[0], stack, stack.reshape(7, 1, dim)):
                got, want = fn(p), oracle(p, order)
                assert got.shape == want.shape
                assert np.array_equal(got, want), (order, p.shape)


_LAPACK_INV = np.linalg.inv     # the references stay uncounted by ``lapack_calls``


def lapack_inverse(g):
    """The LAPACK inverse and 1-norm condition estimate that every stack once took."""
    ginv = _LAPACK_INV(g)
    return ginv, geometry._norm1(g) * geometry._norm1(ginv)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.fixture
def lapack_calls(monkeypatch):
    """The shapes of the stacks that the code under test sends to ``np.linalg.inv``."""
    calls = []

    def counting(a):
        calls.append(a.shape)
        return _LAPACK_INV(a)

    monkeypatch.setattr(np.linalg, "inv", counting)
    return calls


def catalog_metric_stacks():
    """(name, metric, points, scale) for every catalog metric, on 1,024 chart points."""
    rng = np.random.default_rng(17)
    k = 1024
    for d in (2, 3, 4, 5):
        pts = sphere_stack(d, k, rng)
        yield f"sphere{d}", unit_sphere_metric(d), pts, None
        yield f"sphere{d}-scaled", unit_sphere_metric(d), pts, rng.uniform(0.1, 3.0, k)
    for name in ("euclidean_static", "gaussian_shrinker_flat"):
        yield name, model_background(name, dim=3).conformal.sigma, rng.uniform(-2, 2, (k, 3)), None
    for variant in VARIANTS:
        for dim in (2, 3):
            cm = canonical(variant, dim, 1e3)
            yield f"{variant}{dim}", cm.field, spacetime_stack(cm, k, rng), None
    ball = flat_ball_domain()
    yield "flat-ball", ball.metric, ball.interior_points[:k], None


class TestDiagonalInverse:
    """Diagonal positive stacks are inverted entrywise, with LAPACK's bits."""

    @pytest.mark.parametrize("P", [1, 64, 1024])
    def test_catalog_stacks(self, P, lapack_calls):
        for name, metric, pts, scale in catalog_metric_stacks():
            b = metric_bundle(metric, pts[:P], order=0, scale=None if scale is None else scale[:P])
            assert len(b.g) == P, name
            ginv, cond, errors = geometry._inverse_and_condition(b.g, b.points)
            want_inv, want_cond = lapack_inverse(b.g)
            assert_same_bits(ginv, want_inv)
            assert_same_bits(cond, want_cond)
            assert errors == [None] * P
            assert_same_bits(b.ginv, want_inv)
        assert lapack_calls == []

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 7])
    def test_extreme_positive_diagonals(self, d, lapack_calls):
        rng = np.random.default_rng(d)
        P = 4096
        # one magnitude per matrix across the whole range, a spread of 1e8 inside it
        diag = 10.0 ** (rng.uniform(-300, 300, (P, 1)) + rng.uniform(-4, 4, (P, d)))
        edges = [np.finfo(float).max, np.nextafter(geometry._TINY, 1.0),
                 np.finfo(float).tiny, 1.0]
        diag = np.concatenate((diag, np.repeat(np.array(edges)[:, None], d, axis=1)))
        g = np.zeros((len(diag), d, d))
        g[:, range(d), range(d)] = diag
        pts = np.zeros((len(g), d))
        want_inv, want_cond = lapack_inverse(g)
        ginv, cond, errors = geometry._inverse_and_condition(g, pts)
        assert lapack_calls == []
        assert_same_bits(ginv, want_inv)
        assert_same_bits(cond, want_cond)
        assert not any(errors)
        for i in rng.choice(len(g), 64, replace=False).tolist() + list(range(P, len(g))):
            one, one_cond, _ = geometry._inverse_and_condition(g[i:i + 1], pts[i:i + 1])
            assert_same_bits(one, want_inv[i:i + 1])
            assert_same_bits(one_cond, want_cond[i:i + 1])

    def test_non_contiguous_stack(self, lapack_calls):
        rng = np.random.default_rng(3)
        g = np.zeros((20, 3, 3))
        g[:, range(3), range(3)] = rng.uniform(0.5, 2.0, (20, 3))
        for view in (g[::2], g.transpose(0, 2, 1), np.asfortranarray(g), g[[3, 1, 4, 1, 5]]):
            ginv, cond, _ = geometry._inverse_and_condition(view, np.zeros((len(view), 3)))
            want_inv, want_cond = lapack_inverse(np.ascontiguousarray(view))
            assert_same_bits(ginv, want_inv)
            assert_same_bits(cond, want_cond)
        assert lapack_calls == []

    def test_subnormal_entry_is_a_condition_error_without_warning(self, lapack_calls):
        g = np.array([np.diag([1.0, 1e-310, 2.0]), np.diag([1.0, 2.0, 3.0])])
        pts = np.arange(6.0).reshape(2, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ginv, errors = geometry._inverse(g, pts)
        assert lapack_calls == [(2, 3, 3)]
        assert isinstance(errors[0], DegenerateMetricError)
        assert "has condition number" in str(errors[0])
        assert errors[1] is None
        assert_same_bits(ginv[1], np.diag([1.0, 0.5, 1.0 / 3.0]))

    def test_zero_entry_is_singular(self, lapack_calls):
        g = np.array([np.diag([1.0, 2.0]), np.diag([1.0, 0.0]), np.diag([4.0, 2.0])])
        pts = np.arange(6.0).reshape(3, 2)
        ginv, errors = geometry._inverse(g, pts)
        assert lapack_calls[0] == (3, 2, 2)
        assert [e is None for e in errors] == [True, False, True]
        assert type(errors[1]) is DegenerateMetricError
        assert str(errors[1]) == f"metric at {pts[1]} is singular"
        assert_same_bits(ginv[[0, 2]], _LAPACK_INV(g[[0, 2]]))

    @pytest.mark.parametrize("entry", [-1.0, math.inf, math.nan])
    def test_negative_or_non_finite_entry_takes_lapack(self, entry, lapack_calls):
        g = np.array([np.diag([1.0, 2.0, 4.0]), np.diag([entry, 2.0, 4.0])])
        ginv, cond, errors = geometry._inverse_and_condition(g, np.zeros((2, 3)))
        assert lapack_calls == [(2, 3, 3)]
        want_inv, want_cond = lapack_inverse(g)
        assert_same_bits(ginv, want_inv)
        assert_same_bits(cond, want_cond)
        assert errors == [None, None]

    def test_one_full_matrix_sends_the_stack_to_lapack(self, lapack_calls):
        rng = np.random.default_rng(5)
        g = np.zeros((9, 4, 4))
        g[:, range(4), range(4)] = rng.uniform(0.5, 2.0, (9, 4))
        g[6, 0, 2] = g[6, 2, 0] = 0.25
        pts = rng.uniform(size=(9, 4))
        ginv, cond, errors = geometry._inverse_and_condition(g, pts)
        assert lapack_calls == [(9, 4, 4)]
        assert errors == [None] * 9
        for i in range(9):
            one, one_cond, _ = geometry._inverse_and_condition(g[i:i + 1], pts[i:i + 1])
            assert_same_bits(ginv[i:i + 1], one)
            assert_same_bits(cond[i:i + 1], one_cond)
        assert lapack_calls == [(9, 4, 4), (1, 4, 4)]    # the stack, then the full matrix alone
