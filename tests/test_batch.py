"""The batched kernel: batch independence, the pointwise reference, per-point failures."""

import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_kernel as ref
from cansol import harnack
from cansol.backgrounds import (
    extrinsic_geometry_batch,
    gradient_soliton_residual,
    model_background,
    model_mcf,
    ricci_flow_residual,
    slice_stack,
    unit_sphere_metric,
)
from cansol.canonical import (
    VARIANTS,
    CanonicalConfigError,
    build_canonical_metric,
    canonical_christoffel_closed_forms,
    canonical_ricci_quadratics,
    christoffel_crosscheck,
    limit_riccis,
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
    _at_point,
    _drop,
    _raise_first,
    christoffel,
    christoffel_batch,
    gradient_batch,
    hessian_batch,
    inverse_metric,
    metric_bundle,
    ricci_batch,
    scalar_curvature_batch,
    scalar_d1,
    tensor_norm_batch,
)
from cansol.harnack import (
    flat_ball_domain,
    lott_match_defect,
    random_polynomial_field,
    random_polynomial_gradients,
    weighted_functionals,
)
from cansol.track import (
    SpaceTimeTrack,
    build_track,
    closed_form_normal_potential,
    closed_form_second_ff,
    limit_inverse_metric,
    mcf_canonical_residual,
    mcf_canonical_sweep,
    track_stacks,
)

DIRECTION = {"expanding": "forward", "shrinking": "backward", "steady": "backward"}


def sphere_stack(d, k, rng):
    pts = np.empty((k, d))
    pts[:, : d - 1] = rng.uniform(0.3, math.pi - 0.3, (k, d - 1))
    pts[:, d - 1] = rng.uniform(0.0, 2.0 * math.pi, k)
    return pts


def canonical(variant, dim, N):
    bg = model_background("round_sphere", dim=dim, r0=1.0, direction=DIRECTION[variant])
    return build_canonical_metric(bg, variant, N)


def spd_metric(d, rng, terms=3):
    """A random non-diagonal metric A + sum_k sin(w_k . x + c_k) S_k, with its closed-form partials.

    A has eigenvalues in [1, 2] and the S_k spectral norms add up to 0.5,
    so g is positive definite with condition number at most 5 everywhere.
    """
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    A = (q * rng.uniform(1.0, 2.0, d)) @ q.T
    A = 0.5 * (A + A.T)
    S = rng.normal(size=(terms, d, d))
    S = S + S.transpose(0, 2, 1)
    S *= 0.5 / terms / np.linalg.norm(S, 2, axis=(1, 2))[:, None, None]
    w, c = rng.normal(size=(terms, d)), rng.uniform(0.0, 2.0 * math.pi, terms)

    ww = w[:, :, None] * w[:, None, :]

    def jet(p, order):
        # term by term: an einsum over the terms may round a row differently in another stack
        g, dg, ddg = A, 0.0, 0.0
        for k in range(terms):
            phase = c[k]
            for i in range(d):
                phase = phase + w[k, i] * p[..., i]
            sin, cos = np.sin(phase)[..., None], np.cos(phase)[..., None]
            g = g + sin[..., None] * S[k]
            if order:
                dg = dg + (cos * w[k])[..., None, None] * S[k]
            if order > 1:
                ddg = ddg - (sin[..., None] * ww[k])[..., None, None] * S[k]
        return (g, dg, ddg)[: order + 1]

    return MetricField(dim=d, jet=jet)


def spacetime_stack(cm, k, rng):
    T = cm.base.time_domain[1]
    ts = rng.uniform(cm.t_min, T, k)
    return np.column_stack((ts, sphere_stack(cm.base.dim, k, rng)))


def assert_stack_matches_single_points(metric, f, pts):
    """Every kernel op on the stack equals, bit for bit, the op on one-point bundles."""
    b = metric_bundle(metric, pts, order=2)
    assert b.errors == (None,) * len(pts)
    ric = ricci_batch(b)
    T = ric + hessian_batch(b, f)
    batched = {
        "d1": b.dg,
        "d2": b.ddg,
        "inverse_metric": b.ginv,
        "christoffel": christoffel_batch(b),
        "ricci": ric,
        "scalar_curvature": scalar_curvature_batch(b),
        "hessian": hessian_batch(b, f),
        "laplacian": ref.laplacian_batch(b, f),
        "gradient": gradient_batch(b, f),
        "scalar_d1": scalar_d1(f, pts),
        "tensor_norm": tensor_norm_batch(b, T),
    }
    for i, p in enumerate(pts):
        # each op on a bundle of the order it needs, as a lone point would get
        b0, b1, b2 = (_at_point(metric, p, order) for order in range(3))
        single = {
            "d1": metric_bundle(metric, p, order=2).dg[0],
            "d2": metric_bundle(metric, p, order=2).ddg[0],
            "inverse_metric": inverse_metric(metric, p),
            "christoffel": christoffel(metric, p).gamma,
            "ricci": ricci_batch(b2)[0],
            "scalar_curvature": scalar_curvature_batch(b2)[0],
            "hessian": hessian_batch(b1, f)[0],
            "laplacian": ref.laplacian_batch(b1, f)[0],
            "gradient": gradient_batch(b0, f)[0],
            "scalar_d1": scalar_d1(f, p),
            "tensor_norm": tensor_norm_batch(b0, T[i][None])[0],
        }
        for name, value in single.items():
            assert np.array_equal(batched[name][i], value), (name, i)


class TestBatchIndependence:
    @given(
        non_diagonal=st.booleans(),
        d=st.integers(2, 6),
        k=st.integers(2, 7),
        seed=st.integers(0, 2**32 - 1),
        fd=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_chart_fields(self, non_diagonal, d, k, seed, fd):
        # the non-diagonal metrics reach LAPACK's g^-1, the diagonal spheres never do
        rng = np.random.default_rng(seed)
        if non_diagonal:
            metric, pts = spd_metric(d, rng), rng.uniform(-1.0, 1.0, (k, d))
        else:
            metric, pts = unit_sphere_metric(d), sphere_stack(d, k, rng)
        f = random_polynomial_field(d, rng)
        if fd:
            metric = metric.without_analytic_derivatives()
            f = ScalarField(value=f.value)
        assert_stack_matches_single_points(metric, f, pts)

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

    # every shape of the benchmark's soliton sweep: the round sphere in dims 3
    # and 5 in each variant, and the flat steady fixture whose defect is zero
    @pytest.mark.parametrize("variant, background", [
        *((var, {"name": "round_sphere", "params": {"dim": dim, "r0": 1.0, "direction": direction}})
          for dim in (3, 5) for var, direction in (("expanding", "forward"), ("shrinking", "backward"),
                                                   ("steady", "backward"))),
        ("steady", {"name": "euclidean_static", "params": {"dim": 3, "direction": "backward"}}),
    ], ids=lambda v: v if isinstance(v, str) else f"{v['name']}{v['params']['dim']}")
    def test_sweep_records_equal_single_point_calls(self, variant, background):
        cfg = {
            "suite": "ricci_soliton_residual",
            "variant": variant,
            "background": background,
            "N_list": [1e2, 1e4],
            "samples": {"count": 7, "seed": 5},
        }
        report = run(RunConfig.from_dict(cfg))
        bg = model_background(background["name"], **background["params"])
        assert len(report.records) == 14
        for rec in report.records:
            cm = build_canonical_metric(bg, variant, rec["N"])
            s = ricci_soliton_residual(cm, np.asarray(rec["point"]), rec["t"])
            assert s.scaled_norm == rec["scaled_norm"]
            assert s.norm == rec["norm"]

    def test_quadrature_does_not_depend_on_the_chunk_size(self, monkeypatch):
        potential = model_background("gaussian_shrinker_flat", dim=3).soliton.potential(1.0)
        domains = (flat_ball_domain(potential=potential, grid=(6, 12, 4)), curved_domain())
        default = [weighted_functionals(wm) for wm in domains]
        monkeypatch.setattr(harnack, "QUADRATURE_CHUNK", 7)
        assert [weighted_functionals(wm) for wm in domains] == default


def curved_domain():
    """The (3, 5, 4) flat-ball grid under a non-diagonal curved metric, R from the engine.

    The potential is the Gaussian one.  The boundary normals are rescaled to
    unit length in that metric; the functionals take the boundary data as given.
    """
    potential = model_background("gaussian_shrinker_flat", dim=3).soliton.potential(1.0)
    ball = flat_ball_domain(potential=potential, grid=(3, 5, 4))
    metric = spd_metric(3, np.random.default_rng(8))
    nus = ball.boundary_normals
    g = metric.at(ball.boundary_points)
    nus = nus / np.sqrt(np.einsum("pa,pab,pb->p", nus, g, nus))[:, None]
    return dataclasses.replace(ball, metric=metric, boundary_normals=nus, scalar_curvature_at=None)


class TestOnePassQuadrature:
    """``weighted_functionals``: both functionals from one chunk loop."""

    def test_one_bundle_per_interior_chunk(self, monkeypatch):
        wm = curved_domain()
        orders = []

        def counting(metric, points, order=1, scale=None):
            orders.append(order)
            return metric_bundle(metric, points, order, scale)

        monkeypatch.setattr(harnack, "QUADRATURE_CHUNK", 7)
        monkeypatch.setattr(harnack, "metric_bundle", counting)
        weighted_functionals(wm)
        assert orders == [2] * math.ceil(len(wm.interior_points) / 7)

    def test_I_GHY_is_the_curvature_sum_plus_the_unweighted_boundary_sum(self, monkeypatch):
        wm = curved_domain()
        pts = wm.interior_points
        R = np.array([np.einsum("ab,ab->", ref.inverse_metric(wm.metric, p), ref.ricci(wm.metric, p))
                      for p in pts])
        assert np.abs(R).min() > 1e-3     # the curvature term is not zero
        interior = math.fsum((wm.interior_weights * R * np.exp(-wm.potential.at(pts))).tolist())
        boundary = math.fsum((2.0 * wm.boundary_weights * wm.boundary_mean_curvatures).tolist())
        monkeypatch.setattr(harnack, "QUADRATURE_CHUNK", 7)
        assert weighted_functionals(wm).I_GHY == pytest.approx(interior + boundary, rel=1e-13)

    @pytest.mark.parametrize("grid", [(2, 32, 2), (3, 5, 7), (20, 64, 8)])
    def test_flat_ball_matches_the_meshgrid_builder(self, grid):
        wm = flat_ball_domain(grid=grid)
        pts, wts, bnus, bwts = ref.flat_ball_grid(grid)
        assert_same_bits(wm.interior_points, pts)
        assert_same_bits(wm.interior_weights, wts)
        assert_same_bits(wm.boundary_points, bnus)
        assert_same_bits(wm.boundary_normals, bnus)
        assert_same_bits(wm.boundary_weights, bwts)


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
                E = ricci_soliton_residual(cm, p, t).value
                scale = N * ref.tensor_norm(cm.field, ric_ref, z)
                worst = max(worst, ref.tensor_norm(cm.field, E - E_ref, z) / scale)
        assert worst <= self.TOL, worst

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_ricci_of_a_non_diagonal_metric(self, d):
        rng = np.random.default_rng(100 + d)
        metric = spd_metric(d, rng)
        pts = rng.uniform(-1.0, 1.0, (6, d))
        ric = ricci_batch(metric_bundle(metric, pts, order=2))
        for p, value in zip(pts, ric):
            want = ref.ricci(metric, p)
            assert np.max(np.abs(value - want)) <= self.TOL * np.max(np.abs(want))
        fd = ricci_batch(metric_bundle(metric.without_analytic_derivatives(), pts, order=2))
        assert np.max(np.abs(fd - ric)) <= 1e-5 * np.max(np.abs(ric))


def degenerate_at(cm, t_singular, t_ill):
    """cm with a singular metric at time t_singular and an ill-conditioned one at t_ill.

    The jet's value part carries the defect, so the bundles of every order
    see it.
    """
    base = cm.field

    def degenerate(z, g):
        g = np.array(g)
        g[z[..., 0] == t_singular] = 0.0
        g[z[..., 0] == t_ill, 0, 0] *= 1e-20
        return g

    def jet(z, order):
        g, *partials = base.jet(z, order)
        return (degenerate(z, g), *partials)

    field = dataclasses.replace(base, jet=jet)
    return dataclasses.replace(cm, field=field)


def stack_entries(stack):
    """A ``ResidualStack`` as one entry per pair: the pair's error, or its (value, norm)."""
    out = list(stack.errors)
    for j, i in enumerate(stack.index.tolist()):
        out[i] = (stack.values[j].tolist(), float(stack.norms[j]))
    return out


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
                s = ricci_soliton_residual(cm, p, t)
            except GeometryError as exc:
                loop.append(exc)
            else:
                assert s.scaled_norm == cm.N * s.norm and s.t == t and np.array_equal(s.point, p)
                loop.append((s.value, s.norm))
        stack = ricci_soliton_residuals(cm, [p for p, _ in pairs], [t for _, t in pairs])
        assert stack.index.tolist() == [0, 6]
        batch = stack_entries(stack)
        kinds = [type(r) for r in batch]
        assert kinds == [type(r) for r in loop]
        assert kinds[1:6] == [ChartDomainError, ChartDomainError, DegenerateMetricError,
                              DegenerateMetricError, ChartDomainError]
        for a, b in zip(batch, loop):
            if isinstance(a, Exception):
                assert str(a) == str(b)
            else:
                assert np.array_equal(a[0], b[0])
                assert a[1] == b[1]
        # the valid points are unaffected by their failing neighbours
        alone = ricci_soliton_residuals(cm, [pairs[0][0], pairs[6][0]], [pairs[0][1], pairs[6][1]])
        assert alone.norms.tolist() == stack.norms.tolist()

    def test_empty_residual_stack(self):
        bg = model_background("euclidean_static", dim=3, direction="forward")
        cm = build_canonical_metric(bg, "expanding", 1e3)
        for points in ([], np.empty((0, 3))):
            stack = ricci_soliton_residuals(cm, points, [])
            assert stack.errors == [] and stack.index.size == stack.norms.size == len(stack.values) == 0

    def test_bundle_records_errors_and_skips_the_points(self):
        seen = []

        def comps(p):
            seen.append(p.copy())
            g = np.zeros(p.shape[:-1] + (2, 2))
            g[..., 0, 0] = 1.0
            g[..., 1, 1] = p[..., 0] ** 2     # singular on x = 0
            return g

        metric = MetricField(dim=2, jet=lambda p, order: (comps(p), np.zeros(p.shape + (2, 2)))[: order + 1],
                             in_domain=lambda p: p[..., 1] < 5.0)
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 9.0], [np.inf, 0.0], [2.0, 1.0]])
        b = metric_bundle(metric, pts, order=1)
        assert b.index.tolist() == [0, 4]
        assert np.array_equal(b.points, pts[[0, 4]])
        for i in (1, 2, 3):
            with pytest.raises(type(b.errors[i])) as info:
                christoffel(metric, pts[i])
            assert str(info.value) == str(b.errors[i])
        # the jet saw no point outside the chart
        assert all(np.all(s[:, 1] < 5.0) and np.all(np.isfinite(s)) for s in seen)

    def test_an_ill_conditioned_row_inside_a_stack(self):
        cm = degenerate_at(canonical("expanding", 3, 1e3), t_singular=0.071, t_ill=0.072)
        y = np.array([1.1, 0.7, 2.0])
        zs = np.array([np.concatenate(([t], y)) for t in (0.09, 0.072, 0.071, 0.11, 0.072)])
        for order in (0, 1, 2):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                b = metric_bundle(cm.field, zs, order)
            assert b.index.tolist() == [0, 3]
            assert [type(e).__name__ for e in b.errors] == [
                "NoneType", "DegenerateMetricError", "DegenerateMetricError", "NoneType",
                "DegenerateMetricError"]
            assert "condition number" in str(b.errors[1]) and "singular" in str(b.errors[2])
            assert (b.dg is None, b.ddg is None) == (order < 1, order < 2)
            # the rows kept are those of one-row bundles, partials included
            for row, i in enumerate(b.index):
                alone = metric_bundle(cm.field, zs[i], order)
                for name in ("g", "ginv", "dg", "ddg")[: 2 + order]:
                    assert np.array_equal(getattr(b, name)[row], getattr(alone, name)[0]), (order, name)

    def test_a_value_only_bundle_that_loses_every_row(self):
        # every in-chart row is ill-conditioned, so the FD stencils run on an empty stack
        metric = MetricField(
            dim=2, jet=lambda p, order: (np.zeros(p.shape[:-1] + (2, 2)) + np.diag([1.0, 1e-15]),),
            in_domain=lambda p: p[..., 0] < 5.0)
        pts = np.array([[0.0, 1.0], [9.0, 1.0], [2.0, -3.0]])
        b = metric_bundle(metric, pts, order=2)
        assert [type(e) for e in b.errors] == [DegenerateMetricError, ChartDomainError, DegenerateMetricError]
        assert b.index.tolist() == []
        assert (b.g.shape, b.dg.shape, b.ddg.shape) == ((0, 2, 2), (0, 2, 2, 2), (0, 2, 2, 2, 2))


class TestRowFilter:
    """``_drop``, the one filter that narrows a stack and records its failed rows."""

    def test_a_row_keeps_its_first_error(self):
        first, later, other = ChartDomainError("first"), DegenerateMetricError("later"), DegenerateMetricError("other")
        errors = [None, first, None, None]
        rows = np.arange(8.0).reshape(4, 2)
        # a stage over every pair fails pair 1 again, and pair 3 for the first time
        index, kept = _drop(errors, np.arange(4), [None, later, None, other], rows)
        assert errors == [None, first, None, other]
        assert index.tolist() == [0, 2] and kept.tolist() == [[0.0, 1.0], [4.0, 5.0]]
        # a later stage over the kept rows maps its row 1 back to pair 2
        index, kept = _drop(errors, index, [None, later], kept)
        assert errors == [None, first, later, other]
        assert index.tolist() == [0] and kept.tolist() == [[0.0, 1.0]]

    def test_a_none_array_stays_none(self):
        errors = [None, None]
        index, kept, absent = _drop(errors, np.arange(2), [ChartDomainError("x"), None], np.ones((2, 3)), None)
        assert index.tolist() == [1] and kept.shape == (1, 3) and absent is None
        assert _drop(errors, index, [None], None) == (index, None)

    @pytest.mark.parametrize("where", ["first", "last", "alone"])
    @pytest.mark.parametrize("container", [list, tuple])
    def test_one_failure_anywhere_is_caught(self, where, container):
        exc = ChartDomainError("the one failure")
        entries = {"first": [exc, None, None], "last": [None, None, exc], "alone": [exc]}[where]
        failed = container(entries)
        errors = [None] * len(failed)
        index, kept = _drop(errors, np.arange(len(failed)), failed, np.arange(len(failed)))
        assert errors == entries
        assert kept.tolist() == [i for i, e in enumerate(entries) if e is None]
        with pytest.raises(ChartDomainError) as info:
            _raise_first(failed)
        assert info.value is exc
        _raise_first(container([None] * 3))    # nothing failed: no raise

    def test_nothing_failed_returns_the_same_objects(self):
        # a strided stack comes back as itself, not as a contiguous copy
        errors = [None] * 3
        index = np.arange(3)
        strided = np.ones((3, 4))[:, ::2]
        out = _drop(errors, index, [None] * 3, strided, None)
        assert out[0] is index and out[1] is strided and out[2] is None
        assert errors == [None] * 3


def _raised(fn, *args):
    """The (class, message) of the error ``fn(*args)`` raises, or None."""
    try:
        fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def _recorded(errors):
    return [None if e is None else (type(e), str(e)) for e in errors]


class TestTimeValidator:
    """``_time_errors``, the one time check, and the entries that call it on a stack."""

    def test_windows_in_order(self):
        # the floor comes right after the first domain; the second domain last
        ts = [0.5, math.nan, 0.0, 0.05, 0.15, 2.5, 1.5]
        errors = geometry._time_errors(ts, (0.0, 1.0), (0.2, 2.0), floor=0.1)
        assert [None if e is None else str(e) for e in errors] == [
            None,
            "time nan outside domain (0.0, 1.0]",
            "time 0.0 outside domain (0.0, 1.0]",
            "t=0.05 below the sampling floor t_min=0.1",
            "time 0.15 outside domain (0.2, 2.0]",
            "time 2.5 outside domain (0.0, 1.0]",
            "time 1.5 outside domain (0.0, 1.0]",
        ]
        assert all(type(e) is ChartDomainError for e in errors[1:])
        assert geometry._time_errors([], (0.0, 1.0)) == []
        assert geometry._time_errors([1.0, 1e-300], (0.0, 1.0)) == [None, None]

    def test_soliton_stack_records_the_single_pair_errors(self):
        cm = canonical("shrinking", 3, 1e3)
        p = np.array([1.0, 1.2, 0.5])
        # NaN, t <= 0, past T inside the chart's overhang, below the floor, admissible
        ts = [math.nan, 0.0, -0.5, 1.0005, 0.2 * cm.t_min, 0.5]
        stack = ricci_soliton_residuals(cm, [p] * len(ts), ts)
        assert _recorded(stack.errors) == [_raised(ricci_soliton_residual, cm, p, t) for t in ts]
        assert stack.errors[-1] is None and stack.index.tolist() == [5]
        assert [kind for kind, _ in _recorded(stack.errors[:-1])] == [ChartDomainError] * 5

    @pytest.mark.parametrize("flow, direction, ts", [
        # the flow's domain (0, 0.2] lies inside the ambient's (0, 1]: 0.5 leaves the flow's only
        ("shrinking_sphere_flat", "forward", [math.nan, 0.0, -0.1, 0.5, 1.0005, 0.01, 0.1]),
        # a flow domain (0, 2] around the ambient's: 1.5 leaves the ambient's only
        ("equator_in_sphere", "backward", [math.nan, 0.0, 1.0005, 1.5, 2.5, 0.01, 0.5]),
    ])
    def test_track_stack_records_the_single_pair_errors(self, flow, direction, ts):
        mcf = _flow(flow, 3, direction)
        if flow == "equator_in_sphere":
            mcf = dataclasses.replace(mcf, time_domain=(0.0, 2.0))
        variant = "expanding" if direction == "forward" else "steady"
        track = build_track(mcf, build_canonical_metric(mcf.ambient, variant, 1e3))
        x = np.array([1.1, 0.7])
        [stack] = mcf_canonical_sweep(mcf, [track.cm], [x] * len(ts), ts)
        assert _recorded(stack.errors) == [_raised(mcf_canonical_residual, track, x, t) for t in ts]
        assert stack.errors[-1] is None and stack.index.tolist() == [len(ts) - 1]
        assert [kind for kind, _ in _recorded(stack.errors[:-1])] == [ChartDomainError] * (len(ts) - 1)

    def test_a_sweep_checks_its_times_a_fixed_number_of_times(self, monkeypatch):
        from cansol import canonical as canonical_module, cli

        calls = []
        check = geometry._time_errors
        for module in (geometry, canonical_module, cli):
            monkeypatch.setattr(module, "_time_errors", lambda *args, **kw: calls.append(1) or check(*args, **kw))
        mcf = _flow("shrinking_sphere_flat", 3, "forward")
        cms = [build_canonical_metric(mcf.ambient, "expanding", N) for N in (1e2, 1e4)]
        rng = np.random.default_rng(5)
        counts = []
        for P in (4, 64):
            calls.clear()
            # some of the times fall below the floor
            ts = rng.uniform(0.5 * cms[0].t_min, mcf.time_domain[1], P).tolist()
            stacks = mcf_canonical_sweep(mcf, cms, mcf.sample_xs(P, rng), ts)
            assert all(len(s.errors) == P for s in stacks)
            counts.append(len(calls))
        # the door checks every window at once; the slices and the track bundles trust its rows
        assert counts == [1, 1]


def stacked_entries():
    """Each stacked entry as (chart dimension, call on (points, ts), count of pairs in its result,
    per-pair errors of its result, or None for an entry that raises the first)."""
    sphere = model_background("round_sphere", dim=3, r0=1.0, direction="forward")
    flat = model_background("euclidean_static", dim=3, direction="forward")
    mcf = model_mcf("shrinking_sphere_flat", flat, r0=1.0)
    cm = build_canonical_metric(sphere, "expanding", 1e3)
    track_cm = build_canonical_metric(flat, "expanding", 1e3)

    def good(ts):
        return np.full((len(ts), 3), 1.0)

    def errors(out):
        return out.errors

    return {
        "bundle": (3, sphere.bundle, lambda out: len(out.errors), errors),
        "curvature": (3, sphere.curvature, lambda out: max(len(a) for a in out), None),
        "slice_stack": (2, lambda xs, ts: slice_stack(mcf, xs, ts), lambda out: len(out.errors), errors),
        "mcf_canonical_sweep": (2, lambda xs, ts: mcf_canonical_sweep(mcf, [track_cm], xs, ts),
                                lambda out: len(out[0].errors), lambda out: out[0].errors),
        "ricci_soliton_residuals": (3, lambda ps, ts: ricci_soliton_residuals(cm, ps, ts),
                                    lambda out: len(out.errors), errors),
        "canonical_ricci_quadratics": (3, lambda ps, ts: canonical_ricci_quadratics(cm, good(ts), ps, ts), len, list),
        "canonical_ricci_quadratics X": (3, lambda Xs, ts: canonical_ricci_quadratics(cm, Xs, good(ts), ts), len, list),
        "limit_riccis": (3, lambda ps, ts: limit_riccis(sphere, good(ts), ps, ts), len, list),
        "limit_riccis X": (3, lambda Xs, ts: limit_riccis(sphere, Xs, good(ts), ts), len, list),
        "canonical_christoffel_closed_forms": (3, lambda ps, ts: canonical_christoffel_closed_forms([cm], ps, ts),
                                               None, None),
    }


class TestPairing:
    """``geometry._door`` checks the pairing first: every stacked entry refuses a mispaired stack."""

    ENTRIES = stacked_entries()

    @staticmethod
    def rows(count, dim):
        return np.random.default_rng(count).uniform(0.5, 1.5, (count, dim))

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_a_count_mismatch_is_a_geometry_error(self, entry):
        dim, call, *_ = self.ENTRIES[entry]
        with pytest.raises(GeometryError) as info:
            call(self.rows(2, dim), [0.1, 0.15, 0.2])
        assert type(info.value) is GeometryError and str(info.value) == f"3 times for 2 {self.row(entry)}s"

    @staticmethod
    def row(entry):
        """What the error calls the rows of the stack under test."""
        return "vector" if entry.endswith(" X") else "point"

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_a_wrong_dimension_is_a_chart_domain_error(self, entry):
        dim, call, *_ = self.ENTRIES[entry]
        for count, times in ((2, [0.1, 0.15]), (1, [0.1])):
            with pytest.raises(ChartDomainError, match=f"^{self.row(entry)} has dimension {dim + 1}, chart has {dim}$"):
                call(self.rows(count, dim + 1), times)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_rows_that_a_reshape_would_reinterpret_are_refused(self, entry):
        # 6 coordinates fill the (6 / dim, dim) stack that the times ask for,
        # but the rows have dimension 6 / dim: the same error, not a result.
        # Among them, three 2-d points for a 3-d canonical metric at two
        # times, and two 3-d x rows for a 2-d flow at three.
        dim, call, *_ = self.ENTRIES[entry]
        times = [0.1, 0.15, 0.2][: 6 // dim]
        with pytest.raises(ChartDomainError, match=f"^{self.row(entry)} has dimension {6 // dim}, chart has {dim}$"):
            call(self.rows(dim, 6 // dim), times)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_times_must_be_one_dimensional(self, entry):
        dim, call, *_ = self.ENTRIES[entry]
        with pytest.raises(GeometryError, match=r"^times must have shape \(P,\), got \(2, 1\)$"):
            call(self.rows(2, dim), [[0.1], [0.15]])

    @pytest.mark.parametrize("entry", [e for e, (_, _, size, _) in ENTRIES.items() if size is not None])
    def test_an_empty_stack_gives_an_empty_result(self, entry):
        dim, call, size, _ = self.ENTRIES[entry]
        for empty in ([], np.empty((0, dim))):
            assert size(call(empty, [])) == 0

    # points outside the chart: a non-finite one in any chart, one in the pole band of the 3-sphere's
    OUTSIDE = {2: ([math.nan, 1.0],), 3: ([1.0, math.nan, 1.0], [0.0, 1.0, 1.0])}

    @pytest.mark.parametrize("entry", [e for e in ENTRIES if not e.endswith(" X")])
    def test_a_point_outside_the_chart_is_a_chart_domain_error(self, entry):
        dim, call, _, errors = self.ENTRIES[entry]
        for bad in self.OUTSIDE[dim]:
            rows, times = np.vstack((self.rows(1, dim), [bad], self.rows(1, dim))), [0.1, 0.15, 0.2]
            if errors is None:
                with pytest.raises(ChartDomainError):
                    call(rows, times)
            else:
                got = errors(call(rows, times))
                assert [isinstance(e, Exception) for e in got] == [False, True, False], bad
                assert type(got[1]) is ChartDomainError

    def test_the_closed_forms_keep_their_config_error_for_no_samples(self):
        _, call, *_ = self.ENTRIES["canonical_christoffel_closed_forms"]
        for empty in ([], np.empty((0, 3))):
            with pytest.raises(CanonicalConfigError, match=r"no \(p, t\) samples"):
                call(empty, [])


class TestOneDoor:
    """``geometry._door``: every entry checks a (point, time) pair in one order and gives it one error."""

    @staticmethod
    def first(errors):
        """The (class, message) of the one entry of a one-pair result, or None for a value."""
        [e] = errors
        return (type(e), str(e)) if isinstance(e, Exception) else None

    def test_one_pair_one_error(self):
        bg = model_background("round_sphere", dim=3, r0=1.0, direction="forward")
        cm = build_canonical_metric(bg, "expanding", 1e3)
        T = bg.time_domain[1]
        good, t = np.array([1.1, 0.7, 2.0]), 0.5 * T
        assert cm.t_min < t
        X = np.ones(3)
        entries = {
            "bundle": lambda p, t: self.first(bg.bundle([p], [t]).errors),
            "curvature": lambda p, t: _raised(bg.curvature, [p], [t]),
            "dt_metric_at": lambda p, t: _raised(bg.dt_metric_at, p, t),
            "ricci_soliton_residuals": lambda p, t: self.first(ricci_soliton_residuals(cm, [p], [t]).errors),
            "canonical_ricci_quadratics": lambda p, t: self.first(canonical_ricci_quadratics(cm, [X], [p], [t])),
            "limit_riccis": lambda p, t: self.first(limit_riccis(bg, [X], [p], [t])),
            "canonical_christoffel_closed_forms": lambda p, t: _raised(canonical_christoffel_closed_forms, [cm], [p], [t]),
            "christoffel_crosscheck": lambda p, t: _raised(christoffel_crosscheck, [cm], [(p, t)]),
        }
        # each pair's time window first, then its point p, whatever the entry
        cases = [
            ((good, math.nan), f"time nan outside domain (0.0, {T}]"),
            ((good, 0.0), f"time 0.0 outside domain (0.0, {T}]"),
            ((good, -0.1), f"time -0.1 outside domain (0.0, {T}]"),
            ((good, T * (1 + 5e-4)), f"time {T * (1 + 5e-4)} outside domain (0.0, {T}]"),   # inside the chart's overhang
            ((good, 1.5 * T), f"time {1.5 * T} outside domain (0.0, {T}]"),
            ((np.array([0.0, 1.0, 1.0]), t), "point [0. 1. 1.] outside chart domain"),           # the pole band
            ((np.array([1.0, math.nan, 1.0]), t), "chart point has non-finite entries: [ 1. nan  1.]"),
        ]
        for (p, t_bad), message in cases:
            got = {name: entry(p, t_bad) for name, entry in entries.items()}
            assert got == dict.fromkeys(entries, (ChartDomainError, message)), (p, t_bad)
        assert {name: entry(good, t) for name, entry in entries.items()} == dict.fromkeys(entries)


class TestCallbackContract:
    def test_per_point_shape_only_from_a_single_point(self):
        metric = MetricField(dim=2, jet=lambda p, order: (np.eye(2), np.zeros((2, 2, 2)))[: order + 1])
        assert np.array_equal(inverse_metric(metric, np.zeros(2)), np.eye(2))
        assert np.array_equal(christoffel(metric, np.zeros(2)).gamma, np.zeros((2, 2, 2)))
        for pts in (np.zeros((2, 2)), np.zeros((3, 2))):
            with pytest.raises(GeometryError, match="metric callback returned shape"):
                metric_bundle(metric, pts)
        # on a flat metric the Hessian is the d2 callback's matrix
        f = ScalarField(value=lambda p: np.zeros(len(p)), d2=lambda p: np.eye(2))
        assert np.array_equal(hessian_batch(_at_point(metric, np.zeros(2), 1), f)[0], np.eye(2))
        flat = MetricField(dim=2, jet=lambda p, order: (np.zeros((len(p), 2, 2)) + np.eye(2),))
        with pytest.raises(GeometryError, match="scalar d2 callback returned shape"):
            hessian_batch(metric_bundle(flat, np.zeros((2, 2)), order=1), f)

    def test_one_jet_call_per_bundle(self):
        # a bundle calls the jet once, on the valid points, at its own order; a
        # value-only jet is then called once per FD stencil, at order 0
        def counted(field):
            inner = field.jet

            def jet(p, order):
                seen.append((order, p.copy()))
                return inner(p, order)

            return dataclasses.replace(field, jet=jet)

        sigma = unit_sphere_metric(3)
        pts = sphere_stack(3, 4, np.random.default_rng(3))
        seen, g = [], []
        for order in (0, 1, 2):
            for field, want in [(counted(sigma), [order]),
                                (counted(sigma.without_analytic_derivatives()), [order] + [0] * order)]:
                seen.clear()
                b = metric_bundle(field, np.vstack((pts, [[0.0, 1.0, 1.0]])), order)
                assert [o for o, _ in seen] == want
                assert np.array_equal(seen[0][1], pts)
                assert b.index.tolist() == [0, 1, 2, 3]
                g.append(b.g)
        assert all(np.array_equal(a, g[0]) for a in g)

    def test_a_jet_answers_the_value_or_every_order_asked(self):
        sigma = unit_sphere_metric(3)
        short = dataclasses.replace(sigma, jet=lambda p, order: sigma.jet(p, order)[:2])
        pts = sphere_stack(3, 2, np.random.default_rng(4))
        assert np.array_equal(metric_bundle(short, pts, 1).dg, metric_bundle(sigma, pts, 1).dg)
        with pytest.raises(GeometryError, match="returned 2 entries at order 2"):
            metric_bundle(short, pts, 2)

    def test_the_fd_backend_keeps_its_bits(self):
        # digest of the sphere's FD bundle taken before the FD backend became a
        # value-only jet
        pts = np.array([[0.4, 1.1, 2.0], [1.3, 0.7, 5.5], [2.2, 2.9, 0.3], [1.0, 1.6, 4.1]])
        b = metric_bundle(unit_sphere_metric(3).without_analytic_derivatives(), pts, 2)
        h = hashlib.sha256()
        for a in (b.g, b.ginv, b.dg, b.ddg):
            h.update(np.ascontiguousarray(a).tobytes())
        assert h.hexdigest() == "d5873d2a7f555b480791c04633e37de15448b497a89a5b4a8b89d042c1d5662a"

    def test_wrong_leading_axis_raises(self):
        metric = MetricField(dim=2, jet=lambda p, order: (np.zeros((len(p) + 1, 2, 2)),))
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
    """Per pair: the error ``fn`` raises, or the (value, norm) of its sample, whose other fields are checked."""
    out = []
    for x, t in zip(xs, ts):
        try:
            s = fn(track, x, t)
        except Exception as exc:
            out.append(exc)
        else:
            assert (s.t, s.N, s.scaled_norm) == (t, track.cm.N, track.cm.N * s.norm)
            assert np.array_equal(s.point, x)
            out.append((s.value, s.norm))
    return out


def assert_same_entries(batch, loop):
    assert [type(r) for r in batch] == [type(r) for r in loop]
    for a, b in zip(batch, loop):
        if isinstance(a, Exception):
            assert str(a) == str(b)
        else:
            assert a == b


def one_metric_sweep(track, xs, ts):
    """``mcf_canonical_sweep`` of the track's flow in the track's metric alone, one entry per pair."""
    [stack] = mcf_canonical_sweep(track.mcf, [track.cm], xs, ts)
    return stack_entries(stack)


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
            kinds = {ChartDomainError, DegenerateMetricError}
        else:
            # the equator's image leaves the sphere chart in the pole band
            xs.append(np.concatenate(([0.005], good[1:])))
            kinds = {ChartDomainError}
        ts.append(float(np.mean(mcf.time_domain)))
        batch = one_metric_sweep(track, xs, ts)
        loop = _pointwise_loop(mcf_canonical_residual, track, xs, ts)
        assert_same_entries(batch, loop)
        assert {type(r) for r in batch if isinstance(r, Exception)} == kinds
        assert sum(not isinstance(r, Exception) for r in batch) >= 10
        # a pair's entry does not depend on its neighbours
        assert_same_entries(one_metric_sweep(track, xs[::-1], ts[::-1]), batch[::-1])

    def test_degenerate_track_is_a_per_pair_error(self):
        mcf = _flow("shrinking_sphere_flat", 3, "forward")
        # at N = 1e8 the time leg dominates the track metric near the time floor
        track = build_track(mcf, build_canonical_metric(mcf.ambient, "expanding", 1e8))
        xs = [np.array([0.1, 0.3]), np.array([1.1, 0.7])]
        ts = [0.05, 0.15]
        batch = one_metric_sweep(track, xs, ts)
        assert isinstance(batch[0], DegenerateMetricError)
        assert str(batch[0]) == "degenerate induced metric"
        assert_same_entries(batch, _pointwise_loop(mcf_canonical_residual, track, xs, ts))

    def test_empty_and_all_failing_stacks(self):
        mcf = _flow("shrinking_sphere_flat", 3, "forward")
        track = build_track(mcf, build_canonical_metric(mcf.ambient, "expanding", 1e4))
        assert one_metric_sweep(track, np.empty((0, 2)), []) == []
        below = one_metric_sweep(track, [np.array([1.1, 0.7])] * 2, [0.001, 0.002])
        assert [type(r).__name__ for r in below] == ["ChartDomainError"] * 2

    @pytest.mark.parametrize("variant, flow, Ns", [
        # at N = 1e8 the pair (x0, t_min) has a degenerate track metric, which
        # must not leak into the metrics after it
        ("expanding", "shrinking_sphere_flat", (1e2, 1e8, 1e4)),
        ("steady", "equator_in_sphere", (1e2, 1e4, 1e6)),
    ])
    def test_sweep_matches_one_track_per_N(self, variant, flow, Ns):
        mcf = _flow(flow, 3, DIRECTION[variant])
        cms = [build_canonical_metric(mcf.ambient, variant, N) for N in Ns]
        t_min = cms[0].t_min
        rng = np.random.default_rng(13)
        xs = mcf.sample_xs(16, rng)
        ts = list(rng.uniform(t_min, mcf.time_domain[1], 16))
        good = np.array([0.1, 0.3])
        # a NaN point, a NaN time, a time below the floor, the degenerate pair
        xs += [np.full(2, np.nan), good, good, good]
        ts += [ts[0], math.nan, 0.5 * t_min, t_min]
        # a polar angle of 1e-7 degenerates the flat slice; 0.005 takes the
        # equator's image out of the sphere chart
        xs.append(np.array([1e-7 if flow == "shrinking_sphere_flat" else 0.005, 0.3]))
        ts.append(float(np.mean(mcf.time_domain)))
        sweep = [stack_entries(stack) for stack in mcf_canonical_sweep(mcf, cms, xs, ts)]
        assert len(sweep) == len(cms)
        for cm, entries in zip(cms, sweep):
            assert_same_entries(entries, one_metric_sweep(build_track(mcf, cm), xs, ts))
            assert sum(not isinstance(r, Exception) for r in entries) >= 16
        kinds = [{type(r) for r in entries if isinstance(r, Exception)} for entries in sweep]
        if flow == "shrinking_sphere_flat":
            assert kinds == [{ChartDomainError, DegenerateMetricError}] * 3
            assert [isinstance(entries[-2], DegenerateMetricError) for entries in sweep] == [False, True, False]
            assert all(isinstance(entries[-1], DegenerateMetricError) for entries in sweep)
        else:
            assert kinds == [{ChartDomainError}] * 3

    @pytest.mark.parametrize("variant, flow", [("expanding", "shrinking_sphere_flat"), ("steady", "equator_in_sphere")])
    def test_track_stacks_match_one_track_per_N(self, monkeypatch, variant, flow):
        from cansol import track as track_module

        mcf = _flow(flow, 3, DIRECTION[variant])
        cms = [build_canonical_metric(mcf.ambient, variant, N) for N in (1e3, 2e3, 4e3)]
        rng = np.random.default_rng(3)
        xs, ts = mcf.sample_xs(3, rng), rng.uniform(cms[0].t_min, mcf.time_domain[1], 3)
        singles = [track_stacks(mcf, [cm], xs, ts)[0] for cm in cms]
        calls = []
        slice_stack = track_module._slice_stack
        monkeypatch.setattr(track_module, "_slice_stack", lambda *args: calls.append(1) or slice_stack(*args))
        stacks = track_stacks(mcf, cms, xs, ts)
        # one slice serves every metric, and each stack carries its own metric
        assert calls == [1] and all(stack.slices is stacks[0].slices for stack in stacks)
        assert [stack.cm for stack in stacks] == cms
        for got, want in zip(stacks, singles):
            assert got.index.tolist() == want.index.tolist() == [0, 1, 2]
            for name in ("z", "g", "basis", "sigma_N"):
                assert_same_bits(getattr(got, name), getattr(want, name))
            for a, b in zip(got.ext + got.slices.ext, want.ext + want.slices.ext):
                assert_same_bits(a, b)
        assert track_stacks(mcf, [], xs, ts) == []

    def test_track_stacks_keep_each_metrics_errors(self):
        mcf = _flow("shrinking_sphere_flat", 3, "forward")
        # at N = 1e8 the track metric at (x0, t_min) is degenerate; N = 1e2 is not
        cms = [build_canonical_metric(mcf.ambient, "expanding", N) for N in (1e2, 1e8)]
        x0 = np.array([0.1, 0.3])
        stacks = track_stacks(mcf, cms, [x0, x0], [cms[0].t_min, 0.5 * cms[0].t_min])
        [ok, low], [degenerate, low_too] = (stack.errors for stack in stacks)
        assert ok is None and stacks[0].index.tolist() == [0]
        assert isinstance(degenerate, DegenerateMetricError) and str(degenerate) == "degenerate induced metric"
        assert stacks[1].index.tolist() == []
        # the slice's error is every metric's
        assert low is low_too and isinstance(low, ChartDomainError) and "below the sampling floor" in str(low)

    def test_sweep_rejects_a_metric_on_another_background(self):
        mcf = _flow("equator_in_sphere", 3, "backward")
        twin = model_background("round_sphere", dim=3, r0=1.0, direction="backward")
        cms = [build_canonical_metric(b, "steady", 1e4) for b in (mcf.ambient, twin)]
        with pytest.raises(CanonicalConfigError, match="other than the flow's ambient"):
            mcf_canonical_sweep(mcf, cms, mcf.sample_xs(2, np.random.default_rng(0)), [0.5, 0.6])
        # a track is checked when it is made, so a one-row call never meets an unchecked pairing
        with pytest.raises(CanonicalConfigError, match="other than the flow's ambient"):
            SpaceTimeTrack(mcf, cms[1])
        assert mcf_canonical_sweep(mcf, [], [np.array([1.0, 2.0])], [0.5]) == []

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
            loop += canonical_ricci_quadratics(cm, [X], [p], [t])
            if t > cm.base.time_domain[1]:
                # past the time domain: the error the residuals record there
                formula += ricci_soliton_residuals(cm, [p], [t]).errors
                continue
            try:
                # the pointwise form the stack replaced
                Xbar = np.concatenate(([1.0], X))
                ric = ricci_batch(_at_point(cm.field, cm.spacetime_point(p, t), 2))[0]
                formula.append(float(Xbar @ ric @ Xbar))
            except GeometryError as exc:
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

    def test_times_are_checked_as_by_the_residuals(self):
        # 1.0005 lies past the time domain but inside the chart's overhang, 0.01 below the sampling floor
        cm = build_canonical_metric(model_background("euclidean_static", dim=3, direction="forward", T=1.0),
                                    "expanding", 1e3)
        ts = [1.0005, 0.5, 0.01]
        quads = canonical_ricci_quadratics(cm, np.ones((3, 3)), np.zeros((3, 3)), ts)
        residuals = ricci_soliton_residuals(cm, np.zeros((3, 3)), ts).errors
        assert type(quads[1]) is float
        for q, r in zip(quads[::2], residuals[::2]):
            assert type(q) is type(r) is ChartDomainError and str(q) == str(r)

    def test_empty_stack(self):
        cm = canonical("expanding", 3, 2e3)
        assert canonical_ricci_quadratics(cm, [], [], []) == []
        assert canonical_ricci_quadratics(cm, np.empty((0, 3)), np.empty((0, 3)), []) == []


class TestLimitRicciStacks:
    @pytest.mark.parametrize("name, params", [
        ("round_sphere", {"dim": 3, "r0": 1.0}), ("round_sphere", {"dim": 5, "r0": 1.0}),
        ("euclidean_static", {"dim": 3}),
    ])
    def test_stack_matches_pointwise_loop(self, name, params):
        bg = model_background(name, direction="forward", **params)
        rng = np.random.default_rng(params["dim"])
        T = bg.time_domain[1]
        pts = list(bg.sample_points(12, rng))
        ts = list(rng.uniform(0.05 * T, T, 12))
        Xs = list(rng.uniform(-1.0, 1.0, (12, bg.dim)))
        # past the time domain, and at or below its open end
        for t in (2.0 * T, 0.0, -T):
            pts.insert(4, pts[0])
            ts.insert(4, t)
            Xs.insert(4, Xs[0])
        batch = limit_riccis(bg, Xs, pts, ts)
        # each triple alone, as a one-row stack
        loop = [limit_riccis(bg, [X], [p], [t])[0] for X, p, t in zip(Xs, pts, ts)]
        assert [type(v) for v in batch] == [type(v) for v in loop]
        assert [type(v).__name__ for v in batch[4:7]] == ["ChartDomainError"] * 3
        for a, b in zip(batch, loop):
            assert str(a) == str(b) if isinstance(a, Exception) else type(a) is float and a == b
        # Ric(X, X) is the term under test on the sphere, zero on the flat background
        c = bg.curvature(pts[:1], ts[:1])
        assert (float(Xs[0] @ c.ric[0] @ Xs[0]) != 0.0) == (name == "round_sphere")
        # an entry does not depend on its neighbours
        assert limit_riccis(bg, Xs[::-1], pts[::-1], ts[::-1])[::-1][7:] == batch[7:]

    def test_one_curvature_call_and_empty_stack(self, monkeypatch):
        bg = model_background("round_sphere", dim=3, r0=1.0, direction="forward")
        calls = []
        curvature = type(bg)._curvature
        monkeypatch.setattr(type(bg), "_curvature", lambda *args: calls.append(1) or curvature(*args))
        rng = np.random.default_rng(0)
        assert len(limit_riccis(bg, rng.uniform(-1, 1, (6, 3)), bg.sample_points(6, rng), [0.1] * 6)) == 6
        assert limit_riccis(bg, np.empty((0, 3)), np.empty((0, 3)), []) == []
        assert calls == [1, 1]

    def test_backward_background_is_a_config_error(self):
        bg = model_background("round_sphere", dim=3, r0=1.0, direction="backward")
        with pytest.raises(CanonicalConfigError, match="needs a forward background"):
            limit_riccis(bg, [np.zeros(3)], [np.ones(3)], [0.1])


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

        def table(points, times):
            # the (derived, printed) pair of the one metric, at the table under test
            [pair] = canonical_christoffel_closed_forms([cm], points, times)
            return pair[as_printed]

        stack = table(pts, ts)
        assert stack.shape == (9,) + (params["dim"] + 1,) * 3
        for i, (p, t) in enumerate(zip(pts, ts)):
            [single] = table([p], [t])
            assert np.array_equal(stack[i], single), i
            # the pointwise form the stack replaced, to round-off
            want = ref.canonical_christoffel_closed_form(cm, p, t, as_printed)
            assert np.max(np.abs(single - want)) <= 4 * np.finfo(float).eps * np.max(np.abs(want)), i
        # an entry does not depend on its neighbours
        assert np.array_equal(table(pts[::-1], ts[::-1])[::-1], stack)

    def test_first_failing_pair_raises_the_pointwise_error(self):
        cm = canonical("shrinking", 3, 1e3)
        good = np.array([1.1, 0.7, 2.0])
        # a pair's time check comes before its chart check, which reads the point p
        bad = [
            ((np.array([0.005, 1.0, 1.0]), 0.3), "point [0.005 1.    1.   ] outside chart domain"),
            ((np.array([np.nan, 1.0, 1.0]), 0.3), "chart point has non-finite entries: [nan  1.  1.]"),
            ((good, float("nan")), "time nan outside domain (0.0, 1.0]"),
            ((good, -0.1), "time -0.1 outside domain (0.0, 1.0]"),
            ((good, 0.0), "time 0.0 outside domain (0.0, 1.0]"),
            ((good, 1.0005), "time 1.0005 outside domain (0.0, 1.0]"),      # past T, inside the chart
            ((good, 1.5), "time 1.5 outside domain (0.0, 1.0]"),
        ]
        for (p, t), message in bad:
            with pytest.raises(ChartDomainError) as single:
                canonical_christoffel_closed_forms([cm], [p], [t])
            assert str(single.value) == message
        pairs = [(good, 0.4), (good, 0.9)] + [pair for pair, _ in bad]
        # each pair in turn leads the remaining stack, behind good ones; the
        # cross-check has the same door
        for k, (_, message) in enumerate(bad):
            rest = pairs[:2] + pairs[2 + k:]
            for call in (lambda: canonical_christoffel_closed_forms([cm], [p for p, _ in rest], [t for _, t in rest]),
                         lambda: christoffel_crosscheck([cm], rest)):
                with pytest.raises(ChartDomainError) as stacked:
                    call()
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

    @pytest.mark.parametrize("dim", [2, 3, 5])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_coefficient_stack_pass_equals_each_fields_differential(self, dim, degree):
        p = np.random.default_rng(dim).uniform(-2.0, 2.0, dim)
        coeffs = np.random.default_rng(degree).uniform(-1, 1, (9, math.comb(dim + degree, degree)))
        grads = harnack._polynomial_partials(coeffs, p, dim, degree, 1)
        # one draw of the whole stack gives the coefficients of successive fields
        rng = np.random.default_rng(degree)
        fields = [random_polynomial_field(dim, rng, degree) for _ in range(9)]
        assert grads.shape == (9, dim)
        for row, f in zip(grads, fields):
            assert_same_bits(row, scalar_d1(f, p))

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_gradient_pass_equals_each_fields_differential(self, dim):
        p = np.random.default_rng(dim).uniform(-2.0, 2.0, dim)
        grads = random_polynomial_gradients(dim, np.random.default_rng(dim), 9, p)
        rng = np.random.default_rng(dim)
        fields = [random_polynomial_field(dim, rng) for _ in range(9)]
        assert grads.shape == (9, dim)
        for row, f in zip(grads, fields):
            assert_same_bits(row, scalar_d1(f, p))

    def test_defects_from_the_gradient_pass_equal_the_fields(self):
        bg = model_background("euclidean_static", dim=3, direction="forward")
        hyp = slice_stack(model_mcf("shrinking_sphere_flat", bg, r0=1.0), [[1.1, 0.7]] * 16, [0.1] * 16)
        p = hyp.jet[0][0]
        grads = random_polynomial_gradients(3, np.random.default_rng(5), 16, p)
        rng = np.random.default_rng(5)
        fields = [scalar_d1(random_polynomial_field(3, rng), p) for _ in range(16)]
        assert_same_bits(lott_match_defect(hyp, grads), lott_match_defect(hyp, fields))


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

    def test_overflowing_estimate_is_a_condition_error_without_warning(self, lapack_calls):
        # max(d) * max(1/d) = 1e300 * 1e300 overflows to inf in the middle row only
        g = np.array([np.diag([1.0, 2.0]), np.diag([1e-300, 1e300]), np.diag([4.0, 2.0])])
        pts = np.arange(6.0).reshape(3, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ginv, errors = geometry._inverse(g, pts)
        assert lapack_calls == []
        assert errors[0] is None and errors[2] is None
        assert type(errors[1]) is DegenerateMetricError
        assert str(errors[1]) == f"metric at {pts[1]} has condition number inf (limit 1e+12)"
        want_inv, _ = lapack_inverse(g[[0, 2]])
        assert_same_bits(ginv[[0, 2]], want_inv)
        _, cond, _ = geometry._inverse_and_condition(g[[0, 2]], pts[[0, 2]])
        _, with_middle, _ = geometry._inverse_and_condition(g, pts)
        assert_same_bits(with_middle[[0, 2]], cond)

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


def full_contraction_hessian(b, f):
    """d_a d_b f - 1/2 (grad f)^d bracket[d, a, b], symmetrized: the Hessian with its connection term."""
    ddf = geometry._partials(f.d2, f.value, b.points, 2, (), "scalar")
    grad = gradient_batch(b, f)
    return geometry._symmetrized(ddf - 0.5 * np.einsum("pd,pdab->pab", grad, geometry._bracket(b.dg)))


class TestZeroConnectionHessian:
    """On a stack whose metric partials all vanish, the Hessian leaves out the connection term."""

    @pytest.mark.parametrize("P", [1, 1024, 1025])
    @pytest.mark.parametrize("fd", [False, True])
    def test_flat_bundles_keep_the_bits_of_the_full_contraction(self, P, fd):
        rng = np.random.default_rng(P)
        flat = model_background("euclidean_static", dim=3).conformal.sigma
        metric = flat.without_analytic_derivatives() if fd else flat
        gauss = model_background("gaussian_shrinker_flat", dim=3).soliton.potential(1.0)
        # every octant, so gradients of every sign and their signed-zero products
        pts = rng.uniform(-2.0, 2.0, (P, 3))
        pts[0] = [-1.5, -0.5, -0.25]
        b = metric_bundle(metric, pts, order=1)
        assert not b.dg.any()
        for f in (ScalarField.constant(0.0), gauss, random_polynomial_field(3, rng)):
            grad = gradient_batch(b, f)
            assert (grad < 0).any() or not grad.any()
            want = full_contraction_hessian(b, f)
            assert_same_bits(hessian_batch(b, f), want)
            assert_same_bits(hessian_batch(b, f, grad), want)

    def test_a_curved_stack_keeps_its_connection_term(self):
        rng = np.random.default_rng(4)
        b = metric_bundle(unit_sphere_metric(3), sphere_stack(3, 64, rng), order=1)
        f = random_polynomial_field(3, rng)
        assert b.dg.any()
        hess = hessian_batch(b, f)
        assert_same_bits(hess, full_contraction_hessian(b, f))
        ddf = geometry._partials(f.d2, f.value, b.points, 2, (), "scalar")
        assert not np.array_equal(hess, geometry._symmetrized(ddf))


class TestCheckedAtTheDoor:
    """Each entry checks its rows once, at its door; the soliton kernel forms the metric bracket once."""

    @staticmethod
    def validator_calls(monkeypatch, name):
        """A list that grows by one at each call of the validator ``geometry.<name>``, from any module."""
        from cansol import backgrounds, canonical as canonical_module, track as track_module

        calls = []
        check = getattr(geometry, name)
        for module in (geometry, backgrounds, canonical_module, track_module):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, lambda *args, **kw: calls.append(1) or check(*args, **kw))
        return calls

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_one_point_check_per_crosscheck(self, monkeypatch, variant):
        bg = canonical(variant, 3, 1.0).base
        cms = [build_canonical_metric(bg, variant, N) for N in (1e2, 1e3, 1e4)]
        cms[1] = dataclasses.replace(cms[1], field=cms[1].field.without_analytic_derivatives())
        rng = np.random.default_rng(11)
        samples = list(zip(sphere_stack(3, 8, rng), rng.uniform(cms[0].t_min, bg.time_domain[1], 8)))
        calls = self.validator_calls(monkeypatch, "_point_errors")
        assert len(christoffel_crosscheck(cms, samples)) == 3
        # the door checks the stack once for the three engines and the closed forms
        assert len(calls) == 1

    @pytest.mark.parametrize("entry", stacked_entries())
    def test_one_door_per_entry_call(self, monkeypatch, entry):
        dim, call, *_ = stacked_entries()[entry]
        calls = self.validator_calls(monkeypatch, "_door")
        call(TestPairing.rows(3, dim), [0.1, 0.15, 0.12])
        assert len(calls) == 1

    def test_one_door_per_sweep_over_several_metrics(self, monkeypatch):
        mcf = _flow("shrinking_sphere_flat", 3, "forward")
        cms = [build_canonical_metric(mcf.ambient, "expanding", N) for N in (1e2, 1e3, 1e4)]
        bg = canonical("expanding", 3, 1.0).base
        sphere_cms = [build_canonical_metric(bg, "expanding", N) for N in (1e2, 1e3, 1e4)]
        rng = np.random.default_rng(12)
        pts, ts = sphere_stack(3, 4, rng), rng.uniform(sphere_cms[0].t_min, bg.time_domain[1], 4)
        calls = self.validator_calls(monkeypatch, "_door")
        for sweep in (lambda: mcf_canonical_sweep(mcf, cms, mcf.sample_xs(4, rng), [0.1] * 4),
                      lambda: canonical_christoffel_closed_forms(sphere_cms, pts, ts),
                      lambda: christoffel_crosscheck(sphere_cms, list(zip(pts, ts)))):
            calls.clear()
            assert len(sweep()) == 3
            assert len(calls) == 1

    @pytest.mark.parametrize("residual", ["ricci_flow", "gradient_soliton"])
    def test_one_door_per_background_residual(self, monkeypatch, residual):
        # the time derivative of the Ricci-flow residual reads the bundle's checked row
        if residual == "ricci_flow":
            bg = model_background("round_sphere", dim=3, r0=1.0, direction="forward")
            call = lambda p, t: ricci_flow_residual(bg, p, t)
        else:
            bg = model_background("gaussian_shrinker_flat", dim=3)
            call = lambda p, t: gradient_soliton_residual(bg, bg.soliton, p, t)
        calls = self.validator_calls(monkeypatch, "_door")
        assert call(np.array([1.2, 1.0, 0.5]), 0.1).shape == (3, 3)
        assert len(calls) == 1

    @pytest.mark.parametrize("dim", [3, 5])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_a_one_row_residual_evaluates_each_stage_once(self, monkeypatch, variant, dim):
        # the fixed cost of the pointwise soliton sweep: a second evaluation on
        # this path would show as a second call here
        jet_calls = []

        def counted(field, name):
            jet = field.jet
            return dataclasses.replace(field, jet=lambda x, order: jet_calls.append((name, order)) or jet(x, order))

        base = canonical(variant, dim, 1.0).base
        bg = dataclasses.replace(base, conformal=dataclasses.replace(
            base.conformal, sigma=counted(base.conformal.sigma, "sigma")))
        cm = build_canonical_metric(bg, variant, 1e3)
        cm = dataclasses.replace(cm, field=counted(cm.field, "canonical"))
        doors = self.validator_calls(monkeypatch, "_door")
        inverses = self.validator_calls(monkeypatch, "_inverse_and_condition")
        p, t = sphere_stack(dim, 1, np.random.default_rng(dim))[0], 0.5 * bg.time_domain[1]
        sample = ricci_soliton_residual(cm, p, t)
        assert (len(doors), len(inverses)) == (1, 1)
        assert sorted(jet_calls) == [("canonical", 2), ("sigma", 2)]
        assert sample.scaled_norm == ricci_soliton_residual(canonical(variant, dim, 1e3), p, t).scaled_norm

    @pytest.mark.parametrize("flow, dim, variant", [
        ("shrinking_sphere_flat", 3, "expanding"), ("shrinking_sphere_flat", 5, "shrinking"),
        ("equator_in_sphere", 3, "steady"),
    ])
    def test_a_one_row_track_residual_checks_its_pair_once(self, monkeypatch, flow, dim, variant):
        # the door checks (x, t) and the slice core the image F_t(x); the space-time
        # point z = (t, F) is built from checked rows, and nothing checks it again
        mcf = _flow(flow, dim, DIRECTION[variant])
        track = build_track(mcf, build_canonical_metric(mcf.ambient, variant, 1e3))
        x = mcf.sample_xs(1, np.random.default_rng(dim))[0]
        t = 0.5 * (track.cm.t_min + min(mcf.time_domain[1], mcf.ambient.time_domain[1]))
        want = mcf_canonical_residual(track, x, t)
        doors = self.validator_calls(monkeypatch, "_door")
        points = self.validator_calls(monkeypatch, "_point_errors")
        times = self.validator_calls(monkeypatch, "_time_errors")
        assert mcf_canonical_residual(track, x, t).value == want.value
        assert (len(doors), len(points), len(times)) == (1, 2, 1)

    @pytest.mark.parametrize("oracle", [closed_form_second_ff, closed_form_normal_potential, limit_inverse_metric])
    def test_one_time_check_per_track_oracle(self, monkeypatch, oracle):
        mcf = _flow("shrinking_sphere_flat", 3, "forward")
        track = build_track(mcf, build_canonical_metric(mcf.ambient, "expanding", 1e3))
        calls = self.validator_calls(monkeypatch, "_time_errors")
        oracle(track, [[1.1, 0.7], [0.4, 2.0]], [0.1, 0.15])
        assert len(calls) == 1

    @staticmethod
    def bracket_calls(monkeypatch):
        """The shapes of the stacks ``geometry._bracket`` is called on, as it is called."""
        shapes = []
        bracket = geometry._bracket
        monkeypatch.setattr(geometry, "_bracket", lambda a: shapes.append(a.shape) or bracket(a))
        return shapes

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_one_bracket_of_dg_per_residual_call(self, monkeypatch, variant):
        cm = canonical(variant, 3, 1e3)
        rng = np.random.default_rng(6)
        pts, ts = sphere_stack(3, 3, rng), rng.uniform(cm.t_min, cm.base.time_domain[1], 3)
        shapes = self.bracket_calls(monkeypatch)
        # dg is (P, 4, 4, 4); the Ricci tensor's bracket of ddg is (4 P, 4, 4, 4)
        for P, call in ((3, lambda: ricci_soliton_residuals(cm, pts, ts)),
                        (1, lambda: ricci_soliton_residual(cm, pts[0], ts[0]))):
            shapes.clear()
            call()
            assert shapes.count((P, 4, 4, 4)) == 1 and len(shapes) == 2

    def test_one_chart_evaluation_per_residual_call(self):
        bg = model_background("round_sphere", dim=3, r0=1.0, direction="forward")
        calls = {"sigma": 0, "space-time": 0}

        def counted(name, predicate):
            def inside(points):
                calls[name] += 1
                return predicate(points)
            return inside

        sigma = bg.conformal.sigma
        sigma = dataclasses.replace(sigma, in_domain=counted("sigma", sigma.in_domain))
        bg = dataclasses.replace(bg, conformal=dataclasses.replace(bg.conformal, sigma=sigma))
        cm = build_canonical_metric(bg, "expanding", 1e3)
        cm = dataclasses.replace(cm, field=dataclasses.replace(cm.field, in_domain=counted("space-time", cm.field.in_domain)))
        rng = np.random.default_rng(8)
        pts = sphere_stack(3, 4, rng)
        pts[1, 0] = 0.001                           # outside the chart
        ts = [0.05, 0.1, 0.15, 0.2 * cm.t_min]      # the last one below the floor
        stack = ricci_soliton_residuals(cm, pts, ts)
        assert stack.index.tolist() == [0, 2]
        assert "outside chart domain" in str(stack.errors[1]) and "sampling floor" in str(stack.errors[3])
        # the spatial domain once; the space-time chart, whose time window the door has checked, never
        assert calls == {"sigma": 1, "space-time": 0}
        ricci_soliton_residual(cm, pts[0], ts[0])
        assert calls == {"sigma": 2, "space-time": 0}

    def test_no_bracket_on_a_flat_quadrature_chunk(self, monkeypatch):
        shapes = self.bracket_calls(monkeypatch)
        gauss = model_background("gaussian_shrinker_flat", dim=3).soliton.potential(1.0)
        assert weighted_functionals(flat_ball_domain(potential=gauss, grid=(6, 12, 4))).I_infty > 0
        assert shapes == []


class TestConditionEstimate:
    """Each path's estimate has the bits of its row-wise formula: max(d) * max(1/d) on the
    diagonal path, |g|_1 |g^-1|_1 on LAPACK's."""

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_equals_the_row_wise_formula(self, d):
        rng = np.random.default_rng(10 + d)
        P = 2048
        diag = 10.0 ** rng.uniform(-8, 8, (P, d))
        diag[:256] = rng.choice([0.5, 1.0, 2.0, 3.0], (256, d))            # ties inside a row
        diag[256:512] = rng.uniform(1.0, 2.0, (256, 1))                     # all entries equal
        diag[512:768] = 1e-300 * rng.uniform(1.0, 2.0, (256, d))
        diag[768:1024] = 1e300 * rng.uniform(0.5, 1.0, (256, d))
        diag[1024:1280, 0] = 1e-150 * rng.uniform(1.0, 2.0, 256)            # a spread of 1e300 in one row
        diag[1024:1280, -1] = 1e150 * rng.uniform(0.5, 1.0, 256)
        g = np.zeros((P, d, d))
        g[:, range(d), range(d)] = diag
        _, cond, errors = geometry._inverse_and_condition(g, np.zeros((P, d)))
        assert errors == [None] * P
        assert_same_bits(cond, diag.max(axis=1) * (1.0 / diag).max(axis=1))

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    @pytest.mark.parametrize("P", [1, 7, 64])
    def test_full_stacks_fold_both_norms_into_one_reduction(self, P, d, lapack_calls):
        # the LAPACK path reduces g and g^-1 as one stacked pair; each estimate
        # keeps the bits of the two 1-norms taken apart
        rng = np.random.default_rng(100 * d + P)
        a = rng.normal(size=(2 * P, d, d))
        g = a @ a.transpose(0, 2, 1) + d * np.eye(d)
        g = 0.5 * (g + g.transpose(0, 2, 1))
        for stack in (g[:P], g[::2]):
            ginv, cond, errors = geometry._inverse_and_condition(stack, np.zeros((P, d)))
            want_inv, want_cond = lapack_inverse(np.ascontiguousarray(stack))
            assert_same_bits(ginv, want_inv)
            assert_same_bits(cond, want_cond)
            assert errors == [None] * P
        assert lapack_calls == [(P, d, d)] * 2


def point_errors_by_row(pts, in_domain):
    """Per row of ``pts``: None, or the class and message of the error that row raises."""
    out = []
    for p in pts:
        if not np.isfinite(p).all():
            out.append((ChartDomainError, f"chart point has non-finite entries: {p}"))
        elif in_domain is not None and not in_domain(p[None])[0]:
            out.append((ChartDomainError, f"point {p} outside chart domain"))
        else:
            out.append(None)
    return out


class TestPointValidator:
    """``_point_errors`` on stacks with non-finite rows keeps each row's class and message."""

    @pytest.mark.parametrize("with_domain", [False, True])
    @pytest.mark.parametrize("P", [1, 9, 200])
    def test_mixed_stacks(self, P, with_domain):
        rng = np.random.default_rng(P)
        seen = []

        def inside(p):
            return np.einsum("pa,pa->p", p, p) < 1.0

        def in_domain(p):
            seen.append(p.copy())
            return inside(p)

        pts = rng.uniform(-1.0, 1.0, (P, 3))
        bad = [math.nan, math.inf, -math.inf]
        for i in rng.choice(P, min(P, 4), replace=False):
            pts[i, rng.integers(3)] = bad[i % 3]
        for stack in (pts, np.where(np.isfinite(pts), pts, 0.5)):
            seen.clear()
            got = geometry._point_errors(stack, in_domain if with_domain else None)
            want = point_errors_by_row(stack, inside if with_domain else None)
            assert [exc if exc is None else (type(exc), str(exc)) for exc in got] == want
            if with_domain:
                finite = np.isfinite(stack).all(axis=1)
                assert len(seen) == (1 if finite.any() else 0)
                assert all(np.array_equal(s, stack[finite]) for s in seen)


def hypersurface_stack(n, P, rng):
    """Random (tangents, second partials, g, Gamma, hint) of P points of an n-surface in dim n+1."""
    m = n + 1
    tangents = rng.normal(size=(P, n, m))
    a = rng.normal(size=(P, m, m))
    g = a @ a.transpose(0, 2, 1) + m * np.eye(m)
    g = 0.5 * (g + g.transpose(0, 2, 1))
    gamma = rng.normal(size=(P, m, m, m))
    dd = rng.normal(size=(P, n, n, m))
    return (tangents, 0.5 * (dd + dd.transpose(0, 2, 1, 3)), g,
            0.5 * (gamma + gamma.transpose(0, 1, 3, 2)), rng.normal(size=(P, m)))


def oracle_gaps(ext, errors, args):
    """Per kept row, the (normal, h, H, induced inverse) gaps to the SVD oracle, relative.

    H is a cancelling sum, so its gap is taken relative to sum |g^ij h_ij|.
    """
    def rel(got, want, scale):
        return float(np.abs(got - want).max() / scale)

    induced, induced_inv, nu, h, H = ext
    rows = [p for p, e in enumerate(errors) if e is None]
    gaps = []
    for j, p in enumerate(rows):
        _, want_inv, want_nu, want_h, want_H = ref.extrinsic_geometry(*(a[p] for a in args))
        gaps.append((
            rel(nu[j], want_nu, np.abs(want_nu).max()),
            rel(h[j], want_h, np.abs(want_h).max()),
            rel(H[j], want_H, np.abs(want_inv * want_h).sum()),
            rel(induced_inv[j], want_inv, np.abs(want_inv).max()),
        ))
    return np.array(gaps).reshape(-1, 4)


class TestHypersurfaceKernel:
    """``extrinsic_geometry_batch`` against the SVD and 3-operand einsum oracle."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("P", [1, 7, 64])
    def test_rows_equal_one_row_calls_and_the_oracle(self, n, P):
        args = hypersurface_stack(n, P, np.random.default_rng(10 * n + P))
        ext, errors = extrinsic_geometry_batch(*args)
        assert errors == [None] * P
        for p in range(P):
            one, one_errors = extrinsic_geometry_batch(*(a[p:p + 1] for a in args))
            assert one_errors == [None]
            for got, want in zip(ext, one):
                assert_same_bits(got[p:p + 1], want)
        assert oracle_gaps(ext, errors, args).max() <= 1e-12

    def test_ill_conditioned_stack_and_a_rank_deficient_row(self):
        n, P = 3, 8
        rng = np.random.default_rng(4)
        args = hypersurface_stack(n, P, rng)
        tangents, _, g = args[:3]
        # orthonormal rows with singular values (1, 1, 1e-5): the induced
        # metric's condition number is about 1e10 times that of g
        for p in range(P):
            q = np.linalg.qr(rng.normal(size=(n + 1, n + 1)))[0]
            tangents[p] = np.diag([1.0, 1.0, 1e-5]) @ q[:n]
        induced = tangents @ g @ tangents.transpose(0, 2, 1)
        cond = geometry._norm1(induced) * geometry._norm1(np.linalg.inv(induced))
        assert (1e9 < cond).all() and (cond < geometry.COND_LIMIT).all()
        # the last row's tangents are rank-deficient
        tangents[-1, -1] = tangents[-1, 0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ext, errors = extrinsic_geometry_batch(*args)
            gaps = oracle_gaps(ext, errors, args)
            for p in range(P):
                one, _ = extrinsic_geometry_batch(*(a[p:p + 1] for a in args))
                if p < P - 1:
                    for got, want in zip(ext, one):
                        assert_same_bits(got[p:p + 1], want)
        assert [e is None for e in errors] == [True] * (P - 1) + [False]
        assert type(errors[-1]) is DegenerateMetricError
        assert str(errors[-1]) == "degenerate induced metric"
        # the normal and h lose about sqrt(cond) ulps, as the SVD does
        tol = 16.0 * np.finfo(float).eps * np.sqrt(cond[:-1])
        assert (gaps[:, :3] <= tol[:, None]).all()
        assert (gaps[:, 3] == 0.0).all()

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_a_flipped_hint_negates_the_normal_and_h_only(self, n):
        rng = np.random.default_rng(20 + n)
        P = 9
        args = hypersurface_stack(n, P, rng)
        ext, errors = extrinsic_geometry_batch(*args)
        assert errors == [None] * P
        flip = np.array([True, False, True, True, False, False, True, False, True])
        for hint, flipped in ((-args[-1], np.ones(P, bool)), (np.where(flip[:, None], -args[-1], args[-1]), flip)):
            got, got_errors = extrinsic_geometry_batch(*args[:-1], hint)
            assert got_errors == [None] * P
            for same in (0, 1):                       # induced, induced_inv
                assert_same_bits(got[same], ext[same])
            for k in (2, 3, 4):                       # nu, h, H
                sign = np.where(flipped, -1.0, 1.0).reshape((P,) + (1,) * (ext[k].ndim - 1))
                assert_same_bits(got[k], sign * ext[k])

    def test_empty_and_all_degenerate_stacks(self):
        args = hypersurface_stack(2, 2, np.random.default_rng(3))
        args[0][:, 1] = args[0][:, 0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ext, errors = extrinsic_geometry_batch(*args)
            empty, no_errors = extrinsic_geometry_batch(*(a[:0] for a in args))
        assert [type(e) for e in errors] == [DegenerateMetricError] * 2
        assert no_errors == []
        for a, b in zip(ext, empty):
            assert a.shape == b.shape and a.shape[0] == 0
