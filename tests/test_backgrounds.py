"""Catalog fixtures are exact solutions; every residual here must vanish."""

import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest

import reference_kernel as ref
from cansol import jets
from cansol.backgrounds import (
    BackgroundError,
    GradientSolitonData,
    MCFSolution,
    catalog_background_names,
    catalog_mcf_names,
    _flow_terms,
    gradient_soliton_residual,
    mcf_soliton_residual,
    model_background,
    model_mcf,
    ricci_flow_residual,
    slice_stack,
    unit_sphere_metric,
)
from cansol.canonical import build_canonical_metric, canonical_christoffel_closed_forms
from cansol.geometry import (
    ChartDomainError,
    DegenerateMetricError,
    GeometryError,
    ScalarField,
    metric_bundle,
    ricci_batch,
    scalar_curvature_batch,
    tensor_norm_batch,
)
from cansol.track import mcf_canonical_sweep

# an ambient for each catalog flow; the flat one ends at T = 0.2, before the
# shrinking sphere's singular time 0.25
FLOW_AMBIENTS = {
    "shrinking_sphere_flat": dict(name="euclidean_static", dim=3, T=0.2),
    "equator_in_sphere": dict(name="round_sphere", dim=3, r0=1.0, direction="backward"),
    "static_plane_flat": dict(name="euclidean_static", dim=3, direction="backward"),
}


def tensor_norm(bg, t, T, p):
    """|T| in g(t) of a covariant 2-tensor (d, d) at one point through ``tensor_norm_batch``."""
    return tensor_norm_batch(bg.bundle([p], [t], order=0), T[None])[0]


def metric_rows(bg, pts, ts):
    """g(t) at each point of a stack, from its components phi(t) sigma."""
    return np.array([bg.conformal.phi(t) * bg.conformal.sigma.components(p) for p, t in zip(pts, ts)])


def sample_times(bg, count, rng):
    lo, hi = bg.time_domain
    t_min = 0.05 * hi
    return rng.uniform(t_min, hi, count)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(42)


class TestModelBackgrounds:
    def test_euclidean_static_is_flat(self, rng):
        bg = model_background("euclidean_static", dim=3)
        assert bg.flat
        for t in sample_times(bg, 5, rng):
            pts = bg.sample_points(3, rng)
            c = bg.curvature(pts, [t] * 3)
            assert np.array_equal(c.ric, np.zeros((3, 3, 3)))
            assert np.array_equal(c.R, np.zeros(3)) and np.array_equal(c.dRdt, np.zeros(3))
            assert np.allclose(bg.bundle(pts, [t] * 3).g, np.eye(3))

    def test_round_sphere_scalar_curvature_value(self):
        # forward sphere, d = 3, r0 = 1 at t = 0.1: R = 6 / (1 - 4 * 0.1) = 10
        bg = model_background("round_sphere", dim=3, r0=1.0, direction="forward")
        assert not bg.flat
        p = np.array([1.2, 1.0, 0.5])
        c = bg.curvature([p], [0.1])
        assert c.R[0] == pytest.approx(10.0, rel=1e-12)
        # Ric = (d - 1) sigma, scale-invariant, with sigma = diag(1, sin^2 x0, sin^2 x0 sin^2 x1)
        s0, s1 = math.sin(1.2) ** 2, math.sin(1.0) ** 2
        assert np.allclose(c.ric[0], 2.0 * np.diag([1.0, s0, s0 * s1]), rtol=1e-14, atol=0.0)
        assert scalar_curvature_batch(bg.bundle([p], [0.1], order=2))[0] == pytest.approx(10.0, rel=1e-10)

    @pytest.mark.parametrize("points", [np.array([1.2, 1.0, 0.5]), np.array([[1.2, 1.0, 0.5]])],
                             ids=["bare", "one-row"])
    def test_curvature_of_one_point_is_a_one_row_stack(self, points):
        bg = model_background("round_sphere", dim=3, r0=1.0, direction="forward")
        c = bg.curvature(points, [0.1])
        assert [a.shape for a in c] == [(1, 3, 3), (1,), (1,), (1, 3)]
        b = bg.bundle(points, [0.1])
        # one row, as in the bundle of the same point; Ric = 2 sigma = 2 g / g_00 there
        assert b.g.shape == (1, 3, 3) and np.allclose(c.ric[0], 2.0 * b.g[0] / b.g[0, 0, 0], rtol=1e-14)

    def test_round_sphere_forward_exact_flow(self, rng):
        bg = model_background("round_sphere", dim=3, r0=1.0, direction="forward")
        for t in sample_times(bg, 3, rng):
            for p in bg.sample_points(2, rng):
                [ric] = bg.curvature([p], [t]).ric
                assert np.allclose(bg.dt_metric_at(p, t), -2.0 * ric, atol=1e-12)

    def test_unknown_name(self):
        with pytest.raises(BackgroundError):
            model_background("torus")

    def test_bad_params(self):
        with pytest.raises(BackgroundError):
            model_background("round_sphere", dim=3, r0=-1.0)
        with pytest.raises(BackgroundError):
            model_background("euclidean_static", dim=3, radius=2.0)

    def test_bad_constructor_arguments(self):
        flat = model_background("euclidean_static", dim=3)
        for build, message in [
            (lambda: unit_sphere_metric(0), "sphere dimension must be >= 1, got 0"),
            (lambda: dataclasses.replace(flat, direction="sideways"), "unknown flow direction 'sideways'"),
            (lambda: GradientSolitonData(lambda t: ScalarField.constant(0.0), "static"),
             "unknown soliton class 'static'"),
        ]:
            with pytest.raises(BackgroundError) as info:
                build()
            assert str(info.value) == message

    @pytest.mark.parametrize("name, params, message", [
        ("round_sphere", dict(dim="x"), "round_sphere.dim must be an integer >= 2, got 'x'"),
        ("round_sphere", dict(r0="a"), "round_sphere.r0 must be a finite number > 0, got 'a'"),
        ("round_sphere", dict(T="z"), "round_sphere.T must be a finite number > 0, got 'z'"),
        ("round_sphere", dict(direction=1), "round_sphere.direction must be one of ['forward', 'backward'], got 1"),
        ("euclidean_static", dict(dim=None), "euclidean_static.dim must be an integer >= 1, got None"),
        ("gaussian_shrinker_flat", dict(T=[1.0]), "gaussian_shrinker_flat.T must be a finite number > 0"),
    ])
    def test_wrong_typed_params(self, name, params, message):
        with pytest.raises(BackgroundError, match=re.escape(message)):
            model_background(name, **params)

    @pytest.mark.parametrize("name, params, message", [
        ("round_sphere", dict(dim=2.7), "round_sphere.dim must be an integer >= 2, got 2.7"),
        # an integer parameter takes integers only, as the run config's integers do
        ("round_sphere", dict(dim=4.0), "round_sphere.dim must be an integer >= 2, got 4.0"),
        ("round_sphere", dict(dim=1), "round_sphere.dim must be an integer >= 2, got 1"),
        ("euclidean_static", dict(dim=math.inf), "euclidean_static.dim must be an integer >= 1, got inf"),
        ("euclidean_static", dict(dim=0), "euclidean_static.dim must be an integer >= 1, got 0"),
        ("euclidean_static", dict(dim=-2), "euclidean_static.dim must be an integer >= 1, got -2"),
        ("gaussian_shrinker_flat", dict(dim=math.nan), "gaussian_shrinker_flat.dim must be an integer >= 1"),
        ("gaussian_shrinker_flat", dict(dim=0), "gaussian_shrinker_flat.dim must be an integer >= 1, got 0"),
        ("round_sphere", dict(r0=math.nan, direction="backward"), "round_sphere.r0 must be a finite number > 0, got nan"),
        ("round_sphere", dict(r0=math.inf), "round_sphere.r0 must be a finite number > 0, got inf"),
        ("round_sphere", dict(r0=0.0), "round_sphere.r0 must be a finite number > 0, got 0.0"),
        ("round_sphere", dict(direction="backward", T=math.nan), "round_sphere.T must be a finite number > 0, got nan"),
        ("round_sphere", dict(direction="backward", T=-2.0), "round_sphere.T must be a finite number > 0, got -2.0"),
        ("round_sphere", dict(direction="forward", T=math.nan), "round_sphere.T must be a finite number > 0, got nan"),
        ("round_sphere", dict(direction="forward", T=0.3), "round_sphere forward needs 0 < T < 0.25, got T=0.3"),
        ("euclidean_static", dict(T=math.nan), "euclidean_static.T must be a finite number > 0, got nan"),
        ("euclidean_static", dict(T=math.inf), "euclidean_static.T must be a finite number > 0, got inf"),
        ("euclidean_static", dict(T=-1), "euclidean_static.T must be a finite number > 0, got -1"),
        ("gaussian_shrinker_flat", dict(T=0), "gaussian_shrinker_flat.T must be a finite number > 0, got 0"),
        ("euclidean_static", dict(dim=3, radius=2.0), "unknown euclidean_static keys: ['radius']"),
    ])
    def test_out_of_range_params(self, name, params, message):
        with pytest.raises(BackgroundError, match=re.escape(message)):
            model_background(name, **params)

    def test_integral_dims_are_accepted(self):
        assert model_background("round_sphere", dim=4).dim == 4
        assert type(model_background("euclidean_static", dim=np.int64(2)).dim) is int

    @pytest.mark.parametrize("r0", [math.nan, math.inf, -1.0])
    def test_out_of_range_flow_radius(self, r0):
        flat = model_background("euclidean_static", dim=3)
        with pytest.raises(BackgroundError, match="shrinking_sphere_flat.r0 must be a finite number > 0"):
            model_mcf("shrinking_sphere_flat", flat, r0=r0)

    @pytest.mark.parametrize("height", [math.nan, -math.inf])
    def test_plane_height_must_be_finite(self, height):
        # a non-finite plane would fail at every point instead of at its config
        flat = model_background("euclidean_static", dim=3)
        with pytest.raises(BackgroundError, match="static_plane_flat.height must be a finite number"):
            model_mcf("static_plane_flat", flat, height=height)

    def test_wrong_typed_flow_params(self):
        flat = model_background("euclidean_static", dim=3)
        with pytest.raises(BackgroundError, match="shrinking_sphere_flat.r0 must be a finite number > 0"):
            model_mcf("shrinking_sphere_flat", flat, r0="q")
        with pytest.raises(BackgroundError, match="static_plane_flat.height must be a finite number"):
            model_mcf("static_plane_flat", flat, height="h")
        with pytest.raises(BackgroundError, match=re.escape("unknown equator_in_sphere keys: ['r0']")):
            model_mcf("equator_in_sphere", model_background("round_sphere", dim=3), r0=1.0)

    def test_forward_sphere_domain_ends_before_singular_time(self):
        bg = model_background("round_sphere", dim=3, r0=1.0, direction="forward")
        assert bg.time_domain[1] < 0.25
        p = np.array([1.2, 1.0, 0.5])
        message = "time 0.3 outside domain (0.0, 0.2]"
        # the bundle records the pair's error, as it does a point's; the curvature raises it
        b = bg.bundle([p, p], [0.1, 0.3])
        assert b.index.tolist() == [0] and b.errors[0] is None
        assert type(b.errors[1]) is ChartDomainError and str(b.errors[1]) == message
        with pytest.raises(ChartDomainError, match=re.escape(message)):
            bg.curvature([p, p], [0.1, 0.3])

    def test_time_derivative_is_checked_as_the_curvature(self):
        # the pole band of the 3-sphere chart, and a non-finite point, at a time inside the domain
        bg = model_background("round_sphere", dim=3, r0=1.0, direction="forward")
        for p, message in (([0.0, 1.0, 1.0], "point [0. 1. 1.] outside chart domain"),
                           ([math.nan, 1.0, 1.0], "chart point has non-finite entries: [nan  1.  1.]"),
                           ([1.2, 1.0, 0.5, 1.0], "point has dimension 4, chart has 3")):
            for ask in (lambda: bg.dt_metric_at(np.array(p), 0.1), lambda: bg.curvature([p], [0.1])):
                with pytest.raises(ChartDomainError) as info:
                    ask()
                assert str(info.value) == message
        with pytest.raises(ChartDomainError, match=re.escape("time 0.3 outside domain (0.0, 0.2]")):
            bg.dt_metric_at(np.array([1.2, 1.0, 0.5]), 0.3)

    @pytest.mark.parametrize(
        "name,kwargs",
        [
            ("round_sphere", dict(dim=3, r0=1.0, direction="forward")),
            ("round_sphere", dict(dim=2, r0=1.5, direction="backward")),
        ],
    )
    def test_time_derivative_matches_finite_differences(self, name, kwargs, rng):
        bg = model_background(name, **kwargs)
        hi = bg.time_domain[1]
        for t in rng.uniform(0.1 * hi, 0.9 * hi, 3):
            for p in bg.sample_points(3, rng):
                h = 1e-6 * max(1.0, t)
                fd = (bg.bundle([p], [t + h], order=0).g[0] - bg.bundle([p], [t - h], order=0).g[0]) / (2 * h)
                ana = bg.dt_metric_at(p, t)
                scale = max(1.0, np.max(np.abs(ana)))
                assert np.max(np.abs(fd - ana)) < 1e-6 * scale


class TestRicciFlowResidual:
    @pytest.mark.parametrize(
        "name,kwargs",
        [
            ("euclidean_static", dict(dim=3, direction="forward")),
            ("euclidean_static", dict(dim=3, direction="backward")),
            ("round_sphere", dict(dim=3, r0=1.0, direction="forward")),
            ("round_sphere", dict(dim=2, r0=1.5, direction="backward")),
        ],
    )
    def test_catalog_residuals_vanish(self, name, kwargs, rng):
        bg = model_background(name, **kwargs)
        for t in sample_times(bg, 5, rng):
            for p in bg.sample_points(10, rng):
                res = ricci_flow_residual(bg, p, t)
                assert tensor_norm(bg, t, res, p) < 1e-8

    def test_corrupted_background_residual_by_hand(self):
        # flat metric scaled by 1 + t^2 is not a flow solution: residual 2t * delta
        from cansol.backgrounds import ConformalFamily, RicciFlowBackground
        from cansol.geometry import MetricField

        dim = 3
        eye = np.eye(dim)
        conf = ConformalFamily(
            # a value-only sigma: the kernel differences it
            sigma=MetricField(dim=dim, jet=lambda p, order: (np.zeros(p.shape[:-1] + (dim, dim)) + eye,)),
            phi=lambda t: 1.0 + t**2,
            sigma_scalar=0.0,
            ric_sigma=lambda p: np.zeros((dim, dim)),
        )
        bg = RicciFlowBackground("corrupted", dim, "forward", (0.0, 1.0), conf)
        t, p = 0.6, np.array([0.1, -0.4, 0.8])
        res = ricci_flow_residual(bg, p, t)
        assert np.allclose(res, 2.0 * t * eye, atol=1e-10)
        # norm against g = (1 + t^2) delta: |res| = 2t sqrt(d) / (1 + t^2)
        expected_norm = 2.0 * t * math.sqrt(dim) / (1.0 + t**2)
        assert tensor_norm(bg, t, res, p) == pytest.approx(expected_norm, rel=1e-10)


class TestModelMCF:
    def test_shrinking_sphere_radius(self):
        bg = model_background("euclidean_static", dim=3)
        mcf = model_mcf("shrinking_sphere_flat", bg, r0=1.0)
        x = np.array([1.1, 0.7])
        pos = mcf.jet(x, 0.1)[0]
        assert np.linalg.norm(pos) == pytest.approx(math.sqrt(0.6), rel=1e-12)

    def test_equator_is_static_and_minimal(self, rng):
        bg = model_background("round_sphere", dim=3, r0=1.0, direction="backward")
        mcf = model_mcf("equator_in_sphere", bg)
        ts = np.repeat(sample_times(bg, 3, rng), 3)
        stack = slice_stack(mcf, mcf.sample_xs(9, rng), ts)
        assert stack.index.tolist() == list(range(9))
        assert np.allclose(stack.jet[1], 0.0)
        assert np.max(np.abs(stack.ext[-1])) < 1e-10
        assert np.max(np.abs(stack.ext[3])) < 1e-10

    def test_static_plane_flat(self, rng):
        bg = model_background("euclidean_static", dim=3)
        mcf = model_mcf("static_plane_flat", bg)
        data = ref.one_slice(mcf, np.array([0.4, -0.2]), 0.5)
        assert data.ext[-1].tolist() == [0.0]
        assert np.allclose(data.ext[3], 0.0)
        res = ricci_flow_residual(bg, data.jet[0][0], 0.5)
        assert np.allclose(res, 0.0)

    def test_incompatible_background(self):
        sphere_bg = model_background("round_sphere", dim=3, r0=1.0, direction="backward")
        with pytest.raises(BackgroundError):
            model_mcf("shrinking_sphere_flat", sphere_bg)
        flat_bg = model_background("euclidean_static", dim=3)
        with pytest.raises(BackgroundError):
            model_mcf("equator_in_sphere", flat_bg)
        with pytest.raises(BackgroundError, match="static_plane_flat needs a flat background"):
            model_mcf("static_plane_flat", sphere_bg)

    def test_flat_flows_build_on_the_gaussian_shrinker(self):
        # the shrinker has its own name; the flat flows ask for a flat background, not a name
        bg = model_background("gaussian_shrinker_flat", dim=3)
        assert bg.name == "gaussian_shrinker_flat"
        mcf = model_mcf("shrinking_sphere_flat", bg, r0=1.0)
        assert mcf.ambient is bg
        x, t = np.array([1.1, 0.7]), 0.1
        assert ref.one_slice(mcf, x, t).ext[-1].item() == pytest.approx(2.0 / math.sqrt(0.6), rel=1e-12)
        assert model_mcf("static_plane_flat", bg).ambient is bg

    @pytest.mark.parametrize(
        "mcf_name,bg_kwargs",
        [
            ("shrinking_sphere_flat", dict(name="euclidean_static", dim=3, direction="forward")),
            ("equator_in_sphere", dict(name="round_sphere", dim=3, r0=1.0, direction="backward")),
            ("static_plane_flat", dict(name="euclidean_static", dim=4, direction="backward")),
        ],
    )
    def test_velocity_is_minus_H_nu(self, mcf_name, bg_kwargs, rng):
        kwargs = dict(bg_kwargs)
        bg = model_background(kwargs.pop("name"), **kwargs)
        mcf = model_mcf(mcf_name, bg)
        lo, hi = mcf.time_domain
        ts = np.repeat(np.random.default_rng(1).uniform(0.05 * hi, hi, 5), 10)
        stack = slice_stack(mcf, mcf.sample_xs(50, rng), ts)
        assert stack.index.tolist() == list(range(50))
        F, Ft, T = stack.jet[:3]
        g, (_, induced_inv, nu, _, H) = stack.g, stack.ext
        assert np.array_equal(g, metric_rows(bg, F, ts))
        normal_speed = np.einsum("pa,pab,pb->p", Ft, g, nu)
        assert normal_speed == pytest.approx(-H, abs=1e-8)
        # tangential reparametrization allowed: compare projections only
        tangential = Ft - normal_speed[:, None] * nu
        proj = np.einsum("pia,pab,pb->pi", T, g, tangential)
        recon = np.einsum("pij,pj->pi", induced_inv, proj)
        assert np.allclose(np.einsum("pia,pi->pa", T, recon), tangential, atol=1e-8)

    @pytest.mark.parametrize("dim", [3, 5])
    @pytest.mark.parametrize(
        "mcf_name,bg_kwargs",
        [
            ("shrinking_sphere_flat", dict(name="euclidean_static", direction="forward")),
            ("equator_in_sphere", dict(name="round_sphere", r0=1.0, direction="backward")),
            ("static_plane_flat", dict(name="euclidean_static", direction="backward")),
        ],
    )
    def test_velocity_matches_time_differences_of_immersion(self, mcf_name, bg_kwargs, dim, rng):
        # every entry of the jet against central differences of F and of the tangents
        kwargs = dict(bg_kwargs)
        bg = model_background(kwargs.pop("name"), dim=dim, **kwargs)
        mcf = model_mcf(mcf_name, bg)
        n = mcf.hypersurface_dim
        hi = mcf.time_domain[1]

        def close(fd, ana, tol=1e-6):
            assert np.max(np.abs(fd - ana)) < tol * max(1.0, np.max(np.abs(ana)))

        for t in rng.uniform(0.1 * hi, 0.9 * hi, 3):
            for x in mcf.sample_xs(3, rng):
                F, Ft, Fx, Fxx, Fxt, Ftt = mcf.jet(x, t)
                assert F.shape == Ft.shape == Ftt.shape == (n + 1,)
                assert Fx.shape == Fxt.shape == (n, n + 1) and Fxx.shape == (n, n, n + 1)
                h = 1e-6 * max(1.0, t)
                close((mcf.jet(x, t + h)[0] - mcf.jet(x, t - h)[0]) / (2 * h), Ft)
                close((mcf.jet(x, t + h)[2] - mcf.jet(x, t - h)[2]) / (2 * h), Fxt)
                # the second difference loses more digits to rounding
                h2 = 3e-5 * max(1.0, t)
                close((mcf.jet(x, t + h2)[0] - 2 * F + mcf.jet(x, t - h2)[0]) / h2**2, Ftt, 1e-5)
                for i, e in enumerate(1e-6 * np.eye(n)):
                    close((mcf.jet(x + e, t)[0] - mcf.jet(x - e, t)[0]) / 2e-6, Fx[i])
                    close((mcf.jet(x + e, t)[2] - mcf.jet(x - e, t)[2]) / 2e-6, Fxx[i])

    def test_sphere_mean_curvature_analytic_vs_engine(self):
        bg = model_background("euclidean_static", dim=3)
        mcf = model_mcf("shrinking_sphere_flat", bg, r0=1.0)
        x, t = np.array([0.9, 2.1]), 0.1
        data = ref.one_slice(mcf, x, t)
        _, _, dHdt = _flow_terms(data)
        r = math.sqrt(0.6)
        assert data.ext[-1].item() == pytest.approx(2.0 / r, rel=1e-10)
        assert dHdt.item() == pytest.approx(4.0 / r**3, rel=1e-12)
        # h = g / r with the outward orientation
        assert np.allclose(data.ext[3], data.ext[0] / r, atol=1e-10)

    @pytest.mark.parametrize("name", catalog_mcf_names())
    def test_mean_curvature_partials_match_differences_of_the_engine(self, name, rng):
        # the flow's dH/dx and dH/dt against central differences of the H that
        # slice_stack computes, with the backward stencil at the final time
        bg = model_background(**FLOW_AMBIENTS[name])
        mcf = model_mcf(name, bg)
        hi = mcf.time_domain[1]
        for t in [*rng.uniform(0.1 * hi, 0.9 * hi, 3), hi]:
            xs = mcf.sample_xs(3, rng)
            _, dH, dHdt = _flow_terms(slice_stack(mcf, xs, [t] * 3))
            for x, dH_x, dHdt_x in zip(xs, dH, dHdt):
                dxH, dtH = ref.mean_curvature_differences(mcf, x, t)
                assert np.allclose(dH_x, dxH, rtol=1e-6, atol=1e-7)
                assert dHdt_x == pytest.approx(dtH, rel=1e-6, abs=1e-7)

    def test_every_catalog_flow_has_an_ambient_here(self):
        assert sorted(FLOW_AMBIENTS) == sorted(catalog_mcf_names())

    def test_a_flow_needs_its_mean_curvature_partials(self):
        bg = model_background("euclidean_static", dim=3)
        mcf = model_mcf("static_plane_flat", bg)
        with pytest.raises(TypeError, match="mean_curvature"):
            MCFSolution(name="bare", hypersurface_dim=2, ambient=bg, jet=mcf.jet,
                        orientation_hint=mcf.orientation_hint)

    def test_slice_carries_its_background(self):
        bg = model_background("euclidean_static", dim=3)
        mcf = model_mcf("shrinking_sphere_flat", bg, r0=1.0)
        assert ref.one_slice(mcf, np.array([1.1, 0.7]), 0.1).mcf.ambient is bg


class TestGradientSolitonResidual:
    def test_gaussian_shrinker_exact(self, rng):
        bg = model_background("gaussian_shrinker_flat", dim=3)
        for t in sample_times(bg, 5, rng):
            for p in bg.sample_points(5, rng):
                res = gradient_soliton_residual(bg, bg.soliton, p, t)
                assert np.max(np.abs(res)) < 1e-12

    def test_flat_steady_zero_potential(self):
        bg = model_background("euclidean_static", dim=3)
        sol = GradientSolitonData(bg_potential_zero(), "steady")
        res = gradient_soliton_residual(bg, sol, np.array([0.3, 0.1, -0.2]), 0.5)
        assert np.allclose(res, 0.0, atol=1e-14)

    def test_flat_steady_linear_and_quadratic_potentials(self):
        bg = model_background("euclidean_static", dim=3)
        linear = GradientSolitonData(
            lambda t: ScalarField(value=lambda y: y[..., 0],
                                  d1=lambda y: np.broadcast_to([1.0, 0.0, 0.0], y.shape),
                                  d2=lambda y: np.zeros(y.shape + (3,))),
            "steady",
        )
        res = gradient_soliton_residual(bg, linear, np.array([0.2, 0.5, 0.7]), 0.3)
        assert np.allclose(res, 0.0, atol=1e-14)

        quadratic = GradientSolitonData(
            lambda t: ScalarField(value=lambda y: y[..., 0] ** 2,
                                  d1=lambda y: 2.0 * y * np.array([1.0, 0.0, 0.0]),
                                  d2=lambda y: np.broadcast_to(np.diag([2.0, 0.0, 0.0]),
                                                               y.shape + (3,))),
            "steady",
        )
        res = gradient_soliton_residual(bg, quadratic, np.array([0.2, 0.5, 0.7]), 0.3)
        assert np.allclose(res, np.diag([2.0, 0.0, 0.0]), atol=1e-14)


def counting_sigma(bg, einstein=False):
    """bg with its static metric sigma wrapped to count jet calls by order.

    ``einstein`` also routes ``ric_sigma`` through the counted sigma, as
    Ric = (sigma_scalar / dim) sigma, which holds on the catalog.
    """
    calls = {0: 0, 1: 0, 2: 0}
    sigma = bg.conformal.sigma

    def jet(p, order):
        calls[order] += 1
        return sigma.jet(p, order)

    counted = dataclasses.replace(sigma, jet=jet)
    conf = dataclasses.replace(bg.conformal, sigma=counted)
    if einstein:
        ratio = conf.sigma_scalar / bg.dim
        conf = dataclasses.replace(conf, ric_sigma=lambda p: ratio * counted.components(p))
    return dataclasses.replace(bg, conformal=conf), calls


def not_a_soliton():
    """A potential on the unit 3-sphere that is no soliton, so every residual term is non-zero."""
    return GradientSolitonData(
        lambda t: ScalarField(
            value=lambda y: np.sum(np.cos(y), axis=-1) / t,
            d1=lambda y: -np.sin(y) / t,
            d2=lambda y: -np.sin(y)[..., None] * np.eye(3) / t,
        ),
        "shrinking",
    )


class TestOneBundlePerResidual:
    def test_gradient_soliton_residual_evaluates_sigma_once(self):
        bg, calls = counting_sigma(model_background("gaussian_shrinker_flat", dim=3))
        gradient_soliton_residual(bg, bg.soliton, np.array([0.3, -0.2, 0.5]), 0.4)
        # one order-2 bundle
        assert calls == {0: 0, 1: 0, 2: 1}

    def test_a_track_sweep_evaluates_sigma_once_per_bundle(self):
        # one sigma jet for the ambient slices, then one per N for the canonical
        # metric at the same image points, which is left to remove
        bg, calls = counting_sigma(model_background("round_sphere", dim=3, r0=1.0, direction="backward"))
        mcf = model_mcf("equator_in_sphere", bg)
        cms = [build_canonical_metric(bg, "steady", N) for N in (1e2, 1e3, 1e4, 1e5)]
        rng = np.random.default_rng(7)
        xs = mcf.sample_xs(16, rng)
        ts = list(rng.uniform(cms[0].t_min, mcf.time_domain[1], 16))
        sweep = mcf_canonical_sweep(mcf, cms, xs, ts)
        assert not any(any(stack.errors) for stack in sweep)
        assert calls == {0: 0, 1: 5, 2: 0}

    def test_closed_form_christoffel_tables_evaluate_sigma_twice(self):
        # one order-1 background bundle and one order-0 ric_sigma for every metric
        # of the sweep; the time-time entry w comes from the time profiles, not
        # from the whole metric
        bg, calls = counting_sigma(model_background("round_sphere", dim=3, direction="forward"), einstein=True)
        cms = [build_canonical_metric(bg, "expanding", N) for N in (1e3, 1e4)]
        rng = np.random.default_rng(8)
        pts = bg.sample_points(5, rng)
        canonical_christoffel_closed_forms(cms, pts, rng.uniform(cms[0].t_min, bg.time_domain[1], 5))
        assert calls == {0: 1, 1: 1, 2: 0}

    def test_residuals_equal_the_values_before_the_single_bundle(self):
        # digests of the residual bytes, computed with a Ricci, a Hessian and a
        # metric lookup that each evaluated the metric on their own; the sphere
        # and ricci_flow digests were re-taken when Ricci stopped going through
        # the Riemann tensor, which moves their values by rounding only
        rng = np.random.default_rng(2026)
        digests = {}
        for key, bg, sol in [
            ("gaussian", model_background("gaussian_shrinker_flat", dim=3), None),
            ("sphere", model_background("round_sphere", dim=3, r0=1.0, direction="backward"),
             not_a_soliton()),
        ]:
            h = hashlib.sha256()
            for _ in range(50):
                t = rng.uniform(0.05, 1.0)
                p = bg.sample_points(1, rng)[0]
                h.update(gradient_soliton_residual(bg, sol or bg.soliton, p, t).tobytes())
            digests[key] = h.hexdigest()
        h = hashlib.sha256()
        for name, params in [("round_sphere", dict(dim=3, r0=1.0, direction="forward")),
                             ("round_sphere", dict(dim=4, r0=1.5, direction="backward")),
                             ("euclidean_static", dict(dim=3, direction="forward"))]:
            bg = model_background(name, **params)
            hi = bg.time_domain[1]
            for _ in range(50):
                t = rng.uniform(0.05 * hi, hi)
                p = bg.sample_points(1, rng)[0]
                h.update(ricci_flow_residual(bg, p, t).tobytes())
        digests["ricci_flow"] = h.hexdigest()
        assert digests == {
            "gaussian": "967eedb2dc77a95e6270119ece23d9f47ca97c3b18ffa7d391d34e461b284f4c",
            "sphere": "e88b9aa8859ba934f034c5d11ce8d1b564f2f151faafdad18e8503054acc18a6",
            "ricci_flow": "f1b48c8c9a6d6c3c03c24a9d754f6f2f56287d268fdd298b289e330c69e3e1bb",
        }


class TestMCFSolitonResidual:
    def test_gaussian_shrinker_sphere_is_soliton(self):
        # sphere of radius sqrt(2 n tau) with outward normal and sign -1:
        # H - nu f = n / r - r / (2 tau) = 0
        bg = model_background("gaussian_shrinker_flat", dim=3)
        n = 2
        for tau in np.linspace(0.05, 0.9, 8):
            r = math.sqrt(2 * n * tau)
            # radius r sphere given as a shrinking-sphere fixture with matching r(t)
            r0 = math.sqrt(r**2 + 2 * n * tau)
            mcf = model_mcf("shrinking_sphere_flat", bg, r0=r0)
            x = np.array([1.3, 0.4])
            res = mcf_soliton_residual(mcf, bg.soliton.potential, -1.0, x, tau)
            assert abs(res) < 1e-10

    def test_equator_zero_potential(self):
        bg = model_background("round_sphere", dim=3, r0=1.0, direction="backward")
        mcf = model_mcf("equator_in_sphere", bg)
        zero = bg_potential_zero()
        res = mcf_soliton_residual(mcf, zero, +1.0, np.array([1.2, 0.3]), 0.4)
        assert res == pytest.approx(0.0, abs=1e-10)

    def test_unit_sphere_zero_potential_gives_H(self):
        bg = model_background("euclidean_static", dim=3)
        # r(t) = 1 at t = 0.1 requires r0^2 = 1 + 2 n t
        mcf = model_mcf("shrinking_sphere_flat", bg, r0=math.sqrt(1.4))
        zero = bg_potential_zero()
        res = mcf_soliton_residual(mcf, zero, -1.0, np.array([0.8, 0.2]), 0.1)
        assert res == pytest.approx(2.0, rel=1e-10)  # H = n / r = 2

    def test_bad_sign_rejected(self):
        bg = model_background("euclidean_static", dim=3)
        mcf = model_mcf("shrinking_sphere_flat", bg, r0=1.0)
        with pytest.raises(BackgroundError):
            mcf_soliton_residual(mcf, bg_potential_zero(), 0.5, np.array([0.8, 0.2]), 0.1)


def bg_potential_zero():
    return lambda t: ScalarField.constant(0.0)


class TestExtrinsicGeometry:
    def test_degenerate_induced_metric_on_a_slice_raises(self):
        # polar angle 1e-7: the induced metric has condition number ~1e14
        bg = model_background("euclidean_static", dim=3, direction="forward")
        mcf = model_mcf("shrinking_sphere_flat", bg, r0=1.0)
        with pytest.raises(DegenerateMetricError, match="degenerate induced metric"):
            ref.one_slice(mcf, np.array([1e-7, 0.3]), 0.1)

    def test_one_pair_records_what_the_stack_records(self):
        # each check has one home: a one-row stack records the class and message
        # that slice_stack records for the pair inside a longer stack, and its row's bits
        flat = model_mcf("shrinking_sphere_flat", model_background("euclidean_static", dim=3))
        sphere = model_mcf("equator_in_sphere", model_background("round_sphere", dim=3, direction="backward"))
        good = np.array([1.1, 0.7])
        for mcf, bad_x, bad in (
            (flat, np.array([1e-7, 0.3]), DegenerateMetricError),      # degenerate slice
            (sphere, np.array([0.005, 0.3]), ChartDomainError),        # image in the pole band
        ):
            T = mcf.time_domain[1]
            xs = np.array([good, [np.nan, 0.3], good, bad_x, good])
            ts = [0.5 * T, 0.5 * T, 1.5 * T, 0.5 * T, 0.25 * T]
            stack = slice_stack(mcf, xs, ts)
            assert [type(e) for e in stack.errors] == [type(None), ChartDomainError, ChartDomainError, bad, type(None)]
            assert stack.index.tolist() == [0, 4]
            for i, (x, t, exc) in enumerate(zip(xs, ts, stack.errors)):
                one = slice_stack(mcf, [x], [t])
                if exc is None:
                    j = stack.index.tolist().index(i)
                    assert one.ext[3][0].tobytes() == stack.ext[3][j].tobytes()
                    continue
                [got] = one.errors
                assert isinstance(got, GeometryError)
                assert (type(got), str(got)) == (type(exc), str(exc))

    def test_stack_checks_the_ambient_time_after_the_flow_time(self):
        # a flow whose own time domain outlasts its ambient's
        bg = model_background("round_sphere", dim=3, direction="backward", T=1.0)
        mcf = dataclasses.replace(model_mcf("equator_in_sphere", bg), time_domain=(0.0, 2.0))
        stack = slice_stack(mcf, np.array([[1.1, 0.7]] * 3), [0.5, 1.5, 2.5])
        assert stack.index.tolist() == [0]
        assert [str(e) for e in stack.errors[1:]] == ["time 1.5 outside domain (0.0, 1.0]",
                                                      "time 2.5 outside domain (0.0, 2.0]"]

    def test_routine_records_the_kernel_error_on_a_singular_induced_metric(self):
        from cansol.backgrounds import extrinsic_geometry_batch
        from cansol.geometry import DegenerateMetricError

        tangents = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        ext, [error] = extrinsic_geometry_batch(
            tangents[None], np.zeros((1, 2, 2, 3)), np.eye(3)[None], np.zeros((1, 3, 3, 3)),
            np.array([[0.0, 0.0, 1.0]]),
        )
        assert isinstance(error, DegenerateMetricError)
        assert all(len(a) == 0 for a in ext)

    def test_sphere_of_radius_r_in_flat_space(self):
        from cansol.backgrounds import extrinsic_geometry_batch, sphere_embedding_jet

        r, x = 2.0, np.array([0.7, 1.9])
        omega, d_omega, dd_omega = sphere_embedding_jet(2)(x)
        ext, [error] = extrinsic_geometry_batch(
            r * d_omega[None], r * dd_omega[None], np.eye(3)[None], np.zeros((1, 3, 3, 3)), omega[None]
        )
        assert error is None
        induced, induced_inv, nu, h, H = (a[0] for a in ext)
        assert np.allclose(nu, omega, atol=1e-14)
        assert np.allclose(induced_inv @ induced, np.eye(2), atol=1e-12)
        assert np.allclose(h, induced / r, atol=1e-12)
        assert H == pytest.approx(2.0 / r, rel=1e-12)


class TestSampleBoxes:
    def test_polar_draws_are_unchanged(self):
        # the per-point draws of the polar charts: angles, then the azimuth
        bg = model_background("round_sphere", dim=3, r0=1.0, direction="forward")
        mcf = model_mcf("shrinking_sphere_flat", model_background("euclidean_static", dim=3))
        for chart, d in ((bg.sample_points, 3), (mcf.sample_xs, 2)):
            a, b = np.random.default_rng(9), np.random.default_rng(9)
            for p in chart(5, a):
                expected = np.empty(d)
                expected[:-1] = b.uniform(0.01 + 0.1, math.pi - 0.01 - 0.1, d - 1)
                expected[-1] = b.uniform(0.0, 2.0 * math.pi)
                assert np.array_equal(p, expected)
            assert a.uniform() == b.uniform()

    def test_flat_charts_default_to_the_unit_and_a_half_box(self):
        bg = model_background("euclidean_static", dim=3)
        mcf = model_mcf("static_plane_flat", bg)
        for chart, d in ((bg.sample_points, 3), (mcf.sample_xs, 2)):
            a, b = np.random.default_rng(4), np.random.default_rng(4)
            for p in chart(3, a):
                assert np.array_equal(p, b.uniform(-1.5, 1.5, d))

    def test_flow_time_domain_defaults_to_the_ambient(self):
        bg = model_background("round_sphere", dim=3, r0=1.0, direction="forward")
        assert model_mcf("equator_in_sphere", bg).time_domain == bg.time_domain
        flat = model_background("euclidean_static", dim=3)
        assert model_mcf("shrinking_sphere_flat", flat, r0=1.0).time_domain == (0.0, 0.2)


class TestConformalScalars:
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_time_derivatives_match_differences(self, direction):
        conf = model_background("round_sphere", dim=3, r0=1.0, direction=direction).conformal
        t, h = 0.1, 1e-5
        R, dR, d2R = jets.derivatives(conf.R, t)
        assert R == conf.R(t) == pytest.approx(6.0 / conf.phi(t), rel=1e-15)
        assert dR == pytest.approx((conf.R(t + h) - conf.R(t - h)) / (2 * h), rel=1e-8)
        dR_at = lambda s: jets.derivatives(conf.R, s)[1]
        assert d2R == pytest.approx((dR_at(t + h) - dR_at(t - h)) / (2 * h), rel=1e-8)


# every catalog background, the sphere in both directions and several dimensions
CATALOG = [
    ("euclidean_static", dict(dim=3, direction="forward")),
    ("gaussian_shrinker_flat", dict(dim=4)),
    *[("round_sphere", dict(dim=d, r0=1.3, direction=direction))
      for d in (2, 3, 5) for direction in ("forward", "backward")],
]


def catalog_rows(name, params, count, seed):
    """A catalog background and ``count`` (point, time) rows inside its domain."""
    bg = model_background(name, **params)
    rng = np.random.default_rng(seed)
    hi = bg.time_domain[1]
    return bg, np.array(bg.sample_points(count, rng)), rng.uniform(0.1 * hi, 0.9 * hi, count).tolist()


class TestStackedAnswers:
    """``bundle`` and ``curvature``, the background's answers at a stack of (point, time) rows."""

    @pytest.mark.parametrize("name, params", CATALOG)
    def test_curvature_matches_the_kernel(self, name, params):
        bg, pts, ts = catalog_rows(name, params, 6, seed=3)
        c = bg.curvature(pts, ts)
        b = bg.bundle(pts, ts, order=2)
        assert np.max(np.abs(c.ric - ricci_batch(b))) < 1e-9 * max(1.0, float(np.max(np.abs(c.ric))))
        assert np.allclose(c.R, scalar_curvature_batch(b), rtol=1e-9, atol=1e-9)
        # dR/dt and dR/dy against central differences of the kernel's R
        h = 1e-5

        def kernel_R(points, times):
            return scalar_curvature_batch(bg.bundle(points, times, order=2))

        dRdt = (kernel_R(pts, [t + h for t in ts]) - kernel_R(pts, [t - h for t in ts])) / (2 * h)
        assert np.allclose(c.dRdt, dRdt, rtol=1e-6, atol=1e-6)
        for a, e in enumerate(h * np.eye(bg.dim)):
            assert np.allclose(c.dRdy[:, a], (kernel_R(pts + e, ts) - kernel_R(pts - e, ts)) / (2 * h), atol=1e-5)
        assert c.dRdy.shape == pts.shape

    @pytest.mark.parametrize("name, params", CATALOG)
    def test_each_row_equals_its_own_call(self, name, params):
        bg, pts, ts = catalog_rows(name, params, 5, seed=4)
        b, c = bg.bundle(pts, ts, order=2), bg.curvature(pts, ts)
        assert np.array_equal(b.g, metric_rows(bg, pts, ts))
        for i in range(len(ts)):
            b1, c1 = bg.bundle(pts[i : i + 1], ts[i : i + 1], order=2), bg.curvature(pts[i : i + 1], ts[i : i + 1])
            for field in ("points", "g", "ginv", "dg", "ddg"):
                assert getattr(b, field)[i].tobytes() == getattr(b1, field)[0].tobytes(), (i, field)
            for field in c._fields:
                assert getattr(c, field)[i].tobytes() == getattr(c1, field)[0].tobytes(), (i, field)

    def test_flat_is_the_flat_catalog(self):
        flat = [name for name in catalog_background_names() if model_background(name).flat]
        assert flat == ["euclidean_static", "gaussian_shrinker_flat"]

    @pytest.mark.parametrize("flow, name, params", [
        ("shrinking_sphere_flat", "euclidean_static", dict(dim=3)),
        ("equator_in_sphere", "round_sphere", dict(dim=4, direction="forward")),
    ])
    def test_slices_carry_the_ambient_rows(self, flow, name, params):
        # the slice's g and g^-1, and the curvature its forms read, are the
        # ambient's at the images, row by row and in a one-row stack alike
        bg = model_background(name, **params)
        mcf = model_mcf(flow, bg)
        rng = np.random.default_rng(8)
        xs = np.array(mcf.sample_xs(4, rng))
        ts = rng.uniform(0.1 * mcf.time_domain[1], mcf.time_domain[1], 4).tolist()
        stack = slice_stack(mcf, xs, ts)
        for j, (x, t) in enumerate(zip(xs, ts)):
            one = ref.one_slice(mcf, x, t)
            b, c = bg.bundle(one.jet[0], [t], order=0), bg.curvature(one.jet[0], [t])
            for data, k in ((one, 0), (stack, j)):
                assert data.g[k].tobytes() == b.g[0].tobytes() and data.ginv[k].tobytes() == b.ginv[0].tobytes()
                assert all(a[k].tobytes() == b_[0].tobytes() for a, b_ in zip(_flow_terms(data)[0], c))

    def test_taken_rows_keep_their_bits(self):
        # a taken stack, rows repeated and reordered, is the stack of those pairs, bit for bit
        mcf = model_mcf("equator_in_sphere", model_background("round_sphere", dim=4, direction="forward"))
        rng = np.random.default_rng(12)
        xs = np.array(mcf.sample_xs(4, rng))
        ts = rng.uniform(0.1 * mcf.time_domain[1], mcf.time_domain[1], 4)
        stack = slice_stack(mcf, xs, ts)
        rows = [2, 0, 2, 3, 2]
        taken, direct = stack.take(rows), slice_stack(mcf, xs[rows], ts[rows])
        assert taken.mcf is mcf and taken.errors is stack.errors and taken.index.tolist() == rows
        assert taken.ts == direct.ts
        for a, b in zip((taken.xs, *taken.jet, *taken.ext, taken.g, taken.ginv),
                        (direct.xs, *direct.jet, *direct.ext, direct.g, direct.ginv)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("count", [1, 3])
    def test_a_time_count_other_than_the_point_count_raises(self, count):
        bg, pts, _ = catalog_rows("round_sphere", dict(dim=3), 2, seed=5)
        ts = [0.1] * count   # inside the time domain (0, 0.2]
        for answer in (bg.bundle, bg.curvature):
            with pytest.raises(GeometryError, match=f"^{count} times for 2 points$"):
                answer(pts, ts)
        with pytest.raises(GeometryError, match=rf"^scale factors of shape \({count},\) for 2 points$"):
            metric_bundle(bg.conformal.sigma, pts, scale=ts)
