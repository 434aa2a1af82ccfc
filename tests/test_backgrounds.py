"""Catalog fixtures are exact solutions; every residual here must vanish."""

import math

import numpy as np
import pytest

from cansol.backgrounds import (
    BackgroundError,
    GradientSolitonData,
    TimeScalarField,
    gradient_soliton_residual,
    hypersurface_point_data,
    mcf_soliton_residual,
    model_background,
    model_mcf,
    ricci_flow_residual,
)
from cansol.geometry import ChartDomainError, tensor_norm


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
        for t in sample_times(bg, 5, rng):
            for p in bg.sample_points(3, rng):
                assert np.allclose(bg.ricci_at(p, t), 0.0)
                snap = bg.metric_at(t)
                assert np.allclose(snap.at(p), np.eye(3))

    def test_round_sphere_scalar_curvature_value(self):
        # forward sphere, d = 3, r0 = 1 at t = 0.1: R = 6 / (1 - 4 * 0.1) = 10
        bg = model_background("round_sphere", dim=3, r0=1.0, direction="forward")
        p = np.array([1.2, 1.0, 0.5])
        assert bg.scalar_at(p, 0.1) == pytest.approx(10.0, rel=1e-12)
        from cansol.geometry import scalar_curvature

        assert scalar_curvature(bg.metric_at(0.1), p) == pytest.approx(10.0, rel=1e-10)

    def test_round_sphere_forward_exact_flow(self, rng):
        bg = model_background("round_sphere", dim=3, r0=1.0, direction="forward")
        for t in sample_times(bg, 3, rng):
            for p in bg.sample_points(2, rng):
                expected = -2.0 * bg.ricci_at(p, t)
                assert np.allclose(bg.dt_metric_at(p, t), expected, atol=1e-12)

    def test_unknown_name(self):
        with pytest.raises(BackgroundError):
            model_background("torus")

    def test_bad_params(self):
        with pytest.raises(BackgroundError):
            model_background("round_sphere", dim=3, r0=-1.0)
        with pytest.raises(BackgroundError):
            model_background("euclidean_static", dim=3, radius=2.0)

    def test_forward_sphere_domain_ends_before_singular_time(self):
        bg = model_background("round_sphere", dim=3, r0=1.0, direction="forward")
        assert bg.time_domain[1] < 0.25
        with pytest.raises(ChartDomainError):
            bg.metric_at(0.3)

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
                fd = (bg.metric_at(t + h).at(p) - bg.metric_at(t - h).at(p)) / (2 * h)
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
                assert tensor_norm(bg.metric_at(t), res, p) < 1e-8

    def test_corrupted_background_residual_by_hand(self):
        # flat metric scaled by 1 + t^2 is not a flow solution: residual 2t * delta
        from cansol.backgrounds import ConformalFamily, RicciFlowBackground
        from cansol.geometry import MetricField

        dim = 3
        eye = np.eye(dim)
        conf = ConformalFamily(
            sigma=MetricField(
                dim=dim,
                components=lambda p: np.zeros(p.shape[:-1] + (dim, dim)) + eye,
                d1=lambda p: np.zeros(p.shape[:-1] + (dim,) * 3),
                d2=lambda p: np.zeros(p.shape[:-1] + (dim,) * 4),
            ),
            phi=lambda t: 1.0 + t**2,
            dphi=lambda t: 2.0 * t,
            d2phi=lambda t: 2.0,
            sigma_scalar=0.0,
            ric_sigma=lambda p: np.zeros((dim, dim)),
        )
        bg = RicciFlowBackground("corrupted", dim, "forward", (0.0, 1.0), conf)
        t, p = 0.6, np.array([0.1, -0.4, 0.8])
        res = ricci_flow_residual(bg, p, t)
        assert np.allclose(res.entries, 2.0 * t * eye, atol=1e-10)
        # norm against g = (1 + t^2) delta: |res| = 2t sqrt(d) / (1 + t^2)
        expected_norm = 2.0 * t * math.sqrt(dim) / (1.0 + t**2)
        assert tensor_norm(bg.metric_at(t), res, p) == pytest.approx(expected_norm, rel=1e-10)


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
        for t in sample_times(bg, 3, rng):
            for x in mcf.sample_xs(3, rng):
                data = hypersurface_point_data(mcf, x, t)
                assert np.allclose(data.velocity, 0.0)
                assert data.mean_curvature == pytest.approx(0.0, abs=1e-10)
                assert np.max(np.abs(data.second_ff)) < 1e-10

    def test_static_plane_flat(self, rng):
        bg = model_background("euclidean_static", dim=3)
        mcf = model_mcf("static_plane_flat", bg)
        data = hypersurface_point_data(mcf, np.array([0.4, -0.2]), 0.5)
        assert data.mean_curvature == 0.0
        assert np.allclose(data.second_ff, 0.0)
        res = ricci_flow_residual(bg, data.position, 0.5)
        assert np.allclose(res.entries, 0.0)

    def test_incompatible_background(self):
        sphere_bg = model_background("round_sphere", dim=3, r0=1.0, direction="backward")
        with pytest.raises(BackgroundError):
            model_mcf("shrinking_sphere_flat", sphere_bg)
        flat_bg = model_background("euclidean_static", dim=3)
        with pytest.raises(BackgroundError):
            model_mcf("equator_in_sphere", flat_bg)

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
        for t in np.random.default_rng(1).uniform(0.05 * hi, hi, 5):
            for x in mcf.sample_xs(10, rng):
                data = hypersurface_point_data(mcf, x, t)
                g = bg.metric_at(t).at(data.position)
                normal_speed = float(data.velocity @ g @ data.normal)
                assert normal_speed == pytest.approx(-data.mean_curvature, abs=1e-8)
                # tangential reparametrization allowed: compare projections only
                tangential = data.velocity - normal_speed * data.normal
                proj = data.tangents @ g @ tangential
                recon = data.induced_inv @ proj
                assert np.allclose(data.tangents.T @ recon, tangential, atol=1e-8)

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
        data = hypersurface_point_data(mcf, x, t)
        r = math.sqrt(0.6)
        assert data.mean_curvature == pytest.approx(2.0 / r, rel=1e-10)
        assert data.dt_mean_curvature == pytest.approx(4.0 / r**3, rel=1e-12)
        # h = g / r with the outward orientation
        assert np.allclose(data.second_ff, data.induced / r, atol=1e-10)

    def test_mean_curvature_derivatives_fall_back_to_differences(self):
        import dataclasses

        bg = model_background("euclidean_static", dim=3)
        mcf = model_mcf("shrinking_sphere_flat", bg, r0=1.0)
        bare = dataclasses.replace(mcf, dx_mean_curvature=None, dt_mean_curvature=None)
        x, t = np.array([0.9, 2.1]), 0.1
        exact, fd = hypersurface_point_data(mcf, x, t), hypersurface_point_data(bare, x, t)
        assert np.allclose(fd.dx_mean_curvature, exact.dx_mean_curvature, atol=1e-7)
        assert fd.dt_mean_curvature == pytest.approx(exact.dt_mean_curvature, rel=1e-6)

    @pytest.mark.parametrize("missing", ["dx_mean_curvature", "dt_mean_curvature"])
    def test_a_given_mean_curvature_derivative_is_kept(self, missing):
        import dataclasses

        bg = model_background("euclidean_static", dim=3)
        mcf = model_mcf("shrinking_sphere_flat", bg, r0=1.0)
        x, t = np.array([0.9, 2.1]), 0.1
        exact = hypersurface_point_data(mcf, x, t)
        part = hypersurface_point_data(dataclasses.replace(mcf, **{missing: None}), x, t)
        [kept] = {"dx_mean_curvature", "dt_mean_curvature"} - {missing}
        assert np.array_equal(getattr(part, kept), getattr(exact, kept))
        assert np.allclose(getattr(part, missing), getattr(exact, missing), rtol=1e-6, atol=1e-7)

    def test_time_fallback_reaches_the_final_time(self):
        # t + h lies past T, so dH/dt comes from the backward stencil
        import dataclasses

        bg = model_background("euclidean_static", dim=3, T=0.2)
        mcf = model_mcf("shrinking_sphere_flat", bg, r0=1.0)
        bare = dataclasses.replace(mcf, dt_mean_curvature=None)
        t = bg.time_domain[1]
        data = hypersurface_point_data(bare, np.array([1.1, 0.7]), t)
        # dH/dt = n^2 / r^3 with r^2 = r0^2 - 2 n t
        assert data.dt_mean_curvature == pytest.approx(4.0 / (1.0 - 4.0 * t) ** 1.5, rel=1e-6)

    def test_slice_carries_its_background(self):
        bg = model_background("euclidean_static", dim=3)
        mcf = model_mcf("shrinking_sphere_flat", bg, r0=1.0)
        assert hypersurface_point_data(mcf, np.array([1.1, 0.7]), 0.1).ambient is bg

    def test_spatial_fallback_reaches_the_final_time(self):
        # with dH/dt given, H is differenced in x only, never at t > T
        import dataclasses

        bg = model_background("euclidean_static", dim=3)
        mcf = model_mcf("static_plane_flat", bg, height=0.3)
        x, t = np.array([0.4, -1.2]), mcf.time_domain[1]
        exact = hypersurface_point_data(mcf, x, t)
        part = hypersurface_point_data(dataclasses.replace(mcf, dx_mean_curvature=None), x, t)
        assert part.dt_mean_curvature == exact.dt_mean_curvature
        assert np.allclose(part.dx_mean_curvature, exact.dx_mean_curvature, atol=1e-9)


class TestGradientSolitonResidual:
    def test_gaussian_shrinker_exact(self, rng):
        bg = model_background("gaussian_shrinker_flat", dim=3)
        for t in sample_times(bg, 5, rng):
            for p in bg.sample_points(5, rng):
                res = gradient_soliton_residual(bg, bg.soliton, p, t)
                assert np.max(np.abs(res.entries)) < 1e-12

    def test_flat_steady_zero_potential(self):
        bg = model_background("euclidean_static", dim=3)
        sol = GradientSolitonData(bg_potential_zero(), "steady")
        res = gradient_soliton_residual(bg, sol, np.array([0.3, 0.1, -0.2]), 0.5)
        assert np.allclose(res.entries, 0.0, atol=1e-14)

    def test_flat_steady_linear_and_quadratic_potentials(self):
        bg = model_background("euclidean_static", dim=3)
        linear = GradientSolitonData(
            TimeScalarField(value=lambda y, t: y[..., 0],
                            dy=lambda y, t: np.broadcast_to([1.0, 0.0, 0.0], y.shape),
                            dyy=lambda y, t: np.zeros(y.shape + (3,))),
            "steady",
        )
        res = gradient_soliton_residual(bg, linear, np.array([0.2, 0.5, 0.7]), 0.3)
        assert np.allclose(res.entries, 0.0, atol=1e-14)

        quadratic = GradientSolitonData(
            TimeScalarField(value=lambda y, t: y[..., 0] ** 2,
                            dy=lambda y, t: 2.0 * y * np.array([1.0, 0.0, 0.0]),
                            dyy=lambda y, t: np.broadcast_to(np.diag([2.0, 0.0, 0.0]),
                                                             y.shape + (3,))),
            "steady",
        )
        res = gradient_soliton_residual(bg, quadratic, np.array([0.2, 0.5, 0.7]), 0.3)
        assert np.allclose(res.entries, np.diag([2.0, 0.0, 0.0]), atol=1e-14)


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
    return TimeScalarField(value=lambda y, t: np.zeros(y.shape[:-1]),
                           dy=lambda y, t: np.zeros(y.shape),
                           dyy=lambda y, t: np.zeros(y.shape + y.shape[-1:]))


class TestExtrinsicGeometry:
    def test_degenerate_induced_metric_on_a_slice_raises(self):
        # polar angle 1e-7: the induced metric has condition number ~1e14
        bg = model_background("euclidean_static", dim=3, direction="forward")
        mcf = model_mcf("shrinking_sphere_flat", bg, r0=1.0)
        with pytest.raises(BackgroundError, match="degenerate induced metric"):
            hypersurface_point_data(mcf, np.array([1e-7, 0.3]), 0.1)

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
        assert conf.R(t) == pytest.approx(6.0 / conf.phi(t), rel=1e-15)
        assert conf.dR(t) == pytest.approx((conf.R(t + h) - conf.R(t - h)) / (2 * h), rel=1e-8)
        assert conf.d2R(t) == pytest.approx((conf.dR(t + h) - conf.dR(t - h)) / (2 * h), rel=1e-8)
