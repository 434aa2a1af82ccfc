"""Harnack quadratics, the limit identity, boundary matching, functionals."""

import dataclasses
import math

import numpy as np
import pytest

from cansol.backgrounds import (
    hypersurface_point_data,
    model_background,
    model_mcf,
)
from cansol.canonical import build_canonical_metric, limit_ricci
from cansol.geometry import ChartDomainError, ScalarField, scalar_d1
from cansol.harnack import (
    I_GHY,
    I_infty,
    QuadratureError,
    WeightedManifoldData,
    flat_ball_domain,
    limit_second_ff,
    lott_boundary_integrand,
    lott_match_defect,
    mcf_harnack_Ztilde,
    random_polynomial_field,
    rf_harnack_Z,
    stripped_track_quadratic,
    tangential_gradient,
    weighted_mean_curvature,
    weighted_scalar_curvature,
)
from cansol.track import build_track


def flat_fwd():
    return model_background("euclidean_static", dim=3, direction="forward")


def sphere_fwd():
    return model_background("round_sphere", dim=3, r0=1.0, direction="forward")


def gaussian_potential(dim=3):
    return ScalarField(
        value=lambda p: np.sum(p * p, axis=-1) / 4.0,
        d1=lambda p: p / 2.0,
        d2=lambda p: np.broadcast_to(np.eye(dim) / 2.0, p.shape + (dim,)),
    )


class TestFlowHarnack:
    def test_flat_vanishes(self):
        bg = flat_fwd()
        assert rf_harnack_Z(bg, np.array([1.0, -2.0, 0.5]), np.zeros(3), 0.4) == 0.0

    def test_sphere_documented_value(self):
        bg = sphere_fwd()
        p, t = np.array([1.2, 0.8, 2.0]), 0.1
        g = bg.metric_at(t).at(p)
        X = np.zeros(3)
        X[0] = 1.0 / math.sqrt(g[0, 0])
        assert rf_harnack_Z(bg, X, p, t) == pytest.approx(86.6667, abs=1e-3)

    def test_equals_limit_ricci_everywhere(self):
        # definitional identity, kept as a regression guard
        rng = np.random.default_rng(9)
        for bg in (flat_fwd(), sphere_fwd()):
            hi = bg.time_domain[1]
            for p in bg.sample_points(5, rng):
                for t in rng.uniform(0.05 * hi, hi, 3):
                    X = rng.uniform(-2, 2, 3)
                    assert rf_harnack_Z(bg, X, p, t) == limit_ricci(bg, X, p, t)

    def test_backward_rejected(self):
        bg = model_background("euclidean_static", dim=3, direction="backward")
        with pytest.raises(ChartDomainError):
            rf_harnack_Z(bg, np.zeros(3), np.zeros(3), 0.5)


class TestHypersurfaceHarnack:
    def test_shrinking_sphere_zero_vector(self):
        # dH/dt + H/(2t) = n^2/r^3 + n/(2 t r) at n=2, r0=1, t=0.1
        mcf = model_mcf("shrinking_sphere_flat", flat_fwd(), r0=1.0)
        val = mcf_harnack_Ztilde(mcf, np.zeros(2), np.array([1.1, 0.7]), 0.1)
        assert val == pytest.approx(21.5165, abs=1e-3)

    def test_shrinking_sphere_unit_tangent(self):
        mcf = model_mcf("shrinking_sphere_flat", flat_fwd(), r0=1.0)
        x, t = np.array([1.1, 0.7]), 0.1
        hyp = hypersurface_point_data(mcf, x, t)
        V = np.zeros(2)
        V[0] = 1.0 / math.sqrt(hyp.induced[0, 0])
        # previous value plus h(V, V) = 1/sqrt(0.6)
        assert mcf_harnack_Ztilde(mcf, V, x, t) == pytest.approx(22.8076, abs=1e-3)

    def test_static_plane_vanishes(self):
        mcf = model_mcf("static_plane_flat", flat_fwd())
        for V in (np.zeros(2), np.array([1.0, -3.0])):
            assert mcf_harnack_Ztilde(mcf, V, np.array([0.2, 0.4]), 0.5) == 0.0

    def test_curved_background_rejected(self):
        mcf = model_mcf("equator_in_sphere", sphere_fwd())
        with pytest.raises(ChartDomainError):
            mcf_harnack_Ztilde(mcf, np.zeros(2), np.array([1.2, 0.3]), 0.1)


class TestLimitSecondFF:
    def test_flat_identity_with_Ztilde(self):
        bg = flat_fwd()
        for name in ("shrinking_sphere_flat", "static_plane_flat"):
            mcf = model_mcf(name, bg, **({"r0": 1.0} if name.startswith("shrink") else {}))
            rng = np.random.default_rng(11)
            hi = (mcf.time_domain or bg.time_domain)[1]
            for _ in range(5):
                x = mcf.sample_xs(1, rng)[0]
                t = float(rng.uniform(0.05 * hi, hi))
                V = rng.uniform(-2, 2, 2)
                gap = limit_second_ff(bg, mcf, V, x, t) - mcf_harnack_Ztilde(mcf, V, x, t)
                assert abs(gap) < 1e-8

    def test_equator_in_forward_sphere_vanishes(self):
        bg = sphere_fwd()
        mcf = model_mcf("equator_in_sphere", bg)
        val = limit_second_ff(bg, mcf, np.zeros(2), np.array([1.2, 0.4]), 0.1)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_shrinking_sphere_zero_vector_value(self):
        bg = flat_fwd()
        mcf = model_mcf("shrinking_sphere_flat", bg, r0=1.0)
        val = limit_second_ff(bg, mcf, np.zeros(2), np.array([1.1, 0.7]), 0.1)
        assert val == pytest.approx(21.5165, abs=1e-3)

    @pytest.mark.parametrize("which_v", ["zero", "unit"])
    def test_stripped_track_form_converges(self, which_v):
        bg = flat_fwd()
        mcf = model_mcf("shrinking_sphere_flat", bg, r0=1.0)
        x, t = np.array([1.1, 0.7]), 0.1
        if which_v == "zero":
            V = np.zeros(2)
        else:
            hyp = hypersurface_point_data(mcf, x, t)
            V = np.zeros(2)
            V[0] = 1.0 / math.sqrt(hyp.induced[0, 0])
        target = limit_second_ff(bg, mcf, V, x, t)
        errs = []
        for N in (1e3, 2e3, 4e3):
            tr = build_track(mcf, build_canonical_metric(bg, "expanding", N))
            errs.append(abs(stripped_track_quadratic(tr, V, x, t) - target))
        for a, b in zip(errs, errs[1:]):
            assert 0.3 < b / a < 0.7


class TestBoundaryIntegrand:
    def test_constant_potential_static_minimal_boundary(self):
        bg = flat_fwd()
        mcf = model_mcf("static_plane_flat", bg)
        hyp = hypersurface_point_data(mcf, np.array([0.1, 0.9]), 0.5)
        val = lott_boundary_integrand(bg, hyp, ScalarField.constant(2.0), 0.5)
        assert val == 0.0

    def test_radial_potential_leaves_dHdt(self):
        # grad f is purely normal on the sphere, so only dH/dt survives
        bg = flat_fwd()
        mcf = model_mcf("shrinking_sphere_flat", bg, r0=1.0)
        x, t = np.array([1.1, 0.7]), 0.1
        hyp = hypersurface_point_data(mcf, x, t)
        val = lott_boundary_integrand(bg, hyp, gaussian_potential(), t)
        r = math.sqrt(0.6)
        assert val == pytest.approx(4.0 / r**3, rel=1e-10)

    def test_tangential_gradient_is_tangent(self):
        bg = flat_fwd()
        mcf = model_mcf("shrinking_sphere_flat", bg, r0=1.0)
        x, t = np.array([1.1, 0.7]), 0.1
        hyp = hypersurface_point_data(mcf, x, t)
        f = random_polynomial_field(3, np.random.default_rng(5))
        comps, tang = tangential_gradient(bg, hyp, f, t)
        g = bg.metric_at(t).at(hyp.position)
        assert abs(float(tang @ g @ hyp.normal)) < 1e-12
        assert np.allclose(comps @ hyp.tangents, tang, atol=1e-12)

    def test_match_identity_for_seeded_polynomials(self):
        bg = flat_fwd()
        mcf = model_mcf("shrinking_sphere_flat", bg, r0=1.0)
        x, t = np.array([1.1, 0.7]), 0.1
        rng = np.random.default_rng(2026)
        worst = 0.0
        for _ in range(20):
            f = random_polynomial_field(3, rng)
            worst = max(worst, abs(lott_match_defect(bg, mcf, f, x, t)))
        assert worst < 1e-6

    def test_polynomial_field_derivatives_consistent(self):
        from cansol.geometry import scalar_d2

        f = random_polynomial_field(3, np.random.default_rng(17))
        fd = ScalarField(value=f.value)
        for p in np.random.default_rng(3).uniform(-1, 1, (5, 3)):
            assert np.allclose(scalar_d1(f, p), scalar_d1(fd, p), atol=1e-8)
            assert np.allclose(scalar_d2(f, p), scalar_d2(fd, p), atol=1e-6)


class TestWeightedCurvatures:
    def test_zero_potential_reduces_to_plain_curvatures(self):
        wm = flat_ball_domain(grid=(8, 12, 8))
        assert weighted_scalar_curvature(wm, np.array([0.2, 0.1, -0.3])) == 0.0
        assert weighted_mean_curvature(wm, 0) == pytest.approx(2.0)

    def test_gaussian_ball_values(self):
        wm = flat_ball_domain(potential=gaussian_potential(), grid=(8, 12, 8))
        q = np.array([0.3, 0.2, 0.1])
        # R^inf = 2 * (3/2) - |y|^2/4
        assert weighted_scalar_curvature(wm, q) == pytest.approx(3.0 - float(q @ q) / 4.0)
        # H^inf at the unit boundary: 2 - 1/2
        assert weighted_mean_curvature(wm, 3) == pytest.approx(1.5)

    def test_boundary_index_mismatch(self):
        wm = flat_ball_domain(grid=(8, 12, 8))
        with pytest.raises(QuadratureError):
            weighted_mean_curvature(wm, len(wm.boundary_points))


class TestFunctionals:
    def test_unit_ball_value(self):
        # f = 0: I_infty = 2 * H * Area = 16 pi, within 0.1%
        val = I_infty(flat_ball_domain())
        assert abs(val - 16 * math.pi) / (16 * math.pi) < 1e-3

    def test_zero_weight_equality(self):
        wm = flat_ball_domain(grid=(12, 16, 8))
        assert I_infty(wm) == I_GHY(wm)

    def test_gaussian_refinement(self):
        a = I_infty(flat_ball_domain(potential=gaussian_potential(), grid=(16, 24, 8)))
        b = I_infty(flat_ball_domain(potential=gaussian_potential(), grid=(32, 48, 16)))
        assert abs(b - a) / abs(b) < 1e-3

    def test_determinism(self):
        va = I_infty(flat_ball_domain(potential=gaussian_potential(), grid=(8, 12, 8)))
        vb = I_infty(flat_ball_domain(potential=gaussian_potential(), grid=(8, 12, 8)))
        assert va == vb

    @pytest.mark.parametrize("potential", [None, gaussian_potential()], ids=["zero", "gaussian"])
    def test_engine_curvature_matches_closed_form(self, potential):
        # without the closed form, R comes from the kernel on order-2 bundles
        closed = flat_ball_domain(potential=potential, grid=(6, 12, 4))
        engine = dataclasses.replace(closed, scalar_curvature_at=None)
        for functional in (I_infty, I_GHY):
            assert functional(engine) == pytest.approx(functional(closed), rel=1e-12, abs=1e-12)

    def test_empty_grid_rejected(self):
        wm = flat_ball_domain(grid=(8, 12, 8))
        with pytest.raises(QuadratureError):
            WeightedManifoldData(
                metric=wm.metric,
                potential=wm.potential,
                interior_points=np.zeros((0, 3)),
                interior_weights=np.zeros(0),
                boundary_points=wm.boundary_points,
                boundary_weights=wm.boundary_weights,
                boundary_normals=wm.boundary_normals,
                boundary_mean_curvatures=wm.boundary_mean_curvatures,
            )

    def test_bad_normals_rejected(self):
        wm = flat_ball_domain(grid=(8, 12, 8))
        with pytest.raises(QuadratureError):
            WeightedManifoldData(
                metric=wm.metric,
                potential=wm.potential,
                interior_points=wm.interior_points,
                interior_weights=wm.interior_weights,
                boundary_points=wm.boundary_points,
                boundary_weights=wm.boundary_weights,
                boundary_normals=2.0 * wm.boundary_normals,
                boundary_mean_curvatures=wm.boundary_mean_curvatures,
            )
