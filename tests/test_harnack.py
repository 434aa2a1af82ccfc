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
from cansol.canonical import CanonicalConfigError, build_canonical_metric, limit_riccis
from cansol.geometry import ChartDomainError, ScalarField, hessian_batch, scalar_d1
from cansol.harnack import (
    QuadratureError,
    WeightedManifoldData,
    _weighted_mean_curvatures,
    flat_ball_domain,
    limit_second_ff,
    lott_boundary_integrand,
    lott_match_defect,
    random_polynomial_field,
    stripped_track_form,
    tangential_gradient,
    weighted_functionals,
    weighted_scalar_curvature,
)
from cansol.track import build_track, track_point_data


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
    """Z(X, X), the large-N limit of the canonical expander's Ricci: ``limit_riccis``."""

    def test_flat_vanishes(self):
        bg = flat_fwd()
        assert limit_riccis(bg, [np.array([1.0, -2.0, 0.5])], [np.zeros(3)], [0.4]) == [0.0]

    def test_sphere_documented_value(self):
        bg = sphere_fwd()
        p, t = np.array([1.2, 0.8, 2.0]), 0.1
        [g] = bg.bundle([p], [t], order=0).g
        X = np.zeros(3)
        X[0] = 1.0 / math.sqrt(g[0, 0])
        [z] = limit_riccis(bg, [X], [p], [t])
        assert z == pytest.approx(86.6667, abs=1e-3)

    def test_sphere_hand_formula_everywhere(self):
        # on the forward unit 3-sphere phi = 1 - 4t: Ric = 2 sigma, R = 6/phi,
        # dR/dt = 24/phi^2 and grad R = 0
        bg = sphere_fwd()
        rng = np.random.default_rng(9)
        hi = bg.time_domain[1]
        for p in bg.sample_points(5, rng):
            for t in rng.uniform(0.05 * hi, hi, 3):
                X = rng.uniform(-2, 2, 3)
                phi = 1.0 - 4.0 * t
                sigma = bg.conformal.sigma.components(p)
                hand = 2.0 * X @ sigma @ X + 0.5 * (24.0 / phi**2 + 6.0 / (phi * t))
                [z] = limit_riccis(bg, [X], [p], [t])
                assert z == pytest.approx(hand, rel=1e-12)

    def test_backward_rejected(self):
        bg = model_background("euclidean_static", dim=3, direction="backward")
        with pytest.raises(CanonicalConfigError):
            limit_riccis(bg, [np.zeros(3)], [np.zeros(3)], [0.5])


class TestHypersurfaceHarnack:
    """Z~(V, V), which ``limit_second_ff`` is on a flat background."""

    def test_shrinking_sphere_zero_vector(self):
        # dH/dt + H/(2t) = n^2/r^3 + n/(2 t r) at n=2, r0=1, t=0.1
        mcf = model_mcf("shrinking_sphere_flat", flat_fwd(), r0=1.0)
        val = limit_second_ff(hypersurface_point_data(mcf, np.array([1.1, 0.7]), 0.1), np.zeros(2))
        assert val == pytest.approx(21.5165, abs=1e-3)

    def test_shrinking_sphere_unit_tangent(self):
        mcf = model_mcf("shrinking_sphere_flat", flat_fwd(), r0=1.0)
        x, t = np.array([1.1, 0.7]), 0.1
        hyp = hypersurface_point_data(mcf, x, t)
        V = np.zeros(2)
        V[0] = 1.0 / math.sqrt(hyp.induced[0, 0])
        # previous value plus h(V, V) = 1/sqrt(0.6)
        assert limit_second_ff(hyp, V) == pytest.approx(22.8076, abs=1e-3)

    def test_shrinking_sphere_hand_formula_everywhere(self):
        # h = g_M / r on the sphere of radius r = sqrt(1 - 4t), and H = 2/r is
        # constant in space: Z~ = 4/r^3 + g_M(V, V)/r + 1/(t r)
        mcf = model_mcf("shrinking_sphere_flat", flat_fwd(), r0=1.0)
        rng = np.random.default_rng(11)
        hi = mcf.time_domain[1]
        for _ in range(5):
            x = mcf.sample_xs(1, rng)[0]
            t = float(rng.uniform(0.05 * hi, hi))
            V = rng.uniform(-2, 2, 2)
            hyp = hypersurface_point_data(mcf, x, t)
            r = math.sqrt(1.0 - 4.0 * t)
            hand = 4.0 / r**3 + float(V @ hyp.induced @ V) / r + 1.0 / (t * r)
            assert limit_second_ff(hyp, V) == pytest.approx(hand, rel=1e-9)

    def test_static_plane_vanishes(self):
        mcf = model_mcf("static_plane_flat", flat_fwd())
        hyp = hypersurface_point_data(mcf, np.array([0.2, 0.4]), 0.5)
        for V in (np.zeros(2), np.array([1.0, -3.0])):
            assert limit_second_ff(hyp, V) == 0.0

    def test_backward_background_rejected(self):
        bg = model_background("euclidean_static", dim=3, direction="backward")
        mcf = model_mcf("static_plane_flat", bg)
        with pytest.raises(CanonicalConfigError, match="forward flow"):
            limit_second_ff(hypersurface_point_data(mcf, np.array([0.2, 0.4]), 0.5), np.zeros(2))


class TestLimitSecondFF:
    def test_equator_in_forward_sphere_vanishes(self):
        bg = sphere_fwd()
        mcf = model_mcf("equator_in_sphere", bg)
        val = limit_second_ff(hypersurface_point_data(mcf, np.array([1.2, 0.4]), 0.1), np.zeros(2))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_shrinking_sphere_zero_vector_value(self):
        bg = flat_fwd()
        mcf = model_mcf("shrinking_sphere_flat", bg, r0=1.0)
        val = limit_second_ff(hypersurface_point_data(mcf, np.array([1.1, 0.7]), 0.1), np.zeros(2))
        assert val == pytest.approx(21.5165, abs=1e-3)

    @pytest.mark.parametrize("which_v", ["zero", "unit"])
    def test_stripped_track_form_converges(self, which_v):
        bg = flat_fwd()
        mcf = model_mcf("shrinking_sphere_flat", bg, r0=1.0)
        x, t = np.array([1.1, 0.7]), 0.1
        hyp = hypersurface_point_data(mcf, x, t)
        V = np.zeros(2)
        if which_v == "unit":
            V[0] = 1.0 / math.sqrt(hyp.induced[0, 0])
        target = limit_second_ff(hyp, V)
        errs = []
        for N in (1e3, 2e3, 4e3):
            tr = build_track(mcf, build_canonical_metric(bg, "expanding", N))
            errs.append(abs(stripped_track_form(track_point_data(tr, x, t), V) - target))
        for a, b in zip(errs, errs[1:]):
            assert 0.3 < b / a < 0.7


class TestBoundaryIntegrand:
    def test_constant_potential_static_minimal_boundary(self):
        bg = flat_fwd()
        mcf = model_mcf("static_plane_flat", bg)
        hyp = hypersurface_point_data(mcf, np.array([0.1, 0.9]), 0.5)
        val = lott_boundary_integrand(hyp, scalar_d1(ScalarField.constant(2.0), hyp.position))
        assert val == 0.0

    def test_radial_potential_leaves_dHdt(self):
        # grad f is purely normal on the sphere, so only dH/dt survives
        bg = flat_fwd()
        mcf = model_mcf("shrinking_sphere_flat", bg, r0=1.0)
        x, t = np.array([1.1, 0.7]), 0.1
        hyp = hypersurface_point_data(mcf, x, t)
        val = lott_boundary_integrand(hyp, scalar_d1(gaussian_potential(), hyp.position))
        r = math.sqrt(0.6)
        assert val == pytest.approx(4.0 / r**3, rel=1e-10)

    def test_tangential_gradient_is_tangent(self):
        bg = flat_fwd()
        mcf = model_mcf("shrinking_sphere_flat", bg, r0=1.0)
        x, t = np.array([1.1, 0.7]), 0.1
        hyp = hypersurface_point_data(mcf, x, t)
        f = random_polynomial_field(3, np.random.default_rng(5))
        comps, tang = tangential_gradient(hyp, scalar_d1(f, hyp.position))
        [g] = bg.bundle([hyp.position], [t], order=0).g
        assert abs(float(tang @ g @ hyp.normal)) < 1e-12
        assert np.allclose(comps @ hyp.tangents, tang, atol=1e-12)

    def test_match_identity_for_seeded_polynomials(self):
        bg = flat_fwd()
        mcf = model_mcf("shrinking_sphere_flat", bg, r0=1.0)
        x, t = np.array([1.1, 0.7]), 0.1
        hyp = hypersurface_point_data(mcf, x, t)
        rng = np.random.default_rng(2026)
        worst = 0.0
        for _ in range(20):
            f = random_polynomial_field(3, rng)
            worst = max(worst, abs(lott_match_defect(hyp, scalar_d1(f, hyp.position))))
        assert worst < 1e-6

    def test_polynomial_field_derivatives_consistent(self):
        f = random_polynomial_field(3, np.random.default_rng(17))
        fd = ScalarField(value=f.value)
        # on a flat metric the covariant Hessian is the matrix of second partials
        flat = model_background("euclidean_static", dim=3)
        for p in np.random.default_rng(3).uniform(-1, 1, (5, 3)):
            assert np.allclose(scalar_d1(f, p), scalar_d1(fd, p), atol=1e-8)
            b = flat.bundle([p], [0.5])
            assert np.allclose(hessian_batch(b, f)[0], hessian_batch(b, fd)[0], atol=1e-6)


class TestOnePointFormInput:
    """The slice and track forms take one vector of the chart's dimension; any other is a typed error."""

    @staticmethod
    def forms():
        """Each form as (call on its vector, the chart dimension it asks for)."""
        bg = flat_fwd()
        mcf = model_mcf("shrinking_sphere_flat", bg, r0=1.0)
        x, t = np.array([1.1, 0.7]), 0.1
        hyp = hypersurface_point_data(mcf, x, t)
        d = track_point_data(build_track(mcf, build_canonical_metric(bg, "expanding", 1e3)), x, t)
        return {
            "limit_second_ff": (lambda V: limit_second_ff(hyp, V), 2),
            "stripped_track_form": (lambda V: stripped_track_form(d, V), 2),
            "tangential_gradient": (lambda df: tangential_gradient(hyp, df), 3),
            "lott_boundary_integrand": (lambda df: lott_boundary_integrand(hyp, df), 3),
            "lott_match_defect": (lambda df: lott_match_defect(hyp, df), 3),
        }

    @pytest.mark.parametrize("form", ["limit_second_ff", "stripped_track_form", "tangential_gradient",
                                      "lott_boundary_integrand", "lott_match_defect"])
    def test_a_wrong_vector_is_a_chart_domain_error(self, form):
        call, dim = self.forms()[form]
        for k in (dim - 1, dim + 1):
            with pytest.raises(ChartDomainError) as info:
                call(np.ones(k))
            assert type(info.value) is ChartDomainError
            assert str(info.value) == f"vector has dimension {k}, chart has {dim}"
        for stack in (np.ones((1, dim)), np.ones((2, dim))):
            with pytest.raises(ChartDomainError, match=rf"^chart vector must have shape \({dim},\), got "):
                call(stack)


class TestWeightedCurvatures:
    def test_zero_potential_reduces_to_plain_curvatures(self):
        wm = flat_ball_domain(grid=(8, 12, 8))
        assert weighted_scalar_curvature(wm, np.array([0.2, 0.1, -0.3])) == 0.0
        # H^inf = H - nu f at every boundary sample
        assert _weighted_mean_curvatures(wm, slice(None)).tolist() == [2.0] * len(wm.boundary_points)

    def test_gaussian_ball_values(self):
        wm = flat_ball_domain(potential=gaussian_potential(), grid=(8, 12, 8))
        q = np.array([0.3, 0.2, 0.1])
        # R^inf = 2 * (3/2) - |y|^2/4
        assert weighted_scalar_curvature(wm, q) == pytest.approx(3.0 - float(q @ q) / 4.0)
        # H^inf at the unit boundary: 2 - 1/2
        assert _weighted_mean_curvatures(wm, slice(None)) == pytest.approx(np.full(len(wm.boundary_points), 1.5))


def with_entry(array, index, value):
    """A copy of ``array`` with ``value`` at ``index``."""
    out = array.copy()
    out[index] = value
    return out


class TestFunctionals:
    def test_unit_ball_value(self):
        # f = 0: I_infty = 2 * H * Area = 16 pi, within 0.1%
        val = weighted_functionals(flat_ball_domain()).I_infty
        assert abs(val - 16 * math.pi) / (16 * math.pi) < 1e-3

    def test_zero_weight_equality(self):
        vi, vg = weighted_functionals(flat_ball_domain(grid=(12, 16, 8)))
        assert vi == vg

    def test_gaussian_refinement(self):
        a, _ = weighted_functionals(flat_ball_domain(potential=gaussian_potential(), grid=(16, 24, 8)))
        b, _ = weighted_functionals(flat_ball_domain(potential=gaussian_potential(), grid=(32, 48, 16)))
        assert abs(b - a) / abs(b) < 1e-3

    def test_determinism(self):
        va = weighted_functionals(flat_ball_domain(potential=gaussian_potential(), grid=(8, 12, 8)))
        vb = weighted_functionals(flat_ball_domain(potential=gaussian_potential(), grid=(8, 12, 8)))
        assert va == vb

    @pytest.mark.parametrize("potential", [None, gaussian_potential()], ids=["zero", "gaussian"])
    def test_engine_curvature_matches_closed_form(self, potential):
        # without the closed form, R comes from the kernel on order-2 bundles
        closed = flat_ball_domain(potential=potential, grid=(6, 12, 4))
        engine = dataclasses.replace(closed, scalar_curvature_at=None)
        assert weighted_functionals(engine) == pytest.approx(
            weighted_functionals(closed), rel=1e-12, abs=1e-12)

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

    def test_non_positive_weights_rejected(self):
        wm = flat_ball_domain(grid=(8, 12, 8))
        with pytest.raises(QuadratureError) as info:
            dataclasses.replace(wm, boundary_weights=-wm.boundary_weights)
        assert str(info.value) == "quadrature weights must be positive"

    def test_nan_interior_weight_rejected(self):
        # else I_infty and I_GHY come out nan
        wm = flat_ball_domain(grid=(4, 8, 4))
        with pytest.raises(QuadratureError) as info:
            dataclasses.replace(wm, interior_weights=with_entry(wm.interior_weights, 5, math.nan))
        assert str(info.value) == "quadrature weights must be finite"

    def test_infinite_boundary_weight_rejected(self):
        # else I_infty comes out inf
        wm = flat_ball_domain(grid=(4, 8, 4))
        with pytest.raises(QuadratureError) as info:
            dataclasses.replace(wm, boundary_weights=with_entry(wm.boundary_weights, -1, math.inf))
        assert str(info.value) == "quadrature weights must be finite"

    def test_nan_mean_curvature_rejected(self):
        # else I_GHY comes out nan
        wm = flat_ball_domain(grid=(4, 8, 4))
        with pytest.raises(QuadratureError) as info:
            dataclasses.replace(
                wm, boundary_mean_curvatures=with_entry(wm.boundary_mean_curvatures, 3, math.nan))
        assert str(info.value) == "boundary mean curvatures must be finite"

    def test_nan_normal_rejected(self):
        # else I_infty comes out nan
        wm = flat_ball_domain(grid=(4, 8, 4))
        with pytest.raises(QuadratureError) as info:
            dataclasses.replace(wm, boundary_normals=with_entry(wm.boundary_normals, 2, math.nan))
        assert str(info.value) == "boundary normals must be unit vectors"

    @pytest.mark.parametrize("grid", [(1, 12, 8), (8, 1, 8), (8, 12, 1)])
    def test_too_coarse_grid_rejected(self, grid):
        with pytest.raises(QuadratureError) as info:
            flat_ball_domain(grid=grid)
        assert str(info.value) == f"grid {grid} too coarse"

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

    @pytest.mark.parametrize("index", [0, 10, -1])
    def test_every_normal_is_checked(self, index):
        wm = flat_ball_domain(grid=(8, 12, 8))
        normals = wm.boundary_normals.copy()
        normals[index] *= 2.0
        with pytest.raises(QuadratureError) as info:
            dataclasses.replace(wm, boundary_normals=normals)
        assert str(info.value) == "boundary normals must be unit vectors"
