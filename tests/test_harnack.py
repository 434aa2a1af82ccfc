"""Harnack quadratics, the limit identity, boundary matching, functionals."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_kernel as ref
from cansol.backgrounds import model_background, model_mcf, slice_stack
from cansol.canonical import CanonicalConfigError, build_canonical_metric, limit_riccis
from cansol.geometry import ChartDomainError, GeometryError, ScalarField, hessian_batch, scalar_d1
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
from cansol.track import (
    build_track,
    closed_form_normal_potential,
    closed_form_second_ff,
    limit_inverse_metric,
    track_stacks,
)


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


def limit_at(mcf, x, t, V):
    """``limit_second_ff`` on V at the one pair (x, t), a float."""
    return limit_second_ff(ref.one_slice(mcf, x, t), [V]).item()


class TestHypersurfaceHarnack:
    """Z~(V, V), which ``limit_second_ff`` is on a flat background."""

    def test_shrinking_sphere_zero_vector(self):
        # dH/dt + H/(2t) = n^2/r^3 + n/(2 t r) at n=2, r0=1, t=0.1
        mcf = model_mcf("shrinking_sphere_flat", flat_fwd(), r0=1.0)
        assert limit_at(mcf, np.array([1.1, 0.7]), 0.1, np.zeros(2)) == pytest.approx(21.5165, abs=1e-3)

    def test_shrinking_sphere_unit_tangent(self):
        mcf = model_mcf("shrinking_sphere_flat", flat_fwd(), r0=1.0)
        x, t = np.array([1.1, 0.7]), 0.1
        V = np.zeros(2)
        V[0] = 1.0 / math.sqrt(ref.one_slice(mcf, x, t).ext[0][0, 0, 0])
        # previous value plus h(V, V) = 1/sqrt(0.6)
        assert limit_at(mcf, x, t, V) == pytest.approx(22.8076, abs=1e-3)

    def test_shrinking_sphere_hand_formula_everywhere(self):
        # h = g_M / r on the sphere of radius r = sqrt(1 - 4t), and H = 2/r is
        # constant in space: Z~ = 4/r^3 + g_M(V, V)/r + 1/(t r)
        mcf = model_mcf("shrinking_sphere_flat", flat_fwd(), r0=1.0)
        rng = np.random.default_rng(11)
        hi = mcf.time_domain[1]
        xs, ts, Vs = mcf.sample_xs(5, rng), rng.uniform(0.05 * hi, hi, 5), rng.uniform(-2, 2, (5, 2))
        stack = slice_stack(mcf, xs, ts)
        r = np.sqrt(1.0 - 4.0 * ts)
        hand = 4.0 / r**3 + np.einsum("pi,pij,pj->p", Vs, stack.ext[0], Vs) / r + 1.0 / (ts * r)
        assert limit_second_ff(stack, Vs) == pytest.approx(hand, rel=1e-9)

    def test_static_plane_vanishes(self):
        mcf = model_mcf("static_plane_flat", flat_fwd())
        stack = slice_stack(mcf, [[0.2, 0.4]] * 2, [0.5] * 2)
        assert limit_second_ff(stack, [np.zeros(2), [1.0, -3.0]]).tolist() == [0.0, 0.0]

    def test_backward_background_rejected(self):
        bg = model_background("euclidean_static", dim=3, direction="backward")
        stack = ref.one_slice(model_mcf("static_plane_flat", bg), np.array([0.2, 0.4]), 0.5)
        for form, vector in ((limit_second_ff, np.zeros(2)), (lott_match_defect, np.zeros(3))):
            with pytest.raises(CanonicalConfigError, match="forward flow"):
                form(stack, [vector])


class TestLimitSecondFF:
    def test_equator_in_forward_sphere_vanishes(self):
        mcf = model_mcf("equator_in_sphere", sphere_fwd())
        assert limit_at(mcf, np.array([1.2, 0.4]), 0.1, np.zeros(2)) == pytest.approx(0.0, abs=1e-12)

    def test_shrinking_sphere_zero_vector_value(self):
        mcf = model_mcf("shrinking_sphere_flat", flat_fwd(), r0=1.0)
        assert limit_at(mcf, np.array([1.1, 0.7]), 0.1, np.zeros(2)) == pytest.approx(21.5165, abs=1e-3)

    @pytest.mark.parametrize("which_v", ["zero", "unit"])
    def test_stripped_track_form_converges(self, which_v):
        bg = flat_fwd()
        mcf = model_mcf("shrinking_sphere_flat", bg, r0=1.0)
        x, t = np.array([1.1, 0.7]), 0.1
        cms = [build_canonical_metric(bg, "expanding", N) for N in (1e3, 2e3, 4e3)]
        stacks = track_stacks(mcf, cms, [x], [t])
        V = np.zeros(2)
        if which_v == "unit":
            V[0] = 1.0 / math.sqrt(stacks[0].slices.ext[0][0, 0, 0])
        target = limit_second_ff(stacks[0].slices, [V])
        errs = [abs(stripped_track_form(stack, [V]) - target).item() for stack in stacks]
        for a, b in zip(errs, errs[1:]):
            assert 0.3 < b / a < 0.7


class TestBoundaryIntegrand:
    def test_constant_potential_static_minimal_boundary(self):
        mcf = model_mcf("static_plane_flat", flat_fwd())
        stack = ref.one_slice(mcf, np.array([0.1, 0.9]), 0.5)
        val = lott_boundary_integrand(stack, scalar_d1(ScalarField.constant(2.0), stack.jet[0]))
        assert val.tolist() == [0.0]

    def test_radial_potential_leaves_dHdt(self):
        # grad f is purely normal on the sphere, so only dH/dt survives
        mcf = model_mcf("shrinking_sphere_flat", flat_fwd(), r0=1.0)
        stack = ref.one_slice(mcf, np.array([1.1, 0.7]), 0.1)
        val = lott_boundary_integrand(stack, scalar_d1(gaussian_potential(), stack.jet[0]))
        r = math.sqrt(0.6)
        assert val.item() == pytest.approx(4.0 / r**3, rel=1e-10)

    def test_tangential_gradient_is_tangent(self):
        bg = flat_fwd()
        mcf = model_mcf("shrinking_sphere_flat", bg, r0=1.0)
        rng = np.random.default_rng(5)
        xs, ts = mcf.sample_xs(4, rng), rng.uniform(0.05, mcf.time_domain[1], 4)
        stack = slice_stack(mcf, xs, ts)
        f = random_polynomial_field(3, rng)
        comps, tang = tangential_gradient(stack, scalar_d1(f, stack.jet[0]))
        g, nu = bg.bundle(stack.jet[0], ts, order=0).g, stack.ext[2]
        assert np.max(np.abs(np.einsum("pa,pab,pb->p", tang, g, nu))) < 1e-12
        assert np.allclose(np.einsum("pi,pia->pa", comps, stack.jet[2]), tang, atol=1e-12)

    def test_match_identity_for_seeded_polynomials(self):
        mcf = model_mcf("shrinking_sphere_flat", flat_fwd(), r0=1.0)
        stack = slice_stack(mcf, [[1.1, 0.7]] * 20, [0.1] * 20)
        rng = np.random.default_rng(2026)
        dfs = [scalar_d1(random_polynomial_field(3, rng), p) for p in stack.jet[0]]
        assert np.max(np.abs(lott_match_defect(stack, dfs))) < 1e-6

    def test_polynomial_field_derivatives_consistent(self):
        f = random_polynomial_field(3, np.random.default_rng(17))
        fd = ScalarField(value=f.value)
        # on a flat metric the covariant Hessian is the matrix of second partials
        flat = model_background("euclidean_static", dim=3)
        for p in np.random.default_rng(3).uniform(-1, 1, (5, 3)):
            assert np.allclose(scalar_d1(f, p), scalar_d1(fd, p), atol=1e-8)
            b = flat.bundle([p], [0.5])
            assert np.allclose(hessian_batch(b, f)[0], hessian_batch(b, fd)[0], atol=1e-6)


# (background, its parameters, flow): every case is a forward background,
# so the limit form and the expanding track are defined on it
STACK_CASES = [
    ("euclidean_static", {"dim": 3}, "shrinking_sphere_flat"),
    ("euclidean_static", {"dim": 4}, "shrinking_sphere_flat"),
    ("round_sphere", {"dim": 3, "direction": "forward"}, "equator_in_sphere"),
]


def stacked_forms(mcf, cm, xs, ts, Vs, dfs):
    """Every stacked slice and track form at the (x, t) pairs, one array per form, in one call each."""
    track = build_track(mcf, cm)
    slices = slice_stack(mcf, xs, ts)
    [stack] = track_stacks(mcf, [cm], xs, ts)
    comps, tang = tangential_gradient(slices, dfs)
    derived, printed = closed_form_second_ff(track, xs, ts)["full"]
    return {
        "limit_second_ff": limit_second_ff(slices, Vs),
        "stripped_track_form": stripped_track_form(stack, Vs),
        "sigma_N": stack.sigma_N,
        "tangential_gradient comps": comps,
        "tangential_gradient tang": tang,
        "lott_boundary_integrand": lott_boundary_integrand(slices, dfs),
        "lott_match_defect": lott_match_defect(slices, dfs),
        "closed_form_second_ff derived": derived,
        "closed_form_second_ff printed": printed,
        "closed_form_normal_potential": closed_form_normal_potential(track, xs, ts),
        "limit_inverse_metric": limit_inverse_metric(track, xs, ts),
    }


class TestStackedForms:
    """Each slice and track form takes a stack, and a row's value does not depend on its stack."""

    @settings(max_examples=20, deadline=None)
    @given(case=st.sampled_from(STACK_CASES), seed=st.integers(0, 2**16), data=st.data())
    def test_rows_do_not_depend_on_their_stack(self, case, seed, data):
        name, params, flow = case
        bg = model_background(name, **params)
        mcf = model_mcf(flow, bg)
        cm = build_canonical_metric(bg, "expanding", 1e3)
        P = data.draw(st.integers(1, 6), label="P")
        order = data.draw(st.permutations(range(P)), label="order")
        rng = np.random.default_rng(seed)
        xs = np.array(mcf.sample_xs(P, rng))[order]
        ts = rng.uniform(cm.t_min, mcf.time_domain[1], P)[order]
        Vs = rng.uniform(-1.0, 1.0, (P, bg.dim - 1))[order]
        dfs = rng.uniform(-1.0, 1.0, (P, bg.dim))[order]
        stacked = stacked_forms(mcf, cm, xs, ts, Vs, dfs)
        for j in range(P):
            one = stacked_forms(mcf, cm, xs[j : j + 1], ts[j : j + 1], Vs[j : j + 1], dfs[j : j + 1])
            for form, rows in stacked.items():
                assert len(rows) == P, form
                assert rows[j].tobytes() == one[form][0].tobytes(), (form, j)

    @staticmethod
    def forms():
        """Each form on a one-row stack as (call on its vector, the chart dimension it asks for)."""
        bg = flat_fwd()
        mcf = model_mcf("shrinking_sphere_flat", bg, r0=1.0)
        x, t = np.array([1.1, 0.7]), 0.1
        hyp = ref.one_slice(mcf, x, t)
        track = ref.one_track(build_track(mcf, build_canonical_metric(bg, "expanding", 1e3)), x, t)
        return {
            "limit_second_ff": (lambda V: limit_second_ff(hyp, V), 2),
            "stripped_track_form": (lambda V: stripped_track_form(track, V), 2),
            "tangential_gradient": (lambda df: tangential_gradient(hyp, df), 3),
            "lott_boundary_integrand": (lambda df: lott_boundary_integrand(hyp, df), 3),
            "lott_match_defect": (lambda df: lott_match_defect(hyp, df), 3),
        }

    @pytest.mark.parametrize("form", ["limit_second_ff", "stripped_track_form", "tangential_gradient",
                                      "lott_boundary_integrand", "lott_match_defect"])
    def test_a_wrong_vector_is_a_chart_domain_error(self, form):
        call, dim = self.forms()[form]
        for k in (dim - 1, dim + 1):
            for vector in (np.ones(k), np.ones((1, k))):
                with pytest.raises(ChartDomainError) as info:
                    call(vector)
                assert type(info.value) is ChartDomainError
                assert str(info.value) == f"vector has dimension {k}, chart has {dim}"
        with pytest.raises(ChartDomainError, match=r"^chart vectors must have shape \(d,\) or \(P, d\), got "):
            call(np.ones((1, 1, dim)))
        # one vector per stacked row: a bare vector is the one row's
        with pytest.raises(GeometryError, match=r"^2 vectors for 1 stacked rows$"):
            call(np.ones((2, dim)))
        assert np.array_equal(call(np.ones(dim))[0], call(np.ones((1, dim)))[0])


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
