"""Kernel tests against classical closed forms and finite-difference oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_kernel as ref
from cansol.backgrounds import unit_sphere_metric
from cansol.geometry import (
    ChartDomainError,
    DegenerateMetricError,
    GeometryError,
    MetricField,
    ScalarField,
    _at_point,
    check_metric_derivatives,
    christoffel,
    gradient_batch,
    hessian_batch,
    inverse_metric,
    metric_bundle,
    ricci_batch,
    scalar_curvature_batch,
    scalar_d1,
    tensor_norm_batch,
)


def flat_metric(d, scale=1.0):
    def jet(p, order):
        lead = p.shape[:-1]
        return (np.zeros(lead + (d, d)) + scale * np.eye(d),) + tuple(
            np.zeros(lead + (d,) * (2 + o)) for o in range(1, order + 1))

    return MetricField(dim=d, jet=jet)


def scaled_sphere(d, r):
    """Round d-sphere of radius r, derivatives from the unit sphere's own jet scaled by r^2."""
    sigma = unit_sphere_metric(d)

    def jet(p, order):
        return tuple(r**2 * a for a in sigma.jet(p, order))

    return MetricField(dim=d, jet=jet, in_domain=sigma.in_domain)


def sphere_points(d, count, seed=0):
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(count):
        p = np.empty(d)
        p[: d - 1] = rng.uniform(0.3, math.pi - 0.3, d - 1)
        p[d - 1] = rng.uniform(0.0, 2.0 * math.pi)
        pts.append(p)
    return pts


class TestChristoffel:
    def test_flat_metric_vanishes(self):
        m = flat_metric(3)
        gamma = christoffel(m, np.array([0.3, -1.2, 2.0])).gamma
        assert np.allclose(gamma, 0.0, atol=1e-14)

    def test_constant_conformal_factor_vanishes(self):
        m = flat_metric(4, scale=2.7)
        gamma = christoffel(m, np.zeros(4)).gamma
        assert np.allclose(gamma, 0.0, atol=1e-14)

    def test_two_sphere_equator(self):
        m = scaled_sphere(2, 1.0)
        gamma = christoffel(m, np.array([math.pi / 2, 0.0])).gamma
        # Gamma^theta_{phi phi} = -sin cos = 0 and Gamma^phi_{theta phi} = cot = 0 there
        assert gamma[0, 1, 1] == pytest.approx(0.0, abs=1e-12)
        assert gamma[1, 0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_two_sphere_generic_point(self):
        theta = math.pi / 3
        m = scaled_sphere(2, 1.0)
        gamma = christoffel(m, np.array([theta, 1.0])).gamma
        assert gamma[0, 1, 1] == pytest.approx(-math.sin(theta) * math.cos(theta), rel=1e-12)
        assert gamma[1, 0, 1] == pytest.approx(1.0 / math.tan(theta), rel=1e-12)

    def test_lower_index_symmetry_fd_backend(self):
        m = scaled_sphere(3, 1.3).without_analytic_derivatives()
        for p in sphere_points(3, 5, seed=2):
            gamma = christoffel(m, p).gamma
            assert np.array_equal(gamma, np.swapaxes(gamma, 1, 2))


class TestCurvature:
    def test_flat_ricci_and_scalar_vanish(self):
        m = flat_metric(3)
        p = np.array([0.1, 0.2, 0.3])
        b = _at_point(m, p, 2)
        assert np.allclose(ricci_batch(b)[0], 0.0, atol=1e-13)
        assert scalar_curvature_batch(b)[0] == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("d,r", [(2, 1.0), (3, 0.7), (4, 1.9)])
    def test_sphere_ricci_closed_form_analytic(self, d, r):
        m = scaled_sphere(d, r)
        for p in sphere_points(d, 3, seed=d):
            ric = ricci_batch(_at_point(m, p, 2))[0]
            expected = ((d - 1) / r**2) * m.at(p)
            assert np.max(np.abs(ric - expected)) <= 1e-10 * np.max(np.abs(expected))

    def test_sphere_ricci_closed_form_fd(self):
        d, r = 3, 1.1
        m = scaled_sphere(d, r).without_analytic_derivatives()
        for p in sphere_points(d, 3, seed=7):
            ric = ricci_batch(_at_point(m, p, 2))[0]
            expected = ((d - 1) / r**2) * (r**2 * unit_sphere_metric(d).components(p))
            assert np.max(np.abs(ric - expected)) <= 1e-5 * np.max(np.abs(expected))

    def test_sphere_scalar_value(self):
        # d = 3, r^2 = 0.6 gives R = d(d-1)/r^2 = 6/0.6 = 10
        m = scaled_sphere(3, math.sqrt(0.6))
        p = sphere_points(3, 1, seed=11)[0]
        assert scalar_curvature_batch(_at_point(m, p, 2))[0] == pytest.approx(10.0, rel=1e-10)

    def test_ricci_needs_an_order_2_bundle(self):
        b = _at_point(scaled_sphere(3, 1.0), sphere_points(3, 1)[0], 1)
        with pytest.raises(GeometryError, match="order 2"):
            ricci_batch(b)
        with pytest.raises(GeometryError, match="order 2"):
            scalar_curvature_batch(b)


class TestHessianAndGradient:
    def test_quadratic_potential_flat(self):
        d, tau = 3, 0.4
        m = flat_metric(d)
        f = ScalarField(
            value=lambda p: np.sum(p * p, axis=-1) / (4 * tau),
            d1=lambda p: p / (2 * tau),
            d2=lambda p: np.broadcast_to(np.eye(d) / (2 * tau), p.shape + (d,)),
        )
        h = hessian_batch(_at_point(m, [0.3, -0.1, 0.7], 1), f)[0]
        assert np.allclose(h, np.eye(d) / (2 * tau), atol=1e-13)

    def test_constant_function(self):
        m = scaled_sphere(2, 1.0)
        h = hessian_batch(_at_point(m, [1.0, 2.0], 1), ScalarField.constant(4.2))[0]
        assert np.allclose(h, 0.0, atol=1e-14)

    def test_bilinear_function_flat(self):
        m = flat_metric(3)
        f = ScalarField(value=lambda p: p[..., 0] * p[..., 1])
        h = hessian_batch(_at_point(m, [0.5, -2.0, 1.0], 1), f)[0]
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 0] = 1.0
        assert np.allclose(h, expected, atol=1e-6)

    def test_gradient_and_directional(self):
        m = flat_metric(3)
        f = ScalarField(value=lambda p: p[..., 0], d1=lambda p: np.broadcast_to([1.0, 0.0, 0.0], p.shape))
        p = np.array([0.2, 0.4, 0.6])
        assert np.allclose(gradient_batch(_at_point(m, p, 0), f)[0], [1.0, 0.0, 0.0])
        # the derivative along a vector v is v^a d_a f
        assert np.array([1.0, 0, 0]) @ scalar_d1(f, p) == pytest.approx(1.0)
        assert np.array([1.0, 2, 3]) @ scalar_d1(ScalarField.constant(3.0), p) == 0.0

    def test_gradient_inverse_metric_scaling(self):
        r = 1.7
        m = scaled_sphere(2, r)
        f = ScalarField(value=lambda p: p[..., 0], d1=lambda p: np.broadcast_to([1.0, 0.0], p.shape))
        grad = gradient_batch(_at_point(m, [math.pi / 2, 0.3], 0), f)[0]
        assert grad[0] == pytest.approx(1.0 / r**2, rel=1e-12)
        assert grad[1] == pytest.approx(0.0, abs=1e-14)

    def test_laplacian_of_quadratic(self):
        d, tau = 3, 0.4
        m = flat_metric(d)
        f = ScalarField(
            value=lambda p: np.sum(p * p, axis=-1) / (4 * tau),
            d1=lambda p: p / (2 * tau),
            d2=lambda p: np.broadcast_to(np.eye(d) / (2 * tau), p.shape + (d,)),
        )
        assert ref.laplacian_batch(_at_point(m, [0.1, -0.2, 0.5], 1), f)[0] == pytest.approx(d / (2 * tau))


def tensor_norm(metric, T, p):
    """|T| of a covariant 2-tensor (d, d) at one point through ``tensor_norm_batch``."""
    return tensor_norm_batch(_at_point(metric, p, 0), np.asarray(T)[None])[0]


class TestTensorNorm:
    def test_norm_of_metric_is_sqrt_dim(self):
        for d in (2, 3, 5):
            m = scaled_sphere(d, 1.4) if d > 1 else flat_metric(d)
            p = sphere_points(d, 1, seed=d)[0]
            T = m.at(p)
            assert tensor_norm(m, T, p) == pytest.approx(math.sqrt(d), rel=1e-12)

    def test_zero_tensor(self):
        m = flat_metric(3)
        assert tensor_norm(m, np.zeros((3, 3)), np.zeros(3)) == 0.0

    def test_frobenius_under_identity(self):
        m = flat_metric(2)
        T = np.diag([3.0, 4.0])
        assert tensor_norm(m, T, np.zeros(2)) == pytest.approx(5.0)

    def test_indices_contract_with_the_inverse_metric(self):
        # g = 4 I: each of the two indices contracts against g^-1 = I / 4
        m = flat_metric(2, scale=4.0)
        assert tensor_norm(m, np.diag([3.0, 4.0]), np.zeros(2)) == pytest.approx(5.0 / 4.0)

    @given(st.permutations(range(3)))
    @settings(max_examples=10, deadline=None)
    def test_relabeling_invariance(self, perm):
        perm = list(perm)
        inv = np.argsort(perm)
        base = scaled_sphere(3, 1.2)
        p = np.array([1.1, 0.9, 2.4])
        T = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 3.0]])

        relabeled = MetricField(
            dim=3,
            jet=lambda q, order: (base.components(q[..., inv])[..., perm, :][..., perm],),
        )
        T_perm = T[np.ix_(perm, perm)]
        assert tensor_norm(relabeled, T_perm, p[perm]) == pytest.approx(
            tensor_norm(base, T, p), rel=1e-9
        )


class TestConnectionProperties:
    @given(
        st.floats(0.4, math.pi - 0.4),
        st.floats(0.4, math.pi - 0.4),
        st.floats(0.0, 2 * math.pi),
        st.floats(0.5, 2.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_lower_symmetry_and_sphere_scaling(self, th1, th2, ph, r):
        # Christoffel symbols are scale-invariant and symmetric in (b, c)
        p = np.array([th1, th2, ph])
        gamma_unit = christoffel(scaled_sphere(3, 1.0), p).gamma
        gamma = christoffel(scaled_sphere(3, r), p).gamma
        assert np.array_equal(gamma, np.swapaxes(gamma, 1, 2))
        assert np.allclose(gamma, gamma_unit, atol=1e-12)


class TestDerivativeBackends:
    def test_analytic_matches_fd_on_sphere(self):
        m = scaled_sphere(3, 1.3)
        worst = check_metric_derivatives(m, sphere_points(3, 20, seed=3), rtol=1e-6)
        assert worst < 1e-6

    def test_fd_first_derivatives_accuracy(self):
        m = scaled_sphere(2, 1.0)
        p = np.array([0.9, 0.4])
        ana = metric_bundle(m, p, order=1).dg
        num = metric_bundle(m.without_analytic_derivatives(), p, order=1).dg
        assert np.max(np.abs(ana - num)) < 1e-8

    def test_richardson_improves_second_derivatives(self):
        # check_metric_derivatives compares against the Richardson stencil; on
        # the steep metric e^{6x} delta the plain stencil's truncation error dominates
        k = 6.0

        def jet(p, order):
            g = np.exp(k * p[..., 0])[..., None, None] * np.eye(2)
            dg, ddg = np.zeros(p.shape[:-1] + (2,) * 3), np.zeros(p.shape[:-1] + (2,) * 4)
            dg[..., 0, :, :] = k * g
            ddg[..., 0, 0, :, :] = k**2 * g
            return (g, dg, ddg)[: order + 1]

        steep = MetricField(dim=2, jet=jet)
        p = np.array([0.5, 0.3])
        ddg = metric_bundle(steep, p, order=2).ddg[0]
        assert np.allclose(ddg[0, 0], k**2 * steep.components(p), rtol=1e-14)
        scale = max(1.0, float(np.max(np.abs(ddg))))
        err_plain = np.max(np.abs(metric_bundle(steep.without_analytic_derivatives(), p, 2).ddg[0] - ddg)) / scale
        err_rich = check_metric_derivatives(steep, [p], rtol=1.0)
        assert err_rich < 0.1 * err_plain

    def test_wrong_analytic_d1_is_caught(self):
        # a hand-written jet whose first partials are 0.1 % too large
        m = unit_sphere_metric(3)

        def wrong_jet(p, order):
            g, *partials = m.jet(p, order)
            return (g, *((1.0 + 1e-3) * a if o == 0 else a for o, a in enumerate(partials)))

        wrong = MetricField(dim=3, jet=wrong_jet, in_domain=m.in_domain)
        with pytest.raises(GeometryError, match="deviates from the components"):
            check_metric_derivatives(wrong, sphere_points(3, 3, seed=1), rtol=1e-6)
        assert check_metric_derivatives(m, sphere_points(3, 3, seed=1), rtol=1e-6) < 1e-6

    def test_a_jet_whose_value_differs_between_orders_is_caught(self):
        # the partials are right, but the order-2 value is shifted by 1e-3
        m = unit_sphere_metric(3)

        def shifted_jet(p, order):
            g, *partials = m.jet(p, order)
            return (g + 1e-3 if order == 2 else g, *partials)

        shifted = MetricField(dim=3, jet=shifted_jet, in_domain=m.in_domain)
        with pytest.raises(GeometryError, match="order-2 value deviates from its components"):
            check_metric_derivatives(shifted, sphere_points(3, 3, seed=1), rtol=1e-6)


class TestErrors:
    def test_degenerate_metric_rejected(self):
        m = MetricField(dim=2, jet=lambda p, order: (np.broadcast_to(np.diag([1.0, 1e-15]), p.shape[:-1] + (2, 2)),))
        with pytest.raises(DegenerateMetricError):
            inverse_metric(m, np.zeros(2))

    def test_pole_is_outside_domain(self):
        m = scaled_sphere(2, 1.0)
        with pytest.raises(ChartDomainError):
            christoffel(m, np.array([0.0, 0.0]))

    def test_dimension_mismatch(self):
        m = flat_metric(3)
        with pytest.raises(ChartDomainError):
            christoffel(m, np.zeros(2))

    def test_non_finite_point(self):
        m = flat_metric(2)
        with pytest.raises(ChartDomainError):
            christoffel(m, np.array([np.nan, 0.0]))

    def test_a_single_point_call_refuses_a_stack(self):
        m = flat_metric(2)
        with pytest.raises(ChartDomainError, match=r"^chart point must be a 1-d coordinate array, got shape \(1, 2\)$"):
            christoffel(m, np.zeros((1, 2)))

    def test_a_stack_of_more_than_two_axes_is_refused(self):
        m = flat_metric(2)
        with pytest.raises(ChartDomainError, match=r"^chart points must have shape \(d,\) or \(P, d\), got \(2, 1, 2\)$"):
            m.at(np.zeros((2, 1, 2)))


class TestEmptyInput:
    """An empty list is the empty stack for the stacked entries, and one point of dimension 0 for a single-point one."""

    def test_an_empty_bundle(self):
        b = metric_bundle(unit_sphere_metric(3), [], order=2)
        assert (b.points.shape, b.g.shape, b.dg.shape, b.ddg.shape) == ((0, 3), (0, 3, 3), (0,) + (3,) * 3, (0,) + (3,) * 4)
        assert b.index.tolist() == [] and b.errors == ()

    def test_the_field_values_of_no_points(self):
        assert unit_sphere_metric(3).at([]).shape == (0, 3, 3)
        f = ScalarField.constant(1.0)
        assert f.at([]).shape == (0,)
        assert scalar_d1(f, []).shape == (0, 0)

    @pytest.mark.parametrize("call", [inverse_metric, christoffel])
    def test_a_single_point_call_refuses_it(self, call):
        with pytest.raises(ChartDomainError, match=r"^point has dimension 0, chart has 3$"):
            call(unit_sphere_metric(3), [])
