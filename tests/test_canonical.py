"""Canonical metric construction, closed-form cross-checks, residual decay."""

import math

import numpy as np
import pytest

import reference_kernel as ref
from cansol.backgrounds import model_background, unit_sphere_metric
from cansol.canonical import (
    CHRISTOFFEL_CORRECTIONS,
    CanonicalConfigError,
    build_canonical_metric,
    canonical_christoffel_closed_forms,
    canonical_ricci_quadratics,
    check_admissible,
    christoffel_crosscheck,
    limit_ricci,
    minimal_admissible_N,
    ricci_soliton_residual,
    ricci_soliton_residuals,
)
from cansol.geometry import ScalarField, inverse_metric, scalar_d1

FLAT_FWD = dict(name="euclidean_static", dim=3, direction="forward")
FLAT_BWD = dict(name="euclidean_static", dim=3, direction="backward")
SPHERE_FWD = dict(name="round_sphere", dim=3, r0=1.0, direction="forward")
SPHERE_BWD = dict(name="round_sphere", dim=3, r0=1.0, direction="backward")

COMBOS = [
    (FLAT_FWD, "expanding"),
    (FLAT_BWD, "shrinking"),
    (FLAT_BWD, "steady"),
    (SPHERE_FWD, "expanding"),
    (SPHERE_BWD, "shrinking"),
    (SPHERE_BWD, "steady"),
]


def make_bg(params):
    params = dict(params)
    return model_background(params.pop("name"), **params)


def samples_for(bg, count, seed=0):
    rng = np.random.default_rng(seed)
    lo, hi = bg.time_domain
    pts = bg.sample_points(count, rng)
    ts = rng.uniform(0.05 * hi, hi, count)
    return list(zip(pts, ts))


def unit_first_axis(bg, p, t):
    """The unit vector along the first chart axis of g(t) at p."""
    [g] = bg.bundle([p], [t], order=0).g
    X = np.zeros(bg.dim)
    X[0] = 1.0 / math.sqrt(g[0, 0])
    return X


class TestBuild:
    def test_flat_expanding_time_time_value(self):
        # N/(2 t^3) + R/t + m/(2 t^2) at N=100, t=1, m=3: 50 + 0 + 1.5
        cm = build_canonical_metric(make_bg(FLAT_FWD), "expanding", 100.0)
        assert ref.time_time(cm, np.zeros(3), 1.0) == pytest.approx(51.5)

    def test_flat_steady_time_time_value(self):
        cm = build_canonical_metric(make_bg(FLAT_BWD), "steady", 100.0)
        for t in (0.2, 0.7, 1.0):
            assert ref.time_time(cm, np.array([0.5, -1.0, 0.3]), t) == pytest.approx(100.0)

    def test_sphere_shrinking_time_time_value(self):
        # N=1000, tau=0.5: 1000/0.25 wait: N/(2 tau^3) = 1000/0.25 = 4000,
        # R(tau) = 6/(1 + 4 * 0.5) = 2, R/tau = 4, m/(2 tau^2) = 6 -> 3998
        cm = build_canonical_metric(make_bg(SPHERE_BWD), "shrinking", 1000.0)
        p = np.array([1.3, 0.9, 0.1])
        assert ref.time_time(cm, p, 0.5) == pytest.approx(3998.0, rel=1e-12)

    def test_direction_mismatch_rejected(self):
        with pytest.raises(CanonicalConfigError):
            build_canonical_metric(make_bg(FLAT_BWD), "expanding", 100.0)
        with pytest.raises(CanonicalConfigError):
            build_canonical_metric(make_bg(FLAT_FWD), "shrinking", 100.0)
        with pytest.raises(CanonicalConfigError):
            build_canonical_metric(make_bg(FLAT_FWD), "steady", 100.0)

    @pytest.mark.parametrize("N", [0.0, -1.0, float("nan")])
    def test_non_positive_N_rejected(self, N):
        with pytest.raises(CanonicalConfigError) as info:
            build_canonical_metric(make_bg(FLAT_FWD), "expanding", N)
        assert str(info.value) == f"N must be positive, got {N}"

    def test_small_N_reports_threshold(self):
        # the shrinking time-time component subtracts m/(2 t^2), so its
        # positivity threshold is strictly positive
        bg = make_bg(FLAT_BWD)
        n_min = minimal_admissible_N(bg, "shrinking", [0.9])
        assert n_min == pytest.approx(2 * 0.9**3 * (1 + 3 / (2 * 0.9**2)))
        cms = [build_canonical_metric(bg, "shrinking", f * n_min) for f in (0.5, 0.8, 2.0)]
        with pytest.raises(CanonicalConfigError) as err:
            check_admissible(cms, [0.9])
        # the smallest N of the sweep is named
        assert str(err.value) == (f"N={0.5 * n_min} below the positivity threshold on the sampling "
                                  f"domain; minimal admissible N is {n_min:.6g}")
        assert check_admissible(cms[2:], [0.9]) == n_min

    def test_flat_expanding_threshold_vanishes_inside_horizon(self):
        # for t <= 1 the m/(2 t^2) term alone keeps the component above 1
        bg = make_bg(FLAT_FWD)
        assert minimal_admissible_N(bg, "expanding", [0.9]) == 0.0

    def test_spacetime_field_has_consistent_derivatives(self):
        from cansol.geometry import check_metric_derivatives

        cm = build_canonical_metric(make_bg(SPHERE_BWD), "shrinking", 50.0)
        zs = [cm.spacetime_point(p, t) for p, t in samples_for(cm.base, 10, seed=3)]
        assert check_metric_derivatives(cm.field, zs, rtol=1e-6) < 1e-6


class TestClosedFormChristoffels:
    def test_flat_expanding_mixed_entry(self):
        # G^a_b0 = -delta/(2t): at t = 0.5 the diagonal is -1
        cm = build_canonical_metric(make_bg(FLAT_FWD), "expanding", 100.0)
        [([gamma], _)] = canonical_christoffel_closed_forms([cm], [np.zeros(3)], [0.5])
        assert np.allclose(gamma[1:, 1:, 0], -np.eye(3))

    def test_flat_steady_gamma_vanishes(self):
        cm = build_canonical_metric(make_bg(FLAT_BWD), "steady", 100.0)
        [([gamma], _)] = canonical_christoffel_closed_forms([cm], [np.zeros(3)], [0.4])
        assert np.allclose(gamma, 0.0)

    def test_sphere_steady_time_block(self):
        cm = build_canonical_metric(make_bg(SPHERE_BWD), "steady", 100.0)
        p, t = np.array([1.1, 0.7, 0.2]), 0.3
        [([gamma], _)] = canonical_christoffel_closed_forms([cm], [p], [t])
        # Ric = 2 sigma and R = 6 / phi(t), phi(t) = 1 + 4t, on the backward unit 3-sphere
        expected = -2.0 * unit_sphere_metric(3).at(p) / (100.0 + 6.0 / (1.0 + 4.0 * t))
        assert np.allclose(gamma[0, 1:, 1:], expected, rtol=1e-12)

    @pytest.mark.parametrize("bg_params,variant", COMBOS)
    def test_engine_matches_derived_forms_analytic(self, bg_params, variant):
        bg = make_bg(bg_params)
        cm = build_canonical_metric(bg, variant, 100.0)
        [(table, _)] = christoffel_crosscheck([cm], samples_for(bg, 6, seed=1))
        assert max(table.values()) < 1e-9, table

    @pytest.mark.parametrize("bg_params,variant", COMBOS)
    def test_engine_matches_derived_forms_fd(self, bg_params, variant):
        bg = make_bg(bg_params)
        cm = build_canonical_metric(bg, variant, 100.0)
        fd_cm = build_canonical_metric(bg, variant, 100.0)
        fd_field = fd_cm.field.without_analytic_derivatives()
        object.__setattr__(fd_cm, "field", fd_field)
        [(table, _)] = christoffel_crosscheck([fd_cm], samples_for(bg, 4, seed=2))
        assert max(table.values()) < 1e-5, table

    def test_crosscheck_evaluates_the_engine_once_for_both_tables(self):
        import dataclasses

        bg = make_bg(SPHERE_BWD)
        cm = build_canonical_metric(bg, "shrinking", 100.0)
        jet_calls = []
        jet = cm.field.jet
        counted = dataclasses.replace(cm, field=dataclasses.replace(
            cm.field, jet=lambda z, order: jet_calls.append(len(z)) or jet(z, order)))
        samples = samples_for(bg, 4, seed=3)
        [(derived, printed)] = christoffel_crosscheck([counted], samples)
        assert jet_calls == [4]
        assert derived.keys() == printed.keys()
        # the printed table's nesting slip in G^0_bc shows; the derived table matches
        assert derived["G^0_bc"] < 1e-9 < printed["G^0_bc"]

    def test_a_sweep_equals_each_metric_alone(self):
        # the shared background half leaves every metric's tables as they are alone
        bg = make_bg(SPHERE_BWD)
        cms = [build_canonical_metric(bg, "shrinking", 100.0), build_canonical_metric(bg, "steady", 1e4),
               build_canonical_metric(bg, "shrinking", 1e4)]
        samples = samples_for(bg, 5, seed=6)
        pts, ts = [p for p, _ in samples], [t for _, t in samples]
        swept = canonical_christoffel_closed_forms(cms, pts, ts)
        assert len(swept) == 3
        for cm, pair in zip(cms, swept):
            [alone] = canonical_christoffel_closed_forms([cm], pts, ts)
            assert [a.tobytes() for a in pair] == [a.tobytes() for a in alone]
        for cm, tables in zip(cms, christoffel_crosscheck(cms, samples)):
            assert christoffel_crosscheck([cm], samples) == [tables]

    def test_metrics_on_different_backgrounds_are_a_config_error(self):
        cms = [build_canonical_metric(make_bg(SPHERE_BWD), "shrinking", N) for N in (1e2, 1e3)]
        samples = samples_for(cms[0].base, 2)
        with pytest.raises(CanonicalConfigError, match="different backgrounds"):
            canonical_christoffel_closed_forms(cms, *zip(*samples))
        with pytest.raises(CanonicalConfigError, match="different backgrounds"):
            christoffel_crosscheck(cms, samples)

    def test_no_metrics_give_no_tables(self):
        samples = samples_for(make_bg(SPHERE_BWD), 2)
        assert canonical_christoffel_closed_forms([], *zip(*samples)) == []
        assert christoffel_crosscheck([], samples) == []

    def test_no_samples_are_a_config_error(self):
        cm = build_canonical_metric(make_bg(SPHERE_BWD), "shrinking", 100.0)
        message = r"no \(p, t\) samples: the closed-form tables need at least one"
        with pytest.raises(CanonicalConfigError, match=message):
            canonical_christoffel_closed_forms([cm], [], [])
        with pytest.raises(CanonicalConfigError, match=message):
            christoffel_crosscheck([cm], [])

    def test_printed_forms_show_known_slips(self):
        # the literal reference tables deviate exactly where the correction
        # registry says they do, and nowhere else
        expected_bad = {
            ("shrinking", "G^0_bc"),
            ("shrinking", "G^0_00"),
            ("expanding", "G^0_00"),
            ("steady", "G^0_00"),
        }
        seen_bad = set()
        for bg_params, variant in COMBOS:
            bg = make_bg(bg_params)
            cm = build_canonical_metric(bg, variant, 100.0)
            [(_, table)] = christoffel_crosscheck([cm], samples_for(bg, 5, seed=4))
            for symbol, err in table.items():
                if err > 1e-8:
                    seen_bad.add((variant, symbol))
        assert seen_bad == expected_bad
        registry = {(c.variant, c.symbol) for c in CHRISTOFFEL_CORRECTIONS}
        # every numerically visible slip is in the registry (G^0_b0 entries
        # are registered but invisible on catalog backgrounds)
        assert seen_bad <= registry


class TestSolitonResidual:
    def test_flat_steady_exact_zero(self):
        cm = build_canonical_metric(make_bg(FLAT_BWD), "steady", 100.0)
        s = ricci_soliton_residual(cm, np.array([0.3, -0.2, 0.5]), 0.4)
        assert s.norm == 0.0

    @pytest.mark.parametrize("bg_params,variant", COMBOS)
    def test_scaled_residual_bounded_in_N(self, bg_params, variant):
        bg = make_bg(bg_params)
        samples = samples_for(bg, 20, seed=7)
        sups = []
        cms = [build_canonical_metric(bg, variant, N) for N in (1e2, 1e3, 1e4)]
        check_admissible(cms, [t for _, t in samples])
        for cm in cms:
            sups.append(max(ricci_soliton_residual(cm, p, t).scaled_norm for p, t in samples))
        if max(sups) < 1e-8:
            return  # exact soliton: nothing to bound
        assert max(sups) / min(sups) < 1.5

    def test_flat_expanding_sweep_tight(self):
        # on the flat expander the bounded constant drifts by only a few percent
        bg = make_bg(FLAT_FWD)
        p, t = np.array([0.4, -0.1, 0.8]), 0.6
        values = []
        for N in (1e2, 1e3, 1e4):
            cm = build_canonical_metric(bg, "expanding", N)
            values.append(ricci_soliton_residual(cm, p, t).scaled_norm)
        assert max(values) / min(values) < 1.25

    def test_time_floor_enforced(self):
        from cansol.geometry import ChartDomainError

        cm = build_canonical_metric(make_bg(FLAT_FWD), "expanding", 100.0)
        with pytest.raises(ChartDomainError):
            ricci_soliton_residual(cm, np.zeros(3), 0.2 * cm.t_min)

    def test_time_domain_before_the_floor(self):
        # the canonical chart reaches a little past T for the FD stencils; a
        # sample point there is outside the background's time domain
        cm = build_canonical_metric(make_bg(FLAT_FWD), "expanding", 100.0)
        out = ricci_soliton_residuals(cm, [np.zeros(3)] * 4, [1.0005, -1.0, 0.2 * cm.t_min, 0.5])
        assert [str(e) for e in out.errors[:3]] == [
            "time 1.0005 outside domain (0.0, 1.0]",
            "time -1.0 outside domain (0.0, 1.0]",
            f"t={0.2 * cm.t_min} below the sampling floor t_min={cm.t_min}",
        ]
        assert out.errors[3] is None and out.index.tolist() == [3]


class TestLimitRicci:
    def test_flat_vanishes(self):
        bg = make_bg(FLAT_FWD)
        for X in (np.zeros(3), np.array([1.0, 2.0, -0.5])):
            assert limit_ricci(bg, X, np.zeros(3), 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_sphere_unit_vector_value(self):
        # d = 3, r0 = 1, t = 0.1: Ric(X,X) = 2/0.6, grad R = 0,
        # (dR/dt + R/t)/2 = (24/0.36 + 100)/2 -> total 86.6667
        bg = make_bg(SPHERE_FWD)
        p, t = np.array([1.2, 0.8, 2.0]), 0.1
        X = unit_first_axis(bg, p, t)
        assert limit_ricci(bg, X, p, t) == pytest.approx(86.6667, abs=1e-3)

    def test_zero_vector_keeps_scalar_part(self):
        bg = make_bg(SPHERE_FWD)
        p, t = np.array([1.2, 0.8, 2.0]), 0.1
        c = bg.curvature([p], [t])
        expected = 0.5 * (c.dRdt[0] + c.R[0] / t)
        assert limit_ricci(bg, np.zeros(3), p, t) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(83.3333, abs=1e-3)

    def test_backward_background_rejected(self):
        with pytest.raises(CanonicalConfigError):
            limit_ricci(make_bg(SPHERE_BWD), np.zeros(3), np.array([1.2, 0.8, 2.0]), 0.1)

    def test_canonical_ricci_converges_to_limit(self):
        bg = make_bg(SPHERE_FWD)
        p, t = np.array([1.2, 0.8, 2.0]), 0.1
        X = unit_first_axis(bg, p, t)
        target = limit_ricci(bg, X, p, t)
        errs = []
        for N in (1e3, 2e3, 4e3):
            cm = build_canonical_metric(bg, "expanding", N)
            [quad] = canonical_ricci_quadratics(cm, [X], [p], [t])
            errs.append(abs(quad - target))
        for a, b in zip(errs, errs[1:]):
            assert 0.3 < b / a < 0.7


class TestPotential:
    def test_expanding_potential_time_derivative(self):
        cm = build_canonical_metric(make_bg(FLAT_FWD), "expanding", 1000.0)
        z = cm.spacetime_point(np.zeros(3), 0.5)
        df = scalar_d1(cm.potential, z)
        assert df[0] == pytest.approx(1000.0 / (2 * 0.5**2))
        assert np.allclose(df[1:], 0.0)

    def test_time_scaled_gradient_identity(self):
        # t * df/dt agrees with |grad f|^2 in the canonical metric up to O(1/N)
        # (the unscaled identity is dimensionally off by a factor of t)
        bg = make_bg(FLAT_FWD)
        p, t = np.zeros(3), 0.5
        defects = []
        for N in (1e3, 2e3, 4e3):
            cm = build_canonical_metric(bg, "expanding", N)
            z = cm.spacetime_point(p, t)
            df = scalar_d1(cm.potential, z)
            grad_sq = float(df @ inverse_metric(cm.field, z) @ df)
            defects.append(abs(t * df[0] - grad_sq) / (t * df[0]))
        for a, b in zip(defects, defects[1:]):
            assert 0.3 < b / a < 0.7


class TestVariantSigns:
    """Every per-variant quantity follows from the sign s, to the last bit."""

    # the per-variant formulas written out: (direction, soliton constant,
    # time-time entry, potential) as functions of (N, R, m, t)
    EXPLICIT = {
        "expanding": ("forward", 0.5,
                      lambda N, R, m, t: N / (2 * t**3) + R / t + m / (2 * t**2),
                      lambda N, t: -N / (2.0 * t)),
        "shrinking": ("backward", -0.5,
                      lambda N, R, m, t: N / (2 * t**3) + R / t - m / (2 * t**2),
                      lambda N, t: N / (2.0 * t)),
        "steady": ("backward", 0.0,
                   lambda N, R, m, t: N + R,
                   lambda N, t: -N * t),
    }

    def test_sign_table_is_the_variant_list(self):
        from cansol.backgrounds import VARIANT_SIGNS
        from cansol.canonical import VARIANTS

        assert VARIANTS == ("expanding", "shrinking", "steady")
        assert VARIANT_SIGNS == {"expanding": 1, "shrinking": -1, "steady": 0}

    @pytest.mark.parametrize("bg_params,variant", COMBOS)
    def test_derived_quantities_equal_the_explicit_formulas(self, bg_params, variant):
        from cansol.backgrounds import GradientSolitonData

        direction, constant, explicit_w, potential = self.EXPLICIT[variant]
        bg = make_bg(bg_params)
        assert bg.direction == direction
        N = 137.0
        cm = build_canonical_metric(bg, variant, N)
        assert cm.soliton_constant == constant
        sol = GradientSolitonData(lambda t: ScalarField(value=lambda p: 0.0 * p[..., 0]), variant)
        assert sol.c == 2 * constant
        for p, t in samples_for(bg, 5, seed=4):
            [R] = bg.curvature([p], [t]).R
            assert ref.time_time(cm, p, t) == explicit_w(N, R, bg.dim, t)
            assert cm.time_scale(t) == (1.0 if variant == "steady" else t)
            value = cm.potential.value(cm.spacetime_point(p, t)[None])[0]
            assert value == potential(N, t)

    def test_unknown_variant_rejected(self):
        bg = make_bg(FLAT_FWD)
        with pytest.raises(CanonicalConfigError, match="unknown variant"):
            build_canonical_metric(bg, "stationary", 100.0)
        with pytest.raises(CanonicalConfigError, match="unknown variant"):
            minimal_admissible_N(bg, "stationary", [0.5])
