"""Track geometry: orthonormality, closed-form cross-checks, soliton defects."""

import math

import numpy as np
import pytest

import reference_kernel as ref
from cansol import track as track_module
from cansol.backgrounds import model_background, model_mcf
from cansol.canonical import CanonicalConfigError, build_canonical_metric
from cansol.geometry import DegenerateMetricError, scalar_d1
from cansol.track import (
    SECOND_FF_CORRECTIONS,
    build_track,
    closed_form_normal_potential,
    closed_form_second_ff,
    limit_inverse_metric,
    mcf_canonical_residual,
    track_point_data,
)


def flat_bg(direction):
    return model_background("euclidean_static", dim=3, direction=direction)


def sphere_bg(direction):
    return model_background("round_sphere", dim=3, r0=1.0, direction=direction)


def sphere_track(variant, N, r0=1.0):
    direction = "forward" if variant == "expanding" else "backward"
    bg = flat_bg(direction)
    mcf = model_mcf("shrinking_sphere_flat", bg, r0=r0)
    return build_track(mcf, build_canonical_metric(bg, variant, N))


def rel(a, b):
    d = np.max(np.abs(a - b))
    return d / max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-14)


def assert_close(a, b, rtol, atol=1e-12):
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)))
    assert np.max(np.abs(np.asarray(a) - np.asarray(b))) <= rtol * scale + atol


class TestTrackGeometry:
    @pytest.mark.parametrize("variant", ["expanding", "shrinking", "steady"])
    def test_normal_orthonormality(self, variant):
        tr = sphere_track(variant, 100.0)
        x, t = np.array([1.1, 0.7]), 0.1
        d = track_point_data(tr, x, t)
        g = tr.cm.field.at(d.z)
        assert abs(float(d.normal @ g @ d.normal) - 1.0) < 1e-10
        assert np.max(np.abs(d.basis @ g @ d.normal)) < 1e-10

    def test_normal_limits_to_slice_normal(self):
        x, t = np.array([1.1, 0.7]), 0.1
        for N in (1e2, 1e6):
            tr = sphere_track("expanding", N)
            d = track_point_data(tr, x, t)
            # spatial part aligns with nu, time component shrinks with N
            spatial = d.normal[1:] / np.linalg.norm(d.normal[1:])
            assert np.allclose(spatial, d.hyp.normal, atol=1e-12)
        assert abs(d.normal[0]) < 1e-6

    def test_induced_metric_block_structure(self):
        # time-time entry H^2/t + w; documented value at N=100, t=0.1:
        # H^2 = 4/0.6, w = 100/0.002 + 3/0.02 -> 66.667 + 50150 = 50216.667
        tr = sphere_track("expanding", 100.0)
        x, t = np.array([1.1, 0.7]), 0.1
        d = track_point_data(tr, x, t)
        assert d.induced[0, 0] == pytest.approx(50216.667, abs=1e-3)
        assert np.max(np.abs(d.induced[0, 1:])) < 1e-12
        # spatial block is g_ij / t
        assert np.allclose(d.induced[1:, 1:], d.hyp.induced / t, atol=1e-12)

    def test_sigma_N_formula(self):
        tr = sphere_track("expanding", 100.0)
        x, t = np.array([1.1, 0.7]), 0.1
        d = track_point_data(tr, x, t)
        H = d.hyp.mean_curvature
        w = ref.time_time(tr.cm, d.hyp.position, t)
        assert d.sigma_N == pytest.approx(math.sqrt(1 / t + H**2 / (t**2 * w)), rel=1e-12)

    def test_steady_sigma_has_no_time_scaling(self):
        tr = sphere_track("steady", 100.0)
        x, t = np.array([1.1, 0.7]), 0.1
        d = track_point_data(tr, x, t)
        H = d.hyp.mean_curvature
        w = ref.time_time(tr.cm, d.hyp.position, t)
        assert d.sigma_N == pytest.approx(math.sqrt(1 + H**2 / w), rel=1e-12)

    def test_static_plane_steady_is_totally_geodesic(self):
        bg = flat_bg("backward")
        mcf = model_mcf("static_plane_flat", bg)
        tr = build_track(mcf, build_canonical_metric(bg, "steady", 100.0))
        d = track_point_data(tr, np.array([0.4, -0.8]), 0.5)
        assert d.sigma_N == pytest.approx(1.0)
        assert np.allclose(d.second_ff, 0.0, atol=1e-14)
        assert d.mean_curvature == 0.0
        # normal is the lifted slice normal
        assert np.allclose(d.normal, np.concatenate(([0.0], d.hyp.normal)), atol=1e-14)

    def test_ambient_mismatch_rejected(self):
        bg_f = flat_bg("forward")
        bg_b = flat_bg("backward")
        mcf = model_mcf("shrinking_sphere_flat", bg_f, r0=1.0)
        cm = build_canonical_metric(bg_b, "shrinking", 100.0)
        with pytest.raises(CanonicalConfigError):
            build_track(mcf, cm)


class TestClosedFormSecondFF:
    @pytest.mark.parametrize(
        "variant,mcf_name,bg_maker",
        [
            ("expanding", "shrinking_sphere_flat", lambda: flat_bg("forward")),
            ("shrinking", "shrinking_sphere_flat", lambda: flat_bg("backward")),
            ("steady", "shrinking_sphere_flat", lambda: flat_bg("backward")),
            ("shrinking", "equator_in_sphere", lambda: sphere_bg("backward")),
            ("steady", "equator_in_sphere", lambda: sphere_bg("backward")),
        ],
    )
    def test_engine_matches_derived_full_form(self, variant, mcf_name, bg_maker):
        bg = bg_maker()
        mcf = model_mcf(mcf_name, bg, **({"r0": 1.0} if mcf_name == "shrinking_sphere_flat" else {}))
        tr = build_track(mcf, build_canonical_metric(bg, variant, 100.0))
        rng = np.random.default_rng(5)
        hi = (mcf.time_domain or bg.time_domain)[1]
        for x in mcf.sample_xs(3, rng):
            for t in rng.uniform(max(0.05 * bg.time_domain[1], 0.05 * hi), hi, 3):
                d = track_point_data(tr, x, t)
                [cf, _] = closed_form_second_ff(tr, x, t)["full"]
                assert_close(d.second_ff, cf, rtol=1e-9)

    @pytest.mark.parametrize("variant", ["expanding", "shrinking", "steady"])
    def test_one_slice_evaluation_serves_every_table(self, monkeypatch, variant):
        calls = []
        evaluate = track_module._slice_stack

        def counted(*args):
            calls.append(args)
            return evaluate(*args)

        monkeypatch.setattr(track_module, "_slice_stack", counted)
        forms = closed_form_second_ff(sphere_track(variant, 100.0), np.array([1.1, 0.7]), 0.1)
        assert len(calls) == 1
        assert list(forms) == ["full", "leading"]
        assert all(a.shape == (3, 3) and np.array_equal(a, a.T) for pair in forms.values() for a in pair)

    def test_engine_matches_derived_full_form_fd_backend(self):
        import dataclasses

        tr = sphere_track("expanding", 100.0)
        fd_field = tr.cm.field.without_analytic_derivatives()
        cm_fd = dataclasses.replace(tr.cm, field=fd_field)
        tr_fd = build_track(tr.mcf, cm_fd)
        x, t = np.array([1.1, 0.7]), 0.1
        d = track_point_data(tr_fd, x, t)
        [cf, _] = closed_form_second_ff(tr_fd, x, t)["full"]
        assert rel(d.second_ff, cf) < 1e-5

    def test_printed_full_form_deviates_at_order_one_over_N(self):
        # the literal reference corrections carry sign slips; the mismatch
        # against the engine halves under N-doubling and is logged
        x, t = np.array([1.1, 0.7]), 0.1
        errs = []
        for N in (1e3, 2e3, 4e3):
            tr = sphere_track("expanding", N)
            d = track_point_data(tr, x, t)
            [_, cp] = closed_form_second_ff(tr, x, t)["full"]
            errs.append(rel(d.second_ff, cp))
        assert errs[0] > 1e-6
        for a, b in zip(errs, errs[1:]):
            assert 0.3 < b / a < 0.7
        assert any(c.variant == "expanding" and c.symbol == "h^S_ij" for c in SECOND_FF_CORRECTIONS)

    def test_leading_form_error_halves(self):
        x, t = np.array([1.1, 0.7]), 0.1
        errs = []
        for N in (1e3, 2e3, 4e3):
            tr = sphere_track("expanding", N)
            d = track_point_data(tr, x, t)
            [cl, _] = closed_form_second_ff(tr, x, t)["leading"]
            errs.append(rel(d.second_ff, cl))
        for a, b in zip(errs, errs[1:]):
            assert 0.3 < b / a < 0.7

    def test_leading_block_value_in_the_large_N_limit(self):
        # h^S_ij -> h_ij / sqrt(t) once sigma_N -> 1/sqrt(t)
        tr = sphere_track("expanding", 1e8)
        x, t = np.array([1.1, 0.7]), 0.1
        d = track_point_data(tr, x, t)
        assert np.allclose(d.second_ff[1:, 1:], d.hyp.second_ff / math.sqrt(t), rtol=1e-5)

    def test_equator_mixed_entries_reduce_to_ricci_term(self):
        # H = 0 and grad H = 0 leave only -Ric(T_i, nu) in the mixed slot,
        # which vanishes on the Einstein sphere background
        bg = sphere_bg("backward")
        mcf = model_mcf("equator_in_sphere", bg)
        tr = build_track(mcf, build_canonical_metric(bg, "shrinking", 100.0))
        x, t = np.array([1.2, 0.4]), 0.3
        [cf, _] = closed_form_second_ff(tr, x, t)["leading"]
        d = track_point_data(tr, x, t)
        assert np.allclose(cf[0, 1:], 0.0, atol=1e-14)
        assert np.allclose(d.second_ff, 0.0, atol=1e-12)

    def test_steady_leading_printed_prefactor_slip(self):
        # reference leading steady form carries a stray 1/tau
        tr = sphere_track("steady", 1e6)
        x, t = np.array([1.1, 0.7]), 0.15
        lead, printed = closed_form_second_ff(tr, x, t)["leading"]
        assert np.allclose(printed * t, lead, atol=1e-12)


class TestSolitonDefect:
    def test_normal_potential_engine_vs_closed_form(self):
        for variant in ("expanding", "shrinking", "steady"):
            tr = sphere_track(variant, 300.0)
            x, t = np.array([1.1, 0.7]), 0.1
            d = track_point_data(tr, x, t)
            engine = float(d.normal @ scalar_d1(tr.cm.potential, d.z))
            assert engine == pytest.approx(closed_form_normal_potential(tr, x, t), rel=1e-10)

    @pytest.mark.parametrize("variant", ["expanding", "shrinking", "steady"])
    def test_normal_potential_reads_w_from_the_track_bundle(self, monkeypatch, variant):
        # w = g_00 at z comes with the track data; the metric is not evaluated again
        from cansol import geometry, track

        calls = {"MetricField.at": 0, "_metric_bundle": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        tr = sphere_track(variant, 300.0)
        x, t = np.array([1.1, 0.7]), 0.1
        d = track_point_data(tr, x, t)
        assert np.array_equal(d.g, tr.cm.field.at(d.z))
        monkeypatch.setattr(geometry.MetricField, "at", counted("MetricField.at", geometry.MetricField.at))
        monkeypatch.setattr(track, "_metric_bundle", counted("_metric_bundle", track._metric_bundle))
        for _ in range(2):
            closed_form_normal_potential(tr, x, t)
        assert calls == {"MetricField.at": 0, "_metric_bundle": 2}

    @pytest.mark.parametrize("variant", ["expanding", "shrinking", "steady"])
    def test_scaled_defect_bounded(self, variant):
        x, t = np.array([1.1, 0.7]), 0.1
        sups = []
        for N in (1e2, 1e3, 1e4):
            tr = sphere_track(variant, N)
            sups.append(mcf_canonical_residual(tr, x, t).scaled_norm)
        assert max(sups) / min(sups) < 1.5

    def test_equator_defect_is_engine_zero(self):
        bg = sphere_bg("backward")
        mcf = model_mcf("equator_in_sphere", bg)
        for variant in ("shrinking", "steady"):
            tr = build_track(mcf, build_canonical_metric(bg, variant, 1e4))
            s = mcf_canonical_residual(tr, np.array([1.2, 0.4]), 0.3)
            assert s.norm < 1e-10

    def test_static_plane_defect_exact_zero(self):
        bg = flat_bg("backward")
        mcf = model_mcf("static_plane_flat", bg)
        tr = build_track(mcf, build_canonical_metric(bg, "steady", 100.0))
        assert mcf_canonical_residual(tr, np.array([0.4, -0.8]), 0.5).value == 0.0

    @pytest.mark.parametrize(
        "variant,expect_sqrt_t",
        [("expanding", True), ("shrinking", True), ("steady", False)],
    )
    def test_track_mean_curvature_convergence(self, variant, expect_sqrt_t):
        # |H^S - target| <= C/N; at n = 2 the steady 1/N coefficient happens
        # to cancel, so the decay there is even faster than halving
        x, t = np.array([1.1, 0.7]), 0.1
        errs = []
        for N in (1e3, 2e3, 4e3):
            tr = sphere_track(variant, N)
            d = track_point_data(tr, x, t)
            target = math.sqrt(t) * d.hyp.mean_curvature if expect_sqrt_t else d.hyp.mean_curvature
            errs.append(abs(d.mean_curvature - target))
        for a, b in zip(errs, errs[1:]):
            assert b / a < 0.7

    def test_expanding_mean_curvature_documented_value(self):
        tr = sphere_track("expanding", 1e8)
        d = track_point_data(tr, np.array([1.1, 0.7]), 0.1)
        assert d.mean_curvature == pytest.approx(0.816497, abs=1e-5)


class TestLimitInverseMetric:
    def test_finite_N_time_time_entry(self):
        tr = sphere_track("expanding", 100.0)
        x, t = np.array([1.1, 0.7]), 0.1
        d = track_point_data(tr, x, t)
        H = d.hyp.mean_curvature
        w = ref.time_time(tr.cm, d.hyp.position, t)
        assert d.induced_inv[0, 0] == pytest.approx(t / (H**2 + t * w), rel=1e-10)
        # decay bound: the entry is below 2 t^3 / N (with margin)
        assert d.induced_inv[0, 0] <= 2 * t**3 / tr.cm.N * 1.01

    def test_spatial_block_of_limit(self):
        tr = sphere_track("expanding", 100.0, r0=1.4)
        x, t = np.array([1.1, 0.7]), 0.25
        lim = limit_inverse_metric(tr, x, t)
        d = track_point_data(tr, x, t)
        assert lim.shape == (3, 3)
        assert np.allclose(lim[1:, 1:], 0.25 * d.hyp.induced_inv)
        assert np.all(lim[0, :] == 0.0)

    def test_finite_N_inverse_approaches_limit(self):
        x, t = np.array([1.1, 0.7]), 0.1
        gaps = []
        for N in (1e3, 1e4, 1e5):
            tr = sphere_track("expanding", N)
            d = track_point_data(tr, x, t)
            lim = limit_inverse_metric(tr, x, t)
            gaps.append(np.max(np.abs(d.induced_inv - lim)))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-7


class TestBuildTrack:
    def test_canonical_metric_on_another_sphere_rejected(self):
        # equal name, dimension and direction, but r0 = 2 against r0 = 1
        flow_bg = model_background("round_sphere", dim=3, r0=2.0, direction="forward")
        other = model_background("round_sphere", dim=3, r0=1.0, direction="forward")
        mcf = model_mcf("equator_in_sphere", flow_bg)
        with pytest.raises(CanonicalConfigError, match="mcf.ambient"):
            build_track(mcf, build_canonical_metric(other, "expanding", 100.0))
        assert build_track(mcf, build_canonical_metric(flow_bg, "expanding", 100.0)).mcf is mcf

    def test_degenerate_induced_track_metric_raises(self):
        # at N = 1e8 the time leg dominates: condition number above 1e12
        tr = sphere_track("expanding", 1e8)
        with pytest.raises(DegenerateMetricError, match="degenerate induced metric"):
            track_point_data(tr, np.array([0.1, 0.3]), 0.05)
