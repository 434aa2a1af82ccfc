"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.  Tolerances are fixed here, not calibrated at run
time; every expected number was computed from an independent closed form
or a finite-difference oracle.
"""

import math
import time

import numpy as np

from cansol.backgrounds import (
    hypersurface_point_data,
    model_background,
    model_mcf,
    mcf_soliton_residual,
    gradient_soliton_residual,
)
from cansol.canonical import (
    CHRISTOFFEL_CORRECTIONS,
    build_canonical_metric,
    canonical_ricci_quadratics,
    check_admissible,
    christoffel_crosscheck,
    limit_ricci,
    ricci_soliton_residual,
)
from cansol.harnack import (
    flat_ball_domain,
    limit_second_ff,
    lott_match_defect,
    random_polynomial_field,
    stripped_track_quadratic,
    weighted_functionals,
)
from cansol.track import (
    SECOND_FF_CORRECTIONS,
    build_track,
    closed_form_second_ff,
    mcf_canonical_residual,
    track_point_data,
)

N_SWEEP = (1e2, 1e3, 1e4)
RATIO_TOL = 1.5
ZERO_TOL = 1e-8


def verdict(num: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def background(name, **kw):
    return model_background(name, **kw)


def sweep_samples(bg, count, seed):
    rng = np.random.default_rng(seed)
    hi = bg.time_domain[1]
    return list(zip(bg.sample_points(count, rng), rng.uniform(0.05 * hi, hi, count)))


def test_criterion_1_ricci_soliton_residual_decay():
    """N |E_N| bounded (max/min sup ratio < 1.5) on both catalog backgrounds."""
    t0 = time.time()
    combos = [
        ("euclidean_static", dict(dim=3, direction="forward"), "expanding"),
        ("euclidean_static", dict(dim=3, direction="backward"), "shrinking"),
        ("euclidean_static", dict(dim=3, direction="backward"), "steady"),
        ("round_sphere", dict(dim=3, r0=1.0, direction="forward"), "expanding"),
        ("round_sphere", dict(dim=3, r0=1.0, direction="backward"), "shrinking"),
        ("round_sphere", dict(dim=3, r0=1.0, direction="backward"), "steady"),
    ]
    worst_ratio, details = 0.0, []
    for name, kw, variant in combos:
        bg = background(name, **kw)
        samples = sweep_samples(bg, 20, seed=101)
        sups = []
        cms = [build_canonical_metric(bg, variant, N) for N in N_SWEEP]
        check_admissible(cms, [t for _, t in samples])
        for cm in cms:
            sups.append(max(ricci_soliton_residual(cm, p, t).scaled_norm for p, t in samples))
        if max(sups) < ZERO_TOL:
            details.append(f"{name}/{variant}: exact zero")
            continue
        ratio = max(sups) / min(sups)
        worst_ratio = max(worst_ratio, ratio)
        details.append(f"{name}/{variant}: ratio {ratio:.3f}")
    elapsed = time.time() - t0
    ok = worst_ratio < RATIO_TOL and elapsed < 120.0
    verdict(1, ok, f"worst sup ratio {worst_ratio:.3f} < {RATIO_TOL}, {elapsed:.1f}s; " + "; ".join(details))


def test_criterion_2_mcf_soliton_residual_decay():
    """N |E~_N| bounded across variants; degenerate fixtures exactly zero."""
    t0 = time.time()
    flat_f = background("euclidean_static", dim=3, direction="forward")
    flat_b = background("euclidean_static", dim=3, direction="backward")
    sphere_b = background("round_sphere", dim=3, r0=1.0, direction="backward")
    cases = [
        (flat_f, model_mcf("shrinking_sphere_flat", flat_f, r0=1.0), "expanding", False),
        (flat_b, model_mcf("shrinking_sphere_flat", flat_b, r0=1.0), "shrinking", False),
        (flat_b, model_mcf("shrinking_sphere_flat", flat_b, r0=1.0), "steady", False),
        (sphere_b, model_mcf("equator_in_sphere", sphere_b), "shrinking", True),
        (flat_b, model_mcf("static_plane_flat", flat_b), "steady", True),
    ]
    rng = np.random.default_rng(43)
    worst_ratio, details, ok = 0.0, [], True
    for bg, mcf, variant, expect_zero in cases:
        hi = (mcf.time_domain or bg.time_domain)[1]
        xs = mcf.sample_xs(20, rng)
        ts = rng.uniform(max(0.05 * bg.time_domain[1], 0.05 * hi), hi, 20)
        sups = []
        for N in N_SWEEP:
            track = build_track(mcf, build_canonical_metric(bg, variant, N))
            sups.append(max(mcf_canonical_residual(track, x, t).scaled_norm
                            for x, t in zip(xs, ts)))
        if expect_zero:
            ok = ok and max(sups) < ZERO_TOL
            details.append(f"{mcf.name}/{variant}: sup {max(sups):.1e} (exact-zero check)")
        else:
            ratio = max(sups) / min(sups)
            worst_ratio = max(worst_ratio, ratio)
            details.append(f"{mcf.name}/{variant}: ratio {ratio:.3f}")
    elapsed = time.time() - t0
    ok = ok and worst_ratio < RATIO_TOL and elapsed < 120.0
    verdict(2, ok, f"worst ratio {worst_ratio:.3f} < {RATIO_TOL}, {elapsed:.1f}s; " + "; ".join(details))


def test_criterion_3_closed_form_crosschecks():
    """Engine vs closed forms: Christoffels 1e-5 (FD) / 1e-9 (analytic);
    track second fundamental form 1e-5 on the flat background; reference
    print slips logged, not silently passed."""
    import dataclasses

    combos = [
        ("euclidean_static", dict(dim=3, direction="forward"), "expanding"),
        ("euclidean_static", dict(dim=3, direction="backward"), "shrinking"),
        ("euclidean_static", dict(dim=3, direction="backward"), "steady"),
        ("round_sphere", dict(dim=3, r0=1.0, direction="forward"), "expanding"),
        ("round_sphere", dict(dim=3, r0=1.0, direction="backward"), "shrinking"),
        ("round_sphere", dict(dim=3, r0=1.0, direction="backward"), "steady"),
    ]
    worst_analytic = worst_fd = 0.0
    printed_slips = set()
    for name, kw, variant in combos:
        bg = background(name, **kw)
        samples = sweep_samples(bg, 5, seed=31)
        cm = build_canonical_metric(bg, variant, 100.0)
        [(derived, printed)] = christoffel_crosscheck([cm], samples)
        worst_analytic = max(worst_analytic, max(derived.values()))
        cm_fd = dataclasses.replace(cm, field=cm.field.without_analytic_derivatives())
        [(derived_fd, _)] = christoffel_crosscheck([cm_fd], samples)
        worst_fd = max(worst_fd, max(derived_fd.values()))
        printed_slips |= {(variant, s) for s, e in printed.items() if e > 1e-7}

    # track second fundamental form on the flat background, engine vs the
    # rederived full closed form at finite N, and vs the literal reference
    # at large N where its correction-term slips drop below tolerance
    flat_f = background("euclidean_static", dim=3, direction="forward")
    mcf = model_mcf("shrinking_sphere_flat", flat_f, r0=1.0)
    x, t = np.array([1.1, 0.7]), 0.1
    tr = build_track(mcf, build_canonical_metric(flat_f, "expanding", 100.0))
    d = track_point_data(tr, x, t)
    derived, printed_mid = closed_form_second_ff(tr, x, t)["full"]
    hs_err = np.max(np.abs(d.second_ff - derived)) / np.max(np.abs(d.second_ff))
    tr_big = build_track(mcf, build_canonical_metric(flat_f, "expanding", 1e8))
    d_big = track_point_data(tr_big, x, t)
    [_, printed_big] = closed_form_second_ff(tr_big, x, t)["full"]
    hs_err_printed = np.max(np.abs(d_big.second_ff - printed_big)) / np.max(np.abs(d_big.second_ff))

    # the literal printed evaluation at moderate N must measurably deviate
    slip_visible = np.max(np.abs(d.second_ff - printed_mid)) / np.max(np.abs(d.second_ff)) > 1e-4

    registry = {(c.variant, c.symbol) for c in CHRISTOFFEL_CORRECTIONS}
    logged = printed_slips <= registry and {
        ("shrinking", "G^0_bc"),   # nesting slip
        ("steady", "G^0_00"),      # missing 1/(N+R)
    } <= registry
    prefactor_logged = any(
        c.variant == "steady" and "prefactor" in c.symbol for c in SECOND_FF_CORRECTIONS
    )

    ok = (
        worst_analytic < 1e-9
        and worst_fd < 1e-5
        and hs_err < 1e-5
        and hs_err_printed < 1e-5
        and slip_visible
        and logged
        and prefactor_logged
    )
    verdict(
        3,
        ok,
        f"Christoffel rel err: analytic {worst_analytic:.1e} < 1e-9, fd {worst_fd:.1e} < 1e-5; "
        f"track h rel err {hs_err:.1e} < 1e-5 (derived, N=1e2), {hs_err_printed:.1e} < 1e-5 "
        f"(literal, N=1e8); print slips measured {sorted(printed_slips)} all logged",
    )


def test_criterion_4_harnack_link():
    """Ric of the canonical expander converges to the flow Harnack quadratic."""
    bg = background("round_sphere", dim=3, r0=1.0, direction="forward")
    rng = np.random.default_rng(77)
    hi = bg.time_domain[1]
    ratios_ok = True
    for p, t in zip(bg.sample_points(10, rng), rng.uniform(0.05 * hi, hi, 10)):
        X = rng.uniform(-1.0, 1.0, 3)
        target = limit_ricci(bg, X, p, t)
        errs = []
        for N in (1e3, 2e3, 4e3):
            cm = build_canonical_metric(bg, "expanding", N)
            [quad] = canonical_ricci_quadratics(cm, [X], [p], [t])
            errs.append(abs(quad - target))
        ratios_ok = ratios_ok and all(0.3 < b / a < 0.7 for a, b in zip(errs, errs[1:]))

    p, t = np.array([1.2, 0.8, 2.0]), 0.1
    [g] = bg.bundle([p], [t], order=0).g
    X = np.zeros(3)
    X[0] = 1.0 / math.sqrt(g[0, 0])
    z_val = limit_ricci(bg, X, p, t)
    value_ok = abs(z_val - 86.6667) <= 1e-3
    verdict(4, ratios_ok and value_ok,
            f"halving ratios in [0.3, 0.7] at 10 points; Z = {z_val:.5f} = 86.6667 +- 1e-3")


def test_criterion_5_flat_identity_and_track_limit():
    """Stripped track form converges to the limit form, which is Z~ on a flat background."""
    bg = background("euclidean_static", dim=3, direction="forward")
    mcf = model_mcf("shrinking_sphere_flat", bg, r0=1.0)
    x, t = np.array([1.1, 0.7]), 0.1
    rng = np.random.default_rng(55)

    halving_ok = True
    for _ in range(3):
        V = rng.uniform(-1.0, 1.0, 2)
        target = limit_second_ff(hypersurface_point_data(mcf, x, t), V)
        errs = []
        for N in (1e3, 2e3, 4e3):
            tr = build_track(mcf, build_canonical_metric(bg, "expanding", N))
            errs.append(abs(stripped_track_quadratic(tr, V, x, t) - target))
        halving_ok = halving_ok and all(0.3 < b / a < 0.7 for a, b in zip(errs, errs[1:]))

    z0 = limit_second_ff(hypersurface_point_data(mcf, x, t), np.zeros(2))
    value_ok = abs(z0 - 21.5165) <= 1e-3
    verdict(5, halving_ok and value_ok, f"halving ok; Z~(0) = {z0:.5f} = 21.5165 +- 1e-3")


def test_criterion_6_lott_boundary_match():
    """limit form at -grad f minus boundary integrand equals H/(2t)."""
    bg = background("euclidean_static", dim=3, direction="forward")
    mcf = model_mcf("shrinking_sphere_flat", bg, r0=1.0)
    x, t = np.array([1.1, 0.7]), 0.1
    hyp = hypersurface_point_data(mcf, x, t)
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(20):
        f = random_polynomial_field(3, rng)
        worst = max(worst, abs(lott_match_defect(hyp, f)))
    verdict(6, worst < 1e-6, f"max match defect over 20 seeded potentials {worst:.2e} < 1e-6")


def test_criterion_7_exact_soliton_fixtures():
    """Gaussian-shrinker residuals vanish; track mean curvature converges."""
    gauss = background("gaussian_shrinker_flat", dim=3)
    rng = np.random.default_rng(13)
    grad_worst = 0.0
    for tau in rng.uniform(0.05, 1.0, 10):
        for p in gauss.sample_points(5, rng):
            res = gradient_soliton_residual(gauss, gauss.soliton, p, tau)
            grad_worst = max(grad_worst, float(np.max(np.abs(res))))

    mcf_worst = 0.0
    n = 2
    for tau in np.linspace(0.05, 0.9, 9):
        r0 = math.sqrt(4 * n * tau)  # makes r(tau) = sqrt(2 n tau)
        sphere = model_mcf("shrinking_sphere_flat", gauss, r0=r0)
        res = mcf_soliton_residual(sphere, gauss.soliton.potential, -1.0, np.array([1.3, 0.4]), tau)
        mcf_worst = max(mcf_worst, abs(res))

    # H^S -> sqrt(t) H (expanding), sqrt(tau) H (shrinking), H (steady)
    x, t = np.array([1.1, 0.7]), 0.1
    conv_ok = True
    for variant, scale in (("expanding", math.sqrt(t)), ("shrinking", math.sqrt(t)), ("steady", 1.0)):
        direction = "forward" if variant == "expanding" else "backward"
        bg = background("euclidean_static", dim=3, direction=direction)
        mcf = model_mcf("shrinking_sphere_flat", bg, r0=1.0)
        errs = []
        for N in (1e3, 2e3, 4e3):
            tr = build_track(mcf, build_canonical_metric(bg, variant, N))
            d = track_point_data(tr, x, t)
            errs.append(abs(d.mean_curvature - scale * d.hyp.mean_curvature))
        # the steady 1/N coefficient cancels at n = 2, so decay there is
        # faster than halving; require at-least-halving throughout
        conv_ok = conv_ok and all(b / a < 0.7 for a, b in zip(errs, errs[1:]))

    ok = grad_worst < 1e-12 and mcf_worst < 1e-10 and conv_ok
    verdict(7, ok,
            f"gradient-soliton residual {grad_worst:.1e} < 1e-12; "
            f"hypersurface-soliton residual {mcf_worst:.1e} < 1e-10; "
            f"H^S convergence at-least-halving in all variants")


def test_criterion_8_functional_sanity():
    """I_infty of the unweighted flat unit ball is 16 pi within 0.1%."""
    base = weighted_functionals(flat_ball_domain(grid=(20, 64, 8))).I_infty
    refined = weighted_functionals(flat_ball_domain(grid=(40, 128, 16))).I_infty
    target = 16.0 * math.pi
    rel = abs(refined - target) / target
    delta = abs(refined - base) / abs(refined)
    ok = rel < 1e-3 and delta < 1e-3
    verdict(8, ok,
            f"I_infty = {refined:.5f} vs 16 pi = {target:.5f} (rel {rel:.1e} < 1e-3, "
            f"refinement delta {delta:.1e} < 1e-3)")
