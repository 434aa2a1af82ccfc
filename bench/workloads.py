"""Workload definitions: seeded suite configs, pointwise calls and oracles.

Each workload is a fixed list of suites (``cansol run`` configurations)
whose sample seeds are drawn from the benchmark seed, plus one public
pointwise function that a library user would call on the same points.
The library only ever sees the generated configs and points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cansol import (
    ScalarField,
    build_canonical_metric,
    build_track,
    christoffel,
    flat_ball_domain,
    mcf_canonical_residual,
    model_background,
    model_mcf,
    ricci_soliton_residual,
    weighted_scalar_curvature,
)

SPHERE_VARIANTS = (("expanding", "forward"), ("shrinking", "backward"), ("steady", "backward"))

# Rederived Christoffel tables must match the engine this closely (the
# suite's own defaults); the FD backend is limited by its stencil error.
CHRISTOFFEL_TOL = {"analytic": 1e-9, "fd": 1e-5}
ZERO_TOL = 1e-8
RATIO_TOL = 1.5
LOTT_TOL = 1e-6
QUADRATURE_TOL = 1e-3
POLE_BAND = 1e-2   # flat_ball_domain's default polar band

# float64 entries formed per quadrature node: coordinates 3, weight 1,
# g^-1 9, dg 27, Gamma 27, df 3, ddf 9, Hess 9.
QUADRATURE_NODE_BYTES = 8 * 88


@dataclass(frozen=True)
class Suite:
    """One suite of a workload, with what its report must show."""

    label: str
    config: dict
    exact_zero: bool = False


@dataclass(frozen=True)
class Workload:
    why: str
    pointwise: str            # public pointwise function timed per call
    build: object             # (seed, **size knobs) -> list[Suite]
    full: dict                # size knobs for the measured run
    tiny: dict                # size knobs for the benchmark's own tests


def _sub_seeds(seed: int, k: int) -> list[int]:
    ss = np.random.SeedSequence(seed)
    return [int(s.generate_state(1)[0]) for s in ss.spawn(k)]


def _sphere(dim, direction):
    return {"name": "round_sphere", "params": {"dim": dim, "r0": 1.0, "direction": direction}}


def _flat(dim, direction):
    return {"name": "euclidean_static", "params": {"dim": dim, "direction": direction}}


def _soliton_suites(seed, count, N_list):
    specs = [(f"sphere{dim}-{var}", var, _sphere(dim, dr), False)
             for dim in (3, 5) for var, dr in SPHERE_VARIANTS]
    specs.append(("flat3-steady", "steady", _flat(3, "backward"), True))
    return [
        Suite(label, {"suite": "ricci_soliton_residual", "variant": var, "background": bg,
                      "N_list": N_list, "samples": {"count": count, "seed": s}}, exact_zero)
        for (label, var, bg, exact_zero), s in zip(specs, _sub_seeds(seed, len(specs)))
    ]


def _track_suites(seed, count, N_list):
    sphere_flow = {"name": "shrinking_sphere_flat", "params": {"r0": 1.0}}
    specs = [(f"shrinking-sphere{dim}-{var}", var, _flat(dim, dr), sphere_flow, False)
             for dim in (3, 5) for var, dr in SPHERE_VARIANTS]
    specs.append(("equator3-steady", "steady", _sphere(3, "backward"),
                  {"name": "equator_in_sphere"}, True))
    seeds = _sub_seeds(seed, len(specs) + 2)
    suites = [
        Suite(label, {"suite": "mcf_soliton_residual", "variant": var, "background": bg,
                      "mcf": mcf, "N_list": N_list, "samples": {"count": count, "seed": s}},
              exact_zero)
        for (label, var, bg, mcf, exact_zero), s in zip(specs, seeds)
    ]
    suites.append(Suite("harnack-flat3", {
        "suite": "harnack_limits", "background": _flat(3, "forward"), "mcf": sphere_flow,
        "N_list": [1000.0, 2000.0, 4000.0], "samples": {"count": count, "seed": seeds[-2]}}))
    suites.append(Suite("lott-flat3", {
        "suite": "lott_match", "background": _flat(3, "forward"), "mcf": sphere_flow,
        "samples": {"count": count, "seed": seeds[-1]}}))
    return suites


def _quadrature_suites(seed, small, large):
    # the functionals suite draws nothing at random: the seed only picks
    # which grid nodes the pointwise loop visits
    return [
        Suite("zero-small", {"suite": "functionals",
                             "samples": {"potential": "zero", "grid": list(small)}}),
        Suite("zero-large", {"suite": "functionals",
                             "samples": {"potential": "zero", "grid": list(large)}}),
        Suite("gaussian-large", {"suite": "functionals",
                                 "samples": {"potential": "gaussian", "grid": list(large)}}),
    ]


def _crosscheck_suites(seed, count, N_list):
    specs = [(f"sphere3-{var}-{backend}", var, dr, backend)
             for var, dr in (("shrinking", "backward"), ("steady", "backward"))
             for backend in ("analytic", "fd")]
    # the two backends of one variant share a seed, so they see the same samples
    seeds = _sub_seeds(seed, 2)
    return [
        Suite(label, {"suite": "christoffel_crosscheck", "variant": var,
                      "background": _sphere(3, dr), "N_list": N_list,
                      "samples": {"count": count, "seed": seeds[i // 2], "backend": backend}})
        for i, (label, var, dr, backend) in enumerate(specs)
    ]


WORKLOADS = {
    "soliton_sweep": Workload(
        "Ricci-soliton defect sweeps on round spheres (dims 3, 5, all variants) plus a flat "
        "exact-zero fixture: the geometry kernel (Riemann) and sphere callbacks dominate",
        "ricci_soliton_residual",
        _soliton_suites,
        full={"count": 16, "N_list": [1e2, 1e3, 1e4, 1e5]},
        tiny={"count": 2, "N_list": [1e2, 1e3]},
    ),
    "track_sweep": Workload(
        "Track defect sweeps of a shrinking sphere (dims 3, 5, all variants), an exact-zero "
        "equator, Harnack limits and Lott match: hypersurface and track geometry, no Riemann",
        "mcf_canonical_residual",
        _track_suites,
        # at N = 1e2 the steady dim-5 sup ratio is still pre-asymptotic (~1.9);
        # 19-52% of the sampled times raise cheaply, so a large count keeps
        # the work per pass from swinging with the seed
        full={"count": 64, "N_list": [1e3, 1e4, 1e5, 1e6]},
        tiny={"count": 3, "N_list": [1e3, 1e4]},
    ),
    "quadrature": Workload(
        "Weighted functional I_infty on a flat ball, zero and Gaussian potentials, one grid "
        "within L2 and one beyond: the Python quadrature loop, no Riemann",
        "weighted_scalar_curvature",
        _quadrature_suites,
        full={"small": (2, 32, 2), "large": (10, 32, 4)},
        tiny={"small": (2, 32, 2), "large": (8, 32, 2)},
    ),
    "fd_crosscheck": Workload(
        "Christoffel cross-checks on sphere samples with FD and analytic derivatives: the "
        "geometry layer driven through FD stencils plus the closed-form tables",
        "christoffel",
        _crosscheck_suites,
        full={"count": 12, "N_list": [1e2, 1e4]},
        tiny={"count": 2, "N_list": [1e2]},
    ),
}


def suites(workload: str, seed: int, tiny: bool = False) -> list[Suite]:
    """The workload's suites; the same seed always gives the same configs."""
    w = WORKLOADS[workload]
    return w.build(seed, **(w.tiny if tiny else w.full))


# ---------------------------------------------------------------------------
# input sizes
# ---------------------------------------------------------------------------


def refined_grid(grid) -> tuple[int, int, int]:
    return tuple(2 * g for g in grid)


def interior_nodes(grid) -> int:
    nr, nth, nph = grid
    return (nr - 1) * nth * nph     # the r = 0 shell carries no weight


def suite_points(suite: Suite) -> int:
    """Pointwise evaluations one run of the suite attempts."""
    cfg = suite.config
    s = cfg["samples"]
    if cfg["suite"] in ("ricci_soliton_residual", "mcf_soliton_residual",
                        "christoffel_crosscheck"):
        return s["count"] * len(cfg["N_list"])
    if cfg["suite"] == "harnack_limits":
        return s["count"] + (1 if cfg.get("mcf") else 0)
    if cfg["suite"] == "lott_match":
        return s["count"]
    grid = tuple(s["grid"])
    return sum(interior_nodes(g) for g in (grid, refined_grid(grid)))


def working_set_bytes(suite: Suite) -> int:
    """float64 bytes of the per-point tensors the suite forms, over all its points.

    Sweeps count g, g^-1, dg, Gamma (first order) and, for the Riemann
    path, ddg, dGamma, Riem on the space-time chart of dimension m; the
    quadrature counts QUADRATURE_NODE_BYTES per node of its refined grid.
    """
    cfg = suite.config
    if cfg["suite"] == "functionals":
        return interior_nodes(refined_grid(cfg["samples"]["grid"])) * QUADRATURE_NODE_BYTES
    m = cfg["background"]["params"]["dim"] + 1
    per_point = 2 * m**2 + 2 * m**3
    if cfg["suite"] in ("ricci_soliton_residual", "harnack_limits"):
        per_point += 3 * m**4
    return 8 * per_point * suite_points(suite)


# ---------------------------------------------------------------------------
# verdict and oracle checks on a finished report
# ---------------------------------------------------------------------------


def gaussian_I_infty() -> float:
    """I_infty of f = |x|^2/4 on the unit ball minus the polar band.

    R^inf = 3 - r^2/4 inside and H^inf = 3/2 on the boundary, so
    I = 4 pi cos(band) [int_0^1 r^2 (3 - r^2/4) e^(-r^2/4) dr + 3 e^(-1/4)],
    with the radial integral by composite Simpson on 20000 panels.
    """
    r = np.linspace(0.0, 1.0, 20001)
    f = r**2 * (3.0 - r**2 / 4.0) * np.exp(-(r**2) / 4.0)
    h = r[1] - r[0]
    radial = h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())
    return 4.0 * math.pi * math.cos(POLE_BAND) * (radial + 3.0 * math.exp(-0.25))


def check_report(suite: Suite, report) -> list[str]:
    """Problems with a report's verdict or oracle values (empty when correct)."""
    cfg, summ = suite.config, report.summary
    problems = []
    if not bool(report.passed):
        problems.append("verdict FAIL")
    kind = cfg["suite"]
    if kind in ("ricci_soliton_residual", "mcf_soliton_residual"):
        sups = [row["sup_scaled_norm"] for row in summ.get("per_N", [])]
        if len(sups) != len(cfg["N_list"]):
            problems.append("missing per-N sups")
        elif suite.exact_zero and max(sups) >= ZERO_TOL:
            problems.append(f"exact-zero fixture sup {max(sups):.3e} >= {ZERO_TOL}")
        elif not suite.exact_zero and not max(sups) / min(sups) < RATIO_TOL:
            problems.append(f"sup ratio {max(sups) / min(sups):.3f} >= {RATIO_TOL}")
    elif kind == "christoffel_crosscheck":
        tol = CHRISTOFFEL_TOL[cfg["samples"]["backend"]]
        worst = summ["max_rel_error_derived"]
        if not worst < tol:
            problems.append(f"derived Christoffel error {worst:.3e} >= {tol}")
    elif kind == "harnack_limits":
        if not all(r["in_band"] for r in report.records):
            problems.append("Harnack ratio out of band")
    elif kind == "lott_match":
        if not summ["max_defect"] < LOTT_TOL:
            problems.append(f"Lott defect {summ['max_defect']:.3e} >= {LOTT_TOL}")
    elif kind == "functionals":
        value = next(r["I_infty"] for r in report.records if r["label"] == "refined")
        target = 16.0 * math.pi if cfg["samples"]["potential"] == "zero" else gaussian_I_infty()
        if not abs(value - target) / target < QUADRATURE_TOL:
            problems.append(f"I_infty {value!r} not within {QUADRATURE_TOL} of {target!r}")
    return problems


# ---------------------------------------------------------------------------
# pointwise calls on the generated points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointCall:
    """One public pointwise call and a check of its result."""

    fn: object
    args: tuple
    check: object             # result -> bool


def _model(cfg):
    bg = model_background(cfg["background"]["name"], **cfg["background"]["params"])
    if cfg.get("mcf"):
        return bg, model_mcf(cfg["mcf"]["name"], bg, **cfg["mcf"].get("params", {}))
    return bg, None


def _residual_calls(suite: Suite, report) -> list[PointCall]:
    """Re-evaluate each record of a sweep; the result must equal the record."""
    cfg = suite.config
    bg, mcf = _model(cfg)
    calls = []
    for N in cfg["N_list"]:
        cm = build_canonical_metric(bg, cfg["variant"], float(N))
        if mcf is None:
            fn, target = ricci_soliton_residual, cm
        else:
            fn, target = mcf_canonical_residual, build_track(mcf, cm)
        key = "point" if mcf is None else "x"
        for rec in report.records:
            if rec["N"] == N:
                calls.append(PointCall(
                    fn, (target, np.asarray(rec[key]), rec["t"]),
                    lambda s, want=rec["scaled_norm"]: s.scaled_norm == want))
    return calls


def _quadrature_calls(suite: Suite, rng, per_grid: int) -> list[PointCall]:
    s = suite.config["samples"]
    if s["potential"] == "zero":
        potential, exact = ScalarField.constant(0.0), (lambda p: 0.0)
    else:
        potential = ScalarField(value=lambda p: float(p @ p) / 4.0, d1=lambda p: p / 2.0,
                                d2=lambda p: np.eye(3) / 2.0)
        exact = lambda p: 3.0 - float(p @ p) / 4.0
    wm = flat_ball_domain(potential=potential, grid=refined_grid(s["grid"]))
    idx = rng.choice(len(wm.interior_points), size=min(per_grid, len(wm.interior_points)),
                     replace=False)
    return [PointCall(weighted_scalar_curvature, (wm, wm.interior_points[i]),
                      lambda v, want=exact(wm.interior_points[i]): abs(v - want) < 1e-12)
            for i in idx]


def _christoffel_calls(suite: Suite) -> list[PointCall]:
    """FD-backend Christoffels on the suite's samples, against the analytic kernel."""
    cfg = suite.config
    bg, _ = _model(cfg)
    rng = np.random.default_rng(cfg["samples"]["seed"])
    count = cfg["samples"]["count"]
    # mirrors the suite's default sampler: points, then times above 5% of T
    pts = bg.sample_points(count, rng)
    T = bg.time_domain[1]
    ts = rng.uniform(0.05 * T, T, count)
    calls = []
    for N in cfg["N_list"]:
        cm = build_canonical_metric(bg, cfg["variant"], float(N))
        fd_field = cm.field.without_analytic_derivatives()
        for p, t in zip(pts, ts):
            z = cm.spacetime_point(p, t)
            want = christoffel(cm.field, z).gamma
            scale = float(np.max(np.abs(want)))
            calls.append(PointCall(
                christoffel, (fd_field, z),
                lambda c, want=want, scale=scale:
                    float(np.max(np.abs(c.gamma - want))) < CHRISTOFFEL_TOL["fd"] * scale))
    return calls


def point_calls(workload: str, seed: int, suite_list, reports) -> list[PointCall]:
    """The workload's pointwise calls on the points its suites generated.

    ``reports`` maps suite label to its report (sweeps take their points
    from the records); points that raised in the suite are left out, since
    they are already counted as failures there.
    """
    calls = []
    rng = np.random.default_rng(seed)
    for suite in suite_list:
        kind = suite.config["suite"]
        if workload in ("soliton_sweep", "track_sweep") and kind in (
                "ricci_soliton_residual", "mcf_soliton_residual"):
            calls += _residual_calls(suite, reports[suite.label])
        elif workload == "quadrature":
            calls += _quadrature_calls(suite, rng, per_grid=256)
        elif workload == "fd_crosscheck" and suite.config["samples"]["backend"] == "fd":
            calls += _christoffel_calls(suite)
    return calls

