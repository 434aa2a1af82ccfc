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
from functools import partial
from pathlib import Path

import numpy as np

from . import backgrounds as bgmod
from .backgrounds import hypersurface_point_data, model_background, model_mcf
from .canonical import (
    CHRISTOFFEL_CORRECTIONS,
    T_MIN_FRACTION,
    VARIANTS,
    CanonicalConfigError,
    build_canonical_metric,
    canonical_ricci_quadratics,
    christoffel_crosscheck,
    limit_ricci,
    minimal_admissible_N,
    ricci_soliton_residual,
)
from .geometry import FD_H1, FD_H2, ChartDomainError, DegenerateMetricError, ScalarField
from .harnack import (
    I_GHY,
    I_infty,
    flat_ball_domain,
    limit_second_ff,
    lott_match_defect,
    random_polynomial_field,
    stripped_track_quadratic,
)
from .reports import ResidualReport, emit
from .track import build_track, mcf_canonical_residuals

__all__ = ["ConfigError", "RunConfig", "run", "main", "SUITES"]

SUITES = (
    "ricci_soliton_residual",
    "mcf_soliton_residual",
    "christoffel_crosscheck",
    "harnack_limits",
    "lott_match",
    "functionals",
)

# errors collected per point instead of aborting the sweep
_POINT_ERRORS = (DegenerateMetricError, ChartDomainError, CanonicalConfigError)

_ZERO_TOL = 1e-8   # sups and limit errors below this count as exact

# the accepted keys of each config block; any other key is a config error
_BLOCK_KEYS = {
    "background": {"name", "params"},
    "mcf": {"name", "params"},
    "samples": {"count", "seed", "t_range", "times", "backend", "potential", "grid"},
    "tolerances": {"ratio", "rel_error", "ratio_band", "defect", "refinement"},
    "output": {"path", "format"},
}


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
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - {f.name for f in dataclasses.fields(RunConfig)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for block, keys in _BLOCK_KEYS.items():
            unknown = set(raw.get(block) or ()) - keys
            if unknown:
                raise ConfigError(f"unknown {block} keys: {sorted(unknown)}")
        suite = raw.get("suite")
        if suite not in SUITES:
            raise ConfigError(f"unknown suite {suite!r}; known: {list(SUITES)}")
        cfg = RunConfig(
            suite=suite,
            variant=raw.get("variant"),
            background=raw.get("background"),
            mcf=raw.get("mcf"),
            N_list=list(raw.get("N_list", [])),
            samples=dict(raw.get("samples", {})),
            output=dict(raw.get("output", {})),
            tolerances=dict(raw.get("tolerances", {})),
        )
        if cfg.N_list:
            if any(n <= 0 for n in cfg.N_list):
                raise ConfigError("N_list entries must be positive")
            if sorted(cfg.N_list) != cfg.N_list:
                raise ConfigError("N_list must be sorted ascending")
        count = cfg.samples.get("count", 20)
        if isinstance(count, bool) or not (isinstance(count, int) and count >= 1):
            raise ConfigError("samples.count must be an integer >= 1")
        return cfg


def _build_background(cfg: RunConfig):
    if not cfg.background or "name" not in cfg.background:
        raise ConfigError("config needs background.name")
    try:
        return model_background(cfg.background["name"], **cfg.background.get("params", {}))
    except bgmod.BackgroundError as exc:
        raise ConfigError(str(exc)) from exc


def _build_mcf(cfg: RunConfig, bg):
    if not cfg.mcf or "name" not in cfg.mcf:
        raise ConfigError(f"suite {cfg.suite} needs mcf.name")
    try:
        return model_mcf(cfg.mcf["name"], bg, **cfg.mcf.get("params", {}))
    except bgmod.BackgroundError as exc:
        raise ConfigError(str(exc)) from exc


def _draw_samples(cfg: RunConfig, sampler, domain, default_count: int):
    """The run's generator, ``samples.count`` chart points from ``sampler``, and their times.

    Given ``samples.times``, there is one point per time: ``count`` defaults
    to their number, and any other ``count`` is a config error.
    """
    rng = np.random.default_rng(cfg.samples.get("seed", 0))
    times = cfg.samples.get("times")
    if times is not None and not (isinstance(times, list) and times):
        raise ConfigError(f"samples.times must be a non-empty list, got {times!r}")
    count = cfg.samples.get("count", default_count if times is None else len(times))
    if times is not None and count != len(times):
        raise ConfigError(
            f"samples.count is {count} but samples.times has {len(times)} entries; "
            "give one time per sample point"
        )
    pts = sampler(count, rng)
    lo, hi = domain
    t_min = T_MIN_FRACTION * hi
    t_range = cfg.samples.get("t_range")
    if t_range is not None:
        a, b = float(t_range[0]), float(t_range[1])
        if not (lo < a <= b <= hi):
            raise ConfigError(f"t_range {t_range} outside the domain ({lo}, {hi}]")
        t_min = a
    else:
        b = hi
    if times is not None:
        return rng, pts, [float(t) for t in times]
    return rng, pts, list(rng.uniform(t_min, b, count))


def _check_times(cfg: RunConfig, bg, ts):
    """Raise a ConfigError naming the first sample whose time lies outside ``bg``'s domain.

    Drawn times lie in the domain; given ones may not.
    """
    for i, t in enumerate(ts):
        try:
            bg.check_time(t)
        except ChartDomainError as exc:
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
    if cfg.variant not in VARIANTS:
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


def _defect_sweep(report: ResidualReport, Ns, residuals_at, key: str, pts, ts) -> list:
    """Evaluate a soliton defect at every (point, t) for each N; (N, sup N|E_N|) per N.

    ``residuals_at(N)`` returns the defect at that N as a function of the
    point and time lists, which gives one entry per pair: the sample, or
    the exception the pair raised.  Records and per-point errors go to the
    report in point order, the point under ``key``; any other exception is
    raised.  The sup is None for an N at which no point was evaluated.
    """
    sups_per_N = []
    for N in Ns:
        sup = None
        for p, t, s in zip(pts, ts, residuals_at(N)(pts, ts)):
            if isinstance(s, _POINT_ERRORS):
                report.errors.append({key: list(p), "t": t, "N": N, "error": str(s)})
                continue
            if isinstance(s, Exception):
                raise s
            report.records.append(
                {key: list(p), "t": t, "N": N, "norm": s.norm, "scaled_norm": s.scaled_norm}
            )
            sup = max(0.0 if sup is None else sup, s.scaled_norm)
        sups_per_N.append((N, sup))
    return sups_per_N


def _pointwise(fn, *columns) -> list:
    """``fn`` at every row of the argument columns, called once per row; a per-point error is kept."""
    out = []
    for args in zip(*columns):
        try:
            out.append(fn(*args))
        except _POINT_ERRORS as exc:
            # kept without its traceback, whose frames would hold ``out``
            out.append(exc.with_traceback(None))
    return out


def _run_ricci_soliton(cfg: RunConfig, report: ResidualReport):
    bg = _build_background(cfg)
    variant = _variant(cfg)
    Ns = _need_N_list(cfg)
    _, pts, ts = _draw_samples(cfg, bg.sample_points, bg.time_domain, 20)
    _check_times(cfg, bg, ts)
    samples = list(zip(pts, ts))

    def residuals_at(N):
        cm = build_canonical_metric(bg, variant, N, samples=samples)
        # one pointwise call per point: the benchmark's own tests count these
        # calls per sweep point, so this sweep stays unbatched
        return partial(_pointwise, partial(ricci_soliton_residual, cm))

    sups_per_N = _defect_sweep(report, Ns, residuals_at, "point", pts, ts)
    report.summary, report.passed = _sweep_summary(sups_per_N, cfg.tolerances.get("ratio", 1.5))
    report.provenance = _provenance(
        cfg, {"minimal_admissible_N": minimal_admissible_N(bg, variant, samples)}
    )


def _run_mcf_soliton(cfg: RunConfig, report: ResidualReport):
    bg = _build_background(cfg)
    variant = _variant(cfg)
    Ns = _need_N_list(cfg)
    mcf = _build_mcf(cfg, bg)
    _, xs, ts = _draw_samples(cfg, mcf.sample_xs, mcf.time_domain, 20)

    def residuals_at(N):
        return partial(mcf_canonical_residuals, build_track(mcf, build_canonical_metric(bg, variant, N)))

    sups_per_N = _defect_sweep(report, Ns, residuals_at, "x", xs, ts)
    report.summary, report.passed = _sweep_summary(sups_per_N, cfg.tolerances.get("ratio", 1.5))
    report.provenance = _provenance(cfg)


def _run_christoffel_crosscheck(cfg: RunConfig, report: ResidualReport):
    bg = _build_background(cfg)
    variant = _variant(cfg)
    Ns = _need_N_list(cfg)
    backend = cfg.samples.get("backend", "analytic")
    if backend not in ("analytic", "fd"):
        raise ConfigError("samples.backend must be 'analytic' or 'fd'")
    tol = cfg.tolerances.get("rel_error", 1e-9 if backend == "analytic" else 1e-5)
    _, pts, ts = _draw_samples(cfg, bg.sample_points, bg.time_domain, 10)
    _check_times(cfg, bg, ts)
    samples = list(zip(pts, ts))

    worst = 0.0
    for N in Ns:
        cm = build_canonical_metric(bg, variant, N)
        if backend == "fd":
            cm = dataclasses.replace(cm, field=cm.field.without_analytic_derivatives())
        derived = christoffel_crosscheck(cm, samples, as_printed=False)
        printed = christoffel_crosscheck(cm, samples, as_printed=True)
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
    bg = _build_background(cfg)
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
    # per point: the limit, then the errors at every N or the first exception
    outcome = _pointwise(partial(limit_ricci, bg), Xs, pts, ts)
    ok = [i for i, o in enumerate(outcome) if not isinstance(o, Exception)]
    stacks = (Xs[ok], np.asarray(pts)[ok], np.asarray(ts)[ok])
    quads = [canonical_ricci_quadratics(cm, *stacks) for cm in cms]
    for i, per_N in zip(ok, zip(*quads)):
        exc = next((q for q in per_N if isinstance(q, Exception)), None)
        outcome[i] = [abs(q - outcome[i]) for q in per_N] if exc is None else exc
    for p, t, X, o in zip(pts, ts, Xs, outcome):
        if isinstance(o, Exception):
            report.errors.append({"point": list(p), "t": t, "error": str(o)})
        else:
            record(o, point=list(p), t=t, X=list(X))

    if cfg.mcf:
        mcf = _build_mcf(cfg, bg)
        hi = mcf.time_domain[1]
        x = mcf.sample_xs(1, rng)[0]
        t = 0.5 * (T_MIN_FRACTION * hi + hi)
        V = rng.uniform(-1.0, 1.0, mcf.hypersurface_dim)
        target = limit_second_ff(hypersurface_point_data(mcf, x, t), V)
        errs = []
        for cm in cms:
            track = build_track(mcf, cm)
            errs.append(abs(stripped_track_quadratic(track, V, x, t) - target))
        record(errs, kind="stripped_track_limit", x=list(x), t=t, V=list(V))

    all_in_band = all(r["in_band"] for r in report.records)
    report.summary = {
        "N_list": Ns,
        "ratio_band": [lo_band, hi_band],
        "all_ratios_in_band": all_in_band,
    }
    report.passed = all_in_band and bool(report.records)
    report.provenance = _provenance(cfg)


def _run_lott_match(cfg: RunConfig, report: ResidualReport):
    bg = _build_background(cfg)
    if bg.direction != "forward" or bg.conformal.sigma_scalar != 0.0:
        raise ConfigError("lott_match runs on a flat forward background")
    mcf = _build_mcf(cfg, bg)
    tol = cfg.tolerances.get("defect", 1e-6)
    seed = cfg.samples.get("seed", 0)
    count = cfg.samples.get("count", 20)
    rng = np.random.default_rng(seed)
    x = mcf.sample_xs(1, rng)[0]
    times = cfg.samples.get("times", [0.5 * mcf.time_domain[1]])
    if not isinstance(times, list) or len(times) != 1:
        raise ConfigError(f"lott_match evaluates one slice: samples.times needs one entry, got {times!r}")
    [t] = times

    worst = 0.0
    try:
        hyp = hypersurface_point_data(mcf, x, t)
    except _POINT_ERRORS as exc:
        # one slice serves every potential, so its error is every potential's
        report.errors.extend({"potential_index": k, "error": str(exc)} for k in range(count))
    else:
        for k in range(count):
            defect = abs(lott_match_defect(hyp, random_polynomial_field(bg.dim, rng)))
            report.records.append({"potential_index": k, "defect": defect})
            worst = max(worst, defect)

    report.summary = {"max_defect": worst, "tolerance": tol, "potentials": count}
    report.passed = worst < tol and bool(report.records)
    report.provenance = _provenance(cfg, {"potential_seed": seed})


def _run_functionals(cfg: RunConfig, report: ResidualReport):
    kind = cfg.samples.get("potential", "zero")
    if kind not in ("zero", "gaussian"):
        raise ConfigError("samples.potential must be 'zero' or 'gaussian'")
    # polar nodes dominate the trapezoid error, hence the lopsided default
    grid = tuple(cfg.samples.get("grid", [20, 64, 8]))
    if len(grid) != 3 or min(grid) < 2:
        raise ConfigError(f"samples.grid must be three dims >= 2, got {grid}")
    tol = cfg.tolerances.get("refinement", 1e-3)

    def potential():
        if kind == "zero":
            return ScalarField.constant(0.0)
        # f = |y|^2 / 4, the Gaussian shrinker potential at tau = 1
        gauss = model_background("gaussian_shrinker_flat", dim=3)
        return gauss.soliton.potential.at_time(1.0)

    fine = tuple(2 * g for g in grid)
    values = {}
    for label, g in (("base", grid), ("refined", fine)):
        wm = flat_ball_domain(potential=potential(), grid=g)
        vi, vg = I_infty(wm), I_GHY(wm)
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
    except Exception as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for p in paths:
        print(p)
    print(f"suite {cfg.suite}: {'pass' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
