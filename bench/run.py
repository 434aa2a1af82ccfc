"""cansol benchmark: whole-suite and pointwise timings, with correctness checks.

Usage, from the repository root:

    python3 bench/run.py --workload soliton_sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

A run generates the workload's suite configs from ``--seed`` and drives the
library only through public entry points: ``cansol.cli.run`` plus
``cansol.reports.render_json`` for suites, and one public pointwise function
per workload.  It is one process and one caller in a closed loop: each suite
starts when the previous one has finished.

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
alternates untraced and traced passes and reports per-layer self times,
call counts, per-point call counts, error counts by class and the tracing
overhead.  Every report is checked against its verdict and oracle values
and rendered twice; a wrong value makes the run exit 1.  Failures of the
library (a suite or a point that raised) are counted, not hidden.  The last
stdout line is one JSON object; details, including each report's sha256,
go to ``.bench_out/``.
"""

import os

# One caller, one thread: keep BLAS from adding threads of its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
from array import array  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import reference  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def import_library():
    """Put this checkout's ``src`` first on the path; refuse any other cansol."""
    pkg = ROOT / "src" / "cansol"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"bench: library source not found at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import cansol

    if Path(cansol.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"bench: imported cansol from {cansol.__file__}, not {pkg}")


import_library()

import workloads  # noqa: E402
from cansol import cli, reports  # noqa: E402

WORKLOAD_NAMES = tuple(workloads.WORKLOADS)


PASS_SHARE = 0.7        # of --seconds on suite passes; the rest times pointwise calls
LATENCY_BLOCK_S = 0.1   # pointwise calls between two reference probes
SETUP_PROBES = 5        # set-up measurements per run (after one warm-up)

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "points_per_s": "1/s",
    "point_us_p50": "us", "peak_rss_mb": "MB",
}
# per-layer metrics named in BENCHMARK.json; the details file has every traced function
TIMED_FUNCTIONS = (
    "geometry.inverse_metric", "geometry.metric_d1", "geometry.metric_d2",
    "geometry.christoffel", "geometry.christoffel_d1", "geometry.riemann", "geometry.ricci",
    "geometry.hessian", "geometry.tensor_norm", "geometry.MetricField.at",
    "backgrounds.hypersurface_point_data",
    "canonical.ricci_soliton_residual", "canonical.christoffel_crosscheck",
    "canonical.canonical_christoffel_closed_form", "canonical.build_canonical_metric",
    "track.track_point_data", "track.mcf_canonical_residual",
    "harnack.weighted_scalar_curvature", "harnack.I_infty", "harnack.I_GHY",
    "harnack.flat_ball_domain",
    "reports.render_json", "cli.run",
)
PER_POINT = ("geometry.inverse_metric", "geometry.MetricField.at", "geometry.metric_d1")
ERROR_COUNTERS = ("track.errors.CanonicalConfigError", "reports.errors.TypeError")


def per_layer_units() -> dict:
    units = {}
    for fn in TIMED_FUNCTIONS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_s"] = "s"
    for fn in PER_POINT:
        units[f"{fn}.per_point"] = "count"
    # interference spikes on a shared host dominate the tail, so it has no bound
    units["point_us_p99"] = "us"
    units["reports.render_json.bytes"] = "bytes"
    for name in ERROR_COUNTERS:
        units[name] = "count"
    units["failed_point_frac"] = "1"
    units["failed_suite_frac"] = "1"
    units["trace.overhead_frac"] = "1"
    return units


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Process start to first parsed config, from fresh interpreters.

    Returns raw and normalized seconds of each probe; the child times the
    reference kernel itself, so both run on the same CPU.
    """
    cmd = [sys.executable, str(ROOT / "bench" / "setup_probe.py"), workload, str(seed)]
    raw, norm = [], []
    for _ in range(SETUP_PROBES + 1):
        start = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed:\n{done.stderr}")
        ready, speed = (float(x) for x in done.stdout.split()[-2:])
        raw.append(ready - start)
        norm.append(reference.normalize(ready - start, speed, speed))
    return raw[1:], norm[1:]    # the first probe also compiles bytecode


@dataclass
class SuiteResult:
    suite: object
    report: object
    text: str | None
    error: str | None


def run_pass(suite_list) -> tuple[float, float, list[SuiteResult]]:
    """Parse, run and render every suite once, closed loop.

    A reference probe runs between suites (outside the timed spans).
    Returns the pass's raw and normalized seconds and its results.
    """
    results, raw, norm = [], 0.0, 0.0
    before = reference.probe()
    for suite in suite_list:
        report = text = error = None
        start = time.perf_counter()
        try:
            report = cli.run(cli.RunConfig.from_dict(suite.config))
            text = reports.render_json(report)
        except Exception as exc:     # a failing suite is counted, and the pass goes on
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        after = reference.probe()
        raw += seconds
        norm += reference.normalize(seconds, before, after)
        before = after
        results.append(SuiteResult(suite, report, text, error))
    return raw, norm, results


def check_pass(results, digests: dict) -> list[str]:
    """Verdicts, oracle values and byte-stable rendering; fills ``digests``."""
    problems = []
    for r in results:
        label = r.suite.label
        if r.report is not None:
            problems += [f"{label}: {p}" for p in workloads.check_report(r.suite, r.report)]
        if r.text is None:
            continue
        if reports.render_json(r.report) != r.text:
            problems.append(f"{label}: second render differs")
        digest = hashlib.sha256(r.text.encode()).hexdigest()
        if digests.setdefault(label, digest) != digest:
            problems.append(f"{label}: report differs between passes")
    return problems


def pass_counts(results) -> dict:
    """Points and suites attempted and failed in one pass (deterministic)."""
    points = point_errors = failed_points = failed_suites = 0
    for r in results:
        n = workloads.suite_points(r.suite)
        errs = len(r.report.errors) if r.report is not None else 0
        points += n
        point_errors += errs
        if r.error is not None:
            failed_suites += 1
            failed_points += n
        else:
            failed_points += errs
    return {
        "suites": len(results), "failed_suites": failed_suites,
        "points": points, "point_errors": point_errors, "failed_points": failed_points,
        "errors_by_class": sorted({r.error.split(":")[0] for r in results if r.error}),
    }


def time_calls(calls, seconds: float, start: int = 0, min_calls: int = 1):
    """Closed loop over the pointwise calls from index ``start``.

    Runs for ``seconds`` and at least ``min_calls`` calls.

    Returns per-call ns of the calls that returned, the number that raised,
    the number whose result failed its check, and the next index.
    """
    durations, raised, wrong = array("q"), 0, 0
    clock = time.perf_counter_ns
    deadline = time.perf_counter() + seconds
    i = start
    while i - start < min_calls or time.perf_counter() < deadline:
        call = calls[i % len(calls)]
        i += 1
        begin = clock()
        try:
            result = call.fn(*call.args)
        except Exception:
            raised += 1
            continue
        durations.append(clock() - begin)
        if not call.check(result):
            wrong += 1
    return durations, raised, wrong, i


def time_latency(calls, seconds: float):
    """Per-call latency in normalized ns, over at least one cycle of the calls.

    The loop runs in blocks of LATENCY_BLOCK_S between reference probes.
    """
    norm, raw, raised, wrong = array("d"), array("q"), 0, 0
    deadline = time.perf_counter() + seconds
    i = 0
    before = reference.probe()
    while i < len(calls) or time.perf_counter() < deadline:
        d, r, w, i = time_calls(calls, LATENCY_BLOCK_S, start=i)
        after = reference.probe()
        raw += d
        norm.extend(reference.normalize(x, before, after) for x in d)
        raised, wrong, before = raised + r, wrong + w, after
    return norm, raw, raised, wrong


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------


def machine_info() -> dict:
    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
            return int(out.stdout.strip())
        except (OSError, ValueError, subprocess.SubprocessError):
            return None

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "l2_bytes_per_core": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def inputs_info(name: str, seed: int, suite_list, l2_bytes) -> dict:
    w = workloads.WORKLOADS[name]
    suites = [{"label": s.label, "config": s.config, "points": workloads.suite_points(s),
               "working_set_bytes": workloads.working_set_bytes(s)} for s in suite_list]
    for row in suites:
        row["fits_l2"] = bool(l2_bytes) and row["working_set_bytes"] <= l2_bytes
    return {
        "workload": name, "seed": seed, "why": w.why, "pointwise": w.pointwise, "suites": suites,
        "points_per_pass": sum(row["points"] for row in suites),
        "working_set_bytes": sum(row["working_set_bytes"] for row in suites),
    }


def timed_passes(suite_list, seconds: float, tracer=None):
    """Passes until ``seconds`` have gone, at least one.

    With a tracer, every other pass runs traced, starting untraced.  Yields
    (traced, raw seconds, normalized seconds, results) per pass.
    """
    deadline = time.perf_counter() + seconds
    traced, done = False, {False: 0, True: 0}
    while time.perf_counter() < deadline or not done[False] or (tracer and not done[True]):
        if traced:
            tracer.reset()
            with tracer:
                raw, norm, results = run_pass(suite_list)
        else:
            raw, norm, results = run_pass(suite_list)
        yield traced, raw, norm, results
        done[traced] += 1
        traced = bool(tracer) and not traced


def measure(name, seed, seconds, suite_list, trace: bool):
    """Suite passes, then the pointwise loop, both untraced unless ``trace``.

    With ``trace``, every other pass runs traced, and one traced cycle of
    the pointwise calls gives the per-point call counts.  Returns the
    end-to-end metrics, the per-layer metrics (with ``trace``), the
    problems found, details and the per-pass failure counts.
    """
    tracer = Tracer() if trace else None
    digests, problems = {}, []
    walls, raw = {False: [], True: []}, []
    self_s, calls_per_pass, render_bytes = {}, {}, 0
    for traced, wall_raw, wall, results in timed_passes(suite_list, PASS_SHARE * seconds, tracer):
        walls[traced].append(wall)
        problems += check_pass(results, digests)
        if not traced:
            raw.append(wall_raw)
            render_bytes = sum(len(r.text.encode()) for r in results if r.text is not None)
            continue
        scale = wall / wall_raw     # self times in the same normalized seconds
        for fn, row in tracer.summary().items():
            self_s.setdefault(fn, []).append(row["self_s"] * scale)
            calls_per_pass[fn] = row["calls"]
        errors, spans = dict(tracer.errors), tracer.spans()
    counts = pass_counts(results)
    by_label = {r.suite.label: r.report for r in results}
    calls = workloads.point_calls(name, seed, suite_list, by_label)
    durations, durations_raw, raised, wrong = time_latency(calls, (1.0 - PASS_SHARE) * seconds)
    if wrong:
        problems.append(f"{wrong} pointwise results failed their check")

    wall = statistics.median(walls[False])
    e2e = {
        "wall_s": wall,
        "points_per_s": counts["points"] / wall,
        "point_us_p50": percentile(durations, 50) / 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    p99 = percentile(durations, 99) / 1e3
    detail = {"pass_s": walls[False], "pass_s_raw": raw, "point_us_p99": p99,
              "raw": {"wall_s": statistics.median(raw),
                      "point_us_p50": percentile(durations_raw, 50) / 1e3,
                      "point_us_p99": percentile(durations_raw, 99) / 1e3},
              "point_calls": len(durations), "point_calls_raised": raised,
              "counts": counts, "digests": digests, "reference_nominal_s": reference.NOMINAL_S}
    if not trace:
        return e2e, {}, problems, detail, counts

    tracer.reset()
    with tracer:
        traced_calls = [replace(c, fn=tracer.wrapped.get(c.fn, c.fn)) for c in calls]
        _, _, wrong, _ = time_calls(traced_calls, 0.0, min_calls=len(calls))
    if wrong:
        problems.append(f"{wrong} pointwise results failed their check")
    per_point = {fn: row["calls"] / len(calls) for fn, row in tracer.summary().items()}

    layer = {}
    for fn in TIMED_FUNCTIONS:
        layer[f"{fn}.calls"] = calls_per_pass.get(fn, 0)
        layer[f"{fn}.self_s"] = statistics.median(self_s[fn]) if fn in self_s else 0.0
    for fn in PER_POINT:
        layer[f"{fn}.per_point"] = per_point.get(fn, 0.0)
    layer["point_us_p99"] = p99
    layer["reports.render_json.bytes"] = render_bytes
    for key in ERROR_COUNTERS:
        layer[key] = errors.get(key, 0)
    layer["failed_point_frac"] = counts["point_errors"] / counts["points"]
    layer["failed_suite_frac"] = counts["failed_suites"] / counts["suites"]
    layer["trace.overhead_frac"] = statistics.median(walls[True]) / wall - 1.0

    detail.update({
        "pass_s_traced": walls[True], "errors": errors, "per_point_calls": per_point,
        "functions": {fn: {"calls": calls_per_pass.get(fn, 0), "self_s": statistics.median(v)}
                      for fn, v in self_s.items()}})
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}.spans.json").write_text(json.dumps(spans))
    return e2e, layer, problems, detail, counts


def print_self_time(functions: dict):
    by_layer = {}
    for fn, row in functions.items():
        by_layer[fn.split(".")[0]] = by_layer.get(fn.split(".")[0], 0.0) + row["self_s"]
    total = sum(by_layer.values()) or 1.0
    print("self time per pass, by layer:")
    for layer, s in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:12s} {s:10.4f} s  {100 * s / total:5.1f} %")
    print("top functions by self time per pass:")
    for fn, row in sorted(functions.items(), key=lambda kv: -kv[1]["self_s"])[:8]:
        print(f"  {fn:45s} {row['self_s']:10.4f} s  {row['calls']:8d} calls")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    suite_list = workloads.suites(name, seed)
    setup_raw, setup = measure_setup(name, seed)
    e2e, layer, problems, detail, counts = measure(name, seed, seconds, suite_list, trace)
    e2e["setup_s"] = statistics.median(setup)
    metrics, units = (layer, per_layer_units()) if trace else (e2e, END_TO_END_UNITS)

    machine = machine_info()
    inputs = inputs_info(name, seed, suite_list, machine["l2_bytes_per_core"])
    print(f"workload {name} seed {seed}: {workloads.WORKLOADS[name].why}")
    print(f"inputs: {len(suite_list)} suites, {inputs['points_per_pass']} points per pass, "
          f"working set {inputs['working_set_bytes']} bytes")
    for s in inputs["suites"]:
        print(f"  suite {s['label']:28s} points {s['points']:6d}  "
              f"working set {s['working_set_bytes']:9d} bytes"
              f"{'' if s['fits_l2'] else ' (exceeds L2)'}")
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    for label, digest in detail["digests"].items():
        print(f"digest {label} {digest}")
    print(f"failures per pass: {counts['failed_suites']}/{counts['suites']} suites "
          f"{counts['errors_by_class']}, {counts['point_errors']}/{counts['points']} points")
    print(f"passes {len(detail['pass_s'])}, pointwise samples {detail['point_calls']} "
          f"({workloads.WORKLOADS[name].pointwise}), setup probes {len(setup)}")
    raw = dict(detail["raw"], setup_s=statistics.median(setup_raw))
    print(f"raw (unnormalized) medians: {json.dumps(raw, sort_keys=True)}")
    if trace:
        print_self_time(detail["functions"])
    shown = dict(e2e, point_us_p99=detail["point_us_p99"])
    shown.update(layer)
    shown_units = dict(END_TO_END_UNITS, **per_layer_units())
    for key, value in shown.items():
        print(f"metric {key} = {value!r} {shown_units[key]}")
    problems = list(dict.fromkeys(problems))
    for p in problems:
        print(f"CHECK FAILED: {p}")

    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps({
        "machine": machine, "inputs": inputs, "setup_s": setup, "setup_s_raw": setup_raw,
        "metrics": shown, "problems": problems, "detail": detail}, indent=1, default=str))
    result = {
        "correct": not problems,
        "attempted": counts["points"],
        "failed": counts["failed_points"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process (peak memory is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not done.stdout.strip():
            status = 1
            combined["correct"] = False
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(f"{'metric':24s}" + "".join(f"{n:>16s}" for n in WORKLOAD_NAMES))
    keys = sorted({k.split(".", 1)[1] for k in combined["metrics"]})
    for key in keys:
        row = [combined["metrics"].get(f"{n}.{key}") for n in WORKLOAD_NAMES]
        unit = next((m["unit"] for m in row if m), "")
        print(f"{key + ' [' + unit + ']':24s}" + "".join(
            f"{m['value']:16.6g}" if m else f"{'-':>16s}" for m in row))
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
