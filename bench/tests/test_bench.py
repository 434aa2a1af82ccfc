"""Tests of the benchmark itself: tracer accounting, workload verdicts, seeding.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import json

import pytest

import run
import workloads
from tracer import Tracer, self_times


def test_self_time_subtracts_direct_children_only():
    # root [0, 100) > a [10, 40) > a1 [15, 25); root > b [50, 90)
    parents = [-1, 0, 1, 0]
    durations = [100, 30, 10, 40]
    assert self_times(parents, durations).tolist() == [30, 20, 10, 40]


def test_wrapped_call_tree_counts_and_errors():
    tracer = Tracer()

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x

    traced_leaf = tracer.wrap("toy.leaf", leaf)

    def middle(x):
        return traced_leaf(x) + traced_leaf(x)

    traced_middle = tracer.wrap("toy.middle", middle)
    traced_outer = tracer.wrap("other.outer", lambda x: traced_middle(x))

    assert traced_outer(2) == 4
    with pytest.raises(ValueError):
        traced_outer(-1)

    summary = tracer.summary()
    assert {k: v["calls"] for k, v in summary.items()} == {
        "toy.leaf": 3, "toy.middle": 2, "other.outer": 2}
    # leaf spans hang under middle, middle under outer
    names = [tracer.names[i] for i in tracer.span_name]
    for name, parent in zip(names, tracer.span_parent):
        expected = {"other.outer": None, "toy.middle": "other.outer", "toy.leaf": "toy.middle"}
        assert (names[parent] if parent >= 0 else None) == expected[name]
    total = sum(v["self_s"] for v in summary.values())
    roots = [e - s for e, s, p in zip(tracer.span_end, tracer.span_start, tracer.span_parent)
             if p < 0]
    assert total == pytest.approx(sum(roots) * 1e-9)
    # counted once, where it was raised
    assert tracer.errors == {"toy.errors.ValueError": 1}


def test_tracer_patches_every_binding_and_restores():
    import cansol
    from cansol import canonical, geometry, harnack

    originals = (geometry.christoffel, canonical.christoffel, cansol.christoffel,
                 harnack.inverse_metric, geometry.MetricField.at)
    with Tracer() as tracer:
        assert canonical.christoffel is tracer.wrapped[originals[0]]
        assert cansol.christoffel is canonical.christoffel
        assert harnack.inverse_metric is geometry.inverse_metric
        assert geometry.MetricField.at is not originals[-1]
    assert (geometry.christoffel, canonical.christoffel, cansol.christoffel,
            harnack.inverse_metric, geometry.MetricField.at) == originals


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_workload_verdicts(name):
    suite_list = workloads.suites(name, seed=3, tiny=True)
    _, _, results = run.run_pass(suite_list)
    assert run.check_pass(results, {}) == []
    assert all(r.report is not None and bool(r.report.passed) for r in results)
    reports = {r.suite.label: r.report for r in results}
    calls = workloads.point_calls(name, 3, suite_list, reports)
    durations, raised, wrong, _ = run.time_calls(calls, 0.0, min_calls=len(calls))
    assert calls and len(durations) == len(calls) and raised == wrong == 0


def test_tiny_traced_pass_counts_points():
    suite_list = workloads.suites("soliton_sweep", seed=3, tiny=True)
    with Tracer() as tracer:
        run.run_pass(suite_list)
    summary = tracer.summary()
    points = sum(workloads.suite_points(s) for s in suite_list)
    assert summary["canonical.ricci_soliton_residual"]["calls"] == points
    assert summary["cli.run"]["calls"] == len(suite_list)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_seed_gives_identical_configs(name):
    def dump(seed):
        return json.dumps([(s.label, s.config) for s in workloads.suites(name, seed)],
                          sort_keys=True).encode()

    assert dump(5) == dump(5)
    if name != "quadrature":     # the functionals suite takes no seed
        assert dump(5) != dump(6)

