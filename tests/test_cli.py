"""Driver behavior: suite execution, report emission, determinism, exit codes."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from cansol import cli, reports
from cansol import track as track_module
from cansol.backgrounds import RicciFlowBackground
from cansol.cli import ConfigError, RunConfig, _sweep_summary, main, run
from cansol.reports import EmitError, ResidualReport, _plain, emit, render_json


def cfg_ricci(**over):
    base = {
        "suite": "ricci_soliton_residual",
        "variant": "expanding",
        "background": {"name": "euclidean_static", "params": {"dim": 3, "direction": "forward"}},
        "N_list": [100.0, 1000.0, 10000.0],
        "samples": {"count": 6, "seed": 7},
    }
    base.update(over)
    return RunConfig.from_dict(base)


# wrong-typed or out-of-range config values, each with the start of its config error
WRONG_TYPED = [
    pytest.param({"samples": {"count": 4, "seed": 1, "t_range": 0.05}},
                 r"samples\.t_range must be two finite numbers, got 0\.05", id="t_range-scalar"),
    pytest.param({"samples": {"count": 4, "seed": 1, "t_range": [0.05]}},
                 r"samples\.t_range must be two finite numbers", id="t_range-short"),
    pytest.param({"samples": {"count": 4, "seed": -1}},
                 r"samples\.seed must be an integer >= 0, got -1", id="seed"),
    pytest.param({"N_list": ["a", "b"]},
                 r"N_list must be a non-empty list of finite numbers > 0, strictly ascending", id="N_list"),
    pytest.param({"N_list": [float("inf")]}, r"N_list must be a non-empty list", id="N_list-inf"),
    pytest.param({"N_list": [100, 100]}, r"N_list must be a non-empty list", id="N_list-repeated"),
    pytest.param({"samples": {"seed": 1, "times": ["a"]}},
                 r"samples\.times must be a non-empty list of finite numbers", id="times"),
    pytest.param({"tolerances": {"ratio": "x"}},
                 r"tolerances\.ratio must be a finite number > 0, got 'x'", id="ratio"),
    pytest.param({"tolerances": {"ratio": float("nan")}}, r"tolerances\.ratio must be", id="ratio-nan"),
    pytest.param({"tolerances": {"ratio": 0}}, r"tolerances\.ratio must be", id="ratio-zero"),
    pytest.param({"tolerances": {"rel_error": -1e-9}}, r"tolerances\.rel_error must be", id="rel_error"),
    pytest.param({"tolerances": {"refinement": float("nan")}}, r"tolerances\.refinement must be",
                 id="refinement"),
    pytest.param({"tolerances": {"ratio_band": [0.3, 0.5, 0.7]}},
                 r"tolerances\.ratio_band must be two finite numbers > 0, strictly ascending", id="ratio_band"),
    pytest.param({"tolerances": {"ratio_band": [0.7, 0.3]}}, r"tolerances\.ratio_band must be",
                 id="ratio_band-descending"),
    pytest.param({"tolerances": {"ratio_band": [0.0, 0.7]}}, r"tolerances\.ratio_band must be",
                 id="ratio_band-zero"),
    pytest.param({"samples": None}, r"samples must be an object, got None", id="samples-null"),
    pytest.param({"tolerances": None}, r"tolerances must be an object, got None", id="tolerances-null"),
    pytest.param({"output": None}, r"output must be an object, got None", id="output-null"),
    pytest.param({"background": "round_sphere"}, r"background must be an object, got 'round_sphere'",
                 id="background-string"),
    pytest.param({"background": {"name": "round_sphere", "params": [3]}},
                 r"background\.params must be an object, got \[3\]", id="background-params-list"),
    pytest.param({"mcf": {"name": "equator_in_sphere", "params": []}},
                 r"mcf\.params must be an object, got \[\]", id="mcf-params-list"),
]


class TestConfigValidation:
    def test_unknown_suite(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"suite": "nonsense"})

    def test_unsorted_N_list(self):
        with pytest.raises(ConfigError):
            cfg_ricci(N_list=[1000.0, 100.0])

    def test_nonpositive_N(self):
        with pytest.raises(ConfigError):
            cfg_ricci(N_list=[-5.0, 100.0])

    def test_unknown_field(self):
        # the table's top-level keys are the fields of RunConfig, which takes them as given
        assert set(cli._CONFIG) == {f.name for f in dataclasses.fields(RunConfig)}
        with pytest.raises(ConfigError, match=r"unknown config keys: \['sweeps'\]"):
            RunConfig.from_dict({"suite": "functionals", "sweeps": 3})
        with pytest.raises(ConfigError, match=r"config must be an object, got \['functionals'\]"):
            RunConfig.from_dict(["functionals"])
        with pytest.raises(ConfigError, match=r"config needs a suite"):
            RunConfig.from_dict({"samples": {}})

    @pytest.mark.parametrize("block, value", [
        ("tolerances", {"ratios": 1.0000001}),
        ("output", {"pth": "out.json"}),
        ("background", {"name": "round_sphere", "param": {"dim": 5}}),
        ("mcf", {"name": "equator_in_sphere", "param": {}}),
        ("samples", {"count": 4, "sed": 1}),
    ])
    def test_unknown_block_key(self, block, value):
        [typo] = set(value) - {"name", "count"}
        with pytest.raises(ConfigError, match=rf"unknown {block} keys: \['{typo}'\]"):
            cfg_ricci(**{block: value})

    def test_readme_configs_are_accepted(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
        assert blocks
        for block in blocks:
            RunConfig.from_dict(json.loads(block))

    def test_readme_block_keys_match_the_config_table(self):
        # the README's per-block key lists are the table's keys, so the prose cannot drift
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        bullets = readme.split("is a configuration error (exit 2):\n\n", 1)[1].split("\n\n", 1)[0]
        listed = {}
        for bullet in bullets.split("\n* "):
            blocks, keys = bullet.split(":", 1)
            for block in re.findall(r"`(\w+)`", blocks):
                listed[block] = re.findall(r"`(\w+)`", keys)
        table = {block: list(spec) for block, spec in cli._CONFIG.items() if isinstance(spec, dict)}
        assert listed == table

    def test_bad_background(self):
        cfg = cfg_ricci(background={"name": "torus"})
        with pytest.raises(ConfigError):
            run(cfg)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError, match=r"variant must be one of \['expanding', 'shrinking', 'steady'\]"):
            cfg_ricci(variant="stationary")
        with pytest.raises(ConfigError, match=r"needs variant expanding\|shrinking\|steady$"):
            run(dataclasses.replace(cfg_ricci(), variant=None))

    def test_direction_mismatch_is_config_error(self):
        cfg = cfg_ricci(variant="shrinking")
        with pytest.raises(ConfigError):
            run(cfg)

    def test_bad_t_range(self):
        cfg = cfg_ricci(samples={"count": 4, "seed": 1, "t_range": [0.5, 3.0]})
        with pytest.raises(ConfigError):
            run(cfg)

    @pytest.mark.parametrize("samples", [
        {"count": 4, "seed": 1, "times": [0.1, 0.2, 0.3]},
        {"count": 2, "seed": 1, "times": [0.1, 0.2, 0.3]},
        {"seed": 1, "times": []},
        {"seed": 1, "times": 0.1},
    ])
    def test_count_must_match_the_given_times(self, samples):
        # one time per sample point: a count that differs is not cut silently
        with pytest.raises(ConfigError, match=r"samples\.times"):
            run(cfg_ricci(samples=samples))

    def test_given_times_set_the_count(self):
        report = run(cfg_ricci(samples={"seed": 1, "times": [0.1, 0.2, 0.3]}))
        assert len(report.records) == 3 * 3
        assert [r["t"] for r in report.records[:3]] == [0.1, 0.2, 0.3]

    @pytest.mark.parametrize("count", [True, False, 0, 2.0])
    def test_count_must_be_an_integer(self, count):
        # a bool is an int to isinstance, but not a sample count
        with pytest.raises(ConfigError, match=r"samples\.count must be an integer"):
            cfg_ricci(samples={"count": count, "seed": 1})

    @pytest.mark.parametrize("over, message", WRONG_TYPED)
    def test_wrong_typed_values(self, over, message):
        with pytest.raises(ConfigError, match=message):
            cfg_ricci(**over)

    @pytest.mark.parametrize("times, message", [
        ([], r"samples\.times must be a non-empty list"),
        ([0.05, 0.1], r"samples\.times needs one entry"),
        (0.1, r"samples\.times must be a non-empty list"),
    ])
    def test_lott_match_needs_exactly_one_time(self, times, message):
        with pytest.raises(ConfigError, match=message):
            run(RunConfig.from_dict({
                "suite": "lott_match",
                "background": {"name": "euclidean_static", "params": {"dim": 3, "direction": "forward"}},
                "mcf": {"name": "shrinking_sphere_flat", "params": {"r0": 1.0}},
                "samples": {"count": 3, "seed": 1, "times": times},
            }))


class TestSuites:
    def test_every_per_point_failure_is_recorded(self):
        # the per-point classes are two; a degenerate slice and a time below
        # the sampling floor become error records, not an uncaught exception
        from cansol.backgrounds import model_background, model_mcf
        from cansol.canonical import build_canonical_metric
        from cansol.geometry import ChartDomainError, DegenerateMetricError

        assert cli._POINT_ERRORS == (ChartDomainError, DegenerateMetricError)
        bg = model_background("euclidean_static", dim=3)
        cm = build_canonical_metric(bg, "expanding", 1e3)
        xs = [np.array([1.1, 0.7]), np.array([1e-7, 0.3]), np.array([1.1, 0.7])]
        ts = [0.1, 0.1, 0.001]
        results = track_module.mcf_canonical_sweep(model_mcf("shrinking_sphere_flat", bg), [cm], xs, ts)
        report = ResidualReport(suite="mcf_soliton_residual", config={})
        [(_, sup)] = cli._defect_sweep(report, [1e3], results, "x", xs, ts)
        assert [e["error"] for e in report.errors] == [
            "degenerate induced metric", "t=0.001 below the sampling floor t_min=0.05"]
        assert [r["t"] for r in report.records] == [0.1] and sup == report.records[0]["scaled_norm"]

    def test_ricci_soliton_sweep_passes(self):
        report = run(cfg_ricci())
        assert report.passed
        assert report.summary["max_min_ratio"] < 1.5
        assert len(report.records) == 6 * 3
        assert report.provenance["normal_orientation"].startswith("outward")

    def test_mcf_soliton_sweep_passes(self):
        cfg = RunConfig.from_dict(
            {
                "suite": "mcf_soliton_residual",
                "variant": "expanding",
                "background": {"name": "euclidean_static",
                               "params": {"dim": 3, "direction": "forward"}},
                "mcf": {"name": "shrinking_sphere_flat", "params": {"r0": 1.0}},
                "N_list": [100.0, 1000.0, 10000.0],
                "samples": {"count": 5, "seed": 3},
            }
        )
        report = run(cfg)
        assert report.passed

    def test_mcf_exact_zero_fixture(self):
        cfg = RunConfig.from_dict(
            {
                "suite": "mcf_soliton_residual",
                "variant": "steady",
                "background": {"name": "euclidean_static",
                               "params": {"dim": 3, "direction": "backward"}},
                "mcf": {"name": "static_plane_flat"},
                "N_list": [100.0, 1000.0],
                "samples": {"count": 4, "seed": 5},
            }
        )
        report = run(cfg)
        assert report.passed
        assert report.summary["exact_zero"] is True

    def test_track_sweep_makes_one_batched_call_per_suite(self, monkeypatch):
        calls = {"mcf_canonical_sweep": 0, "slice_stack": 0, "track_point_data": 0,
                 "mcf_canonical_residual": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(cli, "mcf_canonical_sweep")
        for name in ("slice_stack", "track_point_data", "mcf_canonical_residual"):
            counted(track_module, name)
        cfg = RunConfig.from_dict({
            "suite": "mcf_soliton_residual",
            "variant": "expanding",
            "background": {"name": "euclidean_static", "params": {"dim": 3, "direction": "forward"}},
            "mcf": {"name": "shrinking_sphere_flat", "params": {"r0": 1.0}},
            "N_list": [100.0, 1000.0, 10000.0],
            "samples": {"count": 5, "seed": 3},
        })
        report = run(cfg)
        assert len(report.records) + len(report.errors) == 5 * 3
        # no silent fall-back to one evaluation per point, and the slices,
        # which do not depend on N, are evaluated once for all three N
        assert calls == {"mcf_canonical_sweep": 1, "slice_stack": 1, "track_point_data": 0,
                         "mcf_canonical_residual": 0}

    def test_soliton_sweep_calls_the_pointwise_residual_per_point(self, monkeypatch):
        # the benchmark's own tests count one such call per sweep point
        seen = []
        residual = cli.ricci_soliton_residual
        monkeypatch.setattr(cli, "ricci_soliton_residual",
                            lambda *args: seen.append(args) or residual(*args))
        run(cfg_ricci())
        assert len(seen) == 6 * 3

    def test_christoffel_crosscheck_sphere_steady(self):
        cfg = RunConfig.from_dict(
            {
                "suite": "christoffel_crosscheck",
                "variant": "steady",
                "background": {"name": "round_sphere",
                               "params": {"dim": 3, "r0": 1.0, "direction": "backward"}},
                "N_list": [100.0],
                "samples": {"count": 5, "seed": 2, "backend": "analytic"},
            }
        )
        report = run(cfg)
        assert report.passed
        assert report.summary["max_rel_error_derived"] < 1e-9
        # the literal reference table misses the 1/(N+R) factor; logged, and
        # visible in the per-symbol records
        printed = {r["symbol"]: r["rel_error_printed"] for r in report.records}
        assert printed["G^0_00"] > 1.0
        assert any(c["symbol"] == "G^0_00" for c in report.summary["reference_form_corrections"])

    def test_christoffel_crosscheck_fd_backend(self):
        cfg = RunConfig.from_dict(
            {
                "suite": "christoffel_crosscheck",
                "variant": "expanding",
                "background": {"name": "round_sphere",
                               "params": {"dim": 3, "r0": 1.0, "direction": "forward"}},
                "N_list": [100.0],
                "samples": {"count": 4, "seed": 2, "backend": "fd"},
            }
        )
        report = run(cfg)
        assert report.passed
        assert report.summary["tolerance"] == 1e-5

    def test_christoffel_crosscheck_compares_both_tables_in_one_call_per_suite(self, monkeypatch):
        seen = []
        crosscheck = cli.christoffel_crosscheck
        monkeypatch.setattr(cli, "christoffel_crosscheck",
                            lambda *args: seen.append(args) or crosscheck(*args))
        report = run(RunConfig.from_dict({
            "suite": "christoffel_crosscheck",
            "variant": "shrinking",
            "background": {"name": "round_sphere", "params": {"dim": 3, "direction": "backward"}},
            "N_list": [100.0, 1000.0],
            "samples": {"count": 3, "seed": 2},
        }))
        [(cms, _)] = seen
        assert [cm.N for cm in cms] == [100.0, 1000.0]
        assert [(r["N"], r["symbol"]) for r in report.records][::6] == [(100.0, "G^a_bc"), (1000.0, "G^a_bc")]
        assert len(report.records) == 2 * 6

    @pytest.mark.parametrize("backend", ["analytic", "fd"])
    def test_christoffel_crosscheck_evaluates_the_background_once(self, monkeypatch, backend):
        # the closed forms' background half does not depend on N
        calls = {"bundle": 0, "curvature": 0}
        for name in calls:
            method = getattr(RicciFlowBackground, name)

            def counted(self, *args, name=name, method=method, **kw):
                calls[name] += 1
                return method(self, *args, **kw)

            monkeypatch.setattr(RicciFlowBackground, name, counted)
        report = run(RunConfig.from_dict({
            "suite": "christoffel_crosscheck",
            "variant": "steady",
            "background": {"name": "round_sphere", "params": {"dim": 3, "direction": "backward"}},
            "N_list": [100.0, 1000.0],
            "samples": {"count": 3, "seed": 2, "backend": backend},
        }))
        assert report.passed
        assert calls == {"bundle": 1, "curvature": 1}

    def test_harnack_limits_suite(self):
        cfg = RunConfig.from_dict(
            {
                "suite": "harnack_limits",
                "background": {"name": "round_sphere",
                               "params": {"dim": 3, "r0": 1.0, "direction": "forward"}},
                "N_list": [1000.0, 2000.0, 4000.0],
                "samples": {"count": 5, "seed": 11},
            }
        )
        report = run(cfg)
        assert report.passed
        assert all(r["in_band"] for r in report.records)

    def test_harnack_limits_exact_track_limit_is_in_band(self):
        # the equator is totally geodesic, so its stripped-track limit holds
        # at every N up to round-off and the error ratios read 1.0
        raw = {
            "suite": "harnack_limits",
            "background": {"name": "round_sphere", "params": {"dim": 3, "direction": "forward"}},
            "mcf": {"name": "equator_in_sphere"},
            "N_list": [1000.0, 2000.0, 4000.0],
            "samples": {"count": 3, "seed": 11},
        }
        report = run(RunConfig.from_dict(raw))
        track = report.records[-1]
        assert track["kind"] == "stripped_track_limit"
        assert max(track["errors"]) < 1e-15
        assert track["ratios"] == [1.0, 1.0]
        assert track["in_band"]
        assert report.summary["all_ratios_in_band"] and report.passed
        # records with non-zero errors are judged by their ratios as before
        ricci_only = run(RunConfig.from_dict({k: v for k, v in raw.items() if k != "mcf"}))
        assert report.records[:-1] == ricci_only.records
        assert all(0.3 < r < 0.7 for rec in ricci_only.records for r in rec["ratios"])

    def test_lott_match_suite(self):
        cfg = RunConfig.from_dict(
            {
                "suite": "lott_match",
                "background": {"name": "euclidean_static",
                               "params": {"dim": 3, "direction": "forward"}},
                "mcf": {"name": "shrinking_sphere_flat", "params": {"r0": 1.0}},
                "samples": {"count": 20, "seed": 2026, "times": [0.1]},
            }
        )
        report = run(cfg)
        assert report.passed
        assert report.summary["max_defect"] < 1e-6
        assert report.provenance["potential_seed"] == 2026

    @pytest.mark.parametrize("count", [1, 7])
    def test_lott_match_reads_the_ambient_data_from_the_slice(self, monkeypatch, count):
        # every potential reuses the slice record's g, g^-1 and curvature row
        from cansol import geometry, harnack
        from cansol.backgrounds import RicciFlowBackground

        calls = {"inverse_metric": 0, "MetricField.at": 0, "bundle": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        inverse = counted("inverse_metric", geometry.inverse_metric)
        for module in (geometry, harnack):
            monkeypatch.setattr(module, "inverse_metric", inverse)
        monkeypatch.setattr(geometry.MetricField, "at", counted("MetricField.at", geometry.MetricField.at))
        monkeypatch.setattr(RicciFlowBackground, "bundle", counted("bundle", RicciFlowBackground.bundle))
        report = run(RunConfig.from_dict({
            "suite": "lott_match",
            "background": {"name": "euclidean_static", "params": {"dim": 3, "direction": "forward"}},
            "mcf": {"name": "shrinking_sphere_flat", "params": {"r0": 1.0}},
            "samples": {"count": count, "seed": 4, "times": [0.1]},
        }))
        assert report.passed and len(report.records) == count
        assert calls["inverse_metric"] == calls["MetricField.at"] == 0
        assert calls["bundle"] <= 1

    def test_functionals_suite_zero_potential(self):
        cfg = RunConfig.from_dict({"suite": "functionals", "samples": {"potential": "zero"}})
        report = run(cfg)
        assert report.passed
        assert report.summary["rel_error_vs_16pi"] < 1e-3
        assert report.summary["refinement_delta"] < 1e-3


class TestEmission:
    def test_json_roundtrip_and_determinism(self, tmp_path):
        report = run(cfg_ricci())
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        emit(report, "json", p1)
        emit(run(cfg_ricci()), "json", p2)
        assert p1.read_bytes() == p2.read_bytes()
        doc = json.loads(p1.read_text())
        assert doc["passed"] is True
        assert doc["suite"] == "ricci_soliton_residual"

    def test_csv_with_sidecar(self, tmp_path):
        report = run(cfg_ricci(samples={"count": 1, "seed": 0}, N_list=[100.0]))
        paths = emit(report, "csv", tmp_path / "r.csv")
        lines = paths[0].read_text().splitlines()
        assert len(lines) == 2  # header + one record
        sidecar = json.loads(paths[1].read_text())
        assert "summary" in sidecar and "provenance" in sidecar
        doc = {k: v for k, v in report.as_dict().items() if k != "records"}
        assert paths[1].read_text() == json.dumps(_plain(doc), sort_keys=True, indent=2) + "\n"

    def test_empty_records_json(self):
        report = ResidualReport(suite="functionals", config={})
        report.finalize_summary()
        doc = json.loads(render_json(report))
        assert doc["records"] == []
        assert doc["summary"]["status"] == "no data"

    def test_every_nan_renders_as_a_string(self):
        report = ResidualReport(suite="functionals", config={})
        report.records = [{"a": float("nan"), "b": np.float64("nan"), "c": np.array([np.nan, 1.0]),
                           "d": np.float32("nan")}]
        text = render_json(report)
        assert "NaN" not in text
        doc = json.loads(text, parse_constant=lambda name: pytest.fail(f"bare {name} in report"))
        assert doc["records"] == [{"a": "nan", "b": "nan", "c": ["nan", 1.0], "d": "nan"}]

    def test_unknown_format(self, tmp_path):
        report = ResidualReport(suite="functionals", config={})
        with pytest.raises(EmitError):
            emit(report, "yaml", tmp_path / "x.yaml")


class TestMainEntry:
    def write_cfg(self, tmp_path, doc):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        return p

    def test_no_command_prints_the_usage_and_exits_two(self, capsys):
        assert main([]) == 2
        out = capsys.readouterr().out
        assert out.startswith("usage: cansol") and "run" in out

    def test_list_flags(self, capsys):
        assert main(["--list-suites"]) == 0
        out = capsys.readouterr().out
        assert "ricci_soliton_residual" in out and "functionals" in out
        assert main(["--list-backgrounds"]) == 0
        out = capsys.readouterr().out
        assert "round_sphere" in out and "shrinking_sphere_flat" in out

    def test_run_pass_exit_zero(self, tmp_path, capsys):
        cfg = {
            "suite": "ricci_soliton_residual",
            "variant": "expanding",
            "background": {"name": "euclidean_static",
                           "params": {"dim": 3, "direction": "forward"}},
            "N_list": [100.0, 1000.0],
            "samples": {"count": 3, "seed": 1},
            "output": {"path": str(tmp_path / "out.json"), "format": "json"},
        }
        assert main(["run", "--config", str(self.write_cfg(tmp_path, cfg))]) == 0
        assert (tmp_path / "out.json").exists()

    def test_tolerance_failure_exit_one(self, tmp_path):
        cfg = {
            "suite": "ricci_soliton_residual",
            "variant": "expanding",
            "background": {"name": "euclidean_static",
                           "params": {"dim": 3, "direction": "forward"}},
            "N_list": [100.0, 1000.0],
            "samples": {"count": 3, "seed": 1},
            "tolerances": {"ratio": 1.0000001},
            "output": {"path": str(tmp_path / "out.json"), "format": "json"},
        }
        assert main(["run", "--config", str(self.write_cfg(tmp_path, cfg))]) == 1

    def test_tolerance_typo_is_a_config_error(self, tmp_path):
        cfg = {
            "suite": "ricci_soliton_residual",
            "variant": "expanding",
            "background": {"name": "round_sphere",
                           "params": {"dim": 3, "direction": "forward"}},
            "N_list": [1e2, 1e3, 1e4],
            "samples": {"count": 4, "seed": 1},
            "tolerances": {"ratio": 1.0000001},
            "output": {"path": str(tmp_path / "out.json"), "format": "json"},
        }
        assert main(["run", "--config", str(self.write_cfg(tmp_path, cfg))]) == 1
        # the misspelt key would fall back to the default ratio 1.5 and pass
        cfg["tolerances"] = {"ratios": 1.0000001}
        assert main(["run", "--config", str(self.write_cfg(tmp_path, cfg))]) == 2

    @pytest.mark.parametrize("suite", ["christoffel_crosscheck", "ricci_soliton_residual"])
    @pytest.mark.parametrize("times, bad, message", [
        ([1.5, 0.5], 0, "time 1.5 outside domain"),           # outside the chart as well
        ([0.5, 1.0005], 1, "time 1.0005 outside domain"),     # past T, inside the chart's overhang
        ([0.5, 0.7, -0.1], 2, "time -0.1 outside domain"),
    ])
    def test_given_time_outside_the_domain_is_a_config_error(self, tmp_path, capsys,
                                                             suite, times, bad, message):
        cfg = {
            "suite": suite,
            "variant": "steady",
            "background": {"name": "round_sphere", "params": {"dim": 3, "direction": "backward"}},
            "N_list": [100.0],
            "samples": {"seed": 5, "times": times},
            "output": {"path": str(tmp_path / "out.json"), "format": "json"},
        }
        assert main(["run", "--config", str(self.write_cfg(tmp_path, cfg))]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {suite} sample {bad}: {message}")
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("time, message", [
        (5.0, "lott_match sample 0: time 5.0 outside domain (0.0, 0.2]"),   # past the flow's horizon
        (float("nan"), "samples.times must be a non-empty list of finite numbers"),
    ])
    def test_lott_time_outside_the_flow_domain_is_a_config_error(self, tmp_path, capsys, time, message):
        # one slice serves every potential, so a bad time is the config's error, not a point's
        cfg = {
            "suite": "lott_match",
            "background": {"name": "euclidean_static",
                           "params": {"dim": 3, "direction": "forward"}},
            "mcf": {"name": "shrinking_sphere_flat", "params": {"r0": 1.0}},
            "samples": {"count": 3, "seed": 1, "times": [time]},
            "output": {"path": str(tmp_path / "out.json"), "format": "json"},
        }
        assert main(["run", "--config", str(self.write_cfg(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not (tmp_path / "out.json").exists()

    def test_track_sweep_below_the_admissible_N_is_a_config_error(self, tmp_path, capsys):
        # at N = 0.001 the shrinking track metric is indefinite at the sampled times;
        # the sweep checks N against the sampled times first, as the Ricci sweep does
        cfg = {
            "suite": "mcf_soliton_residual",
            "variant": "shrinking",
            "background": {"name": "euclidean_static", "params": {"dim": 5, "direction": "backward"}},
            "mcf": {"name": "shrinking_sphere_flat", "params": {"r0": 1.0}},
            "N_list": [0.001, 0.25],
            "samples": {"count": 12, "seed": 3},
            "output": {"path": str(tmp_path / "out.json"), "format": "json"},
        }
        assert main(["run", "--config", str(self.write_cfg(tmp_path, cfg))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: N=0.001 below the positivity threshold")
        assert "minimal admissible N is 0.440143" in err
        assert not (tmp_path / "out.json").exists()

    def test_harnack_point_error_is_recorded(self, tmp_path):
        cfg = {
            "suite": "harnack_limits",
            "background": {"name": "euclidean_static",
                           "params": {"dim": 3, "direction": "forward"}},
            "N_list": [1000.0, 2000.0, 4000.0],
            "samples": {"count": 1, "seed": 1, "times": [2.0]},
            "output": {"path": str(tmp_path / "out.json"), "format": "json"},
        }
        assert main(["run", "--config", str(self.write_cfg(tmp_path, cfg))]) == 1
        doc = json.loads((tmp_path / "out.json").read_text())
        assert doc["records"] == []
        assert [e["error"] for e in doc["errors"]] == ["time 2.0 outside domain (0.0, 1.0]"]

    def test_harnack_track_point_error_is_recorded(self, tmp_path, capsys):
        # the flow's midpoint time lies below the background's sampling
        # floor, so the track claim goes unchecked and the report fails
        cfg = {
            "suite": "harnack_limits",
            "background": {"name": "euclidean_static",
                           "params": {"dim": 6, "direction": "forward"}},
            "mcf": {"name": "shrinking_sphere_flat"},
            "N_list": [1e3, 2e3, 4e3],
            "samples": {"count": 2, "seed": 1},
        }
        report = run(RunConfig.from_dict(cfg))
        assert not report.passed
        [error] = report.errors
        assert error["kind"] == "stripped_track_limit"
        assert error["t"] == pytest.approx(0.042)
        assert len(error["x"]) == 5
        assert error["error"] == f"t={error['t']} below the sampling floor t_min=0.05"
        ricci_only = run(RunConfig.from_dict({k: v for k, v in cfg.items() if k != "mcf"}))
        assert ricci_only.passed and report.records == ricci_only.records

        out = tmp_path / "out.json"
        path = self.write_cfg(tmp_path, {**cfg, "output": {"path": str(out), "format": "json"}})
        assert main(["run", "--config", str(path)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        doc = json.loads(out.read_text())
        assert doc["passed"] is False and doc["errors"] == [error]

    def test_functionals_report_renders_and_exits_zero(self, tmp_path):
        report = run(RunConfig.from_dict({"suite": "functionals",
                                          "samples": {"potential": "gaussian"}}))
        assert json.loads(render_json(report))["passed"] is True
        cfg = {
            "suite": "functionals",
            "samples": {"potential": "zero"},
            "output": {"path": str(tmp_path / "f.json"), "format": "json"},
        }
        assert main(["run", "--config", str(self.write_cfg(tmp_path, cfg))]) == 0
        assert json.loads((tmp_path / "f.json").read_text())["passed"] is True

    @pytest.mark.parametrize("cfg", [
        {
            "suite": "mcf_soliton_residual",
            "variant": "expanding",
            "background": {"name": "euclidean_static",
                           "params": {"dim": 3, "direction": "forward"}},
            "mcf": {"name": "shrinking_sphere_flat"},
            "N_list": [100, 1000],
            "samples": {"count": 4, "seed": 1, "t_range": [0.01, 0.04]},
        },
        {
            "suite": "ricci_soliton_residual",
            "variant": "expanding",
            "background": {"name": "round_sphere",
                           "params": {"dim": 3, "direction": "forward"}},
            "N_list": [100, 1000],
            "samples": {"times": [0.001, 0.002, 0.003]},
        },
    ], ids=["mcf", "ricci"])
    def test_sweep_without_records_exits_one(self, tmp_path, cfg):
        # every sample lies below the canonical time floor, so no point is evaluated
        cfg = {**cfg, "output": {"path": str(tmp_path / "out.json"), "format": "json"}}
        assert main(["run", "--config", str(self.write_cfg(tmp_path, cfg))]) == 1
        doc = json.loads((tmp_path / "out.json").read_text())
        assert doc["records"] == [] and doc["errors"]
        assert doc["summary"] == {"status": "no data"} and doc["passed"] is False

    def test_sweep_with_an_empty_N_fails(self):
        summary, passed = _sweep_summary([(100.0, 0.5), (1000.0, None)], 1.5)
        assert not passed and summary["per_N"][1] == {"N": 1000.0, "sup_scaled_norm": None}
        assert _sweep_summary([(100.0, 0.5), (1000.0, 0.6)], 1.5)[1]

    @pytest.mark.parametrize("over", [pytest.param(p.values[0], id=p.id) for p in WRONG_TYPED] + [
        pytest.param({"background": {"name": "round_sphere", "params": {key: value}}}, id=f"params-{key}")
        for key, value in (("dim", "x"), ("r0", "a"), ("T", "z"))
    ])
    def test_wrong_typed_values_exit_two(self, tmp_path, capsys, over):
        cfg = {
            "suite": "ricci_soliton_residual",
            "variant": "expanding",
            "background": {"name": "round_sphere", "params": {"dim": 3, "direction": "forward"}},
            "N_list": [100.0, 1000.0],
            "samples": {"count": 3, "seed": 1},
            "output": {"path": str(tmp_path / "out.json")},
            **over,
        }
        assert main(["run", "--config", str(self.write_cfg(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "out.json").exists()

    def test_wrong_typed_flow_parameter_exit_two(self, tmp_path, capsys):
        cfg = {
            "suite": "mcf_soliton_residual",
            "variant": "expanding",
            "background": {"name": "euclidean_static", "params": {"dim": 3, "direction": "forward"}},
            "mcf": {"name": "shrinking_sphere_flat", "params": {"r0": "q"}},
            "N_list": [100.0],
            "output": {"path": str(tmp_path / "out.json")},
        }
        assert main(["run", "--config", str(self.write_cfg(tmp_path, cfg))]) == 2
        assert "shrinking_sphere_flat.r0 must be a finite number > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [["a", 8, 4], [4.5, 8, 4], [4, True, 4], [1, 8, 4], [4, 8], 6])
    def test_badly_typed_grid_exits_two(self, tmp_path, capsys, grid):
        cfg = {"suite": "functionals", "samples": {"grid": grid},
               "output": {"path": str(tmp_path / "out.json")}}
        with pytest.raises(ConfigError, match=r"samples\.grid must be three integers >= 2"):
            run(RunConfig.from_dict(cfg))
        assert main(["run", "--config", str(self.write_cfg(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err.startswith("config error: samples.grid")
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("name, params", [
        ("round_sphere", {"dim": 2.7, "direction": "backward"}),
        ("round_sphere", {"r0": "nan", "direction": "backward"}),
        ("euclidean_static", {"T": -1, "direction": "backward"}),
        ("euclidean_static", {"dim": 0, "direction": "backward"}),
        ("euclidean_static", {"dim": -2, "direction": "backward"}),
        ("gaussian_shrinker_flat", {"dim": 0}),
        ("gaussian_shrinker_flat", {"dim": -2}),
    ])
    def test_out_of_range_catalog_parameter_exits_two(self, tmp_path, capsys, name, params):
        cfg = {
            "suite": "ricci_soliton_residual",
            "variant": "shrinking",
            "background": {"name": name, "params": params},
            "N_list": [100.0],
            "output": {"path": str(tmp_path / "out.json")},
        }
        assert main(["run", "--config", str(self.write_cfg(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {name}.")
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("suite, background, message", [
        ("harnack_limits", ("euclidean_static", 3, "backward"), "harnack_limits needs a forward background"),
        ("lott_match", ("round_sphere", 3, "forward"), "lott_match runs on a flat forward background"),
        ("lott_match", ("euclidean_static", 3, "backward"), "lott_match runs on a flat forward background"),
        ("mcf_soliton_residual", ("euclidean_static", 1, "forward"),
         "background dimension too small for hypersurfaces"),
    ])
    def test_suite_on_an_unsuitable_background_exits_two(self, tmp_path, capsys, suite, background, message):
        name, dim, direction = background
        cfg = {
            "suite": suite,
            "variant": "expanding",
            "background": {"name": name, "params": {"dim": dim, "direction": direction}},
            "mcf": {"name": "shrinking_sphere_flat", "params": {"r0": 1.0}},
            "N_list": [1000.0, 2000.0, 4000.0],
            "output": {"path": str(tmp_path / "out.json")},
        }
        assert main(["run", "--config", str(self.write_cfg(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not (tmp_path / "out.json").exists()

    def test_config_error_exit_two(self, tmp_path):
        cfg = {"suite": "bogus"}
        assert main(["run", "--config", str(self.write_cfg(tmp_path, cfg))]) == 2
        lott = {
            "suite": "lott_match",
            "background": {"name": "euclidean_static", "params": {"dim": 3, "direction": "forward"}},
            "mcf": {"name": "shrinking_sphere_flat", "params": {"r0": 1.0}},
            "samples": {"count": True, "seed": 1},
            "output": {"path": str(tmp_path / "lott.json")},
        }
        assert main(["run", "--config", str(self.write_cfg(tmp_path, lott))]) == 2
        assert not (tmp_path / "lott.json").exists()
        assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2

    LOTT = {
        "suite": "lott_match",
        "background": {"name": "euclidean_static", "params": {"dim": 3, "direction": "forward"}},
        "mcf": {"name": "shrinking_sphere_flat", "params": {"r0": 1.0}},
        "samples": {"count": 2, "seed": 9, "times": [0.1]},
    }

    def test_unwritable_output_exits_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "out.json"
        assert main(["run", "--config", str(self.write_cfg(tmp_path, self.LOTT)), "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot write report to {out}: ")

    def test_a_rendering_bug_is_not_a_config_error(self, tmp_path, monkeypatch):
        def broken(report):
            raise TypeError("not serializable")

        monkeypatch.setattr(reports, "render_json", broken)
        out = tmp_path / "out.json"
        with pytest.raises(TypeError, match="^not serializable$"):
            main(["run", "--config", str(self.write_cfg(tmp_path, self.LOTT)), "--output", str(out)])
        assert not out.exists()

    def test_byte_identical_outputs(self, tmp_path):
        cfg = {
            "suite": "lott_match",
            "background": {"name": "euclidean_static",
                           "params": {"dim": 3, "direction": "forward"}},
            "mcf": {"name": "shrinking_sphere_flat", "params": {"r0": 1.0}},
            "samples": {"count": 5, "seed": 9, "times": [0.1]},
        }
        p = self.write_cfg(tmp_path, cfg)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["run", "--config", str(p), "--output", str(out1)]) == 0
        assert main(["run", "--config", str(p), "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
