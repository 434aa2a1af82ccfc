"""Machine-readable run reports.

A report is records + summary + provenance.  Serialization is
deterministic: keys are sorted, floats go through repr, and nothing
time- or path-dependent is embedded, so identical configurations yield
byte-identical output.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["ResidualReport", "EmitError", "emit", "render_json"]


class EmitError(ValueError):
    """Unknown format or unwritable output path."""


@dataclass
class ResidualReport:
    """Suite-level result: per-point records plus a recomputable summary.

    ``records`` hold one dict per evaluated cell; points that raised are
    collected in ``errors`` without aborting the rest.  ``provenance``
    carries every convention needed to reproduce the numbers (normal
    orientation, sign conventions, t_min, minimal admissible N, FD steps,
    seeds).
    """

    suite: str
    config: dict
    records: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    passed: bool = False

    def finalize_summary(self):
        if not self.records:
            self.summary.setdefault("status", "no data")

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "config": self.config,
            "records": self.records,
            "summary": self.summary,
            "provenance": self.provenance,
            "errors": self.errors,
            "passed": self.passed,
        }


def _plain(obj):
    """Recursively convert numpy scalars (bools too) and arrays for stable JSON output."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, float) and obj != obj:
        return "nan"
    return obj


def render_json(report: ResidualReport) -> str:
    return json.dumps(_plain(report.as_dict()), sort_keys=True, indent=2) + "\n"


def _render_csv(report: ResidualReport) -> str:
    buf = io.StringIO()
    records = [_plain(r) for r in report.records]
    columns = sorted({k for r in records for k in r})
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for r in records:
        writer.writerow([json.dumps(r.get(c)) if isinstance(r.get(c), (list, dict)) else r.get(c, "")
                         for c in columns])
    return buf.getvalue()


def emit(report: ResidualReport, fmt: str, path) -> list[Path]:
    """Write the report; returns the written paths.

    json: one document with records, summary, and provenance.
    csv: one row per record plus a ``<path>.summary.json`` sidecar with
    the summary and provenance.
    """
    report.finalize_summary()
    path = Path(path)
    try:
        if fmt == "json":
            path.write_text(render_json(report))
            return [path]
        if fmt == "csv":
            path.write_text(_render_csv(report))
            sidecar = path.with_name(path.name + ".summary.json")
            sidecar.write_text(
                json.dumps(
                    _plain(
                        {
                            "suite": report.suite,
                            "config": report.config,
                            "summary": report.summary,
                            "provenance": report.provenance,
                            "errors": report.errors,
                            "passed": report.passed,
                        }
                    ),
                    sort_keys=True,
                    indent=2,
                )
                + "\n"
            )
            return [path, sidecar]
    except OSError as exc:
        raise EmitError(f"cannot write report to {path}: {exc}") from exc
    raise EmitError(f"unknown output format {fmt!r}; use json or csv")
