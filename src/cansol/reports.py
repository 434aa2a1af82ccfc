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
import math
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
        obj = obj.item()
    if isinstance(obj, float) and obj != obj:
        return "nan"
    return obj


_quoted = json.encoder.encode_basestring_ascii


def _render(obj, pad: str, memo: dict) -> str:
    """``obj`` as ``json.dumps(_plain(obj), sort_keys=True, indent=2)`` writes it at indent ``pad``.

    Containers are laid out here; strings and finite floats use the encoder's own functions.
    ``memo`` lives for one rendering.  It maps ``(id(c), pad)`` to the text of each container
    ``c`` written so far, so a container that the report holds in several places (a sweep's
    point list sits in every record of that point) is laid out once per indent.  The
    containers it names belong to the rendered object and outlive the rendering, so no id in
    it is reused.  The temporary list from an array's ``tolist()`` gets a memo of its own,
    which ends with that list.
    """
    if isinstance(obj, float) and math.isfinite(obj):
        return float.__repr__(obj)
    if isinstance(obj, str):
        return _quoted(obj)
    key = (id(obj), pad)
    text = memo.get(key)
    if text is not None:
        return text
    inner = pad + "  "
    if isinstance(obj, np.ndarray) and obj.ndim:
        text = _render(obj.tolist(), pad, {})
    elif isinstance(obj, dict):
        items = ",\n".join(f"{inner}{_quoted(k)}: {_render(obj[k], inner, memo)}" for k in sorted(obj))
        text = f"{{\n{items}\n{pad}}}" if obj else "{}"
    elif isinstance(obj, (list, tuple)):
        items = ",\n".join(inner + _render(v, inner, memo) for v in obj)
        text = f"[\n{items}\n{pad}]" if obj else "[]"
    else:
        return json.dumps(_plain(obj))
    memo[key] = text
    return text


def _dumps(d: dict) -> str:
    """``json.dumps(_plain(d), sort_keys=True, indent=2) + "\\n"``, byte for byte."""
    try:
        return _render(d, "", {}) + "\n"
    except TypeError:
        # a key that is not a string, or a value json cannot encode
        return json.dumps(_plain(d), sort_keys=True, indent=2) + "\n"


def render_json(report: ResidualReport) -> str:
    return _dumps(report.as_dict())


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
            sidecar.write_text(_dumps({k: v for k, v in report.as_dict().items() if k != "records"}))
            return [path, sidecar]
    except OSError as exc:
        raise EmitError(f"cannot write report to {path}: {exc}") from exc
    raise EmitError(f"unknown output format {fmt!r}; use json or csv")
