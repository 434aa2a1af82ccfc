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
from itertools import repeat
from operator import itemgetter
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
    """Recursively convert numpy scalars (bools too) and arrays (a 0-d one to its scalar) for stable JSON output."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and obj != obj:
        return "nan"
    return obj


_quoted = json.encoder.encode_basestring_ascii


def _layout(keys: tuple, pad: str) -> tuple:
    """A dict's value getter in sorted key order, ``%`` template of quoted keys and value indents."""
    order = sorted(keys)
    inner = pad + "  "
    slots = ",".join(f"\n{inner}{_quoted(k).replace('%', '%%')}: %s" for k in order)
    values = itemgetter(*order) if len(order) > 1 else lambda d: [d[k] for k in order]
    return values, f"{{{slots}\n{pad}}}" if keys else "{}", (inner,) * len(order)


class _Renderer:
    """One rendering: ``render(obj, pad)`` is ``obj`` as ``_dumps`` writes it at indent ``pad``.

    It dispatches on exact types, and its memos end with it: ``layouts`` holds a ``_layout``
    per dict shape (key order, indent); ``numbers`` the repr of each finite non-zero float or
    ``np.float64`` value (``0.0 == -0.0`` prints two ways); ``shared`` the text of each list or
    tuple by ``(id, pad)``, so a point list held in several places is laid out once per indent.
    Those lists outlive the rendering, so no id is reused; an array's ``tolist()`` gets a
    renderer of its own.  NaN, infinities and every other value go through ``_plain``.
    """

    def __init__(self):
        self.layouts, self.numbers, self.shared = {}, {}, {}

    def render(self, obj, pad: str) -> str:
        cls = type(obj)
        if (cls is float or cls is np.float64) and math.isfinite(obj):
            text = self.numbers.get(obj)
            if text is None:
                text = float.__repr__(obj)
                if obj:
                    self.numbers[obj] = text
            return text
        if cls is str:
            return _quoted(obj)
        if isinstance(obj, dict):
            keys = tuple(obj)
            layout = self.layouts.get((keys, pad))
            if layout is None:
                layout = self.layouts[keys, pad] = _layout(keys, pad)
            values, template, pads = layout
            return template % tuple(map(self.render, values(obj), pads))
        if isinstance(obj, (list, tuple)):
            key = (id(obj), pad)
            text = self.shared.get(key)
            if text is None:
                inner = pad + "  "
                items = f",\n{inner}".join(map(self.render, obj, repeat(inner)))
                text = self.shared[key] = f"[\n{inner}{items}\n{pad}]" if obj else "[]"
            return text
        if isinstance(obj, np.ndarray) and obj.ndim:
            return _Renderer().render(obj.tolist(), pad)
        return json.dumps(_plain(obj))


def _dumps(d: dict) -> str:
    """``json.dumps(_plain(d), sort_keys=True, indent=2) + "\\n"``, byte for byte."""
    try:
        return _Renderer().render(d, "") + "\n"
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
