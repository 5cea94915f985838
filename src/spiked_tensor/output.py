"""CSV/JSON table emission for the CLI.

CSV always carries a header row; non-finite floats are spelled exactly
``NaN`` / ``inf`` / ``-inf``.  JSON output is a single document with a
``schema_version`` field; non-finite floats become those same strings, so
the document stays standard JSON.  Floats are printed with a configurable
number of significant digits (1 to 17, default 9) and re-parse to the printed
precision.
"""

from __future__ import annotations

import io
import json
import math
import sys
from dataclasses import dataclass

SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class OutputSpec:
    format: str = "csv"
    path: str | None = None  # None writes to stdout
    precision: int = 9

    def __post_init__(self):
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        if self.precision > 17:  # 17 significant digits round-trip a double
            raise ValueError(f"precision must be <= 17, got {self.precision}")


def format_value(value, precision: int) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format(value, f".{precision}g")
    return str(value)


def _json_value(value, precision: int):
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return format_value(value, precision)
        return float(format(value, f".{precision}g"))
    return value


def render(columns: list[str], rows: list[dict], spec: OutputSpec, meta: dict | None = None) -> str:
    if spec.format == "csv":
        buf = io.StringIO()
        buf.write(",".join(columns) + "\n")
        for row in rows:
            buf.write(",".join(format_value(row.get(c), spec.precision) for c in columns) + "\n")
        return buf.getvalue()
    doc = {"schema_version": SCHEMA_VERSION}
    if meta:
        doc.update(meta)
    doc["columns"] = columns
    doc["rows"] = [
        {c: _json_value(row.get(c), spec.precision) for c in columns} for row in rows
    ]
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def write_table(
    columns: list[str], rows: list[dict], spec: OutputSpec, meta: dict | None = None
) -> None:
    text = render(columns, rows, spec, meta)
    if spec.path is None:
        sys.stdout.write(text)
    else:
        with open(spec.path, "w", encoding="utf-8") as fh:
            fh.write(text)
