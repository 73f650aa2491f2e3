"""Deterministic report emission: JSON and flat CSV.

Identical config and seed must produce byte-identical files, so reports
carry no timestamps, dict ordering is construction order, rationals are
serialized as "p/q" (qsqrt2.format_fraction) and floats with 17 significant digits.  JSON reports
are strict JSON: a value that is not a finite float (a NaN endpoint, say)
is written as null.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .qsqrt2 import format_fraction


def render_number(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return format_fraction(v)
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def jsonable(v):
    """Recursively convert report values to JSON-stable primitives;
    NaN and infinities become None."""
    if isinstance(v, Fraction):
        return format_fraction(v)
    if isinstance(v, float):
        return float(format(v, ".17g")) if math.isfinite(v) else None
    if isinstance(v, dict):
        return {k: jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [jsonable(x) for x in v]
    return v


def report_payload(config: dict, results, constants: dict) -> dict:
    return {"config": jsonable(config), "constants": jsonable(constants), "results": jsonable(results)}


def render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def render_csv(config: dict, rows: list[dict], header: list[str] | None = None) -> str:
    """Comment line with the config, then header, then one line per row.

    All rows must share one key set; an empty row list with an explicit
    header still yields a valid file with the header only.
    """
    lines = ["# config: " + json.dumps(jsonable(config), separators=(",", ":"))]
    if rows:
        header = list(rows[0].keys())
    if header is not None:
        lines.append(",".join(header))
    for row in rows:
        if list(row.keys()) != header:
            raise ValueError("CSV rows must share one key set")
        lines.append(",".join(render_number(v) for v in row.values()))
    return "\n".join(lines) + "\n"


def emit_report(
    config: dict,
    results,
    rows: list[dict],
    fmt: str,
    output: str | None,
    constants: dict,
    header: list[str] | None = None,
) -> str:
    """Render and optionally write one report; returns the rendered text.

    JSON carries the full structured results and the constants; CSV
    carries the flat rows.
    """
    if fmt == "json":
        text = render_json(report_payload(config, results, constants))
    elif fmt == "csv":
        text = render_csv(config, rows, header)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
