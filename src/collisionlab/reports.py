"""Deterministic report emission: JSON and flat CSV.

Identical config and seed must produce byte-identical files, so reports
carry no timestamps, dict ordering is construction order and rationals
are serialized as "p/q" (qsqrt2.format_fraction).  JSON writes floats by
repr, the shortest string that reads back as the same double; CSV rows
and summary lines write them with render_number's 17 significant digits.
JSON reports are strict JSON, written in one pass over the raw report
values: the same bytes as json.dumps(jsonable(doc), indent=2), so a
float that is not finite (a NaN endpoint, say) is written as null.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

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
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {k: jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [jsonable(x) for x in v]
    return v


def _float_text(v: float) -> str:
    return float.__repr__(v) if math.isfinite(v) else "null"


# The JSON text of a leaf, by exact type; subclasses go through
# _subclass_text, which tries these types in jsonable's order.
_LEAF_TEXT = {
    str: _quote,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
    int: int.__repr__,
    float: _float_text,
    Fraction: lambda v: _quote(format_fraction(v)),
}
_SUBCLASS_ORDER = (Fraction, float, str, int)


def _subclass_text(v) -> str:
    for cls in _SUBCLASS_ORDER:
        if isinstance(v, cls):
            return _LEAF_TEXT[cls](v)
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _key_text(k) -> str:
    """A dict key as json writes it: a string, or a float, bool, None or
    int turned into one; a non-finite float key is not strict JSON."""
    if isinstance(k, str):
        return _quote(k)
    if isinstance(k, float):
        if not math.isfinite(k):
            raise ValueError(f"Out of range float values are not JSON compliant: {k!r}")
        return _quote(float.__repr__(k))
    if k is True or k is False or k is None:
        return _quote(_LEAF_TEXT[type(k)](k))
    if isinstance(k, int):
        return _quote(int.__repr__(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _write(v, pad: str, out: list) -> None:
    """Append the JSON text of v to out; pad is a newline and the
    indentation of the line v starts on."""
    text = _LEAF_TEXT.get(type(v))
    if text is not None:
        out.append(text(v))
    elif isinstance(v, dict):
        if not v:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for k, x in v.items():
            out.append(f"{sep}{_key_text(k)}: ")
            _write(x, inner, out)
            sep = "," + inner
        out.append(pad + "}")
    elif isinstance(v, (list, tuple)):
        if not v:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for x in v:
            out.append(sep)
            _write(x, inner, out)
            sep = "," + inner
        out.append(pad + "]")
    else:
        out.append(_subclass_text(v))


def render_json(doc) -> str:
    """doc as strict JSON with 2-space indentation, in one pass: the bytes
    of json.dumps(jsonable(doc), indent=2, allow_nan=False) + newline.
    Anything json.dumps would reject raises TypeError (or ValueError for
    a non-finite float key)."""
    out: list[str] = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def render_csv(config: dict, rows: list[dict], header: list[str] | None = None) -> str:
    """Comment line with the config, then header, then one line per row.

    All rows must share one key set, which an explicit header must name in
    order; an empty row list with an explicit header still yields a valid
    file with the header only.
    """
    lines = ["# config: " + json.dumps(jsonable(config), separators=(",", ":"))]
    if rows:
        keys = list(rows[0].keys())
        if header is not None and list(header) != keys:
            raise ValueError(f"CSV header {list(header)} does not match the row keys {keys}")
        header = keys
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
        text = render_json({"config": config, "constants": constants, "results": results})
    elif fmt == "csv":
        text = render_csv(config, rows, header)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
