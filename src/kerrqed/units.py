"""Strict parsing of dimensioned quantities in config files.

Frequencies, times, and temperatures must be strings of the form
"<number> <unit>" (e.g. "5 GHz", "400 ns", "50 mK"); bare numbers are
rejected so the intended scale is never ambiguous.  Values are returned in
SI base units (Hz, s, K).
"""

from __future__ import annotations

import re

FREQUENCY_UNITS = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9}
TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}
TEMPERATURE_UNITS = {"K": 1.0, "mK": 1e-3}

_UNIT_TABLES = {
    "frequency": FREQUENCY_UNITS,
    "time": TIME_UNITS,
    "temperature": TEMPERATURE_UNITS,
}

_QUANTITY_RE = re.compile(r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*(\S+)\s*$")


class UnitError(ValueError):
    """A quantity string failed strict parsing."""


def parse_quantity(text, kind: str) -> float:
    """Parse "<number> <unit>" for kind in {frequency, time, temperature}."""
    try:
        table = _UNIT_TABLES[kind]
    except KeyError:
        raise ValueError(f"unknown quantity kind {kind!r}") from None
    if not isinstance(text, str):
        raise UnitError(
            f"{kind} values must be strings with a unit suffix "
            f"(e.g. \"5 GHz\"), got {text!r}"
        )
    m = _QUANTITY_RE.match(text)
    if not m:
        raise UnitError(f"cannot parse {kind} quantity {text!r}")
    value, unit = m.groups()
    if unit not in table:
        raise UnitError(
            f"unknown {kind} unit {unit!r} in {text!r}; expected one of {sorted(table)}"
        )
    return float(value) * table[unit]
