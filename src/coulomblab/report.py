"""Uniform result container and diff-stable serialization.

The Onsager chain returns an :class:`EnergyReport`: a named additive
energy breakdown plus the boolean checks the experiment performed.
Serialization is canonical: dictionary keys sorted, floats printed with 17
significant digits, so identical runs produce byte identical artifacts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any


def format_float(x: float) -> str:
    """17 significant digit decimal form, round-trip safe."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


def dumps_canonical(obj: Any) -> str:
    """Serialize to JSON with sorted keys and 17-digit floats."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int,)):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        inner = ",".join(f"{dumps_canonical(str(k))}:{dumps_canonical(v)}"
                         for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps_canonical(v) for v in obj) + "]"
    if hasattr(obj, "item"):  # numpy scalars
        return dumps_canonical(obj.item())
    raise TypeError(f"cannot serialize {type(obj)!r}")


def rows_to_csv(rows: list[dict], header: dict) -> str:
    """CSV text for a list of uniform dict rows.

    The JSON header dict is emitted as a leading comment line so a single
    file carries both the table and the run parameters.
    """
    lines = ["# " + dumps_canonical(header)]
    if not rows:
        return lines[0] + "\n"
    cols = list(rows[0].keys())
    lines.append(",".join(cols))
    for row in rows:
        cells = []
        for c in cols:
            v = row[c]
            if isinstance(v, bool):
                cells.append("true" if v else "false")
            elif isinstance(v, float):
                cells.append(format_float(v))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@dataclass
class EnergyReport:
    """Named additive energy breakdown.

    ``terms`` are the additive pieces; quantities that are not additive
    contributions (bounds, residuals, exact references) go to ``extras``;
    ``checks`` records pass/fail of the inequalities the experiment asserted.
    """

    name: str
    terms: dict[str, float] = field(default_factory=dict)
    extras: dict[str, float] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values())
