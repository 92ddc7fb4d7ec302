"""Plain-text table formatting for experiment outputs.

Every experiment module returns rows of (label, {column: value}); this
module renders them the way the paper's figures/tables read: one row per
benchmark or configuration, a geometric/harmonic mean line where the paper
reports one.  A mean of nothing is NaN, never a number that looks measured.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

Row = Tuple[str, Mapping[str, float]]


def geomean(values: Iterable[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return math.nan
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def hmean(values: Iterable[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return math.nan
    return len(vals) / sum(1.0 / v for v in vals)


def amean(values: Iterable[float]) -> float:
    vals = list(values)
    return sum(vals) / len(vals) if vals else math.nan


def format_table(
    title: str,
    rows: Sequence[Row],
    columns: Optional[Sequence[str]] = None,
    mean: Optional[str] = "amean",
    label_header: str = "workload",
    precision: int = 3,
) -> str:
    """Render rows as an aligned text table with an optional mean row."""
    if not rows:
        return f"== {title} ==\n(no data)\n"
    if columns is None:
        columns = list(rows[0][1].keys())
    label_w = max(len(label_header), max(len(r[0]) for r in rows), 6)
    col_w = {c: max(len(c), precision + 6) for c in columns}
    out: List[str] = [f"== {title} =="]
    header = f"{label_header:<{label_w}}  " + "  ".join(
        f"{c:>{col_w[c]}}" for c in columns
    )
    out.append(header)
    out.append("-" * len(header))
    for label, values in rows:
        cells = []
        for c in columns:
            v = values.get(c)
            cells.append(
                f"{v:>{col_w[c]}.{precision}f}"
                if isinstance(v, (int, float))
                else f"{'-':>{col_w[c]}}"
            )
        out.append(f"{label:<{label_w}}  " + "  ".join(cells))
    if mean is not None:
        fn = {"amean": amean, "geomean": geomean, "hmean": hmean}[mean]
        cells = []
        for c in columns:
            vals = [
                r[1][c]
                for r in rows
                if isinstance(r[1].get(c), (int, float))
            ]
            cells.append(f"{fn(vals):>{col_w[c]}.{precision}f}")
        out.append("-" * len(header))
        out.append(f"{mean:<{label_w}}  " + "  ".join(cells))
    out.append("")
    return "\n".join(out)
