"""Report containers and deterministic serialization (JSON / CSV / SVG).

All serialization is reproducible bit-for-bit: keys are sorted, floats use
repr round-tripping, and non-finite values are encoded as the strings "inf",
"-inf", "nan" (plain JSON has no spelling for them).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def _encode(obj):
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, dict):
        return {str(k): _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    return obj


def dump_json(payload: dict, path=None) -> str:
    """Deterministic JSON text; writes to ``path`` when given."""
    text = json.dumps(_encode(payload), sort_keys=True, indent=2) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def write_csv(path, header, rows) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_encode(v) if isinstance(v, float) else v for v in row])


@dataclass(frozen=True)
class ExperimentReport:
    """One experiment's row-per-cell outcome.

    ``seeds`` holds the per-row keys (RNG seeds, mollification levels, or
    scale parameters — ``meta`` says which); ``ratios`` the matching values.
    """

    estimate_id: str
    s: float
    p: float
    q: float
    d: int
    n: int
    seeds: tuple[int, ...]
    ratios: tuple[float, ...]
    tables: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(int(x) for x in self.seeds))
        object.__setattr__(self, "ratios", tuple(float(r) for r in self.ratios))
        if len(self.seeds) != len(self.ratios):
            raise ValueError("seeds and ratios must pair up")

    @property
    def max(self) -> float:
        """The largest ratio; NaN if any ratio is NaN."""
        return float(np.max(self.ratios))

    def to_json_dict(self) -> dict:
        out = {
            "estimate_id": self.estimate_id,
            "s": self.s, "p": self.p, "q": self.q, "d": self.d, "n": self.n,
            "seeds": list(self.seeds),
            "ratios": list(self.ratios),
            "max": self.max,
        }
        if self.tables:
            out["tables"] = self.tables
        if self.meta:
            out["meta"] = self.meta
        return out


def write_svg_polyline(path, series: dict, title: str = "", log_y: bool = False) -> None:
    """Minimal 640 x 400 line chart: ``series`` maps label -> (xs, ys)."""
    width, height, pad = 640, 400, 48
    pts = [(x, y) for xs, ys in series.values() for x, y in zip(xs, ys)]
    if not pts:
        raise ValueError("nothing to plot")
    xs_all = [p[0] for p in pts]
    ys_all = [math.log10(p[1]) if log_y else p[1] for p in pts if not log_y or p[1] > 0]
    if not ys_all:
        ys_all = [0.0]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y):
        yy = math.log10(y) if log_y else y
        return height - pad - (yy - y0) / (y1 - y0) * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
    ]
    for i, (label, (xs, ys)) in enumerate(sorted(series.items())):
        col = colors[i % len(colors)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys)
                          if not log_y or y > 0)
        lines.append(f'<polyline points="{coords}" fill="none" stroke="{col}" stroke-width="1.5"/>')
        lines.append(f'<text x="{width - pad + 4}" y="{pad + 16 * i}" font-size="11" fill="{col}">{label}</text>')
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines) + "\n")
