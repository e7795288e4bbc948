"""Machine-readable experiment reports: JSON documents, CSV rows, SVG plots."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

__all__ = ["FitResult", "Series", "Verdict", "Report", "emit_report", "report_from_json"]

CSV_HEADER = ["experiment", "k", "value", "fit_coeff", "fit_exp", "verdict"]


@dataclass
class FitResult:
    coefficient: float
    exponent: float
    residual: float
    flag: str = ""  # "", "exact", "excluded=<n>"

    def predict(self, k: float) -> float:
        return self.coefficient * k ** (-self.exponent)


@dataclass
class Series:
    label: str
    ks: list[float]
    values: list[float]
    fit: FitResult | None = None


@dataclass
class Verdict:
    """One acceptance check; a non-finite value never passes."""

    criterion: str
    value: float
    threshold: float
    passed: bool
    comparison: str = "<="  # how value relates to threshold when passing

    def __post_init__(self):
        self.passed = bool(self.passed) and math.isfinite(self.value)


@dataclass
class Report:
    experiment: str
    series: list[Series] = field(default_factory=list)
    verdicts: list[Verdict] = field(default_factory=list)
    environment: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_json(self) -> str:
        payload = asdict(self)
        payload["passed"] = self.passed
        return json.dumps(payload, indent=2, sort_keys=True)


def report_from_json(text: str) -> Report:
    raw = json.loads(text)
    series = [
        Series(
            label=s["label"],
            ks=s["ks"],
            values=s["values"],
            fit=FitResult(**s["fit"]) if s.get("fit") else None,
        )
        for s in raw.get("series", [])
    ]
    verdicts = [Verdict(**v) for v in raw.get("verdicts", [])]
    return Report(
        experiment=raw["experiment"],
        series=series,
        verdicts=verdicts,
        environment=raw.get("environment", {}),
        notes=raw.get("notes", []),
    )


def _csv_text(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    overall = "pass" if report.passed else "fail"
    for s in report.series:
        fit_c = f"{s.fit.coefficient:.9g}" if s.fit else ""
        fit_e = f"{s.fit.exponent:.9g}" if s.fit else ""
        for k, v in zip(s.ks, s.values):
            writer.writerow([f"{report.experiment}/{s.label}", k, f"{v:.12g}", fit_c, fit_e, overall])
    return buf.getvalue()


def _svg_text(report: Report) -> str:
    """Log-log line plot, one polyline per series."""
    width, height, pad = 640, 440, 60
    pts_all = [
        (k, v)
        for s in report.series
        for k, v in zip(s.ks, s.values)
        if k > 0 and v > 0 and math.isfinite(v)
    ]
    if not pts_all:
        body = "<text x='20' y='40'>no positive data</text>"
        return f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' height='{height}'>{body}</svg>"
    lx = [math.log10(k) for k, _ in pts_all]
    ly = [math.log10(v) for _, v in pts_all]
    x0, x1 = min(lx), max(lx)
    y0, y1 = min(ly), max(ly)
    x1 = x1 if x1 > x0 else x0 + 1.0
    y1 = y1 if y1 > y0 else y0 + 1.0

    def toxy(k, v):
        x = pad + (math.log10(k) - x0) / (x1 - x0) * (width - 2 * pad)
        y = height - pad - (math.log10(v) - y0) / (y1 - y0) * (height - 2 * pad)
        return x, y

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' height='{height}'>",
        f"<rect width='{width}' height='{height}' fill='white'/>",
        f"<text x='{pad}' y='24' font-size='14'>{report.experiment} (log-log)</text>",
        f"<line x1='{pad}' y1='{height-pad}' x2='{width-pad}' y2='{height-pad}' stroke='black'/>",
        f"<line x1='{pad}' y1='{pad}' x2='{pad}' y2='{height-pad}' stroke='black'/>",
    ]
    for i, s in enumerate(report.series):
        pts = [toxy(k, v) for k, v in zip(s.ks, s.values) if k > 0 and v > 0 and math.isfinite(v)]
        if not pts:
            continue
        path = " ".join(f"{x:.1f},{y:.1f}" for x, y in pts)
        color = colors[i % len(colors)]
        parts.append(f"<polyline points='{path}' fill='none' stroke='{color}' stroke-width='1.5'/>")
        lx0, ly0 = pts[0]
        parts.append(f"<text x='{lx0+4:.1f}' y='{ly0-4:.1f}' font-size='11' fill='{color}'>{s.label}</text>")
    parts.append("</svg>")
    return "\n".join(parts)


# Report text by format name.
FORMATS = {
    "json": lambda report: report.to_json() + "\n",
    "csv": _csv_text,
    "svg": _svg_text,
}


def emit_report(report: Report, formats, out_dir) -> list[Path]:
    """Write the report in the requested formats; returns the file paths."""
    if isinstance(formats, str):
        formats = [formats]
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise RuntimeError(f"cannot create output directory {out}: {err}") from err
    paths = []
    stem = report.experiment.replace("/", "_")
    for fmt in formats:
        if fmt not in FORMATS:
            raise ValueError(f"unknown report format {fmt!r}")
        path = out / f"{stem}.{fmt}"
        text = FORMATS[fmt](report)
        try:
            path.write_text(text)
        except OSError as err:
            raise RuntimeError(f"cannot write report file {path}: {err}") from err
        paths.append(path)
    return paths
