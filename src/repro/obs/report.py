"""Self-contained HTML run reports, rendered by ``repro-obs report``.

Renders any combination of a run ledger (:mod:`repro.obs.ledger`), a
metrics dump (:func:`repro.obs.metrics.write_metrics_jsonl`), and
traffic results (:meth:`repro.traffic.driver.TrafficResult.to_dict`
JSON) into **one static HTML file**: no server, no scripts, no
external assets — every chart is inline SVG, so the artifact opens
anywhere a browser does and can be attached to a CI run::

    repro-obs report --ledger run.jsonl --metrics metrics.jsonl \\
                     --traffic traffic.json --out report.html

Charts follow one set of rules: a single accent hue for series marks,
a single-hue light-to-dark blue ramp for heatmap magnitude, text in
ink tokens (never the series color), and light/dark palettes that
swap via CSS custom properties.
"""

from __future__ import annotations

import html
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ObservabilityError
from repro.obs.ledger import Ledger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Series,
)

#: Sequential single-hue blue ramp, light (near zero) to dark (max).
_RAMP = (
    "#cde2fb", "#9ec5f4", "#6da7ec", "#3987e5",
    "#256abf", "#184f95", "#0d366b",
)

_STYLE = """
:root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --muted: #898781;
  --grid: #e1e0d9;
  --series-1: #2a78d6;
  --border: rgba(11, 11, 11, 0.10);
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --grid: #2c2c2a;
    --series-1: #3987e5;
    --border: rgba(255, 255, 255, 0.10);
  }
}
body {
  margin: 0; padding: 24px;
  background: var(--page); color: var(--text-primary);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 28px 0 8px; }
h3 { font-size: 13px; margin: 16px 0 6px; color: var(--text-secondary);
     font-weight: 600; }
.sub { color: var(--text-secondary); margin: 0 0 16px; }
section {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 20px; margin: 0 0 16px;
}
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 8px 0; }
.tile {
  border: 1px solid var(--border); border-radius: 6px;
  padding: 8px 14px; min-width: 96px;
}
.tile .v { font-size: 20px; font-weight: 600; }
.tile .k { color: var(--text-secondary); font-size: 12px; }
table { border-collapse: collapse; margin: 8px 0; }
th, td {
  text-align: left; padding: 3px 14px 3px 0;
  border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums;
}
th { color: var(--text-secondary); font-weight: 600; font-size: 12px; }
td.num, th.num { text-align: right; }
.bar { display: inline-block; height: 8px; border-radius: 2px;
       background: var(--series-1); vertical-align: middle; }
.note { color: var(--muted); font-size: 12px; }
svg text { fill: var(--text-secondary); font-size: 10px;
           font-family: system-ui, -apple-system, "Segoe UI", sans-serif; }
svg .axis { stroke: var(--grid); stroke-width: 1; }
svg .mark { fill: var(--series-1); }
svg .line { stroke: var(--series-1); stroke-width: 2; fill: none; }
"""


def _esc(text: object) -> str:
    return html.escape(str(text), quote=True)


def _fmt(value: float) -> str:
    """Compact number formatting for labels and tiles."""
    if isinstance(value, float) and not value.is_integer():
        return f"{value:,.2f}" if abs(value) < 100 else f"{value:,.0f}"
    return f"{int(value):,}"


def _ramp_color(value: float, vmax: float) -> str:
    if vmax <= 0 or value <= 0:
        return _RAMP[0]
    position = min(1.0, value / vmax)
    return _RAMP[min(len(_RAMP) - 1, int(position * len(_RAMP)))]


def _tile(label: str, value: str) -> str:
    return (
        f'<div class="tile"><div class="v">{_esc(value)}</div>'
        f'<div class="k">{_esc(label)}</div></div>'
    )


def _share_bar(fraction: float, width: int = 120) -> str:
    span = max(0, min(width, round(fraction * width)))
    return f'<span class="bar" style="width:{span}px"></span>'


def _svg_sparkline(
    values: Sequence[float], width: int = 260, height: int = 40
) -> str:
    """A thin single-series line with no axis chrome."""
    if not values:
        return '<span class="note">no samples</span>'
    vmax = max(values) or 1.0
    vmin = min(min(values), 0.0)
    spread = (vmax - vmin) or 1.0
    pad = 3
    step = (width - 2 * pad) / max(1, len(values) - 1)
    points = " ".join(
        f"{pad + i * step:.1f},"
        f"{height - pad - (v - vmin) / spread * (height - 2 * pad):.1f}"
        for i, v in enumerate(values)
    )
    title = (
        f"{len(values)} samples, min {_fmt(min(values))}, "
        f"max {_fmt(max(values))}, last {_fmt(values[-1])}"
    )
    if len(values) == 1:
        body = f'<circle class="mark" cx="{pad}" cy="{pad}" r="3"/>'
    else:
        body = f'<polyline class="line" points="{points}"/>'
    return (
        f'<svg width="{width}" height="{height}" role="img">'
        f"<title>{_esc(title)}</title>{body}</svg>"
    )


def _svg_bars(
    pairs: Sequence[Tuple[str, float]],
    width: int = 420,
    height: int = 96,
) -> str:
    """Thin vertical bars anchored to a shared baseline."""
    if not pairs:
        return '<span class="note">no data</span>'
    vmax = max(value for _, value in pairs) or 1.0
    pad_bottom = 14
    plot = height - pad_bottom
    gap = 2
    slot = max(4, (width - gap) // len(pairs))
    bar = max(2, slot - gap)
    parts = [f'<svg width="{width}" height="{height}" role="img">']
    parts.append(
        f'<line class="axis" x1="0" y1="{plot}" '
        f'x2="{len(pairs) * slot}" y2="{plot}"/>'
    )
    for i, (label, value) in enumerate(pairs):
        h = round(value / vmax * (plot - 4))
        x = i * slot + gap
        parts.append(
            f'<rect class="mark" x="{x}" y="{plot - h}" width="{bar}" '
            f'height="{h}" rx="1">'
            f"<title>{_esc(label)}: {_esc(_fmt(value))}</title></rect>"
        )
        if len(pairs) <= 16:
            parts.append(
                f'<text x="{x + bar / 2:.0f}" y="{height - 3}" '
                f'text-anchor="middle">{_esc(label)}</text>'
            )
    parts.append("</svg>")
    return "".join(parts)


def _svg_heatmap(
    rows: Sequence[Tuple[str, Sequence[float]]],
    cell: int = 9,
    label_width: int = 90,
) -> str:
    """Single-hue sequential heatmap: one row per labeled series."""
    if not rows:
        return '<span class="note">no data</span>'
    columns = max(len(values) for _, values in rows)
    vmax = max(
        (value for _, values in rows for value in values), default=0.0
    )
    width = label_width + columns * cell + 2
    height = len(rows) * cell + 2
    parts = [f'<svg width="{width}" height="{height}" role="img">']
    for r, (label, values) in enumerate(rows):
        parts.append(
            f'<text x="{label_width - 6}" y="{r * cell + cell - 1}" '
            f'text-anchor="end">{_esc(label)}</text>'
        )
        for c, value in enumerate(values):
            color = _ramp_color(value, vmax)
            parts.append(
                f'<rect x="{label_width + c * cell}" y="{r * cell}" '
                f'width="{cell - 1}" height="{cell - 1}" '
                f'fill="{color}">'
                f"<title>{_esc(label)} · window {c}: "
                f"{_esc(_fmt(value))}</title></rect>"
            )
    parts.append("</svg>")
    return "".join(parts)


# ---------------------------------------------------------------------------
# Sections


def _ledger_section(ledger: Ledger) -> str:
    counts = ledger.counts()
    parts = ["<section><h2>Run ledger</h2>"]
    parts.append('<div class="tiles">')
    for label, value in (
        ("events", len(ledger.events)),
        ("queued", counts.get("queued", 0)),
        ("cache hits", counts.get("cache_hit", 0)),
        ("completed", counts.get("completed", 0)),
        ("failed", counts.get("failed", 0)),
        ("elapsed", f"{ledger.elapsed_s():.3f}s"),
    ):
        parts.append(_tile(label, str(value)))
    parts.append("</div>")

    problems = ledger.verify()
    if problems:
        parts.append(
            '<p class="note">invariant problems: '
            + "; ".join(_esc(p) for p in problems[:5])
            + "</p>"
        )

    busy = ledger.worker_busy()
    if busy:
        utilization = ledger.worker_utilization()
        parts.append("<h3>Worker utilization</h3><table>")
        parts.append(
            "<tr><th>worker</th><th class=num>busy (s)</th>"
            "<th class=num>utilization</th><th></th></tr>"
        )
        for worker in sorted(busy):
            parts.append(
                f"<tr><td>{_esc(worker)}</td>"
                f"<td class=num>{busy[worker]:.3f}</td>"
                f"<td class=num>{utilization[worker]:.0%}</td>"
                f"<td>{_share_bar(utilization[worker])}</td></tr>"
            )
        parts.append("</table>")

    batches = ledger.batch_summaries()
    if batches:
        parts.append("<h3>Batches</h3><table>")
        parts.append(
            "<tr><th>batch</th><th class=num>points</th>"
            "<th class=num>cached</th><th class=num>simulated</th>"
            "<th class=num>elapsed (s)</th><th>critical path</th></tr>"
        )
        for batch in batches:
            critical = batch.critical_label or "—"
            if batch.critical_wall_s is not None:
                critical += f" ({batch.critical_wall_s:.3f}s)"
            parts.append(
                f"<tr><td>{batch.run}/{batch.batch}</td>"
                f"<td class=num>{batch.total}</td>"
                f"<td class=num>{batch.cache_hits}</td>"
                f"<td class=num>{batch.completed}</td>"
                f"<td class=num>{batch.elapsed_s:.3f}</td>"
                f"<td>{_esc(critical)}</td></tr>"
            )
        parts.append("</table>")
    parts.append("</section>")
    return "".join(parts)


def _label_text(metric) -> str:
    return (
        ", ".join(f"{k}={v}" for k, v in metric.labels) or "(no labels)"
    )


def _metrics_section(registry: MetricsRegistry) -> str:
    parts = ["<section><h2>Metrics</h2>"]
    scalars = [
        m for m in registry.all() if isinstance(m, (Counter, Gauge))
    ]
    if scalars:
        parts.append("<h3>Counters &amp; gauges</h3><table>")
        parts.append(
            "<tr><th>metric</th><th>labels</th><th class=num>value</th>"
            "</tr>"
        )
        for metric in scalars:
            parts.append(
                f"<tr><td>{_esc(metric.name)}</td>"
                f"<td>{_esc(_label_text(metric))}</td>"
                f"<td class=num>{_esc(_fmt(metric.value))}</td></tr>"
            )
        parts.append("</table>")

    histograms = [m for m in registry.all() if isinstance(m, Histogram)]
    if histograms:
        parts.append("<h3>Histograms</h3>")
        for metric in histograms[:12]:
            parts.append(
                f"<p>{_esc(metric.name)} "
                f'<span class="note">{_esc(_label_text(metric))} · '
                f"n={metric.count}, mean {_fmt(metric.mean)}, "
                f"p50 {_fmt(metric.p50)}, p90 {_fmt(metric.p90)}, "
                f"p99 {_fmt(metric.p99)}</span></p>"
            )
            pairs = [
                (_fmt(bound), float(count))
                for bound, count in zip(
                    metric.bounds, metric.bucket_counts
                )
            ]
            if metric.bucket_counts[-1]:
                pairs.append(("inf", float(metric.bucket_counts[-1])))
            parts.append(_svg_bars(pairs))
        if len(histograms) > 12:
            parts.append(
                f'<p class="note">… and {len(histograms) - 12} more '
                "histograms</p>"
            )

    series_by_name: Dict[str, List[Series]] = {}
    for metric in registry.all():
        if isinstance(metric, Series):
            series_by_name.setdefault(metric.name, []).append(metric)
    for name in sorted(series_by_name):
        family = series_by_name[name]
        parts.append(f"<h3>{_esc(name)}</h3>")
        lengths = {len(s.samples) for s in family}
        if len(family) > 1 and lengths != {1}:
            # A labeled family sampled on a shared clock: heatmap.
            rows = [
                (_label_text(series), series.values())
                for series in family[:48]
            ]
            parts.append(_svg_heatmap(rows))
            if len(family) > 48:
                parts.append(
                    f'<p class="note">… and {len(family) - 48} more '
                    "series</p>"
                )
        else:
            for series in family[:8]:
                parts.append(
                    f'<p class="note">{_esc(_label_text(series))}</p>'
                )
                parts.append(_svg_sparkline(series.values()))
    parts.append("</section>")
    return "".join(parts)


def _traffic_section(results: Sequence[object]) -> str:
    parts = ["<section><h2>Traffic</h2>"]
    for result in results:
        parts.append(f"<h3>{_esc(result.organization)}</h3>")
        parts.append('<div class="tiles">')
        for label, value in (
            ("requests", _fmt(result.requests)),
            ("clients", _fmt(result.clients)),
            ("cycles", _fmt(result.cycles)),
            ("p50 latency", _fmt(result.p50_latency)),
            ("p90 latency", _fmt(result.p90_latency)),
            ("p99 latency", _fmt(result.p99_latency)),
        ):
            parts.append(_tile(label, value))
        parts.append("</div>")

        if result.component_cycles:
            shares = result.component_shares()
            means = result.mean_component_cycles()
            parts.append(
                "<h3>Where request latency went</h3><table>"
                "<tr><th>component</th><th class=num>cycles</th>"
                "<th class=num>mean/req</th><th class=num>share</th>"
                "<th></th></tr>"
            )
            for name, spent in result.component_cycles.items():
                parts.append(
                    f"<tr><td>{_esc(name)}</td>"
                    f"<td class=num>{_fmt(spent)}</td>"
                    f"<td class=num>{_fmt(means[name])}</td>"
                    f"<td class=num>{shares[name]:.1%}</td>"
                    f"<td>{_share_bar(shares[name])}</td></tr>"
                )
            parts.append("</table>")

        parts.append(
            "<h3>Channels</h3><table>"
            "<tr><th>channel</th><th class=num>bytes</th>"
            "<th class=num>share</th><th class=num>utilization</th>"
            "</tr>"
        )
        utilization = result.channel_utilization
        for index, moved in enumerate(result.channel_bytes):
            util = (
                f"{utilization[index]:.0%}"
                if index < len(utilization) and result.channel_busy_cycles
                else "—"
            )
            parts.append(
                f"<tr><td>{index}</td><td class=num>{_fmt(moved)}</td>"
                f"<td class=num>{result.channel_shares[index]:.1%}</td>"
                f"<td class=num>{util}</td></tr>"
            )
        parts.append("</table>")

        if result.bank_bytes:
            parts.append("<h3>Bytes per bank</h3>")
            parts.append(
                _svg_bars(
                    [
                        (str(bank), float(moved))
                        for bank, moved in sorted(
                            result.bank_bytes.items()
                        )
                    ]
                )
            )
        if result.regulated:
            parts.append(
                f'<p class="note">regulated run: {result.deferrals} '
                "deferrals, worst client-bank rate "
                f"{result.max_client_bank_rate:.3f} B/cyc</p>"
            )
    parts.append("</section>")
    return "".join(parts)


def render_report(
    *,
    ledger: Optional[Ledger] = None,
    metrics: Optional[MetricsRegistry] = None,
    traffic: Sequence[object] = (),
    title: str = "repro run report",
) -> str:
    """Render the inputs into one self-contained HTML document.

    Args:
        ledger: Parsed run ledger (:class:`~repro.obs.ledger.Ledger`).
        metrics: Metrics registry (live, or loaded from a JSONL dump).
        traffic: :class:`~repro.traffic.driver.TrafficResult` objects.
        title: Document title.

    Returns:
        The HTML text.  Raises
        :class:`~repro.errors.ObservabilityError` when every input is
        empty — an empty report would only mask a wiring mistake.
    """
    sections: List[str] = []
    sources: List[str] = []
    if ledger is not None:
        sections.append(_ledger_section(ledger))
        sources.append(f"ledger ({len(ledger.events)} events)")
    if traffic:
        sections.append(_traffic_section(list(traffic)))
        sources.append(f"{len(list(traffic))} traffic result(s)")
    if metrics is not None and len(metrics):
        sections.append(_metrics_section(metrics))
        sources.append(f"{len(metrics)} metric(s)")
    if not sections:
        raise ObservabilityError(
            "nothing to report: provide a ledger, metrics, or traffic "
            "results"
        )
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        f"<title>{_esc(title)}</title>"
        f"<style>{_STYLE}</style></head><body>"
        f"<h1>{_esc(title)}</h1>"
        f'<p class="sub">{_esc(" · ".join(sources))}</p>'
        + "".join(sections)
        + "</body></html>\n"
    )
