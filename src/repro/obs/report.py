"""Self-contained HTML report over a run ledger.

``python -m repro report --ledger runs.jsonl -o report.html`` renders
the ledger as one static page — inline CSS/JS, no network, openable
from a file:// URL — with the paper's comparative shape:

* engine comparison tables (Table II/III style: modeled seconds, edge
  cut, imbalance, speedup per graph/k cell);
* per-phase stacked breakdowns of the latest run of every
  configuration (Table II's phase split, as bars);
* the ledger's trend over time: modeled seconds per configuration
  across successive records, so quality/speed trajectories are visible
  the way longitudinal partitioner engineering needs them to be;
* the Hardware page (records with an ``hw`` block): a roofline scatter
  of every kernel, per-phase GPU/PCIe/CPU utilization timelines, and a
  bound-ness/utilization summary per configuration — with a note when
  no record carries one.

Colors follow the entity: each phase name and each configuration keeps
one palette slot for the whole page, assigned in first-appearance
order and never re-cycled; past eight, series fold into a muted
"other" tone.  Light and dark render from the same validated palette
via ``prefers-color-scheme``.
"""

from __future__ import annotations

import html
import time

__all__ = ["html_report", "write_html_report"]

#: Validated categorical palette (light, dark) — fixed slot order.
_SERIES = [
    ("#2a78d6", "#3987e5"),  # blue
    ("#eb6834", "#d95926"),  # orange
    ("#1baf7a", "#199e70"),  # aqua
    ("#eda100", "#c98500"),  # yellow
    ("#e87ba4", "#d55181"),  # magenta
    ("#008300", "#008300"),  # green
    ("#4a3aa7", "#9085e9"),  # violet
    ("#e34948", "#e66767"),  # red
]
_OTHER = ("#898781", "#898781")  # muted fold-in for slot 9+


def _slot_css() -> str:
    light = "\n".join(
        f"  --series-{i + 1}: {pair[0]};" for i, pair in enumerate(_SERIES)
    )
    dark = "\n".join(
        f"    --series-{i + 1}: {pair[1]};" for i, pair in enumerate(_SERIES)
    )
    return light, dark


class _SlotMap:
    """Entity -> palette slot, fixed in first-appearance order."""

    def __init__(self) -> None:
        self._slots: dict[str, int] = {}

    def slot(self, name: str) -> int | None:
        """1-based slot, or None once the eight slots are taken."""
        if name not in self._slots:
            if len(self._slots) >= len(_SERIES):
                return None
            self._slots[name] = len(self._slots) + 1
        return self._slots[name]

    def var(self, name: str) -> str:
        slot = self.slot(name)
        return f"var(--series-{slot})" if slot else "var(--series-other)"

    def items(self) -> list[tuple[str, str]]:
        return [(name, f"var(--series-{i})") for name, i in self._slots.items()]


def _esc(value) -> str:
    return html.escape(str(value), quote=True)


def _fmt_ms(seconds) -> str:
    return f"{seconds * 1e3:,.3f}" if isinstance(seconds, (int, float)) else "—"


def _fmt_num(value) -> str:
    if value is None:
        return "—"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:,.4f}"
    return f"{int(value):,}"


def _config_series(record: dict) -> str:
    cfg = record.get("config", {})
    label = f"{cfg.get('engine', '?')} · {cfg.get('graph', '?')} · k={cfg.get('k', '?')}"
    if cfg.get("seed") is not None:
        label += f" · seed={cfg['seed']}"
    return label


# ----------------------------------------------------------------------
def _stat_tiles(records: list[dict]) -> str:
    engines = {r.get("config", {}).get("engine") for r in records}
    graphs = {r.get("config", {}).get("graph") for r in records}
    configs = {r.get("fingerprint") for r in records}
    tiles = [
        ("runs recorded", f"{len(records):,}"),
        ("configurations", f"{len(configs):,}"),
        ("engines", f"{len(engines):,}"),
        ("graphs", f"{len(graphs):,}"),
    ]
    cells = "".join(
        f'<div class="tile"><div class="tile-value">{_esc(v)}</div>'
        f'<div class="tile-label">{_esc(k)}</div></div>'
        for k, v in tiles
    )
    return f'<div class="tiles">{cells}</div>'


def _latest_by_fingerprint(records: list[dict]) -> list[dict]:
    latest: dict[str, dict] = {}
    for record in records:
        latest[record.get("fingerprint", id(record))] = record
    return list(latest.values())


def _comparison_tables(records: list[dict]) -> str:
    """One Table II/III-style block per (graph, k): engines side by side."""
    groups: dict[tuple, list[dict]] = {}
    for record in _latest_by_fingerprint(records):
        cfg = record.get("config", {})
        groups.setdefault((cfg.get("graph"), cfg.get("k")), []).append(record)
    blocks: list[str] = []
    for (graph, k), group in sorted(groups.items(), key=lambda kv: str(kv[0])):
        group.sort(key=lambda r: r["run"]["modeled_seconds"], reverse=True)
        slowest = group[0]["run"]["modeled_seconds"]
        rows = []
        for record in group:
            seconds = record["run"]["modeled_seconds"]
            quality = record.get("quality", {})
            speedup = (slowest / seconds) if seconds else float("inf")
            h2d = record.get("metrics", {}).get("counters", {}).get(
                "transfer.h2d_bytes"
            )
            rows.append(
                "<tr>"
                f"<td>{_esc(record['config'].get('engine'))}</td>"
                f"<td class='num'>{_esc(record['config'].get('seed', '—'))}</td>"
                f"<td class='num'>{_fmt_ms(seconds)}</td>"
                f"<td class='num'>{speedup:.2f}×</td>"
                f"<td class='num'>{_fmt_num(quality.get('cut'))}</td>"
                f"<td class='num'>{_fmt_num(quality.get('imbalance'))}</td>"
                f"<td class='num'>{_fmt_num(h2d)}</td>"
                "</tr>"
            )
        blocks.append(
            f"<h3>{_esc(graph)} · k={_esc(k)}</h3>"
            "<table><thead><tr><th>engine</th><th class='num'>seed</th>"
            "<th class='num'>modeled ms</th><th class='num'>speedup</th>"
            "<th class='num'>edge cut</th><th class='num'>imbalance</th>"
            "<th class='num'>H→D bytes</th></tr></thead>"
            f"<tbody>{''.join(rows)}</tbody></table>"
        )
    return "".join(blocks)


def _phase_bars(records: list[dict], phase_slots: _SlotMap) -> str:
    """Horizontal stacked phase breakdown, one bar per configuration,
    widths on one shared ms scale so bars compare across engines."""
    latest = _latest_by_fingerprint(records)
    if not latest:
        return ""
    max_total = max(r["run"]["modeled_seconds"] for r in latest) or 1.0
    bars: list[str] = []
    for record in latest:
        total = record["run"]["modeled_seconds"]
        segments = []
        for name, entry in record.get("phases", {}).items():
            seconds = entry.get("seconds", 0.0)
            if seconds <= 0:
                continue
            width = 100.0 * seconds / max_total
            tip = (
                f"{name}: {seconds * 1e3:,.3f} ms "
                f"({entry.get('share', 0.0):.1%} of this run)"
            )
            segments.append(
                f'<div class="seg" data-tip="{_esc(tip)}" '
                f'style="width:{width:.3f}%;background:{phase_slots.var(name)}">'
                "</div>"
            )
        bars.append(
            '<div class="bar-row">'
            f'<div class="bar-label">{_esc(_config_series(record))}</div>'
            f'<div class="bar">{"".join(segments)}</div>'
            f'<div class="bar-total">{_fmt_ms(total)} ms</div>'
            "</div>"
        )
    legend = "".join(
        f'<span class="key"><span class="swatch" style="background:{var}"></span>'
        f"{_esc(name)}</span>"
        for name, var in phase_slots.items()
    )
    return (
        f'<div class="legend">{legend}</div><div class="bars">{"".join(bars)}</div>'
    )


def _trend_svg(records: list[dict], series_slots: _SlotMap) -> str:
    """Modeled-seconds trend per configuration across ledger order."""
    series: dict[str, list[float]] = {}
    for record in records:
        series.setdefault(_config_series(record), []).append(
            record["run"]["modeled_seconds"]
        )
    multi = {k: v for k, v in series.items() if len(v) >= 2}
    if not multi:
        return (
            "<p class='muted'>Not enough repeated runs for a trend yet — "
            "profile the same configuration again to start one.</p>"
        )
    width, height, pad = 720, 180, 10
    vmax = max(max(v) for v in multi.values())
    vmin = min(min(v) for v in multi.values())
    span = (vmax - vmin) or vmax or 1.0
    nmax = max(len(v) for v in multi.values())
    parts: list[str] = []
    for name, values in multi.items():
        color = series_slots.var(name)
        points = []
        for i, v in enumerate(values):
            x = pad + (width - 2 * pad) * (i / max(1, nmax - 1))
            y = height - pad - (height - 2 * pad) * ((v - vmin) / span)
            points.append((x, y, v, i))
        polyline = " ".join(f"{x:.1f},{y:.1f}" for x, y, _, _ in points)
        parts.append(
            f'<polyline points="{polyline}" fill="none" stroke="{color}" '
            'stroke-width="2" stroke-linejoin="round"/>'
        )
        for x, y, v, i in points:
            tip = f"{name} — run {i + 1}: {v * 1e3:,.3f} ms"
            parts.append(
                f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="{color}" '
                f'stroke="var(--surface-1)" stroke-width="2" '
                f'data-tip="{_esc(tip)}"/>'
            )
        lx, ly, lv, _ = points[-1]
        parts.append(
            f'<text x="{min(lx + 8, width - 4):.1f}" y="{ly:.1f}" '
            f'class="svg-label" text-anchor="start">{lv * 1e3:,.2f} ms</text>'
        )
    legend = "".join(
        f'<span class="key"><span class="swatch" style="background:{var}"></span>'
        f"{_esc(name)}</span>"
        for name, var in series_slots.items()
        if name in multi
    )
    return (
        f'<div class="legend">{legend}</div>'
        f'<svg viewBox="0 0 {width} {height}" role="img" '
        'aria-label="Modeled seconds per configuration across ledger records">'
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="var(--baseline)" stroke-width="1"/>'
        f"{''.join(parts)}</svg>"
        "<p class='muted'>x: successive ledger records of the configuration; "
        "y: total modeled milliseconds (shared scale).</p>"
    )


def _trend_table(records: list[dict]) -> str:
    """The trend's table view (accessibility fallback for the SVG)."""
    rows = []
    for i, record in enumerate(records):
        quality = record.get("quality", {})
        rows.append(
            "<tr>"
            f"<td class='num'>{i}</td>"
            f"<td>{_esc(_config_series(record))}</td>"
            f"<td class='mono'>{_esc(record.get('run_id', '')[:21])}</td>"
            f"<td class='num'>{_fmt_ms(record['run']['modeled_seconds'])}</td>"
            f"<td class='num'>{_fmt_num(quality.get('cut'))}</td>"
            f"<td class='num'>{_fmt_num(quality.get('imbalance'))}</td>"
            "</tr>"
        )
    return (
        "<details><summary>Ledger as a table (all records)</summary>"
        "<table><thead><tr><th class='num'>#</th><th>configuration</th>"
        "<th>run id</th><th class='num'>modeled ms</th><th class='num'>cut</th>"
        "<th class='num'>imbalance</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table></details>"
    )


# ----------------------------------------------------------------------
#: Fixed palette slots for the hardware page's resource slices.
_HW_RESOURCE_VARS = {
    "gpu": "var(--series-1)",
    "pcie": "var(--series-2)",
    "cpu": "var(--series-3)",
}
_HW_BOUND_VARS = {
    "dram-bandwidth": "var(--series-1)",
    "compute": "var(--series-3)",
    "latency": "var(--series-4)",
    "atomic": "var(--series-8)",
}


def _hw_records(records: list[dict]) -> list[dict]:
    return [r for r in _latest_by_fingerprint(records) if r.get("hw")]


def _hw_roofline_svg(hw_recs: list[dict], series_slots: _SlotMap) -> str:
    """Log-log roofline scatter: every kernel of every configuration."""
    import math

    pts: list[tuple[float, float, str, str]] = []
    peak_bw = peak_flops = None
    for record in hw_recs:
        gpu = record["hw"].get("gpu")
        if not gpu or not gpu.get("kernels"):
            continue
        peak_bw, peak_flops = gpu["peak_bandwidth"], gpu["peak_flops"]
        color = series_slots.var(_config_series(record))
        for r in gpu["kernels"]:
            if r["intensity"] is None or r["achieved_flops"] <= 0:
                continue
            tip = (
                f"{r['name']} — {_config_series(record)}: "
                f"{r['intensity']:.3f} ops/B, "
                f"{r['achieved_flops'] / 1e9:,.2f} GF/s, "
                f"dram {r['dram_utilization']:.1%}, bound: {r['bound']}"
            )
            pts.append((r["intensity"], r["achieved_flops"], tip, color))
    if not pts or not peak_bw:
        return (
            "<p class='muted'>No per-kernel roofline data — only CPU "
            "engines (or aggregate-only service drains) in this ledger.</p>"
        )
    width, height, pad = 720, 260, 28
    ridge = peak_flops / peak_bw
    xs = [p[0] for p in pts] + [ridge]
    ys = [p[1] for p in pts] + [peak_flops]
    lx_lo, lx_hi = math.log10(min(xs) / 4), math.log10(max(xs) * 4)
    ly_lo, ly_hi = math.log10(min(ys) / 16), math.log10(peak_flops * 2)

    def px(x):
        return pad + (width - 2 * pad) * (math.log10(x) - lx_lo) / (lx_hi - lx_lo)

    def py(y):
        return (height - pad) - (height - 2 * pad) * (
            (math.log10(y) - ly_lo) / (ly_hi - ly_lo)
        )

    roof = []
    for i in range(65):
        x = 10 ** (lx_lo + (lx_hi - lx_lo) * i / 64)
        y = min(peak_flops, x * peak_bw)
        if 10 ** ly_lo <= y:
            roof.append(f"{px(x):.1f},{py(y):.1f}")
    parts = [
        f'<polyline points="{" ".join(roof)}" fill="none" '
        'stroke="var(--baseline)" stroke-width="2"/>'
    ]
    for x, y, tip, color in pts:
        parts.append(
            f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="4" fill="{color}" '
            f'stroke="var(--surface-1)" stroke-width="1.5" '
            f'data-tip="{_esc(tip)}"/>'
        )
    parts.append(
        f'<text x="{px(ridge):.1f}" y="{py(peak_flops) - 8:.1f}" '
        f'class="svg-label" text-anchor="middle">'
        f"peak {peak_flops / 1e9:,.0f} GF/s · ridge {ridge:.2f} ops/B</text>"
    )
    legend = "".join(
        f'<span class="key"><span class="swatch" style="background:'
        f'{series_slots.var(_config_series(r))}"></span>'
        f"{_esc(_config_series(r))}</span>"
        for r in hw_recs
        if r["hw"].get("gpu", {}).get("kernels")
    )
    return (
        f'<div class="legend">{legend}</div>'
        f'<svg viewBox="0 0 {width} {height}" role="img" '
        'aria-label="Roofline: arithmetic intensity vs achieved ops/s">'
        f"{''.join(parts)}</svg>"
        "<p class='muted'>x: arithmetic intensity (device ops per DRAM "
        "byte moved, log); y: achieved ops/s (log). The line is the "
        "machine's roofline; hover points for kernel and bound-ness.</p>"
    )


def _hw_utilization_bars(hw_recs: list[dict]) -> str:
    """Per-configuration timeline bar: each phase's seconds split into
    GPU / PCIe / CPU slices, in phase order, on one shared scale."""
    rows = [r for r in hw_recs if r["hw"].get("phases")]
    if not rows:
        return ""
    max_total = max(
        sum(p["seconds"] for p in r["hw"]["phases"]) for r in rows
    ) or 1.0
    bars = []
    for record in rows:
        segments = []
        total = 0.0
        for phase in record["hw"]["phases"]:
            total += phase["seconds"]
            for res in ("gpu", "pcie", "cpu"):
                seconds = phase[f"{res}_seconds"]
                if seconds <= 0:
                    continue
                width = 100.0 * seconds / max_total
                util = phase.get(
                    "gpu_dram_utilization" if res == "gpu"
                    else "pcie_utilization" if res == "pcie" else "", 0.0
                )
                tip = f"{phase['phase']} · {res}: {seconds * 1e3:,.3f} ms"
                if res in ("gpu", "pcie"):
                    tip += f" (util {util:.1%})"
                segments.append(
                    f'<div class="seg" data-tip="{_esc(tip)}" '
                    f'style="width:{width:.3f}%;'
                    f'background:{_HW_RESOURCE_VARS[res]}"></div>'
                )
        bars.append(
            '<div class="bar-row">'
            f'<div class="bar-label">{_esc(_config_series(record))}</div>'
            f'<div class="bar">{"".join(segments)}</div>'
            f'<div class="bar-total">{_fmt_ms(total)} ms</div>'
            "</div>"
        )
    legend = "".join(
        f'<span class="key"><span class="swatch" style="background:{var}">'
        f"</span>{_esc(name)}</span>"
        for name, var in _HW_RESOURCE_VARS.items()
    )
    return (
        f'<div class="legend">{legend}</div><div class="bars">{"".join(bars)}'
        "</div><p class='muted'>Each bar runs left-to-right in phase "
        "order; slice widths are modeled seconds on one shared scale.</p>"
    )


def _hw_boundness_table(hw_recs: list[dict]) -> str:
    """Bound-ness + utilization summary, one row per configuration."""
    rows = []
    for record in hw_recs:
        hw = record["hw"]
        gpu = hw.get("gpu")
        if gpu and gpu["kernel_seconds"] > 0:
            bound = gpu["bound_seconds"]
            dominant = max(bound, key=bound.get)
            badge = (
                f'<span class="key"><span class="swatch" style="background:'
                f'{_HW_BOUND_VARS[dominant]}"></span>{_esc(dominant)}</span>'
            )
            dram = f"{gpu['dram_utilization']:.1%}"
        else:
            badge, dram = "<span class='muted'>no GPU work</span>", "—"
        pcie, cpu = hw["pcie"], hw["cpu"]
        avoid = hw.get("transfer_avoidance")
        avoid_cell = f"{avoid:.2%}" if avoid is not None else "—"
        rows.append(
            "<tr>"
            f"<td>{_esc(_config_series(record))}</td>"
            f"<td>{badge}</td>"
            f"<td class='num'>{dram}</td>"
            f"<td class='num'>{cpu['utilization']:.1%}</td>"
            f"<td class='num'>{pcie['bytes'] / 1e6:,.2f}</td>"
            f"<td class='num'>{pcie['utilization']:.1%}</td>"
            f"<td class='num'>{avoid_cell}</td>"
            "</tr>"
        )
    return (
        "<table><thead><tr><th>configuration</th><th>dominant bound</th>"
        "<th class='num'>GPU dram util</th><th class='num'>CPU util</th>"
        "<th class='num'>PCIe MB</th><th class='num'>PCIe util</th>"
        "<th class='num'>transfer avoidance</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
    )


def _hw_section(records: list[dict], series_slots: _SlotMap) -> str:
    hw_recs = _hw_records(records)
    if not hw_recs:
        return (
            "<p class='muted'>No hardware data — no record in this ledger "
            "carries an hw block.</p>"
        )
    return (
        f"<h3>Roofline (all kernels, latest run per configuration)</h3>"
        f"{_hw_roofline_svg(hw_recs, series_slots)}"
        f"<h3>Utilization timeline</h3>{_hw_utilization_bars(hw_recs)}"
        f"<h3>Bound-ness and utilization</h3>"
        f"{_hw_boundness_table(hw_recs)}"
    )


# ----------------------------------------------------------------------
def _slo_section(slo: dict) -> str:
    """The SLO page: objective verdicts plus per-lane budget burn-down."""
    results = slo.get("results", [])
    rows = []
    for r in results:
        if r.status == "BREACH":
            badge = '<span class="slo-bad">BREACH</span>'
        elif r.status == "OK":
            badge = '<span class="slo-ok">OK</span>'
        else:
            badge = f'<span class="muted">{_esc(r.status)}</span>'
        burn = "∞" if r.burn_rate == float("inf") else f"{r.burn_rate:.2f}"
        remaining = r.budget_remaining
        rows.append(
            "<tr>"
            f"<td>{badge}</td>"
            f"<td>{_esc(r.name)}</td>"
            f"<td>{_esc(r.kind)}{'' if r.lane is None else f' (lane {r.lane})'}</td>"
            f"<td class='num'>{r.bad:,}/{r.events:,}</td>"
            f"<td class='num'>{r.allowed_fraction:.2%}</td>"
            f"<td class='num'>{burn}</td>"
            "<td><div class='budget'><div class='budget-fill' "
            f"style='width:{100.0 * remaining:.1f}%'></div></div></td>"
            "</tr>"
        )
    table = (
        "<table><thead><tr><th>status</th><th>objective</th><th>kind</th>"
        "<th class='num'>bad/events</th><th class='num'>allowed</th>"
        "<th class='num'>burn rate</th><th>budget left</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
    )
    burn_blocks = []
    for series in slo.get("burn_down", []):
        points = series.get("points", [])
        if not points:
            continue
        bars = []
        for i, point in enumerate(points):
            remaining = point.get("budget_remaining", 0.0) or 0.0
            burn = point.get("burn_rate")
            tip = (
                f"drain {i + 1} ({point.get('run_id', '?')}): "
                f"{point.get('bad', 0)}/{point.get('events', 0)} bad, "
                f"burn {'∞' if burn is None else f'{burn:.2f}'}, "
                f"budget left {remaining:.0%}"
            )
            bars.append(
                '<div class="bar-row">'
                f'<div class="bar-label">drain {i + 1}</div>'
                '<div class="budget budget-wide" '
                f'data-tip="{_esc(tip)}">'
                f'<div class="budget-fill" style="width:{100.0 * remaining:.1f}%">'
                "</div></div>"
                f'<div class="bar-total">{remaining:.0%} left</div>'
                "</div>"
            )
        lane = series.get("lane")
        label = (
            f"{series['name']} — p{series['percentile']:g} "
            f"{series['kind']} ≤ {series['threshold_seconds'] * 1e3:g} ms"
            + (f", lane {lane}" if lane is not None else ", all lanes")
        )
        burn_blocks.append(
            f"<h3>{_esc(label)}</h3><div class='bars'>{''.join(bars)}</div>"
        )
    burn_html = "".join(burn_blocks) or (
        "<p class='muted'>No latency objectives with drain data to burn down."
        "</p>"
    )
    return (
        f"{table}<h3>Error-budget burn-down (cumulative over the window)</h3>"
        f"{burn_html}"
    )


# ----------------------------------------------------------------------
_CSS_TEMPLATE = """
:root {{ color-scheme: light dark; }}
body {{
  margin: 0; padding: 24px;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--text-primary);
}}
.viz-root {{
  --page: #f9f9f7; --surface-1: #fcfcfb;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7; --border: rgba(11,11,11,0.10);
  --series-other: #898781;
{light_slots}
}}
@media (prefers-color-scheme: dark) {{
  .viz-root {{
    --page: #0d0d0d; --surface-1: #1a1a19;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --baseline: #383835; --border: rgba(255,255,255,0.10);
{dark_slots}
  }}
}}
h1 {{ font-size: 22px; margin: 0 0 4px; }}
h2 {{ font-size: 16px; margin: 28px 0 10px; }}
h3 {{ font-size: 13px; margin: 18px 0 6px; color: var(--text-secondary); }}
.subtitle {{ color: var(--text-secondary); margin: 0 0 18px; font-size: 13px; }}
section {{
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 18px; margin-bottom: 16px;
}}
.tiles {{ display: flex; gap: 12px; flex-wrap: wrap; }}
.tile {{ min-width: 130px; }}
.tile-value {{ font-size: 26px; }}
.tile-label {{ font-size: 12px; color: var(--text-secondary); }}
table {{ border-collapse: collapse; font-size: 13px; margin-top: 6px; }}
th, td {{ padding: 4px 12px 4px 0; text-align: left; }}
th {{ color: var(--muted); font-weight: 500; border-bottom: 1px solid var(--grid); }}
td.num, th.num {{ text-align: right; font-variant-numeric: tabular-nums; }}
td.mono {{ font-family: ui-monospace, monospace; font-size: 12px; }}
.legend {{ display: flex; gap: 14px; flex-wrap: wrap; font-size: 12px;
  color: var(--text-secondary); margin: 4px 0 10px; }}
.key {{ display: inline-flex; align-items: center; gap: 5px; }}
.swatch {{ width: 10px; height: 10px; border-radius: 2px; display: inline-block; }}
.bar-row {{ display: flex; align-items: center; gap: 10px; margin: 6px 0; }}
.bar-label {{ flex: 0 0 300px; font-size: 12px; color: var(--text-secondary);
  white-space: nowrap; overflow: hidden; text-overflow: ellipsis; }}
.bar {{ flex: 1 1 auto; display: flex; gap: 2px; height: 16px; }}
.seg {{ height: 100%; border-radius: 2px; min-width: 1px; }}
.seg:hover {{ filter: brightness(1.15); }}
.bar-total {{ flex: 0 0 110px; font-size: 12px; text-align: right;
  font-variant-numeric: tabular-nums; }}
svg {{ width: 100%; height: auto; display: block; }}
.svg-label {{ font-size: 11px; fill: var(--text-secondary); }}
.muted {{ color: var(--muted); font-size: 12px; }}
details summary {{ cursor: pointer; font-size: 13px; color: var(--text-secondary); }}
.slo-ok {{ color: var(--series-3, #1baf7a); font-weight: 600; }}
.slo-bad {{ color: var(--series-8, #e34948); font-weight: 600; }}
.budget {{ width: 140px; height: 10px; border-radius: 3px;
  background: var(--grid); overflow: hidden; }}
.budget-wide {{ flex: 1 1 auto; width: auto; height: 12px; }}
.budget-fill {{ height: 100%; background: var(--series-3, #1baf7a);
  border-radius: 3px; }}
#tip {{
  position: fixed; display: none; pointer-events: none; z-index: 10;
  background: var(--surface-1); color: var(--text-primary);
  border: 1px solid var(--border); border-radius: 6px;
  padding: 5px 8px; font-size: 12px; max-width: 360px;
  box-shadow: 0 2px 8px rgba(0,0,0,0.25);
}}
"""

_JS = """
(function () {
  var tip = document.getElementById('tip');
  function show(e) {
    var text = e.target.getAttribute && e.target.getAttribute('data-tip');
    if (!text) { tip.style.display = 'none'; return; }
    tip.textContent = text;
    tip.style.display = 'block';
    var x = Math.min(e.clientX + 12, window.innerWidth - tip.offsetWidth - 8);
    var y = Math.min(e.clientY + 12, window.innerHeight - tip.offsetHeight - 8);
    tip.style.left = x + 'px';
    tip.style.top = y + 'px';
  }
  document.addEventListener('mousemove', show);
  document.addEventListener('mouseout', function () { tip.style.display = 'none'; });
})();
"""


def html_report(records: list[dict], title: str = "repro run ledger",
                slo: dict | None = None) -> str:
    """Render ledger records as one self-contained HTML document.

    ``slo`` (optional) adds the SLO page: a dict with ``results`` (a
    list of :class:`repro.obs.slo.ObjectiveResult`), ``burn_down`` (from
    :func:`repro.obs.slo.lane_burn_down`) and ``window``.
    """
    if not records:
        raise ValueError("cannot render a report from an empty ledger")
    phase_slots = _SlotMap()
    series_slots = _SlotMap()
    # Pre-assign series slots in ledger order so colors are stable
    # between the trend chart and any future section.
    for record in records:
        series_slots.slot(_config_series(record))
    light_slots, dark_slots = _slot_css()
    css = _CSS_TEMPLATE.format(light_slots=light_slots, dark_slots=dark_slots)
    stamp = time.strftime("%Y-%m-%d %H:%M:%S")
    body = (
        f"<h1>{_esc(title)}</h1>"
        f'<p class="subtitle">{len(records)} run(s) · generated {stamp} · '
        "all times are deterministic modeled seconds</p>"
        f"<section><h2>Overview</h2>{_stat_tiles(records)}</section>"
        "<section><h2>Engine comparison (latest run per configuration)</h2>"
        f"{_comparison_tables(records)}</section>"
        "<section><h2>Phase breakdown</h2>"
        f"{_phase_bars(records, phase_slots)}</section>"
        "<section><h2>Hardware</h2>"
        f"{_hw_section(records, series_slots)}</section>"
        "<section><h2>Trend across the ledger</h2>"
        f"{_trend_svg(records, series_slots)}{_trend_table(records)}</section>"
    )
    if slo is not None:
        window = slo.get("window", 0)
        scope = f"last {window} drains" if window else "whole ledger"
        body += (
            f"<section><h2>Service-level objectives ({_esc(scope)})</h2>"
            f"{_slo_section(slo)}</section>"
        )
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{css}</style></head>\n"
        f'<body class="viz-root">{body}<div id="tip"></div>'
        f"<script>{_JS}</script></body></html>\n"
    )


def write_html_report(records: list[dict], path, title: str = "repro run ledger",
                      slo: dict | None = None) -> str:
    doc = html_report(records, title=title, slo=slo)
    with open(path, "w") as fh:
        fh.write(doc)
    return doc
