"""Render a critical-path :class:`~repro.explain.Explanation`.

Four output shapes, mirroring :class:`~repro.monitor.MonitorReport`:

* :func:`render_text` — the ``repro explain`` terminal view: per-
  percentile attribution tables, what-if bounds, slowest queries,
  fault-window verdict;
* :func:`render_markdown` — the same as a GitHub-flavored document for
  ``--report out.md``;
* :func:`render_html` — a self-contained page (inline CSS + SVG bars,
  zero external assets) CI uploads as a build artifact;
* JSON comes straight from ``Explanation.to_dict()``.
"""

from __future__ import annotations

import html as _html
from typing import Any, Dict, List

from repro.core import render_table
from repro.telemetry.querytrace import COMPONENTS

from repro.explain.engine import PERCENTILES, Explanation

__all__ = ["render_text", "render_markdown", "render_html"]


def _header_line(exp: Explanation) -> str:
    m = exp.meta
    bits = []
    if m.get("model"):
        target = m["model"]
        if m.get("platform"):
            target += f"/{m['platform']}"
            if m.get("fallback"):
                target += f"+{m['fallback']}"
        bits.append(target)
    if m.get("scenario"):
        bits.append(f"scenario '{m['scenario']}'")
    if m.get("qps"):
        bits.append(f"{m['qps']:.0f} QPS")
    if m.get("seed") is not None:
        bits.append(f"seed {m['seed']}")
    bits.append(f"{exp.capture.completed} queries completed")
    return "explain: " + ", ".join(bits)


def _profile_rows(profile: Dict[str, Any]) -> List[List[str]]:
    rows = []
    comps = profile["components"]
    for name in COMPONENTS:
        c = comps[name]
        if c["seconds"] <= 0.0:
            continue
        top = c.get("top_shard")
        shard = (
            f"{top['shard']} ({top['share']:.0%})" if top else "-"
        )
        fault = c.get("fault_overlap_share")
        rows.append([
            name,
            f"{c['seconds'] * 1e3:.3f}",
            f"{c['share']:.1%}",
            "-" if fault is None else f"{fault:.0%}",
            shard,
        ])
    rows.sort(key=lambda r: -float(r[1]))
    return rows


def _profile_title(profile: Dict[str, Any]) -> str:
    p = profile["percentile"]
    label = "mean (all queries)" if p is None else f"p{p:g} tail"
    title = (
        f"{label}: {profile['queries']} queries, mean latency "
        f"{profile['mean_latency_s'] * 1e3:.2f} ms"
    )
    if p is not None:
        title += f" (cutoff {profile['cutoff_s'] * 1e3:.2f} ms)"
    return title


def _what_if_rows(rows: List[Dict[str, Any]]) -> List[List[str]]:
    out = []
    for r in rows:
        out.append([
            r["component"],
            f"{r['observed_s'] * 1e3:.3f}",
            f"{r['bound_s'] * 1e3:.3f}",
            f"{r['improvement_s'] * 1e3:.3f}",
            f"{r['improvement_s'] / r['observed_s']:.1%}"
            if r["observed_s"] > 0.0 else "-",
        ])
    return out


def _query_rows(queries: List[Dict[str, Any]]) -> List[List[str]]:
    rows = []
    for q in queries:
        comps = q["components"]
        breakdown = " ".join(
            f"{k}={comps[k] * 1e3:.2f}" for k in COMPONENTS
            if comps[k] > 0.0
        )
        rows.append([
            q["qid"],
            f"{q['latency_s'] * 1e3:.2f}",
            q["attempts"],
            q["dominant"],
            breakdown,
        ])
    return rows


def render_text(exp: Explanation, what_if: bool = True,
                top_queries: int = 5) -> str:
    lines = [_header_line(exp)]
    for p in PERCENTILES:
        profile = exp.profile(p)
        if not profile["queries"]:
            continue
        lines.append("")
        lines.append(_profile_title(profile))
        lines.append(render_table(
            ["component", "ms/query", "share", "in-fault", "top shard"],
            _profile_rows(profile),
        ))
    mean = exp.mean_profile()
    lines.append("")
    lines.append(_profile_title(mean))
    lines.append(render_table(
        ["component", "ms/query", "share", "in-fault", "top shard"],
        _profile_rows(mean),
    ))
    if what_if:
        rows = exp.what_if_table(99.0)
        if rows:
            lines.append("")
            lines.append(
                "what-if p99 bounds (component zeroed; direct effect "
                "only, queueing relief not re-simulated):"
            )
            lines.append(render_table(
                ["knob", "p99 ms", "bound ms", "win ms", "win"],
                _what_if_rows(rows),
            ))
    if top_queries:
        queries = exp.top_queries(top_queries)
        if queries:
            lines.append("")
            lines.append(f"slowest {len(queries)} queries:")
            lines.append(render_table(
                ["qid", "ms", "tries", "dominant", "breakdown (ms)"],
                _query_rows(queries),
            ))
    if exp.fault_windows:
        lines.append("")
        lines.append("injected fault windows:")
        for start, end, kind in exp.fault_windows:
            lines.append(f"  {kind}: {start:.2f}s - {end:.2f}s")
        fa = exp.fault_attribution(99.0)
        lines.append(
            f"fault attribution: {fa['excursion_share']:.0%} of the p99 "
            f"excursion overlaps fault windows; top component "
            f"'{fa['top_component']}' is "
            + ("fault-correlated"
               if fa["top_is_fault_correlated"] else "NOT fault-correlated")
        )
    return "\n".join(lines)


def render_markdown(exp: Explanation, what_if: bool = True,
                    top_queries: int = 5) -> str:
    lines = [f"# {_header_line(exp)}", ""]
    for p in list(PERCENTILES) + [None]:
        profile = exp.mean_profile() if p is None else exp.profile(p)
        if not profile["queries"]:
            continue
        lines += [f"## {_profile_title(profile)}", ""]
        lines.append(
            "| component | ms/query | share | in-fault | top shard |"
        )
        lines.append("|---|---|---|---|---|")
        for row in _profile_rows(profile):
            lines.append("| " + " | ".join(str(c) for c in row) + " |")
        lines.append("")
    if what_if:
        rows = exp.what_if_table(99.0)
        if rows:
            lines += [
                "## What-if p99 bounds",
                "",
                "Component zeroed and the percentile recomputed; bounds "
                "the *direct* win only (queueing relief is not "
                "re-simulated).",
                "",
                "| knob | p99 ms | bound ms | win ms | win |",
                "|---|---|---|---|---|",
            ]
            for row in _what_if_rows(rows):
                lines.append("| " + " | ".join(row) + " |")
            lines.append("")
    if top_queries:
        queries = exp.top_queries(top_queries)
        if queries:
            lines += [
                f"## Slowest {len(queries)} queries",
                "",
                "| qid | ms | tries | dominant | breakdown (ms) |",
                "|---|---|---|---|---|",
            ]
            for row in _query_rows(queries):
                lines.append(
                    "| " + " | ".join(str(c) for c in row) + " |"
                )
            lines.append("")
    if exp.fault_windows:
        lines += ["## Injected fault windows", ""]
        for start, end, kind in exp.fault_windows:
            lines.append(f"- `{kind}`: {start:.2f}s – {end:.2f}s")
        fa = exp.fault_attribution(99.0)
        lines += [
            "",
            f"**Fault attribution:** {fa['excursion_share']:.0%} of the "
            f"p99 excursion overlaps fault windows; top component "
            f"`{fa['top_component']}` is "
            + ("fault-correlated."
               if fa["top_is_fault_correlated"]
               else "**not** fault-correlated."),
        ]
    return "\n".join(lines) + "\n"


def _svg_bars(profile: Dict[str, Any], width: int = 720) -> str:
    """One horizontal stacked-share bar chart per profile."""
    comps = profile["components"]
    rows = [
        (name, comps[name]) for name in COMPONENTS
        if comps[name]["seconds"] > 0.0
    ]
    rows.sort(key=lambda r: -r[1]["seconds"])
    if not rows:
        return ""
    bar_h, gap, pad = 18, 6, 4
    label_w = 150
    height = pad * 2 + len(rows) * (bar_h + gap)
    max_s = rows[0][1]["seconds"] or 1.0
    parts = []
    for i, (name, c) in enumerate(rows):
        y = pad + i * (bar_h + gap)
        w = c["seconds"] / max_s * (width - label_w - 90)
        fault = c.get("fault_overlap_share") or 0.0
        color = "#c53030" if fault >= 0.5 else "#2b6cb0"
        label = f"{c['seconds'] * 1e3:.3f} ms ({c['share']:.0%})"
        top = c.get("top_shard")
        if top:
            label += f" · {top['shard']}"
        parts.append(
            f'<text x="{label_w - 6}" y="{y + bar_h - 5}" '
            f'text-anchor="end" font-size="12">{_html.escape(name)}</text>'
            f'<rect x="{label_w}" y="{y}" width="{w:.1f}" '
            f'height="{bar_h}" fill="{color}"/>'
            f'<text x="{label_w + w + 6:.1f}" y="{y + bar_h - 5}" '
            f'font-size="12">{_html.escape(label)}</text>'
        )
    return (
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img">' + "".join(parts) + "</svg>"
    )


def render_html(exp: Explanation, what_if: bool = True,
                top_queries: int = 5) -> str:
    header = _header_line(exp)
    sections = []
    for p in list(PERCENTILES) + [None]:
        profile = exp.mean_profile() if p is None else exp.profile(p)
        if not profile["queries"]:
            continue
        sections.append(
            f"<h2>{_html.escape(_profile_title(profile))}</h2>"
            + _svg_bars(profile)
        )
    if what_if:
        rows = exp.what_if_table(99.0)
        if rows:
            body = "".join(
                "<tr>" + "".join(
                    f"<td>{_html.escape(str(c))}</td>" for c in row
                ) + "</tr>"
                for row in _what_if_rows(rows)
            )
            sections.append(
                "<h2>What-if p99 bounds</h2>"
                "<p>Component zeroed and the percentile recomputed; "
                "bounds the direct win only (queueing relief is not "
                "re-simulated).</p>"
                "<table><thead><tr><th>knob</th><th>p99 ms</th>"
                "<th>bound ms</th><th>win ms</th><th>win</th></tr>"
                f"</thead><tbody>{body}</tbody></table>"
            )
    if top_queries:
        queries = exp.top_queries(top_queries)
        if queries:
            body = "".join(
                "<tr>" + "".join(
                    f"<td>{_html.escape(str(c))}</td>" for c in row
                ) + "</tr>"
                for row in _query_rows(queries)
            )
            sections.append(
                f"<h2>Slowest {len(queries)} queries</h2>"
                "<table><thead><tr><th>qid</th><th>ms</th><th>tries</th>"
                "<th>dominant</th><th>breakdown (ms)</th></tr></thead>"
                f"<tbody>{body}</tbody></table>"
            )
    if exp.fault_windows:
        fa = exp.fault_attribution(99.0)
        windows = "".join(
            f"<li><code>{_html.escape(kind)}</code>: "
            f"{start:.2f}s – {end:.2f}s</li>"
            for start, end, kind in exp.fault_windows
        )
        verdict_cls = "fault" if fa["top_is_fault_correlated"] else "plain"
        sections.append(
            "<h2>Injected fault windows</h2>"
            f"<ul>{windows}</ul>"
            f'<p class="{verdict_cls}">Fault attribution: '
            f"{fa['excursion_share']:.0%} of the p99 excursion overlaps "
            f"fault windows; top component "
            f"<code>{_html.escape(fa['top_component'])}</code> is "
            + ("fault-correlated."
               if fa["top_is_fault_correlated"]
               else "<strong>not</strong> fault-correlated.")
            + "</p>"
        )
    return f"""<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>{_html.escape(header)}</title>
<style>
body {{ font: 14px/1.4 system-ui, sans-serif; margin: 2rem; color: #1a202c; }}
table {{ border-collapse: collapse; margin: 1rem 0; }}
td, th {{ border: 1px solid #cbd5e0; padding: 2px 8px; text-align: right; }}
th {{ background: #edf2f7; }}
svg {{ margin: 0.5rem 0; }}
p.fault {{ color: #c53030; font-weight: 600; }}
</style></head><body>
<h1>{_html.escape(header)}</h1>
{"".join(sections)}
</body></html>
"""
