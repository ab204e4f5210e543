"""Critical-path latency attribution (``repro explain``).

Built on the per-query causal traces
:class:`~repro.telemetry.querytrace.QueryTraceCapture` records: walk
each completed query's exact-sum decomposition into attribution
profiles (which component dominates p99, on which shard), what-if
bounds (how much a knob could possibly win), and fault-window overlap
verdicts (is the excursion explained by the injected fault). See
docs/observability.md ("Critical path & explain").
"""

from repro.explain.engine import Explanation, explain_scenario, explain_setup
from repro.explain.report import render_html, render_markdown, render_text

__all__ = [
    "Explanation",
    "explain_scenario",
    "explain_setup",
    "render_html",
    "render_markdown",
    "render_text",
]
