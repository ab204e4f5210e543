"""Export study results to plot-ready records and CSV.

The bench harness renders text tables; this module produces the same
data in machine-readable form, so downstream plotting (matplotlib,
spreadsheets) can regenerate the paper's figures graphically without
re-running the sweeps.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.operator_breakdown import breakdown_for
from repro.core.report import to_csv
from repro.core.speedup import SweepResult

__all__ = [
    "sweep_to_csv",
    "sweep_to_records",
]


def sweep_to_records(sweep: SweepResult) -> List[Dict[str, object]]:
    """One record per (model, platform, batch) with every Fig 3/4 field."""
    records = []
    for model in sweep.model_names:
        for platform in sweep.platform_names:
            for batch in sweep.batch_sizes:
                profile = sweep.profile(model, platform, batch)
                breakdown = breakdown_for(profile)
                records.append(
                    {
                        "model": model,
                        "platform": platform,
                        "batch_size": batch,
                        "total_seconds": profile.total_seconds,
                        "compute_seconds": profile.compute_seconds,
                        "data_comm_seconds": profile.data_comm_seconds,
                        "data_comm_fraction": profile.data_comm_fraction,
                        "speedup_over_broadwell": sweep.speedup(
                            model, platform, batch
                        ),
                        "throughput_qps": profile.throughput_qps,
                        "dominant_operator": breakdown.dominant,
                    }
                )
    return records


def sweep_to_csv(sweep: SweepResult) -> str:
    records = sweep_to_records(sweep)
    headers = list(records[0].keys())
    rows = [[r[h] for h in headers] for r in records]
    return to_csv(headers, rows)

