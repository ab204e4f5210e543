"""Compare the cross-stack benchmark results of two commits.

    python benchmarks/stack/compare.py A1.json A2.json ... -- B1.json B2.json ...

The ``A`` files are runs of the parent commit and the ``B`` files runs of
the change, each written by ``run.py -o``; list them in run order, so
that ``A[i]`` and ``B[i]`` form a pair. For every (workload, end-to-end
metric) the change is reported as

* ``within bound``: its median is no worse than the parent's by more
  than the metric's bound;
* ``worse``: it is worse by more than the bound (for simulated metrics,
  any change; for ``ops_failed_frac``, any increase);
* ``unresolved``: the run-to-run spread (interquartile range over the
  median, on either side) is wider than the bound, unless every run of
  the change reads better than every run of the parent.

With 10 or more pairs the win rule is applied too: the change wins at
least 9 in 10 pairs, ties counting for neither, and the medians differ
by more than the parent's interquartile range. Exits 1 if any pair is
worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from run import END_TO_END


def relative_iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def better(a: float, b: float, direction: str) -> bool:
    """Whether ``a`` reads better than ``b``."""
    return a < b if direction == "lower" else a > b


def verdict(parent: Sequence[float], change: Sequence[float], metric: str) -> str:
    _, direction, bound, clock = END_TO_END[metric]
    if clock == "sim":
        return "within bound" if list(parent) == list(change) else "worse"
    if bound == 0:
        worse = better(statistics.fmean(parent), statistics.fmean(change), direction)
        return "worse" if worse else "within bound"
    if max(relative_iqr(parent), relative_iqr(change)) > bound:
        if all(better(b, a, direction) for a in parent for b in change):
            return "within bound"
        return "unresolved"
    base, new = statistics.median(parent), statistics.median(change)
    loss = (new - base) if direction == "lower" else (base - new)
    return "worse" if loss > bound * abs(base) else "within bound"


def win(parent: Sequence[float], change: Sequence[float], metric: str) -> Optional[bool]:
    """The win rule, or ``None`` with fewer than 10 pairs."""
    pairs = list(zip(parent, change))
    if len(pairs) < 10:
        return None
    direction = END_TO_END[metric][1]
    wins = sum(1 for a, b in pairs if better(b, a, direction))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gap = abs(statistics.median(change) - statistics.median(parent))
    return wins >= 0.9 * len(pairs) and gap > q3 - q1


def compare(parent_docs: List[Dict], change_docs: List[Dict]) -> List[Dict]:
    rows = []
    for workload in parent_docs[0]["workloads"]:
        for metric in END_TO_END:
            parent = [d["workloads"][workload]["metrics"].get(metric) for d in parent_docs]
            change = [
                d["workloads"].get(workload, {}).get("metrics", {}).get(metric)
                for d in change_docs
            ]
            if any(v is None for v in parent):
                continue
            row = {"workload": workload, "metric": metric,
                   "parent": statistics.median(parent)}
            if any(v is None for v in change):
                row.update(change=None, verdict="worse", win=None)
            else:
                row.update(
                    change=statistics.median(change),
                    spread=max(relative_iqr(parent), relative_iqr(change)),
                    verdict=verdict(parent, change, metric),
                    win=win(parent, change, metric),
                )
            rows.append(row)
    return rows


def digest_notes(docs: List[Dict]) -> List[str]:
    """Workloads whose output digests differ between runs of one seed."""
    notes = []
    for workload in docs[0]["workloads"]:
        by_seed: Dict[int, set] = {}
        for doc in docs:
            value = doc["workloads"].get(workload, {}).get("digest", {}).get("value")
            if value:
                by_seed.setdefault(doc["seed"], set()).add(value)
        for seed, values in sorted(by_seed.items()):
            if len(values) > 1:
                notes.append(f"{workload}: digests differ at seed {seed}")
    return notes


def main(argv: Sequence[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = list(argv).index("--")
    parent_paths, change_paths = argv[:cut], argv[cut + 1:]
    if not parent_paths or not change_paths:
        print("error: give at least one result file on each side of --", file=sys.stderr)
        return 2
    parent = [json.loads(Path(p).read_text()) for p in parent_paths]
    change = [json.loads(Path(p).read_text()) for p in change_paths]
    rows = compare(parent, change)
    print(f"{'workload':15s} {'metric':22s} {'parent':>12s} {'change':>12s} "
          f"{'delta':>8s} {'spread':>7s}  verdict")
    for row in rows:
        unit = END_TO_END[row["metric"]][0]
        if row["change"] is None:
            print(f"{row['workload']:15s} {row['metric']:22s} {row['parent']:12.6g} "
                  f"{'missing':>12s} {'':8s} {'':7s}  worse")
            continue
        delta = (row["change"] / row["parent"] - 1) * 100 if row["parent"] else 0.0
        win_note = {None: "", True: "  win", False: "  no win"}[row["win"]]
        print(f"{row['workload']:15s} {row['metric']:22s} {row['parent']:12.6g} "
              f"{row['change']:12.6g} {delta:+7.2f}% {row['spread'] * 100:6.2f}%  "
              f"{row['verdict']}{win_note}  [{unit}]")
    notes = digest_notes(parent + change)
    for note in notes:
        print(note)
    return 1 if notes or any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
