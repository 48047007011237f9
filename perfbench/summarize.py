"""Median and quartiles of each metric over several benchmark runs.

    python3 perfbench/summarize.py .perfbench/results/*.json

Reads the results files that ``run.py`` writes and prints, per workload and
run kind (``trace0`` end-to-end, ``trace1`` per-layer), the median, the
quartiles and the quartile spread as a share of the median for every metric,
over the runs given.  This is the form in which ``baseline.json`` records the
seed commit, and in which a later change cites its before and after numbers.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def summarize(paths: list[Path]) -> dict:
    runs: dict = {}
    for path in paths:
        result = json.loads(path.read_text(encoding="utf-8"))
        group = runs.setdefault(result["workload"], {}).setdefault(f"trace{int(result['trace'])}", {
            "seeds": [], "attempted": 0, "failed": 0, "metrics": {},
        })
        group["seeds"].append(result["seed"])
        group["attempted"] += result["attempted"]
        group["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            group["metrics"].setdefault(name, {"unit": entry["unit"], "values": []})["values"].append(entry["value"])
    for workload in runs.values():
        for group in workload.values():
            group["seeds"].sort()
            for entry in group["metrics"].values():
                values = entry.pop("values")
                median = statistics.median(values)
                entry.update(n=len(values), median=median)
                if len(values) >= 2:
                    q1, _, q3 = statistics.quantiles(values, n=4)
                    entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
    return runs


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        sys.exit(2)
    print(json.dumps(summarize([Path(p) for p in sys.argv[1:]]), indent=2, sort_keys=True))
