"""Summarise and compare saved benchmark results.

    python3 bench/compare.py DIR               # per-workload medians, spread
    python3 bench/compare.py BASE_DIR NEW_DIR  # NEW against BASE

A result directory holds the JSON files ``run.py`` writes under
.bench_work/results/ (copy it away between commits).  The spread of a metric
is the distance between the first and third quartiles of its runs divided by
their median.  A comparison flags a metric whose NEW median is worse than
the BASE median by more than the bound fixed in BENCHMARK.json.

Results are only comparable when both sides ran the same oracle backend
(numba or pure Python: the oracle's cost differs by orders of magnitude), so
a comparison across backends is refused with exit status 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def load(directory):
    """{(workload, trace): [result, ...]} from one results directory."""
    groups = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        res = json.loads(path.read_text())
        trace = "trace1" in path.name
        groups[(res["workload"], trace)].append(res)
    return groups


def backends(groups):
    return {r["env"]["oracle_backend"] for rs in groups.values() for r in rs}


def summary(results):
    """{metric: (median, spread, unit)} over a list of results."""
    out = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        out[name] = (med, spread, results[0]["metrics"][name]["unit"])
    return out


def _worse(name, base, new):
    spec = BOUNDS.get(name)
    if spec is None or base == 0:
        return None
    change = (new - base) / base
    if spec["better"] == "higher":
        change = -change
    return change, change > spec["bound"]


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sides = [load(d) for d in argv]
    if len(sides) == 2 and backends(sides[0]) != backends(sides[1]):
        print(f"refused: oracle backend {sorted(backends(sides[0]))} vs "
              f"{sorted(backends(sides[1]))}", file=sys.stderr)
        return 2
    status = 0
    for key in sorted(sides[-1]):
        workload, trace = key
        new = summary(sides[-1][key])
        base = summary(sides[0][key]) if len(sides) == 2 and key in sides[0] \
            else None
        print(f"== {workload} {'traced' if trace else 'end-to-end'} "
              f"({len(sides[-1][key])} runs)")
        for name, (med, spread, unit) in new.items():
            line = f"  {name:40s} {med:12.6g} {unit:14s} spread {spread:.3f}"
            if base and name in base:
                verdict = _worse(name, base[name][0], med)
                line += f"  base {base[name][0]:12.6g}"
                if verdict:
                    line += f"  worse by {verdict[0]:+.3f}"
                    if verdict[1]:
                        line += "  REGRESSION"
                        status = 1
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
