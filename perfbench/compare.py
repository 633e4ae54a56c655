"""Summarize and compare sets of benchmark results.

Each argument is a directory of result records as ``run.py`` writes
them (``<workload>-s<seed>-t<trace>.json``).  With one directory, print
each end-to-end metric's median and quartile spread (Q3 - Q1 over the
median) next to its bound from ``BENCHMARK.json``.  With two (base,
then new), also print the change of each median as a share of the base
median and flag a change worse than the bound.  Results from different
hosts are reported as not comparable instead of being compared.

    python3 perfbench/compare.py perfbench/out
    python3 perfbench/compare.py base_results new_results
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stats import median, quartile_spread  # noqa: E402

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> Dict[str, List[dict]]:
    """Untraced records per workload."""
    out: Dict[str, List[dict]] = defaultdict(list)
    for path in sorted(Path(directory).glob("*-t0.json")):
        rec = json.loads(path.read_text())
        out[rec["workload"]].append(rec)
    return out


def series(records: List[dict]) -> Dict[str, List[float]]:
    """Each end-to-end (and printed-only) metric's values over runs."""
    values: Dict[str, List[float]] = defaultdict(list)
    for rec in records:
        for section in ("end_to_end", "ungated"):
            for name, (value, _unit) in rec.get(section, {}).items():
                values[name].append(value)
    return values


def main(argv: List[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load(d) for d in argv]
    status = 0
    for workload in sorted(set().union(*sets)):
        groups = [s.get(workload, []) for s in sets]
        hosts = {r["host"]["fingerprint"] for g in groups for r in g}
        failed = sum(r["failed"] for g in groups for r in g)
        print(f"== {workload}: runs {[len(g) for g in groups]}, "
              f"hosts {sorted(hosts)}, failed operations {failed}")
        if failed:
            status = 1
        comparable = len(hosts) == 1
        if len(groups) == 2 and not comparable:
            print("   results come from different hosts: not comparable")
        vals = [series(g) for g in groups]
        for name in sorted(set().union(*vals)):
            gated = name in bounds
            meta = bounds.get(name, {"bound": float("nan"),
                                     "better": "lower"})
            line = f"   {name:32s}"
            meds = []
            for v in vals:
                xs = v.get(name, [])
                if not xs:
                    line += f" {'-':>12s} {'':>8s}"
                    meds.append(None)
                    continue
                spread = quartile_spread(xs)
                meds.append(median(xs))
                flag = "" if name == "setup_s" or not gated \
                    or spread <= meta["bound"] else "!"
                line += f" {meds[-1]:12.4f} {spread:7.3f}{flag or ' '}"
                if flag and len(xs) >= 4:
                    status = 1
            line += f"  bound {meta['bound']}" if gated else "  not gated"
            if gated and len(meds) == 2 and None not in meds and comparable:
                change = (meds[1] - meds[0]) / meds[0] if meds[0] else 0.0
                worse = change if meta["better"] == "lower" else -change
                verdict = "WORSE" if worse > meta["bound"] else "ok"
                line += f"  change {change:+.3f} {verdict}"
                if verdict == "WORSE":
                    status = 1
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
