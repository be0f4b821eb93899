"""Compare two saved benchmark results.

Usage::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0 > a.out
    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0 > b.out
    python3 perfbench/compare.py a.out b.out

Refuses (exit 2) when the two runs recorded different settings or
workloads: ``REPRO_NO_CACHE``, ``REPRO_NO_METRICS`` and ``REPRO_ENGINE``
each select a different program, and core count or library versions a
different machine. For two runs of the same seed the deterministic work
counters must match exactly (exit 1 otherwise). Metric changes are
printed, not judged.
"""

from __future__ import annotations

import json
import sys
from typing import Tuple


def load(path: str) -> Tuple[dict, dict]:
    """The detail and result objects a run printed last."""
    with open(path) as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError(f"{path}: not a benchmark run's output")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def compare(a_path: str, b_path: str) -> int:
    (a, a_res), (b, b_res) = load(a_path), load(b_path)
    refusals = [
        f"{key}: {a.get(key)!r} != {b.get(key)!r}"
        for key in ("workload", "trace", "settings")
        if a.get(key) != b.get(key)
    ]
    if refusals:
        print("refusing to compare runs with different settings:")
        for line in refusals:
            print(f"  {line}")
        return 2
    print(f"{'metric':<36}{'a':>14}{'b':>14}{'b/a-1':>9}")
    for name, entry in a_res["metrics"].items():
        other = b_res["metrics"].get(name)
        if other is None:
            continue
        va, vb = entry["value"], other["value"]
        change = f"{vb / va - 1:+.1%}" if va else ""
        print(f"{name:<36}{va:>14.6g}{vb:>14.6g}{change:>9}  {entry['unit']}")
    if a.get("seed") != b.get("seed"):
        return 0
    differ = sorted(
        key
        for key in set(a["counters"]) | set(b["counters"])
        if a["counters"].get(key) != b["counters"].get(key)
    )
    if differ:
        print("work counters differ on the same seed:")
        for key in differ:
            print(f"  {key}: {a['counters'].get(key)} != {b['counters'].get(key)}")
        return 1
    print(f"work counters match ({len(a['counters'])} counters)")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
