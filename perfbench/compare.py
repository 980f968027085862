"""Diff two benchmark result files per workload and per layer.

Result files are written by ``bench.py --out FILE`` (several runs may
merge into one file, one entry per workload).  For every workload in
both files this prints each metric side by side with its ratio, and for
traced runs every layer's calls and self seconds per traced unit, the
layers whose self time moved most first — where a change's saving (or
cost) came from.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload replay-serve --seed 1 --seconds 25 --trace 1 --out base.json
    ...  # change the program
    python3 perfbench/run.py --workload replay-serve --seed 1 --seconds 25 --trace 1 --out new.json
    python3 perfbench/compare.py base.json new.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _ratio(base: float, new: float) -> str:
    if base == 0:
        return "     -" if new == 0 else "   new"
    return "%6.3f" % (new / base)


def compare_workload(name: str, base: dict, new: dict) -> list[str]:
    lines = ["== %s (seed %s -> %s)" % (name, base.get("seed"), new.get("seed"))]
    for mode in ("untraced", "traced"):
        if mode not in base or mode not in new:
            continue
        lines.append("  %-40s%14s%14s%8s" % (mode + " metrics", "base", "new", "ratio"))
        base_metrics, new_metrics = base[mode]["metrics"], new[mode]["metrics"]
        layered = set(base[mode]["layers"]) | set(new[mode]["layers"])
        for metric in base_metrics:
            layer, _, field = metric.rpartition(".")
            if metric not in new_metrics or (layer in layered and field in ("calls", "s", "self_s")):
                continue
            b, n = base_metrics[metric], new_metrics[metric]
            lines.append("    %-38s %14.6g%14.6g%8s" % (metric, b, n, _ratio(b, n)))
        if not layered:
            continue
        empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
        rows = [
            (layer, base[mode]["layers"].get(layer, empty), new[mode]["layers"].get(layer, empty))
            for layer in layered
        ]
        rows.sort(key=lambda row: (-abs(row[2]["self_s"] - row[1]["self_s"]), row[0]))
        lines.append(
            "  %-44s%10s%10s%12s%12s%12s"
            % ("layers per traced unit", "calls", "calls", "self_s", "self_s", "delta")
        )
        for layer, b, n in rows:
            lines.append(
                "    %-42s%10d%10d%12.6f%12.6f%+12.6f"
                % (layer, b["calls"], n["calls"], b["self_s"], n["self_s"], n["self_s"] - b["self_s"])
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Diff two perfbench result files per workload and layer.")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    base = json.loads(args.base.read_text())
    new = json.loads(args.new.read_text())
    shared = sorted(set(base) & set(new))
    if not shared:
        print("no workload appears in both files", file=sys.stderr)
        return 1
    for name in shared:
        print("\n".join(compare_workload(name, base[name], new[name])))
    for name in sorted(set(base) ^ set(new)):
        print("== %s: only in %s" % (name, args.base if name in base else args.new))
    return 0


if __name__ == "__main__":
    sys.exit(main())
