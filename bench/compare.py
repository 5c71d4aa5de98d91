"""Compare a parent result set with a change result set.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds results files written by bench/run.py (bench/results/
by default), from runs of identical benchmark code and settings.  For every
workload and metric the report gives each side's median and quartiles, the
share of seed-matched pairs the change wins, and, for the end-to-end
metrics, the verdict of stats.verdict under the metric's bound from
BENCHMARK.json: improved, no worse within bound, unresolved, or worse.
Exits 1 when any verdict is "worse" or the change fails more jobs.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """(workload, trace) -> {"runs": {seed: [metrics, ...]}, "attempted": n, "failed": n}."""
    sets: dict = defaultdict(lambda: {"runs": defaultdict(list), "attempted": 0, "failed": 0})
    for path in sorted(directory.glob("*.json")):
        data = json.loads(path.read_text())
        meta = data["meta"]
        entry = sets[(meta["workload"], meta["trace"])]
        entry["runs"][meta["seed"]].append({k: v["value"] for k, v in data["metrics"].items()})
        entry["attempted"] += meta["jobs"]["attempted"]
        entry["failed"] += meta["jobs"]["failed"]
    return sets


def pair_up(parent: dict, change: dict, name: str) -> list[tuple[float, float]]:
    """Seed-matched (parent, change) values of one metric, in run order within a seed."""
    pairs = []
    for seed in sorted(parent.keys() & change.keys()):
        pairs += [(a[name], b[name]) for a, b in zip(parent[seed], change[seed])]
    return pairs


def _fmt(values: list[float]) -> str:
    q1, med, q3 = stats.quartiles(values)
    return f"{med:12.6g} [{q1:.4g}, {q3:.4g}]"


def compare(parent_dir: Path, change_dir: Path, spec: dict) -> int:
    parent, change = load(parent_dir), load(change_dir)
    status = 0
    for key in sorted(parent.keys() & change.keys()):
        workload, trace = key
        metrics = spec["per_layer" if trace else "end_to_end"]
        p_runs, c_runs = parent[key]["runs"], change[key]["runs"]
        print(f"\n{workload} ({'traced, per layer' if trace else 'end to end'}): "
              f"{sum(map(len, p_runs.values()))} parent runs, {sum(map(len, c_runs.values()))} change runs")
        print(f"  {'metric':26s} {'unit':6s} {'parent median [q1, q3]':>34s} "
              f"{'change median [q1, q3]':>34s} {'wins':>5s}  verdict")
        for metric in metrics:
            name = metric["name"]
            p_vals = [r[name] for runs in p_runs.values() for r in runs if name in r]
            c_vals = [r[name] for runs in c_runs.values() for r in runs if name in r]
            if not p_vals or not c_vals:
                continue
            pairs = pair_up(p_runs, c_runs, name)
            wins = f"{stats.win_rate(pairs, metric['better']):.0%}" if pairs else "n/a"
            if "bound" in metric:
                result = stats.verdict(p_vals, c_vals, pairs, metric["better"], metric["bound"])
                status |= result == stats.WORSE
            else:
                result = "(no bound)"
            print(f"  {name:26s} {metric['unit']:6s} {_fmt(p_vals):>34s} {_fmt(c_vals):>34s} "
                  f"{wins:>5s}  {result}")
        p_fail, c_fail = parent[key]["failed"], change[key]["failed"]
        print(f"  failed jobs: parent {p_fail} of {parent[key]['attempted']}, "
              f"change {c_fail} of {change[key]['attempted']}")
        status |= c_fail > p_fail
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(args.parent, args.change, spec)


if __name__ == "__main__":
    sys.exit(main())
