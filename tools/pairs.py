"""Compare two checkouts on one perfbench workload by alternating pairs.

    python3 tools/pairs.py PARENT CHANGE --workload W --seed S --pairs 10

A pair runs `perfbench/run.py --workload W --seed S` once in each checkout,
each as a fresh subprocess from that checkout's root. Odd pairs run PARENT
first and even pairs CHANGE first, so drift in the machine's speed falls on
both sides alike. `--seconds` is passed through to run.py; without it run.py
uses its own default.

For every end-to-end metric that PARENT's BENCHMARK.json declares, the
script prints each pair's two values, each side's median and quartiles, and
the pairs CHANGE won (strictly better in the metric's direction; ties count
for neither side). It then says whether the gain rule holds: CHANGE wins at
least nine tenths of the pairs, and the medians differ in CHANGE's favour by
more than PARENT's interquartile range. Quartiles are those of
`statistics.quantiles` (exclusive method). Last, it prints the median of the
per-pair CHANGE/PARENT ratios: the two runs of a pair are next to each other
in time, so on a machine whose speed drifts this ratio is steadier than the
ratio of the two sides' medians; it plays no part in the gain rule. Uses only
the standard library.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, workload: str, seed: int, seconds: float | None) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed)]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        sys.exit(f"pairs: {' '.join(command)} in {root} failed "
                 f"(exit {done.returncode}):\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(name: str, better: str, parent: list[float], change: list[float]) -> list[str]:
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if (c - p) * sign > 0)
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    gap = (c_med - p_med) * sign + 0.0  # + 0.0: no "-0" for a tie
    holds = wins * 10 >= 9 * len(parent) and gap > p3 - p1
    lines = [f"{name} ({better} is better)"]
    for i, (p, c) in enumerate(zip(parent, change), 1):
        lines.append(f"  pair {i:2d}: parent {p:.6g}  change {c:.6g}")
    lines.append(f"  parent median {p_med:.6g}  quartiles {p1:.6g} {p3:.6g}  IQR {p3 - p1:.6g}")
    lines.append(f"  change median {c_med:.6g}  quartiles {c1:.6g} {c3:.6g}")
    lines.append(f"  change wins {wins} of {len(parent)}; median gap in its favour "
                 f"{gap:.6g}; gain rule {'holds' if holds else 'does not hold'}")
    ratios = [c / p for p, c in zip(parent, change) if p]
    lines.append("  median per-pair change/parent ratio "
                 + (f"{statistics.median(ratios):.4f}" if ratios else "n/a (parent reads 0)"))
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((roots["parent"] / "BENCHMARK.json").read_text())
    values: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
    failed = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(roots[side], args.workload, args.seed, args.seconds)
            failed[side].append(f"{result['failed']}/{result['attempted']}")
            for name, metric in result["metrics"].items():
                values[side].setdefault(name, []).append(metric["value"])
        print(f"pair {pair + 1} done ({order[0]} first)", file=sys.stderr, flush=True)
    print(f"workload {args.workload} seed {args.seed}: {args.pairs} pairs, "
          f"seconds {args.seconds if args.seconds is not None else 'run.py default'}")
    print(f"failed/attempted per run: parent {' '.join(failed['parent'])}; "
          f"change {' '.join(failed['change'])}")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        if name in values["parent"] and name in values["change"]:
            print("\n".join(verdict(name, metric["better"], values["parent"][name],
                                    values["change"][name])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
