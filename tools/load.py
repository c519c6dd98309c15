"""Report where a scenario's load lands: deliveries per node by kind, and
stored bytes per node.

    python3 tools/load.py SCENARIO [--seed N] [--random-ids]

Runs the scenario as `peerdeploy run` does (the seed comes from `--seed`,
else from the file's `seed` line, else 0) with a wrapper on
`SimNetwork._step` that reads the event at the head of the queue and, when
the step delivered it, counts one delivery of its kind to its receiver. The
program itself is not changed: the wrapper is removed when the run ends.

Nodes are ranked in the order they joined (first registration). The report
gives, for LOOKUP and for all kinds together, the total, the max, the median
and the mean per node, and the share the first 16 joiners received; the
stored bytes (payload bytes of every entry) per live node; and then one line
per node with its stored bytes and its deliveries by kind. Every node ever
registered counts, departed ones included, so the median is over the nodes
that could have been loaded. Uses only the standard library and the
checkout's own sources.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from peerdeploy.scenario import ScenarioRunner, parse_scenario  # noqa: E402
from peerdeploy.simnet import SimNetwork  # noqa: E402

FIRST = 16  # the early joiners whose share of the load is reported


def run_counted(path: Path, seed: int | None, random_ids: bool):
    """Run the scenario; returns (runner, node id -> Counter of delivered kinds)."""
    scenario = parse_scenario(path.read_text(encoding="utf-8"),
                              base_dir=os.path.dirname(os.path.abspath(path)))
    runner = ScenarioRunner(scenario, seed=seed if seed is not None else (scenario.seed or 0),
                            random_ids=random_ids)
    delivered: dict[int, Counter] = {}
    original = SimNetwork._step

    def step(net: SimNetwork) -> None:
        msg = net._queue[0][3]
        kind = msg.kind.value
        before = net.metrics.delivered.get(kind, 0)
        original(net)
        if net.metrics.delivered.get(kind, 0) != before:
            delivered.setdefault(msg.to_id, Counter())[kind] += 1

    SimNetwork._step = step
    try:
        result = runner.run()
    finally:
        SimNetwork._step = original
    if result.exit_code != 0:
        print(f"load: the scenario stopped early: {result.diagnostic}", file=sys.stderr)
    return runner, delivered


def summary(label: str, loads: list[int]) -> str:
    total = sum(loads)
    share = sum(loads[:FIRST]) / total if total else 0.0
    return (f"{label:<10} total {total:>9}  max {max(loads):>7}  "
            f"median {statistics.median(loads):>8.1f}  mean {statistics.fmean(loads):>9.2f}  "
            f"first {FIRST} joiners {100 * share:5.1f} % (fair share "
            f"{100 * min(FIRST, len(loads)) / len(loads):.1f} %)")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("scenario", type=Path)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--random-ids", action="store_true")
    args = parser.parse_args(argv)
    runner, delivered = run_counted(args.scenario, args.seed, args.random_ids)
    net = runner.net
    order = list(net.nodes)  # registration order
    if not order:
        print("load: the scenario registered no node")
        return 1
    counts = [delivered.get(node_id, Counter()) for node_id in order]
    stored = {node_id: net.nodes[node_id].store.total_bytes() for node_id in net.live_ids()}
    print(f"{len(order)} nodes registered, {len(stored)} live at the end, "
          f"seed {net.seed}, clock {net.clock}")
    print(summary("LOOKUP", [c["LOOKUP"] for c in counts]))
    print(summary("all kinds", [sum(c.values()) for c in counts]))
    byte_loads = list(stored.values()) or [0]
    print(f"{'bytes':<10} total {sum(byte_loads):>9}  max {max(byte_loads):>7}  "
          f"median {statistics.median(byte_loads):>8.1f}  (live nodes)")
    for rank, node_id in enumerate(order):
        kinds = " ".join(f"{kind}={n}" for kind, n in sorted(counts[rank].items()))
        print(f"node {rank} {net.nodes[node_id].name} bytes {stored.get(node_id, 0)} {kinds}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
