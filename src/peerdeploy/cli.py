"""Command line front end.

`peerdeploy run <scenario>` executes a scenario file and emits the canonical
metrics document; `peerdeploy stats <metrics>` renders one for humans.
Exit codes: 0 success, 1 failed assertion or runtime failure, 2 anything
wrong with the inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Optional

from .errors import ScenarioParseError
from .scenario import run_scenario
from .simnet import check_document
from .store import Role


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="peerdeploy",
        description="deterministic overlay deployment simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("scenario", help="path to a scenario file")
    run_p.add_argument("--seed", type=int, default=None,
                       help="simulation seed (beats the file's seed line)")
    run_p.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write the metrics document here instead of stdout")
    run_p.add_argument("--random-ids", action="store_true",
                       help="draw node ids from the seeded RNG instead of "
                            "hashing node names")

    stats_p = sub.add_parser("stats", help="summarize a metrics document")
    stats_p.add_argument("metrics", help="path to a metrics JSON document")

    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_stats(args)


def _fail(message: str, code: int) -> int:
    print(f"peerdeploy: {message}", file=sys.stderr)
    return code


def _cmd_run(args: argparse.Namespace) -> int:
    if args.seed is not None and args.seed < 0:
        return _fail("--seed must be >= 0", 2)  # as a seed line must be
    try:
        result = run_scenario(args.scenario, seed=args.seed, random_ids=args.random_ids)
    except (OSError, UnicodeDecodeError) as exc:
        return _fail(f"cannot read scenario: {exc}", 2)
    except ScenarioParseError as exc:
        where = f"{args.scenario}:{exc.line}: " if exc.line else ""
        return _fail(f"{where}{exc}", 2)

    text = result.serialized()
    if args.metrics_out:
        try:
            with open(args.metrics_out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            return _fail(f"cannot write metrics: {exc}", 2)
    else:
        sys.stdout.write(text)
    if result.diagnostic:
        print(f"peerdeploy: {result.diagnostic}", file=sys.stderr)
    return result.exit_code


def _load_document(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        document = json.load(fh)
    check_document(document)
    return document


def _percentile(histogram: dict[int, int], q: float) -> int:
    total = sum(histogram.values())
    if total == 0:
        return 0
    target = math.ceil(q * total)
    running = 0
    for hops in sorted(histogram):
        running += histogram[hops]
        if running >= target:
            return hops


def _cmd_stats(args: argparse.Namespace) -> int:
    try:
        document = _load_document(args.metrics)
    except OSError as exc:
        return _fail(f"cannot read metrics: {exc}", 2)
    except (json.JSONDecodeError, ValueError, RecursionError) as exc:
        return _fail(f"malformed metrics document: {exc}", 2)

    print(f"clock {document['clock']}  seed {document['seed']}  "
          f"live nodes {document['live_nodes']}")
    print(f"events {document['events_processed']}  "
          f"evictions {document['evictions']}  "
          f"node failures {document['node_failures']}")

    operations = document["operations"]
    print()
    print(f"{'operation':<12} {'count':>7} {'failed':>7} "
          f"{'mean':>7} {'p50':>4} {'p90':>4} {'p99':>4} {'max':>4}")
    for op_kind in sorted(operations):
        op = operations[op_kind]
        hops = op["hops"]
        histogram = {int(h): c for h, c in hops["histogram"].items()}
        print(f"{op_kind:<12} {op['count']:>7} {op['failures']:>7} "
              f"{hops['mean']:>7.3f} "
              f"{_percentile(histogram, 0.50):>4} "
              f"{_percentile(histogram, 0.90):>4} "
              f"{_percentile(histogram, 0.99):>4} "
              f"{hops['max']:>4}")
    if not operations:
        print("(no operations recorded)")

    dumps = document["dumps"]
    print()
    if not dumps:
        print("per-node load: no dump recorded")
        print("per-key replicas: no dump recorded")
        return 0

    latest = dumps[-1]
    print(f"per-node load (dump at clock {latest['clock']}):")
    print(f"  {'node':<12} {'id':<32} {'entries':>7} {'bytes':>10}")
    replicas: dict[str, int] = {}
    for node in latest["nodes"]:
        entries = node["entries"]
        print(f"  {node['name']:<12} {node['id']:<32} {len(entries):>7} {node['bytes']:>10}")
        for entry in entries:
            if entry["role"] != Role.TRAIL.value:
                replicas[entry["name"]] = replicas.get(entry["name"], 0) + 1

    print()
    print("per-key replicas (payload-bearing entries in that dump):")
    if not replicas:
        print("  (none)")
    for name in sorted(replicas, key=lambda n: (-replicas[n], n)):
        print(f"  {name:<24} {replicas[name]:>4}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
