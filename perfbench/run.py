"""peerdeploy benchmark.

    python3 perfbench/run.py --workload zipf_fetch --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, one fresh process each

Run from the root of a checkout; the program is imported from its `src/`.
A run repeats trials of one workload, each a fresh set-up and the same fixed
measured phase, until `--seconds` have passed (at least five trials), and
reports medians over the trials. `--trace 1` runs one plain trial and one
traced trial instead and reports the per-layer metrics. The last line of
standard output is a JSON object: correct, attempted, failed, metrics. With
no `--workload`, it is an object of those, keyed by workload name.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("zipf_fetch", "churn_deploy", "idle_expiry")
MIN_TRIALS = 5
MAX_TRIALS = 25


def load_program() -> None:
    """Import peerdeploy from this checkout's sources, never from elsewhere."""
    package = ROOT / "src" / "peerdeploy"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no peerdeploy sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import peerdeploy
    if Path(peerdeploy.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported peerdeploy from {peerdeploy.__file__}")


def percentile(values: list[int], q: float) -> int:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def outcome(trial) -> dict:
    """What a trial's program did, independent of how long it took."""
    return {"fingerprint": trial.fingerprint, "hops": trial.hops, "ticks": trial.ticks,
            "messages": trial.messages, "ops": trial.ops, "failed": trial.failed}


def end_to_end(trials, peak_rss_mib: float) -> dict:
    first = trials[0]
    return {
        "setup_s": (statistics.median(t.setup.cpu for t in trials), "s"),
        "ops_per_s": (first.ops / statistics.median(t.measured.cpu for t in trials), "ops/s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "lookup_hops_mean": (statistics.fmean(first.hops), "hops"),
        "lookup_ticks_p50": (percentile(first.ticks, 0.50), "ticks"),
        "lookup_ticks_p99": (percentile(first.ticks, 0.99), "ticks"),
        "msgs_per_op": (first.messages / first.ops, "msgs/op"),
    }


def run_plain(workload, seed: int, seconds: float):
    from workloads import CheckFailed
    started = time.perf_counter()
    trials = [workload(seed).run()]
    # The peak of a process that has run one trial: later trials would add
    # the harness's own records of the earlier ones.
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(trials) < MIN_TRIALS or (
            time.perf_counter() - started < seconds and len(trials) < MAX_TRIALS):
        trial = workload(seed).run()
        if outcome(trial) != outcome(trials[0]):
            raise CheckFailed(f"trial {len(trials) + 1} behaved differently from trial 1")
        trial.hops = trial.ticks = None  # only the first trial's are reported
        trials.append(trial)
    for i, t in enumerate(trials, 1):
        print(f"trial {i}: setup {t.setup.cpu:.4f} s cpu / {t.setup.wall:.4f} s wall, "
              f"measured {t.measured.cpu:.4f} s cpu / {t.measured.wall:.4f} s wall, "
              f"{t.ops} ops")
    return trials, end_to_end(trials, peak_rss_mib)


def run_traced(workload, seed: int, spans_path: Path):
    from tracing import Tracer
    from workloads import CheckFailed
    plain = workload(seed).run()
    tracer = Tracer().install()
    try:
        traced = workload(seed, tracer).run()
    finally:
        tracer.uninstall()
    if outcome(traced) != outcome(plain):
        raise CheckFailed("the traced trial behaved differently from the plain one")
    metrics = tracer.metrics()
    metrics["simnet.events"] = (traced.fingerprint["events"], "count")
    metrics["simnet.messages"] = (traced.fingerprint["messages"], "count")
    metrics["simnet.timeouts"] = (traced.fingerprint["timeouts"], "count")
    metrics["store.entries_end"] = (traced.entries_end, "count")
    metrics["trace.overhead_s"] = (traced.measured.cpu - plain.measured.cpu, "s")
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(str(spans_path))
    print(f"spans: {len(tracer.span_name)} written to {spans_path}")
    return [plain, traced], metrics


def run_one(args) -> int:
    load_program()
    from workloads import WORKLOADS, CheckFailed
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            spans = HERE / "out" / f"spans-{args.workload}.tsv.gz"
            trials, metrics = run_traced(workload, args.seed, spans)
        else:
            trials, metrics = run_plain(workload, args.seed, args.seconds)
    except CheckFailed as exc:
        print(f"check failed: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    first = trials[0]
    print(f"workload {args.workload} seed {args.seed}: {len(trials)} trials, "
          f"{first.ops} ops and {first.failed} failed per trial; "
          f"fingerprint {json.dumps(first.fingerprint, sort_keys=True)}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:36s} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": sum(t.ops for t in trials),
        "failed": sum(t.failed for t in trials),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mib is that workload's."""
    results = {}
    for name in NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    print(json.dumps(results))
    return 0 if all(r is not None and r["correct"] for r in results.values()) else 1


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
