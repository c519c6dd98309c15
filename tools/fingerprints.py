"""Print the outputs a behaviour-preserving change must leave untouched.

    python3 tools/fingerprints.py [CHECKOUT] > fingerprints.txt
    python3 tools/fingerprints.py --check [CHECKOUT]

One line per run: the sha1 of `peerdeploy run demos/sample.scenario` at
seeds 42, 1 and 7, with hashed and with random ids; the sha1 of the metrics
document of a runner workload (`create 1024`, `workload zipf 1024 3000 1000
1.0`, seed 42, about 5 s), which pins every bundle's root and the replica
sample; the exit code and the sha1 of stderr of `peerdeploy run` on each of
a fixed list of invalid scenarios (text errors, every kind of
descriptor-file error, and a file with both); the exit code and the sha1 of
`peerdeploy stats` on each golden document STATS_DOCUMENTS names (a fixed
list, so adding a golden document moves no line; a listed one that is absent
prints a `missing` line); the sha1 of `repo.resolve` on every bundle of 300
seeded random indexes (cycles, shared exports, mixed versions, unexported
imports), which pins install order; then for every perfbench workload at
seeds 201 and 305 the `perfbench/run.py --trace 1` fingerprint, failed count
and every per-layer metric that is not a timing. CHECKOUT defaults to the
checkout this script sits in. Run it in two checkouts and diff the outputs:
an empty diff means the two behave alike on these runs. With --check it
compares every line with the checkout's committed tests/golden/fingerprints.txt,
prints each line that moved as `- old` / `+ new`, and exits 1 if any did.
Uses only the standard library; perfbench runs as a subprocess, unchanged.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SCENARIO = "demos/sample.scenario"
SCENARIO_SEEDS = (42, 1, 7)
WORKLOAD_SCENARIO = "create 1024\nworkload zipf 1024 3000 1000 1.0\n"
WORKLOAD_SEED = 42
WORKLOADS = ("zipf_fetch", "churn_deploy", "idle_expiry")
STATS_DOCUMENTS = tuple(f"tests/golden/{name}.json" for name in (
    "churn_fail", "every_verb", "every_verb.random-ids", "faults", "handoff.random-ids",
    "sample", "sample.seed1", "sample.seed7", "zipf_advance"))
BENCH_SEEDS = (201, 305)
# The committed output, which `--check` compares every line with and the
# golden regeneration (`PYTHONPATH=src python tests/test_golden.py`) rewrites.
COMMITTED = "tests/golden/fingerprints.txt"
# Runs the CLI from the checkout's own sources, whatever else is installed.
CLI = ("import sys; sys.path.insert(0, {src!r}); from peerdeploy.cli import main; "
       "sys.exit(main())")

# Invalid scenarios, run as `peerdeploy run s.scenario` next to a descriptor
# file b.index: (scenario text, b.index text or None for no file). b.index is
# written with surrogateescape, so "\udcff" stands for the byte 0xff.
RECORD = """# generated_at: 0

name: b.jar
version: 1.0
digest: 0123456789abcdef0123456789abcdef
size: 4096
start:
imports: a
exports: b
uri: p2p://b.jar
"""
PUBLISH = "create 2\npublish n1 b.jar b.index\n"
INVALID = {
    "unknown-command": ("create 2\nfrobnicate 3\n", None),
    "usage": ("create 2\npublish n0\n", None),
    "not-live": ("create 2\nlookup n5 x.jar\n", None),
    "not-an-integer": ("create x\n", None),
    "too-many-nodes": ("create 4097\n", None),
    "seed-after-commands": ("create 1\nseed 4\n", None),
    "workload-without-nodes": ("workload zipf 1 1 1 1.0\n", None),
    "bad-predicate": ("create 2\nassert bogus(n0)\n", None),
    "not-p2p": ("create 2\ninstall n0 http://other/x.jar\n", None),
    "descriptor-missing": (PUBLISH, None),
    "descriptor-not-utf8": (PUBLISH, RECORD + "\udcff"),
    "descriptor-truncated": (PUBLISH, RECORD.split("start:")[0]),
    "descriptor-out-of-order": (PUBLISH, RECORD.replace("version: 1.0\ndigest", "digest")
                                .replace("size:", "version: 1.0\nsize:")),
    "descriptor-unknown-key": (PUBLISH, RECORD.replace("start:", "entry:")),
    "descriptor-not-key-value": (PUBLISH, RECORD.replace("start:", "start")),
    "descriptor-name": (PUBLISH, RECORD.replace("name: b.jar", "name: b/jar")),
    "descriptor-version": (PUBLISH, RECORD.replace("version: 1.0", "version: 1.x")),
    "descriptor-digest": (PUBLISH, RECORD.replace("digest: 0123", "digest: 0")),
    "descriptor-size": (PUBLISH, RECORD.replace("size: 4096", "size: 12x")),
    "descriptor-generated-at": (PUBLISH, RECORD.replace("at: 0", "at: x")),
    "descriptor-imports": (PUBLISH, RECORD.replace("imports: a", "imports: a,")),
    "descriptor-exports": (PUBLISH, RECORD.replace("exports: b", "exports: ,b")),
    "descriptor-uri": (PUBLISH, RECORD.replace("uri: p2p://b.jar", "uri: p2p://b/c")),
    "descriptor-duplicate": (PUBLISH, RECORD + RECORD.split("\n", 1)[1]),
    "descriptor-no-record": (PUBLISH, RECORD.replace("b.jar", "c.jar")),
    "text-and-descriptor": (PUBLISH + "frobnicate\n",
                            RECORD.replace("size: 4096", "size: 12x")),
}


# Resolves every bundle of each of argv[1] seeded indexes with the checkout's
# own sources and prints the sha1 of the install orders, or of the error each
# resolve raised.
RESOLVE = """
import hashlib, random, sys
sys.path.insert(0, 'src')
from peerdeploy.errors import PeerDeployError
from peerdeploy.repo import ComponentDescriptor, RepositoryIndex, resolve
digest = hashlib.sha1()
for seed in range(int(sys.argv[1])):
    rng = random.Random(seed)
    count = rng.randrange(1, 41)
    packages = [f"p{i}" for i in range(rng.randrange(1, count + 1))]
    index = RepositoryIndex()
    for i in range(count):
        index.add(ComponentDescriptor(
            name=f"b{i}", version=f"{rng.randrange(3)}.{rng.randrange(3)}",
            digest=f"{i:032x}", size=i,
            imports=rng.sample(packages, rng.randrange(min(4, len(packages)) + 1)),
            exports=rng.sample(packages, rng.randrange(min(3, len(packages)) + 1))))
    for i in range(count):
        try:
            order = [(group.members, group.cycle) for group in resolve(index, f"b{i}")]
        except PeerDeployError as exc:
            order = type(exc).__name__
        digest.update(repr((seed, i, order)).encode())
print(digest.hexdigest())
"""
RESOLVE_INDEXES = 300


def cli(root: Path, *args: str) -> list[str]:
    return [sys.executable, "-c", CLI.format(src=str(root / "src")), *args]


def scenario_line(root: Path, seed: int, random_ids: bool) -> str:
    command = cli(root, "run", SCENARIO, "--seed", str(seed))
    if random_ids:
        command.append("--random-ids")
    done = subprocess.run(command, cwd=root, capture_output=True)
    ids = "random" if random_ids else "hashed"
    return (f"scenario {SCENARIO} seed {seed} ids {ids} exit {done.returncode} "
            f"sha1 {hashlib.sha1(done.stdout).hexdigest()}")


def workload_line(root: Path) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.scenario"
        path.write_text(WORKLOAD_SCENARIO, encoding="utf-8")
        done = subprocess.run(cli(root, "run", str(path), "--seed", str(WORKLOAD_SEED)),
                              cwd=root, capture_output=True)
    return (f"workload {WORKLOAD_SCENARIO.strip()!r} seed {WORKLOAD_SEED} "
            f"exit {done.returncode} sha1 {hashlib.sha1(done.stdout).hexdigest()}")


def invalid_line(root: Path, name: str) -> str:
    scenario, index = INVALID[name]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp).resolve()
        (work / "s.scenario").write_text(scenario, encoding="utf-8")
        if index is not None:
            (work / "b.index").write_bytes(index.encode("utf-8", "surrogateescape"))
        done = subprocess.run(cli(root, "run", "s.scenario"), cwd=work, capture_output=True)
    # The directory's name varies from run to run; an OS error message quotes it.
    stderr = done.stderr.replace(str(work).encode(), b"<dir>")
    return (f"invalid {name} exit {done.returncode} "
            f"sha1 {hashlib.sha1(stderr).hexdigest()}")


def stats_line(root: Path, document: str) -> str:
    if not (root / document).is_file():
        return f"stats {document} missing"
    done = subprocess.run(cli(root, "stats", document), cwd=root, capture_output=True)
    return (f"stats {document} exit {done.returncode} "
            f"sha1 {hashlib.sha1(done.stdout).hexdigest()}")


def resolve_line(root: Path) -> str:
    done = subprocess.run([sys.executable, "-c", RESOLVE, str(RESOLVE_INDEXES)], cwd=root,
                          capture_output=True, text=True)
    return (f"resolve {RESOLVE_INDEXES} random indexes exit {done.returncode} "
            f"sha1 {done.stdout.strip()}")


def bench_line(root: Path, workload: str, seed: int) -> str:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--trace", "1"]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    head = f"perfbench {workload} seed {seed}"
    if done.returncode != 0 or not lines:
        return f"{head} exit {done.returncode}"
    found = re.search(r"fingerprint (\{.*\})$", done.stdout, re.MULTILINE)
    fingerprint = json.loads(found.group(1)) if found else None
    result = json.loads(lines[-1])
    layers = {name: metric["value"] for name, metric in result["metrics"].items()
              if metric["unit"] != "s"}
    return (f"{head} failed {result['failed']} "
            f"fingerprint {json.dumps(fingerprint, sort_keys=True)} "
            f"metrics {json.dumps(layers, sort_keys=True)}")


def lines(root: Path, bench: bool = True):
    """Every fingerprint line of `root`, in order; the perfbench lines come
    last and only with `bench`."""
    for seed in SCENARIO_SEEDS:
        for random_ids in (False, True):
            yield scenario_line(root, seed, random_ids)
    yield workload_line(root)
    for name in INVALID:
        yield invalid_line(root, name)
    for document in STATS_DOCUMENTS:
        yield stats_line(root, document)
    yield resolve_line(root)
    if bench:
        for workload in WORKLOADS:
            for seed in BENCH_SEEDS:
                yield bench_line(root, workload, seed)


def diff(committed: list[str], measured: list[str]) -> list[str]:
    """`- old` and `+ new` for each line that moved, by position; a line that
    only one side has reads `-` on the other."""
    out = []
    for old, new in itertools.zip_longest(committed, measured, fillvalue="-"):
        if old != new:
            out += [f"- {old}", f"+ {new}"]
    return out


def main(argv: list[str]) -> int:
    check = "--check" in argv
    argv = [arg for arg in argv if arg != "--check"]
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    if not check:
        for line in lines(root):
            print(line, flush=True)
        return 0
    committed = (root / COMMITTED).read_text(encoding="utf-8").splitlines()
    moved = diff(committed, list(lines(root)))
    for line in moved:
        print(line)
    print(f"{len(committed)} committed lines, {len(moved) // 2} moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
