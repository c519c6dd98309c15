"""Mutation score of the test suite over a seeded sample of one-operator mutants.

    python3 tools/mutants.py [CHECKOUT] [--modules simnet,store] [--count 80] [--seed 7]

A mutant changes one site of one module of src/peerdeploy: it flips a
comparison (`<` and `<=`, `>` and `>=`, `==` and `!=`, `is` and `is not`,
`in` and `not in`), swaps `and`/`or`, drops a `not`, adds 1 to an int
constant, or swaps `+`/`-`. The script enumerates every site in the named
modules (all of them by default), draws `--count` of them with
`random.Random(--seed)`, and runs `python -m pytest -x -q` once per mutant in
a temporary copy of CHECKOUT (default: the checkout this script sits in);
the checkout itself is never written. It first runs the unmutated suite
there, which must pass; each mutant may take five times as long before it
counts as timed out. A mutant in EQUIVALENT is not run.

It prints killed, survived, timed out and equivalent per module, then each
survivor as `file:line old → new`. About 10 s per mutant, so it is not part
of tier-1. Uses only the standard library.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PACKAGE = Path("src/peerdeploy")
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
FLIP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
        ast.In: ast.NotIn, ast.NotIn: ast.In, ast.And: ast.Or, ast.Or: ast.And,
        ast.Add: ast.Sub, ast.Sub: ast.Add}

# (file, old, new) of mutants that change no behaviour, each with the reason.
EQUIVALENT = {
    ("simnet.py", "self._op_seq += 1", "self._op_seq += 2"): "op ids only need to be unique",
    ("simnet.py", "self._seq + 1", "self._seq + 2"): "the sequence only orders events",
    ("simnet.py", "self._seq += 1", "self._seq += 2"): "the sequence only orders events",
    ("simnet.py", "time > self.clock", "time >= self.clock"): "it assigns the same value",
    ("ids.py", "d <= ID_SPACE - d", "d < ID_SPACE - d"):
        "the two sides are equal at half the ring",
    ("routing.py", "LEAF_SET_SIZE = 8", "LEAF_SET_SIZE = 9"): "HALF_LEAF is still 4",
    ("scenario.py", "raw.split('#', 1)", "raw.split('#', 2)"): "only [0] is read",
    ("scenario.py", "PAYLOAD_SIZE = 4096", "PAYLOAD_SIZE = 4097"): "still 64 blocks",
}


def sites(tree: ast.Module) -> list[tuple[int, int]]:
    """(node index in ast.walk order, operand index) of every mutation site."""
    found = []
    for i, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            found += [(i, j) for j in range(len(node.ops))]
        elif (isinstance(node, (ast.BoolOp, ast.BinOp, ast.AugAssign))
              and type(node.op) in FLIP
              or isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not)
              or isinstance(node, ast.Constant) and type(node.value) is int):
            found.append((i, 0))
    return found


def mutate(source: str, site: tuple[int, int]) -> tuple[int, str, str, str]:
    """Apply one site to `source`: (line, old, new, mutated module text)."""
    tree = ast.parse(source)
    nodes = list(ast.walk(tree))
    parents = {id(child): parent for parent in nodes for child in ast.iter_child_nodes(parent)}
    node = nodes[site[0]]
    shown = parents[id(node)] if isinstance(node, ast.Constant) else node
    old = ast.unparse(shown)
    if isinstance(node, ast.Compare):
        node.ops[site[1]] = FLIP[type(node.ops[site[1]])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    elif isinstance(node, ast.UnaryOp):
        parent = parents[id(node)]
        for field, value in ast.iter_fields(parent):
            if value is node:
                setattr(parent, field, node.operand)
            elif isinstance(value, list) and node in value:
                value[value.index(node)] = node.operand
        shown = node.operand
    else:
        node.op = FLIP[type(node.op)]()
    return node.lineno, old, ast.unparse(shown), ast.unparse(tree)


def run_suite(root: Path, timeout: float | None) -> str:
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(PYTEST, cwd=root, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timed out"
    return "survived" if done.returncode == 0 else "killed"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--modules", help="comma-separated module names (default: all)")
    parser.add_argument("--count", type=int, default=80)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    package = args.checkout / PACKAGE
    names = args.modules.split(",") if args.modules else \
        sorted(path.stem for path in package.glob("*.py"))
    sources = {name: (package / f"{name}.py").read_text(encoding="utf-8") for name in names}
    every = [(name, site) for name in names for site in sites(ast.parse(sources[name]))]
    sample = sorted(random.Random(args.seed).sample(every, min(args.count, len(every))))

    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch) / "checkout"
        shutil.copytree(args.checkout, root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        start = time.perf_counter()
        if run_suite(root, None) != "survived":
            sys.exit(f"mutants: the unmutated suite fails in {args.checkout}")
        baseline = time.perf_counter() - start
        print(f"mutants: {len(sample)} of {len(every)} sites in {', '.join(names)} "
              f"(seed {args.seed}); unmutated suite {baseline:.1f} s")
        outcomes = {name: {"killed": 0, "survived": 0, "timed out": 0, "equivalent": 0}
                    for name in names}
        survivors = []
        for n, (name, site) in enumerate(sample, 1):
            line, old, new, text = mutate(sources[name], site)
            path = root / PACKAGE / f"{name}.py"
            if (f"{name}.py", old, new) in EQUIVALENT:
                outcome = "equivalent"
            else:
                path.write_text(text, encoding="utf-8")
                outcome = run_suite(root, 5 * baseline)
                path.write_text(sources[name], encoding="utf-8")
            outcomes[name][outcome] += 1
            if outcome == "survived":
                survivors.append(f"{PACKAGE / name}.py:{line} {old} → {new}")
            print(f"[{n}/{len(sample)}] {name}.py:{line} {outcome}", file=sys.stderr)

    columns = ("killed", "survived", "timed out", "equivalent")
    print(f"{'module':<12}" + "".join(f"{c:>12}" for c in columns))
    for name in names:
        print(f"{name:<12}" + "".join(f"{outcomes[name][c]:>12}" for c in columns))
    print(f"{'total':<12}" + "".join(
        f"{sum(o[c] for o in outcomes.values()):>12}" for c in columns))
    for survivor in survivors:
        print(survivor)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
