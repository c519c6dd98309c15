"""List the lines of the package that the test suite never runs.

    python3 tools/unrun.py [PYTEST_ARG ...]

Runs pytest in this process (by default the tier-1 run, `pytest -q
--continue-on-collection-errors` from the checkout root) under a
`sys.settrace` hook that records only frames whose code lives in
src/peerdeploy. It then prints every executable line of src/peerdeploy that
never ran, as `path:line: source`, and one count of them per module. A line
is executable when the compiler gave it a line-start instruction, so blank
lines, comments and docstrings never show.

Code that only a subprocess reaches (the CLI tests, tools that run a
checkout) is not seen: the hook lives in this process alone, so such lines
are listed as never run. The trace makes the suite about five times slower.
Exits with pytest's exit code. Uses only the standard library and pytest.
"""

from __future__ import annotations

import dis
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "peerdeploy"


def executable_lines(path: Path) -> set[int]:
    """Line numbers that start an instruction in the module or any code in it."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line is not None)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_code"))
    return lines


def traced_run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under the hook; returns its exit code and the lines run per file."""
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    import pytest  # after the path is set, before the package is imported

    os.chdir(ROOT)
    sys.settrace(global_)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return int(code), ran


def main(argv: list[str]) -> int:
    code, ran = traced_run(argv or ["-q", "--continue-on-collection-errors"])
    counts: dict[str, int] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(executable_lines(path) - ran.get(str(path), set()))
        source = path.read_text(encoding="utf-8").splitlines()
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
        counts[path.name] = len(missed)
    for name, count in counts.items():
        print(f"{name:<14}{count:>5} lines never run")
    print(f"{'total':<14}{sum(counts.values()):>5} lines never run")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
