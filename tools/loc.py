"""Count the code lines of the package in one or more checkouts.

    python3 tools/loc.py [CHECKOUT ...]

A code line is one that is neither blank nor a comment (docstrings count).
For each module of src/peerdeploy in any checkout, one row gives its count
in each checkout ("-" where the module is missing), and a last row gives the
totals. CHECKOUT defaults to the checkout this script sits in. Uses only the
standard library.
"""

from __future__ import annotations

import sys
from pathlib import Path

PACKAGE = Path("src/peerdeploy")


def code_lines(path: Path) -> int:
    lines = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return sum(1 for line in lines if line and not line.startswith("#"))


def main(argv: list[str]) -> int:
    roots = [Path(arg) for arg in argv] or [Path(__file__).resolve().parent.parent]
    counts = [{path.name: code_lines(path) for path in sorted((root / PACKAGE).glob("*.py"))}
              for root in roots]
    modules = sorted(set().union(*counts))
    width = max([len("total")] + [len(name) for name in modules])
    columns = [max(len(str(root)), 6) for root in roots]
    print(" ".join([" " * width] + [str(root).rjust(w) for root, w in zip(roots, columns)]))
    for name in modules:
        print(" ".join([name.ljust(width)] + [str(count.get(name, "-")).rjust(w)
                                              for count, w in zip(counts, columns)]))
    print(" ".join(["total".ljust(width)] + [str(sum(count.values())).rjust(w)
                                             for count, w in zip(counts, columns)]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
