"""Figures that a behaviour change moves, kept in tests/golden/pins.json.

A test compares a figure it measured with its pin through `check`: message
counts per timeout branch, the tracer's call counts, route hop histograms.
The command that regenerates the golden documents,

    PYTHONPATH=src python tests/test_golden.py

runs the suite with `recording` set. Then `check` keeps each measured figure
instead of comparing it, and the command rewrites the file and prints each
leaf that moved.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Any

PATH = Path(__file__).resolve().parent / "golden" / "pins.json"

# section -> name -> figure, filled while re-pinning; None while comparing.
recording: dict[str, dict[str, Any]] | None = None


@functools.cache
def pinned() -> dict[str, dict[str, Any]]:
    return json.loads(PATH.read_text(encoding="utf-8"))


def as_json(value: Any) -> Any:
    """The figure as the file holds it: tuples become lists, keys text."""
    return json.loads(json.dumps(value))


def check(section: str, name: str, value: Any) -> None:
    """Assert that `value` equals the pin `section.name`; record it instead
    while re-pinning."""
    if recording is not None:
        recording.setdefault(section, {})[name] = as_json(value)
        return
    expected = pinned()[section][name]
    assert as_json(value) == expected, f"{section}.{name}: measured {value!r}, pinned {expected!r}"


def dumps(pins: dict[str, dict[str, Any]]) -> str:
    return json.dumps(pins, indent=2, sort_keys=True) + "\n"
