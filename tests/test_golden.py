"""Golden metrics documents: fixed-seed scenario runs compared byte for byte.

Each case replays a scenario under tests/golden/ and compares its canonical
metrics document with the committed file next to it. A second test compares
the committed output of tools/fingerprints.py, bar its perfbench lines, with
what the checkout prints now. A change that is meant to keep behaviour must
leave every document, every fingerprint and every pin in pins.json
identical. A change that is meant to alter behaviour regenerates all three
with

    PYTHONPATH=src python tests/test_golden.py

which rewrites every document, fingerprints.txt and pins.json, and prints one
`<document>: <dotted.path>: old → new` line per leaf that moved, one
`fingerprints.txt: - old` / `+ new` pair per line that moved, and nothing
when none did. The change says in its description which fields moved and
why.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from peerdeploy.scenario import run_scenario
from peerdeploy.simnet import check_document

import pins

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
sys.path.insert(0, str(ROOT / "tools"))

import fingerprints  # noqa: E402

# (scenario file, seed override or None for the file's own, random ids)
CASES = [
    ("sample.scenario", None, False),
    ("sample.scenario", 1, False),
    ("sample.scenario", 7, False),
    ("churn_fail.scenario", None, False),
    ("zipf_advance.scenario", None, False),
    ("handoff.scenario", None, True),
    ("every_verb.scenario", None, False),
    ("every_verb.scenario", None, True),
    ("faults.scenario", None, False),
]


def golden_path(scenario: str, seed, random_ids: bool) -> Path:
    stem = scenario.removesuffix(".scenario")
    suffix = f".seed{seed}" if seed is not None else ""
    suffix += ".random-ids" if random_ids else ""
    return GOLDEN / f"{stem}{suffix}.json"


def replay(scenario: str, seed, random_ids: bool) -> str:
    result = run_scenario(str(GOLDEN / scenario), seed=seed, random_ids=random_ids)
    assert result.exit_code == 0, result.diagnostic
    return result.serialized()


@pytest.mark.parametrize("scenario,seed,random_ids", CASES,
                         ids=[golden_path(*case).stem for case in CASES])
def test_metrics_document_matches_golden(scenario, seed, random_ids):
    expected = golden_path(scenario, seed, random_ids).read_text(encoding="utf-8")
    assert replay(scenario, seed, random_ids) == expected
    check_document(json.loads(expected))


def leaves(value, path: str = "") -> dict:
    """Each leaf of a JSON value by its dotted path; list items go by index."""
    if not isinstance(value, (dict, list)):
        return {path: value}
    items = value.items() if isinstance(value, dict) else enumerate(value)
    out = {}
    for key, item in items:
        out.update(leaves(item, f"{path}.{key}" if path else str(key)))
    return out


def moved_leaves(old_text: str, new_text: str) -> list[str]:
    """`path: old → new` for each leaf that differs; an absent side reads `-`."""
    old, new = ({path: json.dumps(value) for path, value in leaves(json.loads(text)).items()}
                for text in (old_text, new_text))
    return [f"{path}: {old.get(path, '-')} → {new.get(path, '-')}"
            for path in {**new, **old}  # new's order, then the paths it dropped
            if old.get(path) != new.get(path)]


def test_moved_leaves_names_each_changed_leaf_once():
    old = '{"clock": 5, "ops": {"lookup": [1, 2]}, "gone": true}'
    new = '{"clock": 5, "ops": {"lookup": [1, 3, 4]}}'
    assert moved_leaves(old, new) == ["ops.lookup.1: 2 → 3", "ops.lookup.2: - → 4",
                                      "gone: true → -"]
    assert moved_leaves(new, new) == []


def test_fingerprints_match_the_committed_lines():
    committed = (ROOT / fingerprints.COMMITTED).read_text(encoding="utf-8").splitlines()
    assert len(committed) == 49
    # The perfbench lines take twice as long as the rest together;
    # `python3 tools/fingerprints.py --check` compares those too.
    assert list(fingerprints.lines(ROOT, bench=False)) == [
        line for line in committed if not line.startswith("perfbench ")]


def repin() -> list[str]:
    """Run the suite with pins recording, rewrite pins.json, and return its
    moved leaves; raise if any test fails, since a failing test records
    nothing."""
    pins.recording = {}
    output = io.StringIO()
    with contextlib.redirect_stdout(output):
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(GOLDEN.parent)])
    if code != 0:
        raise SystemExit(output.getvalue() + "pins.json not rewritten: the suite failed")
    text = pins.dumps(pins.recording)
    moved = moved_leaves(pins.PATH.read_text(encoding="utf-8"), text)
    pins.PATH.write_text(text, encoding="utf-8")
    return moved


if __name__ == "__main__":
    for case in CASES:
        path = golden_path(*case)
        text = replay(*case)
        if not path.exists():
            print(f"{path.name}: new document")
        else:
            for line in moved_leaves(path.read_text(encoding="utf-8"), text):
                print(f"{path.name}: {line}")
        path.write_text(text, encoding="utf-8")
    committed = ROOT / fingerprints.COMMITTED
    measured = list(fingerprints.lines(ROOT))
    for line in fingerprints.diff(committed.read_text(encoding="utf-8").splitlines(), measured):
        print(f"fingerprints.txt: {line}")
    committed.write_text("".join(f"{line}\n" for line in measured), encoding="utf-8")
    for line in repin():
        print(f"pins.json: {line}")
