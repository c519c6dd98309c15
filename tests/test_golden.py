"""Golden metrics documents: fixed-seed scenario runs compared byte for byte.

Each case replays a scenario under tests/golden/ and compares its canonical
metrics document with the committed file next to it. A change that is meant
to keep behaviour must leave every document identical. A change that is meant
to alter behaviour regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says in its description which fields moved and why.
"""

import json
import sys
from pathlib import Path

import pytest

from peerdeploy.scenario import run_scenario
from peerdeploy.simnet import check_document

GOLDEN = Path(__file__).resolve().parent / "golden"

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


if __name__ == "__main__":
    for case in CASES:
        golden_path(*case).write_text(replay(*case), encoding="utf-8")
        print(f"wrote {golden_path(*case)}", file=sys.stderr)
