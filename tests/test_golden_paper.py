"""Paper-scale golden regression.

The ``small``-scale snapshots in ``test_golden_experiments.py`` pin the
models at unit-test sizes; this module replays all nine experiments at
the paper's own workload sizes and pins them to snapshots under
``tests/golden/paper/``.  It runs with the rest of the suite.

Regenerating after an intentional change:

    PYTHONPATH=src python -m pytest tests/test_golden_paper.py \
        --update-golden

The comparison is exact (JSON round-trip, repr-faithful floats), same
as the small-scale lane.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

import pytest

from repro.engine import Engine
from repro.experiments import report

from test_golden_experiments import (
    SLUGS,
    _canonical,
    _first_difference,
    assert_dispatches_are_rare,
    dispatch_shares,
)

GOLDEN_DIR = Path(__file__).parent / "golden" / "paper"
SCALE = "paper"
SEED = 0


@pytest.fixture(scope="module")
def engine() -> Engine:
    return Engine()


@pytest.fixture(scope="module")
def results(engine) -> Dict[str, object]:
    """All nine experiments at paper scale, run once."""
    return dict(zip(SLUGS, report.run_all(SCALE, SEED, engine=engine)))


@pytest.mark.parametrize("slug", SLUGS)
def test_golden_paper(slug, results, request):
    payload = _canonical(results[slug])
    path = GOLDEN_DIR / f"{slug}.json"
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return
    assert path.exists(), (
        f"missing snapshot {path}; generate it with "
        f"pytest tests/test_golden_paper.py --update-golden"
    )
    golden = json.loads(path.read_text(encoding="utf-8"))
    drift = _first_difference(golden, payload)
    assert payload == golden, (
        f"{slug} drifted from its paper-scale golden snapshot (first "
        f"difference: {drift}); if intentional, regenerate with "
        f"--update-golden and review the diff"
    )


def test_structured_code_dispatches_rarely(engine, results):
    assert_dispatches_are_rare(dispatch_shares(engine, SCALE), 0.02)
