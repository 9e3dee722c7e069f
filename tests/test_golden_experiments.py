"""Golden-result regression tests for all nine experiments.

Each experiment's ``small``-scale output is snapshotted as JSON under
``tests/golden/``; any numeric drift — a model change, a trace change, a
float reordering — fails the comparison.  When a change is intentional,
regenerate the snapshots and review the diff:

    PYTHONPATH=src python -m pytest tests/test_golden_experiments.py \
        --update-golden

The comparison is exact: payloads round-trip through JSON (repr-faithful
floats), so even last-ulp drift is caught.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

import pytest

from repro.engine import Engine, result_payload
from repro.experiments import report
from repro.ir.interp import _Layout
from repro.workloads import ALL_WORKLOADS

GOLDEN_DIR = Path(__file__).parent / "golden"
SCALE = "small"
SEED = 0

#: snapshot slug -> position in :func:`report.run_all`'s paper order
SLUGS = ("fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
         "table4", "table6")


@pytest.fixture(scope="module")
def engine() -> Engine:
    """The dedicated engine the snapshots are computed with."""
    return Engine()


@pytest.fixture(scope="module")
def results(engine) -> Dict[str, object]:
    """All nine experiments, run once through a dedicated engine."""
    return dict(zip(SLUGS, report.run_all(SCALE, SEED, engine=engine)))


def dispatch_shares(engine: Engine, scale: str) -> Dict[str, tuple]:
    """Workload -> (``bid`` dispatches, block executions) of the compiled
    runs behind the report: the first dispatch plus every taken edge into
    a region head.  Reads the traces the engine already holds."""
    shares = {}
    for workload in ALL_WORKLOADS:
        kernel = engine.kernel(workload.short.lower(), scale, SEED)
        heads = _Layout(kernel.cdfg).heads  # what the generator used
        trace = kernel.trace
        dispatches = 1 + sum(count for (_, dst), count
                             in trace.edge_counts.items() if dst in heads)
        shares[workload.short] = (dispatches, trace.total_block_execs)
    return shares


def assert_dispatches_are_rare(shares: Dict[str, tuple], bound: float):
    """Structured code, not per-block dispatch, runs the workloads: at
    most ``bound`` of all block executions dispatch, and at most a tenth
    in any one workload.  Per-block dispatch would read 1.0."""
    for short, (dispatches, execs) in shares.items():
        assert dispatches <= 0.1 * execs, (short, dispatches, execs)
    dispatches, execs = (sum(column) for column in zip(*shares.values()))
    assert dispatches <= bound * execs, (dispatches, execs)


def _canonical(result) -> dict:
    """The JSON-round-tripped payload (what the snapshot stores)."""
    return json.loads(json.dumps(result_payload(result)))


def _first_difference(golden: dict, current: dict, path: str = "$"):
    """Human-oriented pointer to the first drifted leaf."""
    if type(golden) is not type(current):
        return f"{path}: type {type(golden).__name__} -> " \
               f"{type(current).__name__}"
    if isinstance(golden, dict):
        for key in sorted(set(golden) | set(current)):
            if key not in golden:
                return f"{path}.{key}: unexpected new key"
            if key not in current:
                return f"{path}.{key}: key disappeared"
            found = _first_difference(golden[key], current[key],
                                      f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(golden, list):
        if len(golden) != len(current):
            return f"{path}: length {len(golden)} -> {len(current)}"
        for index, (g, c) in enumerate(zip(golden, current)):
            found = _first_difference(g, c, f"{path}[{index}]")
            if found:
                return found
        return None
    if golden != current:
        return f"{path}: {golden!r} -> {current!r}"
    return None


@pytest.mark.parametrize("slug", SLUGS)
def test_golden(slug, results, request):
    payload = _canonical(results[slug])
    path = GOLDEN_DIR / f"{slug}.json"
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return
    assert path.exists(), (
        f"missing snapshot {path}; generate it with "
        f"pytest tests/test_golden_experiments.py --update-golden"
    )
    golden = json.loads(path.read_text(encoding="utf-8"))
    drift = _first_difference(golden, payload)
    assert payload == golden, (
        f"{slug} drifted from its golden snapshot (first difference: "
        f"{drift}); if intentional, regenerate with --update-golden and "
        f"review the diff"
    )


def test_structured_code_dispatches_rarely(engine, results):
    assert_dispatches_are_rare(dispatch_shares(engine, SCALE), 0.03)


def test_snapshots_cover_every_experiment():
    """run_all and the snapshot list must stay in sync."""
    assert len(report.EXPERIMENT_MODULES) == len(SLUGS)
