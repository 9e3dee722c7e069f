"""Benchmark entry point for the Marionette reproduction.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Nothing is built: the package is pure
Python and is imported from ``src/``.

``--trace 0`` times the workload end to end: set-up in several fresh
interpreters, then the workload's passes in one fresh process, each
metric a median over the passes.  ``--trace 1`` runs the workload once
untraced and once traced (one cold and one warm pass each) and reports
the per-layer metrics from the traced run; ``trace_overhead_s`` is the
difference between the two cold passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
(metrics, host stanza, pass details, failure reasons) is written under
``.perfbench_out/``, next to the span file of a traced run.  RATIONALE.md
explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

from scenarios import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".perfbench_out"

#: Fresh interpreters whose start-up is timed for ``setup_s``.
SETUP_PROBES = 5
#: Whole-run budget: the run must end within 180 seconds.
BUDGET_S = 170.0

ENGINE_STATS = ("traces_computed", "trace_cache_hits", "simulations",
                "sim_cache_hits", "sim_memo_hits")
SIM_STATS = ("cycles", "ctrl_msgs_delivered", "ctrl_network_conflicts",
             "mean_utilization")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def host_stanza() -> dict:
    """Where a record was measured, so records from different hosts are
    never compared silently."""
    try:
        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = None
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                capture_output=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha,
    }


def child(arguments, deadline: float) -> dict:
    """Run the worker in a fresh interpreter; its last stdout line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *arguments], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {arguments[0]} ran past the budget")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(arguments[:3])} exited with "
                         f"code {proc.returncode}")
    return json.loads(lines[-1])


def paced_s(measured: dict) -> float:
    """Measured seconds at the reference host's pace (see pace.py)."""
    return measured["seconds"] / measured["pace"]


def end_to_end(untraced: dict, setups) -> dict:
    colds, warms = untraced["cold"], untraced["warm"]
    return {
        "run_s": statistics.median(paced_s(c) for c in colds),
        "warm_s": statistics.median(paced_s(w) for w in warms),
        "setup_s": statistics.median(paced_s(s) for s in setups),
        "peak_rss_mb": untraced["peak_rss_mb"],
        "sim_cycles_per_s": statistics.median(
            c["cycles"] / paced_s(c) for c in colds),
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    """Every per-layer value the traced run measured; layers it never
    reached read 0."""
    values: dict = {}
    for layer in traced["layers"].values():
        for name, (calls, own) in layer.items():
            values[f"{name}.calls"] = values.get(f"{name}.calls", 0) + calls
            values[f"{name}.self_s"] = values.get(f"{name}.self_s", 0) + own
    values.update(traced["counts"])
    cold, warm = traced["cold"][0], traced["warm"][0]
    for key in ENGINE_STATS:
        values[f"engine.stats.{key}"] = sum(
            p.get("stats", {}).get(key, 0) for p in (cold, warm))
    sim = cold.get("sim", {})
    for key in SIM_STATS:
        values[f"sim.{key}"] = sim.get(key, 0)
    if sim.get("cycles"):
        sim_run = traced["layers"]["cold"].get("sim.run", (0, 0.0))[1]
        values["sim.host_ns_per_cycle"] = 1e9 * sim_run / sim["cycles"]
    values["cache_mb"] = cold.get("cache_bytes", 0) / 2 ** 20
    values["trace_overhead_s"] = paced_s(cold) - statistics.median(
        paced_s(c) for c in untraced["cold"])
    for label, measured in (("cold", cold), ("warm", warm)):
        covered = sum(own for _calls, own
                      in traced["layers"][label].values())
        values[f"trace.coverage_{label}"] = covered / measured["seconds"]
    return values


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one set-up probe (for tests)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def measure(args) -> dict:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    deadline = time.monotonic() + BUDGET_S
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--work-dir", str(OUT_DIR)]
    if args.smoke:
        common.append("--smoke")

    record = {"host": host_stanza(), "workload": args.workload,
              "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke}
    if args.trace:
        untraced = child(["run", *common, "--single"], deadline)
        spans = OUT_DIR / f"spans-{tag}.json"
        traced = child(["run", *common, "--spans", str(spans)], deadline)
        runs = [untraced, traced]
        values = per_layer(traced, untraced)
        wanted = spec["per_layer"]
        record["spans_file"] = spans.name
        record["missing_targets"] = traced["missing"]
    else:
        probes = 1 if args.smoke else SETUP_PROBES
        setups = [child(["setup", *common], deadline)
                  for _ in range(probes)]
        untraced = child(["run", *common], deadline)
        runs = [untraced]
        values = end_to_end(untraced, setups)
        wanted = spec["end_to_end"]
        record["setups"] = setups
    metrics = {m["name"]: {"value": values.get(m["name"], 0),
                           "unit": m["unit"]}
               for m in wanted}
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    record.update(metrics=metrics, attempted=attempted, failed=failed,
                  runs=runs)
    (OUT_DIR / f"record-{tag}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    for run in runs:
        for reason in run["reasons"]:
            print(f"failed: {reason}", file=sys.stderr)
    return {"correct": attempted > 0 and failed == 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = measure(args)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    for name, metric in result["metrics"].items():
        print(f"{args.workload}: {name} = {metric['value']:.6g} "
              f"{metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
