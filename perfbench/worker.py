"""One measured process of the benchmark; ``run.py`` starts it.

    python3 perfbench/worker.py setup --workload W
    python3 perfbench/worker.py run --workload W --seed N --seconds S \\
        [--single] [--smoke] [--spans FILE]

``setup`` times the program's start-up in this fresh interpreter.
``run`` measures the workload's passes; with ``--spans`` the run is
traced (exactly one cold and one warm pass) and its spans are written
to FILE when it ends.  Either mode prints one JSON object as its last
line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import scenarios
from pace import Pacer


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024 * 1024 if sys.platform == "darwin" else 1024)


def setup(args) -> dict:
    pacer = Pacer(sampling=False)
    pacer.start()
    start = time.perf_counter()
    scenarios.setup_program(args.workload)
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "pace": pacer.stop()}


def run(args) -> dict:
    recorder = None
    if args.spans:
        from tracer import Recorder

        recorder = Recorder(args.workload)
        recorder.open("import")
    scenarios.setup_program(args.workload)
    if recorder is not None:
        recorder.close()
    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = scenarios.make_workload(args.workload, args.seed, args.smoke,
                                       work_dir)
    if recorder is not None:
        recorder.install()
    tally = scenarios.Tally()
    try:
        colds, warms = scenarios.run_passes(
            workload, tally, args.seconds,
            single=args.single or args.smoke or recorder is not None,
            on_label=recorder.enter if recorder is not None else None)
    finally:
        workload.cleanup()
    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "reasons": tally.reasons,
        "cold": colds,
        "warm": warms,
        "peak_rss_mb": peak_rss_mb(),
    }
    if recorder is not None:
        result["layers"] = {
            label: recorder.layer_totals(label)
            for label in ("setup", "cold", "warm")
        }
        result["counts"] = recorder.counts
        result["missing"] = recorder.missing
        recorder.write(args.spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True,
                        choices=scenarios.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--single", action="store_true",
                        help="one cold and one warm pass")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one cold and one warm pass")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--work-dir", default=str(
        scenarios.ROOT / ".perfbench_out"))
    args = parser.parse_args(argv)
    result = setup(args) if args.mode == "setup" else run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
