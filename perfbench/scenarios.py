"""The benchmark's workloads and the correctness accounting behind them.

Three workloads drive the public ``repro`` API from one process with
``jobs=1`` (RATIONALE.md says why each was chosen):

* ``paper-report`` — ``run_all(scale="paper")`` on a fresh cache
  directory, then warm passes from fresh engines on that directory;
* ``arch-sweep`` — the ``examples/arch`` variants at ``small`` scale
  through one engine (what ``repro bench --arch-sweep`` does), with
  ``marionette_default`` priced last, then warm passes;
* ``kernel-sim`` — the ``examples/kernels`` packages rebuilt with a
  longer loop and seeded input images, each graded by ``run_kernel``
  against the functional interpreter, then run again on the same inputs.

An *operation* is one report section per variant per pass, or one kernel
run.  Failures are counted, never raised: an exception fails every
remaining operation of its pass.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from pace import Pacer

# numpy is imported inside functions: set-up time is measured from the
# first import of the program's dependencies.

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-report", "arch-sweep", "kernel-sim")

#: Report sections in paper order, as named in tests/golden/.
SLUGS = ("fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
         "table4", "table6")

#: The arch-sweep variant that must reproduce the golden report.
DEFAULT_VARIANT = "marionette_default"

KERNELS = ("axpb", "dot_product", "saxpy", "sigmoid")
#: Loop length of the rebuilt kernels: two 1.5k-element arrays fit the
#: default 4096-word scratchpad.
KERNEL_ELEMENTS = 1500
SMOKE_KERNEL_ELEMENTS = 64
MAX_CYCLES = 200_000

#: Warm passes after each cold pass (short passes repeat more, for a
#: steadier median).
WARM_PASSES = {"paper-report": 1, "arch-sweep": 8, "kernel-sim": 1}


class Tally:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(what)

    def fail_rest(self, names: Sequence[str], error: BaseException) -> None:
        for name in names:
            self.record(False, f"{name}: {type(error).__name__}: {error}")


def canonical_section(result) -> dict:
    """A report section as the golden files store it (JSON round trip)."""
    from repro.engine import result_payload

    return json.loads(json.dumps(result_payload(result)))


def load_goldens(scale: str, seed: int) -> Optional[Dict[str, dict]]:
    """The golden sections for ``scale``, or None where none apply."""
    if seed != 0 or scale not in ("small", "paper"):
        return None
    directory = ROOT / "tests" / "golden"
    if scale == "paper":
        directory = directory / "paper"
    return {slug: json.loads((directory / f"{slug}.json").read_text(
                encoding="utf-8"))
            for slug in SLUGS}


def directory_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*")
               if entry.is_file())


# ----------------------------------------------------------------------
# Report workloads
# ----------------------------------------------------------------------
class ReportWorkload:
    """``run_all`` over one or more arch variants, cold then warm."""

    def __init__(self, name: str, seed: int, smoke: bool,
                 work_dir: Path) -> None:
        from repro.arch.params import DEFAULT_PARAMS
        from repro.arch.spec import load_arch_sweep

        self.name = name
        self.seed = seed
        self.work_dir = work_dir
        if name == "paper-report":
            self.scale = "tiny" if smoke else "paper"
            #: (label, params, compared with the goldens)
            self.variants = [("default", DEFAULT_PARAMS, True)]
        else:
            self.scale = "tiny" if smoke else "small"
            found = load_arch_sweep(ROOT / "examples" / "arch")
            found.sort(key=lambda item: item[0].stem == DEFAULT_VARIANT)
            self.variants = [(path.stem, desc.params,
                              path.stem == DEFAULT_VARIANT)
                             for path, desc in found]
        self.goldens = load_goldens(self.scale, seed)
        #: called as a pass's timed region starts ("cold", "warm") and
        #: ends ("check")
        self.on_label: Callable[[str], None] = lambda label: None
        self.cache_dir: Optional[Path] = None
        self.cold_sections: Dict[Tuple[str, str], dict] = {}

    def _ops(self, variants) -> List[str]:
        return [f"{label}/{slug}" for label, _params, _g in variants
                for slug in SLUGS]

    def _pass(self, tally: Tally, label: str) -> Tuple[float, object, dict]:
        """One pass over every variant through one fresh engine."""
        from repro.engine import Engine
        from repro.experiments import report

        engine = Engine(cache_dir=self.cache_dir, jobs=1)
        sections: Dict[str, list] = {}
        self.on_label(label)
        start = time.perf_counter()
        try:
            for variant, params, _golden in self.variants:
                sections[variant] = report.run_all(
                    self.scale, self.seed, engine=engine, params=params)
        except Exception as error:  # counted, not raised
            seconds = time.perf_counter() - start
            done = set(sections)
            tally.fail_rest(
                [f"{label}:{op}" for op in self._ops(
                    [v for v in self.variants if v[0] not in done])],
                error)
        else:
            seconds = time.perf_counter() - start
        self.on_label("check")
        return seconds, engine, sections

    def cold(self, tally: Tally) -> Dict[str, float]:
        """A fresh cache directory through the finished report."""
        self.cache_dir = Path(tempfile.mkdtemp(prefix="cache-",
                                               dir=self.work_dir))
        seconds, engine, sections = self._pass(tally, "cold")
        stats = engine.stats.as_dict()
        self.cold_sections = {}
        for variant, results in sections.items():
            golden = next(g for v, _p, g in self.variants if v == variant)
            for slug, payload in self._slugged(results):
                self.cold_sections[(variant, slug)] = payload
                if golden and self.goldens is not None:
                    ok = payload == self.goldens[slug]
                else:
                    ok = payload is not None
                tally.record(ok,
                             f"cold:{variant}/{slug} missing or not golden")
        return {
            "seconds": seconds,
            "cycles": self._modelled_cycles(engine) if sections else 0,
            "cache_bytes": directory_bytes(self.cache_dir),
            "stats": stats,
        }

    def warm(self, tally: Tally) -> Dict[str, float]:
        """The same report from a fresh engine on the cold pass's cache."""
        seconds, engine, sections = self._pass(tally, "warm")
        for variant, results in sections.items():
            for slug, payload in self._slugged(results):
                ok = (payload is not None
                      and self.cold_sections.get((variant, slug)) == payload)
                tally.record(ok, f"warm:{variant}/{slug} differs from cold")
        return {"seconds": seconds, "stats": engine.stats.as_dict()}

    def cleanup(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None

    @staticmethod
    def _slugged(results) -> List[Tuple[str, Optional[dict]]]:
        """(slug, canonical payload) per section; None marks a section
        the report did not produce."""
        payloads = [canonical_section(r) for r in results]
        payloads += [None] * (len(SLUGS) - len(payloads))
        return list(zip(SLUGS, payloads))

    def _modelled_cycles(self, engine) -> int:
        """Simulated cycles of every spec the cold pass priced."""
        from repro.experiments.report import all_specs

        return sum(
            run.result.cycles
            for _variant, params, _golden in self.variants
            for run in engine.execute(
                all_specs(self.scale, self.seed, params))
        )


# ----------------------------------------------------------------------
# Kernel simulation workload
# ----------------------------------------------------------------------
def scaled_document(package, elements: int, rng) -> dict:
    """``package`` with its loop over ``elements`` and images drawn from
    the numpy generator ``rng``.

    Declared expected outputs are dropped, so ``run_kernel`` grades the
    simulator against the functional interpreter.
    """
    import numpy as np

    document = package.to_document()
    stop = document["loop"]["stop"]
    if isinstance(stop, str):
        document["params"][stop] = elements
    else:
        document["loop"]["stop"] = elements
    memory = {}
    for entry in document["arrays"]:
        if entry["shape"] != [1]:
            entry["shape"] = [elements]
        length = int(np.prod(entry["shape"]))
        if entry["role"] not in ("input", "inout"):
            values = np.zeros(length)
        elif entry["dtype"].startswith("int"):
            values = rng.integers(-1000, 1000, length)
        else:
            values = rng.uniform(-4.0, 4.0, length)
        cast = int if entry["dtype"].startswith("int") else float
        memory[entry["name"]] = [cast(v) for v in values]
    document["memory"] = memory
    document["expected"] = {}
    return document


class KernelSimWorkload:
    """Kernel packages through ``run_kernel`` with the event stepper."""

    name = "kernel-sim"

    def __init__(self, seed: int, smoke: bool) -> None:
        from repro.kernels import load_kernel

        self.seed = seed
        self.elements = SMOKE_KERNEL_ELEMENTS if smoke else KERNEL_ELEMENTS
        self.max_cycles = MAX_CYCLES
        self.packages = [load_kernel(ROOT / "examples" / "kernels" / name)
                         for name in KERNELS]
        self.documents: List[dict] = []
        self.cold_stats: Dict[str, dict] = {}
        self._passes = 0
        self.on_label: Callable[[str], None] = lambda label: None

    def _pass(self, tally: Tally, label: str) -> Tuple[float, dict]:
        import repro.kernels as kernels

        reports = {}
        self.on_label(label)
        start = time.perf_counter()
        try:
            for document in self.documents:
                package = kernels.from_document(document)
                reports[document["name"]] = kernels.run_kernel(
                    package, max_cycles=self.max_cycles)
        except Exception as error:  # counted, not raised
            seconds = time.perf_counter() - start
            tally.fail_rest([f"{label}:{d['name']}" for d in self.documents
                             if d["name"] not in reports], error)
        else:
            seconds = time.perf_counter() - start
        self.on_label("check")
        return seconds, reports

    def cold(self, tally: Tally) -> Dict[str, float]:
        """The four kernels on fresh seeded inputs."""
        import numpy as np

        rng = np.random.default_rng([self.seed, self._passes])
        self._passes += 1
        self.documents = [scaled_document(p, self.elements, rng)
                          for p in self.packages]
        seconds, reports = self._pass(tally, "cold")
        self.cold_stats = {}
        for name, run in reports.items():
            self.cold_stats[name] = sim_stats(run)
            tally.record(kernel_ok(run),
                         f"cold:{name} {verdict_text(run)}")
        return {"seconds": seconds,
                "cycles": sum(r.cycles for r in reports.values()),
                "sim": aggregate_sim(reports.values())}

    def warm(self, tally: Tally) -> Dict[str, float]:
        """The same four runs again: nothing should differ."""
        seconds, reports = self._pass(tally, "warm")
        for name, run in reports.items():
            ok = kernel_ok(run) and sim_stats(run) == self.cold_stats.get(
                name)
            tally.record(ok, f"warm:{name} {verdict_text(run)} or "
                             f"statistics differ from cold")
        return {"seconds": seconds}

    def cleanup(self) -> None:
        pass


def kernel_ok(run) -> bool:
    """PASS on every output, finished before the cycle budget."""
    return run.passed and run.halted


def verdict_text(run) -> str:
    return (f"verdict {'PASS' if run.passed else 'FAIL'}, "
            f"{'finished' if run.halted else 'hit max_cycles'}")


def sim_stats(run) -> dict:
    return {"cycles": run.cycles,
            "ctrl_msgs_delivered": run.ctrl_msgs_delivered,
            "ctrl_network_conflicts": run.ctrl_network_conflicts,
            "mean_utilization": run.mean_utilization}


def aggregate_sim(runs) -> dict:
    """Summed counts and the mean utilization over a pass's runs."""
    runs = list(runs)
    if not runs:
        return {}
    stats = [sim_stats(run) for run in runs]
    total = {key: sum(s[key] for s in stats)
             for key in ("cycles", "ctrl_msgs_delivered",
                         "ctrl_network_conflicts")}
    total["mean_utilization"] = (sum(s["mean_utilization"] for s in stats)
                                 / len(stats))
    return total


def setup_program(name: str) -> None:
    """What a user pays before the first call: import ``repro``, load
    the arch specs or kernel packages, and build the engine."""
    if name == "kernel-sim":
        from repro.kernels import load_kernel

        for kernel in KERNELS:
            load_kernel(ROOT / "examples" / "kernels" / kernel)
        return
    from repro.engine import Engine
    from repro.experiments import report  # noqa: F401 (part of set-up)

    if name == "arch-sweep":
        from repro.arch.spec import load_arch_sweep

        load_arch_sweep(ROOT / "examples" / "arch")
    Engine(jobs=1)


def make_workload(name: str, seed: int, smoke: bool, work_dir: Path):
    if name == "kernel-sim":
        return KernelSimWorkload(seed, smoke)
    return ReportWorkload(name, seed, smoke, work_dir)


def run_passes(workload, tally: Tally, seconds: float, single: bool,
               on_label: Optional[Callable[[str], None]] = None
               ) -> Tuple[List[dict], List[dict]]:
    """Cold passes, each followed by warm ones, until ``seconds`` of
    measuring have passed (exactly one of each when ``single``).

    Each pass records its duration without the pace readings taken
    inside it (``seconds``), its wall time (``wall_seconds``) and the
    host's pace (see pace.py).  ``on_label`` hears which pass runs.
    """
    pacer = Pacer(sampling=not single)
    paces: List[float] = []

    def label(name: str) -> None:
        if on_label is not None:
            on_label(name)
        if name == "check":
            paces.append(pacer.stop())
        else:
            pacer.start()

    workload.on_label = label

    def paced(step) -> dict:
        result = step(tally)
        result["wall_seconds"] = result["seconds"]
        result["seconds"] -= pacer.paused
        result["pace"] = paces.pop()
        return result

    colds: List[dict] = []
    warms: List[dict] = []
    started = time.perf_counter()
    while True:
        colds.append(paced(workload.cold))
        for _ in range(1 if single else WARM_PASSES[workload.name]):
            warms.append(paced(workload.warm))
        workload.cleanup()
        if single or time.perf_counter() - started >= seconds:
            return colds, warms
