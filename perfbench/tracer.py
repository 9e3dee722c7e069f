"""Outside-in span recorder for the traced benchmark run.

The recorder never edits the program: it replaces the public functions
and methods named in :data:`SPANNED` (and the call counters in
:data:`COUNTED`) with thin wrappers, in the defining namespace *and* in
every loaded ``repro`` module that imported the object by name (for
example ``repro.compiler.schedule`` holds its own ``place_block``).

A span carries its name, start, end, parent, workload and pass.  Spans
stay in memory and are written out once, when the run ends.  A layer's
self time is its span's duration minus the time its child spans cover.

A target that no longer exists is skipped and listed in
:attr:`Recorder.missing`, so a renamed layer reads as zero instead of
crashing the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import weakref
from typing import Callable, Dict, List, Optional, Tuple

from scenarios import SLUGS

#: (metric name, module, qualified name) of every spanned call.
SPANNED: Tuple[Tuple[str, str, str], ...] = (
    ("experiments.report.run_all", "repro.experiments.report", "run_all"),
    ("engine.executor.execute", "repro.engine.executor", "Engine.execute"),
    ("workloads.instance", "repro.workloads.base", "Workload.instance"),
    ("ir.interp", "repro.workloads.base", "WorkloadInstance.run"),
    ("ir.trace.to_payload", "repro.ir.trace", "DynamicTrace.to_payload"),
    ("ir.trace.from_payload", "repro.ir.trace",
     "DynamicTrace.from_payload"),
    ("engine.cache.get", "repro.engine.cache", "TraceCache.get"),
    ("engine.cache.put", "repro.engine.cache", "TraceCache.put"),
    ("ir.cfg.dominators", "repro.ir.cfg", "CFG.dominators"),
    ("ir.cdfg.loop_nests", "repro.ir.cdfg", "CDFG.loop_nests"),
    ("compiler.place.place_block", "repro.compiler.place", "place_block"),
    ("kernels.from_document", "repro.kernels.package", "from_document"),
    ("kernels.run_kernel", "repro.kernels.runner", "run_kernel"),
    ("compiler.config_gen.generate_program", "repro.compiler.config_gen",
     "generate_program"),
    ("sim.run", "repro.sim.array", "ArraySimulator.run"),
)

#: (metric name, module, qualified name) of calls that are only counted:
#: they are too frequent for a span each.
COUNTED: Tuple[Tuple[str, str, str], ...] = (
    ("arch.network.mesh.route.calls", "repro.arch.network.mesh",
     "DataMesh.route"),
)


class Recorder:
    """Spans and counters of one traced run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        #: the pass later spans belong to ("setup", "cold", "warm", ...)
        self.pass_name = "setup"
        #: (id, name, start, end, parent id, pass, self seconds)
        self.spans: List[Tuple[int, str, float, float, Optional[int],
                               str, float]] = []
        self.counts: Dict[str, float] = {}
        self.missing: List[str] = []
        # open spans: [id, name, start, seconds covered by children]
        self._stack: List[list] = []
        self._next_id = 0
        self._seen_results: "weakref.WeakValueDictionary" = \
            weakref.WeakValueDictionary()

    # -- spans -----------------------------------------------------------
    def enter(self, pass_name: str) -> None:
        """Later spans belong to ``pass_name``."""
        self.pass_name = pass_name

    def open(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def close(self) -> None:
        end = time.perf_counter()
        span_id, name, start, covered = self._stack.pop()
        duration = end - start
        parent = None
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        self.spans.append((span_id, name, start, end, parent,
                           self.pass_name, duration - covered))

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def spanned(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()
        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    # -- aggregation -----------------------------------------------------
    def layer_totals(self, pass_name: str) -> Dict[str, Tuple[int, float]]:
        """name -> (calls, self seconds) of one pass's spans."""
        totals: Dict[str, Tuple[int, float]] = {}
        for _id, name, _start, _end, _parent, label, own in self.spans:
            if label != pass_name:
                continue
            calls, seconds = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, seconds + own)
        return totals

    def write(self, path: str) -> None:
        """Write every span as JSON (called once, when the run ends)."""
        records = [
            {"id": span_id, "name": name, "start": start, "end": end,
             "parent": parent, "workload": self.workload, "pass": pass_name}
            for span_id, name, start, end, parent, pass_name, _own
            in self.spans
        ]
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"workload": self.workload, "spans": records,
                       "missing": self.missing}, handle)

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every target in :data:`SPANNED` and :data:`COUNTED`."""
        for name, module, qualname in SPANNED:
            self._replace(module, qualname,
                          lambda fn, name=name: self.spanned(name, fn))
        for name, module, qualname in COUNTED:
            self._replace(module, qualname,
                          lambda fn, name=name: self.counted(name, fn))
        self._wrap_models()
        self._wrap_experiments()
        self._wrap_interp_steps()
        self._wrap_backend_bytes()

    def _replace(self, module: str, qualname: str,
                 make: Callable[[Callable], Callable]) -> None:
        try:
            owner = importlib.import_module(module)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{module}:{qualname}")
            return
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
            return
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(make(raw.__func__)))
            return
        wrapped = make(raw)
        setattr(owner, attr, wrapped)
        if not path:
            # Rebind by-name imports of a module-level function.
            for loaded in list(sys.modules.values()):
                namespace = getattr(loaded, "__dict__", None)
                if (namespace is None
                        or not getattr(loaded, "__name__", "").startswith(
                            "repro")):
                    continue
                for key, value in list(namespace.items()):
                    if value is raw:
                        namespace[key] = wrapped

    def _wrap_models(self) -> None:
        """One span per analytical model class: baselines.simulate.<key>."""
        try:
            from repro.engine.spec import MODEL_REGISTRY
        except ImportError:
            self.missing.append("repro.engine.spec:MODEL_REGISTRY")
            return
        # Resolve every class first: wrapping one class must not leak
        # into a subclass that inherits its simulate.
        originals = {key: getattr(cls, "simulate", None)
                     for key, cls in MODEL_REGISTRY.items()}
        for key, cls in MODEL_REGISTRY.items():
            if originals[key] is None:
                self.missing.append(f"{cls.__name__}.simulate")
                continue
            cls.simulate = self.spanned(f"baselines.simulate.{key}",
                                        originals[key])

    def _wrap_experiments(self) -> None:
        """One span per report section's ``run``: experiments.<slug>."""
        try:
            from repro.experiments.report import EXPERIMENT_MODULES
        except ImportError:
            self.missing.append("repro.experiments.report:EXPERIMENT_MODULES")
            return
        for slug, module in zip(SLUGS, EXPERIMENT_MODULES):
            module.run = self.spanned(f"experiments.{slug}", module.run)

    def _wrap_interp_steps(self) -> None:
        """Count the block executions of every fresh interpretation."""
        try:
            from repro.workloads.base import WorkloadInstance
            spanned_run = WorkloadInstance.run
        except (ImportError, AttributeError):
            return
        # id -> result; run() memoises its result, so count each once
        seen = self._seen_results

        @functools.wraps(spanned_run)
        def run(instance, *args, **kwargs):
            result = spanned_run(instance, *args, **kwargs)
            if seen.get(id(result)) is not result:
                seen[id(result)] = result
                self.count("ir.interp.block_execs",
                           getattr(result, "steps", 0))
            return result

        WorkloadInstance.run = run

    def _wrap_backend_bytes(self) -> None:
        """Bytes the on-disk cache records read and wrote.

        Uses the documented ``<root>/<hh>/<digest>.json`` layout; trace
        records (key kind ``trace``) also count as trace payload bytes.
        """
        try:
            from repro.engine.distributed.backend import LocalBackend
        except ImportError:
            self.missing.append("repro.engine.distributed.backend:"
                                "LocalBackend")
            return
        get, put = LocalBackend.get, LocalBackend.put

        def size(backend, digest: str) -> int:
            path = os.path.join(str(backend.root), digest[:2],
                                f"{digest}.json")
            try:
                return os.stat(path).st_size
            except OSError:
                return 0

        @functools.wraps(get)
        def counted_get(backend, digest):
            record = get(backend, digest)
            if record is not None:
                self.count("engine.cache.read_bytes", size(backend, digest))
            return record

        @functools.wraps(put)
        def counted_put(backend, digest, envelope):
            put(backend, digest, envelope)
            written = size(backend, digest)
            self.count("engine.cache.write_bytes", written)
            key = envelope.get("key") if isinstance(envelope, dict) else None
            if isinstance(key, dict) and key.get("kind") == "trace":
                self.count("ir.trace.payload_bytes", written)

        LocalBackend.get = counted_get
        LocalBackend.put = counted_put
