"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``bench [--scale S] [--seed N] [--jobs N] [--cache-dir PATH]
  [--format ascii|json|csv] [--stream] [--shard K/N]
  [--merge-shards PATH...] [--dispatch URL] [--arch PATH]
  [--kernels DIR] [--profile [PATH]]`` (alias ``report``)
  — the full report through the parallel experiment engine, with
  on-disk trace caching, machine-readable exports, streaming per-spec
  progress, fingerprint-prefix sharding across CI jobs (a shard run
  prints a mergeable export on stdout; ``--merge-shards`` reassembles
  the canonical report, byte-identical to an unsharded run), dynamic
  dispatch to a ``repro serve`` worker fleet (``--dispatch``, also
  byte-identical), architecture selection (``--arch FILE`` prices the
  whole evaluation on a loaded architecture description; ``--arch DIR``
  emits one report section per spec file in deterministic filename
  order — see docs/ARCH.md), and phase profiling (``--profile [PATH]``
  times the trace / simulate / assemble phases and writes a
  perf-trajectory record, engine counters included, to PATH,
  ``BENCH_<timestamp>.json`` by default — the report itself is
  unchanged);
* ``serve [--host H] [--port P] [--cache-dir PATH]
  [--lease-timeout S]`` — the distributed endpoint: an HTTP cache
  server (shards and workers share trace/cycle records live) plus the
  work-stealing coordinator that hands one ``--dispatch`` driver's
  specs to idle workers (a new submission replaces an unfinished job);
* ``worker --connect URL [--poll S] [--max-idle S] [--lease-batch N]
  [--reconnect S]`` — a pull-loop worker: lease up to N specs per
  round trip from a coordinator (acks piggyback on the next lease),
  compute against the shared cache, and acknowledge results;
* ``experiment NAME [--scale S]`` — one experiment (fig11..fig17,
  table4, table6);
* ``workloads [--scale S]`` — run + verify the benchmark suite, printing
  each kernel's control flow profile (Table 1 / Table 5 view);
* ``simulate KERNEL [--scale S]`` — price one kernel on every
  architecture model.

``bench`` report documents (all three formats) carry only content, so
batch, ``--stream``, warm-cache, and shard-merged runs are
byte-identical; diagnostics go to stderr and the ``--profile`` record.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List

from repro.arch.params import ArchParams, DEFAULT_PARAMS
from repro.errors import ReproError

#: ``repro experiment`` slugs: ``EXPERIMENT_MODULES`` in paper order.
_EXPERIMENTS = (
    "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
    "table4", "table6",
)


def _progress_line(done: int, total: int, run_result) -> str:
    spec = run_result.spec
    label = spec.model.label or spec.model.model
    origin = "cache" if run_result.cached else "computed"
    return (f"[{done}/{total}] {spec.workload}@{spec.scale} "
            f"seed={spec.seed} {label}: {run_result.cycles} cycles "
            f"({origin})")


def _report_meta(args) -> Dict[str, object]:
    """The JSON document's identifying metadata.

    The ``arch`` stanza appears only in ``--arch DIR`` sweep sections —
    a single-variant run (flagless or ``--arch FILE``) must stay
    byte-identical to the canonical report, which carries no arch
    stanza.
    """
    meta: Dict[str, object] = {"scale": args.scale, "seed": args.seed}
    arch_meta = getattr(args, "arch_meta", None)
    if arch_meta:
        meta["arch"] = arch_meta
    return meta


def _emit(results, args) -> None:
    """Print the report in ``args.format``: every mode's one emitter.

    ``results`` is :func:`~repro.experiments.report.run_all`'s finished
    list (batch: printed once the whole run is done) or
    :func:`~repro.experiments.report.assemble`'s generator, whose ASCII
    tables print the moment their last spec lands — the same bytes.
    JSON and CSV documents are monolithic, so they consume ``results``
    first and render at the end.
    """
    if args.format == "ascii":
        from repro.experiments.report import report_lines

        for line in report_lines(results, args.scale, args.seed):
            print(line)
        return
    from repro.engine import report_csv, report_json

    results = list(results)
    if args.format == "json":
        print(report_json(results, meta=_report_meta(args)))
    else:
        print(report_csv(results))


def _landed(pairs, total: int, args):
    """Pass ``(index, run result)`` pairs through, printing one progress
    line per landed spec to stderr under ``--stream``."""
    for done, pair in enumerate(pairs, 1):
        if args.stream:
            print(_progress_line(done, total, pair[1]), file=sys.stderr)
        yield pair


def _cmd_bench(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.arch.spec import load_arch, load_arch_sweep
    from repro.engine import (
        Engine,
        merge_shard_documents,
        read_shard_export,
    )
    from repro.experiments.report import run_all

    sweep = bool(args.arch) and Path(args.arch).is_dir()
    if args.kernels and args.merge_shards:
        print("error: --kernels has no effect with --merge-shards — the "
              "exports name the kernel suite they came from",
              file=sys.stderr)
        return 2
    if args.arch and args.merge_shards:
        print("error: --arch has no effect with --merge-shards — the "
              "exports name the architecture they came from",
              file=sys.stderr)
        return 2
    if sweep and args.profile is not None:
        print("error: --profile times one batch run — it cannot be "
              "combined with an --arch sweep directory", file=sys.stderr)
        return 2
    if args.shard and args.merge_shards:
        print("error: --shard and --merge-shards are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.dispatch and (args.shard or args.merge_shards):
        print("error: --dispatch is a complete execution mode — it "
              "cannot be combined with --shard/--merge-shards",
              file=sys.stderr)
        return 2
    if args.dispatch and args.jobs != 1:
        print("error: --jobs has no effect with --dispatch — the "
              "worker fleet does the computing", file=sys.stderr)
        return 2
    if args.dispatch and args.cache_dir:
        print("error: --cache-dir has no effect with --dispatch — "
              "records live on the serve cache", file=sys.stderr)
        return 2
    if args.profile is not None and (args.stream or args.shard
                                     or args.merge_shards
                                     or args.dispatch):
        print("error: --profile times the local batch phases — it cannot "
              "be combined with --stream/--shard/--merge-shards/"
              "--dispatch", file=sys.stderr)
        return 2
    if args.shard and args.format is not None:
        print("error: --format has no effect with --shard — a shard run "
              "emits a shard export, not a report", file=sys.stderr)
        return 2
    if args.merge_shards and args.stream:
        print("error: --stream has no effect with --merge-shards — the "
              "merge replays cached records, nothing runs",
              file=sys.stderr)
        return 2
    if args.merge_shards and (args.scale is not None
                              or args.seed is not None):
        print("error: --scale/--seed have no effect with --merge-shards "
              "— the exports name the sweep they came from",
              file=sys.stderr)
        return 2
    if args.seed is not None and args.seed < 0:
        print("error: --seed must be at least 0 — the workload input "
              "generators take only non-negative seeds", file=sys.stderr)
        return 2
    args.format = args.format or "ascii"
    args.scale = args.scale or "small"
    args.seed = 0 if args.seed is None else args.seed

    args.arch_desc = None
    args.arch_meta = None
    args.kernel_packages = ()
    if args.kernels:
        from repro.kernels import load_kernel_suite

        args.kernel_packages = tuple(
            package for _path, package in load_kernel_suite(args.kernels)
        )

    if args.merge_shards:
        documents = [read_shard_export(path) for path in args.merge_shards]
        merged = merge_shard_documents(documents)
        # The exports name the sweep — and the architecture — they came
        # from; explicit --scale/--seed/--arch/--kernels were rejected
        # above.  A recorded kernel suite rebuilds from its shipped
        # documents, so the merge needs no package directories on disk.
        args.scale, args.seed = merged["scale"], merged["seed"]
        params = (ArchParams(**merged["params"])
                  if merged["params"] is not None else DEFAULT_PARAMS)
        kernels = ()
        if merged.get("kernels"):
            from repro.kernels import from_document

            kernels = tuple(
                from_document(doc, "<merged shard export>")
                for doc in merged["kernels"]
            )
        engine = Engine(cache_dir=args.cache_dir, jobs=args.jobs)
        engine.cache.preload(merged["entries"])
        results = run_all(args.scale, args.seed, engine=engine,
                          params=params, kernels=kernels)
        if engine.stats.traces_computed or engine.stats.simulations:
            print(
                f"warning: shard exports were incomplete — recomputed "
                f"{engine.stats.traces_computed} traces and "
                f"{engine.stats.simulations} simulations locally",
                file=sys.stderr,
            )
        _emit(results, args)
        return 0

    if sweep:
        variants = load_arch_sweep(args.arch)
        # One engine across the whole sweep shares every functional
        # trace (trace identity excludes params).  Shard runs get a
        # fresh engine per variant instead: a shard export is one
        # variant's working set, and a shared memory layer would leak
        # earlier variants' records into later exports.
        engine = (None if args.dispatch or args.shard
                  else Engine(cache_dir=args.cache_dir, jobs=args.jobs))
        for index, (path, desc) in enumerate(variants):
            args.arch_desc = desc
            args.arch_meta = {"name": desc.name, "file": path.name,
                              "fingerprint": desc.fingerprint()}
            if not args.shard:
                if index:
                    print()  # blank line between report sections
                header = (f"arch: {desc.name} ({path.name}) "
                          f"fingerprint {desc.fingerprint()[:12]}")
                if args.format == "ascii":
                    print(f"== {header} ==")
                elif args.format == "csv":
                    print(f"# {header}")
                # JSON sections carry the arch stanza inside the
                # document instead of a header line.
            _bench_variant(args, engine)
        print(f"arch sweep: {len(variants)} variant(s) from "
              f"{args.arch}", file=sys.stderr)
        return 0

    if args.arch:
        args.arch_desc = load_arch(args.arch)
    _bench_variant(args)
    return 0


def _bench_variant(args, engine=None) -> None:
    """One architecture variant through the selected execution mode.

    ``args.arch_desc`` (None = the default architecture) supplies the
    :class:`~repro.arch.params.ArchParams` every spec prices; the
    shard/stream/dispatch/profile machinery is completely arch-agnostic
    — specs carry their parameters, so variants land on the
    fingerprints their pricing inputs name with no extra plumbing.
    """
    from repro.engine import (
        Engine,
        parse_shard,
        shard_export_document,
        shard_specs,
    )
    from repro.experiments.report import all_specs, assemble, run_all

    desc = args.arch_desc
    params = desc.params if desc is not None else DEFAULT_PARAMS
    kernels = args.kernel_packages

    if args.dispatch:
        # The fleet computes; _run_dispatch builds its own HTTP-backed
        # engine, so don't construct a local one just to discard it.
        return _run_dispatch(args, params, kernels)

    if engine is None:
        engine = Engine(cache_dir=args.cache_dir, jobs=args.jobs)

    if args.profile is not None:
        return _run_profiled(engine, args, params, kernels)

    if args.shard:
        index, count = parse_shard(args.shard)
        specs = shard_specs(
            all_specs(args.scale, args.seed, params, kernels),
            index, count,
        )
        for _pair in _landed(engine.stream(specs), len(specs), args):
            pass
        # A cycle-warm run never reads traces; pull them in so the
        # export is complete and the merge recomputes nothing.
        engine.prefetch_traces(specs)
        document = shard_export_document(
            engine, scale=args.scale, seed=args.seed,
            shard=(index, count),
            params=params if desc is not None else None,
            arch=desc.name if desc is not None else None,
            kernels=kernels or None,
        )
        print(json.dumps(document, sort_keys=True))
        label = f"[{desc.name}] " if desc is not None else ""
        print(f"{label}shard {index}/{count}: {len(specs)} specs, "
              f"{len(document['entries'])} cache records", file=sys.stderr)
        return

    if args.stream:
        specs = all_specs(args.scale, args.seed, params, kernels)
        _emit(assemble(_landed(engine.stream(specs), len(specs), args),
                       args.scale, args.seed, engine, params, kernels),
              args)
    else:
        _emit(run_all(args.scale, args.seed, engine=engine, params=params,
                      kernels=kernels), args)


def _run_profiled(engine, args, params=DEFAULT_PARAMS, kernels=()) -> None:
    """``repro bench --profile [PATH]``: the batch report with phase timings.

    Runs the same specs as a plain batch bench in three timed phases,
    each one pass over the whole batch: ``trace`` (every functional
    trace), ``simulate`` (every spec, priced as a plain run prices it)
    and ``assemble`` (the cached-replay report assembly), and writes the
    machine-readable perf-trajectory record to PATH (default
    ``BENCH_<timestamp>.json``, stamped with the run's start time).  The
    record is opened before anything is priced, so an unwritable PATH
    fails first, and a run that fails later removes it.  The report on
    stdout stays byte-identical to an unprofiled run — the profile is a
    side artifact.
    """
    import os
    import time

    from repro.engine import BenchProfiler
    from repro.experiments.report import all_specs, run_all

    profiler = BenchProfiler(engine)
    path = args.profile or time.strftime(
        "BENCH_%Y%m%dT%H%M%SZ.json", time.gmtime(profiler.created)
    )
    handle = open(path, "w", encoding="utf-8")
    try:
        with handle:
            specs = all_specs(args.scale, args.seed, params, kernels)
            profiler.phase(
                "trace", lambda: engine.prefetch_traces(specs),
                specs=len({spec.trace_key() for spec in specs}),
            )
            profiler.phase("simulate", lambda: engine.execute(specs),
                           specs=len(specs))
            # run_all replays the now-warm memo and assembles every
            # experiment table — the report comes out of this phase, so
            # "assemble" also measures the warm-cache replay cost.
            results = profiler.phase(
                "assemble",
                lambda: run_all(args.scale, args.seed, engine=engine,
                                params=params, kernels=kernels),
            )
            _emit(results, args)
            document = profiler.document(scale=args.scale, seed=args.seed,
                                         jobs=args.jobs,
                                         spec_count=len(specs))
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except BaseException:
        os.remove(path)
        raise
    for phase in profiler.phases:
        print(f"profile: {phase['phase']}: {phase['seconds']:.3f}s",
              file=sys.stderr)
    print(f"profile: {document['total_seconds']:.3f}s total over "
          f"{len(specs)} specs -> {path}", file=sys.stderr)


def _run_dispatch(args, params=DEFAULT_PARAMS, kernels=()) -> None:
    """``repro bench --dispatch URL``: run the sweep on a worker fleet.

    The specs go to the coordinator as one job; workers pull them
    dynamically (work stealing) and share every trace and cycle record
    through the server's cache backend.  Each result lands here exactly
    once (the cursor protocol); the report is then assembled locally
    against the shared cache, so the output is byte-identical to a
    local run in every format.
    """
    from repro.baselines.base import CycleResult
    from repro.engine import Engine, fingerprint
    from repro.engine.distributed.backend import HTTPBackend
    from repro.engine.distributed.worker import (
        CoordinatorClient,
        dispatch_job,
    )
    from repro.engine.spec import RunResult
    from repro.errors import DistributedError
    from repro.experiments.report import all_specs, assemble

    specs = all_specs(args.scale, args.seed, params, kernels)
    client = CoordinatorClient(args.dispatch)
    # Traces the assembly needs come over HTTP from the shared cache;
    # cycle results are preloaded into the memory layer as they land.
    engine = Engine(backend=HTTPBackend(args.dispatch))

    def dispatched():
        for index, payload in dispatch_job(
                client, [spec.to_payload() for spec in specs],
                scale=args.scale, seed=args.seed):
            if not 0 <= index < len(specs):
                raise DistributedError(
                    f"coordinator returned result index {index} outside "
                    f"our {len(specs)}-spec job"
                )
            spec = specs[index]
            engine.cache.preload(
                {fingerprint(spec.cache_key()): payload}
            )
            yield index, RunResult(spec, CycleResult.from_payload(payload))

    _emit(assemble(_landed(dispatched(), len(specs), args), args.scale,
                   args.seed, engine, params, kernels), args)
    if engine.stats.traces_computed or engine.stats.simulations:
        print(
            f"warning: the dispatched working set was incomplete — "
            f"recomputed {engine.stats.traces_computed} traces and "
            f"{engine.stats.simulations} simulations locally",
            file=sys.stderr,
        )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.engine.cache import ENGINE_VERSION
    from repro.engine.distributed.backend import LocalBackend, MemoryBackend
    from repro.engine.distributed.coordinator import Coordinator
    from repro.engine.distributed.server import DistributedServer

    from repro.errors import DistributedError

    backend = (LocalBackend(args.cache_dir) if args.cache_dir
               else MemoryBackend())
    coordinator = Coordinator(lease_timeout=args.lease_timeout)
    try:
        server = DistributedServer(
            backend, coordinator, host=args.host, port=args.port,
        )
    except OSError as error:
        # Port in use, unresolvable host: a one-line diagnostic like
        # every other CLI failure, not a socketserver traceback.
        raise DistributedError(
            f"cannot serve on {args.host}:{args.port}: {error}"
        ) from error
    print(
        f"serving cache + coordinator on {server.url} "
        f"({backend.describe()}, engine v{ENGINE_VERSION}) — stop with "
        f"Ctrl-C or POST {server.url}/admin/shutdown",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.httpd.server_close()
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.engine.distributed.worker import (
        default_worker_id,
        work_loop,
    )

    if args.lease_batch < 1:
        print("error: --lease-batch must be at least 1", file=sys.stderr)
        return 2
    worker = default_worker_id()

    def on_task(kind: str, task: dict) -> None:
        if kind == "trace":
            detail = (f"trace {task['workload']}@{task['scale']} "
                      f"seed={task['seed']}")
        else:
            spec = task["spec"]
            model = spec["model"]
            label = model.get("label") or model.get("model")
            detail = (f"sim {spec['workload']}@{spec['scale']} "
                      f"seed={spec['seed']} {label}")
        print(f"[{worker}] {detail}", file=sys.stderr)

    try:
        summary = work_loop(
            args.connect, poll=args.poll, max_idle=args.max_idle,
            worker_id=worker, on_task=on_task,
            lease_batch=args.lease_batch, reconnect=args.reconnect,
        )
    except KeyboardInterrupt:
        # Same clean exit as `repro serve`: any lease we held expires
        # and is requeued to the surviving workers.
        print(f"[{worker}] interrupted", file=sys.stderr)
        return 130
    print(
        f"[{worker}] done: {summary.traces_computed} traces computed, "
        f"{summary.trace_cache_hits} trace cache hits, "
        f"{summary.sims} simulations, {summary.failures} failures",
        file=sys.stderr,
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.report import EXPERIMENT_MODULES

    module = dict(zip(_EXPERIMENTS, EXPERIMENT_MODULES))[args.name]
    module.run(args.scale).print()
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    from repro.engine import Engine
    from repro.ir import analysis
    from repro.workloads import ALL_WORKLOADS

    engine = Engine()
    header = (f"{'kernel':<8} {'group':<14} {'blocks':>6} {'ops':>5} "
              f"{'loops':>5} {'depth':>5} {'branches':>8} "
              f"{'under-branch%':>13} {'dyn ops':>9}")
    print(header)
    print("-" * len(header))
    for workload in ALL_WORKLOADS:
        # The engine verifies each trace against the reference outputs.
        kernel = engine.kernel(workload.short.lower(), args.scale, 0)
        profile = analysis.profile(kernel.cdfg, kernel.trace)
        print(f"{workload.short:<8} {workload.group:<14} "
              f"{profile.blocks:>6} {profile.static_ops:>5} "
              f"{profile.loop_count:>5} {profile.max_loop_depth:>5} "
              f"{profile.divergent_branches:>8} "
              f"{profile.ops_under_branch_pct:>12.1f}% "
              f"{profile.dynamic_ops:>9}")
    print("\nall outputs verified against reference implementations")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.engine import Engine, ModelSpec, RunSpec
    from repro.experiments.common import (
        DATAFLOW,
        MARIONETTE,
        MARIONETTE_PE,
        REVEL,
        RIPTIDE,
        SOFTBRAIN,
        TIA,
        VON_NEUMANN,
    )
    from repro.workloads import get_workload

    workload = get_workload(args.kernel)
    short = workload.short.lower()
    engine = Engine()
    kernel = engine.kernel(short, args.scale, 0)
    models = (VON_NEUMANN, DATAFLOW, SOFTBRAIN, TIA, REVEL, RIPTIDE,
              MARIONETTE_PE, MARIONETTE, ModelSpec.make("ideal"))
    runs = engine.execute([RunSpec(short, args.scale, 0, model,
                                   DEFAULT_PARAMS) for model in models])
    print(f"{workload.name} @ {args.scale}: {kernel.cdfg.summary()}")
    baseline = None
    for run in runs:
        cycles = run.result.cycles
        baseline = baseline or cycles
        print(f"  {run.result.arch:<36} {cycles:>9} cycles "
              f"({baseline / cycles:5.2f}x)")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.arch.params import DEFAULT_PARAMS
    from repro.kernels import load_kernel, run_kernel

    if args.max_cycles < 1:
        print("error: --max-cycles must be at least 1", file=sys.stderr)
        return 2
    package = load_kernel(args.kernel_dir)
    params, arch_name = DEFAULT_PARAMS, "default"
    if args.arch:
        from repro.arch.spec import load_arch

        desc = load_arch(args.arch)
        params, arch_name = desc.params, desc.name
    report = run_kernel(package, params=params, arch_name=arch_name,
                        max_cycles=args.max_cycles)
    if args.format == "json":
        print(json.dumps(report.to_document(), indent=2, sort_keys=True))
    else:
        for line in report.to_lines():
            print(line)
    return 0 if report.passed else 1


def _cmd_kernel(args: argparse.Namespace) -> int:
    from repro.kernels import load_kernel_suite

    if args.kernel_command == "validate":
        entries = load_kernel_suite(args.directory)
        for path, package in entries:
            print(f"ok: {package.name} ({path}) "
                  f"fingerprint {package.fingerprint()[:12]} — "
                  f"{len(package.program)} instruction(s), "
                  f"{len(package.arrays)} array(s)")
        print(f"{len(entries)} valid kernel package(s) in "
              f"{args.directory}")
        return 0
    return _kernel_init(args)


def _kernel_init(args: argparse.Namespace) -> int:
    """``repro kernel init NAME``: scaffold a package from the template."""
    from pathlib import Path

    from repro.errors import ConfigurationError
    from repro.kernels import from_document, save_kernel

    out = Path(args.out or args.name)
    if (out / "kernel.json").exists():
        raise ConfigurationError(
            f"{out} already holds a kernel package — refusing to "
            f"overwrite it (pass --out for a fresh directory)"
        )
    package = from_document(
        _init_template(args.name), "<kernel init template>"
    )
    save_kernel(package, out)
    print(f"wrote kernel package {package.name!r} to {out} "
          f"(fingerprint {package.fingerprint()[:12]}) — check it with "
          f"'repro kernel validate {out}', run it with 'repro run {out}'")
    return 0


def _init_template(name: str) -> Dict[str, object]:
    """The scaffold package: ``y[i] = a*x[i] + y[i]`` over 16 elements."""
    n, a = 16, 3
    x = list(range(n))
    y = [1] * n
    return {
        "schema": "repro-kernel",
        "version": 1,
        "name": name,
        "description": "scaffold kernel: y[i] = a*x[i] + y[i]",
        "scale_hint": "tiny",
        "params": {"n": n, "a": a},
        "loop": {"var": "i", "start": 0, "stop": "n", "step": 1},
        "arrays": [
            {"name": "x", "shape": [n], "dtype": "int64",
             "role": "input"},
            {"name": "y", "shape": [n], "dtype": "int64",
             "role": "inout"},
        ],
        "program": [
            ["t0", "load", "x", "i"],
            ["t1", "mul", "a", "t0"],
            ["t2", "load", "y", "i"],
            ["t3", "add", "t1", "t2"],
            ["", "store", "y", "i", "t3"],
        ],
        "memory": {"x": x, "y": y},
        "expected": {"y": [a * xi + yi for xi, yi in zip(x, y)]},
    }


def build_parser() -> argparse.ArgumentParser:
    """The complete ``repro`` argument parser.

    Exposed separately from :func:`main` so tooling (the docs
    consistency check in ``tests/test_docs.py``) can introspect every
    subcommand and flag without invoking anything.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Marionette (MICRO'23) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser(
        "bench", aliases=["report"],
        help="full report through the parallel experiment engine"
    )
    p_bench.add_argument("--scale", default=None,
                         choices=("tiny", "small", "paper"))
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.add_argument("--jobs", type=int, default=1,
                         help="worker processes (1 = serial)")
    p_bench.add_argument("--cache-dir", default=None,
                         help="on-disk trace/result cache directory")
    p_bench.add_argument("--format", default=None,
                         choices=("ascii", "json", "csv"))
    p_bench.add_argument("--stream", action="store_true",
                         help="emit per-spec progress to stderr as workers "
                              "finish (the report itself is unchanged)")
    p_bench.add_argument("--shard", default=None, metavar="K/N",
                         help="run only the K-th of N fingerprint-prefix "
                              "shards and print a mergeable shard export")
    p_bench.add_argument("--merge-shards", nargs="+", default=None,
                         metavar="PATH",
                         help="reassemble shard exports into the "
                              "canonical report (no recomputation)")
    p_bench.add_argument("--dispatch", default=None, metavar="URL",
                         help="run the sweep on a 'repro serve' worker "
                              "fleet (dynamic work stealing; report is "
                              "byte-identical to a local run)")
    p_bench.add_argument("--arch", default=None, metavar="PATH",
                         help="price the whole evaluation on this "
                              "architecture description (JSON, see "
                              "docs/ARCH.md); given a directory, on every "
                              "*.json description in it, one report "
                              "section each in filename order")
    p_bench.add_argument("--kernels", default=None, metavar="DIR",
                         help="also price every external kernel package "
                              "in DIR (one package or a directory of "
                              "them, see docs/KERNELS.md) and append a "
                              "'kernels' report section — composes with "
                              "--stream, --shard, and --dispatch")
    p_bench.add_argument("--profile", nargs="?", const="", default=None,
                         metavar="PATH",
                         help="time the run's phases (traces, "
                              "simulation, report assembly) and write a "
                              "machine-readable perf-trajectory record to "
                              "PATH (default: BENCH_<timestamp>.json; the "
                              "report itself is unchanged)")
    p_bench.set_defaults(fn=_cmd_bench)

    p_serve = sub.add_parser(
        "serve", help="HTTP cache server + work-stealing coordinator"
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: loopback only)")
    p_serve.add_argument("--port", type=int, default=8417,
                         help="bind port (0 picks an ephemeral port)")
    p_serve.add_argument("--cache-dir", default=None,
                         help="back the cache server with this directory "
                              "(default: in-memory, lives with the "
                              "server process)")
    p_serve.add_argument("--lease-timeout", type=float, default=60.0,
                         metavar="SEC",
                         help="seconds a worker may hold a task before "
                              "it is requeued to the fleet")
    p_serve.set_defaults(fn=_cmd_serve)

    p_worker = sub.add_parser(
        "worker", help="pull-loop worker for a 'repro serve' coordinator"
    )
    p_worker.add_argument("--connect", required=True, metavar="URL",
                          help="the 'repro serve' endpoint to pull "
                               "tasks from")
    p_worker.add_argument("--poll", type=float, default=0.2, metavar="SEC",
                          help="seconds between polls when no task is "
                               "ready")
    p_worker.add_argument("--max-idle", type=float, default=None,
                          metavar="SEC",
                          help="exit after this long without work "
                               "(default: serve until the coordinator "
                               "shuts down)")
    p_worker.add_argument("--lease-batch", type=int, default=1,
                          metavar="N",
                          help="lease up to N tasks per round trip and "
                               "piggyback their acks on the next lease "
                               "call (default: 1; raise it on "
                               "high-latency links)")
    p_worker.add_argument("--reconnect", type=float, default=60.0,
                          metavar="SEC",
                          help="keep retrying (capped exponential "
                               "backoff) through up to SEC seconds of "
                               "server unavailability — a network blip "
                               "or a serve restart does not kill the "
                               "worker — before giving up (0 fails on "
                               "the first transport error)")
    p_worker.set_defaults(fn=_cmd_worker)

    p_exp = sub.add_parser("experiment", help="one table/figure")
    p_exp.add_argument("name", choices=_EXPERIMENTS)
    p_exp.add_argument("--scale", default="small",
                       choices=("tiny", "small", "paper"))
    p_exp.set_defaults(fn=_cmd_experiment)

    p_wl = sub.add_parser("workloads", help="run + profile the suite")
    p_wl.add_argument("--scale", default="tiny",
                      choices=("tiny", "small", "paper"))
    p_wl.set_defaults(fn=_cmd_workloads)

    p_sim = sub.add_parser("simulate", help="one kernel on every model")
    p_sim.add_argument("kernel")
    p_sim.add_argument("--scale", default="small",
                       choices=("tiny", "small", "paper"))
    p_sim.set_defaults(fn=_cmd_simulate)

    p_run = sub.add_parser(
        "run", help="simulate one external kernel package cycle-accurately"
    )
    p_run.add_argument("kernel_dir", metavar="KERNEL_DIR",
                       help="a kernel package directory "
                            "(kernel.json + memory/*.csv, see "
                            "docs/KERNELS.md)")
    p_run.add_argument("--arch", default=None, metavar="FILE",
                       help="price the kernel under this architecture "
                            "description instead of the default "
                            "parameters")
    p_run.add_argument("--format", default="ascii",
                       choices=("ascii", "json"))
    p_run.add_argument("--max-cycles", type=int, default=200_000,
                       metavar="N",
                       help="abort a runaway kernel after N cycles")
    p_run.set_defaults(fn=_cmd_run)

    p_kernel = sub.add_parser(
        "kernel", help="author and check external kernel packages"
    )
    kernel_sub = p_kernel.add_subparsers(dest="kernel_command",
                                         required=True)
    p_kval = kernel_sub.add_parser(
        "validate", help="validate one package (or a directory of them)"
    )
    p_kval.add_argument("directory", metavar="DIR",
                        help="a kernel package directory, or a directory "
                             "of kernel packages")
    p_kval.set_defaults(fn=_cmd_kernel)
    p_kinit = kernel_sub.add_parser(
        "init", help="scaffold a new kernel package directory"
    )
    p_kinit.add_argument("name", metavar="NAME",
                         help="the kernel name (also the default output "
                              "directory)")
    p_kinit.add_argument("--out", default=None, metavar="DIR",
                         help="write the package here instead of ./NAME")
    p_kinit.set_defaults(fn=_cmd_kernel)
    return parser


def main(argv: List[str] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ReproError, OSError) as error:
        # Package errors (bad shard selector, malformed export, worker
        # failure, unknown kernel) and unwritable paths (a --profile
        # record's missing directory, a --cache-dir that is a file) are
        # user-facing diagnostics, not tracebacks — match the exit code
        # of the argparse-level errors.
        print(f"error: {error}", file=sys.stderr)
        return 2
