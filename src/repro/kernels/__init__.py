"""External kernel ingestion: on-disk kernel packages (`repro-kernel` v1).

A kernel package is a directory a user authors — ``kernel.json``
manifest, ``instructions.csv`` (or an inline ``program``), and
``memory/``/``expected/`` region CSVs — that the toolkit runs like any
built-in workload: ``repro run DIR`` simulates it cycle-accurately,
``repro kernel validate|init`` support authoring, and ``repro bench
--kernels DIR`` prices a whole suite through the engine (caching,
sharding, streaming, and dispatch included).  docs/KERNELS.md is the
format specification and walkthrough.
"""

from repro.kernels.package import (
    DTYPES,
    KERNEL_SCHEMA,
    KERNEL_SCHEMA_VERSION,
    KERNEL_TOKEN_PREFIX,
    ArrayDecl,
    KernelPackage,
    LoopBinding,
    dump_manifest,
    from_document,
    is_kernel_dir,
    load_kernel,
    load_kernel_suite,
    save_kernel,
    validate_manifest,
)
from repro.kernels.registry import (
    document_for,
    register,
    register_document,
    register_documents,
    resolve,
    resolve_workload,
)
from repro.kernels.runner import KernelRunReport, OutputVerdict, run_kernel
from repro.kernels.workload import KernelWorkload

__all__ = [
    "DTYPES",
    "KERNEL_SCHEMA",
    "KERNEL_SCHEMA_VERSION",
    "KERNEL_TOKEN_PREFIX",
    "ArrayDecl",
    "KernelPackage",
    "KernelRunReport",
    "KernelWorkload",
    "LoopBinding",
    "OutputVerdict",
    "document_for",
    "dump_manifest",
    "from_document",
    "is_kernel_dir",
    "load_kernel",
    "load_kernel_suite",
    "register",
    "register_document",
    "register_documents",
    "resolve",
    "resolve_workload",
    "run_kernel",
    "save_kernel",
    "validate_manifest",
]
