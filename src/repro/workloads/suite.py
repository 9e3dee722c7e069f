"""The benchmark suite registry (paper Table 5)."""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ConfigurationError
from repro.workloads.base import INTENSIVE, NON_INTENSIVE, Workload
from repro.workloads.merge_sort import MergeSort
from repro.workloads.fft import Fft
from repro.workloads.viterbi import Viterbi
from repro.workloads.nw import NeedlemanWunsch
from repro.workloads.hough import HoughTransform
from repro.workloads.crc import Crc
from repro.workloads.adpcm import AdpcmEncode
from repro.workloads.sc_decode import ScDecode
from repro.workloads.ldpc import LdpcDecode
from repro.workloads.gemm import Gemm
from repro.workloads.conv1d import Conv1d
from repro.workloads.sigmoid import Sigmoid
from repro.workloads.gray import GrayProcessing

#: Figure order of the intensive group (MS FFT VI NW HT CRC ADPCM SCD LDPC
#: GEMM), then the non-intensive group (CO SI GP).
ALL_WORKLOADS: List[Workload] = [
    MergeSort(),
    Fft(),
    Viterbi(),
    NeedlemanWunsch(),
    HoughTransform(),
    Crc(),
    AdpcmEncode(),
    ScDecode(),
    LdpcDecode(),
    Gemm(),
    Conv1d(),
    Sigmoid(),
    GrayProcessing(),
]

INTENSIVE_WORKLOADS: List[Workload] = [
    w for w in ALL_WORKLOADS if w.group == INTENSIVE
]
NON_INTENSIVE_WORKLOADS: List[Workload] = [
    w for w in ALL_WORKLOADS if w.group == NON_INTENSIVE
]

_BY_NAME: Dict[str, Workload] = {}
for _w in ALL_WORKLOADS:
    _BY_NAME[_w.name] = _w
    _BY_NAME[_w.short.lower()] = _w


def get_workload(name: str) -> Workload:
    """Look a workload up by full name or figure abbreviation.

    ``kernel:<name>@<fingerprint>`` tokens resolve to external kernel
    packages registered in this process (see :mod:`repro.kernels`) —
    the one extension point the engine needs to run user-supplied
    kernels through every cache/shard/dispatch path unchanged.

    Raises :class:`~repro.errors.ConfigurationError` naming every
    available workload when the lookup fails.
    """
    if name.startswith("kernel:"):
        # Lazy import: repro.kernels builds CDFGs through the same
        # workload framework this module anchors.
        from repro.kernels.registry import resolve_workload

        return resolve_workload(name)
    key = name.lower()
    if key not in _BY_NAME:
        raise ConfigurationError(
            f"unknown workload {name!r}; known: "
            f"{sorted(w.name for w in ALL_WORKLOADS)}"
        )
    return _BY_NAME[key]
