"""Speedup arithmetic helpers."""

from __future__ import annotations

import math
from typing import Iterable

from repro.errors import ReproError


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; raises on empty or non-positive inputs."""
    vals = list(values)
    if not vals:
        raise ReproError("geomean of empty sequence")
    if any(v <= 0 for v in vals):
        raise ReproError(f"geomean needs positive values, got {vals}")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))
