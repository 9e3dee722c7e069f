"""Hough Transform (HosNa suite): line detection voting.

Control structure (Table 1): a *sub-inner* branch — only pixels above the
edge threshold enter the theta voting loop — inside imperfect nested loops.
The vote-bin computation uses fixed-point cos/sin tables so the kernel
stays integral end to end.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Tuple

import numpy as np

from repro.ir.builder import KernelBuilder
from repro.ir.cdfg import CDFG
from repro.workloads.base import INTENSIVE, Workload

#: fixed-point scale for the trig tables
FP = 256
THRESHOLD = 128


class HoughTransform(Workload):
    short = "HT"
    name = "hough"
    group = INTENSIVE
    paper_size = "120 x 180"

    def sizes(self, scale: str) -> Dict[str, int]:
        return {
            "tiny": {"h": 8, "w": 12, "thetas": 8},
            "small": {"h": 30, "w": 45, "thetas": 24},
            "paper": {"h": 120, "w": 180, "thetas": 48},
        }[scale]

    # ------------------------------------------------------------------
    @staticmethod
    def _tables(thetas: int) -> Tuple[np.ndarray, np.ndarray]:
        angles = np.arange(thetas) * math.pi / thetas
        cos_t = np.round(np.cos(angles) * FP).astype(np.int64)
        sin_t = np.round(np.sin(angles) * FP).astype(np.int64)
        return cos_t, sin_t

    @staticmethod
    def _rho_bins(h: int, w: int) -> int:
        return 2 * (h + w) + 1

    # ------------------------------------------------------------------
    def build(self, sizes: Mapping[str, int]) -> CDFG:
        h, w, thetas = sizes["h"], sizes["w"], sizes["thetas"]
        rho_bins = self._rho_bins(h, w)
        offset = h + w  # bias rho into non-negative bin indices
        k = KernelBuilder(self.name)
        k.array("image")
        k.array("cos_t")
        k.array("sin_t")
        k.array("acc")
        with k.loop("y", 0, h) as y:
            k.set("rowbase", y * w)
            with k.loop("x", 0, w) as x:
                pixel = k.load("image", k.get("rowbase") + x)
                with k.branch(pixel > THRESHOLD) as br:
                    with k.loop("t", 0, thetas) as t:
                        rho = (
                            x * k.load("cos_t", t) + y * k.load("sin_t", t)
                        ) / FP + offset
                        slot = t * rho_bins + rho
                        k.store("acc", slot, k.load("acc", slot) + 1)
        return k.build()

    def inputs(self, sizes, rng) -> Tuple[Dict[str, np.ndarray], Dict[str, int]]:
        h, w, thetas = sizes["h"], sizes["w"], sizes["thetas"]
        cos_t, sin_t = self._tables(thetas)
        # Sparse edge image: ~12% of pixels above threshold.
        image = rng.integers(0, 146, h * w)
        edges = rng.random(h * w) < 0.12
        image[edges] = rng.integers(THRESHOLD + 1, 256, edges.sum())
        memory = {
            "image": image,
            "cos_t": cos_t,
            "sin_t": sin_t,
            "acc": np.zeros(thetas * self._rho_bins(h, w), dtype=np.int64),
        }
        return memory, {}

    def reference(self, sizes, memory, params) -> Dict[str, np.ndarray]:
        h, w, thetas = sizes["h"], sizes["w"], sizes["thetas"]
        rho_bins = self._rho_bins(h, w)
        offset = h + w
        cos_t = np.asarray(memory["cos_t"])
        sin_t = np.asarray(memory["sin_t"])
        image = np.asarray(memory["image"]).reshape(h, w)
        acc = np.zeros(thetas * rho_bins, dtype=np.int64)
        ys, xs = np.nonzero(image > THRESHOLD)
        ys, xs = ys.astype(np.int64), xs.astype(np.int64)
        # One pass over the edge pixels per theta, not a pixels x thetas
        # matrix: the report's peak memory would notice.
        for t in range(thetas):
            num = xs * int(cos_t[t]) + ys * int(sin_t[t])
            # C-style truncating division, matching the IR's DIV.
            q = np.abs(num) // FP
            rho = np.where(num >= 0, q, -q) + offset
            acc[t * rho_bins:(t + 1) * rho_bins] += np.bincount(
                rho, minlength=rho_bins)
        return {"acc": acc}
