"""SC Decode: successive-cancellation butterfly over polar LLRs.

Control structure (Table 1): innermost sign branches (the ``f`` min-sum
update), imperfect nested loops (level bookkeeping around the pair loops)
and serial loops (the ``f`` reduction pyramid, the per-level hard
decisions, then the ``g`` partial-sum pass).

Substitution note: the full SC chain decoder interleaves
``f``/``g`` per decoded bit with a lazy schedule; this kernel keeps the
exact computational primitives and control flow forms — serial level loops
whose bounds halve, data-dependent sign branches in every butterfly, and a
``g`` pass conditioned on decided bits — in a single-sweep arrangement that
a cycle-level control-flow study exercises identically.  The reference
mirrors the same arithmetic independently in NumPy-free Python.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

import numpy as np

from repro.ir.builder import KernelBuilder
from repro.ir.cdfg import CDFG
from repro.workloads.base import INTENSIVE, Workload


class ScDecode(Workload):
    short = "SCD"
    name = "sc_decode"
    group = INTENSIVE
    paper_size = "2048 channels"

    def sizes(self, scale: str) -> Dict[str, int]:
        return {"tiny": {"n": 16}, "small": {"n": 512},
                "paper": {"n": 2048}}[scale]

    def build(self, sizes: Mapping[str, int]) -> CDFG:
        n = sizes["n"]
        if n & (n - 1):
            raise ValueError("SC decode size must be a power of two")
        k = KernelBuilder(self.name)
        k.array("llr")    # pyramid buffer, 2n-1 slots (level 0 = channel)
        k.array("bits")   # per-slot hard decisions
        k.array("gout")   # g-refined LLRs for the second half, n/2 slots
        # f-phase: reduce pairs level by level (serial loop, halving span).
        k.set("len", n)
        k.set("src", 0)
        k.set("dst", n)
        with k.while_(lambda: k.get("len") > 1, name="flevel"):
            k.set("half", k.get("len") / 2)
            with k.loop("p", 0, k.get("half")) as p:
                a = k.load("llr", k.get("src") + p * 2)
                b = k.load("llr", k.get("src") + p * 2 + 1)
                with k.branch(a < 0) as sa:
                    k.set("sa", 1)
                    k.set("ma", 0 - a)
                with sa.orelse():
                    k.set("sa", 0)
                    k.set("ma", a)
                with k.branch(b < 0) as sb:
                    k.set("sb", 1)
                    k.set("mb", 0 - b)
                with sb.orelse():
                    k.set("sb", 0)
                    k.set("mb", b)
                with k.branch(k.get("ma") < k.get("mb")) as mm:
                    k.set("mag", k.get("ma"))
                with mm.orelse():
                    k.set("mag", k.get("mb"))
                with k.branch((k.get("sa") ^ k.get("sb")).eq(1)) as sf:
                    k.set("f", 0 - k.get("mag"))
                with sf.orelse():
                    k.set("f", k.get("mag"))
                k.store("llr", k.get("dst") + p, k.get("f"))
            k.set("src", k.get("dst"))
            k.set("dst", k.get("dst") + k.get("half"))
            k.set("len", k.get("half"))
        # Decision phase: hard-decide every pyramid slot.
        total = 2 * n - 1
        with k.loop("d", 0, total) as d:
            with k.branch(k.load("llr", d) < 0) as hb:
                k.store("bits", d, 1)
            with hb.orelse():
                k.store("bits", d, 0)
        # g-phase: refine the second half of level 0 using level-1
        # decisions: g(a, b, u) = b + a when u = 0, b - a when u = 1.
        with k.loop("q", 0, n / 2) as q:
            a = k.load("llr", q * 2)
            b = k.load("llr", q * 2 + 1)
            u = k.load("bits", n + q)
            with k.branch(u.eq(1)) as gb:
                k.store("gout", q, b - a)
            with gb.orelse():
                k.store("gout", q, b + a)
        return k.build()

    def inputs(self, sizes, rng) -> Tuple[Dict[str, np.ndarray], Dict[str, int]]:
        n = sizes["n"]
        llr = np.zeros(2 * n - 1, dtype=np.int64)
        llr[:n] = rng.integers(-31, 32, n)
        memory = {
            "llr": llr,
            "bits": np.zeros(2 * n - 1, dtype=np.int64),
            "gout": np.zeros(n // 2, dtype=np.int64),
        }
        return memory, {}

    def reference(self, sizes, memory, params) -> Dict[str, np.ndarray]:
        n = sizes["n"]
        llr = [int(x) for x in memory["llr"]]
        length, src, dst = n, 0, n
        while length > 1:
            half = length // 2
            for p in range(half):
                a, b = llr[src + 2 * p], llr[src + 2 * p + 1]
                sign = -1 if (a < 0) != (b < 0) else 1
                llr[dst + p] = sign * min(abs(a), abs(b))
            src, dst, length = dst, dst + half, half
        bits = [1 if x < 0 else 0 for x in llr]
        gout = []
        for q in range(n // 2):
            a, b = llr[2 * q], llr[2 * q + 1]
            gout.append(b - a if bits[n + q] else b + a)
        return {
            "llr": np.array(llr, dtype=np.int64),
            "bits": np.array(bits, dtype=np.int64),
            "gout": np.array(gout, dtype=np.int64),
        }
