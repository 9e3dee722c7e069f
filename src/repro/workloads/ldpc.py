"""LDPC Decode: min-sum belief propagation on a regular code.

Control structure (Table 1): nested branches in the innermost loops (sign
extraction, running min1/min2 selection), imperfect nested loops (per-check
setup around per-edge loops) and serial loops (check pass, update pass,
decision pass per iteration).

The parity-check matrix is a random regular (row weight ``WC``) code built
from column permutations; messages are integer fixed-point LLRs, so the
whole decode is exact integer arithmetic and the reference matches
bit-for-bit.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

import numpy as np

from repro.ir.builder import KernelBuilder
from repro.ir.cdfg import CDFG
from repro.workloads.base import INTENSIVE, Workload

BIG = 1 << 20
#: edges per check row
WC = 6


class LdpcDecode(Workload):
    short = "LDPC"
    name = "ldpc"
    group = INTENSIVE
    paper_size = "20 iters; 128 code length"

    def sizes(self, scale: str) -> Dict[str, int]:
        return {
            "tiny": {"n": 24, "iters": 2},
            "small": {"n": 96, "iters": 6},
            "paper": {"n": 128, "iters": 20},
        }[scale]

    # ------------------------------------------------------------------
    @staticmethod
    def _code(n: int, rng: np.random.Generator) -> np.ndarray:
        """Edge variable indices for n/2 checks of weight WC."""
        checks = n // 2
        edges = []
        for c in range(checks):
            vars_ = rng.choice(n, size=WC, replace=False)
            edges.extend(sorted(int(v) for v in vars_))
        return np.array(edges, dtype=np.int64)

    def build(self, sizes: Mapping[str, int]) -> CDFG:
        n = sizes["n"]
        iters = sizes["iters"]
        checks = n // 2
        k = KernelBuilder(self.name)
        k.array("edge_var")   # checks*WC edge -> variable index
        k.array("total")      # per-variable LLR accumulator
        k.array("c2v")        # check-to-variable messages per edge
        k.array("emag")       # per-edge |v2c| scratch
        k.array("esign")      # per-edge sign scratch
        k.array("hard")       # decoded bits
        with k.loop("it", 0, iters) as it:
            with k.loop("c", 0, checks) as c:
                k.set("ebase", c * WC)
                # Pass 1: signs, magnitudes, min1/min2.
                k.set("min1", BIG)
                k.set("min2", BIG)
                k.set("sgn", 0)
                with k.loop("e", 0, WC) as e:
                    k.set("eid", k.get("ebase") + e)
                    v2c = (
                        k.load("total", k.load("edge_var", k.get("eid")))
                        - k.load("c2v", k.get("eid"))
                    )
                    with k.branch(v2c < 0) as sb:
                        k.set("s", 1)
                        k.set("mag", 0 - v2c)
                    with sb.orelse():
                        k.set("s", 0)
                        k.set("mag", v2c)
                    k.set("sgn", k.get("sgn") ^ k.get("s"))
                    k.store("esign", k.get("eid"), k.get("s"))
                    k.store("emag", k.get("eid"), k.get("mag"))
                    with k.branch(k.get("mag") < k.get("min1")) as m1:
                        k.set("min2", k.get("min1"))
                        k.set("min1", k.get("mag"))
                    with m1.orelse():
                        with k.branch(k.get("mag") < k.get("min2")) as m2:
                            k.set("min2", k.get("mag"))
                # Pass 2: emit messages, update totals in place.
                with k.loop("e2", 0, WC) as e2:
                    k.set("eid", k.get("ebase") + e2)
                    with k.branch(
                        k.load("emag", k.get("eid")).eq(k.get("min1"))
                    ) as pick:
                        k.set("m", k.get("min2"))
                    with pick.orelse():
                        k.set("m", k.get("min1"))
                    s_out = k.get("sgn") ^ k.load("esign", k.get("eid"))
                    with k.branch(s_out.eq(1)) as neg:
                        k.set("newmsg", 0 - k.get("m"))
                    with neg.orelse():
                        k.set("newmsg", k.get("m"))
                    var = k.load("edge_var", k.get("eid"))
                    k.store(
                        "total", var,
                        k.load("total", var) + k.get("newmsg")
                        - k.load("c2v", k.get("eid")),
                    )
                    k.store("c2v", k.get("eid"), k.get("newmsg"))
            # Hard decisions each iteration.
            with k.loop("v", 0, n) as v:
                with k.branch(k.load("total", v) < 0) as hb:
                    k.store("hard", v, 1)
                with hb.orelse():
                    k.store("hard", v, 0)
        return k.build()

    def inputs(self, sizes, rng) -> Tuple[Dict[str, np.ndarray], Dict[str, int]]:
        n = sizes["n"]
        checks = n // 2
        memory = {
            "edge_var": self._code(n, rng),
            "total": rng.integers(-15, 16, n),
            "c2v": np.zeros(checks * WC, dtype=np.int64),
            "emag": np.zeros(checks * WC, dtype=np.int64),
            "esign": np.zeros(checks * WC, dtype=np.int64),
            "hard": np.zeros(n, dtype=np.int64),
        }
        return memory, {}

    def reference(self, sizes, memory, params) -> Dict[str, np.ndarray]:
        n = sizes["n"]
        iters = sizes["iters"]
        checks = n // 2
        edge_var = np.asarray(memory["edge_var"])
        total = [int(x) for x in memory["total"]]
        c2v = [0] * (checks * WC)
        hard = [0] * n
        for _ in range(iters):
            for c in range(checks):
                base = c * WC
                min1, min2, sgn = BIG, BIG, 0
                mags, signs = [], []
                for e in range(WC):
                    eid = base + e
                    v2c = total[edge_var[eid]] - c2v[eid]
                    s = 1 if v2c < 0 else 0
                    mag = -v2c if v2c < 0 else v2c
                    sgn ^= s
                    mags.append(mag)
                    signs.append(s)
                    if mag < min1:
                        min2, min1 = min1, mag
                    elif mag < min2:
                        min2 = mag
                for e in range(WC):
                    eid = base + e
                    m = min2 if mags[e] == min1 else min1
                    new = -m if (sgn ^ signs[e]) else m
                    var = edge_var[eid]
                    total[var] += new - c2v[eid]
                    c2v[eid] = new
            hard = [1 if t < 0 else 0 for t in total]
        return {
            "hard": np.array(hard, dtype=np.int64),
            "total": np.array(total, dtype=np.int64),
        }
