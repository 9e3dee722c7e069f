"""Shared fixtures: canonical kernels and architecture parameters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.params import ArchParams
from repro.ir.builder import KernelBuilder


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="regenerate the tests/golden/*.json experiment snapshots "
             "instead of comparing against them",
    )


@pytest.fixture
def params() -> ArchParams:
    return ArchParams()


@pytest.fixture
def saxpy_kernel():
    """A single counted loop: y[i] = 3*x[i] + y[i]."""
    k = KernelBuilder("saxpy")
    n = k.param("n")
    k.array("x")
    k.array("y")
    with k.loop("i", 0, n) as i:
        k.store("y", i, k.load("x", i) * 3 + k.load("y", i))
    return k.build()


@pytest.fixture
def branchy_kernel():
    """One loop with a two-way branch: o[i] = |a[i] - b[i]|."""
    k = KernelBuilder("absdiff")
    n = k.param("n")
    k.array("a")
    k.array("b")
    k.array("o")
    with k.loop("i", 0, n) as i:
        x = k.load("a", i)
        y = k.load("b", i)
        with k.branch(x < y) as br:
            k.set("d", y - x)
        with br.orelse():
            k.set("d", x - y)
        k.store("o", i, k.get("d"))
    return k.build()


@pytest.fixture
def imperfect_kernel():
    """A two-level imperfect nest (SPMV shape)."""
    k = KernelBuilder("spmv")
    n = k.param("n")
    k.array("rd")
    k.array("val")
    k.array("out")
    with k.loop("i", 0, n) as i:
        lo = k.load("rd", i)
        hi = k.load("rd", i + 1)
        k.set("s", 0)
        with k.loop("j", lo, hi) as j:
            k.set("s", k.get("s") + k.load("val", j))
        k.store("out", i, k.get("s"))
    return k.build()


@pytest.fixture
def spmv_inputs():
    rd = np.array([0, 2, 5, 5, 9])
    val = np.arange(1, 10)
    out = np.zeros(4, dtype=np.int64)
    expected = np.array([val[0] + val[1], val[2] + val[3] + val[4], 0,
                         val[5] + val[6] + val[7] + val[8]])
    return {"rd": rd, "val": val, "out": out}, {"n": 4}, expected
