"""Area and power models (paper Table 4 and Table 6, 28 nm).

Per-component unit costs are calibrated once against the published
prototype breakdown; :func:`table4_rows` then *computes* the breakdown for
any :class:`~repro.arch.params.ArchParams`, so scaling studies (more PEs,
bigger scratchpads) stay self-consistent.  Table 6's competitor numbers are
published constants (normalised by the authors to 28 nm, 32-bit, 4x4); our
row is computed from the network structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.arch.network.area import NetworkAreaModel
from repro.arch.params import ArchParams, DEFAULT_PARAMS

# ----------------------------------------------------------------------
# Calibration anchors: the published prototype (Table 4)
# ----------------------------------------------------------------------
_ORDINARY_PE_AREA = 0.059 / 12        # mm^2 per ordinary PE
_NONLINEAR_PE_AREA = 0.032 / 4        # mm^2 per nonlinear-fitting PE
_SRAM_AREA_PER_KB = 0.033 / 16        # data scratchpad
_CTRL_FIFO_AREA = 0.001 / 16          # per PE-attached control FIFO
_CONTROLLER_AREA = 0.013              # controller + 2 KB inst scratchpad

_ORDINARY_PE_POWER = 48.99 / 12       # mW
_NONLINEAR_PE_POWER = 22.02 / 4
_DATA_NET_POWER = 40.80 / 16          # per router
_CTRL_NET_POWER = 13.89 / 416         # per switch
_SRAM_POWER_PER_KB = 5.07 / 16
_MEM_INTERCONNECT_POWER = 14.24
_CTRL_FIFO_POWER = 0.56 / 16
_CONTROLLER_POWER = 6.52


@dataclass(frozen=True)
class AreaPowerModel:
    """Computes the Table 4 breakdown for one configuration."""

    params: ArchParams = DEFAULT_PARAMS

    # -- component areas (mm^2) ----------------------------------------
    def ordinary_pe_area(self) -> float:
        n = self.params.n_pes - self.params.nonlinear_pes
        return n * _ORDINARY_PE_AREA

    def nonlinear_pe_area(self) -> float:
        return self.params.nonlinear_pes * _NONLINEAR_PE_AREA

    def _network(self) -> NetworkAreaModel:
        return NetworkAreaModel(
            n_pes=self.params.n_pes,
            data_width_bits=self.params.data_width_bits,
        )

    def data_network_area(self) -> float:
        return self._network().data_network_area()

    def control_network_area(self) -> float:
        return self._network().control_network_area()

    def scratchpad_area(self) -> float:
        return self.params.sram_kb * _SRAM_AREA_PER_KB

    def memory_interconnect_area(self) -> float:
        return self._network().memory_interconnect_area()

    def control_fifo_area(self) -> float:
        return self.params.n_pes * _CTRL_FIFO_AREA

    def controller_area(self) -> float:
        return _CONTROLLER_AREA * (self.params.inst_scratchpad_kb / 2)


def table4_rows(params: ArchParams = DEFAULT_PARAMS) -> List[Dict[str, object]]:
    """The Table 4 breakdown: (group, component, area mm^2, power mW)."""
    model = AreaPowerModel(params)
    from repro.arch.network.cs_benes import ControlNetwork

    ctrl_switches = ControlNetwork(params.n_pes).switch_count
    n_ord = params.n_pes - params.nonlinear_pes
    rows = [
        {"group": "PE", "component": f"PEs ({n_ord} ordinary)",
         "area_mm2": model.ordinary_pe_area(),
         "power_mw": n_ord * _ORDINARY_PE_POWER},
        {"group": "PE",
         "component": f"PEs ({params.nonlinear_pes} with nonlinear fitting)",
         "area_mm2": model.nonlinear_pe_area(),
         "power_mw": params.nonlinear_pes * _NONLINEAR_PE_POWER},
        {"group": "Network", "component": "Data Network",
         "area_mm2": model.data_network_area(),
         "power_mw": params.n_pes * _DATA_NET_POWER},
        {"group": "Network", "component": "Control Network",
         "area_mm2": model.control_network_area(),
         "power_mw": ctrl_switches * _CTRL_NET_POWER},
        {"group": "Memory",
         "component": f"Data Scratchpad ({params.sram_kb}KB)",
         "area_mm2": model.scratchpad_area(),
         "power_mw": params.sram_kb * _SRAM_POWER_PER_KB},
        {"group": "Memory", "component": "Memory Access Interconnect",
         "area_mm2": model.memory_interconnect_area(),
         "power_mw": _MEM_INTERCONNECT_POWER * (params.n_pes / 16)},
        {"group": "Memory", "component": "Control FIFOs",
         "area_mm2": model.control_fifo_area(),
         "power_mw": params.n_pes * _CTRL_FIFO_POWER},
        {"group": "Control",
         "component": (
             f"Controller / Instruction Scratchpad "
             f"({params.inst_scratchpad_kb}KB)"
         ),
         "area_mm2": model.controller_area(),
         "power_mw": _CONTROLLER_POWER * (params.inst_scratchpad_kb / 2)},
    ]
    rows.append({
        "group": "Total", "component": "Marionette",
        "area_mm2": sum(r["area_mm2"] for r in rows),
        "power_mw": sum(r["power_mw"] for r in rows),
    })
    return rows


# ----------------------------------------------------------------------
# Table 6: published competitor numbers (28 nm, 32-bit, 4x4 normalised)
# ----------------------------------------------------------------------
TABLE6_PUBLISHED: Dict[str, Dict[str, float]] = {
    "Softbrain": {"pe_area": 0.0041, "network_area": 0.0130},
    "REVEL": {"pe_area": 0.022, "network_area": 0.028},
    "DySER": {"pe_area": 0.058, "network_area": 0.052},
    "Plasticine": {"pe_area": 0.161, "network_area": 0.294},
    "SPU": {"pe_area": 0.050, "network_area": 0.045},
}


def table6_rows(params: ArchParams = DEFAULT_PARAMS) -> List[Dict[str, object]]:
    """Table 6: network area vs computing fabric across architectures.

    Competitor rows are the published constants; the Marionette row is
    computed from this repo's PE and network models.
    """
    rows: List[Dict[str, object]] = []
    for arch, data in TABLE6_PUBLISHED.items():
        fabric = data["pe_area"] + data["network_area"]
        rows.append({
            "architecture": arch,
            "pe_area": data["pe_area"],
            "network_area": data["network_area"],
            "computing_fabric": fabric,
            "network_ratio": data["network_area"] / fabric,
        })
    model = AreaPowerModel(params)
    pe_area = model.ordinary_pe_area() + model.nonlinear_pe_area()
    network = (
        model.data_network_area()
        + model.memory_interconnect_area()
        + model.control_network_area()
    )
    fabric = pe_area + network
    rows.append({
        "architecture": "Marionette",
        "pe_area": pe_area,
        "network_area": network,
        "computing_fabric": fabric,
        "network_ratio": network / fabric,
    })
    return rows
