"""On-chip networks: the data mesh and the CS-Benes control network."""

from repro.arch.network.benes import BenesNetwork, RouteConfig
from repro.arch.network.cs import CSNetwork, Broadcast
from repro.arch.network.cs_benes import ControlNetwork, ControlMessage
from repro.arch.network.mesh import DataMesh
from repro.arch.network.area import (
    NetworkAreaModel,
    benes_switch_count,
    cs_switch_count,
    delay_model,
)

__all__ = [
    "BenesNetwork",
    "RouteConfig",
    "CSNetwork",
    "Broadcast",
    "ControlNetwork",
    "ControlMessage",
    "DataMesh",
    "NetworkAreaModel",
    "benes_switch_count",
    "cs_switch_count",
    "delay_model",
]
