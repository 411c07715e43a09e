"""Tiled quantum architecture: physical parameters and geometry."""

from .params import DEFAULT_PARAMS, FabricSpec, GateDelays, PhysicalParams
from .tqa import Channel, Position, TQA

__all__ = [
    "DEFAULT_PARAMS",
    "FabricSpec",
    "GateDelays",
    "PhysicalParams",
    "Channel",
    "Position",
    "TQA",
]
