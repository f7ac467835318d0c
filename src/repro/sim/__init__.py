"""Simulation engines behind the pluggable cycle substrate.

Two production engines (the compiled bit-parallel cycle simulator and the
fused sweep kernel generated from it) plus the event-driven 0/1/X
simulator, the testbench framework, and activity tracing.  See :mod:`repro.sim.backend` for the
:class:`SimBackend` protocol and ``docs/simulators.md`` for when to use
which engine.
"""

from .activity import ActivityTrace, NetActivity, collect_net_activity, write_vcd
from .backend import BACKEND_NAMES, CYCLE_BACKENDS, SimBackend, available_backends, create_backend
from .compiled import CompiledSimulator
from .event import ClockGenerator, EventDrivenSimulator
from .fused import FusedSweepKernel
from .logic import ONE, X, ZERO, broadcast, eval3, extract_lane, lane_mask, popcount
from .testbench import GoldenTrace, LoopbackPath, ScheduleBuilder, Testbench

__all__ = [
    "ActivityTrace",
    "NetActivity",
    "collect_net_activity",
    "write_vcd",
    "BACKEND_NAMES",
    "CYCLE_BACKENDS",
    "SimBackend",
    "available_backends",
    "create_backend",
    "CompiledSimulator",
    "FusedSweepKernel",
    "ClockGenerator",
    "EventDrivenSimulator",
    "ONE",
    "X",
    "ZERO",
    "broadcast",
    "eval3",
    "extract_lane",
    "lane_mask",
    "popcount",
    "GoldenTrace",
    "LoopbackPath",
    "ScheduleBuilder",
    "Testbench",
]
