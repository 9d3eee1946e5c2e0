"""repro.pipeline — the FFI call path.

Every checked crossing goes through one compiled plan per (runtime,
stage set): the interceptor protocol in
:mod:`repro.pipeline.interceptors` names the stages (telemetry tap,
recorder tap, governor meter, machine dispatch, containment guard); the
compiler in :mod:`repro.pipeline.plan` fuses the active ones into a
single flat entry per ``(function, direction)`` site.
"""

from repro.pipeline.interceptors import (
    CallSite,
    ContainmentGuard,
    GovernorMeter,
    Interceptor,
    MachineDispatchStage,
    RecorderTap,
)
from repro.pipeline.plan import PipelinePlan

__all__ = [
    "CallSite",
    "ContainmentGuard",
    "GovernorMeter",
    "Interceptor",
    "MachineDispatchStage",
    "PipelinePlan",
    "RecorderTap",
]
