"""Workload synthesis: traces, content, and the Table-3 recipe."""

from .content import ContentFactory
from .generator import WORKLOADS, WorkloadSpec, build_workload, cache_sizing
from .runner import ReplayResult, replay
from .synthetic import MAIL_PROFILE, WEBVM_PROFILE, TraceProfile, synthesize
from .trace import IoRequest, OpKind, Trace

__all__ = [
    "ContentFactory",
    "IoRequest",
    "MAIL_PROFILE",
    "OpKind",
    "ReplayResult",
    "Trace",
    "TraceProfile",
    "WEBVM_PROFILE",
    "WORKLOADS",
    "WorkloadSpec",
    "build_workload",
    "cache_sizing",
    "replay",
    "synthesize",
]
