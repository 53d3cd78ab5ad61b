"""DLMonitor callback domains and event payloads.

Profilers register callbacks with DLMonitor per *domain*: the framework
domain delivers deep-learning operator events (enter/exit of each operator,
graph compilation, tensor allocation), and the GPU domain delivers GPU runtime
API events (kernel launches, memory copies, allocations).  These constants and
dataclasses define the framework-agnostic format the paper's "shim" layer
converts framework-specific data into.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

# Callback domains.
DLMONITOR_FRAMEWORK = "DLMONITOR_FRAMEWORK"
DLMONITOR_GPU = "DLMONITOR_GPU"

ALL_DOMAINS = (DLMONITOR_FRAMEWORK, DLMONITOR_GPU)

# Event phases (mirroring the before/after callbacks of the paper).
PHASE_ENTER = "enter"
PHASE_EXIT = "exit"

# Framework event kinds.
EVENT_OPERATOR = "operator"
EVENT_COMPILATION = "compilation"
EVENT_ALLOCATION = "allocation"


@dataclass
class FrameworkEvent:
    """A framework-domain event delivered to registered callbacks."""

    kind: str
    phase: str
    op_name: str = ""
    is_backward: bool = False
    sequence_id: Optional[int] = None
    thread_tid: int = 0
    scope: List[str] = field(default_factory=list)
    #: Operator inputs/outputs metadata (shapes, dtypes, bytes) when available.
    attrs: Dict[str, Any] = field(default_factory=dict)
    input_bytes: int = 0
    output_bytes: int = 0
    framework: str = "pytorch"


@dataclass
class GpuEvent:
    """A GPU-domain event delivered to registered callbacks."""

    api_name: str
    phase: str
    correlation_id: int
    device: str = ""
    kernel_name: str = ""
    stream: int = 0
    bytes: float = 0.0
    kind: str = ""
    thread_tid: int = 0
