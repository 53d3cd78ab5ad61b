"""Computation graphs for the JIT (JAX-like) execution mode.

A traced graph records each original operator with the *compile-time* Python
call path where it appeared in the user program.  After the fusion pass,
executable nodes may be :class:`FusedOperator` groups whose runtime call path
no longer matches any single original operator — the mismatch DLMonitor's
fusion map resolves (paper Figure 4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .tensor import Tensor

_node_ids = itertools.count(1)

#: A compile-time Python frame: (file, line, function).
PyFrame = Tuple[str, int, str]


@dataclass
class GraphOperator:
    """One original (pre-fusion) operator in a traced graph."""

    op_name: str
    inputs: List[Tensor]
    attrs: Dict[str, Any]
    output: Tensor
    #: Python call path captured while tracing (outermost frame first).
    compile_time_callpath: Tuple[PyFrame, ...] = ()
    scope: List[str] = field(default_factory=list)
    node_id: int = field(default_factory=lambda: next(_node_ids))

    @property
    def kind(self) -> str:
        from .ops import registry

        return registry.get(self.op_name).kind if self.op_name in registry else "unknown"

    def __repr__(self) -> str:
        return f"GraphOperator(#{self.node_id} {self.op_name})"


@dataclass
class FusedOperator:
    """A group of original operators fused into a single executable kernel."""

    name: str
    members: List[GraphOperator]
    node_id: int = field(default_factory=lambda: next(_node_ids))

    @property
    def member_ids(self) -> List[int]:
        return [member.node_id for member in self.members]

    @property
    def member_names(self) -> List[str]:
        return [member.op_name for member in self.members]

    def __repr__(self) -> str:
        return f"FusedOperator(#{self.node_id} {self.name}, members={self.member_names})"


@dataclass
class Graph:
    """A traced computation graph, before or after compilation passes."""

    name: str
    operators: List[GraphOperator] = field(default_factory=list)
    #: Executable plan produced by the compilation passes; entries are either
    #: GraphOperator (unfused) or FusedOperator (fused group).
    executable: List[object] = field(default_factory=list)
    compiled: bool = False

    def add(self, operator: GraphOperator) -> GraphOperator:
        self.operators.append(operator)
        return operator

    @property
    def num_operators(self) -> int:
        return len(self.operators)

    @property
    def num_executable(self) -> int:
        return len(self.executable)

    def fused_groups(self) -> List[FusedOperator]:
        return [node for node in self.executable if isinstance(node, FusedOperator)]

    def find_operator(self, node_id: int) -> Optional[GraphOperator]:
        for operator in self.operators:
            if operator.node_id == node_id:
                return operator
        return None
