"""Forward/backward operator association.

In PyTorch the backward pass runs on dedicated backward threads whose native
call paths contain no Python source — DeepContext recovers the lost context
by recording, for every forward operator, its sequence ID together with its
Python and framework call path; backward operators carry the same sequence ID,
so the backward thread can look up the forward context and graft it onto its
own native call path (paper §4.1, "Forward and backward operator
association", and case study 6.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..pycontext import PyFrame


@dataclass(frozen=True)
class ForwardRecord:
    """Forward-side context stored per sequence ID."""

    sequence_id: int
    op_name: str
    thread_tid: int
    python_callpath: Tuple[PyFrame, ...]
    scope: Tuple[str, ...]


class ForwardBackwardAssociator:
    """Records forward contexts and resolves them from backward threads."""

    def __init__(self, max_records: int = 100_000) -> None:
        self.max_records = max_records
        self._records: Dict[int, ForwardRecord] = {}
        self.lookups = 0
        self.hits = 0

    def record_forward(self, sequence_id: Optional[int], op_name: str, thread_tid: int,
                       python_callpath: Tuple[PyFrame, ...], scope: Tuple[str, ...]) -> None:
        """Store the forward context of an operator keyed by its sequence ID."""
        if sequence_id is None:
            return
        if len(self._records) >= self.max_records:
            # Drop the oldest record; sequence IDs are monotonically increasing.
            oldest = min(self._records)
            del self._records[oldest]
        self._records[sequence_id] = ForwardRecord(
            sequence_id=sequence_id,
            op_name=op_name,
            thread_tid=thread_tid,
            python_callpath=tuple(python_callpath),
            scope=tuple(scope),
        )

    def lookup(self, sequence_id: Optional[int]) -> Optional[ForwardRecord]:
        """Fetch the forward record for a backward operator's sequence ID."""
        self.lookups += 1
        if sequence_id is None:
            return None
        record = self._records.get(sequence_id)
        if record is not None:
            self.hits += 1
        return record

    def peek(self, sequence_id: Optional[int]) -> Optional[ForwardRecord]:
        """Fetch a forward record without affecting lookup statistics."""
        return self._records.get(sequence_id) if sequence_id is not None else None

    @property
    def size(self) -> int:
        return len(self._records)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def clear(self) -> None:
        self._records.clear()
