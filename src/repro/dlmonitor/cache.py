"""Call-path caching (paper §4.1, "Optimizations").

Many deep-learning operators launch several GPU kernels that share the same
Python and operator call path, and a training loop repeats the same operator
contexts every iteration.  DLMonitor caches at three levels, all per session:

* **Cached prefix.**  Per thread, the Python call path and dispatch address
  captured when the current operator was entered.  GPU API callbacks reuse
  the prefix instead of capturing Python again, and native unwinding stops
  at the cached dispatch frame.
* **Context ids.**  Each operator pushed on a shadow stack gets a small
  interned integer naming its whole operator context: thread, enclosing
  operator's id, operator name, backward flag, dispatch address, scope and
  the (interned) Python path — on a backward thread also the content of the
  grafted forward record (operator, scope, Python path), never its sequence
  id, which is unique per call and would make every key new.
* **Cached paths.**  A call path built inside an operator context is stored
  under the context id of the top entry and of the cached prefix, the
  native program counters walked from the launch site up to the cached
  dispatch frame, the sources and the GPU API/kernel leaf.  Those inputs
  determine the path completely, so a later build with the same key returns
  the stored :class:`CallPath` itself.  Each stored path carries a leaf
  cursor, so a calling context tree re-inserting it jumps straight to the
  leaf node it reached the first time.

Nothing here grows per launch: context ids are bounded by distinct operator
contexts and cached paths by distinct launch contexts — the same argument
that bounds the size of the calling context tree.  Paths built outside any
operator context are never stored.  ``DLMonitor.finalize`` drops everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from ..pycontext import PyFrame
from .callpath import CallPath


@dataclass
class CachedPrefix:
    """The cached context of the operator currently executing on a thread."""

    op_name: str
    dispatch_pc: int
    python_callpath: Tuple[PyFrame, ...]
    scope: Tuple[str, ...]
    is_backward: bool = False
    sequence_id: Optional[int] = None
    #: The operator context id of the shadow entry this prefix was taken at.
    context_id: Optional[int] = None


class CallPathCache:
    """Per-thread prefixes, interned operator context ids and cached paths."""

    def __init__(self) -> None:
        self._by_thread: Dict[int, CachedPrefix] = {}
        self._context_ids: Dict[Hashable, int] = {}
        self._paths: Dict[Hashable, CallPath] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.path_hits = 0
        self.path_misses = 0

    # -- per-thread prefix ----------------------------------------------------------

    def store(self, tid: int, prefix: CachedPrefix) -> None:
        """Cache the prefix for a thread (called when an operator is entered)."""
        self._by_thread[tid] = prefix

    def lookup(self, tid: int) -> Optional[CachedPrefix]:
        prefix = self._by_thread.get(tid)
        if prefix is not None:
            self.hits += 1
        else:
            self.misses += 1
        return prefix

    def peek(self, tid: int) -> Optional[CachedPrefix]:
        """Look without affecting hit/miss statistics."""
        return self._by_thread.get(tid)

    def invalidate(self, tid: int) -> None:
        """Drop the cached prefix (called when the operator exits)."""
        if tid in self._by_thread:
            del self._by_thread[tid]
            self.invalidations += 1

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- operator contexts and paths --------------------------------------------------

    def context_id(self, key: Hashable) -> int:
        """The interned id of an operator context (assigned on first sight)."""
        context_id = self._context_ids.get(key)
        if context_id is None:
            context_id = self._context_ids[key] = len(self._context_ids)
        return context_id

    def cached_path(self, key: Hashable) -> Optional[CallPath]:
        """The path stored under ``key``, counting a hit or a miss."""
        path = self._paths.get(key)
        if path is not None:
            self.path_hits += 1
        else:
            self.path_misses += 1
        return path

    def store_path(self, key: Hashable, path: CallPath) -> CallPath:
        """Store a freshly built path; it gains a leaf cursor."""
        self._paths[key] = path.with_cursor()
        return path

    @property
    def size(self) -> int:
        """Context ids plus cached paths currently held."""
        return len(self._context_ids) + len(self._paths)

    def clear(self) -> None:
        self._by_thread.clear()
        self._context_ids.clear()
        self._paths.clear()
