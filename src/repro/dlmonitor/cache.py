"""Call-path caching (paper §4.1, "Optimizations").

Many deep-learning operators launch several GPU kernels that share the same
Python and operator call path, and a training loop repeats the same operator
contexts every iteration.  The operator currently executing on a thread is
the top entry of its shadow stack: it holds the Python call path and
dispatch address captured when the operator was entered, so a GPU API
callback or CPU sample inside it reuses that Python path instead of
capturing Python again, and native unwinding stops at its dispatch frame.
On top of that, DLMonitor caches at two levels, both per session:

* **Context ids.**  Each operator pushed on a shadow stack gets a small
  interned integer naming its whole operator context: thread, enclosing
  operator's id, operator name, backward flag, dispatch address, scope and
  the (interned) Python path — on a backward thread also the content of the
  grafted forward record (operator, scope, Python path), never its sequence
  id, which is unique per call and would make every key new.
* **Cached paths.**  A call path built inside an operator context is stored
  under the top entry's context id, the native program counters walked from
  the launch site up to that entry's dispatch frame, the sources and the
  GPU API/kernel leaf.  Those inputs determine the path completely, so a
  later build with the same key returns the stored :class:`CallPath`
  itself.  Each stored path carries a leaf cursor, so a calling context
  tree re-inserting it jumps straight to the leaf node it reached the first
  time.

``hits`` and ``misses`` count ``callpath_get`` requests made inside and
outside an operator context; ``path_hits`` and ``path_misses`` count cached
path lookups.  Nothing here grows per launch: context ids are bounded by
distinct operator contexts and cached paths by distinct launch contexts —
the same argument that bounds the size of the calling context tree.  Paths
built outside any operator context are never stored.
``DLMonitor.finalize`` drops everything.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from .callpath import CallPath


class CallPathCache:
    """Interned operator context ids and cached paths."""

    def __init__(self) -> None:
        self._context_ids: Dict[Hashable, int] = {}
        self._paths: Dict[Hashable, CallPath] = {}
        self.hits = 0
        self.misses = 0
        self.path_hits = 0
        self.path_misses = 0

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
        self._context_ids.clear()
        self._paths.clear()
