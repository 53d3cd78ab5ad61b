"""Call-path integration: assembling the unified multi-layer call path.

This is the key innovation of DLMonitor (paper §4.1, "Call Path Integration"):
the Python call path, the framework operator shadow stack and the native C/C++
call path are merged into a single root→leaf call path, optionally extended
with the GPU API and GPU kernel frames at a kernel-launch callback.

The integration rules follow the paper:

* the native call path is traversed bottom-up; a native frame whose program
  counter matches a recorded operator dispatch address causes the operator
  frame to be inserted under its caller;
* native frames that fall inside ``libpython``'s address range are replaced by
  the Python call path (they are the interpreter executing the user's code);
* on backward threads (no Python context) the forward operator's Python and
  framework context — found through the sequence-ID association — is grafted
  in front of the backward native call path;
* at a GPU kernel launch, the GPU API frame and the kernel name are appended
  at the leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..framework.threads import ThreadContext
from ..native.unwinder import NativeFrame, UnwindCursor, Unwinder
from ..pycontext import PyFrame
from .association import ForwardRecord
from .audit import LibraryAuditor
from .cache import CallPathCache
from .callpath import (
    CallPath,
    Frame,
    framework_frame,
    gpu_api_frame,
    gpu_kernel_frame,
    native_frame,
    python_frames_from_triples,
    scope_frame,
    root_frame,
    thread_frame,
)
from .shadow_stack import ShadowEntry, ShadowStack


@dataclass(frozen=True)
class CallPathSources:
    """Which call-path sources to integrate (``dlmonitor_callpath_get`` argument).

    Disabling sources reduces overhead; the paper's evaluation compares the
    full configuration against the variant without native C/C++ frames.
    """

    python: bool = True
    framework: bool = True
    native: bool = True
    gpu: bool = True

    @classmethod
    def all(cls) -> "CallPathSources":
        return cls(True, True, True, True)

    @classmethod
    def without_native(cls) -> "CallPathSources":
        return cls(python=True, framework=True, native=False, gpu=True)

    @classmethod
    def python_only(cls) -> "CallPathSources":
        return cls(python=True, framework=False, native=False, gpu=False)


@dataclass(frozen=True)
class GpuLeafContext:
    """GPU API/kernel information appended at a kernel-launch callback."""

    api_name: str
    kernel_name: str = ""
    library: str = ""
    device: str = ""


class CallPathBuilder:
    """Builds unified call paths for a thread from the configured sources."""

    def __init__(self, auditor: LibraryAuditor, unwinder: Unwinder,
                 program_name: str = "program",
                 cache: Optional[CallPathCache] = None) -> None:
        self.auditor = auditor
        self.unwinder = unwinder
        self.program_name = program_name
        #: Where paths built inside an operator context are stored; ``None``
        #: assembles every path from scratch.
        self.cache = cache
        self.paths_built = 0
        # The (root, thread) prefix of a thread's paths never changes; frames
        # are immutable, so one shared pair per tid serves every build — this
        # is a per-event path (every sample, launch and operator callback).
        self._thread_prefixes: Dict[int, Tuple[Frame, Frame]] = {}

    def build(
        self,
        thread: ThreadContext,
        shadow_stack: ShadowStack,
        python_triples: Sequence[PyFrame],
        sources: CallPathSources,
        gpu_leaf: Optional[GpuLeafContext] = None,
        forward_record: Optional[ForwardRecord] = None,
    ) -> CallPath:
        """The unified call path for ``thread``.

        Inside an operator context (the top shadow entry carries a context
        id) the path is looked up in the call-path cache under that id, the
        native program counters from the launch site up to the entry's
        dispatch frame, the sources and the GPU leaf.  A hit returns the
        path built the first time and charges the unwind steps its key
        walked; a miss assembles the path and stores it.
        """
        self.paths_built += 1
        top = shadow_stack.top()
        if self.cache is None or top is None or top.context_id is None:
            return self._assemble(thread, shadow_stack, python_triples, sources,
                                  gpu_leaf, forward_record)
        cursor = None
        native: Optional[Tuple[int, ...]] = None
        if sources.native and thread.native_stack.depth:
            cursor = self.unwinder.cursor(thread.native_stack)
            native = self._walk_native_suffix(cursor, top.dispatch_pc)
        key = (top.context_id, sources, native, gpu_leaf if sources.gpu else None)
        path = self.cache.cached_path(key)
        if path is not None:
            if cursor is not None:
                self.unwinder.charge(cursor)
            return path
        return self.cache.store_path(key, self._assemble(
            thread, shadow_stack, python_triples, sources, gpu_leaf, forward_record))

    def _walk_native_suffix(self, cursor: UnwindCursor, stop_pc: int) -> Tuple[int, ...]:
        """The program counters ``_integrate_native`` would keep, in walk order.

        Takes exactly the steps of the walk in ``_integrate_native``: up to
        the top operator's dispatch frame or the libpython boundary.
        """
        pcs: List[int] = []
        is_python_frame_pc = self.auditor.is_python_frame_pc
        for frame in cursor:
            pc = frame.pc
            if is_python_frame_pc(pc):
                break
            pcs.append(pc)
            if pc == stop_pc:
                break
        return tuple(pcs)

    def _assemble(
        self,
        thread: ThreadContext,
        shadow_stack: ShadowStack,
        python_triples: Sequence[PyFrame],
        sources: CallPathSources,
        gpu_leaf: Optional[GpuLeafContext],
        forward_record: Optional[ForwardRecord],
    ) -> CallPath:
        """Assemble the unified call path from every source, from scratch."""
        prefix = self._thread_prefixes.get(thread.tid)
        if prefix is None:
            prefix = (root_frame(self.program_name), thread_frame(thread.name, thread.tid))
            self._thread_prefixes[thread.tid] = prefix
        frames: List[Frame] = list(prefix)

        top = shadow_stack.top()
        python_part = self._python_part(thread, python_triples, sources, top, forward_record)
        framework_part = self._framework_part(shadow_stack, sources, forward_record)

        if sources.native and thread.native_stack.depth:
            stop_pc = top.dispatch_pc if top is not None else None
            frames.extend(self._integrate_native(thread, shadow_stack, python_part,
                                                 framework_part, stop_pc,
                                                 include_operators=sources.framework))
        else:
            frames.extend(python_part)
            frames.extend(framework_part)

        if sources.gpu and gpu_leaf is not None:
            frames.append(gpu_api_frame(gpu_leaf.api_name, library=gpu_leaf.library))
            if gpu_leaf.kernel_name:
                frames.append(gpu_kernel_frame(gpu_leaf.kernel_name, device=gpu_leaf.device))
        return CallPath.of(frames)

    # -- parts ---------------------------------------------------------------------

    def _python_part(self, thread: ThreadContext, python_triples: Sequence[PyFrame],
                     sources: CallPathSources, top: Optional[ShadowEntry],
                     forward_record: Optional[ForwardRecord]) -> List[Frame]:
        if not sources.python:
            return []
        if thread.has_python_context:
            triples = tuple(python_triples)
            if not triples and top is not None:
                triples = top.python_callpath
            return python_frames_from_triples(triples)
        # Backward / detached thread: graft the forward operator's Python path.
        if forward_record is not None:
            return python_frames_from_triples(forward_record.python_callpath)
        return []

    def _framework_part(self, shadow_stack: ShadowStack, sources: CallPathSources,
                        forward_record: Optional[ForwardRecord]) -> List[Frame]:
        if not sources.framework:
            return []
        frames: List[Frame] = []
        if forward_record is not None:
            for scope_name in forward_record.scope:
                frames.append(scope_frame(scope_name))
            frames.append(framework_frame(forward_record.op_name, backward=False))
        for entry in shadow_stack.entries:
            for scope_name in entry.scope:
                scope = scope_frame(scope_name)
                scope_identity = scope.identity()
                if not any(f.identity() == scope_identity for f in frames):
                    frames.append(scope)
            frames.append(framework_frame(entry.op_name, backward=entry.is_backward))
        return frames

    def _integrate_native(self, thread: ThreadContext, shadow_stack: ShadowStack,
                          python_part: List[Frame], framework_part: List[Frame],
                          stop_pc: Optional[int],
                          include_operators: bool = True) -> List[Frame]:
        """Merge native frames with the Python and framework parts.

        The native stack is unwound bottom-up (``unw_step``-style) up to the
        libpython boundary, or to ``stop_pc`` — the top operator's dispatch
        frame — when it comes first: that operator's shadow entry stands in
        for everything above it.
        """
        cursor = self.unwinder.cursor(thread.native_stack)
        collected: List[Tuple[NativeFrame, Optional[Frame]]] = []

        for frame in cursor:
            operator_frame: Optional[Frame] = None
            if include_operators:
                entry = shadow_stack.find_by_pc(frame.pc)
                if entry is not None:
                    operator_frame = framework_frame(entry.op_name, backward=entry.is_backward)
            if self.auditor.is_python_frame_pc(frame.pc):
                # Everything above this point is the interpreter: it is
                # represented by the Python call path instead.
                break
            collected.append((frame, operator_frame))
            if stop_pc is not None and frame.pc == stop_pc:
                break
        self.unwinder.charge(cursor)

        # ``collected`` is bottom-up; emit top-down with operator frames
        # inserted under their caller (i.e. just before the matching native
        # frame in top-down order).
        native_top_down: List[Frame] = []
        for frame, operator_frame in reversed(collected):
            if operator_frame is not None:
                native_top_down.append(operator_frame)
            native_top_down.append(native_frame(frame.function, frame.library, frame.pc))

        merged: List[Frame] = []
        merged.extend(python_part)
        # Framework scope frames (module names) come from the shadow stack and
        # have no native address; keep them between Python and native parts.
        scope_frames = [f for f in framework_part if f.tag == "scope"]
        merged.extend(scope_frames)
        inserted_ops = {f.identity() for f in native_top_down}
        for frame in framework_part:
            if frame.tag != "scope" and frame.identity() not in inserted_ops:
                merged.append(frame)
        merged.extend(native_top_down)
        return merged
