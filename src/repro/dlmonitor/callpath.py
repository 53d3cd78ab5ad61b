"""Unified call-path representation.

A call path is an ordered sequence of frames from the outermost root to the
innermost leaf, mixing frame kinds from every level of the stack: Python
source frames, deep-learning framework operators, native C/C++ frames, GPU
runtime API calls, GPU kernels and (for fine-grained profiles) GPU
instructions.  Frame identity — which frames collapse into the same calling
context tree node — follows the paper: native/GPU frames compare by library
and program counter, Python frames by file and line, framework frames by
operator name.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, List, Optional, Sequence, Tuple

from ..pycontext import clear_path_intern


class FrameKind(Enum):
    """Which layer of the software stack a frame belongs to."""

    ROOT = "root"
    THREAD = "thread"
    PYTHON = "python"
    FRAMEWORK = "framework"
    NATIVE = "native"
    GPU_API = "gpu_api"
    GPU_KERNEL = "gpu_kernel"
    GPU_INSTRUCTION = "gpu_instruction"


@dataclass(frozen=True)
class Frame:
    """One frame of the unified call path."""

    kind: FrameKind
    name: str
    file: str = ""
    line: int = 0
    library: str = ""
    pc: int = 0
    #: Free-form annotation (e.g. "backward", a stall reason, a device name).
    tag: str = ""

    def identity(self) -> Tuple:
        """The key used to collapse equal frames in the calling context tree.

        Computed once per frame instance and memoized — ``child_for`` calls it
        on every level of every inserted call path, and frames interned by
        their constructor arguments make the cache hit rate approach 100%.
        """
        cached = self.__dict__.get("_identity")
        if cached is None:
            cached = self._compute_identity()
            object.__setattr__(self, "_identity", cached)
        return cached

    def _compute_identity(self) -> Tuple:
        if self.kind == FrameKind.PYTHON:
            return (self.kind.value, self.file, self.line)
        if self.kind == FrameKind.FRAMEWORK:
            return (self.kind.value, self.name, self.tag)
        if self.kind in (FrameKind.NATIVE, FrameKind.GPU_API):
            return (self.kind.value, self.library, self.pc or self.name)
        if self.kind == FrameKind.GPU_INSTRUCTION:
            return (self.kind.value, self.name, self.pc)
        return (self.kind.value, self.name)

    def label(self) -> str:
        """Human-readable label used by the GUI."""
        if self.kind == FrameKind.PYTHON:
            return f"{self.name} ({os.path.basename(self.file)}:{self.line})"
        if self.kind == FrameKind.FRAMEWORK and self.tag == "backward":
            return f"{self.name} [backward]"
        if self.kind == FrameKind.NATIVE and self.library:
            return f"{self.name} [{self.library}]"
        if self.kind == FrameKind.GPU_INSTRUCTION:
            return f"pc+0x{self.pc:x} ({self.tag})"
        return self.name

    def __str__(self) -> str:
        return self.label()


class LeafCursor:
    """The calling-context-tree node a cached call path last reached."""

    __slots__ = ("node",)

    def __init__(self) -> None:
        self.node = None


@dataclass(frozen=True)
class CallPath:
    """An immutable root→leaf sequence of frames."""

    frames: Tuple[Frame, ...] = field(default_factory=tuple)

    #: Paths held by the call-path cache carry a :class:`LeafCursor`, so a
    #: tree re-inserting one jumps straight to its leaf; all other paths share
    #: this ``None`` and are walked from the root.
    cursor = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "frames", tuple(self.frames))

    def with_cursor(self) -> "CallPath":
        """Give this path a leaf cursor (done once, when it is cached)."""
        object.__setattr__(self, "cursor", LeafCursor())
        return self

    # -- construction ------------------------------------------------------------

    @classmethod
    def of(cls, frames: Iterable[Frame]) -> "CallPath":
        return cls(frames=tuple(frames))

    def extended(self, *extra: Frame) -> "CallPath":
        """A new call path with ``extra`` frames appended at the leaf."""
        return CallPath(frames=self.frames + tuple(extra))

    def prefixed(self, *prefix: Frame) -> "CallPath":
        """A new call path with ``prefix`` frames inserted at the root."""
        return CallPath(frames=tuple(prefix) + self.frames)

    # -- accessors ----------------------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self.frames)

    @property
    def leaf(self) -> Optional[Frame]:
        return self.frames[-1] if self.frames else None

    @property
    def root(self) -> Optional[Frame]:
        return self.frames[0] if self.frames else None

    def frames_of_kind(self, kind: FrameKind) -> List[Frame]:
        return [frame for frame in self.frames if frame.kind == kind]

    def has_kind(self, kind: FrameKind) -> bool:
        return any(frame.kind == kind for frame in self.frames)

    def kinds(self) -> List[FrameKind]:
        return [frame.kind for frame in self.frames]

    def __iter__(self):
        return iter(self.frames)

    def __len__(self) -> int:
        return len(self.frames)

    def __bool__(self) -> bool:
        return bool(self.frames)

    def format(self, indent: str = "  ") -> str:
        """Multi-line rendering, root at the top."""
        lines = []
        for depth, frame in enumerate(self.frames):
            lines.append(f"{indent * depth}{frame.label()}  <{frame.kind.value}>")
        return "\n".join(lines)


# -- frame interning --------------------------------------------------------------------

# Distinct frames built during live profiling are bounded by distinct code
# locations (the same argument that bounds the CCT's size).  Interning makes
# repeated call-path constructions reuse one Frame object per location, which
# in turn makes the per-instance identity() memoization hit every time.  The
# table is keyed by each constructor's arguments, so a repeat costs one small
# tuple hash rather than building and hashing a Frame; no two constructors
# build equal frames, so equal frames are still one object.
# Deserialization and thread frames deliberately do NOT intern (loaded trees
# build every frame exactly once, and tids are unbounded across sessions);
# long-lived processes can still call ``clear_frame_intern`` between sessions
# if they want a hard reset.
_FRAME_INTERN: dict = {}


def _interned(key: Tuple, **fields) -> Frame:
    """The canonical frame for ``key``, built as ``Frame(**fields)`` on first use."""
    frame = _FRAME_INTERN.get(key)
    if frame is None:
        frame = _FRAME_INTERN[key] = Frame(**fields)
    return frame


def clear_frame_intern() -> None:
    """Drop the intern tables (safe: interning is an identity optimisation only).

    Also drops the Python-capture tables of :mod:`repro.pycontext`.
    """
    _FRAME_INTERN.clear()
    clear_path_intern()


# -- frame construction helpers ---------------------------------------------------------

def python_frame(file: str, line: int, function: str) -> Frame:
    return _interned(("python", file, line, function),
                     kind=FrameKind.PYTHON, name=function, file=file, line=line)


def framework_frame(op_name: str, backward: bool = False) -> Frame:
    tag = "backward" if backward else ""
    return _interned(("framework", op_name, tag),
                     kind=FrameKind.FRAMEWORK, name=op_name, tag=tag)


def native_frame(function: str, library: str, pc: int = 0) -> Frame:
    return _interned(("native", function, library, pc),
                     kind=FrameKind.NATIVE, name=function, library=library, pc=pc)


def gpu_api_frame(api_name: str, library: str = "", pc: int = 0) -> Frame:
    return _interned(("gpu_api", api_name, library, pc),
                     kind=FrameKind.GPU_API, name=api_name, library=library, pc=pc)


def scope_frame(scope_name: str) -> Frame:
    """A module / semantic scope frame (``loss_fn``, layer names, ...)."""
    return _interned(("scope", scope_name),
                     kind=FrameKind.FRAMEWORK, name=scope_name, tag="scope")


def gpu_kernel_frame(kernel_name: str, device: str = "") -> Frame:
    return _interned(("gpu_kernel", kernel_name, device),
                     kind=FrameKind.GPU_KERNEL, name=kernel_name, tag=device)


def gpu_instruction_frame(kernel_name: str, pc_offset: int, stall_reason: str) -> Frame:
    # Not interned: kernel × PC offset × stall reason is the highest-cardinality
    # frame space (one entry per sampled instruction), so pinning them in the
    # process-global table would dwarf the code-location-bounded entries.
    return Frame(kind=FrameKind.GPU_INSTRUCTION, name=kernel_name, pc=pc_offset, tag=stall_reason)


def thread_frame(thread_name: str, tid: int) -> Frame:
    # Not interned: tids are unbounded across a long-lived process's sessions,
    # unlike code locations, so interning here would grow the table forever.
    return Frame(kind=FrameKind.THREAD, name=f"thread:{thread_name}", pc=tid)


def root_frame(program: str = "program") -> Frame:
    return _interned(("root", program), kind=FrameKind.ROOT, name=program)


def python_frames_from_triples(triples: Sequence[Tuple[str, int, str]]) -> List[Frame]:
    """Convert ``(file, line, function)`` triples into Python frames."""
    return [python_frame(file, line, function) for file, line, function in triples]
