"""Capture of *user-level* Python frames.

DeepContext obtains the Python part of the unified call path through CPython's
``PyFrame`` APIs.  In this reproduction the model code, the workloads and the
examples are ordinary Python, so the interpreter stack is real; what needs
care is filtering out the frames that belong to the simulated framework,
profiler and substrate internals — those correspond to C++ code in the real
stack and are represented by the simulated *native* call path instead.

Frames from ``repro.workloads``, ``examples``, ``tests`` and any user script
are considered user code; frames from the rest of the ``repro`` package are
internal and filtered out.

Capture runs at every operator entry, so its answers are memoised: whether a
file is user code is decided once per file name, and every distinct captured
path is one shared tuple of shared ``(file, line, function)`` triples.  Like
interned call-path frames, these tables are bounded by distinct code
locations; :func:`clear_path_intern` drops them.
"""

from __future__ import annotations

import os
import sys
from typing import Dict, List, Tuple

#: (file, line, function) — the same frame triple used throughout the package.
PyFrame = Tuple[str, int, str]
PyPath = Tuple[PyFrame, ...]

_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))
_USER_SUBPACKAGES = (os.path.join(_PACKAGE_DIR, "workloads"),)

#: ``is_user_frame`` answers per file name.
_USER_FILES: Dict[str, bool] = {}
#: One shared instance per distinct triple and per distinct path.
_TRIPLES: Dict[PyFrame, PyFrame] = {}
_PATHS: Dict[PyPath, PyPath] = {}


def is_user_frame(filename: str) -> bool:
    """True when a Python frame belongs to user-level code.

    Everything outside the ``repro`` package is user code; inside the package
    only the workload models count (they stand in for the user's model code).
    """
    path = os.path.abspath(filename)
    if not path.startswith(_PACKAGE_DIR):
        return True
    return any(path.startswith(prefix) for prefix in _USER_SUBPACKAGES)


def capture_user_frames(skip: int = 1, limit: int = 128) -> PyPath:
    """Walk the live interpreter stack and keep only user frames.

    Returns frames ordered from the outermost caller to the innermost callee,
    which is the order call paths are stored in throughout the repository.
    Equal paths are returned as the same tuple object.
    """
    frames: List[PyFrame] = []
    user_files = _USER_FILES
    frame = sys._getframe(skip)
    depth = 0
    while frame is not None and depth < limit:
        code = frame.f_code
        filename = code.co_filename
        user = user_files.get(filename)
        if user is None:
            user = user_files[filename] = is_user_frame(filename)
        if user:
            frames.append((filename, frame.f_lineno, code.co_name))
        frame = frame.f_back
        depth += 1
    frames.reverse()
    path = tuple(frames)
    interned = _PATHS.get(path)
    if interned is None:
        interned = tuple(_TRIPLES.setdefault(triple, triple) for triple in path)
        _PATHS[interned] = interned
    return interned


def clear_path_intern() -> None:
    """Drop the memoised file answers and the shared triples and paths."""
    _USER_FILES.clear()
    _TRIPLES.clear()
    _PATHS.clear()
