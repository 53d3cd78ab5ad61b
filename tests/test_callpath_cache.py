"""The call-path cache returns exactly the paths a from-scratch build gives.

A profiled session whose builder returns cached paths must save the same
``cct-binary-v1`` bytes and the same DLMonitor statistics as a session whose
builder assembles every path from scratch — on every workload, in eager and
JIT mode, with native collection on and off.  Reusing the top shadow entry's
Python path and stopping the unwind at its dispatch frame gives the same
trees as capturing Python on every request and unwinding to libpython.  The
cache itself is bounded by distinct contexts (a repeated iteration adds
nothing) and dies with the session; the trees' leaf cursors never walk a
cached path twice.
"""

import pytest

from repro.core import DeepContextProfiler, ProfilerConfig
from repro.core import metrics as M
from repro.core.cct import CCTNode, CallingContextTree
from repro.dlmonitor import api as dlmonitor_api
from repro.dlmonitor.callpath import (CallPath, clear_frame_intern, framework_frame,
                                      python_frame, root_frame)
from repro.dlmonitor.integration import CallPathBuilder, CallPathSources
from repro.experiments.runner import (MODE_EAGER, MODE_JIT, PROFILER_DEEPCONTEXT,
                                      PROFILER_DEEPCONTEXT_NATIVE, run_named_workload)
from repro.framework import EagerEngine, modules, tensor
from repro.framework.threads import THREAD_BACKWARD
from repro import pycontext
from repro.workloads import create_workload
from repro.workloads.registry import workload_names


class RecordingBuilder(CallPathBuilder):
    """The production builder, remembering each instance so tests can read it."""

    instances = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.instances.append(self)


class FromScratchBuilder(RecordingBuilder):
    """Assembles every call path, never consulting the call-path cache."""

    def build(self, thread, shadow_stack, python_triples, sources, gpu_leaf=None,
              forward_record=None):
        self.paths_built += 1
        return self._assemble(thread, shadow_stack, python_triples, sources, gpu_leaf,
                              forward_record)


class UnwindToPythonBuilder(CallPathBuilder):
    """Unwinds every native stack to the libpython boundary, with no stop frame."""

    def _integrate_native(self, thread, shadow_stack, python_part, framework_part,
                          stop_pc, include_operators=True):
        return super()._integrate_native(thread, shadow_stack, python_part,
                                         framework_part, None, include_operators)


class CacheFreeMonitor(dlmonitor_api.DLMonitor):
    """A monitor without the call-path cache: it captures Python on every
    request and builds every path from scratch, unwinding to libpython."""

    instances = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.builder = UnwindToPythonBuilder(self.auditor, self.unwinder, self.program_name)
        self.instances.append(self)

    def callpath_get(self, sources=None, thread=None):
        sources = sources if sources is not None else CallPathSources.all()
        thread = thread if thread is not None else self.engine.threads.current
        stack = self.shadow_stacks.for_thread(thread.tid)
        python_triples = ()
        if sources.python and thread.has_python_context:
            python_triples = pycontext.capture_user_frames(skip=2)
            self.stats.python_captures += 1
        top = stack.top()
        forward_record = None
        if thread.kind == THREAD_BACKWARD and top is not None:
            forward_record = self.associator.lookup(top.sequence_id)
        gpu_leaf = self._gpu_leaf.get(thread.tid) if sources.gpu else None
        self.stats.callpaths_built += 1
        return self.builder.build(thread, stack, python_triples, sources,
                                  gpu_leaf=gpu_leaf, forward_record=forward_record)


def _saved_session(name, mode, profiler, builder, path, monkeypatch):
    """Profile two iterations of ``name`` and return (saved bytes, DLMonitor stats)."""
    monkeypatch.setattr(dlmonitor_api, "CallPathBuilder", builder)
    database = run_named_workload(name, mode=mode, profiler=profiler, iterations=2).database
    database.metadata.profiler_wall_seconds = 0.0
    saved = database.save(str(path), format="cct-binary-v1")
    with open(saved, "rb") as handle:
        return handle.read(), database.dlmonitor_stats


@pytest.mark.parametrize("profiler", [PROFILER_DEEPCONTEXT_NATIVE, PROFILER_DEEPCONTEXT])
@pytest.mark.parametrize("mode", [MODE_EAGER, MODE_JIT])
@pytest.mark.parametrize("name", workload_names())
def test_cached_session_saves_the_from_scratch_profile(name, mode, profiler, tmp_path,
                                                       monkeypatch):
    RecordingBuilder.instances.clear()
    # Both sessions run from the same source line: captured Python paths
    # include the test's own frames.
    (cached, cached_stats), (scratch, scratch_stats) = [
        _saved_session(name, mode, profiler, builder, tmp_path / f"{builder.__name__}.cctb",
                       monkeypatch)
        for builder in (RecordingBuilder, FromScratchBuilder)]
    cached_builder, scratch_builder = RecordingBuilder.instances
    assert cached_builder.cache.path_hits > 0
    assert cached == scratch
    assert cached_stats == scratch_stats
    # Hits charge the unwind steps their key walked: the same total.
    assert cached_builder.unwinder.steps == scratch_builder.unwinder.steps


def test_repeated_iteration_adds_no_cache_entries_and_finalize_empties_it():
    engine = EagerEngine("a100")
    # CPU samples key on the native frame the timer fired in, which moves
    # from one iteration to the next; launches and operators do not.
    config = ProfilerConfig(collect_cpu_time=False)
    profiler = DeepContextProfiler(engine, config)
    workload = create_workload("transformer_big", small=True)
    sizes = []
    with engine:
        workload.build(engine)
        profiler.start()
        cache = profiler.monitor.cache
        for iteration in range(3):
            workload.run_iteration(engine, iteration)
            sizes.append((cache.size, cache.path_misses))
        hits = cache.path_hits
        profiler.stop()
    assert sizes[0][0] > 0
    assert sizes[1] == sizes[0] and sizes[2] == sizes[0]
    # The second and third iterations are all hits.
    assert hits >= 2 * (engine.kernel_launches // 3)
    assert cache.size == 0


def _profiled_tree(name, profiler, monitor, monkeypatch):
    """Profile two eager iterations under ``monitor``: per call path, the
    exclusive GPU time and kernel count, and the DLMonitor statistics."""
    monkeypatch.setattr(dlmonitor_api, "DLMonitor", monitor)
    database = run_named_workload(name, mode=MODE_EAGER, profiler=profiler,
                                  iterations=2).database
    paths = {}
    for node in database.tree.nodes():
        key = tuple(step.frame.identity() for step in node.path_from_root())
        paths[key] = (node.metric(M.METRIC_GPU_TIME, inclusive=False),
                      node.metric(M.METRIC_KERNEL_COUNT, inclusive=False))
    return paths, database.dlmonitor_stats


@pytest.mark.parametrize("profiler", [PROFILER_DEEPCONTEXT_NATIVE, PROFILER_DEEPCONTEXT])
@pytest.mark.parametrize("name", workload_names())
def test_equals_the_cache_free_reference(name, profiler, monkeypatch):
    CacheFreeMonitor.instances.clear()
    production = dlmonitor_api.DLMonitor
    # Both sessions run from the same source line: captured Python paths
    # include the test's own frames.
    (paths, stats), (reference, reference_stats) = [
        _profiled_tree(name, profiler, monitor, monkeypatch)
        for monitor in (production, CacheFreeMonitor)]
    assert len(CacheFreeMonitor.instances) == 1
    assert paths == reference
    assert stats["callpaths_built"] == reference_stats["callpaths_built"]
    assert stats["python_captures"] < reference_stats["python_captures"]


def test_profiler_builds_no_framework_events(monkeypatch):
    """With no framework-domain subscriber, operators never build a FrameworkEvent."""
    def refuse(**_fields):
        raise AssertionError("FrameworkEvent built without a subscriber")

    monkeypatch.setattr(dlmonitor_api, "FrameworkEvent", refuse)
    engine = EagerEngine("a100")
    profiler = DeepContextProfiler(engine, ProfilerConfig())
    with engine, profiler.profile():
        modules.Conv2d(3, 8, name="conv")(tensor((1, 3, 16, 16)))
    assert profiler.database.dlmonitor_stats["framework_events"] > 0


class TestLeafCursor:
    def _path(self, line):
        return CallPath.of([root_frame("unit"), python_frame("model.py", line, "forward"),
                            framework_frame("aten::relu")])

    def test_cached_path_reaches_its_leaf_without_walking(self, monkeypatch):
        tree = CallingContextTree("unit")
        path = self._path(1).with_cursor()
        leaf = tree.insert(path)
        assert path.cursor.node is leaf

        def refuse(node, frame):
            raise AssertionError("cached path walked again")

        monkeypatch.setattr(CCTNode, "child_for", refuse)
        assert tree.insert(path) is leaf
        assert tree.insertions == 2

    def test_cursor_is_per_tree(self):
        path = self._path(1).with_cursor()
        first, second = CallingContextTree("unit"), CallingContextTree("unit")
        leaf = first.insert(path)
        other = second.insert(path)
        assert other is not leaf and other.tree is second
        assert first.insert(path) is leaf

    def test_uncached_paths_are_not_remembered(self):
        tree = CallingContextTree("unit")
        path = self._path(2)
        assert tree.insert(path) is tree.insert(path)
        assert path.cursor is None and "cursor" not in vars(path)


class TestPythonCapture:
    def _capture(self):
        return pycontext.capture_user_frames(skip=1)

    def test_equal_paths_are_one_interned_tuple(self):
        paths = [self._capture() for _ in range(2)]
        assert isinstance(paths[0], tuple)
        assert paths[0] is paths[1]

    def test_user_file_answer_is_memoised(self, monkeypatch):
        clear_frame_intern()
        calls = []
        original = pycontext.is_user_frame

        def counting(filename):
            calls.append(filename)
            return original(filename)

        monkeypatch.setattr(pycontext, "is_user_frame", counting)
        self._capture()
        first = len(calls)
        self._capture()
        assert first > 0 and len(calls) == first
        assert len(set(calls)) == len(calls)

    def test_clear_frame_intern_drops_the_capture_tables(self):
        paths = []
        for clear in (False, True):
            if clear:
                clear_frame_intern()
            paths.append(self._capture())
        assert paths[0] == paths[1] and paths[0] is not paths[1]
