"""Tests for the call-path model, shadow stacks, caches, association, fusion map."""

import pytest
from hypothesis import given, strategies as st

from repro.dlmonitor import (
    CallPath,
    CallPathCache,
    ForwardBackwardAssociator,
    Frame,
    FrameKind,
    FusionMap,
    OriginalOperator,
    ShadowEntry,
    ShadowStack,
    ShadowStackRegistry,
    framework_frame,
    gpu_kernel_frame,
    native_frame,
    python_frame,
    root_frame,
    thread_frame,
)


class TestFrameIdentity:
    def test_python_frames_compare_by_file_and_line(self):
        a = python_frame("model.py", 10, "forward")
        b = python_frame("model.py", 10, "forward_renamed")
        c = python_frame("model.py", 11, "forward")
        assert a.identity() == b.identity()
        assert a.identity() != c.identity()

    def test_native_frames_compare_by_library_and_pc(self):
        a = native_frame("f", "libtorch.so", 0x100)
        b = native_frame("g", "libtorch.so", 0x100)
        c = native_frame("f", "libtorch.so", 0x200)
        assert a.identity() == b.identity()
        assert a.identity() != c.identity()

    def test_framework_frames_compare_by_name_and_direction(self):
        forward = framework_frame("aten::conv2d")
        backward = framework_frame("aten::conv2d", backward=True)
        assert forward.identity() != backward.identity()
        assert "[backward]" in backward.label()

    def test_kernel_frames_compare_by_name(self):
        assert gpu_kernel_frame("k", "a100").identity() == gpu_kernel_frame("k", "mi250").identity()

    def test_labels_are_human_readable(self):
        assert "model.py:3" in python_frame("/x/model.py", 3, "f").label()
        assert "[libc.so]" in native_frame("f", "libc.so", 1).label()
        assert "long_scoreboard" in Frame(kind=FrameKind.GPU_INSTRUCTION, name="k",
                                          pc=16, tag="long_scoreboard").label()


class TestCallPath:
    def _path(self):
        return CallPath.of([root_frame(), thread_frame("main", 1),
                            python_frame("a.py", 1, "main"),
                            framework_frame("aten::relu"),
                            gpu_kernel_frame("relu_kernel")])

    def test_accessors(self):
        path = self._path()
        assert path.depth == 5
        assert path.root.kind == FrameKind.ROOT
        assert path.leaf.kind == FrameKind.GPU_KERNEL
        assert path.has_kind(FrameKind.PYTHON)
        assert len(path.frames_of_kind(FrameKind.FRAMEWORK)) == 1
        assert bool(path) and not bool(CallPath())

    def test_extended_and_prefixed_do_not_mutate(self):
        path = self._path()
        longer = path.extended(gpu_kernel_frame("second"))
        assert longer.depth == path.depth + 1
        prefixed = path.prefixed(root_frame("other"))
        assert prefixed.depth == path.depth + 1
        assert path.depth == 5

    def test_format_is_indented(self):
        text = self._path().format()
        assert text.splitlines()[0].startswith("program")
        assert text.splitlines()[-1].strip().startswith("relu_kernel")

    @given(st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=10))
    def test_extended_preserves_order(self, names):
        path = CallPath()
        for name in names:
            path = path.extended(framework_frame(name))
        assert [frame.name for frame in path] == names


class TestShadowStack:
    def _entry(self, name="aten::relu", pc=0x10, backward=False, seq=None):
        return ShadowEntry(op_name=name, is_backward=backward, sequence_id=seq,
                           dispatch_pc=pc, python_callpath=(), scope=())

    def test_push_pop_and_depth_tracking(self):
        stack = ShadowStack()
        stack.push(self._entry("a", 1))
        stack.push(self._entry("b", 2))
        assert stack.depth == 2 and stack.max_depth == 2
        assert stack.top().op_name == "b"
        assert stack.pop().op_name == "b"
        assert stack.max_depth == 2
        stack.pop()
        with pytest.raises(IndexError):
            stack.pop()

    def test_find_by_pc_prefers_innermost(self):
        stack = ShadowStack()
        stack.push(self._entry("outer", 0x10))
        stack.push(self._entry("inner", 0x10))
        assert stack.find_by_pc(0x10).op_name == "inner"
        assert stack.find_by_pc(0x99) is None

    def test_registry_creates_per_thread_stacks(self):
        registry = ShadowStackRegistry()
        registry.for_thread(1).push(self._entry())
        assert registry.for_thread(1).depth == 1
        assert registry.for_thread(2).depth == 0
        assert registry.threads() == [1, 2]
        assert registry.total_max_depth() == 1


class TestCallPathCache:
    def test_context_ids_are_interned(self):
        cache = CallPathCache()
        first = cache.context_id((1, None, "aten::relu"))
        assert cache.context_id((1, first, "aten::add")) == first + 1
        assert cache.context_id((1, None, "aten::relu")) == first
        assert cache.size == 2

    def test_cached_paths_count_hits_and_misses_and_clear(self):
        cache = CallPathCache()
        path = CallPath.of([framework_frame("aten::relu")])
        assert cache.cached_path("key") is None
        assert cache.store_path("key", path) is path
        assert cache.cached_path("key") == path
        assert cache.path_hits == 1 and cache.path_misses == 1
        # Request counts belong to DLMonitor.callpath_get, not to lookups.
        assert cache.hits == cache.misses == 0
        cache.clear()
        assert cache.size == 0 and cache.cached_path("key") is None


class TestForwardBackwardAssociator:
    def test_record_and_lookup(self):
        associator = ForwardBackwardAssociator()
        associator.record_forward(7, "aten::index", 1, (("dlrm.py", 42, "forward"),), ("table0",))
        record = associator.lookup(7)
        assert record.op_name == "aten::index"
        assert record.python_callpath[0][2] == "forward"
        assert associator.lookup(99) is None
        assert associator.lookup(None) is None
        assert 0 < associator.hit_rate < 1

    def test_none_sequence_id_not_recorded(self):
        associator = ForwardBackwardAssociator()
        associator.record_forward(None, "aten::relu", 1, (), ())
        assert associator.size == 0

    def test_eviction_keeps_most_recent(self):
        associator = ForwardBackwardAssociator(max_records=4)
        for sequence_id in range(10):
            associator.record_forward(sequence_id, "op", 1, (), ())
        assert associator.size == 4
        assert associator.lookup(9) is not None
        assert associator.lookup(0) is None


class TestFusionMap:
    def test_record_and_lookup(self):
        fusion_map = FusionMap()
        originals = [OriginalOperator("aten::gelu", 1, (("model.py", 5, "ffn"),)),
                     OriginalOperator("aten::relu", 2, (("model.py", 6, "ffn"),))]
        fusion_map.record("xla::gelu_relu", "train_step", originals)
        assert "xla::gelu_relu" in fusion_map and len(fusion_map) == 1
        record = fusion_map.lookup("xla::gelu_relu")
        assert record.original_names == ["aten::gelu", "aten::relu"]
        callpaths = fusion_map.original_callpaths("xla::gelu_relu")
        assert len(callpaths) == 2 and callpaths[0][0][2] == "ffn"
        assert fusion_map.original_callpaths("xla::unknown") == []
