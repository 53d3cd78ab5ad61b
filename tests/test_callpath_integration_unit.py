"""Unit tests for the call-path integration rules (CallPathBuilder in isolation).

The end-to-end behaviour is covered in ``test_dlmonitor.py``; these tests
construct thread states by hand to pin down the individual integration rules:
the libpython boundary, operator insertion under the matching native frame,
the early stop at the top operator's dispatch frame, backward-thread
grafting, source selection and the cached paths of repeated operator
contexts.
"""

import pytest

from repro.cpu.clock import MachineClock
from repro.dlmonitor.association import ForwardRecord
from repro.dlmonitor.audit import LibraryAuditor
from repro.dlmonitor.cache import CallPathCache
from repro.dlmonitor.callpath import FrameKind
from repro.dlmonitor.integration import CallPathBuilder, CallPathSources, GpuLeafContext
from repro.dlmonitor.shadow_stack import ShadowEntry, ShadowStack
from repro.framework.threads import THREAD_BACKWARD, THREAD_MAIN, ThreadRegistry
from repro.native.symbols import LIBCUDART, LIBPYTHON, LIBTORCH_CPU, LIBTORCH_CUDA, standard_address_space
from repro.native.unwinder import Unwinder


@pytest.fixture
def setup():
    """An address space, a main thread with a realistic native stack, a builder."""
    space = standard_address_space()
    registry = ThreadRegistry(MachineClock())
    thread = registry.main
    thread.kind = THREAD_MAIN
    # Simulated native stack: libc -> libpython -> dispatcher -> impl -> launch.
    for library, name in ((("libc.so", "__libc_start_main")),
                          (LIBPYTHON, "PyEval_EvalFrameDefault"),
                          (LIBTORCH_CPU, "at::_ops::conv2d::call"),
                          (LIBTORCH_CUDA, "at::native::cudnn_convolution"),
                          (LIBCUDART, "cudaLaunchKernel")):
        thread.native_stack.push(space.add_symbol(library, name))
    builder = CallPathBuilder(LibraryAuditor(space), Unwinder(space), "unit")
    return space, thread, builder


def _shadow_for(thread, op_name="aten::conv2d", backward=False, sequence_id=1):
    stack = ShadowStack()
    dispatch_frame = thread.native_stack.frames[2]  # at::_ops::conv2d::call
    stack.push(ShadowEntry(op_name=op_name, is_backward=backward, sequence_id=sequence_id,
                           dispatch_pc=dispatch_frame.pc,
                           python_callpath=(("model.py", 42, "forward"),),
                           scope=("net", "conv1")))
    return stack


PYTHON_TRIPLES = (("train.py", 7, "train_step"), ("model.py", 42, "forward"))


def _nested_shadow(thread):
    """``aten::conv2d`` (id 0) with ``aten::cudnn_convolution`` (id 1) inside it."""
    frames = thread.native_stack.frames
    stack = ShadowStack()
    for context_id, (op_name, dispatch) in enumerate((
            ("aten::conv2d", frames[2]), ("aten::cudnn_convolution", frames[3]))):
        stack.push(ShadowEntry(op_name=op_name, is_backward=False, sequence_id=context_id,
                               dispatch_pc=dispatch.pc, python_callpath=PYTHON_TRIPLES,
                               scope=("net", "conv1"), context_id=context_id))
    return stack


class TestIntegrationRules:
    def test_full_integration_order(self, setup):
        _space, thread, builder = setup
        path = builder.build(thread, _shadow_for(thread), PYTHON_TRIPLES,
                             CallPathSources.all(),
                             gpu_leaf=GpuLeafContext("cudaLaunchKernel", "conv_kernel"))
        kinds = path.kinds()
        # Root/thread, then Python, then framework scopes+op, native, GPU API, kernel.
        assert kinds[0] == FrameKind.ROOT and kinds[1] == FrameKind.THREAD
        assert kinds.index(FrameKind.PYTHON) < kinds.index(FrameKind.FRAMEWORK)
        assert kinds.index(FrameKind.FRAMEWORK) < kinds.index(FrameKind.NATIVE)
        assert kinds[-2:] == [FrameKind.GPU_API, FrameKind.GPU_KERNEL]

    def test_libpython_frames_replaced_by_python_path(self, setup):
        _space, thread, builder = setup
        path = builder.build(thread, _shadow_for(thread), PYTHON_TRIPLES, CallPathSources.all())
        native_names = [frame.name for frame in path.frames_of_kind(FrameKind.NATIVE)]
        assert "PyEval_EvalFrameDefault" not in native_names
        assert "__libc_start_main" not in native_names
        python_files = [frame.file for frame in path.frames_of_kind(FrameKind.PYTHON)]
        assert python_files == ["train.py", "model.py"]

    def test_operator_inserted_above_its_dispatch_frame(self, setup):
        _space, thread, builder = setup
        path = builder.build(thread, _shadow_for(thread), PYTHON_TRIPLES, CallPathSources.all())
        labels = [frame.name for frame in path]
        op_index = labels.index("aten::conv2d")
        dispatch_index = labels.index("at::_ops::conv2d::call")
        assert op_index == dispatch_index - 1

    def test_scope_frames_precede_operator(self, setup):
        _space, thread, builder = setup
        path = builder.build(thread, _shadow_for(thread), PYTHON_TRIPLES, CallPathSources.all())
        framework_frames = path.frames_of_kind(FrameKind.FRAMEWORK)
        assert [frame.name for frame in framework_frames] == ["net", "conv1", "aten::conv2d"]
        assert framework_frames[0].tag == "scope"

    def test_without_native_source(self, setup):
        _space, thread, builder = setup
        path = builder.build(thread, _shadow_for(thread), PYTHON_TRIPLES,
                             CallPathSources.without_native())
        assert not path.has_kind(FrameKind.NATIVE)
        assert path.has_kind(FrameKind.PYTHON) and path.has_kind(FrameKind.FRAMEWORK)

    def test_without_framework_source_hides_operators(self, setup):
        _space, thread, builder = setup
        sources = CallPathSources(python=True, framework=False, native=True, gpu=True)
        path = builder.build(thread, _shadow_for(thread), PYTHON_TRIPLES, sources)
        assert not path.has_kind(FrameKind.FRAMEWORK)
        assert path.has_kind(FrameKind.NATIVE)

    def test_gpu_leaf_omitted_when_gpu_source_disabled(self, setup):
        _space, thread, builder = setup
        sources = CallPathSources(python=True, framework=True, native=True, gpu=False)
        path = builder.build(thread, _shadow_for(thread), PYTHON_TRIPLES, sources,
                             gpu_leaf=GpuLeafContext("cudaLaunchKernel", "k"))
        assert not path.has_kind(FrameKind.GPU_API)
        assert not path.has_kind(FrameKind.GPU_KERNEL)

    def test_cached_prefix_supplies_python_frames(self, setup):
        """The top shadow entry's Python path stands in for a fresh capture."""
        _space, thread, builder = setup
        shadow = ShadowStack()
        shadow.push(ShadowEntry(op_name="aten::conv2d", is_backward=False, sequence_id=1,
                                dispatch_pc=thread.native_stack.frames[2].pc,
                                python_callpath=PYTHON_TRIPLES, scope=("net",)))
        path = builder.build(thread, shadow, (), CallPathSources.all())
        python_files = [frame.file for frame in path.frames_of_kind(FrameKind.PYTHON)]
        assert python_files == ["train.py", "model.py"]

    def test_cached_prefix_stops_unwinding_early(self, setup):
        """The unwind stops at the top operator's dispatch frame."""
        space, thread, builder = setup
        shadow = _nested_shadow(thread)
        builder.build(thread, shadow, PYTHON_TRIPLES, CallPathSources.all())
        # cudaLaunchKernel, then at::native::cudnn_convolution: the inner
        # operator's dispatch frame.
        assert builder.unwinder.steps == 2

        unwind_to_python = CallPathBuilder(LibraryAuditor(space), Unwinder(space), "unit")
        unwind_to_python._integrate_native(thread, shadow, [], [], None)
        # On to at::_ops::conv2d::call and the libpython frame that ends it.
        assert unwind_to_python.unwinder.steps == 4

    def test_backward_thread_grafts_forward_record(self, setup):
        space, _main, builder = setup
        registry = ThreadRegistry(MachineClock())
        backward = registry.create("backward-0", kind=THREAD_BACKWARD)
        for library, name in ((LIBTORCH_CUDA, "autograd::engine::evaluate_function"),
                              (LIBCUDART, "cudaLaunchKernel")):
            backward.native_stack.push(space.add_symbol(library, name))
        shadow = ShadowStack()
        shadow.push(ShadowEntry(op_name="aten::index", is_backward=True, sequence_id=9,
                                dispatch_pc=backward.native_stack.frames[0].pc,
                                python_callpath=(), scope=()))
        record = ForwardRecord(sequence_id=9, op_name="aten::index", thread_tid=1,
                               python_callpath=(("dlrm.py", 33, "forward"),),
                               scope=("table0",))
        path = builder.build(backward, shadow, (), CallPathSources.all(),
                             forward_record=record,
                             gpu_leaf=GpuLeafContext("cudaLaunchKernel",
                                                     "indexing_backward_kernel"))
        python_files = [frame.file for frame in path.frames_of_kind(FrameKind.PYTHON)]
        assert python_files == ["dlrm.py"]
        names = [frame.name for frame in path.frames_of_kind(FrameKind.FRAMEWORK)]
        assert "table0" in names and "aten::index" in names
        assert path.leaf.name == "indexing_backward_kernel"

    def test_backward_thread_without_record_has_no_python(self, setup):
        space, _main, builder = setup
        registry = ThreadRegistry(MachineClock())
        backward = registry.create("backward-0", kind=THREAD_BACKWARD)
        backward.native_stack.push(space.add_symbol(LIBCUDART, "cudaLaunchKernel"))
        path = builder.build(backward, ShadowStack(), (), CallPathSources.all())
        assert not path.has_kind(FrameKind.PYTHON)
        assert path.has_kind(FrameKind.NATIVE)

    def test_paths_built_counter(self, setup):
        _space, thread, builder = setup
        before = builder.paths_built
        builder.build(thread, ShadowStack(), (), CallPathSources.python_only())
        assert builder.paths_built == before + 1


def _cached_builder(space):
    return CallPathBuilder(LibraryAuditor(space), Unwinder(space), "unit", cache=CallPathCache())


def _scratch_builder(space):
    return CallPathBuilder(LibraryAuditor(space), Unwinder(space), "unit")


class TestCachedPaths:
    """Paths built inside an operator context come from the call-path cache."""

    def _build(self, builder, thread, shadow, **kwargs):
        before = builder.unwinder.steps
        path = builder.build(thread, shadow, shadow.top().python_callpath,
                             CallPathSources.all(),
                             gpu_leaf=GpuLeafContext("cudaLaunchKernel", "conv_kernel"),
                             **kwargs)
        return path, builder.unwinder.steps - before

    def test_nested_operator_hit_returns_the_first_path(self, setup):
        space, thread, builder = setup
        shadow = _nested_shadow(thread)
        cached = _cached_builder(space)
        first, miss_steps = self._build(cached, thread, shadow)
        again, hit_steps = self._build(cached, thread, shadow)
        scratch, scratch_steps = self._build(_scratch_builder(space), thread, shadow)
        assert again is first and first == scratch
        assert cached.cache.path_hits == 1 and cached.cache.path_misses == 1
        assert [frame.name for frame in first.frames_of_kind(FrameKind.FRAMEWORK)] == [
            "net", "conv1", "aten::conv2d", "aten::cudnn_convolution"]
        # Launch site up to the inner dispatch frame: cudaLaunchKernel, cudnn_convolution.
        assert miss_steps == hit_steps == scratch_steps == 2

    def test_hit_charges_the_steps_it_walked(self, setup, monkeypatch):
        space, thread, _builder = setup
        shadow = _nested_shadow(thread)
        cached = _cached_builder(space)
        charged = []
        original = Unwinder.charge

        def recording(unwinder, cursor):
            charged.append(cursor.steps)
            original(unwinder, cursor)

        monkeypatch.setattr(Unwinder, "charge", recording)
        for _ in range(3):
            self._build(cached, thread, shadow)
        assert cached.cache.path_hits == 2
        # One charge per build, miss or hit, each the two frames walked.
        assert charged == [2, 2, 2] and cached.unwinder.steps == 6

    def test_outer_entry_keys_path_after_inner_exits(self, setup):
        space, thread, _builder = setup
        shadow = _nested_shadow(thread)
        cached = _cached_builder(space)
        inner, inner_steps = self._build(cached, thread, shadow)
        shadow.pop()  # the inner operator exits: the outer entry is on top again
        outer, outer_steps = self._build(cached, thread, shadow)
        assert outer is not inner and cached.cache.path_misses == 2
        scratch, scratch_steps = self._build(_scratch_builder(space), thread, shadow)
        assert outer == scratch and outer_steps == scratch_steps
        # Launch site up to the outer dispatch frame: one frame more.
        assert outer_steps == inner_steps + 1
        assert [frame.name for frame in outer.frames_of_kind(FrameKind.FRAMEWORK)] == [
            "net", "conv1", "aten::conv2d"]
        assert self._build(cached, thread, shadow) == (outer, outer_steps)

    def test_backward_thread_hit_grafts_the_forward_record(self, setup):
        space, _main, _builder = setup
        registry = ThreadRegistry(MachineClock())
        backward = registry.create("backward-0", kind=THREAD_BACKWARD)
        for library, name in ((LIBTORCH_CUDA, "autograd::engine::evaluate_function"),
                              (LIBCUDART, "cudaLaunchKernel")):
            backward.native_stack.push(space.add_symbol(library, name))
        shadow = ShadowStack()
        shadow.push(ShadowEntry(op_name="aten::index", is_backward=True, sequence_id=9,
                                dispatch_pc=backward.native_stack.frames[0].pc,
                                python_callpath=(), scope=(), context_id=0))
        record = ForwardRecord(sequence_id=9, op_name="aten::index", thread_tid=1,
                               python_callpath=(("dlrm.py", 33, "forward"),),
                               scope=("table0",))
        cached = _cached_builder(space)
        first, miss_steps = self._build(cached, backward, shadow, forward_record=record)
        again, hit_steps = self._build(cached, backward, shadow, forward_record=record)
        scratch, scratch_steps = self._build(_scratch_builder(space), backward, shadow,
                                             forward_record=record)
        assert again is first and first == scratch
        assert [frame.file for frame in first.frames_of_kind(FrameKind.PYTHON)] == ["dlrm.py"]
        assert miss_steps == hit_steps == scratch_steps == 2

    def test_entries_without_context_ids_are_not_cached(self, setup):
        space, thread, _builder = setup
        shadow = _shadow_for(thread)
        cached = _cached_builder(space)
        first, _ = self._build(cached, thread, shadow)
        again, _ = self._build(cached, thread, shadow)
        assert again is not first and again == first
        assert first.cursor is None
        assert cached.cache.size == 0 and cached.cache.path_misses == 0
