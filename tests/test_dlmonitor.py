"""Tests for DLMonitor: interception, call-path integration, the C-style API."""

import pytest

from repro.dlmonitor import (
    DLMONITOR_FRAMEWORK,
    DLMONITOR_GPU,
    CallPathSources,
    DLMonitor,
    FrameKind,
    dlmonitor_callback_register,
    dlmonitor_callpath_get,
    dlmonitor_finalize,
    dlmonitor_init,
    parse_interception_config,
)
from repro.dlmonitor.audit import CustomDriverInterceptor, LibraryAuditor
from repro.framework import EagerEngine, modules, tensor
from repro.framework import functional as F
from repro.framework.jit import JitCompiler, jit
from repro.gpu.kernels import KernelSpec
from repro.native.symbols import LIBPYTHON


@pytest.fixture
def engine():
    return EagerEngine("a100")


class TestLifecycle:
    def test_init_and_finalize(self, engine):
        monitor = dlmonitor_init(engine)
        assert monitor.initialized
        dlmonitor_finalize(monitor)
        assert not monitor.initialized
        # After finalize, operators no longer reach the shim.
        with engine:
            F.relu(tensor((2, 2)))
        assert monitor.stats.framework_events == 0

    def test_double_init_is_idempotent(self, engine):
        monitor = DLMonitor(engine)
        monitor.init()
        monitor.init()
        events = []
        monitor.callback_register(DLMONITOR_FRAMEWORK, events.append)
        with engine:
            F.relu(tensor((2, 2)))
        assert len(events) == 2  # enter + exit, not doubled

    def test_unknown_domain_rejected(self, engine):
        monitor = dlmonitor_init(engine)
        with pytest.raises(ValueError):
            monitor.callback_register("DLMONITOR_UNKNOWN", lambda event: None)


class TestFrameworkDomain:
    def test_operator_events_delivered(self, engine):
        monitor = dlmonitor_init(engine)
        events = []
        dlmonitor_callback_register(monitor, DLMONITOR_FRAMEWORK, events.append)
        with engine:
            layer = modules.Linear(8, 4, name="proj")
            layer(tensor((2, 8)))
        names = {event.op_name for event in events}
        assert "aten::linear" in names
        assert any(event.scope == ["proj"] for event in events)
        assert all(event.framework == "pytorch" for event in events)

    def test_shadow_stack_balanced_after_ops(self, engine):
        monitor = dlmonitor_init(engine)
        with engine:
            F.relu(tensor((2, 2)))
        assert monitor.shadow_stacks.for_thread(engine.threads.main.tid).depth == 0

    def test_backward_events_marked(self, engine):
        monitor = dlmonitor_init(engine)
        events = []
        monitor.callback_register(DLMONITOR_FRAMEWORK, events.append)
        with engine:
            w = tensor((4, 8), requires_grad=True)
            loss = F.sum_(F.linear(tensor((2, 8)), w))
            engine.backward(loss)
        backward_events = [event for event in events if event.is_backward]
        assert backward_events
        assert all(event.sequence_id is not None for event in backward_events)


class TestGpuDomain:
    def test_kernel_launch_events_carry_kernel_names(self, engine):
        monitor = dlmonitor_init(engine)
        events = []
        monitor.callback_register(DLMONITOR_GPU, events.append)
        with engine:
            F.relu(tensor((64, 64)))
        launches = [event for event in events if event.kernel_name]
        assert launches and launches[0].kernel_name.startswith("vectorized_elementwise")
        assert launches[0].correlation_id > 0


class TestCallPathGet:
    def test_full_callpath_inside_gpu_callback(self, engine):
        monitor = dlmonitor_init(engine)
        paths = []
        monitor.callback_register(
            DLMONITOR_GPU,
            lambda event: paths.append(dlmonitor_callpath_get(monitor)) if event.phase == "enter" else None)
        with engine:
            layer = modules.Conv2d(3, 8, name="conv")
            layer(tensor((1, 3, 16, 16)))
        assert paths
        kinds = set()
        for path in paths:
            kinds.update(path.kinds())
        assert {FrameKind.PYTHON, FrameKind.FRAMEWORK, FrameKind.NATIVE,
                FrameKind.GPU_API, FrameKind.GPU_KERNEL} <= kinds

    def test_sources_disable_layers(self, engine):
        monitor = dlmonitor_init(engine)
        captured = {}

        def on_gpu(event):
            if event.phase != "enter" or captured:
                return
            captured["full"] = monitor.callpath_get(CallPathSources.all())
            captured["no_native"] = monitor.callpath_get(CallPathSources.without_native())
            captured["python_only"] = monitor.callpath_get(CallPathSources.python_only())

        monitor.callback_register(DLMONITOR_GPU, on_gpu)
        with engine:
            F.relu(tensor((8, 8)))
        assert captured["full"].has_kind(FrameKind.NATIVE)
        assert not captured["no_native"].has_kind(FrameKind.NATIVE)
        assert captured["no_native"].has_kind(FrameKind.FRAMEWORK)
        assert not captured["python_only"].has_kind(FrameKind.FRAMEWORK)
        assert not captured["python_only"].has_kind(FrameKind.GPU_API)
        # All three requests ran inside the operator: its shadow entry
        # supplied the Python path, so none of them captured Python again.
        assert (monitor.cache.hits, monitor.cache.misses) == (3, 0)
        assert monitor.stats.python_captures == 1

    def test_callpath_outside_any_operator(self, engine):
        monitor = dlmonitor_init(engine)
        with engine:
            path = monitor.callpath_get()
        assert path.root.kind == FrameKind.ROOT
        assert path.has_kind(FrameKind.THREAD)
        assert (monitor.cache.hits, monitor.cache.misses) == (0, 1)
        assert monitor.stats.python_captures == 1

    def test_backward_thread_paths_reuse_forward_python_context(self, engine):
        monitor = dlmonitor_init(engine)
        backward_paths = []
        monitor.callback_register(
            DLMONITOR_GPU,
            lambda event: backward_paths.append(monitor.callpath_get())
            if event.phase == "enter" and engine.threads.current.kind == "backward" else None)
        with engine:
            embedding = modules.Embedding(1000, 16, use_index=True, name="table")
            indices = tensor((64,), dtype="int64", duplicate_fraction=0.5)
            loss = F.sum_(embedding(indices))
            engine.backward(loss)
        assert backward_paths
        grafted = [path for path in backward_paths if path.has_kind(FrameKind.PYTHON)]
        assert grafted, "backward call paths lost the forward Python context"
        assert any(frame.name == "aten::index" for path in grafted
                   for frame in path.frames_of_kind(FrameKind.FRAMEWORK))


class TestJitInterception:
    def test_fusion_map_populated_from_compilation_callbacks(self, engine):
        compiler = JitCompiler(engine)
        monitor = dlmonitor_init(engine, jit_compiler=compiler)

        def step(x, w):
            return F.sum_(F.relu(F.gelu(F.linear(x, w))))

        with engine:
            compiled = jit(step, engine=engine, compiler=compiler)
            compiled(tensor((4, 16)), tensor((8, 16)))
        assert monitor.stats.compilation_events > 0
        assert len(monitor.fusion_map) >= 1
        record = monitor.fusion_map.records[0]
        assert len(record.originals) >= 2


class TestAuditing:
    def test_library_auditor_detects_python_boundary(self, engine):
        auditor = LibraryAuditor(engine.address_space)
        assert LIBPYTHON in auditor.loaded_libraries()
        py_eval = engine.address_space.library(LIBPYTHON).symbols["PyEval_EvalFrameDefault"]
        assert auditor.is_python_frame_pc(py_eval.address + 1)
        assert auditor.library_of(py_eval.address + 1) == LIBPYTHON

    def test_parse_interception_config(self):
        configs = parse_interception_config({
            "functions": ["customLaunch",
                          {"function": "vendorMemcpy", "signature": ["void*", "size_t"]}],
        })
        assert [config.function for config in configs] == ["customLaunch", "vendorMemcpy"]
        with pytest.raises(ValueError):
            parse_interception_config({"functions": [{"signature": []}]})

    def test_custom_driver_interceptor_filters_functions(self, engine):
        configs = parse_interception_config({"functions": ["cudaMemcpyAsync"]})
        interceptor = CustomDriverInterceptor(engine.runtime, configs)
        seen = []
        interceptor.install(lambda data: seen.append(data.api_name))
        engine.runtime.launch_kernel(KernelSpec(name="k"))
        engine.runtime.memcpy(1024, "h2d")
        assert set(seen) == {"cudaMemcpyAsync"}
        assert interceptor.intercepted == 2 and interceptor.skipped == 2
        interceptor.uninstall()
        engine.runtime.memcpy(1024, "h2d")
        assert interceptor.intercepted == 2
