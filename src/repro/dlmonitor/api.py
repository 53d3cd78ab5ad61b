"""The DLMonitor shim layer (paper §4.1).

DLMonitor sits between profilers and deep-learning frameworks: it intercepts
framework operations and GPU runtime APIs, converts them into a
framework-agnostic event format, and assembles unified call paths on demand.
The four core APIs of the paper are provided both as methods of
:class:`DLMonitor` and as module-level functions with the paper's C-style
names (``dlmonitor_init``, ``dlmonitor_callback_register``,
``dlmonitor_callpath_get``, ``dlmonitor_finalize``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..framework.eager import CallbackInfo, EagerEngine, PHASE_BEFORE
from ..framework.jit import CompilationEvent, JitCompiler, PHASE_FUSION
from ..framework.threads import THREAD_BACKWARD, ThreadContext
from ..gpu.cupti import GpuTracingApi
from ..gpu.roctracer import tracing_api_for
from ..gpu.runtime import ApiCallbackData, ApiPhase
from ..native.unwinder import Unwinder
from ..pycontext import PyFrame, capture_user_frames
from .association import ForwardBackwardAssociator, ForwardRecord
from .audit import CustomDriverInterceptor, LibraryAuditor, parse_interception_config
from .cache import CallPathCache
from .callpath import CallPath
from .domains import (
    DLMONITOR_FRAMEWORK,
    DLMONITOR_GPU,
    EVENT_COMPILATION,
    EVENT_OPERATOR,
    PHASE_ENTER,
    PHASE_EXIT,
    FrameworkEvent,
    GpuEvent,
)
from .fusion_map import FusionMap, OriginalOperator
from .integration import CallPathBuilder, CallPathSources, GpuLeafContext
from .shadow_stack import ShadowEntry, ShadowStackRegistry

FrameworkCallback = Callable[[FrameworkEvent], None]
GpuCallback = Callable[[GpuEvent], None]


@dataclass
class DLMonitorStats:
    """Bookkeeping used by tests and the overhead evaluation."""

    framework_events: int = 0
    gpu_events: int = 0
    compilation_events: int = 0
    callpaths_built: int = 0
    python_captures: int = 0


class DLMonitor:
    """The shim layer between the profiler and the (simulated) framework."""

    def __init__(self, engine: EagerEngine, jit_compiler: Optional[JitCompiler] = None,
                 program_name: str = "program",
                 interception_config: Optional[Dict[str, object]] = None) -> None:
        self.engine = engine
        self.jit_compiler = jit_compiler
        self.program_name = program_name

        self.auditor = LibraryAuditor(engine.address_space)
        self.unwinder = Unwinder(engine.address_space)
        self.cache = CallPathCache()
        self.builder = CallPathBuilder(self.auditor, self.unwinder, program_name,
                                       cache=self.cache)
        self.shadow_stacks = ShadowStackRegistry()
        self.associator = ForwardBackwardAssociator()
        self.fusion_map = FusionMap()
        self.tracing_api: GpuTracingApi = tracing_api_for(engine.runtime)
        self.stats = DLMonitorStats()

        self._framework_callbacks: List[FrameworkCallback] = []
        self._gpu_callbacks: List[GpuCallback] = []
        self._gpu_leaf: Dict[int, GpuLeafContext] = {}
        self._initialized = False
        self._custom_interceptor: Optional[CustomDriverInterceptor] = None
        if interception_config:
            configs = parse_interception_config(interception_config)
            self._custom_interceptor = CustomDriverInterceptor(engine.runtime, configs)

    # ------------------------------------------------------------------ lifecycle

    def init(self) -> "DLMonitor":
        """Load the shim: hook the framework, the GPU runtime and the JIT compiler."""
        if self._initialized:
            return self
        self.engine.add_global_callback(self._on_framework_event)
        self.tracing_api.subscribe(self._on_gpu_api)
        if self.jit_compiler is not None:
            self.jit_compiler.add_compilation_callback(self._on_compilation)
        if self._custom_interceptor is not None:
            self._custom_interceptor.install(self._on_gpu_api)
        self._initialized = True
        return self

    def finalize(self) -> None:
        """Disable monitoring and release every interception."""
        if not self._initialized:
            return
        self.engine.remove_global_callback(self._on_framework_event)
        self.tracing_api.finalize()
        if self.jit_compiler is not None:
            self.jit_compiler.remove_compilation_callback(self._on_compilation)
        if self._custom_interceptor is not None:
            self._custom_interceptor.uninstall()
        self._framework_callbacks.clear()
        self._gpu_callbacks.clear()
        self._gpu_leaf.clear()
        self.cache.clear()
        self._initialized = False

    @property
    def initialized(self) -> bool:
        return self._initialized

    # ------------------------------------------------------------------ registration

    def callback_register(self, domain: str, callback) -> None:
        """Register a profiler callback for ``DLMONITOR_FRAMEWORK`` or ``DLMONITOR_GPU``."""
        if domain == DLMONITOR_FRAMEWORK:
            if callback not in self._framework_callbacks:
                self._framework_callbacks.append(callback)
        elif domain == DLMONITOR_GPU:
            if callback not in self._gpu_callbacks:
                self._gpu_callbacks.append(callback)
        else:
            raise ValueError(f"unknown DLMonitor domain: {domain!r}")

    def callback_unregister(self, domain: str, callback) -> None:
        if domain == DLMONITOR_FRAMEWORK and callback in self._framework_callbacks:
            self._framework_callbacks.remove(callback)
        elif domain == DLMONITOR_GPU and callback in self._gpu_callbacks:
            self._gpu_callbacks.remove(callback)

    # ------------------------------------------------------------------ call paths

    def callpath_get(self, sources: Optional[CallPathSources] = None,
                     thread: Optional[ThreadContext] = None) -> CallPath:
        """Construct the unified multi-layer call path for ``thread`` (default: current)."""
        sources = sources if sources is not None else CallPathSources.all()
        thread = thread if thread is not None else self.engine.threads.current
        tid = thread.tid
        stack = self.shadow_stacks.for_thread(tid)
        # The operator executing on this thread: its entry holds the Python
        # path captured when it was entered.
        top = stack.top()
        if top is not None:
            self.cache.hits += 1
        else:
            self.cache.misses += 1

        python_triples = ()
        if sources.python and thread.has_python_context:
            if top is not None:
                python_triples = top.python_callpath
            else:
                python_triples = capture_user_frames(skip=2)
                self.stats.python_captures += 1

        forward_record: Optional[ForwardRecord] = None
        if thread.kind == THREAD_BACKWARD and top is not None:
            forward_record = self.associator.lookup(top.sequence_id)

        gpu_leaf = self._gpu_leaf.get(tid) if sources.gpu else None

        path = self.builder.build(
            thread=thread,
            shadow_stack=stack,
            python_triples=python_triples,
            sources=sources,
            gpu_leaf=gpu_leaf,
            forward_record=forward_record,
        )
        self.stats.callpaths_built += 1
        return path

    # ------------------------------------------------------------------ framework interception

    def _on_framework_event(self, info: CallbackInfo) -> None:
        thread = info.thread
        tid = thread.tid
        stack = self.shadow_stacks.for_thread(tid)

        if info.phase == PHASE_BEFORE:
            python_triples = ()
            if thread.has_python_context:
                python_triples = capture_user_frames(skip=2)
                self.stats.python_captures += 1
            # The operator's dispatch frame is the outermost native frame the
            # framework pushed for this operator (e.g. ``at::_ops::conv2d::call``);
            # its address is what the shadow stack records as the operator's
            # "memory location" for call-path integration.
            native_frames = thread.native_stack.frames
            pushed = len(info.call.op.native_symbols)
            dispatch_index = max(0, len(native_frames) - pushed)
            if native_frames:
                dispatch_index = min(dispatch_index, len(native_frames) - 1)
                dispatch_pc = native_frames[dispatch_index].pc
            else:
                dispatch_pc = 0
            scope = tuple(info.scope)
            context_id = self._context_id(thread, stack.top(), info, dispatch_pc,
                                          scope, python_triples)
            stack.push(ShadowEntry(
                op_name=info.op_name,
                is_backward=info.is_backward,
                sequence_id=info.sequence_id,
                dispatch_pc=dispatch_pc,
                python_callpath=python_triples,
                scope=scope,
                context_id=context_id,
            ))
            if not info.is_backward:
                self.associator.record_forward(info.sequence_id, info.op_name, tid,
                                               python_triples, scope)
            self._dispatch_framework(info, PHASE_ENTER)
        else:
            self._dispatch_framework(info, PHASE_EXIT)
            if stack.depth:
                stack.pop()

    def _context_id(self, thread: ThreadContext, enclosing: Optional[ShadowEntry],
                    info: CallbackInfo, dispatch_pc: int, scope: Tuple[str, ...],
                    python_triples: Tuple[PyFrame, ...]) -> int:
        """The interned id of the operator context being entered.

        On a backward thread the path grafts the forward record found
        through the sequence id, so the key holds that record's content.
        """
        grafted = None
        if thread.kind == THREAD_BACKWARD:
            record = self.associator.peek(info.sequence_id)
            if record is not None:
                grafted = (record.op_name, record.scope, record.python_callpath)
        return self.cache.context_id((
            thread.tid, enclosing.context_id if enclosing is not None else None,
            info.op_name, info.is_backward, dispatch_pc, scope, python_triples, grafted))

    def _dispatch_framework(self, info: CallbackInfo, phase: str) -> None:
        self.stats.framework_events += 1
        if not self._framework_callbacks:
            return
        event = FrameworkEvent(
            kind=EVENT_OPERATOR,
            phase=phase,
            op_name=info.op_name,
            is_backward=info.is_backward,
            sequence_id=info.sequence_id,
            thread_tid=info.thread.tid,
            scope=list(info.scope),
            attrs=dict(info.call.attrs),
            input_bytes=info.call.input_bytes(),
            output_bytes=info.call.output.nbytes if info.call.output is not None else 0,
            framework=self.engine.framework_name,
        )
        for callback in list(self._framework_callbacks):
            callback(event)

    # ------------------------------------------------------------------ GPU interception

    def _on_gpu_api(self, data: ApiCallbackData) -> None:
        thread = self.engine.threads.current
        tid = thread.tid
        kernel_name = data.kernel_function.name if data.kernel_function is not None else ""
        if data.phase == ApiPhase.ENTER:
            self._gpu_leaf[tid] = GpuLeafContext(
                api_name=data.api_name,
                kernel_name=kernel_name,
                library="libcudart.so" if data.api_name.startswith("cuda") else "libamdhip64.so",
                device=data.device,
            )
        self.stats.gpu_events += 1
        event = GpuEvent(
            api_name=data.api_name,
            phase=PHASE_ENTER if data.phase == ApiPhase.ENTER else PHASE_EXIT,
            correlation_id=data.correlation_id,
            device=data.device,
            kernel_name=kernel_name,
            stream=data.stream,
            bytes=data.bytes,
            kind=data.kind,
            thread_tid=tid,
        )
        for callback in list(self._gpu_callbacks):
            callback(event)
        if data.phase == ApiPhase.EXIT:
            self._gpu_leaf.pop(tid, None)

    # ------------------------------------------------------------------ JIT interception

    def _on_compilation(self, event: CompilationEvent) -> None:
        self.stats.compilation_events += 1
        if event.phase != PHASE_FUSION:
            return
        for group in event.fused_groups:
            originals = [
                OriginalOperator(
                    op_name=member.op_name,
                    node_id=member.node_id,
                    compile_time_callpath=member.compile_time_callpath,
                    scope=tuple(member.scope),
                )
                for member in group.members
            ]
            self.fusion_map.record(f"xla::{group.name}", event.graph.name, originals)
        if self._framework_callbacks:
            framework_event = FrameworkEvent(
                kind=EVENT_COMPILATION,
                phase=PHASE_EXIT,
                op_name=event.graph.name,
                attrs={
                    "num_operators": event.graph.num_operators,
                    "num_fused_groups": len(event.fused_groups),
                },
                framework="jax",
            )
            for callback in list(self._framework_callbacks):
                callback(framework_event)


# ---------------------------------------------------------------------------
# Paper-style C API wrappers
# ---------------------------------------------------------------------------

def dlmonitor_init(engine: EagerEngine, jit_compiler: Optional[JitCompiler] = None,
                   program_name: str = "program",
                   interception_config: Optional[Dict[str, object]] = None) -> DLMonitor:
    """Initialise DLMonitor's shared library (the ``LD_PRELOAD`` entry point)."""
    monitor = DLMonitor(engine, jit_compiler=jit_compiler, program_name=program_name,
                        interception_config=interception_config)
    return monitor.init()


def dlmonitor_callback_register(monitor: DLMonitor, domain: str, callback) -> None:
    """Register a profiler callback in ``domain`` (framework or GPU)."""
    monitor.callback_register(domain, callback)


def dlmonitor_callpath_get(monitor: DLMonitor, sources: Optional[CallPathSources] = None,
                           thread: Optional[ThreadContext] = None) -> CallPath:
    """Construct and return the unified multi-layer call path."""
    return monitor.callpath_get(sources=sources, thread=thread)


def dlmonitor_finalize(monitor: DLMonitor) -> None:
    """Disable DLMonitor monitoring and release all interceptions."""
    monitor.finalize()
