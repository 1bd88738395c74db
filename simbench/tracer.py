"""Span tracing around the simulator's layer entry points, from outside.

:class:`Tracer` keeps spans (name, start, end, parent, op id) in memory and
folds each span into per-name self time as it closes: a span's self time is
its duration minus the part its child spans cover. The simulator is
single-threaded, so a call stack is a complete picture of nesting. Spans
of one op (a profile call, or a whole serve pass) share an op id.

:func:`installed` patches timing wrappers onto the public names the callers
look up, and restores the originals on exit. The program itself is not
edited, so an untraced pass runs exactly the shipped code.

Layer names (the prefix before the first dot is the layer):

=====================  ====================================================
``engine.run``         ``repro.engine.executor.run``, as looked up by
                       ``repro.skip.profiler`` and ``repro.serving.latency``
``skip.depgraph``      ``DependencyGraph.from_trace``
``skip.metrics``       ``compute_metrics`` and tape ``metrics_from_tape``
``skip.fusion``        ``analyze_trace`` (``recommend_fusions``)
``skip.classify``      ``classify_metrics`` and ``repro.skip.find_transition``
``pricing.hit/miss``   ``LatencyModel`` lookups; a miss runs the engine
``admission.*``        ``AdmissionQueue.depth`` / ``claim`` (shared queue)
``router.*``           ``RoutedQueue.push`` and per-replica depth / claim
``planner``            ``StepPlanner`` plan, chunk-cost and FIFO-claim calls
``kv``                 every public ``KvManager`` method
``host.dispatch``      ``HostModel.dispatch``
``recorder``           ``RunRecorder`` event hooks
``session.execute``    ``EngineSession.execute``
``runtime``            ``SimCore.run`` of a serving run (event loop plus
                       policy process bodies); the engine's own inner
                       ``SimCore.run`` stays inside ``engine.run``
=====================  ====================================================
"""

from __future__ import annotations

import contextlib
import inspect
import gzip
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

_RECORDER_HOOKS = (
    "on_admitted", "on_first_token", "on_token", "on_completed",
    "record_step", "on_kv_pool", "on_kv_event", "on_cluster", "on_routed",
    "on_host", "on_host_grant", "observe_launch_queue",
    "observe_launch_delay")

_PRICING_METHODS = (
    "ttft_ns", "ttft_cpu_ns", "decode_step_ns", "decode_step_cpu_ns")

#: Spans kept in memory per run (~11 MB at 28 bytes a span); spans past
#: the limit are only counted, as ``dropped``.
SPAN_LIMIT = 400_000


class Tracer:
    """Per-pass span bookkeeping: self time and calls per span name.

    Spans are kept in flat arrays (name index, start, end, parent index,
    op id) for the passes that ask for them, up to ``SPAN_LIMIT`` spans; the
    per-name aggregates always cover every span.
    """

    def __init__(self) -> None:
        self._stack: list[list] = []
        self.names: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.dropped = 0
        self.keep_spans = False
        self.op_id = 0
        self.engine_depth = 0
        self.engine_calls = 0
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.depth_sum = 0
        self.depth_max = 0
        self.partial_chunks = 0
        self.bias_s = 0.0
        self.biases = {keep: self._calibrate(keep) for keep in (False, True)}

    def _calibrate(self, keep_spans: bool, calls: int = 20_000,
                   rounds: int = 5) -> float:
        """Seconds a parent span is charged per wrapped child call beyond the
        child's own interval (wrapper entry and exit, bookkeeping): the
        median over ``rounds`` of a parent's self time around ``calls``
        wrapped no-ops. :meth:`pop` credits it back to the parent, as
        profilers subtract their own bias."""
        noop = _spanned(self, lambda: None, "calibration")
        self.keep_spans = keep_spans
        samples = []
        for _ in range(rounds):
            self.push("calibration.parent")
            for _ in range(calls):
                noop()
            self.pop()
            samples.append(self.self_s.pop("calibration.parent") / calls)
        self.self_s.clear()
        self.calls.clear()
        for spans in (self.span_name, self.span_start, self.span_end,
                      self.span_parent, self.span_op):
            del spans[:]
        self.names.clear()
        self.keep_spans = False
        return sorted(samples)[rounds // 2]

    def reset(self, keep_spans: bool) -> None:
        """Start a new pass: zero the aggregates, keep prior spans."""
        if self._stack:
            raise RuntimeError("tracer reset inside an open span")
        self.keep_spans = keep_spans
        self.bias_s = self.biases[keep_spans]
        self.engine_calls = 0
        self.self_s.clear()
        self.calls.clear()
        self.depth_sum = self.depth_max = self.partial_chunks = 0

    def next_op(self) -> None:
        """Spans from here on belong to a new op."""
        self.op_id += 1

    def push(self, name: str) -> None:
        index = -1
        if self.keep_spans:
            if len(self.span_start) < SPAN_LIMIT:
                index = len(self.span_start)
                self.span_name.append(self.names.setdefault(name,
                                                            len(self.names)))
                self.span_start.append(0.0)
                self.span_end.append(0.0)
                self.span_parent.append(self._stack[-1][3] if self._stack
                                        else -1)
                self.span_op.append(self.op_id)
            else:
                self.dropped += 1
        self._stack.append([name, perf_counter(), 0.0, index])

    def pop(self, name: str | None = None) -> None:
        """Close the innermost span, optionally renaming it (a pricing
        lookup only knows whether it missed once it has returned)."""
        end = perf_counter()
        opened, start, children, index = self._stack.pop()
        name = name or opened
        duration = end - start
        self.self_s[name] += duration - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration + self.bias_s
        if index >= 0:
            self.span_name[index] = self.names.setdefault(name,
                                                          len(self.names))
            self.span_start[index] = start
            self.span_end[index] = end

    def write_spans(self, path: Path) -> None:
        """Write the kept spans as gzipped CSV, one span a line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = list(self.names)
        with gzip.open(path, "wt") as out:
            out.write(f"# {len(self.span_start)} spans kept, "
                      f"{self.dropped} dropped past the limit\n")
            out.write("name,start_s,end_s,parent,op\n")
            for row in zip(self.span_name, self.span_start, self.span_end,
                           self.span_parent, self.span_op):
                out.write(f"{names[row[0]]},{row[1]!r},{row[2]!r},"
                          f"{row[3]},{row[4]}\n")


def _spanned(tracer: Tracer, fn: Callable, name: str | Callable) -> Callable:
    """``fn`` inside a span; ``name`` may pick the span name from args."""
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer.push(name(args) if callable(name) else name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.pop()
    return wrapper


def _engine_run(tracer: Tracer, fn: Callable) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer.engine_calls += 1
        tracer.engine_depth += 1
        tracer.push("engine.run")
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.pop()
            tracer.engine_depth -= 1
    return wrapper


def _sim_core_run(tracer: Tracer, fn: Callable) -> Callable:
    def wrapper(self: Any) -> None:
        if tracer.engine_depth:
            return fn(self)
        tracer.push("runtime")
        try:
            return fn(self)
        finally:
            tracer.pop()
    return wrapper


def _pricing(tracer: Tracer, fn: Callable) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        before = tracer.engine_calls
        tracer.push("pricing")
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.pop("pricing.miss" if tracer.engine_calls > before
                       else "pricing.hit")
    return wrapper


def _depth(tracer: Tracer, fn: Callable, routed_type: type) -> Callable:
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> int:
        routed = isinstance(self, routed_type)
        tracer.push("router.depth" if routed else "admission.depth")
        try:
            depth = fn(self, *args, **kwargs)
        finally:
            tracer.pop()
        if not routed:
            tracer.depth_sum += depth
            tracer.depth_max = max(tracer.depth_max, depth)
        return depth
    return wrapper


def _planned(tracer: Tracer, fn: Callable) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer.push("planner.plan")
        try:
            plan = fn(*args, **kwargs)
        finally:
            tracer.pop()
        chunks = plan.chunks if hasattr(plan, "chunks") else plan
        tracer.partial_chunks += sum(1 for c in chunks if not c.is_whole)
        return plan
    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Patch the layer wrappers in for the duration of the block."""
    import repro.skip
    import repro.skip.profiler as profiler
    import repro.serving.latency as latency
    from repro.host.model import HostModel
    from repro.kvcache.manager import KvManager
    from repro.obs.recorder import RunRecorder
    from repro.serving.cluster import RoutedQueue
    from repro.serving.planner import StepPlanner
    from repro.serving.runtime import AdmissionQueue, EngineSession
    from repro.sim.core import SimCore
    from repro.skip.depgraph import DependencyGraph

    def queue_name(verb: str) -> Callable:
        return lambda args: ("router." if isinstance(args[0], RoutedQueue)
                             else "admission.") + verb

    patches: list[tuple[Any, str, Any]] = [
        (profiler, "run", _engine_run(tracer, profiler.run)),
        (latency, "run", _engine_run(tracer, latency.run)),
        (SimCore, "run", _sim_core_run(tracer, SimCore.run)),
        (DependencyGraph, "from_trace", classmethod(_spanned(
            tracer, DependencyGraph.from_trace.__func__, "skip.depgraph"))),
        (profiler, "compute_metrics", _spanned(
            tracer, profiler.compute_metrics, "skip.metrics")),
        (latency, "metrics_from_tape", _spanned(
            tracer, latency.metrics_from_tape, "skip.metrics")),
        (profiler, "analyze_trace", _spanned(
            tracer, profiler.analyze_trace, "skip.fusion")),
        (profiler, "classify_metrics", _spanned(
            tracer, profiler.classify_metrics, "skip.classify")),
        (repro.skip, "find_transition", _spanned(
            tracer, repro.skip.find_transition, "skip.classify")),
        (AdmissionQueue, "depth", _depth(
            tracer, AdmissionQueue.depth, RoutedQueue)),
        (AdmissionQueue, "claim", _spanned(
            tracer, AdmissionQueue.claim, queue_name("claim"))),
        (RoutedQueue, "push", _spanned(
            tracer, RoutedQueue.push, "router.push")),
        (StepPlanner, "plan_step", _planned(tracer, StepPlanner.plan_step)),
        (StepPlanner, "prefill_plan", _planned(
            tracer, StepPlanner.prefill_plan)),
        (StepPlanner, "admit", _spanned(
            tracer, StepPlanner.admit, "planner")),
        (HostModel, "dispatch", _spanned(
            tracer, HostModel.dispatch, "host.dispatch")),
        (EngineSession, "execute", _spanned(
            tracer, EngineSession.execute, "session.execute")),
    ]
    for method in ("chunk_cost_ns", "chunk_cpu_ns", "next_fifo_batch"):
        patches.append((StepPlanner, method, staticmethod(_spanned(
            tracer, getattr(StepPlanner, method), "planner"))))
    for method in _PRICING_METHODS:
        patches.append((latency.LatencyModel, method, _pricing(
            tracer, getattr(latency.LatencyModel, method))))
    for method in _RECORDER_HOOKS:
        patches.append((RunRecorder, method, _spanned(
            tracer, getattr(RunRecorder, method), "recorder")))
    for method, value in vars(KvManager).items():
        if inspect.isfunction(value) and not method.startswith("_"):
            patches.append((KvManager, method, _spanned(tracer, value, "kv")))

    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
