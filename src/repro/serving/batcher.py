"""Static batching: policy, report, and the sim-backed serving process.

Section II-A of the paper frames the central serving trade-off: large batches
maximize throughput but inflate per-user latency (TTFT); BS=1 minimizes
latency but wastes hardware. Static batching is the classic form: collect
requests until the batch is full or the oldest has waited too long, then run
prefill + decode for the whole batch padded to its longest member.

The serving loop itself is :func:`static_batching_process`, a process on
:class:`repro.serving.runtime.ServingRuntime`; :func:`simulate_static_batching`
wraps it for the single-call API. The original standalone loop survives as
:func:`repro.serving.legacy.legacy_static_batching`, and with one replica the
process reproduces it bit-for-bit.

Every padded-batch policy (static here; priority, pipeline, RAG and
speculative serving in their own modules) serves a claimed batch through
the same few steps, kept here once: :func:`admit_batch`,
:func:`padded_prefill` (the planner's chunks), :func:`padded_generation`
(prefill plus the closed-form decode tail), :func:`complete_batch` (the
recorder stamps plus ``runtime.complete``), and
:func:`fifo_batch_process` (the oldest-first claim loop). One rule holds
for all of them: a request's first token lands when its batch's last
executed prefill chunk ends, and the replica frees when its last step ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import ConfigurationError
from repro.obs.events import EngineShape, StepKind
from repro.obs.recorder import RunRecorder
from repro.serving.latency import LatencyModel
from repro.serving.planner import PlannerConfig, StepPlanner
from repro.serving.requests import Request, RequestOutcome, queue_delay_ns
from repro.workloads.config import ModelConfig

if TYPE_CHECKING:
    from repro.serving.runtime import EngineSession, ServingRuntime
    from repro.sim.core import Process


@dataclass(frozen=True)
class StaticBatchPolicy:
    """Collect up to ``max_batch_size`` requests or wait at most ``max_wait_ns``.

    ``max_batch_size=1`` degenerates to latency-critical single-stream
    serving (MLPerf SingleStream, per Section IV-B).
    """

    max_batch_size: int = 8
    max_wait_ns: float = 50e6  # 50 ms

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ConfigurationError("max_batch_size must be positive")
        if self.max_wait_ns < 0:
            raise ConfigurationError("max_wait_ns must be non-negative")


@dataclass
class ServingReport:
    """Aggregate statistics for one simulated serving run."""

    outcomes: list[RequestOutcome]

    def __post_init__(self) -> None:
        if not self.outcomes:
            raise ConfigurationError("no outcomes to report")

    def _values(self, attr: str) -> list[float]:
        return sorted(getattr(o, attr) for o in self.outcomes)

    def mean_ttft_ns(self) -> float:
        values = self._values("ttft_ns")
        return sum(values) / len(values)

    def p99_ttft_ns(self) -> float:
        values = self._values("ttft_ns")
        return values[min(len(values) - 1, int(0.99 * len(values)))]

    def mean_completion_ns(self) -> float:
        values = self._values("completion_ns")
        return sum(values) / len(values)

    def throughput_tokens_per_s(self) -> float:
        total_tokens = sum(o.request.output_tokens for o in self.outcomes)
        makespan_ns = max(o.request.arrival_ns + o.completion_ns
                          for o in self.outcomes)
        return total_tokens / (makespan_ns / 1e9)

    def mean_batch_size(self) -> float:
        return sum(o.batch_size for o in self.outcomes) / len(self.outcomes)


def admit_batch(runtime: ServingRuntime, session: EngineSession,
                batch: Sequence[Request], launch_ns: float) -> int:
    """Mark a claimed batch admitted at ``launch_ns``.

    Returns the queue depth the batch's steps record (0 when unrecorded,
    so an unobserved run never scans the queue).
    """
    recorder = runtime.recorder
    if recorder is None:
        return 0
    waiting = session.queue.depth(launch_ns)
    for request in batch:
        recorder.on_admitted(request.request_id, request.arrival_ns,
                             launch_ns)
    return waiting


def padded_prefill(runtime: ServingRuntime, session: EngineSession,
                   planner: StepPlanner, model: ModelConfig,
                   batch: Sequence[Request], prompt_len: int, ts_ns: float,
                   waiting: int, ttft_ns: float) -> float:
    """Run one padded batch prefill as the planner's chunks from ``ts_ns``.

    With chunking off the plan is one whole-prompt chunk priced at
    ``ttft_ns`` (the unplanned step, bit-identical); otherwise each chunk
    costs its marginal prefill. Returns the executed prefill span, which
    is where the batch's first token lands.
    """
    batch_size = len(batch)
    recorded = runtime.recorder is not None
    offset = 0.0
    for chunk in planner.prefill_plan(batch[0].request_id, prompt_len):
        chunk_ns = (ttft_ns if chunk.is_whole
                    else StepPlanner.chunk_cost_ns(runtime.latency, model,
                                                   batch_size, chunk))
        session.execute(chunk.kind, ts_ns + offset, chunk_ns, batch_size,
                        queue_depth=waiting,
                        shape=EngineShape(model.name, batch_size, prompt_len)
                        if recorded and chunk.is_whole else None,
                        schedule_label=chunk.schedule_label)
        offset += chunk_ns
    return offset


def padded_generation(runtime: ServingRuntime, session: EngineSession,
                      planner: StepPlanner, model: ModelConfig,
                      batch: Sequence[Request], prompt_len: int,
                      output_tokens: int, ts_ns: float,
                      waiting: int) -> tuple[float, float]:
    """Prefill plus the closed-form decode tail of one padded batch.

    Returns ``(first, end)`` offsets from ``ts_ns``: the first token lands
    when the last prefill chunk ends, and the tail starts there, so it is
    shifted by the executed span minus the whole-prompt ``ttft`` (zero
    with chunking off). ``ts_ns + end`` is when the replica frees.
    """
    latency = runtime.latency
    batch_size = len(batch)
    ttft = latency.ttft_ns(model, batch_size, prompt_len)
    total = latency.generation_ns(model, batch_size, prompt_len,
                                  output_tokens)
    span = padded_prefill(runtime, session, planner, model, batch,
                          prompt_len, ts_ns, waiting, ttft)
    if total > ttft:
        session.execute(StepKind.GENERATION, ts_ns + span, total - ttft,
                        batch_size, queue_depth=waiting)
    return span, total + (span - ttft)


def complete_batch(runtime: ServingRuntime, session: EngineSession,
                   batch: Sequence[Request], launch_ns: float,
                   first_ns: float, ends_ns: Sequence[float],
                   lead_ns: float = 0.0) -> None:
    """Stamp and complete every request of one served batch.

    Offsets count from ``launch_ns + lead_ns``, where the lead is service
    the whole batch pays first (RAG's retrieval, speculative's prefill).
    Every request's first token lands at ``first_ns`` and it completes at
    its own entry of ``ends_ns``. This is the one place a batched
    request's TTFT and completion are stamped.
    """
    recorder = runtime.recorder
    origin = launch_ns + lead_ns
    batch_size = len(batch)
    for request, end_ns in zip(batch, ends_ns, strict=True):
        queued = queue_delay_ns(request, launch_ns) + lead_ns
        if recorder is not None:
            recorder.on_first_token(request.request_id, origin + first_ns)
            recorder.on_completed(request.request_id, origin + end_ns)
        runtime.complete(request, ttft_ns=queued + first_ns,
                         completion_ns=queued + end_ns,
                         batch_size=batch_size,
                         service_start_ns=launch_ns, session=session)


def fifo_batch_process(
        session: EngineSession, max_batch_size: int,
        serve: Callable[[list[Request], float], float]) -> Process:
    """One replica's oldest-first claim loop, as a sim process.

    The replica sleeps until it is free, claims the oldest waiting
    requests (up to ``max_batch_size``) and hands them to ``serve`` with
    their launch time; ``serve`` runs the batch and returns when the
    replica frees.
    """
    free = 0.0
    while True:
        now = yield ("at", free)
        decision = StepPlanner.next_fifo_batch(session.queue, now,
                                               max_batch_size)
        if decision.done:
            break
        if decision.wake_at is not None:
            free = decision.wake_at
            continue
        free = serve(list(decision.batch),
                     max(decision.seed_arrival, free))


def static_batching_process(runtime: ServingRuntime, session: EngineSession,
                            policy: StaticBatchPolicy) -> Process:
    """One replica's static-batching scheduler, as a sim process.

    The replica sleeps until it is free, claims the oldest waiting request
    plus everything that arrived within the batching window, runs the padded
    batch as one prefill step plus a closed-form generation step, and goes
    back to sleep until the batch drains.
    """
    queue = session.queue
    planner = StepPlanner(PlannerConfig())
    free = 0.0
    while True:
        now = yield ("at", free)
        seed = queue.first_unclaimed()
        if seed is None:
            break
        if seed.arrival_ns > now:
            # Nothing waiting yet: sleep until the next arrival. Another
            # replica may claim it first; re-check on wake.
            free = seed.arrival_ns
            continue
        batch_start = max(seed.arrival_ns, free)
        deadline = seed.arrival_ns + policy.max_wait_ns
        batch = queue.claim_batch(seed, policy.max_batch_size,
                                  max(deadline, batch_start))
        launch_ns = max(batch_start, batch[-1].arrival_ns)
        waiting = admit_batch(runtime, session, batch, launch_ns)
        first, end = padded_generation(
            runtime, session, planner, runtime.model, batch,
            max(r.prompt_len for r in batch),
            max(r.output_tokens for r in batch), launch_ns, waiting)
        complete_batch(runtime, session, batch, launch_ns, first,
                       [end] * len(batch))
        free = launch_ns + end


def simulate_static_batching(
    requests: Sequence[Request],
    model: ModelConfig,
    latency: LatencyModel,
    policy: StaticBatchPolicy = StaticBatchPolicy(),
    recorder: RunRecorder | None = None,
) -> ServingReport:
    """Run a static-batching serving loop over an arrival stream.

    The server collects requests until the batch is full or the oldest
    request has waited ``max_wait_ns``, then runs prefill + decode for the
    whole batch (padded to the longest prompt/output in the batch — the
    classic static-batching inefficiency).

    A recorder, when given, sees each batch as one engine-shaped prefill step
    plus a closed-form generation step (decode here is priced by a trapezoid
    integral, not per-step engine runs).

    This is a thin wrapper over :func:`repro.serving.runtime.simulate_serving`
    with one replica; use ``simulate_serving`` directly for multi-replica
    runs or per-replica statistics.
    """
    from repro.serving.runtime import simulate_serving

    return simulate_serving(requests, model, latency, policy=policy,
                            recorder=recorder).report
