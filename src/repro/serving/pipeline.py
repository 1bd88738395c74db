"""Agentic pipelines: chained model invocations (Section II-A).

In agentic systems an orchestrator LLM's output feeds downstream models; the
paper's point is that per-stage latency *compounds*, so batching-induced
latency anywhere in the chain degrades end-to-end responsiveness. This module
composes per-stage generation latencies from the engine-backed LatencyModel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.obs.events import EngineShape, StepKind
from repro.obs.recorder import RunRecorder
from repro.serving.latency import LatencyModel
from repro.serving.planner import PlannerConfig, StepPlanner
from repro.serving.requests import queue_delay_ns
from repro.workloads.config import ModelConfig

if TYPE_CHECKING:
    from repro.serving.runtime import EngineSession, ServingRuntime
    from repro.sim.core import Process


@dataclass(frozen=True)
class PipelineStage:
    """One model invocation in an agentic chain.

    ``consumes_upstream`` adds the previous stage's generated tokens to this
    stage's prompt (output chaining).
    """

    name: str
    model: ModelConfig
    prompt_len: int
    output_tokens: int
    consumes_upstream: bool = True

    def __post_init__(self) -> None:
        if self.prompt_len <= 0 or self.output_tokens <= 0:
            raise ConfigurationError(
                f"stage {self.name}: lengths must be positive")


@dataclass(frozen=True)
class StageLatency:
    """Latency of one executed stage."""

    stage: str
    prompt_len: int
    ttft_ns: float
    total_ns: float


@dataclass(frozen=True)
class PipelineResult:
    """End-to-end latency of a pipeline execution."""

    stages: tuple[StageLatency, ...]

    @property
    def total_ns(self) -> float:
        return sum(s.total_ns for s in self.stages)

    @property
    def total_ttft_ns(self) -> float:
        """Sum of per-stage TTFTs — the 'first signs of progress' latency."""
        return sum(s.ttft_ns for s in self.stages)

    def slowest_stage(self) -> StageLatency:
        return max(self.stages, key=lambda s: s.total_ns)


class AgenticPipeline:
    """A chain of model invocations evaluated on one platform."""

    def __init__(self, stages: list[PipelineStage], latency: LatencyModel) -> None:
        if not stages:
            raise ConfigurationError("pipeline needs at least one stage")
        self.stages = list(stages)
        self.latency = latency

    def run(self, batch_size: int = 1,
            recorder: RunRecorder | None = None) -> PipelineResult:
        """Evaluate end-to-end latency when every stage runs at ``batch_size``.

        Larger batch sizes model a deployment that batches concurrent
        pipeline executions at each stage; latency compounds per stage. A
        recorder sees each stage as a prefill step (engine-shaped) followed
        by a closed-form generation step on one compounding clock.
        """
        if batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        results: list[StageLatency] = []
        upstream_tokens = 0
        clock = 0.0
        for stage in self.stages:
            prompt = stage.prompt_len + (upstream_tokens
                                         if stage.consumes_upstream else 0)
            ttft = self.latency.ttft_ns(stage.model, batch_size, prompt)
            total = self.latency.generation_ns(stage.model, batch_size, prompt,
                                               stage.output_tokens)
            if recorder is not None:
                recorder.record_step(
                    StepKind.PREFILL, clock, ttft, batch_size,
                    shape=EngineShape(stage.model.name, batch_size, prompt))
                if total > ttft:
                    recorder.record_step(StepKind.GENERATION, clock + ttft,
                                         total - ttft, batch_size)
            clock += total
            results.append(StageLatency(stage=stage.name, prompt_len=prompt,
                                        ttft_ns=ttft, total_ns=total))
            upstream_tokens = stage.output_tokens
        return PipelineResult(stages=tuple(results))


@dataclass(frozen=True)
class PipelineServingPolicy:
    """Serve an arrival stream where every request runs an agentic chain.

    Each claimed batch executes the whole stage chain back to back: the
    first stage's prompt is its configured ``prompt_len`` plus the padded
    request prompt; downstream stages chain on the previous stage's output
    when ``consumes_upstream`` is set, exactly like
    :class:`AgenticPipeline`.
    """

    stages: tuple[PipelineStage, ...]
    max_batch_size: int = 8
    chunk_tokens: int = 0

    def __post_init__(self) -> None:
        if not self.stages:
            raise ConfigurationError("pipeline needs at least one stage")
        if self.max_batch_size <= 0:
            raise ConfigurationError("max_batch_size must be positive")
        if self.chunk_tokens < 0:
            raise ConfigurationError(
                "chunk_tokens must be non-negative (0 disables chunking)")


def pipeline_serving_process(runtime: ServingRuntime,
                             session: EngineSession,
                             policy: PipelineServingPolicy) -> Process:
    """One replica's agentic-pipeline server, as a sim process.

    FIFO batching: the replica claims the oldest waiting requests, then runs
    every stage of the chain for the padded batch. TTFT is the first stage's
    prefill (the user's first signs of progress); completion is the whole
    chain, which compounds per stage — the paper's agentic-latency point.
    """
    queue = session.queue
    latency = runtime.latency
    recorder = runtime.recorder
    planner = StepPlanner(PlannerConfig(chunk_tokens=policy.chunk_tokens))
    free = 0.0
    while True:
        now = yield ("at", free)
        decision = StepPlanner.next_fifo_batch(queue, now,
                                               policy.max_batch_size)
        if decision.done:
            break
        if decision.wake_at is not None:
            free = decision.wake_at
            continue
        launch = max(decision.seed_arrival, free)
        batch = list(decision.batch)

        batch_size = len(batch)
        request_prompt = max(r.prompt_len for r in batch)
        waiting = queue.depth(launch) if recorder is not None else 0
        if recorder is not None:
            for request in batch:
                recorder.on_admitted(request.request_id, request.arrival_ns,
                                     launch)
        clock = launch
        upstream_tokens = request_prompt
        first_ttft = 0.0
        for position, stage in enumerate(policy.stages):
            consumes = position == 0 or stage.consumes_upstream
            prompt = stage.prompt_len + (upstream_tokens if consumes else 0)
            ttft = latency.ttft_ns(stage.model, batch_size, prompt)
            total = latency.generation_ns(stage.model, batch_size, prompt,
                                          stage.output_tokens)
            # Planner-decomposed stage prefill: one whole-prompt chunk
            # when chunking is off, budget-sized chunks otherwise.
            offset = 0.0
            for chunk in planner.prefill_plan(batch[0].request_id, prompt):
                chunk_ns = (ttft if chunk.is_whole
                            else StepPlanner.chunk_cost_ns(
                                latency, stage.model, batch_size, chunk))
                session.execute(
                    chunk.kind, clock + offset, chunk_ns, batch_size,
                    queue_depth=waiting,
                    shape=EngineShape(stage.model.name, batch_size, prompt)
                    if recorder is not None and chunk.is_whole else None,
                    schedule_label=chunk.schedule_label)
                offset += chunk_ns
            if total > ttft:
                session.execute(StepKind.GENERATION, clock + offset,
                                total - ttft, batch_size, queue_depth=waiting)
            if position == 0:
                first_ttft = offset
            clock += total
            upstream_tokens = stage.output_tokens
        chain_ns = clock - launch
        for request in batch:
            queued = queue_delay_ns(request, launch)
            if recorder is not None:
                recorder.on_first_token(request.request_id,
                                        launch + first_ttft)
                recorder.on_completed(request.request_id, clock)
            runtime.complete(request,
                             ttft_ns=queued + first_ttft,
                             completion_ns=queued + chain_ns,
                             batch_size=batch_size,
                             service_start_ns=launch, session=session)
        free = clock
