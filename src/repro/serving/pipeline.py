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
from repro.serving.batcher import (
    admit_batch,
    complete_batch,
    fifo_batch_process,
    padded_generation,
)
from repro.serving.latency import LatencyModel
from repro.serving.planner import PlannerConfig, StepPlanner
from repro.serving.requests import Request
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
    planner = StepPlanner(PlannerConfig(chunk_tokens=policy.chunk_tokens))

    def serve(batch: list[Request], launch: float) -> float:
        waiting = admit_batch(runtime, session, batch, launch)
        clock = launch
        upstream_tokens = max(r.prompt_len for r in batch)
        first_ttft = 0.0
        for position, stage in enumerate(policy.stages):
            consumes = position == 0 or stage.consumes_upstream
            prompt = stage.prompt_len + (upstream_tokens if consumes else 0)
            first, end = padded_generation(
                runtime, session, planner, stage.model, batch, prompt,
                stage.output_tokens, clock, waiting)
            if position == 0:
                first_ttft = first
            clock += end
            upstream_tokens = stage.output_tokens
        complete_batch(runtime, session, batch, launch, first_ttft,
                       [clock - launch] * len(batch))
        return clock

    return fifo_batch_process(session, policy.max_batch_size, serve)
