"""Speculative decoding: a draft model proposes, the target model verifies.

A latency-optimization technique squarely in the paper's problem space —
with a regime dependence the simulator makes explicit. Speculation replaces
K sequential target-model steps with K draft steps plus one verification
pass. That trade only pays when a decode step's cost scales with model
*size* (memory-bound weight streaming, e.g. under CUDA-graph execution).
In the eager dispatch-bound regime the paper characterizes, every forward
pass costs roughly the same CPU time regardless of model width, so a
"small" draft model is no cheaper per step and speculation loses — fuse or
capture graphs first, then speculate.

Latency model per round (draft length K, acceptance rate a):

* K draft-model decode steps;
* one target-model forward over the K proposed tokens (a small prefill);
* expected accepted tokens per round: classic geometric acceptance,
  ``E = (1 - a^(K+1)) / (1 - a)`` (includes the bonus token).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
class SpeculativeConfig:
    """Draft/verify configuration.

    Attributes:
        draft_tokens: Tokens proposed per round (K).
        acceptance_rate: Probability each proposed token matches the target
            model's choice (a).
    """

    draft_tokens: int = 4
    acceptance_rate: float = 0.7

    def __post_init__(self) -> None:
        if self.draft_tokens <= 0:
            raise ConfigurationError("draft_tokens must be positive")
        if not (0.0 < self.acceptance_rate < 1.0):
            raise ConfigurationError("acceptance_rate must be in (0, 1)")

    @property
    def expected_tokens_per_round(self) -> float:
        """Expected accepted tokens per round, including the bonus token."""
        a = self.acceptance_rate
        k = self.draft_tokens
        return (1 - a ** (k + 1)) / (1 - a)


@dataclass(frozen=True)
class SpeculativeLatency:
    """Latency comparison for one generation request."""

    baseline_ns: float          # target model decoding alone
    speculative_ns: float       # draft + verify rounds
    rounds: float
    tokens: int

    @property
    def speedup(self) -> float:
        return self.baseline_ns / self.speculative_ns


def speculative_generation_ns(
    target: ModelConfig,
    draft: ModelConfig,
    latency: LatencyModel,
    config: SpeculativeConfig = SpeculativeConfig(),
    prompt_len: int = 256,
    output_tokens: int = 128,
    batch_size: int = 1,
    recorder: RunRecorder | None = None,
) -> SpeculativeLatency:
    """Compare plain decoding against draft-and-verify decoding.

    Both paths pay the target model's prefill; the decode phase differs.
    Context-length growth is approximated at the mid-generation point (decode
    latency is near-affine in context). A recorder sees the speculative
    path's timeline: the target prefill, then per-round draft decode steps
    and verification passes (the fractional last round is recorded as a
    closed-form step so recorded time matches the returned latency exactly).
    """
    if output_tokens <= 0:
        raise ConfigurationError("output_tokens must be positive")
    mid_context = prompt_len + output_tokens // 2

    prefill = latency.ttft_ns(target, batch_size, prompt_len)

    target_step = latency.decode_step_ns(target, batch_size, mid_context)
    baseline = prefill + output_tokens * target_step

    draft_step = latency.decode_step_ns(draft, batch_size, mid_context)
    # Verification: one target forward over K proposed tokens. Modeled as a
    # K-token prefill continuation (the KV cache covers the context).
    verify = latency.ttft_ns(target, batch_size, config.draft_tokens)
    per_round = config.draft_tokens * draft_step + verify
    rounds = output_tokens / config.expected_tokens_per_round
    speculative = prefill + rounds * per_round

    if recorder is not None:
        clock = 0.0
        recorder.record_step(
            StepKind.PREFILL, clock, prefill, batch_size,
            shape=EngineShape(target.name, batch_size, prompt_len))
        clock += prefill
        draft_shape = EngineShape(draft.name, batch_size, 1, phase="decode",
                                  context_len=mid_context)
        verify_shape = EngineShape(target.name, batch_size,
                                   config.draft_tokens)
        for _ in range(math.floor(rounds)):
            for _ in range(config.draft_tokens):
                recorder.record_step(StepKind.DRAFT, clock, draft_step,
                                     batch_size, shape=draft_shape)
                clock += draft_step
            recorder.record_step(StepKind.VERIFY, clock, verify, batch_size,
                                 shape=verify_shape)
            clock += verify
        remainder = rounds - math.floor(rounds)
        if remainder > 1e-9:
            recorder.record_step(StepKind.DRAFT, clock,
                                 remainder * config.draft_tokens * draft_step,
                                 batch_size)
            clock += remainder * config.draft_tokens * draft_step
            recorder.record_step(StepKind.VERIFY, clock, remainder * verify,
                                 batch_size)

    return SpeculativeLatency(
        baseline_ns=baseline,
        speculative_ns=speculative,
        rounds=rounds,
        tokens=output_tokens,
    )


@dataclass(frozen=True)
class SpeculativeServingPolicy:
    """Serve an arrival stream with draft-and-verify decoding.

    Attributes:
        draft: The draft model proposing tokens (the runtime's model is the
            verifying target).
        config: Draft length / acceptance knobs.
        max_batch_size: Requests served together (padded to the batch
            maximum, like static batching).
        chunk_tokens: Per-step token budget for chunked target prefill;
            0 keeps whole-batch prefills (bit-identical legacy schedule).
    """

    draft: ModelConfig
    config: SpeculativeConfig = field(default_factory=SpeculativeConfig)
    max_batch_size: int = 8
    chunk_tokens: int = 0

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ConfigurationError("max_batch_size must be positive")
        if self.chunk_tokens < 0:
            raise ConfigurationError(
                "chunk_tokens must be non-negative (0 disables chunking)")


def speculative_serving_process(runtime: ServingRuntime,
                                session: EngineSession,
                                policy: SpeculativeServingPolicy) -> Process:
    """One replica's speculative-decoding server, as a sim process.

    FIFO batching: the replica claims the oldest waiting requests up to
    ``max_batch_size``, runs the target prefill, then per-round draft decode
    steps and verification passes until the padded batch maximum output is
    generated (mirroring :func:`speculative_generation_ns`'s timeline).
    Requests finish at their own expected round count, not the batch
    maximum's.
    """
    queue = session.queue
    latency = runtime.latency
    target = runtime.model
    recorder = runtime.recorder
    config = policy.config
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
        prompt_len = max(r.prompt_len for r in batch)
        output_tokens = max(r.output_tokens for r in batch)
        mid_context = prompt_len + output_tokens // 2
        prefill = latency.ttft_ns(target, batch_size, prompt_len)
        draft_step = latency.decode_step_ns(policy.draft, batch_size,
                                            mid_context)
        verify = latency.ttft_ns(target, batch_size, config.draft_tokens)
        per_round = config.draft_tokens * draft_step + verify
        expected = config.expected_tokens_per_round
        rounds = output_tokens / expected

        waiting = queue.depth(launch) if recorder is not None else 0
        if recorder is not None:
            for request in batch:
                recorder.on_admitted(request.request_id, request.arrival_ns,
                                     launch)
        clock = launch
        # Planner-decomposed target prefill: one whole-prompt chunk when
        # chunking is off (the legacy step), budget-sized chunks otherwise.
        offset = 0.0
        for chunk in planner.prefill_plan(batch[0].request_id, prompt_len):
            chunk_ns = (prefill if chunk.is_whole
                        else StepPlanner.chunk_cost_ns(latency, target,
                                                       batch_size, chunk))
            session.execute(chunk.kind, clock, chunk_ns, batch_size,
                            queue_depth=waiting,
                            shape=EngineShape(target.name, batch_size,
                                              prompt_len)
                            if recorder is not None and chunk.is_whole
                            else None,
                            schedule_label=chunk.schedule_label)
            clock += chunk_ns
            offset += chunk_ns
        first_token_ns = clock
        draft_shape = verify_shape = None
        if recorder is not None:
            draft_shape = EngineShape(policy.draft.name, batch_size, 1,
                                      phase="decode", context_len=mid_context)
            verify_shape = EngineShape(target.name, batch_size,
                                       config.draft_tokens)
        for _ in range(math.floor(rounds)):
            for _ in range(config.draft_tokens):
                session.execute(StepKind.DRAFT, clock, draft_step, batch_size,
                                queue_depth=waiting, shape=draft_shape)
                clock += draft_step
            session.execute(StepKind.VERIFY, clock, verify, batch_size,
                            queue_depth=waiting, shape=verify_shape)
            clock += verify
        remainder = rounds - math.floor(rounds)
        if remainder > 1e-9:
            tail_draft = remainder * config.draft_tokens * draft_step
            session.execute(StepKind.DRAFT, clock, tail_draft, batch_size,
                            queue_depth=waiting)
            clock += tail_draft
            session.execute(StepKind.VERIFY, clock, remainder * verify,
                            batch_size, queue_depth=waiting)
            clock += remainder * verify

        for request in batch:
            queued = queue_delay_ns(request, launch)
            own_rounds = request.output_tokens / expected
            completion = queued + offset + own_rounds * per_round
            if recorder is not None:
                recorder.on_first_token(request.request_id, first_token_ns)
                recorder.on_completed(request.request_id,
                                      request.arrival_ns + completion)
            runtime.complete(request,
                             ttft_ns=queued + offset,
                             completion_ns=completion,
                             batch_size=batch_size,
                             service_start_ns=launch, session=session)
        free = clock
