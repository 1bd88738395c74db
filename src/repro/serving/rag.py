"""RAG pipeline: retrieval + generation TTFT (Section II-A).

The paper's RAG motivation: the final generation phase can be batched for
throughput, but batching inflates each user's time-to-first-token. This
module composes the real vector-index substrate (``repro.retrieval``) with
the engine-backed generation latency so the trade-off is measurable.

Retrieval executes for real (NumPy); its measured wall time is converted to
nanoseconds and added to the simulated generation latency.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.events import StepKind
from repro.retrieval.index import BruteForceIndex, IVFIndex
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
class RagLatency:
    """Latency breakdown for one RAG query batch."""

    retrieval_ns: float
    ttft_ns: float          # generation prefill only
    generation_ns: float    # prefill + decode
    batch_size: int
    context_tokens: int

    @property
    def user_ttft_ns(self) -> float:
        """What the user perceives: retrieval plus generation TTFT."""
        return self.retrieval_ns + self.ttft_ns

    @property
    def total_ns(self) -> float:
        return self.retrieval_ns + self.generation_ns


class RagPipeline:
    """Retrieve top-k context chunks, then generate an answer."""

    def __init__(
        self,
        index: BruteForceIndex | IVFIndex,
        model: ModelConfig,
        latency: LatencyModel,
        tokens_per_chunk: int = 128,
        top_k: int = 4,
    ) -> None:
        if tokens_per_chunk <= 0 or top_k <= 0:
            raise ConfigurationError("tokens_per_chunk and top_k must be positive")
        self.index = index
        self.model = model
        self.latency = latency
        self.tokens_per_chunk = tokens_per_chunk
        self.top_k = top_k

    def query(
        self,
        embeddings: np.ndarray,
        question_tokens: int = 64,
        output_tokens: int = 128,
        batch_size: int | None = None,
    ) -> RagLatency:
        """Answer a batch of queries.

        Args:
            embeddings: Query embedding(s), shape (dim,) or (batch, dim).
            question_tokens: Prompt tokens besides retrieved context.
            output_tokens: Tokens to generate.
            batch_size: Generation batch size (defaults to the number of
                query embeddings).
        """
        queries = np.atleast_2d(np.asarray(embeddings, dtype=np.float32))
        effective_batch = len(queries) if batch_size is None else batch_size
        if effective_batch <= 0:
            raise ConfigurationError("batch_size must be positive")

        start = time.perf_counter()
        for query in queries:
            self.index.search(query, k=self.top_k)
        retrieval_ns = (time.perf_counter() - start) * 1e9

        context_tokens = self.top_k * self.tokens_per_chunk
        prompt_len = question_tokens + context_tokens
        ttft = self.latency.ttft_ns(self.model, effective_batch, prompt_len)
        total = self.latency.generation_ns(self.model, effective_batch,
                                           prompt_len, output_tokens)
        return RagLatency(
            retrieval_ns=retrieval_ns,
            ttft_ns=ttft,
            generation_ns=total,
            batch_size=effective_batch,
            context_tokens=context_tokens,
        )


def measured_retrieval_ns(
    index: BruteForceIndex | IVFIndex,
    embeddings: np.ndarray,
    top_k: int = 4,
) -> float:
    """Measure one batch of real top-k searches; returns mean ns per query.

    Bridges the real retrieval substrate into the simulated serving world:
    the measured per-query cost parameterizes
    :class:`RagServingPolicy.retrieval_ns`, so the sim replays a retrieval
    latency that was actually observed on this machine.
    """
    if top_k <= 0:
        raise ConfigurationError("top_k must be positive")
    queries = np.atleast_2d(np.asarray(embeddings, dtype=np.float32))
    start = time.perf_counter()
    for query in queries:
        index.search(query, k=top_k)
    return (time.perf_counter() - start) * 1e9 / len(queries)


@dataclass(frozen=True)
class RagServingPolicy:
    """Serve an arrival stream where every request is a RAG query.

    Attributes:
        retrieval_ns: Per-batch retrieval cost on the serving timeline
            (measure it with :func:`measured_retrieval_ns`).
        tokens_per_chunk / top_k: Context injected into the generation
            prompt, as in :class:`RagPipeline`.
        max_batch_size: Queries batched per generation run.
        chunk_tokens: Per-step token budget for chunked prefill over the
            context-augmented prompt; 0 keeps whole-batch prefills
            (bit-identical legacy schedule).
    """

    retrieval_ns: float
    tokens_per_chunk: int = 128
    top_k: int = 4
    max_batch_size: int = 8
    chunk_tokens: int = 0

    def __post_init__(self) -> None:
        if self.retrieval_ns < 0:
            raise ConfigurationError("retrieval_ns must be non-negative")
        if self.tokens_per_chunk <= 0 or self.top_k <= 0:
            raise ConfigurationError(
                "tokens_per_chunk and top_k must be positive")
        if self.max_batch_size <= 0:
            raise ConfigurationError("max_batch_size must be positive")
        if self.chunk_tokens < 0:
            raise ConfigurationError(
                "chunk_tokens must be non-negative (0 disables chunking)")


def rag_serving_process(runtime: ServingRuntime, session: EngineSession,
                        policy: RagServingPolicy) -> Process:
    """One replica's RAG server, as a sim process.

    FIFO batching: each claimed batch pays one retrieval step, then a
    prefill over the context-augmented prompt and the closed-form decode
    tail. The user-perceived TTFT includes the retrieval — the paper's
    batching-versus-TTFT trade-off with the retrieval floor added.

    Modeling note: the retrieval step is recorded as device work like every
    other step (one covering kernel on the replica's streams). That keeps
    the exported trace's device timeline gap-free; see ``docs/serving.md``.
    """
    context_tokens = policy.top_k * policy.tokens_per_chunk
    planner = StepPlanner(PlannerConfig(chunk_tokens=policy.chunk_tokens))

    def serve(batch: list[Request], launch: float) -> float:
        waiting = admit_batch(runtime, session, batch, launch)
        if policy.retrieval_ns > 0:
            session.execute(StepKind.RETRIEVAL, launch, policy.retrieval_ns,
                            len(batch), queue_depth=waiting)
        # Prefill over the context-augmented prompt, after the retrieval.
        clock = launch + policy.retrieval_ns
        first, end = padded_generation(
            runtime, session, planner, runtime.model, batch,
            max(r.prompt_len for r in batch) + context_tokens,
            max(r.output_tokens for r in batch), clock, waiting)
        complete_batch(runtime, session, batch, launch, first,
                       [end] * len(batch), lead_ns=policy.retrieval_ns)
        return clock + end

    return fifo_batch_process(session, policy.max_batch_size, serve)
