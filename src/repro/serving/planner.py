"""Token-budget step planner: chunked prefill and hybrid batch composition.

Sarathi-serve's observation (ROADMAP open item 1): a serving loop that runs
*whole* prefills stalls every in-flight decode whenever a long prompt
arrives — the scheduling tax that dominates tail time-between-tokens under
mixed long-prompt traffic. The fix is a token budget: each engine step may
process at most ``max_num_batched_tokens`` tokens, decodes take priority
(one token per running sequence), and the remaining budget is filled with
prompt *chunks*; a prompt larger than the leftover budget carries its
remainder as sequence state into the next step.

This module is the planning layer every serving policy consumes:

* :class:`PlannerConfig` — the budget knob. ``chunk_tokens == 0`` disables
  chunking entirely: plans degenerate to one whole-prompt chunk, policies
  perform exactly the float operations they performed before the planner
  existed, and the parity suites hold them to bit-identical outcomes.
* :class:`PromptChunk` / :class:`StepPlan` — what the planner emits. Chunks
  carry their ``(start, length, total)`` coordinates so the schedule
  checker (rule S007, :mod:`repro.check.schedule`) can statically verify
  that a chunked prefill never interleaves out of order with its own
  decodes.
* :class:`StepPlanner` — the planner itself: prompt-progress state for
  chunked admissions, decode-priority hybrid step composition, the shared
  FIFO batch-claim decision (run by
  :func:`repro.serving.batcher.fifo_batch_process`), and the
  marginal-prefill chunk cost model.

Chunk cost model: chunk ``i`` covering ``[start, start+length)`` costs
``ttft_ns(bs, start+length) - ttft_ns(bs, start)`` — the *marginal* prefill
cost of extending the processed prefix. The chunk costs of one prompt
telescope to (within float rounding) the unchunked ``ttft_ns(bs, total)``,
and a single whole-prompt chunk is the *identical* ``ttft_ns`` call the
unplanned policies made, which is what makes the ``chunk_tokens=0`` parity
lock possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Sequence

from repro.errors import ConfigurationError, SimulationError
from repro.obs.events import StepKind
from repro.serving.requests import Request

if TYPE_CHECKING:
    from repro.serving.latency import LatencyModel
    from repro.serving.runtime import AdmissionQueue
    from repro.workloads.config import ModelConfig


@dataclass(frozen=True)
class PlannerConfig:
    """Step-planner knobs.

    Attributes:
        chunk_tokens: The per-step token budget (sarathi-serve's
            ``max_num_batched_tokens``). ``0`` disables chunking: prompts
            prefill whole, reproducing the pre-planner serving traces
            bit-identically.
    """

    chunk_tokens: int = 0

    def __post_init__(self) -> None:
        if self.chunk_tokens < 0:
            raise ConfigurationError(
                "chunk_tokens must be non-negative (0 disables chunking)")

    @property
    def enabled(self) -> bool:
        return self.chunk_tokens > 0

    @property
    def max_num_batched_tokens(self) -> int:
        """Alias for the budget under its sarathi-serve name."""
        return self.chunk_tokens


@dataclass(frozen=True)
class PromptChunk:
    """One planned slice of a prompt's prefill.

    ``request_id`` identifies the owning request (for batched prefills, the
    batch's seed request); ``start``/``length``/``total`` locate the slice
    in the prompt. A whole-prompt chunk (``start == 0 and length == total``)
    is indistinguishable from an unchunked prefill.
    """

    request_id: int
    start: int
    length: int
    total: int

    def __post_init__(self) -> None:
        if self.length <= 0 or self.total <= 0:
            raise ConfigurationError("chunk lengths must be positive")
        if self.start < 0 or self.start + self.length > self.total:
            raise ConfigurationError(
                f"chunk [{self.start}, {self.start + self.length}) falls "
                f"outside a {self.total}-token prompt")

    @property
    def is_first(self) -> bool:
        return self.start == 0

    @property
    def is_last(self) -> bool:
        return self.start + self.length == self.total

    @property
    def is_whole(self) -> bool:
        return self.is_first and self.is_last

    @property
    def kind(self) -> StepKind:
        """Whole chunks record as plain prefills (the legacy step kind)."""
        return (StepKind.PREFILL if self.is_whole
                else StepKind.PREFILL_CHUNK)

    @property
    def schedule_label(self) -> str | None:
        """Checkable kernel name for partial chunks (None = default name).

        The coordinates ride the per-device schedule so rule S007 can
        verify chunk contiguity and chunk/decode ordering statically.
        """
        if self.is_whole:
            return None
        return (f"serving::prefill_chunk[r{self.request_id}:"
                f"{self.start}+{self.length}/{self.total}]")


@dataclass
class PromptProgress:
    """A claimed request whose prompt is still being prefilled in chunks."""

    request: Request
    admitted_ns: float
    done: int = 0

    @property
    def remaining(self) -> int:
        return self.request.prompt_len - self.done


@dataclass(frozen=True)
class StepPlan:
    """One hybrid engine step: decode tokens plus prompt chunks."""

    decode_tokens: int
    chunks: tuple[PromptChunk, ...]

    @property
    def total_tokens(self) -> int:
        return self.decode_tokens + sum(c.length for c in self.chunks)


@dataclass(frozen=True)
class BatchDecision:
    """The FIFO batch-claim decision shared by the batched policies.

    Exactly one of three shapes: ``done`` (no unclaimed work remains),
    an empty ``batch`` with ``wake_at`` set (the oldest unclaimed request
    has not arrived yet — sleep until it does), or a non-empty ``batch``
    with ``seed_arrival`` set (serve it now).
    """

    batch: tuple[Request, ...] = ()
    seed_arrival: float = 0.0
    wake_at: float | None = None
    done: bool = False


def chunk_plan(request_id: int, prompt_len: int,
               budget: int) -> tuple[PromptChunk, ...]:
    """Split one prompt into budget-sized chunks (pure).

    ``budget <= 0`` means unbounded: one whole-prompt chunk. Chunk lengths
    always sum to exactly ``prompt_len`` and no chunk exceeds the budget.
    """
    if prompt_len <= 0:
        raise ConfigurationError("prompt_len must be positive")
    if budget <= 0:
        return (PromptChunk(request_id, 0, prompt_len, prompt_len),)
    chunks = []
    start = 0
    while start < prompt_len:
        length = min(budget, prompt_len - start)
        chunks.append(PromptChunk(request_id, start, length, prompt_len))
        start += length
    return tuple(chunks)


def decode_schedule_label(joined_ids: Sequence[int]) -> str | None:
    """Checkable decode-kernel name marking newly joined sequences.

    A sequence's *first* decode step after its final prompt chunk carries a
    ``+r<id>`` marker, which is what lets rule S007 place each request's
    decode phase relative to its chunk stream without tagging every decode
    with the whole batch. ``None`` keeps the default ``serving::decode``.
    """
    if not joined_ids:
        return None
    inner = ",".join(f"+r{rid}" for rid in joined_ids)
    return f"serving::decode[{inner}]"


class StepPlanner:
    """Decode-priority hybrid step planning over a token budget.

    The planner owns the chunked-admission state (claimed requests whose
    prompts are mid-prefill) and composes each engine step: every running
    sequence gets its decode token first, then the leftover budget fills
    with prompt chunks in FIFO admission order. Policies execute the plans;
    the planner never touches the clock, the session, or the recorder.
    """

    def __init__(self, config: PlannerConfig,
                 max_active: int | None = None) -> None:
        if (config.enabled and max_active is not None
                and config.chunk_tokens < max_active):
            raise ConfigurationError(
                f"chunk_tokens ({config.chunk_tokens}) must cover one decode "
                f"token per active sequence (max_active={max_active}); "
                f"raise the budget or lower max_active")
        self.config = config
        self.pending: list[PromptProgress] = []

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    @property
    def has_pending(self) -> bool:
        return bool(self.pending)

    # -- chunked admission ---------------------------------------------
    def admit(self, batch: Sequence[Request], now: float) -> None:
        """Queue claimed requests for chunked prefill (enabled mode only)."""
        if not self.enabled:
            raise SimulationError(
                "chunked admission requires chunk_tokens > 0; whole-prompt "
                "policies use prefill_plan instead")
        for request in batch:
            self.pending.append(PromptProgress(request=request,
                                               admitted_ns=now))

    def plan_step(self, decode_count: int) -> StepPlan:
        """Compose the next hybrid step and commit its chunk progress.

        ``decode_count`` running sequences consume one budget token each;
        the remainder fills with prompt chunks FIFO. The emitted step never
        exceeds ``max_num_batched_tokens`` — the budget-conservation
        property the hypothesis suite locks.
        """
        if decode_count < 0:
            raise SimulationError("decode_count must be non-negative")
        if not self.enabled:
            return StepPlan(decode_tokens=decode_count, chunks=())
        budget = self.config.chunk_tokens - decode_count
        if budget < 0:
            raise SimulationError(
                f"{decode_count} decode tokens exceed the "
                f"{self.config.chunk_tokens}-token step budget")
        chunks: list[PromptChunk] = []
        while self.pending and budget > 0:
            prompt = self.pending[0]
            length = min(prompt.remaining, budget)
            chunks.append(PromptChunk(prompt.request.request_id,
                                      prompt.done, length,
                                      prompt.request.prompt_len))
            prompt.done += length
            budget -= length
            if prompt.remaining == 0:
                self.pending.pop(0)
        return StepPlan(decode_tokens=decode_count, chunks=tuple(chunks))

    # -- whole-batch prefill plans (batched policies) ------------------
    def prefill_plan(self, request_id: int,
                     prompt_len: int) -> tuple[PromptChunk, ...]:
        """The chunk sequence for one batch prefill of ``prompt_len``.

        Disabled mode returns a single whole-prompt chunk, so consuming
        policies execute exactly one step with exactly the legacy cost.
        """
        return chunk_plan(request_id, prompt_len, self.config.chunk_tokens)

    # -- costs ---------------------------------------------------------
    @staticmethod
    def chunk_cost_ns(latency: LatencyModel, model: ModelConfig,
                      batch_size: int, chunk: PromptChunk) -> float:
        """Marginal prefill cost of one chunk (see module docstring).

        A whole-prompt chunk is priced by the identical single
        ``ttft_ns`` call the pre-planner policies made — the bit-parity
        anchor for ``chunk_tokens=0``. Partial-chunk marginals floor at
        the platform's kernel-launch path cost: launch-bound
        configurations (notably pipeline-parallel engines, whose stage
        split re-balances per shape) can price a longer prefix *cheaper*
        than a shorter one, and a chunk step at minimum still dispatches
        one kernel.
        """
        end = latency.ttft_ns(model, batch_size, chunk.start + chunk.length)
        if chunk.is_first:
            return end
        floor = (latency.platform.launch_call_cpu_ns
                 + latency.platform.launch_latency_ns)
        return max(floor,
                   end - latency.ttft_ns(model, batch_size, chunk.start))

    @staticmethod
    def chunk_cpu_ns(latency: LatencyModel, model: ModelConfig,
                     batch_size: int, chunk: PromptChunk) -> float:
        """Marginal dispatch-CPU share of one chunk (host-contention runs).

        The CPU analog of :meth:`chunk_cost_ns`: a whole-prompt chunk
        books the prefill's full CPU busy time, a partial chunk the
        difference of the two prefix CPU times, floored at one launch
        call — a chunk step at minimum still dispatches one kernel.
        """
        end = latency.ttft_cpu_ns(model, batch_size,
                                  chunk.start + chunk.length)
        if chunk.is_first:
            return end
        return max(latency.platform.launch_call_cpu_ns,
                   end - latency.ttft_cpu_ns(model, batch_size, chunk.start))

    # -- shared FIFO claim decision ------------------------------------
    @staticmethod
    def next_fifo_batch(queue: AdmissionQueue, now: float, limit: int,
                        tag: Hashable = None) -> BatchDecision:
        """The oldest-first batch claim the FIFO batched policies share.

        Peek the oldest unclaimed entry, sleep until it arrives if it is
        in the future, otherwise claim it plus everything else waiting (up
        to ``limit``). :func:`repro.serving.batcher.fifo_batch_process`
        runs this decision in its claim loop for the speculative,
        pipeline and RAG policies.
        """
        seed = queue.first_unclaimed(tag)
        if seed is None:
            return BatchDecision(done=True)
        if seed.arrival_ns > now:
            return BatchDecision(wake_at=seed.arrival_ns)
        batch = queue.claim(now, limit, tag)
        return BatchDecision(batch=tuple(batch), seed_arrival=seed.arrival_ns)


@dataclass
class ChunkedSequenceState:
    """Bookkeeping a policy keeps per sequence it is decoding.

    Shared by the continuous and KV-aware policies (it is exactly their
    former private ``_Sequence`` dataclasses, hoisted next to the planner
    that now feeds them).
    """

    request: Request
    first_token_ns: float
    remaining: int
    context: int
    admitted_ns: float
    last_token_ns: float = 0.0


__all__ = [
    "BatchDecision",
    "ChunkedSequenceState",
    "PlannerConfig",
    "PromptChunk",
    "PromptProgress",
    "StepPlan",
    "StepPlanner",
    "chunk_plan",
    "decode_schedule_label",
]
