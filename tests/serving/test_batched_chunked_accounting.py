"""Chunked-prefill accounting on the padded-batch serving path.

With ``chunk_tokens > 0`` a batch prefill runs as budget-sized chunks, each
priced at its marginal prefill cost floored at one kernel launch. On a
launch-bound engine (GH200, two pipeline stages, llama-3.2-1b, batch 1,
64-token chunks) the chunks sum to more than the whole-prompt ``ttft_ns``,
so the batched path must take both its first-token stamp and the replica's
free time from the executed chunk span, not from the whole-prompt price:

* no recorded step on a replica starts before the previous one ends
  (within 1e-6 ns, rule T007's kernel-overlap tolerance);
* each outcome's ``ttft_ns`` is its recorded first-token time minus its
  arrival, and that time is at or after the end of its last prefill chunk.
"""

import re

import pytest

from repro.engine import PPConfig
from repro.hardware import get_platform
from repro.obs.events import StepKind
from repro.obs.recorder import RunRecorder
from repro.serving.latency import LatencyModel
from repro.serving.rag import RagServingPolicy
from repro.serving.requests import poisson_requests
from repro.serving.runtime import simulate_serving
from repro.serving.scheduler import (
    ClassifiedRequest,
    PriorityPolicy,
    RequestClass,
)
from repro.workloads import LLAMA_3_2_1B

#: Rule T007's overlap tolerance.
TOLERANCE_NS = 1e-6
CHUNK_TOKENS = 64
PREFILL_KINDS = (StepKind.PREFILL, StepKind.PREFILL_CHUNK)
_CHUNK_LABEL = re.compile(r"\[r\d+:(\d+)\+(\d+)/(\d+)\]")


def _requests():
    return poisson_requests(rate_per_s=200, duration_s=0.05, prompt_len=512,
                            output_tokens=8, seed=5)


def _priority():
    workload = [ClassifiedRequest(request=r,
                                  request_class=(RequestClass.INTERACTIVE
                                                 if i % 2 == 0
                                                 else RequestClass.BULK))
                for i, r in enumerate(_requests())]
    return workload, PriorityPolicy(interactive_batch=1, bulk_batch=1,
                                    chunk_tokens=CHUNK_TOKENS)


def _rag():
    return _requests(), RagServingPolicy(retrieval_ns=1e5,
                                         chunk_tokens=CHUNK_TOKENS)


def _serve(case):
    workload, policy = case()
    recorder = RunRecorder()
    result = simulate_serving(
        workload, LLAMA_3_2_1B,
        LatencyModel(platform=get_platform("GH200"), pp=PPConfig(stages=2)),
        policy=policy, replicas=2, recorder=recorder)
    return result, recorder


def _replica_steps(result, recorder):
    """Per replica: its recorded steps paired with their schedule labels.

    A session appends one kernel entry to every shard's schedule per step,
    in issue order, so shard 0's kernel entries zip with the replica's
    recorded steps.
    """
    paired = {}
    for session in result.sessions:
        first_device = min(session.schedule_items)
        names = [entry[1] for entry in session.schedule_items[first_device]
                 if entry[0] == "kernel"]
        steps = [s for s in recorder.steps if s.replica == session.replica]
        assert len(names) == len(steps)
        paired[session.replica] = list(zip(steps, names))
    return paired


def _is_last_prefill_chunk(step, name):
    if step.kind is StepKind.PREFILL:
        return True
    if step.kind is not StepKind.PREFILL_CHUNK:
        return False
    start, length, total = map(int, _CHUNK_LABEL.search(name).groups())
    return start + length == total


@pytest.mark.parametrize("case", [_priority, _rag], ids=["priority", "rag"])
def test_chunked_batches_never_overlap_on_a_replica(case):
    result, recorder = _serve(case)
    assert any(s.kind is StepKind.PREFILL_CHUNK for s in recorder.steps)
    for steps in _replica_steps(result, recorder).values():
        for (earlier, _), (later, _) in zip(steps, steps[1:]):
            assert later.ts_ns >= earlier.ts_end_ns - TOLERANCE_NS, (
                f"{later.kind.value} at {later.ts_ns} starts before "
                f"{earlier.kind.value} ends at {earlier.ts_end_ns}")


@pytest.mark.parametrize("case", [_priority, _rag], ids=["priority", "rag"])
def test_chunked_ttft_is_the_end_of_the_last_prefill_chunk(case):
    result, recorder = _serve(case)
    paired = _replica_steps(result, recorder)
    for outcome in result.outcomes:
        request = outcome.request
        span = recorder.spans[request.request_id]
        assert outcome.ttft_ns == pytest.approx(
            span.first_token_ns - request.arrival_ns, abs=TOLERANCE_NS)
        admitted = request.arrival_ns + outcome.queue_ns
        last_chunk = next(
            step for step, name in paired[outcome.replica]
            if step.ts_ns >= admitted - TOLERANCE_NS
            and _is_last_prefill_chunk(step, name))
        assert span.first_token_ns >= last_chunk.ts_end_ns - TOLERANCE_NS
