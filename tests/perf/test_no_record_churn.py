"""Allocation-churn regression locks for unrecorded runs.

The churn audit found two classes of waste on runs nobody observes:

* serving policies built :class:`~repro.obs.events.EngineShape` objects for
  every step even with ``recorder=None``, where they were dropped unread;
* metrics-only engine runs built a full :class:`~repro.trace.trace.Trace`
  (every event drawing a global event id) when only the aggregate numbers
  were wanted — the tape fast path records plain tuples instead.

These tests pin both behaviors: a no-record serving run must construct
zero ``EngineShape`` objects, and a tape-mode engine run must draw zero
global trace event ids. The global id counter in ``repro.trace.events`` is
the allocation probe: every trace event constructed anywhere in the
process advances it exactly once.
"""

from repro.engine.executor import run
from repro.hardware import get_platform
from repro.kvcache import KvPolicy
from repro.serving import (
    ContinuousBatchPolicy,
    LatencyModel,
    poisson_requests,
    simulate_serving,
)
from repro.trace import events as trace_events
from repro.workloads import get_model

INTEL_H100 = get_platform("Intel+H100")
GPT2 = get_model("gpt2")


def _event_ids_drawn(fn) -> int:
    """Global trace-event ids drawn while ``fn`` runs (probe draws excluded)."""
    before = next(trace_events._event_ids)
    fn()
    after = next(trace_events._event_ids)
    return after - before - 1


def test_unrecorded_serving_run_allocates_no_trace_events():
    requests = poisson_requests(rate_per_s=60, duration_s=0.1, prompt_len=64,
                                output_tokens=4, seed=5)
    drawn = _event_ids_drawn(lambda: simulate_serving(
        requests, GPT2, LatencyModel(INTEL_H100),
        policy=ContinuousBatchPolicy(max_active=4)))
    assert drawn == 0


def test_tape_mode_engine_run_allocates_no_trace_events():
    drawn = _event_ids_drawn(lambda: run(
        GPT2, INTEL_H100, batch_size=2, seq_len=128, tape=True))
    assert drawn == 0


def test_unrecorded_policies_build_no_engine_shapes(monkeypatch):
    from repro.obs import events as obs_events

    built = []
    real_shape = obs_events.EngineShape

    def counting_shape(*args, **kwargs):
        built.append(args)
        return real_shape(*args, **kwargs)

    # The modules that build step shapes import the symbol into their own
    # namespaces; patch each one (the other batched policies build theirs
    # through repro.serving.batcher).
    for module in ("repro.serving.continuous", "repro.serving.batcher",
                   "repro.serving.speculative", "repro.serving.pipeline"):
        monkeypatch.setattr(f"{module}.EngineShape", counting_shape)

    from repro.kvcache import KvCacheConfig
    from repro.serving import (
        ClassifiedRequest,
        PipelineServingPolicy,
        PipelineStage,
        PriorityPolicy,
        RagServingPolicy,
        RequestClass,
        SpeculativeServingPolicy,
        StaticBatchPolicy,
    )

    requests = poisson_requests(rate_per_s=40, duration_s=0.1, prompt_len=512,
                                output_tokens=32, seed=7)
    simulate_serving(requests, GPT2, LatencyModel(INTEL_H100),
                     policy=ContinuousBatchPolicy(max_active=4))
    simulate_serving(requests, GPT2,
                     LatencyModel(get_platform("GH200")),
                     policy=ContinuousBatchPolicy(max_active=4),
                     kv=KvCacheConfig(policy=KvPolicy.OFFLOAD, pool_gib=0.04))
    latency = LatencyModel(INTEL_H100)
    classified = [ClassifiedRequest(request=r,
                                    request_class=(RequestClass.INTERACTIVE
                                                   if i % 2 == 0
                                                   else RequestClass.BULK))
                  for i, r in enumerate(requests)]
    stages = (PipelineStage("plan", GPT2, prompt_len=32, output_tokens=8),
              PipelineStage("answer", GPT2, prompt_len=16, output_tokens=4))
    for workload, policy in (
            (requests, StaticBatchPolicy(max_batch_size=4)),
            (classified, PriorityPolicy(bulk_batch=4)),
            (classified, PriorityPolicy(bulk_batch=4, chunk_tokens=128)),
            (requests, PipelineServingPolicy(stages=stages)),
            (requests, RagServingPolicy(retrieval_ns=1e5)),
            (requests, SpeculativeServingPolicy(draft=GPT2))):
        simulate_serving(workload, GPT2, latency, policy=policy)
    assert built == []
