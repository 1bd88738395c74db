"""Exact outcome locks for one routed and one flat multi-replica run.

Each test hashes every outcome's ``(request_id, ttft_ns, completion_ns,
queue_ns, replica)`` in completion order, with floats in ``repr`` form, and
compares the sha256 against a digest recorded before the routed and the
flat runtime were merged into one. A refactor of the serving runtime must
leave both digests unchanged: any drift in placement, step timing, claim
order or completion bookkeeping shows up here.
"""

import hashlib

from repro.hardware import get_platform
from repro.host import HostConfig, HostModel
from repro.kvcache import KvCacheConfig, KvPolicy
from repro.serving.continuous import ContinuousBatchPolicy
from repro.serving.latency import LatencyModel
from repro.serving.runtime import simulate_serving
from repro.workloads import GPT2

from tests.scenarios import (
    CHUNK_TOKENS,
    MAX_ACTIVE,
    POOL_GIB,
    cluster_run,
    pressure_stream,
)

ROUTED_DIGEST = (
    "148ca44005a98cffc6994415ded7b21ad78b5c0b8ff4405060584a2302fd3e70")
FLAT_DIGEST = (
    "be472a88982c1830dd9c3ef6a4b986c18f64bdc3b7c0bbb07fac127b0d861dc2")


def _digest(result):
    rows = [(o.request.request_id, o.ttft_ns, o.completion_ns, o.queue_ns,
             o.replica) for o in result.outcomes]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_routed_cluster_outcomes_locked():
    requests, result = cluster_run(get_platform("GH200"))
    assert len(result.outcomes) == len(requests)
    assert _digest(result) == ROUTED_DIGEST


def test_flat_kv_chunked_host_outcomes_locked():
    platform = get_platform("AMD+A100")
    requests = pressure_stream()
    result = simulate_serving(
        requests, GPT2, LatencyModel(platform=platform),
        policy=ContinuousBatchPolicy(max_active=MAX_ACTIVE,
                                     chunk_tokens=CHUNK_TOKENS),
        replicas=4,
        kv=KvCacheConfig(policy=KvPolicy.OFFLOAD, pool_gib=POOL_GIB),
        host=HostModel.for_platform(platform, replicas=4,
                                    config=HostConfig(cores=4)))
    assert len(result.outcomes) == len(requests)
    assert result.kv and any(kv.swap_out_events for kv in result.kv)
    assert result.host is not None and result.host.grants > 0
    assert _digest(result) == FLAT_DIGEST
