"""What the benchmark reports: workloads, seeds, metric names and units.

Imports nothing from ``repro``, so the command line can validate its
arguments and the tests can compare these tables with ``BENCHMARK.json``
before any simulator code loads.
"""

from __future__ import annotations

#: Workload name -> (default seed, why that seed).
DEFAULT_SEEDS: dict[str, tuple[int, str]] = {
    "paper_sweep": (1, "the grid is the paper's; the seed only shuffles op "
                       "order, so every seed models the same results"),
    "serve_steady": (1, "first seed tried; p99 queue ~0.1 s and the run "
                        "drains ~0.4 s after its last arrival"),
    "serve_overload": (1, "first seed tried; the backlog takes ~3x the "
                          "arrival window to drain, with swaps and stalls"),
}
WORKLOADS = tuple(DEFAULT_SEEDS)

#: A second seed, not used while the workloads were sized. It must pass
#: every check and keep each workload in its regime.
HELD_OUT_SEED = 7


#: Setup is measured in this many extra processes besides the measuring one.
SETUP_PROBES = 4

#: Median seconds of one ``worker.HostSpeed`` reference loop on the 2-core
#: x86 box the benchmark was tuned on. Host times are reported as if the
#: host ran the reference loop in exactly this time.
NOMINAL_REFERENCE_S = 0.025
#: Log-log slope of pass time against reference-loop time on that box,
#: fitted per workload and pass kind over ten-seed runs of each workload
#: while the host's speed drifted by up to 2x (slopes 0.6-1.0; this is
#: their median).
HOST_ELASTICITY = 0.75

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cold_ns_per_token": "ns/token",
    "warm_ns_per_token": "ns/token",
}

#: Per-pass layer metrics. Every ``_s`` metric is a self time: the span's
#: duration minus the part its child spans cover.
LAYER_UNITS = {
    "pass_s": "s",
    "engine.run_calls": "count",
    "engine.run_s": "s",
    "engine.lowering_hits": "count",
    "engine.lowering_misses": "count",
    "engine.lowering_hit_ratio": "ratio",
    "skip.depgraph_s": "s",
    "skip.metrics_s": "s",
    "skip.fusion_s": "s",
    "skip.classify_s": "s",
    "pricing.calls": "count",
    "pricing.misses": "count",
    "pricing.hit_ratio": "ratio",
    "pricing.miss_s": "s",
    "pricing.hit_s": "s",
    "admission.depth_calls": "count",
    "admission.depth_s": "s",
    "admission.claim_s": "s",
    "admission.depth_max": "count",
    "admission.depth_mean": "count",
    "router.routed": "count",
    "router.push_s": "s",
    "router.depth_s": "s",
    "router.claim_s": "s",
    "planner.plan_calls": "count",
    "planner.chunks": "count",
    "planner.s": "s",
    "kv.calls": "count",
    "kv.s": "s",
    "kv.prefix_hit_ratio": "ratio",
    "kv.swap_outs": "count",
    "kv.swap_ins": "count",
    "kv.preemptions": "count",
    "kv.prefix_evictions": "count",
    "host.dispatch_calls": "count",
    "host.dispatch_s": "s",
    "host.grants": "count",
    "host.remote_grant_ratio": "ratio",
    "host.stall_ms_sim": "ms",
    "recorder.calls": "count",
    "recorder.s": "s",
    "session.execute_calls": "count",
    "session.execute_self_s": "s",
    "runtime.self_s": "s",
    "sim.events": "count",
}

#: Layer metrics also reported for the cold pass, as ``cold.<name>``: the
#: ones an empty pricing memo or lowering cache changes.
COLD_LAYERS = (
    "pass_s", "engine.run_calls", "engine.run_s", "engine.lowering_hits",
    "engine.lowering_misses", "engine.lowering_hit_ratio", "skip.depgraph_s",
    "skip.metrics_s", "skip.fusion_s", "skip.classify_s", "pricing.calls",
    "pricing.misses", "pricing.hit_ratio", "pricing.miss_s", "pricing.hit_s",
    "runtime.self_s", "sim.events")

TRANSITION_PLATFORMS = ("amd_a100", "intel_h100", "gh200")
TRANSITION_MODELS = ("bert-base-uncased", "gpt2", "llama-3.2-1b", "gemma-2b")

#: Exact modelled statistics: printed so a change can show the simulated
#: results did not move, never gated (deliberate model fixes move them).
SIM_UNITS = {
    "sim.steps": "count",
    "sim.ttft_p99_ms": "ms",
    "sim.queue_p99_ms": "ms",
    "sim.makespan_s": "s",
    "sim.drain_s": "s",
    "sim.swaps": "count",
    "sim.host_stall_ms": "ms",
    "sim.outcome_digest": "hash",
    **{f"sim.transition.{p}.{m}": "batch"
       for p in TRANSITION_PLATFORMS for m in TRANSITION_MODELS},
}

PER_LAYER_UNITS = {
    **LAYER_UNITS,
    **{f"cold.{name}": LAYER_UNITS[name] for name in COLD_LAYERS},
    **SIM_UNITS,
    "trace.overhead_ratio": "ratio",
}
