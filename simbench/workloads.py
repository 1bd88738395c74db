"""The benchmark's workloads: seeded inputs, timed passes, output checks.

A workload object is built once per process; building it is the set-up a
``repro`` user pays before the first call (imports, model and platform
lookups, traffic generation). It then runs *passes*:

* a **cold** pass starts from an empty lowering cache and, for the serve
  workloads, a fresh ``LatencyModel`` -- what a fresh process pays;
* a **warm** pass reuses the previous pass's ``LatencyModel``, as
  ``run_router_comparison`` and ``hostsweep`` do, with a fresh recorder
  and host model.

A pass is a list of ops. An op that raises or fails a check counts as
failed. Every pass of one workload object must reproduce the modelled
outcomes of its first pass bit for bit (the outcome digest).

Why these three workloads (each stresses layers the others bypass):

* ``paper_sweep`` is the paper's characterization (sections IV-V): the
  lowering, the one-iteration engine simulation, the full-trace build and
  the SKIP analysis, with no serving layer. Tape-path pricing changes do
  not reach it; engine and sim-core changes do.
* ``serve_steady`` is the routed cluster at about three quarters of
  capacity. After the cold pass the pricing memo is full, so the warm step
  loop (batching, routing, prefix reads, full recording) is the work, and
  the backlog stays shallow.
* ``serve_overload`` is the flat shared-queue runtime above capacity. The
  backlog grows for the whole run, so admission-queue scans dominate, and it
  is the only workload with KV swaps, chunked prefill and host core grants.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
from time import perf_counter
from typing import Callable

import repro.sim.core
import repro.skip
from repro.engine import ExecutionMode
from repro.engine.cache import LOWERING_CACHE
from repro.hardware import get_platform
from repro.host import HostConfig, HostModel
from repro.kvcache import KvCacheConfig, KvPolicy
from repro.obs import RunRecorder
from repro.serving import ContinuousBatchPolicy, LatencyModel, simulate_serving
from repro.serving.cluster import simulate_cluster
from repro.skip import SkipProfiler
from repro.traffic import (
    ArrivalFamily,
    ArrivalSpec,
    PrefixSpec,
    TrafficConfig,
    generate_traffic,
)
from repro.workloads import get_model

PLATFORMS = ("AMD+A100", "Intel+H100", "GH200")
#: The paper's platform split: tightly coupled GH200 versus the two loosely
#: coupled PCIe hosts.
COUPLED, LOOSE = "GH200", ("AMD+A100", "Intel+H100")
EAGER_MODELS = ("bert-base-uncased", "gpt2", "llama-3.2-1b", "gemma-2b")
BATCH_LADDER = (1, 2, 4, 8, 16, 32, 64, 128)
SEQ_LEN = 512


@dataclasses.dataclass
class PassResult:
    """One pass: timings, op accounting and the modelled statistics."""

    kind: str
    #: Host seconds inside timed calls (checks are not timed).
    wall_s: float = 0.0
    #: Simulated tokens the pass produced (the ns/token denominator).
    tokens: int = 0
    #: Host seconds per profile op (paper_sweep only).
    profile_s: list[float] = dataclasses.field(default_factory=list)
    attempted: int = 0
    #: One message per failed op.
    failures: list[str] = dataclasses.field(default_factory=list)
    #: Exact modelled statistics; the ``sim.*`` per-layer block.
    sim: dict[str, float] = dataclasses.field(default_factory=dict)
    #: Layer counts read from the run's own results and caches.
    counts: dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)


def digest_of(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def digest_number(digest: str) -> int:
    """The first 48 bits of a digest, exact in a JSON double."""
    return int(digest[:12], 16)


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Workload:
    """Shared pass bookkeeping: cache deltas, event counts, digest lock."""

    name = ""

    def __init__(self) -> None:
        self.reference_digest: str | None = None
        #: Called before each op starts (a tracer numbers spans by op).
        self.on_op: Callable[[], None] = lambda: None

    def run_pass(self, cold: bool) -> PassResult:
        if cold:
            LOWERING_CACHE.clear()
            self.reset_cold()
        stats = LOWERING_CACHE.stats
        hits, misses = stats.lowering_hits, stats.lowering_misses
        events = repro.sim.core.EVENTS_TOTAL
        result = PassResult(kind="cold" if cold else "warm")
        digest = self.execute(result)
        result.counts["engine.lowering_hits"] = stats.lowering_hits - hits
        result.counts["engine.lowering_misses"] = (
            stats.lowering_misses - misses)
        result.counts["sim.events"] = repro.sim.core.EVENTS_TOTAL - events
        if digest is not None:
            # Reproducing the first pass's outcomes is one more op.
            result.attempted += 1
            result.sim["sim.outcome_digest"] = digest_number(digest)
            if self.reference_digest is None:
                self.reference_digest = digest
            elif digest != self.reference_digest:
                result.failures.append(
                    f"{result.kind} pass outcomes differ from the first pass")
        return result

    def reset_cold(self) -> None:
        """Drop per-workload memo state before a cold pass."""

    def execute(self, result: PassResult) -> str | None:
        """Run the pass's ops into ``result``; return the outcome digest
        (None when an op raised before outcomes existed)."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# paper_sweep
# ----------------------------------------------------------------------
class PaperSweep(Workload):
    """SKIP profiles over the batch ladder on the three paper platforms."""

    name = "paper_sweep"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__()
        models = ("gpt2",) if tiny else EAGER_MODELS
        series = [(m, ExecutionMode.EAGER) for m in models]
        if not tiny:
            series.append(("llama-3.2-1b", ExecutionMode.COMPILE_REDUCE_OVERHEAD))
        self.eager_models = models
        self.profilers = {p: SkipProfiler(get_platform(p)) for p in PLATFORMS}
        self.models = {m: get_model(m) for m, _ in series}
        self.iterations = next(iter(self.profilers.values())).engine_config.iterations
        # A unit is a profile op, or the batch-1 profile followed by its
        # fusion recommendation (which needs that profile's trace).
        units: list[list[tuple]] = []
        for platform in PLATFORMS:
            for model, mode in series:
                for batch in BATCH_LADDER:
                    unit = [("profile", platform, model, mode, batch)]
                    if batch == 1:
                        unit.append(("fusion", platform, model, mode, batch))
                    units.append(unit)
        random.Random(seed).shuffle(units)
        self.ops = [op for unit in units for op in unit]

    def execute(self, result: PassResult) -> str:
        lines: list[str] = []
        tklqt: dict[tuple, dict[int, float]] = {}
        latest = None
        for kind, platform, model, mode, batch in self.ops:
            key = f"{platform}|{model}|{mode.value}|{batch}"
            result.attempted += 1
            self.on_op()
            try:
                start = perf_counter()
                if kind == "profile":
                    latest = None
                    latest = self.profilers[platform].profile(
                        self.models[model], batch_size=batch, seq_len=SEQ_LEN,
                        mode=mode)
                    bound = latest.boundedness
                    elapsed = perf_counter() - start
                    result.profile_s.append(elapsed)
                    result.wall_s += elapsed
                    metrics = latest.metrics
                    result.tokens += batch * SEQ_LEN * self.iterations
                    # A CUDA-graph replay issues no per-kernel launches,
                    # so only eager profiles must show launch+queue time.
                    tklqt_floor_ok = (metrics.tklqt_ns > 0
                                      if mode is ExecutionMode.EAGER
                                      else metrics.tklqt_ns >= 0)
                    if not (tklqt_floor_ok
                            and metrics.inference_latency_ns > 0):
                        result.failures.append(f"{key}: TKLQT "
                                               f"{metrics.tklqt_ns!r}, latency "
                                               f"{metrics.inference_latency_ns!r}")
                    tklqt.setdefault((platform, model, mode), {})[batch] = (
                        metrics.tklqt_ns)
                    lines.append(f"p|{key}|{metrics.tklqt_ns!r}|"
                                 f"{metrics.inference_latency_ns!r}|"
                                 f"{bound.value}")
                else:
                    analyses = latest.recommend_fusions()
                    result.wall_s += perf_counter() - start
                    speedups = [a.ideal_speedup for a in analyses]
                    if not speedups or min(speedups) < 1.0:
                        result.failures.append(f"{key}: no fusion speedup")
                    lines.append(f"f|{key}|{speedups!r}")
            except Exception as exc:  # an op that raises counts as failed
                result.failures.append(f"{key}: {type(exc).__name__}: {exc}")
        self._transitions(result, tklqt, lines)
        return digest_of(lines)

    def _transitions(self, result: PassResult, tklqt: dict,
                     lines: list[str]) -> None:
        """One op per eager model: the Fig. 6 transition on each platform,
        with GH200 CPU-bound up to larger batches than both PCIe hosts."""
        for model in self.eager_models:
            result.attempted += 1
            self.on_op()
            try:
                start = perf_counter()
                found = {}
                for platform in PLATFORMS:
                    series = tklqt[(platform, model, ExecutionMode.EAGER)]
                    found[platform] = repro.skip.find_transition(
                        list(BATCH_LADDER),
                        [series[b] for b in BATCH_LADDER]).batch_size
                result.wall_s += perf_counter() - start
            except Exception as exc:  # an op that raises counts as failed
                result.failures.append(
                    f"transition {model}: {type(exc).__name__}: {exc}")
                continue
            for platform, batch in found.items():
                result.sim[f"sim.transition.{platform_key(platform)}.{model}"] = (
                    batch or 0)
                lines.append(f"t|{platform}|{model}|{batch}")
            rank = {p: math.inf if b is None else b for p, b in found.items()}
            if not all(rank[COUPLED] > rank[p] for p in LOOSE):
                result.failures.append(
                    f"transition {model}: GH200 at {found[COUPLED]} is not "
                    f"later than {[found[p] for p in LOOSE]}")


def platform_key(platform: str) -> str:
    return platform.lower().replace("+", "_")


# ----------------------------------------------------------------------
# Serve workloads
# ----------------------------------------------------------------------
class ServeWorkload(Workload):
    """One simulated serving stream per pass; the pass is the op.

    The stream is the first ``count`` arrivals of the seeded traffic, so a
    pass's work and memory do not depend on how many arrivals a seed's
    window happens to hold.
    """

    platform_name = ""
    sample_every = 1
    count = tiny_count = 0

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__()
        self.requests = first_requests(self.traffic(seed),
                                       self.tiny_count if tiny else self.count)
        self.model = get_model("gpt2")
        self.platform = get_platform(self.platform_name)
        self.latency = LatencyModel(platform=self.platform)
        self.output_tokens = sum(r.output_tokens for r in self.requests)
        self.last_arrival_ns = max(r.arrival_ns for r in self.requests)

    def traffic(self, seed: int) -> TrafficConfig:
        raise NotImplementedError

    def simulate(self, recorder: RunRecorder):
        raise NotImplementedError

    def regime(self, run, sim: dict[str, float]) -> list[str]:
        """Checks that keep the workload in the load regime it stands for."""
        raise NotImplementedError

    def reset_cold(self) -> None:
        self.latency = LatencyModel(platform=self.platform)

    def execute(self, result: PassResult) -> str | None:
        result.attempted = 1
        self.on_op()
        recorder = RunRecorder(sample_every=self.sample_every)
        try:
            start = perf_counter()
            run = self.simulate(recorder)
            result.wall_s = perf_counter() - start
        except Exception as exc:  # an op that raises counts as failed
            result.failures.append(f"{self.name}: {type(exc).__name__}: {exc}")
            return None
        result.tokens = self.output_tokens
        result.sim.update(serve_sim_block(run, self.last_arrival_ns))
        result.counts.update(serve_counts(run))
        problems = check_outcomes(self.requests, run)
        problems += self.regime(run, result.sim)
        if problems:
            result.failures.append(f"{self.name}: " + "; ".join(problems))
        return digest_of([
            f"{o.request.request_id}|{o.ttft_ns!r}|{o.completion_ns!r}|"
            f"{o.queue_ns!r}|{o.replica}|{o.batch_size}"
            for o in run.outcomes])


def first_requests(config: TrafficConfig, count: int) -> list:
    """The first ``count`` arrivals of the stream ``config`` describes, so
    that every seed serves the same number of requests."""
    while True:
        requests = generate_traffic(config)
        if len(requests) >= count:
            return requests[:count]
        config = dataclasses.replace(config, arrivals=dataclasses.replace(
            config.arrivals, duration_s=2 * config.arrivals.duration_s))


def check_outcomes(requests, run) -> list[str]:
    """Output checks every serve pass must meet."""
    problems = []
    expected = sorted(r.request_id for r in requests)
    served = sorted(o.request.request_id for o in run.outcomes)
    if served != expected:
        problems.append(f"{len(served)} completions for {len(expected)} "
                        f"requests (each must complete exactly once)")
    tokens = sum(r.output_tokens for r in requests)
    outcome_tokens = sum(o.request.output_tokens for o in run.outcomes)
    replica_tokens = sum(r.output_tokens for r in run.replicas)
    if not tokens == outcome_tokens == replica_tokens:
        problems.append(f"output tokens not conserved: {tokens} requested, "
                        f"{outcome_tokens} completed, {replica_tokens} "
                        f"counted by replicas")
    disordered = [o.request.request_id for o in run.outcomes
                  if not 0 <= o.queue_ns <= o.ttft_ns <= o.completion_ns]
    if disordered:
        problems.append(f"queue/ttft/completion out of order for requests "
                        f"{disordered[:5]}")
    return problems


def serve_sim_block(run, last_arrival_ns: float) -> dict[str, float]:
    outcomes = run.outcomes
    makespan_ns = max(o.request.arrival_ns + o.completion_ns
                      for o in outcomes)
    return {
        "sim.steps": sum(r.steps for r in run.replicas),
        "sim.ttft_p99_ms": nearest_rank([o.ttft_ns for o in outcomes],
                                        0.99) / 1e6,
        "sim.queue_p99_ms": nearest_rank([o.queue_ns for o in outcomes],
                                         0.99) / 1e6,
        "sim.makespan_s": makespan_ns / 1e9,
        "sim.drain_s": (makespan_ns - last_arrival_ns) / 1e9,
        "sim.swaps": sum(k.swap_out_events for k in run.kv),
        "sim.host_stall_ms": run.host.stall_ns / 1e6 if run.host else 0.0,
    }


def serve_counts(run) -> dict[str, float]:
    """KV and host layer counts, read from the run's own statistics."""
    prefix_hits = sum(k.prefix_hits for k in run.kv)
    prefix_lookups = prefix_hits + sum(k.prefix_misses for k in run.kv)
    host = run.host
    return {
        "kv.prefix_hit_ratio": (prefix_hits / prefix_lookups
                                if prefix_lookups else 0.0),
        "kv.swap_outs": sum(k.swap_out_events for k in run.kv),
        "kv.swap_ins": sum(k.swap_in_events for k in run.kv),
        "kv.preemptions": sum(k.preemptions for k in run.kv),
        "kv.prefix_evictions": sum(k.prefix_evictions for k in run.kv),
        "host.grants": host.grants if host else 0,
        "host.remote_grant_ratio": (host.remote_grants / host.grants
                                    if host and host.grants else 0.0),
        "host.stall_ms_sim": host.stall_ns / 1e6 if host else 0.0,
    }


class ServeSteady(ServeWorkload):
    """The routed cluster stack on GH200 at about 3/4 of its capacity.

    Four gpt2 replicas (``max_active=8``) serve ~80 req/s of this mix, so
    Poisson arrivals at 60 req/s keep a shallow backlog; the stream is the
    first 2400 of them (~40 s). Half the requests
    share one of two 128-token prefixes across six sticky sessions, with
    copy-on-write prefix caching on; every request is recorded in full
    (``sample_every=1``, the ``repro serve`` default).
    """

    name = "serve_steady"
    platform_name = "GH200"
    count, tiny_count = 2400, 120
    #: Shallow-backlog regime: p99 queue wait and post-arrival drain bounds.
    MAX_QUEUE_P99_MS = 1_000.0
    MAX_DRAIN_S = 2.0

    def traffic(self, seed: int) -> TrafficConfig:
        return TrafficConfig(
            arrivals=ArrivalSpec(family=ArrivalFamily.POISSON,
                                 rate_per_s=60.0, duration_s=50.0, seed=seed),
            prompt_len=256, prompt_jitter=64, output_tokens=24,
            output_jitter=8, prefix=PrefixSpec(share=0.5, prefix_len=128,
                                               pool=2),
            sessions=6)

    def simulate(self, recorder: RunRecorder):
        return simulate_cluster(
            self.requests, self.model, self.latency,
            policy=ContinuousBatchPolicy(max_active=8),
            router="least-loaded", replicas=4, recorder=recorder,
            kv=KvCacheConfig(policy=KvPolicy.NONE, prefix_caching=True))

    def regime(self, run, sim: dict[str, float]) -> list[str]:
        problems = []
        if run.router is None or run.router.routed != len(self.requests):
            problems.append("router did not route every arrival")
        if sim["sim.queue_p99_ms"] > self.MAX_QUEUE_P99_MS:
            problems.append(f"p99 queue {sim['sim.queue_p99_ms']:.0f} ms: "
                            f"backlog is not shallow")
        if sim["sim.drain_s"] > self.MAX_DRAIN_S:
            problems.append(f"drained {sim['sim.drain_s']:.2f} s after the "
                            f"last arrival")
        return problems


class ServeOverload(ServeWorkload):
    """The flat shared-queue runtime on AMD+A100, above capacity.

    The first 500 bursty (MMPP) arrivals at 40 req/s (~12 s), with
    512+-256-token prompts and 256-token chunked prefill; a 0.04 GiB KV
    pool per replica forces offload swaps, four host cores are shared by
    four replicas, and one request in eight is recorded in full.
    """

    name = "serve_overload"
    platform_name = "AMD+A100"
    sample_every = 8
    count, tiny_count = 500, 80
    #: Growing-backlog regime: the stream takes at least this multiple of
    #: its arrival window to drain.
    MIN_MAKESPAN_RATIO = 1.5

    def traffic(self, seed: int) -> TrafficConfig:
        return TrafficConfig(
            arrivals=ArrivalSpec(family=ArrivalFamily.BURSTY,
                                 rate_per_s=40.0, duration_s=18.0, seed=seed),
            prompt_len=512, prompt_jitter=256, output_tokens=64,
            output_jitter=32)

    def simulate(self, recorder: RunRecorder):
        host = HostModel.for_platform(self.platform_name, replicas=4,
                                      config=HostConfig(cores=4))
        return simulate_serving(
            self.requests, self.model, self.latency,
            policy=ContinuousBatchPolicy(chunk_tokens=256), replicas=4,
            recorder=recorder,
            kv=KvCacheConfig(policy=KvPolicy.OFFLOAD, pool_gib=0.04),
            host=host)

    def regime(self, run, sim: dict[str, float]) -> list[str]:
        problems = []
        if sim["sim.swaps"] <= 0:
            problems.append("no KV swaps")
        if sim["sim.host_stall_ms"] <= 0:
            problems.append("no host stall")
        ratio = sim["sim.makespan_s"] / (self.last_arrival_ns / 1e9)
        if ratio < self.MIN_MAKESPAN_RATIO:
            problems.append(f"makespan only {ratio:.2f}x the arrival window: "
                            f"backlog is not growing")
        return problems


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PaperSweep, ServeSteady, ServeOverload)}
