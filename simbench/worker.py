"""One benchmark process: set up a workload, then time its passes.

Run by ``run.py``, one fresh single-threaded process per workload run::

    python3 simbench/worker.py --workload serve_steady --seed 1 \
        --seconds 36 --trace 0

It prints ``ready`` once set-up is done (the parent timestamps that line,
which is how ``setup_s`` is measured from interpreter start), then runs
cycles of a cold and a warm pass until the next cycle would overrun
``--seconds``, and prints one JSON line with its accounting and metrics.
``--setup-only`` exits after ``ready``.

With ``--trace 1`` it instead runs one traced cold pass, then pairs of an
untraced and a traced warm pass, and reports per-layer metrics; the spans
of the first traced cold and warm passes are written under
``.simbench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spec import (  # noqa: E402
    COLD_LAYERS,
    HOST_ELASTICITY,
    NOMINAL_REFERENCE_S,
    PER_LAYER_UNITS,
)
from tracer import Tracer, installed  # noqa: E402
from workloads import WORKLOADS, PassResult  # noqa: E402


#: Reference samples taken before each pass; their median over the run
#: sets the host-speed scale.
REFERENCE_SAMPLES = 4


class _Event:
    __slots__ = ("time", "key", "value")

    def __init__(self, time: float, key: int, value: int) -> None:
        self.time, self.key, self.value = time, key, value


class HostSpeed:
    """How fast this host runs a fixed pure-Python reference loop.

    The loop does the kind of work the simulator's hot paths do (slotted
    objects, a heap, dict updates, float arithmetic) and calls nothing in
    ``repro``, so a change to the simulator cannot move it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    @staticmethod
    def reference_s(events: int = 25_000) -> float:
        start = perf_counter()
        heap: list = []
        totals: dict[int, float] = {}
        for i in range(events):
            event = _Event(i * 0.37 % 101, i & 255, i)
            heapq.heappush(heap, (event.time, i, event))
            if len(heap) > 64:
                _, _, due = heapq.heappop(heap)
                totals[due.key] = totals.get(due.key, 0.0) + due.time * 0.5
        return perf_counter() - start

    def sample(self) -> None:
        self.samples.extend(self.reference_s()
                            for _ in range(REFERENCE_SAMPLES))

    def scale(self) -> float:
        """The factor that turns this run's host times into times on a
        host whose reference loop median is ``NOMINAL_REFERENCE_S``.

        Simulator passes slow down less than the reference loop when the
        host is busy: across the three workloads, pass time moved as the
        0.6-1.0 power of reference time (``HOST_ELASTICITY`` is the
        median), so the scale applies that power.
        """
        ratio = NOMINAL_REFERENCE_S / statistics.median(self.samples)
        return ratio ** HOST_ELASTICITY


def measure(workload, seconds: float,
            speed: HostSpeed | None = None) -> list[PassResult]:
    """Untraced cycles of a cold and a warm pass, until the next cycle
    would overrun ``seconds`` (at least one cycle).

    Alternating keeps the two kinds equally many and equally exposed to
    the host's drift. Before each pass the heap is collected and, when
    ``speed`` is given, the reference loop is sampled.
    """
    passes: list[PassResult] = []
    start = perf_counter()
    while True:
        cycle_start = perf_counter()
        for cold in (True, False):
            gc.collect()
            if speed is not None:
                speed.sample()
            passes.append(workload.run_pass(cold=cold))
        now = perf_counter()
        if now - start + (now - cycle_start) > seconds:
            return passes


def ns_per_token(passes: list[PassResult]) -> float:
    values = [p.wall_s * 1e9 / p.tokens for p in passes if p.tokens]
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (``q`` a multiple of 10), interpolated."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def end_to_end(passes: list[PassResult], speed: HostSpeed
               ) -> tuple[dict[str, float], dict[str, tuple[float, str]]]:
    """The gated metrics, and informational ones printed beside them.

    Host times are scaled by ``speed``: the shared host this benchmark was
    tuned on drifts by tens of percent over minutes, and the reference
    loop, sampled before every pass, drifts with it.
    """
    scale = speed.scale()
    cold = ns_per_token([p for p in passes if p.kind == "cold"])
    warm_passes = [p for p in passes if p.kind == "warm"]
    warm = ns_per_token(warm_passes)
    metrics = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "cold_ns_per_token": cold * scale,
        "warm_ns_per_token": warm * scale,
    }
    info = {
        "host_scale": (scale, "ratio"),
        "unscaled_cold_ns_per_token": (cold, "ns/token"),
        "unscaled_warm_ns_per_token": (warm, "ns/token"),
    }
    profile_s = [s for p in warm_passes for s in p.profile_s]
    if profile_s:
        info.update({
            "sweep_s": (statistics.median(p.wall_s for p in warm_passes), "s"),
            "profile_ms_p50": (percentile(profile_s, 50) * 1e3, "ms"),
            "profile_ms_p90": (percentile(profile_s, 90) * 1e3, "ms"),
        })
    return metrics, info


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, result: PassResult) -> dict[str, float]:
    """One traced pass's layer metrics (see ``spec.LAYER_UNITS``)."""
    s, c, n = tracer.self_s, tracer.calls, result.counts
    hits, misses = c["pricing.hit"], c["pricing.miss"]
    lowering = n["engine.lowering_hits"] + n["engine.lowering_misses"]
    return {
        "pass_s": result.wall_s,
        "engine.run_calls": c["engine.run"],
        "engine.run_s": s["engine.run"],
        "engine.lowering_hits": n["engine.lowering_hits"],
        "engine.lowering_misses": n["engine.lowering_misses"],
        "engine.lowering_hit_ratio": _ratio(n["engine.lowering_hits"],
                                            lowering),
        "skip.depgraph_s": s["skip.depgraph"],
        "skip.metrics_s": s["skip.metrics"],
        "skip.fusion_s": s["skip.fusion"],
        "skip.classify_s": s["skip.classify"],
        "pricing.calls": hits + misses,
        "pricing.misses": misses,
        "pricing.hit_ratio": _ratio(hits, hits + misses),
        "pricing.miss_s": s["pricing.miss"],
        "pricing.hit_s": s["pricing.hit"],
        "admission.depth_calls": c["admission.depth"],
        "admission.depth_s": s["admission.depth"],
        "admission.claim_s": s["admission.claim"],
        "admission.depth_max": tracer.depth_max,
        "admission.depth_mean": _ratio(tracer.depth_sum,
                                       c["admission.depth"]),
        "router.routed": c["router.push"],
        "router.push_s": s["router.push"],
        "router.depth_s": s["router.depth"],
        "router.claim_s": s["router.claim"],
        "planner.plan_calls": c["planner.plan"],
        "planner.chunks": tracer.partial_chunks,
        "planner.s": s["planner.plan"] + s["planner"],
        "kv.calls": c["kv"],
        "kv.s": s["kv"],
        "host.dispatch_calls": c["host.dispatch"],
        "host.dispatch_s": s["host.dispatch"],
        "recorder.calls": c["recorder"],
        "recorder.s": s["recorder"],
        "session.execute_calls": c["session.execute"],
        "session.execute_self_s": s["session.execute"],
        "runtime.self_s": s["runtime"],
        **{name: value for name, value in n.items()
           if not name.startswith("engine.lowering")},
    }


def traced(workload, seconds: float, spans_path: Path
           ) -> tuple[list[PassResult], dict[str, float]]:
    """A traced cold pass, then untraced/traced warm pairs."""
    tracer = Tracer()
    workload.on_op = tracer.next_op
    start = perf_counter()
    with installed(tracer):
        tracer.reset(keep_spans=True)
        cold = workload.run_pass(cold=True)
        cold_layers = layer_metrics(tracer, cold)
    passes, plain, layers = [cold], [], []
    while True:
        pair_start = perf_counter()
        plain.append(workload.run_pass(cold=False))
        with installed(tracer):
            tracer.reset(keep_spans=not layers)
            warm = workload.run_pass(cold=False)
            layers.append(layer_metrics(tracer, warm))
        passes += [plain[-1], warm]
        now = perf_counter()
        if now - start + (now - pair_start) > seconds:
            break
    tracer.write_spans(spans_path)
    metrics = {name: statistics.median(pass_layers[name]
                                       for pass_layers in layers)
               for name in layers[0]}
    metrics.update({f"cold.{name}": cold_layers[name] for name in COLD_LAYERS})
    metrics.update(cold.sim)
    metrics["trace.overhead_ratio"] = (
        metrics["pass_s"] / statistics.median(p.wall_s for p in plain))
    return passes, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        spans = (ROOT / ".simbench_out"
                 / f"spans-{args.workload}-seed{args.seed}.csv.gz")
        passes, metrics = traced(workload, args.seconds, spans)
        metrics = {name: metrics.get(name, 0) for name in PER_LAYER_UNITS}
        info = {}
    else:
        speed = HostSpeed()
        passes = measure(workload, args.seconds, speed)
        metrics, info = end_to_end(passes, speed)
    failures = [f for p in passes for f in p.failures]
    print(json.dumps({
        "attempted": sum(p.attempted for p in passes),
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": metrics,
        "info": info,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
