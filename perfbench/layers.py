"""Which public calls of the program are traced, and the per-layer metrics.

:func:`install` wraps the public entry points of every layer named in
``BENCHMARK.json`` (``per_layer``).  :func:`layer_metrics` reduces the
recorded spans and counters to those metrics.  A metric whose layer a
workload does not reach reads 0 (the server metrics on a campaign, the
parallel-dispatch metrics on a serial workload).
"""

from __future__ import annotations

import json
import os
from typing import Any

from tracing import Tracer

__all__ = ["install", "layer_metrics", "PER_LAYER"]

# Metric name -> unit, in BENCHMARK.json order.
PER_LAYER: dict[str, str] = {
    "scenario.compile_ms": "ms",
    "service.context_builds": "count",
    "service.context_build_ms": "ms",
    "service.run_self_ms": "ms",
    "engine.prepare_ms": "ms",
    "engine.run_self_ms": "ms",
    "engine.flows_per_run": "count",
    "engine.segments_per_run": "count",
    "netsim.fluid_run_self_ms": "ms",
    "netsim.solve_calls_per_run": "count",
    "netsim.solve_ms": "ms",
    "storage.multiplier_calls_per_run": "count",
    "cache.lookup_us": "us",
    "cache.store_ms": "ms",
    "cache.lookup_many_ms": "ms",
    "cache.codec_ms": "ms",
    "cache.hit_ratio.memory": "ratio",
    "cache.hit_ratio.disk": "ratio",
    "methodology.runner_self_ms": "ms",
    "methodology.checkpoint_writes": "count",
    "methodology.checkpoint_ms": "ms",
    "methodology.parallel.dispatch_overhead_us": "us",
    "methodology.parallel.batch_size": "count",
    "methodology.parallel.spool_bytes_per_run": "bytes",
    "methodology.parallel.requeues": "count",
    "orchestrator.journal_appends_per_run": "count",
    "orchestrator.journal_ms_per_run": "ms",
    "os.fsync_calls_per_run": "count",
    "orchestrator.lease_ms": "ms",
    "server.exec_ms": "ms",
    "server.overhead_ms": "ms",
    "client.rpcs_per_job": "count",
    "server.protocol.frames_per_job": "count",
    "server.protocol.bytes_per_job": "bytes",
    "client.retries": "count",
    "server.busy_replies": "count",
    "server.close_s": "s",
    "trace.runs_per_s": "runs/s",
}

# Thread-name prefixes: the server's execution workers, and the
# benchmark's own closed-loop client threads.
SERVER_WORKER_PREFIX = "repro-worker-"
CLIENT_PREFIX = "perfbench-client-"


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every traced layer."""
    from repro.cache.tiered import TieredCache
    from repro.engine.base import EngineBase
    from repro.engine.fluid_runner import FluidEngine
    from repro.engine.result import result_from_jsonable, result_to_jsonable
    from repro.methodology.parallel import ParallelProtocolRunner
    from repro.methodology.records import RecordStore
    from repro.methodology.runner import ProtocolRunner
    from repro.netsim.fluid import FluidSimulation, NoNoise
    from repro.netsim.maxmin import MaxMinSolver
    from repro.orchestrator.journal import Journal
    from repro.orchestrator.queue import DurableJobQueue
    from repro.scenario.compile import compile_scenario
    from repro.server import protocol
    from repro.service import ServiceExecutor, SimulationService
    from repro.storage.variability import CompositeNoise, SharedStateNoise, StochasticNoise

    count = tracer.count

    tracer.wrap_function(compile_scenario, "scenario.compile")

    tracer.wrap(SimulationService, "context", "service.context")
    tracer.wrap(SimulationService, "run", "service.run")
    tracer.wrap(SimulationService, "resolve_prefetched", "service.resolve_prefetched")
    tracer.wrap(ServiceExecutor, "__call__", "service.executor")

    tracer.wrap(EngineBase, "__init__", "engine.init")
    tracer.wrap(
        EngineBase,
        "prepare",
        "engine.prepare",
        after=lambda a, k, prepared, t: count("engine.flows", len(prepared.flows)),
    )
    tracer.wrap(FluidEngine, "run", "engine.run")

    tracer.wrap(
        FluidSimulation,
        "run",
        "netsim.fluid_run",
        after=lambda a, k, result, t: count("netsim.segments", result.segments),
    )
    tracer.wrap(MaxMinSolver, "solve", "netsim.solve")
    tracer.wrap(MaxMinSolver, "solve_batch", "netsim.solve")
    for noise in (StochasticNoise, SharedStateNoise, CompositeNoise, NoNoise):
        tracer.counting(noise, "multiplier", "storage.multiplier")

    tracer.wrap(TieredCache, "lookup", "cache.lookup")
    tracer.wrap(
        TieredCache,
        "lookup_many",
        "cache.lookup_many",
        after=lambda a, k, r, t: count("cache.lookup_many.jobs", len(a[1])),
    )
    tracer.wrap(TieredCache, "store", "cache.store")
    tracer.wrap_function(result_to_jsonable, "cache.codec")
    tracer.wrap_function(result_from_jsonable, "cache.codec")

    tracer.wrap(ProtocolRunner, "run", "methodology.runner")
    tracer.wrap(ParallelProtocolRunner, "run", "methodology.runner")
    tracer.wrap(RecordStore, "write_json", "methodology.checkpoint")

    tracer.wrap(Journal, "append", "orchestrator.journal")
    tracer.wrap(Journal, "append_many", "orchestrator.journal")
    tracer.wrap(os, "fsync", "os.fsync")
    tracer.wrap(
        DurableJobQueue,
        "lease",
        "orchestrator.lease",
        after=lambda a, k, r, t: count("orchestrator.leased_jobs"),
    )
    tracer.wrap(
        DurableJobQueue,
        "lease_many",
        "orchestrator.lease",
        after=lambda a, k, r, t: count("orchestrator.leased_jobs", len(r)),
    )

    def frame_sent(args: tuple, kwargs: dict, result: Any, elapsed: float) -> None:
        msg = args[1]
        count("protocol.bytes", len(json.dumps(msg, sort_keys=True, separators=(",", ":"))))
        if msg.get("type") == "busy":
            count("server.busy_replies")

    tracer.wrap_function(protocol.send_frame, "protocol.send_frame", after=frame_sent)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _context_builds(tracer: Tracer) -> tuple[int, float]:
    """Engine constructions inside ``service.context`` spans, and their time."""
    builds = 0
    total = 0.0
    for _, spans in tracer.threads():
        for span in spans:
            if span[0] == "engine.init" and span[3] >= 0:
                parent = spans[span[3]]
                if parent[0] == "service.context":
                    builds += 1
                    total += parent[2] - parent[1]
    return builds, total


def _time_on_threads(tracer: Tracer, names: set[str], prefix: str) -> float:
    total = 0.0
    for label, spans in tracer.threads():
        if label.split("/", 1)[1].startswith(prefix):
            total += sum(s[2] - s[1] for s in spans if s[0] in names)
    return total


def _calls_on_threads(tracer: Tracer, name: str, prefix: str) -> int:
    return sum(
        sum(1 for s in spans if s[0] == name)
        for label, spans in tracer.threads()
        if label.split("/", 1)[1].startswith(prefix)
    )


def layer_metrics(tracer: Tracer, info: dict[str, Any]) -> dict[str, float]:
    """The per-layer metrics of one traced workload run.

    ``info`` carries what the workload measured itself: ``campaigns``,
    ``transfer``/``supervision`` sums from ``run_specs(stats_out=)``,
    ``tier_stats``, ``jobs`` and ``latencies_s`` of client jobs,
    ``client_retries``, ``close_s`` and ``runs_per_s``.
    """
    totals = tracer.totals()
    counts = tracer.counts

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0)

    def total_ms(name: str) -> float:
        return totals.get(name, {}).get("total_s", 0.0) * 1e3

    def self_ms(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0) * 1e3

    def mean_ms(name: str) -> float:
        return _ratio(total_ms(name), calls(name))

    builds, build_s = _context_builds(tracer)
    leased = counts["orchestrator.leased_jobs"]
    fluid_runs = calls("netsim.fluid_run")
    campaigns = info.get("campaigns", 0)
    transfer = info.get("transfer", {})
    tiers = info.get("tier_stats", {})
    jobs = info.get("jobs", 0)
    latencies = info.get("latencies_s", [])
    exec_ms = _ratio(
        _time_on_threads(
            tracer, {"service.run", "service.resolve_prefetched"}, SERVER_WORKER_PREFIX
        )
        * 1e3,
        jobs,
    )

    def hit_ratio(tier: str) -> float:
        row = tiers.get(tier, {})
        return _ratio(row.get("hit", 0), row.get("hit", 0) + row.get("miss", 0))

    metrics = {
        "scenario.compile_ms": mean_ms("scenario.compile"),
        "service.context_builds": builds,
        "service.context_build_ms": _ratio(build_s * 1e3, builds),
        "service.run_self_ms": _ratio(self_ms("service.run"), calls("service.run")),
        "engine.prepare_ms": mean_ms("engine.prepare"),
        "engine.run_self_ms": _ratio(self_ms("engine.run"), calls("engine.run")),
        "engine.flows_per_run": _ratio(counts["engine.flows"], calls("engine.prepare")),
        "engine.segments_per_run": _ratio(counts["netsim.segments"], fluid_runs),
        "netsim.fluid_run_self_ms": _ratio(self_ms("netsim.fluid_run"), fluid_runs),
        "netsim.solve_calls_per_run": _ratio(calls("netsim.solve"), fluid_runs),
        "netsim.solve_ms": _ratio(total_ms("netsim.solve"), fluid_runs),
        "storage.multiplier_calls_per_run": _ratio(counts["storage.multiplier"], fluid_runs),
        "cache.lookup_us": mean_ms("cache.lookup") * 1e3,
        "cache.store_ms": mean_ms("cache.store"),
        "cache.lookup_many_ms": _ratio(
            total_ms("cache.lookup_many"), counts["cache.lookup_many.jobs"]
        ),
        "cache.codec_ms": mean_ms("cache.codec"),
        "cache.hit_ratio.memory": hit_ratio("memory"),
        "cache.hit_ratio.disk": hit_ratio("disk"),
        "methodology.runner_self_ms": _ratio(
            self_ms("methodology.runner"),
            leased if calls("methodology.runner") else 0,
        ),
        "methodology.checkpoint_writes": _ratio(calls("methodology.checkpoint"), campaigns),
        "methodology.checkpoint_ms": mean_ms("methodology.checkpoint"),
        "methodology.parallel.dispatch_overhead_us": _ratio(
            transfer.get("dispatch_overhead_s", 0.0) * 1e6, transfer.get("jobs", 0)
        ),
        "methodology.parallel.batch_size": _ratio(
            transfer.get("jobs", 0), transfer.get("batches", 0)
        ),
        "methodology.parallel.spool_bytes_per_run": _ratio(
            transfer.get("spool_bytes", 0), transfer.get("jobs", 0)
        ),
        "methodology.parallel.requeues": info.get("supervision", {}).get("requeues", 0),
        "orchestrator.journal_appends_per_run": _ratio(
            calls("orchestrator.journal"), leased
        ),
        "orchestrator.journal_ms_per_run": _ratio(total_ms("orchestrator.journal"), leased),
        "os.fsync_calls_per_run": _ratio(calls("os.fsync"), leased),
        "orchestrator.lease_ms": mean_ms("orchestrator.lease"),
        "server.exec_ms": exec_ms,
        "server.overhead_ms": (
            _ratio(sum(latencies) * 1e3, len(latencies)) - exec_ms if latencies else 0.0
        ),
        "client.rpcs_per_job": _ratio(
            _calls_on_threads(tracer, "protocol.send_frame", CLIENT_PREFIX), jobs
        ),
        "server.protocol.frames_per_job": _ratio(calls("protocol.send_frame"), jobs),
        "server.protocol.bytes_per_job": _ratio(counts["protocol.bytes"], jobs),
        "client.retries": info.get("client_retries", 0),
        "server.busy_replies": counts["server.busy_replies"],
        "server.close_s": info.get("close_s", 0.0),
        "trace.runs_per_s": info.get("runs_per_s", 0.0),
    }
    assert list(metrics) == list(PER_LAYER)
    return metrics
