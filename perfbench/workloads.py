"""The three benchmark workloads, their output checks and their metrics.

Every workload drives the shipped program through its public entry
points — ``run_specs`` for campaigns, an in-thread ``serve`` with
``RemoteClient`` callers for the service — from one process, with at
most ``nproc`` worker processes or client connections.  Inputs derive
from the ``--seed`` argument only; the program sees only the generated
specs and jobs.

Campaign ``i`` of a run with seed ``s`` uses campaign seed
``s * 1000 + i`` in every workload, so ``cold_sweep`` and
``parallel_sweep`` run identical campaigns and must produce identical
record stores (checked through the checkpoint digest).
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import random
import resource
import shutil
import statistics
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any, Callable

from repro.cache.tiered import reset_tier_stats, tier_stats
from repro.client import RemoteClient
from repro.engine.result import result_to_jsonable
from repro.errors import ReproError
from repro.experiments.common import run_specs, sweep
from repro.methodology.plan import ExperimentSpec
from repro.scenario import compile as scenario_compile
from repro.server.app import ServerConfig
from repro.server.netchaos import serve_in_thread
from repro.service import ServiceExecutor, SimulationService, get_service, reset_cache_stats
from tracing import Tracer

__all__ = ["WORKLOADS", "END_TO_END", "campaign_specs", "run_workload"]

# Metric name -> unit, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "runs_per_s": "runs/s",
    "job_p50_ms": "ms",
    "job_p99_ms": "ms",
    "peak_rss_mb": "MiB",
}

# Repetitions per (spec, seed) in one campaign.
REPS = 4
# serve_mixed pre-populates enough server-cache hits for a window of
# --seconds at up to this many jobs per second (a third of them hits);
# fresh misses use reps from SERVE_MISS_REP0 up.
SERVE_MAX_JOBS_PER_S = 400
SERVE_MISS_REP0 = 1_000_000
# serve_mixed's runs_per_s is a median over blocks of this many jobs (a
# campaign's runs_per_s a median over campaigns of 35 x 4 runs).
RATE_BLOCK = 140
# A campaign workload keeps going past --seconds until it has timed this
# many runs, so its p99 has at least ten samples beyond it.
MIN_JOBS = 1000


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def campaign_specs() -> list[ExperimentSpec]:
    """The campaign every workload runs: 35 specs of varied size.

    Both calibrated platforms at 8/16/32 nodes x stripe 1/2/4/8, a
    fig12-style slice of 2-4 concurrent applications, and read and
    file-per-process slices, so flows, segments and targets per run vary.
    """
    specs = sweep(
        "perfbench",
        scenario=["scenario1", "scenario2"],
        num_nodes=[8, 16, 32],
        stripe_count=[1, 2, 4, 8],
        ppn=8,
    )
    specs += sweep(
        "perfbench-concurrent",
        scenario="scenario2",
        num_apps=[2, 3, 4],
        num_nodes=8,
        nodes_per_app=8,
        stripe_count=4,
        ppn=8,
    )
    specs += sweep(
        "perfbench-read",
        scenario="scenario2",
        operation="read",
        num_nodes=[8, 32],
        stripe_count=[2, 8],
        ppn=8,
    )
    specs += sweep(
        "perfbench-fpp",
        scenario="scenario2",
        pattern="file-per-process",
        num_nodes=[8, 32],
        stripe_count=[2, 8],
        ppn=8,
    )
    return specs


def campaign_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    correct: bool
    digests: dict[int, str] = field(default_factory=dict)
    info: dict[str, Any] = field(default_factory=dict)


@dataclass
class Campaign:
    seed: int
    runs: int
    failures: int
    elapsed_s: float
    digest: str
    stats: dict[str, Any]


def fresh_state() -> None:
    """Start from a fresh service, empty hot tiers and zeroed tallies.

    ``SimulationService`` has no public way to forget its engine
    contexts, so its constructor is re-run on the process-wide instance:
    every later ``get_service()`` caller then sees a fresh service.
    """
    service = get_service()
    service.reset_tiers()
    service.__init__()
    reset_tallies()


def reset_tallies() -> None:
    reset_cache_stats()
    reset_tier_stats()


def run_campaign(
    specs: list[ExperimentSpec],
    seed: int,
    workdir: Path,
    tag: str,
    cache_dir: Path,
    workers: int | None = None,
) -> Campaign:
    """One checkpointed ``run_specs`` campaign; digest of its record store."""
    checkpoint = workdir / f"{tag}.json"
    stats: dict[str, Any] = {}
    started = time.perf_counter()
    store = run_specs(
        specs,
        repetitions=REPS,
        seed=seed,
        checkpoint=checkpoint,
        cache_dir=cache_dir,
        workers=workers,
        on_error="skip",
        stats_out=stats,
    )
    elapsed = time.perf_counter() - started
    digest = hashlib.sha256(checkpoint.read_bytes()).hexdigest()
    checkpoint.unlink()
    return Campaign(seed, len(store), len(store.failures), elapsed, digest, stats)


def executor_probe(spill_dir: Path) -> Tracer:
    """Time every ``(spec, rep)`` run at the runner's call into the service.

    Wraps ``ServiceExecutor.__call__``; the parallel runner's forked
    workers inherit the wrapper and hand their spans back when they exit.
    """
    spill_dir.mkdir(parents=True, exist_ok=True)
    probe = Tracer(spill_dir=spill_dir)
    probe.wrap(ServiceExecutor, "__call__", "run")
    return probe


def run_latencies(probe: Tracer) -> list[float]:
    """Seconds per probed run, parent and exited workers alike."""
    probe.absorb_spills()
    return [s[2] - s[1] for _, spans in probe.threads() for s in spans if s[0] == "run"]


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation between ranks)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb(include_children: bool = False) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def compile_pool(specs: list[ExperimentSpec], seed: int) -> list:
    # Looked up at call time, so a traced run sees the call.
    return [scenario_compile.compile_scenario(spec, seed=seed) for spec in specs]


# -- campaign workloads ---------------------------------------------------------


def median_rate(finish_times: list[float]) -> float:
    """Median completions per second over blocks of RATE_BLOCK completions.

    ``finish_times`` are seconds into the window, ascending; a block runs
    from the previous block's last completion (or the window's start).
    A median over blocks keeps a few seconds of a busy host from moving
    the figure.
    """
    if len(finish_times) < RATE_BLOCK:
        return len(finish_times) / finish_times[-1]
    ends = [0.0, *finish_times[RATE_BLOCK - 1 :: RATE_BLOCK]]
    return statistics.median(RATE_BLOCK / (b - a) for a, b in zip(ends, ends[1:]))


def _campaign_metrics(
    campaigns: list[Campaign], latencies: list[float], children: bool
) -> dict[str, float]:
    # One campaign is one block: the median of per-campaign rates.
    return {
        "runs_per_s": statistics.median(c.runs / c.elapsed_s for c in campaigns),
        "job_p50_ms": percentile(latencies, 50) * 1e3,
        "job_p99_ms": percentile(latencies, 99) * 1e3,
        "peak_rss_mb": peak_rss_mb(include_children=children),
    }


def _failed_runs(campaigns: list[Campaign], expected: int) -> int:
    """Runs missing from the record stores: quarantined or lost."""
    return sum(expected - c.runs for c in campaigns)


def _sweep(
    seed: int, seconds: float, workdir: Path, mark: Callable, workers: int | None
) -> Outcome:
    """Fresh cold campaigns, each into an empty cache directory."""
    specs = campaign_specs()
    compile_pool(specs, campaign_seed(seed, 0))
    mark("measure")
    probe = executor_probe(workdir / "probe")
    campaigns: list[Campaign] = []
    started = time.perf_counter()
    try:
        while (
            time.perf_counter() - started < seconds
            or sum(c.runs for c in campaigns) < MIN_JOBS
        ):
            index = len(campaigns)
            campaigns.append(
                run_campaign(
                    specs,
                    campaign_seed(seed, index),
                    workdir,
                    f"cold-{index}",
                    workdir / f"cache-cold-{index}",
                    workers=workers,
                )
            )
    finally:
        probe.uninstall()
    mark("verify")
    latencies = run_latencies(probe)
    metrics = _campaign_metrics(campaigns, latencies, children=workers is not None)
    failed = _failed_runs(campaigns, len(specs) * REPS)
    # Check: each record store equals the serial runner's warm replay of
    # it; a parallel sweep's first campaign also equals a serial cold run.
    mismatches = 0
    for index, cold in enumerate(campaigns):
        get_service().drop_memory_tiers()
        warm = run_campaign(
            specs, cold.seed, workdir, f"check-{index}", workdir / f"cache-cold-{index}"
        )
        mismatches += warm.digest != cold.digest
    checks = len(campaigns)
    if workers is not None:
        serial = run_campaign(
            specs, campaigns[0].seed, workdir, "check-serial", workdir / "cache-check-serial"
        )
        mismatches += serial.digest != campaigns[0].digest
        checks += 1
    info: dict[str, Any] = {"campaigns": len(campaigns)}
    for part in ("transfer", "supervision"):
        info[part] = {}
        for c in campaigns:
            for key, value in c.stats.get(part, {}).items():
                info[part][key] = info[part].get(key, 0) + value
    return Outcome(
        metrics=metrics,
        attempted=sum(c.runs + c.failures for c in campaigns) + checks,
        failed=failed + mismatches,
        correct=failed == 0 and mismatches == 0,
        digests={c.seed: c.digest for c in campaigns},
        info=info,
    )


def cold_sweep(seed: int, seconds: float, workdir: Path, mark: Callable) -> Outcome:
    """Serial cold campaigns."""
    return _sweep(seed, seconds, workdir, mark, workers=None)


def parallel_sweep(seed: int, seconds: float, workdir: Path, mark: Callable) -> Outcome:
    """``cold_sweep`` with ``workers = nproc`` worker processes."""
    return _sweep(seed, seconds, workdir, mark, workers=nproc())


# -- the service workload -------------------------------------------------------


def hit_jobs(seconds: float, n_specs: int) -> list[tuple[int, int]]:
    """The ``(spec index, rep)`` jobs pre-populated as server-cache hits.

    Enough for a third of a ``seconds`` window at SERVE_MAX_JOBS_PER_S.
    """
    reps = max(1, math.ceil(seconds * SERVE_MAX_JOBS_PER_S / 3 / n_specs))
    return [(i, rep) for rep in range(reps) for i in range(n_specs)]


def job_stream(
    seed: int, n_specs: int, hits: list[tuple[int, int]]
) -> list[tuple[str, int, int]]:
    """The seeded ``serve_mixed`` job stream: ``(kind, spec index, rep)``.

    One third fresh misses (never-seen reps), one third pre-populated
    server-cache hits (each used once), one third repeats of an earlier
    job of the stream (re-attach to a finished job).
    """
    rng = random.Random(seed)
    hits = list(hits)
    rng.shuffle(hits)
    next_miss = [SERVE_MISS_REP0] * n_specs
    stream: list[tuple[str, int, int]] = []
    originals: list[tuple[int, int]] = []

    def miss() -> tuple[str, int, int]:
        index = rng.randrange(n_specs)
        rep = next_miss[index]
        next_miss[index] += 1
        return ("miss", index, rep)

    while hits:
        kinds = ["miss", "hit", "repeat"]
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "hit":
                job = ("hit", *hits.pop())
            elif kind == "miss" or len(originals) < 2:
                job = miss()
            else:
                # Not the newest original: it may still be running.
                job = ("repeat", *originals[rng.randrange(len(originals) - 1)])
            if job[0] != "repeat":
                originals.append((job[1], job[2]))
            stream.append(job)
    return stream


# A finished serve_mixed job: stream position, latency (s), finish time
# (s into the window), and the digest of its canonical result (None when
# the result frame was not ok).  Only the digest is kept, so memory does
# not grow with the number of jobs the window fits.
Finished = tuple[int, float, float, "str | None"]


def _closed_loop(
    callers: list[RemoteClient], pool: list, stream: list[tuple[str, int, int]], seconds: float
) -> tuple[list[Finished], list[str], float]:
    """Each caller submits the next stream job once its previous one returned.

    Returns the finished jobs in finishing order, the errors, and the
    window's wall time.
    """
    lock = threading.Lock()
    cursor = [0]
    done: list[Finished] = []
    errors: list[str] = []
    started = time.perf_counter()
    deadline = started + seconds

    def caller_loop(client: RemoteClient) -> None:
        while True:
            with lock:
                if cursor[0] >= len(stream) or time.perf_counter() >= deadline:
                    return
                position = cursor[0]
                cursor[0] += 1
            _, index, rep = stream[position]
            scenario = pool[index]
            sent = time.perf_counter()
            try:
                client.submit(scenario, rep)
                frame = client.wait(scenario, rep)
            except Exception as exc:  # noqa: BLE001 — any failure is counted, not fatal
                with lock:
                    errors.append(f"{type(exc).__name__}: {exc}")
                continue
            finished = time.perf_counter()
            digest = _digest(frame["result"]) if frame.get("status") == "ok" else None
            with lock:
                done.append((position, finished - sent, finished - started, digest))

    threads = [
        threading.Thread(target=caller_loop, args=(c,), name=f"perfbench-client-{n}")
        for n, c in enumerate(callers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120)
    window_s = time.perf_counter() - started
    stuck = [t.name for t in threads if t.is_alive()]
    if stuck:
        raise ReproError(f"client threads did not finish: {stuck}")
    return done, errors, window_s


def _reference_runs(
    pool: list, jobs: list[tuple[int, int]], cache_dir: Path | None
) -> list[str]:
    """Helper-process task: run jobs locally; their result digests.

    With ``cache_dir`` the results are also stored there, as a server
    with that cache would store them.
    """
    service = SimulationService()
    scenarios = [(pool[index], rep) for index, rep in jobs]
    if cache_dir is None:
        results = [service.run(spec, rep, cache=False) for spec, rep in scenarios]
    else:
        results = service.run_many(scenarios, cache=True, cache_dir=cache_dir)
    return [_digest(result_to_jsonable(r)) for r in results]


def reference_results(
    pool: list, jobs: list[tuple[int, int]], cache_dir: Path | None = None
) -> dict[tuple[int, int], str]:
    """Run ``jobs`` in ``nproc`` helper processes, outside any window.

    Returns each job's result digest.  The helpers are spawned, not
    forked (the server's threads may be alive), and have exited when
    this returns.
    """
    if not jobs:
        return {}
    helpers = min(nproc(), len(jobs))
    chunks = [jobs[k::helpers] for k in range(helpers)]
    spawn = multiprocessing.get_context("spawn")
    try:
        with ProcessPoolExecutor(helpers, mp_context=spawn) as ex:
            outputs = list(
                ex.map(_reference_runs, [pool] * helpers, chunks, [cache_dir] * helpers)
            )
    finally:
        # Spawning started multiprocessing's resource tracker process;
        # stop it and wait for it, so no process outlives the benchmark.
        resource_tracker._resource_tracker._stop()
    return {
        job: result for chunk, out in zip(chunks, outputs) for job, result in zip(chunk, out)
    }


def serve_mixed(seed: int, seconds: float, workdir: Path, mark: Callable) -> Outcome:
    """Closed-loop ``RemoteClient`` callers against an in-thread server."""
    specs = campaign_specs()
    state_dir = workdir / "serve"
    workers = clients = nproc()
    pool = compile_pool(specs, campaign_seed(seed, 0))
    # Pre-populate the server's cache with every hit job; the helpers'
    # results double as the reference outputs of those jobs.  Nothing is
    # hot in this process's memory: hits come from disk.
    hits = hit_jobs(seconds, len(pool))
    reference = reference_results(pool, hits, cache_dir=state_dir / "cache")
    stream = job_stream(seed, len(pool), hits)
    starting = time.perf_counter()
    server_cm = serve_in_thread(ServerConfig(state_dir=state_dir, workers=workers))
    server = server_cm.__enter__()
    callers: list[RemoteClient] = []
    try:
        callers = [
            RemoteClient("127.0.0.1", server.port, fallback=False, seed=seed)
            for _ in range(clients)
        ]
        for caller in callers:
            caller.connect()
        start_s = time.perf_counter() - starting
        reset_tallies()
        mark("measure")
        done, errors, window_s = _closed_loop(callers, pool, stream, seconds)
        mark("verify")
        tiers = tier_stats()
        retries = sum(c.stats["retries"] for c in callers)
        fallbacks = sum(c.stats["fallbacks"] for c in callers)
    finally:
        for caller in callers:
            caller.close()
        closing = time.perf_counter()
        server_cm.__exit__(None, None, None)
        close_s = time.perf_counter() - closing

    # Check every result against a local run of the same job.
    ok = [(stream[position][1:], digest) for position, _, _, digest in done if digest]
    reference.update(reference_results(pool, sorted({job for job, _ in ok} - reference.keys())))
    not_ok = len(done) - len(ok)
    mismatches = sum(digest != reference[job] for job, digest in ok)
    latencies = [lat for _, lat, _, _ in done]
    if not latencies:
        raise ReproError(f"no serve_mixed job finished ({len(errors)} errors)")
    metrics = {
        "runs_per_s": median_rate(sorted(at for _, _, at, _ in done)),
        "job_p50_ms": percentile(latencies, 50) * 1e3,
        "job_p99_ms": percentile(latencies, 99) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    failed = len(errors) + retries + fallbacks + not_ok + mismatches
    notes = []
    if len(done) + len(errors) == len(stream):
        notes.append(f"the job stream ran out after {window_s:.1f} s of the window")
    return Outcome(
        metrics=metrics,
        attempted=len(done) + len(errors) + retries,
        failed=failed,
        correct=failed == 0,
        info={
            "jobs": len(done),
            "latencies_s": latencies,
            "client_retries": retries,
            "close_s": close_s,
            "server_start_s": start_s,
            "tier_stats": tiers,
            "notes": notes,
        },
    )


def _digest(result: Any) -> str:
    """sha256 of a result's canonical JSON: equal digests, equal bytes."""
    canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


WORKLOADS: dict[str, Callable[..., Outcome]] = {
    "cold_sweep": cold_sweep,
    "serve_mixed": serve_mixed,
    "parallel_sweep": parallel_sweep,
}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    workdir: Path,
    mark: Callable[[str], None] = lambda phase: None,
) -> Outcome:
    """Run one workload from a fresh service in ``workdir`` (removed after)."""
    fresh_state()
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return WORKLOADS[name](seed, seconds, workdir, mark)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        # Commit the deletions now, so their disk work does not land in
        # the next run's timed window.
        os.sync()
