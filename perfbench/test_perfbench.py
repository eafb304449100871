"""Tests of the benchmark itself (not part of the program's test suite).

Run from the repository root with ``python3 -m pytest perfbench -q``.
The workload tests start the benchmark in subprocesses with short
windows; the attribution self-test takes a few minutes.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from tracing import Tracer, self_times  # noqa: E402

BOUNDS = {
    m["name"]: m["bound"]
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
}



def install_slow_prepare() -> dict:
    """Make ``EngineBase.prepare`` 20% slower while ``switch["on"]``.

    The delay is a busy wait, so it is exact and counts as the layer's
    own time.  Returns the switch; ``switch["calls"]`` counts calls.
    """
    from repro.engine.base import EngineBase

    prepare = EngineBase.prepare
    switch = {"on": False, "calls": 0}

    def slowed(self, apps, rep=0):
        started = time.perf_counter()
        prepared = prepare(self, apps, rep)
        switch["calls"] += 1
        if switch["on"]:
            stop = started + 1.2 * (time.perf_counter() - started)
            while time.perf_counter() < stop:
                pass
        return prepared

    EngineBase.prepare = slowed
    return switch


def bench(tmp_path: Path, *argv_sets: list[str]) -> list[dict]:
    """Run workloads one after another in ONE fresh interpreter.

    Returns per run the parsed result line plus its ``digests``.
    """
    code = "\n".join(
        [
            "import json, sys",
            f"sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]",
            "import run",
            f"for argv in {argv_sets!r}:",
            "    code = run.main(argv)",
            "    print('EXIT', code)",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    results: list[dict] = []
    digests: dict[int, str] = {}
    lines = proc.stdout.splitlines()
    for index, line in enumerate(lines):
        if line.startswith("digest "):
            _, seed, digest = line.split()
            digests[int(seed)] = digest
        elif line.startswith("EXIT "):
            result = json.loads(lines[index - 1])
            result["exit"] = int(line.split()[1])
            result["digests"] = digests
            results.append(result)
            digests = {}
    assert len(results) == len(argv_sets)
    return results


def args(workload: str, seed: int, seconds: float, trace: int = 0) -> list[str]:
    return ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]


def value(result: dict, metric: str) -> float:
    return result["metrics"][metric]["value"]


# -- tracing ----------------------------------------------------------------------


class _Layered:
    def outer(self) -> None:
        time.sleep(0.002)
        self.inner()
        self.inner()

    def inner(self) -> None:
        time.sleep(0.001)


def test_self_times_sum_to_root_duration() -> None:
    tracer = Tracer()
    tracer.wrap(_Layered, "outer", "outer")
    tracer.wrap(_Layered, "inner", "inner")
    try:
        with tracer.span("root"):
            _Layered().outer()
            _Layered().inner()
    finally:
        tracer.uninstall()
    [(_, spans)] = list(tracer.threads())
    assert [s[0] for s in spans] == ["root", "outer", "inner", "inner", "inner"]
    root = spans[0]
    assert sum(self_times(spans)) == pytest.approx(root[2] - root[1], abs=1e-9)
    assert all(t > 0 for t in self_times(spans))
    assert not hasattr(_Layered.outer, "__wrapped__")  # uninstalled


def test_traced_campaign_self_times_add_up(tmp_path: Path) -> None:
    import layers
    import workloads

    tracer = Tracer(spill_dir=tmp_path)
    layers.install(tracer)
    try:
        workloads.fresh_state()
        with tracer.span("workload"):
            workloads.run_campaign(
                workloads.campaign_specs()[:4], 7, tmp_path, "c", tmp_path / "cache"
            )
    finally:
        tracer.uninstall()
    for _, spans in tracer.threads():
        own = self_times(spans)
        for index, span in enumerate(spans):
            if span[3] == -1:  # a root: its tree's self times sum to its duration
                tree = {index}
                for child in range(index + 1, len(spans)):
                    if spans[child][3] in tree:
                        tree.add(child)
                assert sum(own[i] for i in tree) == pytest.approx(span[2] - span[1], abs=1e-9)
    totals = tracer.totals()
    for name in ("engine.prepare", "netsim.fluid_run", "cache.store", "methodology.runner"):
        assert totals[name]["calls"] > 0


# -- output checks and isolation ----------------------------------------------------


def test_record_store_digests_agree_across_workloads(tmp_path: Path) -> None:
    # Within each run, every campaign's digest also equals that of its
    # warm replay from the disk cache (a failed check makes it incorrect).
    cold, par = bench(tmp_path, args("cold_sweep", 5, 2), args("parallel_sweep", 5, 2))
    for result in (cold, par):
        assert result["correct"] and result["failed"] == 0 and result["exit"] == 0
    shared = set(cold["digests"]) & set(par["digests"])
    assert shared
    for seed in shared:
        assert cold["digests"][seed] == par["digests"][seed]


@pytest.mark.parametrize("first", ["parallel_sweep", "serve_mixed"])
def test_cold_context_builds_equal_distinct_specs(tmp_path: Path, first: str) -> None:
    import workloads

    _, cold = bench(tmp_path, args(first, 4, 1), args("cold_sweep", 4, 2, trace=1))
    campaigns = len(cold["digests"])
    assert campaigns >= 1
    builds = value(cold, "service.context_builds")
    assert builds == len(workloads.campaign_specs()) * campaigns


def test_serve_mixed_results_match_local_runs(tmp_path: Path) -> None:
    [serve] = bench(tmp_path, args("serve_mixed", 6, 2))
    assert serve["correct"] and serve["failed"] == 0 and serve["exit"] == 0
    assert serve["attempted"] >= 100
    assert value(serve, "setup_s") > 0


def test_missing_program_source_fails_without_result(tmp_path: Path) -> None:
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args("cold_sweep", 1, 1)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- attribution self-test ----------------------------------------------------------


def _ab_ratios(pairs: int, switch: dict, measure) -> list[float]:
    """slowed/baseline ``runs_per_s`` per pair, the two sides back to back.

    Pairs alternate which side runs first.  Back-to-back sides share the
    machine's speed, which on a shared host drifts by more than the
    effect under test between separate benchmark runs.
    """
    ratios = []
    for pair in range(pairs):
        rates = {}
        for slow in ((False, True) if pair % 2 == 0 else (True, False)):
            switch["on"] = slow
            rates[slow] = measure(pair, slow)
        ratios.append(rates[True] / rates[False])
    switch["on"] = False
    return ratios


def test_attribution_of_a_slower_prepare(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    """A 20% slower ``EngineBase.prepare`` shows on cold_sweep only.

    Flagged: cold_sweep campaigns lose ``runs_per_s`` (prepare is about a
    third of a cold run, so the expected drop is about 6%).  Attributed:
    traced with the benchmark's own wrappers, ``engine.prepare_ms`` grows
    the most of the per-run layer times.  A warm replay of campaigns
    from the disk cache (what cold_sweep's output check runs) calls no
    ``prepare`` at all and does not move.  The drop is smaller than the
    ``runs_per_s`` bound, which a shared 2-CPU host's speed drift forces
    to 0.25, so the benchmark's run-against-run comparison cannot flag
    it; the back-to-back pairs here can.
    """
    import layers
    import workloads
    from repro.engine.base import EngineBase

    monkeypatch.setattr(EngineBase, "prepare", EngineBase.prepare)  # restored after
    switch = install_slow_prepare()
    specs = workloads.campaign_specs()

    def cold(pair: int, slow: bool) -> float:
        workloads.fresh_state()
        c = workloads.run_campaign(
            specs, 9000 + pair, tmp_path, f"cold-{pair}-{slow}", tmp_path / f"c-{pair}-{slow}"
        )
        assert c.failures == 0
        return c.runs / c.elapsed_s

    ratios = _ab_ratios(60, switch, cold)
    drop = 1 - statistics.median(ratios)
    print(f"cold_sweep: median runs_per_s drop {drop:.3f} over {len(ratios)} pairs "
          f"(bound {BOUNDS['runs_per_s']})")
    assert drop > 0.02

    per_run_ms = [
        "service.run_self_ms", "engine.prepare_ms", "engine.run_self_ms",
        "netsim.fluid_run_self_ms", "netsim.solve_ms", "cache.store_ms",
        "methodology.runner_self_ms", "orchestrator.journal_ms_per_run",
    ]
    traced: dict[bool, list[dict[str, float]]] = {False: [], True: []}

    def traced_cold(pair: int, slow: bool) -> float:
        tracer = Tracer()
        layers.install(tracer)
        try:
            rate = cold(100 + pair, slow)
        finally:
            tracer.uninstall()
        traced[slow].append(layers.layer_metrics(tracer, {"campaigns": 1}))
        return rate

    _ab_ratios(8, switch, traced_cold)
    growth = {
        m: statistics.median(r[m] for r in traced[True])
        - statistics.median(r[m] for r in traced[False])
        for m in per_run_ms
    }
    print(f"per-run growth (ms): {growth}")
    assert max(growth, key=growth.get) == "engine.prepare_ms"
    base_prepare = statistics.median(r["engine.prepare_ms"] for r in traced[False])
    assert growth["engine.prepare_ms"] > 0.1 * base_prepare

    workloads.fresh_state()
    cache = tmp_path / "warm-cache"
    for i in range(2):
        workloads.run_campaign(specs, 9100 + i, tmp_path, f"setup-{i}", cache)
    switch["calls"] = 0

    def warm(pair: int, slow: bool) -> float:
        workloads.get_service().drop_memory_tiers()
        c = workloads.run_campaign(specs, 9100 + pair % 2, tmp_path, f"warm-{pair}", cache)
        return c.runs / c.elapsed_s

    ratios = _ab_ratios(40, switch, warm)
    change = 1 - statistics.median(ratios)
    print(f"warm replay: median runs_per_s change {change:.3f}, prepare calls {switch['calls']}")
    assert switch["calls"] == 0
    assert abs(change) < 0.1
