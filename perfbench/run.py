"""Benchmark entry point: run one workload, check it, print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold_sweep --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with every layer's public calls wrapped in spans and prints the
per-layer metrics instead (spans go to ``.perfbench/trace-<workload>.json``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every output check passed.  Scratch files live under
``.perfbench/`` in the current directory and are removed afterwards.

``setup_s`` is the median of SETUP_ROUNDS set-ups of the program in this
process: import its modules afresh and compile the campaign's specs
(plus, for ``serve_mixed``, starting the server and connecting the
clients, once).  The first round also pays for third-party imports.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
WORKLOAD_NAMES = ("cold_sweep", "serve_mixed", "parallel_sweep")
SETUP_ROUNDS = 5
# Benchmark modules bound to the program's modules at import.
BOUND_MODULES = ("workloads", "layers")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _metric_block(values: dict[str, float], units: dict[str, str]) -> dict[str, Any]:
    return {name: {"value": float(values[name]), "unit": units[name]} for name in units}


def forget_program() -> None:
    """Drop the program's modules, and the benchmark's bound to them."""
    for name in list(sys.modules):
        if name in BOUND_MODULES or name == "repro" or name.startswith("repro."):
            del sys.modules[name]


def time_setups(seed: int) -> float:
    """Median seconds of SETUP_ROUNDS fresh imports plus spec compiles.

    Leaves the program's modules freshly imported, with nothing compiled.
    """
    times = []
    for _ in range(SETUP_ROUNDS):
        forget_program()
        started = time.perf_counter()
        import workloads

        workloads.compile_pool(workloads.campaign_specs(), workloads.campaign_seed(seed, 0))
        times.append(time.perf_counter() - started)
    forget_program()
    return statistics.median(times)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found at {SOURCE}/repro", file=sys.stderr)
        return 2
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    setup_s = time_setups(args.seed)

    import layers
    import workloads
    from tracing import Tracer

    scratch = Path.cwd() / ".perfbench"
    workdir = scratch / f"{args.workload}-{os.getpid()}"
    tracer: Tracer | None = None
    phases: dict[str, int] = {}

    if args.trace:
        spill = scratch / f"spill-{os.getpid()}"
        spill.mkdir(parents=True, exist_ok=True)
        tracer = Tracer(spill_dir=spill)
        layers.install(tracer)
        phases["workload"] = tracer.open("workload")
        phases["setup"] = tracer.open("setup")

    def mark(phase: str) -> None:
        """Phase boundaries: set-up ends at "measure"; checks start at "verify".

        The traced run covers the workload's set-up and measurement, not
        the checks.
        """
        if tracer is None:
            return
        if phase == "measure":
            tracer.close(phases.pop("setup"))
            phases["measure"] = tracer.open("measure")
        elif phase == "verify" and "measure" in phases:
            tracer.close(phases.pop("measure"))
            tracer.close(phases.pop("workload"))
            tracer.uninstall()

    outcome = workloads.run_workload(args.workload, args.seed, args.seconds, workdir, mark)

    for seed, digest in sorted(outcome.digests.items()):
        print(f"digest {seed} {digest}")
    for note in outcome.info.get("notes", []):
        print(f"note: {note}")
    if tracer is None:
        setup_s += outcome.info.get("server_start_s", 0.0)
        values = {"setup_s": setup_s, **outcome.metrics}
        metrics = _metric_block(values, workloads.END_TO_END)
    else:
        tracer.absorb_spills()
        spill.rmdir()
        info = {**outcome.info, "runs_per_s": outcome.metrics["runs_per_s"]}
        values = layers.layer_metrics(tracer, info)
        metrics = _metric_block(values, layers.PER_LAYER)
        tracer.write(scratch / f"trace-{args.workload}.json")
    for name, metric in metrics.items():
        print(f"{name:44s} {metric['value']:>14.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
