"""``scenario-sweep``: paper-size scenario jobs on a two-worker executor.

Each plan is ``compile_scenarios(["room-baseline",
"sensor-dropout-burst"], substrates=["cim", "digital"], seeds=[s])``: four
jobs of 20 filter steps with 300 particles x 48 pixels, run by
``ParallelExecutor(workers=2)``.  Every plan starts fresh worker
processes, so each job pays its own world and session build (GMM/HMGM
map fitting) inside the timed wall clock.  One op is one filter step.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from perfbench import tracing
from perfbench.checks import SweepChecker, SweepRecord
from perfbench.common import (
    FAST_PERCENTILE,
    Phase,
    percentile,
    spans_between,
    tree_cpu_s,
    tree_peak_rss_mb,
)

SCENARIOS = ["room-baseline", "sensor-dropout-burst"]
SUBSTRATES = ["cim", "digital"]
WORKERS = 2
SETUPS = 2


def _run_plan(seed: int) -> dict:
    from repro.runtime import ParallelExecutor
    from repro.scenarios.runner import compile_scenarios

    plan = compile_scenarios(SCENARIOS, substrates=SUBSTRATES, seeds=[seed])
    finished = []
    peaks = []

    def progress(record) -> None:
        finished.append((time.perf_counter(), record))
        peaks.append(tree_peak_rss_mb())  # the workers are still alive here

    cpu_start, start = tree_cpu_s(), time.perf_counter()
    report = ParallelExecutor(workers=WORKERS).execute(plan, progress=progress)
    end, cpu_end = time.perf_counter(), tree_cpu_s()
    steps = sum(r.result.metrics["n_steps"] for r in report.records if r.ok)
    return {
        "start": start,
        "end": end,
        "report": report,
        "ops_per_s": steps / (end - start),
        "cpu_ms_per_op": (cpu_end - cpu_start) * 1e3 / max(steps, 1),
        # A worker accepted its first job when that job's own clock began.
        "setup_s": min(t - r.duration_s for t, r in finished) - start,
        "latencies_ms": [(t - start) * 1e3 for t, _ in finished],
        "rss_mb": max(peaks),
    }


def measure(seed: int, seconds: float, setups: int, trace_dir=None) -> Phase:
    """Run whole plans until ``seconds`` have passed and at least
    ``setups`` plans ran; each plan starts its own worker pool, so every
    plan gives one set-up sample."""
    rng = np.random.default_rng(seed)
    if trace_dir is not None:
        tracing.install(trace_dir)
    plans = []
    first = time.perf_counter()
    while len(plans) < setups or time.perf_counter() - first < seconds:
        plan_seed = seed if not plans else int(rng.integers(2**31))
        plans.append(_run_plan(plan_seed))
    records = [r for plan in plans for r in plan["report"].records]
    ok = [r for r in records if r.ok]
    steps = sum(r.result.metrics["n_steps"] for r in ok)
    wall = sum(plan["end"] - plan["start"] for plan in plans)
    latencies = [ms for plan in plans for ms in plan["latencies_ms"]]
    first_ok = [r for r in plans[0]["report"].records if r.ok]
    quality = [r.result.metrics for r in first_ok]
    return Phase(
        setup_s=[plan["setup_s"] for plan in plans],
        window=(first, plans[-1]["end"]),
        ops=steps,
        # Each plan is one block, read like Blocks reads its blocks.
        ops_per_s=percentile([p["ops_per_s"] for p in plans], FAST_PERCENTILE),
        latency_ms=percentile(
            [percentile(p["latencies_ms"], 50) for p in plans],
            100 - FAST_PERCENTILE,
        ),
        latencies_ms=latencies,
        cpu_ms_per_op=percentile(
            [p["cpu_ms_per_op"] for p in plans], 100 - FAST_PERCENTILE
        ),
        rss_mb=max(plan["rss_mb"] for plan in plans),
        energy_nj_per_op=sum(m["energy_j"] for m in quality) * 1e9
        / sum(m["n_steps"] for m in quality),
        loc_error_m=statistics.fmean(m["mean_error_m"] for m in quality),
        attempted=len(records),
        failed=len(records) - len(ok),
        checker=SweepChecker(),
        counted=spans_between(
            plans[0]["start"],
            plans[0]["end"],
            sum(m["n_steps"] for m in quality),
        ),
        records=[
            SweepRecord(r.job, r.result.metrics)
            for r in rng.choice(first_ok, size=min(1, len(first_ok)))
        ],
        jobs=len(ok),
        layer={
            "ParallelExecutor.job_ms_p50": statistics.median(
                [r.duration_s * 1e3 for r in records]
            ),
            "ParallelExecutor.worker_idle_share": 1.0
            - sum(r.duration_s for r in records) / (WORKERS * wall),
        },
        report={"plans": len(plans), "jobs": len(records)},
    )
