"""``infer-mix``: open-loop MC-Dropout requests on ``cim-ordered``.

Arrivals follow a Poisson process at ``RATE_PER_S``.  Half
the requests use seed 0 and can share one mask plan inside a
micro-batch; the other half use unique seeds and cannot.  Latency counts
from each request's due time, so a stall also charges the requests it
delayed; the generator's own lateness is reported beside it.
"""

from __future__ import annotations

import asyncio
import statistics
import time

import numpy as np

from perfbench import tracing
from perfbench.checks import InferChecker, InferRecord
from perfbench.common import (
    Blocks,
    Phase,
    percentile,
    spans_between,
    tree_peak_rss_mb,
)

SUBSTRATE = "cim-ordered"
N_ITERATIONS = 32
ROWS = 4
# Closed loops of 8 and 32 clients sustained 170-210 req/s with this mix
# on 2 cores (Intel Xeon, Python 3.11, numpy 2.4), but open-loop arrivals
# batch poorly: at 85 req/s one run in ten let the queue run away while
# the shared host was slow (p50 41 ms against 17-22 ms).  50 req/s keeps
# the queue bounded through such slow spells.
RATE_PER_S = 50.0
SHARED_SEED = 0
SETUPS = 5
BLOCK_OPS = 32
# Requests may queue well past the default admission bound during a
# stall of the host; a refusal would fail the run instead of showing as
# latency.
MAX_PENDING = 4096
WARMUP_S = 1.0
# Every CHECK_EVERY-th response (offset by the seed) is checked.
CHECK_EVERY = 4
# The generator counts as behind when its p99 lateness exceeds this
# share of the p50 latency it measured.
BEHIND_SHARE = 0.5


def _requests(seed: int, count: int):
    from repro.serve import InferenceRequest
    from repro.serve.demo import DEMO_INPUTS

    rng = np.random.default_rng(seed)
    shared = rng.permutation(count) < count // 2
    unique = rng.choice(2**31 - 1, size=count, replace=False) + 1
    return [
        InferenceRequest(
            rng.normal(size=(ROWS, DEMO_INPUTS)),
            substrate=SUBSTRATE,
            seed=SHARED_SEED if shared[i] else int(unique[i]),
        )
        for i in range(count)
    ]


def _arrivals(seed: int, count: int, span_s: float) -> np.ndarray:
    """A Poisson process on ``[0, span_s)`` conditioned on ``count``
    arrivals: the sorted uniform times."""
    rng = np.random.default_rng([seed, 1])
    return np.sort(rng.uniform(0.0, span_s, size=count))


async def _start_service():
    from repro.runtime import QueuePolicy
    from repro.serve import InferenceService
    from repro.serve.demo import demo_model

    service = InferenceService(
        demo_model(),
        substrates=[SUBSTRATE],
        n_iterations=N_ITERATIONS,
        queue=QueuePolicy(max_pending=MAX_PENDING),
    )
    await service.start()
    return service


async def _drive(requests, offsets, seconds, setups, warm) -> dict:
    setup_s = []
    for attempt in range(setups):
        start = time.perf_counter()
        service = await _start_service()
        await service.submit(warm)
        setup_s.append(time.perf_counter() - start)
        if attempt < setups - 1:
            await service.stop()
    sent_lag, finished = [], []
    failed = 0
    blocks = Blocks(BLOCK_OPS)

    async def one(index: int, due: float) -> None:
        nonlocal failed
        try:
            response = await service.submit(requests[index])
        except Exception:
            failed += 1
            return
        done = time.perf_counter()
        finished.append((index, due, done, response))
        blocks.add(len(finished), (done - due) * 1e3)

    tasks = []
    base = time.perf_counter() + 0.05
    window = (base + WARMUP_S, base + WARMUP_S + seconds)
    start = None
    try:
        for index, offset in enumerate(offsets):
            due = base + offset
            if start is None and due >= window[0]:
                start = time.perf_counter()
                blocks.start(len(finished))
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent_lag.append(time.perf_counter() - due)
            tasks.append(asyncio.create_task(one(index, due)))
        await asyncio.sleep(max(0.0, window[1] - time.perf_counter()))
        blocks.stop()
        end = time.perf_counter()
        rss_mb = tree_peak_rss_mb()
        await asyncio.gather(*tasks)
        settled = time.perf_counter()
    finally:
        await service.stop()
    return {
        "setup_s": setup_s,
        "finished": finished,
        "lag": sent_lag,
        "failed": failed,
        "window": (start, end),
        "scheduled": (base, settled),
        "blocks": blocks,
        "rss_mb": rss_mb,
    }


def measure(seed: int, seconds: float, setups: int, trace_dir=None) -> Phase:
    span_s = WARMUP_S + seconds
    count = int(round(RATE_PER_S * span_s))
    requests = _requests(seed, count + 1)
    warm, requests = requests[-1], requests[:-1]
    offsets = _arrivals(seed, count, span_s)
    if trace_dir is not None:
        tracing.install(trace_dir)
    run = asyncio.run(_drive(requests, offsets, seconds, setups, warm))
    start, end = run["window"]
    inside = [f for f in run["finished"] if start <= f[2] < end]
    due_inside = [f for f in run["finished"] if start <= f[1] < end]
    latencies_ms = [(done - due) * 1e3 for _, due, done, _ in due_inside]
    lag_ms = [lag * 1e3 for lag in run["lag"]]
    behind = bool(
        percentile(lag_ms, 99) > BEHIND_SHARE * percentile(latencies_ms, 50)
    )
    responses = [f[3] for f in inside]
    return Phase(
        setup_s=run["setup_s"],
        window=run["window"],
        ops=len(inside),
        ops_per_s=len(inside) / (end - start),
        latency_ms=run["blocks"].latency_ms(),
        latencies_ms=latencies_ms,
        cpu_ms_per_op=run["blocks"].cpu_ms_per_op(),
        rss_mb=run["rss_mb"],
        energy_nj_per_op=statistics.fmean(
            f[3].result.energy_j * 1e9 for f in run["finished"]
        ),
        loc_error_m=0.0,
        attempted=count,
        failed=run["failed"],
        checker=InferChecker(SUBSTRATE, N_ITERATIONS),
        # Every scheduled request, which the seed alone decides.
        counted=spans_between(*run["scheduled"], count),
        records=[
            InferRecord(requests[i].inputs, requests[i].seed, response)
            for i, _, _, response in sorted(run["finished"], key=lambda f: f[0])
            if i % CHECK_EVERY == seed % CHECK_EVERY
        ],
        layer={
            "Batcher.wait_ms_p50": statistics.median(
                [r.queue_s * 1e3 for r in responses]
            ),
            "Batcher.batch_size_mean": statistics.fmean(
                r.batch_size for r in responses
            ),
        },
        report={
            "generator_lag_ms": {
                "p50": float(percentile(lag_ms, 50)),
                "p99": float(percentile(lag_ms, 99)),
                "max": float(max(lag_ms)),
            },
            "generator_behind": behind,
            "rate_per_s": RATE_PER_S,
        },
    )
