"""``track-fleet``: 256 in-process streaming tracks in a closed loop.

Each track sends its next measurement as soon as its previous step
returns, so up to 256 tiny steps (48 particles x 16 pixels) wait
together and the batcher fills micro-batches of 32: per-call fixed cost
dominates, which is what cross-track fusion would cut.
"""

from __future__ import annotations

import asyncio
import statistics
import time

import numpy as np

from perfbench import tracing
from perfbench.checks import STREAM_STEPS, TrackChecker, TrackRecord, TrackStreams
from perfbench.common import Blocks, Phase, tree_peak_rss_mb
from perfbench.layers import track_step_spans

N_TRACKS = 256
SUBSTRATE = "cim"
MAX_BATCH = 32
MAX_WAIT_MS = 2.0
WARMUP_S = 1.0
# Energy and error cover the first QUALITY_STEPS steps of every track,
# a set of outputs that does not depend on timing.
QUALITY_STEPS = 4
CHECK_TRACKS = 16
BLOCK_OPS = 256
SETUPS = 5


async def _open_fleet(streams: TrackStreams, offsets, seeds):
    from repro.runtime import BatchPolicy
    from repro.serve import InferenceService
    from repro.serve.demo import demo_model

    start = time.perf_counter()
    service = InferenceService(
        demo_model(),
        substrates=[SUBSTRATE],
        batch=BatchPolicy(max_batch=MAX_BATCH, max_wait_ms=MAX_WAIT_MS),
        track_world=streams.world,
        track_substrates=[SUBSTRATE],
    )
    await service.start()
    handles = await asyncio.gather(
        *(
            service.open_track(
                SUBSTRATE, init=streams.init(int(offset)), seed=int(seed)
            )
            for offset, seed in zip(offsets, seeds)
        )
    )
    return service, handles, time.perf_counter() - start


async def _drive(streams, offsets, seeds, checked, seconds, setups) -> dict:
    setup_s = []
    for attempt in range(setups):
        service, handles, elapsed = await _open_fleet(streams, offsets, seeds)
        setup_s.append(elapsed)
        if attempt < setups - 1:
            await service.stop()
    records = [
        TrackRecord(SUBSTRATE, int(offset), int(seed), handle.track_id)
        for offset, seed, handle in zip(offsets, seeds, handles)
    ]
    state = {"stop": False, "attempted": 0, "failed": 0}
    # (sent, done, queue_s, batch_size) per step; responses are kept only
    # where they are checked or summed, to keep the heap small.
    done: list[tuple[float, float, float, int]] = []
    blocks = Blocks(BLOCK_OPS)

    async def client(index: int) -> None:
        record, handle = records[index], handles[index]
        keep_all = index in checked
        k = 0
        while not state["stop"]:
            control, depth, truth = streams.step(record.offset, k)
            state["attempted"] += 1
            sent = time.perf_counter()
            try:
                response = await handle.step(control, depth, truth)
            except Exception:
                state["failed"] += 1
                record.broken = True
                return
            finished = time.perf_counter()
            done.append((sent, finished, response.queue_s, response.batch_size))
            blocks.add(len(done), (finished - sent) * 1e3)
            if keep_all or k < QUALITY_STEPS:
                record.responses.append(response)
            k += 1

    tasks = [asyncio.create_task(client(i)) for i in range(len(records))]
    try:
        await asyncio.sleep(WARMUP_S)
        start = time.perf_counter()
        blocks.start(len(done))
        await asyncio.sleep(seconds)
        blocks.stop()
        end = time.perf_counter()
        rss_mb = tree_peak_rss_mb()
    finally:
        state["stop"] = True
        await asyncio.gather(*tasks)
        await service.stop()
    return {
        "setup_s": setup_s,
        "records": records,
        "done": done,
        "window": (start, end),
        "blocks": blocks,
        "rss_mb": rss_mb,
        "attempted": state["attempted"],
        "failed": state["failed"],
    }


def measure(seed: int, seconds: float, setups: int, trace_dir=None) -> Phase:
    streams = TrackStreams()
    rng = np.random.default_rng(seed)
    offsets = rng.integers(STREAM_STEPS, size=N_TRACKS)
    seeds = rng.integers(2**31, size=N_TRACKS)
    checked = {int(i) for i in rng.choice(N_TRACKS, CHECK_TRACKS, replace=False)}
    if trace_dir is not None:
        tracing.install(trace_dir)
    run = asyncio.run(
        _drive(streams, offsets, seeds, checked, seconds, setups)
    )
    start, end = run["window"]
    inside = [step for step in run["done"] if start <= step[1] < end]
    quality = [
        response
        for record in run["records"]
        for response in record.responses[:QUALITY_STEPS]
    ]
    subset = {
        (record.track_id, k)
        for record in run["records"]
        for k in range(len(record.responses[:QUALITY_STEPS]))
    }
    return Phase(
        setup_s=run["setup_s"],
        window=run["window"],
        ops=len(inside),
        ops_per_s=run["blocks"].ops_per_s(),
        latency_ms=run["blocks"].latency_ms(),
        latencies_ms=[(step[1] - step[0]) * 1e3 for step in inside],
        cpu_ms_per_op=run["blocks"].cpu_ms_per_op(),
        rss_mb=run["rss_mb"],
        energy_nj_per_op=statistics.fmean(
            r.step_energy_j * 1e9 for r in quality
        ),
        loc_error_m=statistics.fmean(r.error_m for r in quality),
        attempted=run["attempted"],
        failed=run["failed"],
        checker=TrackChecker(streams),
        counted=lambda spans: (track_step_spans(spans, subset), len(subset)),
        records=[
            run["records"][i] for i in sorted(checked)
            if not run["records"][i].broken
        ],
        layer={
            "Batcher.wait_ms_p50": statistics.median(
                [step[2] * 1e3 for step in inside]
            ),
            "Batcher.batch_size_mean": statistics.fmean(
                step[3] for step in inside
            ),
        },
    )
