"""``track-http``: ``repro serve --tracks --workers 1`` over live HTTP.

Two client connections run closed loops; each repeatedly opens a track
(alternating ``cim`` and ``digital``), streams 8 steps and closes it.
One drone per connection keeps micro-batches at 2 or fewer, so HTTP/JSON,
the shard pipe and the track open/close path carry most of each step.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from perfbench.checks import STREAM_STEPS, TrackChecker, TrackRecord, TrackStreams
from perfbench.common import ROOT, Blocks, Phase, tree_peak_rss_mb
from perfbench.layers import track_step_spans
from perfbench.tracing import TRACE_DIR_ENV

CONNECTIONS = 2
STEPS_PER_TRACK = 8
SUBSTRATES = ("cim", "digital")
SERVE_ARGS = [
    "-m", "repro", "serve", "--tracks", "--workers", "1",
    "--track-substrates", ",".join(SUBSTRATES), "--port", "0",
]
WARMUP_S = 1.0
# Energy and error cover the first QUALITY_TRACKS tracks, and every
# CHECK_EVERY-th track (up to CHECK_TRACKS) is checked bit-for-bit.
QUALITY_TRACKS = 16
CHECK_EVERY = 8
CHECK_TRACKS = 16
SETUPS = 3
BLOCK_OPS = 128
START_TIMEOUT_S = 150.0
STOP_TIMEOUT_S = 30.0


async def _post(port: int, path: str, body: str) -> tuple[int, bytes]:
    """One HTTP request on its own connection (the server closes it)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        data = body.encode()
        writer.write(
            f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(data)}"
            "\r\nConnection: close\r\n\r\n".encode() + data
        )
        await writer.drain()
        reply = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, payload = reply.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), payload


class Server:
    """One ``repro serve`` subprocess; its port comes from its banner."""

    def __init__(self, trace_dir: Path | None, log_path: Path):
        self.trace_dir = trace_dir
        self.log_path = log_path
        self.process: asyncio.subprocess.Process | None = None
        self.port = 0

    async def start(self) -> None:
        env = dict(os.environ)
        paths = [str(ROOT / "src")]
        if self.trace_dir is not None:
            paths.insert(0, str(ROOT / "perfbench" / "hook"))
            env[TRACE_DIR_ENV] = str(self.trace_dir)
        env["PYTHONPATH"] = os.pathsep.join(paths)
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.log_path, "ab") as log:
            self.process = await asyncio.create_subprocess_exec(
                sys.executable, *SERVE_ARGS, cwd=ROOT, env=env,
                stdout=asyncio.subprocess.PIPE, stderr=log,
            )
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            line = await asyncio.wait_for(
                self.process.stdout.readline(),
                max(0.1, deadline - time.monotonic()),
            )
            if not line:
                raise RuntimeError(
                    f"repro serve exited during start-up; see {self.log_path}"
                )
            found = re.search(rb"http://[\d.]+:(\d+)", line)
            if found:
                self.port = int(found.group(1))
                return

    async def stop(self) -> None:
        if self.process is None or self.process.returncode is not None:
            return
        self.process.send_signal(signal.SIGTERM)
        try:
            await asyncio.wait_for(self.process.wait(), STOP_TIMEOUT_S)
        except asyncio.TimeoutError:
            self.process.kill()
            await self.process.wait()


class Client:
    """The two connections' closed loops and everything they saw."""

    def __init__(self, streams: TrackStreams, seed: int):
        self.streams = streams
        self.seed = seed
        self.records: list[TrackRecord] = []
        self.steps: list[tuple[float, float, object]] = []
        self.round_trips: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.stop = False
        self.blocks = Blocks(BLOCK_OPS)

    def new_track(self) -> TrackRecord:
        index = len(self.records)
        rng = np.random.default_rng([self.seed, index])
        record = TrackRecord(
            SUBSTRATES[index % len(SUBSTRATES)],
            int(rng.integers(STREAM_STEPS)),
            int(rng.integers(2**31)),
        )
        self.records.append(record)
        return record

    async def request(self, port: int, path: str, body: str) -> bytes | None:
        self.attempted += 1
        sent = time.perf_counter()
        try:
            status, payload = await _post(port, path, body)
        except OSError:
            status, payload = 0, b""
        self.round_trips.append((sent, time.perf_counter()))
        if status != 200:
            self.failed += 1
            return None
        return payload

    async def open_track(self, port: int, record: TrackRecord) -> str | None:
        from repro.api.results import strict_loads
        from repro.serve import TrackOpenRequest

        body = TrackOpenRequest(
            init=self.streams.init(record.offset),
            substrate=record.substrate,
            seed=record.seed,
        ).to_json()
        payload = await self.request(port, "/track/open", body)
        return None if payload is None else strict_loads(payload)["track_id"]

    async def run_track(self, port: int) -> None:
        from repro.api.results import strict_dumps
        from repro.serve import TrackStepRequest, TrackStepResponse

        record = self.new_track()
        track_id = await self.open_track(port, record)
        if track_id is None:
            record.broken = True
            return
        record.track_id = track_id
        for k in range(STEPS_PER_TRACK):
            control, depth, truth = self.streams.step(record.offset, k)
            body = TrackStepRequest(
                track_id=track_id, control=control, depth=depth, truth=truth
            ).to_json()
            sent = time.perf_counter()
            payload = await self.request(port, "/track/step", body)
            if payload is None:
                record.broken = True
                break
            response = TrackStepResponse.from_json(payload.decode())
            finished = time.perf_counter()
            self.steps.append((sent, finished, response))
            self.blocks.add(len(self.steps), (finished - sent) * 1e3)
            record.responses.append(response)
        await self.request(
            port, "/track/close", strict_dumps({"track_id": track_id})
        )

    async def loop(self, port: int) -> None:
        while not self.stop:
            await self.run_track(port)


async def _drive(streams, seed, seconds, setups, trace_dir) -> dict:
    log_path = ROOT / ".perfbench" / "serve.log"
    setup_s = []
    probe = Client(streams, seed)
    server = None
    try:
        for attempt in range(setups):
            server = Server(trace_dir, log_path)
            start = time.perf_counter()
            await server.start()
            record = probe.new_track()
            track_id = await probe.open_track(server.port, record)
            setup_s.append(time.perf_counter() - start)
            if track_id is None:
                raise RuntimeError("the first /track/open failed")
            if attempt < setups - 1:
                await server.stop()
        client = Client(streams, seed)
        loops = [
            asyncio.create_task(client.loop(server.port))
            for _ in range(CONNECTIONS)
        ]
        try:
            await asyncio.sleep(WARMUP_S)
            start = time.perf_counter()
            client.blocks.start(len(client.steps))
            await asyncio.sleep(seconds)
            client.blocks.stop()
            end = time.perf_counter()
            rss_mb = tree_peak_rss_mb()
        finally:
            client.stop = True
            await asyncio.gather(*loops)
    finally:
        if server is not None:
            await server.stop()
    return {
        "setup_s": setup_s,
        "client": client,
        "window": (start, end),
        "rss_mb": rss_mb,
    }


def measure(seed: int, seconds: float, setups: int, trace_dir=None) -> Phase:
    streams = TrackStreams()
    run = asyncio.run(_drive(streams, seed, seconds, setups, trace_dir))
    client: Client = run["client"]
    start, end = run["window"]
    inside = [(s, d, r) for s, d, r in client.steps if start <= d < end]
    trips = [d - s for s, d in client.round_trips if start <= d < end]
    quality = [
        response
        for record in client.records[:QUALITY_TRACKS]
        for response in record.responses
    ]
    subset = {
        (record.track_id, k)
        for record in client.records[:QUALITY_TRACKS]
        for k in range(len(record.responses))
    }
    checked = [
        record
        for record in client.records[seed % CHECK_EVERY::CHECK_EVERY]
        if not record.broken
    ][:CHECK_TRACKS]
    return Phase(
        setup_s=run["setup_s"],
        window=run["window"],
        ops=len(inside),
        ops_per_s=client.blocks.ops_per_s(),
        latency_ms=client.blocks.latency_ms(),
        latencies_ms=[(d - s) * 1e3 for s, d, _ in inside],
        cpu_ms_per_op=client.blocks.cpu_ms_per_op(),
        rss_mb=run["rss_mb"],
        energy_nj_per_op=statistics.fmean(
            r.step_energy_j * 1e9 for r in quality
        ),
        loc_error_m=statistics.fmean(r.error_m for r in quality),
        attempted=client.attempted,
        failed=client.failed,
        checker=TrackChecker(streams),
        counted=lambda spans: (track_step_spans(spans, subset), len(subset)),
        records=checked,
        layer={
            "Batcher.wait_ms_p50": statistics.median(
                [r.queue_s * 1e3 for _, _, r in inside]
            ),
            "Batcher.batch_size_mean": statistics.fmean(
                r.batch_size for _, _, r in inside
            ),
            "http.client_ms_per_request": statistics.fmean(trips) * 1e3,
        },
        report={"tracks": len(client.records)},
    )
