"""Measurement helpers shared by the workloads: statistics, the process
tree's CPU time and memory, and the environment stamp."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _process_table() -> dict[int, tuple[int, float, str]]:
    """pid -> (ppid, cpu seconds incl. reaped children, status path).

    /proc counts in clock ticks; this process's own time is read from
    ``time.process_time`` instead, which resolves nanoseconds.
    """
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            raw = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = raw[raw.rindex(")") + 2:].split()
        ppid = int(fields[1])
        pid = int(entry)
        if pid == os.getpid():
            cpu = time.process_time() + sum(map(int, fields[13:15])) / _CLOCK_TICKS
        else:
            cpu = sum(map(int, fields[11:15])) / _CLOCK_TICKS
        table[pid] = (ppid, cpu, f"/proc/{entry}/status")
    return table


def _tree(table: dict, root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for pid, (ppid, _, _) in table.items():
        children.setdefault(ppid, []).append(pid)
    found, todo = [], [root]
    while todo:
        pid = todo.pop()
        if pid in table:
            found.append(pid)
            todo.extend(children.get(pid, []))
    return found


def tree_cpu_s() -> float:
    """User+system CPU seconds of this process and its descendants,
    including children it has already reaped."""
    table = _process_table()
    return sum(table[pid][1] for pid in _tree(table, os.getpid()))


def tree_peak_rss_mb() -> float:
    """Sum over this process and its live descendants of each one's peak
    RSS (VmHWM)."""
    table = _process_table()
    total_kb = 0
    for pid in _tree(table, os.getpid()):
        try:
            for line in Path(table[pid][2]).read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def environment(seed: int) -> dict[str, Any]:
    """Where and on what a result was measured."""
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit, dirty = "unknown", None
    try:
        # Stop git at the checkout: a repository above it is not ours.
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True, env=env,
        ).stdout.strip()
        dirty = bool(subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True, env=env,
        ).stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass  # not a git checkout: the commit stays "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "git_dirty": dirty,
        "seed": seed,
    }


# The host this benchmark was tuned on changes speed by up to 1.6x in
# spells of about a minute; the 90th-percentile block still lands in a
# fast spell when a tenth of the window does.
FAST_PERCENTILE = 90


class Blocks:
    """Throughput, latency and CPU of a timed window, block by block.

    The window is cut after every ``size``-th completed op; each block
    gives one rate, one median latency and one CPU time per op.  A run
    reports the :data:`FAST_PERCENTILE` block -- the fast side for rates,
    the cheap side for latency and CPU -- because on a shared host noise
    only ever slows a block down, so the fast blocks estimate the
    program's own speed best (Chen & Revels, arXiv:1608.04295).
    """

    def __init__(self, size: int):
        self.size = size
        self.marks: list[tuple[float, float, int]] = []
        self.medians: list[float] = []
        self._latencies: list[float] = []
        self._open = False

    def start(self, completed: int) -> None:
        self.marks = [(time.perf_counter(), tree_cpu_s(), completed)]
        self._open = True

    def stop(self) -> None:
        self._open = False

    def add(self, completed: int, latency_ms: float) -> None:
        """Count one completed op (``completed`` ops so far)."""
        if not self._open:
            return
        self._latencies.append(latency_ms)
        if completed - self.marks[-1][2] >= self.size:
            self.marks.append((time.perf_counter(), tree_cpu_s(), completed))
            self.medians.append(statistics.median(self._latencies))
            self._latencies = []

    def ops_per_s(self) -> float:
        rates = [
            (c1 - c0) / (t1 - t0)
            for (t0, _, c0), (t1, _, c1) in zip(self.marks, self.marks[1:])
        ]
        return percentile(rates, FAST_PERCENTILE)

    def latency_ms(self) -> float:
        return percentile(self.medians, 100 - FAST_PERCENTILE)

    def cpu_ms_per_op(self) -> float:
        costs = [
            (u1 - u0) * 1e3 / (c1 - c0)
            for (_, u0, c0), (_, u1, c1) in zip(self.marks, self.marks[1:])
        ]
        return percentile(costs, 100 - FAST_PERCENTILE)


@dataclass
class Phase:
    """What one measured phase of a workload produced.

    ``window`` is the timed interval (``time.perf_counter`` seconds);
    ``ops`` completed inside it.  ``ops_per_s``, ``latency_ms`` (the
    gated p50) and ``cpu_ms_per_op`` are the run's figures; every latency
    sample of the window is kept in ``latencies_ms`` for the report.
    ``records`` are the outputs handed to ``checker``; ``layer`` holds
    per-layer values the workload measures itself (batch sizes, queue
    waits, job times).  The deterministic
    figures -- energy, localization error and the per-op call and row
    counts -- cover a fixed subset of the ops that does not depend on
    timing: ``counted`` picks that subset's spans out of a traced run's
    spans and returns them with the number of ops they cover.
    """

    setup_s: list[float]
    window: tuple[float, float]
    ops: int
    ops_per_s: float
    latency_ms: float
    latencies_ms: list[float]
    cpu_ms_per_op: float
    rss_mb: float
    energy_nj_per_op: float
    loc_error_m: float
    attempted: int
    failed: int
    checker: Any
    records: list
    counted: Callable[[list], tuple[list, int]]
    jobs: int = 0
    layer: dict[str, float] = field(default_factory=dict)
    report: dict[str, Any] = field(default_factory=dict)


def spans_between(start: float, end: float, ops: int) -> Callable:
    """A ``Phase.counted`` that keeps the spans starting in ``[start, end)``."""

    def counted(spans: list) -> tuple[list, int]:
        return [s for s in spans if start <= s["start"] < end], ops

    return counted
