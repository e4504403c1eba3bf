"""Benchmark of the repo's serving and sweep paths, run from outside the program.

    python3 perfbench/run.py --workload track-http --seed 1 --seconds 25 --trace 0

Workloads (see ``perfbench/layers.json`` for why each exists and which
layer metric should move which end-to-end metric):

- ``track-fleet``: 256 in-process streaming tracks, closed loop.  Not
  listed in BENCHMARK.json, whose bounds its run-to-run spread on a
  shared host exceeds; run it by name or with ``--workload all``.
- ``track-http``: ``repro serve --tracks --workers 1`` over HTTP, two
  connections each streaming 8-step tracks.
- ``infer-mix``: open-loop Poisson MC-Dropout requests, half on seed 0.
- ``scenario-sweep``: two paper-size scenarios x cim/digital on a
  two-worker ``ParallelExecutor``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once with span recorders around each layer,
and prints the per-layer metrics, the overhead table and the tracing
overhead.  Every output that is checked against the repo's determinism
oracles feeds ``failed``; the command exits 1 when any check fails.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {
    "track-fleet": "track_fleet",
    "track-http": "track_http",
    "infer-mix": "infer_mix",
    "scenario-sweep": "scenario_sweep",
}


def _end_to_end(phase) -> dict[str, float]:
    return {
        "setup_s": statistics.median(phase.setup_s),
        "ops_per_s": phase.ops_per_s,
        "latency_p50_ms": phase.latency_ms,
        "success_rate": 1.0 - phase.failed / max(phase.attempted, 1),
        "host_cpu_ms_per_op": phase.cpu_ms_per_op,
        "peak_rss_mb": phase.rss_mb,
        "sim_energy_nj_per_op": phase.energy_nj_per_op,
    }


def _check(phase) -> tuple[int, list[str], bool]:
    """(failed outputs, messages, self-test passed) over the phase's sample."""
    from perfbench.checks import self_test

    messages = []
    for record in phase.records:
        messages.extend(phase.checker.check(record))
    caught = bool(phase.records) and self_test(phase.checker, phase.records[0])
    return len(messages), messages, caught


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS) + ["all"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                check=False,
            ).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.common import environment, percentile
    from perfbench.layers import EVERYTHING, layer_metrics, overhead_table
    from perfbench.tracing import SpanTable, flush, load_spans

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    workload = importlib.import_module(
        f"perfbench.workloads.{WORKLOADS[args.workload]}"
    )
    print("env " + json.dumps(environment(args.seed), sort_keys=True), flush=True)

    if args.trace:
        trace_dir = ROOT / ".perfbench" / f"trace-{args.workload}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        untraced = workload.measure(args.seed, args.seconds, 1)
        phase = workload.measure(args.seed, args.seconds, 1, trace_dir)
        phases = [untraced, phase]
    else:
        phase = workload.measure(args.seed, args.seconds, workload.SETUPS)
        phases = [phase]

    failed, messages, caught = 0, [], True
    attempted = 0
    for measured in phases:
        bad, found, passed = _check(measured)
        failed += measured.failed + bad
        attempted += measured.attempted
        messages += found
        caught = caught and passed
    for message in messages[:20]:
        print(f"mismatch: {message}")
    checked = sum(len(p.records) for p in phases)
    print(f"checks: {checked} sampled outputs compared bit-for-bit, "
          f"{len(messages)} mismatches; checker self-test "
          f"{'caught' if caught else 'MISSED'} a corrupted output")
    print(f"latency_ms: p50 {percentile(phase.latencies_ms, 50):.3f}, "
          f"p99 {percentile(phase.latencies_ms, 99):.3f} over "
          f"{len(phase.latencies_ms)} samples; {phase.ops} ops in a "
          f"{phase.window[1] - phase.window[0]:.2f} s window; "
          f"setups_s {phase.setup_s}")
    for key, value in sorted(phase.report.items()):
        print(f"{key}: {value}")

    if args.trace:
        flush()
        spans = load_spans(trace_dir)
        shutil.rmtree(trace_dir, ignore_errors=True)
        table = SpanTable(spans, phase.window)
        count_spans, count_ops = phase.counted(spans)
        counts = SpanTable(count_spans, EVERYTHING)
        names = [m["name"] for m in spec["per_layer"]]
        measured = dict(phase.layer)
        measured["ParticleFilter.step.loc_error_m"] = phase.loc_error_m
        measured["trace.overhead_share"] = 1.0 - phase.ops_per_s / untraced.ops_per_s
        metrics = layer_metrics(
            names, table, phase.ops, counts, count_ops, phase.jobs, measured
        )
        print(f"overhead table ({args.workload}, self time per op by layer module):")
        for line in overhead_table(table, phase.ops):
            print(line)
        print(f"tracing overhead: untraced {untraced.ops_per_s:.3f} ops/s, "
              f"traced {phase.ops_per_s:.3f} ops/s "
              f"({metrics['trace.overhead_share']:+.1%}); host CPU "
              f"{untraced.cpu_ms_per_op:.3f} vs {phase.cpu_ms_per_op:.3f} ms/op")
    else:
        metrics = _end_to_end(phase)
        print(f"error_rate: {failed / max(attempted, 1):.6f}")

    correct = failed == 0 and caught
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
