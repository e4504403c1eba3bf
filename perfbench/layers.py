"""Per-layer metrics of a traced run, and the overhead table.

A metric name is ``<span>.<stat>``, where the span is a traced function
(see :data:`perfbench.tracing.TARGETS`) and the stat one of
:data:`SPAN_STATS`.  The names that do not follow that pattern are
measured by the workload itself (``Phase.layer``) or combine two spans
(:func:`_derived`).  A metric whose layer did not run on the workload
reads 0.

Time stats come from the spans inside the timed window.  Count stats
(:data:`COUNT_STATS` and the executed-ops ratio) come from the
workload's deterministic subset of ops, so they repeat exactly between
runs of one seed.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from perfbench.tracing import SpanTable

SPAN_STATS = {
    "calls_per_op": lambda t, n, ops, jobs: t.calls[n] / ops,
    "rows_per_call": lambda t, n, ops, jobs: t.attrs[n]["rows"] / t.calls[n],
    "items_per_call": lambda t, n, ops, jobs: t.attrs[n]["rows"] / t.calls[n],
    "self_ms_per_op": lambda t, n, ops, jobs: t.self_s[n] * 1e3 / ops,
    "busy_ms_per_op": lambda t, n, ops, jobs: t.busy_s[n] * 1e3 / ops,
    "busy_ms_per_call": lambda t, n, ops, jobs: t.busy_s[n] * 1e3 / t.calls[n],
    "busy_ms_per_job": lambda t, n, ops, jobs: t.busy_s[n] * 1e3 / jobs,
}
COUNT_STATS = {"calls_per_op", "rows_per_call"}
EVERYTHING = (float("-inf"), float("inf"))


def track_step_spans(spans: list[dict], subset: set[tuple[str, int]]) -> list[dict]:
    """The spans run for the track steps in ``subset`` ((track id, step
    index) pairs), with their descendants.

    ``TrackStore.step_batch`` steps its items in order, one
    ``CIMParticleFilterLocalizer.step`` each, so the i-th such child of a
    batch span serves the batch's i-th item, and the k-th time a track
    appears in a batch is its step k.
    """
    children: dict = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    batches = sorted(
        (s for s in spans if s["name"] == "TrackStore.step_batch"),
        key=lambda s: s["start"],
    )
    seen: Counter = Counter()
    todo = []
    for batch in batches:
        steps = sorted(
            (c for c in children[batch["id"]]
             if c["name"] == "CIMParticleFilterLocalizer.step"),
            key=lambda s: s["start"],
        )
        for track_id, step in zip(batch["attrs"]["tracks"], steps):
            if (track_id, seen[track_id]) in subset:
                todo.append(step)
            seen[track_id] += 1
    selected = []
    while todo:
        span = todo.pop()
        selected.append(span)
        todo.extend(children[span["id"]])
    return selected


def _derived(table: SpanTable, counts: SpanTable) -> dict[str, float]:
    values = {}
    grouped = table.attrs["run_grouped"]
    if grouped["rows"]:
        # Items that reused a mask plan drawn for an earlier item of
        # their seed group.
        values["run_grouped.shared_plan_share"] = (
            1.0 - grouped["groups"] / grouped["rows"]
        )
    predict = counts.attrs["CIMMCDropoutEngine.predict"]
    if predict["ops_naive"]:
        values["CIMMCDropoutEngine.predict.ops_executed_ratio"] = (
            predict["ops_executed"] / predict["ops_naive"]
        )
    step_calls = [
        duration
        for duration, attrs in table.durations["WorkerPool.execute_track"]
        if attrs.get("op") == "steps"
    ]
    if step_calls:
        # Dispatch to the shard and back, minus the shard's own work.
        values["WorkerPool.execute_track.pipe_ms_per_call"] = (
            sum(step_calls) - table.busy_s["TrackStore.step_batch"]
        ) * 1e3 / len(step_calls)
    if table.calls["_Handler.do_POST"]:
        values["http.handler_ms_per_request"] = (
            table.busy_s["_Handler.do_POST"] * 1e3
            / table.calls["_Handler.do_POST"]
        )
    return values


def layer_metrics(
    names: list[str],
    table: SpanTable,
    ops: int,
    counts: SpanTable,
    count_ops: int,
    jobs: int,
    measured: dict[str, float],
) -> dict[str, float]:
    """Every per-layer metric in ``names``; 0 where the layer did not run."""
    derived = _derived(table, counts)
    if "http.client_ms_per_request" in measured and derived.get(
        "http.handler_ms_per_request"
    ):
        # The client's round trip minus the server's handler time.
        derived["http.transport_ms_per_request"] = (
            measured["http.client_ms_per_request"]
            - derived["http.handler_ms_per_request"]
        )
    values = {}
    for name in names:
        span, _, stat = name.rpartition(".")
        source, n = (counts, count_ops) if stat in COUNT_STATS else (table, ops)
        if name in measured:
            values[name] = float(measured[name])
        elif name in derived:
            values[name] = derived[name]
        elif stat in SPAN_STATS and source.calls.get(span) and n:
            values[name] = float(SPAN_STATS[stat](source, span, n, max(jobs, 1)))
        else:
            values[name] = 0.0
    return values


def overhead_table(table: SpanTable, ops: int) -> list[str]:
    """Self time per op of each traced layer module, largest first."""
    rows = sorted(table.self_ms_by_module().items(), key=lambda kv: -kv[1])
    return [f"  {module:40s} {ms / max(ops, 1):10.4f} ms/op" for module, ms in rows]
