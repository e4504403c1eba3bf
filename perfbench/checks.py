"""Inputs and output checks of the workloads.

Every checker compares served outputs bit-for-bit with the repo's own
determinism oracles -- :func:`repro.serve.reference_track_run`,
:func:`repro.serve.reference_run` and a serial in-process rerun of a
sweep job -- and returns one mismatch message per output that differs.
:func:`self_test` feeds a checker one deliberately corrupted output and
requires it to be caught, so a checker that passes everything fails the
run.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

STREAM_STEPS = 48
INIT_SIGMA = 0.05


class TrackStreams:
    """The demo world's measurement stream, made cyclic.

    A track starts at stream position ``offset``, holds station on its
    first step and then follows the orbit, wrapping from the last state
    to the first.  Every track sends the same kind of measurement; the
    workload seed picks each track's offset and filter seed.
    """

    def __init__(self) -> None:
        from repro.scene.trajectory import states_to_controls
        from repro.serve.demo import demo_track_measurements, demo_track_world

        self.world = demo_track_world()
        _, self.depths, self.truths = demo_track_measurements(STREAM_STEPS)
        # into[j]: the control that moves the drone onto stream position j.
        ahead = states_to_controls(np.vstack([self.truths, self.truths[:1]]))
        self.into = np.roll(ahead, 1, axis=0)
        self.hold = np.zeros(self.truths.shape[1])

    def init(self, offset: int) -> Any:
        from repro.serve import TrackInit

        return TrackInit(
            mode="tracking",
            state=self.truths[offset],
            sigma=np.full(self.truths.shape[1], INIT_SIGMA),
        )

    def step(self, offset: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(control, depth, truth)`` of a track's ``k``-th step."""
        j = (offset + k) % STREAM_STEPS
        control = self.hold if k == 0 else self.into[j]
        return control, self.depths[j], self.truths[j]

    def measurements(self, offset: int, n: int) -> tuple:
        steps = [self.step(offset, k) for k in range(n)]
        return (
            np.array([s[0] for s in steps]),
            [s[1] for s in steps],
            np.array([s[2] for s in steps]),
        )


@dataclass
class TrackRecord:
    """One served track: what was sent and every step response received."""

    substrate: str
    offset: int
    seed: int
    track_id: str = ""
    responses: list[Any] = field(default_factory=list)
    broken: bool = False  # a step failed, so the stream no longer matches


class TrackChecker:
    """Streamed steps vs :func:`repro.serve.reference_track_run`: every
    estimate, and the cumulative energy and op count of the last step."""

    def __init__(self, streams: TrackStreams):
        self.streams = streams

    def check(self, record: TrackRecord) -> list[str]:
        from repro.serve import reference_track_run

        n = len(record.responses)
        if n == 0:
            return []
        reference = reference_track_run(
            self.streams.world,
            record.substrate,
            self.streams.init(record.offset),
            record.seed,
            self.streams.measurements(record.offset, n),
        )
        problems = []
        for k, response in enumerate(record.responses):
            if not np.array_equal(
                np.asarray(response.estimate), reference.mean[k]
            ):
                problems.append(
                    f"track seed {record.seed} step {k}: estimate differs"
                )
        last = record.responses[-1]
        if last.energy_j != reference.energy_j:
            problems.append(
                f"track seed {record.seed}: cumulative energy "
                f"{last.energy_j!r} != {reference.energy_j!r}"
            )
        if last.ops_executed != reference.ops_executed:
            problems.append(
                f"track seed {record.seed}: cumulative ops "
                f"{last.ops_executed} != {reference.ops_executed}"
            )
        return problems

    @staticmethod
    def corrupt(record: TrackRecord) -> TrackRecord:
        bad = copy.deepcopy(record)
        last = bad.responses[-1]
        last.energy_j = float(np.nextafter(last.energy_j, np.inf))
        return bad


@dataclass
class InferRecord:
    inputs: np.ndarray
    seed: int
    response: Any


class InferChecker:
    """Served MC-Dropout responses vs :func:`repro.serve.reference_run` on
    an identically built session: mean, variance, ops and energy."""

    def __init__(self, substrate: str, n_iterations: int):
        from repro.serve import build_reference_session
        from repro.serve.demo import demo_model

        self.session = build_reference_session(
            substrate, demo_model(), n_iterations=n_iterations
        )

    def check(self, record: InferRecord) -> list[str]:
        from repro.serve import reference_run

        expected = reference_run(self.session, record.inputs, record.seed)
        got = record.response.result
        same = (
            np.array_equal(got.mean, expected.mean)
            and np.array_equal(got.variance, expected.variance)
            and got.ops_executed == expected.ops_executed
            and got.energy_j == expected.energy_j
        )
        return [] if same else [f"infer seed {record.seed}: result differs"]

    @staticmethod
    def corrupt(record: InferRecord) -> InferRecord:
        bad = copy.deepcopy(record)
        bad.response.result.mean = np.nextafter(
            bad.response.result.mean, np.inf
        )
        return bad


@dataclass
class SweepRecord:
    job: Any
    metrics: dict


class SweepChecker:
    """A sweep job's metrics vs a serial in-process rerun of the same job."""

    def __init__(self) -> None:
        self._expected: dict[str, str] = {}

    def check(self, record: SweepRecord) -> list[str]:
        job_id = record.job.job_id
        if job_id not in self._expected:
            from repro.api.results import ExperimentResult
            from repro.runtime.executor import run_job_payload

            payload = run_job_payload(record.job.to_jsonable())
            if payload["status"] != "ok":
                return [f"{job_id}: serial rerun failed"]
            metrics = ExperimentResult.from_dict(payload["result"]).metrics
            self._expected[job_id] = json.dumps(metrics, sort_keys=True)
        if json.dumps(record.metrics, sort_keys=True) != self._expected[job_id]:
            return [f"{job_id}: metrics differ from the serial rerun"]
        return []

    @staticmethod
    def corrupt(record: SweepRecord) -> SweepRecord:
        bad = copy.deepcopy(record)
        bad.metrics["energy_j"] = float(
            np.nextafter(bad.metrics["energy_j"], np.inf)
        )
        return bad


def self_test(checker: Any, record: Any) -> bool:
    """True when ``checker`` flags a corrupted copy of ``record``, so the
    error rate over that one output is above 0."""
    return bool(checker.check(checker.corrupt(record)))
