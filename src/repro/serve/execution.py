"""Micro-batch execution inside a worker shard.

Every assembled micro-batch runs in a shard loop of
:mod:`repro.serve.workers`, whether that loop is hosted on a thread of
the serving process or in a spawned shard process, so the per-request
determinism contract cannot depend on the deployment shape.  This
module is the code the loop runs:

- :func:`reference_run` -- the determinism oracle: what one standalone
  pinned-mask ``session.run`` produces for a request seed.
- :func:`run_grouped` -- executes a micro-batch of wire-level request
  items grouped by seed, handing every item a generator restored to the
  exact post-draw state its standalone reference run would consume, so
  coalescing (and sharding) changes throughput, never bits.

Items travel as plain ``(inputs, seed, request_id)`` tuples rather than
request objects so the same payload can cross a multiprocessing pipe
unchanged.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.api.results import InferenceResult
from repro.api.substrates import MaskPlan, MCDropoutSession
from repro.serve.types import (
    InferenceResponse,
    RequestExecutionError,
)

# One wire-level request inside a micro-batch: (inputs, seed, request_id).
RequestItem = tuple[np.ndarray, int, Optional[str]]

Outcome = Union[InferenceResponse, RequestExecutionError]


def reference_run(
    session: MCDropoutSession, inputs: np.ndarray, seed: int
) -> InferenceResult:
    """The per-request determinism oracle.

    One base generator seeded with the request seed draws (and orders)
    the mask plan, then the *same* generator -- now advanced past the
    draw -- feeds the pinned-mask run.  The service reproduces this
    exactly for every request by snapshotting the post-draw generator
    state and handing each coalesced item a generator restored to it.
    """
    base = np.random.default_rng(seed)
    plan = session.draw_masks(base)
    return session.run(inputs, rng=base, masks=plan)


def post_draw_generators(
    session: MCDropoutSession, seed: int, count: int
) -> tuple[MaskPlan, list[np.random.Generator]]:
    """One shared mask plan plus ``count`` identical post-draw generators."""
    base = np.random.default_rng(seed)
    plan = session.draw_masks(base)
    state = base.bit_generator.state
    generators = []
    for _ in range(count):
        generator = np.random.default_rng(0)
        generator.bit_generator.state = state
        generators.append(generator)
    return plan, generators


def run_grouped(
    session: MCDropoutSession,
    substrate: str,
    model: str,
    items: Sequence[RequestItem],
) -> list[Outcome]:
    """Run one micro-batch of request items on a borrowed session.

    Items are grouped by seed; each group shares one mask-plan draw and
    every item gets a generator restored to the post-draw state, which
    is exactly what :func:`reference_run` would hand a standalone run --
    so neither batch composition nor the executing process changes bits.

    Returns one outcome per item, in item order: an
    :class:`InferenceResponse` on success, or a
    :class:`RequestExecutionError` (original exception chained as
    ``__cause__``) for every item of a group whose execution raised.
    """
    groups: dict[int, list[int]] = {}
    for index, (_, seed, _) in enumerate(items):
        groups.setdefault(int(seed), []).append(index)
    outcomes: list[Optional[Outcome]] = [None] * len(items)
    for seed, indexes in groups.items():
        try:
            plan, generators = post_draw_generators(
                session, seed, len(indexes)
            )
            result = session.run_batch(
                [items[i][0] for i in indexes],
                masks=plan,
                item_rngs=generators,
            )
            for position, index in enumerate(indexes):
                request_id = items[index][2]
                outcomes[index] = InferenceResponse(
                    result=result.results[position],
                    substrate=substrate,
                    model=model,
                    seed=seed,
                    request_id=request_id,
                    batch_size=len(items),
                    group_size=len(indexes),
                )
        except Exception as error:
            # Mark it as an *execution* failure (vs a submission-time
            # client error) so transports can answer 500, not 400.
            wrapped = RequestExecutionError(
                f"{type(error).__name__}: {error}"
            )
            wrapped.__cause__ = error
            for index in indexes:
                outcomes[index] = wrapped
    return [outcome for outcome in outcomes if outcome is not None]


__all__ = [
    "Outcome",
    "RequestItem",
    "post_draw_generators",
    "reference_run",
    "run_grouped",
]
