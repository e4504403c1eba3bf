"""How every served MC-Dropout session is built.

Building a CIM session is expensive -- weight programming with frozen
mismatch, ADC/DAC calibration, hardware-RNG bias trimming -- so each
worker shard (:mod:`repro.serve.workers`) builds its sessions **once**
at warm-up, with :func:`build_reference_session`, and serves from them
for its lifetime.

Determinism requires the warm-up to be reproducible, so a session is
always

- constructed with ``np.random.default_rng(session_seed)`` (fixing the
  hardware instance: mismatch draws, comparator offsets, RNG trim), and
- **calibrated**.  Without calibration a macro pins its input-DAC grid
  lazily from the first input it serves, which would make results
  depend on request history; calibration pins every grid up front, so
  ``run()`` is stateless with respect to results.  When the caller has
  no representative inputs, deterministic standard-normal ones are
  synthesized from ``session_seed`` (:func:`default_calibration_inputs`).

The same function rebuilds the session from scratch for the parity
tests and the CI smoke step, which compare service responses against
it.
"""

from __future__ import annotations

import numpy as np

from repro.api.substrates import MCDropoutSession, SubstrateConfig, get_substrate
from repro.nn.sequential import Sequential

DEFAULT_CALIBRATION_SAMPLES = 32


def default_calibration_inputs(
    model: Sequential, session_seed: int = 0
) -> np.ndarray:
    """Deterministic standard-normal calibration batch for ``model``."""
    width = model.dense_layers()[0].weight.value.shape[0]
    return np.random.default_rng(session_seed).normal(
        size=(DEFAULT_CALIBRATION_SAMPLES, width)
    )


def build_reference_session(
    substrate: str | SubstrateConfig,
    model: Sequential,
    n_iterations: int = 30,
    calibration_inputs: np.ndarray | None = None,
    session_seed: int = 0,
) -> MCDropoutSession:
    """One session built exactly as every shard builds its own.

    Also the parity oracle: a pinned-mask ``run()`` on it must reproduce
    a service response for the same request bit-for-bit.
    """
    if calibration_inputs is None:
        calibration_inputs = default_calibration_inputs(model, session_seed)
    return get_substrate(substrate).mc_dropout_session(
        model,
        n_iterations=int(n_iterations),
        calibration_inputs=np.atleast_2d(
            np.asarray(calibration_inputs, dtype=float)
        ),
        rng=np.random.default_rng(int(session_seed)),
    )


__all__ = [
    "build_reference_session",
    "default_calibration_inputs",
    "DEFAULT_CALIBRATION_SAMPLES",
]
