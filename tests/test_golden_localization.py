"""Golden localization digests.

A sha256 over the posterior-mean estimates, total energy and op count of
small localization runs, pinned to the bits the localizer produced before
its map fits were deferred to first use.  Anything that shifts a draw of
the session rng (map fitting, hardware instantiation, floor calibration)
or of the run rng changes a digest, so such a change cannot pass tier-1
unnoticed.  Recorded with numpy 2.4 on x86-64.
"""

import hashlib

import numpy as np
import pytest

from repro.core import CIMParticleFilterLocalizer
from repro.scenarios import get_scenario
from repro.scenarios.world import build_session, initialize, scenario_world


def _digest(estimates: np.ndarray, energy_j: float, ops_executed: int) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(estimates, dtype=np.float64).tobytes())
    h.update(np.float64(energy_j).tobytes())
    h.update(np.int64(ops_executed).tobytes())
    return h.hexdigest()


def scenario_digest(name: str, substrate: str) -> str:
    """Digest of a ``tiny()`` scenario run (seed 0) on ``substrate``."""
    spec = get_scenario(name).tiny()
    world = scenario_world(spec)
    session = build_session(spec, substrate, world=world)
    rng = np.random.default_rng(0)
    initialize(spec, world, session, rng)
    result = session.run((world.controls, world.depths, world.states), rng=rng)
    return _digest(result.mean, result.energy_j, result.ops_executed)


def localizer_digest(tiles: tuple[int, int, int]) -> str:
    """Digest of a bare cim localizer on the tiny room-baseline world."""
    world = scenario_world(get_scenario("room-baseline").tiny())
    localizer = CIMParticleFilterLocalizer(
        world.cloud,
        world.camera,
        camera_mount=world.mount,
        backend="cim",
        n_components=8,
        total_columns=64,
        n_particles=40,
        max_pixels=16,
        tiles=tiles,
        rng=np.random.default_rng(5),
    )
    rng = np.random.default_rng(9)
    localizer.initialize_tracking(
        world.states[0], np.array([0.2, 0.2, 0.1, 0.1]), rng
    )
    result = localizer.run(world.controls, world.depths, world.states, rng)
    ledger = result.energy
    return _digest(result.estimates, ledger.total_energy_j(), ledger.total_count())


SCENARIO_GOLDEN = {
    ("room-baseline", "cim"):
        "eec223c79e33bb0ab2ba6e64e64e88568c42bab756c58b25905a495d94117fb1",
    ("room-baseline", "digital"):
        "beaf523ca91f120620ffb144e925314d2bafb7aedf41de46bb32174412a60ca2",
    ("room-baseline", "digital-float"):
        "962537076e1ad28dbf53f24d6fb4cdfe7515382d00db6a33895514dca145c334",
    ("sensor-dropout-burst", "cim"):
        "7a7fa612e03ca7477c573f051ade79dadc82615068487234fd8df2642ce2fd5c",
    ("sensor-dropout-burst", "digital"):
        "d57890fe8ef5a939b3927668e06c0850414abbb97d666db45c92357da0322b44",
    ("sensor-dropout-burst", "digital-float"):
        "e7828d32c3d4ee8e498ed8aed4911d5b308f5a8f80792b544fdc1613f3196614",
    ("map-misfit-converted", "cim"):
        "0c5b17673542653830d990c13754e0932e231115d33c4a5b77b2989e733ef086",
    ("map-misfit-converted", "digital"):
        "c153c30d1d0fdbea56b63a89c376a028c9ab487804a7913111e84fe463f41937",
    ("map-misfit-converted", "digital-float"):
        "948036bb5aa378b7a1a98df0b53669aeec6dd3e339e129cb9a316bc098307438",
}

LOCALIZER_GOLDEN = {
    (1, 1, 1): "0923889d60f7b1e14b5f9afc7b8eb844f701dc78d17339a167ee0e32f27892fd",
    (2, 2, 2): "10aa413868b4afa971a073b752d318889819441572d1b0e6938be48cbcec73f0",
}


@pytest.mark.parametrize("name,substrate", sorted(SCENARIO_GOLDEN))
def test_tiny_scenario_digest(name, substrate):
    assert scenario_digest(name, substrate) == SCENARIO_GOLDEN[name, substrate]


@pytest.mark.parametrize("tiles", sorted(LOCALIZER_GOLDEN))
def test_cim_localizer_digest(tiles):
    assert localizer_digest(tiles) == LOCALIZER_GOLDEN[tiles]
