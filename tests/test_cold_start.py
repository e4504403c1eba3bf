"""Cold-start budget: scipy stays off the import and shard warm-up path.

A serving shard is spawned, or respawned after a crash, and must be warm
quickly, and ``scipy.stats`` and ``scipy.optimize`` would dominate the
package's import time.  The library therefore imports scipy only at the
call sites that need it.  These tests pin that
import budget, and pin that the SRAM RNG's switch from
``scipy.stats.norm`` to ``scipy.special.ndtri``/``ndtr`` changed no bit.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import run_experiment
from repro.circuits.technology import NODE_16NM
from repro.sram import CrossCoupledInverterRNG

SRC = Path(__file__).resolve().parents[1] / "src"

_LOADED_SCIPY = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))\n"
)


def _scipy_modules_after(code: str) -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", code + _LOADED_SCIPY],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return set(json.loads(completed.stdout.strip().splitlines()[-1]))


class TestImportBudget:
    def test_package_imports_load_no_scipy(self):
        loaded = _scipy_modules_after(
            "import repro, repro.api, repro.api.cli, repro.runtime, "
            "repro.scenarios, repro.serve, repro.experiments\n"
        )
        assert loaded == set()

    def test_shard_warm_up_loads_only_scipy_special(self):
        loaded = _scipy_modules_after(
            "from repro.api import available_substrates\n"
            "from repro.serve import TrackStore, build_reference_session\n"
            "from repro.serve.demo import demo_model, demo_track_world\n"
            "model = demo_model()\n"
            "for name in available_substrates():\n"
            "    build_reference_session(name, model, n_iterations=8)\n"
            "TrackStore(demo_track_world(), ['cim', 'digital'])\n"
        )
        assert "scipy.special" in loaded
        assert "scipy.stats" not in loaded
        assert "scipy.optimize" not in loaded


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


windows = st.integers(2, 1 << 16)
finite = st.floats(allow_nan=False, allow_infinity=False)


class TestStandardNormalParity:
    """``ndtri``/``ndtr`` are what ``norm.ppf``/``norm.cdf`` evaluate for a
    standard normal; the RNG calibration must see the same bits."""

    @given(windows, st.floats(0.0, 1.0), st.lists(st.floats(0.0, 1.0), max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_ppf_on_clipped_ones_rates(self, window, rate, rates):
        from scipy.special import ndtri
        from scipy.stats import norm

        low, high = 1.0 / window, 1.0 - 1.0 / window
        clipped = np.clip(rate, low, high)
        assert _bits(ndtri(clipped)) == _bits(norm.ppf(clipped))
        batch = np.clip(np.asarray(rates, dtype=float), low, high)
        np.testing.assert_array_equal(_bits(ndtri(batch)), _bits(norm.ppf(batch)))

    @given(finite, st.lists(finite, max_size=64))
    @example(0.0, [-0.0, np.inf, -np.inf, 1e-300, -38.5, 38.5])
    @settings(max_examples=200, deadline=None)
    def test_cdf_on_differentials(self, value, values):
        from scipy.special import ndtr
        from scipy.stats import norm

        assert _bits(ndtr(value)) == _bits(norm.cdf(value))
        batch = np.asarray(values, dtype=float)
        np.testing.assert_array_equal(_bits(ndtr(batch)), _bits(norm.cdf(batch)))


class TestCalibrationPinned:
    # Values recorded with the scipy.stats.norm implementation; the third
    # case starts stuck at P(1) = 1, so the first trim step is clipped.
    CASES = [
        # seed, columns, before, after, trim_volts, ideal P(1) after trim
        (0, 16, 0.915283203125, 0.49267578125,
         "0x1.f211ebb321150p-9", "0x1.f7c5da1f4581cp-2"),
        (11, 2, 0.999755859375, 0.49462890625,
         "0x1.937ad53c295f4p-9", "0x1.01bde680045c8p-1"),
        (3, 1, 1.0, 0.523193359375,
         "0x1.d20fc5e9ffc00p-8", "0x1.076e9f5101029p-1"),
    ]

    @pytest.mark.parametrize("seed, columns, before, after, trim, ideal", CASES)
    def test_calibrate_bits(self, seed, columns, before, after, trim, ideal):
        cell = CrossCoupledInverterRNG(
            NODE_16NM, n_columns_per_side=columns, rng=np.random.default_rng(seed)
        )
        cal = cell.calibrate(np.random.default_rng(seed + 100))
        assert cal.ones_rate_before == before
        assert cal.ones_rate_after == after
        assert cal.trim_volts.hex() == trim
        assert cell.ideal_ones_probability().hex() == ideal


class TestExperimentParity:
    def test_e5_pinned(self):
        # Dyadic ones-rate statistics recorded with scipy.stats.norm.
        result = run_experiment(
            "E5",
            seed=0,
            overrides={
                "column_sweep": (1, 2, 4),
                "n_instances": 2,
                "bits_per_instance": 512,
            },
        )
        rows = [
            (row["columns_per_side"], row["bias_before"], row["bias_after"])
            for row in result.metrics["rows"]
        ]
        assert rows == [
            (1, 0.5, 0.037109375),
            (2, 0.416015625, 0.037109375),
            (4, 0.4521484375, 0.029296875),
        ]

    def test_e7_cim_calibration_inputs_match_norm(self, monkeypatch):
        # norm.ppf itself calls scipy.special.ndtri, so record what the cim
        # session builds evaluate and replay it against norm.ppf afterwards.
        import scipy.special
        from scipy.stats import norm

        ndtri = scipy.special.ndtri
        calls = []

        def recording_ndtri(*args, **kwargs):
            y = ndtri(*args, **kwargs)
            if len(args) == 1 and not kwargs:
                calls.append((np.array(args[0], dtype=float), np.array(y)))
            return y

        with monkeypatch.context() as patch:
            patch.setattr(scipy.special, "ndtri", recording_ndtri)
            run_experiment(
                "E7",
                seed=0,
                substrate="cim",
                overrides={
                    "epochs": 3,
                    "n_iterations": 4,
                    "n_scenes": 2,
                    "frames_per_scene": 8,
                    "hidden": (16,),
                    "occlusion_levels": (0.0, 0.3),
                },
            )
        assert calls
        for x, y in calls:
            np.testing.assert_array_equal(_bits(y), _bits(norm.ppf(x)))
