"""Tests for repro.bayesian.evidential (deep evidential regression)."""

import numpy as np
import pytest

from repro.bayesian.evidential import (
    EvidentialLoss,
    evidential_prediction,
    split_evidential_outputs,
)
from repro.nn import Adam, Dense, ReLU, Sequential


class TestOutputSplit:
    def test_constraints(self, rng):
        raw = rng.normal(scale=3.0, size=(10, 8))
        gamma, nu, alpha, beta = split_evidential_outputs(raw)
        assert gamma.shape == (10, 2)
        assert np.all(nu > 0)
        assert np.all(alpha > 1)
        assert np.all(beta > 0)

    def test_width_validation(self, rng):
        with pytest.raises(ValueError):
            split_evidential_outputs(rng.normal(size=(3, 7)))

    def test_prediction_keys(self, rng):
        pred = evidential_prediction(rng.normal(size=(4, 8)))
        assert set(pred) == {"mean", "aleatoric", "epistemic"}
        assert np.all(pred["aleatoric"] > 0)
        assert np.all(pred["epistemic"] > 0)

    def test_epistemic_shrinks_with_evidence(self):
        # Larger nu (more virtual observations) -> less epistemic
        # uncertainty at the same beta/alpha.
        raw_low = np.array([[0.0, -2.0, 1.0, 0.0]])
        raw_high = np.array([[0.0, 5.0, 1.0, 0.0]])
        low = evidential_prediction(raw_low)["epistemic"][0, 0]
        high = evidential_prediction(raw_high)["epistemic"][0, 0]
        assert high < low


class TestEvidentialLoss:
    def test_gradient_matches_finite_differences(self, rng):
        loss_fn = EvidentialLoss(regularizer=0.05)
        raw = rng.normal(size=(3, 8))
        targets = rng.normal(size=(3, 2))
        _, grad = loss_fn(raw, targets)
        eps = 1e-6
        for idx in [(0, 0), (1, 2), (2, 5), (0, 7), (1, 4), (2, 6)]:
            raw[idx] += eps
            up, _ = loss_fn(raw, targets)
            raw[idx] -= 2 * eps
            down, _ = loss_fn(raw, targets)
            raw[idx] += eps
            numeric = (up - down) / (2 * eps)
            assert grad[idx] == pytest.approx(numeric, abs=2e-5), idx

    def test_loss_decreases_on_correct_mean(self):
        loss_fn = EvidentialLoss(regularizer=0.0)
        target = np.array([[1.0]])
        good = np.array([[1.0, 0.0, 0.0, 0.0]])
        bad = np.array([[3.0, 0.0, 0.0, 0.0]])
        assert loss_fn(good, target)[0] < loss_fn(bad, target)[0]

    def test_width_validation(self, rng):
        loss_fn = EvidentialLoss()
        with pytest.raises(ValueError):
            loss_fn(rng.normal(size=(2, 6)), rng.normal(size=(2, 2)))

    # Unchecked, (5, 8) against (1, 2) broadcasts and divides the loss by
    # targets.size = 2 instead of 10; the reverse fails inside numpy.
    @pytest.mark.parametrize("raw_rows, target_rows", [(5, 1), (1, 5)])
    def test_batch_validation(self, rng, raw_rows, target_rows):
        loss_fn = EvidentialLoss()
        with pytest.raises(ValueError, match="batch sizes must match"):
            loss_fn(
                rng.normal(size=(raw_rows, 8)), rng.normal(size=(target_rows, 2))
            )

    def test_regularizer_validation(self):
        with pytest.raises(ValueError):
            EvidentialLoss(regularizer=-1.0)


class TestEvidentialTraining:
    def test_learns_heteroscedastic_noise(self, rng):
        """Aleatoric uncertainty must track the input-dependent noise."""
        n = 600
        x = rng.uniform(-2, 2, size=(n, 1))
        noise_scale = 0.05 + 0.5 * (x[:, 0] > 0)
        y = (np.sin(x) + rng.normal(size=(n, 1)) * noise_scale[:, None])

        model = Sequential(
            [Dense(1, 32, rng), ReLU(), Dense(32, 32, rng), ReLU(), Dense(32, 4, rng)]
        )
        loss_fn = EvidentialLoss(regularizer=0.01)
        optimizer = Adam(model.parameters(), lr=5e-3)
        for _ in range(300):
            raw = model.forward(x)
            _, grad = loss_fn(raw, y)
            optimizer.zero_grad()
            model.backward(grad)
            optimizer.step()

        prediction = evidential_prediction(model.forward(x))
        noisy_side = prediction["aleatoric"][x[:, 0] > 0.5].mean()
        quiet_side = prediction["aleatoric"][x[:, 0] < -0.5].mean()
        assert noisy_side > 3.0 * quiet_side
        # And the mean must actually fit the function.
        errors = np.abs(prediction["mean"] - np.sin(x))
        assert errors[x[:, 0] < -0.5].mean() < 0.15

    def test_epistemic_aleatoric_identity(self, rng):
        """epistemic = aleatoric / nu is an algebraic NIG identity."""
        raw = rng.normal(scale=2.0, size=(20, 12))
        prediction = evidential_prediction(raw)
        _, nu, _, _ = split_evidential_outputs(raw)
        assert np.allclose(
            prediction["epistemic"], prediction["aleatoric"] / nu, rtol=1e-12
        )

    def test_noisy_training_gives_positive_uncertainties(self, rng):
        """With noisy data the head must report non-degenerate variance of
        both kinds (the OOD extrapolation of epistemic uncertainty is a
        known fragility of DER and is deliberately not asserted)."""
        n = 400
        x = rng.uniform(-1, 1, size=(n, 1))
        y = x**2 + rng.normal(scale=0.2, size=(n, 1))
        model = Sequential(
            [Dense(1, 32, rng), ReLU(), Dense(32, 4, rng)]
        )
        loss_fn = EvidentialLoss(regularizer=0.02)
        optimizer = Adam(model.parameters(), lr=5e-3)
        for _ in range(200):
            raw = model.forward(x)
            _, grad = loss_fn(raw, y)
            optimizer.zero_grad()
            model.backward(grad)
            optimizer.step()
        prediction = evidential_prediction(model.forward(x))
        # Aleatoric must land near the true noise variance (0.04).
        assert 0.01 < prediction["aleatoric"].mean() < 0.2
        assert prediction["epistemic"].mean() > 0.0
