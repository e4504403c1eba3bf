"""Deep evidential regression: the paper's second future-work direction.

Sec. IV names evidential learning (Sensoy et al. / Amini et al.) alongside
conformal inference as a Monte-Carlo-free uncertainty path.  A network head
outputs the parameters of a Normal-Inverse-Gamma (NIG) evidential
distribution per target dimension -- (gamma, nu, alpha, beta) -- from which
a single forward pass yields the prediction and *both* uncertainty kinds::

    prediction          = gamma
    aleatoric variance  = beta / (alpha - 1)
    epistemic variance  = beta / (nu * (alpha - 1))

:class:`EvidentialLoss` implements the NIG negative log-likelihood plus the
evidence regulariser with analytic gradients (verified against finite
differences in the tests), operating on raw network outputs through
softplus links so any :mod:`repro.nn` model can grow an evidential head.
"""

from __future__ import annotations

import numpy as np

_EPS = 1e-6


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.where(x > 30.0, x, np.log1p(np.exp(np.minimum(x, 30.0))))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def split_evidential_outputs(
    raw: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Map raw (B, 4D) network outputs to NIG parameters (each (B, D)).

    gamma is unconstrained; nu > 0, alpha > 1, beta > 0 via softplus links.
    """
    raw = np.atleast_2d(np.asarray(raw, dtype=float))
    if raw.shape[1] % 4 != 0:
        raise ValueError("evidential head width must be a multiple of 4")
    d = raw.shape[1] // 4
    gamma = raw[:, :d]
    nu = _softplus(raw[:, d : 2 * d]) + _EPS
    alpha = _softplus(raw[:, 2 * d : 3 * d]) + 1.0 + _EPS
    beta = _softplus(raw[:, 3 * d :]) + _EPS
    return gamma, nu, alpha, beta


def evidential_prediction(raw: np.ndarray) -> dict[str, np.ndarray]:
    """Point prediction and uncertainty decomposition from raw outputs.

    Returns:
        Dict with "mean", "aleatoric", "epistemic" (each (B, D)).
    """
    gamma, nu, alpha, beta = split_evidential_outputs(raw)
    aleatoric = beta / (alpha - 1.0)
    epistemic = beta / (nu * (alpha - 1.0))
    return {"mean": gamma, "aleatoric": aleatoric, "epistemic": epistemic}


class EvidentialLoss:
    """NIG negative log-likelihood + evidence regulariser (Amini et al.).

    Args:
        regularizer: weight of the |error| * (2 nu + alpha) evidence
            penalty that shrinks confidence on wrong predictions.
    """

    def __init__(self, regularizer: float = 0.01):
        if regularizer < 0:
            raise ValueError("regularizer must be non-negative")
        self.regularizer = float(regularizer)

    def __call__(
        self, raw: np.ndarray, targets: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Loss and gradient w.r.t. the raw (pre-link) outputs."""
        raw = np.atleast_2d(np.asarray(raw, dtype=float))
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
        d = targets.shape[1]
        if raw.shape[1] != 4 * d:
            raise ValueError("raw width must be 4x the target width")
        if raw.shape[0] != targets.shape[0]:
            raise ValueError(
                f"raw has {raw.shape[0]} rows but targets has "
                f"{targets.shape[0]}; batch sizes must match"
            )
        from scipy.special import digamma, gammaln

        gamma, nu, alpha, beta = split_evidential_outputs(raw)
        error = targets - gamma
        omega = 2.0 * beta * (1.0 + nu)
        s = error**2 * nu + omega

        nll = (
            0.5 * np.log(np.pi / nu)
            - alpha * np.log(omega)
            + (alpha + 0.5) * np.log(s)
            + gammaln(alpha)
            - gammaln(alpha + 0.5)
        )
        reg = np.abs(error) * (2.0 * nu + alpha)
        n = targets.size
        loss = float((nll + self.regularizer * reg).sum() / n)

        # Analytic gradients w.r.t. the NIG parameters.
        d_gamma = (alpha + 0.5) * (-2.0 * error * nu) / s
        d_gamma += self.regularizer * (-np.sign(error)) * (2.0 * nu + alpha)
        d_nu = (
            -0.5 / nu
            - alpha * (2.0 * beta) / omega
            + (alpha + 0.5) * (error**2 + 2.0 * beta) / s
        )
        d_nu += self.regularizer * 2.0 * np.abs(error)
        d_alpha = (
            -np.log(omega) + np.log(s) + digamma(alpha) - digamma(alpha + 0.5)
        )
        d_alpha += self.regularizer * np.abs(error)
        d_beta = (
            -alpha * 2.0 * (1.0 + nu) / omega
            + (alpha + 0.5) * 2.0 * (1.0 + nu) / s
        )

        # Chain through the softplus links back to the raw outputs.
        grad = np.empty_like(raw)
        grad[:, :d] = d_gamma
        grad[:, d : 2 * d] = d_nu * _sigmoid(raw[:, d : 2 * d])
        grad[:, 2 * d : 3 * d] = d_alpha * _sigmoid(raw[:, 2 * d : 3 * d])
        grad[:, 3 * d :] = d_beta * _sigmoid(raw[:, 3 * d :])
        return loss, grad / n
