"""Diagonal-covariance Gaussian density helpers (vectorised, log-domain).

The kernels here accumulate per axis into one (N, K) buffer instead of
broadcasting an (N, K, D) temporary.  numpy sums a short contiguous axis
left to right, so ``sq = z0*z0; sq += z1*z1; ...`` yields the same bits as
``np.sum(z**2, axis=2)``.  Expanding ``(x - mu)**2`` into a matmul would be
faster still but would change the bits, so it is deliberately not done.
"""

from __future__ import annotations

import numpy as np

_LOG_2PI = np.log(2.0 * np.pi)


def diag_components(
    points: np.ndarray, means: np.ndarray, sigmas: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate (N, D) points against (K, D) means and positive sigmas.

    Returns the three as 2-D float arrays; raises ``ValueError`` on a
    non-positive sigma or on mismatched dimensions.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    means = np.atleast_2d(np.asarray(means, dtype=float))
    sigmas = np.atleast_2d(np.asarray(sigmas, dtype=float))
    if means.shape != sigmas.shape:
        raise ValueError(
            f"means {means.shape} and sigmas {sigmas.shape} must share a shape"
        )
    if points.shape[1] != means.shape[1]:
        raise ValueError(
            f"points have {points.shape[1]} dims, components have {means.shape[1]}"
        )
    if np.any(sigmas <= 0):
        raise ValueError("sigmas must be positive")
    return points, means, sigmas


def axis_z(
    points: np.ndarray,
    means: np.ndarray,
    sigmas: np.ndarray,
    axis: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """(N, K) standardised offsets ``(x - mu) / sigma`` along one axis,
    written into ``out`` when given."""
    z = np.subtract(points[:, axis, None], means[None, :, axis], out=out)
    z /= sigmas[None, :, axis]
    return z


def diag_gaussian_logpdf(
    points: np.ndarray, means: np.ndarray, sigmas: np.ndarray
) -> np.ndarray:
    """Log-density of points under K diagonal Gaussians.

    Args:
        points: (N, D) query points.
        means: (K, D) component means.
        sigmas: (K, D) per-axis standard deviations (must be positive).

    Returns:
        (N, K) matrix of log-densities.
    """
    points, means, sigmas = diag_components(points, means, sigmas)
    d = points.shape[1]
    sq = np.zeros((points.shape[0], means.shape[0]))
    z = np.empty_like(sq)
    for axis in range(d):
        axis_z(points, means, sigmas, axis, out=z)
        sq += np.multiply(z, z, out=z)
    log_norm = -0.5 * d * _LOG_2PI - np.log(sigmas).sum(axis=1)
    sq *= 0.5
    return np.subtract(log_norm[None, :], sq, out=sq)


def diag_gaussian_pdf(
    points: np.ndarray, means: np.ndarray, sigmas: np.ndarray
) -> np.ndarray:
    """Density version of :func:`diag_gaussian_logpdf`, shape (N, K)."""
    return np.exp(diag_gaussian_logpdf(points, means, sigmas))


def logsumexp(
    a: np.ndarray, axis: int | tuple[int, ...] | None = None, keepdims: bool = False
) -> np.ndarray:
    """``log(sum(exp(a)))`` over ``axis``, computed stably in float64.

    Replays the real-input algorithm of ``scipy.special.logsumexp``
    (scipy >= 1.15) step by step, so the two agree to the bit: the entries
    tied with the maximum are split out of the sum and counted, and only
    results that come out non-finite take the direct
    ``log(sum(exp(a)))`` form.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if axis is None:
        axis = tuple(range(a.ndim))
    if a.size == 0:
        out = np.full(np.sum(a, axis=axis, keepdims=True).shape, -np.inf)
    else:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            a_max = np.max(a, axis=axis, keepdims=True)
            tied = a == a_max
            m = np.count_nonzero(tied, axis=axis, keepdims=True)
            terms = np.subtract(a, a_max)
            np.exp(terms, out=terms)
            terms[tied] = 0.0
            s = np.sum(terms, axis=axis, keepdims=True)
            np.divide(s, m, out=s, where=s != 0)
            out = np.log1p(s) + np.log(m) + a_max
            finite = np.isfinite(out)
            if not finite.all():
                direct = np.log(np.sum(np.exp(a), axis=axis, keepdims=True))
                out = np.where(finite, out, direct)
    if not keepdims:
        out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out
