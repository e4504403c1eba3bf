"""Shared mixture-fitting machinery: k-means++ initialisation, k-means and
the EM update."""

from __future__ import annotations

import numpy as np

from repro.maps.gaussian import logsumexp


def kmeans_plus_plus_init(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread initial centers by D^2 sampling.

    Args:
        points: (N, D) data.
        k: number of centers (1 <= k <= N).
        rng: random generator.

    Returns:
        (k, D) initial centers.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} must be in [1, {n}]")
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    closest_sq = np.full(n, np.inf)
    for j in range(1, k):
        dist_sq = np.sum((points - centers[j - 1]) ** 2, axis=1)
        closest_sq = np.minimum(closest_sq, dist_sq)
        total = closest_sq.sum()
        if total <= 0:
            # All points coincide with chosen centers; reuse a random point.
            centers[j] = points[rng.integers(n)]
            continue
        centers[j] = points[rng.choice(n, p=closest_sq / total)]
    return centers


def kmeans(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator,
    max_iters: int = 50,
    tol: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's k-means with k-means++ seeding.

    Args:
        points: (N, D) data.
        k: number of clusters.
        rng: random generator.
        max_iters: Lloyd iteration cap.
        tol: stop when centers move less than this (max norm).

    Returns:
        (centers, labels): (k, D) centers and (N,) hard assignments.
    """
    points = np.asarray(points, dtype=float)
    centers = kmeans_plus_plus_init(points, k, rng)
    labels = np.zeros(points.shape[0], dtype=np.int64)
    for _ in range(max_iters):
        # Per-axis accumulation: the same bits as summing an (N, k, D)
        # broadcast over its last axis (see repro.maps.gaussian).
        dist_sq = np.zeros((points.shape[0], k))
        diff = np.empty_like(dist_sq)
        for axis in range(points.shape[1]):
            np.subtract(points[:, axis, None], centers[None, :, axis], out=diff)
            dist_sq += np.multiply(diff, diff, out=diff)
        labels = np.argmin(dist_sq, axis=1)
        counts = np.bincount(labels, minlength=k)
        filled = counts > 0
        new_centers = np.empty_like(centers)
        if points.shape[1] == 1:
            # numpy sums a one-column cluster pairwise, not in point order.
            for j in np.flatnonzero(filled):
                new_centers[j] = points[labels == j].mean(axis=0)
        else:
            # bincount adds each cluster's points in point order from 0.0,
            # as points[labels == j].mean(axis=0) does for two or more axes.
            for axis in range(points.shape[1]):
                sums = np.bincount(labels, weights=points[:, axis], minlength=k)
                new_centers[filled, axis] = sums[filled] / counts[filled]
        if not filled.all():
            # Re-seed empty clusters at the worst-fit point.
            new_centers[~filled] = points[np.argmax(dist_sq.min(axis=1))]
        shift = np.abs(new_centers - centers).max()
        centers = new_centers
        if shift < tol:
            break
    return centers, labels


def em_step(
    points: np.ndarray, log_joint: np.ndarray, min_sigma: float
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """One EM update of a diagonal mixture from its (N, K) log-joint.

    The E-step normalises ``log_joint`` (overwritten with the
    responsibilities); the M-step takes responsibility-weighted moments.

    Returns:
        (mean log-likelihood before the update, weights, means, sigmas),
        with sigmas floored at ``min_sigma``.
    """
    log_norm = logsumexp(log_joint, axis=1, keepdims=True)
    mean_ll = float(log_norm.mean())
    log_joint -= log_norm
    resp = np.exp(log_joint, out=log_joint)
    mass = resp.sum(axis=0) + 1e-12
    moment = resp.T @ points
    means = moment / mass[:, None]
    sq = resp.T @ (points**2) - 2.0 * means * moment + mass[:, None] * means**2
    sigmas = np.sqrt(np.maximum(sq / mass[:, None], min_sigma**2))
    return mean_ll, mass / points.shape[0], means, sigmas
