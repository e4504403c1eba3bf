"""The Harmonic-Mean-of-Gaussian (HMG) kernel.

The series-stacked likelihood inverter combines per-axis Gaussian-like
current bells as a harmonic mean (paper Sec. II-B)::

    f(x) = D / sum_k exp(z_k^2 / 2),      z_k = (x_k - mu_k) / sigma_k

(peak-normalised to 1 at the center).  Unlike a product-of-Gaussians, whose
iso-contours are ellipses, the HMG kernel's contours have *rectilinear*
tails: far from the center along one axis the kernel is dominated by that
single axis term, so contours flatten against axis-aligned lines
(paper Fig. 2c/d).

The kernel is not separable, so its normalisation constant is not
``(2*pi)**(D/2)``; :data:`HMG_UNIT_INTEGRALS` tabulates the numerically
integrated unit-kernel volume used to turn kernels into proper densities.
"""

from __future__ import annotations

import numpy as np

from repro.maps.gaussian import axis_z, diag_components, logsumexp

# Integral of the unit (sigma = 1, peak-normalised) HMG kernel over R^D.
# D=1 reduces to a Gaussian (sqrt(2*pi)); higher D carry extra tail mass.
# Values computed by high-resolution trapezoidal quadrature (see
# tests/maps/test_hmg.py which re-derives them to 4 decimal places).
HMG_UNIT_INTEGRALS: dict[int, float] = {
    1: 2.5066282746,
    2: 10.202996,
    3: 48.735963,
}
HMG_UNIT_INTEGRAL_3D: float = HMG_UNIT_INTEGRALS[3]

_EXP_CLIP = 700.0


def hmg_log_kernel(
    points: np.ndarray, means: np.ndarray, sigmas: np.ndarray
) -> np.ndarray:
    """Log of the peak-normalised HMG kernel for K components.

    Args:
        points: (N, D) query points.
        means: (K, D) kernel centers.
        sigmas: (K, D) per-axis widths (positive).

    Returns:
        (N, K) log-kernel values (0 at a center, negative elsewhere).
    """
    points, means, sigmas = diag_components(points, means, sigmas)
    d = points.shape[1]
    # One contiguous (N, K) plane of z_k^2 / 2 per axis; reducing over the
    # leading axis adds the planes left to right, like a trailing axis would.
    half_sq = np.empty((d, points.shape[0], means.shape[0]))
    for axis in range(d):
        z = axis_z(points, means, sigmas, axis, out=half_sq[axis])
        z *= z
        z *= 0.5
    # log f = log D - logsumexp_k(z_k^2 / 2): stable for arbitrarily far
    # points; clamped at 0 so rounding never pushes the kernel above 1.
    return np.minimum(np.log(d) - logsumexp(half_sq, axis=0), 0.0)


def hmg_kernel(points: np.ndarray, means: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Peak-normalised HMG kernel values, shape (N, K)."""
    return np.exp(np.maximum(hmg_log_kernel(points, means, sigmas), -_EXP_CLIP))


def hmg_unit_integral(d: int, n_grid: int = 241, limit: float = 12.0) -> float:
    """Numerically integrate the unit HMG kernel over R^d (d in {1, 2, 3}).

    Used to validate :data:`HMG_UNIT_INTEGRALS`; quadratic cost in
    ``n_grid`` for d=2 and cubic for d=3.
    """
    u = np.linspace(-limit, limit, n_grid)
    if d == 1:
        f = np.exp(-np.minimum(u**2 / 2.0, _EXP_CLIP))
        return float(np.trapezoid(f, u))
    if d == 2:
        u1, u2 = np.meshgrid(u, u, indexing="ij")
        e = np.exp(np.minimum(u1**2 / 2, _EXP_CLIP)) + np.exp(
            np.minimum(u2**2 / 2, _EXP_CLIP)
        )
        return float(np.trapezoid(np.trapezoid(2.0 / e, u, axis=1), u))
    if d == 3:
        u1, u2 = np.meshgrid(u, u, indexing="ij")
        e12 = np.exp(np.minimum(u1**2 / 2, _EXP_CLIP)) + np.exp(
            np.minimum(u2**2 / 2, _EXP_CLIP)
        )
        slices = np.empty(n_grid)
        for i, u3 in enumerate(u):
            f = 3.0 / (e12 + np.exp(min(u3**2 / 2, _EXP_CLIP)))
            slices[i] = np.trapezoid(np.trapezoid(f, u, axis=1), u)
        return float(np.trapezoid(slices, u))
    raise ValueError(f"unsupported dimension {d}")


def tail_rectilinearity(
    sigma: float = 1.0, level: float = 1e-3, n_grid: int = 801, limit: float = 6.0
) -> tuple[float, float]:
    """Quantify the tail shape of 2D iso-contours (paper Fig. 2c/d).

    For a contour at ``level`` (relative to peak), returns the ratio of the
    contour's area to the area of the axis-aligned bounding box of the
    contour, for (hmg, gaussian).  A square-ish (rectilinear) contour has a
    ratio near 1; an ellipse has pi/4 ~ 0.785.  The HMG ratio exceeds the
    Gaussian ratio, which is the quantitative version of "rectilinear vs
    elliptical tails".
    """
    u = np.linspace(-limit, limit, n_grid)
    u1, u2 = np.meshgrid(u, u, indexing="ij")
    z1, z2 = u1 / sigma, u2 / sigma
    hmg = 2.0 / (
        np.exp(np.minimum(z1**2 / 2, _EXP_CLIP)) + np.exp(np.minimum(z2**2 / 2, _EXP_CLIP))
    )
    gauss = np.exp(-np.minimum((z1**2 + z2**2) / 2, _EXP_CLIP))
    cell = (u[1] - u[0]) ** 2
    ratios = []
    for field in (hmg, gauss):
        inside = field >= level
        area = inside.sum() * cell
        rows = np.any(inside, axis=1)
        cols = np.any(inside, axis=0)
        extent1 = u[rows].max() - u[rows].min()
        extent2 = u[cols].max() - u[cols].min()
        ratios.append(area / (extent1 * extent2))
    return float(ratios[0]), float(ratios[1])
