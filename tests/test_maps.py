"""Tests for repro.maps: point clouds, GMM, HMG kernels, HMGM co-design."""

import numpy as np
import pytest
import scipy
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.maps.fitting as fitting_module
import repro.maps.gmm as gmm_module
import repro.maps.hmgm as hmgm_module

from repro.maps import (
    GaussianMixture,
    HMGMixture,
    PointCloud,
    diag_gaussian_logpdf,
    diag_gaussian_pdf,
    hmg_kernel,
    hmg_unit_integral,
    kmeans,
    kmeans_plus_plus_init,
)
from repro.maps.gaussian import logsumexp
from repro.maps.hmg import HMG_UNIT_INTEGRALS, hmg_log_kernel, tail_rectilinearity


class TestPointCloud:
    def test_rejects_empty_and_bad_shape(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            PointCloud(np.zeros((5, 2)))

    def test_subsample(self, rng):
        cloud = PointCloud(rng.normal(size=(100, 3)))
        sub = cloud.subsampled(10, rng)
        assert len(sub) == 10

    def test_subsample_noop_when_small(self, rng):
        cloud = PointCloud(rng.normal(size=(5, 3)))
        assert len(cloud.subsampled(10, rng)) == 5

    def test_bounds_contain_points(self, rng):
        cloud = PointCloud(rng.normal(size=(50, 3)))
        lo, hi = cloud.bounds()
        assert np.all(cloud.points >= lo) and np.all(cloud.points <= hi)

    def test_voxel_downsample_reduces(self, rng):
        cloud = PointCloud(rng.uniform(0, 1, size=(1000, 3)))
        down = cloud.voxel_downsampled(0.5)
        assert len(down) <= 8

    def test_transform(self, rng):
        from repro.scene.se3 import Pose

        cloud = PointCloud(rng.normal(size=(20, 3)))
        pose = Pose.from_euler([1, 2, 3], yaw=0.5)
        assert np.allclose(
            cloud.transformed(pose).points, pose.transform_points(cloud.points)
        )


class TestDiagGaussian:
    def test_matches_scipy(self, rng):
        from scipy.stats import multivariate_normal

        points = rng.normal(size=(10, 3))
        mean = np.array([0.5, -0.2, 1.0])
        sigma = np.array([0.5, 1.0, 2.0])
        ours = diag_gaussian_logpdf(points, mean[None], sigma[None])[:, 0]
        ref = multivariate_normal(mean, np.diag(sigma**2)).logpdf(points)
        assert np.allclose(ours, ref)

    def test_pdf_positive(self, rng):
        values = diag_gaussian_pdf(
            rng.normal(size=(5, 2)), np.zeros((3, 2)), np.ones((3, 2))
        )
        assert values.shape == (5, 3)
        assert np.all(values > 0)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            diag_gaussian_logpdf(np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 2)))

    def test_rejects_mismatched_dims(self):
        with pytest.raises(ValueError, match="dims"):
            diag_gaussian_logpdf(np.zeros((5, 1)), np.zeros((2, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError, match="share a shape"):
            diag_gaussian_logpdf(np.zeros((5, 3)), np.zeros((2, 3)), np.ones((2, 2)))
        model = GaussianMixture(np.ones(2), np.zeros((2, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError, match="dims"):
            model.logpdf(np.zeros((5, 1)))


class TestKMeans:
    def test_separated_clusters_recovered(self, rng):
        points = np.concatenate(
            [rng.normal(loc=c, scale=0.1, size=(50, 2)) for c in ([0, 0], [5, 5], [0, 5])]
        )
        centers, labels = kmeans(points, 3, rng)
        found = np.sort(centers[:, 0] + centers[:, 1])
        assert np.allclose(found, [0, 5, 10], atol=0.5)

    def test_init_validates_k(self, rng):
        with pytest.raises(ValueError):
            kmeans_plus_plus_init(np.zeros((5, 2)), 6, rng)

    def test_labels_cover_all_points(self, rng):
        points = rng.normal(size=(40, 3))
        _, labels = kmeans(points, 4, rng)
        assert labels.shape == (40,)
        assert set(labels) <= set(range(4))


@st.composite
def _fit_cases(draw):
    """(points, k, seed): clouds of 1-30 points over a pool of distinct
    rows, so repeated rows (and the k-means++ ``total <= 0`` branch) are
    common."""
    d = draw(st.integers(1, 3))
    pool = draw(hnp.arrays(np.float64, (draw(st.integers(1, 8)), d),
                           elements=st.floats(-5.0, 5.0)))
    rows = draw(st.lists(st.integers(0, pool.shape[0] - 1), min_size=1, max_size=30))
    points = pool[rows]
    k = draw(st.integers(1, points.shape[0]))
    return points, k, draw(st.integers(0, 2**32 - 1))


class TestFitDrawContract:
    """A mixture fit draws from its rng only in the k-means++ seeding;
    Lloyd's iterations and EM draw nothing.  Localizers rely on this to
    keep the session rng's draw order while skipping the fit of a map
    their backend does not read."""

    @given(_fit_cases())
    @example((np.zeros((5, 3)), 3, 0))  # every point coincides: total <= 0
    @example((np.repeat(np.eye(3), 2, axis=0), 6, 1))  # k == n, duplicates
    @example((np.arange(12.0).reshape(4, 3), 4, 2))  # k == n, distinct
    @settings(max_examples=60, deadline=None)
    def test_fit_draws_only_kmeans_plus_plus(self, case):
        points, k, seed = case
        seeded = np.random.default_rng(seed)
        kmeans_plus_plus_init(points, k, seeded)
        expected = seeded.bit_generator.state
        menu = np.array([0.05, 0.3, 1.0])
        for fit, kwargs in (
            (GaussianMixture.fit, {}),
            (HMGMixture.fit, {}),
            (HMGMixture.fit, {"sigma_menu": menu}),
        ):
            rng = np.random.default_rng(seed)
            fit(points, k, rng, **kwargs)
            assert rng.bit_generator.state == expected


class TestGMM:
    @pytest.fixture(scope="class")
    def fitted(self):
        rng = np.random.default_rng(0)
        truth = GaussianMixture(
            weights=[0.6, 0.4],
            means=[[0.0, 0.0, 0.0], [4.0, 4.0, 4.0]],
            sigmas=[[0.5, 0.5, 0.5], [0.8, 0.8, 0.8]],
        )
        data = truth.sample(1500, rng)
        model = GaussianMixture.fit(data, 2, rng)
        return truth, model, data

    def test_weights_normalised(self):
        model = GaussianMixture([2.0, 2.0], np.zeros((2, 2)), np.ones((2, 2)))
        assert model.weights.sum() == pytest.approx(1.0)

    def test_fit_recovers_means(self, fitted):
        truth, model, _ = fitted
        order = np.argsort(model.means[:, 0])
        assert np.allclose(model.means[order], truth.means, atol=0.2)

    def test_fit_recovers_weights(self, fitted):
        truth, model, _ = fitted
        order = np.argsort(model.means[:, 0])
        assert np.allclose(model.weights[order], truth.weights, atol=0.05)

    def test_loglik_reasonable(self, fitted):
        truth, model, data = fitted
        assert model.mean_loglik(data) >= truth.mean_loglik(data) - 0.05

    def test_em_increases_likelihood(self, rng):
        data = rng.normal(size=(200, 3))
        model1 = GaussianMixture.fit(data, 3, np.random.default_rng(1), max_iters=1)
        model50 = GaussianMixture.fit(data, 3, np.random.default_rng(1), max_iters=50)
        assert model50.mean_loglik(data) >= model1.mean_loglik(data) - 1e-9

    def test_responsibilities_sum_to_one(self, fitted, rng):
        _, model, _ = fitted
        resp = model.responsibilities(rng.normal(size=(10, 3)))
        assert np.allclose(resp.sum(axis=1), 1.0)

    def test_pdf_integrates_on_grid(self):
        model = GaussianMixture([1.0], [[0.0]], [[1.0]])
        x = np.linspace(-8, 8, 2001)[:, None]
        integral = np.trapezoid(model.pdf(x), x[:, 0])
        assert integral == pytest.approx(1.0, abs=1e-3)

    def test_sample_shape_and_stats(self, rng):
        model = GaussianMixture([1.0], [[2.0, 0.0]], [[0.5, 0.5]])
        samples = model.sample(2000, rng)
        assert samples.shape == (2000, 2)
        assert samples.mean(axis=0) == pytest.approx([2.0, 0.0], abs=0.05)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            GaussianMixture([1.0], [[0.0]], [[0.0]])
        with pytest.raises(ValueError):
            GaussianMixture([-1.0, 2.0], np.zeros((2, 1)), np.ones((2, 1)))


class TestHMGKernel:
    def test_peak_normalised(self):
        value = hmg_kernel(np.zeros((1, 3)), np.zeros((1, 3)), np.ones((1, 3)))
        assert value[0, 0] == pytest.approx(1.0)

    def test_1d_equals_gaussian(self, rng):
        x = rng.normal(size=(50, 1))
        kernel = hmg_kernel(x, np.zeros((1, 1)), np.ones((1, 1)))[:, 0]
        assert np.allclose(kernel, np.exp(-0.5 * x[:, 0] ** 2))

    def test_heavier_tails_than_gaussian_product(self):
        point = np.array([[3.0, 3.0]])
        hmg = hmg_kernel(point, np.zeros((1, 2)), np.ones((1, 2)))[0, 0]
        gauss = np.exp(-0.5 * 18.0)
        assert hmg > gauss

    def test_unit_integrals_match_table(self):
        assert hmg_unit_integral(1, n_grid=4001) == pytest.approx(
            HMG_UNIT_INTEGRALS[1], rel=1e-4
        )
        assert hmg_unit_integral(2, n_grid=801) == pytest.approx(
            HMG_UNIT_INTEGRALS[2], rel=1e-3
        )
        assert hmg_unit_integral(3, n_grid=161) == pytest.approx(
            HMG_UNIT_INTEGRALS[3], rel=5e-3
        )

    def test_rejects_mismatched_dims(self):
        with pytest.raises(ValueError, match="dims"):
            hmg_log_kernel(np.zeros((5, 1)), np.zeros((2, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError, match="share a shape"):
            hmg_log_kernel(np.zeros((5, 3)), np.zeros((2, 3)), np.ones((1, 3)))

    def test_log_kernel_stable_far_away(self):
        log_val = hmg_log_kernel(
            np.array([[100.0, 100.0, 100.0]]), np.zeros((1, 3)), np.ones((1, 3))
        )
        assert np.isfinite(log_val).all()

    def test_rectilinearity_orders(self):
        hmg_ratio, gauss_ratio = tail_rectilinearity()
        assert gauss_ratio == pytest.approx(np.pi / 4, abs=0.02)
        assert hmg_ratio > 0.9

    @given(st.floats(0.2, 3.0), st.floats(-2.0, 2.0))
    @settings(max_examples=30)
    def test_kernel_bounded(self, sigma, x):
        value = hmg_kernel(
            np.array([[x, -x, 0.5 * x]]),
            np.zeros((1, 3)),
            np.full((1, 3), sigma),
        )
        assert 0.0 <= value[0, 0] <= 1.0


class TestHMGMixture:
    @pytest.fixture(scope="class")
    def cloud(self):
        rng = np.random.default_rng(3)
        gmm = GaussianMixture(
            [0.5, 0.5],
            [[0, 0, 0], [3, 3, 1]],
            [[0.4, 0.4, 0.4], [0.6, 0.6, 0.3]],
        )
        return gmm, gmm.sample(1200, rng)

    def test_pdf_integrates_to_one_1d_style(self):
        # 3D grid integration over a single wide component.
        model = HMGMixture([1.0], [[0.0, 0.0, 0.0]], [[1.0, 1.0, 1.0]])
        x = np.linspace(-8, 8, 81)
        grid = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
        values = model.pdf(grid)
        integral = values.sum() * (x[1] - x[0]) ** 3
        assert integral == pytest.approx(1.0, rel=0.05)

    def test_field_is_weighted_kernels(self, rng):
        model = HMGMixture(
            [0.3, 0.7], rng.normal(size=(2, 3)), np.full((2, 3), 0.5)
        )
        pts = rng.normal(size=(10, 3))
        expected = model.kernel_values(pts) @ model.weights
        assert np.allclose(model.field(pts), expected)

    def test_fit_recovers_structure(self, cloud):
        _, data = cloud
        model = HMGMixture.fit(data, 2, np.random.default_rng(0))
        order = np.argsort(model.means[:, 0])
        assert np.allclose(model.means[order][0], [0, 0, 0], atol=0.3)
        assert np.allclose(model.means[order][1], [3, 3, 1], atol=0.3)

    def test_menu_quantisation_sigma_on_menu(self, cloud):
        _, data = cloud
        menu = np.array([0.3, 0.5, 0.9])
        model = HMGMixture.fit(data, 3, np.random.default_rng(0), sigma_menu=menu)
        assert np.isin(model.sigmas, menu).all()

    def test_per_axis_menu(self, cloud):
        _, data = cloud
        menu = np.array([[0.3, 0.6], [0.4, 0.8], [0.2, 0.5]])
        model = HMGMixture.fit(data, 2, np.random.default_rng(0), sigma_menu=menu)
        for axis in range(3):
            assert np.isin(model.sigmas[:, axis], menu[axis]).all()

    def test_from_gmm_keeps_means(self, cloud):
        gmm, data = cloud
        fitted = GaussianMixture.fit(data, 2, np.random.default_rng(0))
        converted = HMGMixture.from_gmm(fitted)
        assert np.allclose(converted.means, fitted.means)

    def test_refined_weights_improve_match(self, cloud):
        gmm, data = cloud
        fitted = GaussianMixture.fit(data, 4, np.random.default_rng(0))
        menu = np.array([0.5, 0.9])
        probe = data[:300]
        raw = HMGMixture.from_gmm(fitted, sigma_menu=menu)
        refined = HMGMixture.from_gmm(fitted, sigma_menu=menu, refine_points=probe)
        target = fitted.pdf(probe)
        assert refined.field_rmse(target, probe) <= raw.field_rmse(target, probe) + 1e-12

    def test_amplitudes_shape(self, cloud):
        _, data = cloud
        model = HMGMixture.fit(data, 3, np.random.default_rng(0))
        amps = model.amplitudes()
        assert amps.shape == (3,)
        assert np.all(amps > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            HMGMixture([1.0], [[0, 0]], [[1.0]])
        with pytest.raises(ValueError):
            HMGMixture([0.0], [[0, 0]], [[1.0, 1.0]])


# --- Bit parity of the per-axis kernels against the code they replaced ----
#
# Reference copies of the broadcast kernels (and scipy's logsumexp, whose
# real-input algorithm repro.maps.gaussian.logsumexp replays).  Every
# comparison is to the bit: equal values, NaNs in the same places and the
# same sign bits.

_OLD_SCIPY = tuple(int(part) for part in scipy.__version__.split(".")[:2]) < (1, 15)
needs_scipy_115 = pytest.mark.skipif(
    _OLD_SCIPY, reason="scipy < 1.15 uses a different logsumexp algorithm"
)


def _ref_diag_gaussian_logpdf(points, means, sigmas):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    means = np.atleast_2d(np.asarray(means, dtype=float))
    sigmas = np.atleast_2d(np.asarray(sigmas, dtype=float))
    d = points.shape[1]
    z = (points[:, None, :] - means[None, :, :]) / sigmas[None, :, :]
    log_norm = -0.5 * d * np.log(2.0 * np.pi) - np.log(sigmas).sum(axis=1)
    return log_norm[None, :] - 0.5 * np.sum(z**2, axis=2)


def _ref_hmg_log_kernel(points, means, sigmas):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    means = np.atleast_2d(np.asarray(means, dtype=float))
    sigmas = np.atleast_2d(np.asarray(sigmas, dtype=float))
    d = points.shape[1]
    z = (points[:, None, :] - means[None, :, :]) / sigmas[None, :, :]
    return np.minimum(np.log(d) - scipy.special.logsumexp(0.5 * z**2, axis=2), 0.0)


def _ref_kmeans(points, k, rng, max_iters=50, tol=1e-6):
    points = np.asarray(points, dtype=float)
    centers = kmeans_plus_plus_init(points, k, rng)
    labels = np.zeros(points.shape[0], dtype=np.int64)
    for _ in range(max_iters):
        dist_sq = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        labels = np.argmin(dist_sq, axis=1)
        new_centers = centers.copy()
        for j in range(k):
            mask = labels == j
            if mask.any():
                new_centers[j] = points[mask].mean(axis=0)
            else:
                new_centers[j] = points[np.argmax(dist_sq.min(axis=1))]
        shift = np.abs(new_centers - centers).max()
        centers = new_centers
        if shift < tol:
            break
    return centers, labels


def _assert_same_bits(ours, ref):
    assert np.ndim(ours) == np.ndim(ref)
    assert np.shape(ours) == np.shape(ref)
    assert isinstance(ours, np.ndarray) == isinstance(ref, np.ndarray)
    assert np.array_equal(ours, ref, equal_nan=True)
    assert np.array_equal(np.signbit(ours), np.signbit(ref))


_SPECIALS = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 2.5, 700.0, -745.0, 1e308, -1e308, np.inf, -np.inf, np.nan]
)
_ANY_FLOAT = st.one_of(_SPECIALS, st.floats(width=64))
_MODERATE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e3, 1e3))


@st.composite
def _lse_cases(draw):
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=12))
    a = draw(hnp.arrays(np.float64, shape, elements=_ANY_FLOAT))
    if draw(st.booleans()):
        a = np.asfortranarray(a)
    ndim = max(a.ndim, 1)
    axis = draw(st.one_of(st.none(), st.integers(-ndim, ndim - 1)))
    return a, axis, draw(st.booleans())


@st.composite
def _components(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 12))
    point_elems = st.one_of(_MODERATE, st.sampled_from([np.inf, -np.inf, np.nan]))
    points = draw(hnp.arrays(np.float64, (n, d), elements=point_elems))
    means = draw(hnp.arrays(np.float64, (k, d), elements=_MODERATE))
    sigmas = draw(hnp.arrays(np.float64, (k, d), elements=st.floats(1e-3, 1e3)))
    return points, means, sigmas


@needs_scipy_115
class TestLogsumexpParity:
    @given(_lse_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy(self, case):
        a, axis, keepdims = case
        _assert_same_bits(
            logsumexp(a, axis=axis, keepdims=keepdims),
            scipy.special.logsumexp(a, axis=axis, keepdims=keepdims),
        )

    @pytest.mark.parametrize(
        "row",
        [
            [1.0, 1.0, 0.5],  # tie at the max
            [-np.inf, -np.inf, -np.inf],  # all -inf
            [np.inf, 0.0, 1.0],
            [np.inf, -np.inf],
            [np.nan, 1.0, 2.0],
            [800.0, 800.0, -800.0],
            [1e308, 1e308],
        ],
    )
    @pytest.mark.parametrize("axis", [None, 0, 1])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_edge_rows(self, row, axis, keepdims):
        a = np.array([row, [0.0] * len(row)])
        _assert_same_bits(
            logsumexp(a, axis=axis, keepdims=keepdims),
            scipy.special.logsumexp(a, axis=axis, keepdims=keepdims),
        )

    @pytest.mark.parametrize("value", [3.0, -np.inf, np.inf, np.nan])
    def test_scalar_and_vector_inputs(self, value):
        _assert_same_bits(logsumexp(value), scipy.special.logsumexp(value))
        vector = np.array([value, 0.5, value])
        _assert_same_bits(logsumexp(vector), scipy.special.logsumexp(vector))
        _assert_same_bits(
            logsumexp(vector, axis=0, keepdims=True),
            scipy.special.logsumexp(vector, axis=0, keepdims=True),
        )

    def test_paper_size_rows(self):
        rng = np.random.default_rng(0)
        a = rng.normal(scale=30.0, size=(14400, 48))
        a[::97, 5] = a[::97, 7] = a[::97].max(axis=1) + 1.0  # ties at the max
        b = a.reshape(120, 120, 48)
        for axis in (None, 0, 1, 2):
            _assert_same_bits(
                logsumexp(b, axis=axis), scipy.special.logsumexp(b, axis=axis)
            )


class TestKernelParity:
    @given(_components())
    @settings(max_examples=200, deadline=None)
    def test_diag_gaussian_logpdf(self, case):
        _assert_same_bits(diag_gaussian_logpdf(*case), _ref_diag_gaussian_logpdf(*case))

    @needs_scipy_115
    @given(_components())
    @settings(max_examples=200, deadline=None)
    def test_hmg_log_kernel(self, case):
        _assert_same_bits(hmg_log_kernel(*case), _ref_hmg_log_kernel(*case))

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 40), st.integers(1, 3)),
            elements=_MODERATE,
        ),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_kmeans(self, points, data):
        k = data.draw(st.integers(1, points.shape[0]))
        seed = data.draw(st.integers(0, 2**32 - 1))
        try:
            ref = _ref_kmeans(points, k, np.random.default_rng(seed))
        except ValueError as exc:  # degenerate k-means++ probabilities
            with pytest.raises(type(exc)):
                kmeans(points, k, np.random.default_rng(seed))
            return
        centers, labels = kmeans(points, k, np.random.default_rng(seed))
        _assert_same_bits(centers, ref[0])
        assert np.array_equal(labels, ref[1])


@needs_scipy_115
class TestFitParity:
    """Paper-size fits: a 48-component GMM and HMGM on a 3000-point room
    cloud equal, to the bit, fits run with the replaced kernels."""

    @pytest.fixture(scope="class")
    def room_cloud(self):
        from repro.scene.scene import make_room_scene

        rng = np.random.default_rng(5)
        return make_room_scene(rng).sample_point_cloud(3000, rng, noise_std=0.01)

    @staticmethod
    def _use_reference_kernels(monkeypatch):
        monkeypatch.setattr(gmm_module, "diag_gaussian_logpdf", _ref_diag_gaussian_logpdf)
        monkeypatch.setattr(gmm_module, "logsumexp", scipy.special.logsumexp)
        monkeypatch.setattr(fitting_module, "logsumexp", scipy.special.logsumexp)
        monkeypatch.setattr(hmgm_module, "logsumexp", scipy.special.logsumexp)
        monkeypatch.setattr(hmgm_module, "hmg_log_kernel", _ref_hmg_log_kernel)
        monkeypatch.setattr(gmm_module, "kmeans", _ref_kmeans)
        monkeypatch.setattr(hmgm_module, "kmeans", _ref_kmeans)

    @staticmethod
    def _assert_same_model(ours, ref):
        for field in ("weights", "means", "sigmas"):
            _assert_same_bits(getattr(ours, field), getattr(ref, field))

    def test_gmm_fit(self, room_cloud, monkeypatch):
        fit = GaussianMixture.fit
        probe = room_cloud[:500] + 0.05
        ours = fit(room_cloud, 48, np.random.default_rng(11), min_sigma=0.08)
        ours_ll = ours.logpdf(probe)
        self._use_reference_kernels(monkeypatch)
        ref = fit(room_cloud, 48, np.random.default_rng(11), min_sigma=0.08)
        self._assert_same_model(ours, ref)
        _assert_same_bits(ours_ll, ref.logpdf(probe))

    def test_hmgm_fit(self, room_cloud, monkeypatch):
        from repro.circuits.technology import NODE_45NM
        from repro.core.tiling import tiled_sigma_menu

        lo, hi = room_cloud.min(axis=0) - 0.2, room_cloud.max(axis=0) + 0.2
        menu = tiled_sigma_menu(NODE_45NM, lo, hi, (2, 2, 2))
        fit = HMGMixture.fit
        ours = fit(room_cloud, 48, np.random.default_rng(11), sigma_menu=menu)
        self._use_reference_kernels(monkeypatch)
        ref = fit(room_cloud, 48, np.random.default_rng(11), sigma_menu=menu)
        self._assert_same_model(ours, ref)
