import math

import numpy as np
import pytest

from bloomretrieval.errors import DataFormatError, DimensionMismatchError, InvalidVectorError
from bloomretrieval.pca import PcaModel, fit_pca, project, project_many

from oracles import covariance_pca, jacobi_eigh, reconstruct


def test_rank1_line_data():
    samples = np.array([[1, 2], [2, 4], [-1, -2], [0, 0]], dtype=float)
    model = fit_pca(samples, target_dim=1)
    direction = np.array([1, 2]) / np.sqrt(5)
    assert abs(abs(np.dot(model.basis[0], direction)) - 1.0) < 1e-12
    # the discarded component would carry zero variance
    proj = project_many(model, samples)
    recon = np.array([reconstruct(model, y) for y in proj])
    np.testing.assert_allclose(recon, samples, atol=1e-12)


def test_identical_samples_zero_variance():
    samples = np.tile([3.0, -1.0, 2.0], (5, 1))
    model = fit_pca(samples, target_dim=1)
    assert model.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.norm(model.basis[0]) == pytest.approx(1.0)
    np.testing.assert_allclose(project(model, samples[0]), [0.0], atol=1e-12)


def test_mean_projects_to_origin():
    rng = np.random.default_rng(3)
    model = fit_pca(rng.normal(size=(30, 6)), target_dim=3)
    np.testing.assert_allclose(project(model, model.mean), 0.0, atol=1e-12)


def test_matches_jacobi_oracle():
    rng = np.random.default_rng(7)
    samples = rng.normal(size=(50, 8)) * rng.uniform(0.5, 3.0, size=8)
    model = fit_pca(samples, target_dim=4)

    centered = samples - samples.mean(axis=0)
    cov = centered.T @ centered / (len(samples) - 1)
    oracle_vals, oracle_vecs = jacobi_eigh(cov)

    np.testing.assert_allclose(
        model.eigenvalues, oracle_vals[:4], rtol=1e-6
    )
    for i in range(4):
        # compare up to sign
        assert abs(abs(np.dot(model.basis[i], oracle_vecs[:, i])) - 1.0) < 1e-6


def test_eigenvalues_equal_projected_variance():
    rng = np.random.default_rng(11)
    samples = rng.normal(size=(40, 10))
    model = fit_pca(samples, target_dim=5)
    proj = project_many(model, samples)
    var = proj.var(axis=0, ddof=1)
    np.testing.assert_allclose(var, model.eigenvalues, rtol=1e-6)


def test_full_rank_projection_is_isometry():
    rng = np.random.default_rng(13)
    samples = rng.normal(size=(20, 5))
    model = fit_pca(samples, target_dim=5)
    proj = project_many(model, samples)
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            orig = np.linalg.norm(samples[i] - samples[j])
            new = np.linalg.norm(proj[i] - proj[j])
            assert new == pytest.approx(orig, rel=1e-6)


def test_projected_covariance_is_diagonal():
    rng = np.random.default_rng(17)
    samples = rng.normal(size=(60, 9))
    model = fit_pca(samples, target_dim=6)
    proj = project_many(model, samples)
    centered = proj - proj.mean(axis=0)
    cov = centered.T @ centered / (len(proj) - 1)
    off = cov - np.diag(np.diag(cov))
    assert np.abs(off).max() < 1e-6 * model.eigenvalues[0]


def test_reconstruction_error_monotone_in_target_dim():
    rng = np.random.default_rng(19)
    samples = rng.normal(size=(30, 8)) @ rng.normal(size=(8, 8))
    errors = []
    for d in range(1, 9):
        model = fit_pca(samples, target_dim=d)
        err = sum(
            np.sum((x - reconstruct(model, project(model, x))) ** 2)
            for x in samples
        )
        errors.append(err)
    for a, b in zip(errors, errors[1:]):
        assert b <= a + 1e-9


def test_sample_order_invariance():
    rng = np.random.default_rng(23)
    samples = rng.normal(size=(25, 6))
    shuffled = samples[rng.permutation(25)]
    m1 = fit_pca(samples, target_dim=4)
    m2 = fit_pca(shuffled, target_dim=4)
    np.testing.assert_allclose(m1.eigenvalues, m2.eigenvalues, atol=1e-9)
    np.testing.assert_allclose(np.abs(m1.basis), np.abs(m2.basis), atol=1e-8)


def test_gram_trick_when_dim_exceeds_samples():
    rng = np.random.default_rng(29)
    samples = rng.normal(size=(10, 40))
    model = fit_pca(samples, target_dim=6)
    # orthonormal basis
    gram = model.basis @ model.basis.T
    np.testing.assert_allclose(gram, np.eye(6), atol=1e-6)
    # eigenvalues agree with the direct covariance eigendecomposition
    centered = samples - samples.mean(axis=0)
    cov = centered.T @ centered / 9
    direct = np.sort(np.linalg.eigvalsh(cov))[::-1][:6]
    np.testing.assert_allclose(model.eigenvalues, direct, rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize(
    "n,dim,target", [(60, 24, 8), (30, 30, 10), (1000, 256, 32), (1600, 256, 32)]
)
def test_covariance_fit_matches_oracle_exactly(n, dim, target):
    # D <= n: the covariance eigendecomposition, bit for bit
    rng = np.random.default_rng(n + dim)
    samples = rng.normal(size=(n, dim)) @ rng.normal(size=(dim, dim))
    model = fit_pca(samples, target)
    mean, basis, eig = covariance_pca(samples, target)
    assert np.array_equal(model.mean, mean)
    assert np.array_equal(model.basis, basis)
    assert np.array_equal(model.eigenvalues, eig)


@pytest.mark.parametrize(
    "samples,target,live",
    [
        (np.tile(np.random.default_rng(41).normal(size=300), (20, 1)), 10, 0),
        (np.repeat(np.random.default_rng(43).normal(size=(50, 512)), 8, axis=0), 128, 49),
    ],
    ids=["identical-rows", "50-rows-repeated"],
)
def test_gram_fit_completes_zero_variance_directions(samples, target, live):
    # D > n with fewer live components than target: the rest of the basis is
    # completed to an orthonormal set and carries exactly zero variance
    model = fit_pca(samples, target)
    np.testing.assert_allclose(model.basis @ model.basis.T, np.eye(target), rtol=0, atol=1e-12)
    assert np.all(model.eigenvalues[:live] > 0.0)
    assert np.all(model.eigenvalues[live:] == 0.0)
    proj = project_many(model, samples)
    centered = proj - proj.mean(axis=0)
    cov = centered.T @ centered / (len(proj) - 1)
    off = cov - np.diag(np.diag(cov))
    assert np.abs(off).max() <= 1e-9 * max(model.eigenvalues[0], 1.0)
    np.testing.assert_allclose(np.diag(cov), model.eigenvalues, rtol=1e-6, atol=1e-9)
    assert fit_pca(samples, target).to_bytes() == model.to_bytes()


def test_projection_beyond_float32_rejected():
    model = fit_pca(np.random.default_rng(47).normal(size=(30, 6)), target_dim=3)
    with pytest.raises(InvalidVectorError, match="float32"):
        project(model, model.mean + 1e39 * model.basis[0])
    with pytest.raises(InvalidVectorError, match="float32"):
        project_many(model, [model.mean, model.mean - 1e39 * model.basis[1]])
    assert project_many(model, np.empty((0, 6))).shape == (0, 3)


@pytest.mark.parametrize("field", ["mean", "basis", "eigenvalues"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_model_rejected(field, value):
    model = fit_pca(np.random.default_rng(53).normal(size=(20, 6)), target_dim=3)
    getattr(model, field).flat[1] = value
    with pytest.raises(DataFormatError, match="NaN or Inf"):
        PcaModel.from_bytes(model.to_bytes())


def test_input_validation():
    rng = np.random.default_rng(31)
    with pytest.raises(ValueError):
        fit_pca(rng.normal(size=(1, 4)), target_dim=1)
    with pytest.raises(ValueError):
        fit_pca(rng.normal(size=(5, 4)), target_dim=5)  # > input dim
    with pytest.raises(ValueError):
        fit_pca(rng.normal(size=(3, 8)), target_dim=3)  # > samples - 1
    model = fit_pca(rng.normal(size=(10, 4)), target_dim=2)
    with pytest.raises(DimensionMismatchError):
        project(model, np.zeros(5))


def test_serialization_round_trip():
    rng = np.random.default_rng(37)
    model = fit_pca(rng.normal(size=(20, 6)), target_dim=3)
    blob = model.to_bytes()
    back = PcaModel.from_bytes(blob)
    assert back.input_dim == 6 and back.target_dim == 3
    # persisted at float32 precision
    np.testing.assert_allclose(back.mean, model.mean, atol=1e-6)
    np.testing.assert_allclose(back.basis, model.basis, atol=1e-6)
    assert back.to_bytes() == blob


def _rank_r(seed, n, rank, dim, amplitude):
    rng = np.random.default_rng(seed)
    directions = np.linalg.qr(rng.normal(size=(dim, rank)))[0]
    return amplitude * rng.normal(size=(n, rank)) @ directions.T


def _spread_spectrum(seed, n, dim, decades, amplitude):
    # full rank n - 1 once centred, singular values spread evenly over decades
    rng = np.random.default_rng(seed)
    left = rng.normal(size=(n, n - 1))
    left = np.linalg.qr(left - left.mean(axis=0))[0]
    right = np.linalg.qr(rng.normal(size=(dim, n - 1)))[0]
    return amplitude * (left * np.logspace(0, -decades, n - 1)) @ right.T


def _assert_top_subspace(samples, target):
    """The fit is orthonormal, captures the top-target singular share of the
    variance, and has eigenvalue exactly 0 on the null directions only: those
    whose true variance is below what a double-precision fit resolves."""
    model = fit_pca(samples, target)
    np.testing.assert_allclose(model.basis @ model.basis.T, np.eye(target), rtol=0, atol=1e-12)
    centered = samples - samples.mean(axis=0)
    true_eig = np.linalg.svd(centered, compute_uv=False) ** 2 / (len(samples) - 1)
    captured = np.sum((centered @ model.basis.T) ** 2) / (len(samples) - 1)
    assert captured == pytest.approx(true_eig[:target].sum(), rel=1e-9)
    top = true_eig[:target]
    assert np.all(model.eigenvalues[top > 1e-11 * top[0]] > 0.0)
    assert np.all(model.eigenvalues[top < 1e-15 * top[0]] == 0.0)
    np.testing.assert_allclose(model.eigenvalues, top, rtol=1e-6, atol=1e-12 * top[0])
    return model


def test_rank_deficient_covariance_fit_at_large_amplitude():
    # D <= n: rounding gives the 53 null directions eigenvalues near -5e-8;
    # an absolute clamp of -1e-9 refused the fit as a negative covariance
    model = _assert_top_subspace(_rank_r(61, 500, 10, 64, 1e4), 63)
    assert np.all(model.eigenvalues[:10] > 0.0)
    assert np.all(model.eigenvalues[10:] == 0.0)


@pytest.mark.parametrize(
    "samples,target,live",
    [
        (_rank_r(67, 60, 2, 65, 3e3), 21, 2),
        (_spread_spectrum(71, 26, 268, 9, 1e4), 24, None),
    ],
    ids=["2-live-dims-at-3e3", "nine-decade-spectrum"],
)
def test_gram_fit_orthonormal_with_near_null_eigenvalues(samples, target, live):
    # D > n: null or unresolved eigenvalues that round above an absolute
    # 1e-12 cut were lifted and normalised, giving parallel basis rows
    model = _assert_top_subspace(samples, target)
    if live is not None:
        assert np.all(model.eigenvalues[:live] > 0.0)
        assert np.all(model.eigenvalues[live:] == 0.0)


def test_gram_fit_at_small_amplitude_keeps_its_components():
    # D > n at amplitude 1e-7: every eigenvalue lies below an absolute 1e-12
    # cut, which zeroed every column and returned a QR completion of zeros
    model = _assert_top_subspace(1e-7 * np.random.default_rng(73).normal(size=(40, 300)), 10)
    assert np.all(model.eigenvalues > 0.0)


@pytest.mark.filterwarnings("error")  # no numpy overflow warning
@pytest.mark.parametrize("amplitude", [1e153, 1e154, 1e160])
@pytest.mark.parametrize("shape", [(20, 8), (6, 40)], ids=["covariance", "gram"])
def test_fit_near_float64_limit(shape, amplitude):
    # at 1e153 the floor's k tr S overflowed to inf and zeroed every
    # component; from 1e154 the product itself overflows and is refused
    samples = np.random.default_rng(79).normal(size=shape)
    if amplitude < 1e154:
        unit, model = fit_pca(samples, 3), fit_pca(amplitude * samples, 3)
        np.testing.assert_allclose(model.eigenvalues, amplitude**2 * unit.eigenvalues, rtol=1e-12)
        np.testing.assert_allclose(model.basis, unit.basis, rtol=0, atol=1e-12)
    else:
        with pytest.raises(InvalidVectorError, match="overflows float64"):
            fit_pca(amplitude * samples, 3)


def test_project_many_of_other_width_rejected():
    model = fit_pca(np.random.default_rng(83).normal(size=(10, 4)), target_dim=2)
    for rows in (np.zeros((3, 5)), np.zeros(4), np.zeros((2, 3, 4))):
        with pytest.raises(DimensionMismatchError, match="rows of 4 values"):
            project_many(model, rows)
