import numpy as np
import pytest

from vit2img.data import synth_segmentation_dataset
from vit2img.errors import ContractError, DataError, DimensionError, NumericError
from vit2img.metrics import (MetricsReport, PixelDownsampleExtractor,
                             RandomProjectionExtractor, TinyClassifier, fid,
                             format_table, frechet_distance, inception_score,
                             make_extractor, matrix_sqrt_psd, ssim)


def ssim_windowed_oracle(a, b, data_range=2.0, win=11, sigma=1.5):
    """Direct per-window evaluation of the SSIM formula with Gaussian weights."""
    g = np.exp(-((np.arange(win) - (win - 1) / 2.0) ** 2) / (2 * sigma ** 2))
    g /= g.sum()
    w2 = np.outer(g, g)
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    h, wd = a.shape
    vals = []
    for i in range(h - win + 1):
        for j in range(wd - win + 1):
            pa = a[i:i + win, j:j + win]
            pb = b[i:i + win, j:j + win]
            mu_a = (w2 * pa).sum()
            mu_b = (w2 * pb).sum()
            va = (w2 * pa * pa).sum() - mu_a ** 2
            vb = (w2 * pb * pb).sum() - mu_b ** 2
            cab = (w2 * pa * pb).sum() - mu_a * mu_b
            vals.append(((2 * mu_a * mu_b + c1) * (2 * cab + c2)) /
                        ((mu_a ** 2 + mu_b ** 2 + c1) * (va + vb + c2)))
    return float(np.mean(vals))


# --- ssim -------------------------------------------------------------------------

def test_ssim_self_is_exactly_one(rng):
    x = rng.uniform(-1, 1, size=(16, 16))
    assert ssim(x, x) == 1.0
    x3 = rng.uniform(-1, 1, size=(16, 16, 3))
    assert ssim(x3, x3) == 1.0


def test_ssim_contrast_inverted_low(rng):
    x = np.tile(np.array([-0.9, 0.9] * 8), (16, 1))  # high-contrast stripes
    val = ssim(x, -x)
    oracle = ssim_windowed_oracle(x, -x)
    assert val < 0.1
    np.testing.assert_allclose(val, oracle, atol=1e-10)


def test_ssim_matches_windowed_oracle(rng):
    a = rng.uniform(-1, 1, size=(14, 15))
    b = rng.uniform(-1, 1, size=(14, 15))
    np.testing.assert_allclose(ssim(a, b), ssim_windowed_oracle(a, b), atol=1e-10)


def test_ssim_symmetric(rng):
    a = rng.uniform(-1, 1, size=(16, 16))
    b = rng.uniform(-1, 1, size=(16, 16))
    assert abs(ssim(a, b) - ssim(b, a)) < 1e-12


def test_ssim_bounded(rng):
    for seed in range(3):
        r = np.random.default_rng(seed)
        a = r.uniform(-1, 1, size=(12, 12))
        b = r.uniform(-1, 1, size=(12, 12))
        assert -1.0 <= ssim(a, b) <= 1.0


def test_ssim_shape_mismatch():
    with pytest.raises(DimensionError):
        ssim(np.zeros((12, 12)), np.zeros((12, 13)))


# --- matrix sqrt ---------------------------------------------------------------------

def test_matrix_sqrt_identity():
    np.testing.assert_allclose(matrix_sqrt_psd(np.eye(4)), np.eye(4), atol=1e-14)


def test_matrix_sqrt_diagonal():
    np.testing.assert_allclose(matrix_sqrt_psd(np.diag([4.0, 9.0])),
                               np.diag([2.0, 3.0]), atol=1e-14)


@pytest.mark.parametrize("n", [6, 16, 32])
def test_matrix_sqrt_reconstruction_residual(n):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n))
    s = a @ a.T
    r = matrix_sqrt_psd(s)
    resid = np.linalg.norm(r @ r - s) / np.linalg.norm(s)
    assert resid < 1e-8


def test_matrix_sqrt_asymmetric_rejected():
    s = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(NumericError):
        matrix_sqrt_psd(s)


# --- frechet distance ------------------------------------------------------------------

def test_frechet_identical_gaussians_zero(rng):
    a = rng.normal(size=(5, 5))
    sigma = a @ a.T
    mu = rng.normal(size=5)
    assert frechet_distance(mu, sigma, mu, sigma) < 1e-10


def test_frechet_point_masses():
    d = np.array([1.0, -2.0, 0.5])
    z = np.zeros((3, 3))
    np.testing.assert_allclose(frechet_distance(d, z, np.zeros(3), z),
                               float(d @ d), rtol=1e-12)


def test_frechet_diagonal_closed_form(rng):
    s1 = np.diag(rng.uniform(0.5, 3.0, size=4))
    s2 = np.diag(rng.uniform(0.5, 3.0, size=4))
    mu = rng.normal(size=4)
    expected = ((np.sqrt(np.diag(s1)) - np.sqrt(np.diag(s2))) ** 2).sum()
    np.testing.assert_allclose(frechet_distance(mu, s1, mu, s2), expected, rtol=1e-9)


def test_frechet_symmetric_in_arguments(rng):
    a = rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4))
    s1, s2 = a @ a.T, b @ b.T
    m1, m2 = rng.normal(size=4), rng.normal(size=4)
    d12 = frechet_distance(m1, s1, m2, s2)
    d21 = frechet_distance(m2, s2, m1, s1)
    np.testing.assert_allclose(d12, d21, rtol=1e-8)
    assert d12 >= 0.0


# --- fid ----------------------------------------------------------------------------

def images_from(seed, n=8, size=16):
    return [s.input for s in synth_segmentation_dataset(n, size, 3, seed)]


def test_fid_same_set_is_zero():
    imgs = images_from(0)
    extractor = PixelDownsampleExtractor()
    assert fid(imgs, [im.copy() for im in imgs], extractor) < 1e-8


def test_fid_noised_copy_positive_and_matches_pipeline_oracle():
    from scipy import linalg
    imgs = images_from(1)
    rng = np.random.default_rng(0)
    noisy = [np.clip(im + rng.normal(scale=0.3, size=im.shape), -1, 1) for im in imgs]
    extractor = PixelDownsampleExtractor()
    val = fid(imgs, noisy, extractor)
    assert val > 0.0
    # independent recomputation: same features, scipy sqrtm route
    fr = extractor.extract(imgs)
    fg = extractor.extract(noisy)
    mu_r, mu_g = fr.mean(axis=0), fg.mean(axis=0)
    cov_r = np.cov(fr, rowvar=False) + 1e-6 * np.eye(fr.shape[1])
    cov_g = np.cov(fg, rowvar=False) + 1e-6 * np.eye(fg.shape[1])
    cross = linalg.sqrtm(cov_r @ cov_g)
    if np.iscomplexobj(cross):
        cross = cross.real
    expected = float((mu_r - mu_g) @ (mu_r - mu_g)
                     + np.trace(cov_r) + np.trace(cov_g) - 2 * np.trace(cross))
    np.testing.assert_allclose(val, expected, rtol=1e-6, atol=1e-10)


def test_fid_decreases_along_blend_path():
    real = images_from(2)
    fake = images_from(3)
    extractor = PixelDownsampleExtractor()
    vals = []
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        blended = [(1 - t) * f + t * r for f, r in zip(fake, real)]
        vals.append(fid(real, blended, extractor))
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-8


def test_fid_empty_set_rejected():
    with pytest.raises(DataError):
        fid([], images_from(0), PixelDownsampleExtractor())


# --- inception score ---------------------------------------------------------------------

class FixedClassifier:
    def __init__(self, probs):
        self.probs = np.asarray(probs, dtype=np.float64)

    def __call__(self, images):
        return self.probs[: len(images)]


def test_is_identical_conditionals_is_one():
    probs = np.tile([0.2, 0.5, 0.3], (6, 1))
    imgs = [np.zeros((4, 4, 3))] * 6
    assert inception_score(imgs, FixedClassifier(probs)) == 1.0


def test_is_uniform_one_hot_coverage_is_k():
    k = 5
    probs = np.eye(k)
    imgs = [np.zeros((4, 4, 3))] * k
    val = inception_score(imgs, FixedClassifier(probs))
    np.testing.assert_allclose(val, k, rtol=1e-12)


def test_is_mixed_case_matches_direct_kl_oracle(rng):
    probs = rng.dirichlet(np.ones(4), size=7)
    imgs = [np.zeros((2, 2, 3))] * 7
    val = inception_score(imgs, FixedClassifier(probs))
    marginal = probs.mean(axis=0)
    kls = [(p * (np.log(p) - np.log(marginal))).sum() for p in probs]
    np.testing.assert_allclose(val, np.exp(np.mean(kls)), atol=1e-12)


def test_is_bounds(rng):
    for seed in range(3):
        probs = np.random.default_rng(seed).dirichlet(np.ones(6), size=10)
        imgs = [np.zeros((2, 2, 3))] * 10
        val = inception_score(imgs, FixedClassifier(probs))
        assert 1.0 - 1e-12 <= val <= 6.0 + 1e-12


def test_is_rejects_unnormalized():
    probs = np.full((3, 4), 0.3)
    imgs = [np.zeros((2, 2, 3))] * 3
    with pytest.raises(ContractError):
        inception_score(imgs, FixedClassifier(probs))


# --- extractors ---------------------------------------------------------------------------

def test_extractors_deterministic(rng):
    imgs = images_from(4, n=4)
    for extractor in (PixelDownsampleExtractor(),
                      RandomProjectionExtractor((16, 16, 3), output_dim=8, seed=3),
                      TinyClassifier(3, seed=3)):
        f1 = extractor.extract(imgs)
        f2 = extractor.extract(imgs)
        assert f1.tobytes() == f2.tobytes()
        assert f1.shape[0] == 4


def test_tiny_classifier_probabilities_normalized():
    imgs = images_from(5, n=6)
    clf = TinyClassifier(4, seed=1)
    probs = clf(imgs)
    np.testing.assert_allclose(probs.sum(axis=1), np.ones(6), atol=1e-12)
    assert "tiny_classifier" in clf.descriptor


def test_make_extractor_kinds():
    assert type(make_extractor("pixel", 16)) is PixelDownsampleExtractor
    assert type(make_extractor("proj", 16, seed=2)) is RandomProjectionExtractor
    assert type(make_extractor("tiny", 16)) is TinyClassifier
    with pytest.raises(ContractError):
        make_extractor("inception", 16)


# --- reports ------------------------------------------------------------------------------

def test_report_table_columns_exact():
    rep = MetricsReport(model="vit-c", fid=12.5, is_score=1.3, ssim=0.9,
                        n_samples=8, extractor="pixel_downsample(grid=4)")
    table = format_table([rep])
    header = table.splitlines()[0].split()
    assert header == ["Model", "FID", "IS", "SSIM"]
    assert "vit-c" in table
    assert "pixel_downsample(grid=4)" in table


def test_report_key_values():
    rep = MetricsReport(model="m", fid=1.0, is_score=2.0, ssim=0.25,
                        n_samples=4, extractor="e")
    kv = rep.key_values()
    assert "fid = 1.000000" in kv
    assert "is = 2.000000" in kv
    assert "ssim = 0.250000" in kv
    assert "model = m" in kv
