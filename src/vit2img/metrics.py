"""Generative-image evaluation: SSIM, Frechet distance / FID with a pluggable
feature extractor, and the Inception Score with a pluggable classifier.

Large pre-trained feature networks are out of scope at desk scale, so FID
and IS run on small deterministic extractors/classifiers whose descriptor
string is embedded in every report; numbers are only comparable within one
descriptor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractError, DataError, DimensionError, NumericError

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
COV_SHRINKAGE = 1e-6


def _gaussian_kernel() -> np.ndarray:
    x = np.arange(SSIM_WINDOW, dtype=np.float64) - (SSIM_WINDOW - 1) / 2.0
    k = np.exp(-(x * x) / (2.0 * SSIM_SIGMA * SSIM_SIGMA))
    return k / k.sum()


def _filter_valid(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Separable 2-D correlation, valid region only."""
    k = kernel.size
    h, w = img.shape
    rows = np.zeros((h, w - k + 1))
    for i in range(k):
        rows += kernel[i] * img[:, i:i + w - k + 1]
    out = np.zeros((h - k + 1, w - k + 1))
    for i in range(k):
        out += kernel[i] * rows[i:i + h - k + 1]
    return out


def ssim(a: np.ndarray, b: np.ndarray, data_range: float = 2.0) -> float:
    """Mean local SSIM over an 11x11 Gaussian window (sigma 1.5).

    Accepts [H, W] or [H, W, C] images (channels are averaged); values must
    lie in a dynamic range of width ``data_range`` (2.0 for [-1, 1] images).
    Symmetric in its arguments, and exactly 1.0 when a and b are identical.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"ssim: shapes differ: {a.shape} vs {b.shape}")
    if a.ndim == 3:
        vals = [ssim(a[:, :, c], b[:, :, c], data_range) for c in range(a.shape[2])]
        return float(np.mean(vals))
    if a.ndim != 2:
        raise DimensionError(f"ssim: expected 2-D or 3-D images, got shape {a.shape}")
    if min(a.shape) < SSIM_WINDOW:
        raise DimensionError(f"ssim: image {a.shape} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window")
    c1 = (SSIM_K1 * data_range) ** 2
    c2 = (SSIM_K2 * data_range) ** 2
    kernel = _gaussian_kernel()
    mu_a = _filter_valid(a, kernel)
    mu_b = _filter_valid(b, kernel)
    var_a = _filter_valid(a * a, kernel) - mu_a * mu_a
    var_b = _filter_valid(b * b, kernel) - mu_b * mu_b
    cov = _filter_valid(a * b, kernel) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def matrix_sqrt_psd(s: np.ndarray) -> np.ndarray:
    """Principal square root of a symmetric PSD matrix via eigendecomposition.

    Negative eigenvalues from round-off are clamped to zero.  Raises if the
    input is asymmetric beyond 1e-8 relative to its largest entry.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionError(f"matrix_sqrt_psd: expected a square matrix, got {s.shape}")
    scale = max(np.abs(s).max(), 1.0)
    if np.abs(s - s.T).max() > 1e-8 * scale:
        raise NumericError("matrix_sqrt_psd: input is not symmetric within tolerance")
    eigvals, eigvecs = np.linalg.eigh(s)
    root = np.sqrt(np.maximum(eigvals, 0.0))
    return (eigvecs * root) @ eigvecs.T


def frechet_distance(mu1, sigma1, mu2, sigma2) -> float:
    """||mu1-mu2||^2 + Tr(S1 + S2 - 2 (S1 S2)^(1/2)) between two Gaussians.

    The cross term is computed as Tr((S1^(1/2) S2 S1^(1/2))^(1/2)), which is
    symmetric PSD whenever both inputs are.  Tiny negative results from
    round-off are clamped to 0.
    """
    mu1 = np.asarray(mu1, dtype=np.float64).ravel()
    mu2 = np.asarray(mu2, dtype=np.float64).ravel()
    sigma1 = np.atleast_2d(np.asarray(sigma1, dtype=np.float64))
    sigma2 = np.atleast_2d(np.asarray(sigma2, dtype=np.float64))
    if mu1.shape != mu2.shape or sigma1.shape != sigma2.shape:
        raise DimensionError("frechet_distance: mean/covariance shapes differ between the two Gaussians")
    root1 = matrix_sqrt_psd(sigma1)
    inner = root1 @ sigma2 @ root1
    inner = (inner + inner.T) / 2.0  # symmetrize round-off before the second root
    cross = matrix_sqrt_psd(inner)
    diff = mu1 - mu2
    dist = float(diff @ diff + np.trace(sigma1) + np.trace(sigma2) - 2.0 * np.trace(cross))
    if dist < -1e-6:
        raise NumericError(f"frechet_distance: got {dist}, inputs are not valid covariances")
    return max(dist, 0.0)


def _fit_gaussian(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and (n-1)-normalized covariance with diagonal shrinkage."""
    n, d = features.shape
    mu = features.mean(axis=0)
    centered = features - mu
    cov = centered.T @ centered / (n - 1) if n > 1 else np.zeros((d, d))
    cov += COV_SHRINKAGE * np.eye(d)
    return mu, cov


def fid(real_images, generated_images, extractor) -> float:
    """Frechet distance between Gaussian fits of extracted features."""
    real = list(real_images)
    gen = list(generated_images)
    if not real or not gen:
        raise DataError("fid: image sets must be nonempty")
    mu_r, cov_r = _fit_gaussian(extractor.extract(real))
    mu_g, cov_g = _fit_gaussian(extractor.extract(gen))
    return frechet_distance(mu_r, cov_r, mu_g, cov_g)


def inception_score(generated_images, classifier) -> float:
    """exp(mean KL(p(y|x) || p(y))) over the generated set.

    ``classifier`` maps a list/array of images to per-image probability
    vectors; rows must sum to 1 within 1e-6.
    """
    images = list(generated_images)
    if not images:
        raise DataError("inception_score: image set is empty")
    probs = np.asarray(classifier(images), dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] != len(images):
        raise ContractError(f"classifier returned shape {probs.shape} for {len(images)} images")
    sums = probs.sum(axis=1)
    if np.abs(sums - 1.0).max() > 1e-6:
        raise ContractError("classifier output rows do not sum to 1 (not a probability vector)")
    marginal = probs.mean(axis=0)
    # p log(p/q) with 0 log 0 = 0; q > 0 wherever any p > 0
    mask = probs > 0.0
    safe_p = np.where(mask, probs, 1.0)
    safe_q = np.where(mask, marginal, 1.0)
    kl = (probs * np.where(mask, np.log(safe_p) - np.log(safe_q), 0.0)).sum(axis=1).mean()
    return float(np.exp(kl))


# ---------------------------------------------------------------------------
# feature extractors / classifiers


def _to_batch(images) -> np.ndarray:
    arr = np.stack([np.asarray(im, dtype=np.float64) for im in images])
    if arr.ndim == 3:
        arr = arr[..., None]
    return arr


class PixelDownsampleExtractor:
    """Average-pool each image onto a small grid and flatten; the cheapest
    deterministic feature map."""

    GRID = 4
    descriptor = f"pixel_downsample(grid={GRID})"

    def extract(self, images) -> np.ndarray:
        arr = _to_batch(images)
        n, h, w, c = arr.shape
        # Average-pool over an even grid partition; exact and deterministic.
        ys = np.linspace(0, h, self.GRID + 1).astype(int)
        xs = np.linspace(0, w, self.GRID + 1).astype(int)
        feats = np.empty((n, self.GRID, self.GRID, c))
        for i in range(self.GRID):
            for j in range(self.GRID):
                feats[:, i, j, :] = arr[:, ys[i]:ys[i + 1], xs[j]:xs[j + 1], :].mean(axis=(1, 2))
        return feats.reshape(n, -1)


class RandomProjectionExtractor:
    """Seeded Gaussian random projection of flattened pixels."""

    def __init__(self, input_shape: tuple[int, int, int], output_dim: int = 16, seed: int = 0):
        self.input_shape = tuple(input_shape)
        self.output_dim = output_dim
        self.seed = seed
        rng = np.random.default_rng(seed)
        d = int(np.prod(self.input_shape))
        self.matrix = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, output_dim))

    @property
    def descriptor(self) -> str:
        return f"seeded_random_projection(dim={self.output_dim},seed={self.seed})"

    def extract(self, images) -> np.ndarray:
        arr = _to_batch(images)
        return arr.reshape(arr.shape[0], -1) @ self.matrix


class TinyClassifier:
    """A small fixed-architecture classifier over pooled pixels, never
    trained: a seeded random-feature probe, in numpy alone.

    Its softmax output feeds the Inception Score and its hidden activations
    serve as FID features.
    """

    HIDDEN = 32

    def __init__(self, n_classes: int, seed: int = 0, channels: int = 3):
        self.n_classes = n_classes
        self.seed = seed
        rng = np.random.default_rng(seed)
        d = PixelDownsampleExtractor.GRID ** 2 * channels
        self.w1 = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, self.HIDDEN))
        self.w2 = rng.normal(0.0, 1.0 / np.sqrt(self.HIDDEN), size=(self.HIDDEN, n_classes))

    @property
    def descriptor(self) -> str:
        return f"tiny_classifier(k={self.n_classes},hidden={self.HIDDEN},seed={self.seed})"

    def extract(self, images) -> np.ndarray:
        """relu(pooled pixels @ w1): the hidden activations."""
        return np.maximum(PixelDownsampleExtractor().extract(images) @ self.w1, 0.0)

    def __call__(self, images) -> np.ndarray:
        """softmax(hidden activations @ w2): one class distribution per image."""
        logits = self.extract(images) @ self.w2
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)


def make_extractor(kind: str, image_size: int, seed: int = 0, channels: int = 3):
    """Build one of the three extractor kinds by name, for images of
    ``image_size`` x ``image_size`` x ``channels``; ``tiny`` has 8 classes."""
    if kind == "pixel":
        return PixelDownsampleExtractor()
    if kind == "proj":
        return RandomProjectionExtractor((image_size, image_size, channels), seed=seed)
    if kind == "tiny":
        return TinyClassifier(n_classes=8, seed=seed, channels=channels)
    raise ContractError(f"unknown extractor kind {kind!r}; expected pixel, proj or tiny")


# ---------------------------------------------------------------------------
# reports


@dataclass
class MetricsReport:
    """Aggregate metric values for one model over one evaluation set."""

    model: str
    fid: float
    is_score: float
    ssim: float
    n_samples: int
    extractor: str

    def key_values(self) -> str:
        return (f"model = {self.model}\nn_samples = {self.n_samples}\nextractor = {self.extractor}\n"
                f"fid = {self.fid:.6f}\nis = {self.is_score:.6f}\nssim = {self.ssim:.6f}\n")


def format_table(reports: list[MetricsReport], footer: Optional[str] = None) -> str:
    """Aligned plain-text table with columns Model, FID, IS, SSIM."""
    rows = [["Model", "FID", "IS", "SSIM"]]
    for r in reports:
        rows.append([r.model, f"{r.fid:.2f}", f"{r.is_score:.4f}", f"{r.ssim:.4f}"])
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    lines = ["  ".join(row[i].ljust(widths[i]) for i in range(4)).rstrip() for row in rows]
    if reports:
        lines += ["", f"n_samples: {reports[0].n_samples}   extractor: {reports[0].extractor}"]
    if footer:
        lines.append(footer)
    return "\n".join(lines) + "\n"
