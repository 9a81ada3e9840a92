"""Frechet distance between feature distributions, with streaming moments.

The distance is computed between Gaussians fitted to feature vectors:
``d = |mu_a - mu_b|^2 + tr(Ca + Cb - 2 (Ca^1/2 Cb Ca^1/2)^1/2)``.
Moments accumulate in O(d^2) memory, so feature sets never need to be
held in full.
"""

from __future__ import annotations

import csv

import numpy as np

from . import codec

__all__ = [
    "FidStats",
    "frechet_distance",
    "frechet_from_moments",
    "pixel_features",
    "compression_sweep",
    "write_sweep_csv",
]


class FidStats:
    """Running mean and unbiased covariance of feature vectors."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"feature dimension must be positive, got {dim}")
        self.dim = dim
        self.count = 0
        self._sum = np.zeros(dim, dtype=np.float64)
        self._outer = np.zeros((dim, dim), dtype=np.float64)

    @classmethod
    def from_features(cls, feats: np.ndarray) -> "FidStats":
        feats = np.asarray(feats, dtype=np.float64)
        stats = cls(feats.shape[-1])
        stats.update(feats)
        return stats

    def update(self, feats: np.ndarray) -> None:
        feats = np.asarray(feats, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[1] != self.dim:
            raise ValueError(f"expected (n, {self.dim}) features, got {feats.shape}")
        if not np.all(np.isfinite(feats)):
            raise ValueError("non-finite feature values")
        self.count += feats.shape[0]
        self._sum += feats.sum(axis=0)
        self._outer += feats.T @ feats

    def merge(self, other: "FidStats") -> None:
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        self.count += other.count
        self._sum += other._sum
        self._outer += other._outer

    @property
    def mean(self) -> np.ndarray:
        if self.count < 1:
            raise ValueError("no samples accumulated")
        return self._sum / self.count

    @property
    def covariance(self) -> np.ndarray:
        if self.count < 2:
            raise ValueError("need at least two samples for covariance")
        mu = self.mean
        cov = (self._outer - self.count * np.outer(mu, mu)) / (self.count - 1)
        return (cov + cov.T) / 2.0  # kill accumulation asymmetry


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    if vals.min() < -1e-6 * max(1.0, abs(vals.max())):
        raise ValueError(f"matrix has significant negative eigenvalue {vals.min():g}")
    root = np.sqrt(np.clip(vals, 0.0, None))
    return (vecs * root) @ vecs.T


def frechet_from_moments(
    mean_a: np.ndarray,
    cov_a: np.ndarray,
    mean_b: np.ndarray,
    cov_b: np.ndarray,
) -> float:
    mean_a = np.atleast_1d(np.asarray(mean_a, dtype=np.float64))
    mean_b = np.atleast_1d(np.asarray(mean_b, dtype=np.float64))
    cov_a = np.atleast_2d(np.asarray(cov_a, dtype=np.float64))
    cov_b = np.atleast_2d(np.asarray(cov_b, dtype=np.float64))
    if mean_a.shape != mean_b.shape or cov_a.shape != cov_b.shape:
        raise ValueError("moment shapes disagree")
    root_a = _psd_sqrt(cov_a)
    cross = _psd_sqrt(root_a @ cov_b @ root_a)
    diff = mean_a - mean_b
    positive = float(diff @ diff + np.trace(cov_a) + np.trace(cov_b))
    dist = positive - 2.0 * float(np.trace(cross))
    # Round-off in the eigensolver scales with the magnitude of the traces
    # being cancelled (rank-deficient covariances of near-identical sets hit
    # this hardest), so only a negative result large relative to the positive
    # terms indicates genuinely inconsistent moments.
    if dist < -1e-5 * max(1.0, positive):
        raise ValueError(f"distance computed as {dist:g}; moments are inconsistent")
    return max(dist, 0.0)


def frechet_distance(stats_a: FidStats, stats_b: FidStats) -> float:
    return frechet_from_moments(
        stats_a.mean, stats_a.covariance, stats_b.mean, stats_b.covariance
    )


def pixel_features(images: np.ndarray) -> np.ndarray:
    """Mean-pool each channel to 8x8 and flatten: a 192-dim summary.

    Cheap, deterministic, and sensitive to exactly the kind of damage
    coarse quantization inflicts, which makes it a usable stand-in when
    no trained feature network is available.
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 4 or images.shape[1] != 3:
        raise ValueError(f"expected (n, 3, h, w) images, got {images.shape}")
    n, _, h, w = images.shape
    if h % 8 or w % 8:
        raise ValueError(f"extent ({h}, {w}) not a multiple of 8")
    # the pooled sums run in memory order: fix it, so any layout of the same
    # pixels gives the same features
    pooled = np.ascontiguousarray(images).reshape(n, 3, 8, h // 8, 8, w // 8).mean(axis=(3, 5))
    return pooled.reshape(n, 192)


_SWEEP_CHUNK = 128  # images per codec pass in `compression_sweep`


def compression_sweep(
    images: np.ndarray,
    quality_factors,
    modes,
    extractor=pixel_features,
) -> list[tuple[int, str, float]]:
    """Distance of each (quality, mode) re-encode against the originals.

    `images` is (n, 3, h, w) in [0, 255]. Returns one row per setting in
    the given order. Images pass through the codec and `extractor`
    `_SWEEP_CHUNK` at a time, which bounds the memory a setting needs.
    """
    images = np.asarray(images, dtype=np.float64)
    reference = FidStats.from_features(extractor(images))
    n, _, h, w = images.shape
    rows = []
    for qf in quality_factors:
        for mode in modes:
            feats = []
            for start in range(0, n, _SWEEP_CHUNK):
                chunk = images[start : start + _SWEEP_CHUNK]
                degraded = codec.decode_batch(codec.encode_batch(chunk, qf, mode))
                feats.append(extractor(degraded[:, :, :h, :w]))
            stats = FidStats.from_features(np.concatenate(feats))
            rows.append((int(qf), str(mode), frechet_distance(reference, stats)))
    return rows


def write_sweep_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["quality_factor", "mode", "fid"])
        for qf, mode, value in rows:
            writer.writerow([qf, mode, f"{value:.10g}"])
