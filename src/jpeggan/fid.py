"""Frechet distance between feature distributions.

The distance is computed between Gaussians fitted to feature vectors:
``d = |mu_a - mu_b|^2 + tr(Ca + Cb - 2 (Ca^1/2 Cb Ca^1/2)^1/2)``.
A `FidStats` holds one feature set's float64 mean and covariance, which
`FidStats.from_features` fits, and takes the covariance's square root once,
when `frechet_distance` first needs it, so a sweep takes its reference's root once.
"""

from __future__ import annotations

import csv
from functools import cached_property

import numpy as np

from . import codec, jpeg

__all__ = [
    "FidStats",
    "frechet_distance",
    "frechet_from_moments",
    "pixel_features",
    "compression_sweep",
    "write_sweep_csv",
]


class FidStats:
    """A feature set's float64 moments: mean (d,) and covariance (d, d)."""

    def __init__(self, mean: np.ndarray, covariance: np.ndarray):
        self.mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
        self.covariance = np.atleast_2d(np.asarray(covariance, dtype=np.float64))
        if self.mean.ndim != 1:
            raise ValueError(f"mean must be 1-D, got shape {self.mean.shape}")
        dim = self.mean.shape[0]
        if self.covariance.shape != (dim, dim):
            raise ValueError(f"covariance shape {self.covariance.shape} is not ({dim}, {dim})")

    @classmethod
    def from_features(cls, feats: np.ndarray) -> "FidStats":
        """Mean and unbiased covariance of (n, dim) feature vectors, n >= 2."""
        feats = np.asarray(feats, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[1] < 1:
            raise ValueError(f"expected (n, dim) features, got {feats.shape}")
        if not np.all(np.isfinite(feats)):
            raise ValueError("non-finite feature values")
        count = feats.shape[0]
        if count < 2:
            raise ValueError("need at least two samples for covariance")
        mean = feats.sum(axis=0) / count
        cov = (feats.T @ feats - count * np.outer(mean, mean)) / (count - 1)
        return cls(mean, (cov + cov.T) / 2.0)  # kill accumulation asymmetry

    @cached_property
    def _covariance_root(self) -> np.ndarray:
        return _psd_sqrt(self.covariance)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    if vals.min() < -1e-6 * max(1.0, abs(vals.max())):
        raise ValueError(f"matrix has significant negative eigenvalue {vals.min():g}")
    root = np.sqrt(np.clip(vals, 0.0, None))
    return (vecs * root) @ vecs.T


def frechet_from_moments(mean_a, cov_a, mean_b, cov_b) -> float:
    return frechet_distance(FidStats(mean_a, cov_a), FidStats(mean_b, cov_b))


def frechet_distance(stats_a: FidStats, stats_b: FidStats) -> float:
    """The distance between two sets' moments; `stats_a` keeps its covariance root."""
    if stats_a.mean.shape != stats_b.mean.shape:
        raise ValueError("moment shapes disagree")
    root_a = stats_a._covariance_root
    cross = _psd_sqrt(root_a @ stats_b.covariance @ root_a)
    diff = stats_a.mean - stats_b.mean
    positive = float(diff @ diff + np.trace(stats_a.covariance) + np.trace(stats_b.covariance))
    dist = positive - 2.0 * float(np.trace(cross))
    # Round-off in the eigensolver scales with the magnitude of the traces
    # being cancelled (rank-deficient covariances of near-identical sets hit
    # this hardest), so only a negative result large relative to the positive
    # terms indicates genuinely inconsistent moments.
    if dist < -1e-5 * max(1.0, positive):
        raise ValueError(f"distance computed as {dist:g}; moments are inconsistent")
    return max(dist, 0.0)


def pixel_features(images: np.ndarray) -> np.ndarray:
    """Mean-pool each channel to 8x8 and flatten: a 192-dim summary.

    Cheap, deterministic, and sensitive to exactly the kind of damage
    coarse quantization inflicts, which makes it a usable stand-in when
    no trained feature network is available.

    Each pool cell of ph x pw pixels is summed in numpy's own order for
    ``.mean(axis=(3, 5))`` over contiguous memory, so every feature keeps
    that expression's bits: first each of the cell's ph rows over its pw
    columns, then the ph row sums in order, then one division by ph * pw.
    The order depends on the pool width alone. Below 8, numpy adds a row's
    columns left to right, so the row sums are pw - 1 adds of strided
    column slices; these are elementwise, so any memory layout of the same
    pixels gives the same features without a copy. From 8 up, numpy's
    `sum` over a unit-stride row runs its pairwise order, so that `sum`
    makes the row sums; a batch whose rows are not unit-stride (a
    Fortran-order copy) is copied to contiguous memory first.
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 4 or images.shape[1] != 3:
        raise ValueError(f"expected (n, 3, h, w) images, got {images.shape}")
    n, _, h, w = images.shape
    if h % 8 or w % 8:
        raise ValueError(f"extent ({h}, {w}) not a multiple of 8")
    ph, pw = h // 8, w // 8
    if pw >= 8 and images.strides[-1] != images.itemsize:
        images = np.ascontiguousarray(images)
    cells = images.reshape(n, 3, 8, ph, 8, pw)
    rows = cells.sum(axis=-1) if pw >= 8 else _sum_in_order([cells[..., j] for j in range(pw)])
    pooled = _sum_in_order([rows[:, :, :, i] for i in range(ph)])
    pooled /= ph * pw
    return pooled.reshape(n, 192)


def _sum_in_order(parts: list[np.ndarray]) -> np.ndarray:
    """parts[0] + parts[1] + ..., added left to right into one fresh array."""
    total = parts[0] + parts[1] if len(parts) > 1 else parts[0].copy()
    for part in parts[2:]:
        total += part
    return total


_SWEEP_CHUNK = 128  # images per codec pass in `compression_sweep`


def compression_sweep(
    images: np.ndarray,
    quality_factors,
    modes,
    extractor=pixel_features,
) -> list[tuple[int, str, float]]:
    """Distance of each (quality, mode) re-encode against the originals.

    `images` is (n, 3, h, w) in [0, 255]. Returns one row per setting in
    the given order, quality factors outer and modes inner, repeats
    included; each setting is checked before any codec work. The work runs
    the other way round: for each distinct mode, in order of first
    appearance, `codec._encode_coefficients` takes each chunk of
    `_SWEEP_CHUNK` images to coefficient planes once, and every distinct
    quality factor quantizes those planes (`codec._quantize_planes`),
    decodes them (`codec._decode_levels`) and pools them with `extractor`,
    with no per-image containers. Each setting's features are joined in
    chunk order, so its distance has the bits of a per-setting run.

    With one distinct quality factor a mode's chunks stream: one chunk's
    planes at a time. With more, the mode's planes are kept for the later
    quality factors and released before the next mode's, so the sweep
    holds at most one mode's coefficient planes: for 4:4:4, the bytes of
    the float64 images.
    """
    qfs, modes = list(quality_factors), list(modes)
    settings = [(qf, mode) for qf in qfs for mode in modes]
    # every setting is checked before any codec work, without `quant_matrices`:
    # perfbench's repeat check expects the same number of its calls per setting
    for qf, mode in settings:
        if not jpeg._is_quality_factor(qf):
            raise ValueError(f"quality factor {qf} is not an integer in 1..100")
        jpeg.mode_factors(mode)
    images = np.asarray(images, dtype=np.float64)
    reference = FidStats.from_features(extractor(images))
    n, _, h, w = images.shape
    distinct_qfs, distances = list(dict.fromkeys(qfs)), {}
    for mode in dict.fromkeys(modes):
        # rebinding `chunks` drops the last mode's planes before this mode's are made
        chunks = (codec._encode_coefficients(images[start : start + _SWEEP_CHUNK], mode)
                  for start in range(0, n, _SWEEP_CHUNK))
        if len(distinct_qfs) > 1:
            chunks = list(chunks)  # read again by every later quality factor
        for qf in distinct_qfs:
            feats = [extractor(codec._decode_levels(*codec._quantize_planes(coefs, qf), qf, mode)[:, :, :h, :w])
                     for coefs in chunks]
            distances[qf, mode] = frechet_distance(reference, FidStats.from_features(np.concatenate(feats)))
    return [(int(qf), str(mode), distances[qf, mode]) for qf, mode in settings]


def write_sweep_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["quality_factor", "mode", "fid"])
        for qf, mode, value in rows:
            writer.writerow([qf, mode, f"{value:.10g}"])
