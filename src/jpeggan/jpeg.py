"""Baseline JPEG numerics: color transforms, 8x8 DCT, quantization, layout.

Everything here is plain numpy on float64/float32 arrays; the differentiable
counterparts in other modules reuse these constants so both routes compute
identical arithmetic.

Conventions fixed across the package:

* full-range JFIF YCbCr (no studio swing), chroma centered on 128;
* pixels are level-shifted by -128 before the forward DCT and the decoder
  adds 128 back after the inverse;
* the DCT is the orthonormal 2-D DCT-II, so a constant block of value v
  (after the shift) has DC 8*v and Parseval holds exactly;
* quantization rounds half away from zero;
* chroma subsampling is block-mean pooling, upsampling is nearest-neighbor
  replication;
* quantized coefficients live in level planes: an (h, w) plane holds each
  8x8 block of levels in its place, `EncodedImage` holds one image's three
  planes, and `plane_table` tiles an 8x8 table over a plane. Only the JFIF
  scan coder cuts planes into (h/8, w/8, 8, 8) blocks (`blockify`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

__all__ = [
    "LUMA_QUANT_BASE",
    "CHROMA_QUANT_BASE",
    "MODES",
    "EncodedImage",
    "rgb_to_ycbcr",
    "ycbcr_to_rgb",
    "ycbcr_to_rgb_matrix",
    "dct_matrix",
    "dct8x8",
    "idct8x8",
    "scale_quant_matrix",
    "quant_matrices",
    "round_half_away",
    "quantize",
    "dequantize",
    "subsample",
    "upsample",
    "mode_factors",
    "zigzag",
    "inverse_zigzag",
    "ZIGZAG_INDEX",
    "plane_table",
    "blockify",
    "unblockify",
    "AMPLITUDE_LIMIT",
    "check_amplitudes",
]

# 50-quality base quantization tables for luma and chroma.
LUMA_QUANT_BASE = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.int64,
)

CHROMA_QUANT_BASE = np.array(
    [
        [17, 18, 24, 47, 99, 99, 99, 99],
        [18, 21, 26, 66, 99, 99, 99, 99],
        [24, 26, 56, 99, 99, 99, 99, 99],
        [47, 66, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
    ],
    dtype=np.int64,
)

MODES = ("4:4:4", "4:2:2", "4:2:0")

# Where generator amplitudes are clamped before quantization.  Keeps every
# coefficient inside the range a baseline entropy coder can represent
# (AC category <= 10, DC difference category <= 11) for any Q >= 1.
AMPLITUDE_LIMIT = 1016.0

# Standard zig-zag scan: ZIGZAG_INDEX[k] is the (row-major) block position of
# the k-th scan element.
ZIGZAG_INDEX = np.array(
    [
        0, 1, 8, 16, 9, 2, 3, 10,
        17, 24, 32, 25, 18, 11, 4, 5,
        12, 19, 26, 33, 40, 48, 41, 34,
        27, 20, 13, 6, 7, 14, 21, 28,
        35, 42, 49, 56, 57, 50, 43, 36,
        29, 22, 15, 23, 30, 37, 44, 51,
        58, 59, 52, 45, 38, 31, 39, 46,
        53, 60, 61, 54, 47, 55, 62, 63,
    ],
    dtype=np.int64,
)

_RGB_TO_YCBCR = np.array(
    [
        [0.299, 0.587, 0.114],
        [-0.168736, -0.331264, 0.5],
        [0.5, -0.418688, -0.081312],
    ]
)
_YCBCR_OFFSET = np.array([0.0, 128.0, 128.0])


def rgb_to_ycbcr(rgb: np.ndarray) -> np.ndarray:
    """Full-range RGB -> YCbCr on an (..., 3) array of values in [0, 255]."""
    rgb = np.asarray(rgb, dtype=np.float64)
    return rgb @ _RGB_TO_YCBCR.T + _YCBCR_OFFSET


def ycbcr_to_rgb_matrix() -> tuple[np.ndarray, np.ndarray]:
    """(M, off) with rgb = ycbcr @ M.T + off, the exact inverse transform."""
    M = np.linalg.inv(_RGB_TO_YCBCR)
    return M, -M @ _YCBCR_OFFSET


def ycbcr_to_rgb(ycbcr: np.ndarray) -> np.ndarray:
    """Exact inverse of rgb_to_ycbcr (no clipping, no rounding)."""
    M, off = ycbcr_to_rgb_matrix()
    return np.asarray(ycbcr, dtype=np.float64) @ M.T + off


def dct_matrix() -> np.ndarray:
    """The orthonormal 8x8 DCT-II matrix T, so dct(b) = T @ b @ T.T."""
    n = np.arange(8)
    k = n.reshape(8, 1)
    T = np.cos((2 * n + 1) * k * np.pi / 16) * 0.5
    T[0, :] = 1.0 / np.sqrt(8.0)
    return T


_DCT_T = dct_matrix()


def dct8x8(block: np.ndarray) -> np.ndarray:
    """Forward 2-D DCT on the trailing two axes (each 8x8)."""
    b = np.asarray(block, dtype=np.float64)
    if b.shape[-2:] != (8, 8):
        raise ValueError(f"expected trailing 8x8, got {b.shape}")
    return _DCT_T @ b @ _DCT_T.T


def idct8x8(coef: np.ndarray) -> np.ndarray:
    c = np.asarray(coef, dtype=np.float64)
    if c.shape[-2:] != (8, 8):
        raise ValueError(f"expected trailing 8x8, got {c.shape}")
    return _DCT_T.T @ c @ _DCT_T


def scale_quant_matrix(base: np.ndarray, quality: float) -> np.ndarray:
    """Scale a 50-quality base table to an arbitrary quality in (0, 100]."""
    if not (0 < quality <= 100):
        raise ValueError(f"quality {quality} outside (0, 100]")
    base = np.asarray(base, dtype=np.float64)
    if quality >= 50:
        scaled = np.floor((100.0 - quality) / 50.0 * base + 0.5)
    else:
        scaled = np.floor(50.0 / quality * base + 0.5)
    return np.maximum(1, scaled).astype(np.int64)


def _is_quality_factor(q) -> bool:
    """True for an integer quality factor in 1..100 (75, 75.0 or np.int64(75))."""
    return 1 <= q <= 100 and q == int(q)


@lru_cache(maxsize=256)
def quant_matrices(quality: int) -> tuple[np.ndarray, np.ndarray]:
    """(luma, chroma) quantization matrices at an integer quality factor.

    Cached: every caller receives the same two arrays, so they are read-only.
    """
    if not _is_quality_factor(quality):
        raise ValueError(f"quality factor {quality} is not an integer in 1..100")
    tables = (
        scale_quant_matrix(LUMA_QUANT_BASE, quality),
        scale_quant_matrix(CHROMA_QUANT_BASE, quality),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest with ties away from zero (numpy rounds to even)."""
    x = np.asarray(x)
    return np.floor(np.abs(x) + 0.5) * np.sign(x)


def quantize(coef: np.ndarray, q: np.ndarray) -> np.ndarray:
    """coef / q, rounded half away from zero, as int64, elementwise; `q`
    broadcasts against `coef` (for level planes, `plane_table`).

    Adding copysign(0.5, x) to x = coef / q rounds |x| + 0.5 the same way for
    either sign, and the int64 cast truncates toward zero, so the levels are
    `round_half_away`'s floor(|x| + 0.5) * sign(x), bit for bit, in three
    passes and the cast.
    """
    x = np.divide(coef, q, dtype=np.float64)
    x += np.copysign(0.5, x)
    return x.astype(np.int64)


def dequantize(levels: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.multiply(levels, q, dtype=np.float64)


def mode_factors(mode: str) -> tuple[int, int]:
    """(vertical, horizontal) chroma reduction for a subsampling mode."""
    if mode == "4:4:4":
        return 1, 1
    if mode == "4:2:2":
        return 1, 2
    if mode == "4:2:0":
        return 2, 2
    raise ValueError(f"unknown subsampling mode {mode!r}")


def subsample(plane: np.ndarray, mode: str) -> np.ndarray:
    """Block-mean chroma reduction of the trailing (H, W) axes (4:4:4 returns
    the plane). Strided slices are summed within each block row, then across
    rows, as `tensor.avg_pool2d` does: numpy's block-mean order, bit for bit."""
    fv, fh = mode_factors(mode)
    p = np.asarray(plane, dtype=np.float64)
    h, w = p.shape[-2:]
    if h % fv or w % fh:
        raise ValueError(f"{h}x{w} plane not divisible by {fv}x{fh}")
    if fv == fh == 1:
        return p
    rows = [reduce(np.add, [p[..., i::fv, j::fh] for j in range(fh)]) for i in range(fv)]
    return reduce(np.add, rows) / (fv * fh)


def upsample(plane: np.ndarray, mode: str) -> np.ndarray:
    """Nearest-neighbor inverse of `subsample` (replicates each sample)."""
    fv, fh = mode_factors(mode)
    p = np.asarray(plane, dtype=np.float64)
    if fv == fh == 1:
        return p.copy()
    return np.repeat(np.repeat(p, fv, axis=-2), fh, axis=-1)


def zigzag(block: np.ndarray) -> np.ndarray:
    """8x8 block -> length-64 vector in standard scan order."""
    b = np.asarray(block)
    if b.shape != (8, 8):
        raise ValueError("zigzag expects one 8x8 block")
    return b.reshape(64)[ZIGZAG_INDEX]


def inverse_zigzag(vec: np.ndarray) -> np.ndarray:
    v = np.asarray(vec)
    if v.shape != (64,):
        raise ValueError("inverse_zigzag expects 64 values")
    out = np.empty(64, dtype=v.dtype)
    out[ZIGZAG_INDEX] = v
    return out.reshape(8, 8)


def plane_table(q: np.ndarray, plane: np.ndarray) -> np.ndarray:
    """The 8x8 table `q` tiled over the trailing (h, w) axes of `plane`."""
    h, w = plane.shape[-2:]
    return np.tile(q, (h // 8, w // 8))


def blockify(plane: np.ndarray) -> np.ndarray:
    """(..., H, W) -> (..., H/8, W/8, 8, 8) contiguous copy of 8x8 tiles."""
    *lead, h, w = plane.shape
    if h % 8 or w % 8:
        raise ValueError(f"plane {h}x{w} not divisible by 8")
    tiles = plane.reshape(*lead, h // 8, 8, w // 8, 8)
    return np.ascontiguousarray(tiles.swapaxes(-3, -2))


def unblockify(blocks: np.ndarray) -> np.ndarray:
    """(..., by, bx, 8, 8) -> (..., by*8, bx*8), the inverse of `blockify`."""
    *lead, by, bx, _, _ = blocks.shape
    return np.ascontiguousarray(blocks.swapaxes(-3, -2).reshape(*lead, by * 8, bx * 8))


def check_amplitudes(name: str, levels: np.ndarray, q: np.ndarray) -> None:
    """Reject quantizer levels whose amplitudes leave the container's range.

    `levels` are (..., h, w) level planes and `q` is their 8x8 table. A level
    may reach (1024 + 8 q) // q in magnitude, the largest whose amplitude
    |level * q| stays within 1024 + 8 q. Levels are compared with that bound,
    tiled over the plane, rather than multiplied, so no product can wrap
    around.
    """
    bound = plane_table((1024 + 8 * q) // q, levels)
    if np.any(levels > bound) or np.any(levels < -bound):
        raise ValueError(f"{name} plane has out-of-range amplitudes")


@dataclass
class EncodedImage:
    """Quantizer levels of one image: three (h, w) integer planes, each 8x8
    block of DCT levels in its place in the plane.

    `height` and `width` are the padded luma extents in pixels, read from
    `y`; the chroma planes are `y`'s shape divided by the mode's factors.
    """

    quality_factor: int
    mode: str
    y: np.ndarray = field(repr=False)
    cb: np.ndarray = field(repr=False)
    cr: np.ndarray = field(repr=False)

    @property
    def height(self) -> int:
        return self.y.shape[0]

    @property
    def width(self) -> int:
        return self.y.shape[1]

    def validate(self) -> None:
        self.check_layout()
        ql, qc = quant_matrices(self.quality_factor)
        for name, q in (("y", ql), ("cb", qc), ("cr", qc)):
            check_amplitudes(name, getattr(self, name), q)

    def check_layout(self) -> None:
        """Every check of `validate` except the amplitude bound: the
        metadata, and each plane's shape and integer dtype."""
        if self.mode not in MODES:
            raise ValueError(f"bad mode {self.mode!r}")
        if not _is_quality_factor(self.quality_factor):
            raise ValueError(f"bad quality factor {self.quality_factor}")
        for name in ("y", "cb", "cr"):
            plane = getattr(self, name)
            if plane.ndim != 2:
                raise ValueError(f"{name} plane shape {plane.shape} is not (h, w)")
            if plane.dtype.kind not in "iu":  # signed or unsigned integers
                raise ValueError(f"{name} plane must be integer levels")
        h, w = self.y.shape
        fv, fh = mode_factors(self.mode)
        if h < 1 or w < 1 or h % (8 * fv) or w % (8 * fh):
            raise ValueError(
                f"y plane shape {self.y.shape} is not a positive multiple of the "
                f"{self.mode} macroblock"
            )
        chroma = (h // fv, w // fh)
        for name in ("cb", "cr"):
            shape = getattr(self, name).shape
            if shape != chroma:
                raise ValueError(f"{name} plane shape {shape} != {chroma}")
