"""Coefficients <-> pixels, in two interchangeable forms.

`encode_batch` / `decode_batch` are the plain-numpy reference codec used for
real data, oracles, and the CLI. Both wrap a core on stacked level planes:
the encoder turns a batch of same-sized images into (N, h, w) int64
quantizer levels per plane, each 8x8 block in its place in the plane, and
`_decode_levels` turns such planes back into pixels. The encoder is two
steps, and only the second depends on the quality factor:
`_encode_coefficients` range-checks, edge-pads, transforms the colours,
subsamples the chroma and takes the DCT, giving (N, h, w) float64
coefficient planes for one chroma mode; `_quantize_planes` divides them by
a quality factor's tiled table. `fid.compression_sweep` takes each mode's
coefficients once for all its quality factors and hands the levels
straight to the decoder; the wrappers add one `EncodedImage` container per
image, holding that image's (h, w) slice of each plane, and its checks.
`encode_image`, `decode_image` and `decode_samples` are one-image wrappers.

The core runs on channel-planar (3, N, H, W) memory: the color transform
is one (3, 3) @ (3, N*H*W) GEMM, which rounds exactly as
`jpeg.rgb_to_ycbcr` / `ycbcr_to_rgb` do on pixel-interleaved rows (an
elementwise multiply-add would not), and each plane is contiguous for
subsampling and the DCT. The DCT runs on whole planes, not on copies cut
into 8x8 tiles: T times each 8-row strip, then each 8-wide row of the
result times Tᵀ; the inverse is Tᵀ times each strip, then T. That keeps
`jpeg.dct8x8`'s (T·B)·Tᵀ and `jpeg.idct8x8`'s (Tᵀ·C)·T product order, so
every coefficient and pixel rounds as in the blockwise form. Quantization,
dequantization and the amplitude check use the 8x8 table tiled over the
plane (`jpeg.plane_table`).

`decode_planes` is the same decode pipeline expressed in differentiable
tensor ops so gradients can flow from pixel-space losses back into
coefficient-space generators:

    dequantize -> inverse DCT (+128 level shift) -> chroma upsample
    -> YCbCr to RGB -> clip to [0, 255]

The tape route writes dequantization plus the 8x8 inverse DCT as one
64x64 linear map, diag(q) kron(T, T), applied to every block through
`layers.block_map`, the same block map the locally connected layers use;
the color transform is a 1x1 `conv2d`. The reference decoder keeps the
(Tᵀ·C)·T order: the kron map rounds differently in the last bits, and the
reference pixels and sweep figures are pinned bit for bit. Both routes
share the quantization tables, DCT matrix and color matrix, so they agree
to floating-point accuracy; a test pins that.
"""

from __future__ import annotations

import numpy as np

from . import jpeg
from . import tensor as T
from .jpeg import EncodedImage
from .layers import block_map
from .tensor import Tensor

__all__ = [
    "encode_image",
    "decode_image",
    "decode_samples",
    "encode_batch",
    "decode_batch",
    "decode_planes",
]


def _plane_dct(planes: np.ndarray) -> np.ndarray:
    """Forward DCT of every 8x8 block of (N, h, w) planes, each block's
    coefficients left in its place: T times each 8-row strip, then each
    8-wide row of the result times Tᵀ. That is `jpeg.dct8x8`'s product
    order, (T·B)·Tᵀ, so every coefficient rounds the same."""
    n, h, w = planes.shape
    strips = jpeg._DCT_T @ planes.reshape(n * h // 8, 8, w)
    return (strips.reshape(-1, 8) @ jpeg._DCT_T.T).reshape(n, h, w)


def _plane_idct(coef: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Inverse of `_plane_dct` in `jpeg.idct8x8`'s order, (Tᵀ·C)·T, into
    contiguous `out` of `coef`'s shape."""
    n, h, w = coef.shape
    strips = jpeg._DCT_T.T @ coef.reshape(n * h // 8, 8, w)
    return np.matmul(strips.reshape(-1, 8), jpeg._DCT_T, out=out.reshape(-1, 8)).reshape(n, h, w)


def _encode_coefficients(images: np.ndarray, mode: str) -> tuple[np.ndarray, ...]:
    """(N, 3, H, W) pixels in [0, 255] -> (y, cb, cr) float64 DCT
    coefficient planes (N, h, w), each 8x8 block in its place in the plane.

    Extents are edge-replicated up to the subsampling mode's macroblock
    multiple before encoding.
    """
    imgs = np.asarray(images, dtype=np.float64)
    if imgs.ndim != 4 or imgs.shape[1] != 3:
        raise ValueError(f"expected (N, 3, H, W), got {imgs.shape}")
    if not (imgs.min() >= 0.0 and imgs.max() <= 255.0):  # NaN fails both
        raise ValueError("pixel values outside [0, 255]")
    fv, fh = jpeg.mode_factors(mode)
    ph, pw = -imgs.shape[2] % (8 * fv), -imgs.shape[3] % (8 * fh)
    if ph or pw:
        imgs = np.pad(imgs, ((0, 0), (0, 0), (0, ph), (0, pw)), mode="edge")
    n, _, h, w = imgs.shape

    planar = imgs.transpose(1, 0, 2, 3).reshape(3, -1)  # one channel-planar copy
    ycc = jpeg._RGB_TO_YCBCR @ planar
    ycc += jpeg._YCBCR_OFFSET[:, None]  # in place: a fresh array would cost page faults
    ycc = ycc.reshape(3, n, h, w)
    planes = (ycc[0], jpeg.subsample(ycc[1], mode), jpeg.subsample(ycc[2], mode))
    return tuple(_plane_dct(plane - 128.0) for plane in planes)


def _quantize_planes(coefs, quality_factor: int) -> tuple[np.ndarray, ...]:
    """(y, cb, cr) coefficient planes -> int64 quantizer levels at
    `quality_factor`; `coefs` is left as it was."""
    ql, qc = jpeg.quant_matrices(quality_factor)
    return tuple(jpeg.quantize(c, jpeg.plane_table(q, c)) for c, q in zip(coefs, (ql, qc, qc)))


def _sample_planes(y, cb, cr, quality_factor: int, out=(None, None, None)) -> list[np.ndarray]:
    """(N, h, w) level planes -> YCbCr sample planes at stored resolution,
    each plane's amplitudes checked first. A plane is written into its
    entry of `out` where that is an array of its shape."""
    ql, qc = jpeg.quant_matrices(quality_factor)
    planes = []
    for name, levels, q, dest in zip(("y", "cb", "cr"), (y, cb, cr), (ql, qc, qc), out):
        jpeg.check_amplitudes(name, levels, q)
        if dest is None or dest.shape != levels.shape:
            dest = np.empty(levels.shape)
        pix = _plane_idct(jpeg.dequantize(levels, jpeg.plane_table(q, levels)), dest)
        pix += 128.0
        planes.append(pix)
    return planes


def _decode_levels(y, cb, cr, quality_factor: int, mode: str) -> np.ndarray:
    """(N, h, w) level planes of one setting -> (N, 3, H, W) float pixels in
    [0, 255], a view of channel-planar (3, N, H, W) memory. Raises
    ValueError naming the first plane with an out-of-range level."""
    fv, fh = jpeg.mode_factors(mode)
    n, h, w = y.shape
    ycc = np.empty((3, n, h, w))
    for plane, samples in zip(ycc, _sample_planes(y, cb, cr, quality_factor, ycc)):
        if samples.shape != plane.shape:  # subsampled chroma: nearest-neighbor upsample
            plane.reshape(n, h // fv, fv, w)[...] = np.repeat(samples, fh, axis=-1)[:, :, None]
    m, off = jpeg.ycbcr_to_rgb_matrix()
    rgb = m @ ycc.reshape(3, -1)
    rgb += off[:, None]
    return np.clip(rgb, 0.0, 255.0, out=rgb).reshape(3, n, h, w).transpose(1, 0, 2, 3)


def encode_batch(images: np.ndarray, quality_factor: int, mode: str) -> list[EncodedImage]:
    """Reference encoder: (N, 3, H, W) pixels in [0, 255] -> one container
    of quantized coefficients per image, holding its (h, w) slices of the
    (N, h, w) level planes."""
    levels = _quantize_planes(_encode_coefficients(images, mode), quality_factor)
    return [EncodedImage(int(quality_factor), mode, *planes) for planes in zip(*levels)]


def _stacked_levels(encs: list[EncodedImage]) -> list[np.ndarray]:
    """Check containers of one setting and stack each plane's levels to
    (N, h, w)."""
    if not encs:
        raise ValueError("no containers to decode")
    setting = (encs[0].y.shape, encs[0].quality_factor, encs[0].mode)
    for enc in encs:
        enc.check_layout()
        if (enc.y.shape, enc.quality_factor, enc.mode) != setting:
            raise ValueError(
                "containers in one batch must share extents, quality factor and mode"
            )
    return [np.stack([getattr(enc, name) for enc in encs]) for name in ("y", "cb", "cr")]


def decode_batch(encs: list[EncodedImage]) -> np.ndarray:
    """Reference decoder: containers that share extents, quality factor and
    mode -> (N, 3, H, W) float pixels in [0, 255].

    Every container is checked (`EncodedImage.check_layout`, plus the
    amplitude bound on the stacked planes), then `_decode_levels` decodes
    the stacked planes. The result is a view of channel-planar (3, N, H, W)
    memory. `fid.pixel_features` pools it without a copy, in an order no
    layout changes, so the sweep's distances do not depend on this layout.
    """
    encs = list(encs)
    return _decode_levels(*_stacked_levels(encs), encs[0].quality_factor, encs[0].mode)


def encode_image(rgb: np.ndarray, quality_factor: int, mode: str) -> EncodedImage:
    """`encode_batch` for one HxWx3 image."""
    img = np.asarray(rgb)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"expected HxWx3, got {img.shape}")
    return encode_batch(img.transpose(2, 0, 1)[None], quality_factor, mode)[0]


def decode_samples(enc: EncodedImage) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode to YCbCr sample planes at stored (subsampled) resolution.

    This is the stage standard-conformance tolerances are defined on, so
    interop comparisons against other decoders happen here rather than
    after color conversion.
    """
    y, cb, cr = _sample_planes(*_stacked_levels([enc]), enc.quality_factor)
    return y[0], cb[0], cr[0]


def decode_image(enc: EncodedImage) -> np.ndarray:
    """`decode_batch` for one container: HxWx3 float pixels in [0, 255]."""
    return decode_batch([enc])[0].transpose(1, 2, 0)


def _dequant_idct(levels: Tensor, q: np.ndarray) -> Tensor:
    """Dequantize and inverse-DCT every 8x8 block: one 64x64 map per block.

    Row-major block vectors map as v -> v @ (diag(q) kron(T, T)), which is
    Tᵀ (q * B) T for each block B; the +128 level shift follows.
    """
    t = jpeg.dct_matrix()
    m = np.asarray(q, dtype=np.float64).reshape(64, 1) * np.kron(t, t)
    return T.add_scalar(block_map(levels, Tensor(m.astype(levels.data.dtype)), None, 8, 8), 128.0)


def decode_planes(y: Tensor, cb: Tensor, cr: Tensor, quality_factor: int, mode: str) -> Tensor:
    """Differentiable decode of quantizer-level planes to (N, 3, H, W) RGB.

    Gradients reach the level planes (and through a straight-through
    quantizer, the amplitudes behind them); the clip passes gradient only
    where pixels land strictly inside the displayable range.
    """
    if y.ndim != 4 or cb.ndim != 4 or cr.ndim != 4:
        raise T.ShapeError("decode_planes expects NCHW level planes")
    fv, fh = jpeg.mode_factors(mode)
    n, _, h, w = y.shape
    if cb.shape != (n, 1, h // fv, w // fh) or cr.shape != cb.shape:
        raise T.ShapeError(
            f"chroma shapes {cb.shape}/{cr.shape} inconsistent with luma {y.shape} under {mode}"
        )
    ql, qc = jpeg.quant_matrices(quality_factor)
    yp = _dequant_idct(y, ql)
    cbp = _dequant_idct(cb, qc)
    crp = _dequant_idct(cr, qc)
    if fv != 1 or fh != 1:
        cbp = T.upsample_repeat2d(cbp, fv, fh)
        crp = T.upsample_repeat2d(crp, fv, fh)
    ycc = T.concat([yp, cbp, crp], axis=1)            # n 3 h w

    m, off = jpeg.ycbcr_to_rgb_matrix()
    dtype = y.data.dtype
    pix = T.conv2d(ycc, Tensor(m.reshape(3, 3, 1, 1).astype(dtype)), Tensor(off.astype(dtype)))
    return T.clamp(pix, 0.0, 255.0)
