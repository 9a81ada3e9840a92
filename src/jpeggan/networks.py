"""Generator, anchor generator, and critic.

The generator is a shared trunk (FC -> four upsampling residual blocks ->
3-channel conv) followed by three coefficient paths, one per YCbCr
component.  Each path is a 1x1-block local layer, an optional chroma
mean-pool, an 8x8-block local layer producing DCT amplitudes, and a
quantization layer.  The paths emit (N, 1, h, w) quantizer-level planes,
each 8x8 block in its place, the layout `jpeg.EncodedImage` holds, so
`to_encoded_images` slices them into per-image containers as they are.
The anchor generator wraps a trunk in a parameterless tanh head scaled to
[0, 255]: pretraining trains it on the generator's own trunk, and the joint
phase holds a frozen copy (`extract_anchor`).

At 32x32 output resolution every width is halved from the 64x64 base,
except the last residual block which keeps the base width.
"""

from __future__ import annotations

import copy
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .jpeg import (
    AMPLITUDE_LIMIT,
    EncodedImage,
    MODES,
    _is_quality_factor,
    mode_factors,
    quant_matrices,
)
from .layers import ChromaSubsample, Conv2d, Linear, LocallyConnected, Module, Quantization, ResidualBlock
from .tensor import Tensor

__all__ = [
    "GeneratorSpec",
    "DiscriminatorSpec",
    "Trunk",
    "Generator",
    "AnchorGenerator",
    "Discriminator",
    "GeneratorOutput",
    "extract_anchor",
    "cast_params",
    "to_encoded_images",
    "save_params",
    "load_params",
]


@dataclass
class GeneratorSpec:
    latent_dim: int = 128
    resolution: int = 32
    base_channels: int = 128
    path_channels: int = 4
    mode: str = "4:2:0"
    quality_factor: int = 75

    def problems(self) -> list[str]:
        """One message per setting out of range; empty when the spec is valid."""
        out = _shape_problems(self.resolution, self.base_channels)
        if self.latent_dim < 1:
            out.append(f"latent_dim must be >= 1, got {self.latent_dim}")
        if self.path_channels < 1:
            out.append(f"path_channels must be >= 1, got {self.path_channels}")
        if self.mode not in MODES:
            out.append(f"mode must be one of {', '.join(MODES)}, got {self.mode!r}")
        if not _is_quality_factor(self.quality_factor):
            out.append(f"quality factor must be an integer in 1..100, got {self.quality_factor}")
        return out

    def validate(self) -> None:
        _raise_problems(self.problems())


@dataclass
class DiscriminatorSpec:
    resolution: int = 32
    base_channels: int = 128

    def problems(self) -> list[str]:
        """One message per setting out of range; empty when the spec is valid."""
        return _shape_problems(self.resolution, self.base_channels)

    def validate(self) -> None:
        _raise_problems(self.problems())


def _shape_problems(resolution: int, base_channels: int) -> list[str]:
    out = []
    if resolution not in (32, 64):
        out.append(f"resolution must be 32 or 64, got {resolution}")
    if base_channels < 2 or base_channels % 2:
        out.append(f"base_channels must be even and >= 2, got {base_channels}")
    return out


def _raise_problems(problems: list[str]) -> None:
    if problems:
        raise ValueError("; ".join(problems))


def _gen_plan(base: int) -> tuple[int, list[int]]:
    """(FC-stage width, output width of each upsampling block).

    Widths halve per stage (floor 2): a generator decides global structure
    in its cheap low-resolution stages, while the full-resolution stages
    dominate compute, so capacity belongs early.
    """
    return base, [max(base >> k, 2) for k in range(4)]


def _disc_plan(resolution: int, base: int) -> tuple[int, list[int]]:
    """(width of the stem, output width of each downsampling block)."""
    if resolution == 64:
        return base, [base, base, base, base]
    half = base // 2
    return half, [half, half, half, base]


class Trunk(Module):
    """latent -> FC -> 4 upsampling residual blocks -> 3-channel conv."""

    def __init__(self, spec: GeneratorSpec, rng: np.random.Generator):
        spec.validate()
        self.spec = spec
        width, plan = _gen_plan(spec.base_channels)
        self.start = spec.resolution // 16
        self.width = width
        self.channel_plan = plan
        self.fc = Linear(spec.latent_dim, width * self.start * self.start, rng)
        self.block = [ResidualBlock(c_in, c_out, rng, resample="up")
                      for c_in, c_out in zip([width] + plan, plan)]
        self.conv = Conv2d(plan[-1], 3, 3, rng)
        # Start the output head near zero so initial samples sit mid-range
        # instead of at the tanh rails, where the pixel head's gradient dies.
        self.conv.w.data *= 0.1

    def forward(self, z: Tensor) -> Tensor:
        n = z.shape[0]
        h = self.fc.forward(z)
        h = T.reshape(h, (n, self.width, self.start, self.start))
        for blk in self.block:
            h = blk.forward(h)
        return self.conv.forward(h)


@dataclass
class GeneratorOutput:
    """Quantizer-level planes, still on the tape, plus the codec settings."""

    y: Tensor
    cb: Tensor
    cr: Tensor
    quality_factor: int
    mode: str


class _CoefficientPath(Module):
    def __init__(self, spec: GeneratorSpec, chroma: bool, q: np.ndarray, rng: np.random.Generator):
        self.loc1 = LocallyConnected(1, 1, 3, spec.path_channels, rng)
        self.subsample = ChromaSubsample(spec.mode) if chroma else None
        self.loc2 = LocallyConnected(8, 8, spec.path_channels, 1, rng)
        self.quant = Quantization(q)

    def forward(self, trunk_out: Tensor) -> Tensor:
        h = self.loc1.forward(trunk_out)
        if self.subsample is not None:
            h = self.subsample.forward(h)
        amp = self.loc2.forward(h)
        amp = T.clamp(amp, -AMPLITUDE_LIMIT, AMPLITUDE_LIMIT)
        return self.quant.forward(amp)


class Generator(Module):
    def __init__(self, spec: GeneratorSpec, rng: np.random.Generator):
        spec.validate()
        self.spec = spec
        self.trunk = Trunk(spec, rng)
        ql, qc = quant_matrices(spec.quality_factor)
        self.path_y = _CoefficientPath(spec, chroma=False, q=ql, rng=rng)
        self.path_cb = _CoefficientPath(spec, chroma=True, q=qc, rng=rng)
        self.path_cr = _CoefficientPath(spec, chroma=True, q=qc, rng=rng)

    @property
    def channel_plan(self) -> list[int]:
        return self.trunk.channel_plan

    def forward(self, z: Tensor) -> GeneratorOutput:
        t = self.trunk.forward(z)
        return GeneratorOutput(
            y=self.path_y.forward(t),
            cb=self.path_cb.forward(t),
            cr=self.path_cr.forward(t),
            quality_factor=self.spec.quality_factor,
            mode=self.spec.mode,
        )


class AnchorGenerator(Module):
    """The trunk plus a parameterless scaled-tanh head: latent -> RGB in [0, 255]."""

    def __init__(self, trunk: Trunk):
        self.trunk = trunk

    def forward(self, z: Tensor) -> Tensor:
        return T.scalar_mul(T.add_scalar(T.tanh(self.trunk.forward(z)), 1.0), 127.5)


def cast_params(net, dtype) -> None:
    """Cast every parameter of a network to `dtype` in place.

    Mixed-precision arithmetic silently promotes to float64 in numpy, so a
    float32 run must cast the weights, not just the data.
    """
    for p in net.params().values():
        p.data = p.data.astype(dtype)


def extract_anchor(gen: Generator) -> AnchorGenerator:
    """Copy the generator's trunk, at its dtype, into a frozen anchor generator."""
    anchor = AnchorGenerator(copy.deepcopy(gen.trunk))
    for p in anchor.params().values():
        p.requires_grad = False
    return anchor


class Discriminator(Module):
    """conv -> 4 downsampling residual blocks -> FC -> per-sample score.

    Input pixels are in [0, 255]; the first op rescales them to [-1, 1].
    """

    def __init__(self, spec: DiscriminatorSpec, rng: np.random.Generator):
        spec.validate()
        self.spec = spec
        width, plan = _disc_plan(spec.resolution, spec.base_channels)
        self.channel_plan = plan
        self.conv = Conv2d(3, width, 3, rng)
        self.block = [ResidualBlock(c_in, c_out, rng, resample="down")
                      for c_in, c_out in zip([width] + plan, plan)]
        self.final_spatial = spec.resolution // 16
        self.feature_dim = plan[-1] * self.final_spatial ** 2
        self.fc = Linear(self.feature_dim, 1, rng)

    def features(self, x: Tensor) -> Tensor:
        """Flattened activations just before the final FC layer."""
        n = x.shape[0]
        h = T.add_scalar(T.scalar_mul(x, 1.0 / 127.5), -1.0)
        h = self.conv.forward(h)
        for blk in self.block:
            h = blk.forward(h)
        return T.reshape(h, (n, self.feature_dim))

    def forward(self, x: Tensor) -> Tensor:
        n = x.shape[0]
        return T.reshape(self.fc.forward(self.features(x)), (n,))


def to_encoded_images(out: GeneratorOutput) -> list[EncodedImage]:
    """Materialize a generator batch as per-image coefficient containers,
    each holding its image's slices of the int64 level planes."""
    planes = (p.data[:, 0].astype(np.int64) for p in (out.y, out.cb, out.cr))
    return [EncodedImage(out.quality_factor, out.mode, *image) for image in zip(*planes)]


# -- parameter container ------------------------------------------------------
#
# Layout: magic "JGNP", u32 version, u32 count, then per array:
#   u16 name length, utf-8 name, u8 dtype code, u8 ndim, u32 dims...,
#   raw little-endian row-major data. No name appears twice.

_MAGIC = b"JGNP"
_VERSION = 1
_DTYPE_CODES = {
    np.dtype(np.float32): 0,
    np.dtype(np.float64): 1,
    np.dtype(np.int64): 2,
}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


def save_params(path: str, arrays: dict[str, np.ndarray | Tensor]) -> None:
    items = []
    for name, arr in arrays.items():
        a = arr.data if isinstance(arr, Tensor) else np.asarray(arr)
        if a.dtype not in _DTYPE_CODES:
            raise ValueError(f"{name}: unsupported dtype {a.dtype}")
        items.append((name, np.ascontiguousarray(a).reshape(a.shape)))
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<II", _VERSION, len(items)))
        for name, a in items:
            nb = name.encode("utf-8")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<BB", _DTYPE_CODES[a.dtype], a.ndim))
            f.write(struct.pack(f"<{a.ndim}I", *a.shape))
            f.write(a.astype(a.dtype.newbyteorder("<"), copy=False).tobytes())


def load_params(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != _MAGIC:
        raise ValueError("not a parameter container (bad magic)")
    if len(blob) < 12:
        raise ValueError("truncated container header")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != _VERSION:
        raise ValueError(f"unsupported container version {version}")
    pos = 12
    out: dict[str, np.ndarray] = {}
    try:
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", blob, pos)
            pos += 2
            name = blob[pos : pos + nlen].decode("utf-8")
            if name in out:
                raise ValueError(f"corrupt parameter container: array {name!r} appears twice")
            pos += nlen
            code, ndim = struct.unpack_from("<BB", blob, pos)
            pos += 2
            dims = struct.unpack_from(f"<{ndim}I", blob, pos)
            pos += 4 * ndim
            dt = _CODE_DTYPES[code]
            nbytes = math.prod(dims) * dt.itemsize  # Python ints: no int64 wrap
            raw = blob[pos : pos + nbytes]
            if len(raw) != nbytes:
                raise ValueError("truncated container")
            pos += nbytes
            out[name] = np.frombuffer(raw, dtype=dt.newbyteorder("<")).astype(dt).reshape(dims)
    except (struct.error, KeyError, UnicodeDecodeError) as e:
        raise ValueError(f"corrupt parameter container: {e}") from None
    if pos != len(blob):
        raise ValueError("trailing bytes after last array")
    return out
