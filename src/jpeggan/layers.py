"""Network building blocks operating on NCHW tensors.

The distinctive pieces are the block-local dense map `block_map` (one
weight matrix shared by every tile of the feature map; the locally connected
layer and the codec's differentiable decode both run on it), the mean-pool
chroma reduction, and the rounding layer whose backward is the
straight-through 1/Q scale.

Every layer and network that owns trainable tensors subclasses `Module`,
whose `params()` names each `Tensor` by its attribute path, in assignment
order: a `Tensor` attribute `w` is `w`, a `Module` attribute `conv`
contributes `conv.<key>`, and item i of a list attribute `block` contributes
`block<i>.<key>`. Any other attribute is skipped. These names are the
checkpoint format.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .jpeg import mode_factors, plane_table
from .tensor import Tensor

__all__ = [
    "he_uniform",
    "block_map",
    "Module",
    "Linear",
    "Conv2d",
    "LocallyConnected",
    "ChromaSubsample",
    "Quantization",
    "ResidualBlock",
]


def he_uniform(rng: np.random.Generator, shape, fan_in: int) -> Tensor:
    """Fan-in scaled float64 uniform init, U(-sqrt(6/fan_in), +sqrt(6/fan_in))."""
    bound = float(np.sqrt(6.0 / fan_in))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def block_map(x: Tensor, w: Tensor, b: Tensor | None, bh: int, bw: int) -> Tensor:
    """Apply one dense map to every (bh x bw) tile of an NCHW tensor.

    Each tile is flattened in (channel, row, col) order to a row of
    C*bh*bw values and multiplied by `w` (C*bh*bw, O*bh*bw) in one matmul
    over all tiles, plus the bias `b` (O*bh*bw,) if given; the results are
    unflattened in the same order into an (N, O, H, W) map.
    """
    n, c, h, wd = x.shape
    if h % bh or wd % bw:
        raise T.ShapeError(f"{h}x{wd} input not tiled by {bh}x{bw} blocks")
    th, tw = h // bh, wd // bw
    cols = w.shape[1]
    out_ch = cols // (bh * bw)
    tiles = T.reshape(x, (n, c, th, bh, tw, bw))
    tiles = T.permute(tiles, (0, 2, 4, 1, 3, 5))           # n, th, tw, c, bh, bw
    out = T.matmul(T.reshape(tiles, (n * th * tw, c * bh * bw)), w)
    if b is not None:
        out = T.add(out, T.expand(T.reshape(b, (1, cols)), (n * th * tw, cols)))
    out = T.reshape(out, (n, th, tw, out_ch, bh, bw))
    out = T.permute(out, (0, 3, 1, 4, 2, 5))               # n, o, th, bh, tw, bw
    return T.reshape(out, (n, out_ch, h, wd))


class Module:
    """A layer or network whose parameters `params()` names by the rule above."""

    def params(self) -> dict[str, Tensor]:
        out = {}
        for name, value in vars(self).items():
            items = enumerate(value) if isinstance(value, list) else [("", value)]
            for i, item in items:
                key = f"{name}{i}"
                if isinstance(item, Tensor):
                    out[key] = item
                elif isinstance(item, Module):
                    out.update({f"{key}.{k}": v for k, v in item.params().items()})
        return out


class Linear(Module):
    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        self.in_features = in_features
        self.out_features = out_features
        self.w = he_uniform(rng, (in_features, out_features), in_features)
        self.b = T.zeros((out_features,), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        n = x.shape[0]
        out = T.matmul(x, self.w)
        return T.add(out, T.expand(T.reshape(self.b, (1, self.out_features)), (n, self.out_features)))


class Conv2d(Module):
    """k x k same convolution (`T.conv2d`) with a bias; k must be odd."""

    def __init__(self, in_ch: int, out_ch: int, k: int, rng: np.random.Generator):
        self.w = he_uniform(rng, (out_ch, in_ch, k, k), in_ch * k * k)
        self.b = T.zeros((out_ch,), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return T.conv2d(x, self.w, self.b)


class LocallyConnected(Module):
    """Dense map applied independently to every (bh x bw) tile of the input.

    One weight matrix of shape (bh*bw*in_ch, bh*bw*out_ch) is shared by all
    tiles; tiles are flattened in (channel, row, col) order.  With 1x1 tiles
    this is exactly a 1x1 convolution.
    """

    def __init__(self, block_h: int, block_w: int, in_ch: int, out_ch: int, rng: np.random.Generator):
        if block_h < 1 or block_w < 1:
            raise ValueError("block extents must be positive")
        self.block_h = block_h
        self.block_w = block_w
        self.in_ch = in_ch
        self.out_ch = out_ch
        fan_in = block_h * block_w * in_ch
        self.w = he_uniform(rng, (fan_in, block_h * block_w * out_ch), fan_in)
        self.b = T.zeros((block_h * block_w * out_ch,), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[1] != self.in_ch:
            raise T.ShapeError(f"expected {self.in_ch} channels, got {x.shape[1]}")
        return block_map(x, self.w, self.b, self.block_h, self.block_w)


class ChromaSubsample:
    """Block-mean downsampling by the subsampling mode's factors.

    `T.avg_pool2d` and `jpeg.subsample` sum in the same order by construction,
    so the learned path and the reference path see identical values.
    """

    def __init__(self, mode: str):
        self.mode = mode
        self.fv, self.fh = mode_factors(mode)

    def forward(self, x: Tensor) -> Tensor:
        if self.fv == self.fh == 1:
            return x
        return T.avg_pool2d(x, self.fv, self.fh)


class Quantization:
    """Divide amplitudes by the 8x8 quantization matrix (tiled over the
    plane) and round half away from zero.

    Rounding is a step function, so the backward substitutes the straight
    -through estimate: the gradient of output w.r.t. input is exactly the
    elementwise 1/Q of the dividing step.
    """

    def __init__(self, q_matrix: np.ndarray):
        q = np.asarray(q_matrix, dtype=np.float64)
        if q.shape != (8, 8) or np.any(q < 1):
            raise ValueError("need an 8x8 matrix with entries >= 1")
        self.q = q

    def forward(self, x: Tensor) -> Tensor:
        n, c, h, w = x.shape
        if h % 8 or w % 8:
            raise T.ShapeError(f"plane {h}x{w} not divisible by 8")
        inv = Tensor(1.0 / plane_table(self.q, x.data).astype(x.data.dtype))
        scaled = T.mul(x, T.expand(T.reshape(inv, (1, 1, h, w)), (n, c, h, w)))
        return T.round_ste(scaled)


class ResidualBlock(Module):
    """Two 3x3 convs (ReLU between) plus a 1x1 conv skip.

    `resample` applies the same 2x change to both paths: "up" is
    nearest-neighbor upsampling before the convs, "down" is mean pooling
    after them.
    """

    def __init__(self, in_ch: int, out_ch: int, rng: np.random.Generator, resample: str | None = None):
        if resample not in (None, "up", "down"):
            raise ValueError(f"bad resample {resample!r}")
        self.resample = resample
        self.conv1 = Conv2d(in_ch, out_ch, 3, rng)
        self.conv2 = Conv2d(out_ch, out_ch, 3, rng)
        self.skip = Conv2d(in_ch, out_ch, 1, rng)

    def forward(self, x: Tensor) -> Tensor:
        h = T.upsample_repeat2d(x, 2, 2) if self.resample == "up" else x
        main = self.conv2.forward(T.relu(self.conv1.forward(h)))
        skip = self.skip.forward(h)
        if self.resample == "down":
            main = T.avg_pool2d(main, 2, 2)
            skip = T.avg_pool2d(skip, 2, 2)
        return T.add(main, skip)
