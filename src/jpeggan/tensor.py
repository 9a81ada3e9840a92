"""Dense NCHW tensors with reverse-mode automatic differentiation.

The graph is built eagerly: every operation records its parents and a
backward closure on the output tensor.  Backward closures are themselves
written in terms of these same operations, so gradients can be
differentiated again (``grad(..., create_graph=True)``) — the gradient
penalty used in adversarial training needs exactly that.

A backward walk computes only the gradients that lead to a requested input:
closures of ops with several parents take ``needs``, one flag per parent,
and may return None in place of a gradient that is not needed.

Convolution is one lowering: K-major patches times one GEMM, run over
blocks of images whose patch matrix fits in a core's L2 cache, so no patch
matrix is ever built for a whole batch or kept on the tape.  Its input
gradient is again a convolution (of the output gradient with the flipped,
in/out-swapped kernel) and its weight gradient is the tape op
``conv2d_weight``, which sums per-block GEMMs over the same patches.  Both
are bilinear, so derivatives of every order close over ``conv2d``,
``conv2d_weight``, ``flip2d`` and ``permute``.

Execution is single-threaded and serial; given the same seed and op
sequence, results are bit-identical.  Tensors are immutable once created
except for the owner-held ``grad`` buffer on leaves (and in-place parameter
updates performed by an optimizer between graph builds).

Shapes must match exactly for binary elementwise ops; the only implicit
mixing allowed is scalar-with-tensor.  ``expand`` exists as the explicit
escape hatch where a broadcast is genuinely wanted (bias addition).
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import reduce
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "NonFiniteError",
    "GraphError",
    "no_grad",
    "enable_grad",
    "is_grad_enabled",
    "set_default_dtype",
    "get_default_dtype",
    "default_dtype",
    "tensor",
    "zeros",
    "ones",
    "grad",
    "backward",
    "gradient_check",
]


class ShapeError(ValueError):
    """Operand shapes do not satisfy an op's contract."""


class NonFiniteError(ArithmeticError):
    """A forward op produced NaN or Inf from finite inputs."""


class GraphError(RuntimeError):
    """Backward was asked for something the recorded graph cannot provide."""


_DEFAULT_DTYPE = np.float64
_GRAD_ENABLED = True


def set_default_dtype(dt) -> None:
    global _DEFAULT_DTYPE
    dt = np.dtype(dt)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported default dtype {dt}")
    _DEFAULT_DTYPE = dt.type


def get_default_dtype():
    return _DEFAULT_DTYPE


@contextmanager
def default_dtype(dt):
    """Temporarily switch the dtype used for newly created tensors."""
    old = _DEFAULT_DTYPE
    set_default_dtype(dt)
    try:
        yield
    finally:
        set_default_dtype(old)


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED


@contextmanager
def _grad_mode(flag: bool):
    global _GRAD_ENABLED
    old = _GRAD_ENABLED
    _GRAD_ENABLED = flag
    try:
        yield
    finally:
        _GRAD_ENABLED = old


def no_grad():
    """Context manager: ops inside record nothing on the tape."""
    return _grad_mode(False)


def enable_grad():
    return _grad_mode(True)


def _finite_or_raise(data: np.ndarray, op: str) -> None:
    # One cheap reduction; only on suspicion do the exact elementwise scan.
    # A native-dtype sum can overflow on legitimate inputs, so a non-finite
    # screen is a suspicion, not a verdict.
    if data.dtype.kind != "f":
        return
    s = data.sum() if data.size else 0.0
    if not np.isfinite(s):
        if not np.isfinite(data).all():
            raise NonFiniteError(f"op '{op}' produced a non-finite value")


class Tensor:
    """A dense array plus optional autodiff bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_bw", "_op")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        if dtype is not None:
            arr = np.asarray(data, dtype=dtype)
        elif isinstance(data, np.ndarray) and data.dtype in (
            np.dtype(np.float32),
            np.dtype(np.float64),
        ):
            arr = data  # float arrays keep their precision
        else:
            arr = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._bw: Callable | None = None
        self._op = "leaf"

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError("item() needs a single-element tensor")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False, dtype=self.data.dtype)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op}, grad={self.requires_grad})"

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return add_scalar(self, other)

    __radd__ = __add__

    def __neg__(self):
        return scalar_mul(self, -1.0)

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return add(self, scalar_mul(other, -1.0))
        return add_scalar(self, -other)

    def __rsub__(self, other):
        return add_scalar(scalar_mul(self, -1.0), other)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scalar_mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return mul(self, pow_const(other, -1.0))
        return scalar_mul(self, 1.0 / other)

    def __pow__(self, p):
        return pow_const(self, p)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def permute(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return permute(self, axes)

    def sum(self, axes=None, keepdims=False):
        return sum_axes(self, axes, keepdims) if axes is not None else sum_all(self)

    def mean(self, axes=None, keepdims=False):
        return mean_axes(self, axes, keepdims) if axes is not None else mean_all(self)


def tensor(data, requires_grad=False, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


def zeros(shape, requires_grad=False, dtype=None) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype or _DEFAULT_DTYPE), requires_grad=requires_grad)


def ones(shape, requires_grad=False, dtype=None) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype or _DEFAULT_DTYPE), requires_grad=requires_grad)


def _result(data: np.ndarray, op: str, parents: tuple[Tensor, ...], bw, check: bool = True) -> Tensor:
    # `check=False` is reserved for ops that cannot map finite inputs to a
    # non-finite output (pure data movement, or range-bounded elementwise).
    if check:
        _finite_or_raise(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._bw = bw
    else:
        out.requires_grad = False
        out._parents = ()
        out._bw = None
    out._op = op
    return out


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


# -- elementwise ------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    return _result(a.data + b.data, "add", (a, b), lambda g, needs: (g, g))


def add_scalar(a: Tensor, c) -> Tensor:
    c = float(c)
    return _result(a.data + c, "add_scalar", (a,), lambda g: (g,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")

    def bw(g, needs):
        return (mul(g, b) if needs[0] else None, mul(g, a) if needs[1] else None)

    return _result(a.data * b.data, "mul", (a, b), bw)


def scalar_mul(a: Tensor, c) -> Tensor:
    c = float(c)
    return _result(a.data * c, "scalar_mul", (a,), lambda g: (scalar_mul(g, c),))


def pow_const(a: Tensor, p) -> Tensor:
    p = float(p)

    def bw(g):
        return (scalar_mul(mul(g, pow_const(a, p - 1.0)), p),)

    return _result(a.data ** p, "pow_const", (a,), bw)


def sqrt(a: Tensor) -> Tensor:
    return pow_const(a, 0.5)


def relu(a: Tensor) -> Tensor:
    mask = (a.data > 0).astype(a.data.dtype)

    def bw(g):
        return (mul(g, Tensor(mask)),)

    return _result(np.maximum(a.data, 0.0), "relu", (a,), bw, check=False)


def leaky_relu(a: Tensor, alpha: float = 0.2) -> Tensor:
    factor = np.where(a.data > 0, 1.0, alpha).astype(a.data.dtype)

    def bw(g):
        return (mul(g, Tensor(factor)),)

    # |output| <= |input| for alpha in [0, 1], so finiteness is inherited
    return _result(np.where(a.data > 0, a.data, alpha * a.data), "leaky_relu", (a,), bw, check=False)


def abs_(a: Tensor) -> Tensor:
    sign = np.sign(a.data)

    def bw(g):
        return (mul(g, Tensor(sign)),)

    return _result(np.abs(a.data), "abs", (a,), bw, check=False)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = _result(y, "tanh", (a,), None, check=False)

    def bw(g):
        return (mul(g, add_scalar(scalar_mul(mul(out, out), -1.0), 1.0)),)

    out._bw = bw if out.requires_grad else None
    return out


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes only where the input is inside."""
    mask = ((a.data >= lo) & (a.data <= hi)).astype(a.data.dtype)

    def bw(g):
        return (mul(g, Tensor(mask)),)

    return _result(np.clip(a.data, lo, hi), "clamp", (a,), bw, check=False)


def round_ste(a: Tensor) -> Tensor:
    """Round half away from zero; the gradient passes straight through."""
    y = np.floor(np.abs(a.data) + 0.5) * np.sign(a.data)
    return _result(y, "round_ste", (a,), lambda g: (g,), check=False)


# -- shape manipulation -----------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    old = a.shape

    def bw(g):
        return (reshape(g, old),)

    try:
        data = a.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(str(e)) from None
    return _result(data, "reshape", (a,), bw, check=False)


def permute(a: Tensor, axes) -> Tensor:
    axes = tuple(int(x) for x in axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"permute: {axes} is not a permutation of {a.ndim} axes")
    inv = tuple(np.argsort(axes))

    def bw(g):
        return (permute(g, inv),)

    # a transposed view; anything needing contiguity copies on demand
    return _result(a.data.transpose(axes), "permute", (a,), bw, check=False)


def transpose2d(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError("transpose2d needs a matrix")
    return permute(a, (1, 0))


def expand(a: Tensor, shape) -> Tensor:
    """Explicit numpy-style broadcast of `a` to `shape`.

    The backward reduces over every broadcast axis, which keeps the public
    elementwise ops free of implicit broadcasting.
    """
    shape = tuple(int(s) for s in shape)
    try:
        data = np.broadcast_to(a.data, shape)
    except ValueError as e:
        raise ShapeError(str(e)) from None
    added = len(shape) - a.ndim
    reduced = tuple(range(added)) + tuple(
        i + added for i, d in enumerate(a.shape) if d == 1 and shape[i + added] != 1
    )
    old = a.shape

    def bw(g):
        s = sum_axes(g, reduced, keepdims=False) if reduced else g
        return (reshape(s, old),)

    return _result(data, "expand", (a,), bw, check=False)


def sum_axes(a: Tensor, axes, keepdims: bool = False) -> Tensor:
    if axes is None:
        return sum_all(a)
    if isinstance(axes, int):
        axes = (axes,)
    axes = tuple(sorted(ax % a.ndim for ax in axes))
    kept = tuple(1 if i in axes else d for i, d in enumerate(a.shape))
    old = a.shape

    def bw(g):
        gk = g if keepdims else reshape(g, kept)
        return (expand(gk, old),)

    return _result(a.data.sum(axis=axes, keepdims=keepdims), "sum_axes", (a,), bw)


def sum_all(a: Tensor) -> Tensor:
    old = a.shape

    def bw(g):
        return (expand(reshape(g, (1,) * len(old)) if old else g, old),)

    return _result(np.asarray(a.data.sum(), dtype=a.data.dtype), "sum", (a,), bw)


def mean_all(a: Tensor) -> Tensor:
    return scalar_mul(sum_all(a), 1.0 / a.size)


def mean_axes(a: Tensor, axes, keepdims: bool = False) -> Tensor:
    if isinstance(axes, int):
        axes = (axes,)
    n = 1
    for ax in axes:
        n *= a.shape[ax % a.ndim]
    return scalar_mul(sum_axes(a, axes, keepdims), 1.0 / n)


def l1_norm(a: Tensor) -> Tensor:
    return sum_all(abs_(a))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat of nothing")
    axis = axis % tensors[0].ndim
    for t in tensors[1:]:
        if t.ndim != tensors[0].ndim:
            raise ShapeError("concat: rank mismatch")
        for i, (d0, d1) in enumerate(zip(tensors[0].shape, t.shape)):
            if i != axis and d0 != d1:
                raise ShapeError("concat: non-axis extents differ")
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g, needs=None):  # a one-tensor concat is walked without `needs`
        return tuple(
            slice_axis(g, axis, int(offsets[i]), int(offsets[i + 1]))
            if needs is None or needs[i] else None
            for i in range(len(sizes))
        )

    return _result(
        np.concatenate([t.data for t in tensors], axis=axis),
        "concat",
        tuple(tensors),
        bw,
        check=False,
    )


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    axis = axis % a.ndim
    if not (0 <= start <= stop <= a.shape[axis]):
        raise ShapeError(f"slice [{start}:{stop}] out of range on axis {axis}")
    idx = tuple(slice(None) if i != axis else slice(start, stop) for i in range(a.ndim))
    full = a.shape

    def bw(g):
        return (embed_axis(g, axis, start, full),)

    return _result(a.data[idx], "slice_axis", (a,), bw, check=False)


def embed_axis(a: Tensor, axis: int, start: int, full_shape) -> Tensor:
    """Place `a` into zeros of `full_shape` at offset `start` along `axis`."""
    axis = axis % a.ndim
    full_shape = tuple(full_shape)
    stop = start + a.shape[axis]
    out = np.zeros(full_shape, dtype=a.data.dtype)
    idx = tuple(slice(None) if i != axis else slice(start, stop) for i in range(a.ndim))
    out[idx] = a.data

    def bw(g):
        return (slice_axis(g, axis, start, stop),)

    return _result(out, "embed_axis", (a,), bw, check=False)


# -- linear algebra ---------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError("matmul expects two matrices")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims {a.shape} @ {b.shape}")

    def bw(g, needs):
        return (
            matmul(g, transpose2d(b)) if needs[0] else None,
            matmul(transpose2d(a), g) if needs[1] else None,
        )

    return _result(a.data @ b.data, "matmul", (a, b), bw)


# -- spatial ops on NCHW ----------------------------------------------------


_BLOCK_BYTES = 1 << 21  # patch-matrix bytes per image block: one core's L2


def _patch_blocks(x: np.ndarray, kh: int, kw: int, ph: int, pw: int):
    """Yield (s, e, cols) over groups of images s:e of an NCHW array.

    `cols` is the K-major patch matrix of those images, (C*kh*kw, n*OH*OW)
    with n = e - s: rows in (C, kh, kw) order, as an (O, C, kh, kw) kernel
    flattens, columns in (n, OH, OW) order. A block holds as many images as
    fit in `_BLOCK_BYTES` (at least one). The padded images and the patch
    matrix live in buffers that every block reuses, so `cols` is only valid
    until the next block is drawn.
    """
    N, C, H, W = x.shape
    OH, OW = H + 2 * ph - kh + 1, W + 2 * pw - kw + 1
    K, L = C * kh * kw, OH * OW
    nb = max(1, min(N, _BLOCK_BYTES // (K * L * x.itemsize)))
    padded = np.zeros((nb, C, H + 2 * ph, W + 2 * pw), x.dtype) if ph or pw else None
    buf = np.empty(K * nb * L, x.dtype)
    for s in range(0, N, nb):
        e = min(s + nb, N)
        n = e - s
        src = x[s:e]
        if padded is not None:
            src = padded[:n]
            src[:, :, ph : ph + H, pw : pw + W] = x[s:e]
        sN, sC, sH, sW = src.strides
        win = np.lib.stride_tricks.as_strided(
            src, shape=(C, kh, kw, n, OH, OW), strides=(sC, sH, sW, sN, sH, sW), writeable=False
        )
        cols = buf[: K * n * L].reshape(C, kh, kw, n, OH, OW)
        cols[...] = win  # whole image rows (OW elements) per copy
        yield s, e, cols.reshape(K, n * L)


def _conv_padding(padding) -> tuple[int, int]:
    return tuple(int(p) for p in padding) if isinstance(padding, tuple) else (int(padding),) * 2


def _input_grad(g: Tensor, k: Tensor, ph: int, pw: int) -> Tensor:
    """Gradient in x of <conv2d(x, k, padding=(ph, pw)), g>: g correlated
    with the spatially flipped, in/out-swapped kernel."""
    kh, kw = k.shape[2:]
    return conv2d(g, permute(flip2d(k), (1, 0, 2, 3)), padding=(kh - 1 - ph, kw - 1 - pw))


def flip2d(a: Tensor) -> Tensor:
    """Reverse both spatial axes of an NCHW (or OIHW) tensor; self-adjoint."""
    if a.ndim != 4:
        raise ShapeError("flip2d expects NCHW")
    return _result(a.data[:, :, ::-1, ::-1], "flip2d", (a,), lambda g: (flip2d(g),), check=False)


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, padding: int | tuple[int, int] = 0) -> Tensor:
    """2-D stride-1 cross-correlation over NCHW with an OIHW kernel.

    `padding` is one zero pad for both spatial axes, or a (ph, pw) pair; a
    pad wider than kernel extent - 1 is rejected. Lowered to K-major patches
    times one GEMM, but over blocks of images whose patch matrix fits in
    `_BLOCK_BYTES`: each block's W(O, K) @ cols(K, n*OH*OW) fills its
    columns of one (O, N*OH*OW) product, returned as an NCHW view. No patch
    matrix outlives the call.

    The backward is built from differentiable ops, so derivatives of every
    order close over `conv2d`, `conv2d_weight`, `flip2d` and `permute`. The
    input gradient is a convolution of the output gradient with the
    spatially flipped, in/out-swapped kernel at pad (kh-1-ph, kw-1-pw); the
    weight gradient is `conv2d_weight(x, g)`.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError("conv2d expects NCHW input and OIHW weight")
    N, C, H, W = x.shape
    O, I, kh, kw = w.shape
    if I != C:
        raise ShapeError(f"conv2d: input channels {C} != kernel channels {I}")
    if b is not None and b.shape != (O,):
        raise ShapeError(f"conv2d: bias shape {b.shape} != ({O},)")
    ph, pw = _conv_padding(padding)
    if not (0 <= ph < kh and 0 <= pw < kw):
        raise ShapeError(f"conv2d: padding {(ph, pw)} not in [0, k - 1] for a {kh}x{kw} kernel")
    OH, OW = H + 2 * ph - kh + 1, W + 2 * pw - kw + 1
    L = OH * OW

    wm = w.data.reshape(O, C * kh * kw)
    out = np.empty((O, N * L), dtype=np.result_type(x.data, w.data))
    for s, e, cols in _patch_blocks(x.data, kh, kw, ph, pw):
        np.matmul(wm, cols, out=out[:, s * L : e * L])
    if b is not None:
        out += b.data[:, None]
    out = out.reshape(O, N, OH, OW).transpose(1, 0, 2, 3)

    def bw(g, needs):
        d_x = _input_grad(g, w, ph, pw) if needs[0] else None
        d_w = conv2d_weight(x, g, kh, kw, (ph, pw)) if needs[1] else None
        if b is None:
            return d_x, d_w
        d_b = sum_axes(reshape(permute(g, (1, 0, 2, 3)), (O, N * L)), 1) if needs[2] else None
        return d_x, d_w, d_b

    parents = (x, w) if b is None else (x, w, b)
    return _result(out, "conv2d", parents, bw)


def conv2d_weight(x: Tensor, g: Tensor, kh: int, kw: int, padding: int | tuple[int, int] = 0) -> Tensor:
    """Weight gradient of `conv2d`: the (O, C, kh, kw) kernel V that makes
    <conv2d(x, w), g> = <w, V> for every w.

    `g` is (N, O, OH, OW), shaped like `conv2d(x, w, padding=padding)`.
    Sums g_block(O, n*OH*OW) @ cols_blockᵀ over the same image blocks as
    the forward. Bilinear in (x, g): its gradient with respect to g is
    conv2d(x, V) and with respect to x the flipped-kernel conv of g.
    """
    if x.ndim != 4 or g.ndim != 4:
        raise ShapeError("conv2d_weight expects NCHW input and gradient")
    N, C, H, W = x.shape
    ph, pw = _conv_padding(padding)
    OH, OW = H + 2 * ph - kh + 1, W + 2 * pw - kw + 1
    O = g.shape[1]
    if g.shape != (N, O, OH, OW):
        raise ShapeError(f"conv2d_weight: gradient {g.shape} != {(N, O, OH, OW)}")
    L = OH * OW
    gt = g.data.transpose(1, 0, 2, 3)
    d_w = np.zeros((O, C * kh * kw), dtype=np.result_type(x.data, g.data))
    for s, e, cols in _patch_blocks(x.data, kh, kw, ph, pw):
        d_w += gt[:, s:e].reshape(O, (e - s) * L) @ cols.T

    def bw(v, needs):
        return (
            _input_grad(g, v, ph, pw) if needs[0] else None,
            conv2d(x, v, padding=(ph, pw)) if needs[1] else None,
        )

    return _result(d_w.reshape(O, C, kh, kw), "conv2d_weight", (x, g), bw)


def avg_pool2d(a: Tensor, kh: int, kw: int) -> Tensor:
    """Non-overlapping block-mean pooling; extents must divide evenly.

    Strided slices are summed within each block row, then across rows: for
    2x2, 1x2 and 2x1 blocks that is numpy's block-mean order, bit for bit.
    """
    if a.ndim != 4:
        raise ShapeError("avg_pool2d expects NCHW")
    N, C, H, W = a.shape
    if H % kh or W % kw:
        raise ShapeError(f"pool {kh}x{kw} does not tile {H}x{W}")
    rows = [reduce(np.add, [a.data[:, :, i::kh, j::kw] for j in range(kw)]) for i in range(kh)]
    data = reduce(np.add, rows) / (kh * kw)

    def bw(g):
        return (scalar_mul(upsample_repeat2d(g, kh, kw), 1.0 / (kh * kw)),)

    return _result(data, "avg_pool2d", (a,), bw)


def upsample_repeat2d(a: Tensor, kh: int, kw: int) -> Tensor:
    """Nearest-neighbor upsampling: each pixel becomes a kh x kw block."""
    if a.ndim != 4:
        raise ShapeError("upsample expects NCHW")
    data = np.repeat(np.repeat(a.data, kh, axis=2), kw, axis=3)

    def bw(g):
        return (scalar_mul(avg_pool2d(g, kh, kw), float(kh * kw)),)

    return _result(data, "upsample_repeat2d", (a,), bw, check=False)


# -- autodiff drivers -------------------------------------------------------


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order  # parents before children


def _walk(
    output: Tensor, order: list[Tensor], targets: set[int], create_graph: bool
) -> dict[int, Tensor]:
    """Gradients of `output` for the nodes on a path to a `targets` id.

    `order` is `_toposort(output)`. A node is needed when it is a target or
    one of its parents is needed; gradients are computed and stored for
    needed nodes only.
    """
    if output.size != 1:
        raise GraphError("backward needs a scalar loss")
    if output._bw is None and not output.requires_grad:
        raise GraphError("loss is not part of the recorded graph")
    needed = set(targets)
    for node in order:  # parents before children
        if any(id(p) in needed for p in node._parents):
            needed.add(id(node))
    grads: dict[int, Tensor] = {
        id(output): Tensor(np.ones(output.shape, dtype=output.data.dtype))
    }
    with _grad_mode(create_graph):
        for node in reversed(order):
            g = grads.get(id(node))
            if g is None or node._bw is None:
                continue
            needs = tuple(id(p) in needed for p in node._parents)
            if not any(needs):
                continue
            # a node with one parent is only reached when that parent is needed
            parent_grads = node._bw(g, needs) if len(needs) > 1 else node._bw(g)
            for p, pg, need in zip(node._parents, parent_grads, needs):
                if pg is None or not need:
                    continue
                prev = grads.get(id(p))
                grads[id(p)] = pg if prev is None else add(prev, pg)
    return grads


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into ``grad`` for every requires-grad leaf.

    The walked portion of the tape is consumed afterwards.
    """
    order = _toposort(loss)
    leaves = [node for node in order if node.requires_grad and node._bw is None]
    grads = _walk(loss, order, {id(node) for node in leaves}, create_graph=False)
    for node in leaves:
        if id(node) in grads:
            g = grads[id(node)].data
            node.grad = g.copy() if node.grad is None else node.grad + g
    for node in order:
        if node._bw is not None:
            node._bw = None
            node._parents = ()


def grad(
    output: Tensor,
    inputs: Iterable[Tensor],
    create_graph: bool = False,
    allow_unused: bool = False,
) -> list[Tensor]:
    """Return d(output)/d(input) for each input, as tensors.

    With ``create_graph=True`` the returned gradients carry their own tape,
    so they can be differentiated again.  The forward graph is left intact.
    """
    inputs = list(inputs)
    order = _toposort(output)
    grads = _walk(output, order, {id(t) for t in inputs}, create_graph)
    out = []
    for t in inputs:
        g = grads.get(id(t))
        if g is None:
            if not allow_unused:
                raise GraphError("an input does not influence the output")
            g = Tensor(np.zeros(t.shape, dtype=t.data.dtype))
        out.append(g if create_graph else g.detach())
    return out


def gradient_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Relative error per element is |a - n| / max(1e-8, |a| + |n|).  Intended
    for 64-bit tensors; rounding ops have no meaningful finite difference and
    are expected to fail this check.
    """
    x0 = Tensor(x.data.astype(np.float64), requires_grad=True)
    y = f(x0)
    if y.size != 1:
        raise GraphError("gradient_check needs a scalar-valued f")
    analytic = grad(y, [x0])[0].data
    numeric = np.zeros_like(x0.data)
    flat = x0.data.reshape(-1)
    nflat = numeric.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            hi = f(Tensor(x0.data)).item()
            flat[i] = keep - eps
            lo = f(Tensor(x0.data)).item()
            flat[i] = keep
            nflat[i] = (hi - lo) / (2 * eps)
    denom = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom))
