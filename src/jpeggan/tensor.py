"""Dense NCHW tensors with reverse-mode automatic differentiation.

The graph is built eagerly: every operation records its parents and a
backward closure on the output tensor.  ``grad`` is the only driver: it
returns d(output)/d(input) for the inputs asked for and leaves the tape
intact.  Backward closures are themselves written in terms of these same
operations, so gradients can be differentiated again
(``grad(..., create_graph=True)``) — the gradient penalty used in
adversarial training needs exactly that.

``grad`` walks the tape itself and computes only the gradients that lead
to a requested input. Every backward closure is ``bw(g, needs)``, ``needs``
one flag per parent; a closure may return None in place of a gradient that
is not needed, and one-parent closures, reached only when their parent is
needed, ignore it.

Convolution is one kind, the "same" convolution: stride 1, odd kernel
extents, zero padded by (k - 1)/2 on each side so the output keeps the
input's extent.  It is one lowering: K-major patches times one GEMM, run
over blocks of images sized by the GEMM that consumes them.  A narrow GEMM
(few output channels) is bound by memory and gets a block that leaves room
in L2 for BLAS's packed copy of it; a wide one is bound by compute and gets
a block of an L2 or more.  Each block's patch matrix is copied from flat,
zero-margined image planes through one strided view, a whole output image
per kernel tap in one run; the few taps that wrap into a neighbouring row
instead of the pad are zeroed after the copy.  No patch matrix outlives its
call or is kept on the tape.  Its input gradient is again a same convolution
(of the output gradient with the flipped, in/out-swapped kernel) and its
weight gradient is the tape op ``conv2d_weight``, which sums per-block GEMMs
over the same patches.  Both are bilinear, so derivatives of every order
close over ``conv2d``, ``conv2d_weight``, ``flip2d`` and ``permute``.

Dtype rule: a float32 or float64 ndarray keeps its dtype and is not copied;
anything else becomes float64.  Ops compute in their operands' dtype, so an
f32 graph stays f32.

Ops that can turn finite inputs into NaN or inf screen their output with
one BLAS pass, the sum of squares over its memory in order; only a
non-finite sum (NaN, inf, or a finite output whose squares overflow) runs
the exact elementwise scan that decides whether to raise
``NonFiniteError``.  The resampling ops write each output once:
``avg_pool2d`` sums column slices, then row slices, and divides in place;
``upsample_repeat2d`` widens rows, then copies them.  The pooling adjoint
applies its 1/(kh*kw) scale at the pooled size, before upsampling.

Execution is single-threaded and serial; given the same seed and op
sequence, results are bit-identical.  Tensors are immutable once created,
apart from in-place parameter updates performed by an optimizer between
graph builds.

A tape lives exactly as long as its output is referenced, and is freed by
reference counting alone: every backward closure holds only its op's
inputs, never its own output, so the graph holds no cycle. What a backward
needs beyond its inputs it recomputes from them when it runs: ``tanh``
takes ``tanh`` of its input again, and ``relu``, ``clamp`` and ``abs_``
build their mask or sign, so the forward pass, with or without a tape,
allocates no full-size mask.

Shapes must match exactly for binary elementwise ops; the only implicit
mixing allowed is scalar-with-tensor.  ``expand`` exists as the explicit
escape hatch where a broadcast is genuinely wanted (bias addition).
"""

from __future__ import annotations

import math
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
    "zeros",
    "grad",
    "gradient_check",
]


class ShapeError(ValueError):
    """Operand shapes do not satisfy an op's contract."""


class NonFiniteError(ArithmeticError):
    """A forward op produced NaN or Inf from finite inputs."""


class GraphError(RuntimeError):
    """Backward was asked for something the recorded graph cannot provide."""


_GRAD_ENABLED = True


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


def _finite_or_raise(data: np.ndarray, op: str) -> None:
    # One BLAS pass over the output in memory order (`ravel(order="K")` is a
    # view for every op output here): its sum of squares is NaN or inf if any
    # element is, so a finite sum clears it. A non-finite sum is only a
    # suspicion (a finite output can overflow it), settled by the exact
    # elementwise scan. BLAS raises no numpy warning on overflow.
    if data.dtype.kind != "f":
        return
    flat = data.ravel(order="K")
    if not math.isfinite(np.vdot(flat, flat)) and not np.isfinite(data).all():
        raise NonFiniteError(f"op '{op}' produced a non-finite value")


class Tensor:
    """A dense array plus optional autodiff bookkeeping."""

    __slots__ = ("data", "requires_grad", "_parents", "_bw", "_op", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        if not (isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64)):
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.requires_grad = bool(requires_grad)
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

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op}, grad={self.requires_grad})"


def zeros(shape, requires_grad=False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def _result(data: np.ndarray, op: str, parents: tuple[Tensor, ...], bw, check: bool = True) -> Tensor:
    # `check=False` is reserved for ops that cannot map finite inputs to a
    # non-finite output (pure data movement, or range-bounded elementwise).
    if check:
        _finite_or_raise(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
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
    return _result(a.data + c, "add_scalar", (a,), lambda g, needs: (g,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")

    def bw(g, needs):
        return (mul(g, b) if needs[0] else None, mul(g, a) if needs[1] else None)

    return _result(a.data * b.data, "mul", (a, b), bw)


def scalar_mul(a: Tensor, c) -> Tensor:
    c = float(c)
    return _result(a.data * c, "scalar_mul", (a,), lambda g, needs: (scalar_mul(g, c),))


def pow_const(a: Tensor, p) -> Tensor:
    p = float(p)

    def bw(g, needs):
        return (scalar_mul(mul(g, pow_const(a, p - 1.0)), p),)

    return _result(a.data ** p, "pow_const", (a,), bw)


def sqrt(a: Tensor) -> Tensor:
    return pow_const(a, 0.5)


def relu(a: Tensor) -> Tensor:
    def bw(g, needs):
        return (mul(g, Tensor((a.data > 0).astype(a.data.dtype))),)

    return _result(np.maximum(a.data, 0.0), "relu", (a,), bw, check=False)


def abs_(a: Tensor) -> Tensor:
    def bw(g, needs):
        return (mul(g, Tensor(np.sign(a.data))),)

    return _result(np.abs(a.data), "abs", (a,), bw, check=False)


def tanh(a: Tensor) -> Tensor:
    def bw(g, needs):
        y = tanh(a)  # recomputed: a closure holding its own output would be a cycle
        return (mul(g, add_scalar(scalar_mul(mul(y, y), -1.0), 1.0)),)

    return _result(np.tanh(a.data), "tanh", (a,), bw, check=False)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes only where the input is inside."""

    def bw(g, needs):
        return (mul(g, Tensor(((a.data >= lo) & (a.data <= hi)).astype(a.data.dtype))),)

    return _result(np.clip(a.data, lo, hi), "clamp", (a,), bw, check=False)


def round_ste(a: Tensor) -> Tensor:
    """Round half away from zero; the gradient passes straight through."""
    y = np.floor(np.abs(a.data) + 0.5) * np.sign(a.data)
    return _result(y, "round_ste", (a,), lambda g, needs: (g,), check=False)


# -- shape manipulation -----------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    old = a.shape

    def bw(g, needs):
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

    def bw(g, needs):
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

    def bw(g, needs):
        s = sum_axes(g, reduced) if reduced else g
        return (reshape(s, old),)

    return _result(data, "expand", (a,), bw, check=False)


def sum_axes(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    axes = tuple(sorted(ax % a.ndim for ax in axes))
    kept = tuple(1 if i in axes else d for i, d in enumerate(a.shape))
    old = a.shape

    def bw(g, needs):
        return (expand(reshape(g, kept), old),)

    return _result(a.data.sum(axis=axes), "sum_axes", (a,), bw)


def sum_all(a: Tensor) -> Tensor:
    old = a.shape

    def bw(g, needs):
        return (expand(reshape(g, (1,) * len(old)) if old else g, old),)

    return _result(np.asarray(a.data.sum(), dtype=a.data.dtype), "sum", (a,), bw)


def mean_all(a: Tensor) -> Tensor:
    return scalar_mul(sum_all(a), 1.0 / a.size)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    try:
        data = np.concatenate([t.data for t in tensors], axis=int(axis))
    except ValueError as e:  # numpy's AxisError is a ValueError too
        raise ShapeError(str(e)) from None
    axis = int(axis) % data.ndim
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def bw(g, needs):
        return tuple(
            slice_axis(g, axis, int(offsets[i]), int(offsets[i + 1])) if need else None
            for i, need in enumerate(needs)
        )

    return _result(data, "concat", tensors, bw, check=False)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    axis = axis % a.ndim
    if not (0 <= start <= stop <= a.shape[axis]):
        raise ShapeError(f"slice [{start}:{stop}] out of range on axis {axis}")
    idx = tuple(slice(None) if i != axis else slice(start, stop) for i in range(a.ndim))
    full = a.shape

    def bw(g, needs):
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

    def bw(g, needs):
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


_L2_BYTES = 1 << 21  # one core's L2 cache; fixed, so block sums are the same on every machine


def _block_images(N: int, K: int, L: int, O: int, itemsize: int) -> int:
    """Images per block for a GEMM of O rows against a (K, n*L) patch block.

    The block's patch bytes, K*n*L*itemsize, stay within
    `2 * _L2_BYTES * O / (O + 16)`, at least one image and at most all N.
    The GEMM does O multiply-adds per patch element. At small O it is
    bound by memory: BLAS packs the block into a buffer of its own, so the
    block and that copy are read from L2 only if the block takes well
    under half of it (0.4 L2 at O = 4). At large O it is bound by compute:
    the budget passes L2 at O = 16 and tends to 2 L2, so the (O, K) weight
    matrix is streamed once per many images.
    """
    budget = 2 * _L2_BYTES * O // (O + 16)
    return max(1, min(N, budget // (K * L * itemsize)))


def _patch_blocks(x: np.ndarray, kh: int, kw: int, O: int):
    """Yield (s, e, cols) over groups of images s:e of an NCHW array.

    `cols` is the K-major patch matrix of those images' same convolution,
    (C*kh*kw, n*H*W) with n = e - s: rows in (C, kh, kw) order, as an
    (O, C, kh, kw) kernel flattens, columns in (n, H, W) order. `O` is the
    row count of the GEMM that consumes each block, which sets the block
    size (`_block_images`).

    Each image plane is copied flat behind ph*W + pw zeros, ph = (kh-1)/2
    and pw = (kw-1)/2, and ahead of enough zeros for the last window. Kernel
    tap (i, j) of output (oh, ow) then sits i*W + j + oh*W + ow into the
    plane, so one strided view reads every tap's whole output image as a
    single run of H*W elements. A tap whose column ow + j - pw falls outside
    [0, W) reads the end of a neighbouring row instead of a pad zero; those
    columns are zeroed after the copy. A 1x1 kernel needs no margin and
    copies x itself, channel-major. The planes and the patch matrix live in
    buffers that every block reuses, so `cols` is only valid until the next
    block is drawn.
    """
    if not (kh % 2 and kw % 2):
        raise ShapeError(f"conv2d: a {kh}x{kw} kernel has an even extent; same convolutions need odd ones")
    N, C, H, W = x.shape
    K, L = C * kh * kw, H * W
    nb = _block_images(N, K, L, O, x.itemsize)
    buf = np.empty(K * nb * L, x.dtype)
    if kh == kw == 1:
        for s in range(0, N, nb):
            e = min(s + nb, N)
            cols = buf[: K * (e - s) * L].reshape(C, e - s, H, W)
            cols[...] = x[s:e].transpose(1, 0, 2, 3)
            yield s, e, cols.reshape(K, (e - s) * L)
        return
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    planes = np.zeros((nb, C, (H + 2 * ph) * W + kw - 1), x.dtype)
    front = ph * W + pw
    rows = planes[:, :, front : front + L].reshape(nb, C, H, W)
    sN, sC, item = planes.strides
    win = np.lib.stride_tricks.as_strided(
        planes, shape=(C, kh, kw, nb, H, W), strides=(sC, W * item, item, sN, W * item, item),
        writeable=False,
    )
    # per kernel column j, the output columns whose tap lies left or right of the image
    wrapped = [
        (j, slice(lo, hi)) for j in range(kw) for lo, hi in ((0, pw - j), (max(0, W + pw - j), W)) if lo < hi
    ]
    for s in range(0, N, nb):
        e = min(s + nb, N)
        n = e - s
        rows[:n] = x[s:e]
        cols = buf[: K * n * L].reshape(C, kh, kw, n, H, W)
        cols[...] = win[:, :, :, :n]
        for j, cut in wrapped:
            cols[:, :, j, :, :, cut] = 0
        yield s, e, cols.reshape(K, n * L)


def _input_grad(g: Tensor, k: Tensor) -> Tensor:
    """Gradient in x of <conv2d(x, k), g>: g convolved with the spatially
    flipped, in/out-swapped kernel, again a same convolution."""
    return conv2d(g, permute(flip2d(k), (1, 0, 2, 3)))


def flip2d(a: Tensor) -> Tensor:
    """Reverse both spatial axes of an NCHW (or OIHW) tensor; self-adjoint."""
    if a.ndim != 4:
        raise ShapeError("flip2d expects NCHW")
    return _result(a.data[:, :, ::-1, ::-1], "flip2d", (a,), lambda g, needs: (flip2d(g),), check=False)


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """2-D same cross-correlation over NCHW with an OIHW kernel.

    Stride 1, odd kernel extents (an even one is rejected), and zero pads
    of (kh-1)/2 rows and (kw-1)/2 columns, so the output keeps the input's
    H x W. Lowered to K-major patches times one GEMM, but over blocks of
    images sized for that GEMM's O rows (`_block_images`): each block's
    W(O, K) @ cols(K, n*H*W) fills its columns of one (O, N*H*W) product,
    returned as an NCHW view. The patches come from flat image planes
    (`_patch_blocks`), each tap's output image one run of H*W elements;
    reads that wrap past a row's end are zeroed. Every network layer has
    H*W a multiple of 16, so block boundaries leave each output element's
    sum order as it is. No patch matrix outlives the call.

    The backward is built from differentiable ops, so derivatives of every
    order close over `conv2d`, `conv2d_weight`, `flip2d` and `permute`. The
    input gradient is the same convolution of the output gradient with the
    spatially flipped, in/out-swapped kernel; the weight gradient is
    `conv2d_weight(x, g)`.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError("conv2d expects NCHW input and OIHW weight")
    N, C, H, W = x.shape
    O, I, kh, kw = w.shape
    if I != C:
        raise ShapeError(f"conv2d: input channels {C} != kernel channels {I}")
    if b is not None and b.shape != (O,):
        raise ShapeError(f"conv2d: bias shape {b.shape} != ({O},)")
    L = H * W

    wm = w.data.reshape(O, C * kh * kw)
    out = np.empty((O, N * L), dtype=np.result_type(x.data, w.data))
    for s, e, cols in _patch_blocks(x.data, kh, kw, O):
        np.matmul(wm, cols, out=out[:, s * L : e * L])
    if b is not None:
        out += b.data[:, None]
    out = out.reshape(O, N, H, W).transpose(1, 0, 2, 3)

    def bw(g, needs):
        d_x = _input_grad(g, w) if needs[0] else None
        d_w = conv2d_weight(x, g, kh, kw) if needs[1] else None
        if b is None:
            return d_x, d_w
        d_b = sum_axes(reshape(permute(g, (1, 0, 2, 3)), (O, N * L)), (1,)) if needs[2] else None
        return d_x, d_w, d_b

    parents = (x, w) if b is None else (x, w, b)
    return _result(out, "conv2d", parents, bw)


def conv2d_weight(x: Tensor, g: Tensor, kh: int, kw: int) -> Tensor:
    """Weight gradient of `conv2d`: the (O, C, kh, kw) kernel V that makes
    <conv2d(x, w), g> = <w, V> for every w.

    `g` is (N, O, H, W), shaped like `conv2d(x, w)`. Sums
    g_block(O, n*H*W) @ cols_blockᵀ over image blocks sized for that O-row
    GEMM, as the forward's are. Bilinear in (x, g): its gradient with
    respect to g is conv2d(x, V) and with respect to x the flipped-kernel
    conv of g.
    """
    if x.ndim != 4 or g.ndim != 4:
        raise ShapeError("conv2d_weight expects NCHW input and gradient")
    N, C, H, W = x.shape
    O = g.shape[1]
    if g.shape != (N, O, H, W):
        raise ShapeError(f"conv2d_weight: gradient {g.shape} != {(N, O, H, W)}")
    L = H * W
    gt = g.data.transpose(1, 0, 2, 3)
    d_w = np.zeros((O, C * kh * kw), dtype=np.result_type(x.data, g.data))
    for s, e, cols in _patch_blocks(x.data, kh, kw, O):
        d_w += gt[:, s:e].reshape(O, (e - s) * L) @ cols.T

    def bw(v, needs):
        return (_input_grad(g, v) if needs[0] else None, conv2d(x, v) if needs[1] else None)

    return _result(d_w.reshape(O, C, kh, kw), "conv2d_weight", (x, g), bw)


def _check_factors(op: str, kh: int, kw: int) -> None:
    if kh < 1 or kw < 1:
        raise ShapeError(f"{op}: factors {kh}x{kw} must both be at least 1")


def avg_pool2d(a: Tensor, kh: int, kw: int) -> Tensor:
    """Non-overlapping block-mean pooling; extents must divide evenly.

    The kw strided column slices are summed over all rows, then the kh
    strided row slices of that: each block's row sums, then their sum, the
    same grouping as summing within each block row first. For 2x2, 1x2 and
    2x1 blocks that is numpy's block-mean order, bit for bit. The sums are
    divided in place; the output never aliases the input. The backward
    scales the pooled-size gradient by 1/(kh*kw) before upsampling it.
    """
    if a.ndim != 4:
        raise ShapeError("avg_pool2d expects NCHW")
    _check_factors("avg_pool2d", kh, kw)
    N, C, H, W = a.shape
    if H % kh or W % kw:
        raise ShapeError(f"pool {kh}x{kw} does not tile {H}x{W}")
    cols = reduce(np.add, [a.data[..., j::kw] for j in range(kw)])
    data = reduce(np.add, [cols[..., i::kh, :] for i in range(kh)])
    if kh * kw > 1:  # `data` is memory this call allocated
        data /= kh * kw
    else:  # nothing was summed: `data` is a view of the input
        data = data.copy(order="K")

    def bw(g, needs):
        return (upsample_repeat2d(scalar_mul(g, 1.0 / (kh * kw)), kh, kw),)

    return _result(data, "avg_pool2d", (a,), bw)


def upsample_repeat2d(a: Tensor, kh: int, kw: int) -> Tensor:
    """Nearest-neighbor upsampling: each pixel becomes a kh x kw block.

    The input is written kw times, strided, into the widened rows (faster
    than `np.repeat` along the last axis on every network shape), and each
    widened row is then copied kh times; the output is a new C-contiguous
    array.
    """
    if a.ndim != 4:
        raise ShapeError("upsample expects NCHW")
    _check_factors("upsample_repeat2d", kh, kw)
    N, C, H, W = a.shape
    wide = np.empty((N, C, H, W, kw), a.data.dtype)
    for j in range(kw):
        wide[..., j] = a.data
    data = wide.reshape(N, C, H, W * kw)
    if kh > 1:
        data = np.repeat(data, kh, axis=2)

    def bw(g, needs):
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


def grad(
    output: Tensor,
    inputs: Iterable[Tensor],
    create_graph: bool = False,
    allow_unused: bool = False,
) -> list[Tensor]:
    """Return d(output)/d(input) for each input, as tensors.

    A node is needed when it is an input or one of its parents is needed;
    gradients are computed and stored for needed nodes only. With
    ``create_graph=True`` the returned gradients carry their own tape, so
    they can be differentiated again.  The forward graph is left intact.
    """
    inputs = list(inputs)
    if output.size != 1:
        raise GraphError("backward needs a scalar loss")
    if output._bw is None and not output.requires_grad:
        raise GraphError("loss is not part of the recorded graph")
    order = _toposort(output)
    needed = {id(t) for t in inputs}
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
            for p, pg, need in zip(node._parents, node._bw(g, needs), needs):
                if pg is None or not need:
                    continue
                prev = grads.get(id(p))
                grads[id(p)] = pg if prev is None else add(prev, pg)
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
