"""Autodiff core tests.

Analytic gradients are checked against a central-difference oracle written
here (independent of the library's own gradient_check), plus structural
identities: adjoint pairs for the linear ops, linearity of backward, and a
finite-difference check THROUGH a differentiated gradient (double backward).
"""

import numpy as np
import pytest

from jpeggan import tensor as T
from jpeggan.tensor import Tensor


def _conv_ref(x, w, stride, pad):
    """Direct-summation cross-correlation, the conv oracle."""
    N, C, H, W = x.shape
    O, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    OH = (H + 2 * pad - kh) // stride + 1
    OW = (W + 2 * pad - kw) // stride + 1
    out = np.zeros((N, O, OH, OW))
    for n in range(N):
        for o in range(O):
            for i in range(OH):
                for j in range(OW):
                    patch = xp[n, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[n, o, i, j] = np.sum(patch * w[o])
    return out


def fd_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar f at numpy array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        keep = x[i]
        x[i] = keep + eps
        hi = f(x)
        x[i] = keep - eps
        lo = f(x)
        x[i] = keep
        g[i] = (hi - lo) / (2 * eps)
        it.iternext()
    return g


def analytic_grad(f, x):
    t = Tensor(x.copy(), requires_grad=True)
    y = f(t)
    T.backward(y)
    return t.grad


def check_op(f_t, f_np, shape, rng, tol=1e-7, low=-2.0, high=2.0):
    x = rng.uniform(low, high, size=shape)
    a = analytic_grad(f_t, x)
    n = fd_grad(f_np, x.copy())
    err = np.max(np.abs(a - n) / np.maximum(1e-8, np.abs(a) + np.abs(n)))
    assert err < tol, f"gradient mismatch {err}"


class TestForward:
    def test_add_mul_scalars(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 4.0])
        assert np.allclose((a + b).data, [4, 6])
        assert np.allclose((a * b).data, [3, 8])
        assert np.allclose((a * 2.5).data, [2.5, 5])
        assert np.allclose((a + 1).data, [2, 3])
        assert np.allclose((a - b).data, [-2, -2])

    def test_shape_mismatch_raises(self):
        with pytest.raises(T.ShapeError):
            T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
        with pytest.raises(T.ShapeError):
            T.mul(Tensor(np.zeros(2)), Tensor(np.zeros(3)))
        with pytest.raises(T.ShapeError):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:divide by zero")
    def test_non_finite_raises(self):
        big = Tensor(np.array([1e308]))
        with pytest.raises(T.NonFiniteError):
            T.mul(big, big)
        with pytest.raises(T.NonFiniteError):
            T.pow_const(Tensor(np.array([0.0])), -1.0)

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 4))
        assert np.allclose(T.matmul(Tensor(x), Tensor(np.eye(4))).data, x)

    def test_conv2d_delta_kernel_is_identity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 8, 8))
        w = np.zeros((3, 3, 3, 3))
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        y = T.conv2d(Tensor(x), Tensor(w), padding=1)
        assert np.allclose(y.data, x, atol=1e-12)

    def test_conv2d_matches_direct_summation(self):
        rng = np.random.default_rng(2)
        N, C, H, W, O, k, s, p = 2, 3, 7, 6, 4, 3, 1, 1
        x = rng.normal(size=(N, C, H, W))
        w = rng.normal(size=(O, C, k, k))
        b = rng.normal(size=(O,))
        y = T.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=p).data
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        OH = (H + 2 * p - k) // s + 1
        OW = (W + 2 * p - k) // s + 1
        ref = np.zeros((N, O, OH, OW))
        for n in range(N):
            for o in range(O):
                for i in range(OH):
                    for j in range(OW):
                        patch = xp[n, :, i * s : i * s + k, j * s : j * s + k]
                        ref[n, o, i, j] = np.sum(patch * w[o]) + b[o]
        assert np.allclose(y, ref, atol=1e-10)

    def test_pool_and_upsample(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        y = T.avg_pool2d(Tensor(x), 2, 2).data
        assert np.allclose(y, [[[[2.5, 4.5], [10.5, 12.5]]]])
        z = T.upsample_repeat2d(Tensor(y), 2, 2).data
        assert z.shape == (1, 1, 4, 4)
        assert np.allclose(z[0, 0, :2, :2], 2.5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_avg_pool2d_bits_match_numpy_block_mean(self, dtype):
        x = np.random.default_rng(3).uniform(-300, 300, size=(3, 2, 8, 12)).astype(dtype)
        cnhw = np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
        for kh, kw in [(2, 2), (1, 2), (2, 1)]:
            want = x.reshape(3, 2, 8 // kh, kh, 12 // kw, kw).mean(axis=(3, 5))
            for arr in (x, cnhw):  # NCHW memory, and the layout conv2d returns
                got = T.avg_pool2d(Tensor(arr), kh, kw).data
                assert got.dtype == want.dtype
                assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_round_ste_half_away_from_zero(self):
        x = Tensor(np.array([0.5, -0.5, 1.5, -1.5, 2.49, -2.51]))
        assert np.array_equal(T.round_ste(x).data, [1, -1, 2, -2, 2, -3])

    def test_concat_slice_roundtrip(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 2))
        c = T.concat([Tensor(a), Tensor(b)], axis=1)
        assert np.allclose(T.slice_axis(c, 1, 3, 5).data, b)

    def test_requires_grad_propagates(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3))
        assert (a + b).requires_grad
        assert not (b * 2.0).requires_grad
        with T.no_grad():
            assert not (a + b).requires_grad


class TestBackward:
    def test_mean_relu_example(self):
        w = Tensor(np.array([-1.0, 3.0]), requires_grad=True)
        loss = T.mean_all(T.relu(w))
        T.backward(loss)
        assert np.allclose(w.grad, [0.0, 0.5])

    def test_backward_requires_scalar(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(T.GraphError):
            T.backward(w * 2.0)

    def test_backward_off_tape(self):
        with pytest.raises(T.GraphError):
            T.backward(Tensor(np.array(1.0)))

    def test_linearity_of_backward(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5,))

        def f(t):
            return T.sum_all(T.mul(t, t))

        def g(t):
            return T.sum_all(T.relu(t))

        a, b = 2.0, -3.0
        ga = analytic_grad(f, x)
        gb = analytic_grad(g, x)
        gc = analytic_grad(lambda t: a * f(t) + b * g(t), x)
        assert np.allclose(gc, a * ga + b * gb, atol=1e-12)

    def test_grad_accumulates_on_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = T.sum_all(T.add(x, x))
        T.backward(y)
        assert np.allclose(x.grad, [2.0])

    def test_tape_consumed_after_backward(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = T.sum_all(T.mul(x, x))
        T.backward(y)
        assert y._bw is None and y._parents == ()

    def test_determinism(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 6))
        g1 = analytic_grad(lambda t: T.sum_all(T.tanh(T.matmul(t, t.permute(1, 0)))), x)
        g2 = analytic_grad(lambda t: T.sum_all(T.tanh(T.matmul(t, t.permute(1, 0)))), x)
        assert np.array_equal(g1, g2)


class TestGradientsAgainstFiniteDifferences:
    def test_elementwise_ops(self):
        rng = np.random.default_rng(10)
        cases = [
            (lambda t: T.sum_all(T.mul(t, t)), lambda x: float(np.sum(x * x))),
            (lambda t: T.sum_all(T.relu(t)), lambda x: float(np.sum(np.maximum(x, 0)))),
            (
                lambda t: T.sum_all(T.leaky_relu(t, 0.2)),
                lambda x: float(np.sum(np.where(x > 0, x, 0.2 * x))),
            ),
            (lambda t: T.sum_all(T.tanh(t)), lambda x: float(np.sum(np.tanh(x)))),
            (lambda t: T.sum_all(T.abs_(t)), lambda x: float(np.sum(np.abs(x)))),
            (lambda t: T.l1_norm(t), lambda x: float(np.sum(np.abs(x)))),
            (
                lambda t: T.sum_all(T.pow_const(t, 3.0)),
                lambda x: float(np.sum(x ** 3)),
            ),
            (
                lambda t: T.sum_all(T.clamp(t, -0.5, 0.5)),
                lambda x: float(np.sum(np.clip(x, -0.5, 0.5))),
            ),
        ]
        for f_t, f_np in cases:
            # keep points away from the kinks so the oracle is valid
            check_op(f_t, f_np, (3, 4), rng, low=0.6, high=2.0)
            check_op(f_t, f_np, (7,), rng, low=-2.0, high=-0.6)

    def test_sqrt_grad(self):
        rng = np.random.default_rng(11)
        check_op(
            lambda t: T.sum_all(T.sqrt(t)),
            lambda x: float(np.sum(np.sqrt(x))),
            (5,),
            rng,
            low=0.5,
            high=3.0,
        )

    def test_matmul_grad(self):
        rng = np.random.default_rng(12)
        b = rng.normal(size=(4, 3))
        check_op(
            lambda t: T.sum_all(T.tanh(T.matmul(t, Tensor(b)))),
            lambda x: float(np.sum(np.tanh(x @ b))),
            (2, 4),
            rng,
        )

    def test_conv2d_grad_input_and_weight(self):
        rng = np.random.default_rng(13)
        w = rng.normal(size=(2, 3, 3, 3))
        x = rng.normal(size=(2, 3, 6, 6))
        check_op(
            lambda t: T.sum_all(T.tanh(T.conv2d(t, Tensor(w), padding=1))),
            lambda z: float(np.sum(np.tanh(_conv_ref(z, w, 1, 1)))),
            x.shape,
            rng,
        )
        check_op(
            lambda t: T.sum_all(T.tanh(T.conv2d(Tensor(x), t, padding=1))),
            lambda z: float(np.sum(np.tanh(_conv_ref(x, z, 1, 1)))),
            w.shape,
            rng,
        )

    def test_shape_ops_grads(self):
        rng = np.random.default_rng(14)
        check_op(
            lambda t: T.sum_all(T.mul(t.reshape(6), t.reshape(6))),
            lambda x: float(np.sum(x.reshape(6) ** 2)),
            (2, 3),
            rng,
        )
        check_op(
            lambda t: T.sum_all(T.pow_const(t.permute(1, 0), 2.0)),
            lambda x: float(np.sum(x.T ** 2)),
            (2, 3),
            rng,
        )
        check_op(
            lambda t: T.sum_all(T.pow_const(T.avg_pool2d(t, 2, 2), 2.0)),
            lambda x: float(
                np.sum(x.reshape(1, 2, 2, 2, 2, 2).mean(axis=(3, 5)) ** 2)
            ),
            (1, 2, 4, 4),
            rng,
        )
        check_op(
            lambda t: T.sum_all(T.pow_const(T.upsample_repeat2d(t, 2, 2), 2.0)),
            lambda x: float(np.sum(np.repeat(np.repeat(x, 2, 2), 2, 3) ** 2)),
            (1, 2, 3, 3),
            rng,
        )
        check_op(
            lambda t: T.sum_all(
                T.pow_const(T.concat([t, T.scalar_mul(t, 2.0)], axis=1), 2.0)
            ),
            lambda x: float(np.sum(x ** 2) + np.sum((2 * x) ** 2)),
            (2, 3),
            rng,
        )
        check_op(
            lambda t: T.sum_all(T.pow_const(T.slice_axis(t, 1, 1, 3), 2.0)),
            lambda x: float(np.sum(x[:, 1:3] ** 2)),
            (2, 4),
            rng,
        )
        check_op(
            lambda t: T.sum_all(T.pow_const(T.expand(t, (4, 3)), 2.0)),
            lambda x: float(np.sum(np.broadcast_to(x, (4, 3)) ** 2)),
            (1, 3),
            rng,
        )
        check_op(
            lambda t: T.sum_all(T.pow_const(T.sum_axes(t, (0, 2)), 2.0)),
            lambda x: float(np.sum(x.sum(axis=(0, 2)) ** 2)),
            (2, 3, 4),
            rng,
        )

    def test_mean_axes_grad(self):
        rng = np.random.default_rng(15)
        check_op(
            lambda t: T.sum_all(T.pow_const(T.mean_axes(t, (1,)), 2.0)),
            lambda x: float(np.sum(x.mean(axis=1) ** 2)),
            (3, 5),
            rng,
        )


class TestConv2dBackward:
    """The input gradient is a flipped-kernel convolution; check it, the
    weight and the bias gradient, and their own gradients, on H != W."""

    CASES = [(3, 3, 0), (3, 3, 1), (1, 1, 0), (2, 3, 1)]

    @staticmethod
    def values(kh, kw):
        rng = np.random.default_rng(kh * 10 + kw)
        return [
            rng.normal(size=(2, 2, 4, 5)),  # x
            rng.normal(size=(3, 2, kh, kw)) * 0.5,  # W
            rng.normal(size=(3,)) * 0.5,  # b
        ]

    @pytest.mark.parametrize("kh, kw, p", CASES)
    def test_first_order_against_direct_summation(self, kh, kw, p):
        values = self.values(kh, kw)

        def ref(x, w, b):
            return float(np.sum(np.tanh(_conv_ref(x, w, 1, p) + b[None, :, None, None])))

        leaves = [Tensor(v.copy(), requires_grad=True) for v in values]
        T.backward(T.sum_all(T.tanh(T.conv2d(*leaves, padding=p))))
        for i, leaf in enumerate(leaves):
            numeric = fd_grad(lambda v: ref(*(v if j == i else values[j] for j in range(3))), values[i].copy())
            err = np.max(np.abs(leaf.grad - numeric) / np.maximum(1e-8, np.abs(leaf.grad) + np.abs(numeric)))
            assert err < 1e-6, (i, err)

    @pytest.mark.parametrize("kh, kw, p", CASES)
    def test_second_order_against_finite_differences(self, kh, kw, p):
        values = self.values(kh, kw)

        def penalty(*arrays):
            leaves = [Tensor(v, requires_grad=True) for v in arrays]
            out = T.sum_all(T.tanh(T.conv2d(*leaves, padding=p)))
            # gx is the penalty's pattern; gW and gb reach x through the saved patches
            gx, gw, gb = T.grad(out, leaves, create_graph=True)
            squares = [T.sum_all(T.mul(t, t)) for t in (gx, gw, gb)]
            return leaves, T.add(T.add(squares[0], squares[1]), squares[2])

        leaves, pen = penalty(*(v.copy() for v in values))
        T.backward(pen)
        for i, leaf in enumerate(leaves):
            def f(v, i=i):
                return penalty(*(v if j == i else values[j] for j in range(3)))[1].item()

            numeric = fd_grad(f, values[i].copy())
            err = np.max(np.abs(leaf.grad - numeric) / np.maximum(1e-8, np.abs(leaf.grad) + np.abs(numeric)))
            assert err < 1e-5, (i, err)

    def test_padding_wider_than_kernel_is_rejected(self):
        x = Tensor(np.zeros((1, 2, 6, 7)))
        for kh, kw, padding in [(3, 3, 3), (1, 1, 1), (2, 3, 2), (3, 3, -1), (2, 3, (1, 3))]:
            with pytest.raises(T.ShapeError, match="padding"):
                T.conv2d(x, Tensor(np.zeros((1, 2, kh, kw))), padding=padding)
        # the widest accepted pad is kernel extent - 1, per axis
        y = T.conv2d(x, Tensor(np.zeros((1, 2, 2, 3))), padding=(1, 2))
        assert y.shape == (1, 1, 7, 9)


class TestBlockedLowering:
    """conv2d and conv2d_weight run over image blocks of `_BLOCK_BYTES`."""

    # (H, W) per case giving a 4x8 output: every layer of the networks has
    # OH*OW a multiple of 16, and then a block boundary leaves each output
    # element's GEMM sum order unchanged
    EXTENTS = {(3, 3, 0): (6, 10), (3, 3, 1): (4, 8), (1, 1, 0): (4, 8), (2, 3, 1): (3, 8)}

    @staticmethod
    def values(kh, kw, H, W):
        rng = np.random.default_rng(60 + kh * 10 + kw)
        return rng.normal(size=(5, 2, H, W)), rng.normal(size=(3, 2, kh, kw)), rng.normal(size=(3,))

    @pytest.mark.parametrize("kh, kw, p", TestConv2dBackward.CASES)
    def test_uneven_blocks_match_one_block_and_oracle(self, kh, kw, p, monkeypatch):
        x, w, b = self.values(kh, kw, *self.EXTENTS[kh, kw, p])
        one = T.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=p).data
        assert one.shape[2:] == (4, 8)
        # two images per block: blocks of 2, 2 and 1 image
        monkeypatch.setattr(T, "_BLOCK_BYTES", 2 * 2 * kh * kw * 32 * 8)
        starts = [s for s, _, _ in T._patch_blocks(x, kh, kw, p, p)]
        assert starts == [0, 2, 4]
        blocked = T.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=p).data
        assert np.array_equal(blocked, one)
        ref = _conv_ref(x, w, 1, p) + b[None, :, None, None]
        assert np.allclose(blocked, ref, atol=1e-12)

    def test_rejects_a_gradient_of_the_wrong_shape(self):
        x = Tensor(np.zeros((2, 2, 5, 5)))
        with pytest.raises(T.ShapeError, match="conv2d_weight"):
            T.conv2d_weight(x, Tensor(np.zeros((2, 3, 5, 5))), 3, 3, 0)


class TestConv2dWeight:
    """Finite differences of conv2d_weight in x and g, to second order."""

    # conv2d's cases, plus unequal pads on the two axes
    CASES = TestConv2dBackward.CASES + [(3, 2, (1, 0))]

    @staticmethod
    def values(kh, kw, p):
        ph, pw = p if isinstance(p, tuple) else (p, p)
        rng = np.random.default_rng(kh * 10 + kw + ph)
        x = rng.normal(size=(2, 2, 4, 5))
        return [x, rng.normal(size=(2, 3, 4 + 2 * ph - kh + 1, 5 + 2 * pw - kw + 1)) * 0.5]

    @staticmethod
    def scalar(kh, kw, p, leaves):
        return T.sum_all(T.tanh(T.scalar_mul(T.conv2d_weight(*leaves, kh, kw, p), 0.3)))

    @pytest.mark.parametrize("kh, kw, p", CASES)
    def test_first_order(self, kh, kw, p):
        values = self.values(kh, kw, p)
        ph, pw = p if isinstance(p, tuple) else (p, p)

        def ref(x, g):
            # the weight gradient by direct summation: V[o] = sum g[:, o] * patches
            xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
            OH, OW = g.shape[2:]
            v = np.zeros((g.shape[1], x.shape[1], kh, kw))
            for i in range(kh):
                for j in range(kw):
                    v[:, :, i, j] = np.einsum("nohw,nchw->oc", g, xp[:, :, i : i + OH, j : j + OW])
            return float(np.sum(np.tanh(0.3 * v)))

        leaves = [Tensor(v.copy(), requires_grad=True) for v in values]
        T.backward(self.scalar(kh, kw, p, leaves))
        for i, leaf in enumerate(leaves):
            numeric = fd_grad(lambda v: ref(*(v if j == i else values[j] for j in range(2))), values[i].copy())
            err = np.max(np.abs(leaf.grad - numeric) / np.maximum(1e-8, np.abs(leaf.grad) + np.abs(numeric)))
            assert err < 1e-6, (i, err)

    @pytest.mark.parametrize("kh, kw, p", CASES)
    def test_second_order(self, kh, kw, p):
        values = self.values(kh, kw, p)

        def penalty(*arrays):
            leaves = [Tensor(v, requires_grad=True) for v in arrays]
            gx, gg = T.grad(self.scalar(kh, kw, p, leaves), leaves, create_graph=True)
            return leaves, T.add(T.sum_all(T.mul(gx, gx)), T.sum_all(T.mul(gg, gg)))

        leaves, pen = penalty(*(v.copy() for v in values))
        T.backward(pen)
        for i, leaf in enumerate(leaves):
            def f(v, i=i):
                return penalty(*(v if j == i else values[j] for j in range(2)))[1].item()

            numeric = fd_grad(f, values[i].copy())
            err = np.max(np.abs(leaf.grad - numeric) / np.maximum(1e-8, np.abs(leaf.grad) + np.abs(numeric)))
            assert err < 1e-5, (i, err)


class TestAdjointPairs:
    """<A x, y> == <x, A^T y> for each linear op and its backward partner."""

    def rand_pair(self, rng, op, in_shape):
        x = rng.normal(size=in_shape)
        y_t = op(Tensor(x))
        y = rng.normal(size=y_t.shape)
        return x, y, y_t.data

    def inner_check(self, rng, op, opT, in_shape):
        x, y, ox = self.rand_pair(rng, op, in_shape)
        lhs = np.sum(ox * y)
        rhs = np.sum(x * opT(Tensor(y)).data)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))

    def test_conv2d_conv2d_weight(self, monkeypatch):
        # <conv2d(x, w), g> == <w, conv2d_weight(x, g)>, as a map of w
        rng = np.random.default_rng(20)
        x = Tensor(rng.normal(size=(3, 3, 6, 5)))
        for block_bytes in (T._BLOCK_BYTES, 1):  # one block, then one image per block
            monkeypatch.setattr(T, "_BLOCK_BYTES", block_bytes)
            for kh, kw, p in [(3, 3, 0), (3, 3, 1), (2, 3, 1), (1, 1, 0), (3, 2, (1, 0))]:
                self.inner_check(
                    rng,
                    lambda t: T.conv2d(x, t, padding=p),
                    lambda y: T.conv2d_weight(x, y, kh, kw, p),
                    (4, 3, kh, kw),
                )

    def test_pool_upsample(self):
        rng = np.random.default_rng(21)
        self.inner_check(
            rng,
            lambda t: T.avg_pool2d(t, 2, 2),
            lambda y: T.scalar_mul(T.upsample_repeat2d(y, 2, 2), 1 / 4),
            (2, 3, 4, 6),
        )


class TestHigherOrder:
    def test_double_backward_simple(self):
        # f(x) = x^3: f' = 3x^2, d(sum f')/dx = 6x
        x = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
        y = T.sum_all(T.pow_const(x, 3.0))
        (g,) = T.grad(y, [x], create_graph=True)
        z = T.sum_all(g)
        T.backward(z)
        assert np.allclose(x.grad, 6 * x.data)

    def test_grad_through_gradient_norm(self):
        # The gradient-penalty pattern: differentiate ||d f/d x||^2 w.r.t. W.
        rng = np.random.default_rng(30)
        Wv = rng.normal(size=(4, 3))
        xv = rng.normal(size=(2, 4))

        def penalty(Wd):
            W = Tensor(Wd, requires_grad=True)
            x = Tensor(xv, requires_grad=True)
            out = T.sum_all(T.tanh(T.matmul(x, W)))
            (gx,) = T.grad(out, [x], create_graph=True)
            pen = T.sum_all(T.mul(gx, gx))
            return W, pen

        W, pen = penalty(Wv.copy())
        T.backward(pen)
        analytic = W.grad
        numeric = fd_grad(lambda w: penalty(w)[1].item(), Wv.copy(), eps=1e-6)
        err = np.max(np.abs(analytic - numeric) / np.maximum(1e-8, np.abs(analytic) + np.abs(numeric)))
        assert err < 1e-6

    def test_grad_through_conv_gradient(self):
        rng = np.random.default_rng(31)
        Wv = rng.normal(size=(2, 1, 3, 3)) * 0.5
        xv = rng.normal(size=(1, 1, 5, 5))

        def penalty(Wd):
            W = Tensor(Wd, requires_grad=True)
            x = Tensor(xv, requires_grad=True)
            out = T.sum_all(T.tanh(T.conv2d(x, W, padding=1)))
            (gx,) = T.grad(out, [x], create_graph=True)
            pen = T.sum_all(T.mul(gx, gx))
            return W, pen

        W, pen = penalty(Wv.copy())
        T.backward(pen)
        numeric = fd_grad(lambda w: penalty(w)[1].item(), Wv.copy(), eps=1e-6)
        err = np.max(np.abs(W.grad - numeric) / np.maximum(1e-8, np.abs(W.grad) + np.abs(numeric)))
        assert err < 1e-5

    @pytest.mark.parametrize("k, pad", [(3, 1), (1, 0)])
    def test_grad_through_batched_conv_gradient_with_bias(self, k, pad):
        rng = np.random.default_rng(32)
        values = [
            rng.normal(size=(2, 3, k, k)) * 0.5,  # W
            rng.normal(size=(2,)) * 0.5,  # b
            rng.normal(size=(2, 3, 5, 5)),  # x
        ]

        def penalty(Wd, bd, xd):
            W, b, x = (Tensor(v, requires_grad=True) for v in (Wd, bd, xd))
            out = T.sum_all(T.tanh(T.conv2d(x, W, b, padding=pad)))
            (gx,) = T.grad(out, [x], create_graph=True)
            return (W, b, x), T.sum_all(T.mul(gx, gx))

        leaves, pen = penalty(*(v.copy() for v in values))
        T.backward(pen)
        for i, leaf in enumerate(leaves):
            def f(v, i=i):
                return penalty(*(v if j == i else values[j] for j in range(3)))[1].item()

            numeric = fd_grad(f, values[i].copy())
            err = np.max(np.abs(leaf.grad - numeric) / np.maximum(1e-8, np.abs(leaf.grad) + np.abs(numeric)))
            assert err < 1e-5, (i, err)


    def test_grad_computes_only_requested_operand_gradients(self, monkeypatch):
        rng = np.random.default_rng(41)
        x = Tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True)
        w1 = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        w2 = Tensor(rng.normal(size=(1, 3, 3, 3)), requires_grad=True)
        b2 = Tensor(rng.normal(size=(1,)), requires_grad=True)
        out = T.sum_all(T.conv2d(T.relu(T.conv2d(x, w1, padding=1)), w2, b2, padding=1))
        kernels, weight_grads = [], []
        conv2d, conv2d_weight = T.conv2d, T.conv2d_weight

        def counted_conv(x, w, b=None, padding=0):
            kernels.append(w.shape)
            return conv2d(x, w, b, padding)

        def counted_weight(x, g, kh, kw, padding=0):
            weight_grads.append((g.shape[1], x.shape[1], kh, kw))
            return conv2d_weight(x, g, kh, kw, padding)

        monkeypatch.setattr(T, "conv2d", counted_conv)
        monkeypatch.setattr(T, "conv2d_weight", counted_weight)
        (gx,) = T.grad(out, [x], create_graph=True)
        # one conv per layer with the flipped, in/out-swapped (I, O, kh, kw)
        # kernel, and no weight gradient
        assert kernels == [(3, 1, 3, 3), (2, 3, 3, 3)]
        assert weight_grads == []
        kernels.clear()
        gx_all, gw1, gw2 = T.grad(out, [x, w1, w2])
        assert kernels == [(3, 1, 3, 3), (2, 3, 3, 3)]
        assert sorted(weight_grads) == [(1, 3, 3, 3), (3, 2, 3, 3)]
        assert np.array_equal(gx.data, gx_all.data)
        assert gw1.shape == w1.shape and gw2.shape == w2.shape


class TestGradientCheckUtility:
    def test_sum_of_squares_is_clean(self):
        rng = np.random.default_rng(40)
        x = Tensor(rng.normal(size=(3, 3)))
        err = T.gradient_check(lambda t: T.sum_all(T.mul(t, t)), x)
        assert err < 1e-8

    def test_rounding_fails_the_check(self):
        # Hard rounding has zero finite-difference signal almost everywhere
        # but a straight-through analytic gradient; the check must expose it.
        x = Tensor(np.array([0.2, 0.3, -0.4]))
        err = T.gradient_check(lambda t: T.sum_all(T.round_ste(t)), x)
        assert err > 0.1

    def test_grad_enabled_flags(self):
        assert T.is_grad_enabled()
        with T.no_grad():
            assert not T.is_grad_enabled()
            with T.enable_grad():
                assert T.is_grad_enabled()
        assert T.is_grad_enabled()


class TestDtypes:
    def test_default_dtype_context(self):
        with T.default_dtype(np.float32):
            assert Tensor([1.0]).dtype == np.float32
        assert Tensor([1.0]).dtype == np.float64

    def test_float32_graph(self):
        with T.default_dtype(np.float32):
            x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
            y = T.sum_all(T.relu(T.matmul(x, x)))
            T.backward(y)
            assert x.grad.dtype == np.float32

    def test_conv2d_float32_through_double_backward(self):
        rng = np.random.default_rng(50)
        x = Tensor(rng.normal(size=(2, 3, 5, 5)).astype(np.float32), requires_grad=True)
        W = Tensor(rng.normal(size=(2, 3, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.normal(size=(2,)).astype(np.float32), requires_grad=True)
        y = T.conv2d(x, W, b, padding=1)
        gx, gW, gb = T.grad(T.sum_all(T.tanh(y)), [x, W, b], create_graph=True)
        ggW, ggb, ggx = T.grad(T.sum_all(T.mul(gx, gx)), [W, b, x])
        for t in (y, gx, gW, gb, ggW, ggb, ggx):
            assert t.dtype == np.float32
