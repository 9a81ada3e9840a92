"""Autodiff core tests.

Analytic gradients are checked against a central-difference oracle written
here (independent of the library's own gradient_check), plus structural
identities: adjoint pairs for the linear ops, linearity of backward, and a
finite-difference check THROUGH a differentiated gradient (double backward).
"""

import gc
import warnings
import weakref

import numpy as np
import pytest

from jpeggan import codec, jpeg, layers, networks
from jpeggan import tensor as T
from jpeggan.tensor import Tensor


# the kernels of the same-convolution tests: square, one-sided and wide ones
SAME_KERNELS = [(1, 1), (3, 3), (1, 3), (3, 1), (3, 5), (5, 5)]
# each with the zero pad the oracles apply for it: one for both axes, or (ph, pw)
SAME_CASES = pytest.mark.parametrize(
    "kh, kw, p",
    [(1, 1, 0), (3, 3, 1), (5, 5, 2), (1, 3, (0, 1)), (3, 1, (1, 0)), (3, 5, (1, 2))],
    ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else None,
)


def _pads(p):
    """(ph, pw) from one pad for both axes or a pair."""
    return p if isinstance(p, tuple) else (p, p)


def _conv_ref(x, w, stride, pad):
    """Direct-summation cross-correlation, the conv oracle; `pad` is one
    zero pad for both axes or a (ph, pw) pair."""
    N, C, H, W = x.shape
    O, _, kh, kw = w.shape
    ph, pw = _pads(pad)
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    OH = (H + 2 * ph - kh) // stride + 1
    OW = (W + 2 * pw - kw) // stride + 1
    out = np.zeros((N, O, OH, OW), dtype=np.result_type(x, w))
    for n in range(N):
        for o in range(O):
            for i in range(OH):
                for j in range(OW):
                    patch = xp[n, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[n, o, i, j] = np.sum(patch * w[o])
    return out


def _patch_blocks_ref(x, kh, kw, ph, pw, O):
    """The patch-matrix oracle: zero-pad each block of images by (ph, pw),
    view it as (C, kh, kw, n, OH, OW) windows over the padded rows and copy
    that. Blocks are split as the lowering splits them (`_block_images`)."""
    N, C, H, W = x.shape
    OH, OW = H + 2 * ph - kh + 1, W + 2 * pw - kw + 1
    K, L = C * kh * kw, OH * OW
    nb = T._block_images(N, K, L, O, x.itemsize)
    for s in range(0, N, nb):
        e = min(s + nb, N)
        padded = np.pad(x[s:e], ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        sN, sC, sH, sW = padded.strides
        win = np.lib.stride_tricks.as_strided(
            padded, shape=(C, kh, kw, e - s, OH, OW), strides=(sC, sH, sW, sN, sH, sW), writeable=False
        )
        yield s, e, win.reshape(K, (e - s) * L)


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
    (g,) = T.grad(f(t), [t])
    return g.data


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
        assert np.allclose(T.add(a, b).data, [4, 6])
        assert np.allclose(T.mul(a, b).data, [3, 8])
        assert np.allclose(T.scalar_mul(a, 2.5).data, [2.5, 5])
        assert np.allclose(T.add_scalar(a, 1).data, [2, 3])
        assert np.allclose(T.add(a, T.scalar_mul(b, -1.0)).data, [-2, -2])

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
        y = T.conv2d(Tensor(x), Tensor(w))
        assert np.allclose(y.data, x, atol=1e-12)

    def test_conv2d_matches_direct_summation(self):
        rng = np.random.default_rng(2)
        N, C, H, W, O, k, s, p = 2, 3, 7, 6, 4, 3, 1, 1
        x = rng.normal(size=(N, C, H, W))
        w = rng.normal(size=(O, C, k, k))
        b = rng.normal(size=(O,))
        y = T.conv2d(Tensor(x), Tensor(w), Tensor(b)).data
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

    @pytest.mark.parametrize("shapes, axis", [
        ([], 0),  # nothing to join
        ([(2, 3), (2, 3, 1)], 0),  # ranks differ
        ([(2, 3), (4, 2)], 1),  # a non-axis extent differs
        ([(), ()], 0),  # 0-d tensors have no axis
        ([(1, 2, 3, 4), (1, 2, 3, 4)], 5),  # past the last axis
        ([(1, 2, 3, 4), (1, 2, 3, 4)], -5),  # before the first
    ])
    def test_concat_rejects_shapes_numpy_rejects(self, shapes, axis):
        with pytest.raises(T.ShapeError):
            T.concat([Tensor(np.zeros(s)) for s in shapes], axis=axis)

    def test_concat_negative_axis_and_its_backward(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        b = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
        c = T.concat([a, b], axis=-1)
        assert np.array_equal(c.data, np.concatenate([a.data, b.data], axis=1))
        weights = Tensor(np.arange(10.0).reshape(2, 5))
        da, db = T.grad(T.sum_all(T.mul(c, weights)), [a, b])
        assert np.array_equal(da.data, weights.data[:, :3])
        assert np.array_equal(db.data, weights.data[:, 3:])
        (da_only,) = T.grad(T.sum_all(T.concat([a], axis=0)), [a])  # one parent
        assert np.array_equal(da_only.data, np.ones((2, 3)))

    def test_requires_grad_propagates(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3))
        assert T.add(a, b).requires_grad
        assert not T.scalar_mul(b, 2.0).requires_grad
        with T.no_grad():
            assert not T.add(a, b).requires_grad


class TestBackward:
    def test_mean_relu_example(self):
        w = Tensor(np.array([-1.0, 3.0]), requires_grad=True)
        (g,) = T.grad(T.mean_all(T.relu(w)), [w])
        assert np.allclose(g.data, [0.0, 0.5])

    def test_backward_requires_scalar(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(T.GraphError):
            T.grad(T.scalar_mul(w, 2.0), [w])

    def test_backward_off_tape(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(T.GraphError):
            T.grad(Tensor(np.array(1.0)), [w])

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
        gc = analytic_grad(lambda t: T.add(T.scalar_mul(f(t), a), T.scalar_mul(g(t), b)), x)
        assert np.allclose(gc, a * ga + b * gb, atol=1e-12)

    def test_grad_accumulates_on_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        (g,) = T.grad(T.sum_all(T.add(x, x)), [x])
        assert np.allclose(g.data, [2.0])

    def test_determinism(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 6))
        g1 = analytic_grad(lambda t: T.sum_all(T.tanh(T.matmul(t, T.permute(t, (1, 0))))), x)
        g2 = analytic_grad(lambda t: T.sum_all(T.tanh(T.matmul(t, T.permute(t, (1, 0))))), x)
        assert np.array_equal(g1, g2)


class TestGradientsAgainstFiniteDifferences:
    def test_elementwise_ops(self):
        rng = np.random.default_rng(10)
        cases = [
            (lambda t: T.sum_all(T.mul(t, t)), lambda x: float(np.sum(x * x))),
            (lambda t: T.sum_all(T.relu(t)), lambda x: float(np.sum(np.maximum(x, 0)))),
            (lambda t: T.sum_all(T.tanh(t)), lambda x: float(np.sum(np.tanh(x)))),
            (lambda t: T.sum_all(T.abs_(t)), lambda x: float(np.sum(np.abs(x)))),
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
            lambda t: T.sum_all(T.tanh(T.conv2d(t, Tensor(w)))),
            lambda z: float(np.sum(np.tanh(_conv_ref(z, w, 1, 1)))),
            x.shape,
            rng,
        )
        check_op(
            lambda t: T.sum_all(T.tanh(T.conv2d(Tensor(x), t))),
            lambda z: float(np.sum(np.tanh(_conv_ref(x, z, 1, 1)))),
            w.shape,
            rng,
        )

    def test_shape_ops_grads(self):
        rng = np.random.default_rng(14)
        check_op(
            lambda t: T.sum_all(T.mul(T.reshape(t, (6,)), T.reshape(t, (6,)))),
            lambda x: float(np.sum(x.reshape(6) ** 2)),
            (2, 3),
            rng,
        )
        check_op(
            lambda t: T.sum_all(T.pow_const(T.permute(t, (1, 0)), 2.0)),
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


class TestConv2dBackward:
    """The input gradient is a flipped-kernel convolution; check it, the
    weight and the bias gradient, and their own gradients, on H != W."""

    @staticmethod
    def values(kh, kw):
        rng = np.random.default_rng(kh * 10 + kw)
        return [
            rng.normal(size=(2, 2, 4, 5)),  # x
            rng.normal(size=(3, 2, kh, kw)) * 0.5,  # W
            rng.normal(size=(3,)) * 0.5,  # b
        ]

    @SAME_CASES
    def test_first_order_against_direct_summation(self, kh, kw, p):
        values = self.values(kh, kw)

        def ref(x, w, b):
            # in long double: float64 rounds this sum by ~4e-15, ~2e-9 over 2 * eps,
            # over 1e-6 of a gradient entry near 1e-4
            x = x.astype(np.longdouble)
            return np.sum(np.tanh(_conv_ref(x, w, 1, p) + b[None, :, None, None]))

        leaves = [Tensor(v.copy(), requires_grad=True) for v in values]
        grads = T.grad(T.sum_all(T.tanh(T.conv2d(*leaves))), leaves)
        for i, g in enumerate(grads):
            numeric = fd_grad(lambda v: ref(*(v if j == i else values[j] for j in range(3))), values[i].copy())
            err = np.max(np.abs(g.data - numeric) / np.maximum(1e-8, np.abs(g.data) + np.abs(numeric)))
            assert err < 1e-6, (i, err)

    @SAME_CASES
    def test_second_order_against_finite_differences(self, kh, kw, p):
        values = self.values(kh, kw)

        def penalty(*arrays):
            leaves = [Tensor(v, requires_grad=True) for v in arrays]
            out = T.sum_all(T.tanh(T.conv2d(*leaves)))
            # gx is the penalty's pattern; gW and gb reach x through the saved patches
            gx, gw, gb = T.grad(out, leaves, create_graph=True)
            squares = [T.sum_all(T.mul(t, t)) for t in (gx, gw, gb)]
            return leaves, T.add(T.add(squares[0], squares[1]), squares[2])

        leaves, pen = penalty(*(v.copy() for v in values))
        for i, g in enumerate(T.grad(pen, leaves)):
            def f(v, i=i):
                return penalty(*(v if j == i else values[j] for j in range(3)))[1].item()

            numeric = fd_grad(f, values[i].copy())
            err = np.max(np.abs(g.data - numeric) / np.maximum(1e-8, np.abs(g.data) + np.abs(numeric)))
            assert err < 1e-5, (i, err)

    def test_even_kernel_is_rejected_and_extents_are_kept(self):
        x = Tensor(np.zeros((1, 2, 6, 7)))
        for kh, kw in [(2, 2), (2, 3), (3, 2), (4, 1)]:
            with pytest.raises(T.ShapeError, match="even"):
                T.conv2d(x, Tensor(np.zeros((1, 2, kh, kw))))
            with pytest.raises(T.ShapeError, match="even"):
                T.conv2d_weight(x, Tensor(np.zeros((1, 1, 6, 7))), kh, kw)
        # a same convolution keeps the input's extents, a kernel wider than the image too
        for kh, kw in SAME_KERNELS + [(7, 9)]:
            w = Tensor(np.zeros((1, 2, kh, kw)))
            assert T.conv2d(x, w).shape == (1, 1, 6, 7)
            assert T.conv2d_weight(x, T.conv2d(x, w), kh, kw).shape == w.shape


class TestBlockImages:
    """`_block_images`, the images per block of a conv's patch matrix."""

    NS = (1, 3, 64, 128)
    KLS = (16 * 9, 36 * 1024, 1152 * 16, 1 << 22)  # K*L; K = C*kh*kw, L = OH*OW
    OS = (1, 2, 3, 4, 8, 16, 32, 64, 128, 512)

    @staticmethod
    def factors(kl):
        return [(k, kl // k) for k in (1, 9, 16, 36, 144) if kl % k == 0]

    def test_between_one_and_n_images_within_the_budget(self):
        for N in self.NS:
            for kl in self.KLS:
                for K, L in self.factors(kl):
                    for O in self.OS:
                        for itemsize in (4, 8):
                            nb = T._block_images(N, K, L, O, itemsize)
                            assert 1 <= nb <= N
                            budget = 2 * T._L2_BYTES * O // (O + 16)
                            if kl * itemsize <= budget:
                                assert nb * kl * itemsize <= budget, (N, K, L, O, itemsize)

    def test_smaller_o_never_gets_a_larger_block(self):
        for N in self.NS:
            for kl in self.KLS:
                for itemsize in (4, 8):
                    for O_small in self.OS:
                        for O_large in (O for O in self.OS if O >= O_small):
                            for Ka, La in self.factors(kl):
                                for Kb, Lb in self.factors(kl):
                                    small = T._block_images(N, Ka, La, O_small, itemsize)
                                    assert small <= T._block_images(N, Kb, Lb, O_large, itemsize)

    def test_narrow_gemms_leave_room_wide_ones_get_an_l2(self):
        def block_bytes(O):  # f32 patches of a 3x3 conv on 4 x 32x32 channels: 144 KiB an image
            return T._block_images(1000, 36, 1024, O, 4) * 36 * 1024 * 4

        # room for BLAS's packed copy beside the block
        assert block_bytes(2) < block_bytes(4) < T._L2_BYTES // 2
        # a weight matrix streamed once per many images
        assert T._L2_BYTES <= block_bytes(32) <= block_bytes(128) <= 2 * T._L2_BYTES


class TestNetworkConvBlocks:
    """Every conv of the generator and critic, forward and critic input
    gradient, under the block rule: the forward equals one image per block
    bit for bit, and the weight gradient equals one block to rounding."""

    @staticmethod
    def conv_calls(monkeypatch, width, critic_width, path_channels, dtype, n):
        rng = np.random.default_rng(width)
        spec = networks.GeneratorSpec(latent_dim=8, base_channels=width, path_channels=path_channels)
        gen = networks.Generator(spec, rng)
        disc = networks.Discriminator(networks.DiscriminatorSpec(base_channels=critic_width), rng)
        networks.cast_params(gen, dtype)
        networks.cast_params(disc, dtype)
        calls = []
        conv2d = T.conv2d

        def recorded(x, w, b=None):
            calls.append((x.data, w.data))
            return conv2d(x, w, b)

        with monkeypatch.context() as m:
            m.setattr(T, "conv2d", recorded)
            out = gen.forward(Tensor(rng.normal(size=(n, 8)).astype(dtype)))
            pixels = codec.decode_planes(out.y, out.cb, out.cr, out.quality_factor, out.mode)
            pixels = Tensor(pixels.data, requires_grad=True)
            T.grad(T.sum_all(disc.forward(pixels)), [pixels])
        return calls

    @pytest.mark.parametrize("width, critic_width, path_channels, dtype", [
        (4, 8, 2, np.float32),  # the pinned protocol
        (128, 128, 4, np.float64),  # the command-line defaults
    ], ids=["pinned-f32", "default-f64"])
    def test_rule_matches_single_image_and_single_block(self, monkeypatch, width, critic_width,
                                                        path_channels, dtype):
        rng = np.random.default_rng(9)
        calls = self.conv_calls(monkeypatch, width, critic_width, path_channels, dtype, 3)
        assert len(calls) > 20
        for x, w in calls:
            kh, kw = w.shape[2:]
            ruled = T.conv2d(Tensor(x), Tensor(w)).data
            g = Tensor(rng.normal(size=ruled.shape).astype(dtype))
            ruled_w = T.conv2d_weight(Tensor(x), g, kh, kw).data
            with monkeypatch.context() as m:
                m.setattr(T, "_L2_BYTES", 1)  # one image per block
                single = T.conv2d(Tensor(x), Tensor(w)).data
                m.setattr(T, "_L2_BYTES", 1 << 40)  # the whole batch in one block
                whole_w = T.conv2d_weight(Tensor(x), g, kh, kw).data
            assert np.array_equal(ruled, single), (x.shape, w.shape)
            if dtype == np.float64:
                err = np.max(np.abs(ruled_w - whole_w)) / np.max(np.abs(whole_w))
                assert err <= 1e-12, (x.shape, w.shape, err)


class TestBlockedLowering:
    """conv2d and conv2d_weight run over image blocks sized by `_block_images`."""

    @staticmethod
    def values(kh, kw):
        # 4x8 images: every layer of the networks has H*W a multiple of 16,
        # and then a block boundary leaves each output element's GEMM sum
        # order unchanged
        rng = np.random.default_rng(60 + kh * 10 + kw)
        return rng.normal(size=(5, 2, 4, 8)), rng.normal(size=(3, 2, kh, kw)), rng.normal(size=(3,))

    @SAME_CASES
    def test_uneven_blocks_match_one_block_and_oracle(self, kh, kw, p, monkeypatch):
        x, w, b = self.values(kh, kw)
        one = T.conv2d(Tensor(x), Tensor(w), Tensor(b)).data
        assert one.shape[2:] == (4, 8)
        # two images per block: blocks of 2, 2 and 1 image; the O = 3 budget
        # is 6/19 of the L2 constant
        monkeypatch.setattr(T, "_L2_BYTES", 19 * (2 * 2 * kh * kw * 32 * 8) // 6 + 1)
        starts = [s for s, _, _ in T._patch_blocks(x, kh, kw, 3)]
        assert starts == [0, 2, 4]
        blocked = T.conv2d(Tensor(x), Tensor(w), Tensor(b)).data
        assert np.array_equal(blocked, one)
        ref = _conv_ref(x, w, 1, p) + b[None, :, None, None]
        assert np.allclose(blocked, ref, atol=1e-12)

    def test_rejects_a_gradient_of_the_wrong_shape(self):
        x = Tensor(np.zeros((2, 2, 5, 5)))
        with pytest.raises(T.ShapeError, match="conv2d_weight"):  # an unpadded conv's shape
            T.conv2d_weight(x, Tensor(np.zeros((2, 3, 3, 3))), 3, 3)


class TestPatchMatrices:
    """`_patch_blocks` equals the padded-window oracle bit for bit, block by
    block: every kernel of the conv tests with the pads of its same
    convolution, on the layouts convolutions see. Pads of 2 columns on
    6-column images make taps wrap two rows' ends."""

    CASES = [(kh, kw, (kh - 1) // 2, (kw - 1) // 2) for kh, kw in SAME_KERNELS]

    @staticmethod
    def layouts(rng, dtype):
        x = rng.normal(size=(5, 3, 4, 6)).astype(dtype)
        return {
            "contiguous": x,
            # a conv output: (C, N, H, W) memory seen as NCHW
            "channel-major": np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3),
            "stride-0": T.expand(Tensor(x[:1, :, :1]), x.shape).data,
            "negative-stride": T.flip2d(Tensor(x)).data,
        }

    @staticmethod
    def assert_blocks_match(x, kh, kw, ph, pw, O):
        blocks = [(s, e, cols.copy()) for s, e, cols in T._patch_blocks(x, kh, kw, O)]
        oracle = list(_patch_blocks_ref(x, kh, kw, ph, pw, O))
        assert [b[:2] for b in blocks] == [b[:2] for b in oracle]
        for (s, _, cols), (_, _, ref) in zip(blocks, oracle):
            assert cols.dtype == ref.dtype, (cols.dtype, ref.dtype)
            assert np.array_equal(cols, ref), (x.shape, x.strides, kh, kw, ph, pw, s)
        return [s for s, _, _ in blocks]

    @pytest.mark.parametrize("kh, kw, ph, pw", CASES)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_layouts_and_block_splits(self, kh, kw, ph, pw, dtype, monkeypatch):
        O = 3
        for name, x in self.layouts(np.random.default_rng(70 + kh * 10 + kw), dtype).items():
            N, C, H, W = x.shape
            kl = C * kh * kw * H * W * x.itemsize
            # one block; blocks of 2, 2 and 1 images (the O = 3 budget is 6/19 of
            # the L2 constant); one image per block
            for l2_bytes, starts in [(1 << 40, [0]), (19 * 2 * kl // 6 + 1, [0, 2, 4]), (1, [0, 1, 2, 3, 4])]:
                monkeypatch.setattr(T, "_L2_BYTES", l2_bytes)
                assert self.assert_blocks_match(x, kh, kw, ph, pw, O) == starts, name

    @pytest.mark.parametrize("width, critic_width, path_channels, dtype", [
        (4, 8, 2, np.float32),  # the pinned protocol
        (128, 128, 4, np.float64),  # the command-line defaults
    ], ids=["pinned-f32", "default-f64"])
    def test_every_network_convolution(self, monkeypatch, width, critic_width, path_channels, dtype):
        calls = TestNetworkConvBlocks.conv_calls(monkeypatch, width, critic_width, path_channels, dtype, 3)
        assert len(calls) > 20
        for x, w in calls:  # forward and critic input-gradient convolutions
            kh, kw = w.shape[2:]
            self.assert_blocks_match(x, kh, kw, (kh - 1) // 2, (kw - 1) // 2, w.shape[0])


class TestConv2dWeight:
    """Finite differences of conv2d_weight in x and g, to second order."""

    @staticmethod
    def values(kh, kw, p):
        rng = np.random.default_rng(kh * 10 + kw + _pads(p)[0])
        x = rng.normal(size=(2, 2, 4, 5))
        return [x, rng.normal(size=(2, 3, 4, 5)) * 0.5]

    @staticmethod
    def scalar(kh, kw, leaves):
        return T.sum_all(T.tanh(T.scalar_mul(T.conv2d_weight(*leaves, kh, kw), 0.3)))

    @SAME_CASES
    def test_first_order(self, kh, kw, p):
        values = self.values(kh, kw, p)
        ph, pw = _pads(p)

        def ref(x, g):
            # the weight gradient by direct summation: V[o] = sum g[:, o] * patches
            # in long double, as TestConv2dBackward's oracle
            xp = np.pad(x.astype(np.longdouble), ((0, 0), (0, 0), (ph, ph), (pw, pw)))
            OH, OW = g.shape[2:]
            v = np.zeros((g.shape[1], x.shape[1], kh, kw), dtype=np.longdouble)
            for i in range(kh):
                for j in range(kw):
                    v[:, :, i, j] = np.einsum("nohw,nchw->oc", g, xp[:, :, i : i + OH, j : j + OW])
            return np.sum(np.tanh(0.3 * v))

        leaves = [Tensor(v.copy(), requires_grad=True) for v in values]
        grads = T.grad(self.scalar(kh, kw, leaves), leaves)
        for i, g in enumerate(grads):
            numeric = fd_grad(lambda v: ref(*(v if j == i else values[j] for j in range(2))), values[i].copy())
            err = np.max(np.abs(g.data - numeric) / np.maximum(1e-8, np.abs(g.data) + np.abs(numeric)))
            assert err < 1e-6, (i, err)

    @SAME_CASES
    def test_second_order(self, kh, kw, p):
        values = self.values(kh, kw, p)

        def penalty(*arrays):
            leaves = [Tensor(v, requires_grad=True) for v in arrays]
            gx, gg = T.grad(self.scalar(kh, kw, leaves), leaves, create_graph=True)
            return leaves, T.add(T.sum_all(T.mul(gx, gx)), T.sum_all(T.mul(gg, gg)))

        leaves, pen = penalty(*(v.copy() for v in values))
        for i, g in enumerate(T.grad(pen, leaves)):
            def f(v, i=i):
                return penalty(*(v if j == i else values[j] for j in range(2)))[1].item()

            numeric = fd_grad(f, values[i].copy())
            err = np.max(np.abs(g.data - numeric) / np.maximum(1e-8, np.abs(g.data) + np.abs(numeric)))
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
        for l2_bytes in (T._L2_BYTES, 1):  # one block, then one image per block
            monkeypatch.setattr(T, "_L2_BYTES", l2_bytes)
            for kh, kw in SAME_KERNELS:
                self.inner_check(
                    rng,
                    lambda t: T.conv2d(x, t),
                    lambda y: T.conv2d_weight(x, y, kh, kw),
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
        (gg,) = T.grad(T.sum_all(g), [x])
        assert np.allclose(gg.data, 6 * x.data)

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
        analytic = T.grad(pen, [W])[0].data
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
            out = T.sum_all(T.tanh(T.conv2d(x, W)))
            (gx,) = T.grad(out, [x], create_graph=True)
            pen = T.sum_all(T.mul(gx, gx))
            return W, pen

        W, pen = penalty(Wv.copy())
        gw = T.grad(pen, [W])[0].data
        numeric = fd_grad(lambda w: penalty(w)[1].item(), Wv.copy(), eps=1e-6)
        err = np.max(np.abs(gw - numeric) / np.maximum(1e-8, np.abs(gw) + np.abs(numeric)))
        assert err < 1e-5

    @pytest.mark.parametrize("kh, kw", SAME_KERNELS)
    def test_grad_through_batched_conv_gradient_with_bias(self, kh, kw):
        rng = np.random.default_rng(32)
        values = [
            rng.normal(size=(2, 3, kh, kw)) * 0.5,  # W
            rng.normal(size=(2,)) * 0.5,  # b
            rng.normal(size=(2, 3, 5, 5)),  # x
        ]

        def penalty(Wd, bd, xd):
            W, b, x = (Tensor(v, requires_grad=True) for v in (Wd, bd, xd))
            out = T.sum_all(T.tanh(T.conv2d(x, W, b)))
            (gx,) = T.grad(out, [x], create_graph=True)
            return (W, b, x), T.sum_all(T.mul(gx, gx))

        leaves, pen = penalty(*(v.copy() for v in values))
        for i, g in enumerate(T.grad(pen, leaves)):
            def f(v, i=i):
                return penalty(*(v if j == i else values[j] for j in range(3)))[1].item()

            numeric = fd_grad(f, values[i].copy())
            err = np.max(np.abs(g.data - numeric) / np.maximum(1e-8, np.abs(g.data) + np.abs(numeric)))
            assert err < 1e-5, (i, err)


    def test_grad_computes_only_requested_operand_gradients(self, monkeypatch):
        rng = np.random.default_rng(41)
        x = Tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True)
        w1 = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        w2 = Tensor(rng.normal(size=(1, 3, 3, 3)), requires_grad=True)
        b2 = Tensor(rng.normal(size=(1,)), requires_grad=True)
        out = T.sum_all(T.conv2d(T.relu(T.conv2d(x, w1)), w2, b2))
        kernels, weight_grads = [], []
        conv2d, conv2d_weight = T.conv2d, T.conv2d_weight

        def counted_conv(x, w, b=None):
            kernels.append(w.shape)
            return conv2d(x, w, b)

        def counted_weight(x, g, kh, kw):
            weight_grads.append((g.shape[1], x.shape[1], kh, kw))
            return conv2d_weight(x, g, kh, kw)

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


def _eager_mask_op(name, a, lo=-1.0, hi=1.0):
    """relu, abs_ or clamp with its mask (or sign) built at forward time."""
    x = a.data
    if name == "relu":
        y, mask = np.maximum(x, 0.0), (x > 0).astype(x.dtype)
    elif name == "abs_":
        y, mask = np.abs(x), np.sign(x)
    else:
        y, mask = np.clip(x, lo, hi), ((x >= lo) & (x <= hi)).astype(x.dtype)
    return T._result(y, name, (a,), lambda g, needs: (T.mul(g, Tensor(mask)),), check=False)


class TestMasksAtBackward:
    # relu, abs_ and clamp build their mask from the input inside the
    # backward closure; the derivatives equal those of masks built eagerly
    OPS = {
        "relu": T.relu,
        "abs_": T.abs_,
        "clamp": lambda a: T.clamp(a, -1.0, 1.0),
    }

    @staticmethod
    def derivatives(op, x0, w, v):
        # first derivative of sum(w * op(x)^2), then the derivative of its
        # v-weighted sum, through the first gradient's tape
        x = Tensor(x0, requires_grad=True)
        y = op(x)
        (g,) = T.grad(T.sum_all(T.mul(T.mul(y, y), Tensor(w))), [x], create_graph=True)
        (h,) = T.grad(T.sum_all(T.mul(g, Tensor(v))), [x])
        return y.data, g.data, h.data

    @pytest.mark.parametrize("name", sorted(OPS))
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_eager_masks(self, name, dtype):
        rng = np.random.default_rng(34)
        # exact zeros and clamp bounds, either side of them, and a spread
        x0 = np.concatenate([[0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 2.5, -2.5],
                             rng.uniform(-2, 2, 24)]).astype(dtype)
        w = rng.uniform(0.5, 1.5, x0.shape).astype(dtype)
        v = rng.uniform(-1, 1, x0.shape).astype(dtype)
        got = self.derivatives(self.OPS[name], x0, w, v)
        want = self.derivatives(lambda a: _eager_mask_op(name, a), x0, w, v)
        for a, b in zip(got, want):
            assert a.dtype == dtype
            assert np.array_equal(a, b)
        # the second derivative is 2 w v op'(x)^2: zero at relu's and abs's
        # 0, nonzero on the clamp's closed bounds
        mask = {"relu": x0 > 0, "abs_": x0 != 0, "clamp": np.abs(x0) <= 1}[name]
        assert np.array_equal(got[2] != 0, mask & (v != 0))


class TestTapeLifetime:
    def test_tanh_output_is_freed_without_the_cycle_collector(self):
        # tanh's backward recomputes tanh from its input instead of holding
        # its own output, which keeps the output and the graph above it out
        # of a reference cycle
        gc.disable()
        try:
            x = Tensor(np.array([0.5, -1.0]), requires_grad=True)
            y = T.tanh(T.scalar_mul(x, 2.0))
            refs = [weakref.ref(y), weakref.ref(y._parents[0])]
            (g,) = T.grad(T.sum_all(y), [x])
            assert np.allclose(g.data, 2.0 * (1.0 - np.tanh(2.0 * x.data) ** 2))
            del y
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()


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
        # no_grad records nothing inside, nests, and restores recording on exit
        x = Tensor(np.ones(2), requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                assert not T.relu(x).requires_grad
            assert not T.relu(x).requires_grad
        assert T.relu(x).requires_grad
        with pytest.raises(KeyError):
            with T.no_grad():
                raise KeyError
        assert T.relu(x).requires_grad


class TestDtypes:
    def test_dtype_rule(self):
        # float32 and float64 arrays keep their dtype and are not copied;
        # anything else becomes float64
        for value in ([1.0, 2.0], [1, 2], np.arange(2), np.arange(2, dtype=np.float16), 3):
            assert Tensor(value).dtype == np.float64
        for dtype in (np.float32, np.float64):
            arr = np.ones(3, dtype=dtype)
            t = Tensor(arr)
            assert t.dtype == dtype and t.data is arr
            assert Tensor(t).data is arr and t.detach().data is arr
        assert T.zeros((2, 3)).dtype == np.float64
        assert layers.he_uniform(np.random.default_rng(0), (4, 3), 4).dtype == np.float64

    def test_float32_graph(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        (g,) = T.grad(T.sum_all(T.relu(T.matmul(x, x))), [x])
        assert g.dtype == np.float32

    def test_conv2d_float32_through_double_backward(self):
        rng = np.random.default_rng(50)
        x = Tensor(rng.normal(size=(2, 3, 5, 5)).astype(np.float32), requires_grad=True)
        W = Tensor(rng.normal(size=(2, 3, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.normal(size=(2,)).astype(np.float32), requires_grad=True)
        y = T.conv2d(x, W, b)
        gx, gW, gb = T.grad(T.sum_all(T.tanh(y)), [x, W, b], create_graph=True)
        ggW, ggb, ggx = T.grad(T.sum_all(T.mul(gx, gx)), [W, b, x])
        for t in (y, gx, gW, gb, ggW, ggb, ggx):
            assert t.dtype == np.float32


def _conv_copy(x):
    """conv2d of a one-channel x with two unit 1x1 kernels: output channel o
    is x itself, returned as conv2d's transposed (CNHW-memory) view."""
    return T.conv2d(x, Tensor(np.ones((2, 1, 1, 1), dtype=x.dtype)))


class TestNonFiniteScreen:
    """Every screened op raises on a NaN or inf anywhere in its output, and
    lets a finite output through silently, however large."""

    OPS = {
        "conv2d": _conv_copy,
        "avg_pool2d": lambda x: T.avg_pool2d(x, 2, 2),
        "add": lambda x: T.add(x, Tensor(np.zeros(x.shape, dtype=x.dtype))),
        "mul": lambda x: T.mul(x, Tensor(np.ones(x.shape, dtype=x.dtype))),
        "scalar_mul": lambda x: T.scalar_mul(x, 1.0),
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_raises_naming_the_op(self, op, where, bad, dtype):
        x = np.random.default_rng(60).normal(size=(3, 1, 4, 6)).astype(dtype)
        flat = x.reshape(-1)
        flat[{"first": 0, "middle": flat.size // 2, "last": flat.size - 1}[where]] = bad
        with pytest.raises(T.NonFiniteError, match=f"'{op}'"):
            self.OPS[op](Tensor(x))

    def test_conv2d_output_is_a_transposed_view(self):
        out = _conv_copy(Tensor(np.ones((3, 1, 4, 6)))).data
        assert not out.flags.c_contiguous and not out.flags.f_contiguous
        assert np.shares_memory(out.ravel(order="K"), out)  # screened without a copy

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_non_contiguous_input(self, where, dtype):
        x = np.ones((4, 10), dtype=dtype)
        view = x[:, ::2]
        view[{"first": (0, 0), "middle": (2, 2), "last": (3, 4)}[where]] = np.nan
        assert not view.flags.c_contiguous
        with pytest.raises(T.NonFiniteError, match="'scalar_mul'"):
            T.scalar_mul(Tensor(view), 2.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_dense_output_is_screened(self, bad, dtype):
        # no op returns such an array today; the screen must still see it
        for view in (lambda a: a[:, ::2], lambda a: a[::-1], lambda a: np.broadcast_to(a[:1], (3, 6))):
            data = np.ones((3, 6), dtype=dtype)
            assert not np.shares_memory(view(data).ravel(order="K"), data)
            T._finite_or_raise(view(data), "probe")
            data[0, 4] = bad
            with pytest.raises(T.NonFiniteError, match="'probe'"):
                T._finite_or_raise(view(data), "probe")

    @pytest.mark.parametrize("dtype, big", [(np.float32, 1e30), (np.float64, 1e200)])
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_large_finite_output_passes_silently(self, op, dtype, big):
        x = np.full((3, 1, 4, 6), big, dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = self.OPS[op](Tensor(x)).data
            T._finite_or_raise(out[:, :, ::2], "probe")  # a non-dense output too
        assert np.isfinite(out).all() and out.max() == big

    def test_near_overflow_f32_output_passes_silently(self):
        x = Tensor(np.full(4, 3e38, np.float32))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert T.scalar_mul(x, 1.0).data.tobytes() == x.data.tobytes()
            T._finite_or_raise(np.full((4, 4), 3e38, np.float32)[:, ::2], "probe")  # a non-dense output too


class TestResampling:
    FACTORS = [(1, 1), (2, 2), (1, 2), (2, 1), (3, 2)]

    def inputs(self):
        x = np.random.default_rng(61).normal(size=(2, 3, 6, 4))
        cnhw = np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
        return [x, cnhw, np.broadcast_to(x[:1], x.shape)]  # the last one read-only

    @pytest.mark.parametrize("kh, kw", FACTORS)
    @pytest.mark.parametrize("op", ["avg_pool2d", "upsample_repeat2d"])
    def test_never_writes_or_aliases_the_input(self, op, kh, kw):
        for x in self.inputs():
            x.flags.writeable = False
            before = x.copy()
            out = getattr(T, op)(Tensor(x), kh, kw).data
            assert not np.shares_memory(out, x)
            assert np.array_equal(x, before)
            assert out.flags.writeable
            assert out.flags.c_contiguous or op == "avg_pool2d"  # pooling keeps the input's layout

    @pytest.mark.parametrize("kh, kw", FACTORS)
    def test_values(self, kh, kw):
        for x in self.inputs():
            up = np.kron(x, np.ones((kh, kw)))
            assert np.array_equal(T.upsample_repeat2d(Tensor(x), kh, kw).data, up)
            assert np.allclose(T.avg_pool2d(Tensor(up), kh, kw).data, x, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("kh, kw", [(0, 2), (2, 0), (-2, 2), (2, -1)])
    @pytest.mark.parametrize("op", ["avg_pool2d", "upsample_repeat2d"])
    def test_factors_below_one_are_rejected(self, op, kh, kw):
        with pytest.raises(T.ShapeError, match=f"{op}: factors {kh}x{kw} "):
            getattr(T, op)(Tensor(np.ones((1, 1, 4, 4))), kh, kw)

    @pytest.mark.parametrize("mode", jpeg.MODES)
    def test_jpeg_subsample_equals_avg_pool2d(self, mode):
        fv, fh = jpeg.mode_factors(mode)
        x = np.random.default_rng(62).uniform(-128, 128, size=(3, 2, 16, 24))
        cnhw = np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
        for arr in (x, cnhw):
            want = np.ascontiguousarray(jpeg.subsample(arr, mode))
            assert T.avg_pool2d(Tensor(arr), fv, fh).data.tobytes() == want.tobytes()

    def test_pool_backward_scales_at_the_pooled_size(self):
        x = Tensor(np.random.default_rng(63).normal(size=(2, 3, 8, 8)), requires_grad=True)
        w = Tensor(np.random.default_rng(64).normal(size=(2, 3, 4, 4)), requires_grad=True)
        (g,) = T.grad(T.sum_all(T.mul(T.avg_pool2d(x, 2, 2), w)), [x], create_graph=True)
        assert g._op == "upsample_repeat2d" and g.shape == x.shape
        (scaled,) = g._parents
        assert scaled._op == "scalar_mul" and scaled.shape == w.shape
        assert np.array_equal(g.data, np.kron(w.data / 4, np.ones((2, 2))))
