"""Layer tests: a brute-force per-tile oracle for the block-local layer,
straight-through gradient verification for quantization, finite-difference
checks for everything differentiable, and the residual-block identities."""

import numpy as np
import pytest

from jpeggan import jpeg, layers
from jpeggan import tensor as T
from jpeggan.tensor import Tensor


def local_oracle(x, w, b, bh, bw, out_ch):
    """Gather each tile, flatten (c, row, col), multiply, scatter back."""
    n, c, h, wd = x.shape
    th, tw = h // bh, wd // bw
    out = np.zeros((n, out_ch, h, wd))
    for ni in range(n):
        for ti in range(th):
            for tj in range(tw):
                tile = x[ni, :, ti * bh : (ti + 1) * bh, tj * bw : (tj + 1) * bw]
                vec = tile.reshape(-1) @ w + b
                out[ni, :, ti * bh : (ti + 1) * bh, tj * bw : (tj + 1) * bw] = vec.reshape(
                    out_ch, bh, bw
                )
    return out


class TestLocallyConnected:
    def test_against_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            bh, bw = rng.choice([1, 2, 4, 8], size=2)
            cin, cout = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            th, tw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            n = int(rng.integers(1, 3))
            layer = layers.LocallyConnected(int(bh), int(bw), cin, cout, rng)
            layer.b = Tensor(rng.normal(size=layer.b.shape), requires_grad=True)
            x = rng.normal(size=(n, cin, th * bh, tw * bw))
            got = layer.forward(Tensor(x)).data
            want = local_oracle(x, layer.w.data, layer.b.data, int(bh), int(bw), cout)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_1x1_equals_pointwise_conv(self):
        rng = np.random.default_rng(1)
        layer = layers.LocallyConnected(1, 1, 3, 5, rng)
        x = rng.normal(size=(2, 3, 4, 4))
        got = layer.forward(Tensor(x)).data
        # same weights as a 1x1 convolution kernel
        w = layer.w.data.T.reshape(5, 3, 1, 1)
        want = T.conv2d(Tensor(x), Tensor(w), Tensor(layer.b.data)).data
        assert np.max(np.abs(got - want)) < 1e-12

    def test_weight_shape(self):
        rng = np.random.default_rng(2)
        layer = layers.LocallyConnected(8, 8, 2, 3, rng)
        assert layer.w.shape == (8 * 8 * 2, 8 * 8 * 3)
        assert layer.b.shape == (8 * 8 * 3,)

    def test_shared_between_tiles(self):
        # The same tile content must produce the same output wherever it sits.
        rng = np.random.default_rng(3)
        layer = layers.LocallyConnected(2, 2, 1, 1, rng)
        tile = rng.normal(size=(1, 1, 2, 2))
        x = np.tile(tile, (1, 1, 3, 4))
        y = layer.forward(Tensor(x)).data
        first = y[:, :, :2, :2]
        for i in range(3):
            for j in range(4):
                assert np.allclose(y[:, :, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2], first)

    def test_rejects_untiled_input(self):
        rng = np.random.default_rng(4)
        layer = layers.LocallyConnected(8, 8, 1, 1, rng)
        with pytest.raises(T.ShapeError):
            layer.forward(Tensor(np.zeros((1, 1, 12, 16))))

    def test_gradients(self):
        rng = np.random.default_rng(5)
        layer = layers.LocallyConnected(2, 2, 2, 2, rng)
        x = Tensor(rng.normal(size=(1, 2, 4, 4)))
        err = T.gradient_check(lambda t: T.sum_all(T.tanh(layer.forward(t))), x)
        assert err < 1e-6


class TestChromaSubsample:
    def test_matches_plane_subsampler(self):
        rng = np.random.default_rng(6)
        plane = rng.uniform(0, 255, size=(16, 16))
        for mode in jpeg.MODES:
            layer = layers.ChromaSubsample(mode)
            got = layer.forward(Tensor(plane.reshape(1, 1, 16, 16))).data[0, 0]
            want = jpeg.subsample(plane, mode)
            assert np.array_equal(got, want)

    def test_gradients(self):
        rng = np.random.default_rng(7)
        layer = layers.ChromaSubsample("4:2:0")
        x = Tensor(rng.normal(size=(1, 1, 8, 8)))
        err = T.gradient_check(lambda t: T.sum_all(T.pow_const(layer.forward(t), 2.0)), x)
        assert err < 1e-7


class TestQuantization:
    def test_matches_codec_quantizer(self):
        rng = np.random.default_rng(8)
        ql, _ = jpeg.quant_matrices(50)
        layer = layers.Quantization(ql)
        amp = rng.uniform(-800, 800, size=(2, 1, 16, 16))
        got = layer.forward(Tensor(amp)).data
        blocks = amp.reshape(2, 2, 8, 2, 8).transpose(0, 1, 3, 2, 4)
        want = jpeg.quantize(blocks, ql).astype(np.float64)
        got_blocks = got.reshape(2, 2, 8, 2, 8).transpose(0, 1, 3, 2, 4)
        assert np.array_equal(got_blocks, want)

    def test_straight_through_gradient_is_inverse_q(self):
        rng = np.random.default_rng(9)
        ql, _ = jpeg.quant_matrices(75)
        layer = layers.Quantization(ql)
        x = Tensor(rng.uniform(-100, 100, size=(1, 1, 16, 8)), requires_grad=True)
        out = layer.forward(x)
        (gx,) = T.grad(T.sum_all(out), [x])
        want = np.tile(1.0 / ql, (2, 1)).reshape(1, 1, 16, 8)
        assert np.allclose(gx.data, want, atol=1e-15)

    def test_rejects_bad_matrix(self):
        with pytest.raises(ValueError):
            layers.Quantization(np.zeros((8, 8)))
        with pytest.raises(ValueError):
            layers.Quantization(np.ones((4, 4)))


class TestResidualBlock:
    def test_zero_weights_zero_output(self):
        rng = np.random.default_rng(10)
        blk = layers.ResidualBlock(3, 4, rng)
        for p in blk.params().values():
            p.data[...] = 0.0
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        assert np.max(np.abs(blk.forward(x).data)) == 0.0

    def test_identity_skip_passes_input(self):
        rng = np.random.default_rng(11)
        blk = layers.ResidualBlock(3, 3, rng)
        for name, p in blk.params().items():
            p.data[...] = 0.0
        eye = np.zeros((3, 3, 1, 1))
        for c in range(3):
            eye[c, c, 0, 0] = 1.0
        blk.skip.w.data[...] = eye
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        assert np.allclose(blk.forward(x).data, x.data, atol=1e-12)

    def test_resampling_shapes(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        up = layers.ResidualBlock(3, 5, rng, resample="up")
        assert up.forward(x).shape == (2, 5, 16, 16)
        down = layers.ResidualBlock(3, 5, rng, resample="down")
        assert down.forward(x).shape == (2, 5, 4, 4)
        none = layers.ResidualBlock(3, 5, rng)
        assert none.forward(x).shape == (2, 5, 8, 8)

    def test_gradients_all_variants(self):
        rng = np.random.default_rng(13)
        for resample in (None, "up", "down"):
            blk = layers.ResidualBlock(2, 2, rng, resample=resample)
            x = Tensor(rng.normal(size=(1, 2, 4, 4)))
            err = T.gradient_check(lambda t: T.mean_all(T.tanh(blk.forward(t))), x)
            assert err < 1e-5, f"resample={resample}: {err}"

    def test_param_gradient(self):
        rng = np.random.default_rng(14)
        blk = layers.ResidualBlock(2, 2, rng)
        xv = rng.normal(size=(1, 2, 4, 4))

        def f(wt):
            old = blk.conv1.w
            blk.conv1.w = wt
            try:
                return T.mean_all(T.tanh(blk.forward(Tensor(xv))))
            finally:
                blk.conv1.w = old

        err = T.gradient_check(f, Tensor(blk.conv1.w.data.copy()))
        assert err < 1e-6


class TestLinear:
    def test_forward_and_grad(self):
        rng = np.random.default_rng(15)
        fc = layers.Linear(4, 3, rng)
        x = rng.normal(size=(5, 4))
        want = x @ fc.w.data + fc.b.data
        assert np.allclose(fc.forward(Tensor(x)).data, want)
        err = T.gradient_check(lambda t: T.sum_all(T.tanh(fc.forward(t))), Tensor(x))
        assert err < 1e-6


class TestInit:
    def test_he_uniform_bound_and_spread(self):
        rng = np.random.default_rng(16)
        w = layers.he_uniform(rng, (200, 50), fan_in=200)
        bound = np.sqrt(6.0 / 200)
        assert np.max(np.abs(w.data)) <= bound
        assert np.std(w.data) > bound / 3  # actually spread out, not degenerate
        assert w.requires_grad
