"""Codec round-trip properties and reference/differentiable agreement."""

import copy
import hashlib

import numpy as np
import pytest

from jpeggan import codec, datasets, fid, jfif, jpeg, networks
from jpeggan import tensor as T
from jpeggan.jpeg import EncodedImage
from jpeggan.tensor import Tensor


def smooth_image(rng, h=32, w=32):
    """A band-limited color image, the codec's favorite food."""
    yy, xx = np.mgrid[0:h, 0:w] / float(max(h, w))
    img = np.zeros((h, w, 3))
    for c in range(3):
        amp = rng.uniform(30, 90)
        fx, fy = rng.uniform(0.5, 3.0, size=2)
        ph = rng.uniform(0, 2 * np.pi)
        img[..., c] = 128 + amp * np.sin(2 * np.pi * fx * xx + ph) * np.cos(
            2 * np.pi * fy * yy
        )
    img += rng.normal(0, 2.0, size=img.shape)
    return np.clip(img, 0, 255)


def zero_enc(h=16, w=16, qf=50, mode="4:4:4"):
    fv, fh = jpeg.mode_factors(mode)
    return EncodedImage(
        quality_factor=qf,
        mode=mode,
        y=np.zeros((h, w), dtype=np.int64),
        cb=np.zeros((h // fv, w // fh), dtype=np.int64),
        cr=np.zeros((h // fv, w // fh), dtype=np.int64),
    )


def oracle_encode(rgb, qf, mode):
    """One HxWx3 image through the jpeg primitives: (y, cb, cr) levels."""
    fv, fh = jpeg.mode_factors(mode)
    ph, pw = -rgb.shape[0] % (8 * fv), -rgb.shape[1] % (8 * fh)
    if ph or pw:
        rgb = np.pad(rgb, ((0, ph), (0, pw), (0, 0)), mode="edge")
    ycc = jpeg.rgb_to_ycbcr(rgb)
    planes = (ycc[..., 0], jpeg.subsample(ycc[..., 1], mode), jpeg.subsample(ycc[..., 2], mode))
    ql, qc = jpeg.quant_matrices(qf)
    return [jpeg.quantize(jpeg.dct8x8(jpeg.blockify(p - 128.0)), q) for p, q in zip(planes, (ql, qc, qc))]


def oracle_decode(levels, qf, mode):
    """Levels from `oracle_encode` back to HxWx3 pixels, one image at a time."""
    ql, qc = jpeg.quant_matrices(qf)
    y, cb, cr = (
        jpeg.unblockify(jpeg.idct8x8(jpeg.dequantize(lv, q)) + 128.0)
        for lv, q in zip(levels, (ql, qc, qc))
    )
    ycc = np.stack([y, jpeg.upsample(cb, mode), jpeg.upsample(cr, mode)], axis=-1)
    return np.clip(jpeg.ycbcr_to_rgb(ycc), 0.0, 255.0)


@pytest.fixture(scope="module")
def corpus():
    return datasets.synthetic_dataset(5, 64, 32).astype(np.float64)


class TestBatchedCodec:
    @pytest.mark.parametrize("mode", jpeg.MODES)
    @pytest.mark.parametrize("qf", [100, 75, 50, 25])
    def test_matches_per_image_oracle(self, corpus, qf, mode):
        padded = corpus[:1, :, :20, :28]  # edge-replicated up to the macroblock
        for batch in (corpus, padded):
            encs = codec.encode_batch(batch, qf, mode)
            pixels = codec.decode_batch(encs)
            assert len(encs) == len(batch) and pixels.shape[0] == len(batch)
            for img, enc, got in zip(batch, encs, pixels):
                want = oracle_encode(img.transpose(1, 2, 0), qf, mode)
                for name, levels in zip(("y", "cb", "cr"), want):
                    assert np.array_equal(jpeg.blockify(getattr(enc, name)), levels), name
                assert np.array_equal(got, oracle_decode(want, qf, mode).transpose(2, 0, 1))

    def test_padding_replicates_edges(self, corpus):
        crop = corpus[:2, :, :20, :28]
        padded = np.pad(crop, ((0, 0), (0, 0), (0, 12), (0, 4)), mode="edge")
        for got, want in zip(codec.encode_batch(crop, 75, "4:2:0"), codec.encode_batch(padded, 75, "4:2:0")):
            assert (got.height, got.width) == (32, 32)
            for name in ("y", "cb", "cr"):
                assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_decode_batch_checks_every_container(self, corpus):
        encs = codec.encode_batch(corpus[:4], 75, "4:2:0")
        codec.decode_batch(encs)
        loud = copy.copy(encs[-1])
        loud.y = loud.y.copy()
        loud.y[0, 0] = 10_000
        fractional = copy.copy(encs[-1])
        fractional.cb = fractional.cb.astype(np.float64)
        others = [
            loud,
            fractional,
            codec.encode_batch(corpus[3:4], 50, "4:2:0")[0],
            codec.encode_batch(corpus[3:4], 75, "4:4:4")[0],
            codec.encode_batch(corpus[3:4, :, :16, :16], 75, "4:2:0")[0],
        ]
        for last in others:
            with pytest.raises(ValueError):
                codec.decode_batch(encs[:3] + [last])
        with pytest.raises(ValueError):
            codec.decode_batch([])

    def test_sweep_equals_per_image_sweep(self):
        images = datasets.synthetic_dataset(6, 150, 32).astype(np.float64)  # spans two chunks
        reference = fid.FidStats.from_features(fid.pixel_features(images))
        qfs, modes = [75, 25], ["4:4:4", "4:2:0"]
        rows = fid.compression_sweep(images, qfs, modes)
        assert [(qf, mode) for qf, mode, _ in rows] == [(q, m) for q in qfs for m in modes]
        for qf, mode, dist in rows:
            degraded = np.stack(
                [
                    oracle_decode(oracle_encode(img.transpose(1, 2, 0), qf, mode), qf, mode).transpose(2, 0, 1)
                    for img in images
                ]
            )
            stats = fid.FidStats.from_features(fid.pixel_features(degraded))
            assert dist == fid.frechet_distance(reference, stats)


class TestPlaneCore:
    """The stacked-level core that `encode_batch`, `decode_batch` and the
    sweep share, against the blockwise primitives and the containers."""

    @pytest.mark.parametrize("n", [1, 2, 128])
    def test_plane_dct_and_inverse_match_blockwise(self, n):
        rng = np.random.default_rng(n)
        for by in range(1, 9):
            for bx in range(1, 9):
                plane = rng.uniform(-128.0, 128.0, (n, 8 * by, 8 * bx))
                coef = rng.normal(0.0, 300.0, plane.shape)
                blockwise = jpeg.unblockify(jpeg.dct8x8(jpeg.blockify(plane)))
                assert np.array_equal(codec._plane_dct(plane), blockwise), (by, bx)
                inverse = jpeg.unblockify(jpeg.idct8x8(jpeg.blockify(coef)))
                assert np.array_equal(codec._plane_idct(coef, np.empty_like(coef)), inverse), (by, bx)

    @pytest.mark.parametrize("mode", jpeg.MODES)
    @pytest.mark.parametrize("qf", [100, 75, 25, 3, 1])
    def test_levels_match_containers_and_oracle(self, qf, mode):
        rng = np.random.default_rng(qf)
        for (h, w), n in (((32, 32), 5), ((64, 64), 2), ((40, 24), 3), ((9, 13), 1)):
            images = rng.uniform(0.0, 255.0, (n, 3, h, w))
            levels = codec._quantize_planes(codec._encode_coefficients(images, mode), qf)
            pixels = codec._decode_levels(*levels, qf, mode)
            encs = codec.encode_batch(images, qf, mode)
            assert np.array_equal(pixels, codec.decode_batch(encs))
            for i, (img, enc) in enumerate(zip(images, encs)):
                want = oracle_encode(img.transpose(1, 2, 0), qf, mode)
                for name, plane, blocks in zip(("y", "cb", "cr"), levels, want):
                    assert plane.dtype == np.int64
                    assert np.array_equal(jpeg.blockify(plane[i]), blocks), (h, w, name)
                    assert np.array_equal(getattr(enc, name), plane[i]), (h, w, name)
                assert np.array_equal(pixels[i], oracle_decode(want, qf, mode).transpose(2, 0, 1)), (h, w)

    @pytest.mark.parametrize("plane", [0, 1, 2], ids=["y", "cb", "cr"])
    @pytest.mark.parametrize("level", [10_000, -10_000])
    def test_decode_levels_names_an_out_of_range_plane(self, corpus, plane, level):
        levels = [lv.copy() for lv in codec._quantize_planes(codec._encode_coefficients(corpus[:2], "4:2:0"), 75)]
        levels[plane][1, 3, 5] = level
        name = ("y", "cb", "cr")[plane]
        with pytest.raises(ValueError, match=f"^{name} plane has out-of-range amplitudes$"):
            codec._decode_levels(*levels, 75, "4:2:0")


def digest(x):
    return hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()


class TestPinnedBits:
    """Quantizer levels, decoded pixels and sweep distances, pinned by sha256
    before the codec moved to channel-planar memory."""

    @pytest.mark.parametrize(
        "qf, mode, levels_digest, pixels_digest",
        [
            (
                75,
                "4:2:0",
                "7bf998210217df57c45fff286fd28dcc1d76160bd1dae182821b0f4570f2bb08",
                "dacdd9d6a272a64cf914c3d85ff18cd3571df3335cfbd8fbf08b17747e1a1cf3",
            ),
            (
                25,
                "4:2:2",
                "fb9a96130eb36dd6f65bda9276fa00508b65310de020fa38134c691098740d12",
                "c21548438f82a0d55570f25a3b81c7d4c3d35d83ca84afb92a189eff9bfd03ec",
            ),
            (
                100,
                "4:4:4",
                "37598c77b0674d744331786f49548b01a35f586f182f1d7749301d097e81c102",
                "278b24e35e58035b901bc033dc2c0fae13e4186dfc27a96a78282ce0cd9ffe6b",
            ),
        ],
    )
    def test_levels_and_pixels(self, corpus, qf, mode, levels_digest, pixels_digest):
        encs = codec.encode_batch(corpus, qf, mode)
        # hashed in the (h/8, w/8, 8, 8) block order the digests were pinned in
        levels = np.concatenate([jpeg.blockify(p).ravel() for e in encs for p in (e.y, e.cb, e.cr)])
        assert digest(levels.astype(np.int64)) == levels_digest
        pixels = codec.decode_batch(encs)
        assert pixels.shape == corpus.shape and pixels.dtype == np.float64
        assert digest(pixels) == pixels_digest

    def test_sweep_distances(self):
        images = datasets.synthetic_dataset(44, 300, 32).astype(np.float64)
        rows = fid.compression_sweep(images, [100, 75, 50, 25], jpeg.MODES)
        distances = np.array([d for _, _, d in rows], dtype=np.float64)
        assert digest(distances) == "95ba3af8439051167113ca7d1abc4b8d6592bd536a5ba0824031e4c4be94b180"

    # pinned before pooling moved to slice sums; at pool widths 8 and 16 the
    # row sums keep numpy's pairwise order
    @pytest.mark.parametrize(
        "seed, count, size, features_digest",
        [
            (45, 6, 64, "b1390f68a1e6ed3f406daa1d6cd23171fbadf8a7d08fb65d691d562f2cebb0c5"),
            (46, 4, 128, "c65d2337c1383cad53735bb7d36375b9bc7e0ca98a921518c7b55fe1afd6fd87"),
        ],
    )
    def test_wide_pool_features(self, seed, count, size, features_digest):
        images = datasets.synthetic_dataset(seed, count, size).astype(np.float64)
        assert digest(fid.pixel_features(images)) == features_digest

    def test_wide_pool_sweep_distances(self):
        images = datasets.synthetic_dataset(47, 60, 64).astype(np.float64)
        rows = fid.compression_sweep(images, [90, 50, 20], jpeg.MODES)
        distances = np.array([d for _, _, d in rows], dtype=np.float64)
        assert digest(distances) == "49b944b1a938e22a33b1598eee0e5f6cee308d51b23940c18a039d6cd3b4f041"


class TestReferenceCodec:
    def test_all_zero_coefficients_decode_to_mid_gray(self):
        for mode in jpeg.MODES:
            img = codec.decode_image(zero_enc(mode=mode, w=16, h=16))
            assert np.allclose(img, 128.0, atol=1e-9)

    def test_encode_shapes_and_padding(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 255, size=(20, 28, 3))
        enc = codec.encode_image(img, 50, "4:2:0")
        assert enc.width == 32 and enc.height == 32  # padded to 16-multiples
        assert enc.y.shape == (32, 32)
        assert enc.cb.shape == (16, 16)
        enc.validate()
        enc422 = codec.encode_image(img, 50, "4:2:2")
        assert enc422.width == 32 and enc422.height == 24
        enc444 = codec.encode_image(img, 50, "4:4:4")
        assert enc444.width == 32 and enc444.height == 24

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            codec.encode_image(np.full((8, 8, 3), 256.0), 50, "4:4:4")
        with pytest.raises(ValueError):
            codec.encode_image(np.full((8, 8, 3), -1.0), 50, "4:4:4")
        with pytest.raises(ValueError):
            codec.encode_image(np.zeros((8, 8)), 50, "4:4:4")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_pixel(self, value):
        # NaN compares False with both rails, so the range check must not rely on `<`/`>`
        img = np.full((8, 8, 3), 128.0)
        img[3, 5, 1] = value
        with pytest.raises(ValueError, match="outside"):
            codec.encode_image(img, 50, "4:4:4")
        with pytest.raises(ValueError, match="outside"):
            codec.encode_batch(img.transpose(2, 0, 1)[None], 50, "4:4:4")

    def test_rejects_non_integer_quality(self):
        # quantizing with the qf-75.5 tables but storing qf 75 would mislabel the container
        img = np.full((16, 16, 3), 128.0)
        with pytest.raises(ValueError, match="not an integer"):
            codec.encode_image(img, 75.5, "4:2:0")
        assert codec.encode_image(img, 75.0, "4:2:0").quality_factor == 75

    def test_identity_on_exactly_representable_images(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            levels = rng.integers(-3, 4, size=(2, 2, 8, 8))
            levels[..., 0, 0] = rng.integers(-40, 40, size=(2, 2))
            enc = zero_enc(h=16, w=16, qf=100, mode="4:4:4")
            enc.y = jpeg.unblockify(levels.astype(np.int64))
            enc.cb = jpeg.unblockify((levels // 2).astype(np.int64))
            enc.cr = jpeg.unblockify((-levels // 3).astype(np.int64))
            img = codec.decode_image(enc)
            assert 1.0 < img.min() and img.max() < 254.0  # clip never engaged
            enc2 = codec.encode_image(img, 100, "4:4:4")
            assert np.array_equal(enc2.y, enc.y)
            assert np.array_equal(enc2.cb, enc.cb)
            assert np.array_equal(enc2.cr, enc.cr)
            img2 = codec.decode_image(enc2)
            assert np.max(np.abs(img2 - img)) < 1e-9

    def test_roundtrip_error_small_at_top_quality(self):
        rng = np.random.default_rng(2)
        maes = []
        for _ in range(20):
            img = smooth_image(rng)
            out = codec.decode_image(codec.encode_image(img, 100, "4:4:4"))
            maes.append(np.mean(np.abs(out - img)))
        assert max(maes) <= 1.0

    def test_distortion_grows_as_quality_drops(self):
        rng = np.random.default_rng(3)
        imgs = [smooth_image(rng) for _ in range(10)]

        def mae(qf, mode):
            return float(
                np.mean(
                    [
                        np.abs(codec.decode_image(codec.encode_image(i, qf, mode)) - i).mean()
                        for i in imgs
                    ]
                )
            )

        series = [mae(qf, "4:4:4") for qf in (100, 75, 50, 25)]
        assert all(a < b for a, b in zip(series, series[1:])), series
        modes = [mae(75, m) for m in ("4:4:4", "4:2:2", "4:2:0")]
        assert all(a < b for a, b in zip(modes, modes[1:])), modes

    def test_batch_helpers(self):
        rng = np.random.default_rng(4)
        batch = np.stack([smooth_image(rng).transpose(2, 0, 1) for _ in range(3)])
        encs = codec.encode_batch(batch, 75, "4:2:0")
        assert len(encs) == 3
        out = codec.decode_batch(encs)
        assert out.shape == batch.shape


class TestContainers:
    @pytest.mark.parametrize("mode", jpeg.MODES)
    def test_encoder_jfif_and_generator_containers_hold_equal_planes(self, corpus, mode):
        enc = codec.encode_batch(corpus[:1], 60, mode)[0]
        back = jfif.decode_jfif(jfif.encode_jfif(enc))
        planes = (Tensor(getattr(enc, name)[None, None].astype(np.float64)) for name in ("y", "cb", "cr"))
        (made,) = networks.to_encoded_images(networks.GeneratorOutput(*planes, 60, mode))
        for other in (back, made):
            assert (other.quality_factor, other.mode, other.height, other.width) == (60, mode, 32, 32)
            for name in ("y", "cb", "cr"):
                plane = getattr(other, name)
                assert plane.dtype == np.int64 and np.array_equal(plane, getattr(enc, name)), name


class TestDifferentiableDecode:
    def rand_levels(self, rng, n, h, w, dc=30, ac=3, corner=8):
        blocks = np.zeros((n, h // 8, w // 8, 8, 8))
        blocks[..., :corner, :corner] = rng.integers(
            -ac, ac + 1, size=(n, h // 8, w // 8, corner, corner)
        )
        blocks[..., 0, 0] = rng.integers(-dc, dc, size=(n, h // 8, w // 8))
        planes = np.stack([jpeg.unblockify(b) for b in blocks])
        return planes[:, None, :, :]

    def make_planes(self, rng, n=2, h=16, w=16, mode="4:4:4", qf=85, quiet=False):
        fv, fh = jpeg.mode_factors(mode)
        if quiet:  # low-frequency, low-amplitude: decoded pixels stay off the clip rails
            y = self.rand_levels(rng, n, h, w, dc=10, ac=1, corner=2)
            cb = self.rand_levels(rng, n, h // fv, w // fh, dc=5, ac=1, corner=2)
            cr = self.rand_levels(rng, n, h // fv, w // fh, dc=5, ac=1, corner=2)
        else:
            y = self.rand_levels(rng, n, h, w)
            cb = self.rand_levels(rng, n, h // fv, w // fh, dc=10, ac=2)
            cr = self.rand_levels(rng, n, h // fv, w // fh, dc=10, ac=2)
        return y, cb, cr

    def test_matches_reference_decoder(self):
        rng = np.random.default_rng(5)
        for mode in jpeg.MODES:
            qf = 70
            y, cb, cr = self.make_planes(rng, mode=mode, qf=qf)
            got = codec.decode_planes(Tensor(y), Tensor(cb), Tensor(cr), qf, mode).data
            for i in range(y.shape[0]):
                enc = EncodedImage(
                    quality_factor=qf,
                    mode=mode,
                    y=y[i, 0].astype(np.int64),
                    cb=cb[i, 0].astype(np.int64),
                    cr=cr[i, 0].astype(np.int64),
                )
                want = codec.decode_image(enc).transpose(2, 0, 1)
                assert np.max(np.abs(got[i] - want)) < 1e-10, mode

    def test_gradients_reach_all_planes(self):
        rng = np.random.default_rng(6)
        y, cb, cr = self.make_planes(rng, n=1, mode="4:2:0")
        yt = Tensor(y, requires_grad=True)
        cbt = Tensor(cb, requires_grad=True)
        crt = Tensor(cr, requires_grad=True)
        out = codec.decode_planes(yt, cbt, crt, 85, "4:2:0")
        for g in T.grad(T.mean_all(out), [yt, cbt, crt]):
            assert np.any(g.data != 0)

    def test_gradient_check_clip_inactive(self):
        rng = np.random.default_rng(7)
        y, cb, cr = self.make_planes(rng, n=1, h=8, w=8, mode="4:4:4", quiet=True)
        # small levels keep every decoded pixel strictly inside (0, 255)
        img = codec.decode_planes(Tensor(y), Tensor(cb), Tensor(cr), 85, "4:4:4").data
        assert img.min() > 1 and img.max() < 254

        # random projection keeps every coefficient's gradient O(1); a plain
        # quadratic loss drowns the orthogonal directions in fp cancellation
        weight = Tensor(rng.uniform(-1.0, 1.0, size=img.shape))

        def f(t):
            out = codec.decode_planes(t, Tensor(cb), Tensor(cr), 85, "4:4:4")
            return T.mean_all(T.mul(out, weight))

        err = T.gradient_check(f, Tensor(y))
        assert err < 1e-6

    @pytest.mark.parametrize("h, w", [(12, 12), (8, 12)])
    def test_rejects_luma_not_tiled_by_blocks(self, h, w):
        y = Tensor(np.zeros((1, 1, h, w)))
        chroma = Tensor(np.zeros((1, 1, h // 2, w // 2)))
        with pytest.raises(T.ShapeError, match=f"{h}x{w}"):
            codec.decode_planes(y, chroma, chroma, 75, "4:2:0")

    def test_tape_budget(self):
        rng = np.random.default_rng(10)
        planes = [Tensor(p, requires_grad=True)
                  for p in self.make_planes(rng, n=2, h=16, w=16, mode="4:2:0")]
        out = codec.decode_planes(*planes, 75, "4:2:0")
        ops = [node._op for node in T._toposort(out) if node._parents]
        # one block map (one matmul) per plane, one 1x1 conv for the color transform
        assert ops.count("matmul") == 3
        assert ops.count("conv2d") == 1

    def test_clip_blocks_gradient_outside_range(self):
        y = Tensor(np.full((1, 1, 8, 8), 500.0), requires_grad=True)  # forces saturation
        cb = Tensor(np.zeros((1, 1, 8, 8)))
        cr = Tensor(np.zeros((1, 1, 8, 8)))
        out = codec.decode_planes(y, cb, cr, 100, "4:4:4")
        assert np.all(out.data[:, :, :, :] >= 0) and np.all(out.data <= 255)
        (gy,) = T.grad(T.sum_all(out), [y])
        # DC of 500 at Q=1 pushes luma far out of range; saturated pixels
        # contribute nothing, so the gradient is much smaller than unsaturated
        assert np.abs(gy.data).max() < 8.0 * 3

    def test_coefficient_perturbation_bound(self):
        rng = np.random.default_rng(8)
        qf, mode = 60, "4:4:4"
        ql, _ = jpeg.quant_matrices(qf)
        tmat = jpeg.dct_matrix()
        minv, _ = jpeg.ycbcr_to_rgb_matrix()
        y, cb, cr = self.make_planes(rng, n=1, h=16, w=16, mode=mode, qf=qf, quiet=True)
        base = codec.decode_planes(Tensor(y), Tensor(cb), Tensor(cr), qf, mode).data
        # clamp is 1-Lipschitz, so the bound holds whether or not pixels saturate
        for _ in range(20):
            u, v = rng.integers(0, 8, size=2)
            delta = int(rng.integers(1, 3))
            y2 = y.copy()
            y2[0, 0, u, v] += delta  # first block, coefficient (u, v)
            out = codec.decode_planes(Tensor(y2), Tensor(cb), Tensor(cr), qf, mode).data
            basis_max = np.max(np.abs(np.outer(tmat[u], tmat[v])))
            color_max = np.max(np.abs(minv[:, 0]))  # luma column
            bound = delta * ql[u, v] * basis_max * color_max
            assert np.max(np.abs(out - base)) <= bound + 1e-9

    def test_float32_pipeline(self):
        rng = np.random.default_rng(9)
        y, cb, cr = self.make_planes(rng, n=1)
        out = codec.decode_planes(
            Tensor(y.astype(np.float32)),
            Tensor(cb.astype(np.float32)),
            Tensor(cr.astype(np.float32)),
            85,
            "4:4:4",
        )
        assert out.data.dtype == np.float32
