"""JPEG kernel tests.

The DCT is checked against an O(N^4) direct-summation oracle (basis built
with explicit loops from the defining cosine products), the zig-zag table
against an algorithmic diagonal walk, and the quantization tables against
frozen expected values.
"""

import numpy as np
import pytest

from jpeggan import codec, jpeg


# -- oracles ------------------------------------------------------------------

def dct_basis():
    """basis[u, v, x, y] built straight from the definition."""
    basis = np.zeros((8, 8, 8, 8))
    for u in range(8):
        for v in range(8):
            au = np.sqrt(1 / 8) if u == 0 else np.sqrt(2 / 8)
            av = np.sqrt(1 / 8) if v == 0 else np.sqrt(2 / 8)
            for x in range(8):
                for y in range(8):
                    basis[u, v, x, y] = (
                        au
                        * av
                        * np.cos((2 * x + 1) * u * np.pi / 16)
                        * np.cos((2 * y + 1) * v * np.pi / 16)
                    )
    return basis


_BASIS = dct_basis()


def dct_oracle(blocks):
    """Direct summation over the loop-built basis; O(N^4) per block."""
    return np.einsum("uvxy,...xy->...uv", _BASIS, blocks)


def zigzag_oracle_order():
    """Diagonal-walk construction of the scan order, independent of the table."""
    order = []
    for s in range(15):
        ij = [(i, s - i) for i in range(8) if 0 <= s - i < 8]
        if s % 2 == 0:
            ij = ij[::-1]  # even diagonals run bottom-left to top-right
        order.extend(i * 8 + j for i, j in ij)
    return np.array(order)


# -- quantization tables ------------------------------------------------------

class TestQuantMatrices:
    def test_base_tables_at_50(self):
        ql, qc = jpeg.quant_matrices(50)
        assert np.array_equal(ql, jpeg.LUMA_QUANT_BASE)
        assert np.array_equal(qc, jpeg.CHROMA_QUANT_BASE)
        assert ql[0, 0] == 16 and ql[7, 0] == 72 and ql[0, 7] == 61
        assert qc[0, 0] == 17 and qc[3, 3] == 99

    def test_quality_100_all_ones(self):
        ql, qc = jpeg.quant_matrices(100)
        assert np.all(ql == 1) and np.all(qc == 1)

    def test_quality_25_doubles(self):
        ql, qc = jpeg.quant_matrices(25)
        assert np.array_equal(ql, 2 * jpeg.LUMA_QUANT_BASE)
        assert np.array_equal(qc, 2 * jpeg.CHROMA_QUANT_BASE)

    def test_monotone_in_quality(self):
        prev_l, prev_c = jpeg.quant_matrices(1)
        for n in range(2, 101):
            ql, qc = jpeg.quant_matrices(n)
            assert np.all(ql <= prev_l) and np.all(qc <= prev_c)
            prev_l, prev_c = ql, qc

    def test_entries_at_least_one(self):
        for n in (1, 10, 50, 99, 100):
            ql, qc = jpeg.quant_matrices(n)
            assert ql.min() >= 1 and qc.min() >= 1

    def test_out_of_range_quality(self):
        for bad in (0, -5, 101, 75.5):
            with pytest.raises(ValueError):
                jpeg.quant_matrices(bad)

    def test_integral_quality_of_any_type(self):
        for same in (75.0, np.int64(75)):
            assert all(np.array_equal(a, b) for a, b in zip(jpeg.quant_matrices(same), jpeg.quant_matrices(75)))

    def test_repeated_calls_share_read_only_tables(self):
        first, again = jpeg.quant_matrices(75), jpeg.quant_matrices(75)
        for a, b, base in zip(first, again, (jpeg.LUMA_QUANT_BASE, jpeg.CHROMA_QUANT_BASE)):
            assert np.array_equal(a, b)
            assert np.array_equal(a, jpeg.scale_quant_matrix(base, 75))
            assert not a.flags.writeable and not b.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 1


# -- color space --------------------------------------------------------------

class TestColor:
    def test_known_values(self):
        y = jpeg.rgb_to_ycbcr(np.array([255.0, 255.0, 255.0]))
        assert np.allclose(y, [255.0, 128.0, 128.0])
        y = jpeg.rgb_to_ycbcr(np.array([0.0, 0.0, 0.0]))
        assert np.allclose(y, [0.0, 128.0, 128.0])
        y = jpeg.rgb_to_ycbcr(np.array([255.0, 0.0, 0.0]))
        assert np.allclose(y, [0.299 * 255, 128 - 0.168736 * 255, 128 + 0.5 * 255])

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(0)
        rgb = rng.uniform(0, 255, size=(64, 64, 3))
        back = jpeg.ycbcr_to_rgb(jpeg.rgb_to_ycbcr(rgb))
        assert np.max(np.abs(back - rgb)) < 1e-12

    def test_gray_axis(self):
        g = np.stack([np.full((4, 4), 77.0)] * 3, axis=-1)
        ycc = jpeg.rgb_to_ycbcr(g)
        assert np.allclose(ycc[..., 0], 77.0)
        assert np.allclose(ycc[..., 1:], 128.0)


# -- DCT ------------------------------------------------------------------------

class TestDct:
    def test_matrix_is_orthonormal(self):
        t = jpeg.dct_matrix()
        assert np.max(np.abs(t @ t.T - np.eye(8))) < 1e-14

    def test_constant_block_dc(self):
        block = np.full((8, 8), 136.0) - 128.0
        coef = jpeg.dct8x8(block)
        assert abs(coef[0, 0] - 64.0) < 1e-12
        assert np.max(np.abs(coef.reshape(64)[1:])) < 1e-12

    def test_against_direct_summation_small(self):
        # A few blocks through the pure quadruple-loop definition.
        rng = np.random.default_rng(1)
        for _ in range(5):
            b = rng.uniform(-128, 127, size=(8, 8))
            ref = np.zeros((8, 8))
            for u in range(8):
                for v in range(8):
                    ref[u, v] = np.sum(_BASIS[u, v] * b)
            assert np.max(np.abs(jpeg.dct8x8(b) - ref)) < 1e-10

    def test_against_direct_summation_bulk(self):
        rng = np.random.default_rng(2)
        blocks = rng.uniform(-128, 127, size=(2000, 8, 8))
        assert np.max(np.abs(jpeg.dct8x8(blocks) - dct_oracle(blocks))) < 1e-10

    def test_idct_inverts_dct(self):
        rng = np.random.default_rng(3)
        blocks = rng.uniform(-128, 127, size=(500, 8, 8))
        assert np.max(np.abs(jpeg.idct8x8(jpeg.dct8x8(blocks)) - blocks)) < 1e-10

    def test_parseval(self):
        rng = np.random.default_rng(4)
        b = rng.uniform(-128, 127, size=(8, 8))
        assert abs(np.sum(b * b) - np.sum(jpeg.dct8x8(b) ** 2)) < 1e-8

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            jpeg.dct8x8(np.zeros((4, 4)))


# -- rounding / quantization ----------------------------------------------------

class TestQuantize:
    def test_round_half_away(self):
        x = np.array([0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 0.49, -0.49])
        assert np.array_equal(jpeg.round_half_away(x), [1, 2, 3, -1, -2, -3, 0, -0.0])

    def test_quantize_dequantize(self):
        q = np.full((8, 8), 10.0)
        c = np.full((8, 8), 25.0)
        lv = jpeg.quantize(c, q)
        assert np.all(lv == 3)  # 2.5 rounds away from zero
        assert np.all(jpeg.dequantize(lv, q) == 30.0)
        assert np.all(jpeg.quantize(-c, q) == -3)

    def test_identity_at_unit_q(self):
        rng = np.random.default_rng(5)
        c = rng.integers(-500, 500, size=(8, 8)).astype(np.float64)
        lv = jpeg.quantize(c, np.ones((8, 8)))
        assert np.array_equal(lv, c.astype(np.int64))

    @staticmethod
    def quantize_oracle(coef, q):
        return jpeg.round_half_away(np.asarray(coef, dtype=np.float64) / q).astype(np.int64)

    @staticmethod
    def dequantize_oracle(levels, q):
        return np.asarray(levels, dtype=np.float64) * q

    def assert_same_bits(self, got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_quantize_matches_formula_oracle(self):
        rng = np.random.default_rng(16)
        ql, qc = jpeg.quant_matrices(30)
        plane = jpeg.plane_table(ql, np.empty((24, 40)))
        ties = np.array([0.5, 1.5, 2.5, -0.5, -1.5, -2.5])
        cases = [
            (rng.choice(ties, size=(7, 24, 40)) * plane, plane),  # exact ties of coef / q
            (np.array([0.0, -0.0, np.nextafter(0.5, 0), -np.nextafter(0.5, 0)]), 1),
            (rng.normal(0.0, 300.0, size=(5, 24, 40)), plane),
            (rng.normal(0.0, 300.0, size=(5, 24, 40)).astype(np.float32), plane),
            (rng.normal(0.0, 300.0, size=(9, 8, 8)), qc),
        ]
        for coef, q in cases:
            self.assert_same_bits(jpeg.quantize(coef, q), self.quantize_oracle(coef, q))

    def test_levels_at_amplitude_bound_match_formula_oracles(self):
        ql, qc = jpeg.quant_matrices(90)
        for q in (ql, qc):
            plane = jpeg.plane_table(q, np.empty((16, 24)))
            bound = (1024 + 8 * plane) // plane
            levels = np.stack([bound, -bound])
            jpeg.check_amplitudes("y", levels, q)
            amplitudes = jpeg.dequantize(levels, plane)
            self.assert_same_bits(amplitudes, self.dequantize_oracle(levels, plane))
            self.assert_same_bits(jpeg.quantize(amplitudes, plane), levels)
            self.assert_same_bits(jpeg.quantize(amplitudes, plane), self.quantize_oracle(amplitudes, plane))

    def test_dequantize_rounds_large_levels_as_the_oracle(self):
        ql, _ = jpeg.quant_matrices(50)
        levels = 2**53 + np.arange(1, 129, dtype=np.int64).reshape(2, 8, 8)
        levels[1] *= -3
        self.assert_same_bits(jpeg.dequantize(levels, ql), self.dequantize_oracle(levels, ql))

    def test_error_bound(self):
        rng = np.random.default_rng(6)
        ql, _ = jpeg.quant_matrices(40)
        c = rng.uniform(-900, 900, size=(100, 8, 8))
        err = np.abs(jpeg.dequantize(jpeg.quantize(c, ql), ql) - c)
        assert np.all(err <= ql / 2 + 1e-9)


# -- subsampling ------------------------------------------------------------------

class TestSubsample:
    def test_means_and_shapes(self):
        p = np.arange(32.0).reshape(4, 8)
        s420 = jpeg.subsample(p, "4:2:0")
        assert s420.shape == (2, 4)
        assert s420[0, 0] == np.mean([p[0, 0], p[0, 1], p[1, 0], p[1, 1]])
        s422 = jpeg.subsample(p, "4:2:2")
        assert s422.shape == (4, 4)
        assert s422[0, 0] == np.mean(p[0, :2])
        assert np.array_equal(jpeg.subsample(p, "4:4:4"), p)

    def test_upsample_shapes(self):
        p = np.arange(8.0).reshape(2, 4)
        u = jpeg.upsample(p, "4:2:0")
        assert u.shape == (4, 8)
        assert np.all(u[:2, :2] == p[0, 0])

    def test_up_then_sub_is_identity(self):
        rng = np.random.default_rng(7)
        p = rng.uniform(0, 255, size=(8, 16))
        for mode in jpeg.MODES:
            assert np.allclose(jpeg.subsample(jpeg.upsample(p, mode), mode), p)

    def test_smoothing_idempotent(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 255, size=(16, 16))
        for mode in jpeg.MODES:
            smooth = lambda a: jpeg.upsample(jpeg.subsample(a, mode), mode)
            once = smooth(x)
            assert np.allclose(smooth(once), once)

    def test_constant_plane_exact(self):
        x = np.full((8, 8), 93.0)
        for mode in jpeg.MODES:
            assert np.allclose(jpeg.upsample(jpeg.subsample(x, mode), mode), x)

    def test_indivisible_raises(self):
        with pytest.raises(ValueError):
            jpeg.subsample(np.zeros((3, 8)), "4:2:0")

    @pytest.mark.parametrize("mode", ["4:2:0", "4:2:2"])
    def test_equals_block_mean_bit_for_bit(self, mode):
        fv, fh = jpeg.mode_factors(mode)
        rng = np.random.default_rng(11)
        ycc = rng.uniform(0, 255, size=(4, 2, 16, 24, 3))  # pixel-interleaved
        planar = np.ascontiguousarray(np.moveaxis(ycc, -1, 0))
        for plane in (ycc[..., 1], planar[1], planar[2, 3], ycc[0, 0, ..., 2]):
            *lead, h, w = plane.shape
            want = plane.reshape(*lead, h // fv, fv, w // fh, fh).mean(axis=(-3, -1))
            got = jpeg.subsample(plane, mode)
            assert got.shape == want.shape and np.array_equal(got, want)

    def test_full_resolution_keeps_the_plane(self):
        p = np.arange(64.0).reshape(8, 8)
        assert jpeg.subsample(p, "4:4:4") is p


# -- zig-zag ------------------------------------------------------------------------

class TestZigzag:
    def test_table_matches_diagonal_walk(self):
        assert np.array_equal(jpeg.ZIGZAG_INDEX, zigzag_oracle_order())

    def test_is_permutation(self):
        assert sorted(jpeg.ZIGZAG_INDEX.tolist()) == list(range(64))

    def test_first_entries(self):
        b = np.arange(64).reshape(8, 8)
        z = jpeg.zigzag(b)
        assert list(z[:6]) == [0, 1, 8, 16, 9, 2]
        assert z[63] == 63

    def test_roundtrip(self):
        rng = np.random.default_rng(9)
        b = rng.integers(-100, 100, size=(8, 8))
        assert np.array_equal(jpeg.inverse_zigzag(jpeg.zigzag(b)), b)


# -- block layout ---------------------------------------------------------------

class TestBlockify:
    def test_roundtrip(self):
        rng = np.random.default_rng(10)
        p = rng.normal(size=(16, 24))
        blocks = jpeg.blockify(p)
        assert blocks.shape == (2, 3, 8, 8)
        assert np.array_equal(blocks[1, 2], p[8:16, 16:24])
        assert np.array_equal(jpeg.unblockify(blocks), p)

class TestEncodedImage:
    def make(self, mode="4:2:0", qf=50, h=16, w=32):
        fv, fh = jpeg.mode_factors(mode)
        return jpeg.EncodedImage(
            quality_factor=qf,
            mode=mode,
            y=np.zeros((h, w), dtype=np.int64),
            cb=np.zeros((h // fv, w // fh), dtype=np.int64),
            cr=np.zeros((h // fv, w // fh), dtype=np.int64),
        )

    def test_valid(self):
        self.make().validate()
        self.make(mode="4:4:4", qf=100).validate()

    def test_rejects_bad_plane_shape(self):
        enc = self.make()
        enc.cb = enc.y.copy()
        with pytest.raises(ValueError):
            enc.validate()

    @pytest.mark.parametrize("name", ["y", "cb", "cr"])
    def test_rejects_a_block_layout_plane(self, name):
        # the (h/8, w/8, 8, 8) layout containers once held fails loudly
        enc = self.make()
        setattr(enc, name, jpeg.blockify(getattr(enc, name)))
        with pytest.raises(ValueError, match=f"^{name} plane shape \\(\\d+, \\d+, 8, 8\\) is not \\(h, w\\)$"):
            enc.check_layout()

    def test_rejects_chroma_of_another_mode(self):
        enc = self.make(mode="4:2:0")
        enc.mode = "4:2:2"  # wants 16x16 chroma, holds 4:2:0's 8x16
        with pytest.raises(ValueError, match="^cb plane shape \\(8, 16\\) != \\(16, 16\\)$"):
            enc.check_layout()

    def test_extents_follow_y(self):
        enc = self.make(mode="4:4:4")
        assert (enc.height, enc.width) == (16, 32)
        enc.y = enc.cb = enc.cr = np.zeros((24, 8), dtype=np.int64)
        assert (enc.height, enc.width) == (24, 8)
        enc.validate()
        with pytest.raises(AttributeError):
            enc.width = 16

    def test_rejects_float_levels(self):
        enc = self.make()
        enc.y = enc.y.astype(np.float64)
        with pytest.raises(ValueError):
            enc.validate()

    def test_rejects_overrange_amplitude(self):
        enc = self.make(qf=50)
        enc.y[0, 0] = 10_000
        with pytest.raises(ValueError):
            enc.validate()

    @pytest.mark.parametrize("level", [2**62, -(2**63), 2**63 - 1])
    def test_rejects_a_level_whose_amplitude_would_wrap(self, level):
        # level * q wraps around in int64; the bound must hold without forming it
        enc = self.make(qf=50)
        enc.y[0, 0] = level
        with pytest.raises(ValueError, match="y plane has out-of-range amplitudes"):
            enc.validate()
        with pytest.raises(ValueError, match="out-of-range amplitudes"):
            codec.decode_image(enc)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint64, np.int16, np.int32])
    def test_amplitude_bound_holds_for_every_integer_dtype(self, dtype):
        q = jpeg.quant_matrices(100)[0]  # all ones: every bound is 1032
        levels = np.zeros((2, 8, 8), dtype=dtype)
        jpeg.check_amplitudes("y", levels, q)
        top = np.iinfo(dtype).max
        levels[1, 4, 4] = min(top, 1032)
        jpeg.check_amplitudes("y", levels, q)
        levels[1, 4, 4] = top  # over the bound for every dtype wider than a byte
        if top > 1032:
            with pytest.raises(ValueError):
                jpeg.check_amplitudes("y", levels, q)
        if np.iinfo(dtype).min < 0:
            levels[1, 4, 4] = -1032
            jpeg.check_amplitudes("y", levels, q)
            levels[1, 4, 4] = -1033
            with pytest.raises(ValueError):
                jpeg.check_amplitudes("y", levels, q)

    @pytest.mark.parametrize("qf", range(1, 101))
    def test_amplitude_bound_agrees_with_the_product_rule(self, qf):
        """On levels in [-5000, 5000] the bound accepts exactly what
        |level * q| <= 1024 + 8 q accepts, for both tables.

        The product rule accepts a symmetric interval [-a, a] at each
        position, so agreement is checked at both ends of it and one past
        them, one position at a time.
        """
        levels = np.arange(-5000, 5001)[:, None, None]

        def accepts(plane, q):
            try:
                jpeg.check_amplitudes("y", plane, q)
            except ValueError:
                return False
            return True

        for q in jpeg.quant_matrices(qf):
            ok = np.abs(levels * q) <= 1024 + 8 * q
            a = ok.sum(axis=0) // 2
            assert np.array_equal(ok, np.abs(levels) <= a)  # an interval about zero
            assert accepts(a, q) and accepts(-a, q)
            for pos in np.ndindex(8, 8):
                for sign in (1, -1):
                    plane = sign * a.copy()
                    plane[pos] += sign
                    assert not accepts(plane, q), (qf, pos, sign)

    @pytest.mark.parametrize("h, w", [(16, 0), (0, 32), (0, 0)], ids=["width", "height", "empty"])
    def test_rejects_zero_extent(self, h, w):
        enc = self.make(h=h, w=w)  # chroma planes to match
        match = f"^y plane shape \\({h}, {w}\\) is not a positive multiple of the 4:2:0 macroblock$"
        with pytest.raises(ValueError, match=match):
            enc.check_layout()

    @pytest.mark.parametrize("qf", [0, 101, 75.5])
    def test_rejects_quality_that_is_not_an_integer_in_range(self, qf):
        enc = self.make()
        enc.quality_factor = qf
        with pytest.raises(ValueError, match="bad quality factor"):
            enc.check_layout()

    def test_rejects_unpadded_extent(self):
        enc = self.make(w=24)  # not a multiple of the 4:2:0 macroblock width
        with pytest.raises(ValueError, match="macroblock"):
            enc.validate()
