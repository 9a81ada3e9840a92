"""Bitstream round trips, Huffman table sanity, and external-decoder agreement."""

import hashlib
import io
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpeggan import codec, datasets, jfif, jpeg
from jpeggan.jpeg import EncodedImage

try:
    import PIL.Image as PIL
except ImportError:  # the external-decoder checks need Pillow; the rest do not
    PIL = None

needs_pil = pytest.mark.skipif(PIL is None, reason="Pillow is not installed")


def random_encoded(rng, qf=50, mode="4:4:4", h=32, w=32, dc=60, ac=4):
    fv, fh = jpeg.mode_factors(mode)
    ql, qc = jpeg.quant_matrices(qf)

    def plane(bh, bw, q):
        b = rng.integers(-ac, ac + 1, size=(bh, bw, 8, 8))
        b[..., 0, 0] = rng.integers(-dc, dc + 1, size=(bh, bw))
        cap = (1024 + 8 * q) // q  # container validity bound per frequency
        return jpeg.unblockify(np.clip(b, -cap, cap).astype(np.int64))

    enc = EncodedImage(
        quality_factor=qf,
        mode=mode,
        y=plane(h // 8, w // 8, ql),
        cb=plane(h // (8 * fv), w // (8 * fh), qc),
        cr=plane(h // (8 * fv), w // (8 * fh), qc),
    )
    enc.validate()
    return enc


def assert_same(a: EncodedImage, b: EncodedImage):
    assert (a.width, a.height, a.quality_factor, a.mode) == (
        b.width,
        b.height,
        b.quality_factor,
        b.mode,
    )
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.cb, b.cb)
    assert np.array_equal(a.cr, b.cr)


class TestHuffmanTables:
    def test_canonical_dc_luma_codes(self):
        codes = jfif._canonical_codes(jfif.DC_LUMA)
        assert codes[0] == (0b00, 2)
        assert codes[1] == (0b010, 3)
        assert codes[5] == (0b110, 3)
        assert codes[6] == (0b1110, 4)
        assert codes[11] == (0b111111110, 9)

    def test_classic_ac_luma_codes(self):
        codes = jfif._canonical_codes(jfif.AC_LUMA)
        assert codes[0x00] == (0b1010, 4)  # EOB
        assert codes[0x01] == (0b00, 2)
        assert codes[0xF0] == (0b11111111001, 11)  # ZRL

    def test_prefix_free(self):
        for table in (jfif.DC_LUMA, jfif.DC_CHROMA, jfif.AC_LUMA, jfif.AC_CHROMA):
            codes = sorted(jfif._canonical_codes(table).values(), key=lambda cl: cl[1])
            as_strings = [format(c, f"0{l}b") for c, l in codes]
            assert len(set(as_strings)) == len(as_strings)
            for i, s in enumerate(as_strings):
                for t in as_strings[i + 1 :]:
                    assert not t.startswith(s), (s, t)

    def test_table_sizes(self):
        assert sum(jfif.AC_LUMA[0]) == len(jfif.AC_LUMA[1]) == 162
        assert sum(jfif.AC_CHROMA[0]) == len(jfif.AC_CHROMA[1]) == 162
        assert sum(jfif.DC_LUMA[0]) == 12


class TestRoundTrip:
    @pytest.mark.parametrize("mode", jpeg.MODES)
    @pytest.mark.parametrize("qf", [10, 50, 95])
    def test_exact_coefficients(self, mode, qf):
        rng = np.random.default_rng(zlib.crc32(repr((mode, qf)).encode()))
        enc = random_encoded(rng, qf=qf, mode=mode)
        assert_same(jfif.decode_jfif(jfif.encode_jfif(enc)), enc)

    def test_sixteen_bit_quant_tables(self):
        rng = np.random.default_rng(0)
        enc = random_encoded(rng, qf=5, mode="4:4:4")  # entries overflow a byte
        ql, _ = jpeg.quant_matrices(5)
        assert ql.max() > 255
        assert_same(jfif.decode_jfif(jfif.encode_jfif(enc)), enc)

    def test_large_amplitudes_and_stuffing(self):
        rng = np.random.default_rng(1)
        hit_stuffing = False
        for i in range(30):
            enc = random_encoded(rng, qf=90, h=16, w=16, dc=500, ac=60)
            data = jfif.encode_jfif(enc)
            hit_stuffing = hit_stuffing or b"\xff\x00" in data
            assert_same(jfif.decode_jfif(data), enc)
        assert hit_stuffing  # byte stuffing actually exercised

    def test_zero_image(self):
        enc = random_encoded(np.random.default_rng(2), dc=1, ac=0)
        enc.y[:] = 0
        enc.cb[:] = 0
        enc.cr[:] = 0
        assert_same(jfif.decode_jfif(jfif.encode_jfif(enc)), enc)

    def test_file_helpers(self, tmp_path):
        enc = random_encoded(np.random.default_rng(3), mode="4:2:0")
        path = tmp_path / "x.jfif"
        jfif.write_jfif(enc, path)
        assert_same(jfif.read_jfif(path), enc)

    def test_quality_recovery_across_range(self):
        rng = np.random.default_rng(4)
        for qf in (1, 7, 25, 49, 50, 51, 80, 100):
            enc = random_encoded(rng, qf=qf, h=16, w=16, dc=5, ac=1)
            assert jfif.decode_jfif(jfif.encode_jfif(enc)).quality_factor == qf

    def test_quality_lookup_is_keyed_on_values(self):
        lumas = {qf: jfif._DQT[qf][0] for qf in range(1, 101)}
        assert len(set(lumas.values())) == 100  # every quality has its own luma DQT
        for qf, luma in lumas.items():
            assert jfif._QUALITY_BY_LUMA[luma[4:]] == qf  # keyed from the Pq/Tq byte on
            width = 2 if luma[4] >> 4 else 1
            table = np.frombuffer(luma[5:], dtype=f">u{width}").astype(np.int64)
            assert len(table) == 64
            assert np.array_equal(jpeg.inverse_zigzag(table), jpeg.quant_matrices(qf)[0])


def sparse_encoded():
    enc = random_encoded(np.random.default_rng(35), qf=75, mode="4:2:0", dc=3, ac=0)
    enc.y[7, 7] = 1  # zigzag index 63 after a run of 62 zeros: three ZRLs
    enc.cb[4, 3] = -2
    return enc


class TestPinnedBytes:
    # sha256 of encode_jfif output, recorded before the scan coder was
    # rewritten: round trips cannot see a self-consistent change of bitstream
    @pytest.mark.parametrize(
        "make, digest",
        [
            (
                lambda: random_encoded(np.random.default_rng(31), qf=50, mode="4:4:4"),
                "69cfffcd9a3cbd8e74aeaf1cb4acca711bc57f44f6b3a9bcbd553ccef572dbe1",
            ),
            (
                lambda: random_encoded(np.random.default_rng(32), qf=50, mode="4:2:2"),
                "9d97c2807c1334740916ba89201df43b7d58558186e36982b102469438abf921",
            ),
            (
                lambda: random_encoded(np.random.default_rng(33), qf=50, mode="4:2:0", h=32, w=48),
                "f2cbbc9a93f0e74f6418894cee2f957a8f89bb4e09084c892e1a6d826eb54064",
            ),
            (  # 16-bit DQT
                lambda: random_encoded(np.random.default_rng(34), qf=5, mode="4:4:4"),
                "330ffa61547a869b3bece426207e94f724d691cd43b8faa5d8797a46c072b45d",
            ),
            (  # seven stuffed 0xFF bytes in the scan
                lambda: random_encoded(
                    np.random.default_rng(0), qf=90, mode="4:2:0", h=16, w=16, dc=500, ac=60
                ),
                "61802a5dcd0285b10c91749290997ec2c51c763bb1382da66f0e7955d68364bf",
            ),
            (sparse_encoded, "a86902e1fd9bffc1a2d132433132d7d2313f117891cffd9c0fc202dd375467b5"),
            (
                lambda: codec.encode_image(
                    datasets.synthetic_dataset(0, 1, size=32)[0].transpose(1, 2, 0), 75, "4:2:0"
                ),
                "a32b83227b11f3556196a02dcc115e51bf1c0cd772ab832c588bd7b72e502d00",
            ),
        ],
        ids=["444", "422", "420-48x32", "qf5-16bit-dqt", "stuffing", "zrl", "synthetic"],
    )
    def test_encoder_output_is_pinned(self, make, digest):
        assert hashlib.sha256(jfif.encode_jfif(make())).hexdigest() == digest


class TestStructure:
    def test_framing_and_app0(self):
        enc = random_encoded(np.random.default_rng(5))
        data = jfif.encode_jfif(enc)
        assert data[:2] == b"\xff\xd8"
        assert data[-2:] == b"\xff\xd9"
        assert data[2:4] == b"\xff\xe0"
        assert data[6:11] == b"JFIF\x00"

    def test_size_shrinks_with_quality(self):
        img = datasets.synthetic_dataset(0, 1, size=32)[0].transpose(1, 2, 0)
        sizes = [
            len(jfif.encode_jfif(codec.encode_image(img, qf, "4:4:4")))
            for qf in (100, 75, 50, 25)
        ]
        assert sizes[0] > sizes[-1]
        assert all(a >= b for a, b in zip(sizes, sizes[1:])), sizes

    def test_subsampled_modes_are_smaller(self):
        img = datasets.synthetic_dataset(1, 1, size=32)[0].transpose(1, 2, 0)
        sizes = {
            mode: len(jfif.encode_jfif(codec.encode_image(img, 75, mode)))
            for mode in jpeg.MODES
        }
        assert sizes["4:2:0"] < sizes["4:4:4"]


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(ValueError, match="offset 0"):
            jfif.decode_jfif(b"not a jfif stream")

    def test_truncated_scan(self):
        data = jfif.encode_jfif(random_encoded(np.random.default_rng(6)))
        with pytest.raises(ValueError, match="offset"):
            jfif.decode_jfif(data[: len(data) - len(data) // 3])

    def test_trailing_garbage(self):
        data = jfif.encode_jfif(random_encoded(np.random.default_rng(7)))
        with pytest.raises(ValueError, match=f"offset {len(data)}: trailing"):
            jfif.decode_jfif(data + b"\x00")

    @staticmethod
    def corrupt_table(table):
        """A file whose DQT table `table` (0 luma, 1 chroma) has a zero entry,
        and the offset of that table's Pq/Tq byte."""
        data = bytearray(jfif.encode_jfif(random_encoded(np.random.default_rng(8))))
        dqt = -1
        for _ in range(table + 1):  # one DQT segment per table: luma, then chroma
            dqt = data.index(b"\xff\xdb", dqt + 1)
        data[dqt + 5] = 0  # a zero entry matches no quality factor
        return bytes(data), dqt + 4  # after the marker and the length

    def test_corrupt_quant_table(self):
        data, at = self.corrupt_table(0)
        with pytest.raises(ValueError, match=f"offset {at}: luma quantization table matches no quality"):
            jfif.decode_jfif(data)

    def test_corrupt_chroma_quant_table(self):
        data, at = self.corrupt_table(1)
        match = f"offset {at + 1}: DQT differs"  # the zeroed first entry
        with pytest.raises(ValueError, match=match):
            jfif.decode_jfif(data)

    def test_out_of_range_amplitudes_name_the_scan(self):
        # a DC level in range at qf 95 but not under qf 50's coarser tables
        enc = random_encoded(np.random.default_rng(19), qf=95)
        enc.y[0, 0] = 300
        data = bytearray(jfif.encode_jfif(enc))
        coarse = jfif.encode_jfif(random_encoded(np.random.default_rng(19), qf=50))
        dqt = data.index(b"\xff\xdb")
        assert dqt == coarse.index(b"\xff\xdb")
        data[dqt : dqt + 2 * 69] = coarse[dqt : dqt + 2 * 69]  # both 8-bit DQT segments
        scan = data.index(b"\xff\xda") + 14  # SOS marker and its 12-byte segment
        with pytest.raises(ValueError, match=f"offset {scan}: y plane has out-of-range amplitudes"):
            jfif.decode_jfif(bytes(data))

    def test_missing_tables(self):
        data = jfif.encode_jfif(random_encoded(np.random.default_rng(9)))
        dht = data.index(b"\xff\xc4")
        stripped = data[:dht] + data[dht + 2 :]  # break the first DHT marker
        with pytest.raises(ValueError, match="offset"):
            jfif.decode_jfif(stripped)

    @pytest.mark.parametrize("h, w", [(8, 65536), (65536, 8)])
    def test_extent_beyond_sof0_is_rejected(self, h, w):
        zeros = np.zeros((h, w), np.int64)
        enc = EncodedImage(quality_factor=75, mode="4:4:4", y=zeros, cb=zeros, cr=zeros)
        with pytest.raises(ValueError, match=f"^coded width x height {w}x{h} exceeds SOF0's 16-bit limit of 65535$"):
            jfif.encode_jfif(enc)

    def test_widest_sof0_extent_round_trips(self):
        zeros = np.zeros((8, 65528), np.int64)
        enc = EncodedImage(quality_factor=75, mode="4:4:4", y=zeros, cb=zeros, cr=zeros)
        assert_same(jfif.decode_jfif(jfif.encode_jfif(enc)), enc)

    def test_extent_larger_than_scan_data(self):
        data = bytearray(jfif.encode_jfif(random_encoded(np.random.default_rng(11))))
        sof = data.index(b"\xff\xc0")
        data[sof + 5] = data[sof + 7] = 0xFF  # height and width high bytes
        with pytest.raises(ValueError, match="offset \\d+: scan too short"):
            jfif.decode_jfif(bytes(data))

    @pytest.mark.parametrize(
        "segment, symbol",
        [(0, 200), (2, 0x0B)],  # DC luma, AC luma
        ids=["0-200-DC category 200", "2-11-AC size 11"],
    )
    def test_out_of_range_huffman_symbols(self, segment, symbol):
        enc = random_encoded(np.random.default_rng(10))
        enc.y[:8, :8] = 0
        enc.y[0, :2] = 1  # first block: DC category 1, then AC symbol 0x01
        data = bytearray(jfif.encode_jfif(enc))
        pos = -1
        for _ in range(segment + 1):  # DHT order: DC luma, DC chroma, AC luma, AC chroma
            pos = data.index(b"\xff\xc4", pos + 1)
        start = pos + 21  # marker, length, class/id byte, 16 code counts
        symbols = data[start : start + sum(data[pos + 5 : start])]
        edit = start + symbols.index(1)
        data[edit] = symbol  # that code would now decode to `symbol`
        with pytest.raises(ValueError, match=f"offset {edit}: DHT differs"):
            jfif.decode_jfif(bytes(data))

    def test_marker_inside_the_scan(self):
        data = jfif.encode_jfif(random_encoded(np.random.default_rng(16)))
        start = data.index(b"\xff\xda") + 14  # SOS marker and its 12-byte segment
        mid = (start + len(data) - 2) // 2
        with pytest.raises(ValueError, match="offset"):
            jfif.decode_jfif(data[:mid] + b"\xff\xd0" + data[mid:])  # RST0

    def test_extra_byte_before_eoi(self):
        data = jfif.encode_jfif(random_encoded(np.random.default_rng(17)))
        with pytest.raises(ValueError, match="offset"):
            jfif.decode_jfif(data[:-2] + b"\x00" + data[-2:])

    @pytest.mark.parametrize(
        "marker, index, value",
        [(b"\xff\xda", 8, 0x00), (b"\xff\xda", 12, 0), (b"\xff\xc0", 15, 0)],
        ids=["sos-cb-tables", "sos-se", "sof-cb-tq"],
    )
    def test_headers_outside_the_writers_subset(self, marker, index, value):
        data = bytearray(jfif.encode_jfif(random_encoded(np.random.default_rng(18), mode="4:2:0")))
        data[data.index(marker) + index] = value
        with pytest.raises(ValueError, match="offset"):
            jfif.decode_jfif(bytes(data))


HEADER_INPUTS = {
    "420-qf75": lambda: random_encoded(np.random.default_rng(22), qf=75, mode="4:2:0"),
    "qf5-16bit-dqt": lambda: random_encoded(np.random.default_rng(34), qf=5, mode="4:4:4"),
}


@pytest.mark.parametrize("name", HEADER_INPUTS)
def test_every_single_bit_header_edit_is_rejected_where_it_is(name):
    data = jfif.encode_jfif(HEADER_INPUTS[name]())
    scan = data.index(b"\xff\xda") + 14  # SOS marker and its 12-byte segment
    luma_dqt = range(20, data.index(b"\xff\xdb", 21))  # after SOI and APP0
    sof = data.index(b"\xff\xc0")
    extents = range(sof + 5, sof + 9)  # SOF0's height and width
    for pos in range(scan):
        for bit in range(8):
            edited = bytearray(data)
            edited[pos] ^= 1 << bit
            with pytest.raises(ValueError, match="^offset \\d+: ") as info:
                jfif.decode_jfif(bytes(edited))
            if pos not in luma_dqt and pos not in extents:
                assert str(info.value).startswith(f"offset {pos}: "), (pos, bit, str(info.value))
FUZZ_INPUTS = {
    "8x8-444": jfif.encode_jfif(random_encoded(np.random.default_rng(21), mode="4:4:4", h=8, w=8)),
    # 16x16 4:2:0 whose scan holds stuffed 0xFF bytes
    "16x16-420-stuffed": jfif.encode_jfif(
        random_encoded(np.random.default_rng(0), qf=90, mode="4:2:0", h=16, w=16, dc=500, ac=60)
    ),
}


@pytest.mark.parametrize("name", FUZZ_INPUTS)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), min_size=1, max_size=3))
def test_corrupt_bytes_raise_only_value_error(name, edits):
    data = bytearray(FUZZ_INPUTS[name])
    for pos, value in edits:
        data[pos % len(data)] = value
    try:
        jfif.decode_jfif(bytes(data))
    except ValueError:
        pass


@needs_pil
class TestExternalDecoder:
    def pil_decode_rgb(self, data: bytes) -> np.ndarray:
        with PIL.open(io.BytesIO(data)) as im:
            return np.asarray(im.convert("RGB")).astype(np.float64)

    def pil_decode_samples(self, data: bytes) -> np.ndarray:
        # draft() asks libjpeg for raw post-IDCT samples, skipping its own
        # color conversion; this is the stage conformance bounds live on
        with PIL.open(io.BytesIO(data)) as im:
            im.draft("YCbCr", im.size)
            return np.asarray(im.convert("YCbCr")).astype(np.float64)

    @pytest.mark.parametrize("qf", [30, 60, 90])
    def test_pil_samples_agree_within_one_level(self, qf):
        imgs = datasets.synthetic_dataset(11, 4, size=32)
        for img in imgs:
            enc = codec.encode_image(img.transpose(1, 2, 0), qf, "4:4:4")
            theirs = self.pil_decode_samples(jfif.encode_jfif(enc))
            ours = np.stack(codec.decode_samples(enc), axis=-1)
            assert theirs.shape == ours.shape
            assert np.max(np.abs(theirs - np.clip(ours, 0, 255))) <= 1.0

    @pytest.mark.parametrize("qf", [30, 90])
    def test_pil_rgb_close(self, qf):
        # libjpeg rounds YCbCr to 8 bits before its color convert, so RGB
        # can differ by one extra level beyond the sample-domain bound
        imgs = datasets.synthetic_dataset(14, 2, size=32)
        for img in imgs:
            enc = codec.encode_image(img.transpose(1, 2, 0), qf, "4:4:4")
            theirs = self.pil_decode_rgb(jfif.encode_jfif(enc))
            ours = np.round(codec.decode_image(enc))
            assert np.max(np.abs(theirs - ours)) <= 2.0

    def test_pil_reads_subsampled_modes(self):
        # constant chroma sidesteps upsampling-filter differences, so the
        # comparison still pins down MCU interleave order exactly
        rng = np.random.default_rng(12)
        gray = rng.uniform(40, 215, size=(32, 32))
        img = np.stack([gray, gray, gray], axis=-1)
        for mode in ("4:2:2", "4:2:0"):
            enc = codec.encode_image(img, 70, mode)
            theirs = self.pil_decode_rgb(jfif.encode_jfif(enc))
            ours = np.round(codec.decode_image(enc))
            assert np.max(np.abs(theirs - ours)) <= 1.0

    def test_pil_sees_declared_geometry(self):
        enc = random_encoded(np.random.default_rng(13), mode="4:2:0", h=32, w=48)
        with PIL.open(io.BytesIO(jfif.encode_jfif(enc))) as im:
            assert im.size == (48, 32)
