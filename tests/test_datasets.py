"""PPM round trips, CIFAR record parsing, synthetic determinism, grids."""

import hashlib
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpeggan import datasets
from jpeggan.rng import RngStreams


class TestPpm:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(12, 9, 3)).astype(np.float32)
        path = tmp_path / "x.ppm"
        datasets.write_ppm(path, img)
        assert np.array_equal(datasets.read_ppm(path), img)

    def test_header_comments(self, tmp_path):
        path = tmp_path / "c.ppm"
        body = bytes(range(2 * 1 * 3))
        path.write_bytes(b"P6\n# a comment\n2 1\n# another\n255\n" + body)
        img = datasets.read_ppm(path)
        assert img.shape == (1, 2, 3)
        assert img[0, 1, 2] == 5.0

    @pytest.mark.parametrize("header", [
        b"P6\n2#c\n1\n255\n",  # a comment glued to a token ends it
        b"P6\n2 1\n255#c\n",  # the raster starts after the comment's line
        b"P6\t2\r1\t\r255\r",  # tab and CR separate like spaces
    ], ids=["comment-glued", "comment-after-maxval", "tab-and-cr"])
    def test_header_forms(self, tmp_path, header):
        path = tmp_path / "h.ppm"
        path.write_bytes(header + bytes(range(2 * 1 * 3)))
        img = datasets.read_ppm(path)
        assert img.shape == (1, 2, 3)
        assert np.array_equal(img, np.arange(6.0).reshape(1, 2, 3))

    def test_header_cut_inside_a_comment(self, tmp_path):
        path = tmp_path / "cut.ppm"
        path.write_bytes(b"P6\n2 1\n# the maxval never comes")
        with pytest.raises(ValueError, match=r"bad header: truncated header$"):
            datasets.read_ppm(path)

    def test_maxval_rescale(self, tmp_path):
        path = tmp_path / "m.ppm"
        path.write_bytes(b"P6\n1 1\n100\n" + bytes([0, 50, 100]))
        img = datasets.read_ppm(path)
        assert np.allclose(img[0, 0], [0.0, 127.5, 255.0])

    def test_sixteen_bit_samples(self, tmp_path):
        path = tmp_path / "w.ppm"
        samples = np.array([0, 30000, 65535], dtype=">u2").tobytes()
        path.write_bytes(b"P6\n1 1\n65535\n" + samples)
        img = datasets.read_ppm(path)
        assert abs(img[0, 0, 2] - 255.0) < 1e-4
        assert abs(img[0, 0, 1] - 255.0 * 30000 / 65535) < 1e-3

    def test_errors(self, tmp_path):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(ValueError):
            datasets.read_ppm(bad)
        short = tmp_path / "short.ppm"
        short.write_bytes(b"P6\n2 2\n255\n\x00\x01")
        with pytest.raises(ValueError):
            datasets.read_ppm(short)
        with pytest.raises(ValueError):
            datasets.write_ppm(tmp_path / "o.ppm", np.full((2, 2, 3), 300.0))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_write_rejects_a_non_finite_pixel(self, tmp_path, value):
        path = tmp_path / "n.ppm"
        img = np.full((2, 2, 3), 100.0)
        img[1, 0, 2] = value
        with pytest.raises(ValueError, match="outside"):
            datasets.write_ppm(path, img)
        assert not path.exists()

    @pytest.mark.parametrize("shape, extent", [((0, 4, 3), "4x0"), ((4, 0, 3), "0x4")])
    def test_write_rejects_an_empty_extent(self, tmp_path, shape, extent):
        path = tmp_path / "e.ppm"
        with pytest.raises(ValueError, match=f"empty image extent {extent}"):
            datasets.write_ppm(path, np.zeros(shape))
        assert not path.exists()

    @pytest.mark.parametrize("extent", [b"100000000000000000000 1", b"4000000000 4000", b"3 3"])
    def test_header_claims_more_samples_than_the_file_holds(self, tmp_path, extent):
        path = tmp_path / "huge.ppm"
        path.write_bytes(b"P6\n" + extent + b"\n255\n" + bytes(26))
        with pytest.raises(ValueError, match="sample bytes"):
            datasets.read_ppm(path)


VALID_PPM = b"P6\n# a comment\n4 3\n255\n" + bytes(range(0, 36 * 7, 7))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(0, len(VALID_PPM) - 1), st.integers(0, 255)), min_size=1, max_size=3))
def test_corrupt_ppm_raises_only_value_error(edits):
    data = bytearray(VALID_PPM)
    for pos, value in edits:
        data[pos] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "corrupt.ppm")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            img = datasets.read_ppm(path)
        except ValueError:
            return
    assert img.ndim == 3 and img.shape[2] == 3
    assert img.min() >= 0.0 and img.max() <= 255.0


CIFAR_RECORD = 1 + 3 * 32 * 32
VALID_CIFAR = (np.arange(3 * CIFAR_RECORD) * 37 % 256).astype(np.uint8).tobytes()


class TestCifar:
    def test_parses_records(self, tmp_path):
        r = np.arange(3072, dtype=np.uint8)
        g = (np.arange(3072) * 7 % 256).astype(np.uint8)
        path = tmp_path / "batch.bin"
        path.write_bytes(bytes([3]) + r.tobytes() + bytes([7]) + g.tobytes())
        out = datasets.load_cifar_batch(path)
        assert out.shape == (2, 3, 32, 32)
        assert out[0, 0, 0, 5] == 5.0  # red plane comes first, row-major
        assert out[0, 1, 0, 0] == 0.0  # green plane starts at offset 1024
        assert out[1, 0, 0, 1] == 7.0
        assert datasets.load_cifar_batch(path, count=1).shape == (1, 3, 32, 32)

    def test_rejects_ragged_file(self, tmp_path):
        path = tmp_path / "ragged.bin"
        path.write_bytes(b"\x00" * 3000)
        with pytest.raises(ValueError):
            datasets.load_cifar_batch(path)

    def test_rejects_negative_count(self, tmp_path):
        path = tmp_path / "batch.bin"
        path.write_bytes(bytes(CIFAR_RECORD))
        with pytest.raises(ValueError, match="non-negative"):
            datasets.load_cifar_batch(path, count=-1)
        assert datasets.load_cifar_batch(path, count=0).shape == (0, 3, 32, 32)

    @pytest.mark.parametrize("cut", [1, CIFAR_RECORD - 1, CIFAR_RECORD + 1, 3 * CIFAR_RECORD - 1])
    def test_truncated_inside_a_record_is_rejected(self, tmp_path, cut):
        path = tmp_path / "cut.bin"
        path.write_bytes(VALID_CIFAR[:cut])
        with pytest.raises(ValueError, match="records"):
            datasets.load_cifar_batch(path)

    @pytest.mark.parametrize("records", [1, 2])
    def test_truncated_on_a_record_boundary_loads_those_records(self, tmp_path, records):
        path = tmp_path / "cut.bin"
        path.write_bytes(VALID_CIFAR[: records * CIFAR_RECORD])
        whole = tmp_path / "whole.bin"
        whole.write_bytes(VALID_CIFAR)
        out = datasets.load_cifar_batch(path)
        assert out.shape == (records, 3, 32, 32)
        assert np.array_equal(out, datasets.load_cifar_batch(whole)[:records])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(0, len(VALID_CIFAR) - 1), st.integers(0, 255)), min_size=1, max_size=3))
def test_corrupt_cifar_bytes_still_load(edits):
    # every byte value is a valid label or sample, so a same-size file always loads
    data = bytearray(VALID_CIFAR)
    for pos, value in edits:
        data[pos] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "corrupt.bin")
        with open(path, "wb") as fh:
            fh.write(data)
        out = datasets.load_cifar_batch(path)
    assert out.shape == (3, 3, 32, 32) and out.dtype == np.float32
    assert out.min() >= 0.0 and out.max() <= 255.0


def _oracle_soft_disc(size, cy, cx, radius, sharpness):
    yy, xx = np.mgrid[0:size, 0:size]
    dist = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)
    return 1.0 / (1.0 + np.exp(np.clip((dist - radius) * sharpness, -30, 30)))


def _oracle_image(gen, size):
    """The corpus generator as first written: one image, one scalar draw at a time."""
    yy, xx = np.mgrid[0:size, 0:size] / float(size)
    img = np.empty((3, size, size))
    top, bottom = gen.uniform(40, 215, size=(2, 3))
    for c in range(3):
        img[c] = top[c] + (bottom[c] - top[c]) * yy
    ang = gen.uniform(0, 2 * np.pi)
    ripple = gen.uniform(0, 25) * np.sin(
        2 * np.pi * gen.uniform(0.5, 2.0) * (np.cos(ang) * xx + np.sin(ang) * yy)
    )
    img += ripple
    for _ in range(int(gen.integers(2, 5))):
        mask = _oracle_soft_disc(
            size,
            gen.uniform(0, size),
            gen.uniform(0, size),
            gen.uniform(size / 10, size / 3),
            gen.uniform(0.8, 4.0),
        )
        color = gen.uniform(20, 235, size=3)
        img = img * (1 - mask) + color[:, None, None] * mask
    if gen.uniform() < 0.5:
        row = int(gen.integers(size // 4, 3 * size // 4))
        shade = gen.uniform(0.4, 0.9)
        img[:, row:, :] *= shade
    img += gen.normal(0, 1.5, size=img.shape)
    return np.clip(img, 0, 255).astype(np.float32)


def _oracle_dataset(seed, count, size):
    streams = RngStreams(seed)
    return np.stack([_oracle_image(streams.spawn("synthetic-image", i), size) for i in range(count)])


class TestSyntheticBytes:
    """The chunked corpus writes the bytes of the one-image-at-a-time generator."""

    # (0, 1, 16) a lone image; (5, 65, 32) one image past a 64-image chunk
    @pytest.mark.parametrize("seed, count, size", [(0, 1, 16), (5, 65, 32), (42, 130, 32), (3, 7, 48), (9, 4, 64)])
    def test_matches_the_per_image_oracle(self, seed, count, size):
        out = datasets.synthetic_dataset(seed, count, size)
        assert out.dtype == np.float32
        assert out.tobytes() == _oracle_dataset(seed, count, size).tobytes()

    @pytest.mark.parametrize("seed, count, size, digest", [
        (0, 256, 32, "3e50594900926fd9d0ee94284550f9af66fcb09fdd5f84a126f11b48eed34943"),
        (7, 1000, 32, "6155911da01d2f7ba29dda17109916b5fb5ce1e8ec61c989039f50412159e718"),
        (3, 5, 64, "d39223037979cd51ad404dd52c3c01304b162411d959d87f37d3e4a3a074fcb9"),
        (11, 3, 16, "54aaee5c39642388814154692e95160d113e3fa974160e802e80874961eba2f2"),
    ])
    def test_pinned_digests(self, seed, count, size, digest):
        out = datasets.synthetic_dataset(seed, count, size)
        assert hashlib.sha256(out.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("lo, hi", [
        (40, 215), (0, 2 * np.pi), (0, 25), (0.5, 2.0), (0.8, 4.0), (20, 235), (0.4, 0.9),
        *((lo, hi) for size in (16, 32, 48, 64) for lo, hi in ((0, size), (size / 10, size / 3))),
    ])
    def test_uniform_is_an_affine_map_of_random(self, lo, hi):
        # the corpus rebuilds uniforms from blocks of doubles; a numpy release
        # that changes `uniform`'s formula changes every image
        a, b = np.random.default_rng(123), np.random.default_rng(123)
        assert a.uniform(lo, hi, 4096).tobytes() == (lo + (hi - lo) * b.random(4096)).tobytes()
        assert a.uniform(lo, hi) == lo + (hi - lo) * b.random()


class TestSynthetic:
    def test_shape_range_dtype(self):
        out = datasets.synthetic_dataset(0, 4, size=32)
        assert out.shape == (4, 3, 32, 32)
        assert out.dtype == np.float32
        assert out.min() >= 0 and out.max() <= 255

    def test_deterministic_and_index_stable(self):
        a = datasets.synthetic_dataset(42, 5)
        b = datasets.synthetic_dataset(42, 5)
        assert np.array_equal(a, b)
        # image i depends only on (seed, i): shrinking the corpus keeps it
        c = datasets.synthetic_dataset(42, 3)
        assert np.array_equal(a[:3], c)
        d = datasets.synthetic_dataset(43, 5)
        assert not np.array_equal(a, d)

    def test_images_differ_and_have_structure(self):
        out = datasets.synthetic_dataset(1, 8)
        flat = out.reshape(8, -1)
        assert len({arr.tobytes() for arr in flat}) == 8
        assert all(flat[i].std() > 5 for i in range(8))

    def test_size_64(self):
        out = datasets.synthetic_dataset(0, 2, size=64)
        assert out.shape == (2, 3, 64, 64)
        with pytest.raises(ValueError):
            datasets.synthetic_dataset(0, 2, size=24)

    @pytest.mark.parametrize("size", [0, -16, 24])
    def test_size_must_be_a_positive_multiple_of_16(self, size):
        with pytest.raises(ValueError, match="size must be a positive multiple of 16"):
            datasets.synthetic_dataset(0, 2, size=size)


class TestLoadDataset:
    def test_dispatches(self, tmp_path):
        syn = datasets.load_dataset("synthetic", count=3, size=32, seed=9)
        assert syn.shape == (3, 3, 32, 32)

        d = tmp_path / "imgs"
        d.mkdir()
        rng = np.random.default_rng(1)
        for i in range(3):
            datasets.write_ppm(
                d / f"{i}.ppm", rng.integers(0, 256, size=(16, 16, 3)).astype(float)
            )
        out = datasets.load_dataset(str(d), count=2)
        assert out.shape == (2, 3, 16, 16)

        with pytest.raises(ValueError):
            datasets.load_dataset(str(tmp_path / "missing.xyz"))

    def test_rejects_mixed_shapes(self, tmp_path):
        d = tmp_path / "imgs"
        d.mkdir()
        datasets.write_ppm(d / "a.ppm", np.zeros((8, 8, 3)))
        datasets.write_ppm(d / "b.ppm", np.zeros((16, 8, 3)))
        with pytest.raises(ValueError):
            datasets.load_dataset(str(d))


class TestSampleGrid:
    def test_geometry_and_content(self, tmp_path):
        rng = np.random.default_rng(2)
        imgs = rng.integers(0, 256, size=(5, 3, 8, 8)).astype(np.float32)
        path = tmp_path / "grid.ppm"
        datasets.write_sample_grid(path, imgs, cols=3)
        grid = datasets.read_ppm(path)
        assert grid.shape == (2 * 8 + 2, 3 * 8 + 2 * 2, 3)
        assert np.array_equal(grid[:8, :8], imgs[0].transpose(1, 2, 0))
        assert np.array_equal(grid[10:, 10:18], imgs[4].transpose(1, 2, 0))
        assert np.all(grid[8:10, :] == 0)  # the separator rule
        assert np.all(grid[10:, 18:] == 0)  # an empty cell stays background

    @pytest.mark.parametrize("cols", [0, -1])
    def test_rejects_fewer_than_one_column(self, tmp_path, cols):
        path = tmp_path / "grid.ppm"
        with pytest.raises(ValueError, match="column"):
            datasets.write_sample_grid(path, np.zeros((2, 3, 8, 8)), cols=cols)
        assert not path.exists()

    def test_rejects_a_nan_pixel(self, tmp_path):
        path = tmp_path / "grid.ppm"
        imgs = np.zeros((2, 3, 8, 8))
        imgs[1, 0, 2, 2] = np.nan
        with pytest.raises(ValueError, match="outside"):
            datasets.write_sample_grid(path, imgs)
        assert not path.exists()

    def test_rejects_an_empty_batch(self, tmp_path):
        path = tmp_path / "grid.ppm"
        with pytest.raises(ValueError, match="at least one image"):
            datasets.write_sample_grid(path, np.zeros((0, 3, 8, 8)))
        assert not path.exists()
