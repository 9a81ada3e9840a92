"""PPM round trips, CIFAR record parsing, synthetic determinism, grids."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpeggan import datasets


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

    def test_rejects_an_empty_batch(self, tmp_path):
        path = tmp_path / "grid.ppm"
        with pytest.raises(ValueError, match="at least one image"):
            datasets.write_sample_grid(path, np.zeros((0, 3, 8, 8)))
        assert not path.exists()
