"""Frechet distance against closed forms and streaming-vs-batch agreement."""

import tracemalloc

import numpy as np
import pytest

from jpeggan import codec, fid


def mean_pool_oracle(images):
    """`pixel_features` as first written: numpy's mean over a contiguous copy."""
    n, _, h, w = images.shape
    cells = np.ascontiguousarray(images).reshape(n, 3, 8, h // 8, 8, w // 8)
    return cells.mean(axis=(3, 5)).reshape(n, 192)


def gaussian_features(rng, n, mean, cov_chol):
    z = rng.standard_normal((n, len(mean)))
    return mean + z @ cov_chol.T


class TestClosedForms:
    def test_univariate(self):
        # means 0 and 3, std 1 and 2: 3^2 + (1-2)^2 = 10
        d = fid.frechet_from_moments([0.0], [[1.0]], [3.0], [[4.0]])
        assert abs(d - 10.0) < 1e-12

    def test_identical_moments_zero(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 5))
        cov = a @ a.T + np.eye(5)
        mu = rng.standard_normal(5)
        assert fid.frechet_from_moments(mu, cov, mu, cov) < 1e-10

    def test_translation_only(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4))
        cov = a @ a.T + np.eye(4)
        mu = rng.standard_normal(4)
        shift = np.array([1.0, -2.0, 0.5, 3.0])
        d = fid.frechet_from_moments(mu, cov, mu + shift, cov)
        assert abs(d - shift @ shift) < 1e-8

    def test_diagonal_covariances(self):
        va = np.array([1.0, 4.0, 9.0])
        vb = np.array([4.0, 1.0, 16.0])
        d = fid.frechet_from_moments(np.zeros(3), np.diag(va), np.zeros(3), np.diag(vb))
        want = np.sum((np.sqrt(va) - np.sqrt(vb)) ** 2)
        assert abs(d - want) < 1e-10

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6))
        ca, cb = a @ a.T + np.eye(6), b @ b.T + np.eye(6)
        ma, mb = rng.standard_normal(6), rng.standard_normal(6)
        d1 = fid.frechet_from_moments(ma, ca, mb, cb)
        d2 = fid.frechet_from_moments(mb, cb, ma, ca)
        assert abs(d1 - d2) < 1e-8

    def test_commuting_covariances(self):
        # shared eigenbasis: distance reduces to the diagonal formula
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        va = rng.uniform(0.5, 4.0, 5)
        vb = rng.uniform(0.5, 4.0, 5)
        ca = (q * va) @ q.T
        cb = (q * vb) @ q.T
        d = fid.frechet_from_moments(np.zeros(5), ca, np.zeros(5), cb)
        want = np.sum((np.sqrt(va) - np.sqrt(vb)) ** 2)
        assert abs(d - want) < 1e-8

    def test_rejects_inconsistent_shapes(self):
        with pytest.raises(ValueError):
            fid.frechet_from_moments([0.0, 0.0], np.eye(2), [0.0], np.eye(1))

    def test_rejects_indefinite_matrix(self):
        with pytest.raises(ValueError):
            fid.frechet_from_moments([0.0, 0.0], [[1.0, 0.0], [0.0, -1.0]], [0.0, 0.0], np.eye(2))


class TestStats:
    def test_moments_match_numpy(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((100, 7)) * 3 + 1
        s = fid.FidStats.from_features(x)
        assert np.allclose(s.mean, x.mean(axis=0), atol=1e-12)
        assert np.allclose(s.covariance, np.cov(x, rowvar=False), atol=1e-10)

    def test_estimates_converge(self):
        rng = np.random.default_rng(7)
        chol = np.linalg.cholesky(np.array([[2.0, 0.3], [0.3, 1.0]]))
        x = gaussian_features(rng, 40000, np.array([1.0, -1.0]), chol)
        s = fid.FidStats.from_features(x)
        d = fid.frechet_from_moments(
            s.mean, s.covariance, [1.0, -1.0], chol @ chol.T
        )
        assert d < 0.01

    def test_kept_root_gives_the_moments_distance(self):
        rng = np.random.default_rng(13)
        a = fid.FidStats.from_features(rng.normal(size=(60, 5)))
        b = fid.FidStats.from_features(rng.normal(1.0, 2.0, size=(60, 5)))
        want = fid.frechet_from_moments(a.mean, a.covariance, b.mean, b.covariance)
        assert fid.frechet_distance(a, b) == want
        assert fid.frechet_distance(a, b) == want  # second call reuses a's root
        with pytest.raises(ValueError, match="shapes"):
            fid.frechet_distance(a, fid.FidStats.from_features(rng.normal(size=(9, 4))))

    def test_guards(self):
        for feats, match in [
            (np.zeros((0, 3)), "two samples"),
            (np.zeros((1, 3)), "two samples"),
            (np.zeros((2, 0)), "features"),
            (np.zeros(3), "features"),  # not 2-d
            (np.zeros((2, 3, 1)), "features"),
            (np.full((2, 3), np.nan), "non-finite"),
        ]:
            with pytest.raises(ValueError, match=match):
                fid.FidStats.from_features(feats)

    def test_moments_are_float64_and_checked(self):
        s = fid.FidStats(0.5, 2.0)
        assert s.mean.dtype == s.covariance.dtype == np.float64
        assert s.mean.shape == (1,) and s.covariance.shape == (1, 1)
        for mean, cov, match in [
            (np.zeros((1, 3)), np.eye(3), "mean must be 1-D"),
            (np.zeros((2, 2)), np.eye(2), "mean must be 1-D"),
            (np.zeros(3), np.eye(2), r"covariance shape \(2, 2\) is not \(3, 3\)"),
            (np.zeros(2), np.ones((2, 3)), r"is not \(2, 2\)"),
            (np.zeros(2), np.ones((2, 2, 1)), r"is not \(2, 2\)"),
        ]:
            with pytest.raises(ValueError, match=match):
                fid.FidStats(mean, cov)

    def test_moments_distance_is_the_stats_distance(self):
        rng = np.random.default_rng(17)
        a, b = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        ma, ca, mb, cb = rng.normal(size=4), a @ a.T, rng.normal(size=4), b @ b.T
        want = fid.frechet_distance(fid.FidStats(ma, ca), fid.FidStats(mb, cb))
        assert fid.frechet_from_moments(ma, ca, mb, cb) == want


class TestExtractorsAndSweep:
    def test_pixel_features_shape_and_pooling(self):
        rng = np.random.default_rng(8)
        imgs = rng.uniform(0, 255, size=(3, 3, 32, 32))
        feats = fid.pixel_features(imgs)
        assert feats.shape == (3, 192)
        want = imgs[1, 2, 4:8, 28:32].mean()  # pool cell (1, 7) of channel 2
        assert abs(feats[1, 2 * 64 + 1 * 8 + 7] - want) < 1e-12

    def test_pixel_features_constant_image(self):
        imgs = np.full((2, 3, 16, 16), 77.0)
        assert np.allclose(fid.pixel_features(imgs), 77.0)

    def test_pixel_features_ignore_memory_layout(self):
        x = np.random.default_rng(4).uniform(0, 255, size=(5, 3, 24, 16))
        nhwc = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        want = fid.pixel_features(x)
        for arr in (nhwc, np.asfortranarray(x)):
            assert np.array_equal(fid.pixel_features(arr), want)

    @pytest.mark.parametrize("layout", ["c-order", "channel-planar", "fortran", "cropped-decode"])
    def test_pixel_features_match_contiguous_mean_oracle(self, layout):
        extents = [1, 2, 3, 4, 5, 8, 16]
        rng = np.random.default_rng(15)
        for ph in extents:
            for pw in extents:
                x = rng.uniform(0, 255, size=(3, 3, 8 * ph, 8 * pw))
                if layout == "channel-planar":
                    x = np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
                elif layout == "fortran":
                    x = np.asfortranarray(x)
                elif layout == "cropped-decode":
                    # the sweep's crop of a decoded batch padded to 4:2:0 macroblocks
                    levels = codec._quantize_planes(codec._encode_coefficients(x, "4:2:0"), 75)
                    decoded = codec._decode_levels(*levels, 75, "4:2:0")
                    x = decoded[:, :, : 8 * ph, : 8 * pw]
                got = fid.pixel_features(x)
                assert got.tobytes() == mean_pool_oracle(x).tobytes(), (ph, pw)

    def test_pixel_features_rejects(self):
        with pytest.raises(ValueError):
            fid.pixel_features(np.zeros((2, 1, 16, 16)))
        with pytest.raises(ValueError):
            fid.pixel_features(np.zeros((2, 3, 12, 16)))

    def test_sweep_rows_and_self_distance(self):
        rng = np.random.default_rng(10)
        base = rng.uniform(60, 196, size=(24, 3, 16, 16))
        smooth = np.stack(
            [
                np.stack(
                    [
                        np.kron(img[c, ::4, ::4], np.ones((4, 4)))
                        for c in range(3)
                    ]
                )
                for img in base
            ]
        )
        rows = fid.compression_sweep(smooth, [100, 25], ["4:4:4", "4:2:0"])
        assert [(r[0], r[1]) for r in rows] == [
            (100, "4:4:4"),
            (100, "4:2:0"),
            (25, "4:4:4"),
            (25, "4:2:0"),
        ]
        assert all(np.isfinite(r[2]) and r[2] >= 0 for r in rows)
        # heavier quantization hurts more, in both axes of the grid
        assert rows[2][2] > rows[0][2]
        assert rows[3][2] > rows[2][2]

    @pytest.mark.parametrize(
        "qfs, modes",
        [([100, 75, 50, 0], ["4:4:4", "4:2:0"]), ([75, 50], ["4:2:0", "4:1:1"]), ([101], ["4:4:4"])],
    )
    def test_sweep_checks_every_setting_before_coding(self, monkeypatch, qfs, modes):
        calls = []
        real = codec._encode_coefficients
        monkeypatch.setattr(codec, "_encode_coefficients", lambda *a: calls.append(a) or real(*a))
        images = np.random.default_rng(14).uniform(0, 255, size=(4, 3, 16, 16))
        with pytest.raises(ValueError):
            fid.compression_sweep(images, qfs, modes)
        assert calls == []
        fid.compression_sweep(images, iter([75]), iter(["4:2:0"]))  # iterables are read once
        assert len(calls) == 1

    def test_sweep_rows_match_a_per_setting_loop(self):
        # 130 images leave a last chunk of 2; 24x24 at 4:2:0 needs edge padding
        rng = np.random.default_rng(16)
        smooth = np.kron(rng.uniform(40, 215, size=(130, 3, 6, 6)), np.ones((4, 4)))
        qfs, modes = [50, 90, 50], ["4:2:0", "4:4:4", "4:2:0"]
        reference = fid.FidStats.from_features(fid.pixel_features(smooth))
        want = []
        for qf in qfs:
            for mode in modes:
                feats = []
                for start in range(0, 130, fid._SWEEP_CHUNK):
                    chunk = smooth[start : start + fid._SWEEP_CHUNK]
                    levels = codec._quantize_planes(codec._encode_coefficients(chunk, mode), qf)
                    decoded = codec._decode_levels(*levels, qf, mode)
                    feats.append(fid.pixel_features(decoded[:, :, :24, :24]))
                stats = fid.FidStats.from_features(np.concatenate(feats))
                want.append((qf, mode, fid.frechet_distance(reference, stats)))
        got = fid.compression_sweep(smooth, iter(qfs), iter(modes))
        assert [(qf, mode) for qf, mode, _ in got] == [(qf, mode) for qf, mode, _ in want]
        assert np.array([d for *_, d in got]).tobytes() == np.array([d for *_, d in want]).tobytes()

    def test_sweep_holds_one_modes_planes_at_most(self, monkeypatch):
        # 8 chunks of 32 images: a mode's planes are 8 chunks', so a chunk is
        # the unit the traced sizes are compared in
        monkeypatch.setattr(fid, "_SWEEP_CHUNK", 32)
        images = np.random.default_rng(17).uniform(0, 255, size=(256, 3, 32, 32))
        chunk_bytes = 32 * 3 * 32 * 32 * 8  # one chunk's 4:4:4 coefficient planes
        real = codec._encode_coefficients

        def traced_sweep(qfs, modes):
            """Traced bytes at the start of each chunk's transform, and the peak."""
            at_encode = []

            def encode(chunk, mode):
                at_encode.append((mode, tracemalloc.get_traced_memory()[0]))
                return real(chunk, mode)

            monkeypatch.setattr(codec, "_encode_coefficients", encode)
            tracemalloc.start()
            try:
                fid.compression_sweep(images, qfs, modes)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return at_encode, peak

        # one quality factor: what is held does not grow from chunk to chunk
        at_encode, stream_peak = traced_sweep([75], ["4:4:4"])
        held = [b for _, b in at_encode]
        assert len(held) == 8 and max(held) - held[1] < chunk_bytes
        # more than one: a mode's planes are kept, and gone before the next mode's
        at_encode, one_mode_peak = traced_sweep([75, 50], ["4:4:4"])
        assert at_encode[-1][1] - at_encode[0][1] > 6 * chunk_bytes
        modes = ["4:4:4", "4:2:2", "4:2:0"]
        at_encode, three_mode_peak = traced_sweep([75, 50], modes)
        assert [m for m, _ in at_encode] == [m for m in modes for _ in range(8)]
        # at each mode's first chunk, the covariance root and the last
        # features (0.9 chunks here) are held, and no other mode's planes
        first = [b for i, (_, b) in enumerate(at_encode) if i % 8 == 0]
        assert max(first) - first[0] < 2 * chunk_bytes
        assert three_mode_peak < one_mode_peak + chunk_bytes
        assert one_mode_peak - stream_peak > 6 * chunk_bytes

    def test_sweep_csv(self, tmp_path):
        path = tmp_path / "sweep.csv"
        fid.write_sweep_csv([(100, "4:4:4", 0.125)], path)
        text = path.read_text().strip().splitlines()
        assert text[0] == "quality_factor,mode,fid"
        assert text[1] == "100,4:4:4,0.125"
