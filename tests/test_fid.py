"""Frechet distance against closed forms and streaming-vs-batch agreement."""

import numpy as np
import pytest

from jpeggan import fid


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

    def test_streaming_equals_batch(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((97, 5))
        whole = fid.FidStats.from_features(x)
        chunked = fid.FidStats(5)
        for start in range(0, 97, 13):
            chunked.update(x[start : start + 13])
        assert chunked.count == whole.count
        assert np.allclose(chunked.mean, whole.mean, atol=1e-12)
        assert np.allclose(chunked.covariance, whole.covariance, atol=1e-12)

    def test_merge_equals_batch(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((60, 4))
        a = fid.FidStats.from_features(x[:23])
        b = fid.FidStats.from_features(x[23:])
        a.merge(b)
        whole = fid.FidStats.from_features(x)
        assert a.count == 60
        assert np.allclose(a.covariance, whole.covariance, atol=1e-12)

    def test_estimates_converge(self):
        rng = np.random.default_rng(7)
        chol = np.linalg.cholesky(np.array([[2.0, 0.3], [0.3, 1.0]]))
        x = gaussian_features(rng, 40000, np.array([1.0, -1.0]), chol)
        s = fid.FidStats.from_features(x)
        d = fid.frechet_from_moments(
            s.mean, s.covariance, [1.0, -1.0], chol @ chol.T
        )
        assert d < 0.01

    def test_guards(self):
        s = fid.FidStats(3)
        with pytest.raises(ValueError):
            _ = s.mean
        s.update(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            _ = s.covariance
        with pytest.raises(ValueError):
            s.update(np.zeros((2, 4)))
        with pytest.raises(ValueError):
            s.update(np.full((1, 3), np.nan))
        with pytest.raises(ValueError):
            s.merge(fid.FidStats(4))


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

    def test_sweep_csv(self, tmp_path):
        path = tmp_path / "sweep.csv"
        fid.write_sweep_csv([(100, "4:4:4", 0.125)], path)
        text = path.read_text().strip().splitlines()
        assert text[0] == "quality_factor,mode,fid"
        assert text[1] == "100,4:4:4,0.125"
