"""Network construction, output validity, anchor extraction, serialization."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpeggan import networks as N
from jpeggan import tensor as T
from jpeggan.jpeg import mode_factors, quant_matrices
from jpeggan.tensor import Tensor


def small_spec(**kw):
    base = dict(
        latent_dim=8,
        resolution=32,
        base_channels=8,
        path_channels=2,
        mode="4:2:0",
        quality_factor=50,
    )
    base.update(kw)
    return N.GeneratorSpec(**base)


class TestShapes:
    def test_generator_output_shapes(self):
        rng = np.random.default_rng(0)
        for mode in ("4:4:4", "4:2:2", "4:2:0"):
            gen = N.Generator(small_spec(mode=mode), rng)
            z = Tensor(rng.normal(size=(2, 8)))
            out = gen.forward(z)
            fv, fh = mode_factors(mode)
            assert out.y.shape == (2, 1, 32, 32)
            assert out.cb.shape == (2, 1, 32 // fv, 32 // fh)
            assert out.cr.shape == out.cb.shape

    def test_resolution_64(self):
        rng = np.random.default_rng(1)
        gen = N.Generator(small_spec(resolution=64), rng)
        out = gen.forward(Tensor(rng.normal(size=(1, 8))))
        assert out.y.shape == (1, 1, 64, 64)

    def test_anchor_output_range_and_shape(self):
        rng = np.random.default_rng(2)
        anchor = N.AnchorGenerator(small_spec(), rng)
        img = anchor.forward(Tensor(rng.normal(size=(3, 8)))).data
        assert img.shape == (3, 3, 32, 32)
        assert img.min() >= 0.0 and img.max() <= 255.0

    def test_discriminator_scores(self):
        rng = np.random.default_rng(3)
        d = N.Discriminator(N.DiscriminatorSpec(resolution=32, base_channels=8), rng)
        x = Tensor(rng.uniform(0, 255, size=(4, 3, 32, 32)))
        s = d.forward(x)
        assert s.shape == (4,)
        f = d.features(x)
        assert f.shape == (4, d.feature_dim)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            small_spec(resolution=48).validate()
        with pytest.raises(ValueError):
            small_spec(base_channels=7).validate()
        with pytest.raises(ValueError):
            small_spec(mode="4:1:1").validate()
        with pytest.raises(ValueError):
            small_spec(quality_factor=0).validate()


class TestChannelHalving:
    def test_generator_plan(self):
        rng = np.random.default_rng(4)
        g16 = N.Generator(small_spec(base_channels=16), rng)
        g4 = N.Generator(small_spec(base_channels=4), rng)
        # widths halve per upsampling stage, floored at 2
        assert g16.channel_plan == [16, 8, 4, 2]
        assert g4.channel_plan == [4, 2, 2, 2]
        assert g16.trunk.width == 16 and g4.trunk.width == 4
        # resolution moves the starting grid, not the widths
        g64 = N.Generator(small_spec(resolution=64, base_channels=16), rng)
        assert g64.channel_plan == g16.channel_plan
        assert g64.trunk.start == 2 * g16.trunk.start

    def test_discriminator_plan(self):
        rng = np.random.default_rng(5)
        d64 = N.Discriminator(N.DiscriminatorSpec(64, 16), rng)
        d32 = N.Discriminator(N.DiscriminatorSpec(32, 16), rng)
        assert d64.channel_plan == [16, 16, 16, 16]
        assert d32.channel_plan == [8, 8, 8, 16]
        assert d32.final_spatial == 2 and d64.final_spatial == 4

    def test_six_local_layers_two_subsamplers(self):
        rng = np.random.default_rng(6)
        gen = N.Generator(small_spec(), rng)
        locals_ = [gen.path_y.loc1, gen.path_y.loc2, gen.path_cb.loc1,
                   gen.path_cb.loc2, gen.path_cr.loc1, gen.path_cr.loc2]
        assert len(locals_) == 6
        assert gen.path_y.subsample is None
        assert gen.path_cb.subsample is not None and gen.path_cr.subsample is not None


class TestOutputValidity:
    def test_random_latents_give_valid_encodings(self):
        rng = np.random.default_rng(7)
        gen = N.Generator(small_spec(), rng)
        z = Tensor(rng.normal(size=(4, 8)) * 10.0)  # deliberately large latents
        out = gen.forward(z)
        for img in N.to_encoded_images(out):
            img.validate()

    def test_levels_are_integral(self):
        rng = np.random.default_rng(8)
        gen = N.Generator(small_spec(), rng)
        out = gen.forward(Tensor(rng.normal(size=(2, 8))))
        for plane in out.planes():
            assert np.array_equal(plane.data, np.round(plane.data))

    def test_amplitude_clamp_respected(self):
        rng = np.random.default_rng(9)
        gen = N.Generator(small_spec(quality_factor=100), rng)
        # blow up the second local layer so the clamp must engage
        gen.path_y.loc2.w.data[...] *= 1e6
        out = gen.forward(Tensor(rng.normal(size=(2, 8))))
        ql, _ = quant_matrices(100)
        assert np.max(np.abs(out.y.data)) <= 1024 + 8  # |c| <= limit/Q + 0.5
        for img in N.to_encoded_images(out):
            img.validate()


class TestAnchor:
    def test_extract_copies_and_freezes(self):
        rng = np.random.default_rng(10)
        gen = N.Generator(small_spec(), rng)
        anchor = N.extract_anchor(gen)
        src = gen.trunk.params()
        for name, p in anchor.trunk.params().items():
            assert np.array_equal(p.data, src[name].data)
            assert not p.requires_grad
            assert p.data is not src[name].data  # a copy, not a view

    def test_trunk_param_shapes_match(self):
        rng = np.random.default_rng(11)
        gen = N.Generator(small_spec(), rng)
        anchor = N.AnchorGenerator(small_spec(), rng)
        gp = gen.trunk.params()
        ap = anchor.trunk.params()
        assert set(gp) == set(ap)
        for k in gp:
            assert gp[k].shape == ap[k].shape

    def test_gradient_flows_through_generator_not_anchor(self):
        rng = np.random.default_rng(12)
        gen = N.Generator(small_spec(), rng)
        anchor = N.extract_anchor(gen)
        z = Tensor(rng.normal(size=(2, 8)))
        img = anchor.forward(z)
        assert not img.requires_grad
        out = gen.forward(z)
        assert out.y.requires_grad


class TestDeterminism:
    def test_same_seed_same_weights(self):
        g1 = N.Generator(small_spec(), np.random.default_rng(42))
        g2 = N.Generator(small_spec(), np.random.default_rng(42))
        for (k1, v1), (k2, v2) in zip(sorted(g1.params().items()), sorted(g2.params().items())):
            assert k1 == k2
            assert np.array_equal(v1.data, v2.data)

    def test_forward_deterministic(self):
        rng = np.random.default_rng(13)
        gen = N.Generator(small_spec(), np.random.default_rng(7))
        z = rng.normal(size=(2, 8))
        a = gen.forward(Tensor(z.copy()))
        b = gen.forward(Tensor(z.copy()))
        assert np.array_equal(a.y.data, b.y.data)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(14)
        gen = N.Generator(small_spec(), rng)
        path = str(tmp_path / "gen.params")
        N.save_params(path, gen.params())
        loaded = N.load_params(path)
        for name, p in gen.params().items():
            assert np.array_equal(loaded[name], p.data)
            assert loaded[name].dtype == p.data.dtype

    def test_apply_params(self, tmp_path):
        rng = np.random.default_rng(15)
        g1 = N.Generator(small_spec(), np.random.default_rng(1))
        g2 = N.Generator(small_spec(), np.random.default_rng(2))
        path = str(tmp_path / "p.params")
        N.save_params(path, g1.params())
        N.apply_params(g2, N.load_params(path))
        z = Tensor(rng.normal(size=(1, 8)))
        assert np.array_equal(g1.forward(z).y.data, g2.forward(z).y.data)

    def test_mixed_dtypes_roundtrip(self, tmp_path):
        path = str(tmp_path / "mixed.params")
        arrays = {
            "a": np.arange(6, dtype=np.float32).reshape(2, 3),
            "b": np.arange(4, dtype=np.int64),
            "c": np.array(3.5, dtype=np.float64),
        }
        N.save_params(path, arrays)
        loaded = N.load_params(path)
        for k, v in arrays.items():
            assert np.array_equal(loaded[k], v)
            assert loaded[k].dtype == v.dtype

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.params"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            N.load_params(str(path))

    def test_truncated(self, tmp_path):
        path = tmp_path / "t.params"
        N.save_params(str(path), {"w": np.ones((4, 4))})
        blob = path.read_bytes()
        for cut in (8, len(blob) - 6):  # inside the data, inside the header
            path.write_bytes(blob[:-cut])
            with pytest.raises(ValueError):
                N.load_params(str(path))

    def test_trailing_garbage(self, tmp_path):
        path = str(tmp_path / "g.params")
        N.save_params(path, {"w": np.ones(3)})
        with open(path, "ab") as f:
            f.write(b"extra")
        with pytest.raises(ValueError, match="trailing"):
            N.load_params(path)

    def test_shape_mismatch_on_apply(self, tmp_path):
        g1 = N.Generator(small_spec(), np.random.default_rng(1))
        g2 = N.Generator(small_spec(base_channels=16), np.random.default_rng(2))
        path = str(tmp_path / "p.params")
        N.save_params(path, g1.params())
        with pytest.raises(ValueError, match="shape"):
            N.apply_params(g2, N.load_params(path))


def _container_bytes(arrays) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "valid.params")
        N.save_params(path, arrays)
        with open(path, "rb") as fh:
            return fh.read()


VALID_PARAMS = _container_bytes(
    {
        "w": np.arange(6, dtype=np.float32).reshape(2, 3),
        "b": np.arange(4, dtype=np.int64),
        "step": np.array(3.5, dtype=np.float64),
    }
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(0, len(VALID_PARAMS) - 1), st.integers(0, 255)), min_size=1, max_size=3))
def test_corrupt_container_raises_only_value_error(edits):
    data = bytearray(VALID_PARAMS)
    for pos, value in edits:
        data[pos] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "corrupt.params")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            N.load_params(path)
        except ValueError:
            pass
