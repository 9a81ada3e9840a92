"""Acceptance gate: the package's shipping criteria, one test per criterion.

Each test prints a single verdict line (visible with -v as the test's own
PASS/FAIL, and echoed with details on stdout) and pins the tolerance it
enforces. These are end-to-end checks against independent oracles computed
inside this file; they intentionally re-derive expected values rather than
import them from the package.
"""

import io
import os
import time

import numpy as np
import pytest

import jpeggan.tensor as T
from jpeggan import codec, datasets, fid, jfif, jpeg, networks, training
from jpeggan.layers import (
    ChromaSubsample,
    Conv2d,
    Linear,
    LocallyConnected,
    Quantization,
    ResidualBlock,
)
from jpeggan.rng import RngStreams
from jpeggan.tensor import Tensor

try:
    import PIL.Image as PIL
except ImportError:  # only the external-decoder half of test 6 needs Pillow
    PIL = None


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# The quantization tables every baseline-JPEG encoder ships, frozen here as
# an oracle independent of the package's own constants.
Q50_LUMA = np.array([
    [16, 11, 10, 16, 24, 40, 51, 61],
    [12, 12, 14, 19, 26, 58, 60, 55],
    [14, 13, 16, 24, 40, 57, 69, 56],
    [14, 17, 22, 29, 51, 87, 80, 62],
    [18, 22, 37, 56, 68, 109, 103, 77],
    [24, 35, 55, 64, 81, 104, 113, 92],
    [49, 64, 78, 87, 103, 121, 120, 101],
    [72, 92, 95, 98, 112, 100, 103, 99],
])
Q50_CHROMA = np.array([
    [17, 18, 24, 47, 99, 99, 99, 99],
    [18, 21, 26, 66, 99, 99, 99, 99],
    [24, 26, 56, 99, 99, 99, 99, 99],
    [47, 66, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
])


class TestQuantizationTables:
    def test_1_quant_matrices_exact(self):
        t0 = time.time()
        ql50, qc50 = jpeg.quant_matrices(50)
        ql100, qc100 = jpeg.quant_matrices(100)
        ql25, qc25 = jpeg.quant_matrices(25)
        ok = (
            np.array_equal(ql50, Q50_LUMA)
            and np.array_equal(qc50, Q50_CHROMA)
            and np.array_equal(ql100, np.ones((8, 8)))
            and np.array_equal(qc100, np.ones((8, 8)))
            and np.array_equal(ql25, 2 * Q50_LUMA)
            and np.array_equal(qc25, 2 * Q50_CHROMA)
        )
        _verdict(
            "quantization-tables",
            ok and time.time() - t0 < 1.0,
            f"q50/q100/q25 integer-exact in {time.time() - t0:.2f}s (limit 1s)",
        )


class TestBlockTransform:
    def test_2_dct_against_direct_summation(self):
        t0 = time.time()
        rng = np.random.default_rng(2024)
        blocks = rng.uniform(-128, 128, size=(10_000, 8, 8))

        got = jpeg.dct8x8(blocks)

        # direct O(N^4) definition, one frequency pair at a time
        ii = (2.0 * np.arange(8) + 1.0) * np.pi / 16.0
        alpha = np.ones(8)
        alpha[0] = 1.0 / np.sqrt(2.0)
        want = np.empty_like(got)
        for u in range(8):
            for v in range(8):
                basis = np.outer(np.cos(ii * u), np.cos(ii * v))
                want[:, u, v] = 0.25 * alpha[u] * alpha[v] * np.sum(
                    blocks * basis, axis=(1, 2)
                )
        err_fwd = np.max(np.abs(got - want))

        err_inv = np.max(np.abs(jpeg.idct8x8(got) - blocks))
        elapsed = time.time() - t0
        _verdict(
            "block-transform",
            err_fwd < 1e-10 and err_inv < 1e-10 and elapsed < 10.0,
            f"10k blocks: fwd err {err_fwd:.2e}, inverse err {err_inv:.2e} "
            f"(tol 1e-10) in {elapsed:.1f}s (limit 10s)",
        )


class TestLocallyConnected:
    @staticmethod
    def brute_force(x, w, b, bh, bw, cin, cout):
        n, _, h, wd = x.shape
        out = np.zeros((n, cout, h, wd))
        for ti in range(h // bh):
            for tj in range(wd // bw):
                tile = x[:, :, ti * bh : (ti + 1) * bh, tj * bw : (tj + 1) * bw]
                flat = tile.reshape(n, cin * bh * bw)
                res = flat @ w + b
                out[:, :, ti * bh : (ti + 1) * bh, tj * bw : (tj + 1) * bw] = res.reshape(
                    n, cout, bh, bw
                )
        return out

    def test_3_matches_per_tile_dense_oracle(self):
        t0 = time.time()
        rng = np.random.default_rng(7)
        worst = 0.0
        worst_conv = 0.0
        for case in range(200):
            b = int(rng.choice([1, 2, 8]))
            cin = int(rng.integers(1, 9))
            cout = int(rng.integers(1, 9))
            h = b * int(rng.integers(1, 32 // b + 1))
            w = b * int(rng.integers(1, 32 // b + 1))
            n = int(rng.integers(1, 3))
            layer = LocallyConnected(b, b, cin, cout, rng)
            layer.w.data = rng.standard_normal(layer.w.shape)
            layer.b.data = rng.standard_normal(layer.b.shape)
            x = rng.standard_normal((n, cin, h, w))
            got = layer.forward(Tensor(x)).data
            want = self.brute_force(x, layer.w.data, layer.b.data, b, b, cin, cout)
            worst = max(worst, float(np.max(np.abs(got - want))))

            if b == 1:  # tile size 1x1 must equal a 1x1 convolution
                conv = Conv2d(cin, cout, 1, rng)
                conv.w.data = layer.w.data.T.reshape(cout, cin, 1, 1).copy()
                conv.b.data = layer.b.data.copy()
                via_conv = conv.forward(Tensor(x)).data
                worst_conv = max(worst_conv, float(np.max(np.abs(got - via_conv))))
        elapsed = time.time() - t0
        _verdict(
            "locally-connected",
            worst < 1e-12 and worst_conv < 1e-12 and elapsed < 30.0,
            f"200 configs: oracle err {worst:.2e}, 1x1-vs-conv err {worst_conv:.2e} "
            f"(tol 1e-12) in {elapsed:.1f}s (limit 30s)",
        )


def _central_diff_check(params, forward, rng, rel_tol=1e-4, h=1e-6):
    """Max relative error between autodiff and central differences.

    `forward()` must rebuild the graph from the current parameter values.
    The loss is a fixed random projection of the output, which keeps the
    scalar sensitive to every output element.
    """
    out = forward()
    proj = Tensor(rng.standard_normal(out.shape))
    loss = T.sum_all(T.mul(out, proj))
    grads = T.grad(loss, params)

    def loss_value():
        return float(T.sum_all(T.mul(forward(), proj)).data)

    worst = 0.0
    for p, g in zip(params, grads):
        flat = p.data.reshape(-1)
        idx = rng.choice(flat.size, size=min(5, flat.size), replace=False)
        for i in idx:
            keep = flat[i]
            flat[i] = keep + h
            up = loss_value()
            flat[i] = keep - h
            down = loss_value()
            flat[i] = keep
            fd = (up - down) / (2 * h)
            scale = max(abs(fd), abs(float(g.data.reshape(-1)[i])), 1e-8)
            worst = max(worst, abs(fd - float(g.data.reshape(-1)[i])) / scale)
    return worst


class TestGradients:
    def test_4_every_layer_matches_finite_differences(self):
        t0 = time.time()
        rng = np.random.default_rng(5)
        worst = {}

        x = Tensor(rng.standard_normal((2, 3, 8, 8)), requires_grad=True)
        conv = Conv2d(3, 4, 3, rng)
        worst["conv"] = _central_diff_check(
            [x, conv.w, conv.b], lambda: conv.forward(x), rng
        )

        xl = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
        lin = Linear(6, 4, rng)
        worst["linear"] = _central_diff_check(
            [xl, lin.w, lin.b], lambda: lin.forward(xl), rng
        )

        xr = Tensor(rng.standard_normal((2, 3, 8, 8)), requires_grad=True)
        for resample in (None, "up", "down"):
            blk = ResidualBlock(3, 4, rng, resample=resample)
            ps = [xr] + list(blk.params().values())
            worst[f"residual-{resample}"] = _central_diff_check(
                ps, lambda b=blk: b.forward(xr), rng
            )

        xc = Tensor(rng.standard_normal((2, 2, 8, 8)), requires_grad=True)
        loc = LocallyConnected(2, 2, 2, 3, rng)
        worst["locally-connected"] = _central_diff_check(
            [xc, loc.w, loc.b], lambda: loc.forward(xc), rng
        )

        for mode in ("4:2:2", "4:2:0"):
            xs = Tensor(rng.standard_normal((2, 1, 8, 8)), requires_grad=True)
            sub = ChromaSubsample(mode)
            worst[f"subsample-{mode}"] = _central_diff_check(
                [xs], lambda s=sub, x=xs: s.forward(x), rng
            )

        # decoder transform: quantized planes -> pixels. Amplitudes are kept
        # small so no sample lands within h of the clip boundary, which the
        # check excludes by construction.
        for mode in ("4:4:4", "4:2:0"):
            fh, fw = jpeg.mode_factors(mode)
            y = Tensor(rng.uniform(-3, 3, (2, 1, 16, 16)), requires_grad=True)
            cb = Tensor(rng.uniform(-2, 2, (2, 1, 16 // fh, 16 // fw)), requires_grad=True)
            cr = Tensor(rng.uniform(-2, 2, (2, 1, 16 // fh, 16 // fw)), requires_grad=True)
            worst[f"decoder-{mode}"] = _central_diff_check(
                [y, cb, cr],
                lambda y=y, cb=cb, cr=cr, m=mode: codec.decode_planes(y, cb, cr, 75, m),
                rng,
            )

        # rounding layer: backward must be exactly elementwise 1/Q
        q = jpeg.quant_matrices(60)[0]
        quant = Quantization(q)
        xq = Tensor(rng.uniform(-400, 400, (2, 1, 16, 16)), requires_grad=True)
        out = quant.forward(xq)
        (gq,) = T.grad(T.sum_all(out), [xq])
        want = np.tile(1.0 / q, (2, 2))[None, None]
        ste_exact = np.array_equal(gq.data, np.broadcast_to(want, gq.shape))

        bad = {k: v for k, v in worst.items() if v >= 1e-4}
        elapsed = time.time() - t0
        _verdict(
            "gradients",
            not bad and ste_exact and elapsed < 120.0,
            f"worst rel err {max(worst.values()):.2e} over {len(worst)} layer kinds "
            f"(tol 1e-4), rounding backward exact={ste_exact}, "
            f"in {elapsed:.1f}s (limit 120s)",
        )


class TestCodecRoundTrip:
    def test_5_error_grows_with_compression(self):
        t0 = time.time()
        imgs = datasets.synthetic_dataset(21, 100, size=32).transpose(0, 2, 3, 1)

        def mae(qf, mode):
            total = 0.0
            for img in imgs:
                back = codec.decode_image(codec.encode_image(img, qf, mode))
                total += float(np.mean(np.abs(back - img)))
            return total / len(imgs)

        by_quality = [mae(qf, "4:4:4") for qf in (100, 75, 50, 25)]
        by_mode = [mae(100, m) for m in ("4:4:4", "4:2:2", "4:2:0")]
        ok = (
            by_quality[0] <= 1.0
            and all(a < b for a, b in zip(by_quality, by_quality[1:]))
            and all(a < b for a, b in zip(by_mode, by_mode[1:]))
        )
        elapsed = time.time() - t0
        _verdict(
            "codec-round-trip",
            ok and elapsed < 60.0,
            f"MAE by quality {['%.3f' % m for m in by_quality]} (first <= 1.0, "
            f"strictly increasing), by mode {['%.3f' % m for m in by_mode]} "
            f"in {elapsed:.1f}s (limit 60s)",
        )


class TestBitstreamInterop:
    @pytest.mark.skipif(PIL is None, reason="Pillow is not installed")
    def test_6_jfif_files_roundtrip_and_decode_externally(self):
        t0 = time.time()
        spec = networks.GeneratorSpec(
            latent_dim=16,
            resolution=32,
            base_channels=4,
            path_channels=2,
            quality_factor=75,
            mode="4:4:4",
        )
        rng = np.random.default_rng(33)
        exact = 0
        agree = 0
        count = 0
        for qf in (40, 75, 90):
            gen = networks.Generator(
                networks.GeneratorSpec(**{**spec.__dict__, "quality_factor": qf}), rng
            )
            n = 17 if qf != 90 else 16
            z = rng.standard_normal((n, spec.latent_dim))
            with T.no_grad():
                out = gen.forward(Tensor(z))
            for enc in networks.to_encoded_images(out):
                enc.validate()
                count += 1
                blob = jfif.encode_jfif(enc)
                back = jfif.decode_jfif(blob)
                if (
                    np.array_equal(back.y, enc.y)
                    and np.array_equal(back.cb, enc.cb)
                    and np.array_equal(back.cr, enc.cr)
                ):
                    exact += 1
                with PIL.open(io.BytesIO(blob)) as im:
                    im.draft("YCbCr", im.size)
                    theirs = np.asarray(im.convert("YCbCr")).astype(np.float64)
                ours = np.stack(codec.decode_samples(enc), axis=-1)
                if np.max(np.abs(theirs - np.clip(ours, 0, 255))) <= 1.0:
                    agree += 1
        elapsed = time.time() - t0
        _verdict(
            "bitstream-interop",
            count == 50 and exact == 50 and agree == 50 and elapsed < 60.0,
            f"{exact}/50 coefficient-exact round trips, {agree}/50 external decodes "
            f"within +-1 sample, in {elapsed:.1f}s (limit 60s)",
        )


class TestDistributionDistance:
    def test_7_closed_forms(self):
        t0 = time.time()
        errs = []

        # univariate: means 0 vs 3, variances 1 vs 4 -> 9 + 1 + 4 - 2*2 = 10
        got = fid.frechet_from_moments(
            np.array([0.0]), np.array([[1.0]]), np.array([3.0]), np.array([[4.0]])
        )
        errs.append(abs(got - 10.0))

        # diagonal covariances have an elementwise closed form
        rng = np.random.default_rng(4)
        ma, mb = rng.standard_normal(6), rng.standard_normal(6)
        da, db = rng.uniform(0.5, 3.0, 6), rng.uniform(0.5, 3.0, 6)
        got = fid.frechet_from_moments(ma, np.diag(da), mb, np.diag(db))
        want = float(np.sum((ma - mb) ** 2) + np.sum(da + db - 2 * np.sqrt(da * db)))
        errs.append(abs(got - want))

        feats_a = rng.standard_normal((500, 8)) @ rng.standard_normal((8, 8))
        feats_b = rng.standard_normal((400, 8))
        stats = fid.FidStats.from_features(feats_a)
        errs.append(abs(fid.frechet_distance(stats, stats)))  # identity

        other = fid.FidStats.from_features(feats_b)
        ab = fid.frechet_distance(stats, other)
        ba = fid.frechet_distance(other, stats)
        errs.append(abs(ab - ba))  # symmetry

        # translating BOTH sets by the same vector preserves the distance
        shift = rng.standard_normal(8) * 10
        shifted = fid.frechet_distance(
            fid.FidStats.from_features(feats_a + shift),
            fid.FidStats.from_features(feats_b + shift),
        )
        errs.append(abs(shifted - ab))

        elapsed = time.time() - t0
        worst = max(errs)
        _verdict(
            "distribution-distance",
            worst < 1e-8 and elapsed < 10.0,
            f"worst closed-form error {worst:.2e} (tol 1e-8) in {elapsed:.1f}s (limit 10s)",
        )


class TestCompressionSweep:
    def test_8_distance_monotone_in_compression_strength(self):
        t0 = time.time()
        images = datasets.synthetic_dataset(7, 1000, size=32).astype(np.float64)
        qfs = [100, 75, 50, 25]
        modes = ["4:4:4", "4:2:2", "4:2:0"]
        rows = fid.compression_sweep(images, qfs, modes)
        table = {(q, m): v for q, m, v in rows}

        mono_q = all(
            table[(qa, m)] <= table[(qb, m)]
            for m in modes
            for qa, qb in zip(qfs, qfs[1:])
        )
        mono_m = all(
            table[(100, ma)] <= table[(100, mb)] for ma, mb in zip(modes, modes[1:])
        )
        elapsed = time.time() - t0
        _verdict(
            "compression-sweep",
            mono_q and mono_m and elapsed < 300.0,
            f"1000 images, FID nondecreasing as quality drops ({mono_q}) and as "
            f"chroma coarsens at top quality ({mono_m}), in {elapsed:.1f}s (limit 300s)",
        )


class TestTrainingSanity:
    """Full two-phase run at reduced width, checking training health markers.

    The protocol itself (dataset size, resolution, batch, both phase lengths,
    loss weights, learning rates) is fixed; channel widths and precision are
    sized so the run fits a desktop-CPU time budget.
    """

    LATENT = 32
    GEN_CHANNELS = 4
    DISC_CHANNELS = 8
    EVAL_SAMPLES = 500

    def _sample_decoded(self, gen, n):
        out = []
        done = 0
        while done < n:
            b = min(64, n - done)
            z = (
                RngStreams(99)
                .spawn("eval-z", done)
                .standard_normal((b, self.LATENT))
                .astype(np.float32)
            )
            with T.no_grad():
                batch = gen.forward(Tensor(z))
                px = codec.decode_planes(
                    batch.y, batch.cb, batch.cr, batch.quality_factor, batch.mode
                ).data
            out.append(px)
            done += b
        return np.concatenate(out)

    @pytest.mark.skipif(
        os.environ.get("JPEGGAN_RUN_SLOW") != "1",
        reason="about an hour of training; set JPEGGAN_RUN_SLOW=1 to run it",
    )
    def test_9_two_phase_run_improves_and_stays_stable(self):
        t0 = time.time()
        data = datasets.synthetic_dataset(7, 1000, size=32).astype(np.float32)
        real_stats = fid.FidStats.from_features(fid.pixel_features(data))

        rng = np.random.default_rng(0)
        gen = networks.Generator(
            networks.GeneratorSpec(
                latent_dim=self.LATENT,
                resolution=32,
                base_channels=self.GEN_CHANNELS,
                path_channels=2,
                quality_factor=75,
                mode="4:2:0",
            ),
            rng,
        )
        disc = networks.Discriminator(
            networks.DiscriminatorSpec(resolution=32, base_channels=self.DISC_CHANNELS),
            rng,
        )
        networks.cast_params(gen, np.float32)
        networks.cast_params(disc, np.float32)

        cfg = training.TrainConfig()  # the pinned protocol: 2000 steps, batch
        # 64, anchor weight 100, penalty weight 10, two time-scale 3e-4/1e-4
        training.pretrain_baseline(gen, disc, data, cfg, RngStreams(11))
        anchor = networks.extract_anchor(gen)

        def population_distance():
            feats = fid.pixel_features(self._sample_decoded(gen, self.EVAL_SAMPLES))
            return fid.frechet_distance(real_stats, fid.FidStats.from_features(feats))

        fid_init = population_distance()
        reports = training.train(gen, anchor, disc, data, cfg, RngStreams(12))
        fid_trained = population_distance()

        finite = all(
            np.isfinite(
                [r.d_loss, r.g_loss, r.anchor_term, r.gp_term, r.mean_grad_norm]
            ).all()
            for r in reports
        )
        norm_tail = float(np.mean([r.mean_grad_norm for r in reports[-100:]]))
        anchor_at_100 = next(r.anchor_term for r in reports if r.step == 100)
        anchor_tail = float(np.mean([r.anchor_term for r in reports[-100:]]))

        emitted = 0
        done = 0
        while done < self.EVAL_SAMPLES:
            b = min(64, self.EVAL_SAMPLES - done)
            z = (
                RngStreams(99)
                .spawn("eval-z", done)
                .standard_normal((b, self.LATENT))
                .astype(np.float32)
            )
            with T.no_grad():
                batch = gen.forward(Tensor(z))
            for enc in networks.to_encoded_images(batch):
                enc.validate()
                if jfif.decode_jfif(jfif.encode_jfif(enc)).y.shape == enc.y.shape:
                    emitted += 1
            done += b

        elapsed = time.time() - t0
        checks = {
            "losses finite": finite,
            "grad-norm band": 0.5 <= norm_tail <= 1.5,
            "anchor decrease": anchor_tail <= 0.7 * anchor_at_100,
            "distance halved": fid_trained <= 0.5 * fid_init,
            "valid bitstreams": emitted == self.EVAL_SAMPLES,
            "time budget": elapsed < 1800.0,
        }
        _verdict(
            "training-sanity",
            all(checks.values()),
            f"finite={finite}, final-100 grad norm {norm_tail:.3f} (band [0.5, 1.5]), "
            f"anchor {anchor_at_100:.2f}->{anchor_tail:.2f} (need <=70%), "
            f"distance {fid_init:.0f}->{fid_trained:.0f} (need <=50%), "
            f"{emitted}/{self.EVAL_SAMPLES} bitstreams valid, "
            f"{elapsed:.0f}s (limit 1800s); failing: "
            f"{[k for k, v in checks.items() if not v] or 'none'}",
        )


class TestPlainAdversarialReduction:
    def test_10_matches_reference_wgan_gp_step(self):
        t0 = time.time()
        rng = np.random.default_rng(17)
        dim, n = 8, 8

        V = Tensor(rng.standard_normal((dim, dim)) * 0.5, requires_grad=True)
        W = Tensor(rng.standard_normal((dim, dim)) * 0.5, requires_grad=True)
        a = Tensor(rng.standard_normal((dim,)) * 0.5, requires_grad=True)
        b = Tensor(rng.standard_normal((dim,)) * 0.1, requires_grad=True)
        c = Tensor(np.array(0.3), requires_grad=True)

        def gen_fn(z):  # identity pipeline: no transform between net and critic
            return T.matmul(z, V)

        def disc_fn(x):
            h = T.tanh(
                T.add(T.matmul(x, T.transpose2d(W)), T.expand(T.reshape(b, (1, dim)), (x.shape[0], dim)))
            )
            return T.add_scalar(
                T.reshape(T.matmul(h, T.reshape(a, (dim, 1))), (x.shape[0],)), float(c.data)
            )

        z = rng.standard_normal((n, dim))
        real = rng.standard_normal((n, dim)) + 1.0
        eps = rng.uniform(size=n)
        lam = 10.0

        cfg = training.TrainConfig(anchor_weight=0.0, gp_weight=lam)
        g_loss, _ = training.generator_loss(gen_fn, None, disc_fn, z, cfg.anchor_weight)
        gen_grads = training.param_grads(g_loss, {"V": V})
        fake = gen_fn(Tensor(z)).data
        d_loss, _ = training.critic_loss(disc_fn, real, fake, eps, cfg.gp_weight)
        disc_grads = training.param_grads(d_loss, {"W": W, "a": a, "b": b})

        # ---- independent reference implementation ----
        Vn, Wn, an, bn = V.data, W.data, a.data, b.data
        fake = z @ Vn

        def score_parts(x):
            t = np.tanh(x @ Wn.T + bn)
            return t

        # critic loss: mean D(fake) - mean D(real) + lam * mean (|grad| - 1)^2
        tf, tr = score_parts(fake), score_parts(real)
        dW = (
            np.einsum("ni,nj->ij", an * (1 - tf**2), fake) / n
            - np.einsum("ni,nj->ij", an * (1 - tr**2), real) / n
        )
        da = tf.mean(axis=0) - tr.mean(axis=0)
        db = (an * (1 - tf**2)).mean(axis=0) - (an * (1 - tr**2)).mean(axis=0)

        mix = eps[:, None] * real + (1 - eps[:, None]) * fake
        tm = score_parts(mix)
        u = an * (1 - tm**2)  # (n, dim)
        g = u @ Wn  # gradient of D at each interpolate
        norm = np.sqrt(np.sum(g * g, axis=1) + training.GRAD_NORM_EPS)
        coef = 2.0 * (norm - 1.0) / norm  # d (norm-1)^2 / d norm, then / norm

        s = -2.0 * an * tm * (1 - tm**2)  # du_k / d(pre-activation k)
        for i in range(n):
            gi, ui, si, xi = g[i], u[i], s[i], mix[i]
            Wg = Wn @ gi
            dW += lam * coef[i] * (np.outer(ui, gi) + np.outer(Wg * si, xi)) / n
            da += lam * coef[i] * ((1 - tm[i] ** 2) * Wg) / n
            db += lam * coef[i] * (si * Wg) / n

        dV_gen = -np.einsum("nk,nl->kl", z, (an * (1 - tf**2)) @ Wn) / n

        err = max(
            float(np.max(np.abs(disc_grads["W"] - dW))),
            float(np.max(np.abs(disc_grads["a"] - da))),
            float(np.max(np.abs(disc_grads["b"] - db))),
            float(np.max(np.abs(gen_grads["V"] - dV_gen))),
        )
        elapsed = time.time() - t0
        _verdict(
            "plain-adversarial-reduction",
            err < 1e-6 and elapsed < 10.0,
            f"max grad deviation {err:.2e} from analytic reference (tol 1e-6) "
            f"in {elapsed:.1f}s (limit 10s)",
        )
