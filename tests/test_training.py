"""Optimizer arithmetic, penalty closed forms, loss decomposition, loops."""

import gc
import hashlib
import math
import re
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from jpeggan import datasets, networks, training
from jpeggan import tensor as T
from jpeggan.rng import RngStreams
from jpeggan.tensor import Tensor


def tiny_specs():
    gen_spec = networks.GeneratorSpec(
        latent_dim=6,
        resolution=32,
        base_channels=4,
        path_channels=2,
        quality_factor=60,
        mode="4:2:0",
    )
    disc_spec = networks.DiscriminatorSpec(resolution=32, base_channels=4)
    return gen_spec, disc_spec


def build_nets(seed):
    gen_spec, disc_spec = tiny_specs()
    rng = np.random.default_rng(seed)
    gen = networks.Generator(gen_spec, rng)
    disc = networks.Discriminator(disc_spec, rng)
    anchor = networks.extract_anchor(gen)
    return gen, anchor, disc


class TestAdam:
    def test_hand_computed_first_steps(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        opt = training.Adam({"w": w}, lr=0.1, beta1=0.0, beta2=0.9, eps=1e-8)
        opt.step({"w": np.array([0.5])})
        m1, v1 = 0.5, 0.1 * 0.25
        want1 = 1.0 - 0.1 * (m1 / 1.0) / (np.sqrt(v1 / 0.1) + 1e-8)
        assert abs(w.data[0] - want1) < 1e-15
        opt.step({"w": np.array([-0.25])})
        m2 = -0.25
        v2 = 0.9 * v1 + 0.1 * 0.0625
        want2 = want1 - 0.1 * m2 / (np.sqrt(v2 / (1 - 0.9**2)) + 1e-8)
        assert abs(w.data[0] - want2) < 1e-15

    def test_momentum_beta1(self):
        w = Tensor(np.array([0.0]), requires_grad=True)
        opt = training.Adam({"w": w}, lr=1.0, beta1=0.5, beta2=0.9, eps=0.0)
        opt.step({"w": np.array([1.0])})
        # m = 0.5*0 + 0.5*1 = 0.5, corrected by 1-0.5 = 0.5 -> 1.0; v̂ = 1.0
        assert abs(w.data[0] + 1.0) < 1e-12

    def test_first_update_is_sign_times_lr(self):
        # with beta1 = 0 and eps = 0 the first step reduces to lr * sign(g)
        rng = np.random.default_rng(0)
        g = rng.standard_normal(12)
        w = Tensor(np.zeros(12), requires_grad=True)
        opt = training.Adam({"w": w}, lr=0.01, beta1=0.0, beta2=0.9, eps=0.0)
        opt.step({"w": g})
        assert np.allclose(w.data, -0.01 * np.sign(g), atol=1e-12)

    def test_loss_scale_invariance(self):
        rng = np.random.default_rng(1)
        g = rng.standard_normal(8)
        a = Tensor(np.ones(8), requires_grad=True)
        b = Tensor(np.ones(8), requires_grad=True)
        training.Adam({"p": a}, lr=0.05, eps=0.0).step({"p": g})
        training.Adam({"p": b}, lr=0.05, eps=0.0).step({"p": 1000.0 * g})
        assert np.allclose(a.data, b.data, atol=1e-12)

    def test_updates_in_place(self):
        w = Tensor(np.zeros((2, 2)), requires_grad=True)
        arr = w.data
        training.Adam({"w": w}, lr=0.1).step({"w": np.ones((2, 2))})
        assert arr is w.data  # same buffer, mutated


class TestGradientPenalty:
    def test_zero_critic_gives_one(self):
        def disc(x):
            return T.scalar_mul(T.sum_axes(x, axes=(1, 2, 3)), 0.0)

        real = np.ones((4, 1, 4, 4))
        fake = np.zeros((4, 1, 4, 4))
        penalty, mean_norm = training.gradient_penalty(disc, real, fake, np.full(4, 0.5))
        assert abs(float(penalty.data) - 1.0) < 1e-5
        assert mean_norm < 1e-5

    def test_unit_norm_linear_critic_gives_zero(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal(16)
        w /= np.linalg.norm(w)
        wt = Tensor(w.reshape(16, 1))

        def disc(x):
            return T.reshape(T.matmul(T.reshape(x, (x.shape[0], 16)), wt), (x.shape[0],))

        real = rng.standard_normal((5, 1, 4, 4))
        fake = rng.standard_normal((5, 1, 4, 4))
        penalty, mean_norm = training.gradient_penalty(disc, real, fake, rng.uniform(size=5))
        assert float(penalty.data) < 1e-10
        assert abs(mean_norm - 1.0) < 1e-6

    def test_matches_finite_difference_input_gradients(self):
        rng = np.random.default_rng(3)
        w1 = Tensor(rng.standard_normal((64, 8)) * 0.3)
        w2 = Tensor(rng.standard_normal((8, 1)) * 0.3)

        def disc(x):
            h = T.tanh(T.matmul(T.reshape(x, (x.shape[0], 64)), w1))
            return T.reshape(T.matmul(h, w2), (x.shape[0],))

        real = rng.standard_normal((2, 1, 8, 8))
        fake = rng.standard_normal((2, 1, 8, 8))
        eps_draws = rng.uniform(size=2)
        penalty, _ = training.gradient_penalty(disc, real, fake, eps_draws)

        # finite-difference gradient norms at the same interpolates
        mix = eps_draws.reshape(2, 1, 1, 1) * real + (1 - eps_draws.reshape(2, 1, 1, 1)) * fake
        h = 1e-6
        norms = []
        for i in range(2):
            flat = mix[i].ravel()
            g = np.zeros(64)
            for j in range(64):
                up, dn = flat.copy(), flat.copy()
                up[j] += h
                dn[j] -= h
                batch = np.stack([up, dn]).reshape(2, 1, 8, 8)
                scores = disc(Tensor(batch)).data
                g[j] = (scores[0] - scores[1]) / (2 * h)
            norms.append(np.linalg.norm(g))
        want = np.mean([(n - 1.0) ** 2 for n in norms])
        assert abs(float(penalty.data) - want) < 1e-3

    def test_penalty_differentiable_wrt_critic_params(self):
        rng = np.random.default_rng(4)
        w1 = Tensor(rng.standard_normal((16, 4)) * 0.5, requires_grad=True)
        w2 = Tensor(rng.standard_normal((4, 1)) * 0.5, requires_grad=True)

        def disc(x):
            h = T.tanh(T.matmul(T.reshape(x, (x.shape[0], 16)), w1))
            return T.reshape(T.matmul(h, w2), (x.shape[0],))

        real = rng.standard_normal((3, 1, 4, 4))
        fake = rng.standard_normal((3, 1, 4, 4))
        eps_draws = rng.uniform(size=3)

        penalty, _ = training.gradient_penalty(disc, real, fake, eps_draws)
        (gw1,) = T.grad(penalty, [w1])

        h = 1e-6
        for idx in [(0, 0), (7, 2), (15, 3)]:
            keep = w1.data[idx]
            w1.data[idx] = keep + h
            up, _ = training.gradient_penalty(disc, real, fake, eps_draws)
            w1.data[idx] = keep - h
            dn, _ = training.gradient_penalty(disc, real, fake, eps_draws)
            w1.data[idx] = keep
            fd = (float(up.data) - float(dn.data)) / (2 * h)
            assert abs(gw1.data[idx] - fd) < 1e-5

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            training.gradient_penalty(
                lambda x: T.sum_axes(x, axes=(1, 2, 3)),
                np.zeros((2, 1, 4, 4)),
                np.zeros((2, 1, 2, 2)),
                np.full(2, 0.5),
            )


class TestLossStep:
    def linear_setup(self, seed, n=5, zdim=3, d=8):
        rng = np.random.default_rng(seed)
        V = Tensor(rng.standard_normal((zdim, d)) * 0.4, requires_grad=True)
        w = Tensor(rng.standard_normal((d, 1)) * 0.4, requires_grad=True)
        b = Tensor(np.array([0.1]), requires_grad=True)

        def gen_fn(z_t):
            return T.matmul(z_t, V)

        def disc_fn(x):
            n_ = x.shape[0]
            return T.reshape(T.add(T.matmul(x, w), T.expand(T.reshape(b, (1, 1)), (n_, 1))), (n_,))

        real = rng.standard_normal((n, d))
        z = rng.standard_normal((n, zdim))
        eps = rng.uniform(size=n)
        return V, w, b, gen_fn, disc_fn, real, z, eps

    def test_decomposition_identity(self):
        V, w, b, gen_fn, disc_fn, real, z, eps = self.linear_setup(5)
        anchor = np.zeros((5, 8))
        cfg = training.TrainConfig(anchor_weight=7.0, gp_weight=3.0)
        g_loss, (score_fake_gen, anchor_term) = training.generator_loss(
            gen_fn, lambda zz: anchor, disc_fn, z, cfg.anchor_weight
        )
        fake = gen_fn(Tensor(z)).data
        d_loss, (score_fake, score_real, gp_term, _) = training.critic_loss(
            disc_fn, real, fake, eps, cfg.gp_weight
        )
        d_recomputed = score_fake - score_real + cfg.gp_weight * gp_term
        g_recomputed = -score_fake_gen + cfg.anchor_weight * anchor_term
        assert abs(float(d_loss.data) - d_recomputed) < 1e-9
        assert abs(float(g_loss.data) - g_recomputed) < 1e-9

    def test_zero_gamma_kills_anchor_term(self):
        V, w, b, gen_fn, disc_fn, real, z, eps = self.linear_setup(6)
        cfg = training.TrainConfig(anchor_weight=0.0)
        g_loss, (score_fake_gen, anchor_term) = training.generator_loss(
            gen_fn, lambda zz: np.ones((5, 8)), disc_fn, z, cfg.anchor_weight
        )
        assert anchor_term == 0.0
        assert abs(float(g_loss.data) + score_fake_gen) < 1e-12

    def test_matching_anchor_gives_zero_term(self):
        V, w, b, gen_fn, disc_fn, real, z, eps = self.linear_setup(7)
        fake = (np.asarray(z) @ V.data)
        cfg = training.TrainConfig(anchor_weight=4.0)
        _, (_, anchor_term) = training.generator_loss(
            gen_fn, lambda zz: fake, disc_fn, z, cfg.anchor_weight
        )
        assert anchor_term < 1e-15

    def test_gradients_match_manual_linear_wgan(self):
        # linear G and D make every gradient of the objective closed-form
        V, w, b, gen_fn, disc_fn, real, z, eps = self.linear_setup(8)
        cfg = training.TrainConfig(anchor_weight=0.0, gp_weight=10.0)
        g_loss, _ = training.generator_loss(gen_fn, None, disc_fn, z, cfg.anchor_weight)
        gen_grads = training.param_grads(g_loss, {"V": V})
        fake = gen_fn(Tensor(z)).data
        d_loss, (_, _, _, mean_grad_norm) = training.critic_loss(
            disc_fn, real, fake, eps, cfg.gp_weight
        )
        disc_grads = training.param_grads(d_loss, {"w": w, "b": b})
        wv = w.data[:, 0]
        norm = np.sqrt(wv @ wv + training.GRAD_NORM_EPS)
        want_dw = (
            fake.mean(axis=0)
            - real.mean(axis=0)
            + cfg.gp_weight * 2.0 * (norm - 1.0) * wv / norm
        )
        assert np.allclose(disc_grads["w"][:, 0], want_dw, atol=1e-10)
        assert abs(disc_grads["b"][0]) < 1e-12  # constant offset cancels
        want_dV = -np.einsum("nk,l->kl", z, wv) / z.shape[0]
        assert np.allclose(gen_grads["V"], want_dV, atol=1e-10)
        assert abs(mean_grad_norm - norm) < 1e-9


class TestTrainConfig:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("key", ["anchor_weight", "gp_weight", "lr_discriminator", "lr_generator", "adam_eps"])
    def test_non_finite_setting_is_one_problem(self, key, value):
        assert training.TrainConfig(**{key: value}).problems() == [f"{key} must be finite"]

    def test_non_finite_beside_out_of_range(self):
        cfg = training.TrainConfig(anchor_weight=math.nan, gp_weight=-1.0, lr_discriminator=0.0,
                                   lr_generator=math.inf)
        assert cfg.problems() == [
            "loss weights must be >= 0",
            "learning rates must be > 0",
            "anchor_weight must be finite",
            "lr_generator must be finite",
        ]

    @pytest.mark.parametrize("key", ["adam_eps", "gp_weight"])
    def test_infinite_setting_stops_training_before_a_step(self, key):
        gen, _, disc = build_nets(0)
        before = {k: v.data.copy() for k, v in disc.params().items()}
        cfg = training.TrainConfig(steps=1, batch_size=4, **{key: math.inf})
        data = datasets.synthetic_dataset(0, 4, size=32).astype(np.float64)
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            training.pretrain_baseline(gen, disc, data, cfg, RngStreams(1))
        for k, v in disc.params().items():
            assert np.array_equal(before[k], v.data), k


class TestTrainingLoops:
    def small_cfg(self, steps=3, **kw):
        return training.TrainConfig(
            steps=steps,
            batch_size=4,
            lr_discriminator=1e-3,
            lr_generator=5e-4,
            **kw,
        )

    def data(self, n=12):
        return datasets.synthetic_dataset(0, n, size=32).astype(np.float64)

    def test_zero_steps_change_nothing(self):
        gen, anchor, disc = build_nets(0)
        before = {k: v.data.copy() for k, v in {**gen.params(), **disc.params()}.items()}
        reports = training.train(
            gen, anchor, disc, self.data(), self.small_cfg(steps=0), RngStreams(1)
        )
        assert reports == []
        for k, v in {**gen.params(), **disc.params()}.items():
            assert np.array_equal(before[k], v.data)

    def test_empty_dataset_rejected(self):
        gen, anchor, disc = build_nets(0)
        with pytest.raises(ValueError, match="empty"):
            training.train(
                gen, anchor, disc, np.zeros((0, 3, 32, 32)), self.small_cfg(), RngStreams(1)
            )

    def test_deterministic_given_seed(self, tmp_path):
        logs = {}
        for critic_updates in (1, 2):
            runs = []
            for _ in range(2):
                gen, anchor, disc = build_nets(3)
                path = tmp_path / f"log{critic_updates}-{len(runs)}.csv"
                cfg = self.small_cfg(critic_updates_per_gen=critic_updates)
                reports = training.train(
                    gen, anchor, disc, self.data(), cfg, RngStreams(7), csv_path=path
                )
                runs.append((reports, path.read_bytes(), gen.params()))
            assert runs[0][1] == runs[1][1]
            for a, b in zip(runs[0][0], runs[1][0]):
                assert a == b
            for k in runs[0][2]:
                assert np.array_equal(runs[0][2][k].data, runs[1][2][k].data)
            logs[critic_updates] = runs[0][1]
        assert logs[1] != logs[2]  # the second critic update takes effect

    def test_losses_logged_and_finite(self, tmp_path):
        gen, anchor, disc = build_nets(4)
        path = tmp_path / "log.csv"
        reports = training.train(
            gen, anchor, disc, self.data(), self.small_cfg(), RngStreams(2), csv_path=path
        )
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(training.CSV_COLUMNS)
        assert len(lines) == 1 + len(reports) == 4
        assert all(r.finite() for r in reports)
        assert all(r.anchor_term > 0 for r in reports)  # paths start far from anchor

    def test_resume_matches_uninterrupted(self, tmp_path):
        data = self.data()
        for critic_updates in (1, 2):
            ckpt = tmp_path / f"ck{critic_updates}.params"

            def cfg(steps):
                return self.small_cfg(steps=steps, critic_updates_per_gen=critic_updates)

            gen_a, anchor_a, disc_a = build_nets(5)
            full = training.train(gen_a, anchor_a, disc_a, data, cfg(4), RngStreams(9))

            gen_b, anchor_b, disc_b = build_nets(5)
            training.train(
                gen_b, anchor_b, disc_b, data, cfg(2), RngStreams(9), checkpoint_path=ckpt
            )
            arrays = training.check_resume(ckpt, gen_b, disc_b, anchor_b, steps=4)
            resumed = training.train(
                gen_b, anchor_b, disc_b, data, cfg(4), RngStreams(9), resume_from=arrays
            )
            assert [r.step for r in resumed] == [2, 3]
            for r_full, r_res in zip(full[2:], resumed):
                assert abs(r_full.d_loss - r_res.d_loss) < 1e-12
                assert abs(r_full.g_loss - r_res.g_loss) < 1e-12
            pa, pb = gen_a.params(), gen_b.params()
            for k in pa:
                assert np.array_equal(pa[k].data, pb[k].data), k

    def test_resume_drops_rows_logged_after_its_checkpoint(self, tmp_path):
        data = self.data()
        full, log = tmp_path / "full.csv", tmp_path / "log.csv"
        gen, anchor, disc = build_nets(5)
        training.train(gen, anchor, disc, data, self.small_cfg(steps=4), RngStreams(9), csv_path=full)

        gen, anchor, disc = build_nets(5)
        older = tmp_path / "ck1.params"
        training.train(gen, anchor, disc, data, self.small_cfg(steps=1), RngStreams(9),
                       csv_path=log, checkpoint_path=older)
        training.train(gen, anchor, disc, data, self.small_cfg(steps=3), RngStreams(9),
                       csv_path=log, resume_from=training.check_resume(older, gen, disc, anchor, steps=3))  # logs 1, 2
        gen, anchor, disc = build_nets(5)
        training.train(gen, anchor, disc, data, self.small_cfg(steps=4), RngStreams(9),
                       csv_path=log, resume_from=training.check_resume(older, gen, disc, anchor, steps=4))
        assert log.read_bytes() == full.read_bytes()

    def test_resume_past_steps_changes_nothing(self, tmp_path):
        gen, _, disc = build_nets(5)
        ckpt, log = tmp_path / "ck.params", tmp_path / "log.csv"
        training.pretrain_baseline(gen, disc, self.data(), self.small_cfg(steps=3), RngStreams(9),
                                   checkpoint_path=ckpt)
        with pytest.raises(ValueError, match="step 3 is past the 2 steps to run"):
            training.check_resume(ckpt, gen, disc, steps=2)
        arrays = training.check_resume(ckpt, gen, disc, steps=3)  # a run that ends where it was saved
        before = {k: p.data.copy() for k, p in {**gen.params(), **disc.params()}.items()}
        saved = ckpt.read_bytes()
        with pytest.raises(ValueError, match="step 3 is past the 2 steps to run"):
            training.pretrain_baseline(gen, disc, self.data(), self.small_cfg(steps=2), RngStreams(9),
                                       csv_path=log, checkpoint_path=ckpt, resume_from=arrays)
        after = {**gen.params(), **disc.params()}
        assert all(np.array_equal(before[k], after[k].data) for k in before)
        assert not log.exists() and ckpt.read_bytes() == saved
        assert len(arrays) == len(training.check_resume(ckpt, gen, disc, steps=3))  # nothing was loaded

    def test_resume_frees_the_checkpoint_before_step_0(self, tmp_path, monkeypatch):
        gen, _, disc = build_nets(5)
        ckpt = tmp_path / "ck.params"
        training.pretrain_baseline(gen, disc, self.data(), self.small_cfg(steps=1), RngStreams(9),
                                   checkpoint_path=ckpt)
        arrays = training.check_resume(ckpt, gen, disc, steps=2)
        refs = [weakref.ref(a) for a in arrays.values()]
        alive = []
        monkeypatch.setattr(training, "_keep_freed_memory", lambda: alive.append(sum(r() is not None for r in refs)))
        training.pretrain_baseline(gen, disc, self.data(), self.small_cfg(steps=2), RngStreams(9),
                                   resume_from=arrays)
        assert refs and alive == [0] and arrays == {}

    def test_resume_keeps_earlier_lines_byte_for_byte(self, tmp_path):
        path = tmp_path / "loss.csv"
        path.write_bytes(b"step,d_loss\r\n0,1\xff\r\nnote\r\n1,2\r\n2,3\r\n")
        training._CsvLog(path, 1).close()
        assert path.read_bytes() == b"step,d_loss\r\n0,1\xff\r\nnote\r\n"

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_detected(self):
        gen, anchor, disc = build_nets(6)
        next(iter(disc.params().values())).data[...] = 1e200  # poison the critic
        with pytest.raises(training.DivergenceError, match="no checkpoint"):
            training.train(gen, anchor, disc, self.data(), self.small_cfg(), RngStreams(3))

    def test_pretrain_runs_and_is_deterministic(self):
        outs = []
        for _ in range(2):
            gen, _, disc = build_nets(8)
            reports = training.pretrain_baseline(
                gen, disc, self.data(), self.small_cfg(), RngStreams(11)
            )
            with T.no_grad():
                z = np.zeros((2, gen.spec.latent_dim))
                imgs = networks.AnchorGenerator(gen.trunk).forward(Tensor(z)).data
            outs.append((reports, imgs))
            assert all(r.anchor_term == 0.0 for r in reports)
            assert imgs.min() >= 0 and imgs.max() <= 255
        assert np.array_equal(outs[0][1], outs[1][1])
        for a, b in zip(outs[0][0], outs[1][0]):
            assert a == b

    def test_checkpoint_roundtrip_preserves_optimizer(self, tmp_path):
        gen, anchor, disc = build_nets(10)
        opt_g = training.Adam(gen.params(), 1e-4)
        opt_d = training.Adam(disc.params(), 3e-4)
        opt_g.t = 17
        for k in opt_g.m:
            opt_g.m[k][...] = 0.25
        path = tmp_path / "state.params"
        groups = {"gen": gen.params(), "disc": disc.params(), "anchor": anchor.params()}
        training.save_checkpoint(path, 42, groups, {"adam_g": opt_g, "adam_d": opt_d})

        gen2, anchor2, disc2 = build_nets(99)
        opt_g2 = training.Adam(gen2.params(), 1e-4)
        opt_d2 = training.Adam(disc2.params(), 3e-4)
        groups2 = {"gen": gen2.params(), "disc": disc2.params(), "anchor": anchor2.params()}
        step = training.load_checkpoint(path, groups2, {"adam_g": opt_g2, "adam_d": opt_d2})
        assert step == 42
        assert opt_g2.t == 17
        assert all(np.all(m == 0.25) for m in opt_g2.m.values())
        for k, p in gen.params().items():
            assert np.array_equal(p.data, gen2.params()[k].data)

    def test_checkpoint_rejects_shape_mismatch(self, tmp_path):
        gen, _, _ = build_nets(1)
        path = tmp_path / "state.params"
        training.save_checkpoint(path, 0, {"gen": gen.params()}, {})
        wide = networks.Generator(replace(tiny_specs()[0], base_channels=16), np.random.default_rng(2))
        with pytest.raises(ValueError, match="shape"):
            training.load_checkpoint(path, {"gen": wide.params()}, {})

    @pytest.mark.parametrize("edit", ["drop step", "drop adam_g/t", "drop adam_d/v/",
                                      "reshape adam_g/m/", "reshape adam_d/t", "reshape step"])
    def test_checkpoint_names_the_array_it_cannot_load(self, tmp_path, edit):
        gen, anchor, disc = build_nets(10)
        path = tmp_path / "state.params"
        opts = {"adam_g": training.Adam(gen.params(), 1e-4), "adam_d": training.Adam(disc.params(), 3e-4)}
        training.save_checkpoint(path, 3, training._phase_groups(gen, disc, anchor), opts)
        gen2, anchor2, disc2 = build_nets(99)
        training.check_resume(path, gen2, disc2, anchor2, steps=3)  # the unedited file is whole

        arrays = networks.load_params(str(path))
        action, prefix = edit.split()
        key = next(k for k in arrays if k.startswith(prefix))
        if action == "drop":
            del arrays[key]
        else:
            arrays[key] = np.zeros((2, 3))
        networks.save_params(str(path), arrays)
        with pytest.raises(ValueError, match=re.escape(key)):
            training.check_resume(path, gen2, disc2, anchor2, steps=3)
        groups2 = training._phase_groups(gen2, disc2, anchor2)
        opts2 = {"adam_g": training.Adam(gen2.params(), 1e-4), "adam_d": training.Adam(disc2.params(), 3e-4)}
        for opt in opts2.values():
            for m in opt.m.values():
                m[...] = 0.5

        def state():
            params = [p.data.copy() for group in groups2.values() for p in group.values()]
            moments = [a.copy() for opt in opts2.values() for a in [*opt.m.values(), *opt.v.values()]]
            return params + moments + [int(opt.t) for opt in opts2.values()]

        before = state()
        with pytest.raises(ValueError, match=re.escape(key)):
            training.load_checkpoint(path, groups2, opts2)
        assert all(np.array_equal(a, b) for a, b in zip(state(), before, strict=True)), "nothing was loaded"


class TestTapeLifetimes:
    """Each player's tape, the critic's penalty graph included, is freed by
    reference counting as soon as its update is done: with the cycle
    collector off, no tensor of an earlier loss's graph is alive when the
    next loss is built."""

    @pytest.mark.parametrize("phase", ["pretrain", "joint"])
    @pytest.mark.parametrize("critic_updates", [1, 2])
    def test_no_earlier_tape_alive_when_a_loss_is_built(self, monkeypatch, phase, critic_updates):
        gen, anchor, disc = build_nets(14)
        params = {id(p) for net in (gen, anchor, disc) for p in net.params().values()}
        tapes, seen = [], []  # weakrefs to each loss's graph; (loss, tensors alive) at each build

        def watched(name, loss_fn):
            def build(*args, **kwargs):
                seen.append((name, sum(r() is not None for refs in tapes for r in refs)))
                loss, terms = loss_fn(*args, **kwargs)
                tapes.append([weakref.ref(t) for t in T._toposort(loss) if id(t) not in params])
                return loss, terms

            return build

        monkeypatch.setattr(training, "critic_loss", watched("critic", training.critic_loss))
        monkeypatch.setattr(training, "generator_loss", watched("generator", training.generator_loss))
        cfg = training.TrainConfig(steps=2, batch_size=2, critic_updates_per_gen=critic_updates)
        data = datasets.synthetic_dataset(0, 8, size=32).astype(np.float64)
        gc.disable()
        try:
            if phase == "pretrain":
                reports = training.pretrain_baseline(gen, disc, data, cfg, RngStreams(1))
            else:
                reports = training.train(gen, anchor, disc, data, cfg, RngStreams(1))
        finally:
            gc.enable()
        assert len(reports) == 2 and all(r.finite() for r in reports)
        assert [name for name, _ in seen] == (["critic"] * critic_updates + ["generator"]) * 2
        assert seen == [(name, 0) for name, _ in seen]


def _no_c_library(name):
    raise OSError("no C library")


class TestKeepFreedMemory:
    def test_sets_the_glibc_thresholds(self, monkeypatch):
        calls = []

        class Mallopt:
            def __call__(self, param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(training.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=Mallopt()))
        training._keep_freed_memory()
        assert calls == [(-1, 1 << 30), (-3, 32 << 20)]  # M_TRIM_THRESHOLD, M_MMAP_THRESHOLD

    @pytest.mark.parametrize("open_libc", [lambda name: SimpleNamespace(), _no_c_library])
    def test_does_nothing_without_mallopt(self, monkeypatch, open_libc):
        opened = []

        def cdll(name):
            opened.append(name)
            return open_libc(name)

        monkeypatch.setattr(training.ctypes, "CDLL", cdll)
        assert training._keep_freed_memory() is None
        gen, anchor, disc = build_nets(15)
        cfg = training.TrainConfig(steps=1, batch_size=2)
        data = datasets.synthetic_dataset(0, 4, size=32).astype(np.float64)
        reports = training.train(gen, anchor, disc, data, cfg, RngStreams(1))
        assert opened == [None, None]  # the direct call, then the one before the first step
        assert len(reports) == 1 and reports[0].finite()


class TestCheckpointLayout:
    """`save_checkpoint` writes each phase's keys in one fixed order; the
    names and their order are the file format."""

    @staticmethod
    def digest(path):
        keys = list(networks.load_params(str(path)))
        return len(keys), hashlib.sha256("\n".join(keys).encode()).hexdigest()

    def test_key_order_is_pinned(self, tmp_path):
        gen, anchor, disc = build_nets(0)
        want = {
            "pretrain": (171, "203ccdb43085edf8b2a7087f857ab92d84500ce00f71268c492192368df05496"),
            "joint": (235, "8290a36e345fa3095657f9fcc9618846376375b1f88fd7d80df19be1524faed6"),
        }
        for phase, groups in (("pretrain", training._phase_groups(gen, disc)),
                              ("joint", training._phase_groups(gen, disc, anchor))):
            opts = {"adam_g": training.Adam(groups["gen"], 1e-4), "adam_d": training.Adam(groups["disc"], 3e-4)}
            path = tmp_path / phase
            training.save_checkpoint(path, 5, groups, opts)
            assert self.digest(path) == want[phase], phase
            keys = list(networks.load_params(str(path)))
            assert keys[:2] == ["gen/trunk.fc.w", "gen/trunk.fc.b"]
            assert keys[keys.index("step") + 1] == "adam_g/t"
            assert keys[-2:] == ["adam_d/m/fc.b", "adam_d/v/fc.b"]


class TestPrecision:
    def test_float32_steps_output_no_float64(self, monkeypatch):
        gen_spec, disc_spec = tiny_specs()
        rng = np.random.default_rng(12)
        gen = networks.Generator(gen_spec, rng)
        disc = networks.Discriminator(disc_spec, rng)
        networks.cast_params(gen, np.float32)
        networks.cast_params(disc, np.float32)
        data = datasets.synthetic_dataset(0, 8, size=32).astype(np.float32)
        cfg = training.TrainConfig(steps=1, batch_size=2)
        wide = []
        record = T._result

        def audited(out, op, *args, **kwargs):
            if out.dtype == np.float64:
                wide.append(op)
            return record(out, op, *args, **kwargs)

        monkeypatch.setattr(T, "_result", audited)  # every tape op ends in _result
        training.pretrain_baseline(gen, disc, data, cfg, RngStreams(1))
        anchor = networks.extract_anchor(gen)
        training.train(gen, anchor, disc, data, cfg, RngStreams(2))
        assert not wide, f"float64 outputs from {sorted(set(wide))}"

    def test_tape_holds_no_patch_matrix(self, monkeypatch):
        # conv2d builds its patch matrices per image block and drops them, so
        # no tape node of a critic or generator step, penalty included, holds
        # an array larger than the largest activation a conv reads or writes
        gen_spec, disc_spec = tiny_specs()
        rng = np.random.default_rng(13)
        gen = networks.Generator(gen_spec, rng)
        disc = networks.Discriminator(disc_spec, rng)
        networks.cast_params(gen, np.float32)
        networks.cast_params(disc, np.float32)
        data = datasets.synthetic_dataset(0, 8, size=32).astype(np.float32)
        cfg = training.TrainConfig(steps=1, batch_size=2)
        held, activation = {}, [0]
        record = T._result

        def audited(out, op, parents, bw, *args, **kwargs):
            cells = [c.cell_contents for c in getattr(bw, "__closure__", None) or ()]
            arrays = [out] + [c.data if isinstance(c, Tensor) else c for c in cells]
            sizes = [a.nbytes for a in arrays if isinstance(a, np.ndarray)]
            held[op] = max([held.get(op, 0)] + sizes)
            if op == "conv2d":
                activation[0] = max(activation[0], parents[0].data.nbytes, out.nbytes)
            return record(out, op, parents, bw, *args, **kwargs)

        monkeypatch.setattr(T, "_result", audited)  # every tape op ends in _result
        pre = training.pretrain_baseline(gen, disc, data, cfg, RngStreams(1))
        anchor = networks.extract_anchor(gen)
        joint = training.train(gen, anchor, disc, data, cfg, RngStreams(2))
        assert len(pre) == len(joint) == 1
        assert pre[0].finite() and joint[0].finite()
        assert "conv2d_weight" in held
        too_big = {op: n for op, n in held.items() if n > activation[0]}
        assert not too_big, (activation[0], too_big)
