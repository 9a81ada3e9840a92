"""Adversarial training: critic with gradient penalty, anchored generator.

The objective is a two-player minimax. The critic maximizes the score gap
between real images and decoded generated images, regularized by a gradient
penalty on interpolates. The generator minimizes the critic score of its
decoded output plus a weighted L1 pull toward a frozen pixel-space anchor
network evaluated on the same latents. Updates alternate on two learning
rates (critic faster), both under Adam.

All randomness flows through named `RngStreams` spawned per absolute step
index, so a resumed run takes byte-identical draws to an uninterrupted one.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from . import codec, networks
from . import tensor as T
from .rng import RngStreams
from .tensor import NonFiniteError, Tensor

__all__ = [
    "TrainConfig",
    "LossReport",
    "DivergenceError",
    "Adam",
    "gradient_penalty",
    "loss_step",
    "train",
    "pretrain_baseline",
    "save_checkpoint",
    "load_checkpoint",
]

CSV_COLUMNS = ("step", "d_loss", "g_loss", "anchor_term", "gp_term", "mean_grad_norm")

GRAD_NORM_EPS = 1e-12  # keeps the penalty's sqrt differentiable at zero


@dataclass
class TrainConfig:
    steps: int = 2000
    batch_size: int = 64
    anchor_weight: float = 100.0
    gp_weight: float = 10.0
    lr_discriminator: float = 3e-4
    lr_generator: float = 1e-4
    critic_updates_per_gen: int = 1
    beta1: float = 0.0
    beta2: float = 0.9
    adam_eps: float = 1e-8
    checkpoint_every: int = 0  # 0: only the final state is written

    def validate(self) -> None:
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.anchor_weight < 0 or self.gp_weight < 0:
            raise ValueError("loss weights must be >= 0")
        if self.lr_discriminator <= 0 or self.lr_generator <= 0:
            raise ValueError("learning rates must be > 0")
        if self.critic_updates_per_gen < 1:
            raise ValueError("critic_updates_per_gen must be >= 1")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")
        if self.adam_eps < 0:
            raise ValueError("adam_eps must be >= 0")


@dataclass
class LossReport:
    step: int
    d_loss: float
    g_loss: float
    anchor_term: float
    gp_term: float
    mean_grad_norm: float
    # decomposition extras, not part of the CSV contract
    score_real: float = 0.0
    score_fake: float = 0.0
    score_fake_gen: float = 0.0

    def csv_row(self) -> list:
        return [
            self.step,
            f"{self.d_loss:.10g}",
            f"{self.g_loss:.10g}",
            f"{self.anchor_term:.10g}",
            f"{self.gp_term:.10g}",
            f"{self.mean_grad_norm:.10g}",
        ]

    def finite(self) -> bool:
        return all(
            np.isfinite(v)
            for v in (
                self.d_loss,
                self.g_loss,
                self.anchor_term,
                self.gp_term,
                self.mean_grad_norm,
            )
        )


class DivergenceError(RuntimeError):
    def __init__(self, step: int, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step


class Adam:
    """Adam with bias correction, updating parameter tensors in place."""

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float,
        beta1: float = 0.0,
        beta2: float = 0.9,
        eps: float = 1e-8,
    ):
        self.names = list(params)
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(params[k].data, dtype=np.float64) for k in params}
        self.v = {k: np.zeros_like(params[k].data, dtype=np.float64) for k in params}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for name in self.names:
            g = np.asarray(grads[name], dtype=np.float64)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)
            p = self.params[name]
            p.data -= update.astype(p.data.dtype)

    def state_arrays(self, prefix: str) -> dict[str, np.ndarray]:
        out = {f"{prefix}/t": np.array(self.t, dtype=np.int64)}
        for k in self.names:
            out[f"{prefix}/m/{k}"] = self.m[k]
            out[f"{prefix}/v/{k}"] = self.v[k]
        return out

    def load_state(self, arrays: dict[str, np.ndarray], prefix: str) -> None:
        self.t = int(arrays[f"{prefix}/t"])
        for k in self.names:
            self.m[k] = np.array(arrays[f"{prefix}/m/{k}"], dtype=np.float64)
            self.v[k] = np.array(arrays[f"{prefix}/v/{k}"], dtype=np.float64)


def gradient_penalty(
    disc_fn, real: np.ndarray, fake: np.ndarray, eps_draws: np.ndarray
) -> tuple[Tensor, float]:
    """Mean squared deviation of the critic's input-gradient norm from 1.

    `eps_draws` holds one Uniform(0,1) mix factor per sample. The returned
    tensor stays differentiable with respect to the critic's parameters
    (the gradient-of-gradient path is on the tape).
    """
    if real.shape != fake.shape:
        raise T.ShapeError(f"real {real.shape} vs fake {fake.shape}")
    eps = np.asarray(eps_draws, dtype=real.dtype).reshape(
        (real.shape[0],) + (1,) * (real.ndim - 1)
    )
    mixed = Tensor(eps * real + (1.0 - eps) * fake, requires_grad=True)
    scores = disc_fn(mixed)
    (g,) = T.grad(T.sum_all(scores), [mixed], create_graph=True)
    sq = T.sum_axes(T.mul(g, g), axes=tuple(range(1, real.ndim)))
    norms = T.sqrt(T.add_scalar(sq, GRAD_NORM_EPS))
    penalty = T.mean_all(T.pow_const(T.add_scalar(norms, -1.0), 2.0))
    return penalty, float(norms.data.mean())


def _critic_terms(disc_fn, real: np.ndarray, fake: np.ndarray, eps_draws, gp_weight):
    n = fake.shape[0]
    both = disc_fn(Tensor(np.concatenate([fake, real])))  # one pass, two scores
    s_fake = T.mean_all(T.slice_axis(both, 0, 0, n))
    s_real = T.mean_all(T.slice_axis(both, 0, n, n + real.shape[0]))
    penalty, mean_norm = gradient_penalty(disc_fn, real, fake, eps_draws)
    d_loss = T.add(
        T.add(s_fake, T.scalar_mul(s_real, -1.0)), T.scalar_mul(penalty, gp_weight)
    )
    return d_loss, float(s_fake.data), float(s_real.data), float(penalty.data), mean_norm


def _generator_terms(disc_fn, fake_t: Tensor, anchor_imgs: np.ndarray | None, anchor_weight):
    score = T.mean_all(disc_fn(fake_t))
    g_loss = T.scalar_mul(score, -1.0)
    anchor_val = 0.0
    if anchor_imgs is not None and anchor_weight > 0:
        gap = T.mean_all(T.abs_(T.add(fake_t, Tensor(-np.asarray(anchor_imgs)))))
        anchor_val = float(gap.data)
        g_loss = T.add(g_loss, T.scalar_mul(gap, anchor_weight))
    return g_loss, float(score.data), anchor_val


def loss_step(
    gen_fn,
    anchor_fn,
    disc_fn,
    gen_params: dict[str, Tensor],
    disc_params: dict[str, Tensor],
    real: np.ndarray,
    z: np.ndarray,
    eps_draws: np.ndarray,
    cfg: TrainConfig,
    step: int = 0,
) -> tuple[LossReport, dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Both players' losses and gradients at the current parameters.

    No updates happen here; `gen_fn(z)` must return decoded pixels on the
    tape and `anchor_fn(z)` the frozen reference pixels (or None). The
    training loop proper uses separate batches per player; this single-batch
    form is the oracle-friendly decomposition.
    """
    fake_t = gen_fn(Tensor(np.asarray(z)))
    anchor_imgs = None if anchor_fn is None else anchor_fn(z)

    g_loss, score_fake_gen, anchor_val = _generator_terms(
        disc_fn, fake_t, anchor_imgs, cfg.anchor_weight
    )
    gen_grads_t = T.grad(g_loss, list(gen_params.values()), allow_unused=True)
    gen_grads = {k: g.data for k, g in zip(gen_params, gen_grads_t)}

    d_loss, s_fake, s_real, gp_val, mean_norm = _critic_terms(
        disc_fn, np.asarray(real), fake_t.data, eps_draws, cfg.gp_weight
    )
    disc_grads_t = T.grad(d_loss, list(disc_params.values()), allow_unused=True)
    disc_grads = {k: g.data for k, g in zip(disc_params, disc_grads_t)}

    report = LossReport(
        step=step,
        d_loss=float(d_loss.data),
        g_loss=float(g_loss.data),
        anchor_term=anchor_val,
        gp_term=gp_val,
        mean_grad_norm=mean_norm,
        score_real=s_real,
        score_fake=s_fake,
        score_fake_gen=score_fake_gen,
    )
    return report, gen_grads, disc_grads


class _CsvLog:
    def __init__(self, path, resume: bool):
        self.fh = None
        if path is not None:
            append = resume and os.path.exists(path)
            self.fh = open(path, "a" if append else "w", newline="")
            self.writer = csv.writer(self.fh)
            if not append:
                self.writer.writerow(CSV_COLUMNS)
                self.fh.flush()

    def write(self, report: LossReport) -> None:
        if self.fh is not None:
            self.writer.writerow(report.csv_row())
            self.fh.flush()

    def close(self) -> None:
        if self.fh is not None:
            self.fh.close()


def _collect_params(groups: dict[str, dict[str, Tensor]], extra: dict[str, np.ndarray]):
    arrays: dict[str, np.ndarray] = {}
    for group, params in groups.items():
        for name, p in params.items():
            arrays[f"{group}/{name}"] = p.data
    arrays.update(extra)
    return arrays


def save_checkpoint(path, step: int, groups: dict[str, dict[str, Tensor]], optimizers: dict[str, Adam]) -> None:
    extra = {"step": np.array(step, dtype=np.int64)}
    for name, opt in optimizers.items():
        extra.update(opt.state_arrays(name))
    networks.save_params(path, _collect_params(groups, extra))


def load_checkpoint(path, groups: dict[str, dict[str, Tensor]], optimizers: dict[str, Adam]) -> int:
    arrays = networks.load_params(path)
    for group, params in groups.items():
        for name, p in params.items():
            key = f"{group}/{name}"
            if key not in arrays:
                raise ValueError(f"checkpoint missing {key}")
            a = arrays[key]
            if a.shape != p.data.shape:
                raise ValueError(f"{key}: shape {a.shape} != {p.data.shape}")
            p.data = a.astype(p.data.dtype)
    for name, opt in optimizers.items():
        opt.load_state(arrays, name)
    return int(arrays["step"])


def _sample_batch(data: np.ndarray, streams: RngStreams, tag: str, index: int, n: int):
    idx = streams.spawn(tag, index).integers(0, data.shape[0], size=n)
    return data[idx]


def _latents(streams: RngStreams, tag: str, index: int, n: int, dim: int, dtype):
    return streams.spawn(tag, index).standard_normal((n, dim)).astype(dtype)


def _run_adversarial(
    make_fake,  # (z_tensor) -> pixels Tensor on the tape
    anchor_eval,  # (z_np) -> pixels np or None
    gen_params: dict[str, Tensor],
    disc,
    data: np.ndarray,
    cfg: TrainConfig,
    streams: RngStreams,
    latent_dim: int,
    phase: str,
    extra_groups: dict[str, dict[str, Tensor]],
    csv_path,
    checkpoint_path,
    resume_from,
) -> list[LossReport]:
    cfg.validate()
    if data.shape[0] == 0:
        raise ValueError("dataset is empty")
    dtype = data.dtype if data.dtype in (np.float32, np.float64) else np.float64
    data = np.asarray(data, dtype=dtype)
    disc_params = disc.params()
    opt_g = Adam(gen_params, cfg.lr_generator, cfg.beta1, cfg.beta2, cfg.adam_eps)
    opt_d = Adam(disc_params, cfg.lr_discriminator, cfg.beta1, cfg.beta2, cfg.adam_eps)
    optimizers = {"adam_g": opt_g, "adam_d": opt_d}
    groups = {"gen": gen_params, "disc": disc_params, **extra_groups}
    start_step = 0 if resume_from is None else load_checkpoint(resume_from, groups, optimizers)
    log = _CsvLog(csv_path, resume=start_step > 0)
    reports: list[LossReport] = []
    last_checkpoint = start_step if start_step > 0 else None

    def make_fake_eval(z: np.ndarray) -> np.ndarray:
        with T.no_grad():
            return make_fake(Tensor(z)).data

    def checkpoint(step):
        nonlocal last_checkpoint
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, step, groups, optimizers)
            last_checkpoint = step

    def diverged(step, why):
        suffix = (
            f"; last good checkpoint at step {last_checkpoint}"
            if last_checkpoint is not None
            else "; no checkpoint written"
        )
        return DivergenceError(step, why + suffix)

    try:
        for step in range(start_step, cfg.steps):
            try:
                d_stats = None
                for sub in range(cfg.critic_updates_per_gen):
                    tick = step * cfg.critic_updates_per_gen + sub
                    real = _sample_batch(data, streams, f"{phase}-real", tick, cfg.batch_size)
                    z = _latents(streams, f"{phase}-z-critic", tick, cfg.batch_size, latent_dim, dtype)
                    eps = streams.spawn(f"{phase}-gp", tick).uniform(size=cfg.batch_size)
                    fake = make_fake_eval(z)
                    d_loss, s_fake, s_real, gp_val, mean_norm = _critic_terms(
                        disc.forward, real, fake, eps, cfg.gp_weight
                    )
                    grads = T.grad(d_loss, list(disc_params.values()), allow_unused=True)
                    opt_d.step({k: g.data for k, g in zip(disc_params, grads)})
                    d_stats = (float(d_loss.data), s_fake, s_real, gp_val, mean_norm)

                z = _latents(streams, f"{phase}-z-gen", step, cfg.batch_size, latent_dim, dtype)
                fake_t = make_fake(Tensor(z))
                anchor_imgs = None if anchor_eval is None else anchor_eval(z)
                g_loss, score_fake_gen, anchor_val = _generator_terms(
                    disc.forward, fake_t, anchor_imgs, cfg.anchor_weight
                )
                grads = T.grad(g_loss, list(gen_params.values()), allow_unused=True)
                opt_g.step({k: g.data for k, g in zip(gen_params, grads)})
                g_val = float(g_loss.data)
                del g_loss, fake_t  # free the generator's tape before the next critic pass
            except NonFiniteError as exc:
                raise diverged(step, f"non-finite value in the graph: {exc}") from exc

            report = LossReport(
                step=step,
                d_loss=d_stats[0],
                g_loss=g_val,
                anchor_term=anchor_val,
                gp_term=d_stats[3],
                mean_grad_norm=d_stats[4],
                score_real=d_stats[2],
                score_fake=d_stats[1],
                score_fake_gen=score_fake_gen,
            )
            if not report.finite():
                raise diverged(step, "non-finite loss")
            reports.append(report)
            log.write(report)
            if cfg.checkpoint_every and (step + 1) % cfg.checkpoint_every == 0:
                checkpoint(step + 1)
        checkpoint(cfg.steps)
    finally:
        log.close()
    return reports


def train(
    gen: networks.Generator,
    anchor: networks.AnchorGenerator,
    disc: networks.Discriminator,
    data: np.ndarray,
    cfg: TrainConfig,
    streams: RngStreams,
    csv_path=None,
    checkpoint_path=None,
    resume_from=None,
) -> list[LossReport]:
    """Joint phase: coefficient generator vs critic, anchored to `anchor`.

    `data` is (n, 3, h, w) pixels in [0, 255]. The anchor never updates.
    """

    def make_fake(z_t: Tensor) -> Tensor:
        out = gen.forward(z_t)
        return codec.decode_planes(out.y, out.cb, out.cr, out.quality_factor, out.mode)

    def anchor_eval(z: np.ndarray) -> np.ndarray:
        with T.no_grad():
            return anchor.forward(Tensor(z)).data

    return _run_adversarial(
        make_fake, anchor_eval, gen.params(), disc, data, cfg, streams, gen.spec.latent_dim,
        phase="joint", extra_groups={"anchor": anchor.params()},
        csv_path=csv_path, checkpoint_path=checkpoint_path, resume_from=resume_from,
    )


def pretrain_baseline(
    baseline: networks.Generator,
    disc: networks.Discriminator,
    data: np.ndarray,
    cfg: TrainConfig,
    streams: RngStreams,
    csv_path=None,
    checkpoint_path=None,
    resume_from=None,
) -> list[LossReport]:
    """Plain critic-vs-pixel-generator phase that seeds the anchor.

    Trains `baseline`'s trunk through its pixel head only; the coefficient
    paths are untouched (so there is never an anchor term here).
    """

    def make_fake(z_t: Tensor) -> Tensor:
        return networks.pixel_head(baseline.trunk.forward(z_t))

    gen_params = {f"trunk.{k}": v for k, v in baseline.trunk.params().items()}
    return _run_adversarial(
        make_fake, None, gen_params, disc, data, cfg, streams, baseline.spec.latent_dim,
        phase="pretrain", extra_groups={},
        csv_path=csv_path, checkpoint_path=checkpoint_path, resume_from=resume_from,
    )
