"""Adversarial training: critic with gradient penalty, anchored generator.

The objective is a two-player minimax. The critic maximizes the score gap
between real images and decoded generated images, regularized by a gradient
penalty on interpolates. The generator minimizes the critic score of its
decoded output plus a weighted L1 pull toward a frozen pixel-space anchor
network evaluated on the same latents. Updates alternate on two learning
rates (critic faster), both under Adam.

One training step is three functions: `critic_loss` and `generator_loss`
build each player's loss on the tape, and `param_grads` differentiates a
loss with respect to one player's parameters. The training loop and the
gradient oracles in the tests call the same three, so the step the tests
check is the step training runs.

All randomness flows through named `RngStreams` spawned per absolute step
index, so a resumed run takes byte-identical draws to an uninterrupted one.

A step holds one player's tape at a time. The critic's loss, with the
penalty's double-backward graph, is dropped right after the critic's update
and the generator's right after its own, so the next pass reuses their
memory; the report keeps only floats. Before its first step the loop asks
glibc's malloc to keep freed memory in the process (`_keep_freed_memory`),
so that reuse costs no page faults.

A checkpoint's keys are defined once, by `_layout`: each group's parameters
as `<group>/<name>`, then `step`, then each optimizer's `<opt>/t`,
`<opt>/m/<name>` and `<opt>/v/<name>`. It maps them to the live arrays, so
saving writes those and loading checks every key and shape, then fills them.
"""

from __future__ import annotations

import csv
import ctypes
import math
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
    "critic_loss",
    "generator_loss",
    "param_grads",
    "train",
    "pretrain_baseline",
    "load_pretrained",
    "save_checkpoint",
    "load_checkpoint",
    "check_resume",
]

CSV_COLUMNS = ("step", "d_loss", "g_loss", "anchor_term", "gp_term", "mean_grad_norm")

GRAD_NORM_EPS = 1e-12  # keeps the penalty's sqrt differentiable at zero

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc <malloc.h> mallopt parameters


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

    def problems(self) -> list[str]:
        """One message per setting out of range; empty when the config is valid.

        A NaN or infinite weight, learning rate or `adam_eps` gets one message
        of its own and none from the range checks."""
        reals = ("anchor_weight", "gp_weight", "lr_discriminator", "lr_generator", "adam_eps")
        finite = {k: math.isfinite(getattr(self, k)) for k in reals}
        # a non-finite setting is reported once, below: 1.0 passes its range check
        value = {k: getattr(self, k) if finite[k] else 1.0 for k in reals}
        checks = [
            (self.steps >= 0, "steps must be >= 0"),
            (self.batch_size >= 1, "batch_size must be >= 1"),
            (value["anchor_weight"] >= 0 and value["gp_weight"] >= 0, "loss weights must be >= 0"),
            (value["lr_discriminator"] > 0 and value["lr_generator"] > 0, "learning rates must be > 0"),
            (self.critic_updates_per_gen >= 1, "critic_updates_per_gen must be >= 1"),
            (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1, "betas must lie in [0, 1)"),
            (value["adam_eps"] >= 0, "adam_eps must be >= 0"),
            (self.checkpoint_every >= 0, "checkpoint_every must be >= 0"),
        ]
        checks += [(finite[k], f"{k} must be finite") for k in reals]
        return [message for ok, message in checks if not ok]

    def validate(self) -> None:
        problems = self.problems()
        if problems:
            raise ValueError("; ".join(problems))


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
        return [self.step] + [f"{getattr(self, c):.10g}" for c in CSV_COLUMNS[1:]]

    def finite(self) -> bool:
        return all(np.isfinite(getattr(self, c)) for c in CSV_COLUMNS[1:])


class DivergenceError(RuntimeError):
    def __init__(self, step: int, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step


class Adam:
    """Adam with bias correction, updating parameter tensors in place.

    The step count `t` is a 0-d array, so `state_arrays` is the live state."""

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float,
        beta1: float = 0.0,
        beta2: float = 0.9,
        eps: float = 1e-8,
    ):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = np.array(0, dtype=np.int64)
        self.m = {k: np.zeros_like(params[k].data, dtype=np.float64) for k in params}
        self.v = {k: np.zeros_like(params[k].data, dtype=np.float64) for k in params}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** int(self.t)
        b2c = 1.0 - self.beta2 ** int(self.t)
        for name, p in self.params.items():
            g = np.asarray(grads[name], dtype=np.float64)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)
            p.data -= update.astype(p.data.dtype)

    def state_arrays(self, prefix: str) -> dict[str, np.ndarray]:
        """The live optimizer state under its checkpoint keys."""
        out = {f"{prefix}/t": self.t}
        for k in self.params:
            out[f"{prefix}/m/{k}"] = self.m[k]
            out[f"{prefix}/v/{k}"] = self.v[k]
        return out


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


def critic_loss(
    disc_fn, real: np.ndarray, fake: np.ndarray, eps_draws: np.ndarray, gp_weight: float
) -> tuple[Tensor, tuple[float, float, float, float]]:
    """WGAN-GP critic loss: mean D(fake) - mean D(real) + gp_weight * penalty.

    `real` and `fake` are pixel arrays (the fake batch is off the
    generator's tape). Returns the loss on the tape and
    `(score_fake, score_real, gp_term, mean_grad_norm)`.
    """
    n = fake.shape[0]
    both = disc_fn(Tensor(np.concatenate([fake, real])))  # one pass, two scores
    s_fake = T.mean_all(T.slice_axis(both, 0, 0, n))
    s_real = T.mean_all(T.slice_axis(both, 0, n, n + real.shape[0]))
    penalty, mean_norm = gradient_penalty(disc_fn, real, fake, eps_draws)
    d_loss = T.add(
        T.add(s_fake, T.scalar_mul(s_real, -1.0)), T.scalar_mul(penalty, gp_weight)
    )
    return d_loss, (float(s_fake.data), float(s_real.data), float(penalty.data), mean_norm)


def generator_loss(
    gen_fn, anchor_fn, disc_fn, z: np.ndarray, anchor_weight: float
) -> tuple[Tensor, tuple[float, float]]:
    """Generator loss: -mean D(G(z)) + anchor_weight * mean |G(z) - anchor(z)|.

    `gen_fn` maps the latent tensor to pixels on the tape; `anchor_fn` maps
    the latent array to the frozen reference pixels, or is None (no anchor
    term). Returns the loss on the tape and `(score_fake, anchor_term)`.
    """
    fake_t = gen_fn(Tensor(z))
    anchor_imgs = None if anchor_fn is None else anchor_fn(z)
    score = T.mean_all(disc_fn(fake_t))
    g_loss = T.scalar_mul(score, -1.0)
    anchor_val = 0.0
    if anchor_imgs is not None and anchor_weight > 0:
        gap = T.mean_all(T.abs_(T.add(fake_t, Tensor(-np.asarray(anchor_imgs)))))
        anchor_val = float(gap.data)
        g_loss = T.add(g_loss, T.scalar_mul(gap, anchor_weight))
    return g_loss, (float(score.data), anchor_val)


def param_grads(loss: Tensor, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """d(loss)/d(param) for each named parameter; zeros where the loss does not reach."""
    grads = T.grad(loss, list(params.values()), allow_unused=True)
    return {k: g.data for k, g in zip(params, grads)}


class _CsvLog:
    """`loss.csv`: a header, then one row per step. A run resumed at
    `start_step` keeps the rows an earlier run logged for the steps before
    it and drops the rest, so its log equals an uninterrupted run's. Bytes
    that are not text pass through unchanged."""

    def __init__(self, path, start_step: int):
        self.fh = None
        if path is not None:
            resume = start_step > 0 and os.path.exists(path)
            if resume:
                with open(path, newline="", errors="surrogateescape") as fh:
                    kept = [line for line in fh if _logged_before(line, start_step)]
            self.fh = open(path, "w", newline="", errors="surrogateescape")
            self.writer = csv.writer(self.fh)
            if resume:
                self.fh.writelines(kept)
            else:
                self.writer.writerow(CSV_COLUMNS)
            self.fh.flush()

    def write(self, report: LossReport) -> None:
        if self.fh is not None:
            self.writer.writerow(report.csv_row())
            self.fh.flush()

    def close(self) -> None:
        if self.fh is not None:
            self.fh.close()


def _logged_before(line: str, start_step: int) -> bool:
    """False for a `loss.csv` row of step `start_step` or later; True for the
    header and every other line."""
    step = line.split(",", 1)[0]
    return not step.isdigit() or int(step) < start_step


def _layout(step: int, groups: dict[str, dict[str, Tensor]], optimizers: dict[str, Adam]):
    """Every checkpoint key, in file order, mapped to the live array that holds it."""
    live = {f"{group}/{k}": p.data for group, params in groups.items() for k, p in params.items()}
    live["step"] = np.array(step, dtype=np.int64)
    for name, opt in optimizers.items():
        live.update(opt.state_arrays(name))
    return live


def save_checkpoint(path, step: int, groups: dict[str, dict[str, Tensor]], optimizers: dict[str, Adam]) -> None:
    networks.save_params(path, _layout(step, groups, optimizers))


def _check_arrays(arrays: dict[str, np.ndarray], live: dict[str, np.ndarray], steps: int | None = None) -> None:
    """Raise ValueError unless every key of `live` is in checkpoint
    `arrays` in its shape and, given `steps`, its step is not past `steps`."""
    for key, a in live.items():
        if key not in arrays:
            raise ValueError(f"checkpoint missing {key}")
        if arrays[key].shape != a.shape:
            raise ValueError(f"{key}: shape {arrays[key].shape} != {a.shape}")
    if steps is not None and int(arrays["step"]) > steps:
        raise ValueError(f"step {int(arrays['step'])} is past the {steps} steps to run")


def _load_arrays(arrays: dict[str, np.ndarray], groups, optimizers: dict[str, Adam], steps: int | None = None) -> int:
    """Load `groups` and `optimizers` in place from checkpoint `arrays` and
    return its step; arrays that `_check_arrays` rejects (given `steps`)
    change nothing. Once loaded, `arrays` is emptied, so that no copy of
    the checkpoint outlives the load."""
    live = _layout(0, groups, optimizers)
    _check_arrays(arrays, live, steps)
    for key, a in live.items():
        a[...] = arrays[key]
    arrays.clear()
    return int(live["step"])


def load_checkpoint(path, groups: dict[str, dict[str, Tensor]], optimizers: dict[str, Adam]) -> int:
    """Load `groups` and `optimizers` from `path` in place and return its
    step; a checkpoint that lacks any array or holds one in another shape
    changes nothing."""
    return _load_arrays(networks.load_params(path), groups, optimizers)


def check_resume(
    path, gen: networks.Generator, disc: networks.Discriminator, anchor=None, *, steps: int
) -> dict[str, np.ndarray]:
    """Read checkpoint `path` and return its arrays, for `resume_from`;
    raise OSError or ValueError unless a `train` (given `anchor`) or
    `pretrain_baseline` (without) run of `steps` steps can resume from it.
    Nothing is loaded into the networks."""
    groups = _phase_groups(gen, disc, anchor)
    arrays = networks.load_params(path)
    _check_arrays(arrays, _layout(0, groups, _optimizers(groups, TrainConfig())), steps)
    return arrays


def _sample_batch(data: np.ndarray, streams: RngStreams, tag: str, index: int, n: int):
    idx = streams.spawn(tag, index).integers(0, data.shape[0], size=n)
    return data[idx]


def _latents(streams: RngStreams, tag: str, index: int, n: int, dim: int, dtype):
    return streams.spawn(tag, index).standard_normal((n, dim)).astype(dtype)


def _keep_freed_memory() -> None:
    """Have glibc's malloc keep freed heap memory in the process.

    A step frees its tapes and the next step allocates the same sizes again.
    By default glibc hands a freed heap top back to the OS and serves large
    blocks by mmap, so every step faults its memory in afresh. A 1 GiB trim
    threshold and a 32 MiB mmap threshold keep that memory for reuse; the
    process's RSS then does not shrink after a run. Does nothing where
    `mallopt` is missing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def _run_adversarial(
    make_fake,  # (z_tensor) -> pixels Tensor on the tape
    anchor_eval,  # (z_np) -> pixels np or None
    groups: dict[str, dict[str, Tensor]],  # _phase_groups: the checkpoint's parameters
    disc,
    data: np.ndarray,
    cfg: TrainConfig,
    streams: RngStreams,
    latent_dim: int,
    phase: str,
    csv_path,
    checkpoint_path,
    resume_from,  # None, or the arrays `check_resume` returned; emptied once loaded
) -> list[LossReport]:
    cfg.validate()
    if data.shape[0] == 0:
        raise ValueError("dataset is empty")
    dtype = data.dtype if data.dtype in (np.float32, np.float64) else np.float64
    data = np.asarray(data, dtype=dtype)
    gen_params, disc_params = groups["gen"], groups["disc"]
    optimizers = _optimizers(groups, cfg)
    opt_g, opt_d = optimizers["adam_g"], optimizers["adam_d"]
    start_step = 0 if resume_from is None else _load_arrays(resume_from, groups, optimizers, cfg.steps)
    log = _CsvLog(csv_path, start_step)
    reports: list[LossReport] = []
    last_checkpoint = start_step if start_step > 0 else None
    _keep_freed_memory()

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
                for sub in range(cfg.critic_updates_per_gen):
                    tick = step * cfg.critic_updates_per_gen + sub
                    real = _sample_batch(data, streams, f"{phase}-real", tick, cfg.batch_size)
                    z = _latents(streams, f"{phase}-z-critic", tick, cfg.batch_size, latent_dim, dtype)
                    eps = streams.spawn(f"{phase}-gp", tick).uniform(size=cfg.batch_size)
                    d_loss, (s_fake, s_real, gp_val, mean_norm) = critic_loss(
                        disc.forward, real, make_fake_eval(z), eps, cfg.gp_weight
                    )
                    opt_d.step(param_grads(d_loss, disc_params))
                    d_val = float(d_loss.data)
                    del d_loss  # free the critic's tape, penalty graph included, for the generator pass

                z = _latents(streams, f"{phase}-z-gen", step, cfg.batch_size, latent_dim, dtype)
                g_loss, (score_fake_gen, anchor_val) = generator_loss(
                    make_fake, anchor_eval, disc.forward, z, cfg.anchor_weight
                )
                opt_g.step(param_grads(g_loss, gen_params))
                g_val = float(g_loss.data)
                del g_loss  # free the generator's tape before the next critic pass
            except NonFiniteError as exc:
                raise diverged(step, f"non-finite value in the graph: {exc}") from exc

            report = LossReport(
                step=step, d_loss=d_val, g_loss=g_val, anchor_term=anchor_val,
                gp_term=gp_val, mean_grad_norm=mean_norm,
                score_real=s_real, score_fake=s_fake, score_fake_gen=score_fake_gen,
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
    `resume_from`, if given, is the dict `check_resume` returned for these
    networks; the run continues from its step and empties it once loaded.
    """

    def make_fake(z_t: Tensor) -> Tensor:
        out = gen.forward(z_t)
        return codec.decode_planes(out.y, out.cb, out.cr, out.quality_factor, out.mode)

    def anchor_eval(z: np.ndarray) -> np.ndarray:
        with T.no_grad():
            return anchor.forward(Tensor(z)).data

    return _run_adversarial(
        make_fake, anchor_eval, _phase_groups(gen, disc, anchor), disc, data, cfg, streams,
        gen.spec.latent_dim, phase="joint",
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

    Trains `networks.AnchorGenerator(baseline.trunk)`, the trunk through its
    pixel head only; the coefficient paths are untouched (so there is never
    an anchor term here). `resume_from` is as for `train`.
    """
    return _run_adversarial(
        networks.AnchorGenerator(baseline.trunk).forward, None, _phase_groups(baseline, disc),
        disc, data, cfg, streams, baseline.spec.latent_dim, phase="pretrain",
        csv_path=csv_path, checkpoint_path=checkpoint_path, resume_from=resume_from,
    )


def _phase_groups(gen: networks.Generator, disc: networks.Discriminator, anchor=None):
    """A phase's checkpoint groups. The pretrain phase trains the trunk, as
    `gen/trunk.*`, and the critic; the joint phase (given `anchor`) trains
    all of `gen` and the critic and also stores the frozen anchor."""
    if anchor is None:
        return {"gen": networks.AnchorGenerator(gen.trunk).params(), "disc": disc.params()}
    return {"gen": gen.params(), "disc": disc.params(), "anchor": anchor.params()}


def _optimizers(groups: dict[str, dict[str, Tensor]], cfg: TrainConfig) -> dict[str, Adam]:
    """A phase's optimizers under their checkpoint names."""
    return {
        "adam_g": Adam(groups["gen"], cfg.lr_generator, cfg.beta1, cfg.beta2, cfg.adam_eps),
        "adam_d": Adam(groups["disc"], cfg.lr_discriminator, cfg.beta1, cfg.beta2, cfg.adam_eps),
    }


def load_pretrained(path, gen: networks.Generator, disc: networks.Discriminator) -> None:
    """Seed `gen`'s trunk and `disc` from a `pretrain_baseline` checkpoint.

    The checkpoint holds `gen/trunk.*` (the trunk only: the coefficient
    paths keep their initial weights) and `disc/*`.
    """
    load_checkpoint(path, _phase_groups(gen, disc), {})
