"""The workloads: set-up, the measured closed loop and the output checks.

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns. Inputs are made from the seed alone. The
program is driven only through its public functions; where an operation's
boundary lies inside a library call (a training step inside
`training.train`, a sweep setting inside `fid.compression_sweep`), a
timestamp is taken when the public function that ends it returns
(`training.Adam.step`, `fid.frechet_distance`).
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from jpeggan import codec, datasets, fid, jfif, networks, training
from jpeggan import tensor as T
from jpeggan.rng import RngStreams
from jpeggan.tensor import Tensor

MIN_OPS = 11  # the tail percentile needs ten samples beyond it
TINY_MIN_OPS = 2  # enough to compare two operations' counters
PROTOCOL_STEPS = 2000  # per phase, in the pinned protocol
PROTOCOL_BUDGET_S = 1800.0  # the pinned protocol's own time budget


@dataclass
class Outcome:
    op_ms: list[float]  # wall time of each completed operation, in order
    items: int  # items completed (see each workload's `item`)
    wall_s: float  # wall time of the whole measured loop
    attempted: int  # operations started
    failed: int  # operations that failed an output check or did not finish
    samples: dict[str, list[float]] = field(default_factory=dict)
    phases: dict[str, float] = field(default_factory=dict)

    def scaled(self, factor: float) -> "Outcome":
        """The same outcome with every time multiplied by `factor`."""
        return Outcome(
            op_ms=[t * factor for t in self.op_ms],
            items=self.items,
            wall_s=self.wall_s * factor,
            attempted=self.attempted,
            failed=self.failed,
            samples={k: [t * factor for t in v] for k, v in self.samples.items()},
            phases={k: t * factor for k, t in self.phases.items()},
        )


def p50(values) -> float:
    return float(np.median(values))


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile that has
    at least ten samples beyond it; with fewer than 11 samples, the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


@contextmanager
def _after(owner, attr, hook):
    """Call `hook(self_or_none)` each time `owner.attr` returns."""
    inner = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    if isinstance(owner, type):
        def stamped(self, *args, **kwargs):
            out = inner(self, *args, **kwargs)
            hook(self)
            return out
    else:
        def stamped(*args, **kwargs):
            out = inner(*args, **kwargs)
            hook(None)
            return out

    setattr(owner, attr, stamped)
    try:
        yield
    finally:
        setattr(owner, attr, inner)


class TrainPinned:
    """The pinned training protocol at a few steps per phase.

    Synthetic corpus (1000 images, 32x32), generator width 4, latent 32,
    path channels 2, qf 75, 4:2:0, critic width 8, batch 64, float32 and
    the default `TrainConfig` apart from `steps`: a short
    `pretrain_baseline`, `extract_anchor`, then a short `train`. Nearly all
    time is the tensor tape, the penalty's double backward and narrow
    convolutions.
    """

    name = "train-pinned"
    item = "protocol step: one pretrain step plus one joint step"
    f32 = True
    window = 2

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.corpus = 32 if tiny else 1000
        self.batch = 4 if tiny else 64

    def _networks(self):
        rng = np.random.default_rng(self.seed)
        gen = networks.Generator(
            networks.GeneratorSpec(latent_dim=32, resolution=32, base_channels=4,
                                   path_channels=2, quality_factor=75, mode="4:2:0"),
            rng,
        )
        disc = networks.Discriminator(networks.DiscriminatorSpec(resolution=32, base_channels=8), rng)
        networks.cast_params(gen, np.float32)
        networks.cast_params(disc, np.float32)
        return gen, disc

    def setup(self):
        data = datasets.synthetic_dataset(self.seed, self.corpus, 32).astype(np.float32)
        warm = self._train(data, 1, None, None)  # warm-up, and the step-time estimate
        return data, warm.op_ms[0] / 1000.0

    def run(self, state, seconds, min_ops, tracer, cal) -> Outcome:
        data, pair_s = state
        return self._train(data, max(min_ops, round(seconds / pair_s)), tracer, cal)

    def _train(self, data, steps, tracer, cal) -> Outcome:
        gen, disc = self._networks()
        gen_ids = {id(p) for p in gen.params().values()}
        cfg = training.TrainConfig(steps=steps, batch_size=self.batch)
        streams = RngStreams(self.seed)
        stamps: list[tuple[float, bool, float]] = []  # (step end, generator?, resumed)

        def on_step(opt):
            end = time.perf_counter()
            is_gen = id(next(iter(opt.params.values()))) in gen_ids
            if is_gen and cal:
                cal.sample()
            stamps.append((end, is_gen, time.perf_counter()))
            if is_gen and tracer:
                tracer.op_id += 1

        phases = {"critic_ms": 0.0, "generator_ms": 0.0}

        def phase(fn):
            stamps.clear()
            if tracer:
                tracer.op_id = 0
            start = time.perf_counter()
            try:
                reports = fn()
            except training.DivergenceError:
                reports = []
            step_ms, prev, critic_end = [], start, start
            for t, is_gen, resumed in stamps:
                if not is_gen:
                    critic_end = t
                    continue
                phases["critic_ms"] += 1000.0 * (critic_end - prev)
                phases["generator_ms"] += 1000.0 * (t - critic_end)
                step_ms.append(1000.0 * (t - prev))
                prev = resumed
            return [r.finite() for r in reports], step_ms

        spent = cal.spent_s if cal else 0.0
        start = time.perf_counter()
        with _after(training.Adam, "step", on_step):
            pre_ok, pre_ms = phase(lambda: training.pretrain_baseline(gen, disc, data, cfg, streams))
            anchor = networks.extract_anchor(gen)
            joint_ok, joint_ms = phase(lambda: training.train(gen, anchor, disc, data, cfg, streams))
        wall = time.perf_counter() - start - ((cal.spent_s - spent) if cal else 0.0)
        pairs = min(len(pre_ms), len(joint_ms))
        good = sum(1 for a, b in zip(pre_ok, joint_ok) if a and b)
        return Outcome(
            op_ms=[a + b for a, b in zip(pre_ms, joint_ms)],
            items=pairs,
            wall_s=wall,
            attempted=steps,
            failed=steps - good,
            samples={"pretrain_step_ms": pre_ms, "joint_step_ms": joint_ms},
            phases=phases,
        )

    def own_metrics(self, out: Outcome) -> dict:
        pre, joint = out.samples["pretrain_step_ms"], out.samples["joint_step_ms"]
        p50_pre, p50_joint = p50(pre), p50(joint)
        return {
            "pretrain_step_ms.p50": (p50_pre, "ms"),
            "pretrain_step_ms.tail": (tail(pre)[0], "ms"),
            "joint_step_ms.p50": (p50_joint, "ms"),
            "joint_step_ms.tail": (tail(joint)[0], "ms"),
            "protocol_projected_s": (PROTOCOL_STEPS * (p50_pre + p50_joint) / 1000.0, "s"),
        }


class SampleWide:
    """`jpeggan generate` at the command-line defaults, kept in memory.

    Generator width 128, latent 128, path channels 4, float64, freshly
    initialised from the seed; batches of 64 through `Generator.forward`
    under `no_grad`, `decode_planes`, `to_encoded_images`, `encode_jfif`
    and `decode_jfif`, with the command's coefficient self-check. Forward
    only at wide channels: no tape, no `col2im`.
    """

    name = "sample-wide"
    item = "verified JPEG"
    f32 = False
    window = 2

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.spec = networks.GeneratorSpec(latent_dim=16, base_channels=8) if tiny else networks.GeneratorSpec()
        self.batch = 4 if tiny else 64

    def setup(self):
        gen = networks.Generator(self.spec, np.random.default_rng(self.seed))
        networks.cast_params(gen, np.float64)
        self._batch(gen, 0)  # warm-up
        return gen

    def _batch(self, gen, index) -> bool:
        z = RngStreams(self.seed).spawn("generate-z", index * self.batch)
        z = z.standard_normal((self.batch, self.spec.latent_dim))
        with T.no_grad():
            out = gen.forward(Tensor(z.astype(np.float64)))
            pixels = codec.decode_planes(out.y, out.cb, out.cr, out.quality_factor, out.mode).data
        ok = bool(np.isfinite(pixels).all() and pixels.min() >= 0.0 and pixels.max() <= 255.0)
        for enc in networks.to_encoded_images(out):
            enc.validate()
            back = jfif.decode_jfif(jfif.encode_jfif(enc))
            ok &= all(np.array_equal(getattr(back, p), getattr(enc, p)) for p in ("y", "cb", "cr"))
        return ok

    def run(self, gen, seconds, min_ops, tracer, cal) -> Outcome:
        return _loop(lambda i: self._batch(gen, i), seconds, min_ops, self.batch, tracer, cal)

    def own_metrics(self, out: Outcome) -> dict:
        return {
            "sample_images_per_s": (out.items / out.wall_s, "1/s"),
            "sample_batch_ms.p50": (p50(out.op_ms), "ms"),
            "sample_batch_ms.tail": (tail(out.op_ms)[0], "ms"),
        }


class CodecSweep:
    """`jpeggan sweep` at its defaults over the 1000-image synthetic corpus.

    `fid.compression_sweep` at qf 100, 75, 50, 25 x modes 4:4:4, 4:2:2,
    4:2:0, run as whole sweeps; one operation is one setting. The reference
    codec's per-image loop and `fid` do the work; `tensor` and `jfif` none.
    """

    name = "codec-sweep"
    item = "image re-encode (one image at one setting)"
    f32 = False
    qfs = (100, 75, 50, 25)
    modes = ("4:4:4", "4:2:2", "4:2:0")

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.corpus = 256 if tiny else 1000
        self.window = len(self.qfs) * len(self.modes)

    def setup(self):
        images = datasets.synthetic_dataset(self.seed, self.corpus, 32).astype(np.float64)
        start = time.perf_counter()
        fid.compression_sweep(images, [75], ["4:2:0"], extractor=fid.pixel_features)  # warm-up
        return images, time.perf_counter() - start

    def run(self, state, seconds, min_ops, tracer, cal) -> Outcome:
        images, setting_s = state
        per_pass = self.window
        passes = max(math.ceil(min_ops / per_pass), round(seconds / (per_pass * setting_s)))
        op_ms, failed = [], 0
        resumed = 0.0

        def on_setting(_):
            nonlocal resumed
            end = time.perf_counter()
            op_ms.append(1000.0 * (end - resumed))
            cal.sample()
            resumed = time.perf_counter()
            if tracer:
                tracer.op_id += 1

        if tracer:
            tracer.op_id = 0
        spent = cal.spent_s
        start = time.perf_counter()
        with _after(fid, "frechet_distance", on_setting):
            for _ in range(passes):
                resumed = time.perf_counter()
                try:
                    rows = fid.compression_sweep(images, self.qfs, self.modes, extractor=fid.pixel_features)
                except ValueError:  # inconsistent moments
                    rows = []
                failed += self._check(rows)
        wall = time.perf_counter() - start - (cal.spent_s - spent)
        return Outcome(op_ms=op_ms, items=len(op_ms) * len(images), wall_s=wall,
                       attempted=passes * per_pass, failed=failed)

    def _check(self, rows) -> int:
        """Rows that are non-finite, or below a setting that compresses less.

        The distance must not decrease as qf drops (same mode) or as chroma
        coarsens at qf 100.
        """
        table = {(qf, mode): d for qf, mode, d in rows}
        bad = 0
        for qf, mode, d in rows:
            lighter = []
            i = self.qfs.index(qf)
            if i:
                lighter.append(table[(self.qfs[i - 1], mode)])
            j = self.modes.index(mode)
            if qf == 100 and j:
                lighter.append(table[(100, self.modes[j - 1])])
            bad += not (np.isfinite(d) and all(d >= x for x in lighter))
        return bad + self.window - len(rows)

    def own_metrics(self, out: Outcome) -> dict:
        return {
            "sweep_reencodes_per_s": (out.items / out.wall_s, "1/s"),
            "sweep_setting_ms.p50": (p50(out.op_ms), "ms"),
        }


def _loop(op, seconds, min_ops, items_per_op, tracer, cal) -> Outcome:
    """Run `op(i)` for i = 0, 1, ... until `seconds` and `min_ops` are both met."""
    op_ms, failed = [], 0
    spent = cal.spent_s
    start = time.perf_counter()
    while len(op_ms) < min_ops or time.perf_counter() - start < seconds:
        i = len(op_ms)
        if tracer:
            tracer.op_id = i
        cal.sample()
        began = time.perf_counter()
        try:
            ok = op(i)
        except ValueError:  # the program's verdict on invalid data
            ok = False
        op_ms.append(1000.0 * (time.perf_counter() - began))
        failed += not ok
    wall = time.perf_counter() - start - (cal.spent_s - spent)
    return Outcome(op_ms=op_ms, items=len(op_ms) * items_per_op, wall_s=wall,
                   attempted=len(op_ms), failed=failed)


WORKLOADS = {w.name: w for w in (TrainPinned, SampleWide, CodecSweep)}
