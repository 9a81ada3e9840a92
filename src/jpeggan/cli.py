"""Command-line front end.

Subcommands: pretrain, train, generate, encode, decode, fid, sweep.
Settings resolve in order default < config file < environment < flag, the
last writer winning. Every run writes a manifest (the fully resolved
settings plus versions) next to its outputs, and touches nothing outside
the --out directory.

Exit codes: 0 success, 1 usage or configuration (a setting too large to
allocate, or inputs that would write one output file, included), 2
unreadable or malformed data, 3 numerical divergence.
"""

from __future__ import annotations

import argparse
import configparser
import copy
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import __version__, codec, datasets, fid, jfif, networks, training
from . import tensor as T
from .jpeg import MODES
from .rng import RngStreams
from .tensor import NonFiniteError, Tensor

ENV_PREFIX = "JPEGGAN_"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3


class UsageError(Exception):
    """Bad flags or configuration; carries one message per problem."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(self.issues))


class DataError(Exception):
    pass


# Defaults double as the type schema: config and environment values are
# coerced to the type of the default they override.
DEFAULTS = {
    "run": {"seed": 0, "precision": "f64"},
    "data": {"count": 1000, "size": 32},
    "train": dataclasses.asdict(training.TrainConfig()),
    "generator": dataclasses.asdict(networks.GeneratorSpec()),
    # the critic's resolution is the generator's
    "discriminator": {"base_channels": networks.DiscriminatorSpec.base_channels},
}

# flag/environment name -> config location
_FLAG_KEYS = {
    "seed": ("run", "seed"),
    "precision": ("run", "precision"),
    "steps": ("train", "steps"),
    "qf": ("generator", "quality_factor"),
    "mode": ("generator", "mode"),
}


def _coerce(raw: str, like, where: str, issues: list):
    kind = type(like)
    try:
        return kind(raw)
    except ValueError:
        issues.append(f"{where}: cannot read {raw!r} as {kind.__name__}")
        return like


def _load_config_file(path, cfg, issues):
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as e:
        issues.append(f"--config: {e}")
        return
    for section in parser.sections():
        if section not in cfg:
            issues.append(f"config section [{section}] is not recognized")
            continue
        for key, raw in parser.items(section):
            if key not in cfg[section]:
                issues.append(f"config key [{section}] {key} is not recognized")
                continue
            cfg[section][key] = _coerce(raw, cfg[section][key], f"[{section}] {key}", issues)


def _apply_overrides(args, cfg, issues):
    """Environment variables, then flags: the later source wins, and problems
    are reported in that order."""
    env = [(ENV_PREFIX + name.upper(), os.environ.get(ENV_PREFIX + name.upper())) for name in _FLAG_KEYS]
    flags = [(f"--{name}", getattr(args, name, None)) for name in _FLAG_KEYS]
    for source in (env, flags):
        for (where, raw), (section, key) in zip(source, _FLAG_KEYS.values()):
            if raw is not None:
                cfg[section][key] = _coerce(str(raw), cfg[section][key], where, issues)


def _validate(cfg, issues):
    if cfg["run"]["seed"] < 0:
        issues.append("seed must be >= 0")
    if cfg["run"]["precision"] not in ("f32", "f64"):
        issues.append("precision must be f32 or f64")
    gen_spec, disc_spec = _specs(cfg)
    gen_problems = gen_spec.problems()
    issues += [f"[generator] {p}" for p in gen_problems]
    # the critic takes the generator's resolution: report a bad one once
    issues += [f"[discriminator] {p}" for p in disc_spec.problems() if p not in gen_problems]
    if cfg["data"]["count"] < 1:
        issues.append("data count must be >= 1")
    if cfg["data"]["size"] % 16 or cfg["data"]["size"] < 16:
        issues.append("data size must be a positive multiple of 16")
    issues += [f"[train] {p}" for p in training.TrainConfig(**cfg["train"]).problems()]


def resolve_config(args) -> dict:
    """default < config file < environment < flags; all problems at once."""
    issues: list[str] = []
    cfg = copy.deepcopy(DEFAULTS)
    if getattr(args, "config", None):
        _load_config_file(args.config, cfg, issues)
    _apply_overrides(args, cfg, issues)
    _validate(cfg, issues)
    if issues:
        raise UsageError(issues)
    return cfg


def _dtype(cfg):
    return np.float32 if cfg["run"]["precision"] == "f32" else np.float64


def _specs(cfg) -> tuple[networks.GeneratorSpec, networks.DiscriminatorSpec]:
    gen_spec = networks.GeneratorSpec(**cfg["generator"])
    disc_spec = networks.DiscriminatorSpec(
        resolution=cfg["generator"]["resolution"],
        base_channels=cfg["discriminator"]["base_channels"],
    )
    return gen_spec, disc_spec


def _build_networks(cfg, dtype):
    gen_spec, disc_spec = _specs(cfg)
    rng = np.random.default_rng(cfg["run"]["seed"])
    gen = networks.Generator(gen_spec, rng)
    disc = networks.Discriminator(disc_spec, rng)
    networks.cast_params(gen, dtype)
    networks.cast_params(disc, dtype)
    return gen, disc


def _load_data(source, cfg, dtype) -> np.ndarray:
    try:
        data = datasets.load_dataset(
            source, count=cfg["data"]["count"], size=cfg["data"]["size"], seed=cfg["run"]["seed"]
        )
    except (OSError, ValueError) as e:
        raise DataError(f"dataset {source}: {e}") from None
    return data.astype(dtype)


def _training_inputs(args, cfg):
    """The networks and the dataset of a training command, checked against
    each other."""
    dtype = _dtype(cfg)
    gen, disc = _build_networks(cfg, dtype)
    data = _load_data(args.data, cfg, dtype)
    res = cfg["generator"]["resolution"]
    if data.shape[2:] != (res, res):
        h, w = data.shape[2:]
        raise UsageError(
            [f"dataset {args.data}: {h}x{w} images, but [generator] resolution is {res}x{res}"]
        )
    try:  # a batch too large to allocate fails here, before --out exists
        np.empty((cfg["train"]["batch_size"], *data.shape[1:]), data.dtype)
    except ValueError as e:  # numpy's refusal of a size past any address space
        raise MemoryError(e) from None
    return gen, disc, data


def _start_out(args, cfg, extra=None) -> str:
    """Create --out and write its manifest: the resolved settings, the
    command's name and versions, plus `extra`."""
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as e:
        raise UsageError([f"--out {args.out}: {e.strerror}"]) from None
    doc = {
        "command": args.command,
        "config": cfg,
        "versions": {"jpeggan": __version__, "numpy": np.__version__},
        **(extra or {}),
    }
    with open(os.path.join(args.out, "manifest.json"), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return args.out


# -- commands -----------------------------------------------------------------


def _run_phase(args, cfg, phase, gen, disc, anchor=None) -> int:
    """Read and check --resume against `gen`, `disc` and `anchor`, then run
    `phase`, a training function bound to its networks and data, into --out
    from the arrays read."""
    resume_from = None
    if args.resume is not None:
        try:
            resume_from = training.check_resume(args.resume, gen, disc, anchor, steps=cfg["train"]["steps"])
        except (OSError, ValueError) as e:
            raise DataError(f"resume checkpoint: {e}") from None
    out = _start_out(args, cfg)
    phase(
        training.TrainConfig(**cfg["train"]),
        RngStreams(cfg["run"]["seed"]),
        csv_path=os.path.join(out, "loss.csv"),
        checkpoint_path=os.path.join(out, "checkpoint.params"),
        resume_from=resume_from,
    )
    return EXIT_OK


def cmd_pretrain(args) -> int:
    cfg = resolve_config(args)
    gen, disc, data = _training_inputs(args, cfg)
    phase = functools.partial(training.pretrain_baseline, gen, disc, data)
    return _run_phase(args, cfg, phase, gen, disc)


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    if (args.pretrained is None) == (args.resume is None):
        raise UsageError(["exactly one of --pretrained and --resume is required"])
    gen, disc, data = _training_inputs(args, cfg)
    if args.pretrained is not None:
        try:
            training.load_pretrained(args.pretrained, gen, disc)
        except (OSError, ValueError) as e:
            raise DataError(f"pretrained checkpoint: {e}") from None
    anchor = networks.extract_anchor(gen)
    phase = functools.partial(training.train, gen, anchor, disc, data)
    return _run_phase(args, cfg, phase, gen, disc, anchor)


def cmd_generate(args) -> int:
    cfg = resolve_config(args)
    if args.count < 0:
        raise UsageError(["--count must be >= 0"])
    if args.grid_cols < 1:
        raise UsageError(["--grid-cols must be >= 1"])
    dtype = _dtype(cfg)
    gen, _ = _build_networks(cfg, dtype)
    try:
        training.load_checkpoint(args.checkpoint, {"gen": gen.params()}, {})
    except (OSError, ValueError) as e:
        raise DataError(f"checkpoint: {e}") from None
    out = _start_out(args, cfg, {"count": args.count})

    streams = RngStreams(cfg["run"]["seed"])
    previews = []
    written = 0
    while written < args.count:
        n = min(64, args.count - written)
        z = streams.spawn("generate-z", written).standard_normal((n, gen.spec.latent_dim))
        with T.no_grad():
            batch = gen.forward(Tensor(z.astype(dtype)))
            pixels = codec.decode_planes(
                batch.y, batch.cb, batch.cr, batch.quality_factor, batch.mode
            ).data
        for i, enc in enumerate(networks.to_encoded_images(batch)):
            path = os.path.join(out, f"sample_{written + i:05d}.jpg")
            jfif.write_jfif(enc, path)
            back = jfif.read_jfif(path)  # self-check: the file must decode to
            ok = (  # exactly the coefficients we just emitted
                np.array_equal(back.y, enc.y)
                and np.array_equal(back.cb, enc.cb)
                and np.array_equal(back.cr, enc.cr)
            )
            if not ok:
                raise DataError(f"{path}: re-read coefficients differ")
        previews.append(pixels)
        written += n
    if written:
        grid_path = os.path.join(out, "grid.ppm")
        datasets.write_sample_grid(grid_path, np.concatenate(previews), cols=args.grid_cols)
    return EXIT_OK


def _convert_each(args, cfg, convert, write) -> int:
    """`convert` every input before --out exists, then `write(value, stem)`
    one file per input, `stem` being its --out path without a suffix. Inputs
    whose stems are the same are a usage error, raised before any of this."""
    stems: dict[str, list[str]] = {}
    for path in args.inputs:
        stems.setdefault(os.path.splitext(os.path.basename(path))[0], []).append(path)
    clashes = [f"inputs {', '.join(paths)} would write one file" for paths in stems.values() if len(paths) > 1]
    if clashes:
        raise UsageError(clashes)
    converted = [convert(path) for path in args.inputs]
    out = _start_out(args, cfg, {"inputs": list(args.inputs)})
    for stem, value in zip(stems, converted):
        write(value, os.path.join(out, stem))
    return EXIT_OK


def cmd_encode(args) -> int:
    cfg = resolve_config(args)
    qf, mode = cfg["generator"]["quality_factor"], cfg["generator"]["mode"]

    def encode(path):
        try:
            image = datasets.read_ppm(path)
        except (OSError, ValueError) as e:  # read_ppm's and open()'s errors name the path
            raise DataError(str(e)) from None
        try:
            return jfif.encode_jfif(codec.encode_image(image, qf, mode))
        except ValueError as e:
            raise DataError(f"{path}: {e}") from None

    def write(data, stem):
        with open(stem + ".jpg", "wb") as fh:
            fh.write(data)

    return _convert_each(args, cfg, encode, write)


def cmd_decode(args) -> int:
    cfg = resolve_config(args)

    def read(path):
        try:
            return jfif.read_jfif(path)
        except OSError as e:  # open()'s errors name the path
            raise DataError(str(e)) from None
        except ValueError as e:
            raise DataError(f"{path}: {e}") from None

    return _convert_each(
        args, cfg, read, lambda enc, stem: datasets.write_ppm(stem + ".ppm", codec.decode_image(enc))
    )


def cmd_fid(args) -> int:
    cfg = resolve_config(args)
    dtype = _dtype(cfg)
    stats = []
    for source in (args.set_a, args.set_b):
        images = _load_data(source, cfg, dtype)
        try:  # a covariance needs two or more images
            stats.append(fid.FidStats.from_features(fid.pixel_features(images)))
        except ValueError as e:
            raise DataError(f"dataset {source}: {e}") from None
    value = fid.frechet_distance(*stats)
    out = _start_out(args, cfg, {"set_a": args.set_a, "set_b": args.set_b})
    with open(os.path.join(out, "fid.csv"), "w") as fh:
        fh.write("set_a,set_b,fid\n")
        fh.write(f"{args.set_a},{args.set_b},{value:.10g}\n")
    print(f"{value:.10g}")
    return EXIT_OK


def _parse_list(raw: str, what: str, item=int) -> list:
    """The non-empty tokens of comma-separated `raw`, each read by `item`."""
    try:
        values = [item(tok) for tok in raw.split(",") if tok]
    except ValueError:
        raise UsageError([f"{what}: cannot read {raw!r} as a comma-separated integer list"])
    if not values:
        raise UsageError([f"{what}: {raw!r} names no value"])
    return values


def cmd_sweep(args) -> int:
    cfg = resolve_config(args)
    dtype = _dtype(cfg)
    qfs = _parse_list(args.qf_list or "100,75,50,25", "--qf")
    modes = _parse_list(args.mode_list or "4:4:4,4:2:2,4:2:0", "--mode", str)
    issues = [f"quality factor {q} outside 1..100" for q in qfs if not 1 <= q <= 100]
    issues += [f"unknown mode {m!r}" for m in modes if m not in MODES]
    if issues:
        raise UsageError(issues)
    images = _load_data(args.data, cfg, dtype)
    try:  # the settings are checked above, so what fails here is the data
        rows = fid.compression_sweep(images, qfs, modes)
    except ValueError as e:
        raise DataError(f"dataset {args.data}: {e}") from None
    out = _start_out(args, cfg, {"quality_factors": qfs, "modes": modes})
    fid.write_sweep_csv(rows, os.path.join(out, "sweep.csv"))
    return EXIT_OK


# -- argument parsing ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # list the problem instead of exiting with 2
        raise UsageError([message])


def _add_common(p: _Parser, with_steps: bool = False, with_codec: bool = False):
    p.add_argument("--config", help="INI settings file")
    p.add_argument("--seed", type=int, help="run seed")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--precision", choices=("f32", "f64"), help="arithmetic width")
    if with_steps:
        p.add_argument("--steps", type=int, help="training steps")
    if with_codec:
        p.add_argument("--qf", type=int, help="quality factor")
        p.add_argument("--mode", help="chroma mode")


def build_parser() -> _Parser:
    parser = _Parser(prog="jpeggan", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="train the pixel baseline that seeds the anchor")
    p.add_argument("data", help="dataset: 'synthetic', a .bin batch, or a PPM directory")
    p.add_argument("--resume", help="continue from this checkpoint")
    _add_common(p, with_steps=True, with_codec=True)
    p.set_defaults(run=cmd_pretrain)

    p = sub.add_parser("train", help="joint-train the coefficient generator and critic")
    p.add_argument("data", help="dataset: 'synthetic', a .bin batch, or a PPM directory")
    p.add_argument("--pretrained", help="pretrain checkpoint that seeds trunk and critic")
    p.add_argument("--resume", help="continue from this joint checkpoint")
    _add_common(p, with_steps=True, with_codec=True)
    p.set_defaults(run=cmd_train)

    p = sub.add_parser("generate", help="sample JFIF files from a trained generator")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--count", type=int, default=64, help="number of images")
    p.add_argument("--grid-cols", type=int, default=8)
    _add_common(p, with_codec=True)
    p.set_defaults(run=cmd_generate)

    p = sub.add_parser("encode", help="compress PPM images with the reference codec")
    p.add_argument("inputs", nargs="+", help="PPM files")
    _add_common(p, with_codec=True)
    p.set_defaults(run=cmd_encode)

    p = sub.add_parser("decode", help="decompress JFIF files to PPM")
    p.add_argument("inputs", nargs="+", help="JFIF files")
    _add_common(p)
    p.set_defaults(run=cmd_decode)

    p = sub.add_parser("fid", help="Frechet distance between two image sets")
    p.add_argument("set_a")
    p.add_argument("set_b")
    _add_common(p)
    p.set_defaults(run=cmd_fid)

    p = sub.add_parser("sweep", help="FID of re-encoded images per quality and mode")
    p.add_argument("data")
    p.add_argument("--qf", dest="qf_list", help="comma-separated quality factors")
    p.add_argument("--mode", dest="mode_list", help="comma-separated chroma modes")
    _add_common(p)
    p.set_defaults(run=cmd_sweep)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except UsageError as e:
        for issue in e.issues:
            print(f"error: {issue}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except training.DivergenceError as e:
        print(f"error: training diverged at {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except NonFiniteError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except MemoryError as e:  # a configured size too large to allocate
        print(f"error: out of memory: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
