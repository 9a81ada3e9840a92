"""End-to-end command-line tests, driven in-process through cli.main."""

import json
import os
import shutil
import struct

import numpy as np
import pytest

from jpeggan import cli, codec, datasets, jfif, networks, training

TINY_INI = """\
[run]
precision = f64

[data]
count = 12

[train]
steps = 2
batch_size = 4

[generator]
latent_dim = 6
base_channels = 4
path_channels = 2
quality_factor = 60
mode = 4:2:0

[discriminator]
base_channels = 4
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_INI)
    return str(path)


def run(*argv):
    return cli.main([str(a) for a in argv])


class TestConfigResolution:
    def test_flag_beats_env_beats_file(self, tmp_path, tiny_config, monkeypatch):
        monkeypatch.setenv("JPEGGAN_SEED", "6")
        out = tmp_path / "a"
        assert run("sweep", "synthetic", "--config", tiny_config, "--qf", "90",
                   "--mode", "4:4:4", "--seed", "7", "--out", out) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["run"]["seed"] == 7

        out = tmp_path / "b"
        assert run("sweep", "synthetic", "--config", tiny_config, "--qf", "90",
                   "--mode", "4:4:4", "--out", out) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["run"]["seed"] == 6

    def test_file_beats_default(self, tmp_path):
        cfg = tmp_path / "seeded.ini"
        cfg.write_text(TINY_INI.replace("precision = f64", "precision = f64\nseed = 5"))
        out = tmp_path / "out"
        assert run("sweep", "synthetic", "--config", cfg, "--qf", "90",
                   "--mode", "4:4:4", "--out", out) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["run"]["seed"] == 5

    def test_unknown_keys_all_reported_at_once(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[run]\nbogus = 1\n[nosuch]\nx = 2\n[train]\nsteps = quick\n")
        out = tmp_path / "out"
        assert run("sweep", "synthetic", "--config", cfg, "--out", out) == 1
        err = capsys.readouterr().err
        assert "bogus" in err
        assert "nosuch" in err
        assert "quick" in err

    def test_bad_flag_value(self, tmp_path, capsys):
        assert run("encode", "x.ppm", "--qf", "0", "--out", tmp_path / "o") == 1
        assert "quality factor" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, named", [
        ("[generator]\n", "[generator]\nresolution = 48\n", "[generator] resolution"),
        ("base_channels = 4\npath", "base_channels = 3\npath", "[generator] base_channels"),
        ("path_channels = 2", "path_channels = 0", "[generator] path_channels"),
        ("latent_dim = 6", "latent_dim = 0", "[generator] latent_dim"),
        ("[discriminator]\nbase_channels = 4", "[discriminator]\nbase_channels = 1",
         "[discriminator] base_channels"),
    ], ids=["resolution", "generator-width", "path-channels", "latent-dim", "critic-width"])
    def test_bad_network_setting_is_one_usage_error(self, tmp_path, capsys, old, new, named):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(TINY_INI.replace(old, new))
        out = tmp_path / "out"
        assert run("pretrain", "synthetic", "--config", cfg, "--out", out) == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {named}"), err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["flag", "env", "config"])
    def test_negative_seed_is_one_usage_error(self, tmp_path, tiny_config, capsys, monkeypatch, where):
        out = tmp_path / "out"
        argv = ["pretrain", "synthetic", "--config", tiny_config, "--out", out]
        if where == "flag":
            argv += ["--seed", -1]
        elif where == "env":
            monkeypatch.setenv("JPEGGAN_SEED", "-1")
        else:
            cfg = tmp_path / "seeded.ini"
            cfg.write_text(TINY_INI.replace("precision = f64", "precision = f64\nseed = -1"))
            argv[3] = cfg
        assert run(*argv) == cli.EXIT_USAGE
        assert capsys.readouterr().err == "error: seed must be >= 0\n"
        assert not out.exists()

    def test_every_bad_train_setting_reported_once(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(TINY_INI.replace(
            "steps = 2\nbatch_size = 4",
            "steps = -1\nbatch_size = 0\nlr_generator = 0\ncheckpoint_every = -1",
        ))
        out = tmp_path / "out"
        assert run("pretrain", "synthetic", "--config", cfg, "--out", out) == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "error: [train] steps must be >= 0",
            "error: [train] batch_size must be >= 1",
            "error: [train] learning rates must be > 0",
            "error: [train] checkpoint_every must be >= 0",
        ], err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("key", ["anchor_weight", "gp_weight", "lr_discriminator", "lr_generator", "adam_eps"])
    def test_non_finite_train_setting_is_one_usage_error(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(TINY_INI.replace("batch_size = 4", f"batch_size = 4\n{key} = {value}"))
        out = tmp_path / "out"
        assert run("pretrain", "synthetic", "--config", cfg, "--out", out) == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"error: [train] {key} must be finite\n"
        assert not out.exists()

    # arrays of over 1000 TiB, past any address space: numpy refuses them at once
    @pytest.mark.parametrize("command, old, new", [
        ("generate", "latent_dim = 6", "latent_dim = 9999999999999"),  # the first layer's weights
        ("pretrain", "batch_size = 4", "batch_size = 99999999999999"),  # one batch of images
        ("pretrain", "batch_size = 4", "batch_size = 10000000000000000"),  # bytes past int64
        ("pretrain", "batch_size = 4", "batch_size = 10000000000000000000"),  # an extent past int64
    ], ids=["generate-latent_dim", "pretrain-batch_size", "pretrain-batch-bytes", "pretrain-batch-extent"])
    def test_setting_too_large_to_allocate_is_one_usage_error(self, tmp_path, capsys, command, old, new):
        cfg = tmp_path / "huge.ini"
        cfg.write_text(TINY_INI.replace(old, new))
        argv = ["--checkpoint", tmp_path / "none.params"] if command == "generate" else ["synthetic"]
        assert run(command, *argv, "--config", cfg, "--out", tmp_path / "out") == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()

    def test_missing_subcommand(self):
        assert cli.main([]) == 1

    def test_manifest_records_versions(self, tmp_path, tiny_config):
        out = tmp_path / "out"
        assert run("sweep", "synthetic", "--config", tiny_config, "--qf", "90",
                   "--mode", "4:4:4", "--out", out) == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["command"] == "sweep"
        assert "numpy" in doc["versions"] and "jpeggan" in doc["versions"]


class TestTrainingCommands:
    def test_pretrain_outputs_and_determinism(self, tmp_path, tiny_config):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("pretrain", "synthetic", "--config", tiny_config,
                       "--seed", 3, "--out", out) == 0
        assert (a / "loss.csv").read_bytes() == (b / "loss.csv").read_bytes()
        assert (a / "checkpoint.params").read_bytes() == (b / "checkpoint.params").read_bytes()
        rows = (a / "loss.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 2  # header + one row per step

    def test_pretrain_resume_matches_uninterrupted(self, tmp_path, tiny_config):
        full, half = tmp_path / "full", tmp_path / "half"
        assert run("pretrain", "synthetic", "--config", tiny_config,
                   "--seed", 3, "--steps", 4, "--out", full) == 0
        assert run("pretrain", "synthetic", "--config", tiny_config,
                   "--seed", 3, "--steps", 2, "--out", half) == 0
        assert run("pretrain", "synthetic", "--config", tiny_config, "--seed", 3,
                   "--steps", 4, "--out", half,
                   "--resume", half / "checkpoint.params") == 0
        assert (half / "loss.csv").read_bytes() == (full / "loss.csv").read_bytes()
        assert (half / "checkpoint.params").read_bytes() == (full / "checkpoint.params").read_bytes()

    def test_resume_from_older_checkpoint_matches_uninterrupted(self, tmp_path, tiny_config):
        # steps 2 and later were logged after the checkpoint a run resumes from
        full, half = tmp_path / "full", tmp_path / "half"
        base = ("pretrain", "synthetic", "--config", tiny_config, "--seed", 3)
        assert run(*base, "--steps", 4, "--out", full) == 0
        assert run(*base, "--steps", 2, "--out", half) == 0
        older = tmp_path / "ck2.params"
        shutil.copyfile(half / "checkpoint.params", older)
        assert run(*base, "--steps", 3, "--out", half, "--resume", half / "checkpoint.params") == 0
        assert run(*base, "--steps", 4, "--out", half, "--resume", older) == 0
        assert (half / "loss.csv").read_bytes() == (full / "loss.csv").read_bytes()
        assert (half / "checkpoint.params").read_bytes() == (full / "checkpoint.params").read_bytes()

    @pytest.mark.parametrize("command", ["pretrain", "train"])
    def test_resume_reads_its_checkpoint_once(self, tmp_path, tiny_config, monkeypatch, command):
        base = ("synthetic", "--config", tiny_config, "--seed", 3)
        first = tmp_path / "first"
        assert run("pretrain", *base, "--out", first) == 0
        if command == "train":
            pre, first = first, tmp_path / "joint"
            assert run("train", *base, "--pretrained", pre / "checkpoint.params", "--out", first) == 0
        reads = []
        load_params = networks.load_params
        monkeypatch.setattr(networks, "load_params", lambda path: reads.append(path) or load_params(path))
        checkpoint = first / "checkpoint.params"
        assert run(command, *base, "--steps", 3, "--resume", checkpoint, "--out", tmp_path / "resumed") == 0
        assert reads == [str(checkpoint)]

    def test_resume_past_steps_is_one_data_error(self, tmp_path, tiny_config, capsys):
        base = ("pretrain", "synthetic", "--config", tiny_config, "--seed", 3)
        first = tmp_path / "first"
        assert run(*base, "--steps", 5, "--out", first) == 0
        checkpoint = first / "checkpoint.params"
        saved = checkpoint.read_bytes()
        capsys.readouterr()
        out = tmp_path / "out"
        assert run(*base, "--steps", 2, "--resume", checkpoint, "--out", out) == cli.EXIT_DATA
        assert capsys.readouterr().err == "error: resume checkpoint: step 5 is past the 2 steps to run\n"
        assert not out.exists()
        # a run that ends where its checkpoint was saved has nothing to do
        assert run(*base, "--steps", 5, "--resume", checkpoint, "--out", out) == 0
        assert (out / "checkpoint.params").read_bytes() == saved

    def test_train_requires_exactly_one_source(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "out"
        assert run("train", "synthetic", "--config", tiny_config, "--out", out) == 1
        assert run("train", "synthetic", "--config", tiny_config, "--out", out,
                   "--pretrained", "a", "--resume", "b") == 1
        assert "exactly one" in capsys.readouterr().err

    def test_full_pipeline_and_generate_determinism(self, tmp_path, tiny_config):
        pre, joint = tmp_path / "pre", tmp_path / "joint"
        assert run("pretrain", "synthetic", "--config", tiny_config,
                   "--seed", 3, "--out", pre) == 0
        assert run("train", "synthetic", "--config", tiny_config, "--seed", 4,
                   "--out", joint, "--pretrained", pre / "checkpoint.params") == 0
        assert (joint / "loss.csv").exists() and (joint / "checkpoint.params").exists()

        outs = []
        for name in ("g1", "g2"):
            out = tmp_path / name
            assert run("generate", "--config", tiny_config, "--seed", 5, "--out", out,
                       "--checkpoint", joint / "checkpoint.params", "--count", 3) == 0
            outs.append(out)
        names = sorted(os.listdir(outs[0]))
        assert names == ["grid.ppm", "manifest.json",
                         "sample_00000.jpg", "sample_00001.jpg", "sample_00002.jpg"]
        for n in names:  # same seed, same bytes — manifest included (no timestamps)
            assert (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
        enc = jfif.read_jfif(str(outs[0] / "sample_00000.jpg"))
        assert enc.y.shape[0] >= 1

    def test_generate_zero_count(self, tmp_path, tiny_config):
        pre = tmp_path / "pre"
        assert run("pretrain", "synthetic", "--config", tiny_config,
                   "--seed", 3, "--out", pre) == 0
        joint = tmp_path / "joint"
        assert run("train", "synthetic", "--config", tiny_config, "--seed", 4,
                   "--out", joint, "--pretrained", pre / "checkpoint.params") == 0
        out = tmp_path / "gen0"
        assert run("generate", "--config", tiny_config, "--seed", 5, "--out", out,
                   "--checkpoint", joint / "checkpoint.params", "--count", 0) == 0
        assert sorted(os.listdir(out)) == ["manifest.json"]

    @pytest.mark.parametrize("cols", [0, -1])
    def test_generate_rejects_grid_cols_below_one(self, tmp_path, tiny_config, cols):
        spec = networks.GeneratorSpec(latent_dim=6, base_channels=4, path_channels=2,
                                      quality_factor=60)
        gen = networks.Generator(spec, np.random.default_rng(0))
        ckpt = tmp_path / "fresh.params"
        training.save_checkpoint(ckpt, 0, {"gen": gen.params()}, {})
        out = tmp_path / "gen"
        assert run("generate", "--config", tiny_config, "--out", out, "--checkpoint", ckpt,
                   "--count", 2, "--grid-cols", cols) == cli.EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pretrain", "train"])
    def test_data_extent_must_match_resolution(self, tmp_path, capsys, command):
        cfg = tmp_path / "wide.ini"
        cfg.write_text(TINY_INI.replace("count = 12", "count = 12\nsize = 48"))
        out = tmp_path / "out"
        extra = ["--pretrained", tmp_path / "unused.params"] if command == "train" else []
        assert run(command, "synthetic", "--config", cfg, "--out", out, *extra) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "48x48" in err and "32x32" in err, err
        assert not out.exists()

    def test_out_that_is_a_file_is_usage_error(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "afile"
        out.write_bytes(b"")
        assert run("pretrain", "synthetic", "--config", tiny_config,
                   "--out", out) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: --out {out}: ")

    def test_missing_dataset_is_data_error(self, tmp_path, tiny_config):
        assert run("pretrain", "/no/such/place", "--config", tiny_config,
                   "--out", tmp_path / "o") == 2

    def test_corrupt_checkpoint_is_data_error(self, tmp_path, tiny_config):
        bad = tmp_path / "bad.params"
        bad.write_bytes(b"not a checkpoint")
        assert run("generate", "--config", tiny_config, "--out", tmp_path / "o",
                   "--checkpoint", bad, "--count", 1) == 2

    def test_checkpoint_with_huge_dims_is_a_truncated_container(self, tmp_path, tiny_config, capsys):
        # one float64 array of (2**31)**4 elements: its byte count passes int64
        bad = tmp_path / "huge.params"
        record = struct.pack("<H1sBB4I", 1, b"w", 1, 4, *(1 << 31,) * 4) + bytes(8)
        bad.write_bytes(b"JGNP" + struct.pack("<II", 1, 1) + record)
        assert run("generate", "--config", tiny_config, "--out", tmp_path / "o",
                   "--checkpoint", bad, "--count", 1) == 2
        assert "truncated container" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_exit_code(self, tmp_path, tiny_config):
        cfg = tmp_path / "diverge.ini"
        cfg.write_text(TINY_INI.replace("steps = 2", "steps = 3\nlr_discriminator = 1e300"))
        assert run("pretrain", "synthetic", "--config", cfg, "--seed", 3,
                   "--out", tmp_path / "o") == 3


class TestCodecCommands:
    @pytest.fixture
    def ppms(self, tmp_path):
        rng = np.random.default_rng(0)
        paths = []
        for i in range(2):
            p = tmp_path / f"img{i}.ppm"
            datasets.write_ppm(str(p), rng.uniform(0, 255, (32, 32, 3)))
            paths.append(p)
        return paths

    def test_encode_then_decode(self, tmp_path, ppms):
        enc = tmp_path / "enc"
        assert run("encode", *ppms, "--qf", 90, "--mode", "4:4:4", "--out", enc) == 0
        assert sorted(os.listdir(enc)) == ["img0.jpg", "img1.jpg", "manifest.json"]
        dec = tmp_path / "dec"
        assert run("decode", enc / "img0.jpg", enc / "img1.jpg", "--out", dec) == 0
        assert sorted(os.listdir(dec)) == ["img0.ppm", "img1.ppm", "manifest.json"]
        a = datasets.read_ppm(str(ppms[0]))
        b = datasets.read_ppm(str(dec / "img0.ppm"))
        assert np.abs(a.astype(float) - b.astype(float)).mean() < 20  # near, not exact

    def test_inputs_never_mutated(self, tmp_path, ppms):
        before = ppms[0].read_bytes()
        assert run("encode", ppms[0], "--qf", 75, "--mode", "4:2:0",
                   "--out", tmp_path / "enc") == 0
        assert ppms[0].read_bytes() == before

    @pytest.mark.parametrize("content", [
        b"P6\n100000000000000000000 1\n255\n" + bytes(30),  # claims too many samples
        b"P6\n4 x\n255\n",  # non-numeric extent
        b"P6\n4",  # truncated header
        b"P5\n1 1\n255\n\x00",  # wrong magic
        None,  # no file at all
    ], ids=["huge-extent", "non-numeric-extent", "truncated-header", "wrong-magic", "missing"])
    def test_bad_ppm_names_its_path_once(self, tmp_path, capsys, content):
        path = tmp_path / "x.ppm"
        if content is not None:
            path.write_bytes(content)
        assert run("encode", path, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("x.ppm") == 1, err

    @pytest.mark.parametrize("case", [
        "encode-missing", "encode-truncated", "encode-rejected", "encode-too-wide",
        "decode-missing", "decode-rejected",
    ])
    def test_bad_input_is_one_exact_data_error(self, tmp_path, capsys, ppms, case):
        command, name, content, message = {
            "encode-missing": ("encode", "x.ppm", None, "[Errno 2] No such file or directory: '{p}'"),
            "encode-truncated": ("encode", "x.ppm", b"P6\n2 2\n255\nabc", "{p}: expected 12 sample bytes, got 3"),
            # maxval 1, so the sample 2 reads as 510
            "encode-rejected": ("encode", "x.ppm", b"P6\n1 1\n1\n\x02\x00\x00",
                                "{p}: pixel values outside [0, 255]"),
            # a valid PPM whose width SOF0 cannot hold; 4:2:0 pads its 8 rows to 16
            "encode-too-wide": ("encode", "x.ppm", b"P6\n65536 8\n255\n" + bytes(65536 * 8 * 3),
                                "{p}: coded width x height 65536x16 exceeds SOF0's 16-bit limit of 65535"),
            "decode-missing": ("decode", "x.jpg", None, "[Errno 2] No such file or directory: '{p}'"),
            "decode-rejected": ("decode", "x.jpg", b"\x00\x01\x02",
                                "{p}: offset 0: SOI differs from the header jpeggan writes"),
        }[case]
        good = ppms[0]
        if command == "decode":  # a readable first input: every input is read before --out exists
            good = tmp_path / "good.jpg"
            jfif.write_jfif(codec.encode_image(datasets.read_ppm(str(ppms[0])), 75, "4:2:0"), str(good))
        path = tmp_path / name
        if content is not None:
            path.write_bytes(content)
        out = tmp_path / "o"
        assert run(command, good, path, "--out", out) == cli.EXIT_DATA
        assert capsys.readouterr().err == f"error: {message.format(p=path)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, name", [("encode", "x.ppm"), ("decode", "x.jpg")])
    def test_missing_input_names_its_path_once(self, tmp_path, capsys, command, name):
        path = tmp_path / name
        assert run(command, path, "--out", tmp_path / "o") == cli.EXIT_DATA
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{path}'\n"

    @pytest.mark.parametrize("command", ["encode", "decode"])
    def test_inputs_that_would_write_one_file_are_a_usage_error(self, tmp_path, capsys, ppms, command):
        inputs = []
        for sub in ("a", "b"):
            path = tmp_path / sub / ("x.ppm" if command == "encode" else "x.jpg")
            path.parent.mkdir()
            if command == "encode":
                shutil.copyfile(ppms[0], path)
            else:
                jfif.write_jfif(codec.encode_image(datasets.read_ppm(str(ppms[0])), 75, "4:2:0"), str(path))
            inputs.append(path)
        out = tmp_path / "o"
        assert run(command, inputs[0], ppms[1] if command == "encode" else inputs[0], inputs[1],
                   "--out", out) == cli.EXIT_USAGE
        if command == "encode":
            want = f"error: inputs {inputs[0]}, {inputs[1]} would write one file\n"
        else:  # the same path given twice counts too
            want = f"error: inputs {inputs[0]}, {inputs[0]}, {inputs[1]} would write one file\n"
        assert capsys.readouterr().err == want
        assert not out.exists()

    def test_decode_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.jpg"
        bad.write_bytes(b"\x00\x01\x02")
        assert run("decode", bad, "--out", tmp_path / "o") == 2

    @pytest.mark.parametrize("inside", [False, True], ids=["is-a-file", "under-a-file"])
    def test_out_that_cannot_be_a_directory_is_usage_error(self, tmp_path, capsys, ppms, inside):
        blocker = tmp_path / "afile"
        blocker.write_bytes(b"not a directory")
        out = blocker / "sub" if inside else blocker
        assert run("encode", ppms[0], "--out", out) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {out}: "), err
        assert blocker.read_bytes() == b"not a directory"


class TestManifest:
    def test_every_command_records_its_name(self, tmp_path, tiny_config):
        ppm = tmp_path / "img.ppm"
        datasets.write_ppm(str(ppm), np.random.default_rng(0).uniform(0, 255, (16, 16, 3)))

        def command(name, *argv):
            out = tmp_path / name
            assert run(name, *argv, "--config", tiny_config, "--out", out) == 0
            assert json.loads((out / "manifest.json").read_text())["command"] == name
            return out

        pre = command("pretrain", "synthetic", "--steps", 0)
        joint = command("train", "synthetic", "--steps", 0, "--pretrained", pre / "checkpoint.params")
        command("generate", "--checkpoint", joint / "checkpoint.params", "--count", 1)
        enc = command("encode", ppm)
        command("decode", enc / "img.jpg")
        command("fid", "synthetic", "synthetic")
        command("sweep", "synthetic", "--qf", "90", "--mode", "4:4:4")


class TestAnalysisCommands:
    def test_fid_identical_sets_is_zero(self, tmp_path, tiny_config):
        out = tmp_path / "out"
        assert run("fid", "synthetic", "synthetic", "--config", tiny_config,
                   "--out", out) == 0
        header, row = (out / "fid.csv").read_text().strip().splitlines()
        assert header == "set_a,set_b,fid"
        assert float(row.split(",")[2]) == 0.0

    def test_sweep_csv_shape(self, tmp_path, tiny_config):
        out = tmp_path / "out"
        assert run("sweep", "synthetic", "--config", tiny_config,
                   "--qf", "90,50", "--mode", "4:4:4,4:2:0", "--out", out) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "quality_factor,mode,fid"
        assert len(lines) == 1 + 4
        fids = [float(l.split(",")[2]) for l in lines[1:]]
        assert all(np.isfinite(fids))

    @pytest.mark.parametrize("command", ["fid", "sweep"])
    def test_extent_not_multiple_of_8_is_data_error(self, tmp_path, tiny_config, capsys, command):
        images = tmp_path / "small"
        images.mkdir()
        rng = np.random.default_rng(1)
        for i in range(3):
            datasets.write_ppm(str(images / f"{i}.ppm"), rng.uniform(0, 255, (12, 12, 3)))
        sources = [images, images] if command == "fid" else [images]
        assert run(command, *sources, "--config", tiny_config,
                   "--out", tmp_path / "out") == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: dataset {images}: ") and "(12, 12)" in err, err

    @staticmethod
    def joint_checkpoint_without(tmp_path, tiny_config, key):
        """A joint checkpoint for the tiny config with the array `key` removed."""
        pre, joint = tmp_path / "pre", tmp_path / "joint"
        assert run("pretrain", "synthetic", "--config", tiny_config, "--steps", 0, "--out", pre) == 0
        assert run("train", "synthetic", "--config", tiny_config, "--steps", 0, "--out", joint,
                   "--pretrained", pre / "checkpoint.params") == 0
        arrays = networks.load_params(str(joint / "checkpoint.params"))
        del arrays[key]
        path = tmp_path / "stripped.params"
        networks.save_params(str(path), arrays)
        return path

    @pytest.mark.parametrize("command", [
        "encode", "decode", "fid", "sweep", "generate", "pretrain-resume-missing",
        "train-resume-not-a-container", "train-resume-without-adam-t", "generate-without-step",
        "fid-one-image", "decode-zero-extent",
    ])
    def test_rejected_input_leaves_no_out_dir(self, tmp_path, tiny_config, capsys, command):
        small = tmp_path / "small"
        small.mkdir()
        rng = np.random.default_rng(2)
        for i in range(3):
            datasets.write_ppm(str(small / f"{i}.ppm"), rng.uniform(0, 255, (12, 12, 3)))
        missing = tmp_path / "missing"
        one_record = tmp_path / "one.bin"
        one_record.write_bytes(bytes(1 + 3 * 32 * 32))
        zero_extent = tmp_path / "zero.jpg"
        zero_extent.write_bytes(b"".join(seg for _, seg in jfif._header(75, 0, 0, "4:4:4")) + b"\xff\xd9")

        def stripped(key):
            return self.joint_checkpoint_without(tmp_path, tiny_config, key)

        argv = {
            "encode": lambda: ["encode", missing.with_suffix(".ppm")],
            "decode": lambda: ["decode", missing.with_suffix(".jpg")],
            "fid": lambda: ["fid", small, small],
            "sweep": lambda: ["sweep", small],
            "generate": lambda: ["generate", "--checkpoint", missing.with_suffix(".params")],
            "pretrain-resume-missing": lambda: [
                "pretrain", "synthetic", "--resume", missing.with_suffix(".params")],
            "train-resume-not-a-container": lambda: [
                "train", "synthetic", "--resume", small / "0.ppm"],
            "train-resume-without-adam-t": lambda: [
                "train", "synthetic", "--resume", stripped("adam_g/t")],
            "generate-without-step": lambda: ["generate", "--checkpoint", stripped("step")],
            "fid-one-image": lambda: ["fid", "synthetic", one_record],
            "decode-zero-extent": lambda: ["decode", zero_extent],
        }[command]()
        capsys.readouterr()
        out = tmp_path / "out"
        assert run(*argv, "--config", tiny_config, "--out", out) == cli.EXIT_DATA
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        if command == "fid-one-image":
            assert err.startswith(f"error: dataset {one_record}: "), err
        if command == "decode-zero-extent":
            assert err.startswith(f"error: {zero_extent}: offset "), err

    def test_sweep_rejects_bad_lists(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "out"
        assert run("sweep", "synthetic", "--config", tiny_config,
                   "--qf", "90,0", "--mode", "4:4:4,luma-only", "--out", out) == 1
        err = capsys.readouterr().err
        assert "quality factor 0" in err
        assert "luma-only" in err

    def test_sweep_rejects_empty_qf_list(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "out"
        assert run("sweep", "synthetic", "--config", tiny_config, "--qf", ",", "--out", out) == cli.EXIT_USAGE
        assert capsys.readouterr().err == "error: --qf: ',' names no value\n"
        assert not out.exists()

    def test_sweep_rejects_empty_mode_list(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "out"
        assert run("sweep", "synthetic", "--config", tiny_config, "--mode", ",", "--out", out) == cli.EXIT_USAGE
        assert capsys.readouterr().err == "error: --mode: ',' names no value\n"
        assert not out.exists()
