import json
import re
import struct
import time
import tracemalloc
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import read_records, record_heads, write_manifest
from vit2img.cli import (SETTINGS, RunConfig, build_parser, main, parse_config_file,
                         parse_synthetic_spec)
from vit2img.data import (PALETTE, DatasetManifest, float_to_byte, load_image,
                          load_manifest_dataset, read_manifest, save_image)
from vit2img.errors import (CheckpointFormatError, CheckpointMismatchError, ConfigError,
                            DataError, DecodeError)
from vit2img.models import (KIND_BUFFER, KIND_PARAM, ModelConfig, _pack_record,
                            build_generator, load_checkpoint, save_checkpoint)

TINY_MODEL = ["--image-size", "16", "--patch-size", "4", "--embed-dim", "8",
              "--num-heads", "2", "--ffn-width", "8", "--num-layers", "1"]


@pytest.fixture
def tiny_checkpoint(tmp_path):
    """An untrained checkpoint of the TINY_MODEL segmentation generator."""
    config = ModelConfig(variant="C", image_size=16, patch_size=4, embed_dim=8,
                         num_heads=2, ffn_width=8, num_transformer_layers=1,
                         out_channels=3, task="segmentation")
    path = tmp_path / "tiny.ckpt"
    save_checkpoint(build_generator(config), path)
    return path


def run_train(tmp_path, name="run", extra=None, steps="3", synthetic="shapes:n=4,size=16"):
    out = tmp_path / name
    argv = ["train", "--synthetic", synthetic, "--out", str(out),
            "--steps", steps, "--epochs", "50", "--seed", "5", *TINY_MODEL]
    if extra:
        argv += extra
    assert main(argv) == 0
    return out


# --- config plumbing -------------------------------------------------------------

def test_parse_synthetic_spec():
    kind, opts = parse_synthetic_spec("shapes:n=8,size=32")
    assert kind == "shapes" and opts == {"n": 8, "size": 32}
    assert parse_synthetic_spec("depth")[0] == "depth"
    with pytest.raises(ConfigError):
        parse_synthetic_spec("video:n=3")


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nvariant = A\nseed = 9\nbatch_size = 2\n")
    vals = parse_config_file(cfg)
    assert vals == {"variant": "A", "seed": "9", "batch_size": "2"}
    out = tmp_path / "o"
    rc = main(["train", "--config", str(cfg), "--synthetic", "shapes:n=4,size=16",
               "--out", str(out), "--steps", "2", "--epochs", "10",
               "--variant", "C", *TINY_MODEL])
    assert rc == 0
    echo = (out / "config.txt").read_text()
    assert "variant = C" in echo  # flag wins over the file's A
    assert "seed = 9" in echo     # file value survives where no flag given


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("flux_capacitance = 11\n")
    with pytest.raises(ConfigError):
        parse_config_file(cfg)


def test_config_task_must_match_dataset(tmp_path, capsys):
    # The dataset decides the task; a config file may only restate it.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("task = regression\n")
    rc = main(["train", "--config", str(cfg), "--synthetic", "shapes:n=4,size=16",
               "--out", str(tmp_path / "x"), "--steps", "1", *TINY_MODEL])
    assert rc == 2
    assert "task" in capsys.readouterr().err
    cfg.write_text("task = segmentation\n")
    rc = main(["train", "--config", str(cfg), "--synthetic", "shapes:n=4,size=16",
               "--out", str(tmp_path / "y"), "--steps", "1", *TINY_MODEL])
    assert rc == 0
    with pytest.raises(SystemExit) as exc:  # no --task flag
        main(["train", "--task", "regression", "--synthetic", "shapes:n=4,size=16",
              "--out", str(tmp_path / "z"), *TINY_MODEL])
    assert exc.value.code == 2


def test_train_echo_round_trip(tmp_path):
    out = run_train(tmp_path, "r1")
    again = tmp_path / "r2"
    assert main(["train", "--config", str(out / "config.txt"), "--out", str(again)]) == 0
    assert (again / "checkpoint.ckpt").read_bytes() == (out / "checkpoint.ckpt").read_bytes()
    echo = (out / "config.txt").read_text().replace(str(out), str(again))
    assert (again / "config.txt").read_text() == echo


# --- train -------------------------------------------------------------------------

def test_train_writes_artifacts(tmp_path):
    out = run_train(tmp_path)
    assert (out / "checkpoint.ckpt").exists()
    assert (out / "train.log").exists()
    assert (out / "montage.ppm").exists()
    assert (out / "config.txt").exists()
    log = (out / "train.log").read_text().splitlines()
    assert len([l for l in log if not l.startswith("#")]) == 3


def test_train_deterministic_checkpoints(tmp_path):
    out1 = run_train(tmp_path, "r1")
    out2 = run_train(tmp_path, "r2")
    assert (out1 / "checkpoint.ckpt").read_bytes() == (out2 / "checkpoint.ckpt").read_bytes()


def test_train_variant_b_no_shape_errors(tmp_path):
    out = run_train(tmp_path, "b", extra=["--variant", "B"], steps="2")
    assert (out / "checkpoint.ckpt").exists()


def test_train_depth_task(tmp_path):
    out = run_train(tmp_path, "d", synthetic="depth:n=4,size=16", steps="2")
    assert (out / "checkpoint.ckpt").exists()


def test_train_config_error_exit_2(tmp_path, capsys):
    rc = main(["train", "--synthetic", "shapes:n=4,size=16", "--out",
               str(tmp_path / "x"), "--image-size", "16", "--patch-size", "5"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--epochs", "0"], ["--epochs", "-1"],
                                   ["--batch-size", "0"], ["--steps", "0"]])
def test_train_nonpositive_budget_exit_2(tmp_path, capsys, flags):
    rc = main(["train", "--synthetic", "shapes:n=4,size=16", "--out",
               str(tmp_path / "x"), *TINY_MODEL, *flags])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_missing_dataset_exit_2(tmp_path):
    rc = main(["train", "--out", str(tmp_path / "x"), *TINY_MODEL])
    assert rc == 2


SHAPES = ["--synthetic", "shapes:n=2,size=16"]
REJECTED = [
    ("train-epochs-0", ["train", *SHAPES, *TINY_MODEL, "--epochs", "0"], 2),
    ("train-batch-size-0", ["train", *SHAPES, *TINY_MODEL, "--batch-size", "0"], 2),
    ("train-steps-0", ["train", *SHAPES, *TINY_MODEL, "--steps", "0"], 2),
    ("train-bogus-synthetic", ["train", "--synthetic", "bogus", *TINY_MODEL], 2),
    ("train-no-dataset", ["train", *TINY_MODEL], 2),
    ("train-patch-size-5", ["train", *SHAPES, *TINY_MODEL, "--patch-size", "5"], 2),
    ("train-patch-size-0", ["train", *SHAPES, *TINY_MODEL, "--patch-size", "0"], 2),
    ("train-num-heads-0", ["train", *SHAPES, *TINY_MODEL, "--num-heads", "0"], 2),
    ("train-embed-dim-0", ["train", *SHAPES, *TINY_MODEL, "--embed-dim", "0"], 2),
    ("train-num-layers--1", ["train", *SHAPES, *TINY_MODEL, "--num-layers", "-1"], 2),
    ("train-ffn-width-0", ["train", *SHAPES, *TINY_MODEL, "--ffn-width", "0"], 2),
    ("train-image-size-mismatch", ["train", *SHAPES, *TINY_MODEL, "--image-size", "32"], 2),
    ("train-missing-manifest", ["train", "--manifest", "{tmp}/none.manifest", *TINY_MODEL], 3),
    ("eval-missing-checkpoint", ["eval", "--checkpoint", "{tmp}/none.ckpt", *SHAPES], 3),
    ("eval-task-mismatch", ["eval", "--checkpoint", "{ckpt}", "--synthetic", "depth:n=2,size=16"], 2),
    ("eval-bogus-synthetic", ["eval", "--checkpoint", "{ckpt}", "--synthetic", "bogus"], 2),
    ("eval-image-size-mismatch", ["eval", "--checkpoint", "{ckpt}", "--synthetic", "shapes:n=2,size=32"], 2),
    ("compare-epochs-0", ["compare", *SHAPES, *TINY_MODEL, "--epochs", "0"], 2),
    ("compare-bogus-synthetic", ["compare", "--synthetic", "bogus", *TINY_MODEL], 2),
    ("compare-patch-size-5", ["compare", *SHAPES, *TINY_MODEL, "--patch-size", "5"], 2),
    ("compare-image-size-mismatch", ["compare", *SHAPES, *TINY_MODEL, "--image-size", "32"], 2),
    ("train-empty-synthetic", ["train", "--synthetic", "shapes:n=0,size=16", *TINY_MODEL], 3),
    ("eval-empty-synthetic", ["eval", "--checkpoint", "{ckpt}", "--synthetic", "shapes:n=0,size=16"], 3),
    ("compare-empty-synthetic", ["compare", "--synthetic", "shapes:n=0,size=16", *TINY_MODEL], 3),
    ("train-seed-negative", ["train", *SHAPES, *TINY_MODEL, "--seed", "-1"], 2),
    ("eval-seed-negative", ["eval", "--checkpoint", "{ckpt}", *SHAPES, "--seed", "-1"], 2),
    ("train-synthetic-seed-negative",
     ["train", "--synthetic", "shapes:n=2,size=16,seed=-3", *TINY_MODEL], 2),
    ("train-synthetic-unknown-option",
     ["train", "--synthetic", "shapes:n=2,size=16,bogus=3", *TINY_MODEL], 2),
    ("train-montage-every-negative", ["train", *SHAPES, *TINY_MODEL, "--montage-every", "-1"], 2),
    ("train-empty-out", ["train", *SHAPES, *TINY_MODEL, "--out", ""], 2),
    ("train-empty-out-in-config", ["train", "--config", "{tmp}/empty-out.cfg", *SHAPES, *TINY_MODEL], 2),
    ("eval-empty-checkpoint", ["eval", "--checkpoint", "", *SHAPES], 2),
    ("train-classes-with-depth",
     ["train", "--synthetic", "depth:n=2,size=16", *TINY_MODEL, "--classes", "7"], 2),
    ("train-classes-option-with-depth", ["train", "--synthetic", "depth:n=2,size=16,classes=7", *TINY_MODEL], 2),
    ("train-classes-1", ["train", *SHAPES, *TINY_MODEL, "--classes", "1"], 2),
    ("train-classes-0", ["train", *SHAPES, *TINY_MODEL, "--classes", "0"], 2),
    ("train-classes--2", ["train", *SHAPES, *TINY_MODEL, "--classes", "-2"], 2),
    ("train-classes-option-1", ["train", "--synthetic", "shapes:n=2,size=16,classes=1", *TINY_MODEL], 2),
    ("eval-classes-1", ["eval", "--checkpoint", "{ckpt}", *SHAPES, "--classes", "1"], 2),
    ("compare-classes-option-0", ["compare", "--synthetic", "shapes:n=2,size=16,classes=0", *TINY_MODEL], 2),
    ("train-classes-with-manifest", ["train", "--manifest", "{tmp}/none.manifest", *TINY_MODEL, "--classes", "3"], 2),
    ("train-classes-9", ["train", *SHAPES, *TINY_MODEL, "--classes", "9"], 2),
    ("train-classes-option-9", ["train", "--synthetic", "shapes:n=2,size=16,classes=9", *TINY_MODEL], 2),
    ("train-stop-loss-nan", ["train", *SHAPES, *TINY_MODEL, "--stop-loss", "nan"], 2),
    ("train-stop-loss-nan-in-config",
     ["train", "--config", "{tmp}/nan-stop.cfg", *SHAPES, *TINY_MODEL, "--out", "{tmp}/run"], 2),
    ("train-missing-config", ["train", "--config", "{tmp}/none.cfg", *SHAPES, *TINY_MODEL, "--out", "{tmp}/run"], 2),
    ("eval-config-not-utf8",
     ["eval", "--config", "{tmp}/latin1.cfg", "--checkpoint", "{ckpt}", *SHAPES, "--out", "{tmp}/run"], 2),
    ("train-out-is-a-file", ["train", *SHAPES, *TINY_MODEL, "--out", "{tmp}/empty-out.cfg"], 2),
    ("eval-out-is-a-file", ["eval", "--checkpoint", "{ckpt}", *SHAPES, "--out", "{tmp}/empty-out.cfg"], 2),
    ("compare-out-under-a-file", ["compare", *SHAPES, *TINY_MODEL, "--out", "{tmp}/empty-out.cfg/run"], 2),
    ("infer-output-in-missing-directory",
     ["infer", "--checkpoint", "{ckpt}", "--input", "{tmp}/in.ppm", "--output", "{tmp}/run/out.ppm"], 2),
    ("train-manifest-task-bogus", ["train", "--manifest", "{tmp}/bogus-task.manifest", *TINY_MODEL], 3),
    ("train-manifest-classes-9", ["train", "--manifest", "{tmp}/classes-9.manifest", *TINY_MODEL], 3),
    ("train-manifest-classes-1", ["train", "--manifest", "{tmp}/classes-1.manifest", *TINY_MODEL], 3),
    ("train-regression-manifest-out-channels-1",
     ["train", "--manifest", "{tmp}/regression.manifest", *TINY_MODEL, "--out-channels", "1"], 2),
    ("eval-regression-manifest-1-channel-checkpoint",
     ["eval", "--checkpoint", "{tmp}/depth.ckpt", "--manifest", "{tmp}/regression.manifest"], 2),
    ("train-unet-image-size-48", ["train", "--synthetic", "shapes:n=2,size=48", "--variant", "unet"], 2),
    ("train-unet-patch-size-5", ["train", *SHAPES, "--variant", "unet", "--patch-size", "5"], 2),
    ("train-unet-embed-dim-7", ["train", *SHAPES, "--variant", "unet", "--embed-dim", "7"], 2),
    ("train-unet-num-heads-3", ["train", *SHAPES, "--variant", "unet", "--num-heads", "3"], 2),
    ("train-unet-num-layers-2", ["train", *SHAPES, "--variant", "unet", "--num-layers", "2"], 2),
    ("train-unet-ffn-width-8", ["train", *SHAPES, "--variant", "unet", "--ffn-width", "8"], 2),
    ("train-autoencoder-patch-size-8", ["train", *SHAPES, "--variant", "autoencoder", "--patch-size", "8"], 2),
    ("compare-image-size-48", ["compare", "--synthetic", "shapes:n=2,size=48"], 2),
    ("train-out-channels-2-on-3-classes", ["train", *SHAPES, *TINY_MODEL, "--out-channels", "2"], 2),
    ("train-out-channels-9-on-3-classes", ["train", *SHAPES, *TINY_MODEL, "--out-channels", "9"], 2),
    ("eval-3-channel-checkpoint-on-5-classes",
     ["eval", "--checkpoint", "{ckpt}", "--synthetic", "shapes:n=2,size=16,classes=5"], 2),
]


@pytest.mark.parametrize("argv, code", [case[1:] for case in REJECTED],
                         ids=[case[0] for case in REJECTED])
def test_rejected_invocation_leaves_no_run_directory(tmp_path, tiny_checkpoint, capsys, monkeypatch,
                                                     argv, code):
    # A row may set out itself, by flag or config file, and an empty out is
    # the current directory: run in tmp_path and check that nothing is added.
    # infer has no out; its rows write nothing else.
    (tmp_path / "empty-out.cfg").write_text("out = \n")
    (tmp_path / "nan-stop.cfg").write_text("stop_loss = nan\n")
    (tmp_path / "latin1.cfg").write_bytes("seed = 1\n# caf\u00e9\n".encode("latin-1"))
    save_image(np.zeros((16, 16, 3)), tmp_path / "in.ppm")
    save_image(np.full((16, 16, 3), -1.0), tmp_path / "tgt.ppm")  # class 0 everywhere
    for name, task, classes in (("bogus-task", "bogus", 3), ("classes-9", "segmentation", 9),
                                ("classes-1", "segmentation", 1), ("regression", "regression", 1)):
        write_manifest(DatasetManifest(root=tmp_path, task=task, classes=classes, image_size=16,
                                       pairs=[("in.ppm", "tgt.ppm")]), tmp_path / f"{name}.manifest")
    depth = replace(load_checkpoint(tiny_checkpoint).config, task="regression", out_channels=1)
    save_checkpoint(build_generator(depth), tmp_path / "depth.ckpt")
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    out = tmp_path / "run"
    argv = [a.format(tmp=tmp_path, ckpt=tiny_checkpoint) for a in argv]
    sets_out = argv[0] == "infer" or "--out" in argv or "--config" in argv
    assert main(argv if sets_out else [*argv, "--out", str(out)]) == code
    assert "error:" in capsys.readouterr().err
    assert not out.exists()
    assert sorted(tmp_path.iterdir()) == before


# --- the settings contract ---------------------------------------------------------
# The keys each command reads, written out here rather than read from cli.SETTINGS,
# so that these tests check the table instead of restating it.

DATA_KEYS = {"out", "seed", "synthetic", "manifest", "classes", "task"}
MODEL_KEYS = {"image_size", "patch_size", "embed_dim", "num_heads", "ffn_width",
              "num_transformer_layers", "out_channels", "epochs", "steps", "batch_size"}
READS = {
    "train": DATA_KEYS | MODEL_KEYS | {"variant", "stop_loss", "montage_every"},
    "eval": DATA_KEYS | {"checkpoint", "extractor", "self_eval"},
    "infer": {"checkpoint", "input", "output"},
    "compare": DATA_KEYS | MODEL_KEYS | {"extractor"},
}
CONFIGURABLE = ("train", "eval", "compare")  # infer takes no --config
# A valid value of every key, and its flag (None: a config file is the only way to set it).
VALID = {"out": "run", "seed": "1", "synthetic": "shapes:n=2,size=16", "manifest": "data.manifest",
         "classes": "3", "task": "segmentation", "variant": "A", "image_size": "16",
         "patch_size": "4", "embed_dim": "8", "num_heads": "2", "ffn_width": "8",
         "num_transformer_layers": "1", "out_channels": "3", "epochs": "1", "steps": "1",
         "batch_size": "2", "stop_loss": "0.5", "montage_every": "1", "checkpoint": "model.ckpt",
         "extractor": "tiny", "self_eval": "True", "input": "in.ppm", "output": "out.ppm"}
FLAGS = {key: "--" + key.replace("_", "-") for key in VALID} | {
    "num_transformer_layers": "--num-layers", "task": None}
VALID_RUN = {
    "train": ["train", *SHAPES, *TINY_MODEL, "--steps", "1"],
    "eval": ["eval", "--checkpoint", "{ckpt}", *SHAPES],
    "compare": ["compare", *SHAPES, *TINY_MODEL, "--steps", "1"],
}


def flag_argv(key):
    return [FLAGS[key]] if key == "self_eval" else [FLAGS[key], VALID[key]]


def test_every_setting_is_covered():
    assert set(SETTINGS) == set(VALID)


@pytest.mark.parametrize("command, key", [(c, k) for c in CONFIGURABLE for k in sorted(VALID)
                                          if k not in READS[c]])
def test_unread_config_key_is_rejected(tmp_path, tiny_checkpoint, capsys, command, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {VALID[key]}\n")
    out = tmp_path / "run"
    argv = [a.format(ckpt=tiny_checkpoint) for a in VALID_RUN[command]]
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and repr(key) in err
    assert not out.exists()


@pytest.mark.parametrize("command, key", [(c, k) for c in READS for k in sorted(VALID)
                                          if k not in READS[c] and FLAGS[k]])
def test_unread_key_has_no_flag(command, key):
    # Among these: compare --variant and compare --stop-loss, which it no longer has.
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, *flag_argv(key)])
    assert exc.value.code == 2


def test_infer_takes_no_config_file(tmp_path):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["infer", "--config", str(tmp_path / "run.cfg")])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, key", [(c, k) for c in CONFIGURABLE for k in sorted(READS[c])])
def test_read_key_is_accepted_from_file_and_flag(tmp_path, command, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {VALID[key]}\n")
    from_file = RunConfig(build_parser().parse_args([command, "--config", str(cfg)]))
    assert list(from_file) == [key]
    if FLAGS[key]:
        assert RunConfig(build_parser().parse_args([command, *flag_argv(key)])) == from_file


@pytest.mark.parametrize("command, line", [("eval", "extractor = bogus"),
                                           ("compare", "extractor = bogus"),
                                           ("train", "variant = Z"), ("train", "task = bogus"),
                                           ("train", "seed = -1"), ("train", "montage_every = -2")])
def test_config_value_out_of_range_is_rejected(tmp_path, tiny_checkpoint, capsys, command, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "run"
    argv = [a.format(ckpt=tiny_checkpoint) for a in VALID_RUN[command]]
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


TEXT = st.text(st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp")), min_size=1).filter(
    lambda s: s == s.strip())
VALUES = {
    **{key: TEXT for key in ("out", "manifest", "checkpoint", "input", "output")},
    **{key: st.integers(-10**9, 10**9) for key in MODEL_KEYS | {"classes"}},
    "seed": st.integers(0, 2**63),
    "montage_every": st.integers(0, 10**9),
    "synthetic": st.builds("{}:n={},size={}".format, st.sampled_from(["shapes", "depth"]),
                           st.integers(0, 99), st.integers(0, 99)),
    "task": st.sampled_from(["segmentation", "regression"]),
    "variant": st.sampled_from(["A", "B", "C", "unet", "autoencoder"]),
    "extractor": st.sampled_from(["pixel", "proj", "tiny"]),
    "stop_loss": st.floats(allow_nan=False),
    "self_eval": st.booleans(),
}


@st.composite
def command_settings(draw):
    command = draw(st.sampled_from(CONFIGURABLE))
    return command, draw(st.fixed_dictionaries({}, optional={k: VALUES[k] for k in READS[command]}))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command_settings())
def test_echo_parses_back_to_the_same_values(tmp_path, case):
    command, values = case
    cfg = RunConfig(build_parser().parse_args([command]))
    cfg.update(values)
    cfg.echo(tmp_path / "config.txt")
    assert set(parse_config_file(tmp_path / "config.txt")) == set(values)
    back = RunConfig(build_parser().parse_args([command, "--config", str(tmp_path / "config.txt")]))
    typed = {key: (type(v), repr(v)) for key, v in values.items()}
    assert {key: (type(v), repr(v)) for key, v in back.items()} == typed


# --- eval --------------------------------------------------------------------------

def test_eval_self_mode_perfect_scores(tmp_path):
    out = run_train(tmp_path)
    eval_dir = tmp_path / "eval"
    rc = main(["eval", "--checkpoint", str(out / "checkpoint.ckpt"),
               "--synthetic", "shapes:n=4,size=16", "--out", str(eval_dir),
               "--seed", "5", "--self-eval"])
    assert rc == 0
    kv = dict(line.split(" = ") for line in
              (eval_dir / "metrics.kv").read_text().strip().splitlines())
    assert float(kv["ssim"]) == 1.0
    assert float(kv["fid"]) < 1e-8


def test_eval_self_eval_echo_round_trip(tmp_path, capsys):
    ckpt = str(run_train(tmp_path) / "checkpoint.ckpt")
    data = ["--synthetic", "shapes:n=4,size=16", "--seed", "5"]
    first = tmp_path / "e1"
    assert main(["eval", "--checkpoint", ckpt, *data, "--out", str(first), "--self-eval"]) == 0
    assert "self_eval = True" in (first / "config.txt").read_text()
    again = tmp_path / "e2"
    assert main(["eval", "--checkpoint", ckpt, "--config", str(first / "config.txt"),
                 "--out", str(again)]) == 0
    assert (again / "metrics.kv").read_bytes() == (first / "metrics.kv").read_bytes()
    # self_eval = False is a plain evaluation; any other value is a config error.
    plain, off = tmp_path / "plain", tmp_path / "off"
    assert main(["eval", "--checkpoint", ckpt, *data, "--out", str(plain)]) == 0
    cfg = tmp_path / "eval.cfg"
    cfg.write_text("self_eval = False\n")
    assert main(["eval", "--checkpoint", ckpt, "--config", str(cfg), *data, "--out", str(off)]) == 0
    assert (off / "metrics.kv").read_bytes() == (plain / "metrics.kv").read_bytes()
    assert (off / "metrics.kv").read_bytes() != (first / "metrics.kv").read_bytes()
    for raw in ("true", "1", "yes", ""):
        cfg.write_text(f"self_eval = {raw}\n")
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", ckpt, "--config", str(cfg), *data,
                   "--out", str(tmp_path / "bad")])
        assert rc == 2
        assert "self_eval" in capsys.readouterr().err


def test_eval_echo_feeds_back_without_checkpoint_flag(tmp_path, capsys):
    ckpt = str(run_train(tmp_path) / "checkpoint.ckpt")
    first, again = tmp_path / "e1", tmp_path / "e2"
    assert main(["eval", "--checkpoint", ckpt, "--synthetic", "shapes:n=4,size=16",
                 "--seed", "5", "--out", str(first)]) == 0
    assert main(["eval", "--config", str(first / "config.txt"), "--out", str(again)]) == 0
    assert (again / "metrics.kv").read_bytes() == (first / "metrics.kv").read_bytes()
    capsys.readouterr()
    missing = tmp_path / "e3"
    assert main(["eval", "--synthetic", "shapes:n=4,size=16", "--out", str(missing)]) == 2
    assert "missing required setting 'checkpoint'" in capsys.readouterr().err
    assert not missing.exists()


def test_eval_report_columns(tmp_path):
    out = run_train(tmp_path)
    eval_dir = tmp_path / "eval2"
    rc = main(["eval", "--checkpoint", str(out / "checkpoint.ckpt"),
               "--synthetic", "shapes:n=4,size=16", "--out", str(eval_dir),
               "--seed", "5"])
    assert rc == 0
    table = (eval_dir / "metrics.txt").read_text()
    assert table.splitlines()[0].split() == ["Model", "FID", "IS", "SSIM"]
    assert "pixel_downsample" in table  # extractor descriptor embedded


def test_eval_regression_checkpoint(tmp_path):
    # Depth outputs render to one channel; every extractor must accept that.
    out = run_train(tmp_path, "dep", synthetic="depth:n=4,size=16", steps="1")
    for extractor in ("pixel", "proj", "tiny"):
        eval_dir = tmp_path / f"eval-{extractor}"
        rc = main(["eval", "--checkpoint", str(out / "checkpoint.ckpt"),
                   "--synthetic", "depth:n=4,size=16", "--out", str(eval_dir),
                   "--seed", "5", "--extractor", extractor])
        assert rc == 0
        kv = dict(line.split(" = ") for line in
                  (eval_dir / "metrics.kv").read_text().strip().splitlines())
        assert np.isfinite(float(kv["fid"])) and np.isfinite(float(kv["is"]))
    rc = main(["eval", "--checkpoint", str(out / "checkpoint.ckpt"),
               "--synthetic", "depth:n=0,size=16", "--out", str(tmp_path / "eval-empty")])
    assert rc == 3


def test_regression_manifest_model_outputs_its_targets_channels(tmp_path):
    # PPM targets keep three channels, so the model defaults to out_channels 3.
    save_image(np.zeros((16, 16, 3)), tmp_path / "in.ppm")
    save_image(np.full((16, 16, 3), 0.5), tmp_path / "tgt.ppm")
    manifest = tmp_path / "data.manifest"
    write_manifest(DatasetManifest(root=tmp_path, task="regression", classes=1, image_size=16,
                                   pairs=[("in.ppm", "tgt.ppm")] * 2), manifest)
    out = tmp_path / "run"
    assert main(["train", "--manifest", str(manifest), "--out", str(out), "--steps", "1", *TINY_MODEL]) == 0
    assert "out_channels = 3" in (out / "config.txt").read_text()
    assert load_checkpoint(out / "checkpoint.ckpt").config.out_channels == 3
    assert main(["eval", "--checkpoint", str(out / "checkpoint.ckpt"), "--manifest", str(manifest),
                 "--out", str(tmp_path / "e")]) == 0


# metrics.kv of the untrained tiny checkpoint (and its depth twin) on four
# 16 px samples, seed 3: (dataset, extractor) -> (descriptor, fid, is, ssim).
EVAL_GOLDEN = {
    ("shapes", "pixel"): ("pixel_downsample(grid=4)", "15.510305", "1.000351", "0.075904"),
    ("shapes", "proj"): ("seeded_random_projection(dim=16,seed=3)", "8.283238", "1.000351", "0.075904"),
    ("shapes", "tiny"): ("tiny_classifier(k=8,hidden=32,seed=3)", "4.298373", "1.000351", "0.075904"),
    ("depth", "pixel"): ("pixel_downsample(grid=4)", "11.641774", "1.000012", "0.003632"),
    ("depth", "proj"): ("seeded_random_projection(dim=16,seed=3)", "11.509039", "1.000012", "0.003632"),
    ("depth", "tiny"): ("tiny_classifier(k=8,hidden=32,seed=3)", "16.038361", "1.000012", "0.003632"),
}


@pytest.mark.parametrize("dataset, extractor", sorted(EVAL_GOLDEN))
def test_eval_metrics_golden(tmp_path, tiny_checkpoint, dataset, extractor):
    ckpt = tiny_checkpoint
    if dataset == "depth":
        ckpt = tmp_path / "depth.ckpt"
        save_checkpoint(build_generator(replace(load_checkpoint(tiny_checkpoint).config,
                                                task="regression", out_channels=1)), ckpt)
    out = tmp_path / "e"
    assert main(["eval", "--checkpoint", str(ckpt), "--synthetic", f"{dataset}:n=4,size=16",
                 "--seed", "3", "--extractor", extractor, "--out", str(out)]) == 0
    descriptor, fid, inception, ssim = EVAL_GOLDEN[dataset, extractor]
    assert (out / "metrics.kv").read_text() == (
        f"model = vit-c\nn_samples = 4\nextractor = {descriptor}\n"
        f"fid = {fid}\nis = {inception}\nssim = {ssim}\n")


def test_eval_synthetic_size_defaults_to_checkpoint(tmp_path, tiny_checkpoint):
    # tiny_checkpoint is 16 px; the spec gives no size.
    out = tmp_path / "e"
    assert main(["eval", "--checkpoint", str(tiny_checkpoint), "--synthetic", "shapes:n=2",
                 "--out", str(out)]) == 0
    assert "n_samples = 2" in (out / "metrics.kv").read_text()


def test_eval_task_mismatch_exit_2(tmp_path):
    out = run_train(tmp_path)
    rc = main(["eval", "--checkpoint", str(out / "checkpoint.ckpt"),
               "--synthetic", "depth:n=4,size=16", "--out", str(tmp_path / "e3")])
    assert rc == 2


def test_eval_missing_checkpoint_exit_3(tmp_path):
    rc = main(["eval", "--checkpoint", str(tmp_path / "nope.ckpt"),
               "--synthetic", "shapes:n=4,size=16", "--out", str(tmp_path / "e4")])
    assert rc == 3


# --- infer -------------------------------------------------------------------------

def test_infer_deterministic_and_palette(tmp_path):
    out = run_train(tmp_path)
    from vit2img.data import synth_segmentation_dataset
    sample = synth_segmentation_dataset(1, 16, 3, seed=77)[0]
    inp = tmp_path / "in.ppm"
    save_image(sample.input, inp)
    o1, o2 = tmp_path / "o1.ppm", tmp_path / "o2.ppm"
    assert main(["infer", "--checkpoint", str(out / "checkpoint.ckpt"),
                 "--input", str(inp), "--output", str(o1)]) == 0
    assert main(["infer", "--checkpoint", str(out / "checkpoint.ckpt"),
                 "--input", str(inp), "--output", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()
    img = float_to_byte(load_image(o1))
    palette = {tuple(row) for row in PALETTE.astype(np.uint8)}
    seen = {tuple(px) for px in img.reshape(-1, 3)}
    assert seen <= palette


def test_infer_regression_output_in_range(tmp_path):
    out = run_train(tmp_path, "dep", synthetic="depth:n=4,size=16", steps="2")
    from vit2img.data import synth_depth_dataset
    sample = synth_depth_dataset(1, 16, seed=3)[0]
    inp = tmp_path / "din.ppm"
    save_image(sample.input, inp)
    o = tmp_path / "dout.ppm"
    assert main(["infer", "--checkpoint", str(out / "checkpoint.ckpt"),
                 "--input", str(inp), "--output", str(o)]) == 0
    img = load_image(o)
    assert img.min() >= -1.0 and img.max() <= 1.0


def test_infer_wrong_size_exit_3(tmp_path):
    out = run_train(tmp_path)
    inp = tmp_path / "big.ppm"
    save_image(np.zeros((32, 32, 3)), inp)
    rc = main(["infer", "--checkpoint", str(out / "checkpoint.ckpt"),
               "--input", str(inp), "--output", str(tmp_path / "o.ppm")])
    assert rc == 3


# --- malformed files ---------------------------------------------------------------

def checkpoint_case(tmp_path, body: bytes):
    """Write ``body`` under a valid CRC; return its load and an eval of it."""
    path = tmp_path / "bad.ckpt"
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    return lambda: load_checkpoint(path), ["eval", "--checkpoint", str(path), *SHAPES,
                                           "--out", str(tmp_path / "run")]


def bad_checkpoint(header: bytes):
    """A copy of the checkpoint with its JSON header replaced."""
    def make(tmp_path, ckpt):
        blob = ckpt.read_bytes()
        (n,) = struct.unpack("<I", blob[8:12])
        return checkpoint_case(tmp_path, blob[:8] + struct.pack("<I", len(header)) + header
                               + blob[12 + n:-4])
    return make


def config_with(**fields):
    """A copy of the checkpoint whose header config has ``fields`` set."""
    def make(tmp_path, ckpt):
        blob = ckpt.read_bytes()
        (n,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12:12 + n])
        header["config"].update(fields)
        return bad_checkpoint(json.dumps(header).encode())(tmp_path, ckpt)
    return make


def record_value(record: str, value: float):
    """A copy of the checkpoint whose record ``record`` starts with ``value``."""
    def make(tmp_path, ckpt):
        body = bytearray(ckpt.read_bytes()[:-4])
        payload = {name: at for name, _, at in record_heads(body)}[record]
        struct.pack_into("<d", body, payload, value)
        return checkpoint_case(tmp_path, bytes(body))
    return make


def with_records(edit):
    """A copy of the checkpoint whose name -> (kind, array) records ``edit``
    has changed in place."""
    def make(tmp_path, ckpt):
        blob = ckpt.read_bytes()
        (n,) = struct.unpack("<I", blob[8:12])
        records = read_records(blob)
        edit(records)
        packed = (_pack_record(name, kind, arr) for name, (kind, arr) in records.items())
        return checkpoint_case(tmp_path, b"".join([blob[:12 + n], struct.pack("<I", len(records)),
                                                   *(head + arr.tobytes() for head, arr in packed)]))
    return make


def stored_twice(record: str):
    """A copy of the checkpoint that stores ``record`` again, as zeros, after
    every other record."""
    def make(tmp_path, ckpt):
        body = ckpt.read_bytes()[:-4]
        (n,) = struct.unpack("<I", body[8:12])
        records = read_records(body)
        kind, arr = records[record]
        head, payload = _pack_record(record, kind, np.zeros_like(arr))
        return checkpoint_case(tmp_path, b"".join([body[:12 + n], struct.pack("<I", len(records) + 1),
                                                   body[16 + n:], head, payload.tobytes()]))
    return make


def stored_as(record: str, kind: int, shape):
    """A copy of the checkpoint with ``record`` stored as zeros of ``shape``."""
    def edit(records):
        records[record] = (kind, np.zeros(shape))
    return with_records(edit)


def empty_ppm(tmp_path, ckpt):
    path = tmp_path / "empty.ppm"
    path.write_bytes(b"P6\n0 0\n255\n")
    return lambda: load_image(path), ["infer", "--checkpoint", str(ckpt), "--input", str(path),
                                       "--output", str(tmp_path / "o.ppm")]


def non_square_manifest(tmp_path, ckpt):
    save_image(np.zeros((16, 8, 3)), tmp_path / "in.ppm")
    save_image(np.full((16, 8, 3), -1.0), tmp_path / "tgt.ppm")  # class 0 everywhere
    path = tmp_path / "data.manifest"
    write_manifest(DatasetManifest(root=tmp_path, task="segmentation", classes=3,
                                   image_size=16, pairs=[("in.ppm", "tgt.ppm")]), path)
    return (lambda: load_manifest_dataset(read_manifest(path)),
            ["train", "--manifest", str(path), *TINY_MODEL, "--out", str(tmp_path / "run")])


def manifest_text(text: bytes):
    """A manifest file holding ``text``."""
    def make(tmp_path, ckpt):
        path = tmp_path / "data.manifest"
        path.write_bytes(text)
        return (lambda: read_manifest(path),
                ["train", "--manifest", str(path), *TINY_MODEL, "--out", str(tmp_path / "run")])
    return make


def trailing_zeros(n: int):
    """A copy of the checkpoint with ``n`` zero bytes between its last record and its CRC."""
    def make(tmp_path, ckpt):
        return checkpoint_case(tmp_path, ckpt.read_bytes()[:-4] + bytes(n))
    return make


MALFORMED = [
    ("header-not-utf8", bad_checkpoint(b"\xff\xfe{}"), CheckpointFormatError),
    ("header-bad-json", bad_checkpoint(b"{not json"), CheckpointFormatError),
    ("header-no-config", bad_checkpoint(b'{"seed": 0}'), CheckpointFormatError),
    ("header-config-list", bad_checkpoint(b'{"config": [["variant", "C"]]}'), CheckpointFormatError),
    ("header-config-string", bad_checkpoint(b'{"config": "C"}'), CheckpointFormatError),
    ("header-not-object", bad_checkpoint(b'["config"]'), CheckpointFormatError),
    ("header-unknown-config-key", config_with(bogus=1), CheckpointFormatError),
    ("header-variant-z", config_with(variant="Z"), CheckpointFormatError),
    ("header-seed-negative", config_with(seed=-1), CheckpointFormatError),
    ("header-in-channels-negative", config_with(in_channels=-1), CheckpointFormatError),
    ("header-schedule-channel-negative", config_with(decoder_schedule=[[-8, 64], [32, 32]]),
     CheckpointFormatError),
    ("header-schedule-channel-0", config_with(decoder_schedule=[[64, 0], [32, 32]]), CheckpointFormatError),
    ("header-schedule-triple", config_with(decoder_schedule=[[64, 64, 64], [32, 32]]), CheckpointFormatError),
    ("header-schedule-string", config_with(decoder_schedule="ab"), CheckpointFormatError),
    ("header-patch-size-float", config_with(patch_size=4.0), CheckpointFormatError),
    ("header-ffn-width-4e9", config_with(ffn_width=4_000_000_000), CheckpointFormatError),
    ("header-embed-dim-2e6", config_with(embed_dim=2_000_000), CheckpointFormatError),
    ("header-ffn-width-1e400", config_with(ffn_width=10 ** 400), CheckpointFormatError),
    ("header-layers-1e6", config_with(num_transformer_layers=1_000_000), CheckpointFormatError),
    ("header-model-larger-than-file", config_with(embed_dim=1024), CheckpointFormatError),
    ("param-nan", record_value("encoder.patch.bias", float("nan")), CheckpointFormatError),
    ("running-var-inf", record_value("decoder.stages.0.bn.running_var", float("inf")),
     CheckpointFormatError),
    ("param-missing", with_records(lambda records: records.pop("head.conv.bias")),
     CheckpointMismatchError),
    ("param-extra", stored_as("head.conv.extra", KIND_PARAM, (3,)), CheckpointMismatchError),
    ("param-twice", stored_twice("head.conv.bias"), CheckpointMismatchError),
    ("param-shape", stored_as("head.conv.bias", KIND_PARAM, (4,)), CheckpointMismatchError),
    ("running-mean-shape-1", stored_as("decoder.stages.0.bn.running_mean", KIND_BUFFER, (1,)),
     CheckpointMismatchError),
    ("running-mean-shape-3", stored_as("decoder.stages.0.bn.running_mean", KIND_BUFFER, (3,)),
     CheckpointMismatchError),
    ("trailing-bytes", trailing_zeros(32 << 20), CheckpointFormatError),
    ("ppm-0x0", empty_ppm, DecodeError),
    ("manifest-16x8-pair", non_square_manifest, DataError),
    ("manifest-classes-x", manifest_text(b"task = segmentation\nclasses = x\nimage_size = 16\n"), DataError),
    ("manifest-image-size-1.5", manifest_text(b"task = segmentation\nclasses = 3\nimage_size = 1.5\n"),
     DataError),
    ("manifest-not-utf8", manifest_text(b"task = segmentation\nclasses = 3\nimage_size = 16\n# caf\xe9\n"),
     DataError),
    ("manifest-task-bogus", manifest_text(b"task = bogus\nclasses = 3\nimage_size = 16\n"), DataError),
    ("manifest-classes-9", manifest_text(b"task = segmentation\nclasses = 9\nimage_size = 16\n"), DataError),
    ("manifest-classes-1", manifest_text(b"task = segmentation\nclasses = 1\nimage_size = 16\n"), DataError),
]


@pytest.mark.parametrize("make, error", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_file_typed_error_exit_3(tmp_path, tiny_checkpoint, capsys, make, error):
    load, argv = make(tmp_path, tiny_checkpoint)
    with pytest.raises(error):
        load()
    assert main(argv) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["header-layers-1e6", "header-model-larger-than-file"])
def test_header_larger_than_its_file_is_refused_before_it_is_built(tmp_path, tiny_checkpoint, case):
    load, _ = {row[0]: row[1] for row in MALFORMED}[case](tmp_path, tiny_checkpoint)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(CheckpointFormatError, match="malformed header"):
            load()
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seconds < 0.1 and peak < 8 << 20, (seconds, peak)


def test_trailing_bytes_are_refused_without_being_held(tmp_path, tiny_checkpoint):
    load, _ = {row[0]: row[1] for row in MALFORMED}["trailing-bytes"](tmp_path, tiny_checkpoint)
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointFormatError, match=f"{32 << 20} bytes after the last record"):
            load()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak
    path = tmp_path / "bad.ckpt"
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(blob)
    with pytest.raises(CheckpointFormatError, match="CRC mismatch"):
        load()


def test_invalid_header_config_names_the_file(tmp_path, tiny_checkpoint):
    load, _ = config_with(variant="Z")(tmp_path, tiny_checkpoint)
    with pytest.raises(CheckpointFormatError, match=re.escape(str(tmp_path / "bad.ckpt"))):
        load()


def test_manifest_header_error_names_the_file_and_key(tmp_path, tiny_checkpoint):
    load, _ = manifest_text(b"task = segmentation\nclasses = x\nimage_size = 16\n")(tmp_path, tiny_checkpoint)
    with pytest.raises(DataError, match=re.escape(f"{tmp_path / 'data.manifest'}: manifest header classes = 'x'")):
        load()


@pytest.mark.parametrize("key, text", [
    ("task", b"task = bogus\nclasses = 3\nimage_size = 16\n"),
    ("classes", b"task = segmentation\nclasses = 9\nimage_size = 16\n"),
])
def test_manifest_task_and_classes_errors_name_the_file_and_key(tmp_path, tiny_checkpoint, key, text):
    load, _ = manifest_text(text)(tmp_path, tiny_checkpoint)
    with pytest.raises(DataError, match=re.escape(f"{tmp_path / 'data.manifest'}: manifest header {key} = ")):
        load()


def test_buffer_shape_mismatch_names_the_file_and_record(tmp_path, tiny_checkpoint):
    record = "decoder.stages.0.bn.running_mean"
    load, _ = stored_as(record, KIND_BUFFER, (1,))(tmp_path, tiny_checkpoint)
    with pytest.raises(CheckpointMismatchError,
                       match=f"{re.escape(str(tmp_path / 'bad.ckpt'))}: stored {re.escape(record)} "
                             r"has shape \(1,\), model expects \(64,\)"):
        load()


# --- compare -----------------------------------------------------------------------

def test_compare_end_to_end(tmp_path, capsys):
    out = tmp_path / "cmp"
    rc = main(["compare", "--synthetic", "shapes:n=4,size=16", "--out", str(out),
               "--steps", "2", "--epochs", "10", "--seed", "3", *TINY_MODEL])
    assert rc == 0
    report = (out / "report.txt").read_text()
    lines = report.splitlines()
    assert lines[0].split() == ["Model", "FID", "IS", "SSIM"]
    models = [l.split()[0] for l in lines[1:4]]
    assert models == ["vit-c", "unet", "autoencoder"]
    assert "budget per model" in report
    assert "seed=3" in report
    montage_img = load_image(out / "comparison.ppm")
    # 5 columns of 16px tiles with 2px separators
    assert montage_img.shape[1] == 16 * 5 + 2 * 4
    for name in ("vit-c", "unet", "autoencoder"):
        assert (out / f"{name}.ckpt").exists()
    for name in ("unet", "autoencoder"):  # a baseline stores none of C's ViT settings
        config = load_checkpoint(out / f"{name}.ckpt").config
        assert (config.patch_size, config.embed_dim, config.num_heads, config.ffn_width,
                config.num_transformer_layers, config.decoder_schedule) == (16, 64, 2, 32, 4, None)


def test_numeric_abort_exit_4(tmp_path, monkeypatch):
    import vit2img.cli as cli
    from vit2img.errors import NumericError

    def exploding_train(*a, **k):
        raise NumericError("non-finite loss at step 3 (batch 1)")

    monkeypatch.setattr(cli, "train", exploding_train)
    rc = main(["train", "--synthetic", "shapes:n=4,size=16",
               "--out", str(tmp_path / "x"), *TINY_MODEL])
    assert rc == 4
