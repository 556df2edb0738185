"""Experiment command line: train / eval / infer / compare.

Configuration comes from an optional plain-text ``key = value`` file plus
flag overrides (flags win); ``SETTINGS`` says which commands read each key.
Every run directory receives a full config echo, so any run can be
reproduced from its own outputs.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric abort.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import tensor as T
from .data import (PALETTE, PairedSample, load_image, load_manifest_dataset,
                   make_synthetic, montage, read_manifest, render_class_map,
                   save_image)
from .errors import ConfigError, DataError, NumericError, Vit2ImgError
from .metrics import (SSIM_WINDOW, MetricsReport, TinyClassifier, fid, format_table,
                      inception_score, make_extractor, ssim)
from .models import (_VIT_VARIANTS, TASKS, VARIANTS, VIT_FIELDS, Generator, ModelConfig,
                     load_checkpoint)
from .training import check_budget, loss_kind_for_task, train, write_train_log


def boolean(raw: str) -> bool:
    """Parse the echo of a bool: exactly ``True`` or ``False``."""
    if raw not in ("True", "False"):
        raise ValueError(raw)
    return raw == "True"


def nonnegative(raw: str) -> int:
    """Parse an integer that is at least 0."""
    value = int(raw)
    if value < 0:
        raise ValueError(raw)
    return value


def number(raw: str) -> float:
    """Parse a float that is not NaN, so that it compares as a bound."""
    value = float(raw)
    if value != value:
        raise ValueError(raw)
    return value


def nonempty(raw: str) -> str:
    """Parse a path: any text but the empty one, which names the current directory."""
    if not raw:
        raise ValueError(raw)
    return raw


class Setting(NamedTuple):
    parse: Callable[[str], object]
    commands: tuple[str, ...]  # the commands that read the key
    flag: Optional[str]        # None: only a config file sets the key
    help: Optional[str] = None
    choices: Optional[tuple[str, ...]] = None


DATA = ("train", "eval", "compare")  # the commands that read a dataset
MODEL = ("train", "compare")         # the commands that build and train models
SCORED = ("eval", "compare")         # the commands that score outputs with SSIM, FID and IS
SETTINGS = {
    "out": Setting(nonempty, DATA, "--out", "output directory for run artifacts"),
    "seed": Setting(nonnegative, DATA, "--seed"),
    "synthetic": Setting(str, DATA, "--synthetic",
                         "synthetic dataset spec, e.g. shapes:n=8 or depth:n=8,size=64"),
    "manifest": Setting(nonempty, DATA, "--manifest", "manifest file of input/target pairs"),
    "classes": Setting(int, DATA, "--classes"),
    "task": Setting(str, DATA, None, choices=TASKS),
    "variant": Setting(str, ("train",), "--variant", choices=VARIANTS),
    "image_size": Setting(int, MODEL, "--image-size"),
    "patch_size": Setting(int, MODEL, "--patch-size"),
    "embed_dim": Setting(int, MODEL, "--embed-dim"),
    "num_heads": Setting(int, MODEL, "--num-heads"),
    "ffn_width": Setting(int, MODEL, "--ffn-width"),
    "num_transformer_layers": Setting(int, MODEL, "--num-layers"),
    "out_channels": Setting(int, MODEL, "--out-channels"),
    "epochs": Setting(int, MODEL, "--epochs"),
    "steps": Setting(int, MODEL, "--steps", "cap on optimizer steps"),
    "batch_size": Setting(int, MODEL, "--batch-size"),
    "stop_loss": Setting(number, ("train",), "--stop-loss"),
    "montage_every": Setting(nonnegative, ("train",), "--montage-every",
                             "write a progress montage every k epochs"),
    "checkpoint": Setting(nonempty, ("eval", "infer"), "--checkpoint"),
    "extractor": Setting(str, SCORED, "--extractor", choices=("pixel", "proj", "tiny")),
    "self_eval": Setting(boolean, ("eval",), "--self-eval",
                         "score targets against themselves (sanity mode)"),
    "input": Setting(nonempty, ("infer",), "--input", "input PPM image"),
    "output": Setting(nonempty, ("infer",), "--output", "output PPM image"),
}


def parse_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as f:
            lines = list(f)
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    for line_no, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, val = (part.strip() for part in line.partition("="))
        if not eq:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {line!r}")
        if key not in SETTINGS:
            raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
        values[key] = val
    return values


def parse_synthetic_spec(spec: str) -> tuple[str, dict[str, int]]:
    """Parse 'shapes:n=8,classes=3' into (kind, options)."""
    kind, _, rest = spec.partition(":")
    if kind not in ("shapes", "depth"):
        raise ConfigError(f"unknown synthetic dataset {kind!r}; expected 'shapes' or 'depth'")
    opts: dict[str, int] = {}
    for item in rest.split(",") if rest else ():
        key, _, val = (part.strip() for part in item.partition("="))
        if key not in ("n", "size", "classes", "seed"):
            raise ConfigError(f"unknown synthetic option {key!r}; expected n, size, classes or seed")
        try:
            opts[key] = nonnegative(val)
        except ValueError:
            raise ConfigError(f"synthetic option {key!r} must be a nonnegative integer, got {val!r}")
    return kind, opts


class RunConfig(dict):
    """Merged file + flag settings, typed by their ``SETTINGS`` parsers, with an echo writer."""

    def __init__(self, args: argparse.Namespace):
        self.command = args.command
        raw = parse_config_file(args.config) if getattr(args, "config", None) else {}
        for key in raw:
            if args.command not in SETTINGS[key].commands:
                raise ConfigError(f"{args.config}: {args.command} does not read config key {key!r}")
        raw.update((key, getattr(args, key)) for key in SETTINGS if getattr(args, key, None) is not None)
        for key, text in raw.items():
            setting = SETTINGS[key]
            try:
                self[key] = setting.parse(text)
            except ValueError:
                raise ConfigError(f"setting {key!r}: cannot parse {text!r} as {setting.parse.__name__}")
            if setting.choices and self[key] not in setting.choices:
                raise ConfigError(f"setting {key!r}: {text!r} is not one of {', '.join(setting.choices)}")

    def require(self, key):
        if key not in self:
            raise ConfigError(f"missing required setting {key!r} (flag {SETTINGS[key].flag})")
        return self[key]

    def echo(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for key in sorted(self):
                f.write(f"{key} = {self[key]}\n")


def resolve_dataset(cfg: RunConfig, size: int) -> tuple[list[PairedSample], str, int, int]:
    """Return (samples, task, channels, image_size) from synthetic or manifest flags.

    ``channels`` is the class count, or a regression target's channel count.
    ``size`` is the synthetic image size where neither the spec nor an
    ``image_size`` setting gives one.  The dataset decides the task; a
    configured ``task`` must agree with it.  A ``SCORED`` command refuses
    images smaller than SSIM's window.
    """
    if cfg.get("synthetic") and cfg.get("manifest"):
        raise ConfigError("pass either --synthetic or --manifest, not both")
    if cfg.get("synthetic"):
        kind, opts = parse_synthetic_spec(cfg.get("synthetic"))
        if kind != "shapes" and ("classes" in cfg or "classes" in opts):
            raise ConfigError(f"classes applies to shapes datasets only, not to {kind!r}")
        image_size = opts.get("size", cfg.get("image_size", size))
        classes = opts.get("classes", cfg.get("classes", 3))
        if not 2 <= classes <= len(PALETTE):
            raise ConfigError(f"classes must be from 2 to the palette's {len(PALETTE)} "
                              f"for a shapes dataset, got {classes}")
        seed = opts.get("seed", cfg.get("seed", ModelConfig.seed))
        samples = make_synthetic(kind, opts.get("n", 8), image_size, seed, classes)
        task = "segmentation" if kind == "shapes" else "regression"
    elif cfg.get("manifest"):
        if "classes" in cfg:
            raise ConfigError("classes applies to shapes datasets only; a manifest gives its own")
        manifest = read_manifest(cfg.get("manifest"))
        samples = load_manifest_dataset(manifest)
        task, classes, image_size = manifest.task, manifest.classes, manifest.image_size
    else:
        raise ConfigError("no dataset: pass --synthetic kind:opts or --manifest path")
    if not samples:
        raise DataError(f"dataset {cfg.get('synthetic') or cfg.get('manifest')} has no samples")
    if cfg.get("task", task) != task:
        raise ConfigError(f"configured task {cfg.get('task')!r} does not match the dataset's task {task!r}")
    if cfg.command in SCORED and image_size < SSIM_WINDOW:
        raise ConfigError(f"{cfg.command} scores SSIM over an {SSIM_WINDOW}x{SSIM_WINDOW} window; "
                          f"{image_size}-px images are smaller")
    channels = classes if task == "segmentation" else samples[0].target.shape[-1]
    return samples, task, channels, image_size


def check_fit(mc: ModelConfig, task: str, channels: int, image_size: int) -> None:
    """Refuse a model whose task, image size or out_channels (the class count, or the
    target channels) is not the dataset's."""
    for key, want in (("task", task), ("image_size", image_size), ("out_channels", channels)):
        if getattr(mc, key) != want:
            raise ConfigError(f"model {key} {getattr(mc, key)!r} does not match the dataset's {want!r}")


def model_config_from(cfg: RunConfig, task: str, channels: int, image_size: int) -> ModelConfig:
    """The configured model; task, image size and out_channels default to the dataset's."""
    implied = {"task": task, "image_size": image_size, "out_channels": channels}
    mc = ModelConfig(**{f.name: cfg.get(f.name, implied.get(f.name, f.default))
                        for f in fields(ModelConfig)})
    check_fit(mc, task, channels, image_size)
    return mc


def model_outputs(gen: Generator, samples: list[PairedSample]) -> list[np.ndarray]:
    """Eval-mode forward over a dataset, one image at a time."""
    with T.no_grad():
        return [gen.forward(s.input[None], "eval").data[0] for s in samples]


def render(task: str, image: np.ndarray) -> np.ndarray:
    """Map a model output or a target to a [-1, 1] image.  For segmentation,
    [H, W, K] logits (through their argmax) and [H, W] class maps both go
    through the palette; regression values are clipped."""
    if task == "segmentation":
        return render_class_map(image if image.ndim == 2 else np.argmax(image, axis=-1))
    return np.clip(image, -1, 1)


def evaluate_model(gen: Generator, samples, extractor_kind: str, seed: int,
                   model_name: str, self_eval: bool = False) -> MetricsReport:
    task = gen.config.task
    targets_rendered = [render(task, s.target) for s in samples]
    outputs = [s.target for s in samples] if self_eval else model_outputs(gen, samples)
    outputs_rendered = [render(task, out) for out in outputs]
    # Segmentation renders to RGB, regression to its output channels (1 for depth).
    channels = 3 if task == "segmentation" else gen.config.out_channels
    extractor = make_extractor(extractor_kind, gen.config.image_size, seed, channels=channels)
    ssim_vals = [ssim(o, t) for o, t in zip(outputs_rendered, targets_rendered)]
    fid_val = fid(targets_rendered, outputs_rendered, extractor)
    is_val = inception_score(outputs_rendered, TinyClassifier(n_classes=8, seed=seed, channels=channels))
    return MetricsReport(
        model=model_name,
        fid=fid_val,
        is_score=is_val,
        ssim=float(np.mean(ssim_vals)),
        n_samples=len(samples),
        extractor=extractor.descriptor,
    )


def _write_montage(gens: list[Generator], samples, path) -> None:
    """One row per sample, for the first four: input | target | each generator's output."""
    subset = samples[:4]
    task = gens[0].config.task
    outs = [model_outputs(gen, subset) for gen in gens]
    rows = [[np.clip(s.input, -1, 1), render(task, s.target), *(render(task, o[i]) for o in outs)]
            for i, s in enumerate(subset)]
    montage(rows, path)


# ---------------------------------------------------------------------------
# subcommands: each validates every setting before it creates its run
# directory, so a rejected invocation leaves nothing behind.


def _run_directory(cfg: RunConfig) -> Path:
    """The ``out`` setting: a directory, or a path that mkdir can make one."""
    out_dir = Path(cfg.require("out"))
    found = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not found.is_dir():
        raise ConfigError(f"setting 'out': {found} exists and is not a directory")
    return out_dir


def training_run(cfg: RunConfig) -> tuple[Path, list[PairedSample], ModelConfig, dict]:
    """A training command's run directory, dataset, model and checked budget (``train`` kwargs)."""
    out_dir = _run_directory(cfg)
    samples, task, channels, image_size = resolve_dataset(cfg, ModelConfig.image_size)
    mc = model_config_from(cfg, task, channels, image_size)
    budget = dict(epochs=cfg.get("epochs", 1), batch_size=cfg.get("batch_size", 4),
                  max_steps=cfg.get("steps"))
    check_budget(**budget)
    return out_dir, samples, mc, budget


def cmd_train(cfg: RunConfig) -> int:
    out_dir, samples, mc, budget = training_run(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg.update(task=mc.task, image_size=mc.image_size, out_channels=mc.out_channels)
    cfg.echo(out_dir / "config.txt")
    gen = Generator(mc)
    montage_every = cfg.get("montage_every", 0)

    def epoch_hook(epoch: int) -> None:
        if montage_every and (epoch + 1) % montage_every == 0:
            _write_montage([gen], samples, out_dir / f"montage-epoch{epoch + 1:04d}.ppm")

    gen, records = train(
        gen, samples,
        loss_kind=loss_kind_for_task(mc.task),
        seed=mc.seed,
        checkpoint_path=out_dir / "checkpoint.ckpt",
        stop_loss=cfg.get("stop_loss"),
        epoch_hook=epoch_hook,
        **budget,
    )
    write_train_log(records, out_dir / "train.log")
    _write_montage([gen], samples, out_dir / "montage.ppm")
    print(f"trained {mc.variant} for {len(records)} steps; final loss {records[-1].loss:.4f}")
    print(f"artifacts in {out_dir}")
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    out_dir = _run_directory(cfg)
    gen = load_checkpoint(cfg.require("checkpoint"))
    samples, *dataset = resolve_dataset(cfg, gen.config.image_size)
    check_fit(gen.config, *dataset)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg.echo(out_dir / "config.txt")
    variant = gen.config.variant
    name = f"vit-{variant.lower()}" if variant in _VIT_VARIANTS else variant
    report = evaluate_model(
        gen, samples, cfg.get("extractor", "pixel"), cfg.get("seed", ModelConfig.seed),
        model_name=name, self_eval=bool(cfg.get("self_eval")),
    )
    (out_dir / "metrics.txt").write_text(format_table([report]))
    (out_dir / "metrics.kv").write_text(report.key_values())
    print(format_table([report]), end="")
    return 0


def cmd_infer(cfg: RunConfig) -> int:
    output = Path(cfg.require("output"))
    if output.is_dir() or not output.parent.is_dir():
        raise ConfigError(f"setting 'output': {output} is not a file path in an existing directory")
    gen = load_checkpoint(cfg.require("checkpoint"))
    image = load_image(cfg.require("input"))
    size = gen.config.image_size
    if image.shape[:2] != (size, size):
        raise DataError(f"input image is {image.shape[0]}x{image.shape[1]}, model expects {size}x{size}")
    with T.no_grad():
        out = gen.forward(image[None], "eval").data[0]
    save_image(render(gen.config.task, out), output)
    print(f"wrote {cfg.require('output')}")
    return 0


def cmd_compare(cfg: RunConfig) -> int:
    out_dir, samples, mc, budget = training_run(cfg)
    # The baselines take only the fields they read from C's config.
    shared = {f.name: getattr(mc, f.name) for f in fields(mc) if f.name not in VIT_FIELDS}
    configs = {name: ModelConfig(**{**shared, "variant": name}) for name in ("autoencoder", "unet")}
    configs["vit-c"] = mc
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg.echo(out_dir / "config.txt")

    trained: dict[str, Generator] = {}
    for name, config in configs.items():
        trained[name], _ = train(Generator(config), samples, loss_kind=loss_kind_for_task(mc.task),
                                 seed=mc.seed, checkpoint_path=out_dir / f"{name}.ckpt", **budget)

    extractor_kind = cfg.get("extractor", "pixel")
    reports = [evaluate_model(trained[name], samples, extractor_kind, mc.seed, name)
               for name in ("vit-c", "unet", "autoencoder")]
    footer = (f"budget per model: epochs={budget['epochs']} steps={budget['max_steps'] or 'all'} "
              f"batch_size={budget['batch_size']} seed={mc.seed}")
    table = format_table(reports, footer=footer)
    (out_dir / "report.txt").write_text(table)
    _write_montage(list(trained.values()), samples, out_dir / "comparison.ppm")
    print(table, end="")
    print(f"montage columns: input | target | autoencoder | unet | vit-c -> {out_dir / 'comparison.ppm'}")
    return 0


# ---------------------------------------------------------------------------


COMMANDS = {
    "train": (cmd_train, "train one generator variant"),
    "eval": (cmd_eval, "compute SSIM/FID/IS for a checkpoint"),
    "infer": (cmd_infer, "run one image through a checkpoint"),
    "compare": (cmd_compare, "train and compare vit-C, U-Net and Autoencoder"),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, with a flag for each key that it reads."""
    parser = argparse.ArgumentParser(
        prog="vit2img",
        description="Train and evaluate transformer-encoder image-to-image generators at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        takes_config = command in SETTINGS["out"].commands  # a run directory's echo is a config file
        if takes_config:  # otherwise each flag is its key's only source, so it is required
            p.add_argument("--config", help="plain-text key = value config file")
        for key, setting in SETTINGS.items():
            if setting.flag and command in setting.commands:
                kind = ({"action": "store_const", "const": "True"} if setting.parse is boolean
                        else {"choices": setting.choices})
                p.add_argument(setting.flag, dest=key, help=setting.help, required=not takes_config, **kind)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command][0](RunConfig(args))
    except Vit2ImgError as e:
        print(f"error: {e}", file=sys.stderr)
        # The exit codes of the module docstring; any other error is a configuration error.
        return 3 if isinstance(e, DataError) else 4 if isinstance(e, NumericError) else 2


if __name__ == "__main__":
    sys.exit(main())
