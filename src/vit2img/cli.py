"""Experiment command line: train / eval / infer / compare.

Configuration comes from an optional plain-text ``key = value`` file plus
flag overrides (flags win).  Every run directory receives a full config
echo, so any run can be reproduced from its own outputs.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric abort.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import tensor as T
from .data import (PairedSample, load_image, load_manifest_dataset,
                   make_synthetic, montage, read_manifest, render_class_map,
                   save_image)
from .errors import ConfigError, DataError, NumericError, Vit2ImgError
from .metrics import (MetricsReport, TinyClassifier, fid, format_table,
                      inception_score, make_extractor, ssim)
from .models import Generator, ModelConfig, build_generator, load_checkpoint
from .training import check_budget, loss_kind_for_task, train, write_train_log

MODEL_KEYS = {
    "variant": str, "task": str, "image_size": int, "patch_size": int,
    "embed_dim": int, "num_heads": int, "ffn_width": int,
    "num_transformer_layers": int, "out_channels": int, "seed": int,
}


def boolean(raw: str) -> bool:
    """Parse the echo of a bool: exactly ``True`` or ``False``."""
    if raw not in ("True", "False"):
        raise ValueError(raw)
    return raw == "True"


RUN_KEYS = {
    "synthetic": str, "manifest": str, "epochs": int, "steps": int,
    "batch_size": int, "stop_loss": float, "out": str, "extractor": str,
    "montage_every": int, "checkpoint": str, "classes": int, "self_eval": boolean,
}


def parse_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    known = set(MODEL_KEYS) | set(RUN_KEYS)
    with open(path) as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {line!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in known:
                raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
            values[key] = val.strip()
    return values


def parse_synthetic_spec(spec: str) -> tuple[str, dict[str, int]]:
    """Parse 'shapes:n=8,classes=3' into (kind, options)."""
    kind, _, rest = spec.partition(":")
    opts: dict[str, int] = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not val:
                raise ConfigError(f"bad synthetic spec item {item!r} in {spec!r}")
            try:
                opts[key.strip()] = int(val)
            except ValueError:
                raise ConfigError(f"synthetic option {key!r} must be an integer, got {val!r}")
    if kind not in ("shapes", "depth"):
        raise ConfigError(f"unknown synthetic dataset {kind!r}; expected 'shapes' or 'depth'")
    return kind, opts


class RunConfig:
    """Merged file + flag settings with typed access and an echo writer."""

    def __init__(self, args: argparse.Namespace):
        self.values: dict[str, object] = {}
        if getattr(args, "config", None):
            file_vals = parse_config_file(args.config)
            for key, raw in file_vals.items():
                typ = MODEL_KEYS.get(key) or RUN_KEYS[key]
                try:
                    self.values[key] = typ(raw)
                except ValueError:
                    raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as {typ.__name__}")
        for key in list(MODEL_KEYS) + list(RUN_KEYS):
            flag = getattr(args, key, None)
            if flag is not None:
                self.values[key] = flag

    def get(self, key, default=None):
        return self.values.get(key, default)

    def require(self, key):
        if key not in self.values:
            raise ConfigError(f"missing required setting {key!r} (flag --{key.replace('_', '-')})")
        return self.values[key]

    def echo(self, path) -> None:
        with open(path, "w") as f:
            for key in sorted(self.values):
                f.write(f"{key} = {self.values[key]}\n")


def resolve_dataset(cfg: RunConfig) -> tuple[list[PairedSample], str, int, int]:
    """Return (samples, task, classes, image_size) from synthetic or manifest flags.

    The dataset decides the task; a configured ``task`` must agree with it.
    """
    if cfg.get("synthetic") and cfg.get("manifest"):
        raise ConfigError("pass either --synthetic or --manifest, not both")
    if cfg.get("synthetic"):
        kind, opts = parse_synthetic_spec(cfg.get("synthetic"))
        n = opts.get("n", 8)
        image_size = opts.get("size", cfg.get("image_size", 64))
        classes = opts.get("classes", cfg.get("classes", 3))
        seed = opts.get("seed", cfg.get("seed", 0))
        samples = make_synthetic(kind, n, image_size, seed, classes)
        task = "segmentation" if kind == "shapes" else "regression"
    elif cfg.get("manifest"):
        manifest = read_manifest(cfg.get("manifest"))
        samples = load_manifest_dataset(manifest)
        if not samples:
            raise DataError(f"manifest {cfg.get('manifest')} lists no samples")
        task, classes, image_size = manifest.task, manifest.classes, manifest.image_size
    else:
        raise ConfigError("no dataset: pass --synthetic kind:opts or --manifest path")
    if cfg.get("task", task) != task:
        raise ConfigError(f"configured task {cfg.get('task')!r} does not match the dataset's task {task!r}")
    return samples, task, classes, image_size


def model_config_from(cfg: RunConfig, task: str, classes: int, image_size: int) -> ModelConfig:
    out_channels = cfg.get("out_channels")
    if out_channels is None:
        out_channels = classes if task == "segmentation" else 1
    mc = ModelConfig(
        variant=cfg.get("variant", "C"),
        image_size=cfg.get("image_size", image_size),
        patch_size=cfg.get("patch_size", 16),
        embed_dim=cfg.get("embed_dim", 64),
        num_heads=cfg.get("num_heads", 2),
        ffn_width=cfg.get("ffn_width", 32),
        num_transformer_layers=cfg.get("num_transformer_layers", 4),
        out_channels=out_channels,
        task=task,
        seed=cfg.get("seed", 0),
    )
    if mc.image_size != image_size:
        raise ConfigError(f"model image_size {mc.image_size} does not match the dataset's {image_size}")
    return mc.validated()


def model_outputs(gen: Generator, samples: list[PairedSample]) -> list[np.ndarray]:
    """Eval-mode forward over a dataset, one image at a time."""
    outs = []
    with T.no_grad():
        for s in samples:
            outs.append(gen.forward(s.input[None], "eval").data[0])
    return outs


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
    if self_eval:
        outputs_rendered = [t.copy() for t in targets_rendered]
    else:
        outputs_rendered = [render(task, out) for out in model_outputs(gen, samples)]
    # Segmentation renders to RGB, regression to its output channels (1 for depth).
    channels = 3 if task == "segmentation" else gen.config.out_channels
    extractor = make_extractor(extractor_kind, gen.config.image_size, seed, channels=channels)
    ssim_vals = [ssim(o, t) for o, t in zip(outputs_rendered, targets_rendered)]
    fid_val = fid(targets_rendered, outputs_rendered, extractor)
    classifier = extractor if isinstance(extractor, TinyClassifier) else \
        TinyClassifier(n_classes=8, seed=seed, channels=channels)
    is_val = inception_score(outputs_rendered, classifier)
    return MetricsReport(
        model=model_name,
        fid=fid_val,
        is_score=is_val,
        ssim=float(np.mean(ssim_vals)),
        n_samples=len(samples),
        extractor=extractor.descriptor,
    )


def _write_montage(gen: Generator, samples, path, max_rows: int = 4) -> None:
    rows = []
    subset = samples[:max_rows]
    task = gen.config.task
    for s, out in zip(subset, model_outputs(gen, subset)):
        rows.append([np.clip(s.input, -1, 1), render(task, s.target), render(task, out)])
    montage(rows, path)


# ---------------------------------------------------------------------------
# subcommands: each validates every setting before it creates its run
# directory, so a rejected invocation leaves nothing behind.


def cmd_train(cfg: RunConfig) -> int:
    out_dir = Path(cfg.require("out"))
    samples, task, classes, image_size = resolve_dataset(cfg)
    mc = model_config_from(cfg, task, classes, image_size)
    epochs, batch_size, steps = cfg.get("epochs", 1), cfg.get("batch_size", 4), cfg.get("steps")
    check_budget(epochs, batch_size, steps)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg.values.setdefault("image_size", mc.image_size)
    cfg.values.setdefault("out_channels", mc.out_channels)
    cfg.values["task"] = task
    cfg.echo(out_dir / "config.txt")
    gen = build_generator(mc)
    montage_every = cfg.get("montage_every", 0)

    def epoch_hook(epoch: int) -> None:
        if montage_every and (epoch + 1) % montage_every == 0:
            _write_montage(gen, samples, out_dir / f"montage-epoch{epoch + 1:04d}.ppm")

    gen, records = train(
        gen, samples,
        epochs=epochs,
        batch_size=batch_size,
        loss_kind=loss_kind_for_task(task),
        seed=cfg.get("seed", 0),
        checkpoint_path=out_dir / "checkpoint.ckpt",
        max_steps=steps,
        stop_loss=cfg.get("stop_loss"),
        epoch_hook=epoch_hook,
    )
    write_train_log(records, out_dir / "train.log")
    _write_montage(gen, samples, out_dir / "montage.ppm")
    print(f"trained {mc.variant} for {len(records)} steps; final loss {records[-1].loss:.4f}")
    print(f"artifacts in {out_dir}")
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    out_dir = Path(cfg.require("out"))
    gen = load_checkpoint(cfg.require("checkpoint"))
    samples, task, classes, image_size = resolve_dataset(cfg)
    if task != gen.config.task:
        raise ConfigError(f"dataset task {task!r} does not match checkpoint task {gen.config.task!r}")
    if image_size != gen.config.image_size:
        raise ConfigError(f"dataset image size {image_size} does not match checkpoint "
                          f"image_size {gen.config.image_size}")
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg.echo(out_dir / "config.txt")
    variant = gen.config.variant
    name = f"vit-{variant.lower()}" if variant in ("A", "B", "C") else variant
    report = evaluate_model(
        gen, samples, cfg.get("extractor", "pixel"), cfg.get("seed", 0),
        model_name=name, self_eval=bool(cfg.get("self_eval")),
    )
    (out_dir / "metrics.txt").write_text(format_table([report]))
    (out_dir / "metrics.kv").write_text(report.key_values())
    print(format_table([report]), end="")
    return 0


def cmd_infer(cfg: RunConfig) -> int:
    gen = load_checkpoint(cfg.require("checkpoint"))
    image = load_image(cfg.require("input"))
    if image.shape[0] != gen.config.image_size or image.shape[1] != gen.config.image_size:
        raise DataError(
            f"input image is {image.shape[0]}x{image.shape[1]}, model expects "
            f"{gen.config.image_size}x{gen.config.image_size}"
        )
    with T.no_grad():
        out = gen.forward(image[None], "eval").data[0]
    save_image(render(gen.config.task, out), cfg.require("output"))
    print(f"wrote {cfg.require('output')}")
    return 0


def cmd_compare(cfg: RunConfig) -> int:
    out_dir = Path(cfg.require("out"))
    samples, task, classes, image_size = resolve_dataset(cfg)
    mc = model_config_from(cfg, task, classes, image_size)
    configs = {name: replace(mc, variant=variant).validated() for variant, name in
               (("autoencoder", "autoencoder"), ("unet", "unet"), ("C", "vit-c"))}
    seed = cfg.get("seed", 0)
    epochs = cfg.get("epochs", 1)
    steps = cfg.get("steps")
    batch = cfg.get("batch_size", 4)
    check_budget(epochs, batch, steps)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg.echo(out_dir / "config.txt")
    loss_kind = loss_kind_for_task(task)

    trained: dict[str, Generator] = {}
    for name, config in configs.items():
        gen, _ = train(build_generator(config), samples, epochs=epochs, batch_size=batch,
                       loss_kind=loss_kind, seed=seed, max_steps=steps,
                       checkpoint_path=out_dir / f"{name}.ckpt")
        trained[name] = gen

    extractor_kind = cfg.get("extractor", "pixel")
    reports = [
        evaluate_model(trained["vit-c"], samples, extractor_kind, seed, "vit-c"),
        evaluate_model(trained["unet"], samples, extractor_kind, seed, "unet"),
        evaluate_model(trained["autoencoder"], samples, extractor_kind, seed, "autoencoder"),
    ]
    budget = (f"budget per model: epochs={epochs} steps={steps if steps else 'all'} "
              f"batch_size={batch} seed={seed}")
    table = format_table(reports, footer=budget)
    (out_dir / "report.txt").write_text(table)

    rows = []
    subset = samples[:4]
    outs = {name: model_outputs(g, subset) for name, g in trained.items()}
    for i, s in enumerate(subset):
        row = [np.clip(s.input, -1, 1), render(task, s.target)]
        for name in ("autoencoder", "unet", "vit-c"):
            row.append(render(task, outs[name][i]))
        rows.append(row)
    montage(rows, out_dir / "comparison.ppm")
    print(table, end="")
    print(f"montage columns: input | target | autoencoder | unet | vit-c -> {out_dir / 'comparison.ppm'}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vit2img",
        description="Train and evaluate transformer-encoder image-to-image generators at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, dataset=True, model=True, budget=True):
        p.add_argument("--config", help="plain-text key = value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory for run artifacts")
        if dataset:
            p.add_argument("--synthetic", default=None,
                           help="synthetic dataset spec, e.g. shapes:n=8 or depth:n=8,size=64")
            p.add_argument("--manifest", default=None, help="manifest file of input/target pairs")
            p.add_argument("--classes", type=int, default=None)
        if model:
            p.add_argument("--variant", choices=["A", "B", "C", "unet", "autoencoder"], default=None)
            p.add_argument("--image-size", dest="image_size", type=int, default=None)
            p.add_argument("--patch-size", dest="patch_size", type=int, default=None)
            p.add_argument("--embed-dim", dest="embed_dim", type=int, default=None)
            p.add_argument("--num-heads", dest="num_heads", type=int, default=None)
            p.add_argument("--ffn-width", dest="ffn_width", type=int, default=None)
            p.add_argument("--num-layers", dest="num_transformer_layers", type=int, default=None)
            p.add_argument("--out-channels", dest="out_channels", type=int, default=None)
        if budget:
            p.add_argument("--epochs", type=int, default=None)
            p.add_argument("--steps", type=int, default=None, help="cap on optimizer steps")
            p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
            p.add_argument("--stop-loss", dest="stop_loss", type=float, default=None)

    p_train = sub.add_parser("train", help="train one generator variant")
    add_common(p_train)
    p_train.add_argument("--montage-every", dest="montage_every", type=int, default=None,
                         help="write a progress montage every k epochs")

    p_eval = sub.add_parser("eval", help="compute SSIM/FID/IS for a checkpoint")
    add_common(p_eval, model=False, budget=False)
    p_eval.add_argument("--checkpoint", default=None)
    p_eval.add_argument("--extractor", choices=["pixel", "proj", "tiny"], default=None)
    p_eval.add_argument("--self-eval", dest="self_eval", action="store_true", default=None,
                        help="score targets against themselves (sanity mode)")

    p_infer = sub.add_parser("infer", help="run one image through a checkpoint")
    p_infer.add_argument("--checkpoint", required=True)
    p_infer.add_argument("--input", required=True, help="input PPM image")
    p_infer.add_argument("--output", required=True, help="output PPM image")

    p_cmp = sub.add_parser("compare", help="train and compare vit-C, U-Net and Autoencoder")
    add_common(p_cmp)
    p_cmp.add_argument("--extractor", choices=["pixel", "proj", "tiny"], default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig(args)  # picks up --checkpoint, a config key, like every other flag
        if args.command == "infer":
            cfg.values.update(input=args.input, output=args.output)
        return {"train": cmd_train, "eval": cmd_eval, "infer": cmd_infer,
                "compare": cmd_compare}[args.command](cfg)
    except Vit2ImgError as e:
        print(f"error: {e}", file=sys.stderr)
        # The exit codes of the module docstring; any other error is a configuration error.
        return 3 if isinstance(e, DataError) else 4 if isinstance(e, NumericError) else 2


if __name__ == "__main__":
    sys.exit(main())
