"""Generator assembly: one encoder -> stage loop -> head design for the
ViT variants A/B/C and the U-Net and Autoencoder baselines, and bit-exact
checkpoint persistence.

The encoder is one of two kinds:
  A/B/C: patches -> patch encoder -> transformer layers -> token grid.
  unet/autoencoder: (conv, batch norm, LeakyReLU) rungs of stride 2 down to
     4x4, then a stride-1 bottleneck rung; so the image size is 4 * 2^k.
Then each upsampling stage runs in turn; after stage i, its skip, if it has
one, is concatenated on channels.  Last comes the output head.
  A: transpose-convolution stages, no skips.
  B: A's stages; every stage's skip is the encoded patch grid, bilinearly
     upsampled to the stage output's size (optionally 1x1-convolved).
  C: each transpose-convolution stage is followed by a residual block.
  unet: stage i < n-1 takes the output of encoder rung n-2-i, which has its
     size (after Ronneberger et al. 2015, arXiv 1505.04597).
  autoencoder: the U-Net without skips.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from math import log2, prod
from typing import Optional

import numpy as np

from . import tensor as T
from .decoder import DEFAULT_SCHEDULE, OutputHead, UpsampleStage, tokens_to_grid, upsample_concat
from .encoder import PatchEncoder, TransformerLayer, extract_patches
from .errors import (CheckpointError, CheckpointFormatError, CheckpointMismatchError,
                     CheckpointVersionError, ConfigError, DimensionError)
from .layers import (BATCH_NORM_EPS, BATCH_NORM_MOMENTUM, LAYER_NORM_EPS,
                     LEAKY_SLOPE, BatchNorm, Conv2d, Module)
from .tensor import Tensor

_VIT_VARIANTS = ("A", "B", "C")  # patch encoder and transformer layers
VARIANTS = (*_VIT_VARIANTS, "unet", "autoencoder")
TASKS = ("segmentation", "regression")

DESIGN_CONSTANTS = {
    "layer_norm_eps": LAYER_NORM_EPS,
    "batch_norm_eps": BATCH_NORM_EPS,
    "batch_norm_momentum": BATCH_NORM_MOMENTUM,
    "leaky_relu_slope": LEAKY_SLOPE,
    "weight_init": "xavier_uniform; position embeddings normal(0, 0.02)",
    "padding": "same: out = ceil(in/stride), extra zero row/col on bottom/right",
}


# The fields only A/B/C read; a baseline must leave each at its default.
VIT_FIELDS = ("patch_size", "embed_dim", "num_heads", "ffn_width", "num_transformer_layers", "decoder_schedule")
# Twice ViT-Huge's 32.  A layer adds a dozen arrays but may draw only 6 elements, so a
# load's file-size budget alone would let a small file's header build many layers.
MAX_TRANSFORMER_LAYERS = 64


@dataclass(frozen=True)
class ModelConfig:
    """Everything needed to rebuild a generator bit-for-bit, checked as it is made (and as
    it is ``dataclasses.replace``d); A/B/C default to their patch size's decoder schedule."""

    variant: str = "C"
    image_size: int = 64
    patch_size: int = 16
    embed_dim: int = 64
    num_heads: int = 2
    ffn_width: int = 32
    num_transformer_layers: int = 4
    decoder_schedule: Optional[tuple[tuple[int, int], ...]] = None
    out_channels: int = 3
    in_channels: int = 3
    task: str = "segmentation"
    skip_projection_channels: Optional[int] = None  # variant B: 1x1-conv skips to this width
    seed: int = 0

    def __post_init__(self) -> None:
        for key, known in (("variant", VARIANTS), ("task", TASKS)):
            if getattr(self, key) not in known:
                raise ConfigError(f"unknown {key} {getattr(self, key)!r}; expected one of {known}")
        schedule = self.decoder_schedule
        if schedule is not None:
            if not isinstance(schedule, (list, tuple)) \
                    or not all(isinstance(s, (list, tuple)) and len(s) == 2 for s in schedule):
                raise ConfigError(f"decoder_schedule must be (transpose, residual) channel pairs, "
                                  f"got {schedule!r}")
            object.__setattr__(self, "decoder_schedule", tuple(tuple(s) for s in schedule))
        # The least value of each integer field; None leaves an optional one unset.
        least = {"image_size": 1, "patch_size": 1, "embed_dim": 1, "num_heads": 1, "ffn_width": 1,
                 "num_transformer_layers": 0, "out_channels": 1, "in_channels": 1,
                 "skip_projection_channels": 1, "seed": 0}
        checks = [(name, getattr(self, name), low) for name, low in least.items()]
        checks += [(f"decoder_schedule[{i}]", ch, 1)
                   for i, pair in enumerate(self.decoder_schedule or ()) for ch in pair]
        for name, value, low in checks:
            if (type(value) is not int or value < low) \
                    and not (name == "skip_projection_channels" and value is None):
                raise ConfigError(f"{name} must be an integer of at least {low}, got {value!r}")
        if self.num_transformer_layers > MAX_TRANSFORMER_LAYERS:
            raise ConfigError(f"num_transformer_layers must be at most {MAX_TRANSFORMER_LAYERS}, "
                              f"got {self.num_transformer_layers}")
        if self.variant in _VIT_VARIANTS:
            if self.image_size % self.patch_size != 0:
                raise ConfigError(f"image size {self.image_size} is not divisible by "
                                  f"patch size {self.patch_size}")
            if self.embed_dim % self.num_heads != 0:
                raise ConfigError(f"embed_dim {self.embed_dim} is not divisible by "
                                  f"num_heads {self.num_heads}")
            stages = log2(self.patch_size)
            if self.decoder_schedule is None:
                if stages != int(stages) or not (1 <= stages <= len(DEFAULT_SCHEDULE)):
                    raise ConfigError(f"no default decoder schedule for patch size "
                                      f"{self.patch_size}; pass one explicitly")
                object.__setattr__(self, "decoder_schedule", DEFAULT_SCHEDULE[-int(stages):])
            elif 2 ** len(self.decoder_schedule) != self.patch_size:
                raise ConfigError(f"decoder schedule of {len(self.decoder_schedule)} stages upsamples "
                                  f"{2 ** len(self.decoder_schedule)}x but patch size {self.patch_size} "
                                  f"requires patch_size-fold upsampling to restore the image size")
        elif self.image_size < 8 or log2(self.image_size) % 1:
            raise ConfigError(f"baseline models need an image size of 4 * 2^k, got {self.image_size}")
        elif vit_set := [f.name for f in fields(self)
                         if f.name in VIT_FIELDS and getattr(self, f.name) != f.default]:
            raise ConfigError(f"variant {self.variant} reads no ViT setting, but {', '.join(vit_set)} "
                              f"differ from the defaults")
        if self.skip_projection_channels is not None and self.variant != "B":
            raise ConfigError("skip_projection_channels applies to variant B only")


class Generator(Module):
    """A built model: an encoder, one loop of upsampling stages, each
    followed by its skip concatenation if it has one, and the output head.

    Initial values come from ``rng.uniform`` and ``rng.normal``, by default
    of ``np.random.default_rng(config.seed)``."""

    def __init__(self, config: ModelConfig, rng=None):
        super().__init__()
        cfg = self.config = config
        rng = np.random.default_rng(cfg.seed) if rng is None else rng
        # Stage i's skip: (index into the encoder's skip sources, optional 1x1 conv).
        self.skips: dict[int, tuple[int, Optional[Conv2d]]] = {}
        if cfg.variant in _VIT_VARIANTS:
            patch = PatchEncoder(rng, cfg.patch_size ** 2 * cfg.in_channels,
                                 (cfg.image_size // cfg.patch_size) ** 2, cfg.embed_dim)
            self.patch = self.add_module("encoder.patch", patch)
            self.layers = [self.add_module(f"encoder.layers.{i}",
                                           TransformerLayer(rng, cfg.embed_dim, cfg.num_heads, cfg.ffn_width))
                           for i in range(cfg.num_transformer_layers)]
            n, in_ch, prefix = len(cfg.decoder_schedule), cfg.embed_dim, "decoder.stages"
            schedule = [(ct_ch, rl_ch if cfg.variant == "C" else None) for ct_ch, rl_ch in cfg.decoder_schedule]
            skip_ch = [cfg.skip_projection_channels or cfg.embed_dim if cfg.variant == "B" else 0] * n
        else:
            # Stride-2 (conv, batch norm) rungs down to 4x4; a last, stride-1 rung is the bottleneck.
            n, in_ch, prefix = int(log2(cfg.image_size // 4)), cfg.in_channels, "dec"
            ladder = [min(64 * 2 ** i, 512) for i in range(n)]
            self.layers = []
            for i, ch in enumerate([*ladder, ladder[-1]]):
                name, stride = (f"enc.{i}", 2) if i < n else ("bottleneck", 1)
                conv = self.add_module(f"{name}.conv", Conv2d(rng, in_ch, ch, 3, stride=stride))
                self.layers.append((conv, self.add_module(f"{name}.bn", BatchNorm(ch))))
                in_ch = ch
            schedule = [(ladder[n - 1 - i] // 2, None) for i in range(n)]
            skip_ch = [0] * n
            if cfg.variant == "unet":  # the rung whose output matches stage i's size
                self.skips = {i: (n - 2 - i, None) for i in range(n - 1)}
                skip_ch = [ladder[n - 2 - i] for i in range(n - 1)] + [0]
        self.stages: list[UpsampleStage] = []
        for i, (ct_ch, rl_ch) in enumerate(schedule):
            self.stages.append(self.add_module(f"{prefix}.{i}", UpsampleStage(rng, in_ch, ct_ch, rl_ch)))
            in_ch = self.stages[-1].out_channels + skip_ch[i]
        if cfg.variant == "B":  # the patch grid after every stage; its convs draw after the stages'
            for i in range(n):
                conv = None
                if cfg.skip_projection_channels is not None:
                    conv = self.add_module(f"decoder.skips.{i}.conv",
                                           Conv2d(rng, cfg.embed_dim, cfg.skip_projection_channels, 1))
                self.skips[i] = (0, conv)
        self.head = self.add_module("head", OutputHead(rng, in_ch, cfg.out_channels, cfg.task == "regression"))

    def forward(self, images, mode: str = "eval") -> Tensor:
        """Run the model; output spatial size equals input spatial size."""
        images = T.as_tensor(images)
        if images.data.ndim != 4:
            raise DimensionError(f"forward: expected NHWC images, got {images.shape}")
        n, h, w, c = images.shape
        cfg = self.config
        if h != cfg.image_size or w != cfg.image_size or c != cfg.in_channels:
            raise DimensionError(
                f"forward: input {h}x{w}x{c} does not match configured "
                f"{cfg.image_size}x{cfg.image_size}x{cfg.in_channels}"
            )
        if cfg.variant in _VIT_VARIANTS:
            encoded = self.patch(extract_patches(images, cfg.patch_size))
            act = encoded
            for layer in self.layers:
                act = layer(act)
            act = tokens_to_grid(act)
            sources = [tokens_to_grid(encoded)] if self.skips else []
        else:
            act, sources = images, []
            for conv, bn in self.layers:
                act = T.leaky_relu(bn(conv(act), mode), LEAKY_SLOPE)
                sources.append(act)
        for i, stage in enumerate(self.stages):
            act = stage(act, mode)
            if i in self.skips:
                source, conv = self.skips[i]
                act = upsample_concat(sources[source], act, conv)
        return self.head(act)

    __call__ = forward

    # -- introspection ------------------------------------------------------

    def shape_manifest(self) -> dict[str, tuple[int, ...]]:
        """Parameter name -> shape, a pure function of the config."""
        return {name: p.shape for name, p in self.named_parameters()}


class _NoDraws:
    """An initial-value source that draws nothing: each array it gives is
    unfilled, for ``load_checkpoint`` to replace with the file's.  A drawn
    element needs 8 of the ``budget`` bytes the file has left, so a draw
    past them is refused before anything is allocated."""

    def __init__(self, budget: float = float("inf")):
        self.budget = budget

    def uniform(self, low, high, size):
        self.budget -= 8 * prod(size)
        if self.budget < 0:
            raise ValueError("the model needs more bytes than the file has left")
        return np.empty(size)
    normal = uniform  # (loc, scale, size)


def build_generator(config: ModelConfig) -> Generator:
    """Build any variant (A, B, C) or baseline from its config."""
    return Generator(config)


# ---------------------------------------------------------------------------
# checkpoints
#
# Little-endian binary layout (documented in README):
#   magic   4 bytes  "V2IG"
#   version u32      currently 1
#   header  u32 length, then UTF-8 JSON {config, constants, seed}
#   count   u32      number of array records
#   record  u16 name length, name bytes, u8 kind (0 param / 1 buffer /
#           2 optimizer), u8 ndim, ndim * u32 dims, float64 payload
#   crc32   u32      over every preceding byte
#
# A load reads the file once, front to back.  It builds the model from the
# header's config without drawing initial values, then reads each parameter
# and buffer payload straight into the model's own float64 array (native
# order, which is the layout's on a little-endian host) once the payload's
# declared size fits the bytes the file has left and its name, kind and
# shape match the model; optimizer payloads are kept only when the state is
# asked for.  So a load holds about one file's worth of what it returns.
# A name read twice or not in the model is refused, as are a model array that
# no record fills and bytes between the last record and the CRC.  The CRC
# folds over the same bytes as they arrive and is checked before anything is
# returned.  Any other fault is reported only once the rest of the file has
# passed through the CRC and it has matched.  A header whose model needs more
# bytes than the file has left is refused as it is built.
# Parameter and buffer values must be finite.

CHECKPOINT_MAGIC = b"V2IG"
CHECKPOINT_VERSION = 1

KIND_PARAM, KIND_BUFFER, KIND_OPT = 0, 1, 2


def _named_arrays(gen: Generator):
    """(name, kind, array) for each parameter, then each buffer, of ``gen``."""
    for name, p in gen.named_parameters():
        yield name, KIND_PARAM, p.data
    for name, arr in gen.named_buffers():
        yield name, KIND_BUFFER, arr


class _RunningCrc:
    """zlib.crc32 folded over buffers in the order given, on one worker thread.

    zlib releases the GIL for buffers above 5 KiB, so the CRC of one buffer
    runs beside the file I/O of the next.  Buffers under ``TASK_BYTES`` are
    gathered into one task, so that each task outweighs its hand-off.
    Leaving the ``with`` block joins the thread on every path.  A buffer
    must not change once passed.
    """

    TASK_BYTES = 1 << 16

    def __init__(self):
        self._pool = ThreadPoolExecutor(max_workers=1)
        self._folds = []
        self._small = bytearray()
        self._crc = 0

    def _fold(self, buf) -> None:
        self._crc = zlib.crc32(buf, self._crc)

    def _submit(self, buf):
        self._folds.append(self._pool.submit(self._fold, buf))
        return self._folds[-1]

    def _flush(self) -> None:
        if self._small:
            self._submit(self._small)
            self._small = bytearray()

    def update(self, buf):
        """Fold ``buf`` in; returns the fold that reads ``buf``, or None once it is copied."""
        view = memoryview(buf)
        if view.nbytes >= self.TASK_BYTES:
            self._flush()
            return self._submit(buf)
        self._small += view
        if len(self._small) >= self.TASK_BYTES:
            self._flush()

    def value(self) -> int:
        self._flush()
        self._pool.shutdown()
        for fold in self._folds:
            fold.result()  # re-raises a fold that failed
        return self._crc

    def __enter__(self) -> "_RunningCrc":
        return self

    def __exit__(self, *exc) -> None:
        self._pool.shutdown(cancel_futures=True)


def _pack_record(name: str, kind: int, arr: np.ndarray) -> tuple[bytes, np.ndarray]:
    """A record's head (name, kind, shape) and its float64 payload."""
    nb = name.encode("utf-8")
    head = b"".join([struct.pack("<H", len(nb)), nb, struct.pack("<BB", kind, arr.ndim),
                     struct.pack(f"<{arr.ndim}I", *arr.shape)])
    return head, np.ascontiguousarray(arr, dtype="<f8")


def save_checkpoint(gen: Generator, path, optimizer_state: Optional[dict] = None) -> None:
    """Write the generator (and optionally Adam state) to ``path``.

    The records stream into ``<path>.tmp``, which then replaces ``path`` in
    one rename, so a failed save leaves any earlier file at ``path`` intact.
    """
    header = json.dumps({
        "config": vars(gen.config),
        "constants": DESIGN_CONSTANTS,
        "seed": gen.config.seed,
    }, sort_keys=True).encode("utf-8")
    records = list(_named_arrays(gen))
    if optimizer_state is not None:
        records.append(("adam.t", KIND_OPT, np.array([float(optimizer_state["t"])])))
        for name, (m, v) in optimizer_state["moments"].items():
            records.append((f"adam.m.{name}", KIND_OPT, m))
            records.append((f"adam.v.{name}", KIND_OPT, v))
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as f, _RunningCrc() as crc:

            def write(chunk) -> None:
                crc.update(chunk)
                f.write(chunk)

            write(b"".join([CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(header)),
                            header, struct.pack("<I", len(records))]))
            for record in records:
                for chunk in _pack_record(*record):
                    write(chunk)
            f.write(struct.pack("<I", crc.value()))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


class _Reader:
    """Reads a checkpoint body in order, each read checked against the body's
    size and its bytes passed on to the running CRC."""

    def __init__(self, f, size: int, crc: _RunningCrc):
        self.f, self.size, self.crc = f, size, crc
        self.pos = 0
        self.spare: list = []  # skip's buffers, each with the fold that last read it

    def claim(self, n: int) -> None:
        if self.pos + n > self.size:
            raise CheckpointFormatError(
                f"checkpoint truncated: wanted {n} bytes at offset {self.pos}, file has {self.size}"
            )
        self.pos += n

    def fill(self, buf):
        """Read ``buf``'s bytes into it; the caller has claimed them.
        Returns what ``crc.update`` does."""
        n = memoryview(buf).nbytes
        if self.f.readinto(buf) != n:
            raise CheckpointFormatError(f"checkpoint truncated: file ends inside {n} bytes")
        return self.crc.update(buf)

    def skip(self, n: int) -> None:
        """Pass ``n`` claimed bytes to the CRC, keeping none: two 1 MiB buffers alternate,
        one filling while the worker folds the other, each refilled once its fold is done."""
        while n:
            buf, fold = self.spare.pop(0) if len(self.spare) == 2 else (memoryview(bytearray(1 << 20)), None)
            if fold is not None:
                fold.result()
            k = min(n, len(buf))
            self.spare.append((buf, self.fill(buf[:k])))
            n -= k

    def take(self, n: int) -> bytearray:
        self.claim(n)
        buf = bytearray(n)
        self.fill(buf)
        return buf

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _parse(r: _Reader, path, with_state: bool) -> tuple[Generator, dict[str, np.ndarray]]:
    """The header's model, every parameter and buffer read into it, and, with ``with_state``,
    the optimizer records (else they only pass through the CRC)."""
    r.take(4)
    (version,) = r.unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {version} unsupported (expected {CHECKPOINT_VERSION})"
        )
    try:
        config = json.loads(str(r.take(r.unpack("<I")[0]), "utf-8"))["config"]
        gen = Generator(ModelConfig(**config), rng=_NoDraws(r.size - r.pos))  # TypeError unless config is an object
    except (ValueError, KeyError, TypeError, MemoryError, OverflowError) as e:
        # ValueError: bad UTF-8 or JSON, a ConfigError, a model larger than the file or than numpy allows
        raise CheckpointFormatError(f"{path}: malformed header: {type(e).__name__}: {e}") from e
    unread = {name: (kind, arr) for name, kind, arr in _named_arrays(gen)}
    optimizer: dict[str, np.ndarray] = {}
    for _ in range(r.unpack("<I")[0]):
        try:
            name = str(r.take(r.unpack("<H")[0]), "utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointFormatError(f"{path}: record name is not UTF-8 at offset {r.pos}") from e
        kind, ndim = r.unpack("<BB")
        shape = r.unpack(f"<{ndim}I")
        r.claim(8 * prod(shape))
        if kind == KIND_OPT:
            if with_state:
                optimizer[name] = np.empty(shape)
                r.fill(optimizer[name])
            else:
                r.skip(8 * prod(shape))
            continue
        expected, arr = unread.pop(name, (None, None))
        if kind != expected:
            raise CheckpointMismatchError(f"{path}: record {name} (kind {kind}) is not an unread "
                                          f"parameter or buffer of the model its config builds")
        if arr.shape != shape:
            raise CheckpointMismatchError(
                f"{path}: stored {name} has shape {shape}, model expects {arr.shape}"
            )
        r.fill(arr)
    if r.pos != r.size:  # the failure path still passes these bytes through the CRC
        raise CheckpointFormatError(f"{path}: {r.size - r.pos} bytes after the last record")
    if unread:
        raise CheckpointMismatchError(f"{path}: no record for {sorted(unread)[:4]} of the model "
                                      f"its config builds")
    return gen, optimizer


def load_checkpoint(path, with_state: bool = False):
    """Rebuild a Generator from a checkpoint file.

    With ``with_state`` the saved Adam state (or None) is returned alongside
    the generator.
    """
    try:
        with open(path, "rb") as f, _RunningCrc() as crc:
            size = os.fstat(f.fileno()).st_size
            if f.read(4) != CHECKPOINT_MAGIC:
                raise CheckpointFormatError(f"{path}: bad magic bytes, not a checkpoint")
            f.seek(-4, os.SEEK_END)
            (stored_crc,) = struct.unpack("<I", f.read(4))
            f.seek(0)
            reader = _Reader(f, size - 4, crc)
            try:
                gen, optimizer = _parse(reader, path, with_state)
            except CheckpointError:
                reader.skip(size - 4 - f.tell())  # a CRC mismatch outranks what the parse found
                if crc.value() != stored_crc:
                    raise CheckpointFormatError(f"{path}: CRC mismatch, file is corrupt") from None
                raise
            # Scanned while the worker finishes the CRC, by min and max (which
            # NaN and infinities reach) so that no array-sized temporary is made.
            non_finite = next((name for name, _, arr in _named_arrays(gen)
                               if not np.isfinite([arr.min(initial=0.0), arr.max(initial=0.0)]).all()),
                              None)
            if crc.value() != stored_crc:
                raise CheckpointFormatError(f"{path}: CRC mismatch, file is corrupt")
    except OSError as e:
        raise CheckpointFormatError(f"cannot read checkpoint {path}: {e}") from e
    if non_finite is not None:
        raise CheckpointFormatError(f"{path}: record {non_finite} holds a non-finite value")
    if not with_state:
        return gen
    if "adam.t" not in optimizer:
        return gen, None
    moments = {name: (optimizer[f"adam.m.{name}"], optimizer[f"adam.v.{name}"])
               for name, _ in gen.named_parameters()
               if f"adam.m.{name}" in optimizer and f"adam.v.{name}" in optimizer}
    return gen, {"t": int(optimizer["adam.t"][0]), "moments": moments}
