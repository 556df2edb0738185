"""Image codec (binary PPM), synthetic paired datasets and montages.

Desk-scale synthetic tasks stand in for full segmentation / depth datasets:
  * shapes: colored geometric shapes on a textured background with an exact
    per-pixel class map (background / interior / border).
  * depth: overlapping shaded rectangles at analytic depths with an exact
    normalized depth map.

Pixel convention: float images live in [-1, 1] and map to bytes via
v255 = round((v + 1) * 127.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, DecodeError, DimensionError
from .models import TASKS

# Fixed rendering palette for class maps (K <= 8).
PALETTE = np.array([
    [40, 40, 56],      # 0: background, dark slate
    [214, 64, 56],     # 1: red
    [245, 221, 83],    # 2: yellow
    [76, 175, 109],    # 3: green
    [66, 110, 214],    # 4: blue
    [177, 86, 196],    # 5: purple
    [240, 140, 55],    # 6: orange
    [230, 230, 230],   # 7: near-white
], dtype=np.float64)


def float_to_byte(img: np.ndarray) -> np.ndarray:
    return np.clip(np.round((np.asarray(img) + 1.0) * 127.5), 0, 255).astype(np.uint8)


def byte_to_float(img: np.ndarray) -> np.ndarray:
    return img.astype(np.float64) / 127.5 - 1.0


def save_image(img: np.ndarray, path) -> None:
    """Write a [-1, 1] float image as binary PPM (P6, maxval 255).

    Accepts [H, W, 3] or [H, W] / [H, W, 1] (grayscale is replicated to RGB).
    Output bytes are platform-independent.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.ndim == 2:
        img = img[:, :, None]
    if img.ndim != 3 or img.shape[2] not in (1, 3):
        raise DimensionError(f"save_image: expected HxWx{{1,3}} image, got {img.shape}")
    if img.shape[2] == 1:
        img = np.repeat(img, 3, axis=2)
    h, w, _ = img.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(float_to_byte(img).tobytes())


def _read_header_token(blob: bytes, pos: int) -> tuple[bytes, int]:
    # Skip whitespace and '#' comment lines, then read one token.
    n = len(blob)
    while pos < n:
        ch = blob[pos:pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            while pos < n and blob[pos:pos + 1] != b"\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and not blob[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise DecodeError(f"malformed PPM header: expected token at byte offset {start}")
    return blob[start:pos], pos


def load_image(path) -> np.ndarray:
    """Read a binary PPM (P6) into a [H, W, 3] float image in [-1, 1]."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise DecodeError(f"cannot read image {path}: {e}") from e
    if not blob.startswith(b"P6"):
        raise DecodeError(f"{path}: not a P6 PPM file (bad magic at byte offset 0)")
    pos = 2
    fields = []
    for _ in range(3):
        tok, pos = _read_header_token(blob, pos)
        if not tok.isdigit():
            raise DecodeError(f"{path}: non-numeric header field {tok!r} at byte offset {pos - len(tok)}")
        fields.append(int(tok))
    w, h, maxval = fields
    if maxval != 255:
        raise DecodeError(f"{path}: unsupported maxval {maxval} (only 255)")
    if w == 0 or h == 0:
        raise DecodeError(f"{path}: empty {w}x{h} image (header ends at byte offset {pos})")
    pos += 1  # single whitespace byte after maxval
    need = w * h * 3
    payload = blob[pos:pos + need]
    if len(payload) < need:
        raise DecodeError(
            f"{path}: truncated payload at byte offset {pos + len(payload)} "
            f"(wanted {need} bytes, got {len(payload)})"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(h, w, 3)
    return byte_to_float(pixels)


def render_class_map(classes: np.ndarray) -> np.ndarray:
    """Render an integer class map to a [-1, 1] RGB image with the fixed palette."""
    classes = np.asarray(classes, dtype=np.int64)
    if classes.max(initial=0) >= len(PALETTE):
        raise DataError(f"class {classes.max()} exceeds the {len(PALETTE)}-color palette")
    return byte_to_float(PALETTE[classes].astype(np.uint8))


@dataclass
class PairedSample:
    """One (input image, target) pair; target is a class map or a float image."""

    input: np.ndarray
    target: np.ndarray


@dataclass
class DatasetManifest:
    root: Path
    task: str
    classes: int
    image_size: int
    pairs: list[tuple[str, str]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# synthetic datasets


def _smooth_background(rng, size: int) -> np.ndarray:
    """Low-frequency color gradient plus mild per-image tint."""
    yy, xx = np.mgrid[0:size, 0:size] / max(size - 1, 1)
    phase = rng.uniform(0, 2 * np.pi, size=3)
    amp = rng.uniform(0.05, 0.15, size=3)
    base = np.array([-0.55, -0.45, -0.25]) + rng.uniform(-0.1, 0.1, size=3)
    img = np.empty((size, size, 3))
    for c in range(3):
        img[:, :, c] = base[c] + amp[c] * np.sin(2 * np.pi * (0.7 * xx + 0.4 * yy) + phase[c])
    return img


def _shape_signed_distance(rng, size: int):
    """Random circle or axis-aligned square: signed distance to its boundary
    (< 0 inside) on the pixel grid, plus a human-readable tag."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    kind = rng.choice(["circle", "square"])
    margin = size // 4
    cy = rng.uniform(margin, size - margin)
    cx = rng.uniform(margin, size - margin)
    r = rng.uniform(size * 0.15, size * 0.3)
    if kind == "circle":
        sd = np.hypot(yy - cy, xx - cx) - r
    else:
        sd = np.maximum(np.abs(yy - cy), np.abs(xx - cx)) - r
    return sd, kind


def synth_segmentation_dataset(n: int, image_size: int = 64, classes: int = 3,
                               seed: int = 0, border: float = 2.0,
                               shapes_per_image: int = 2) -> list[PairedSample]:
    """Colored shapes on textured backgrounds with exact class maps.

    Classes: 0 background, then shape-interior classes, then the last class
    is the border band of half-width ``border`` pixels around each shape
    edge (trimap style for classes=3).
    """
    if classes < 2:
        raise DataError(f"synth_segmentation_dataset: need at least 2 classes, got {classes}")
    rng = np.random.default_rng(seed)
    border_class = classes - 1
    interior_classes = list(range(1, classes - 1)) or [1]
    samples = []
    for _ in range(n):
        img = _smooth_background(rng, image_size)
        target = np.zeros((image_size, image_size), dtype=np.int64)
        for _ in range(shapes_per_image):
            sd, _ = _shape_signed_distance(rng, image_size)
            cls = int(rng.choice(interior_classes))
            fill = byte_to_float(PALETTE[cls]) + rng.uniform(-0.08, 0.08, size=3)
            interior = sd < -border
            band = np.abs(sd) <= border
            img[interior] = fill
            img[band] = [-0.85, -0.85, -0.85]  # dark ink marks every border
            target[interior] = cls
            target[band] = border_class if classes >= 3 else cls
        samples.append(PairedSample(np.clip(img, -1, 1), target))
    return samples


def synth_depth_dataset(n: int, image_size: int = 64, seed: int = 0,
                        rects: int = 3) -> list[PairedSample]:
    """Overlapping shaded rectangles at analytic depths, painter's algorithm.

    Depth target is in [-1, 1]: the far plane is +1 and nearer surfaces are
    smaller; occluded pixels take the nearest surface's depth.
    """
    if image_size < 2:
        raise DataError(f"synth_depth_dataset: need an image size of at least 2, got {image_size}")
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n):
        img = _smooth_background(rng, image_size)
        depth = np.ones((image_size, image_size))  # far plane
        zbuf = np.full((image_size, image_size), np.inf)
        for _ in range(rects):
            z = rng.uniform(0.1, 0.8)
            y0, x0 = rng.integers(0, image_size // 2, size=2)
            hgt = int(rng.integers(image_size // 4, image_size // 2))
            wdt = int(rng.integers(image_size // 4, image_size // 2))
            y1, x1 = min(y0 + hgt, image_size), min(x0 + wdt, image_size)
            region = np.zeros_like(zbuf, dtype=bool)
            region[y0:y1, x0:x1] = True
            visible = region & (z < zbuf)
            zbuf[visible] = z
            shade = 1.0 - z  # nearer is brighter
            color = rng.uniform(-0.3, 0.6, size=3) * shade + (shade - 0.5)
            img[visible] = np.clip(color, -1, 1)
            depth[visible] = 2.0 * z - 1.0
        samples.append(PairedSample(np.clip(img, -1, 1), depth[:, :, None]))
    return samples


def make_synthetic(kind: str, n: int, image_size: int, seed: int, classes: int = 3):
    if kind == "shapes":
        return synth_segmentation_dataset(n, image_size, classes, seed)
    if kind == "depth":
        return synth_depth_dataset(n, image_size, seed)
    raise DataError(f"unknown synthetic dataset kind {kind!r}; expected 'shapes' or 'depth'")


# ---------------------------------------------------------------------------
# montage


def montage(rows: list[list[np.ndarray]], path=None) -> np.ndarray:
    """Assemble tiles into a grid image with white 2-pixel separators.

    ``rows`` is a list of equally long rows of [-1, 1] images of one height
    and width; a 1-channel tile is shown in gray.  Returns the canvas;
    writes a PPM when ``path`` is given.
    """
    if not rows or not rows[0]:
        raise DimensionError("montage: no tiles")
    gap = 2
    h, w = np.shape(rows[0][0])[:2]
    if any(len(row) != len(rows[0]) or np.shape(img)[:2] != (h, w) for row in rows for img in row):
        raise DimensionError("montage: tiles must fill equally long rows and share one size")
    canvas = np.ones((len(rows) * (h + gap) - gap, len(rows[0]) * (w + gap) - gap, 3))
    for r, row in enumerate(rows):
        for i, img in enumerate(row):
            y, x = r * (h + gap), i * (w + gap)
            canvas[y:y + h, x:x + w] = np.reshape(img, (h, w, -1))
    if path is not None:
        save_image(canvas, path)
    return canvas


# ---------------------------------------------------------------------------
# manifest-based external datasets


def read_manifest(path) -> DatasetManifest:
    path = Path(path)
    header: dict[str, str] = {}
    pairs: list[tuple[str, str]] = []
    try:
        with open(path, encoding="utf-8") as f:
            lines = list(f)
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read manifest {path}: {e}") from e
    for line_no, line in enumerate(lines, 1):
        line = line.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if "=" in line and "\t" not in line:
            key, _, val = line.partition("=")
            header[key.strip()] = val.strip()
        else:
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}:{line_no}: expected 'input<TAB>target', got {line!r}")
            pairs.append((parts[0], parts[1]))
    for key in ("task", "classes", "image_size"):
        if key not in header:
            raise DataError(f"{path}: manifest header is missing {key!r}")
    sizes = {}
    for key in ("classes", "image_size"):
        try:
            sizes[key] = int(header[key])
        except ValueError:
            raise DataError(f"{path}: manifest header {key} = {header[key]!r} is not an integer") from None
    if header["task"] not in TASKS:
        raise DataError(f"{path}: manifest header task = {header['task']!r} is not one of {', '.join(TASKS)}")
    if header["task"] == "segmentation" and not 2 <= sizes["classes"] <= len(PALETTE):
        raise DataError(f"{path}: manifest header classes = {sizes['classes']} is not from 2 to "
                        f"the palette's {len(PALETTE)}")
    return DatasetManifest(root=path.parent, task=header["task"], pairs=pairs, **sizes)


def load_manifest_dataset(manifest: DatasetManifest) -> list[PairedSample]:
    """Load image pairs listed in a manifest.

    Segmentation targets are PPMs whose red channel holds the class index;
    regression targets keep all three channels of their PPM.
    """
    samples = []
    for i, (inp_rel, tgt_rel) in enumerate(manifest.pairs):
        inp = load_image(manifest.root / inp_rel)
        tgt_img = load_image(manifest.root / tgt_rel)
        size = (manifest.image_size, manifest.image_size)
        if inp.shape[:2] != size or tgt_img.shape[:2] != size:
            raise DataError(
                f"manifest pair {i}: sizes {inp.shape[:2]} vs {tgt_img.shape[:2]} "
                f"do not match declared {manifest.image_size}"
            )
        if manifest.task == "segmentation":
            classes = np.round((tgt_img[:, :, 0] + 1.0) * 127.5).astype(np.int64)
            if classes.max(initial=0) >= manifest.classes:
                raise DataError(
                    f"manifest pair {i}: class {classes.max()} out of range "
                    f"[0, {manifest.classes})"
                )
            target = classes
        else:
            target = tgt_img
        samples.append(PairedSample(inp, target))
    return samples
