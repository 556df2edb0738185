"""Token grid -> image: transpose-convolution upsampling stages with optional
residual blocks, the skip concatenation after a stage, and the output head.

Each upsampling stage doubles the spatial size: transposed convolution
(kernel 4, stride 2, same padding), batch norm, LeakyReLU, then optionally a
residual block at the stage's filter count.  Plain ReLU is used inside
residual blocks; LeakyReLU elsewhere in the decoder.
"""

from __future__ import annotations

import math

from . import tensor as T
from .layers import LEAKY_SLOPE, BatchNorm, Conv2d, ConvTranspose2d, Module
from .tensor import Tensor

DEFAULT_SCHEDULE: tuple[tuple[int, int], ...] = ((512, 512), (256, 256), (64, 64), (32, 32))


def tokens_to_grid(tokens) -> Tensor:
    """Reshape [N, P, D] tokens onto a square [N, side, side, D] grid; P is a
    square because the config's image is square and a multiple of its patch size.

    Row-major, the inverse of the patch ordering used by extract_patches.
    """
    n, p, d = tokens.shape
    side = math.isqrt(p)
    return T.reshape(tokens, (n, side, side, d))


class ResidualBlock(Module):
    """Two 3x3 convs with batch norm; identity shortcut, or a 1x1 projection
    when the channel counts differ.  out = relu(BN(conv(relu(BN(conv(x))))) + shortcut(x))."""

    def __init__(self, rng, in_ch: int, filters: int):
        super().__init__()
        self.conv1 = self.add_module("conv1", Conv2d(rng, in_ch, filters, 3))
        self.bn1 = self.add_module("bn1", BatchNorm(filters))
        self.conv2 = self.add_module("conv2", Conv2d(rng, filters, filters, 3))
        self.bn2 = self.add_module("bn2", BatchNorm(filters))
        self.proj = None
        if in_ch != filters:
            self.proj = self.add_module("proj", Conv2d(rng, in_ch, filters, 1))

    def __call__(self, x, mode: str):
        y = T.relu(self.bn1(self.conv1(x), mode))
        y = self.bn2(self.conv2(y), mode)
        shortcut = self.proj(x) if self.proj is not None else x
        return T.relu(T.add(y, shortcut))


class UpsampleStage(Module):
    """conv2d_transpose(stride 2) -> batch norm -> LeakyReLU [-> residual block]."""

    def __init__(self, rng, in_ch: int, transpose_ch: int, residual_ch: int | None):
        super().__init__()
        self.ct = self.add_module("ct", ConvTranspose2d(rng, in_ch, transpose_ch))
        self.bn = self.add_module("bn", BatchNorm(transpose_ch))
        self.res = None
        if residual_ch is not None:
            self.res = self.add_module("res", ResidualBlock(rng, transpose_ch, residual_ch))
        self.out_channels = residual_ch if residual_ch is not None else transpose_ch

    def __call__(self, x, mode: str):
        y = T.leaky_relu(self.bn(self.ct(x), mode), LEAKY_SLOPE)
        if self.res is not None:
            y = self.res(y, mode)
        return y


def upsample_concat(encoded_grid, prev_activation, projection: Conv2d | None = None) -> Tensor:
    """Bilinearly upsample a skip source (a patch grid, or an encoder output
    already at size) to the previous activation's spatial size, optionally
    1x1-convolve it, and concat on the channel axis.  The activation is never
    smaller than its source, and ``T.bilinear_upsample`` refuses one that is."""
    _, gh, gw, _ = encoded_grid.shape
    _, h, w, _ = prev_activation.shape
    up = encoded_grid if (h, w) == (gh, gw) else T.bilinear_upsample(encoded_grid, h, w)
    if projection is not None:
        up = projection(up)
    return T.concat([prev_activation, up], axis=-1)


class OutputHead(Module):
    """Final 3x3 stride-1 convolution; tanh for image outputs, raw logits for
    segmentation (the loss applies its own softmax)."""

    def __init__(self, rng, in_ch: int, out_channels: int, tanh: bool):
        super().__init__()
        self.tanh = tanh
        self.conv = self.add_module("conv", Conv2d(rng, in_ch, out_channels, 3))

    def __call__(self, x):
        y = self.conv(x)
        return T.tanh(y) if self.tanh else y
