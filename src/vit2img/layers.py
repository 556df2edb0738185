"""Parameter-owning building blocks on top of the tensor ops.

A ``Module`` is a thin registry of named parameter tensors, named buffer
arrays (batch-norm running statistics) and child modules; it exists so that
checkpoints and the optimizer can address every array by a stable dotted
name.  Calling a module runs its ``forward``, which takes the mode where it matters.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from . import tensor as T
from .tensor import Tensor

log = logging.getLogger("vit2img")

# Fixed design constants, recorded in every checkpoint.
LAYER_NORM_EPS = 1e-6
BATCH_NORM_EPS = 1e-5
BATCH_NORM_MOMENTUM = 0.99
LEAKY_SLOPE = 0.2


def xavier_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class Module:
    """Base class giving children / parameters / buffers dotted-name access."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._buffers: dict[str, np.ndarray] = {}
        self._children: dict[str, Module] = {}

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def register_parameter(self, name: str, t: Tensor) -> Tensor:
        t.requires_grad = True
        self._params[name] = t
        return t

    def register_buffer(self, name: str, arr: np.ndarray) -> np.ndarray:
        self._buffers[name] = arr
        return arr

    def add_module(self, name: str, module: "Module") -> "Module":
        self._children[name] = module
        return module

    def named_parameters(self, prefix: str = ""):
        for name, t in self._params.items():
            yield prefix + name, t
        for cname, child in self._children.items():
            yield from child.named_parameters(prefix + cname + ".")

    def named_buffers(self, prefix: str = ""):
        for name, arr in self._buffers.items():
            yield prefix + name, arr
        for cname, child in self._children.items():
            yield from child.named_buffers(prefix + cname + ".")

    def modules(self):
        """This module and all its descendants, depth first."""
        yield self
        for child in self._children.values():
            yield from child.modules()

    def parameters(self):
        return [t for _, t in self.named_parameters()]

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()


class Linear(Module):
    """y = x @ weight + bias, applied to the last axis."""

    def __init__(self, rng, in_dim: int, out_dim: int):
        super().__init__()
        self.weight = self.register_parameter(
            "weight", Tensor(xavier_uniform(rng, (in_dim, out_dim), in_dim, out_dim))
        )
        self.bias = self.register_parameter("bias", Tensor(np.zeros(out_dim)))

    def forward(self, x):
        return T.add(T.matmul(x, self.weight), self.bias)


class LayerNorm(Module):
    def __init__(self, dim: int):
        super().__init__()
        self.gamma = self.register_parameter("gamma", Tensor(np.ones(dim)))
        self.beta = self.register_parameter("beta", Tensor(np.zeros(dim)))

    def forward(self, x):
        return T.layer_norm(x, self.gamma, self.beta, LAYER_NORM_EPS)


class BatchNorm(Module):
    """Per-channel batch norm over NHWC input with EMA running statistics."""

    def __init__(self, channels: int):
        super().__init__()
        # The EMA momentum; refresh_batch_norm_stats varies it while it recalibrates.
        self.momentum = BATCH_NORM_MOMENTUM
        self.gamma = self.register_parameter("gamma", Tensor(np.ones(channels)))
        self.beta = self.register_parameter("beta", Tensor(np.zeros(channels)))
        self.running_mean = self.register_buffer("running_mean", np.zeros(channels))
        self.running_var = self.register_buffer("running_var", np.ones(channels))
        # Scalar step counter, kept as an array so it serializes like a buffer.
        self.batches_tracked = self.register_buffer("batches_tracked", np.zeros(1))
        self._warned = [False]  # a Generator gives all of its batch norms one flag

    def forward(self, x, mode: str):
        if mode == "eval" and self.batches_tracked[0] == 0 and not self._warned[0]:
            log.warning("batch norm evaluated before any training step; using initialized stats (mean 0, var 1)")
            self._warned[0] = True
        out = T.batch_norm(x, self.gamma, self.beta, self.running_mean,
                           self.running_var, mode, BATCH_NORM_EPS, self.momentum)
        if mode == "train":
            self.batches_tracked[0] += 1
        return out


class Conv2d(Module):
    """'Same'-padded convolution with a [K, K, Cin, Cout] kernel."""

    def __init__(self, rng, in_ch: int, out_ch: int, kernel: int, stride: int = 1):
        super().__init__()
        self.stride = stride
        fan_in = kernel * kernel * in_ch
        fan_out = kernel * kernel * out_ch
        self.kernel = self.register_parameter(
            "kernel", Tensor(xavier_uniform(rng, (kernel, kernel, in_ch, out_ch), fan_in, fan_out))
        )
        self.bias = self.register_parameter("bias", Tensor(np.zeros(out_ch)))

    def forward(self, x):
        return T.conv2d(x, self.kernel, self.bias, self.stride)


class ConvTranspose2d(Module):
    """Stride-2 transposed convolution with a [4, 4, Cout, Cin] kernel: it
    doubles the spatial size."""

    def __init__(self, rng, in_ch: int, out_ch: int):
        super().__init__()
        fan_in = 16 * in_ch
        fan_out = 16 * out_ch
        self.kernel = self.register_parameter(
            "kernel", Tensor(xavier_uniform(rng, (4, 4, out_ch, in_ch), fan_in, fan_out))
        )
        self.bias = self.register_parameter("bias", Tensor(np.zeros(out_ch)))

    def forward(self, x):
        return T.conv2d_transpose(x, self.kernel, self.bias, 2)
