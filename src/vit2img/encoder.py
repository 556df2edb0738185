"""Image -> patches -> embedded tokens -> stacked transformer encoder layers.

The encoder half of the generator: square images are cut into a row-major
grid of patches, each patch is flattened and linearly projected into a token,
learnable 1-D position embeddings are added, and the token sequence runs
through post-norm transformer layers (``LayerNorm(x + F(x))`` after both the
multi-head attention and the feed-forward sublayer).
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .layers import LayerNorm, Linear, Module, xavier_uniform
from .tensor import Tensor


def extract_patches(images, patch_size: int) -> Tensor:
    """Split square [N, H, H, C] images, H a multiple of ``patch_size``, into
    [N, num_patches, patch_len] rows (the config and ``Generator.forward``
    guarantee both).

    Patches are ordered left-to-right then top-to-bottom, and each patch is
    flattened row-major over (h, w, c); tokens_to_grid inverts this exactly.
    """
    n, h, _, c = images.shape
    side = h // patch_size
    x = T.reshape(images, (n, side, patch_size, side, patch_size, c))
    x = T.transpose(x, (0, 1, 3, 2, 4, 5))
    return T.reshape(x, (n, side * side, patch_size * patch_size * c))


class PatchEncoder(Module):
    """Linear projection of flattened patches plus learnable position rows."""

    def __init__(self, rng: np.random.Generator, patch_len: int, num_patches: int, embed_dim: int):
        super().__init__()
        self.projection = self.register_parameter(
            "projection", Tensor(xavier_uniform(rng, (patch_len, embed_dim), patch_len, embed_dim)),
        )
        self.bias = self.register_parameter("bias", Tensor(np.zeros(embed_dim)))
        self.positions = self.register_parameter(
            "positions", Tensor(rng.normal(0.0, 0.02, size=(num_patches, embed_dim))),
        )

    def forward(self, patches):
        """Embed [N, num_patches, patch_len] patches; ``T.matmul`` refuses any other patch length."""
        tokens = T.add(T.matmul(patches, self.projection), self.bias)
        return T.add(tokens, self.positions)


def scaled_dot_product_attention(q, k, v) -> Tensor:
    """Softmax(Q K^T / sqrt(d_k)) V with softmax over the key axis.

    Takes [T, d_k] or batched [..., T, d_k] operands sharing T and d_k, as
    one head's projections of the same tokens always do.
    """
    d_k = q.shape[-1]
    axes = list(range(len(k.shape)))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    scores = T.mul(T.matmul(q, T.transpose(k, axes)), 1.0 / math.sqrt(d_k))
    return T.matmul(T.softmax(scores, axis=-1), v)


class MultiHeadAttention(Module):
    """H identical heads of scaled dot-product attention, concatenated and
    projected by an output matrix."""

    def __init__(self, rng, embed_dim: int, num_heads: int):
        super().__init__()
        self.num_heads = num_heads
        self.d_k = embed_dim // num_heads
        self.w_q: list[Tensor] = []
        self.w_k: list[Tensor] = []
        self.w_v: list[Tensor] = []
        for h in range(num_heads):
            for store, tag in ((self.w_q, "wq"), (self.w_k, "wk"), (self.w_v, "wv")):
                w = Tensor(xavier_uniform(rng, (embed_dim, self.d_k), embed_dim, self.d_k))
                store.append(self.register_parameter(f"heads.{h}.{tag}", w))
        self.w_o = self.register_parameter(
            "wo", Tensor(xavier_uniform(rng, (embed_dim, embed_dim), embed_dim, embed_dim))
        )

    def forward(self, x):
        heads = []
        for h in range(self.num_heads):
            q = T.matmul(x, self.w_q[h])
            k = T.matmul(x, self.w_k[h])
            v = T.matmul(x, self.w_v[h])
            heads.append(scaled_dot_product_attention(q, k, v))
        joined = heads[0] if len(heads) == 1 else T.concat(heads, axis=-1)
        return T.matmul(joined, self.w_o)


class FeedForward(Module):
    """Per-token Linear -> ReLU -> Linear."""

    def __init__(self, rng, embed_dim: int, hidden_dim: int):
        super().__init__()
        self.fc1 = self.add_module("fc1", Linear(rng, embed_dim, hidden_dim))
        self.fc2 = self.add_module("fc2", Linear(rng, hidden_dim, embed_dim))

    def forward(self, x):
        return self.fc2(T.relu(self.fc1(x)))


class TransformerLayer(Module):
    """Post-norm encoder layer: out = LN2(y + FFN(y)), y = LN1(x + MHA(x))."""

    def __init__(self, rng, embed_dim: int, num_heads: int, ffn_width: int):
        super().__init__()
        self.attn = self.add_module("attn", MultiHeadAttention(rng, embed_dim, num_heads))
        self.ln1 = self.add_module("ln1", LayerNorm(embed_dim))
        self.ffn = self.add_module("ffn", FeedForward(rng, embed_dim, ffn_width))
        self.ln2 = self.add_module("ln2", LayerNorm(embed_dim))

    def forward(self, x):
        y = self.ln1(T.add(x, self.attn(x)))
        return self.ln2(T.add(y, self.ffn(y)))
