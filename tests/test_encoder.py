import math

import numpy as np
import pytest

import vit2img.tensor as T
from conftest import check_gradients
from vit2img.encoder import (MultiHeadAttention, PatchEncoder,
                             TransformerLayer, extract_patches,
                             scaled_dot_product_attention)
from vit2img.errors import DimensionError
from vit2img.tensor import Tensor


def attention_oracle(q, k, v):
    """Direct formula evaluation: softmax(q k^T / sqrt(d)) v, per row."""
    d = q.shape[-1]
    scores = q @ k.T / math.sqrt(d)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    return w @ v


# --- patch config and extraction ------------------------------------------------

def test_patch_count_formula():
    for image_size, patch_size, count in ((64, 16, 16), (64, 8, 64), (32, 16, 4), (32, 8, 16)):
        assert extract_patches(np.zeros((1, image_size, image_size, 3)), patch_size).shape[1] == count


def test_extract_patches_64x64():
    imgs = np.zeros((2, 64, 64, 3))
    out = extract_patches(imgs, 16)
    assert out.shape == (2, 16, 768)


def test_extract_whole_image_patch(rng):
    img = rng.normal(size=(1, 16, 16, 3))
    out = extract_patches(img, 16)
    np.testing.assert_array_equal(out.data[0, 0], img.reshape(-1))


def test_extract_patch_ordering_by_enumeration():
    # 4x4 single-channel image holding 0..15; patch size 2.
    img = np.arange(16.0).reshape(1, 4, 4, 1)
    out = extract_patches(img, 2)
    # index-arithmetic oracle: patch (pi, pj), offset (di, dj) ->
    # pixel value (2*pi + di) * 4 + (2*pj + dj)
    expected = np.zeros((4, 4))
    for pi in range(2):
        for pj in range(2):
            for di in range(2):
                for dj in range(2):
                    expected[pi * 2 + pj, di * 2 + dj] = (2 * pi + di) * 4 + (2 * pj + dj)
    np.testing.assert_array_equal(out.data[0], expected)


# --- patch encoding -------------------------------------------------------------

def make_encoder(rng_seed=0, image=8, patch=4, dim=6, channels=1):
    """A patch encoder for image x image x channels inputs; returns it with its
    geometry (num_patches, patch_len)."""
    num_patches, patch_len = (image // patch) ** 2, patch * patch * channels
    enc = PatchEncoder(np.random.default_rng(rng_seed), patch_len, num_patches, dim)
    return enc, (num_patches, patch_len)


def test_encode_zero_patches_gives_positions():
    enc, (num_patches, patch_len) = make_encoder()
    patches = np.zeros((3, num_patches, patch_len))
    out = enc(patches)
    for n in range(3):
        np.testing.assert_array_equal(out.data[n], enc.positions.data)


def test_encode_identity_projection_preserves_patches(rng):
    enc, (num_patches, patch_len) = make_encoder(image=4, patch=2, dim=4, channels=1)
    enc.projection.data = np.eye(4)
    enc.positions.data = np.zeros_like(enc.positions.data)
    patches = rng.normal(size=(2, num_patches, 4))
    out = enc(patches)
    np.testing.assert_array_equal(out.data, patches)


def test_encode_matches_per_token_oracle(rng):
    enc, (num_patches, patch_len) = make_encoder(rng_seed=3)
    patches = rng.normal(size=(2, num_patches, patch_len))
    out = enc(patches)
    for n in range(2):
        for i in range(num_patches):
            expected = patches[n, i] @ enc.projection.data + enc.bias.data + enc.positions.data[i]
            np.testing.assert_allclose(out.data[n, i], expected, atol=1e-12)


def test_encode_patch_length_mismatch():
    enc, (num_patches, patch_len) = make_encoder()
    with pytest.raises(DimensionError):
        enc(np.zeros((1, num_patches, patch_len + 1)))


# --- scaled dot-product attention ------------------------------------------------

def test_attention_single_token_returns_v(rng):
    q = rng.normal(size=(1, 4))
    k = rng.normal(size=(1, 4))
    v = rng.normal(size=(1, 4))
    out = scaled_dot_product_attention(Tensor(q), Tensor(k), Tensor(v))
    np.testing.assert_array_equal(out.data, v)


def test_attention_zero_query_gives_column_mean(rng):
    k = rng.normal(size=(5, 3))
    v = rng.normal(size=(5, 3))
    out = scaled_dot_product_attention(Tensor(np.zeros((2, 3))), Tensor(k), Tensor(v))
    np.testing.assert_allclose(out.data, np.tile(v.mean(axis=0), (2, 1)), atol=1e-12)


def test_attention_two_token_hand_case():
    q = np.array([[1.0, 0.5], [-0.25, 2.0]])
    k = np.array([[0.75, -1.0], [0.5, 0.25]])
    v = np.array([[2.0, -3.0], [0.125, 4.0]])
    out = scaled_dot_product_attention(Tensor(q), Tensor(k), Tensor(v))
    np.testing.assert_allclose(out.data, attention_oracle(q, k, v), atol=1e-12)


def test_attention_rows_sum_to_one(rng):
    # weights recovered by attending over identity values
    q = rng.normal(size=(4, 4))
    k = rng.normal(size=(4, 4))
    weights = scaled_dot_product_attention(Tensor(q), Tensor(k), Tensor(np.eye(4))).data
    np.testing.assert_allclose(weights.sum(axis=-1), np.ones(4), rtol=0, atol=1e-12)


def test_attention_gradients(rng):
    q = rng.normal(size=(3, 2))
    k = rng.normal(size=(3, 2))
    v = rng.normal(size=(3, 2))
    check_gradients(scaled_dot_product_attention, [q, k, v], rtol=1e-5)


# --- multi-head attention ---------------------------------------------------------

def test_mha_single_head_identity_collapses(rng):
    mha = MultiHeadAttention(np.random.default_rng(0), 4, 1)
    mha.w_q[0].data = np.eye(4)
    mha.w_k[0].data = np.eye(4)
    mha.w_v[0].data = np.eye(4)
    mha.w_o.data = np.eye(4)
    x = rng.normal(size=(5, 4))
    out = mha(Tensor(x))
    expected = scaled_dot_product_attention(Tensor(x), Tensor(x), Tensor(x))
    np.testing.assert_allclose(out.data, expected.data, atol=1e-12)


def test_mha_zeroed_second_head_uses_top_block(rng):
    mha = MultiHeadAttention(np.random.default_rng(1), 6, 2)
    mha.w_v[1].data = np.zeros_like(mha.w_v[1].data)
    x = rng.normal(size=(4, 6))
    out = mha(Tensor(x))
    # block-structure oracle: only head 1 through the top d_k rows of w_o
    q = x @ mha.w_q[0].data
    k = x @ mha.w_k[0].data
    v = x @ mha.w_v[0].data
    head1 = attention_oracle(q, k, v)
    np.testing.assert_allclose(out.data, head1 @ mha.w_o.data[:3], atol=1e-12)


def test_mha_head_permutation_with_wo_blocks(rng):
    seed_rng = np.random.default_rng(2)
    mha = MultiHeadAttention(seed_rng, 6, 2)
    x = rng.normal(size=(5, 6))
    base = mha(Tensor(x)).data
    # swap the heads together with w_o's row blocks
    mha.w_q[0], mha.w_q[1] = mha.w_q[1], mha.w_q[0]
    mha.w_k[0], mha.w_k[1] = mha.w_k[1], mha.w_k[0]
    mha.w_v[0], mha.w_v[1] = mha.w_v[1], mha.w_v[0]
    wo = mha.w_o.data.copy()
    mha.w_o.data = np.concatenate([wo[3:], wo[:3]], axis=0)
    np.testing.assert_allclose(mha(Tensor(x)).data, base, atol=1e-12)


def test_mha_permutation_equivariance(rng):
    # no positional information inside MHA itself
    mha = MultiHeadAttention(np.random.default_rng(3), 4, 2)
    x = rng.normal(size=(4, 4))
    perm = np.array([2, 0, 3, 1])
    out = mha(Tensor(x)).data
    out_perm = mha(Tensor(x[perm])).data
    np.testing.assert_allclose(out_perm, out[perm], atol=1e-12)


def test_positions_break_permutation_symmetry(rng):
    enc, (num_patches, patch_len) = make_encoder(rng_seed=5)
    patches = rng.normal(size=(1, num_patches, patch_len))
    perm = np.arange(num_patches)[::-1].copy()
    out = enc(patches).data
    out_perm = enc(patches[:, perm]).data
    assert not np.allclose(out_perm, out[:, perm])


# --- transformer layer -------------------------------------------------------------

def test_transformer_layer_shape_preserved(rng):
    layer = TransformerLayer(np.random.default_rng(0), 64, 2, 32)
    x = rng.normal(size=(2, 16, 64))
    assert layer(Tensor(x)).shape == (2, 16, 64)


def test_transformer_layer_zero_weights_double_layernorm(rng):
    layer = TransformerLayer(np.random.default_rng(0), 8, 2, 4)
    for _, p in layer.attn.named_parameters():
        p.data = np.zeros_like(p.data)
    for _, p in layer.ffn.named_parameters():
        p.data = np.zeros_like(p.data)
    x = rng.normal(size=(1, 3, 8))
    out = layer(Tensor(x))
    ln = lambda a: T.layer_norm(Tensor(a), Tensor(np.ones(8)), Tensor(np.zeros(8))).data
    np.testing.assert_allclose(out.data, ln(ln(x)), atol=1e-12)


def test_transformer_layer_gradients(rng):
    layer = TransformerLayer(np.random.default_rng(4), 6, 2, 4)
    x = rng.normal(size=(1, 3, 6))

    def op(xt):
        return layer(xt)

    check_gradients(op, [x], rtol=1e-4)
