import numpy as np
import pytest

import vit2img.tensor as T
from conftest import check_gradients
from vit2img.decoder import OutputHead, ResidualBlock, UpsampleStage, tokens_to_grid, upsample_concat
from vit2img.errors import DimensionError
from vit2img.layers import Conv2d
from vit2img.tensor import Tensor


# --- tokens_to_grid -----------------------------------------------------------

def test_tokens_to_grid_16_tokens(rng):
    tokens = rng.normal(size=(2, 16, 64))
    grid = tokens_to_grid(tokens)
    assert grid.shape == (2, 4, 4, 64)


def test_tokens_to_grid_single_token(rng):
    grid = tokens_to_grid(rng.normal(size=(1, 1, 8)))
    assert grid.shape == (1, 1, 1, 8)


# --- residual block --------------------------------------------------------------

def test_residual_block_zero_conv_path_is_relu(rng):
    block = ResidualBlock(np.random.default_rng(0), 3, 3)
    for name, p in block.named_parameters():
        if "conv" in name and "kernel" in name:
            p.data = np.zeros_like(p.data)
        if name.endswith("bias"):
            p.data = np.zeros_like(p.data)
    x = rng.normal(size=(2, 4, 4, 3))
    out = block(Tensor(x), "train")
    np.testing.assert_array_equal(out.data, np.maximum(x, 0.0))


def test_residual_block_preserves_shape(rng):
    block = ResidualBlock(np.random.default_rng(1), 64, 64)
    x = rng.normal(size=(1, 8, 8, 64))
    assert block(Tensor(x), "train").shape == (1, 8, 8, 64)
    assert block.proj is None


def test_residual_block_projection_when_channels_differ(rng):
    block = ResidualBlock(np.random.default_rng(2), 4, 6)
    assert block.proj is not None
    x = rng.normal(size=(1, 4, 4, 4))
    assert block(Tensor(x), "train").shape == (1, 4, 4, 6)


def test_residual_block_gradients(rng):
    block = ResidualBlock(np.random.default_rng(3), 2, 2)
    x = rng.normal(size=(2, 3, 3, 2))

    def op(xt):
        return block(xt, "train")

    check_gradients(op, [x], rtol=1e-4)


def test_residual_block_parameter_gradients(rng):
    block = ResidualBlock(np.random.default_rng(4), 2, 3)
    x = rng.normal(size=(2, 3, 3, 2))
    loss = T.mean(T.mul(block(Tensor(x), "train"), 1.0))
    T.backward(loss)
    for name, p in block.named_parameters():
        assert p.grad is not None, name


# --- upsample stage ---------------------------------------------------------------

def test_upsample_stage_shape_512(rng):
    stage = UpsampleStage(np.random.default_rng(0), 64, 512, 512)
    x = rng.normal(size=(1, 4, 4, 64))
    assert stage(Tensor(x), "train").shape == (1, 8, 8, 512)


def test_upsample_chain_4_to_64(rng):
    rng0 = np.random.default_rng(0)
    chans = [(16, 16), (12, 12), (8, 8), (6, 6)]
    stages = []
    in_ch = 8
    for ct, rl in chans:
        stages.append(UpsampleStage(rng0, in_ch, ct, rl))
        in_ch = rl
    act = Tensor(rng.normal(size=(1, 4, 4, 8)))
    sizes = []
    for stage in stages:
        act = stage(act, "eval")
        sizes.append(act.shape[1])
    assert sizes == [8, 16, 32, 64]


def test_upsample_stage_deterministic(rng):
    stage = UpsampleStage(np.random.default_rng(5), 4, 8, 8)
    x = rng.normal(size=(1, 4, 4, 4))
    a = stage(Tensor(x), "eval").data
    b = stage(Tensor(x), "eval").data
    assert a.tobytes() == b.tobytes()


def test_upsample_stage_without_residual(rng):
    stage = UpsampleStage(np.random.default_rng(6), 4, 8, None)
    assert stage.res is None
    x = rng.normal(size=(1, 4, 4, 4))
    assert stage(Tensor(x), "train").shape == (1, 8, 8, 8)


# --- upsample_concat ---------------------------------------------------------------

def test_upsample_concat_same_size_is_pure_concat(rng):
    grid = rng.normal(size=(1, 4, 4, 6))
    prev = rng.normal(size=(1, 4, 4, 10))
    out = upsample_concat(Tensor(grid), Tensor(prev))
    assert out.shape == (1, 4, 4, 16)
    np.testing.assert_array_equal(out.data[..., :10], prev)
    np.testing.assert_array_equal(out.data[..., 10:], grid)


def test_upsample_concat_constant_grid_any_size(rng):
    grid = np.full((1, 4, 4, 3), -0.25)
    prev = rng.normal(size=(1, 16, 16, 5))
    out = upsample_concat(Tensor(grid), Tensor(prev))
    np.testing.assert_array_equal(out.data[..., 5:], np.full((1, 16, 16, 3), -0.25))


def test_upsample_concat_compositional_oracle(rng):
    grid = rng.normal(size=(1, 4, 4, 6))
    prev = rng.normal(size=(1, 8, 8, 32))
    out = upsample_concat(Tensor(grid), Tensor(prev))
    assert out.shape == (1, 8, 8, 38)
    up = T.bilinear_upsample(Tensor(grid), 8, 8)
    separate = T.concat([Tensor(prev), up], axis=-1)
    np.testing.assert_array_equal(out.data, separate.data)


def test_upsample_concat_with_projection(rng):
    proj = Conv2d(np.random.default_rng(0), 6, 2, 1)
    grid = rng.normal(size=(1, 4, 4, 6))
    prev = rng.normal(size=(1, 8, 8, 3))
    out = upsample_concat(Tensor(grid), Tensor(prev), proj)
    assert out.shape == (1, 8, 8, 5)


def test_upsample_concat_target_smaller_error(rng):
    with pytest.raises(DimensionError):
        upsample_concat(Tensor(rng.normal(size=(1, 8, 8, 2))),
                        Tensor(rng.normal(size=(1, 4, 4, 2))))


# --- output head ---------------------------------------------------------------------

def test_output_head_tanh_range(rng):
    head = OutputHead(np.random.default_rng(0), 8, 3, tanh=True)
    x = rng.normal(scale=5, size=(1, 6, 6, 8))
    out = head(Tensor(x))
    assert out.shape == (1, 6, 6, 3)
    assert np.abs(out.data).max() <= 1.0


def test_output_head_logits_unbounded(rng):
    head = OutputHead(np.random.default_rng(1), 8, 3, tanh=False)
    x = rng.normal(scale=20, size=(1, 6, 6, 8))
    out = head(Tensor(x))
    assert np.abs(out.data).max() > 1.0


def test_output_head_zero_weights_tanh_zero_image(rng):
    head = OutputHead(np.random.default_rng(2), 4, 3, tanh=True)
    head.conv.kernel.data = np.zeros_like(head.conv.kernel.data)
    out = head(Tensor(rng.normal(size=(1, 5, 5, 4))))
    np.testing.assert_array_equal(out.data, np.zeros((1, 5, 5, 3)))


# --- stage finiteness -----------------------------------------------------------------

def test_stage_outputs_finite_on_finite_inputs(rng):
    stage = UpsampleStage(np.random.default_rng(7), 4, 8, 8)
    x = rng.normal(scale=100, size=(2, 4, 4, 4))
    for mode in ("train", "eval"):
        out = stage(Tensor(x), mode)
        assert np.isfinite(out.data).all()


def test_batch_norm_eval_before_train_warns(caplog):
    import logging
    from vit2img.layers import BatchNorm
    bn = BatchNorm(3)
    x = Tensor(np.random.default_rng(0).normal(size=(2, 4, 4, 3)))
    with caplog.at_level(logging.WARNING, logger="vit2img"):
        bn(x, "eval")
    assert any("initialized stats" in r.message for r in caplog.records)
    caplog.clear()
    bn(Tensor(np.zeros((2, 4, 4, 3))), "train")
    with caplog.at_level(logging.WARNING, logger="vit2img"):
        bn(x, "eval")
    assert not caplog.records  # silent once trained
