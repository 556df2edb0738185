import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vit2img.tensor as T
from conftest import check_gradients, closure_arrays
from vit2img.errors import ContractError, DimensionError
from vit2img.tensor import Tensor


# --- independent oracles -----------------------------------------------------

def conv2d_oracle(x, w, b, stride):
    """Naive quadruple-loop 'same'-padded cross-correlation, NHWC / [K,K,Cin,Cout]."""
    n, h, wd, cin = x.shape
    k, _, _, cout = w.shape
    ho, wo = math.ceil(h / stride), math.ceil(wd / stride)
    tot_h = max((ho - 1) * stride + k - h, 0)
    tot_w = max((wo - 1) * stride + k - wd, 0)
    pt, pl = tot_h // 2, tot_w // 2
    out = np.zeros((n, ho, wo, cout))
    for b_ in range(n):
        for i in range(ho):
            for j in range(wo):
                for co in range(cout):
                    acc = 0.0
                    for ki in range(k):
                        for kj in range(k):
                            yi, xj = i * stride + ki - pt, j * stride + kj - pl
                            if 0 <= yi < h and 0 <= xj < wd:
                                for ci in range(cin):
                                    acc += x[b_, yi, xj, ci] * w[ki, kj, ci, co]
                    out[b_, i, j, co] = acc + (b[co] if b is not None else 0.0)
    return out


def conv2d_transpose_oracle(x, w, b, stride):
    """Naive scatter-accumulate transposed conv, kernel [K,K,Cout,Cin]."""
    n, h, wd, cin = x.shape
    k, _, cout, _ = w.shape
    ho, wo = h * stride, wd * stride
    tot = k - stride
    pt = max((math.ceil(ho / stride) - 1) * stride + k - ho, 0) // 2
    pl = pt
    opad = np.zeros((n, ho + tot, wo + tot, cout))
    for b_ in range(n):
        for i in range(h):
            for j in range(wd):
                for ki in range(k):
                    for kj in range(k):
                        for co in range(cout):
                            for ci in range(cin):
                                opad[b_, i * stride + ki, j * stride + kj, co] += \
                                    x[b_, i, j, ci] * w[ki, kj, co, ci]
    out = opad[:, pt:pt + ho, pl:pl + wo, :]
    if b is not None:
        out = out + b
    return out


# --- matmul -------------------------------------------------------------------

def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(T.matmul(a, b).data, [[1, 2], [3, 4]])


def test_matmul_by_hand():
    out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    np.testing.assert_array_equal(out.data, [[11.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_matmul_gradient(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    check_gradients(T.matmul, [a, b], rtol=1e-6)


def test_matmul_batched_gradient(rng):
    a = rng.normal(size=(2, 3, 4))
    b = rng.normal(size=(4, 5))
    check_gradients(T.matmul, [a, b], rtol=1e-6)


# --- softmax ------------------------------------------------------------------

def test_softmax_uniform():
    out = T.softmax(Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3] * 3, rtol=0, atol=1e-15)


def test_softmax_large_inputs_stabilized():
    out = T.softmax(Tensor([1000.0, 1000.0]))
    np.testing.assert_array_equal(out.data, [0.5, 0.5])


def test_softmax_oracle_values():
    # Frozen from a 60-digit evaluation of exp(x_i)/sum(exp(x)).
    expected = [0.0900305731703804579980221,
                0.2447284710547976524729596,
                0.6652409557748218895290183]
    out = T.softmax(Tensor([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(out.data, expected, rtol=1e-15)
    # direct exp/sum oracle on random input
    x = np.random.default_rng(7).normal(size=(4, 5))
    direct = np.exp(x) / np.exp(x).sum(axis=1, keepdims=True)
    np.testing.assert_allclose(T.softmax(Tensor(x), axis=1).data, direct, atol=1e-12)


def test_softmax_rows_sum_to_one(rng):
    x = rng.normal(scale=10, size=(6, 9))
    out = T.softmax(Tensor(x), axis=-1)
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(6), rtol=0, atol=1e-12)
    assert (out.data > 0).all()


def test_softmax_gradient(rng):
    check_gradients(lambda x: T.softmax(x, axis=-1), [rng.normal(size=(3, 4))], rtol=1e-5)


# --- layer norm -----------------------------------------------------------------

def test_layer_norm_constant_row_is_zero():
    out = T.layer_norm(Tensor([[5.0, 5.0, 5.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
    np.testing.assert_allclose(out.data, np.zeros((1, 3)), atol=1e-12)


def test_layer_norm_symmetric_pair():
    out = T.layer_norm(Tensor([1.0, 3.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=0.0)
    np.testing.assert_array_equal(out.data, [-1.0, 1.0])


def test_layer_norm_gradients(rng):
    x = rng.normal(size=(2, 5))
    gamma = rng.normal(size=5)
    beta = rng.normal(size=5)
    check_gradients(T.layer_norm, [x, gamma, beta], rtol=1e-5)


def test_layer_norm_shape_error():
    with pytest.raises(DimensionError):
        T.layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(3)))


# --- batch norm -----------------------------------------------------------------

def test_batch_norm_normalizes_batch_stats(rng):
    x = rng.normal(loc=7.0, scale=2.0, size=(8, 4, 4, 3))
    rm, rv = np.zeros(3), np.ones(3)
    out = T.batch_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), rm, rv, "train")
    np.testing.assert_allclose(out.data.mean(axis=(0, 1, 2)), np.zeros(3), atol=1e-10)
    np.testing.assert_allclose(out.data.var(axis=(0, 1, 2)), np.ones(3), rtol=1e-3)


def test_batch_norm_affine_on_normalized_input(rng):
    x = rng.normal(size=(16, 2, 2, 2))
    x = (x - x.mean(axis=(0, 1, 2))) / x.std(axis=(0, 1, 2))
    rm, rv = np.zeros(2), np.ones(2)
    out = T.batch_norm(Tensor(x), Tensor(2 * np.ones(2)), Tensor(np.ones(2)), rm, rv, "train")
    xhat = (x - x.mean(axis=(0, 1, 2))) / np.sqrt(x.var(axis=(0, 1, 2)) + 1e-5)
    np.testing.assert_allclose(out.data, 2 * xhat + 1, atol=1e-12)


def test_batch_norm_running_stats_ema(rng):
    # Hand-tracked EMA over two batches, momentum 0.99.
    b1 = rng.normal(loc=1.0, size=(4, 2, 2, 3))
    b2 = rng.normal(loc=-2.0, size=(4, 2, 2, 3))
    rm, rv = np.zeros(3), np.ones(3)
    g, b = Tensor(np.ones(3)), Tensor(np.zeros(3))
    T.batch_norm(Tensor(b1), g, b, rm, rv, "train")
    T.batch_norm(Tensor(b2), g, b, rm, rv, "train")
    em, ev = np.zeros(3), np.ones(3)
    for batch in (b1, b2):
        em = 0.99 * em + 0.01 * batch.mean(axis=(0, 1, 2))
        ev = 0.99 * ev + 0.01 * batch.var(axis=(0, 1, 2))
    np.testing.assert_allclose(rm, em, rtol=0, atol=1e-12)
    np.testing.assert_allclose(rv, ev, rtol=0, atol=1e-12)


def test_batch_norm_eval_uses_running_stats(rng):
    x = rng.normal(size=(2, 2, 2, 3))
    rm = np.array([1.0, 2.0, 3.0])
    rv = np.array([4.0, 4.0, 4.0])
    out = T.batch_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), rm, rv, "eval")
    np.testing.assert_allclose(out.data, (x - rm) / np.sqrt(rv + 1e-5), atol=1e-14)


def test_batch_norm_train_gradient(rng):
    x = rng.normal(size=(3, 2, 2, 2))
    gamma = rng.normal(size=2)
    beta = rng.normal(size=2)

    def op(xt, gt, bt):
        return T.batch_norm(xt, gt, bt, np.zeros(2), np.ones(2), "train")

    check_gradients(op, [x, gamma, beta], rtol=1e-4)


def test_batch_norm_eval_gradient(rng):
    x = rng.normal(size=(3, 2, 2, 2))
    gamma = rng.normal(size=2)
    beta = rng.normal(size=2)
    rm, rv = np.array([0.3, -1.2]), np.array([0.5, 2.5])

    def op(xt, gt, bt):
        return T.batch_norm(xt, gt, bt, rm, rv, "eval")

    check_gradients(op, [x, gamma, beta], rtol=1e-4)


# --- normalization oracles: the composite graphs the one fused kernel replaced ----

def composite_layer_norm(x, gamma, beta, eps=1e-6):
    """Layer norm as a graph of elementwise ops and means."""
    mu = T.mean(x, axis=-1, keepdims=True)
    centered = T.sub(x, mu)
    var = T.mean(T.mul(centered, centered), axis=-1, keepdims=True)
    inv = T.power(T.add(var, eps), -0.5)
    return T.add(T.mul(T.mul(centered, inv), gamma), beta)


def composite_batch_norm_train(x, gamma, beta, running_mean, running_var,
                               eps=1e-5, momentum=0.99):
    """Train-mode batch norm as a graph of elementwise ops and means."""
    axes = tuple(range(x.data.ndim - 1))
    c = x.shape[-1]
    mu = T.mean(x, axis=axes, keepdims=True)
    centered = T.sub(x, mu)
    var = T.mean(T.mul(centered, centered), axis=axes, keepdims=True)
    running_mean *= momentum
    running_mean += (1.0 - momentum) * mu.data.reshape(c)
    running_var *= momentum
    running_var += (1.0 - momentum) * var.data.reshape(c)
    inv = T.power(T.add(var, eps), -0.5)
    return T.add(T.mul(T.mul(centered, inv), gamma), beta)


def composite_batch_norm_eval(x, gamma, beta, running_mean, running_var, eps=1e-5):
    """Eval-mode batch norm as a graph of elementwise ops on the running stats."""
    inv = 1.0 / np.sqrt(running_var + eps)
    return T.add(T.mul(T.mul(T.sub(x, Tensor(running_mean)), Tensor(inv)), gamma), beta)


def run_with_probe(fn, probe, *arrays):
    """fn's output and the grads of sum(fn(...) * probe) w.r.t. ``arrays``."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*tensors)
    T.backward(T.sum_(T.mul(out, Tensor(probe))))
    return out.data, [t.grad for t in tensors]


@pytest.mark.parametrize("shape", [(3,), (2, 5), (4, 16, 64)])
def test_layer_norm_matches_composite(rng, shape):
    x = rng.normal(loc=0.5, scale=3.0, size=shape)
    gamma = rng.normal(size=shape[-1])
    beta = rng.normal(size=shape[-1])
    probe = rng.normal(size=shape)
    fused_out, fused_grads = run_with_probe(T.layer_norm, probe, x, gamma, beta)
    want_out, want_grads = run_with_probe(composite_layer_norm, probe, x, gamma, beta)
    np.testing.assert_array_equal(fused_out, want_out)
    for got, want in zip(fused_grads, want_grads):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", [(3, 2, 2, 2), (4, 5, 3, 6), (7, 4)])
def test_batch_norm_eval_matches_composite(rng, shape):
    x = rng.normal(loc=0.5, scale=3.0, size=shape)
    gamma = rng.normal(size=shape[-1])
    beta = rng.normal(size=shape[-1])
    rm, rv = rng.normal(size=shape[-1]), rng.uniform(0.1, 4.0, size=shape[-1])
    probe = rng.normal(size=shape)
    fused = run_with_probe(lambda *a: T.batch_norm(*a, rm, rv, "eval"), probe, x, gamma, beta)
    want = run_with_probe(lambda *a: composite_batch_norm_eval(*a, rm, rv), probe, x, gamma, beta)
    for got, expected in zip([fused[0], *fused[1]], [want[0], *want[1]]):
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", [(3, 2, 2, 2), (4, 5, 3, 6), (7, 4)])
def test_batch_norm_train_matches_composite(rng, shape):
    x = rng.normal(loc=0.5, scale=3.0, size=shape)
    gamma = rng.normal(size=shape[-1])
    beta = rng.normal(size=shape[-1])
    probe = rng.normal(size=shape)
    results = []
    for fn in (lambda *args: T.batch_norm(*args, "train"), composite_batch_norm_train):
        xt, gt, bt = (Tensor(a, requires_grad=True) for a in (x, gamma, beta))
        rm, rv = np.full(shape[-1], 0.25), np.full(shape[-1], 2.0)
        out = fn(xt, gt, bt, rm, rv)
        T.backward(T.sum_(T.mul(out, Tensor(probe))))
        results.append((out.data, rm, rv, xt.grad, gt.grad, bt.grad))
    fused, composite = results
    for got, want in zip(fused[:3], composite[:3]):
        np.testing.assert_array_equal(got, want)
    for got, want in zip(fused[3:], composite[3:]):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("norm", [
    T.layer_norm,
    lambda x, g, b: T.batch_norm(x, g, b, np.zeros(4), np.ones(4), "train"),
    lambda x, g, b: T.batch_norm(x, g, b, np.zeros(4), np.ones(4), "eval"),
], ids=["layer_norm", "batch_norm_train", "batch_norm_eval"])
def test_normalization_is_one_tape_node(rng, norm):
    x = Tensor(rng.normal(size=(2, 3, 3, 4)), requires_grad=True)
    gamma, beta = Tensor(np.ones(4), requires_grad=True), Tensor(np.zeros(4), requires_grad=True)
    out = norm(x, gamma, beta)
    assert out._node.parents == (x, gamma, beta)


# --- conv2d ---------------------------------------------------------------------

def test_conv2d_1x1_identity(rng):
    x = rng.normal(size=(1, 4, 4, 1))
    w = np.ones((1, 1, 1, 1))
    out = T.conv2d(Tensor(x), Tensor(w), None, 1)
    np.testing.assert_array_equal(out.data, x)


def test_conv2d_box_kernel_interior():
    c = 3.7
    x = np.full((1, 5, 5, 1), c)
    w = np.ones((3, 3, 1, 1))
    out = T.conv2d(Tensor(x), Tensor(w), None, 1)
    np.testing.assert_allclose(out.data[0, 2, 2, 0], 9 * c, rtol=1e-15)


@pytest.mark.parametrize("stride", [1, 2], ids=["1-same", "2-same"])
def test_conv2d_matches_naive_oracle(rng, stride):
    x = rng.normal(size=(1, 5, 5, 2))
    w = rng.normal(size=(3, 3, 2, 4))
    b = rng.normal(size=4)
    out = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride)
    np.testing.assert_allclose(out.data, conv2d_oracle(x, w, b, stride), atol=1e-12)


def test_conv2d_same_output_size_is_ceil():
    x = Tensor(np.zeros((1, 7, 7, 1)))
    w = Tensor(np.zeros((3, 3, 1, 2)))
    assert T.conv2d(x, w, None, 2).shape == (1, 4, 4, 2)


def test_conv2d_gradients(rng):
    x = rng.normal(size=(2, 5, 5, 2))
    w = rng.normal(size=(3, 3, 2, 3))
    b = rng.normal(size=3)
    check_gradients(lambda xt, wt, bt: T.conv2d(xt, wt, bt, 2), [x, w, b])


def conv2d_explicit_cols_grads(x, w, b, g, stride):
    """dx, dW, db of conv2d from an im2col matrix built here, step by step.

    The GEMMs and the scatter order over (ki, kj) are those of an im2col
    convolution that keeps its patch matrix, so the results are bit-equal.
    """
    n, h, wd, cin = x.shape
    k, _, _, cout = w.shape
    ho, wo = g.shape[1:3]
    pt = max((ho - 1) * stride + k - h, 0) // 2
    pl = max((wo - 1) * stride + k - wd, 0) // 2
    pb = max((ho - 1) * stride + k - h, 0) - pt
    pr = max((wo - 1) * stride + k - wd, 0) - pl
    xpad = np.zeros((n, h + pt + pb, wd + pl + pr, cin))
    xpad[:, pt:pt + h, pl:pl + wd, :] = x
    cols = np.empty((n, ho, wo, k, k, cin))
    for i in range(ho):
        for j in range(wo):
            cols[:, i, j] = xpad[:, i * stride:i * stride + k, j * stride:j * stride + k, :]
    cols = cols.reshape(n * ho * wo, k * k * cin)
    g2 = g.reshape(n * ho * wo, cout)
    dw = (cols.T @ g2).reshape(w.shape)
    dcols = (g2 @ w.reshape(k * k * cin, cout).T).reshape(n, ho, wo, k, k, cin)
    dxpad = np.zeros(xpad.shape)
    for ki in range(k):
        for kj in range(k):
            dxpad[:, ki:ki + ho * stride:stride, kj:kj + wo * stride:stride, :] += dcols[:, :, :, ki, kj, :]
    return dxpad[:, pt:pt + h, pl:pl + wd, :], dw, g2.sum(axis=0)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("stride", [1, 2], ids=["1-same", "2-same"])
def test_conv2d_gradients_match_explicit_cols(rng, stride, k):
    x = rng.normal(size=(2, 7, 6, 3))
    w = rng.normal(size=(k, k, 3, 4))
    b = rng.normal(size=4)
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    out = T.conv2d(xt, wt, bt, stride)
    g = rng.normal(size=out.shape)
    T.backward(T.sum_(T.mul(out, Tensor(g))))
    dx, dw, db = conv2d_explicit_cols_grads(x, w, b, g, stride)
    np.testing.assert_array_equal(xt.grad, dx)
    np.testing.assert_array_equal(wt.grad, dw)
    np.testing.assert_array_equal(bt.grad, db)


def conv2d_transpose_explicit_cols(x, w, b, g, stride):
    """out, dx, dW, db of conv2d_transpose from matrices built here, step by step.

    Forward: one GEMM to [N, H, W, K, K, Cout] patch values, scatter-added over
    (ki, kj) onto the padded output, then cropped.  Backward: pad g, copy its
    strided patches into a matrix, and one GEMM each for dx and dW.
    """
    n, h, wd, cin = x.shape
    k, _, cout, _ = w.shape
    ho, wo = h * stride, wd * stride
    pt, pl = (k - stride) // 2, (k - stride) // 2
    pb, pr = k - stride - pt, k - stride - pl
    x2 = x.reshape(n * h * wd, cin)
    w2 = w.reshape(k * k * cout, cin)
    cols = (x2 @ w2.T).reshape(n, h, wd, k, k, cout)
    opad = np.zeros((n, ho + pt + pb, wo + pl + pr, cout))
    for ki in range(k):
        for kj in range(k):
            opad[:, ki:ki + h * stride:stride, kj:kj + wd * stride:stride, :] += cols[:, :, :, ki, kj, :]
    out = opad[:, pt:pt + ho, pl:pl + wo, :] + b
    gpad = np.zeros(opad.shape)
    gpad[:, pt:pt + ho, pl:pl + wo, :] = g
    gcols = np.empty((n, h, wd, k, k, cout))
    for i in range(h):
        for j in range(wd):
            gcols[:, i, j] = gpad[:, i * stride:i * stride + k, j * stride:j * stride + k, :]
    gcols = gcols.reshape(n * h * wd, k * k * cout)
    dx = (gcols @ w2).reshape(x.shape)
    dw = (gcols.T @ x2).reshape(w.shape)
    return out, dx, dw, g.reshape(-1, cout).sum(axis=0)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_conv2d_transpose_gradients_match_explicit_cols(rng, k):
    x = rng.normal(size=(2, 5, 4, 3))
    w = rng.normal(size=(k, k, 4, 3))
    b = rng.normal(size=4)
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    out = T.conv2d_transpose(xt, wt, bt, 2)
    g = rng.normal(size=out.shape)
    T.backward(T.sum_(T.mul(out, Tensor(g))))
    want = conv2d_transpose_explicit_cols(x, w, b, g, 2)
    for got, expected in zip((out.data, xt.grad, wt.grad, bt.grad), want):
        np.testing.assert_array_equal(got, expected)


def shifted_path(ho, wo, k):
    """conv2d's rule for the stride-1 shifted-GEMM path: at most 10% of the
    padded grid's rows are computed and cropped away."""
    return (ho + k - 1) * (wo + k - 1) <= 1.1 * ho * wo


def assert_rel_close(got, want, rel=1e-12):
    np.testing.assert_allclose(got, want, rtol=0, atol=rel * np.abs(want).max())


@pytest.mark.parametrize("k,size", [
    pytest.param(k, size, id=f"k{k}-{size[0]}x{size[1]}-same")
    for k, size in [(2, (48, 48)), (2, (47, 45)), (3, (48, 48)), (3, (47, 45)), (4, (68, 68)), (4, (67, 69))]
])
def test_conv2d_shifted_path_matches_explicit_cols(rng, monkeypatch, k, size):
    def no_im2col(*args):
        raise AssertionError("a shifted-path shape reached im2col")

    monkeypatch.setattr(T, "_im2col", no_im2col)
    x = rng.normal(size=(2, *size, 2))
    w = rng.normal(size=(k, k, 2, 3))
    b = rng.normal(size=3)
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    out = T.conv2d(xt, wt, bt, 1)
    assert shifted_path(*out.shape[1:3], k)
    # The forward oracle: the same patches as explicit columns, one einsum.
    top = (k - 1) // 2
    bottom = k - 1 - top
    xpad = np.pad(x, ((0, 0), (top, bottom), (top, bottom), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(xpad, (k, k), axis=(1, 2))
    assert_rel_close(out.data, np.einsum("nhwcij,ijco->nhwo", windows, w) + b)
    g = rng.normal(size=out.shape)
    T.backward(T.sum_(T.mul(out, Tensor(g))))
    for got, want in zip((xt.grad, wt.grad, bt.grad), conv2d_explicit_cols_grads(x, w, b, g, 1)):
        assert_rel_close(got, want)


@pytest.mark.parametrize("stride,k,size,shifted", [
    (1, 3, (7, 6), False), (1, 3, (48, 48), True), (2, 4, (8, 10), False),
], ids=["stride1-im2col", "stride1-shifted", "stride2"])
def test_conv2d_is_adjoint_of_conv2d_transpose(rng, stride, k, size, shifted):
    # <conv2d(x, W), y> = <x, conv2d_transpose(y, W)>: a [K, K, Cin, Cout]
    # conv2d kernel is the [K, K, Cout', Cin'] kernel of its transpose.
    x = rng.normal(size=(2, *size, 3))
    w = rng.normal(size=(k, k, 3, 4))
    ho, wo = -(-size[0] // stride), -(-size[1] // stride)
    assert (stride == 1 and shifted_path(ho, wo, k)) == shifted
    y = rng.normal(size=(2, ho, wo, 4))
    lhs = np.vdot(T.conv2d(Tensor(x), Tensor(w), None, stride).data, y)
    rhs = np.vdot(x, T.conv2d_transpose(Tensor(y), Tensor(w), None, stride).data)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def assert_adjoint(lhs, rhs, scale):
    """<A x, y> = <x, A* y> to 1e-12 of ||A x|| ||y||, which bounds both sides."""
    assert abs(lhs - rhs) <= 1e-12 * scale, (lhs, rhs)


def pairings(op, inputs, seed):
    """<op(xs), y> for a random y, each <x_i, backward(y)_i>, and ||op(xs)|| ||y||."""
    ts = [Tensor(a, requires_grad=True) for a in inputs]
    out = op(*ts)
    y = np.random.default_rng(seed).normal(size=out.shape)
    inner = [np.vdot(t.data, adj) for t, adj in zip(ts, out._backward(y))]
    return np.vdot(out.data, y), inner, np.linalg.norm(out.data) * np.linalg.norm(y)


SEEDS = st.integers(0, 2**32 - 1)
# conv2d output sizes on both sides of the shifted rule for k = 2, 3 and 4.
SIDES = st.one_of(st.integers(1, 12), st.integers(60, 72))


@settings(deadline=None)
@given(k=st.integers(2, 4), stride=st.integers(1, 2), ho=SIDES, wo=SIDES,
       cin=st.integers(1, 3), cout=st.integers(1, 3), seed=SEEDS)
@example(k=4, stride=1, ho=66, wo=70, cin=2, cout=3, seed=0)
@example(k=2, stride=1, ho=24, wo=22, cin=1, cout=2, seed=1)
def test_conv2d_transpose_is_adjoint_of_conv2d(k, stride, ho, wo, cin, cout, seed):
    # Forward ops only: conv2d against conv2d_transpose with the same array, on
    # inputs stride times the output, the sizes conv2d_transpose maps back to.
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(1, ho * stride, wo * stride, cin))
    w = rng.normal(size=(k, k, cin, cout))
    ax = T.conv2d(Tensor(x), Tensor(w), None, stride).data
    y = rng.normal(size=ax.shape)
    aty = T.conv2d_transpose(Tensor(y), Tensor(w), None, stride).data
    assert_adjoint(np.vdot(ax, y), np.vdot(x, aty), np.linalg.norm(ax) * np.linalg.norm(y))


@settings(deadline=None)
@given(n=st.integers(1, 2), h=st.integers(1, 6), wd=st.integers(1, 6), c=st.integers(1, 3),
       grow_h=st.integers(0, 9), grow_w=st.integers(0, 9), seed=SEEDS)
def test_bilinear_upsample_backward_is_its_adjoint(n, h, wd, c, grow_h, grow_w, seed):
    x = np.random.default_rng(seed).normal(size=(n, h, wd, c))
    lhs, (rhs,), scale = pairings(lambda t: T.bilinear_upsample(t, h + grow_h, wd + grow_w), [x], seed + 1)
    assert_adjoint(lhs, rhs, scale)


@settings(deadline=None)
@given(shape=st.lists(st.integers(1, 4), min_size=1, max_size=4), data=st.data(), seed=SEEDS)
def test_transpose_backward_is_its_adjoint(shape, data, seed):
    axes = data.draw(st.permutations(range(len(shape))))
    x = np.random.default_rng(seed).normal(size=shape)
    lhs, (rhs,), scale = pairings(lambda t: T.transpose(t, axes), [x], seed + 1)
    assert_adjoint(lhs, rhs, scale)


@settings(deadline=None)
@given(shape=st.lists(st.integers(1, 4), min_size=1, max_size=3), data=st.data(), seed=SEEDS)
def test_concat_backward_is_its_adjoint(shape, data, seed):
    axis = data.draw(st.integers(-len(shape), len(shape) - 1))
    lengths = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    rng = np.random.default_rng(seed)
    xs = [rng.normal(size=[m if i == axis % len(shape) else d for i, d in enumerate(shape)])
          for m in lengths]
    lhs, inner, scale = pairings(lambda *ts: T.concat(ts, axis), xs, seed + 1)
    assert_adjoint(lhs, sum(inner), scale)  # linear in all inputs together


@settings(deadline=None)
@given(m=st.integers(1, 4), inner=st.integers(1, 4), p=st.integers(1, 4),
       batch=st.sampled_from([((), ()), ((3,), ()), ((2, 3), (3,)), ((1,), (2,))]), seed=SEEDS)
def test_matmul_backward_is_its_adjoint_in_each_argument(m, inner, p, batch, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(*batch[0], m, inner))
    b = rng.normal(size=(*batch[1], inner, p))
    lhs, (in_a, in_b), scale = pairings(T.matmul, [a, b], seed + 1)
    assert_adjoint(lhs, in_a, scale)  # linear in a for a fixed b
    assert_adjoint(lhs, in_b, scale)  # and in b for a fixed a


@pytest.mark.parametrize("op,stride,shape", [
    (T.conv2d, 1, (2, 9, 9, 4)), (T.conv2d, 2, (2, 9, 9, 4)), (T.conv2d, 1, (1, 48, 48, 4)),
    (T.conv2d_transpose, 2, (2, 9, 9, 4)),
], ids=["1-same", "2-same", "1-same-shifted", "transpose-2-same"])
def test_conv2d_backward_keeps_no_patch_matrix(rng, op, stride, shape):
    n, h, wd, c = shape
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    # The same input and output channels: conv2d_transpose's kernel is [K, K, Cout, Cin].
    kernel = (3, 3, 4, 5) if op is T.conv2d else (3, 3, 5, 4)
    w = Tensor(rng.normal(size=kernel), requires_grad=True)
    # conv2d_transpose pads as the 'same' conv2d it is the adjoint of.
    out = op(x, w, Tensor(np.zeros(5)), stride)
    xpad_bytes = n * (h + 2) * (wd + 2) * c * 8
    limit = max(xpad_bytes, out.data.nbytes)
    arrays = closure_arrays(out._backward)
    assert arrays  # the walk does reach the input and kernel
    for a in arrays:
        while isinstance(a.base, np.ndarray):
            a = a.base
        assert a.nbytes <= limit, f"backward keeps a {a.shape} array ({a.nbytes} bytes > {limit})"


# --- conv2d_transpose -------------------------------------------------------------

def test_conv2d_transpose_single_pixel_scatter():
    v = 2.5
    x = np.full((1, 1, 1, 1), v)
    k = np.arange(4.0).reshape(2, 2, 1, 1)
    out = T.conv2d_transpose(Tensor(x), Tensor(k), None, 2)
    np.testing.assert_allclose(out.data[0, :, :, 0], v * k[:, :, 0, 0], rtol=1e-15)


def test_conv2d_transpose_doubles_spatial(rng):
    x = rng.normal(size=(1, 8, 8, 3))
    w = rng.normal(size=(4, 4, 5, 3))
    assert T.conv2d_transpose(Tensor(x), Tensor(w), None, 2).shape == (1, 16, 16, 5)


@pytest.mark.parametrize("k,h", [(4, 3), (3, 4), (2, 5)])
def test_conv2d_transpose_matches_scatter_oracle(rng, k, h):
    x = rng.normal(size=(2, h, h, 2))
    w = rng.normal(size=(k, k, 3, 2))
    b = rng.normal(size=3)
    out = T.conv2d_transpose(Tensor(x), Tensor(w), Tensor(b), 2)
    np.testing.assert_allclose(out.data, conv2d_transpose_oracle(x, w, b, 2), atol=1e-12)


def test_conv2d_transpose_gradients(rng):
    x = rng.normal(size=(1, 3, 3, 2))
    w = rng.normal(size=(4, 4, 3, 2))
    b = rng.normal(size=3)
    check_gradients(lambda xt, wt, bt: T.conv2d_transpose(xt, wt, bt, 2), [x, w, b])


# --- bilinear upsample -------------------------------------------------------------

def test_bilinear_constant_image_exact():
    x = np.full((1, 3, 3, 2), 0.7311)
    out = T.bilinear_upsample(Tensor(x), 7, 9)
    assert out.shape == (1, 7, 9, 2)
    np.testing.assert_array_equal(out.data, np.full((1, 7, 9, 2), 0.7311))


def test_bilinear_single_pixel_broadcasts():
    x = np.array([[[[3.25]]]])
    out = T.bilinear_upsample(Tensor(x), 5, 4)
    np.testing.assert_array_equal(out.data, np.full((1, 5, 4, 1), 3.25))


def test_bilinear_2x2_to_4x4_hand_weights(rng):
    x = rng.normal(size=(1, 2, 2, 1))
    out = T.bilinear_upsample(Tensor(x), 4, 4)
    # independent per-pixel evaluation of align-corners-false interpolation
    expected = np.zeros((4, 4))
    for oy in range(4):
        for ox in range(4):
            sy = max((oy + 0.5) * 0.5 - 0.5, 0.0)
            sx = max((ox + 0.5) * 0.5 - 0.5, 0.0)
            y0, x0 = min(int(sy), 1), min(int(sx), 1)
            y1, x1 = min(y0 + 1, 1), min(x0 + 1, 1)
            fy, fx = sy - y0, sx - x0
            top = x[0, y0, x0, 0] * (1 - fx) + x[0, y0, x1, 0] * fx
            bot = x[0, y1, x0, 0] * (1 - fx) + x[0, y1, x1, 0] * fx
            expected[oy, ox] = top * (1 - fy) + bot * fy
    np.testing.assert_allclose(out.data[0, :, :, 0], expected, atol=1e-14)


def test_bilinear_rejects_downsample_and_zero():
    with pytest.raises(DimensionError):
        T.bilinear_upsample(Tensor(np.zeros((1, 4, 4, 1))), 2, 8)
    with pytest.raises(DimensionError):
        T.bilinear_upsample(Tensor(np.zeros((1, 4, 4, 1))), 0, 8)


def test_bilinear_gradient(rng):
    x = rng.normal(size=(1, 3, 4, 2))
    check_gradients(lambda xt: T.bilinear_upsample(xt, 6, 5), [x], rtol=1e-6)


# --- activations ---------------------------------------------------------------

def test_relu_values():
    np.testing.assert_array_equal(T.relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])


def test_leaky_relu_values():
    np.testing.assert_allclose(T.leaky_relu(Tensor([-1.0]), 0.2).data, [-0.2], rtol=1e-15)


def test_tanh_zero():
    assert T.tanh(Tensor([0.0])).data[0] == 0.0


def test_activation_gradients(rng):
    x = rng.normal(size=(4, 3)) + 0.05  # keep away from relu kink
    check_gradients(T.relu, [x])
    check_gradients(lambda t: T.leaky_relu(t, 0.2), [x])
    check_gradients(T.tanh, [x], rtol=1e-6)


@pytest.mark.parametrize("op", ["relu", "leaky_relu"])
def test_activation_backward_keeps_only_a_bool_mask(rng, op):
    x = rng.normal(size=(3, 4, 5))
    x[0] = 0.0
    x[1, 0] = -0.0
    g = rng.normal(size=x.shape)
    g[2, 0] = 0.0
    g[2, 1] = -0.0
    out = T.relu(Tensor(x, requires_grad=True)) if op == "relu" else \
        T.leaky_relu(Tensor(x, requires_grad=True), 0.2)
    (mask,) = closure_arrays(out._backward)
    assert mask.dtype == np.bool_ and mask.shape == x.shape
    # Bit for bit, signed zeros included, the formulas that kept the input.
    if op == "relu":
        want_out, want_dx = np.maximum(x, 0.0), g * (x > 0.0)
    else:
        want_out, want_dx = np.where(x > 0.0, x, 0.2 * x), g * np.where(x > 0.0, 1.0, 0.2)
    (dx,) = out._backward(g)
    assert out.data.tobytes() == want_out.tobytes()
    assert dx.tobytes() == want_dx.tobytes()


# --- concat ----------------------------------------------------------------------

def test_concat_single_tensor():
    x = np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(T.concat([Tensor(x)], axis=0).data, x)


def test_concat_last_axis():
    out = T.concat([Tensor([1.0, 2.0]), Tensor([3.0])], axis=-1)
    np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])


def test_concat_mismatch_error():
    with pytest.raises(DimensionError):
        T.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))], axis=1)


def test_concat_gradient_splits(rng):
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(2, 2))
    check_gradients(lambda x, y: T.concat([x, y], axis=1), [a, b], rtol=1e-6)


# --- backward / tape ---------------------------------------------------------------

def test_backward_identity():
    x = Tensor(np.array(3.0), requires_grad=True)
    T.backward(x)
    np.testing.assert_array_equal(x.grad, np.array(1.0))


def test_backward_sum_of_scaled():
    x = Tensor(np.arange(4.0), requires_grad=True)
    loss = T.sum_(T.mul(x, 2.0))
    T.backward(loss)
    np.testing.assert_array_equal(x.grad, 2 * np.ones(4))


def test_backward_accumulates_without_reset():
    x = Tensor(np.ones(3), requires_grad=True)
    loss = T.sum_(T.mul(x, x))
    T.backward(loss)
    first = x.grad.copy()
    T.backward(loss)
    np.testing.assert_array_equal(x.grad, 2 * first)


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractError):
        T.backward(T.mul(x, 2.0))


def test_backward_shared_subexpression(rng):
    # x used on two paths; adjoints must add, not overwrite.
    x = rng.normal(size=(3,))

    def op(t):
        return T.add(T.mul(t, t), T.mul(t, 3.0))

    check_gradients(op, [x], rtol=1e-6)


def test_no_grad_blocks_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        y = T.mul(x, 2.0)
    assert y._node is None


def test_forward_determinism(rng):
    x = rng.normal(size=(2, 8, 8, 3))
    w = rng.normal(size=(3, 3, 3, 4))
    a = T.conv2d(Tensor(x), Tensor(w), None, 1).data
    b = T.conv2d(Tensor(x), Tensor(w), None, 1).data
    assert a.tobytes() == b.tobytes()


def test_debug_checks_flag_nan():
    T.debug_checks = True
    try:
        with np.errstate(invalid="ignore"):
            with pytest.raises(T.NumericDebugError):
                T.log(Tensor([-1.0]))
        T.relu(Tensor([1.0, -3.0]))  # finite results pass
    finally:
        T.debug_checks = False


def test_div_and_power_gradients(rng):
    a = rng.normal(size=(3,)) + 3.0
    b = rng.normal(size=(3,)) + 3.0
    check_gradients(T.div, [a, b], rtol=1e-6)
    check_gradients(lambda t: T.power(t, -0.5), [a], rtol=1e-6)
    check_gradients(T.sqrt, [a], rtol=1e-6)
    check_gradients(T.exp, [rng.normal(size=(3,))], rtol=1e-6)
    check_gradients(T.log, [a], rtol=1e-6)
    check_gradients(T.absolute, [a], rtol=1e-6)


def test_mean_sum_gradients(rng):
    x = rng.normal(size=(3, 4))
    check_gradients(lambda t: T.mean(t, axis=1), [x], rtol=1e-6)
    check_gradients(lambda t: T.sum_(t, axis=0, keepdims=True), [x], rtol=1e-6)
    check_gradients(lambda t: T.mean(t), [x], rtol=1e-6)


@pytest.mark.parametrize("op", [T.sum_, T.mean])
@pytest.mark.parametrize("axis", [None, 1, -1, (0, 2)])
@pytest.mark.parametrize("keepdims", [False, True])
def test_reduction_gradients(rng, op, axis, keepdims):
    x = rng.normal(size=(2, 3, 4))
    check_gradients(lambda t: op(t, axis=axis, keepdims=keepdims), [x], rtol=1e-6)


@pytest.mark.parametrize("keepdims", [False, True])
def test_logsumexp_gradients(rng, keepdims):
    x = rng.normal(size=(3, 4, 2))
    check_gradients(lambda t: T.logsumexp(t, axis=1, keepdims=keepdims), [x], rtol=1e-5)


def test_neg_gradient(rng):
    check_gradients(T.neg, [rng.normal(size=(3, 4))], rtol=1e-6)


def test_logsumexp_matches_direct(rng):
    x = rng.normal(scale=5, size=(4, 6))
    direct = np.log(np.exp(x).sum(axis=-1))
    np.testing.assert_allclose(T.logsumexp(Tensor(x), axis=-1).data, direct, atol=1e-12)
    check_gradients(lambda t: T.logsumexp(t, axis=-1), [x], rtol=1e-5)


def test_transpose_reshape_gradients(rng):
    x = rng.normal(size=(2, 3, 4))
    check_gradients(lambda t: T.transpose(t, (2, 0, 1)), [x], rtol=1e-6)
    check_gradients(lambda t: T.reshape(t, (6, 4)), [x], rtol=1e-6)
