"""N-D float64 tensors with reverse-mode automatic differentiation.

Every numeric kernel used by the layers above lives here: matmul, softmax,
normalizations, convolutions (plain and transposed), bilinear resampling,
activations and concat, each with an analytic backward rule.

Autodiff is tape-based per forward pass.  Each recorded op gives its output
a tape node: its backward closure and its inputs' nodes (a requires_grad
leaf stands for itself).  ``backward(loss)`` walks the nodes under ``loss``
once in reverse topological order, keeping adjoints in a per-call table
keyed by node and accumulating into ``.grad`` only on leaves.  Calling
``backward`` twice without ``zero_grad`` therefore accumulates leaf grads.

Graph lifetime: the nodes live as long as the last reference to the loss
(or any other tensor of the graph).  No node refers to its output tensor,
so an interior array dies with its tensor unless a closure reads it.
``backward`` frees nothing, so one graph may be walked twice; a training
loop drops its loss right after ``backward`` so that the next step's
forward does not run beside the old tape.

What the tape keeps is what backward reads: closures capture arrays and
shapes, never tensors.  Both convolutions keep their input and kernel
arrays but no patch matrix.  They share three private kernels over one
kernel array W.  conv2d runs ``_correlate`` forward, then ``_kernel_grad`` (dW,
first, so one patch-sized array exists at a time) and ``_correlate_adjoint``
(dx); conv2d_transpose runs ``_correlate_adjoint`` forward, then ``_correlate``
(dx) and ``_kernel_grad`` (dW) on one ``_patches`` of g.  At stride 1, when the
padded grid has at most 10% more pixels than the output ((Ho+K-1)*(Wo+K-1) <=
1.1*Ho*Wo), patches are a flat padded buffer for shifted GEMMs, else im2col.
``relu`` and ``leaky_relu`` keep a 1-byte mask of the positive inputs, not
the 8-byte input.  ``layer_norm`` and both ``batch_norm`` modes share one
kernel: one node keeping the normalized input, the per-statistic inverse
deviation and gamma, with one closed-form backward.

A recording graph is confined to one thread.  Tensors themselves are
immutable after construction except for grad accumulation, so finished
tensors (e.g. shared model parameters during evaluation) may be handed to
other threads freely.

Layout conventions (bit-exact, checkpoints depend on them):
  * row-major (C order) everywhere, images are NHWC
  * conv2d kernels are [K, K, Cin, Cout]; conv2d_transpose kernels are
    [K, K, Cout, Cin]
  * "same" padding pads to ceil(in/stride) outputs, zeros split evenly with
    the extra row/column on the bottom/right
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, DimensionError

# When true, every op asserts its output is finite. Costs one pass per op,
# so it is only switched on by tests / debugging sessions.
debug_checks = os.environ.get("VIT2IMG_DEBUG_CHECKS", "") == "1"

# Whether ops record the tape; one flag, as a recording graph keeps to one thread.
_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation, metrics)."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


class _Node:
    """A tape entry: a backward closure and one ``_tape_entry`` per input."""

    __slots__ = ("parents", "backward")

    def __init__(self, parents, backward):
        self.parents = parents
        self.backward = backward


class Tensor:
    """A float64 array plus an optional gradient slot and tape node."""

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None

    # perfbench's tracer reads and wraps each op's closure through this.
    _backward = property(lambda self: self._node and self._node.backward,
                         lambda self, fn: setattr(self._node, "backward", fn))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on a tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _tape_entry(t: Tensor):
    """What a node records for input ``t``: its node, ``t`` if a leaf, or None."""
    return t._node if t._node is not None else t if t.requires_grad else None


def _make(data, parents, backward_fn) -> Tensor:
    """Wrap an op result, recording a tape node when grad mode is on."""
    out = Tensor(data)
    if debug_checks and not np.all(np.isfinite(data)):
        raise NumericDebugError("op produced a non-finite value")
    entries = tuple(map(_tape_entry, parents)) if _grad_enabled else ()
    if any(e is not None for e in entries):
        out._node = _Node(entries, backward_fn)
    return out


class NumericDebugError(AssertionError):
    """Raised by the debug finiteness check; never in normal operation."""


def backward(loss: Tensor) -> None:
    """Populate ``.grad`` on every requires_grad leaf reachable from ``loss``.

    ``loss`` must be a scalar (size-1) tensor.  Adjoints live in a per-call
    table keyed by node; repeat calls accumulate onto leaf ``.grad`` slots.
    """
    if loss.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")

    # Iterative reverse topological order over nodes and leaves.
    root = _tape_entry(loss)
    order: list = []
    visited: set[int] = set()
    stack: list = [(root, False)] if root is not None else []
    while stack:
        item, expanded = stack.pop()
        if expanded:
            order.append(item)
            continue
        if id(item) in visited:
            continue
        visited.add(id(item))
        stack.append((item, True))
        if type(item) is _Node:
            for p in item.parents:
                if p is not None and id(p) not in visited:
                    stack.append((p, False))

    adjoint: dict[int, np.ndarray] = {id(root): np.ones_like(loss.data)}
    for item in reversed(order):
        g = adjoint.pop(id(item), None)
        if g is None:
            continue
        if type(item) is not _Node:  # a leaf
            if item.grad is None:
                item.grad = np.zeros_like(item.data)
            item.grad += g
            continue
        for parent, pg in zip(item.parents, item.backward(g)):
            if pg is None or parent is None:
                continue
            acc = adjoint.get(id(parent))
            # Never accumulate in place: a backward rule may hand the same
            # array to two parents (add) or a view of the incoming adjoint.
            adjoint[id(parent)] = pg if acc is None else acc + pg


def _sum_to_shape(arr: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reverse numpy broadcasting: sum ``arr`` down to ``shape``."""
    if arr.shape == shape:
        return arr
    extra = arr.ndim - len(shape)
    if extra > 0:
        arr = arr.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, n in enumerate(shape) if n == 1 and arr.shape[i] != 1)
    if keep:
        arr = arr.sum(axis=keep, keepdims=True)
    return arr.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.shape, b.shape
    return _make(a.data + b.data, (a, b), lambda g: (_sum_to_shape(g, sa), _sum_to_shape(g, sb)))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.shape, b.shape
    return _make(a.data - b.data, (a, b), lambda g: (_sum_to_shape(g, sa), _sum_to_shape(-g, sb)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    return _make(ad * bd, (a, b),
                 lambda g: (_sum_to_shape(g * bd, ad.shape), _sum_to_shape(g * ad, bd.shape)))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    sa, bd = a.shape, b.data
    out = a.data / bd
    return _make(out, (a, b),
                 lambda g: (_sum_to_shape(g / bd, sa), _sum_to_shape(-g * out / bd, bd.shape)))


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _make(-a.data, (a,), lambda g: (-g,))


def power(a, exponent: float) -> Tensor:
    """Elementwise a**exponent for a constant scalar exponent."""
    a = as_tensor(a)
    ad = a.data
    return _make(ad ** exponent, (a,), lambda g: (g * exponent * ad ** (exponent - 1.0),))


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)
    return _make(out, (a,), lambda g: (g * out,))


def log(a) -> Tensor:
    a = as_tensor(a)
    ad = a.data
    return _make(np.log(ad), (a,), lambda g: (g / ad,))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = np.sqrt(a.data)
    return _make(out, (a,), lambda g: (g * 0.5 / out,))


def absolute(a) -> Tensor:
    """Elementwise |a|; subgradient 0 at exact ties."""
    a = as_tensor(a)
    ad = a.data
    return _make(np.abs(ad), (a,), lambda g: (g * np.sign(ad),))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)
    return _make(out, (a,), lambda g: (g * (1.0 - out * out),))


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = np.maximum(a.data, 0.0)
    mask = a.data > 0.0
    return _make(out, (a,), lambda g: (g * mask,))


def leaky_relu(a, slope: float = 0.2) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0.0
    out = np.where(mask, a.data, slope * a.data)
    return _make(out, (a,), lambda g: (np.where(mask, g, slope * g),))


# ---------------------------------------------------------------------------
# shape plumbing


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    before = a.shape
    return _make(a.data.reshape(tuple(shape)), (a,), lambda g: (g.reshape(before),))


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def grad(g):
        return (np.ascontiguousarray(g.transpose(inverse)),)

    return _make(np.ascontiguousarray(a.data.transpose(axes)), (a,), grad)


def concat(xs, axis: int) -> Tensor:
    """Stack tensors along ``axis``; backward splits the gradient."""
    xs = [as_tensor(x) for x in xs]
    if not xs:
        raise DimensionError("concat of an empty tensor list")
    base = xs[0].shape
    for x in xs[1:]:
        if len(x.shape) != len(base) or any(
            d != b for i, (d, b) in enumerate(zip(x.shape, base)) if i != axis % len(base)
        ):
            raise DimensionError(
                f"concat: non-axis dimensions disagree: {base} vs {x.shape}"
            )
    out = np.concatenate([x.data for x in xs], axis=axis)
    offsets = np.cumsum([x.shape[axis] for x in xs])[:-1]

    def grad(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, offsets, axis=axis))

    return _make(out, tuple(xs), grad)


def _unreduce(g: np.ndarray, shape, axis, keepdims: bool) -> np.ndarray:
    """Adjoint of a reduction over ``axis``: restore the reduced axes of ``g``
    and broadcast it back over the input ``shape`` (a read-only view)."""
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    shape = a.shape
    out = a.data.sum(axis=axis, keepdims=keepdims)
    return _make(out, (a,), lambda g: (_unreduce(g, shape, axis, keepdims).copy(),))


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    shape = a.shape
    out = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.size // max(out.size, 1)  # elements per mean
    return _make(out, (a,), lambda g: (_unreduce(g / count, shape, axis, keepdims).copy(),))


# ---------------------------------------------------------------------------
# matmul / softmax / normalizations


def matmul(a, b) -> Tensor:
    """Matrix product, batched over leading axes as numpy does."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul: inner dimensions disagree: {a.shape} x {b.shape}"
        )
    ad, bd = a.data, b.data

    def grad(g):
        return (_sum_to_shape(g @ np.swapaxes(bd, -1, -2), ad.shape),
                _sum_to_shape(np.swapaxes(ad, -1, -2) @ g, bd.shape))

    return _make(ad @ bd, (a, b), grad)


def softmax(a, axis: int = -1) -> Tensor:
    """Max-stabilized softmax; outputs are positive and sum to 1 along axis."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def grad(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _make(out, (a,), grad)


def logsumexp(a, axis: int = -1, keepdims: bool = False) -> Tensor:
    """log(sum(exp(a))) along axis, stabilized by max subtraction."""
    a = as_tensor(a)
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=axis, keepdims=True)
    out = np.log(s) + m
    soft = e / s
    return _make(out if keepdims else np.squeeze(out, axis=axis), (a,),
                 lambda g: (_unreduce(g, soft.shape, axis, keepdims) * soft,))


def _affine_args(op: str, x, gamma, beta) -> tuple[Tensor, Tensor, Tensor]:
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if gamma.shape != (x.shape[-1],) or beta.shape != (x.shape[-1],):
        raise DimensionError(
            f"{op}: gamma/beta {gamma.shape}/{beta.shape} do not match the last axis of {x.shape}"
        )
    return x, gamma, beta


def _normalize(x: Tensor, gamma: Tensor, beta: Tensor, centered: np.ndarray,
               var: np.ndarray, eps: float, axes) -> Tensor:
    """The one normalization kernel: ``gamma * centered * inv + beta``, one tape
    node keeping ``xhat = centered * inv`` (in place) and ``inv = (var + eps) ** -0.5``.

    ``centered`` and ``var`` are statistics over ``axes``, or fixed ones when
    ``axes`` is None.  Backward: ``dx = inv * (dxhat - mean(dxhat) - xhat *
    mean(dxhat * xhat))``, ``dxhat = g * gamma``, means over ``axes`` (0 if fixed).
    """
    inv = (var + eps) ** -0.5
    xhat = np.multiply(centered, inv, out=centered)
    gd = gamma.data
    out = xhat * gd + beta.data
    lead = tuple(range(xhat.ndim - 1))  # the axes gamma and beta are broadcast over

    def grad(g):
        dbeta = g.sum(axis=lead)
        dgamma = (g * xhat).sum(axis=lead)
        if axes == lead:
            # gamma is constant over the statistic axes, so the two means are
            # gamma * dbeta / M and gamma * dgamma / M; scale by gamma last.
            count = xhat.size // xhat.shape[-1]
            d, m1, m2, scale = g, dbeta / count, dgamma / count, gd * inv
        else:
            d, m1, m2, scale = g * gd, 0.0, 0.0, inv
            if axes is not None:
                m1, m2 = d.mean(axis=axes, keepdims=True), (d * xhat).mean(axis=axes, keepdims=True)
        dx = xhat * m2
        np.subtract(d, dx, out=dx)
        dx -= m1
        dx *= scale
        return dx, dgamma, dbeta

    return _make(out, (x, gamma, beta), grad)


def layer_norm(x, gamma, beta, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to mean 0 / variance 1, then apply gamma, beta."""
    x, gamma, beta = _affine_args("layer_norm", x, gamma, beta)
    axes = (x.data.ndim - 1,)
    centered = x.data - x.data.mean(axis=axes, keepdims=True)
    var = (centered * centered).mean(axis=axes, keepdims=True)
    return _normalize(x, gamma, beta, centered, var, eps, axes)


def batch_norm(x, gamma, beta, running_mean, running_var, mode: str,
               eps: float = 1e-5, momentum: float = 0.99):
    """Normalize per channel (last axis) over all other axes: with the batch
    statistics in train mode, which also updates the running arrays in place
    by an exponential moving average, and with the running ones in eval mode."""
    x, gamma, beta = _affine_args("batch_norm", x, gamma, beta)
    if mode == "eval":
        return _normalize(x, gamma, beta, x.data - running_mean, running_var, eps, None)
    if mode != "train":
        raise ContractError(f"batch_norm: mode must be 'train' or 'eval', got {mode!r}")
    axes = tuple(range(x.data.ndim - 1))
    mu = x.data.mean(axis=axes, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=axes, keepdims=True)
    running_mean[...] = momentum * running_mean + (1.0 - momentum) * mu.reshape(-1)
    running_var[...] = momentum * running_var + (1.0 - momentum) * var.reshape(-1)
    return _normalize(x, gamma, beta, centered, var, eps, axes)


# ---------------------------------------------------------------------------
# convolutions


def _conv_geometry(h: int, w: int, k: int, stride: int):
    """(out_h, out_w, pad_top, pad_bottom, pad_left, pad_right) of 'same' padding."""
    ho, wo = -(-h // stride), -(-w // stride)  # ceil
    th, tw = max((ho - 1) * stride + k - h, 0), max((wo - 1) * stride + k - w, 0)
    return ho, wo, th // 2, th - th // 2, tw // 2, tw - tw // 2


def _shifted(ho: int, wo: int, k: int, stride: int) -> bool:
    """Shifted GEMMs compute the whole padded grid: past 10% waste, im2col's one GEMM is faster."""
    return stride == 1 and (ho + k - 1) * (wo + k - 1) <= 1.1 * ho * wo


def _im2col(x: np.ndarray, k: int, stride: int, pads, ho: int, wo: int) -> np.ndarray:
    """The [N*Ho*Wo, K*K*C] patch matrix of NHWC ``x`` zero-padded by
    ``pads = (top, bottom, left, right)``, rows in [N, Ho, Wo] order."""
    n, _, _, c = x.shape
    xpad = np.pad(x, ((0, 0), pads[:2], pads[2:], (0, 0)))
    sn, sh, sw, sc = xpad.strides
    view = np.lib.stride_tricks.as_strided(
        xpad,
        shape=(n, ho, wo, k, k, c),
        strides=(sn, sh * stride, sw * stride, sh, sw, sc),
        writeable=False,
    )
    return view.reshape(n * ho * wo, k * k * c)


def _flat_pad(x: np.ndarray, pads, k: int):
    """Zero-pad NHWC ``x`` by ``pads = (top, bottom, left, right)`` into one
    flat [N*Hp*Wp + (K-1)*(Wp+1), C] buffer; the zero tail lets every K x K
    tap read N*Hp*Wp rows from its offset.  Returns the buffer, Hp and Wp."""
    n, h, wd, c = x.shape
    pt, pb, pl, pr = pads
    hp, wp = h + pt + pb, wd + pl + pr
    flat = np.zeros((n * hp * wp + (k - 1) * (wp + 1), c))
    flat[:n * hp * wp].reshape(n, hp, wp, c)[:, pt:pt + h, pl:pl + wd] = x
    return flat, hp, wp


def _patches(x: np.ndarray, k: int, stride: int, pads, ho: int, wo: int):
    """NHWC ``x`` zero-padded for the taps of a correlation to Ho x Wo outputs:
    ``_flat_pad``'s (buffer, Hp, Wp) on shifted shapes, else the ``_im2col`` matrix."""
    if _shifted(ho, wo, k, stride):
        return _flat_pad(x, pads, k)
    return _im2col(x, k, stride, pads, ho, wo)


def _correlate(p, w: np.ndarray, ho: int, wo: int) -> np.ndarray:
    """Cross-correlation of ``_patches`` ``p`` with a [K, K, Cin, Cout] kernel, to [N, Ho, Wo, Cout].
    Shifted shapes sum one GEMM per tap over a row-shifted view of the flat buffer
    (the accumulating kn2row scheme, Vasudevan et al. 2017, arXiv 1704.04428): output
    pixel (i, j) of the Hp x Wp grid is row ``i*Wp + j``; rows beyond Ho x Wo are cropped."""
    k, _, cin, cout = w.shape
    if isinstance(p, np.ndarray):
        return (p @ w.reshape(k * k * cin, cout)).reshape(-1, ho, wo, cout)
    flat, hp, wp = p
    rows = len(flat) - (k - 1) * (wp + 1)  # N*Hp*Wp, without the zero tail
    acc = np.matmul(flat[:rows], w[0, 0])
    part = np.empty_like(acc)
    for ki in range(k):
        for kj in range(k):
            if ki or kj:
                off = ki * wp + kj
                acc += np.matmul(flat[off:off + rows], w[ki, kj], out=part)
    return np.ascontiguousarray(acc.reshape(-1, hp, wp, cout)[:, :ho, :wo])


def _correlate_adjoint(g: np.ndarray, w: np.ndarray, stride: int, pads, h: int, wd: int) -> np.ndarray:
    """The adjoint of ``_correlate`` in ``x``, from [N, Ho, Wo, Cout] ``g`` to [N, H, W, Cin]:
    on shifted shapes the correlation of ``g`` with the flipped, transposed kernel (H x W
    >= Ho x Wo, so shifted too), else patch gradients scatter-added onto the padded grid."""
    n, ho, wo, cout = g.shape
    k, _, cin, _ = w.shape
    pt, pb, pl, pr = pads
    if _shifted(ho, wo, k, stride):
        back = (k - 1 - pt, k - 1 - pb, k - 1 - pl, k - 1 - pr)
        return _correlate(_patches(g, k, 1, back, h, wd), w[::-1, ::-1].swapaxes(2, 3), h, wd)
    dcols = g.reshape(n * ho * wo, cout) @ w.reshape(k * k * cin, cout).T
    dcols = dcols.reshape(n, ho, wo, k, k, cin)
    dxpad = np.zeros((n, h + pt + pb, wd + pl + pr, cin))
    for ki in range(k):
        for kj in range(k):
            dxpad[:, ki:ki + ho * stride:stride, kj:kj + wo * stride:stride] += dcols[:, :, :, ki, kj]
    return np.ascontiguousarray(dxpad[:, pt:pt + h, pl:pl + wd])


def _kernel_grad(p, g: np.ndarray, k: int) -> np.ndarray:
    """The [K, K, Cin, Cout] gradient of ``_correlate`` in ``w``, for ``_patches`` ``p`` and
    [N, Ho, Wo, Cout] ``g``: one GEMM per tap on shifted shapes, else one im2col GEMM."""
    n, ho, wo, cout = g.shape
    if isinstance(p, np.ndarray):
        return (p.T @ g.reshape(n * ho * wo, cout)).reshape(k, k, -1, cout)
    flat, hp, wp = p
    rows = n * hp * wp
    # g on the padded grid, zero on the rows the forward cropped away.
    g_wide = np.zeros((n, hp, wp, cout))
    g_wide[:, :ho, :wo] = g
    g_wide = g_wide.reshape(rows, cout)
    dw = np.empty((k, k, flat.shape[1], cout))
    for ki in range(k):
        for kj in range(k):
            off = ki * wp + kj
            np.matmul(flat[off:off + rows].T, g_wide, out=dw[ki, kj])
    return dw


def _conv_args(op: str, x, w, b, cin_axis: int) -> tuple[Tensor, Tensor, Tensor | None]:
    """Check a 4-D input, a square 4-D kernel with the input channels on axis ``cin_axis``
    (2 for conv2d, 3 for conv2d_transpose) and a bias over its other channel axis."""
    x, w = as_tensor(x), as_tensor(w)
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise DimensionError(f"{op}: expected 4-D input and kernel, got {x.shape} and {w.shape}")
    if w.shape[0] != w.shape[1] or w.shape[cin_axis] != x.shape[3]:
        raise DimensionError(f"{op}: kernel {w.shape} does not match input channels of {x.shape}")
    cout = w.shape[5 - cin_axis]
    b = as_tensor(b) if b is not None else None
    if b is not None and b.shape != (cout,):
        raise DimensionError(f"{op}: bias {b.shape} does not match {cout} output channels")
    return x, w, b


def _conv_node(out: np.ndarray, x: Tensor, w: Tensor, b: Tensor | None, grads) -> Tensor:
    """Add the bias in place; one tape node whose backward is ``grads(g)`` = (dx, dW) [+ db]."""
    if b is None:
        return _make(out, (x, w), grads)
    out += b.data
    return _make(out, (x, w, b), lambda g: (*grads(g), g.reshape(-1, g.shape[-1]).sum(axis=0)))


def conv2d(x, w, b=None, stride: int = 1) -> Tensor:
    """2-D 'same'-padded cross-correlation over NHWC input with a [K, K, Cin, Cout] kernel."""
    x, w, b = _conv_args("conv2d", x, w, b, 2)
    _, h, wd, _ = x.shape
    k = w.shape[0]
    ho, wo, *pads = _conv_geometry(h, wd, k, stride)
    xd, kd = x.data, w.data

    def grad(g):
        dw = _kernel_grad(_patches(xd, k, stride, pads, ho, wo), g, k)
        return _correlate_adjoint(g, kd, stride, pads, h, wd), dw

    out = _correlate(_patches(xd, k, stride, pads, ho, wo), kd, ho, wo)
    return _conv_node(out, x, w, b, grad)


def conv2d_transpose(x, w, b=None, stride: int = 2) -> Tensor:
    """Fractionally-strided convolution: the adjoint in x of 'same'-padded conv2d
    with the same kernel array.  The output is exactly stride times the input
    size (kernel >= stride required so the implied padding is nonnegative)."""
    x, w, b = _conv_args("conv2d_transpose", x, w, b, 3)
    k = w.shape[0]
    if k < stride:
        raise DimensionError(f"conv2d_transpose: kernel {k} smaller than stride {stride}")
    _, h, wd, _ = x.shape
    # The pads of that conv2d, which maps this op's output back to x's shape.
    _, _, *pads = _conv_geometry(h * stride, wd * stride, k, stride)
    xd, kd = x.data, w.data

    def grad(g):
        p = _patches(g, k, stride, pads, h, wd)
        return _correlate(p, kd, h, wd), _kernel_grad(p, xd, k)

    out = _correlate_adjoint(xd, kd, stride, pads, h * stride, wd * stride)
    return _conv_node(out, x, w, b, grad)


# ---------------------------------------------------------------------------
# bilinear resampling


def _lerp_indices(out_size: int, in_size: int):
    """align-corners-false source indices and fractions for one axis."""
    s = (np.arange(out_size, dtype=np.float64) + 0.5) * (in_size / out_size) - 0.5
    s = np.maximum(s, 0.0)
    i0 = np.minimum(s.astype(np.int64), in_size - 1)
    f = s - i0
    i1 = np.minimum(i0 + 1, in_size - 1)
    return i0, i1, f


def bilinear_upsample(x, out_h: int, out_w: int) -> Tensor:
    """Resize NHWC images with bilinear interpolation (align_corners=False).

    Computed as a lerp ``x0 + f*(x1 - x0)`` per axis, so constant images stay
    bit-exactly constant at any target size.
    """
    x = as_tensor(x)
    if x.data.ndim != 4:
        raise DimensionError(f"bilinear_upsample: expected NHWC input, got {x.shape}")
    n, h, w, c = x.shape
    if out_h <= 0 or out_w <= 0:
        raise DimensionError(f"bilinear_upsample: target size {out_h}x{out_w} must be positive")
    if out_h < h or out_w < w:
        raise DimensionError(
            f"bilinear_upsample: target {out_h}x{out_w} smaller than source {h}x{w}"
        )
    hi0, hi1, hf = _lerp_indices(out_h, h)
    wi0, wi1, wf = _lerp_indices(out_w, w)
    hfb = hf[None, :, None, None]
    wfb = wf[None, None, :, None]

    rows = x.data[:, hi0] + hfb * (x.data[:, hi1] - x.data[:, hi0])
    out = rows[:, :, wi0] + wfb * (rows[:, :, wi1] - rows[:, :, wi0])

    def grad(g):
        drows = np.zeros((n, out_h, w, c))
        np.add.at(drows.transpose(2, 0, 1, 3), wi0, ((1.0 - wfb) * g).transpose(2, 0, 1, 3))
        np.add.at(drows.transpose(2, 0, 1, 3), wi1, (wfb * g).transpose(2, 0, 1, 3))
        dx = np.zeros((n, h, w, c))
        np.add.at(dx.transpose(1, 0, 2, 3), hi0, ((1.0 - hfb) * drows).transpose(1, 0, 2, 3))
        np.add.at(dx.transpose(1, 0, 2, 3), hi1, (hfb * drows).transpose(1, 0, 2, 3))
        return (dx,)

    return _make(out, (x,), grad)
