import struct

import numpy as np
import pytest

import vit2img.tensor as T
from vit2img.data import DatasetManifest
from vit2img.tensor import Tensor


def numeric_gradient(fn, arrays, h=1e-5):
    """Central finite differences of a scalar-valued fn over numpy arrays."""
    grads = []
    for k, arr in enumerate(arrays):
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = fn(*arrays)
            flat[i] = orig - h
            lo = fn(*arrays)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * h)
        grads.append(g)
    return grads


def check_gradients(op, arrays, rtol=1e-4, h=1e-5, seed=0):
    """Compare autodiff grads of sum(op(*xs) * R) against central differences."""
    rng = np.random.default_rng(seed)
    probe = None

    def scalarize(*arrs):
        nonlocal probe
        with T.no_grad():
            out = op(*[Tensor(a) for a in arrs])
        if probe is None:
            probe = rng.normal(size=out.shape)
        return float((out.data * probe).sum())

    expected = numeric_gradient(scalarize, [a.copy() for a in arrays], h=h)
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*tensors)
    loss = T.sum_(T.mul(out, Tensor(probe)))
    T.backward(loss)
    for t, exp_g in zip(tensors, expected):
        scale = max(np.abs(exp_g).max(), 1.0)
        assert t.grad is not None
        np.testing.assert_allclose(t.grad, exp_g, rtol=rtol, atol=rtol * scale)


def closure_values(fn, seen=None):
    """Every value a backward closure's cells hold, nested closures followed,
    without walking the graph."""
    seen = set() if seen is None else seen
    for cell in getattr(fn, "__closure__", None) or ():
        try:
            value = cell.cell_contents
        except ValueError:
            continue
        if id(value) in seen:
            continue
        seen.add(id(value))
        yield value
        if callable(value):
            yield from closure_values(value, seen)


def closure_arrays(fn):
    """Every ndarray a backward closure can reach: its cells, the data and
    grad of tensors in them, and nested closures."""
    found = []
    for value in closure_values(fn):
        if isinstance(value, np.ndarray):
            found.append(value)
        elif isinstance(value, Tensor):
            found += [a for a in (value.data, value.grad) if a is not None]
    return found


def record_heads(blob) -> list[tuple[str, int, int]]:
    """(name, offset of the record's head, offset of its payload) per
    checkpoint record, walked from the header's length field."""
    (n,) = struct.unpack_from("<I", blob, 8)
    (count,) = struct.unpack_from("<I", blob, 12 + n)
    pos, heads = 16 + n, []
    for _ in range(count):
        (k,) = struct.unpack_from("<H", blob, pos)
        ndim = blob[pos + 3 + k]
        dims = struct.unpack_from(f"<{ndim}I", blob, pos + 4 + k)
        payload = pos + 4 + k + 4 * ndim
        heads.append((blob[pos + 2:pos + 2 + k].decode(), pos, payload))
        pos = payload + 8 * int(np.prod(dims))
    return heads


def read_records(blob) -> dict[str, tuple[int, np.ndarray]]:
    """name -> (kind, array) per checkpoint record, found by ``record_heads``."""
    records = {}
    for name, head, payload in record_heads(blob):
        at = head + 2 + len(name.encode())
        kind, ndim = blob[at], blob[at + 1]
        shape = struct.unpack_from(f"<{ndim}I", blob, at + 2)
        records[name] = (kind, np.frombuffer(blob, "<f8", int(np.prod(shape)), payload).reshape(shape))
    return records


def write_manifest(manifest: DatasetManifest, path) -> None:
    """Write ``manifest`` in the format that ``read_manifest`` reads."""
    with open(path, "w") as f:
        f.write(f"task = {manifest.task}\n")
        f.write(f"classes = {manifest.classes}\n")
        f.write(f"image_size = {manifest.image_size}\n")
        f.write("\n")
        for inp, tgt in manifest.pairs:
            f.write(f"{inp}\t{tgt}\n")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
