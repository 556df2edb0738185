"""Outside-in tracer: spans around the public functions of ``vit2img``.

``Tracer.install()`` replaces, in every ``vit2img`` module namespace that
binds them, the public tensor ops and ``backward``, the model, training,
metrics and data entry points, and the ``__call__`` of every ``Module``
subclass with wrappers that record spans.  ``uninstall()`` puts the
originals back.  Nothing in ``src/`` is edited; an untraced run never calls
``install()``.

A span is ``[name, path, parent, step, t0, t1, extra, nested]``:

* ``path`` is the dotted module path that was active (for a module span, its
  own path).  Paths come from the generator's public ``named_parameters()``.
* ``parent`` is the index of the enclosing span, -1 at the top.
* ``step`` is the workload step the span ran in, 0 outside timed steps.
* ``extra`` is the enclosing module path for module spans and the op chain
  (innermost first) for backward-closure spans.
* ``nested`` is true when a span of the same name was already open.

Backward time is measured by replacing each recorded tape node's
``_backward`` closure with a timed one that remembers the op chain and the
module path that created the node.  Bytes retained by the tape are counted
when the node is created: its output array plus the ndarrays in its
closure's cells, each underlying buffer once per step.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import weakref
from time import perf_counter

import numpy as np

import vit2img
from vit2img import cli, data, decoder, encoder, layers, metrics, models, tensor, training

PACKAGE_MODULES = (vit2img, tensor, layers, encoder, decoder, models, training, metrics,
                   data, cli)

# Public tensor ops; batch_norm and layer_norm are composites of the others.
TENSOR_OPS = (
    "add", "sub", "mul", "div", "neg", "power", "exp", "log", "sqrt", "absolute",
    "tanh", "relu", "leaky_relu", "reshape", "transpose", "concat", "sum_", "mean",
    "matmul", "softmax", "logsumexp", "layer_norm", "batch_norm", "conv2d",
    "conv2d_transpose", "bilinear_upsample",
)
COMPOSITE_OPS = ("batch_norm", "layer_norm")
FUNCTIONS = (
    (tensor, "backward"),
    (models, "build_generator"), (models, "save_checkpoint"), (models, "load_checkpoint"),
    (training, "train"), (training, "compute_loss"), (training, "adam_step"),
    (metrics, "ssim"), (metrics, "fid"), (metrics, "inception_score"),
    (data, "make_synthetic"),
)
ROOT_PATH = "generator"


class _TimedBackward:
    """Stands in for a tape node's backward closure and times each call."""

    __slots__ = ("tracer", "fn", "chain", "path")

    def __init__(self, tracer, fn, chain, path):
        self.tracer = tracer
        self.fn = fn
        self.chain = chain
        self.path = path

    def __call__(self, g):
        rec = self.tracer._open(f"tensor.{self.chain[0]}.bwd", self.path, self.chain)
        try:
            return self.fn(g)
        finally:
            self.tracer._close(rec)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.step = 0
        # Step id -> wall time in ms, between begin_step and end_step.
        self.step_ms: dict[int, float] = {}
        self._step_start = 0.0
        # Per tape node: [step, chain, path, retained bytes].
        self.nodes: list[list] = []
        # Checkpoint path -> size in bytes after the last save.
        self.checkpoint_bytes: dict[str, int] = {}
        self._stack: list[int] = []
        self._open_names: dict[str, int] = {}
        self._ops: list[str] = []
        self._paths: list[str] = []
        self._roots: list = []
        self._path_maps = weakref.WeakKeyDictionary()
        self._seen: dict[int, np.ndarray] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- steps --------------------------------------------------------------

    def begin_step(self, step: int) -> None:
        self.step = step
        self._seen = {}
        self._step_start = perf_counter()

    def end_step(self) -> None:
        if self.step:
            self.step_ms[self.step] = (perf_counter() - self._step_start) * 1e3
        self.step = 0
        self._seen = {}

    # -- spans --------------------------------------------------------------

    def _open(self, name, path, extra=None):
        spans = self.spans
        depth = self._open_names.get(name, 0)
        self._open_names[name] = depth + 1
        rec = [name, path, self._stack[-1] if self._stack else -1, self.step, 0.0, 0.0,
               extra, depth > 0]
        self._stack.append(len(spans))
        spans.append(rec)
        rec[4] = perf_counter()
        return rec

    def _close(self, rec):
        rec[5] = perf_counter()
        self._stack.pop()
        self._open_names[rec[0]] -= 1

    def _path(self) -> str:
        return self._paths[-1] if self._paths else ""

    # -- module paths from the public parameter names ------------------------

    def _module_path(self, module) -> str:
        if not self._roots:
            return type(module).__name__
        root = self._roots[-1]
        entry = self._path_maps.get(root)
        if entry is None:
            entry = ({id(t): name for name, t in root.named_parameters()}, {})
            self._path_maps[root] = entry
        names, paths = entry
        path = paths.get(id(module))
        if path is None:
            local, t = next(module.named_parameters(), (None, None))
            full = names.get(id(t)) if t is not None else None
            path = full[:-len(local) - 1] if full else type(module).__name__
            paths[id(module)] = path
        return path

    # -- tape bookkeeping ---------------------------------------------------

    def _retained_bytes(self, out, closure) -> int:
        arrays = [out.data]
        for cell in getattr(closure, "__closure__", None) or ():
            try:
                value = cell.cell_contents
            except ValueError:
                continue
            if isinstance(value, np.ndarray):
                arrays.append(value)
        total = 0
        seen = self._seen
        for a in arrays:
            while isinstance(a.base, np.ndarray):
                a = a.base
            if id(a) not in seen:
                seen[id(a)] = a  # keeps the id from being reused within the step
                total += a.nbytes
        return total

    # -- wrappers -----------------------------------------------------------

    def _wrap_function(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name, tracer._path())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(rec)

        return traced

    def _wrap_op(self, op, fn):
        tracer = self
        name = f"tensor.{op}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            path = tracer._path()
            rec = tracer._open(name, path)
            tracer._ops.append(op)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._ops.pop()
                tracer._close(rec)
            closure = out._backward
            if closure is not None and type(closure) is not _TimedBackward:
                chain = (op, *reversed(tracer._ops))
                out._backward = _TimedBackward(tracer, closure, chain, path)
                if tracer.step:
                    tracer.nodes.append([tracer.step, chain, path,
                                         tracer._retained_bytes(out, closure)])
            return out

        return traced

    def _wrap_save(self, fn):
        traced_save = self._wrap_function("models.save_checkpoint", fn)
        tracer = self

        @functools.wraps(fn)
        def traced(gen, path, *args, **kwargs):
            result = traced_save(gen, path, *args, **kwargs)
            tracer.checkpoint_bytes[str(path)] = os.path.getsize(path)
            return result

        return traced

    def _wrap_module_call(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(module, *args, **kwargs):
            outer = tracer._path()
            path = tracer._module_path(module)
            rec = tracer._open("module", path, outer)
            tracer._paths.append(path)
            try:
                return fn(module, *args, **kwargs)
            finally:
                tracer._paths.pop()
                tracer._close(rec)

        return traced

    def _wrap_generator_forward(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(gen, *args, **kwargs):
            rec = tracer._open("models.Generator.forward", ROOT_PATH)
            tracer._roots.append(gen)
            tracer._paths.append(ROOT_PATH)
            try:
                return fn(gen, *args, **kwargs)
            finally:
                tracer._paths.pop()
                tracer._roots.pop()
                tracer._close(rec)

        return traced

    # -- install / uninstall ------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        """Rebind ``original`` to ``replacement`` in every package namespace."""
        for module in PACKAGE_MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for op in TENSOR_OPS:
            fn = getattr(tensor, op)
            self._replace_everywhere(fn, self._wrap_op(op, fn))
        for module, attr in FUNCTIONS:
            fn = getattr(module, attr)
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            wrapped = self._wrap_save(fn) if attr == "save_checkpoint" else self._wrap_function(name, fn)
            self._replace_everywhere(fn, wrapped)
        forward = vars(models.Generator)["forward"]
        traced_forward = self._wrap_generator_forward(forward)
        for attr in ("forward", "__call__"):
            self._patch(models.Generator, attr, traced_forward)
        for cls in _module_classes():
            if cls is not models.Generator and "__call__" in vars(cls):
                self._patch(cls, "__call__", self._wrap_module_call(vars(cls)["__call__"]))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, path, parent, step, t0, t1."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for name, span_path, parent, step, t0, t1, _, _ in self.spans:
                f.write(json.dumps([name, span_path, parent, step, t0, t1]) + "\n")


def _module_classes():
    seen = set()
    for module in PACKAGE_MODULES:
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, layers.Module) and cls not in seen:
                seen.add(cls)
                yield cls


# ---------------------------------------------------------------------------
# per-layer metrics
#
# Only layers that train-c or eval-c run are reported: bilinear_upsample and
# the decoder's skip projections run on train-b alone, so their time shows
# in its span dump, not in these metrics.

REPORTED_OPS = ("conv2d", "conv2d_transpose", "batch_norm", "layer_norm",
                "matmul", "softmax", "relu", "leaky_relu", "concat", "mul", "add", "sub", "mean")
MODULE_GROUPS = (("encoder",)
                 + tuple(f"decoder.stages.{i}" for i in range(4))
                 + tuple(f"decoder.stages.{i}.res" for i in range(4))
                 + ("head",))
MIB = float(1 << 20)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in output order."""
    units = {}
    for op in REPORTED_OPS:
        units[f"tensor.{op}.fwd_ms"] = "ms"
        if op in COMPOSITE_OPS:
            units[f"tensor.{op}.fwd_self_ms"] = "ms"
        units[f"tensor.{op}.bwd_ms"] = "ms"
        units[f"tensor.{op}.calls"] = "count"
        units[f"tensor.{op}.retained_mb"] = "MiB"
    units.update({"tensor.tape.nodes": "count", "tensor.tape.retained_mb": "MiB",
                  "tensor.backward.self_ms": "ms"})
    for group in MODULE_GROUPS:
        units[f"{group}.fwd_ms"] = "ms"
        units[f"{group}.bwd_ms"] = "ms"
    units.update({
        "models.build_generator_ms": "ms",
        "models.save_checkpoint_ms": "ms", "models.load_checkpoint_ms": "ms",
        "models.checkpoint_bytes": "bytes",
        "training.compute_loss_ms": "ms", "training.backward_ms": "ms",
        "training.adam_step_ms": "ms", "training.batch_ms": "ms",
        "metrics.ssim_ms": "ms", "metrics.fid_ms": "ms", "metrics.inception_score_ms": "ms",
        "data.make_synthetic_ms": "ms",
        "trace.overhead": "ratio", "trace.coverage": "ratio",
    })
    return units


def _in_group(path, group) -> bool:
    return path == group or path.startswith(group + ".")


def per_layer(tracer: Tracer, reports: int, overhead: float):
    """Per-layer metrics of a traced run, and the tracer's own checks.

    Step metrics are per step (a train step, or one eval forward) and cover
    the steps the workload marked with ``begin_step``/``end_step``; metric
    functions are per report; models and data entry points are per call.
    Returns ``(values, checks)`` with ``checks`` a list of ``(ok, what)``.
    """
    spans = tracer.spans
    ids = sorted(tracer.step_ms)
    index = {step: k for k, step in enumerate(ids, 1)}
    step_ms = [tracer.step_ms[step] for step in ids]
    steps = len(step_ms)
    dur = [s[5] - s[4] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[2] >= 0:
            child[s[2]] += dur[i]

    total: dict[str, float] = {}
    calls: dict[str, int] = {}

    def add(key, value):
        total[key] = total.get(key, 0.0) + value

    step_calls = [dict() for _ in range(steps + 1)]
    covered = 0.0
    for i, (name, path, parent, step, _, _, extra, nested) in enumerate(spans):
        if not nested:
            add(name, dur[i])
            calls[name] = calls.get(name, 0) + 1
        if not index.get(step):
            continue
        if parent < 0 or spans[parent][3] != step:
            covered += dur[i]
        step = index[step]
        counts = step_calls[step]
        counts[name] = counts.get(name, 0) + 1
        add("step-self:" + name, dur[i] - child[i])
        if name.endswith(".bwd"):
            for op in set(extra):
                add(f"step-bwd:{op}", dur[i])
            for group in MODULE_GROUPS:
                if _in_group(path, group):
                    add(f"step-bwd:{group}", dur[i])
        else:
            if not nested:
                add("step:" + name, dur[i])
            if name == "module":
                for group in MODULE_GROUPS:
                    if _in_group(path, group) and not _in_group(extra, group):
                        add(f"step-fwd:{group}", dur[i])
    step_nodes = [[0, 0] for _ in range(steps + 1)]
    for step, chain, _, nbytes in tracer.nodes:
        step = index.get(step, 0)
        step_nodes[step][0] += 1
        step_nodes[step][1] += nbytes
        add(f"retained:{chain[-1]}", nbytes)

    def per_step(key):
        return total.get(key, 0.0) * 1e3 / steps if steps else 0.0

    def per_call(name):
        return total.get(name, 0.0) * 1e3 / calls[name] if calls.get(name) else 0.0

    values = {}
    for op in REPORTED_OPS:
        values[f"tensor.{op}.fwd_ms"] = per_step(f"step:tensor.{op}")
        if op in COMPOSITE_OPS:
            values[f"tensor.{op}.fwd_self_ms"] = per_step(f"step-self:tensor.{op}")
        values[f"tensor.{op}.bwd_ms"] = per_step(f"step-bwd:{op}")
        values[f"tensor.{op}.calls"] = step_calls[1].get(f"tensor.{op}", 0) if steps else 0
        values[f"tensor.{op}.retained_mb"] = total.get(f"retained:{op}", 0.0) / MIB / max(steps, 1)
    values["tensor.tape.nodes"] = step_nodes[1][0] if steps else 0
    values["tensor.tape.retained_mb"] = step_nodes[1][1] / MIB if steps else 0.0
    values["tensor.backward.self_ms"] = per_step("step-self:tensor.backward")
    for group in MODULE_GROUPS:
        values[f"{group}.fwd_ms"] = per_step(f"step-fwd:{group}")
        values[f"{group}.bwd_ms"] = per_step(f"step-bwd:{group}")
    trained = bool(total.get("step:training.compute_loss"))
    mean_step = sum(step_ms) / steps if steps else 0.0
    phases = sum(per_step(f"step:{n}") for n in
                 ("training.compute_loss", "tensor.backward", "training.adam_step"))
    values.update({
        "models.build_generator_ms": per_call("models.build_generator"),
        "models.save_checkpoint_ms": per_call("models.save_checkpoint"),
        "models.load_checkpoint_ms": per_call("models.load_checkpoint"),
        "models.checkpoint_bytes": max(tracer.checkpoint_bytes.values(), default=0),
        "training.compute_loss_ms": per_step("step:training.compute_loss"),
        "training.backward_ms": per_step("step:tensor.backward"),
        "training.adam_step_ms": per_step("step:training.adam_step"),
        "training.batch_ms": mean_step - phases if trained else 0.0,
        "metrics.ssim_ms": total.get("metrics.ssim", 0.0) * 1e3 / max(reports, 1),
        "metrics.fid_ms": total.get("metrics.fid", 0.0) * 1e3 / max(reports, 1),
        "metrics.inception_score_ms": total.get("metrics.inception_score", 0.0) * 1e3 / max(reports, 1),
        "data.make_synthetic_ms": per_call("data.make_synthetic"),
        "trace.overhead": overhead,
        "trace.coverage": covered * 1e3 / sum(step_ms) if steps else 0.0,
    })

    checks = []
    bad = [i for i, s in enumerate(spans)
           if not s[4] <= s[5] or (s[2] >= 0 and not (spans[s[2]][4] <= s[4] and s[5] <= spans[s[2]][5]))]
    checks.append((not bad, f"{len(bad)} spans lie outside their parent, first {bad[:3]}"))
    checks.append((steps > 0 and abs(values["trace.coverage"] - 1.0) <= 0.1,
                   f"step spans account for {values['trace.coverage']:.3f} of the step wall time"))
    uneven = [k for k in range(2, steps + 1)
              if step_calls[k] != step_calls[1] or step_nodes[k] != step_nodes[1]]
    checks.append((not uneven, f"op calls or tape bytes differ between steps, e.g. step {uneven[:1]}"))
    return values, checks
