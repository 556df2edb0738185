"""Losses, the Adam optimizer and the deterministic training loop."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import tensor as T
from .errors import ContractError, DataError, DimensionError, NumericError
from .layers import BatchNorm
from .models import Generator
from .tensor import Tensor

ADAM_LR = 2e-4
ADAM_BETA1 = 0.5
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Elements per pass of adam_step: a chunk of its five arrays (1.25 MiB) stays
# in cache between the update's passes.
ADAM_CHUNK = 32768


def sparse_categorical_crossentropy(logits, labels) -> Tensor:
    """Mean over pixels of -log softmax(logits)[label], via log-sum-exp.

    ``logits`` is [N, H, W, K] (or generally [..., K]); ``labels`` is an
    integer array of the leading shape with values in [0, K).
    """
    logits = T.as_tensor(logits)
    labels = np.asarray(labels)
    k = logits.shape[-1]
    if labels.shape != logits.shape[:-1]:
        raise DimensionError(
            f"labels shape {labels.shape} does not match logits {logits.shape}"
        )
    bad = (labels < 0) | (labels >= k)
    if bad.any():
        where = tuple(int(i) for i in np.argwhere(bad)[0])
        raise DataError(
            f"label {int(labels[where])} out of range [0, {k}) at pixel {where}"
        )
    onehot = np.zeros(logits.shape)
    np.put_along_axis(onehot, labels[..., None], 1.0, axis=-1)
    lse = T.logsumexp(logits, axis=-1)
    picked = T.sum_(T.mul(logits, Tensor(onehot)), axis=-1)
    return T.mean(T.sub(lse, picked))


def mae_loss(pred, target) -> Tensor:
    """Mean absolute error; subgradient 0 at exact ties."""
    pred, target = T.as_tensor(pred), T.as_tensor(target)
    if pred.shape != target.shape:
        raise DimensionError(f"mae_loss: shapes differ: {pred.shape} vs {target.shape}")
    return T.mean(T.absolute(T.sub(pred, target)))


class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    def __init__(self):
        self.t = 0
        self.moments: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        # adam_step's one temporary, a chunk long; never saved.
        self.scratch = np.empty(ADAM_CHUNK)

    def as_dict(self) -> dict:
        return {"t": self.t, "moments": self.moments}


def adam_step(named_params: list[tuple[str, Tensor]], state: AdamState) -> None:
    """One Adam update over all parameters; grads must be populated.

    Uses the reordered update of Kingma & Ba 2015 (arXiv 1412.6980, §2, after
    Algorithm 1): ``p -= a_t * m / (sqrt(v) + eps_t)`` with
    ``a_t = lr * sqrt(1 - beta2**t) / (1 - beta1**t)`` and
    ``eps_t = eps * sqrt(1 - beta2**t)``, which equals the bias-corrected
    ``lr * m_hat / (sqrt(v_hat) + eps)`` without the m_hat/v_hat arrays.  The
    moments are updated bit for bit as ``m = beta1*m + (1-beta1)*g`` and
    ``v = beta2*v + (1-beta2)*g*g``.  Each parameter is walked in chunks of
    ``ADAM_CHUNK`` elements, so the update's passes run in cache and its only
    temporary is ``state.scratch``.
    """
    for name, p in named_params:
        if p.grad is None:
            raise ContractError(f"adam_step: parameter {name!r} has no gradient")
    state.t += 1
    t = state.t
    root2 = np.sqrt(1.0 - ADAM_BETA2 ** t)
    step_size = ADAM_LR * root2 / (1.0 - ADAM_BETA1 ** t)
    eps = ADAM_EPS * root2
    for name, p in named_params:
        if name not in state.moments:
            state.moments[name] = (np.zeros_like(p.data), np.zeros_like(p.data))
        # Tensor data and the moments are C-contiguous, so these flat arrays
        # are views that the in-place updates below write through.
        flat = [a.reshape(-1) for a in (p.data, p.grad, *state.moments[name])]
        for i in range(0, p.size, ADAM_CHUNK):
            pc, g, m, v = (a[i:i + ADAM_CHUNK] for a in flat)
            s = state.scratch[:g.size]
            m *= ADAM_BETA1
            m += np.multiply(g, 1.0 - ADAM_BETA1, out=s)
            np.multiply(g, g, out=s)
            s *= 1.0 - ADAM_BETA2
            v *= ADAM_BETA2
            v += s
            np.sqrt(v, out=s)
            s += eps
            np.divide(m, s, out=s)
            s *= step_size
            pc -= s


@dataclass
class TrainRecord:
    step: int
    loss: float
    ms: float

    def line(self) -> str:
        return f"{self.step}\t{self.loss:.10g}\t{self.ms:.3f}\t{ADAM_LR:g}"


def _batch_arrays(samples, task: str):
    inputs = np.stack([s.input for s in samples])
    targets = np.stack([s.target for s in samples])
    return inputs, targets.astype(np.int64) if task == "segmentation" else targets


def compute_loss(gen: Generator, inputs, targets, mode: str) -> Tensor:
    """The loss of ``gen``'s task: cross-entropy for segmentation, else MAE."""
    out = gen.forward(inputs, mode)
    if gen.config.task == "segmentation":
        return sparse_categorical_crossentropy(out, targets)
    return mae_loss(out, targets)


def loss_kind_for_task(task: str) -> str:
    return "scc" if task == "segmentation" else "mae"


def check_budget(epochs: int, batch_size: int, max_steps: Optional[int] = None) -> None:
    """Raise ContractError unless every budget (``max_steps`` if given) is >= 1."""
    for name, value in (("epochs", epochs), ("batch_size", batch_size), ("max_steps", max_steps)):
        if value is not None and value < 1:
            raise ContractError(f"train: {name} must be >= 1, got {value}")


def train(gen: Generator, dataset, epochs: int, batch_size: int, loss_kind: str,
          seed: int, max_steps: Optional[int] = None,
          stop_loss: Optional[float] = None,
          record_hook: Optional[Callable[[TrainRecord], None]] = None,
          epoch_hook: Optional[Callable[[int], None]] = None,
          state: Optional[AdamState] = None) -> list[TrainRecord]:
    """Train ``gen`` in place and return one record per optimizer step.

    Fully deterministic given (seed, config, data): shuffling, batching and
    initialization all derive from explicit seeds.  The loss is the one
    ``compute_loss`` picks for ``gen``'s task; ``loss_kind`` must name it
    (``loss_kind_for_task``) and is checked before the first forward.
    Training aborts with NumericError (naming the batch) if the loss goes
    non-finite.  ``max_steps`` caps the number of optimizer steps;
    ``stop_loss`` stops once the batch loss falls below it.  The budget must
    pass ``check_budget``.  Adam runs on ``state`` when given, else on a
    fresh one.  Nothing is saved: the caller decides what a checkpoint holds.

    Each step's graph is dropped right after its backward, so at most one
    tape is alive at a time.
    """
    if not dataset:
        raise DataError("train: dataset is empty")
    check_budget(epochs, batch_size, max_steps)
    task = gen.config.task
    if loss_kind != loss_kind_for_task(task):
        raise ContractError(f"loss kind {loss_kind!r} does not fit task {task!r}")
    rng = np.random.default_rng(seed)
    state = state if state is not None else AdamState()
    named = list(gen.named_parameters())
    records: list[TrainRecord] = []
    step = 0
    done = False
    for epoch in range(epochs):
        order = rng.permutation(len(dataset))
        for start in range(0, len(dataset), batch_size):
            batch_idx = order[start:start + batch_size]
            inputs, targets = _batch_arrays([dataset[i] for i in batch_idx], task)
            t0 = time.perf_counter()
            loss = compute_loss(gen, inputs, targets, "train")
            loss_val = loss.item()
            if not np.isfinite(loss_val):
                raise NumericError(
                    f"non-finite loss at step {step + 1} (epoch {epoch}, batch starting at "
                    f"sample index {start}, dataset indices {batch_idx.tolist()})"
                )
            T.backward(loss)
            del loss
            adam_step(named, state)
            gen.zero_grad()
            step += 1
            rec = TrainRecord(step, loss_val, (time.perf_counter() - t0) * 1e3)
            records.append(rec)
            if record_hook is not None:
                record_hook(rec)
            if (max_steps is not None and step >= max_steps) or \
               (stop_loss is not None and loss_val < stop_loss):
                done = True
                break
        if epoch_hook is not None:
            epoch_hook(epoch)
        if done:
            break
    return records


def refresh_batch_norm_stats(gen: Generator, dataset, batch_size: int,
                             passes: int, seed: int) -> None:
    """Recalibrate batch-norm running statistics at the current weights.

    Resets every ``BatchNorm``'s running mean and variance, then replaces
    them with the equal-weight average of the batch statistics of ``passes``
    forward-only train-mode passes over seeded shuffles of ``dataset``; a
    short last batch weighs as much as a full one.  Pass ``k`` (0-based) runs
    with momentum ``k/(k+1)``, so it folds in with weight ``1/(k+1)``; the
    momenta are restored afterwards, even when a forward raises.  No
    parameter is touched; ``batches_tracked`` advances by ``passes``.
    """
    if len(dataset) == 0:
        raise DataError("refresh_batch_norm_stats: dataset is empty")
    if batch_size < 1 or passes < 1:
        raise ContractError(
            f"refresh_batch_norm_stats: batch_size and passes must be >= 1, "
            f"got {batch_size} and {passes}"
        )
    norms = [m for m in gen.modules() if isinstance(m, BatchNorm)]
    momenta = [bn.momentum for bn in norms]
    for bn in norms:
        bn.running_mean.fill(0.0)
        bn.running_var.fill(1.0)
    rng = np.random.default_rng(seed)
    task = gen.config.task
    done = 0
    try:
        with T.no_grad():
            while done < passes:
                order = rng.permutation(len(dataset))
                for start in range(0, len(dataset), batch_size):
                    for bn in norms:
                        bn.momentum = done / (done + 1)
                    inputs, _ = _batch_arrays([dataset[i] for i in order[start:start + batch_size]], task)
                    gen.forward(inputs, "train")
                    done += 1
                    if done >= passes:
                        return
    finally:
        for bn, momentum in zip(norms, momenta):
            bn.momentum = momentum


def write_train_log(records: list[TrainRecord], path) -> None:
    with open(path, "w") as f:
        f.write("# step\tloss\tms\tlr\n")
        for rec in records:
            f.write(rec.line() + "\n")
