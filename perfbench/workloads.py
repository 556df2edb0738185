"""The benchmark's three closed-loop workloads and their correctness gates.

Each workload has one caller that starts its next operation only after the
previous one returned, in one process.  Inputs derive from the workload seed
alone; the package only ever receives the generated data and configs.

* ``train-c``: default generator C on ``shapes`` segmentation (n=8, batch 4)
  through ``training.train``; saves a checkpoint with Adam state and loads
  it back every ``checkpoint_every`` steps.
* ``train-b``: variant B with 1x1 skip projections on ``depth`` regression
  (n=8, batch 2), run like train-c.  Runnable, but not in BENCHMARK.json:
  its run-to-run spread exceeded the bounds on a shared 2-core host.
* ``eval-c``: default generator C restored from a checkpoint and evaluated
  the way ``vit2img eval`` does it: batch-1 ``no_grad`` eval forwards over a
  16-image set, each full pass closed by one SSIM + FID + IS report; every
  ``EVAL_CHECKPOINT_EVERY`` passes the model is saved and loaded back.

``setup_once`` does one set-up of a workload; ``run.py`` times it in fresh
processes for ``setup_s``.  The benchmark's own checks of a checkpoint round
trip (the bit-for-bit compare and removing the file) are not counted in the
set-up time or the timed window.  Each operation that raised or failed a
check is counted.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import resource
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

import numpy as np

from vit2img import data, metrics, models, tensor as T, training

IMAGE_SIZE = 64
REFERENCE_SEED = 0      # the seed whose first results are recorded below
REFERENCE_RTOL = 1e-7   # loose enough for float64 reassociation by later kernels
EVAL_SET = 16
BN_WARMUP_CALLS = 3     # seeded train-mode forwards that populate eval-c's BN stats
BN_WARMUP_BATCH = 4


@dataclass(frozen=True)
class TrainSpec:
    dataset: str
    batch_size: int
    model: dict
    checkpoint_every: int        # steps between checkpoint round trips
    replay_steps: int            # first steps replayed bit for bit
    reference_losses: tuple      # first losses at REFERENCE_SEED, recorded at 90d0157
    tail_quantile: float


TRAIN_SPECS = {
    "train-c": TrainSpec(
        dataset="shapes", batch_size=4,
        model=dict(variant="C", task="segmentation", out_channels=3),
        checkpoint_every=6, replay_steps=2,
        reference_losses=(1.766496491530788, 1.5249222763841357),
        # Fixed for comparability between runs; a 45 s run has ~40 steps,
        # ~10 of them beyond p75, fewer on a slow host.
        tail_quantile=0.75,
    ),
    "train-b": TrainSpec(
        dataset="depth", batch_size=2,
        model=dict(variant="B", task="regression", out_channels=1, skip_projection_channels=16),
        checkpoint_every=8, replay_steps=3,
        reference_losses=(1.1163390841388743, 0.8284699511601019, 0.6729956172237326),
        tail_quantile=0.9,
    ),
}
EVAL_MODEL = dict(variant="C", task="segmentation", out_channels=3)
# (sum, sum of squares) of the first eval output at REFERENCE_SEED, recorded at 90d0157.
EVAL_REFERENCE = (-217.59534733074653, 10.627695758880378)
EVAL_TAIL_QUANTILE = 0.9
# Passes between checkpoint round trips, which spread the checkpoint samples
# over the window as train-c's periodic saves do.
EVAL_CHECKPOINT_EVERY = 4


@dataclass
class Result:
    """Raw samples of one workload run plus its operation counts."""

    setup_s: list = field(default_factory=list)   # filled by run.py
    step_ms: list = field(default_factory=list)
    ckpt_save_ms: list = field(default_factory=list)
    ckpt_load_ms: list = field(default_factory=list)
    report_ms: list = field(default_factory=list)
    images: int = 0
    window_s: float = 0.0
    peak_rss_mb: float = 0.0     # ru_maxrss after the window, or before its first checkpoint
    unclocked_s: float = 0.0     # checking work inside timed regions, which they subtract
    tail_quantile: float = 0.9
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        """Count one operation; ``ok`` is false when it failed a check."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


class _Stop(Exception):
    """Raised from the record hook to end the timed window."""


def derive_seeds(seed: int) -> tuple[int, int, int]:
    """(data, model, shuffle) seeds of one workload seed."""
    return tuple(int(s) for s in np.random.SeedSequence(seed).generate_state(3))


@contextlib.contextmanager
def _checkpoint_file(name: str, workdir: str):
    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, f"{name}-{os.getpid()}.ckpt")
    try:
        yield path
    finally:
        if os.path.exists(path):
            os.remove(path)


def run(name: str, seed: int, seconds: float, res: Result, workdir: str, tracer=None) -> Result:
    """Run workload ``name`` for ``seconds`` of timed operations into ``res``."""
    with _checkpoint_file(name, workdir) as ckpt:
        if name == "eval-c":
            _run_eval(seed, seconds, res, ckpt, tracer)
        else:
            _run_train(TRAIN_SPECS[name], seed, seconds, res, ckpt, tracer)
    return res


def setup_once(name: str, seed: int, res: Result, workdir: str) -> None:
    """One set-up of workload ``name``: data synthesis and model build, and
    for eval-c the batch-norm warm-up and a checkpoint round trip."""
    with _checkpoint_file(name, workdir) as ckpt:
        if name == "eval-c":
            _eval_setup(seed, ckpt, res)
        else:
            _train_setup(TRAIN_SPECS[name], seed)


# ---------------------------------------------------------------------------
# shared pieces


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(np.ascontiguousarray(a).view(np.uint8),
                               np.ascontiguousarray(b).view(np.uint8)))


def _same_model(gen, loaded) -> bool:
    params = dict(loaded.named_parameters())
    buffers = dict(loaded.named_buffers())
    return (params.keys() == dict(gen.named_parameters()).keys()
            and buffers.keys() == dict(gen.named_buffers()).keys()
            and all(_bits_equal(p.data, params[n].data) for n, p in gen.named_parameters())
            and all(_bits_equal(b, buffers[n]) for n, b in gen.named_buffers()))


def _same_state(state: training.AdamState, loaded: Optional[dict]) -> bool:
    if loaded is None or loaded["t"] != state.t or loaded["moments"].keys() != state.moments.keys():
        return False
    return all(_bits_equal(m, loaded["moments"][n][0]) and _bits_equal(v, loaded["moments"][n][1])
               for n, (m, v) in state.moments.items())


def _roundtrip(gen, state, path, res: Result):
    """Save ``gen`` (with Adam ``state`` when given), load it back, check bits."""
    t0 = perf_counter()
    models.save_checkpoint(gen, path, state.as_dict() if state is not None else None)
    t1 = perf_counter()
    loaded = models.load_checkpoint(path, with_state=state is not None)
    t2 = perf_counter()
    res.ckpt_save_ms.append((t1 - t0) * 1e3)
    res.ckpt_load_ms.append((t2 - t1) * 1e3)
    # Each save makes a new file: ext4 starts writing a truncated-and-rewritten
    # file back to disk at close, which would put the disk's noise into saves.
    os.remove(path)
    if state is not None:
        loaded, saved_state = loaded
        ok = _same_model(gen, loaded) and _same_state(state, saved_state)
    else:
        ok = _same_model(gen, loaded)
    res.op(ok, f"checkpoint {path} did not load back bit for bit")
    res.unclocked_s += perf_counter() - t2
    return loaded


def _eval_outputs(gen, samples, res: Result, tracer=None) -> list:
    """Batch-1 ``no_grad`` eval forwards, timed one by one into ``res.step_ms``."""
    outs = []
    with T.no_grad():
        for s in samples:
            if tracer is not None:
                tracer.begin_step(len(res.step_ms) + 1)
            t0 = perf_counter()
            out = gen.forward(s.input[None], "eval").data[0]
            res.step_ms.append((perf_counter() - t0) * 1e3)
            if tracer is not None:
                tracer.end_step()
            res.op(bool(np.all(np.isfinite(out))), "eval forward produced a non-finite value")
            outs.append(out)
    return outs


def _report(samples, outputs) -> tuple[float, float, float]:
    """SSIM + FID + IS of segmentation outputs, as ``vit2img eval`` computes
    them with its default (pixel) extractor and seed 0."""
    targets = [data.render_class_map(s.target) for s in samples]
    rendered = [data.render_class_map(np.argmax(o, axis=-1)) for o in outputs]
    extractor = metrics.make_extractor("pixel", IMAGE_SIZE, 0)
    ssim = float(np.mean([metrics.ssim(o, t) for o, t in zip(rendered, targets)]))
    fid = metrics.fid(targets, rendered, extractor)
    inception = metrics.inception_score(rendered, metrics.TinyClassifier(n_classes=8, seed=0))
    return ssim, fid, inception


def _timed_report(samples, outputs, res: Result, first):
    """One report into ``res.report_ms``; it must equal ``first`` bit for bit."""
    t0 = perf_counter()
    values = _report(samples, outputs)
    res.report_ms.append((perf_counter() - t0) * 1e3)
    ok = all(math.isfinite(v) for v in values) and (first is None or values == first)
    res.op(ok, f"report {values} differs from the first {first}")
    return values


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rel_close(value: float, reference: float) -> bool:
    return abs(value - reference) <= REFERENCE_RTOL * abs(reference)


# ---------------------------------------------------------------------------
# train-c / train-b


def _train_setup(spec: TrainSpec, seed: int):
    data_seed, model_seed, _ = derive_seeds(seed)
    samples = data.make_synthetic(spec.dataset, 8, IMAGE_SIZE, data_seed)
    gen = models.build_generator(models.ModelConfig(seed=model_seed, **spec.model))
    return samples, gen


def _first_losses(spec: TrainSpec, samples, gen, seed: int, steps: int) -> list:
    losses = []
    training.train(gen, samples, epochs=steps, batch_size=spec.batch_size,
                   loss_kind=training.loss_kind_for_task(gen.config.task),
                   seed=derive_seeds(seed)[2], max_steps=steps,
                   record_hook=lambda rec: losses.append(rec.loss))
    return losses


def _run_train(spec: TrainSpec, seed: int, seconds: float, res: Result, ckpt: str, tracer):
    res.tail_quantile = spec.tail_quantile
    ref = _first_losses(spec, *_train_setup(spec, REFERENCE_SEED), REFERENCE_SEED,
                        len(spec.reference_losses))
    res.op(all(map(_rel_close, ref, spec.reference_losses)),
           f"first losses {ref} differ from the recorded {spec.reference_losses}")
    replay = _first_losses(spec, *_train_setup(spec, seed), seed, spec.replay_steps)
    samples, gen = _train_setup(spec, seed)

    state = training.AdamState()
    start, unclocked = perf_counter(), res.unclocked_s
    last = start

    def hook(rec):
        nonlocal last
        now = perf_counter()
        if tracer is not None:
            tracer.end_step()
        res.step_ms.append((now - last) * 1e3)
        ok = math.isfinite(rec.loss) and (rec.step > len(replay) or rec.loss == replay[rec.step - 1])
        res.op(ok, f"step {rec.step}: loss {rec.loss!r} is non-finite or differs from its replay")
        window = now - start - (res.unclocked_s - unclocked)
        if window >= seconds:
            res.window_s = window
            raise _Stop
        if rec.step % spec.checkpoint_every == 0:
            # A load briefly holds two models and the file's bytes; read the
            # training peak before the first one sets a higher mark.
            res.peak_rss_mb = res.peak_rss_mb or _peak_rss_mb()
            _roundtrip(gen, state, ckpt, res)
        if tracer is not None:
            # Traced steps start at 2: step 1 also holds the opening of train().
            tracer.begin_step(rec.step + 1)
        last = perf_counter()

    try:
        training.train(gen, samples, epochs=2 ** 62, batch_size=spec.batch_size,
                       loss_kind=training.loss_kind_for_task(gen.config.task),
                       seed=derive_seeds(seed)[2], record_hook=hook, state=state)
    except _Stop:
        pass
    finally:
        if tracer is not None:
            tracer.end_step()
    res.images = len(res.step_ms) * spec.batch_size
    res.peak_rss_mb = res.peak_rss_mb or _peak_rss_mb()
    if not res.ckpt_save_ms:  # a window too short for a periodic round trip
        _roundtrip(gen, state, ckpt, res)


# ---------------------------------------------------------------------------
# eval-c


def _eval_setup(seed: int, ckpt: str, res: Result):
    data_seed, model_seed, _ = derive_seeds(seed)
    samples = data.make_synthetic("shapes", EVAL_SET, IMAGE_SIZE, data_seed)
    gen = models.build_generator(models.ModelConfig(seed=model_seed, **EVAL_MODEL))
    rng = np.random.default_rng(model_seed)
    with T.no_grad():
        for _ in range(BN_WARMUP_CALLS):
            idx = rng.choice(len(samples), BN_WARMUP_BATCH, replace=False)
            gen.forward(np.stack([samples[i].input for i in idx]), "train")
    return samples, _roundtrip(gen, None, ckpt, res)


def _run_eval(seed: int, seconds: float, res: Result, ckpt: str, tracer):
    res.tail_quantile = EVAL_TAIL_QUANTILE
    ref_samples, ref_gen = _eval_setup(REFERENCE_SEED, ckpt, res)
    with T.no_grad():
        out = ref_gen.forward(ref_samples[0].input[None], "eval").data
    got = (float(out.sum()), float((out * out).sum()))
    res.op(all(map(_rel_close, got, EVAL_REFERENCE)),
           f"first eval output (sum, sum of squares) {got} differs from the recorded {EVAL_REFERENCE}")
    del ref_gen
    samples, gen = _eval_setup(seed, ckpt, res)

    first = None
    start, unclocked = perf_counter(), res.unclocked_s
    for passes in itertools.count(1):
        outputs = _eval_outputs(gen, samples, res, tracer)
        first = _timed_report(samples, outputs, res, first)
        res.images += len(samples)
        res.window_s = perf_counter() - start - (res.unclocked_s - unclocked)
        if res.window_s >= seconds:
            break
        if passes % EVAL_CHECKPOINT_EVERY == 0:
            _roundtrip(gen, None, ckpt, res)
    res.peak_rss_mb = _peak_rss_mb()
