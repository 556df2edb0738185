import gc
import tracemalloc

import numpy as np
import pytest

import vit2img.tensor as T
import vit2img.training as training
from conftest import closure_arrays, closure_values
from vit2img.data import synth_depth_dataset, synth_segmentation_dataset
from vit2img.errors import ContractError, DataError, DimensionError, NumericError
from vit2img.layers import BATCH_NORM_MOMENTUM, BatchNorm
from vit2img.models import ModelConfig, build_generator
from vit2img.tensor import Tensor
from vit2img.training import (AdamState, adam_step, compute_loss, mae_loss,
                              refresh_batch_norm_stats,
                              sparse_categorical_crossentropy, train)


def adam_reference(p0, grads, lr=2e-4, b1=0.5, b2=0.999, eps=1e-8):
    """Independent Adam trace: the update equations written out directly."""
    p = float(p0)
    m = v = 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
        out.append(p)
    return out


def tiny_model(task="segmentation", out_channels=3, seed=11):
    return build_generator(ModelConfig(
        variant="C", image_size=16, patch_size=4, embed_dim=8, num_heads=2,
        ffn_width=8, num_transformer_layers=1, decoder_schedule=((12, 12), (6, 6)),
        out_channels=out_channels, task=task, seed=seed))


def tiny_dataset(n=4, size=16, seed=3):
    return synth_segmentation_dataset(n, image_size=size, classes=3, seed=seed)


# --- sparse categorical crossentropy -----------------------------------------------

def test_scc_uniform_logits_is_ln_k():
    logits = np.zeros((1, 2, 2, 3))
    labels = np.zeros((1, 2, 2), dtype=int)
    loss = sparse_categorical_crossentropy(Tensor(logits), labels)
    np.testing.assert_allclose(loss.item(), 1.098612288668109691395245, rtol=1e-15)


def test_scc_saturated_correct_class():
    logits = np.zeros((1, 1, 1, 3))
    logits[0, 0, 0, 1] = 20.0
    loss = sparse_categorical_crossentropy(Tensor(logits), np.ones((1, 1, 1), dtype=int))
    assert loss.item() < 1e-8


def test_scc_matches_per_pixel_oracle(rng):
    logits = rng.normal(scale=3, size=(2, 2, 2, 3))
    labels = rng.integers(0, 3, size=(2, 2, 2))
    total = 0.0
    for n in range(2):
        for i in range(2):
            for j in range(2):
                row = logits[n, i, j]
                p = np.exp(row - row.max())
                p /= p.sum()
                total += -np.log(p[labels[n, i, j]])
    expected = total / 8.0
    loss = sparse_categorical_crossentropy(Tensor(logits), labels)
    np.testing.assert_allclose(loss.item(), expected, atol=1e-12)


def test_scc_out_of_range_label_names_pixel():
    logits = np.zeros((1, 2, 2, 3))
    labels = np.zeros((1, 2, 2), dtype=int)
    labels[0, 1, 0] = 5
    with pytest.raises(DataError, match=r"\(0, 1, 0\)"):
        sparse_categorical_crossentropy(Tensor(logits), labels)


def test_scc_nonnegative_random(rng):
    for _ in range(5):
        logits = rng.normal(scale=10, size=(1, 3, 3, 4))
        labels = rng.integers(0, 4, size=(1, 3, 3))
        assert sparse_categorical_crossentropy(Tensor(logits), labels).item() >= 0.0


def test_scc_gradient(rng):
    from conftest import check_gradients
    labels = rng.integers(0, 3, size=(1, 2, 2))
    check_gradients(lambda lg: sparse_categorical_crossentropy(lg, labels),
                    [rng.normal(size=(1, 2, 2, 3))], rtol=1e-5)


# --- mae ---------------------------------------------------------------------------

def test_mae_identical_is_zero(rng):
    x = rng.normal(size=(2, 3))
    assert mae_loss(Tensor(x), Tensor(x.copy())).item() == 0.0


def test_mae_constant_offset():
    a = np.zeros((2, 2))
    b = np.full((2, 2), -0.75)
    np.testing.assert_allclose(mae_loss(Tensor(a), Tensor(b)).item(), 0.75, rtol=1e-15)


def test_mae_matches_elementwise_oracle(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    np.testing.assert_allclose(mae_loss(Tensor(a), Tensor(b)).item(),
                               np.abs(a - b).mean(), atol=1e-15)


def test_mae_shape_mismatch():
    with pytest.raises(DimensionError):
        mae_loss(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))


# --- adam --------------------------------------------------------------------------

def test_adam_first_step_closed_form():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([1.0])
    state = AdamState()
    adam_step([("p", p)], state)
    # m_hat = 1, v_hat = 1 on the first unit-gradient step
    expected = 1.0 - 2e-4 * 1.0 / (1.0 + 1e-8)
    np.testing.assert_allclose(p.data, [expected], rtol=1e-14)


def test_adam_zero_gradient_is_noop():
    p = Tensor(np.arange(4.0), requires_grad=True)
    before = p.data.copy()
    state = AdamState()
    for _ in range(3):
        p.grad = np.zeros(4)
        adam_step([("p", p)], state)
    np.testing.assert_array_equal(p.data, before)
    assert state.t == 3


def test_adam_missing_grad_names_parameter():
    p = Tensor(np.zeros(2), requires_grad=True)
    with pytest.raises(ContractError, match="head.bias"):
        adam_step([("head.bias", p)], AdamState())


def test_adam_ten_step_trace_matches_reference():
    # minimize f(p) = p^2 from p = 1; gradient 2p
    p = Tensor(np.array([1.0]), requires_grad=True)
    state = AdamState()
    mine = []
    for _ in range(10):
        p.grad = np.array([2.0 * p.data[0]])
        adam_step([("p", p)], state)
        mine.append(p.data[0])
    # independent trajectory: the update equations written out inline
    ref = []
    pv, m, v = 1.0, 0.0, 0.0
    for t in range(1, 11):
        g = 2.0 * pv
        m = 0.5 * m + 0.5 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1 - 0.5 ** t)
        v_hat = v / (1 - 0.999 ** t)
        pv = pv - 2e-4 * m_hat / (np.sqrt(v_hat) + 1e-8)
        ref.append(pv)
    np.testing.assert_allclose(mine, ref, rtol=0, atol=1e-12)


def test_adam_reference_helper_agrees():
    grads = [1.0, -0.5, 0.25, 2.0]
    p = Tensor(np.array([0.3]), requires_grad=True)
    state = AdamState()
    mine = []
    for g in grads:
        p.grad = np.array([g])
        adam_step([("p", p)], state)
        mine.append(p.data[0])
    np.testing.assert_allclose(mine, adam_reference(0.3, grads), atol=1e-12)


# --- training loop -----------------------------------------------------------------

def test_train_step_count_arithmetic():
    g = tiny_model()
    data = tiny_dataset(4)
    _, records = train(g, data, epochs=1, batch_size=2, loss_kind="scc", seed=0)
    assert len(records) == 2
    assert [r.step for r in records] == [1, 2]


def test_train_determinism_bitwise(tmp_path):
    outs = []
    for run in range(2):
        g = tiny_model()
        _, records = train(g, tiny_dataset(4), epochs=3, batch_size=2,
                           loss_kind="scc", seed=9)
        outs.append((records[-1].loss, np.concatenate([p.data.ravel() for p in g.parameters()])))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1].tobytes() == outs[1][1].tobytes()


def test_train_loss_decreases_smoke():
    g = tiny_model()
    data = tiny_dataset(8)
    _, records = train(g, data, epochs=100, batch_size=4, loss_kind="scc",
                       seed=1, max_steps=200)
    assert records[-1].loss < records[0].loss


def test_single_step_descent_direction(rng, monkeypatch):
    # for a small enough lr, one step on a fixed batch reduces that batch's loss
    g = tiny_model(seed=21)
    data = tiny_dataset(2, seed=5)
    inputs = np.stack([s.input for s in data])
    targets = np.stack([s.target for s in data])
    loss0 = compute_loss(g, inputs, targets, "scc", "train")
    T.backward(loss0)
    monkeypatch.setattr(training, "ADAM_LR", 1e-5)
    adam_step(list(g.named_parameters()), AdamState())
    g.zero_grad()
    with T.no_grad():
        loss1 = compute_loss(g, inputs, targets, "scc", "train")
    assert loss1.item() < loss0.item()


def test_train_nan_loss_aborts_with_batch_index():
    g = tiny_model(task="regression", out_channels=1)
    from vit2img.data import synth_depth_dataset
    data = synth_depth_dataset(4, image_size=16, seed=2)
    data[1].target[...] = np.nan
    data[2].target[...] = np.nan
    data[3].target[...] = np.nan
    with pytest.raises(NumericError, match="step"):
        train(g, data, epochs=1, batch_size=4, loss_kind="mae", seed=0)


def test_train_task_loss_compatibility():
    g = tiny_model(task="segmentation")
    with pytest.raises(ContractError):
        train(g, tiny_dataset(2), epochs=1, batch_size=2, loss_kind="mae", seed=0)


def test_train_empty_dataset():
    with pytest.raises(DataError):
        train(tiny_model(), [], epochs=1, batch_size=2, loss_kind="scc", seed=0)


def tape_objects():
    """Every live tape node, and every Tensor that links to one."""
    return [o for o in gc.get_objects()
            if isinstance(o, T._Node) or isinstance(o, Tensor) and o._node is not None]


def test_train_drops_each_graph_before_the_next_step():
    # Graphs that some other test left alive are not this loop's; holding
    # them in `before` keeps their ids from being reused.
    gc.collect()
    before = tape_objects()
    known = {id(o) for o in before}
    live = []

    def hook(rec):
        gc.collect()
        new = [o for o in tape_objects() if id(o) not in known]
        live.append((sum(isinstance(o, Tensor) for o in new), sum(isinstance(o, T._Node) for o in new)))

    train(tiny_model(), tiny_dataset(4), epochs=1, batch_size=2, loss_kind="scc",
          seed=0, record_hook=hook)
    assert live == [(0, 0), (0, 0)]


def tape_nodes(loss):
    """Every node of the tape under ``loss``."""
    nodes, stack, seen = [], [loss._node], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack += [p for p in node.parents if isinstance(p, T._Node)]
    return nodes


def test_train_forward_keeps_only_what_backward_reads():
    # A train-mode forward leaves alive the arrays its backward closures read
    # and, as slack, Python objects of at most 2 KiB per node (the node, its
    # closure and cells, shapes); nothing that only linked two ops.
    gen = tiny_model()
    inputs, targets = training._batch_arrays(tiny_dataset(4), "segmentation")
    before = {id(a) for a in (inputs, *(p.data for p in gen.parameters()))}
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = compute_loss(gen, inputs, targets, "scc", "train")
        gc.collect()
        alive = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    nodes = tape_nodes(loss)
    read = {}
    for node in nodes:
        for a in closure_arrays(node.backward):
            while isinstance(a.base, np.ndarray):
                a = a.base
            if id(a) not in before:
                read[id(a)] = a.nbytes
    assert len(nodes) > 50
    assert alive <= sum(read.values()) + 2048 * len(nodes), (alive, sum(read.values()), len(nodes))


@pytest.mark.parametrize("override", [{"epochs": 0}, {"epochs": -1}, {"batch_size": 0},
                                      {"max_steps": 0}, {"max_steps": -2}])
def test_train_rejects_nonpositive_budget(override):
    kwargs = {"epochs": 1, "batch_size": 2, "max_steps": None, **override}
    with pytest.raises(ContractError, match=next(iter(override))):
        train(tiny_model(), tiny_dataset(2), loss_kind="scc", seed=0, **kwargs)


def test_train_writes_checkpoint_and_log(tmp_path):
    from vit2img.models import load_checkpoint
    from vit2img.training import write_train_log
    g = tiny_model()
    ckpt = tmp_path / "model.ckpt"
    _, records = train(g, tiny_dataset(2), epochs=2, batch_size=2,
                       loss_kind="scc", seed=0, checkpoint_path=ckpt)
    assert ckpt.exists()
    loaded = load_checkpoint(ckpt)
    x = tiny_dataset(1)[0].input[None]
    assert loaded.forward(x, "eval").data.tobytes() == g.forward(x, "eval").data.tobytes()
    log = tmp_path / "train.log"
    write_train_log(records, log)
    lines = [ln for ln in log.read_text().splitlines() if not ln.startswith("#")]
    assert len(lines) == len(records)
    step, loss, ms, lr = lines[0].split("\t")
    assert int(step) == 1 and float(lr) == 2e-4 and float(ms) >= 0.0


def test_refresh_batch_norm_stats_converges_buffers():
    g = tiny_model()
    data = tiny_dataset(4)
    params_before = np.concatenate([p.data.ravel() for p in g.parameters()]).copy()
    refresh_batch_norm_stats(g, data, batch_size=4, passes=400, seed=0)
    params_after = np.concatenate([p.data.ravel() for p in g.parameters()])
    assert params_before.tobytes() == params_after.tobytes()  # weights untouched
    # with a fixed full batch the cumulative average equals that batch's statistics
    inputs = np.stack([s.input for s in data])
    with T.no_grad():
        train_out = g.forward(inputs, "train").data
        eval_out = g.forward(inputs, "eval").data
    np.testing.assert_allclose(eval_out, train_out, atol=1e-10)


def batch_norms(g):
    return [m for m in g.modules() if isinstance(m, BatchNorm)]


def bn_buffers(g):
    return {name: arr.copy() for name, arr in g.named_buffers()
            if not name.endswith("batches_tracked")}


def test_refresh_batch_norm_stats_is_equal_weight_average():
    # three passes of batch 1 see each of the three samples once, in some
    # order; every buffer must then be the plain mean of the three
    # single-sample statistics, whatever that order was
    data = tiny_dataset(3)
    g = tiny_model()
    refresh_batch_norm_stats(g, data, batch_size=1, passes=3, seed=0)
    singles = []
    for sample in data:
        one = tiny_model()
        refresh_batch_norm_stats(one, [sample], batch_size=1, passes=1, seed=0)
        singles.append(bn_buffers(one))
    got = bn_buffers(g)
    assert len(got) == 2 * len(batch_norms(g)) > 0
    for name, arr in got.items():
        expected = sum(single[name] for single in singles) / 3
        np.testing.assert_allclose(arr, expected, rtol=0, atol=1e-12, err_msg=name)


def test_refresh_batch_norm_stats_partition_matches_full_batch():
    # two batches of 4 partition the 8 samples, so the first batch norm (whose
    # input depends on one sample at a time) averages to the mean over all 8;
    # later ones see inputs normalized with different batch statistics
    data = tiny_dataset(8)
    halves, full = tiny_model(), tiny_model()
    refresh_batch_norm_stats(halves, data, batch_size=4, passes=2, seed=0)
    refresh_batch_norm_stats(full, data, batch_size=8, passes=1, seed=0)
    name = "decoder.stages.0.bn.running_mean"
    np.testing.assert_allclose(bn_buffers(halves)[name], bn_buffers(full)[name],
                               rtol=0, atol=1e-12)


def test_refresh_batch_norm_stats_discards_old_buffers():
    data = tiny_dataset(4)
    clean, dirty = tiny_model(), tiny_model()
    for bn in batch_norms(dirty):
        bn.running_mean.fill(1e6)
        bn.running_var.fill(np.nan)
    refresh_batch_norm_stats(clean, data, batch_size=3, passes=5, seed=2)
    refresh_batch_norm_stats(dirty, data, batch_size=3, passes=5, seed=2)
    clean_bufs, dirty_bufs = bn_buffers(clean), bn_buffers(dirty)
    for name, arr in clean_bufs.items():
        assert arr.tobytes() == dirty_bufs[name].tobytes(), name
    for bn in batch_norms(dirty):
        assert bn.momentum == BATCH_NORM_MOMENTUM
        assert bn.batches_tracked[0] == 5


def test_refresh_batch_norm_stats_restores_momentum_when_forward_raises():
    g = tiny_model()
    with pytest.raises(DimensionError):
        refresh_batch_norm_stats(g, tiny_dataset(4, size=8), batch_size=2, passes=3, seed=0)
    assert all(bn.momentum == BATCH_NORM_MOMENTUM for bn in batch_norms(g))


def test_refresh_batch_norm_stats_empty_dataset():
    with pytest.raises(DataError):
        refresh_batch_norm_stats(tiny_model(), [], batch_size=4, passes=3, seed=0)


@pytest.mark.parametrize("batch_size,passes", [(0, 3), (-1, 3), (4, 0), (4, -1)])
def test_refresh_batch_norm_stats_rejects_nonpositive_sizes(batch_size, passes):
    with pytest.raises(ContractError):
        refresh_batch_norm_stats(tiny_model(), tiny_dataset(4), batch_size=batch_size,
                                 passes=passes, seed=0)


# --- golden training trajectory ------------------------------------------------------

TINY_VIT = dict(patch_size=4, embed_dim=8, num_heads=2, ffn_width=8, num_transformer_layers=1,
                decoder_schedule=((12, 12), (6, 6)))
TRAJECTORY_CONFIGS = {
    "A": dict(TINY_VIT, variant="A", out_channels=1, task="regression"),
    "B": dict(TINY_VIT, variant="B", skip_projection_channels=4, out_channels=3,
              task="segmentation"),
    "C": dict(TINY_VIT, variant="C", out_channels=3, task="segmentation"),
    "unet": dict(variant="unet", out_channels=3, task="segmentation"),
    "autoencoder": dict(variant="autoencoder", out_channels=1, task="regression"),
}
# Per variant: the loss of each of 3 steps of train() (batch 2 over 4 samples,
# so one reshuffle) as float.hex, then (sum, sum of squares) of the parameters,
# the buffers, and Adam's first and second moments after the last step.
GOLDEN_TRAJECTORY = {
    "A": (["0x1.4de98be950962p-1", "0x1.70c35b2187e4bp-1", "0x1.4d4c145f9c472p-1"],
          [(24.69421130276249, 123.96513836595764), (23.547701200947248, 35.1128543364573),
           (-3.745518946567591, 1.1766935160288874), (0.004919020187393709, 7.313155732899367e-07)]),
    "B": (["0x1.2693b1d5f856ap+0", "0x1.36c625de04d50p+0", "0x1.19419e92a2b40p+0"],
          [(11.745120983538811, 136.5705697766956), (23.54158651275353, 35.10461023226493),
           (-1.2506761515431464, 5.43940624580423), (0.021885459826820608, 4.558715399003889e-06)]),
    "C": (["0x1.4f42bdf11c7e0p+0", "0x1.378a698967d62p+0", "0x1.472f9ecf34c9dp+0"],
          [(57.817564793596375, 198.30886613302724), (70.98229771596708, 105.91992178478806),
           (4.445659613703204, 4.586711433578436), (0.018524903613280203, 1.5941042460905608e-06)]),
    "autoencoder": (["0x1.38031d114bd18p-1", "0x1.1ea6d9f219308p-1", "0x1.e16db39ff91d2p-2"],
                    [(420.3599915045768, 764.4757230596416), (421.35254309976017, 441.7138496984765),
                     (-19.465042494648575, 4.2042142311457695),
                     (0.0224098714921124, 6.674176242945943e-07)]),
    "unet": (["0x1.0b586702c187cp+0", "0x1.fdd19e935749fp-1", "0x1.8491c2b0e6d29p-1"],
             [(418.3697627787496, 776.5584548998936), (421.60664418676447, 442.11417310770156),
              (-17.326638577092123, 4.604874338206447), (0.02449972747183446, 9.320984179652978e-08)]),
}


def trajectory_setup(variant):
    """A tiny ``variant`` at 16 px, 4 samples of its task and its loss kind."""
    cfg = TRAJECTORY_CONFIGS[variant]
    gen = build_generator(ModelConfig(image_size=16, seed=7, **cfg))
    if cfg["task"] == "segmentation":
        return gen, tiny_dataset(4), "scc"
    return gen, synth_depth_dataset(4, image_size=16, seed=3), "mae"


def trajectory(variant):
    gen, data, loss_kind = trajectory_setup(variant)
    state = AdamState()
    _, records = train(gen, data, epochs=2, batch_size=2, loss_kind=loss_kind, seed=5,
                       max_steps=3, state=state)
    groups = [[p.data for p in gen.parameters()], [a for _, a in gen.named_buffers()],
              [m for m, _ in state.moments.values()], [v for _, v in state.moments.values()]]
    sums = []
    for arrays in groups:
        flat = np.concatenate([a.ravel() for a in arrays])
        sums.append((float(flat.sum()), float((flat * flat).sum())))
    return [r.loss.hex() for r in records], sums


@pytest.mark.parametrize("variant", sorted(TRAJECTORY_CONFIGS))
def test_golden_training_trajectory(variant):
    # Pins a multi-step run against recorded values: a change to Adam's order
    # of operations, the batch-norm EMA, the shuffle or the tape that is the
    # same on every run still moves these.
    losses, sums = trajectory(variant)
    want_losses, want_sums = GOLDEN_TRAJECTORY[variant]
    assert losses == want_losses
    np.testing.assert_allclose(sums, want_sums, rtol=1e-10)


@pytest.mark.parametrize("variant", sorted(TRAJECTORY_CONFIGS))
def test_backward_closures_capture_no_tensor(variant):
    # A closure holding a Tensor would keep that Tensor's array alive for the
    # whole tape, read or not.
    gen, data, loss_kind = trajectory_setup(variant)
    inputs, targets = training._batch_arrays(data[:2], gen.config.task)
    nodes = tape_nodes(compute_loss(gen, inputs, targets, loss_kind, "train"))
    assert len(nodes) > 10
    for node in nodes:
        held = [v for v in closure_values(node.backward) if isinstance(v, Tensor)]
        assert not held, (node.backward, held)
