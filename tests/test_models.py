import hashlib
import struct
import sys
import threading
import tracemalloc
import zlib
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import vit2img.tensor as T
from conftest import record_heads
from vit2img.errors import (CheckpointFormatError, CheckpointMismatchError,
                            CheckpointVersionError, ConfigError, DimensionError)
from vit2img.models import (KIND_PARAM, ModelConfig, _pack_record, _RunningCrc, build_generator,
                            load_checkpoint, save_checkpoint)
from vit2img.training import AdamState, adam_step, mae_loss


def tiny_config(**kw):
    base = dict(variant="C", image_size=16, patch_size=4, embed_dim=8,
                num_heads=2, ffn_width=8, num_transformer_layers=1,
                decoder_schedule=((12, 12), (6, 6)), out_channels=2,
                task="regression", seed=7)
    base.update(kw)
    return ModelConfig(**base)


def parameter_count(gen):
    return sum(p.size for p in gen.parameters())


def expected_manifest_c_default():
    """Shape manifest hand-derived from the default architecture:
    16x16 patches on 64x64 RGB, embed 64, 2 heads, ffn 32, 4 layers,
    decoder 512-512-256-256-64-64-32-32 then a 3x3 output conv."""
    m = {
        "encoder.patch.projection": (768, 64),
        "encoder.patch.bias": (64,),
        "encoder.patch.positions": (16, 64),
    }
    for i in range(4):
        p = f"encoder.layers.{i}"
        for h in range(2):
            for tag in ("wq", "wk", "wv"):
                m[f"{p}.attn.heads.{h}.{tag}"] = (64, 32)
        m[f"{p}.attn.wo"] = (64, 64)
        m[f"{p}.ln1.gamma"] = (64,)
        m[f"{p}.ln1.beta"] = (64,)
        m[f"{p}.ffn.fc1.weight"] = (64, 32)
        m[f"{p}.ffn.fc1.bias"] = (32,)
        m[f"{p}.ffn.fc2.weight"] = (32, 64)
        m[f"{p}.ffn.fc2.bias"] = (64,)
        m[f"{p}.ln2.gamma"] = (64,)
        m[f"{p}.ln2.beta"] = (64,)
    schedule = [(512, 512), (256, 256), (64, 64), (32, 32)]
    in_ch = 64
    for i, (ct, rl) in enumerate(schedule):
        p = f"decoder.stages.{i}"
        m[f"{p}.ct.kernel"] = (4, 4, ct, in_ch)
        m[f"{p}.ct.bias"] = (ct,)
        m[f"{p}.bn.gamma"] = (ct,)
        m[f"{p}.bn.beta"] = (ct,)
        m[f"{p}.res.conv1.kernel"] = (3, 3, ct, rl)
        m[f"{p}.res.conv1.bias"] = (rl,)
        m[f"{p}.res.bn1.gamma"] = (rl,)
        m[f"{p}.res.bn1.beta"] = (rl,)
        m[f"{p}.res.conv2.kernel"] = (3, 3, rl, rl)
        m[f"{p}.res.conv2.bias"] = (rl,)
        m[f"{p}.res.bn2.gamma"] = (rl,)
        m[f"{p}.res.bn2.beta"] = (rl,)
        in_ch = rl
    m["head.conv.kernel"] = (3, 3, 32, 3)
    m["head.conv.bias"] = (3,)
    return m


# --- construction -----------------------------------------------------------------

def test_generator_c_default_golden_manifest():
    g = build_generator(ModelConfig(variant="C", seed=0))
    assert g.shape_manifest() == expected_manifest_c_default()


def test_variant_a_strictly_fewer_params():
    a = build_generator(ModelConfig(variant="A", seed=3))
    c = build_generator(ModelConfig(variant="C", seed=3))
    assert parameter_count(a) < parameter_count(c)
    a_names = set(a.shape_manifest())
    c_names = set(c.shape_manifest())
    assert not any(".res." in n for n in a_names)
    assert a_names < c_names  # structural subset


def test_same_seed_same_initial_forward(rng):
    x = rng.uniform(-1, 1, size=(1, 16, 16, 3))
    out1 = build_generator(tiny_config()).forward(x, "eval").data
    out2 = build_generator(tiny_config()).forward(x, "eval").data
    assert out1.tobytes() == out2.tobytes()


def test_invalid_configs_rejected():
    with pytest.raises(ConfigError, match="variant"):
        ModelConfig(variant="D")
    with pytest.raises(ConfigError, match="divisible"):
        ModelConfig(image_size=60, patch_size=16)
    with pytest.raises(ConfigError, match="num_heads"):
        ModelConfig(embed_dim=62, num_heads=4)
    with pytest.raises(ConfigError, match="schedule"):
        ModelConfig(patch_size=16, decoder_schedule=((8, 8),))
    with pytest.raises(ConfigError, match="variant B"):
        ModelConfig(variant="C", skip_projection_channels=8)
    with pytest.raises(ConfigError, match="task"):
        ModelConfig(task="detection")


def test_config_is_checked_as_it_is_made_and_never_changes():
    cfg = tiny_config()
    with pytest.raises(ConfigError, match="divisible"):
        replace(cfg, patch_size=5)
    with pytest.raises(FrozenInstanceError):
        cfg.patch_size = 5
    with pytest.raises(ConfigError, match="at most 64"):
        replace(cfg, num_transformer_layers=65)
    assert replace(cfg, num_transformer_layers=64).num_transformer_layers == 64
    # A baseline reads no ViT setting: one away from its default is refused, the default is not.
    with pytest.raises(ConfigError, match="patch_size, decoder_schedule"):
        ModelConfig(variant="unet", patch_size=8, decoder_schedule=((8, 8), (8, 8), (8, 8)))
    with pytest.raises(ConfigError, match="num_transformer_layers"):
        ModelConfig(variant="autoencoder", num_transformer_layers=0)
    assert ModelConfig(variant="unet", patch_size=16, embed_dim=64).decoder_schedule is None


def test_default_schedule_adapts_to_patch_size():
    cfg8 = ModelConfig(variant="C", image_size=64, patch_size=8)
    assert cfg8.decoder_schedule == ((256, 256), (64, 64), (32, 32))
    cfg16 = ModelConfig(variant="C", image_size=64, patch_size=16)
    assert cfg16.decoder_schedule == ((512, 512), (256, 256), (64, 64), (32, 32))


# --- forward ---------------------------------------------------------------------

def test_forward_segmentation_logits_shape(rng):
    g = build_generator(ModelConfig(variant="C", image_size=32, patch_size=8,
                                    out_channels=3, task="segmentation", seed=1))
    x = rng.uniform(-1, 1, size=(2, 32, 32, 3))
    out = g.forward(x, "eval")
    assert out.shape == (2, 32, 32, 3)
    assert np.abs(out.data).max() > 0  # raw logits, not squashed


def test_forward_regression_tanh_bounded(rng):
    g = build_generator(ModelConfig(variant="C", image_size=32, patch_size=8,
                                    out_channels=1, task="regression", seed=1))
    out = g.forward(rng.uniform(-1, 1, size=(1, 32, 32, 3)), "eval")
    assert out.shape == (1, 32, 32, 1)
    assert np.abs(out.data).max() <= 1.0


def test_eval_forward_deterministic(rng):
    g = build_generator(tiny_config())
    x = rng.uniform(-1, 1, size=(2, 16, 16, 3))
    assert g.forward(x, "eval").data.tobytes() == g.forward(x, "eval").data.tobytes()


def test_forward_size_mismatch_error(rng):
    g = build_generator(tiny_config())
    with pytest.raises(DimensionError):
        g.forward(rng.normal(size=(1, 32, 32, 3)), "eval")


@pytest.mark.parametrize("image_size", [32, 64])
@pytest.mark.parametrize("patch_size", [8, 16])
@pytest.mark.parametrize("variant", ["A", "B", "C"])
def test_output_size_equals_input_size(rng, image_size, patch_size, variant):
    n = {8: 3, 16: 4}[patch_size]
    schedule = tuple([(16, 16), (12, 12), (8, 8), (6, 6)][-n:])
    cfg = ModelConfig(variant=variant, image_size=image_size, patch_size=patch_size,
                      embed_dim=8, num_heads=2, ffn_width=8, num_transformer_layers=1,
                      decoder_schedule=schedule, out_channels=3, seed=2)
    g = build_generator(cfg)
    out = g.forward(rng.uniform(-1, 1, size=(1, image_size, image_size, 3)), "eval")
    assert out.shape == (1, image_size, image_size, 3)


@pytest.mark.parametrize("image_size", [32, 64])
@pytest.mark.parametrize("variant", ["unet", "autoencoder"])
def test_baseline_output_size(rng, image_size, variant):
    g = build_generator(ModelConfig(variant=variant, image_size=image_size,
                                    out_channels=3, seed=2))
    out = g.forward(rng.uniform(-1, 1, size=(1, image_size, image_size, 3)), "eval")
    assert out.shape == (1, image_size, image_size, 3)


def test_variant_b_skip_projection_flag(rng):
    cfg = ModelConfig(variant="B", image_size=16, patch_size=4, embed_dim=8,
                      num_heads=2, ffn_width=8, num_transformer_layers=1,
                      decoder_schedule=((12, 12), (6, 6)), out_channels=3,
                      skip_projection_channels=4, seed=5)
    g = build_generator(cfg)
    names = set(g.shape_manifest())
    assert any(n.startswith("decoder.skips.") for n in names)
    out = g.forward(rng.uniform(-1, 1, size=(1, 16, 16, 3)), "eval")
    assert out.shape == (1, 16, 16, 3)


def test_unet_without_skips_is_autoencoder_graph():
    unet = build_generator(ModelConfig(variant="unet", seed=4))
    ae = build_generator(ModelConfig(variant="autoencoder", seed=4))
    u, a = unet.shape_manifest(), ae.shape_manifest()
    assert set(u) == set(a)  # identical layer structure
    ladder = [64, 128, 256, 512]
    for name in u:
        if name.startswith("dec.") and name.endswith("ct.kernel"):
            i = int(name.split(".")[1])
            skip = ladder[len(ladder) - 1 - i] if i > 0 else 0
            k, k2, cout, cin_u = u[name]
            assert a[name] == (k, k2, cout, cin_u - skip)
        else:
            # every non-concat-facing parameter is bit-identical in shape
            assert u[name] == a[name], name


def test_baseline_param_count_within_2x_of_c():
    c, unet, ae = (parameter_count(build_generator(ModelConfig(variant=v, seed=0)))
                   for v in ("C", "unet", "autoencoder"))
    assert c / 2 <= unet <= 2 * c
    assert c / 2 <= ae <= 2 * c


# --- checkpoints -------------------------------------------------------------------

def loss_of(gen, x):
    out = gen.forward(x, "train")
    return mae_loss(out, np.zeros(out.shape))


def test_checkpoint_round_trip_bit_exact(tmp_path, rng):
    g = build_generator(tiny_config())
    x = rng.uniform(-1, 1, size=(2, 16, 16, 3))
    # give the running stats nontrivial values first
    g.forward(x, "train")
    before = g.forward(x, "eval").data
    path = tmp_path / "model.ckpt"
    save_checkpoint(g, path)
    loaded = load_checkpoint(path)
    after = loaded.forward(x, "eval").data
    assert before.tobytes() == after.tobytes()
    for (n1, p1), (n2, p2) in zip(g.named_parameters(), loaded.named_parameters()):
        assert n1 == n2
        assert p1.data.tobytes() == p2.data.tobytes()
    for (n1, b1), (n2, b2) in zip(g.named_buffers(), loaded.named_buffers()):
        assert n1 == n2
        assert b1.tobytes() == b2.tobytes()


def test_checkpoint_corrupted_magic(tmp_path):
    g = build_generator(tiny_config())
    path = tmp_path / "model.ckpt"
    save_checkpoint(g, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    g = build_generator(tiny_config())
    path = tmp_path / "model.ckpt"
    save_checkpoint(g, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_checkpoint_flipped_payload_fails_crc(tmp_path):
    g = build_generator(tiny_config())
    path = tmp_path / "model.ckpt"
    save_checkpoint(g, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointFormatError, match="CRC"):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    import struct
    import zlib
    g = build_generator(tiny_config())
    path = tmp_path / "model.ckpt"
    save_checkpoint(g, path)
    blob = bytearray(path.read_bytes())[:-4]
    blob[4:8] = struct.pack("<I", 99)
    blob += struct.pack("<I", zlib.crc32(bytes(blob)))
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(path)


def test_checkpoint_optimizer_state_round_trip(tmp_path, rng):
    g = build_generator(tiny_config())
    x = rng.uniform(-1, 1, size=(1, 16, 16, 3))
    named = list(g.named_parameters())
    state = AdamState()
    loss = loss_of(g, x)
    T.backward(loss)
    adam_step(named, state)
    g.zero_grad()
    path = tmp_path / "model.ckpt"
    save_checkpoint(g, path, optimizer_state=state.as_dict())
    loaded, loaded_state = load_checkpoint(path, with_state=True)
    assert loaded_state["t"] == 1
    for name, (m, v) in state.moments.items():
        lm, lv = loaded_state["moments"][name]
        assert m.tobytes() == lm.tobytes()
        assert v.tobytes() == lv.tobytes()
    # The moments come in parameter order, not in the order of a hashed set,
    # so a re-save writes the same bytes whatever PYTHONHASHSEED is.
    assert list(loaded_state["moments"]) == [name for name, _ in g.named_parameters()]
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(loaded, resaved, optimizer_state=loaded_state)
    assert resaved.read_bytes() == path.read_bytes()


def test_checkpoint_same_build_identical_bytes(tmp_path):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(build_generator(tiny_config()), p1)
    save_checkpoint(build_generator(tiny_config()), p2)
    assert p1.read_bytes() == p2.read_bytes()


# Fixed-seed checkpoints of freshly built models (no training).  The bytes pin
# parameter names, registration order and the RNG draw order of initialization.
GOLDEN_INIT = {
    "A": (lambda: tiny_config(variant="A"),
          "7a9b0d97b9f4e37b4025a6f839dc8d1636b0ebb346103f9c6623544650169481"),
    "B": (lambda: tiny_config(variant="B", skip_projection_channels=4,
                              task="segmentation", out_channels=3),
          "9100efb8f1855e45dd6386e835587698194005ded2ca0e3e4bbceeaf2cbf8a0a"),
    "C": (lambda: tiny_config(variant="C"),
          "30b3b35c2df9f4f1b2867bbc1a87dc76e4ccbf886742713f4fc444e463570bdc"),
    "unet": (lambda: ModelConfig(variant="unet", image_size=16, out_channels=3, seed=7),
             "45ae9d6b4432edc1d83550795b8fbdaebe500bc3ac9a51ebb31e073de281cbd1"),
    "autoencoder": (lambda: ModelConfig(variant="autoencoder", image_size=16, out_channels=1,
                                        task="regression", seed=7),
                    "ec9e6b0625524a3ebc5efee62f05d600499e5a2054b481737f88081ea88e48f0"),
}


@pytest.mark.parametrize("variant", sorted(GOLDEN_INIT))
def test_golden_init_checkpoint_bytes(tmp_path, variant):
    config, digest = GOLDEN_INIT[variant]
    path = tmp_path / "init.ckpt"
    save_checkpoint(build_generator(config()), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# (sum, sum of squares) of a train-mode output, the eval-mode output after
# it, and all parameter gradients of an MAE loss, from the golden init
# configs plus B without skip projections.
GOLDEN_FORWARD = {
    "A": [(128.52809804253042, 343.90848633485666), (47.102690675285146, 29.06228727630996),
          (1.9574389779972206, 0.33779896229876666)],
    "B": [(-357.3907233139938, 1108.591239863595), (-147.22423784899718, 585.1267502045441),
          (-6.9333809359558405, 1.0106188152405686)],
    "B-plain": [(17.245761344661965, 304.39008660791137), (14.101447178090542, 209.52255893482456),
                (0.35619270334919795, 0.3391939210998064)],
    "C": [(-568.4310735140023, 526.7954963160962), (-211.18935223246416, 78.38763628006366),
          (-9.701499694898944, 0.8810646132566216)],
    "autoencoder": [(204.34943220425941, 208.66792393566132), (2.898765112924714, 0.04225018109472818),
                    (18.93803311471364, 6.154802731719928)],
    "unet": [(138.22661485377256, 1322.982130016681), (14.857309300983202, 3.1465578688663354),
             (16.63134202818199, 3.684921465476022)],
}


@pytest.mark.parametrize("variant", sorted(GOLDEN_FORWARD))
def test_golden_forward_and_gradients(variant):
    config = tiny_config(variant="B") if variant == "B-plain" else GOLDEN_INIT[variant][0]()
    gen = build_generator(config)
    x = np.random.default_rng(3).uniform(-1, 1, size=(2, 16, 16, 3))
    out = gen.forward(x, "train")
    T.backward(mae_loss(out, np.zeros(out.shape)))
    grads = np.concatenate([p.grad.ravel() for p in gen.parameters()])
    with T.no_grad():
        evaluated = gen.forward(x, "eval").data
    sums = [(a.sum(), (a * a).sum()) for a in (out.data, evaluated, grads)]
    np.testing.assert_allclose(sums, GOLDEN_FORWARD[variant], rtol=1e-10)


def test_checkpoint_failed_save_keeps_previous_file(tmp_path, monkeypatch):
    import vit2img.models as models

    path = tmp_path / "model.ckpt"
    save_checkpoint(build_generator(tiny_config()), path)
    before = path.read_bytes()
    pack = models._pack_record
    calls = 0

    def failing_pack(*args):
        nonlocal calls
        calls += 1
        if calls == 5:  # after the header and four records are written
            raise OSError("disk full")
        return pack(*args)

    monkeypatch.setattr(models, "_pack_record", failing_pack)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(build_generator(tiny_config(seed=8)), path)
    assert calls == 5
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_defaults_reproduce_published_schedule():
    cfg = ModelConfig()
    assert (cfg.variant, cfg.patch_size, cfg.embed_dim, cfg.num_heads,
            cfg.ffn_width, cfg.num_transformer_layers) == ("C", 16, 64, 2, 32, 4)
    assert cfg.decoder_schedule == ((512, 512), (256, 256), (64, 64), (32, 32))
    assert cfg.image_size == 64


def test_gradient_reaches_every_parameter(rng):
    g = build_generator(tiny_config(task="segmentation", out_channels=2))
    x = rng.uniform(-1, 1, size=(2, 16, 16, 3))
    labels = rng.integers(0, 2, size=(2, 16, 16))
    from vit2img.training import sparse_categorical_crossentropy
    loss = sparse_categorical_crossentropy(g.forward(x, "train"), labels)
    T.backward(loss)
    for name, p in g.named_parameters():
        assert p.grad is not None, f"no grad on {name}"
        assert np.abs(p.grad).max() > 0.0, f"dead parameter {name}"


# --- streamed checkpoint loads -------------------------------------------------------

def rewrite_with_crc(path, body) -> None:
    path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))


@pytest.mark.parametrize("variant", sorted(GOLDEN_INIT))
def test_golden_init_checkpoint_loads_bit_identically(tmp_path, variant):
    # The pinned digest shows these are the bytes every earlier build wrote.
    config, digest = GOLDEN_INIT[variant]
    gen = build_generator(config())
    path = tmp_path / "init.ckpt"
    save_checkpoint(gen, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    loaded = load_checkpoint(path)
    assert loaded.config == gen.config
    for (n1, p1), (n2, p2) in zip(gen.named_parameters(), loaded.named_parameters(), strict=True):
        assert n1 == n2 and p1.data.tobytes() == p2.data.tobytes()
    for (n1, b1), (n2, b2) in zip(gen.named_buffers(), loaded.named_buffers(), strict=True):
        assert n1 == n2 and b1.tobytes() == b2.tobytes()


@pytest.mark.parametrize("variant", sorted(GOLDEN_INIT))
def test_load_draws_no_initial_values(tmp_path, monkeypatch, variant):
    config, digest = GOLDEN_INIT[variant]
    gen = build_generator(config())
    path = tmp_path / "init.ckpt"
    save_checkpoint(gen, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def refuse(*args, **kwargs):
        raise AssertionError("a checkpoint load drew initial values")

    with monkeypatch.context() as m:
        m.setattr(np.random, "default_rng", refuse)
        loaded = load_checkpoint(path)
    assert [(n, p.data.tobytes()) for n, p in loaded.named_parameters()] \
        == [(n, p.data.tobytes()) for n, p in gen.named_parameters()]
    assert [(n, b.tobytes()) for n, b in loaded.named_buffers()] \
        == [(n, b.tobytes()) for n, b in gen.named_buffers()]


def test_load_holds_about_one_file(tmp_path):
    # Each record is read straight into the array of the model it builds.
    gen = build_generator(ModelConfig(seed=0))
    path = tmp_path / "model.ckpt"
    save_checkpoint(gen, path)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [n for n, _ in loaded.named_parameters()] == [n for n, _ in gen.named_parameters()]
    assert peak <= 1.05 * size


def test_load_without_state_keeps_no_optimizer_record(tmp_path):
    # A file written with Adam state holds twice the model again in moments
    # (here the parameters themselves); a load that does not return them
    # passes them through the CRC and costs what a stateless file's load does.
    gen = build_generator(ModelConfig(seed=0))
    moments = {name: (p.data, p.data) for name, p in gen.named_parameters()}
    paths, peaks = [tmp_path / "plain.ckpt", tmp_path / "state.ckpt"], []
    for path, state in zip(paths, (None, {"t": 3, "moments": moments})):
        save_checkpoint(gen, path, optimizer_state=state)
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert all(np.array_equal(a.data, b.data) for a, b in zip(loaded.parameters(), gen.parameters()))
        del loaded
    assert peaks[1] <= 1.1 * peaks[0], peaks
    plain, full = (p.stat().st_size for p in paths)
    with open(paths[1], "r+b") as f:  # a flip in the middle of the moments
        f.seek(plain - 4 + (full - plain) // 2)
        byte = f.read(1)[0]
        f.seek(-1, 1)
        f.write(bytes([byte ^ 0xFF]))
    with pytest.raises(CheckpointFormatError, match="CRC"):
        load_checkpoint(paths[1])


def test_failed_load_checks_the_crc_over_the_rest_in_reused_buffers(tmp_path):
    # A stray 32 MiB record ahead of the model's is refused at its head; the
    # 32 MiB it leaves unread still pass through the CRC, without a copy.
    path = tmp_path / "model.ckpt"
    save_checkpoint(build_generator(tiny_config()), path)
    blob = path.read_bytes()[:-4]
    (n,) = struct.unpack("<I", blob[8:12])
    (count,) = struct.unpack("<I", blob[12 + n:16 + n])
    head, payload = _pack_record("stray", KIND_PARAM, np.ones(4 << 20))
    body = b"".join([blob[:12 + n], struct.pack("<I", count + 1), head, payload.tobytes(), blob[16 + n:]])
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    middle = len(body) // 2
    del blob, payload, body
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointMismatchError, match="stray"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak
    with open(path, "r+b") as f:  # a flip in the unread payload outranks the stray record
        f.seek(middle)
        byte = f.read(1)[0]
        f.seek(-1, 1)
        f.write(bytes([byte ^ 0xFF]))
    with pytest.raises(CheckpointFormatError, match="CRC"):
        load_checkpoint(path)


@pytest.mark.parametrize("dims", [(2 ** 32 - 1, 2 ** 32 - 1), (2 ** 20, 2 ** 20)])
def test_record_larger_than_file_is_a_format_error(tmp_path, dims):
    path = tmp_path / "model.ckpt"
    save_checkpoint(build_generator(tiny_config()), path)
    body = bytearray(path.read_bytes()[:-4])
    _, _, payload = record_heads(body)[0]  # encoder.patch.projection, 2-d
    struct.pack_into("<2I", body, payload - 8, *dims)
    rewrite_with_crc(path, body)
    with pytest.raises(CheckpointFormatError, match="truncated"):
        load_checkpoint(path)


FLIPPED_BYTE = {
    "version": lambda heads: 4,
    "header-length": lambda heads: 8,
    "header": lambda heads: 20,
    "record-count": lambda heads: heads[0][1] - 4,
    "name-length": lambda heads: heads[3][1],
    "name": lambda heads: heads[3][1] + 2,
    "kind": lambda heads: heads[3][2] - 10,
    "ndim": lambda heads: heads[3][2] - 9,
    "dims": lambda heads: heads[3][2] - 1,
    "last-payload": lambda heads: -5,  # the byte before the CRC trailer
}


@pytest.mark.parametrize("where", sorted(FLIPPED_BYTE))
def test_flipped_header_or_record_head_fails_crc(tmp_path, where):
    path = tmp_path / "model.ckpt"
    save_checkpoint(build_generator(tiny_config()), path)
    blob = bytearray(path.read_bytes())
    assert record_heads(blob)[3][0] == "encoder.layers.0.attn.heads.0.wq"  # 2-d, 29-byte name
    blob[FLIPPED_BYTE[where](record_heads(blob))] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointFormatError, match="CRC"):
        load_checkpoint(path)


def test_record_name_not_utf8_is_a_format_error(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(build_generator(tiny_config()), path)
    body = bytearray(path.read_bytes()[:-4])
    _, head, _ = record_heads(body)[3]
    body[head + 2] = 0xFF
    rewrite_with_crc(path, body)
    with pytest.raises(CheckpointFormatError, match="UTF-8"):
        load_checkpoint(path)


def test_running_crc_folds_in_order_under_fast_thread_switching():
    rng = np.random.default_rng(3)
    bufs = [rng.bytes(n) for n in rng.integers(0, 3 * _RunningCrc.TASK_BYTES, size=300)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _RunningCrc() as crc:
            for buf in bufs:
                crc.update(buf)
            assert crc.value() == zlib.crc32(b"".join(bufs))
    finally:
        sys.setswitchinterval(previous)


def test_no_thread_outlives_a_save_or_load(tmp_path, monkeypatch):
    import vit2img.models as models

    before = threading.active_count()
    path = tmp_path / "model.ckpt"
    save_checkpoint(build_generator(tiny_config()), path)
    assert threading.active_count() == before
    load_checkpoint(path)
    assert threading.active_count() == before
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    corrupt = tmp_path / "corrupt.ckpt"
    corrupt.write_bytes(bytes(blob))
    with pytest.raises(CheckpointFormatError, match="CRC"):
        load_checkpoint(corrupt)
    assert threading.active_count() == before
    body = bytearray(path.read_bytes()[:-4])
    name, head, _ = record_heads(body)[3]
    body[head + 1 + len(name)] = ord("x")  # the name's last letter: a record the model lacks
    rewrite_with_crc(corrupt, body)
    with pytest.raises(CheckpointMismatchError, match="wx"):
        load_checkpoint(corrupt)
    assert threading.active_count() == before
    pack, calls = models._pack_record, 0

    def failing_pack(*args):
        nonlocal calls
        calls += 1
        if calls == 5:
            raise OSError("disk full")
        return pack(*args)

    monkeypatch.setattr(models, "_pack_record", failing_pack)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(build_generator(tiny_config(seed=8)), path)
    assert threading.active_count() == before
