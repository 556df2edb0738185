import numpy as np
import pytest

from conftest import write_manifest
from vit2img.data import (DatasetManifest, byte_to_float, float_to_byte,
                          load_image, load_manifest_dataset, make_synthetic,
                          montage, read_manifest, render_class_map, save_image,
                          synth_depth_dataset, synth_segmentation_dataset)
from vit2img.errors import DataError, DecodeError, DimensionError


# --- ppm codec --------------------------------------------------------------------

def test_ppm_round_trip_bytes(tmp_path, rng):
    raw = rng.integers(0, 256, size=(9, 7, 3), dtype=np.uint8)
    p1 = tmp_path / "a.ppm"
    save_image(byte_to_float(raw), p1)
    loaded = load_image(p1)
    p2 = tmp_path / "b.ppm"
    save_image(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    np.testing.assert_array_equal(float_to_byte(loaded), raw)


def test_value_range_endpoints(tmp_path):
    img = np.zeros((2, 2, 3))
    img[0, 0] = -1.0
    img[1, 1] = 1.0
    path = tmp_path / "e.ppm"
    save_image(img, path)
    payload = path.read_bytes()[-12:]
    assert payload[0:3] == b"\x00\x00\x00"
    assert payload[9:12] == b"\xff\xff\xff"


def test_known_fixture_file(tmp_path):
    # hand-written 2x2 P6 file
    blob = b"P6\n2 2\n255\n" + bytes([255, 0, 0,  0, 255, 0,  0, 0, 255,  0, 0, 0])
    path = tmp_path / "fixture.ppm"
    path.write_bytes(blob)
    img = load_image(path)
    expected = byte_to_float(np.array(
        [[[255, 0, 0], [0, 255, 0]], [[0, 0, 255], [0, 0, 0]]], dtype=np.uint8))
    np.testing.assert_array_equal(img, expected)


def test_ppm_header_comments(tmp_path):
    blob = b"P6\n# a comment\n1 1\n# another\n255\n" + bytes([10, 20, 30])
    path = tmp_path / "c.ppm"
    path.write_bytes(blob)
    img = load_image(path)
    np.testing.assert_array_equal(float_to_byte(img)[0, 0], [10, 20, 30])


def test_ppm_bad_magic(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(DecodeError, match="offset 0"):
        load_image(path)


def test_ppm_truncated_payload_offset(tmp_path):
    path = tmp_path / "t.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
    with pytest.raises(DecodeError, match="byte offset"):
        load_image(path)


def test_ppm_grayscale_replication(tmp_path):
    img = np.linspace(-1, 1, 16).reshape(4, 4)
    path = tmp_path / "g.ppm"
    save_image(img, path)
    loaded = load_image(path)
    assert loaded.shape == (4, 4, 3)
    np.testing.assert_array_equal(loaded[..., 0], loaded[..., 1])


def test_float_byte_mapping_formula():
    assert float_to_byte(np.array([-1.0]))[0] == 0
    assert float_to_byte(np.array([1.0]))[0] == 255
    assert float_to_byte(np.array([0.0]))[0] == 128  # round(127.5) half-to-even


# --- synthetic segmentation ---------------------------------------------------------

def test_shapes_classes_in_range():
    for k in (2, 3, 5):
        data = synth_segmentation_dataset(4, 32, k, seed=1)
        for s in data:
            assert s.target.min() >= 0
            assert s.target.max() < k
            assert s.target.shape == (32, 32)
            assert s.input.shape == (32, 32, 3)
            assert np.abs(s.input).max() <= 1.0


def test_shapes_deterministic():
    a = synth_segmentation_dataset(3, 32, 3, seed=42)
    b = synth_segmentation_dataset(3, 32, 3, seed=42)
    for s1, s2 in zip(a, b):
        assert s1.input.tobytes() == s2.input.tobytes()
        assert s1.target.tobytes() == s2.target.tobytes()
    c = synth_segmentation_dataset(3, 32, 3, seed=43)
    assert any(s1.input.tobytes() != s3.input.tobytes() for s1, s3 in zip(a, c))


def test_shapes_border_band_width_pixel_count():
    # single-shape scenes: border pixel count scales with the band half-width
    counts = {}
    for border in (1.0, 2.0):
        data = synth_segmentation_dataset(6, 64, 3, seed=7, border=border,
                                          shapes_per_image=1)
        counts[border] = np.mean([(s.target == 2).sum() for s in data])
    # band of half-width w has area ~ perimeter * 2w: doubling w roughly
    # doubles the count
    ratio = counts[2.0] / counts[1.0]
    assert 1.7 < ratio < 2.4
    # sanity against an analytic circle: a radius-r band in a 64px image
    # occupies between perimeter*2w*0.5 and perimeter*2w*1.5 pixels
    data = synth_segmentation_dataset(10, 64, 3, seed=9, border=2.0,
                                      shapes_per_image=1)
    for s in data:
        n_border = (s.target == 2).sum()
        interior = (s.target == 1).sum()
        if interior == 0:
            continue
        r_eff = np.sqrt(interior / np.pi)  # lower bound on shape scale
        assert n_border > 2 * np.pi * r_eff  # at least a 1px ring


def test_shapes_k2_has_no_border_class():
    data = synth_segmentation_dataset(3, 32, 2, seed=2)
    for s in data:
        assert set(np.unique(s.target)) <= {0, 1}


# --- synthetic depth ------------------------------------------------------------------

def test_depth_occlusion_takes_nearer():
    data = synth_depth_dataset(6, 32, seed=3)
    for s in data:
        assert s.target.shape == (32, 32, 1)
        assert s.target.min() >= -1.0
        assert s.target.max() <= 1.0


def test_depth_empty_scene_far_plane():
    data = synth_depth_dataset(2, 16, seed=0, rects=0)
    for s in data:
        np.testing.assert_array_equal(s.target, np.ones((16, 16, 1)))


def test_depth_analytic_plane_values():
    # every non-far pixel's depth equals 2z-1 for one of the drawn rectangles,
    # and overlaps resolve to the minimum z
    rng = np.random.default_rng(5)
    data = synth_depth_dataset(4, 32, seed=5, rects=3)
    for s in data:
        vals = np.unique(s.target)
        assert len(vals) <= 4  # far plane + up to 3 rectangle depths
        assert vals[-1] == 1.0 or len(vals) == 4


def test_depth_deterministic():
    a = synth_depth_dataset(2, 32, seed=11)
    b = synth_depth_dataset(2, 32, seed=11)
    for s1, s2 in zip(a, b):
        assert s1.target.tobytes() == s2.target.tobytes()


# --- class map rendering ----------------------------------------------------------------

def test_render_class_map_palette_only():
    classes = np.array([[0, 1], [2, 3]])
    img = render_class_map(classes)
    bytes_img = float_to_byte(img)
    from vit2img.data import PALETTE
    for i in range(2):
        for j in range(2):
            np.testing.assert_array_equal(bytes_img[i, j], PALETTE[classes[i, j]].astype(np.uint8))


def test_render_class_map_out_of_palette():
    with pytest.raises(DataError):
        render_class_map(np.array([[9]]))


# --- montage ------------------------------------------------------------------------------

def test_montage_row_arithmetic(tmp_path, rng):
    tiles = [rng.uniform(-1, 1, size=(64, 64, 3)) for _ in range(3)]
    canvas = montage([tiles])
    assert canvas.shape == (64, 64 * 3 + 2 * 2, 3)


def test_montage_identical_tiles_periodic(rng):
    tile = rng.uniform(-1, 1, size=(8, 8, 3))
    canvas = montage([[tile, tile]])
    np.testing.assert_array_equal(canvas[:, :8], canvas[:, 10:])


def test_montage_five_column_row_renders(tmp_path, rng):
    row = [rng.uniform(-1, 1, size=(16, 16, 3)) for _ in range(5)]
    path = tmp_path / "cmp.ppm"
    montage([row, row], path)
    img = load_image(path)
    assert img.shape == (16 * 2 + 2, 16 * 5 + 2 * 4, 3)


def test_montage_two_rows_of_rgb_and_gray_tiles_match_a_hand_built_canvas(rng):
    # Depth rows: a 3-channel input beside 1-channel target and output tiles.
    rows = [[rng.uniform(-1, 1, size=(8, 8, 3)), rng.uniform(-1, 1, size=(8, 8, 1)),
             rng.uniform(-1, 1, size=(8, 8))] for _ in range(2)]
    sep = np.ones((8, 2, 3))
    built = [np.concatenate([rgb, sep, np.repeat(gray, 3, axis=2), sep, np.stack([flat] * 3, axis=2)], axis=1)
             for rgb, gray, flat in rows]
    expected = np.concatenate([built[0], np.ones((2, 28, 3)), built[1]], axis=0)
    np.testing.assert_array_equal(montage(rows), expected)


def test_montage_mixed_tile_sizes_error(rng):
    with pytest.raises(DimensionError):
        montage([[rng.normal(size=(8, 8, 3)), rng.normal(size=(9, 8, 3))]])


# --- manifests ------------------------------------------------------------------------------

def test_manifest_round_trip(tmp_path):
    data = synth_segmentation_dataset(3, 16, 3, seed=1)
    pairs = []
    for i, s in enumerate(data):
        inp = f"in_{i}.ppm"
        tgt = f"tgt_{i}.ppm"
        save_image(s.input, tmp_path / inp)
        # class index stored in the red channel
        class_img = byte_to_float(np.repeat(s.target[:, :, None], 3, axis=2).astype(np.uint8))
        save_image(class_img, tmp_path / tgt)
        pairs.append((inp, tgt))
    manifest = DatasetManifest(root=tmp_path, task="segmentation", classes=3,
                               image_size=16, pairs=pairs)
    mpath = tmp_path / "data.manifest"
    write_manifest(manifest, mpath)
    loaded = read_manifest(mpath)
    assert loaded.task == "segmentation"
    assert loaded.classes == 3
    assert loaded.image_size == 16
    samples = load_manifest_dataset(loaded)
    assert len(samples) == 3
    for orig, s in zip(data, samples):
        np.testing.assert_array_equal(s.target, orig.target)
        np.testing.assert_allclose(s.input, orig.input, atol=1 / 127.5)


def test_manifest_missing_header(tmp_path):
    path = tmp_path / "bad.manifest"
    path.write_text("task = segmentation\n\nfoo\tbar\n")
    with pytest.raises(DataError, match="classes"):
        read_manifest(path)


def test_manifest_class_out_of_range(tmp_path):
    data = synth_segmentation_dataset(1, 16, 3, seed=1)
    save_image(data[0].input, tmp_path / "in.ppm")
    bad = np.full((16, 16, 3), 200, dtype=np.uint8)
    save_image(byte_to_float(bad), tmp_path / "tgt.ppm")
    manifest = DatasetManifest(root=tmp_path, task="segmentation", classes=3,
                               image_size=16, pairs=[("in.ppm", "tgt.ppm")])
    with pytest.raises(DataError, match="out of range"):
        load_manifest_dataset(manifest)


def test_make_synthetic_dispatch():
    assert make_synthetic("shapes", 2, 16, 0)[0].target.dtype == np.int64  # a class map
    assert make_synthetic("depth", 2, 16, 0)[0].target.shape == (16, 16, 1)  # a depth image
    with pytest.raises(DataError):
        make_synthetic("noise", 2, 16, 0)
