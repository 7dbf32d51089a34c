import numpy as np
import pytest

from trajvrnn import data as sim
from trajvrnn.data import (
    Dataset, MaskingSpec, TrajectorySequence,
    apply_camera_mask, apply_circle_mask, apply_mask, build_dataset,
    generate_sequences, read_dataset, stack_past, validate_dataset,
    write_dataset,
)
from trajvrnn.errors import ConfigError, DataError

from oracle_ops import camera_cosines, camera_mask, circle_mask


def make_seq(coords, ref, t_past=None):
    coords = np.asarray(coords, dtype=float)
    t = coords.shape[0]
    return TrajectorySequence(id="s0", coords=coords,
                              reference_track=np.asarray(ref, dtype=float),
                              t_past=t_past if t_past is not None else t,
                              t_future=0 if t_past is None else t - t_past)


# ---------------------------------------------------------------------------
# generator


def test_generator_deterministic():
    a = generate_sequences(3, 4, 8, 2, seed=99)
    b = generate_sequences(3, 4, 8, 2, seed=99)
    for sa, sb in zip(a, b):
        assert sa.id == sb.id
        assert np.array_equal(sa.coords, sb.coords)
        assert np.array_equal(sa.reference_track, sb.reference_track)


def test_generator_degenerate_dynamics_stationary(monkeypatch):
    monkeypatch.setattr(sim, "ATTRACTION", 0.0)
    monkeypatch.setattr(sim, "REPULSION", 0.0)
    seqs = generate_sequences(2, 3, 6, 2, seed=1)
    for seq in seqs:
        np.testing.assert_array_equal(seq.coords, np.broadcast_to(
            seq.coords[0], seq.coords.shape))


def test_generator_velocity_bound_sweep():
    seqs = generate_sequences(1000, 5, 10, 2, seed=7)
    worst = 0.0
    for seq in seqs:
        step = np.linalg.norm(np.diff(seq.coords, axis=0), axis=-1)
        worst = max(worst, step.max())
    assert worst <= sim.V_MAX + 1e-12


def test_generator_count_validation():
    with pytest.raises(ConfigError):
        generate_sequences(0, 3, 4, 2, seed=0)
    with pytest.raises(ConfigError, match="n_agents"):
        generate_sequences(2, 0, 4, 2, seed=0)


# ---------------------------------------------------------------------------
# circle mask


def test_circle_boundary_inclusive():
    coords = np.array([[[3.0, 4.0]]])
    ref = np.array([[0.0, 0.0]])
    np.testing.assert_array_equal(apply_circle_mask(coords, ref, 5.0), [[1.0]])
    np.testing.assert_array_equal(apply_circle_mask(coords, ref, 3.0), [[0.0]])


def test_circle_field_diameter_all_visible():
    past, ref = stack_past(generate_sequences(5, 4, 8, 2, seed=3))
    assert apply_circle_mask(past, ref, 1000.0).all()


def test_circle_monotone_in_radius():
    past, ref = stack_past(generate_sequences(50, 5, 12, 3, seed=11))
    m3, m5, m7 = (apply_circle_mask(past, ref, r) for r in (3.0, 5.0, 7.0))
    assert (m3 <= m5).all() and (m5 <= m7).all()


# ---------------------------------------------------------------------------
# camera mask


def test_camera_on_axis_visible():
    mask = apply_camera_mask(np.array([[[5.0, 0.0]]]), np.array([[1.0, 0.0]]), 10.0,
                             camera=(0.0, 0.0))
    np.testing.assert_array_equal(mask, [[1.0]])


def test_camera_perpendicular_invisible():
    mask = apply_camera_mask(np.array([[[0.0, 5.0]]]), np.array([[1.0, 0.0]]), 10.0,
                             camera=(0.0, 0.0))
    np.testing.assert_array_equal(mask, [[0.0]])


def test_camera_agent_at_camera_visible():
    mask = apply_camera_mask(np.array([[[0.0, 0.0]]]), np.array([[1.0, 0.0]]), 10.0,
                             camera=(0.0, 0.0))
    np.testing.assert_array_equal(mask, [[1.0]])


def test_camera_wide_aperture_only_hides_behind():
    # at 179.9 degrees, only agents almost exactly behind the camera drop out
    mask = apply_camera_mask(*stack_past(generate_sequences(20, 6, 10, 2, seed=13)), 179.9)
    assert (mask == 0).sum() / mask.size < 0.001


def test_camera_monotone_in_angle():
    past, ref = stack_past(generate_sequences(50, 5, 12, 3, seed=17))
    m10, m20, m30 = (apply_camera_mask(past, ref, th) for th in (10.0, 20.0, 30.0))
    assert (m10 <= m20).all() and (m20 <= m30).all()


def test_camera_ref_at_camera_rejected():
    with pytest.raises(DataError, match="passes through the camera"):
        apply_camera_mask(np.array([[[1.0, 1.0]]]), np.array([[0.0, 0.0]]), 10.0,
                          camera=(0.0, 0.0))
    # a dataset build masks every sequence in one call and still refuses
    clear = make_seq([[[1.0, 1.0]]], [[1.0, 0.0]])
    through = make_seq([[[1.0, 1.0]]], [[0.0, 0.0]])
    with pytest.raises(DataError, match="passes through the camera"):
        build_dataset([clear, through], MaskingSpec(mode="camera", angle=10.0,
                                                    camera=(0.0, 0.0)), "train", 0)


def test_masking_never_alters_coordinates():
    seqs = generate_sequences(5, 4, 10, 2, seed=19)
    before = [seq.coords.copy() for seq in seqs]
    past, ref = stack_past(seqs)
    p0, r0 = past.copy(), ref.copy()
    apply_circle_mask(past, ref, 5.0)
    apply_camera_mask(past, ref, 20.0)
    assert np.array_equal(past, p0) and np.array_equal(ref, r0)
    # one sequence's past is a view of its coords, so a mask that wrote to
    # its input would show there too
    for seq in seqs:
        apply_circle_mask(seq.past, seq.reference_track[: seq.t_past], 5.0)
        apply_camera_mask(seq.past, seq.reference_track[: seq.t_past], 20.0)
    for seq, coords in zip(seqs, before):
        np.testing.assert_array_equal(seq.coords, coords)


@pytest.mark.parametrize("spec", [MaskingSpec(mode="circle", radius=5.0),
                                  MaskingSpec(mode="camera", angle=20.0)])
def test_masks_over_leading_axes_match_one_sequence_at_a_time(spec):
    seqs = generate_sequences(7, 4, 9, 2, seed=23)
    masks = apply_mask(*stack_past(seqs), spec)
    assert masks.shape == (7, 9, 4)
    for seq, mask in zip(seqs, masks):
        one = apply_mask(seq.past, seq.reference_track[: seq.t_past], spec)
        assert one.dtype == mask.dtype and one.tobytes() == mask.tobytes()
    assert np.array_equal(build_dataset(seqs, spec, "train", 23).masks, masks)


def random_scenes(seed):
    """Past (3, 4, 6, 5, 2) and reference (3, 4, 6, 2) spread over the field:
    two leading axes in front of (T, N)."""
    rng = np.random.default_rng(seed)
    return rng.normal(scale=10.0, size=(3, 4, 6, 5, 2)), rng.normal(scale=10.0, size=(3, 4, 6, 2))


def test_circle_mask_matches_norm_oracle():
    past, ref = random_scenes(31)
    for radius in (0.5, 5.0, 12.0):
        assert np.array_equal(apply_circle_mask(past, ref, radius), circle_mask(past, ref, radius))
    # a radius equal to an agent's distance from the reference: one rounding
    # step of the distance decides whether that agent is seen
    for radius in np.linalg.norm(past - ref[..., None, :], axis=-1).ravel()[:60]:
        assert np.array_equal(apply_circle_mask(past, ref, radius), circle_mask(past, ref, radius))


def angle_with_cosine(c):
    """A half-angle in degrees whose np.cos(np.radians(angle)) is exactly `c`,
    from the 200 floats either side of arccos(c); None if none of them is."""
    lo = hi = np.degrees(np.arccos(np.clip(c, -1.0, 1.0)))
    for _ in range(200):
        for angle in (lo, hi):
            if np.cos(np.radians(angle)) == c:
                return angle
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
    return None


def test_camera_mask_matches_norm_oracle():
    past, ref = random_scenes(32)
    camera = (2.5, -15.0)
    past[0, 0, 0, 0] = camera  # an agent at the camera
    for angle in (5.0, 20.0, 90.0, 170.0):
        assert np.array_equal(apply_camera_mask(past, ref, angle, camera),
                              camera_mask(past, ref, angle, camera))
    # half-angles whose cosine equals an agent's cosine exactly
    angles = [a for a in map(angle_with_cosine, camera_cosines(past, ref, camera).ravel()[:80])
              if a is not None and 0 < a < 180]
    assert len(angles) >= 20
    for angle in angles:
        assert np.array_equal(apply_camera_mask(past, ref, angle, camera),
                              camera_mask(past, ref, angle, camera))


def test_masking_needs_sequences_of_one_shape():
    spec = MaskingSpec(mode="circle", radius=5.0)
    mixed = generate_sequences(1, 3, 6, 2, seed=24) + generate_sequences(1, 4, 6, 2, seed=24)
    for seqs in ([], mixed):
        with pytest.raises(DataError, match="one shape"):
            build_dataset(seqs, spec, "train", 24)


def test_masking_spec_validation():
    with pytest.raises(ConfigError):
        MaskingSpec(mode="circle", radius=-1.0)
    with pytest.raises(ConfigError):
        MaskingSpec(mode="camera", angle=200.0)
    with pytest.raises(ConfigError):
        MaskingSpec(mode="square", radius=1.0)


# ---------------------------------------------------------------------------
# file round-trips


def test_write_read_roundtrip(tmp_path):
    seqs = generate_sequences(4, 3, 6, 2, seed=29)
    ds = build_dataset(seqs, MaskingSpec(mode="circle", radius=5.0),
                       split="train", seed=29)
    path = tmp_path / "round.trajset"
    write_dataset(path, ds)
    back = read_dataset(path)
    assert back.split == "train" and back.spec.radius == 5.0
    for s1, s2, m1, m2 in zip(ds.sequences, back.sequences, ds.masks, back.masks):
        assert s1.id == s2.id
        assert np.array_equal(s1.coords, s2.coords)
        assert np.array_equal(s1.reference_track, s2.reference_track)
        assert np.array_equal(m1, m2)
    validate_dataset(back)


def test_write_read_roundtrip_with_results(tmp_path):
    seqs = generate_sequences(2, 3, 6, 2, seed=31)
    ds = build_dataset(seqs, MaskingSpec(mode="camera", angle=20.0),
                       split="test", seed=31)
    rng = np.random.default_rng(0)
    ds.results = [(rng.normal(size=(6, 3, 2)), rng.normal(size=(2, 3, 2)))
                  for _ in seqs]
    path = tmp_path / "results.trajset"
    write_dataset(path, ds)
    back = read_dataset(path)
    for (i1, p1), (i2, p2) in zip(ds.results, back.results):
        assert np.array_equal(i1, i2) and np.array_equal(p1, p2)


def test_same_seed_identical_bytes(tmp_path):
    def build(path):
        seqs = generate_sequences(3, 3, 6, 2, seed=37)
        ds = build_dataset(seqs, MaskingSpec(mode="circle", radius=4.0),
                           split="train", seed=37)
        write_dataset(path, ds)
        return path.read_bytes()

    assert build(tmp_path / "a.trajset") == build(tmp_path / "b.trajset")


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.trajset"
    path.write_bytes(b"not a dataset\n")
    with pytest.raises(DataError) as err:
        read_dataset(path)
    assert "line 1" in str(err.value)


def test_read_rejects_truncated_payload(tmp_path):
    seqs = generate_sequences(2, 3, 6, 2, seed=41)
    ds = build_dataset(seqs, MaskingSpec(mode="circle", radius=4.0),
                       split="train", seed=41)
    path = tmp_path / "trunc.trajset"
    write_dataset(path, ds)
    blob = path.read_bytes()
    path.write_bytes(blob[:-20])
    with pytest.raises(DataError) as err:
        read_dataset(path)
    assert "truncated" in str(err.value)


def test_read_rejects_corrupted_count(tmp_path):
    seqs = generate_sequences(2, 3, 6, 2, seed=43)
    ds = build_dataset(seqs, MaskingSpec(mode="circle", radius=4.0),
                       split="train", seed=43)
    path = tmp_path / "count.trajset"
    write_dataset(path, ds)
    text = path.read_bytes()
    path.write_bytes(text.replace(b"count=2", b"count=9", 1))
    with pytest.raises(DataError):
        read_dataset(path)


def test_read_rejects_unknown_mode(tmp_path):
    seqs = generate_sequences(2, 3, 6, 2, seed=45)
    ds = build_dataset(seqs, MaskingSpec(mode="camera", angle=20.0),
                       split="train", seed=45)
    path = tmp_path / "mode.trajset"
    write_dataset(path, ds)
    path.write_bytes(path.read_bytes().replace(b"mode=camera", b"mode=drone", 1))
    with pytest.raises(DataError):
        read_dataset(path)


def test_read_rejects_mask_byte_other_than_0_or_1(tmp_path):
    seqs = generate_sequences(2, 3, 6, 2, seed=46)
    ds = build_dataset(seqs, MaskingSpec(mode="circle", radius=4.0),
                       split="train", seed=46)
    path = tmp_path / "mask.trajset"
    write_dataset(path, ds)
    blob = bytearray(path.read_bytes())
    payload = blob.index(b"\n", blob.index(b"\npayload_bytes=") + 1) + 1
    mask_at = payload + 8 * 3 * 2 * 8 + 8 * 2 * 8  # past coords and reference track
    assert blob[mask_at] in (0, 1)
    blob[mask_at] = 7
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="mask byte 7"):
        read_dataset(path)


@pytest.mark.parametrize("entry", [0.5, 2.0, -1.0, np.nan, "shape"])
def test_write_rejects_mask_entry_other_than_0_or_1(entry, tmp_path):
    """A hand-built Dataset whose mask holds anything but 0 and 1 is a
    DataError before any byte is written, not a byte cast to 0 or 1 that
    only `validate_dataset` would notice; so is a mask replaced by one of
    another shape after the Dataset was built."""
    seqs = generate_sequences(2, 3, 6, 2, seed=47)
    ds = build_dataset(seqs, MaskingSpec(mode="circle", radius=4.0), split="train", seed=47)
    if entry == "shape":
        ds.masks[1] = np.ones((5, 3))
    else:
        ds.masks[1][2, 0] = entry
    path = tmp_path / "mask.trajset"
    with pytest.raises(DataError, match="mask entries must be 0 or 1|mask shape"):
        write_dataset(path, ds)
    assert not path.exists()


def test_write_with_results_and_no_future_window(tmp_path):
    """Records with results and t_future = 0 round-trip: the predicted
    field of the record layout is empty."""
    seqs = [make_seq(np.arange(24.0).reshape(4, 3, 2), np.zeros((4, 2)))]
    ds = build_dataset(seqs, MaskingSpec(mode="circle", radius=4.0), split="test", seed=0)
    ds.results = [(np.ones((4, 3, 2)), np.zeros((0, 3, 2)))]
    path = tmp_path / "nofuture.trajset"
    write_dataset(path, ds)
    back = read_dataset(path)
    assert np.array_equal(back.sequences[0].coords, seqs[0].coords)
    assert np.array_equal(back.results[0][0], ds.results[0][0])
    assert back.results[0][1].shape == (0, 3, 2)


def _nan_at_sentinel(path):
    """Overwrite the one float64 12345.5 in the file at `path` with a NaN."""
    blob = path.read_bytes()
    sentinel = np.array(12345.5, "<f8").tobytes()
    assert blob.count(sentinel) == 1
    path.write_bytes(blob.replace(sentinel, np.array(np.nan, "<f8").tobytes()))


def test_non_finite_reference_track_is_rejected(tmp_path):
    coords, ref = np.zeros((4, 3, 2)), np.zeros((4, 2))
    ref[2, 1] = np.nan
    with pytest.raises(DataError, match="reference track"):
        make_seq(coords, ref)
    ref[2, 1] = 12345.5
    ds = build_dataset([make_seq(coords, ref)], MaskingSpec(mode="circle", radius=4.0),
                       split="test", seed=0)
    path = tmp_path / "ref.trajset"
    write_dataset(path, ds)
    _nan_at_sentinel(path)
    with pytest.raises(DataError, match="reference track"):
        read_dataset(path)


@pytest.mark.parametrize("part", [0, 1])
def test_non_finite_results_are_rejected_on_write_and_read(tmp_path, part):
    seqs = generate_sequences(1, 3, 6, 2, seed=48)
    ds = build_dataset(seqs, MaskingSpec(mode="circle", radius=4.0), split="test", seed=48)
    ds.results = [[np.zeros((6, 3, 2)), np.zeros((2, 3, 2))]]
    ds.results[0][part][1, 2, 0] = np.inf
    path = tmp_path / "results.trajset"
    with pytest.raises(DataError, match="non-finite results"):
        write_dataset(path, ds)
    assert not path.exists()
    ds.results[0][part][1, 2, 0] = 12345.5
    write_dataset(path, ds)
    _nan_at_sentinel(path)
    with pytest.raises(DataError, match="non-finite results"):
        read_dataset(path)


def test_read_rejects_camera_that_is_not_2d(tmp_path):
    seqs = generate_sequences(2, 3, 6, 2, seed=45)
    ds = build_dataset(seqs, MaskingSpec(mode="camera", angle=20.0),
                       split="train", seed=45)
    path = tmp_path / "camera.trajset"
    write_dataset(path, ds)
    blob = path.read_bytes()
    for bad in (b"camera=0,0,-15.0", b"camera=nan,-15.0"):
        path.write_bytes(blob.replace(b"camera=0.0,-15.0", bad, 1))
        with pytest.raises(DataError):
            read_dataset(path)


def test_validate_detects_scenario_mismatch(tmp_path):
    seqs = generate_sequences(2, 3, 6, 2, seed=47)
    ds = build_dataset(seqs, MaskingSpec(mode="circle", radius=4.0),
                       split="train", seed=47)
    ds.masks[0] = 1.0 - ds.masks[0]
    with pytest.raises(DataError, match="seq00000"):
        validate_dataset(ds)


def test_validate_names_first_mismatching_sequence():
    seqs = generate_sequences(5, 3, 6, 2, seed=48)
    ds = build_dataset(seqs, MaskingSpec(mode="camera", angle=20.0),
                       split="train", seed=48)
    for i in (3, 1):
        ds.masks[i] = 1.0 - ds.masks[i]
    with pytest.raises(DataError, match="sequence seq00001: stored mask"):
        validate_dataset(ds)


def test_dataset_shape_consistency_enforced():
    seqs = generate_sequences(1, 3, 6, 2, seed=53)
    with pytest.raises(DataError):
        Dataset(spec=MaskingSpec(mode="circle", radius=1.0), split="train",
                seed=0, sequences=seqs, masks=[np.zeros((5, 3))])


@pytest.mark.parametrize("other", [(6, 2, 5), (5, 3, 3)])
def test_dataset_holds_sequences_of_one_shape(other):
    """A file holds one record layout, so a Dataset of mixed windows or
    agent counts fails when built, naming the first odd sequence."""
    t_past, t_future, n = other
    seqs = generate_sequences(1, 3, 6, 2, seed=54) + \
        generate_sequences(1, n, t_past, t_future, seed=55)
    seqs[1].id = "odd"
    with pytest.raises(DataError, match="sequence odd: windows and N"):
        Dataset(spec=MaskingSpec(mode="circle", radius=1.0), split="train", seed=0,
                sequences=seqs, masks=[np.ones((s.t_past, s.n_agents)) for s in seqs])


@pytest.mark.parametrize("bad", ["predicted_rows", "imputed_agents", "count", "single"])
def test_dataset_results_match_the_records(bad, tmp_path):
    """`results` holds one (imputed, predicted) pair per record, shaped like
    the record's past and future windows: anything else is a DataError
    when the Dataset is built and when a later assignment is written, not
    a file that `read_dataset` rejects."""
    seqs = generate_sequences(2, 3, 6, 2, seed=56)
    ds = build_dataset(seqs, MaskingSpec(mode="circle", radius=5.0), split="test", seed=56)
    results = [(np.zeros((6, 3, 2)), np.zeros((2, 3, 2))) for _ in seqs]
    Dataset(spec=ds.spec, split=ds.split, seed=ds.seed, sequences=ds.sequences,
            masks=ds.masks, results=results)
    if bad == "predicted_rows":
        results[1] = (results[1][0], np.zeros((3, 3, 2)))
    elif bad == "imputed_agents":
        results[0] = (np.zeros((6, 2, 2)), results[0][1])
    elif bad == "count":
        results.pop()
    else:
        results[0] = np.zeros((6, 3, 2))
    with pytest.raises(DataError, match="results"):
        Dataset(spec=ds.spec, split=ds.split, seed=ds.seed, sequences=ds.sequences,
                masks=ds.masks, results=results)
    ds.results = results
    path = tmp_path / "bad.trajset"
    with pytest.raises(DataError, match="results"):
        write_dataset(path, ds)
    assert not path.exists()
