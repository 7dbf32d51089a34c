"""The batched scene simulator against a one-sequence-at-a-time oracle.

`_simulate_reference` and `_simulate_agents` below are the simulator as it
ran before scenes were integrated together: one Python loop over
sequences, one over steps inside it. Both read the dynamics constants of
`trajvrnn.data` when they run, so a test that patches one patches both.
`generate_sequences` must reproduce their ids, coordinates and reference
tracks bit for bit, and raise the same divergence error.
"""

import numpy as np
import pytest

from trajvrnn import data as sim
from trajvrnn.data import generate_sequences
from trajvrnn.errors import DataError


def _simulate_reference(rng, t_total):
    pos = rng.uniform(-0.4, 0.4, size=2) * sim.FIELD_HALF
    vel = np.zeros(2)
    waypoint = rng.uniform(-0.8, 0.8, size=2) * sim.FIELD_HALF
    track = np.empty((t_total, 2))
    for t in range(t_total):
        track[t] = pos
        if np.linalg.norm(waypoint - pos) < sim.WAYPOINT_TOL:
            waypoint = rng.uniform(-0.8, 0.8, size=2) * sim.FIELD_HALF
        acc = sim.BALL_ATTRACTION * (waypoint - pos) - sim.BALL_DAMPING * vel
        vel = vel + acc
        speed = np.linalg.norm(vel)
        if speed > sim.BALL_V_MAX:
            vel *= sim.BALL_V_MAX / speed
        pos = pos + vel
    return track


def _draw_offsets(rng, n, radius):
    r = radius * np.sqrt(rng.uniform(size=n))
    theta = rng.uniform(0, 2 * np.pi, size=n)
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)


def _simulate_agents(rng, track, n_agents, seq_id):
    t_total = track.shape[0]
    offsets = _draw_offsets(rng, n_agents, sim.OFFSET_RADIUS)
    # agents start scattered around the reference, inside the field
    pos = np.clip(track[0] + offsets + _draw_offsets(rng, n_agents, sim.OFFSET_RADIUS),
                  -sim.FIELD_HALF, sim.FIELD_HALF)
    vel = np.zeros((n_agents, 2))
    phases = rng.integers(0, sim.OFFSET_RESAMPLE, size=n_agents)
    coords = np.empty((t_total, n_agents, 2))
    for t in range(t_total):
        coords[t] = pos
        if t > 0:
            due = (t + phases) % sim.OFFSET_RESAMPLE == 0
            if due.any():
                offsets[due] = _draw_offsets(rng, int(due.sum()), sim.OFFSET_RADIUS)
        target = track[t] + offsets
        acc = sim.ATTRACTION * (target - pos) - sim.DAMPING * vel
        if sim.REPULSION != 0.0:
            diff = pos[:, None, :] - pos[None, :, :]
            dist2 = (diff ** 2).sum(axis=-1) + 1.0
            acc += sim.REPULSION * (diff / dist2[..., None]).sum(axis=1)
        over = np.abs(pos) - sim.FIELD_HALF
        acc -= sim.WALL_PUSH * np.sign(pos) * np.clip(over, 0.0, None)
        vel = vel + acc
        speed = np.linalg.norm(vel, axis=-1, keepdims=True)
        np.divide(vel * sim.V_MAX, speed, out=vel, where=speed > sim.V_MAX)
        pos = pos + vel
        if np.abs(pos).max() > sim.FIELD_HALF * 10:
            raise DataError(f"sequence {seq_id}: integration diverged at step {t}")
    return coords


def oracle_sequences(count, n_agents, t_total, seed):
    """(id, coords, reference_track) per sequence, one sequence at a time."""
    out = []
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(count)):
        rng = np.random.default_rng(child)
        seq_id = f"seq{i:05d}"
        track = _simulate_reference(rng, t_total)
        out.append((seq_id, _simulate_agents(rng, track, n_agents, seq_id), track))
    return out


def assert_matches_oracle(count, n_agents, t_past, t_future, seed):
    got = generate_sequences(count, n_agents, t_past, t_future, seed)
    want = oracle_sequences(count, n_agents, t_past + t_future, seed)
    assert len(got) == len(want)
    for seq, (seq_id, coords, track) in zip(got, want):
        assert seq.id == seq_id
        assert np.array_equal(seq.coords, coords), seq_id
        assert np.array_equal(seq.reference_track, track), seq_id


@pytest.mark.parametrize("count,n_agents,t_past,t_future,seed", [
    (1, 1, 2, 1, 0),
    (1, 16, 40, 10, 1),
    (7, 3, 6, 2, 2),
    (8, 3, 6, 2, 3),
    (20, 1, 10, 2, 4),
    (50, 5, 12, 3, 5),
    (64, 10, 40, 10, 6),
    (30, 16, 40, 10, 7),
    (200, 6, 20, 5, 8),
    (300, 10, 40, 10, 9),   # crosses a block boundary
    (300, 3, 2, 1, 10),
    (3, 64, 6, 2, 13),      # the sum over 64 neighbours keeps its order
])
def test_generator_matches_oracle(count, n_agents, t_past, t_future, seed):
    assert_matches_oracle(count, n_agents, t_past, t_future, seed)


@pytest.mark.parametrize("variant", [
    {"OFFSET_RESAMPLE": 1000}, {"OFFSET_RESAMPLE": 1}, {"REPULSION": 0.0},
    {"ATTRACTION": 0.0}, {"WAYPOINT_TOL": 30.0}, {"V_MAX": 100.0},
])
@pytest.mark.parametrize("count,n_agents,t_past,t_future,seed", [
    (7, 3, 6, 2, 11),
    (64, 10, 20, 5, 12),
])
def test_generator_dynamics_variants_match_oracle(monkeypatch, variant, count, n_agents,
                                                  t_past, t_future, seed):
    """Other values of the constants, which no caller can set: the
    generator's arithmetic is the oracle's, not only at the defaults."""
    for name, value in variant.items():
        monkeypatch.setattr(sim, name, value)
    assert_matches_oracle(count, n_agents, t_past, t_future, seed)


def test_generator_divergence_matches_oracle(monkeypatch):
    # negative damping with no speed cap: every scene blows up, each at its own
    # step, and would overflow `vel * V_MAX` within the window if it ran on
    monkeypatch.setattr(sim, "V_MAX", 1e300)
    monkeypatch.setattr(sim, "DAMPING", -0.5)
    count, n_agents, t_total, seed = 12, 4, 160, 3
    steps = {}
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(count)):
        rng = np.random.default_rng(child)
        track = _simulate_reference(rng, t_total)
        with pytest.raises(DataError) as err:
            _simulate_agents(rng, track, n_agents, f"seq{i:05d}")
        steps[i] = int(str(err.value).rsplit(" ", 1)[1])
    # the first scene does not diverge first, so a batch that stopped at the
    # earliest step would name the wrong one
    assert min(steps.values()) < steps[0]
    with pytest.raises(DataError) as want:
        oracle_sequences(count, n_agents, t_total, seed)
    with pytest.raises(DataError) as got:
        generate_sequences(count, n_agents, t_total - 2, 2, seed)
    assert str(got.value) == str(want.value) == \
        f"sequence seq00000: integration diverged at step {steps[0]}"


@pytest.mark.parametrize("k", [1, 8])
def test_generator_prefix_matches_shorter_call(k):
    long = generate_sequences(64, 4, 10, 3, seed=21)[:k]
    short = generate_sequences(k, 4, 10, 3, seed=21)
    for a, b in zip(long, short, strict=True):
        assert a.id == b.id
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.reference_track, b.reference_track)
