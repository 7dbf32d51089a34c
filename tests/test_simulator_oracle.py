"""The batched scene simulator against a one-sequence-at-a-time oracle.

`_simulate_reference` and `_simulate_agents` below are the simulator as it
ran before scenes were integrated together: one Python loop over
sequences, one over steps inside it. `generate_sequences` must reproduce
their ids, coordinates and reference tracks bit for bit, and raise the
same divergence error.
"""

import numpy as np
import pytest

from trajvrnn.data import DynamicsParams, generate_sequences
from trajvrnn.errors import DataError


def _simulate_reference(rng, t_total, p):
    pos = rng.uniform(-0.4, 0.4, size=2) * p.field_half
    vel = np.zeros(2)
    waypoint = rng.uniform(-0.8, 0.8, size=2) * p.field_half
    track = np.empty((t_total, 2))
    for t in range(t_total):
        track[t] = pos
        if np.linalg.norm(waypoint - pos) < p.waypoint_tol:
            waypoint = rng.uniform(-0.8, 0.8, size=2) * p.field_half
        acc = p.ball_attraction * (waypoint - pos) - p.ball_damping * vel
        vel = vel + acc
        speed = np.linalg.norm(vel)
        if speed > p.ball_v_max:
            vel *= p.ball_v_max / speed
        pos = pos + vel
    return track


def _draw_offsets(rng, n, radius):
    r = radius * np.sqrt(rng.uniform(size=n))
    theta = rng.uniform(0, 2 * np.pi, size=n)
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)


def _simulate_agents(rng, track, n_agents, p, seq_id):
    t_total = track.shape[0]
    offsets = _draw_offsets(rng, n_agents, p.offset_radius)
    # agents start scattered around the reference, inside the field
    pos = np.clip(track[0] + offsets + _draw_offsets(rng, n_agents, p.offset_radius),
                  -p.field_half, p.field_half)
    vel = np.zeros((n_agents, 2))
    phases = rng.integers(0, max(1, p.offset_resample), size=n_agents)
    coords = np.empty((t_total, n_agents, 2))
    for t in range(t_total):
        coords[t] = pos
        if p.offset_resample > 0 and t > 0:
            due = (t + phases) % p.offset_resample == 0
            if due.any():
                offsets[due] = _draw_offsets(rng, int(due.sum()), p.offset_radius)
        target = track[t] + offsets
        acc = p.attraction * (target - pos) - p.damping * vel
        if p.repulsion != 0.0:
            diff = pos[:, None, :] - pos[None, :, :]
            dist2 = (diff ** 2).sum(axis=-1) + 1.0
            acc += p.repulsion * (diff / dist2[..., None]).sum(axis=1)
        over = np.abs(pos) - p.field_half
        acc -= p.wall_push * np.sign(pos) * np.clip(over, 0.0, None)
        vel = vel + acc
        speed = np.linalg.norm(vel, axis=-1, keepdims=True)
        np.divide(vel * p.v_max, speed, out=vel, where=speed > p.v_max)
        pos = pos + vel
        if np.abs(pos).max() > p.field_half * 10:
            raise DataError(f"sequence {seq_id}: integration diverged at step {t}")
    return coords


def oracle_sequences(count, n_agents, t_total, seed, p):
    """(id, coords, reference_track) per sequence, one sequence at a time."""
    out = []
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(count)):
        rng = np.random.default_rng(child)
        seq_id = f"seq{i:05d}"
        track = _simulate_reference(rng, t_total, p)
        out.append((seq_id, _simulate_agents(rng, track, n_agents, p, seq_id), track))
    return out


def assert_matches_oracle(count, n_agents, t_past, t_future, seed, p):
    got = generate_sequences(count, n_agents, t_past, t_future, seed, dynamics=p)
    want = oracle_sequences(count, n_agents, t_past + t_future, seed, p)
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
    assert_matches_oracle(count, n_agents, t_past, t_future, seed, DynamicsParams())


@pytest.mark.parametrize("variant", [
    {"offset_resample": 0}, {"offset_resample": 1}, {"repulsion": 0.0},
    {"attraction": 0.0}, {"waypoint_tol": 30.0}, {"v_max": 100.0},
])
@pytest.mark.parametrize("count,n_agents,t_past,t_future,seed", [
    (7, 3, 6, 2, 11),
    (64, 10, 20, 5, 12),
])
def test_generator_dynamics_variants_match_oracle(variant, count, n_agents, t_past,
                                                  t_future, seed):
    assert_matches_oracle(count, n_agents, t_past, t_future, seed,
                          DynamicsParams(**variant))


def test_generator_divergence_matches_oracle():
    # negative damping with no speed cap: every scene blows up, each at its own
    # step, and would overflow `vel * v_max` within the window if it ran on
    p = DynamicsParams(v_max=1e300, damping=-0.5)
    count, n_agents, t_total, seed = 12, 4, 160, 3
    steps = {}
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(count)):
        rng = np.random.default_rng(child)
        track = _simulate_reference(rng, t_total, p)
        with pytest.raises(DataError) as err:
            _simulate_agents(rng, track, n_agents, p, f"seq{i:05d}")
        steps[i] = int(str(err.value).rsplit(" ", 1)[1])
    # the first scene does not diverge first, so a batch that stopped at the
    # earliest step would name the wrong one
    assert min(steps.values()) < steps[0]
    with pytest.raises(DataError) as want:
        oracle_sequences(count, n_agents, t_total, seed, p)
    with pytest.raises(DataError) as got:
        generate_sequences(count, n_agents, t_total - 2, 2, seed, dynamics=p)
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
