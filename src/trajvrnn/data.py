"""Synthetic multi-agent scenes, visibility masking, and the dataset file
format.

Agents follow damped second-order dynamics: each is attracted to a
personal offset around a shared reference track (a waypoint-seeking
"ball"), repelled softly from the others, and confined to a bounded
field. All scenes of one `generate_sequences` call are integrated
together, in blocks of a fixed size, as (S, 2) reference and (2, N, S)
agent arrays (scenes innermost, so the pairwise repulsion loops over
scenes); each scene draws from its own child of the seed's
`SeedSequence`, so sequence i depends only on the seed and i.

Visibility is then simulated two ways: a circle of radius r around the
reference, or a camera aperture of half-angle theta tracking the
reference from a fixed sideline position. Both masks work over any
leading axes, so a dataset is masked in one call. Masks mark
availability only; ground-truth coordinates are always retained.

Arithmetic over the (x, y) axis is written per component: a length is
`_length(x, y)`, `sqrt(x * x + y * y)`, which rounds exactly like
`np.linalg.norm(v, axis=-1)`, and a dot product is `x * x' + y * y'`,
which rounds exactly like `(v * w).sum(axis=-1)`. A numpy reduction, or
any loop, over a 2-wide axis costs several times the arithmetic it does.

Files are a small text header followed by a raw little-endian binary
payload (`container.py`), so coordinates round-trip bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import container
from .errors import ConfigError, DataError

MAGIC = "trajset v1"
FIELD_HALF = 25.0
SCENE_CENTER = (0.0, 0.0)
DEFAULT_CAMERA = (0.0, -15.0)

# simulator dynamics: the agents, then the reference "ball" they follow
ATTRACTION = 0.25
REPULSION = 0.3
DAMPING = 0.5
V_MAX = 1.5
OFFSET_RADIUS = 5.0
OFFSET_RESAMPLE = 15  # steps between an agent's offset redraws
BALL_ATTRACTION = 0.05
BALL_DAMPING = 0.3
BALL_V_MAX = 1.2
WAYPOINT_TOL = 2.0
WALL_PUSH = 0.5


@dataclass
class TrajectorySequence:
    id: str
    coords: np.ndarray          # (T, N, 2) scene units
    reference_track: np.ndarray  # (T, 2)
    t_past: int
    t_future: int

    def __post_init__(self):
        t, n, two = self.coords.shape
        if two != 2 or n < 1:
            raise DataError(f"bad coords shape {self.coords.shape}")
        if t != self.t_past + self.t_future:
            raise DataError(f"coords span {t} steps, expected "
                            f"{self.t_past + self.t_future}")
        if self.reference_track.shape != (t, 2):
            raise DataError(f"reference track shape {self.reference_track.shape} "
                            f"does not match {t} steps")
        if not (np.isfinite(self.coords).all() and np.isfinite(self.reference_track).all()):
            raise DataError(f"sequence {self.id}: non-finite coordinates or reference track")

    @property
    def n_agents(self) -> int:
        return self.coords.shape[1]

    @property
    def past(self) -> np.ndarray:
        return self.coords[: self.t_past]


@dataclass
class MaskingSpec:
    mode: str                    # "circle" or "camera"
    radius: float | None = None
    angle: float | None = None   # degrees, half-aperture
    camera: tuple | None = None

    def __post_init__(self):
        if self.mode == "circle":
            if self.radius is None or not 0 < self.radius < np.inf:
                raise ConfigError("circle mode needs a finite radius > 0")
        elif self.mode == "camera":
            if self.angle is None or not (0 < self.angle < 180):
                raise ConfigError("camera mode needs 0 < angle < 180 degrees")
            if self.camera is None:
                self.camera = DEFAULT_CAMERA
            elif len(self.camera) != 2 or not np.isfinite(self.camera).all():
                raise ConfigError("camera mode needs a finite 2D camera position")
        else:
            raise ConfigError(f"unknown masking mode {self.mode!r}")

    @property
    def parameter(self) -> float:
        return self.radius if self.mode == "circle" else self.angle

    def label(self) -> str:
        if self.mode == "circle":
            return f"circle r={self.radius:g}"
        return f"camera theta={self.angle:g}"


# ---------------------------------------------------------------------------
# generation


_BLOCK = 256  # scenes integrated together; bounds the (2, N, N, S) repulsion temporaries


def _length(x, y):
    """Length of the 2-vectors with components `x` and `y`, rounded exactly
    like `np.linalg.norm` over their (x, y) axis."""
    return np.sqrt(x * x + y * y)


def _norm(v):
    """Length of each 2-vector in `v` (.., 2) for the reference track. A
    BLAS dot per row, so it rounds like `np.linalg.norm` of a single
    2-vector, which is a BLAS dot too: the dot may fuse its multiply-add,
    which `_length` does not. One scene's reference track was integrated
    as a 1-D vector, so it alone keeps this form."""
    return np.sqrt(np.vecdot(v, v))


def _offsets(radius, u, a):
    """Offsets (2, ..), component first, at distance `radius * sqrt(u)` and
    angle `2 pi a` for draws `u`, `a` of `Generator.random`. As
    Generator.uniform(lo, hi) is lo + (hi - lo) * random(), exactly, these
    are the offsets of radii drawn as uniform(size=n) and angles drawn as
    uniform(0, 2 pi, size=n)."""
    r = radius * np.sqrt(u)
    theta = 2 * np.pi * a
    return np.stack([r * np.cos(theta), r * np.sin(theta)])


def _offset_redraws(rngs, phases, t_total):
    """Which agents redraw their offset at each step, (T, N, S), and the
    offsets they draw, (T, 2, N, S). The schedule is fixed by `phases`
    (S, N), so each scene takes all its draws in one call; per due step they
    come k radii and then k angles."""
    steps = np.arange(t_total)[:, None]
    due = ((steps + phases[:, None, :]) % OFFSET_RESAMPLE == 0) & (steps > 0)
    k = due.sum(axis=2).ravel()
    scene, step, agent = np.nonzero(due)
    group = scene * t_total + step
    # due agent e, counted in (scene, step, agent) order, follows `before` due
    # agents of earlier (scene, step) pairs, which took 2 * before draws, and
    # e - before of its own step: its radius is draw e + before, its angle
    # k draws later
    before = (np.cumsum(k) - k)[group]
    radius_at = np.arange(scene.size) + before
    raw = np.concatenate([rng.random(2 * n) for rng, n in zip(rngs, due.sum(axis=(1, 2)))])
    fresh = np.zeros((t_total, 2, phases.shape[1], len(rngs)))
    fresh[step, :, agent, scene] = _offsets(OFFSET_RADIUS, raw[radius_at],
                                            raw[radius_at + k[group]]).T
    return due.transpose(1, 2, 0).copy(), fresh


def _simulate(rngs, ids, n_agents, t_total):
    """Integrate one block of scenes together, scene i drawing only from
    `rngs[i]`: its reference start and waypoint, a new waypoint whenever
    its reference reaches one, then its agents' offset radii and angles,
    start-scatter radii and angles and phases, then every offset redraw.
    Returns coords (S, T, N, 2) and the reference tracks (S, T, 2)."""
    fh = FIELD_HALF
    pos, waypoint = (np.array(a) * fh for a in zip(*[
        (rng.uniform(-0.4, 0.4, size=2), rng.uniform(-0.8, 0.8, size=2)) for rng in rngs]))
    vel = np.zeros_like(pos)
    track = np.empty((len(rngs), t_total, 2))
    for t in range(t_total):
        track[:, t] = pos
        for i in np.flatnonzero(_norm(waypoint - pos) < WAYPOINT_TOL):
            waypoint[i] = rngs[i].uniform(-0.8, 0.8, size=2) * fh
        acc = BALL_ATTRACTION * (waypoint - pos) - BALL_DAMPING * vel
        vel = vel + acc
        speed = _norm(vel)
        fast = speed > BALL_V_MAX
        vel[fast] *= (BALL_V_MAX / speed[fast])[:, None]
        pos = pos + vel

    # agents are (2, N, S) from here on; each scene draws 4 * N uniforms,
    # offset radii and angles then start-scatter radii and angles
    draws, phases = map(np.array, zip(*[
        (rng.random(4 * n_agents), rng.integers(0, OFFSET_RESAMPLE, size=n_agents))
        for rng in rngs]))
    u = np.ascontiguousarray(draws.reshape(len(rngs), 4, n_agents).transpose(1, 2, 0))
    offsets = _offsets(OFFSET_RADIUS, u[0], u[1])
    ref = np.ascontiguousarray(track.transpose(1, 2, 0))[:, :, None]  # (T, 2, 1, S)
    # agents start scattered around the reference, inside the field
    pos = np.clip(ref[0] + offsets + _offsets(OFFSET_RADIUS, u[2], u[3]), -fh, fh)
    vel = np.zeros_like(pos)
    due, fresh = _offset_redraws(rngs, phases, t_total)
    coords = np.empty((len(rngs), t_total, n_agents, 2))
    diverged_at = np.full(len(rngs), -1)
    for t in range(t_total):
        coords[:, t] = pos.T
        np.copyto(offsets, fresh[t], where=due[t])
        target = ref[t] + offsets
        acc = ATTRACTION * (target - pos) - DAMPING * vel
        # (2, j, i, S): the sum over j runs over an outer axis, so it
        # adds in j order, as a sum over j of one scene's (i, j, 2) does
        diff = pos[:, None] - pos[:, :, None]
        dist2 = diff[0] ** 2 + diff[1] ** 2 + 1.0
        acc += REPULSION * (diff / dist2).sum(axis=1)
        over = np.abs(pos) - fh
        acc -= WALL_PUSH * np.sign(pos) * np.maximum(over, 0.0)
        vel = vel + acc
        speed = _length(*vel)
        np.divide(vel * V_MAX, speed, out=vel, where=speed > V_MAX)
        pos = pos + vel
        gone = np.abs(pos).max(axis=(0, 1)) > fh * 10
        if gone.any():
            diverged_at[gone & (diverged_at < 0)] = t
            # a diverged scene restarts at rest so it cannot overflow; the
            # first scene to diverge at all is reported once the block is done
            pos[..., gone] = 0.0
            vel[..., gone] = 0.0
    for seq_id, step in zip(ids, diverged_at):
        if step >= 0:
            raise DataError(f"sequence {seq_id}: integration diverged at step {step}")
    return coords, track


def generate_sequences(count, n_agents, t_past, t_future, seed):
    """Deterministic batch of interacting sequences for one seed. Scenes are
    integrated together, `_BLOCK` at a time; sequence i draws only from the
    i-th child of `SeedSequence(seed)`, so it depends on `seed` and i alone."""
    if count < 1:
        raise ConfigError("count must be >= 1")
    if n_agents < 1:
        raise ConfigError("n_agents must be >= 1")
    t_total = t_past + t_future
    children = np.random.SeedSequence(seed).spawn(count)
    out = []
    for first in range(0, count, _BLOCK):
        block = children[first:first + _BLOCK]
        ids = [f"seq{i:05d}" for i in range(first, first + len(block))]
        coords, tracks = _simulate([np.random.default_rng(c) for c in block], ids,
                                   n_agents, t_total)
        out += [TrajectorySequence(id=seq_id, coords=c, reference_track=track,
                                   t_past=t_past, t_future=t_future)
                for seq_id, c, track in zip(ids, coords, tracks)]
    return out


# ---------------------------------------------------------------------------
# masking


def stack_past(sequences):
    """Past coordinates (S, T_past, N, 2) and reference track (S, T_past, 2)
    of equal-shaped sequences: what the masks read."""
    shapes = {(s.past.shape, s.reference_track.shape) for s in sequences}
    if len(shapes) != 1:
        raise DataError(f"masking needs one or more sequences of one shape, "
                        f"got {len(sequences)} of shapes {sorted(shapes)}")
    return (np.stack([s.past for s in sequences]),
            np.stack([s.reference_track[: s.t_past] for s in sequences]))


def apply_circle_mask(past, ref, radius: float) -> np.ndarray:
    """Visible iff within `radius` (inclusive) of the reference. `past` is
    (.., T, N, 2) and `ref` (.., T, 2); the mask is (.., T, N)."""
    if radius <= 0:
        raise ConfigError("radius must be > 0")
    dist = _length(past[..., 0] - ref[..., None, 0], past[..., 1] - ref[..., None, 1])
    return (dist <= radius).astype(np.float64)


def apply_camera_mask(past, ref, angle_deg: float, camera=DEFAULT_CAMERA) -> np.ndarray:
    """Visible iff within `angle_deg` (inclusive) of the camera-to-reference
    direction. An agent exactly at the camera counts as visible. Shapes as
    in `apply_circle_mask`."""
    if not (0 < angle_deg < 180):
        raise ConfigError("angle must be in (0, 180) degrees")
    cam = np.asarray(camera, dtype=np.float64)
    view_x, view_y = ref[..., 0] - cam[0], ref[..., 1] - cam[1]
    view_norm = _length(view_x, view_y)
    if (view_norm == 0).any():
        raise DataError("reference track passes through the camera position")
    x, y = past[..., 0] - cam[0], past[..., 1] - cam[1]
    rel_norm = _length(x, y)
    dot = x * view_x[..., None] + y * view_y[..., None]
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_ang = dot / (rel_norm * view_norm[..., None])
    cos_ang = np.where(rel_norm == 0, 1.0, cos_ang)  # at-camera convention
    return (cos_ang >= np.cos(np.radians(angle_deg))).astype(np.float64)


def apply_mask(past, ref, spec: MaskingSpec) -> np.ndarray:
    if spec.mode == "circle":
        return apply_circle_mask(past, ref, spec.radius)
    return apply_camera_mask(past, ref, spec.angle, spec.camera)


# ---------------------------------------------------------------------------
# dataset files


@dataclass
class Dataset:
    spec: MaskingSpec
    split: str
    seed: int
    sequences: list = field(default_factory=list)
    masks: list = field(default_factory=list)
    results: list | None = None   # per record: (imputed past, predicted future)

    def __post_init__(self):
        self.check()

    def check(self):
        """DataError unless every record has the first's windows and N and
        a (t_past, N) mask, and `results`, when present, holds one finite
        (imputed, predicted) pair per record, shaped (t_past, N, 2) and
        (t_future, N, 2)."""
        if len(self.sequences) != len(self.masks):
            raise DataError(f"{len(self.sequences)} sequences vs "
                            f"{len(self.masks)} masks")
        for seq, mask in zip(self.sequences, self.masks):
            dims = (seq.t_past, seq.t_future, seq.n_agents)
            if dims != (self.t_past, self.t_future, self.n_agents):
                raise DataError(f"sequence {seq.id}: windows and N {dims} differ from the first")
            if mask.shape != (seq.t_past, seq.n_agents):
                raise DataError(f"sequence {seq.id}: mask shape {mask.shape} does "
                                f"not match ({seq.t_past}, {seq.n_agents})")
        if self.results is None:
            return
        if len(self.results) != len(self.sequences):
            raise DataError(f"{len(self.results)} results for {len(self.sequences)} sequences")
        for seq, pair in zip(self.sequences, self.results):
            shapes = tuple(map(np.shape, pair)) if isinstance(pair, (tuple, list)) \
                else np.shape(pair)
            want = ((seq.t_past, seq.n_agents, 2), (seq.t_future, seq.n_agents, 2))
            if shapes != want:
                raise DataError(f"sequence {seq.id}: results shaped {shapes}, "
                                f"expected (imputed, predicted) {want}")
            if not all(np.isfinite(part).all() for part in pair):
                raise DataError(f"sequence {seq.id}: non-finite results")

    @property
    def t_past(self):
        return self.sequences[0].t_past

    @property
    def t_future(self):
        return self.sequences[0].t_future

    @property
    def n_agents(self):
        return self.sequences[0].n_agents

    def missing_rate(self) -> float:
        total = sum(m.size for m in self.masks)
        missing = sum((m == 0).sum() for m in self.masks)
        return missing / total


def build_dataset(sequences, spec: MaskingSpec, split: str, seed: int) -> Dataset:
    sequences = list(sequences)
    masks = apply_mask(*stack_past(sequences), spec)
    return Dataset(spec=spec, split=split, seed=seed,
                   sequences=sequences, masks=list(masks))


def _record_dtype(t_past, t_future, n_agents, has_results) -> np.dtype:
    """The packed layout of one `.trajset` record."""
    t_total = t_past + t_future
    layout = [("coords", "<f8", (t_total, n_agents, 2)), ("ref", "<f8", (t_total, 2)),
              ("mask", "<u1", (t_past, n_agents))]
    if has_results:
        layout += [("imputed", "<f8", (t_past, n_agents, 2)),
                   ("predicted", "<f8", (t_future, n_agents, 2))]
    return np.dtype(layout)


def write_dataset(path, ds: Dataset) -> None:
    seqs = ds.sequences
    if not seqs:
        raise DataError("refusing to write an empty dataset")
    ds.check()  # the records may have been changed after the Dataset was built
    masks = np.stack(ds.masks)
    if not ((masks == 0.0) | (masks == 1.0)).all():
        raise DataError("mask entries must be 0 or 1")
    header = [f"mode={ds.spec.mode}"]
    if ds.spec.mode == "circle":
        header.append(f"radius={ds.spec.radius!r}")
    else:
        header.append(f"angle={ds.spec.angle!r}")
        header.append(f"camera={ds.spec.camera[0]!r},{ds.spec.camera[1]!r}")
    header += ["units=scene",
               f"split={ds.split}",
               f"seed={ds.seed}",
               f"t_past={ds.t_past}",
               f"t_future={ds.t_future}",
               f"n_agents={ds.n_agents}",
               f"count={len(seqs)}",
               f"has_results={0 if ds.results is None else 1}"]
    header += [f"record {s.id}" for s in seqs]

    table = np.empty(len(seqs), _record_dtype(ds.t_past, ds.t_future, ds.n_agents,
                                              ds.results is not None))
    table["coords"] = [seq.coords for seq in seqs]
    table["ref"] = [seq.reference_track for seq in seqs]
    table["mask"] = masks
    if ds.results is not None:
        table["imputed"], table["predicted"] = zip(*ds.results)
    container.write(path, MAGIC, header, [table])


_HEADER_KEYS = {"mode", "radius", "angle", "camera", "units", "split", "seed",
                "t_past", "t_future", "n_agents", "count", "has_results"}


def read_dataset(path) -> Dataset:
    fields, rows, payload = container.read(path, MAGIC, "dataset")
    unknown = fields.keys() - _HEADER_KEYS | {tag for tag, _ in rows} - {"record"}
    if unknown:
        raise DataError(f"{path}: unknown header keys {sorted(unknown)}")
    record_ids = [seq_id for _, seq_id in rows]

    try:
        t_past = int(fields["t_past"])
        t_future = int(fields["t_future"])
        n_agents = int(fields["n_agents"])
        count = int(fields["count"])
        has_results = int(fields.get("has_results", "0"))
        seed = int(fields["seed"])
        split, units = fields["split"], fields["units"]
        if fields["mode"] == "circle":
            spec = MaskingSpec(mode="circle", radius=float(fields["radius"]))
        else:
            cam = tuple(float(v) for v in fields["camera"].split(","))
            spec = MaskingSpec(mode=fields["mode"], angle=float(fields["angle"]), camera=cam)
        record = _record_dtype(t_past, t_future, n_agents, has_results)
    except (KeyError, ValueError, ConfigError) as exc:
        raise DataError(f"{path}: bad header field ({exc})") from None

    if units != "scene":
        raise DataError(f"{path}: unsupported units {units!r}")
    if has_results not in (0, 1):
        raise DataError(f"{path}: has_results must be 0 or 1, got {has_results}")
    if min(count, t_past, n_agents) < 1 or t_future < 0:
        raise DataError(f"{path}: bad sizes count={count} t_past={t_past} "
                        f"t_future={t_future} n_agents={n_agents}")
    if len(record_ids) != count:
        raise DataError(f"{path}: header count={count} but {len(record_ids)} "
                        f"record lines")
    if record.itemsize * count != len(payload):
        raise DataError(f"{path}: payload holds {len(payload)} bytes, expected "
                        f"{record.itemsize * count} for {count} records")

    table = container.take(payload, record, (count,), 0, f"{path}: records")
    if table["mask"].max() > 1:
        raise DataError(f"{path}: mask byte {table['mask'].max()} is not 0 or 1")
    # one aligned copy per field: a packed record can leave its fields unaligned
    sequences = [TrajectorySequence(id=seq_id, coords=coords, reference_track=ref,
                                    t_past=t_past, t_future=t_future)
                 for seq_id, coords, ref in zip(record_ids, table["coords"].copy(),
                                                table["ref"].copy())]
    results = list(zip(table["imputed"].copy(), table["predicted"].copy())) \
        if has_results else None
    return Dataset(spec=spec, split=split, seed=seed, sequences=sequences,
                   masks=list(table["mask"].astype(np.float64)), results=results)


def validate_dataset(ds: Dataset) -> None:
    """Check that the stored masks regenerate from coordinates + scenario."""
    regenerated = apply_mask(*stack_past(ds.sequences), ds.spec)
    for seq, mask, again in zip(ds.sequences, ds.masks, regenerated):
        if not np.array_equal(again, mask):
            raise DataError(f"sequence {seq.id}: stored mask does not match "
                            f"the {ds.spec.label()} scenario")


def stack_arrays(ds: Dataset):
    """Batch views (coords (B,T,N,2), masks (B,T_past,N)) for model code."""
    coords = np.stack([s.coords for s in ds.sequences])
    masks = np.stack(ds.masks)
    return coords, masks
