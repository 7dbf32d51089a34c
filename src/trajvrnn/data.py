"""Synthetic multi-agent scenes, visibility masking, and the dataset file
format.

Agents follow damped second-order dynamics: each is attracted to a
personal offset around a shared reference track (a waypoint-seeking
"ball"), repelled softly from the others, and confined to a bounded
field. All scenes of one `generate_sequences` call are integrated
together, in blocks of a fixed size, as (S, 2) reference and (S, N, 2)
agent arrays; each scene draws from its own child of the seed's
`SeedSequence`, so sequence i depends only on the seed and i.

Visibility is then simulated two ways: a circle of radius r around the
reference, or a camera aperture of half-angle theta tracking the
reference from a fixed sideline position. Both masks work over any
leading axes, so a dataset is masked in one call. Masks mark
availability only; ground-truth coordinates are always retained.

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


@dataclass
class DynamicsParams:
    attraction: float = 0.25
    repulsion: float = 0.3
    damping: float = 0.5
    v_max: float = 1.5
    field_half: float = FIELD_HALF
    offset_radius: float = 5.0
    offset_resample: int = 15
    ball_attraction: float = 0.05
    ball_damping: float = 0.3
    ball_v_max: float = 1.2
    waypoint_tol: float = 2.0
    wall_push: float = 0.5


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
        if not np.isfinite(self.coords).all():
            raise DataError(f"sequence {self.id}: non-finite coordinates")

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


_BLOCK = 256  # scenes integrated together; bounds the (S, N, N, 2) repulsion temporaries


def _norm(v):
    """Length of each 2-vector in `v` (.., 2). A BLAS dot per row, so it
    rounds like `np.linalg.norm` of a single 2-vector (the dot may fuse
    its multiply-add, which `sqrt((v * v).sum(-1))` does not)."""
    return np.sqrt(np.vecdot(v, v))


def _draw_offsets(rng, n, radius):
    r = radius * np.sqrt(rng.uniform(size=n))
    theta = rng.uniform(0, 2 * np.pi, size=n)
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)


def _offset_redraws(rngs, phases, t_total, p: DynamicsParams):
    """Which agents redraw their offset at each step, (S, T, N), and the
    offsets they draw, (S, T, N, 2). The schedule is fixed by `phases`, so
    each scene takes all its draws in one call; per due step they come in
    the order `_draw_offsets` takes them, k radii and then k angles."""
    steps = np.arange(t_total)[:, None]
    due = ((steps + phases[:, None, :]) % p.offset_resample == 0) & (steps > 0)
    k = due.sum(axis=2).ravel()
    scene, step, _ = np.nonzero(due)
    group = scene * t_total + step
    # due agent e, counted in (scene, step, agent) order, follows `before` due
    # agents of earlier (scene, step) pairs, which took 2 * before draws, and
    # e - before of its own step: its radius is draw e + before, its angle
    # k draws later
    before = (np.cumsum(k) - k)[group]
    radius_at = np.arange(scene.size) + before
    raw = np.concatenate([rng.random(2 * n) for rng, n in zip(rngs, due.sum(axis=(1, 2)))])
    # Generator.uniform(lo, hi) is lo + (hi - lo) * random(), exactly
    r = p.offset_radius * np.sqrt(raw[radius_at])
    theta = 2 * np.pi * raw[radius_at + k[group]]
    fresh = np.zeros(due.shape + (2,))
    fresh[due] = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
    return due, fresh


def _simulate(rngs, ids, n_agents, t_total, p: DynamicsParams):
    """Integrate one block of scenes together, scene i drawing only from
    `rngs[i]`: its reference start and waypoint, a new waypoint whenever
    its reference reaches one, then its agents' offsets, start offsets and
    phases, then every offset redraw. Returns coords (S, T, N, 2) and the
    reference tracks (S, T, 2)."""
    fh = p.field_half
    pos, waypoint = (np.array(a) * fh for a in zip(*[
        (rng.uniform(-0.4, 0.4, size=2), rng.uniform(-0.8, 0.8, size=2)) for rng in rngs]))
    vel = np.zeros_like(pos)
    track = np.empty((len(rngs), t_total, 2))
    for t in range(t_total):
        track[:, t] = pos
        for i in np.flatnonzero(_norm(waypoint - pos) < p.waypoint_tol):
            waypoint[i] = rngs[i].uniform(-0.8, 0.8, size=2) * fh
        acc = p.ball_attraction * (waypoint - pos) - p.ball_damping * vel
        vel = vel + acc
        speed = _norm(vel)
        fast = speed > p.ball_v_max
        vel[fast] *= (p.ball_v_max / speed[fast])[:, None]
        pos = pos + vel

    offsets, scatter, phases = map(np.array, zip(*[
        (_draw_offsets(rng, n_agents, p.offset_radius),
         _draw_offsets(rng, n_agents, p.offset_radius),
         rng.integers(0, max(1, p.offset_resample), size=n_agents)) for rng in rngs]))
    # agents start scattered around the reference, inside the field
    pos = np.clip(track[:, 0, None] + offsets + scatter, -fh, fh)
    vel = np.zeros_like(pos)
    if p.offset_resample > 0:
        due, fresh = _offset_redraws(rngs, phases, t_total, p)
    coords = np.empty((len(rngs), t_total, n_agents, 2))
    diverged_at = np.full(len(rngs), -1)
    for t in range(t_total):
        coords[:, t] = pos
        if p.offset_resample > 0:
            np.copyto(offsets, fresh[:, t], where=due[:, t, :, None])
        target = track[:, t, None] + offsets
        acc = p.attraction * (target - pos) - p.damping * vel
        if p.repulsion != 0.0:
            diff = pos[:, :, None, :] - pos[:, None, :, :]
            dist2 = (diff ** 2).sum(axis=-1) + 1.0
            acc += p.repulsion * (diff / dist2[..., None]).sum(axis=2)
        over = np.abs(pos) - fh
        acc -= p.wall_push * np.sign(pos) * np.clip(over, 0.0, None)
        vel = vel + acc
        speed = np.linalg.norm(vel, axis=-1, keepdims=True)
        np.divide(vel * p.v_max, speed, out=vel, where=speed > p.v_max)
        pos = pos + vel
        gone = np.abs(pos).max(axis=(1, 2)) > fh * 10
        if gone.any():
            diverged_at[gone & (diverged_at < 0)] = t
            # a diverged scene restarts at rest so it cannot overflow; the
            # first scene to diverge at all is reported once the block is done
            pos[gone] = 0.0
            vel[gone] = 0.0
    for seq_id, step in zip(ids, diverged_at):
        if step >= 0:
            raise DataError(f"sequence {seq_id}: integration diverged at step {step}")
    return coords, track


def generate_sequences(count, n_agents, t_past, t_future, seed,
                       dynamics: DynamicsParams | None = None):
    """Deterministic batch of interacting sequences for one seed. Scenes are
    integrated together, `_BLOCK` at a time; sequence i draws only from the
    i-th child of `SeedSequence(seed)`, so it depends on `seed` and i alone."""
    if count < 1:
        raise ConfigError("count must be >= 1")
    if n_agents < 1:
        raise ConfigError("n_agents must be >= 1")
    dynamics = dynamics or DynamicsParams()
    t_total = t_past + t_future
    children = np.random.SeedSequence(seed).spawn(count)
    out = []
    for first in range(0, count, _BLOCK):
        block = children[first:first + _BLOCK]
        ids = [f"seq{i:05d}" for i in range(first, first + len(block))]
        coords, tracks = _simulate([np.random.default_rng(c) for c in block], ids,
                                   n_agents, t_total, dynamics)
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
    dist = np.linalg.norm(past - ref[..., None, :], axis=-1)
    return (dist <= radius).astype(np.float64)


def apply_camera_mask(past, ref, angle_deg: float, camera=DEFAULT_CAMERA) -> np.ndarray:
    """Visible iff within `angle_deg` (inclusive) of the camera-to-reference
    direction. An agent exactly at the camera counts as visible. Shapes as
    in `apply_circle_mask`."""
    if not (0 < angle_deg < 180):
        raise ConfigError("angle must be in (0, 180) degrees")
    cam = np.asarray(camera, dtype=np.float64)
    view = ref - cam
    view_norm = np.linalg.norm(view, axis=-1)
    if (view_norm == 0).any():
        raise DataError("reference track passes through the camera position")
    rel = past - cam
    rel_norm = np.linalg.norm(rel, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_ang = (rel * view[..., None, :]).sum(axis=-1) / (rel_norm * view_norm[..., None])
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
        self.check_results()

    def check_results(self):
        """`results`, when present, holds one (imputed, predicted) pair per
        record, shaped (t_past, N, 2) and (t_future, N, 2); else DataError."""
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


def write_dataset(path, ds: Dataset) -> None:
    seqs = ds.sequences
    if not seqs:
        raise DataError("refusing to write an empty dataset")
    ds.check_results()  # `results` may have been set after the Dataset was built
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

    chunks = []
    for i, (seq, mask) in enumerate(zip(seqs, ds.masks)):
        chunks += [np.ascontiguousarray(seq.coords, "<f8"),
                   np.ascontiguousarray(seq.reference_track, "<f8"),
                   mask.astype("<u1")]
        if ds.results is not None:
            chunks += [np.ascontiguousarray(a, "<f8") for a in ds.results[i]]
    container.write(path, MAGIC, header, chunks)


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
        t_total = t_past + t_future
        layout = [("coords", "<f8", (t_total, n_agents, 2)), ("ref", "<f8", (t_total, 2)),
                  ("mask", "<u1", (t_past, n_agents))]
        if has_results:
            layout += [("imputed", "<f8", (t_past, n_agents, 2)),
                       ("predicted", "<f8", (t_future, n_agents, 2))]
        record = np.dtype(layout)
    except (KeyError, ValueError, ConfigError) as exc:
        raise DataError(f"{path}: bad header field ({exc})") from None

    if units != "scene":
        raise DataError(f"{path}: unsupported units {units!r}")
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
