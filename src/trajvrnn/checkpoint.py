"""Checkpoint files: a text manifest plus a raw float64 payload.

The manifest lists the model configuration, the training epoch, the
optimizer step counter and live learning rate, and one line per tensor
(name, dtype, shape, byte offset). The payload holds little-endian
float64 values in manifest order, so a save/load round-trip is
bit-exact. Optimizer moment estimates are stored alongside the
parameters so a resumed run continues exactly where it stopped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .config import format_value, parse_value
from .errors import ConfigError, DataError
from .model import ModelConfig, TrajectoryModel
from .optim import Adam

MAGIC = "trajvrnn-checkpoint v1"

_MODEL_FIELDS = {f.name: f for f in fields(ModelConfig)}
_MODEL_DEFAULTS = ModelConfig()


@dataclass
class CheckpointData:
    config: ModelConfig
    epoch: int
    adam_step: int
    adam_lr: float
    arrays: dict


def save_checkpoint(path, model: TrajectoryModel, optimizer: Adam | None = None,
                    epoch: int = 0) -> None:
    arrays = {name: p.data for name, p in model.params.items()}
    if optimizer is not None:
        arrays.update(optimizer.state_arrays())

    lines = [MAGIC]
    for name in _MODEL_FIELDS:
        lines.append(f"config.{name}={format_value(name, getattr(model.cfg, name))}")
    lines.append(f"epoch={epoch}")
    lines.append(f"adam.step={optimizer.step_count if optimizer else 0}")
    lines.append(f"adam.lr={(optimizer.lr if optimizer else model.cfg.lr)!r}")

    offset = 0
    blobs = []
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype=np.float64)
        shape = "x".join(str(s) for s in arr.shape) or "0"
        lines.append(f"tensor {name} f8 {shape} {offset}")
        blob = arr.astype("<f8").tobytes()
        blobs.append(blob)
        offset += len(blob)
    lines.append(f"payload_bytes={offset}")

    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path) -> CheckpointData:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from None

    pos = 0
    line_no = 0
    config_values = {}
    tensor_specs = []
    epoch = adam_step = 0
    adam_lr = None
    payload_bytes = None
    while True:
        nl = raw.find(b"\n", pos)
        if nl < 0:
            raise DataError(f"{path}: manifest never terminated")
        line = raw[pos:nl].decode("ascii", errors="replace")
        pos = nl + 1
        line_no += 1
        if line_no == 1:
            if line != MAGIC:
                raise DataError(f"{path}: bad magic {line!r}")
            continue
        try:
            if line.startswith("config."):
                key, value = line[len("config."):].split("=", 1)
                if key not in _MODEL_FIELDS:
                    raise DataError(f"{path}: unknown config key {key!r} (line {line_no})")
                config_values[key] = parse_value(key, value,
                                                 type(getattr(_MODEL_DEFAULTS, key)))
            elif line.startswith("epoch="):
                epoch = int(line.split("=", 1)[1])
            elif line.startswith("adam.step="):
                adam_step = int(line.split("=", 1)[1])
            elif line.startswith("adam.lr="):
                adam_lr = float(line.split("=", 1)[1])
            elif line.startswith("tensor "):
                _, name, dtype, shape, offset = line.split(" ")
                if dtype != "f8":
                    raise DataError(f"{path}: unsupported dtype {dtype!r} for {name}")
                dims = tuple(int(s) for s in shape.split("x")) if shape != "0" else ()
                tensor_specs.append((name, dims, int(offset)))
            elif line.startswith("payload_bytes="):
                payload_bytes = int(line.split("=", 1)[1])
                break
            else:
                raise DataError(f"{path}: unexpected manifest line {line_no}: {line!r}")
        except (ValueError, ConfigError) as exc:
            raise DataError(f"{path}: malformed manifest line {line_no} ({exc}): "
                            f"{line!r}") from None

    blob = raw[pos:]
    if payload_bytes is None or adam_lr is None:
        raise DataError(f"{path}: manifest missing required fields")
    if len(blob) != payload_bytes:
        raise DataError(f"{path}: payload truncated at byte {len(blob)} "
                        f"of {payload_bytes}")
    try:
        config = ModelConfig(**config_values)
    except ConfigError as exc:
        raise DataError(f"{path}: bad model config ({exc})") from None

    arrays = {}
    for name, dims, offset in tensor_specs:
        count = math.prod(dims)
        if min(dims, default=0) < 0 or offset < 0 or offset + 8 * count > payload_bytes:
            raise DataError(f"{path}: tensor {name} of shape {dims} at byte {offset} "
                            f"does not fit the {payload_bytes}-byte payload")
        arrays[name] = np.frombuffer(blob, "<f8", count, offset).reshape(dims).copy()

    return CheckpointData(config=config, epoch=epoch,
                          adam_step=adam_step, adam_lr=adam_lr, arrays=arrays)


def restore_model(ck: CheckpointData) -> TrajectoryModel:
    model = TrajectoryModel(ck.config)
    for name, param in model.params.items():
        if name not in ck.arrays:
            raise DataError(f"checkpoint is missing parameter {name!r}")
        stored = ck.arrays[name]
        if stored.shape != param.data.shape:
            raise DataError(f"checkpoint parameter {name!r} has shape "
                            f"{stored.shape}, expected {param.data.shape}")
        param.data[...] = stored
    return model


def restore_optimizer(ck: CheckpointData, model: TrajectoryModel) -> Adam:
    cfg = ck.config
    opt = Adam(model.parameters(), lr=cfg.lr, decay_factor=cfg.lr_decay,
               decay_interval=cfg.lr_decay_every)
    try:
        opt.load_state(ck.arrays, step_count=ck.adam_step, lr=ck.adam_lr)
    except ConfigError as exc:
        raise DataError(f"checkpoint optimizer state: {exc}") from None
    return opt


def load_model(path) -> TrajectoryModel:
    return restore_model(load_checkpoint(path))
