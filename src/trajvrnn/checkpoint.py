"""Checkpoint files: a text manifest plus a raw float64 payload.

The manifest lists the model configuration, the training epoch, the
optimizer step counter and live learning rate, and one line per tensor
(name, dtype, shape, byte offset). The payload holds little-endian
float64 values in manifest order, each tensor starting where the one
before it ends and the last ending the payload, so a save/load
round-trip is bit-exact. Every value is finite, and every tensor is a
parameter or, stored so a resumed run continues exactly where it
stopped, one of its Adam moments.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import container
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

    lines = [f"config.{name}={format_value(name, getattr(model.cfg, name))}"
             for name in _MODEL_FIELDS]
    lines.append(f"epoch={epoch}")
    lines.append(f"adam.step={optimizer.step_count if optimizer else 0}")
    lines.append(f"adam.lr={(optimizer.lr if optimizer else model.cfg.lr)!r}")

    offset = 0
    chunks = []
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype=np.float64)
        shape = "x".join(str(s) for s in arr.shape) or "0"
        lines.append(f"tensor {name} f8 {shape} {offset}")
        chunks.append(np.ascontiguousarray(arr, "<f8"))
        offset += arr.nbytes
    container.write(path, MAGIC, lines, chunks)


def load_checkpoint(path) -> CheckpointData:
    manifest, rows, payload = container.read(path, MAGIC, "checkpoint")
    config_values = {}
    arrays = {}
    try:
        for key, value in manifest.items():
            name = key.removeprefix("config.")
            if name != key and name in _MODEL_FIELDS:
                config_values[name] = parse_value(name, value,
                                                  type(getattr(_MODEL_DEFAULTS, name)))
            elif key not in ("epoch", "adam.step", "adam.lr"):
                raise DataError(f"{path}: unknown manifest key {key!r}")
        config = ModelConfig(**config_values)
        epoch = int(manifest.get("epoch", 0))
        adam_step = int(manifest.get("adam.step", 0))
        adam_lr = float(manifest["adam.lr"])
        if epoch < 0 or adam_step < 0:  # a negative step zeroes Adam's bias correction
            raise DataError(f"{path}: epoch and adam.step must be >= 0, "
                            f"got {epoch} and {adam_step}")
        if not 0.0 <= adam_lr < np.inf:  # false for nan too
            raise DataError(f"{path}: adam.lr must be finite and >= 0, got {adam_lr}")
        end = 0
        for tag, spec in rows:
            name, dtype, shape, offset = spec.split(" ")
            if tag != "tensor" or dtype != "f8" or name in arrays or int(offset) != end:
                raise DataError(f"{path}: unexpected, non-f8, repeated or misplaced tensor "
                                f"line {tag} {spec!r} (the tensors before it end at {end})")
            dims = tuple(int(s) for s in shape.split("x")) if shape != "0" else ()
            arrays[name] = container.take(payload, "<f8", dims, end, f"{path}: tensor {name}")
            end += arrays[name].nbytes
        if end != len(payload):
            raise DataError(f"{path}: the tensors end at byte {end} of {len(payload)}")
        if not np.isfinite(np.frombuffer(payload, "<f8")).all():  # one pass over every tensor
            bad = next(name for name, arr in arrays.items() if not np.isfinite(arr).all())
            raise DataError(f"{path}: tensor {bad} holds non-finite values")
    except (KeyError, ValueError, ConfigError) as exc:
        raise DataError(f"{path}: bad manifest ({exc!r})") from None

    return CheckpointData(config=config, epoch=epoch,
                          adam_step=adam_step, adam_lr=adam_lr, arrays=arrays)


def restore_model(ck: CheckpointData) -> TrajectoryModel:
    def load(name, shape):
        # runs before the model allocates the parameter, so a huge stored
        # config fails here instead of in numpy; the copy keeps the model
        # from sharing arrays with `ck`
        if name not in ck.arrays:
            raise DataError(f"checkpoint is missing parameter {name!r}")
        stored = ck.arrays[name]
        if stored.shape != shape:
            raise DataError(f"checkpoint parameter {name!r} has shape "
                            f"{stored.shape}, expected {shape}")
        return stored.copy()

    model = TrajectoryModel(ck.config, load)
    unknown = ck.arrays.keys() - {prefix + name for name in model.params
                                  for prefix in ("", "adam.m.", "adam.v.")}
    if unknown:
        raise DataError(f"checkpoint holds tensors of no parameter: {sorted(unknown)}")
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
