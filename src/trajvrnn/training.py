"""Training loop: deterministic batching, loss logging, periodic
checkpoints, and resume.

Every random draw is derived from (seed, epoch, batch index), so a rerun
with the same config reproduces the loss log byte-for-byte and a resumed
run continues exactly as the uninterrupted one would have.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .checkpoint import load_checkpoint, restore_model, restore_optimizer, save_checkpoint
from .config import RunConfig
from .data import Dataset, stack_arrays
from .errors import ConfigError, NumericError
from .model import TrajectoryModel
from .optim import Adam

LOSS_LOG_HEADER = "epoch,total,imputation,prediction"


@dataclass
class TrainResult:
    model: TrajectoryModel
    optimizer: Adam
    loss_rows: list = field(default_factory=list)
    final_path: str = ""


def fit_normalization(dataset: Dataset):
    """Center and scale from the ground-truth coordinates."""
    coords, _ = stack_arrays(dataset)
    center = coords.reshape(-1, 2).mean(axis=0)
    scale = float(coords.reshape(-1, 2).std())
    return (float(center[0]), float(center[1])), max(scale, 1e-6)


def _loss_line(row) -> str:
    return f"{row['epoch']},{row['total']!r},{row['imputation']!r},{row['prediction']!r}\n"


def loss_rows_to_csv(rows) -> str:
    return LOSS_LOG_HEADER + "\n" + "".join(map(_loss_line, rows))


def _restart_loss_log(path, last_epoch):
    """Keep only the log's rows for epochs up to `last_epoch`, where training resumes."""
    kept = []
    if last_epoch > 0 and os.path.exists(path):
        with open(path, encoding="ascii") as fh:
            kept = [line for line in list(fh)[1:] if line.partition(",")[0].isdigit()
                    and int(line.partition(",")[0]) <= last_epoch]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(LOSS_LOG_HEADER + "\n" + "".join(kept))


def _shuffle_rng(seed, epoch):
    return np.random.default_rng([seed, 1_000_003, epoch])


def _noise_rng(seed, epoch, batch_idx):
    return np.random.default_rng([seed, 2_000_003, epoch, batch_idx])


def check_compatible(model, ds: Dataset):
    """The dataset's stacked (coords, masks) if they keep the model's
    input contract (`TrajectoryModel.check_inputs`), else a DataError."""
    return model.check_inputs(*stack_arrays(ds), model.cfg.t_past + model.cfg.t_future)


def train(config: RunConfig, dataset: Dataset, out_dir=None, resume=None,
          log_fn=None) -> TrainResult:
    """Train per config on the dataset; optionally resume a checkpoint.

    With out_dir, appends each epoch's row to `loss_log.csv` as the epoch
    ends (a resume from epoch k keeps the rows up to k and drops the rest),
    then writes `checkpoint_epoch_NNNN.ckpt` every `checkpoint_every` epochs
    but the last, and `checkpoint_final.ckpt`. On a non-finite loss the
    state is saved as `checkpoint_diagnostic.ckpt` and the error re-raised.
    A dataset the new or restored model cannot read is a DataError, and a
    checkpoint of a later epoch than `config.epochs` a ConfigError.
    """
    if resume is not None:
        ck = load_checkpoint(resume)
        if ck.epoch > config.epochs:
            raise ConfigError(f"{resume} holds epoch {ck.epoch}, past epochs={config.epochs}")
        model = restore_model(ck)
        optimizer = restore_optimizer(ck, model)
        start_epoch = ck.epoch
    else:
        model_cfg = config.model_config()
        if config.normalize:
            center, scale = fit_normalization(dataset)
            model_cfg = replace(model_cfg, coord_center=center, coord_scale=scale)
        model = TrajectoryModel(model_cfg)
        optimizer = Adam(model.parameters(), lr=model_cfg.lr,
                         decay_factor=model_cfg.lr_decay,
                         decay_interval=model_cfg.lr_decay_every)
        start_epoch = 0
    coords, masks = check_compatible(model, dataset)
    n_seq = coords.shape[0]

    result = TrainResult(model=model, optimizer=optimizer)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        log_path = os.path.join(out_dir, "loss_log.csv")
        _restart_loss_log(log_path, start_epoch)

    seed = config.seed
    for epoch in range(start_epoch + 1, config.epochs + 1):
        order = _shuffle_rng(seed, epoch).permutation(n_seq)
        sums = {"total": 0.0, "imp": 0.0, "pre": 0.0}
        n_batches = 0
        for batch_idx, start in enumerate(range(0, n_seq, config.batch_size)):
            pick = order[start:start + config.batch_size]
            rng = _noise_rng(seed, epoch, batch_idx)
            try:
                out = model.train_step(coords[pick], masks[pick], optimizer, rng=rng)
            except NumericError:
                if out_dir is not None:
                    save_checkpoint(os.path.join(out_dir, "checkpoint_diagnostic.ckpt"),
                                    model, optimizer, epoch=epoch - 1)
                raise
            for key in sums:
                sums[key] += out[key]
            n_batches += 1
        optimizer.epoch_tick(epoch)
        row = {"epoch": epoch,
               "total": sums["total"] / n_batches,
               "imputation": sums["imp"] / n_batches,
               "prediction": sums["pre"] / n_batches}
        result.loss_rows.append(row)
        if out_dir is not None:
            with open(log_path, "a", encoding="ascii") as fh:
                fh.write(_loss_line(row))
        if log_fn is not None:
            log_fn(row)
        if (out_dir is not None and config.checkpoint_every > 0
                and epoch % config.checkpoint_every == 0 and epoch < config.epochs):
            save_checkpoint(os.path.join(out_dir, f"checkpoint_epoch_{epoch:04d}.ckpt"),
                            model, optimizer, epoch=epoch)

    if out_dir is not None:
        result.final_path = os.path.join(out_dir, "checkpoint_final.ckpt")
        save_checkpoint(result.final_path, model, optimizer, epoch=config.epochs)
    return result
