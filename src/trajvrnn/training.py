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
from .errors import DataError, NumericError
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


def loss_rows_to_csv(rows) -> str:
    lines = [LOSS_LOG_HEADER]
    for row in rows:
        lines.append(f"{row['epoch']},{row['total']!r},{row['imputation']!r},"
                     f"{row['prediction']!r}")
    return "\n".join(lines) + "\n"


def _shuffle_rng(seed, epoch):
    return np.random.default_rng([seed, 1_000_003, epoch])


def _noise_rng(seed, epoch, batch_idx):
    return np.random.default_rng([seed, 2_000_003, epoch, batch_idx])


def check_compatible(model, ds: Dataset):
    """A DataError unless the model can read the dataset: equal windows,
    and no more agents than the learned DL adjacency has rows."""
    cfg = model.cfg
    if ds.t_past != cfg.t_past or ds.t_future != cfg.t_future:
        raise DataError(f"dataset windows T=({ds.t_past}+{ds.t_future}) do not match "
                        f"the model's T=({cfg.t_past}+{cfg.t_future})")
    # n_agents_max sizes only the learned DL adjacency; ST and EC take any N
    if cfg.use_dl and ds.n_agents > cfg.n_agents_max:
        raise DataError(f"dataset has N={ds.n_agents} agents, the model supports "
                        f"at most N={cfg.n_agents_max}")


def train(config: RunConfig, dataset: Dataset, out_dir=None, resume=None,
          log_fn=None) -> TrainResult:
    """Train per config on the dataset; optionally resume a checkpoint.

    Writes `checkpoint_epoch_NNNN.ckpt` every `checkpoint_every` epochs
    (except the last) plus `checkpoint_final.ckpt` when out_dir is given.
    On a non-finite loss the current state is saved as
    `checkpoint_diagnostic.ckpt` and the error re-raised. A dataset the
    new or restored model cannot read is a DataError.
    """
    if resume is not None:
        ck = load_checkpoint(resume)
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
    check_compatible(model, dataset)
    coords, masks = stack_arrays(dataset)
    n_seq = coords.shape[0]

    result = TrainResult(model=model, optimizer=optimizer)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)

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
            sums["total"] += out["total"]
            sums["imp"] += out["imp"]
            sums["pre"] += out["pre"]
            n_batches += 1
        optimizer.epoch_tick(epoch)
        row = {"epoch": epoch,
               "total": sums["total"] / n_batches,
               "imputation": sums["imp"] / n_batches,
               "prediction": sums["pre"] / n_batches}
        result.loss_rows.append(row)
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
