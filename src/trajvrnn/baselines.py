"""Classical imputation/prediction baselines and the evaluation metrics.

All functions are pure numpy over (T, N, 2) arrays (or batches thereof
for the metrics). Observed steps are always copied through; each imputer
only decides what to write at missing steps.
"""

from __future__ import annotations

import numpy as np

from .data import SCENE_CENTER, _length
from .errors import ShapeError


def _fill_per_agent(coords, mask, fill_fn):
    """Shared scaffolding: copy observed steps, ask `fill_fn` for the rest;
    an agent never observed sits at `SCENE_CENTER`."""
    coords = np.asarray(coords, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    t, n, _ = coords.shape
    if mask.shape != (t, n):
        raise ShapeError(f"mask {mask.shape} does not match coords {coords.shape}")
    out = coords.copy()
    for i in range(n):
        observed = mask[:, i] > 0
        if observed.all():
            continue
        if not observed.any():
            out[~observed, i] = SCENE_CENTER
            continue
        out[~observed, i] = fill_fn(coords[:, i], observed)
    return out


def impute_mean(coords, mask):
    """Missing steps get the mean of the agent's observed positions."""
    return _fill_per_agent(coords, mask, lambda track, obs: track[obs].mean(axis=0))


def impute_median(coords, mask):
    """Missing steps get the per-coordinate median of observed positions."""
    return _fill_per_agent(coords, mask, lambda track, obs: np.median(track[obs], axis=0))


def impute_linear_fit(coords, mask):
    """Linear interpolation between the nearest observed neighbours in
    time; flat extrapolation beyond the first/last observation."""
    def fill(track, obs):
        t_all = np.arange(len(track), dtype=np.float64)
        t_obs = t_all[obs]
        missing = t_all[~obs]
        return np.stack([np.interp(missing, t_obs, track[obs, c])
                         for c in range(2)], axis=-1)

    return _fill_per_agent(coords, mask, fill)


def predict_constant_velocity(imputed_past, t_future):
    """Extrapolate the last-step velocity linearly; single-step pasts
    have zero velocity."""
    past = np.asarray(imputed_past, dtype=np.float64)
    if past.shape[0] >= 2:
        velocity = past[-1] - past[-2]
    else:
        velocity = np.zeros_like(past[-1])
    steps = np.arange(1, t_future + 1, dtype=np.float64)[:, None, None]
    return past[-1][None] + steps * velocity[None]


# ---------------------------------------------------------------------------
# metrics


def _pooled_distance(estimate, truth, select=None):
    estimate = np.asarray(estimate, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if estimate.shape != truth.shape:
        raise ShapeError(f"estimate {estimate.shape} vs truth {truth.shape}")
    dist = _length(estimate[..., 0] - truth[..., 0], estimate[..., 1] - truth[..., 1])
    if select is not None:
        select = np.asarray(select, dtype=bool)
        if select.shape != dist.shape:
            raise ShapeError(f"selection {select.shape} vs distances {dist.shape}")
        if not select.any():
            return 0.0
        dist = dist[select]
    return float(dist.mean())


def metric_i_l2(imputed, truth, mask=None, variant="all"):
    """Mean Euclidean error over the past window.

    variant "all" averages every (step, agent) cell; "missing-only"
    restricts to mask == 0 cells (0.0 when nothing is missing).
    """
    if variant == "all":
        return _pooled_distance(imputed, truth)
    if variant == "missing-only":
        if mask is None:
            raise ShapeError("missing-only variant needs the mask")
        return _pooled_distance(imputed, truth, select=np.asarray(mask) == 0)
    raise ShapeError(f"unknown metric variant {variant!r}")


def metric_p_l2(predicted, truth):
    """Mean Euclidean error over the future window."""
    return _pooled_distance(predicted, truth)
