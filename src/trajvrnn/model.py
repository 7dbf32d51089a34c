"""Variational recurrent model over past (imputation) and future
(prediction) streams of a multi-agent scene.

Each past step: encode the masked coordinates on the agent graph, form
prior (from the hidden state) and posterior (from graph features +
hidden state) latents, decode a bivariate Gaussian over the true
position, then shrink the hidden state by a learned decay of each
agent's lag since it was last seen and advance a GRU. Future steps
mirror this without decay, conditioning the decoder and the recurrence
on the latent from the last past step. A recurrence whose state nothing
reads (the last step of the last window run) is skipped, in training and
inference alike; at inference, so is that step's encoding, which feeds
only the recurrence.

Training and inference run one rollout, one step body per stream. They
differ in where the latent comes from (the posterior and frozen noise,
or the prior and a Generator) and where a step's graph features come
from: under teacher forcing each window is encoded in one call, while
inference encodes each step alone, a future step on its own decoded
mean, so one step's arrays bound its peak memory. The decay reads only
the lags, which come from the mask, so both take it for the whole past
window in one call.

Training maximises the sequential evidence lower bound: reconstruction
negative log-likelihood plus a weighted KL between posterior and prior,
accumulated over both windows. Each model term is one tape node with a
closed-form backward: `temporal_decay`, `sample_latent` (the
reparameterised draw), `bigauss_nll` (the split of the decoder's 5 raw
outputs and the NLL) and `gauss_kl`, the last two summed over the agents.
Their forwards keep the evaluation order of the primitive ops they
replace, so the losses are bit-identical to that composition, and they
keep no (B, N, Z) intermediate for backward. Inference samples latents
from the prior, copies observations through at visible steps, and rolls
the future autoregressively on its own decoded means.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import autodiff as ad
from .autodiff import (Parameter, Tensor, _accumulate, _check_finite, _make, _unbroadcast,
                       backward, linear, new_parameter, no_grad, tmean)
from .errors import ConfigError, DataError, ShapeError
from .graph import SpatialEncoder

LOG_2PI = float(np.log(2.0 * np.pi))
RHO_LIMIT = 0.999  # |correlation| bound of the decoded bivariate Gaussian

MODES = ("joint", "impute-only", "predict-only")


@dataclass
class ModelConfig:
    # architecture
    n_agents_max: int = 16
    d_embed: int = 16
    d_graph: int = 16
    d_hidden: int = 256
    d_latent: int = 64
    ec_hidden: int = 8
    ec_pool: int = 4
    # sequence windows
    t_past: int = 40
    t_future: int = 10
    # ablation switches
    use_st: bool = True
    use_dl: bool = True
    use_ec: bool = True
    use_td: bool = True
    share_streams: bool = True
    mode: str = "joint"
    # loss weights
    lambda_imp_kl: float = 1.0
    lambda_pre_kl: float = 1.0
    lambda_pre: float = 1.0
    # alternative-form switch
    lag_mode: str = "current"           # or "previous"
    logvar_limit: float = 10.0
    # coordinate standardisation applied inside the model
    coord_center: tuple = (0.0, 0.0)
    coord_scale: float = 1.0
    # optimizer schedule
    lr: float = 0.001
    lr_decay: float = 0.9
    lr_decay_every: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.lag_mode not in ("current", "previous"):
            raise ConfigError(f"bad lag_mode {self.lag_mode!r}")
        if min(self.n_agents_max, self.d_embed, self.d_graph, self.d_hidden,
               self.d_latent, self.ec_hidden, self.ec_pool, self.t_past) < 1:
            raise ConfigError("model sizes and t_past must be >= 1")
        if self.t_future < 0 or len(self.coord_center) != 2:
            raise ConfigError("t_future must be >= 0 and coord_center a 2D point")
        if self.mode != "impute-only" and self.t_future < 1:
            raise ConfigError(f"{self.mode} mode needs t_future >= 1")
        if not (self.use_st or self.use_dl or self.use_ec):
            raise ConfigError("enable at least one graph branch")
        # inference rolls the future out in every mode
        if self.use_ec and not (self.use_st or self.use_dl) and self.t_future > 0:
            raise ConfigError("the edge-conditioned branch alone cannot encode "
                              "future steps; enable ST or DL as well")
        bad = [name for name in ("coord_center", "coord_scale", "logvar_limit", "lr",
                                 "lr_decay", "lambda_imp_kl", "lambda_pre_kl", "lambda_pre")
               if not np.all(np.isfinite(getattr(self, name)))]
        if bad:
            raise ConfigError(f"{', '.join(bad)} must be finite")
        if self.coord_scale <= 0 or self.logvar_limit <= 0:
            raise ConfigError("coord_scale and logvar_limit must be positive")
        if self.lr < 0 or self.lr_decay < 0 or self.lr_decay_every < 0:
            raise ConfigError("lr, lr_decay and lr_decay_every must be >= 0 "
                              "(lr_decay_every=0: never decay)")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


@dataclass
class LatentDistribution:
    """Diagonal Gaussian over the latent space: mu and log-variance."""
    mu: Tensor
    logvar: Tensor


def sample_latent(dist: LatentDistribution, noise) -> Tensor:
    """Reparameterised draw z = mu + exp(logvar * 0.5) * noise (noise
    supplied), one tape node "sample_latent" with parents (mu, logvar).
    It keeps only the noise array; backward recomputes exp(logvar * 0.5)."""
    mu, logvar = dist.mu, dist.logvar
    noise = np.asarray(noise, dtype=np.float64)
    if not mu.shape == logvar.shape == noise.shape:
        raise ShapeError(f"sample_latent: mu {mu.shape}, logvar {logvar.shape} and "
                         f"noise {noise.shape} differ")
    with np.errstate(over="ignore", invalid="ignore"):  # _make rejects non-finite
        out = mu.data + np.exp(logvar.data * 0.5) * noise
    return _make(out, "sample_latent", (mu, logvar),
                 partial(_sample_latent_backward, mu, logvar, noise))


def _sample_latent_backward(mu, logvar, noise, grad):
    if mu.requires_grad:
        _accumulate(mu, grad)
    if logvar.requires_grad:
        g = grad * noise
        g *= np.exp(logvar.data * 0.5)
        g *= 0.5
        _accumulate(logvar, g, owned=True)


def temporal_lags(mask, lag_mode: str = "current"):
    """Steps since the gating observation, per agent, for every step of
    a window: `mask` (.., T, N) gives a float array (.., T, N, 1).

    The first step's lags are 0. After that an agent that the gate shows
    observed gets lag 1 and a missing one accumulates. The gate at step t
    is mask row t ("current") or row t - 1 ("previous", GRU-D's rule).
    """
    m = np.asarray(mask, dtype=np.float64)[..., None]
    lags = np.zeros_like(m)
    for t in range(1, m.shape[-3]):
        gate = m[..., t if lag_mode == "current" else t - 1, :, :]
        lags[..., t, :, :] = gate * 1.0 + (1.0 - gate) * (1.0 + lags[..., t - 1, :, :])
    return lags


def temporal_decay(delta, weight: Tensor, bias: Tensor) -> Tensor:
    """Decay factor 1 / exp(max(0, w * lag + b)) in (0, 1] of the lags
    `delta`, one tape node "temporal_decay" with parents (weight, bias)
    that keeps only the lags; backward recomputes the rest. The exp is
    checked before the division, which would turn an overflow into 0."""
    weight, bias = ad.as_tensor(weight), ad.as_tensor(bias)
    delta = np.asarray(delta, dtype=np.float64)
    pre, grow = _decay_terms(delta, weight.data, bias.data)
    for array in (pre, grow):
        _check_finite(array, "temporal_decay", (weight, bias))
    return _make(1.0 / grow, "temporal_decay", (weight, bias),
                 partial(_temporal_decay_backward, delta, weight, bias), checked=True)


@np.errstate(over="ignore", invalid="ignore")  # checked by temporal_decay
def _decay_terms(delta, w, b):  # in the order of the composed ops
    pre = delta * w + b
    return pre, np.exp(np.maximum(pre, 0.0))


@np.errstate(over="ignore")  # grow * grow -> inf gives the composed ops' 0
def _temporal_decay_backward(delta, weight, bias, grad):
    pre, grow = _decay_terms(delta, weight.data, bias.data)
    g = -grad / (grow * grow) * grow * (pre > 0.0)  # through 1 / ., exp, max(0, .)
    if weight.requires_grad:
        _accumulate(weight, _unbroadcast(g * delta, weight.shape), owned=True)
    if bias.requires_grad:
        _accumulate(bias, _unbroadcast(g, bias.shape))


def bigauss_nll(target, raw) -> Tensor:
    """Negative log density of the bivariate Gaussians that the decoder's
    5 raw outputs (.., N, 5) describe (mu_x, mu_y, log sigma_x, log
    sigma_y, pre-tanh rho; rho = 0.999 tanh(.)), summed over the N agents.

    One tape node "bigauss_nll" whose only parent is `raw`; the target
    (.., N, 2) is data. The node keeps them and nothing else: backward
    recomputes the split and takes the closed-form gradient (Graves 2013,
    arXiv:1308.0850, section 4.1)."""
    raw = ad.as_tensor(raw)
    target = ad.as_tensor(target).data
    if raw.ndim < 2 or raw.shape[-1] != 5 or target.shape != raw.shape[:-1] + (2,):
        raise ShapeError(f"bigauss_nll: target {target.shape} does not fit raw "
                         f"outputs {raw.shape}; expected (.., N, 2) and (.., N, 5)")
    nll, _ = _bigauss_terms(target, raw.data)
    return _make(nll, "bigauss_nll", (raw,), partial(_bigauss_nll_backward, target, raw))


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # _make rejects non-finite
def _bigauss_terms(target, raw):
    """The NLL summed over the agents, composed in the order of the
    primitive ops it replaces, and the terms its gradient reads."""
    sigma = np.exp(raw[..., 2:4])
    tanh_rho = np.tanh(raw[..., 4:5])
    rho = tanh_rho * RHO_LIMIT
    z = (target - raw[..., 0:2]) / sigma
    zx, zy = z[..., 0:1], z[..., 1:2]
    one_minus = 1.0 - rho * rho
    quad = zx * zx + zy * zy - 2.0 * rho * zx * zy
    nll = (LOG_2PI + np.log(sigma[..., 0:1]) + np.log(sigma[..., 1:2])
           + 0.5 * np.log(one_minus) + quad / (2.0 * one_minus))
    return nll.sum(axis=-1).sum(axis=-1), (sigma, tanh_rho, rho, z, one_minus, quad)


def _bigauss_nll_backward(target, raw, grad):
    _, (sigma, tanh_rho, rho, z, one_minus, quad) = _bigauss_terms(target, raw.data)
    zx, zy = z[..., 0:1], z[..., 1:2]
    g = grad[..., None, None] / one_minus  # one value per sequence, to every agent
    dz = np.concatenate([zx - rho * zy, zy - rho * zx], axis=-1) * g
    out = np.empty(raw.shape)
    out[..., 0:2] = -dz / sigma
    out[..., 2:4] = grad[..., None, None] - z * dz
    drho = (rho * (quad / one_minus - 1.0) - zx * zy) * g
    out[..., 4:5] = drho * (RHO_LIMIT * (1.0 - tanh_rho * tanh_rho))
    _accumulate(raw, out, owned=True)


def gauss_kl(post: LatentDistribution, prior: LatentDistribution) -> Tensor:
    """Closed-form KL(post || prior) for diagonal Gaussians (.., N, Z),
    summed over the latent axis and the N agents.

    One tape node "gauss_kl" with parents (post.mu, post.logvar, prior.mu,
    prior.logvar), all of one shape. It keeps nothing but its parents:
    backward recomputes exp(logvar) and the mean offset from them (Kingma
    and Welling 2014, appendix B)."""
    parents = (post.mu, post.logvar, prior.mu, prior.logvar)
    if len({p.shape for p in parents}) != 1 or post.mu.ndim < 2:
        raise ShapeError(f"gauss_kl: shapes {[p.shape for p in parents]} are not one (.., N, Z)")
    return _make(_kl_forward(*(p.data for p in parents)), "gauss_kl", parents,
                 partial(_gauss_kl_backward, parents))


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # _make rejects non-finite
def _kl_forward(mu_q, lv_q, mu_p, lv_p):
    dmu = mu_q - mu_p
    per_dim = (0.5 * (lv_p - lv_q)
               + (np.exp(lv_q) + dmu * dmu) / (2.0 * np.exp(lv_p))
               - 0.5)
    return per_dim.sum(axis=-1).sum(axis=-1)


def _gauss_kl_backward(parents, grad):
    mu_q, lv_q, mu_p, lv_p = parents
    g = grad[..., None, None]
    var_p = np.exp(lv_p.data)
    diff = mu_q.data - mu_p.data
    dmu = diff / var_p
    ratio = np.exp(lv_q.data) / var_p
    if lv_q.requires_grad:
        _accumulate(lv_q, 0.5 * (ratio - 1.0) * g, owned=True)
    if lv_p.requires_grad:
        _accumulate(lv_p, 0.5 * (1.0 - ratio - dmu * diff) * g, owned=True)
    dmu *= g
    if mu_p.requires_grad:
        _accumulate(mu_p, -dmu, owned=True)
    if mu_q.requires_grad:
        _accumulate(mu_q, dmu, owned=True)


def gru_step(inputs, h: Tensor, weights, decay=None) -> Tensor:
    """Standard gated recurrent cell over the concatenated `inputs` and
    h * decay (h without a decay); weights = (wz, bz, wr, br, wh, bh)."""
    return ad.gru(inputs, h, *weights, decay=decay)


class TrajectoryModel:
    """Full imputation + prediction model with named parameters.

    Input contract (`check_inputs`, for training, inference and
    `training.check_compatible` alike): finite coords (B, T, N, 2), T =
    t_past + t_future to train and t_past to infer, which also takes one
    (T, N, 2) sequence; a (B, t_past, N) mask of 0 (hidden) or 1 (visible);
    N <= n_agents_max under `use_dl`. Anything else is a DataError."""

    def __init__(self, cfg: ModelConfig, load=None):
        """`load(name, shape)`, if given, supplies every parameter's values
        in place of the seeded random init (see `autodiff.new_parameter`)."""
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        self.encoder = SpatialEncoder(cfg, rng, load=load)
        self.params: dict[str, Parameter] = dict(self.encoder.params)

        h, z, dg = cfg.d_hidden, cfg.d_latent, cfg.d_graph

        def param(name, shape, fill=None):
            return new_parameter(self.params, name, shape, rng, fill, load)

        def gauss_head(name, d_in):
            return (param(f"{name}.w0", (d_in, z)), param(f"{name}.b0", (z,), fill=0),
                    param(f"{name}.w_mu", (z, z)), param(f"{name}.b_mu", (z,), fill=0),
                    param(f"{name}.w_lv", (z, z)), param(f"{name}.b_lv", (z,), fill=0))

        self.prior_head = gauss_head("prior", h)
        self.post_head = gauss_head("posterior", dg + h)
        self.zfeat_past_w = (param("zfeat.past.w", (z, z)), param("zfeat.past.b", (z,), fill=0))
        self.zfeat_future_w = (param("zfeat.future.w", (2 * z, z)),
                               param("zfeat.future.b", (z,), fill=0))

        def decoder(name):
            return (param(f"{name}.w0", (z + h, z)), param(f"{name}.b0", (z,), fill=0),
                    param(f"{name}.w_out", (z, 5)), param(f"{name}.b_out", (5,), fill=0))

        self.dec_impute = decoder("dec.impute")
        self.dec_predict = decoder("dec.predict")

        def cell(name):
            d_in = dg + z + h
            return (param(f"{name}.wz", (d_in, h)), param(f"{name}.bz", (h,), fill=0),
                    param(f"{name}.wr", (d_in, h)), param(f"{name}.br", (h,), fill=0),
                    param(f"{name}.wh", (d_in, h)), param(f"{name}.bh", (h,), fill=0))

        self.rnn_main = cell("rnn.main")
        self.rnn_pred = self.rnn_main if cfg.share_streams else cell("rnn.pred")

        # small positive init keeps the decay pre-activation off the
        # max(0, .) kink, so the module trains from the first step
        self.td_weight = param("td.weight", (1,), fill=0.1)
        self.td_bias = param("td.bias", (1,), fill=0.05)

    # ------------------------------------------------------------------
    def parameters(self):
        return list(self.params.values())

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def _normalize(self, coords):
        c = np.asarray(self.cfg.coord_center, dtype=np.float64)
        return (np.asarray(coords, dtype=np.float64) - c) / self.cfg.coord_scale

    def _denormalize(self, coords):
        c = np.asarray(self.cfg.coord_center, dtype=np.float64)
        return np.asarray(coords, dtype=np.float64) * self.cfg.coord_scale + c

    def _gauss_head(self, inputs, head) -> LatentDistribution:
        """Diagonal Gaussian from an MLP over the concatenated `inputs`."""
        w0, b0, w_mu, b_mu, w_lv, b_lv = head
        hidden = linear(inputs, w0, b0, act="tanh")
        mu = linear([hidden], w_mu, b_mu)
        lv = linear([hidden], w_lv, b_lv, act=(-self.cfg.logvar_limit, self.cfg.logvar_limit))
        return LatentDistribution(mu=mu, logvar=lv)

    def prior_params(self, h_prev: Tensor) -> LatentDistribution:
        return self._gauss_head([h_prev], self.prior_head)

    def posterior_params(self, graph_features: Tensor, h_prev: Tensor) -> LatentDistribution:
        return self._gauss_head([graph_features, h_prev], self.post_head)

    def zfeat_past(self, z: Tensor) -> Tensor:
        return linear([z], *self.zfeat_past_w, act="tanh")

    def zfeat_future(self, z: Tensor, z_tp: Tensor) -> Tensor:
        if z_tp is None:
            raise ConfigError("zfeat_future needs the last past-step latent")
        return linear([z, z_tp], *self.zfeat_future_w, act="tanh")

    def _decode(self, features: Tensor, h_prev: Tensor, head) -> Tensor:
        """The 5 raw outputs (.., 5) that `bigauss_nll` takes; the first
        two are the mean."""
        w0, b0, w_out, b_out = head
        hidden = linear([features, h_prev], w0, b0, act="tanh")
        return linear([hidden], w_out, b_out)

    def decode_imputation(self, zf: Tensor, h_prev: Tensor) -> Tensor:
        return self._decode(zf, h_prev, self.dec_impute)

    def decode_prediction(self, zf: Tensor, h_prev: Tensor) -> Tensor:
        return self._decode(zf, h_prev, self.dec_predict)

    def temporal_decay(self, delta) -> Tensor:
        return temporal_decay(delta, self.td_weight, self.td_bias)

    # ------------------------------------------------------------------
    def check_inputs(self, coords, mask, steps):
        """float64 coords (B, steps, N, 2) and mask under the class's contract."""
        cfg = self.cfg
        coords = np.asarray(coords, dtype=np.float64)
        mask = np.asarray(mask, dtype=np.float64)
        if coords.ndim != 4 or coords.shape[1] != steps or coords.shape[3] != 2:
            raise DataError(f"expected coords (B, {steps}, N, 2), got {coords.shape}")
        b, _, n, _ = coords.shape
        if mask.shape != (b, cfg.t_past, n):
            raise DataError(f"expected mask {(b, cfg.t_past, n)}, got {mask.shape}")
        if cfg.use_dl and n > cfg.n_agents_max:
            raise DataError(f"{n} agents exceed the DL n_agents_max={cfg.n_agents_max}")
        if not np.isfinite(coords).all():
            raise DataError("coordinates contain non-finite values")
        if not ((mask == 0.0) | (mask == 1.0)).all():
            raise DataError("mask entries must be 0 or 1")
        return coords, mask

    def draw_noise(self, rng: np.random.Generator, batch: int, n_agents: int):
        """Reparameterisation noise for every step, in a fixed draw order."""
        cfg = self.cfg
        past = rng.standard_normal((cfg.t_past, batch, n_agents, cfg.d_latent))
        future = rng.standard_normal((cfg.t_future, batch, n_agents, cfg.d_latent))
        return {"past": past, "future": future}

    def _rollout(self, x, mask, noise, teacher):
        """Run the past window, then the future window, and yield each
        step's (past, t, prior, post, raw): whether it is a past step, its
        index in the whole window, the prior, the posterior (None without
        a teacher) and the decoder's 5 raw outputs.

        With `teacher`, `x` spans both windows and `noise` is the frozen
        draw of `draw_noise`; without, `x` is the past window and `noise`
        a Generator, and a step is encoded only if its recurrence runs.
        Training runs no future window in impute-only mode; inference
        rolls it out in every mode.
        """
        cfg = self.cfg
        b, _, n = mask.shape
        run_future = cfg.t_future > 0 and not (teacher and cfg.mode == "impute-only")
        # the last step's recurrence is skipped: nothing reads its state
        last = cfg.t_past + cfg.t_future - 1 if run_future else cfg.t_past - 1

        def eps(stream, t):
            return noise[stream][t] if teacher else noise.standard_normal((b, n, cfg.d_latent))

        thetas = self.encoder.edge_weight_matrices() if cfg.use_ec else None
        if cfg.use_td and last:
            decay = self.temporal_decay(temporal_lags(mask, cfg.lag_mode)[:, :last])
        h = Tensor(np.zeros((b, n, cfg.d_hidden)))
        window = self.encoder.forward(x[:, :cfg.t_past], mask, thetas) if teacher else None
        for t in range(cfg.t_past):
            fg = window[:, t] if teacher else None
            prior = self.prior_params(h)
            post = self.posterior_params(fg, h) if teacher else None
            z = sample_latent(post if teacher else prior, eps("past", t))
            zf = self.zfeat_past(z)
            yield True, t, prior, post, self.decode_imputation(zf, h)
            if t < last:
                if not teacher:
                    fg = self.encoder.forward(x[:, t], mask[:, t], thetas)
                h = gru_step([fg, zf], h, self.rnn_main, decay[:, t] if cfg.use_td else None)
        if not run_future:
            return

        z_tp = z if cfg.share_streams else z.detach()
        if not cfg.share_streams:
            h = Tensor(np.zeros((b, n, cfg.d_hidden)))
        window = self.encoder.forward(x[:, cfg.t_past:], None, thetas) if teacher else None
        for t in range(cfg.t_past, last + 1):
            fg = window[:, t - cfg.t_past] if teacher else None
            prior = self.prior_params(h)
            post = self.posterior_params(fg, h) if teacher else None
            z = sample_latent(post if teacher else prior, eps("future", t - cfg.t_past))
            zf = self.zfeat_future(z, z_tp)
            raw = self.decode_prediction(zf, h)
            yield False, t, prior, post, raw
            if t < last:
                if not teacher:
                    fg = self.encoder.forward(raw.data[..., 0:2], None, thetas)
                h = gru_step([fg, zf], h, self.rnn_pred)

    def training_losses(self, coords, mask, noise):
        """Forward both streams with teacher forcing; returns tensors
        {imp_nll, imp_kl, imp, pre_nll, pre_kl, pre, total}. A stream
        that does not run scores 0."""
        cfg = self.cfg
        coords, mask = self.check_inputs(coords, mask, cfg.t_past + cfg.t_future)
        x = self._normalize(coords)
        sums = {key: Tensor(np.zeros(len(mask)))
                for key in ("imp_nll", "imp_kl", "pre_nll", "pre_kl")}
        for past, t, prior, post, raw in self._rollout(x, mask, noise, teacher=True):
            stream = "imp" if past else "pre"
            sums[f"{stream}_nll"] = sums[f"{stream}_nll"] + bigauss_nll(x[:, t], raw)
            sums[f"{stream}_kl"] = sums[f"{stream}_kl"] + gauss_kl(post, prior)

        losses = {}
        for stream, kl_weight in (("imp", cfg.lambda_imp_kl), ("pre", cfg.lambda_pre_kl)):
            nll = losses[f"{stream}_nll"] = tmean(sums[f"{stream}_nll"])
            kl = losses[f"{stream}_kl"] = tmean(sums[f"{stream}_kl"])
            losses[stream] = nll + kl_weight * kl
        if cfg.mode == "impute-only":
            losses["total"] = losses["imp"]
        elif cfg.mode == "predict-only":
            losses["total"] = losses["pre"]
        else:
            losses["total"] = losses["imp"] + cfg.lambda_pre * losses["pre"]
        return losses

    def train_step(self, coords, mask, optimizer, noise=None, rng=None):
        """One optimisation step; returns the pre-update loss values."""
        coords, mask = self.check_inputs(coords, mask, self.cfg.t_past + self.cfg.t_future)
        if noise is None:
            if rng is None:
                raise ConfigError("train_step needs either frozen noise or an rng")
            noise = self.draw_noise(rng, mask.shape[0], mask.shape[2])
        optimizer.zero_grad()
        losses = self.training_losses(coords, mask, noise)
        backward(losses["total"])
        optimizer.step()
        return {k: v.item() for k, v in losses.items()}

    # ------------------------------------------------------------------
    def run_inference(self, coords_past, mask, rng=None, seed=0):
        """Impute the observed window and roll out the future.

        coords_past: (T_past, N, 2) or (B, T_past, N, 2), scene units.
        mask: matching (.., T_past, N). Latents are drawn from the prior;
        observed positions are copied through unchanged. Returns
        (imputed, predicted) numpy arrays in scene units.
        """
        cfg = self.cfg
        single = np.ndim(coords_past) == 3
        if single:
            coords_past, mask = np.asarray(coords_past)[None], np.asarray(mask)[None]
        coords_past, mask = self.check_inputs(coords_past, mask, cfg.t_past)
        if rng is None:
            rng = np.random.default_rng(seed)

        x = self._normalize(coords_past)
        imputed = np.empty_like(coords_past)
        predicted = np.empty((len(mask), cfg.t_future, mask.shape[2], 2))
        with no_grad():
            for past, t, _, _, raw in self._rollout(x, mask, rng, teacher=False):
                mean = self._denormalize(raw.data[..., 0:2])
                if past:  # copy observations through untouched (scene units)
                    imputed[:, t] = np.where(mask[:, t, :, None] > 0, coords_past[:, t], mean)
                else:
                    predicted[:, t - cfg.t_past] = mean

        if single:
            return imputed[0], predicted[0]
        return imputed, predicted
