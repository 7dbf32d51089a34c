"""Variational recurrent model over past (imputation) and future
(prediction) streams of a multi-agent scene.

Each past step: update the per-agent temporal lag from the visibility
mask, shrink the previous hidden state by the learned decay, encode the
masked coordinates on the agent graph, form prior (from the hidden
state) and posterior (from graph features + hidden state) latents,
decode a bivariate Gaussian over the true position, and advance a GRU.
Future steps mirror this without decay, conditioning the decoder and the
recurrence on the latent from the last past step.

Training maximises the sequential evidence lower bound: reconstruction
negative log-likelihood plus a weighted KL between posterior and prior,
accumulated over both windows. Inference samples latents from the prior,
copies observations through at visible steps, and rolls the future
autoregressively on its own decoded means.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import (Parameter, Tensor, backward, clamp, concat, exp, linear,
                       log, maximum_scalar, new_parameter, no_grad, tanh, tmean,
                       tsum)
from .errors import ConfigError, DataError, ShapeError
from .graph import SpatialEncoder

LOG_2PI = float(np.log(2.0 * np.pi))

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
    # alternative-form switches
    static_norm: str = "symmetric"      # or "literal"
    lag_mode: str = "current"           # or "previous"
    # "decoded": at inference a missing past agent's encoder input is its
    # previous-step position (observed, else decoded mean), not (0, 0)
    inference_feedback: str = "zero"    # or "decoded"
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
        if self.static_norm not in ("symmetric", "literal"):
            raise ConfigError(f"bad static_norm {self.static_norm!r}")
        if self.lag_mode not in ("current", "previous"):
            raise ConfigError(f"bad lag_mode {self.lag_mode!r}")
        if self.inference_feedback not in ("zero", "decoded"):
            raise ConfigError(f"bad inference_feedback {self.inference_feedback!r}")
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
        if self.coord_scale <= 0:
            raise ConfigError("coord_scale must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    def with_updates(self, **kw) -> "ModelConfig":
        return replace(self, **kw)


@dataclass
class LatentDistribution:
    """Diagonal Gaussian over the latent space: mu and log-variance."""
    mu: Tensor
    logvar: Tensor

    @property
    def sigma(self) -> Tensor:
        return exp(self.logvar * 0.5)


@dataclass
class BiGaussianParams:
    """Bivariate Gaussian over 2D positions: mean, std pair, correlation."""
    mu: Tensor
    sigma: Tensor
    rho: Tensor


def sample_latent(dist: LatentDistribution, noise) -> Tensor:
    """Reparameterised draw z = mu + sigma * noise (noise supplied)."""
    return dist.mu + dist.sigma * Tensor(np.asarray(noise, dtype=np.float64))


def temporal_lag_update(delta, step_index: int, mask_step):
    """Steps since the gating observation, per agent.

    step_index is 0-based; the first step resets every lag to 0. After
    that an observed agent gets lag 1 and a missing one accumulates.
    Returns a float array shaped like `delta` ((..., N, 1)).
    """
    m = np.asarray(mask_step, dtype=np.float64)[..., None]
    if step_index == 0:
        return np.zeros_like(m)
    prev = np.asarray(delta, dtype=np.float64)
    return m * 1.0 + (1.0 - m) * (1.0 + prev)


def temporal_decay(delta, weight: Tensor, bias: Tensor) -> Tensor:
    """Decay factor 1 / exp(max(0, w * lag + b)) in (0, 1]."""
    pre = Tensor(np.asarray(delta, dtype=np.float64)) * weight + bias
    return 1.0 / exp(maximum_scalar(pre, 0.0))


def decay_hidden(h: Tensor, decay: Tensor) -> Tensor:
    """Shrink the hidden state elementwise; decay broadcasts over H."""
    return h * decay


def bigauss_split(raw: Tensor, rho_limit: float = 0.999) -> BiGaussianParams:
    """Map 5 raw decoder outputs to valid bivariate Gaussian parameters."""
    mu = raw[..., 0:2]
    sigma = exp(raw[..., 2:4])
    rho = tanh(raw[..., 4:5]) * rho_limit
    return BiGaussianParams(mu=mu, sigma=sigma, rho=rho)


def bigauss_nll(target, params: BiGaussianParams) -> Tensor:
    """Per-agent negative log density of the bivariate Gaussian."""
    t = ad.as_tensor(target)
    d = t - params.mu
    zx = d[..., 0:1] / params.sigma[..., 0:1]
    zy = d[..., 1:2] / params.sigma[..., 1:2]
    rho = params.rho
    one_minus = 1.0 - rho * rho
    quad = zx * zx + zy * zy - 2.0 * rho * zx * zy
    nll = (LOG_2PI + log(params.sigma[..., 0:1]) + log(params.sigma[..., 1:2])
           + 0.5 * log(one_minus) + quad / (2.0 * one_minus))
    return tsum(nll, axis=-1)


def gauss_kl(post: LatentDistribution, prior: LatentDistribution) -> Tensor:
    """Closed-form KL(post || prior) for diagonal Gaussians, summed over
    the latent axis; one value per agent."""
    lv_q, lv_p = post.logvar, prior.logvar
    dmu = post.mu - prior.mu
    per_dim = (0.5 * (lv_p - lv_q)
               + (exp(lv_q) + dmu * dmu) / (2.0 * exp(lv_p))
               - 0.5)
    return tsum(per_dim, axis=-1)


def gru_step(x: Tensor, h: Tensor, weights) -> Tensor:
    """Standard gated recurrent cell; weights = (wz, bz, wr, br, wh, bh)."""
    return ad.gru(x, h, *weights)


class TrajectoryModel:
    """Full imputation + prediction model with named parameters."""

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
        hidden = tanh(linear(inputs, w0, b0))
        mu = linear([hidden], w_mu, b_mu)
        lv = clamp(linear([hidden], w_lv, b_lv),
                   -self.cfg.logvar_limit, self.cfg.logvar_limit)
        return LatentDistribution(mu=mu, logvar=lv)

    def prior_params(self, h_prev: Tensor) -> LatentDistribution:
        return self._gauss_head([h_prev], self.prior_head)

    def posterior_params(self, graph_features: Tensor, h_prev: Tensor) -> LatentDistribution:
        return self._gauss_head([graph_features, h_prev], self.post_head)

    def zfeat_past(self, z: Tensor) -> Tensor:
        return tanh(linear([z], *self.zfeat_past_w))

    def zfeat_future(self, z: Tensor, z_tp: Tensor) -> Tensor:
        return tanh(linear([z, z_tp], *self.zfeat_future_w))

    def _decode(self, features: Tensor, h_prev: Tensor, head) -> BiGaussianParams:
        w0, b0, w_out, b_out = head
        hidden = tanh(linear([features, h_prev], w0, b0))
        return bigauss_split(linear([hidden], w_out, b_out))

    def decode_imputation(self, z: Tensor, h_prev: Tensor, z_features=None) -> BiGaussianParams:
        zf = self.zfeat_past(z) if z_features is None else z_features
        return self._decode(zf, h_prev, self.dec_impute)

    def decode_prediction(self, z: Tensor, z_tp: Tensor, h_prev: Tensor,
                          z_features=None) -> BiGaussianParams:
        if z_tp is None:
            raise ConfigError("decode_prediction needs the last past-step latent")
        zf = self.zfeat_future(z, z_tp) if z_features is None else z_features
        return self._decode(zf, h_prev, self.dec_predict)

    def temporal_decay(self, delta) -> Tensor:
        return temporal_decay(delta, self.td_weight, self.td_bias)

    def recurrence_impute(self, graph_features: Tensor, z: Tensor,
                          h_decayed: Tensor, z_features=None) -> Tensor:
        zf = self.zfeat_past(z) if z_features is None else z_features
        return gru_step(concat([graph_features, zf], axis=-1), h_decayed, self.rnn_main)

    def recurrence_predict(self, graph_features: Tensor, z: Tensor, z_tp: Tensor,
                           h_prev: Tensor, z_features=None) -> Tensor:
        if z_tp is None:
            raise ConfigError("recurrence_predict needs the last past-step latent")
        zf = self.zfeat_future(z, z_tp) if z_features is None else z_features
        return gru_step(concat([graph_features, zf], axis=-1), h_prev, self.rnn_pred)

    # ------------------------------------------------------------------
    def _check_batch(self, coords, mask):
        cfg = self.cfg
        coords = np.asarray(coords, dtype=np.float64)
        mask = np.asarray(mask, dtype=np.float64)
        if coords.ndim != 4 or coords.shape[-1] != 2:
            raise ShapeError(f"expected coords (B, T, N, 2), got {coords.shape}")
        b, t, n, _ = coords.shape
        if t != cfg.t_past + cfg.t_future:
            raise ShapeError(f"expected {cfg.t_past + cfg.t_future} steps, got {t}")
        if mask.shape != (b, cfg.t_past, n):
            raise ShapeError(f"expected mask {(b, cfg.t_past, n)}, got {mask.shape}")
        if not np.isfinite(coords).all():
            raise DataError("coordinates contain non-finite values")
        return coords, mask, b, n

    def draw_noise(self, rng: np.random.Generator, batch: int, n_agents: int):
        """Reparameterisation noise for every step, in a fixed draw order."""
        cfg = self.cfg
        past = rng.standard_normal((cfg.t_past, batch, n_agents, cfg.d_latent))
        future = rng.standard_normal((cfg.t_future, batch, n_agents, cfg.d_latent))
        return {"past": past, "future": future}

    def _lag_gate_mask(self, mask, step):
        """Mask row that drives the lag update at `step` (0-based)."""
        if self.cfg.lag_mode == "previous" and step > 0:
            return mask[:, step - 1, :]
        return mask[:, step, :]

    def training_losses(self, coords, mask, noise):
        """Forward both streams with teacher forcing; returns tensors
        {imp, imp_nll, imp_kl, pre, pre_nll, pre_kl, total}."""
        cfg = self.cfg
        coords, mask, b, n = self._check_batch(coords, mask)
        x = self._normalize(coords)

        thetas = self.encoder.edge_weight_matrices() if cfg.use_ec else None
        h = Tensor(np.zeros((b, n, cfg.d_hidden)))
        delta = np.zeros((b, n, 1))
        imp_nll = Tensor(np.zeros(b))
        imp_kl = Tensor(np.zeros(b))
        z = None

        for t in range(cfg.t_past):
            m_t = mask[:, t, :]
            delta = temporal_lag_update(delta, t, self._lag_gate_mask(mask, t))
            h_rec = decay_hidden(h, self.temporal_decay(delta)) if cfg.use_td else h
            fg = self.encoder.forward(x[:, t], m_t, "past", thetas)
            prior = self.prior_params(h)
            post = self.posterior_params(fg, h)
            z = sample_latent(post, noise["past"][t])
            zf = self.zfeat_past(z)
            dec = self.decode_imputation(z, h, z_features=zf)
            imp_nll = imp_nll + tsum(bigauss_nll(x[:, t], dec), axis=-1)
            imp_kl = imp_kl + tsum(gauss_kl(post, prior), axis=-1)
            h = self.recurrence_impute(fg, z, h_rec, z_features=zf)

        losses = {}
        losses["imp_nll"] = tmean(imp_nll)
        losses["imp_kl"] = tmean(imp_kl)
        losses["imp"] = losses["imp_nll"] + cfg.lambda_imp_kl * losses["imp_kl"]

        run_future = cfg.mode != "impute-only" and cfg.t_future > 0
        if run_future:
            z_tp = z if cfg.share_streams else z.detach()
            h_f = h if cfg.share_streams else Tensor(np.zeros((b, n, cfg.d_hidden)))
            pre_nll = Tensor(np.zeros(b))
            pre_kl = Tensor(np.zeros(b))
            for t in range(cfg.t_future):
                y_t = x[:, cfg.t_past + t]
                fg = self.encoder.forward(y_t, None, "future", thetas)
                prior = self.prior_params(h_f)
                post = self.posterior_params(fg, h_f)
                z_f = sample_latent(post, noise["future"][t])
                zf = self.zfeat_future(z_f, z_tp)
                dec = self.decode_prediction(z_f, z_tp, h_f, z_features=zf)
                pre_nll = pre_nll + tsum(bigauss_nll(y_t, dec), axis=-1)
                pre_kl = pre_kl + tsum(gauss_kl(post, prior), axis=-1)
                h_f = self.recurrence_predict(fg, z_f, z_tp, h_f, z_features=zf)
            losses["pre_nll"] = tmean(pre_nll)
            losses["pre_kl"] = tmean(pre_kl)
            losses["pre"] = losses["pre_nll"] + cfg.lambda_pre_kl * losses["pre_kl"]
        else:
            losses["pre_nll"] = Tensor(0.0)
            losses["pre_kl"] = Tensor(0.0)
            losses["pre"] = Tensor(0.0)

        if cfg.mode == "impute-only":
            losses["total"] = losses["imp"]
        elif cfg.mode == "predict-only":
            losses["total"] = losses["pre"]
        else:
            losses["total"] = losses["imp"] + cfg.lambda_pre * losses["pre"]
        return losses

    def loss_total(self, coords, mask, noise) -> Tensor:
        return self.training_losses(coords, mask, noise)["total"]

    def train_step(self, coords, mask, optimizer, noise=None, rng=None):
        """One optimisation step; returns the pre-update loss values."""
        if noise is None:
            if rng is None:
                raise ConfigError("train_step needs either frozen noise or an rng")
            b, n = np.asarray(coords).shape[0], np.asarray(coords).shape[2]
            noise = self.draw_noise(rng, b, n)
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
        coords_past = np.asarray(coords_past, dtype=np.float64)
        single = coords_past.ndim == 3
        if single:
            coords_past = coords_past[None]
            mask = np.asarray(mask)[None]
        mask = np.asarray(mask, dtype=np.float64)
        b, t_p, n, _ = coords_past.shape
        if t_p != cfg.t_past or mask.shape != (b, cfg.t_past, n):
            raise ShapeError(f"expected past window ({cfg.t_past}, {n}) plus matching "
                             f"mask, got coords {coords_past.shape}, mask {mask.shape}")
        if rng is None:
            rng = np.random.default_rng(seed)

        x = self._normalize(coords_past)
        imputed = np.empty_like(coords_past)
        predicted = np.empty((b, cfg.t_future, n, 2))

        with no_grad():
            thetas = self.encoder.edge_weight_matrices() if cfg.use_ec else None
            h = Tensor(np.zeros((b, n, cfg.d_hidden)))
            delta = np.zeros((b, n, 1))
            fill = np.zeros((b, n, 2)) if cfg.inference_feedback == "decoded" else None
            z = None
            for t in range(cfg.t_past):
                m_t = mask[:, t, :]
                delta = temporal_lag_update(delta, t, self._lag_gate_mask(mask, t))
                h_rec = decay_hidden(h, self.temporal_decay(delta)) if cfg.use_td else h
                fg = self.encoder.forward(x[:, t], m_t, "past", thetas, fill)
                prior = self.prior_params(h)
                z = sample_latent(prior, rng.standard_normal((b, n, cfg.d_latent)))
                zf = self.zfeat_past(z)
                dec = self.decode_imputation(z, h, z_features=zf)
                m3 = m_t[..., None]
                # copy observations through untouched (scene units)
                imputed[:, t] = np.where(m3 > 0, coords_past[:, t],
                                         self._denormalize(dec.mu.data))
                if fill is not None:
                    fill = m3 * x[:, t] + (1.0 - m3) * dec.mu.data
                h = self.recurrence_impute(fg, z, h_rec, z_features=zf)

            z_tp = z
            h_f = h if cfg.share_streams else Tensor(np.zeros((b, n, cfg.d_hidden)))
            for t in range(cfg.t_future):
                prior = self.prior_params(h_f)
                z_f = sample_latent(prior, rng.standard_normal((b, n, cfg.d_latent)))
                zf = self.zfeat_future(z_f, z_tp)
                dec = self.decode_prediction(z_f, z_tp, h_f, z_features=zf)
                predicted[:, t] = self._denormalize(dec.mu.data)
                fg = self.encoder.forward(dec.mu.data, None, "future", thetas)
                h_f = self.recurrence_predict(fg, z_f, z_tp, h_f, z_features=zf)

        if single:
            return imputed[0], predicted[0]
        return imputed, predicted
