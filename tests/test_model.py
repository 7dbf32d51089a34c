import math
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from trajvrnn import model as model_module
from trajvrnn.autodiff import Parameter, Tensor, backward, no_grad
from trajvrnn.errors import ConfigError, DataError, NumericError, ShapeError
from trajvrnn.model import (
    LOGVAR_LIMIT, LatentDistribution, ModelConfig, TrajectoryModel, bigauss_nll, gauss_kl,
    gru_step, sample_latent, temporal_decay, temporal_lags,
)
from trajvrnn.optim import Adam

from oracle_ops import div, exp, grad_check, log, relu, sub, tanh, tape_memory_script, tsum

LOG_2PI = math.log(2.0 * math.pi)


def tiny_cfg(**kw):
    base = dict(n_agents_max=4, d_embed=4, d_graph=4, d_hidden=8, d_latent=8,
                ec_hidden=4, ec_pool=2, t_past=4, t_future=2, seed=0)
    base.update(kw)
    return ModelConfig(**base)


def zero_model(**kw):
    model = TrajectoryModel(tiny_cfg(**kw))
    for p in model.parameters():
        p.data[...] = 0.0
    return model


def toy_batch(cfg, batch=2, n_agents=3, seed=0, missing=0.3):
    """Smooth random arcs plus a visibility mask over the past window."""
    rng = np.random.default_rng(seed)
    t_total = cfg.t_past + cfg.t_future
    base = rng.normal(scale=2.0, size=(batch, 1, n_agents, 2))
    drift = rng.normal(scale=0.2, size=(batch, 1, n_agents, 2))
    steps = np.arange(t_total)[None, :, None, None]
    wobble = np.sin(steps / 3.0 + rng.uniform(0, 6, size=(batch, 1, n_agents, 2)))
    coords = base + drift * steps + 0.5 * wobble
    mask = (rng.random((batch, cfg.t_past, n_agents)) > missing).astype(float)
    return coords, mask


# ---------------------------------------------------------------------------
# distribution heads


def test_prior_zero_weights_standard_normal():
    model = zero_model()
    dist = model.prior_params(Tensor(np.random.default_rng(0).normal(size=(3, 8))))
    np.testing.assert_array_equal(dist.mu.data, np.zeros((3, 8)))
    np.testing.assert_array_equal(dist.logvar.data, np.zeros((3, 8)))


def test_prior_zero_hidden_zero_bias():
    model = TrajectoryModel(tiny_cfg())
    dist = model.prior_params(Tensor(np.zeros((2, 8))))
    np.testing.assert_array_equal(dist.mu.data, np.zeros((2, 8)))
    np.testing.assert_array_equal(dist.logvar.data, np.zeros((2, 8)))


def _head_oracle(x, head, limit):
    w0, b0, w_mu, b_mu, w_lv, b_lv = (p.data for p in head)
    hidden = np.tanh(x @ w0 + b0)
    mu = hidden @ w_mu + b_mu
    lv = np.clip(hidden @ w_lv + b_lv, -limit, limit)
    return mu, lv


def test_prior_matches_bruteforce_mlp():
    model = TrajectoryModel(tiny_cfg(seed=5))
    h = np.random.default_rng(1).normal(size=(4, 8))
    dist = model.prior_params(Tensor(h))
    mu, lv = _head_oracle(h, model.prior_head, LOGVAR_LIMIT)
    np.testing.assert_allclose(dist.mu.data, mu, atol=1e-12)
    np.testing.assert_allclose(dist.logvar.data, lv, atol=1e-12)


def test_posterior_zero_weights_standard_normal():
    model = zero_model()
    dist = model.posterior_params(Tensor(np.ones((3, 4))), Tensor(np.ones((3, 8))))
    np.testing.assert_array_equal(dist.mu.data, np.zeros((3, 8)))
    np.testing.assert_array_equal(dist.logvar.data, np.zeros((3, 8)))


def test_posterior_hidden_invariance_when_columns_zeroed():
    model = TrajectoryModel(tiny_cfg(seed=2))
    model.post_head[0].data[model.cfg.d_graph:, :] = 0.0  # rows fed by h
    rng = np.random.default_rng(3)
    fg = Tensor(rng.normal(size=(3, 4)))
    d1 = model.posterior_params(fg, Tensor(rng.normal(size=(3, 8))))
    d2 = model.posterior_params(fg, Tensor(rng.normal(size=(3, 8))))
    np.testing.assert_array_equal(d1.mu.data, d2.mu.data)
    np.testing.assert_array_equal(d1.logvar.data, d2.logvar.data)


def test_posterior_matches_bruteforce_mlp():
    model = TrajectoryModel(tiny_cfg(seed=7))
    rng = np.random.default_rng(4)
    fg, h = rng.normal(size=(4, 4)), rng.normal(size=(4, 8))
    dist = model.posterior_params(Tensor(fg), Tensor(h))
    mu, lv = _head_oracle(np.concatenate([fg, h], axis=-1), model.post_head,
                          LOGVAR_LIMIT)
    np.testing.assert_allclose(dist.mu.data, mu, atol=1e-12)
    np.testing.assert_allclose(dist.logvar.data, lv, atol=1e-12)


# ---------------------------------------------------------------------------
# latent sampling


def test_sample_zero_noise_returns_mean():
    rng = np.random.default_rng(5)
    dist = LatentDistribution(mu=Tensor(rng.normal(size=(3, 8))),
                              logvar=Tensor(rng.normal(size=(3, 8))))
    z = sample_latent(dist, np.zeros((3, 8)))
    np.testing.assert_array_equal(z.data, dist.mu.data)


def test_sample_clamped_logvar_near_mean():
    dist = LatentDistribution(mu=Tensor(np.full((2, 2), 3.0)),
                              logvar=Tensor(np.full((2, 2), -10.0)))
    z = sample_latent(dist, np.random.default_rng(6).normal(size=(2, 2)))
    np.testing.assert_allclose(z.data, 3.0, atol=0.05)


def test_sample_monte_carlo_mean():
    n = 100_000
    mu, logvar = 0.7, 0.4
    dist = LatentDistribution(mu=Tensor(np.full((n, 1), mu)),
                              logvar=Tensor(np.full((n, 1), logvar)))
    z = sample_latent(dist, np.random.default_rng(7).standard_normal((n, 1)))
    sigma = math.exp(0.5 * logvar)
    assert abs(z.data.mean() - mu) < 3.0 * sigma / math.sqrt(n)


# ---------------------------------------------------------------------------
# temporal lag and decay


def test_lag_sequence_with_gap():
    mask_seq = [1.0, 0.0, 0.0, 1.0]
    lags = temporal_lags(np.array([[[m] for m in mask_seq]]))
    assert lags.shape == (1, 4, 1, 1)
    assert lags[0, :, 0, 0].tolist() == [0.0, 1.0, 2.0, 1.0]


@pytest.mark.parametrize("mask_seq,expected", [
    ([1, 1, 1, 1], [0, 1, 1, 1]),
    ([1, 0, 0, 0], [0, 1, 2, 3]),
])
def test_lag_sequences(mask_seq, expected):
    lags = temporal_lags(np.array([[[float(m)] for m in mask_seq]]))
    assert lags[0, :, 0, 0].tolist() == [float(v) for v in expected]


def test_decay_closed_forms():
    w, b = Tensor([0.0]), Tensor([0.0])
    np.testing.assert_array_equal(
        temporal_decay(np.array([[[5.0]]]), w, b).data, [[[1.0]]])
    # w*delta + b = ln 2  ->  decay one half
    out = temporal_decay(np.array([[[1.0]]]), Tensor([math.log(2.0)]), Tensor([0.0]))
    assert abs(out.item() - 0.5) < 1e-12
    out = temporal_decay(np.array([[[1.0]]]), Tensor([0.0]), Tensor([-5.0]))
    assert out.item() == 1.0


def test_decay_range_and_monotonicity():
    rng = np.random.default_rng(8)
    w, b = Tensor([0.3]), Tensor([-0.1])
    delta = np.sort(rng.uniform(0, 50, size=(1, 2000, 1)), axis=1)
    out = temporal_decay(delta, w, b).data
    assert (out > 0).all() and (out <= 1).all()
    pre = 0.3 * delta - 0.1
    np.testing.assert_array_equal(out[pre <= 0], 1.0)
    diffs = np.diff(out[0, :, 0])
    assert (diffs <= 1e-15).all()


def _composed_decay(delta, weight, bias):
    return div(1.0, exp(relu(Tensor(delta) * weight + bias)))


# a negative weight; w * lag + b exactly 0 at lag 2; the model's init
@pytest.mark.parametrize("w,b", [(-0.2, 0.5), (0.25, -0.5), (0.1, 0.05)])
def test_fused_decay_matches_composed_ops(w, b):
    """The `temporal_decay` node against 1 / exp(relu(w * lag + b)) with
    mul, add, relu, exp and div nodes on the tape: forward bit-equal, with
    and without the tape, and both parameter gradients bit-equal too."""
    rng = np.random.default_rng(52)
    delta = rng.integers(0, 6, size=(2, 7, 3, 1)).astype(np.float64)
    delta[0, :6, 0, 0] = np.arange(6.0)  # every lag, 2 among them
    weight, bias = Parameter("td.weight", [w]), Parameter("td.bias", [b])
    upstream = rng.normal(size=delta.shape)
    composed = _composed_decay(delta, weight, bias)
    fused = temporal_decay(delta, weight, bias)
    assert fused.op == "temporal_decay" and fused.parents == (weight, bias)
    assert np.array_equal(fused.data, composed.data)
    with no_grad():
        assert np.array_equal(temporal_decay(delta, weight, bias).data, composed.data)
    grads = []
    for out in (composed, fused):
        weight.zero_grad()
        bias.zero_grad()
        backward(tsum(out * upstream))
        grads.append((weight.grad.copy(), bias.grad.copy()))
    assert all(np.array_equal(want, got) for want, got in zip(*grads))
    assert (grads[0][0] != 0.0).all()


@pytest.mark.parametrize("w", [1000.0, -1e308])
@pytest.mark.parametrize("tape", [True, False])
def test_fused_decay_overflow_raises_silently(tape, w):
    """w * lag + b overflowing exp (w = 1000) or itself (w = -1e308, where
    relu would hide the -inf) raises NumericError naming `temporal_decay`
    without a numpy warning, though 1 / inf would be a finite 0."""
    weight = Parameter("td.weight", [w]) if tape else Tensor([w])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="'temporal_decay'"):
            temporal_decay(np.array([[[[2.0]]]]), weight, Tensor([0.0]))


def test_use_td_false_ignores_decay_params():
    cfg = tiny_cfg(use_td=False)
    model = TrajectoryModel(cfg)
    coords, mask = toy_batch(cfg)
    noise = model.draw_noise(np.random.default_rng(0), 2, 3)
    before = model.training_losses(coords, mask, noise)["total"].item()
    model.td_weight.data[...] = 57.0
    model.td_bias.data[...] = -3.0
    assert model.training_losses(coords, mask, noise)["total"].item() == before
    imp1, pre1 = model.run_inference(coords[:, :cfg.t_past], mask, seed=3)
    model.td_weight.data[...] = 0.001
    imp2, pre2 = model.run_inference(coords[:, :cfg.t_past], mask, seed=3)
    assert np.array_equal(imp1, imp2) and np.array_equal(pre1, pre2)


# ---------------------------------------------------------------------------
# recurrences


def test_gru_zero_weights_zero_fixed_point():
    cfg = tiny_cfg()
    model = zero_model()
    x = Tensor(np.random.default_rng(9).normal(size=(2, 3, cfg.d_graph + cfg.d_latent)))
    h = Tensor(np.zeros((2, 3, cfg.d_hidden)))
    out = gru_step([x], h, model.rnn_main)
    np.testing.assert_array_equal(out.data, np.zeros((2, 3, cfg.d_hidden)))


def test_gru_step_records_one_tape_node():
    model = TrajectoryModel(tiny_cfg(seed=18))
    cfg = model.cfg
    rng = np.random.default_rng(19)
    fg = Tensor(rng.normal(size=(2, 3, cfg.d_graph)))
    zf = Tensor(rng.normal(size=(2, 3, cfg.d_latent)))
    h = Tensor(rng.normal(size=(2, 3, cfg.d_hidden)))
    out = gru_step([fg, zf], h, model.rnn_main)
    # its parents are the two input blocks, h and the six leaf weights: one node
    assert out.op == "gru" and out.parents == (fg, zf, h, *model.rnn_main)
    assert all(p.parents == () for p in out.parents)


def _gru_oracle(x, h, weights):
    wz, bz, wr, br, wh, bh = (p.data for p in weights)
    xh = np.concatenate([x, h], axis=-1)
    z = 1.0 / (1.0 + np.exp(-(xh @ wz + bz)))
    r = 1.0 / (1.0 + np.exp(-(xh @ wr + br)))
    cand = np.tanh(np.concatenate([x, r * h], axis=-1) @ wh + bh)
    return (1.0 - z) * h + z * cand


def test_recurrence_matches_bruteforce_gru():
    model = TrajectoryModel(tiny_cfg(seed=11))
    rng = np.random.default_rng(12)
    cfg = model.cfg
    fg = rng.normal(size=(2, 3, cfg.d_graph))
    z = rng.normal(size=(2, 3, cfg.d_latent))
    h = rng.normal(size=(2, 3, cfg.d_hidden))
    out = gru_step([Tensor(fg), model.zfeat_past(Tensor(z))], Tensor(h), model.rnn_main)
    zf = np.tanh(z @ model.zfeat_past_w[0].data + model.zfeat_past_w[1].data)
    expected = _gru_oracle(np.concatenate([fg, zf], axis=-1), h, model.rnn_main)
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_recurrence_deterministic():
    model = TrajectoryModel(tiny_cfg(seed=13))
    rng = np.random.default_rng(14)
    cfg = model.cfg
    fg = Tensor(rng.normal(size=(1, 2, cfg.d_graph)))
    z = Tensor(rng.normal(size=(1, 2, cfg.d_latent)))
    h = Tensor(rng.normal(size=(1, 2, cfg.d_hidden)))

    def step():
        return gru_step([fg, model.zfeat_past(z)], h, model.rnn_main).data

    assert np.array_equal(step(), step())


def test_shared_cell_aliasing():
    model = TrajectoryModel(tiny_cfg(share_streams=True, seed=15))
    assert model.rnn_pred is model.rnn_main
    rng = np.random.default_rng(16)
    cfg = model.cfg
    fg = Tensor(rng.normal(size=(1, 2, cfg.d_graph)))
    z = Tensor(rng.normal(size=(1, 2, cfg.d_latent)))
    z_tp = Tensor(rng.normal(size=(1, 2, cfg.d_latent)))
    h = Tensor(rng.normal(size=(1, 2, cfg.d_hidden)))

    def impute():
        return gru_step([fg, model.zfeat_past(z)], h, model.rnn_main).data

    def predict():
        return gru_step([fg, model.zfeat_future(z, z_tp)], h, model.rnn_pred).data

    imp_before, pre_before = impute(), predict()
    model.rnn_main[0].data[...] += 0.5  # one mutation moves both streams
    assert not np.array_equal(impute(), imp_before)
    assert not np.array_equal(predict(), pre_before)


def test_unshared_prediction_loss_has_no_imputation_gradient():
    cfg = tiny_cfg(share_streams=False, seed=17)
    model = TrajectoryModel(cfg)
    coords, mask = toy_batch(cfg, seed=18)
    noise = model.draw_noise(np.random.default_rng(1), 2, 3)
    model.zero_grad()
    losses = model.training_losses(coords, mask, noise)
    backward(losses["pre"])
    impute_only = [n for n in model.params
                   if n.startswith(("dec.impute", "zfeat.past", "rnn.main", "td."))]
    assert impute_only
    for name in impute_only:
        assert not model.params[name].grad.any(), name
    # the separate prediction cell does learn
    assert model.params["rnn.pred.wz"].grad.any()


def test_recurrence_predict_requires_z_tp():
    """The future stream's latent features, which feed both its decoder and
    its recurrence, need the last past-step latent."""
    model = TrajectoryModel(tiny_cfg())
    z = Tensor(np.zeros((1, 2, 8)))
    with pytest.raises(ConfigError):
        model.zfeat_future(z, None)


# ---------------------------------------------------------------------------
# decoders


def test_decoder_zero_weights_unit_gaussian():
    model = zero_model()
    z = Tensor(np.random.default_rng(19).normal(size=(2, 3, 8)))
    h = Tensor(np.random.default_rng(20).normal(size=(2, 3, 8)))
    # mean 0, log sigma 0 (sigma 1) and pre-tanh correlation 0 (rho 0)
    out = model.decode_imputation(model.zfeat_past(z), h)
    np.testing.assert_array_equal(out.data, np.zeros((2, 3, 5)))
    out_f = model.decode_prediction(model.zfeat_future(z, z), h)
    np.testing.assert_array_equal(out_f.data, np.zeros((2, 3, 5)))


def test_decoder_matches_bruteforce_mlp():
    model = TrajectoryModel(tiny_cfg(seed=21))
    rng = np.random.default_rng(22)
    z = rng.normal(size=(3, 8))
    h = rng.normal(size=(3, 8))
    out = model.decode_imputation(model.zfeat_past(Tensor(z)), Tensor(h))
    zf = np.tanh(z @ model.zfeat_past_w[0].data + model.zfeat_past_w[1].data)
    w0, b0, w_out, b_out = (p.data for p in model.dec_impute)
    raw = np.tanh(np.concatenate([zf, h], axis=-1) @ w0 + b0) @ w_out + b_out
    assert out.shape == (3, 5)
    np.testing.assert_allclose(out.data, raw, atol=1e-12)


def test_decoder_rho_always_in_open_interval():
    """rho = 0.999 tanh(.) stays inside (-1, 1) even where tanh rounds to
    +-1, so the fused NLL's log(1 - rho^2) and 1 / (1 - rho^2) stay finite."""
    rng = np.random.default_rng(23)
    raw = rng.normal(size=(2, 5))
    raw[:, 4] = [50.0, -50.0]
    assert np.isfinite(bigauss_nll(rng.normal(size=(2, 2)), Tensor(raw)).data).all()


def test_prediction_decoder_conditions_on_z_tp():
    model = TrajectoryModel(tiny_cfg(seed=24))
    rng = np.random.default_rng(25)
    z = Tensor(rng.normal(size=(2, 8)))
    h = Tensor(rng.normal(size=(2, 8)))
    out1 = model.decode_prediction(model.zfeat_future(z, Tensor(rng.normal(size=(2, 8)))), h)
    out2 = model.decode_prediction(model.zfeat_future(z, Tensor(rng.normal(size=(2, 8)))), h)
    assert not np.array_equal(out1.data[..., 0:2], out2.data[..., 0:2])


# ---------------------------------------------------------------------------
# densities


# raw decoder outputs are [mu_x, mu_y, log sigma_x, log sigma_y, pre-tanh rho]


def test_nll_at_mean_unit_sigma():
    nll = bigauss_nll(Tensor([[0.0, 0.0]]), Tensor([[0.0, 0.0, 0.0, 0.0, 0.0]]))
    assert abs(nll.item() - LOG_2PI) < 1e-12


def test_nll_one_sigma_offset():
    nll = bigauss_nll(Tensor([[2.0, 2.0]]), Tensor([[1.0, 2.0, 0.0, 0.0, 0.0]]))
    assert abs(nll.item() - (LOG_2PI + 0.5)) < 1e-12


def test_nll_factorises_when_uncorrelated():
    """5 sequences of 3 agents: one value per sequence, the sum over its
    agents of two univariate NLLs."""
    rng = np.random.default_rng(26)
    mu = rng.normal(size=(5, 3, 2))
    log_sigma = rng.normal(size=(5, 3, 2))
    sigma = np.exp(log_sigma)
    target = rng.normal(size=(5, 3, 2))
    raw = np.concatenate([mu, log_sigma, np.zeros((5, 3, 1))], axis=-1)
    joint = bigauss_nll(Tensor(target), Tensor(raw)).data
    uni = (0.5 * np.log(2 * np.pi) + np.log(sigma)
           + (target - mu) ** 2 / (2 * sigma ** 2)).sum(axis=(-2, -1))
    assert joint.shape == (5,)
    np.testing.assert_allclose(joint, uni, atol=1e-12)


def test_kl_identical_zero():
    rng = np.random.default_rng(27)
    mu, lv = rng.normal(size=(4, 3, 8)), rng.normal(size=(4, 3, 8))
    d = LatentDistribution(mu=Tensor(mu), logvar=Tensor(lv))
    kl = gauss_kl(d, d).data
    assert kl.shape == (4,)
    np.testing.assert_allclose(kl, np.zeros(4), atol=1e-12)


def test_kl_unit_shift_half():
    q = LatentDistribution(mu=Tensor([[1.0]]), logvar=Tensor([[0.0]]))
    p = LatentDistribution(mu=Tensor([[0.0]]), logvar=Tensor([[0.0]]))
    assert abs(gauss_kl(q, p).item() - 0.5) < 1e-12


def test_kl_nonnegative_randomised():
    rng = np.random.default_rng(28)
    # one agent per sequence, so each value is one agent's KL
    q = LatentDistribution(mu=Tensor(rng.normal(size=(10_000, 1, 4))),
                           logvar=Tensor(rng.normal(size=(10_000, 1, 4))))
    p = LatentDistribution(mu=Tensor(rng.normal(size=(10_000, 1, 4))),
                           logvar=Tensor(rng.normal(size=(10_000, 1, 4))))
    assert (gauss_kl(q, p).data >= -1e-12).all()


# the three loss-term nodes against the primitive ops they replace


def _composed_nll(target, raw):
    mu = raw[..., 0:2]
    sigma = exp(raw[..., 2:4])
    rho = tanh(raw[..., 4:5]) * 0.999
    d = sub(target, mu)
    zx = div(d[..., 0:1], sigma[..., 0:1])
    zy = div(d[..., 1:2], sigma[..., 1:2])
    one_minus = sub(1.0, rho * rho)
    quad = sub(zx * zx + zy * zy, 2.0 * rho * zx * zy)
    nll = (LOG_2PI + log(sigma[..., 0:1]) + log(sigma[..., 1:2])
           + 0.5 * log(one_minus) + div(quad, 2.0 * one_minus))
    return tsum(tsum(nll, axis=-1), axis=-1)  # one value per sequence


def _composed_kl(post, prior):
    lv_q, lv_p = post.logvar, prior.logvar
    dmu = sub(post.mu, prior.mu)
    per_dim = sub(0.5 * sub(lv_p, lv_q) + div(exp(lv_q) + dmu * dmu, 2.0 * exp(lv_p)), 0.5)
    return tsum(tsum(per_dim, axis=-1), axis=-1)  # one value per sequence


def _composed_draw(dist, noise):
    return dist.mu + exp(dist.logvar * 0.5) * Tensor(noise)


# (batch axes, N): the second case is the reference scale, B=64, N=10,
# Z=64; the last has two batch axes and one agent
@pytest.mark.parametrize("lead,z_dim", [((2, 3), 5), ((64, 10), 64), ((2, 4, 1), 3)])
def test_fused_loss_terms_match_composed_ops(lead, z_dim):
    """Forward bit-equal to the composition of primitives, with and without
    the tape; gradients equal to it up to reassociation. The NLL and the
    KL sum over the agents, the composition with a second `tsum`, so they
    give one value per sequence; the draw one per latent entry."""
    rng = np.random.default_rng(z_dim)
    raw = Parameter("raw", rng.normal(size=lead + (5,)))
    target = rng.normal(size=lead + (2,))
    dists = [Parameter(name, rng.normal(size=lead + (z_dim,)))
             for name in ("mu_q", "lv_q", "mu_p", "lv_p")]
    noise = rng.normal(size=lead + (z_dim,))
    post, prior = LatentDistribution(*dists[:2]), LatentDistribution(*dists[2:])
    cases = [("bigauss_nll", lambda: bigauss_nll(target, raw),
              lambda: _composed_nll(target, raw), [raw]),
             ("gauss_kl", lambda: gauss_kl(post, prior),
              lambda: _composed_kl(post, prior), dists),
             ("sample_latent", lambda: sample_latent(post, noise),
              lambda: _composed_draw(post, noise), dists[:2])]
    for op, fused_fn, composed_fn, params in cases:
        composed, fused = composed_fn(), fused_fn()
        assert fused.op == op and fused.parents == tuple(params)
        assert fused.shape == (noise.shape if op == "sample_latent" else lead[:-1]), op
        assert np.array_equal(fused.data, composed.data), op
        with no_grad():
            assert np.array_equal(fused_fn().data, composed.data), op
        upstream = Tensor(rng.normal(size=fused.shape))
        grads = []
        for out in (composed, fused):
            for p in params:
                p.zero_grad()
            backward(tsum(out * upstream))
            grads.append([p.grad.copy() for p in params])
        for want, got in zip(*grads):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), op


def test_fused_loss_terms_reject_mismatched_shapes():
    """The fused nodes do not broadcast: a shape mix-up is a ShapeError
    that names the shapes, not a wrongly shaped gradient."""
    ones = [Tensor(np.ones((2, 3, 4))) for _ in range(3)]
    short = Tensor(np.ones((2, 3, 1)))
    with pytest.raises(ShapeError, match=r"bigauss_nll.*\(2, 3\).*\(2, 3, 5\)"):
        bigauss_nll(np.zeros((2, 3)), Tensor(np.zeros((2, 3, 5))))
    with pytest.raises(ShapeError, match="bigauss_nll"):
        bigauss_nll(np.zeros((2, 3, 2)), Tensor(np.zeros((2, 3, 4))))
    with pytest.raises(ShapeError, match=r"gauss_kl.*\(2, 3, 1\)"):
        gauss_kl(LatentDistribution(*ones[:2]), LatentDistribution(ones[2], short))
    # without an agent axis there is nothing to sum per sequence
    with pytest.raises(ShapeError, match=r"bigauss_nll.*\(2,\).*\(5,\)"):
        bigauss_nll(np.zeros(2), Tensor(np.zeros(5)))
    flat = Tensor(np.ones(4))
    with pytest.raises(ShapeError, match=r"gauss_kl.*\(4,\)"):
        gauss_kl(LatentDistribution(flat, flat), LatentDistribution(flat, flat))
    with pytest.raises(ShapeError, match=r"sample_latent.*\(2, 3, 1\)"):
        sample_latent(LatentDistribution(*ones[:2]), np.ones((2, 3, 1)))


# ---------------------------------------------------------------------------
# losses


def test_perfect_decoder_loss_closed_form():
    cfg = tiny_cfg()
    model = zero_model()
    coords = np.zeros((2, cfg.t_past + cfg.t_future, 3, 2))
    mask = np.ones((2, cfg.t_past, 3))
    noise = model.draw_noise(np.random.default_rng(2), 2, 3)
    losses = model.training_losses(coords, mask, noise)
    assert abs(losses["imp"].item() - cfg.t_past * 3 * LOG_2PI) < 1e-9
    assert abs(losses["imp_kl"].item()) < 1e-12
    assert abs(losses["pre"].item() - cfg.t_future * 3 * LOG_2PI) < 1e-9


def test_stream_loss_is_nll_plus_kl():
    cfg = tiny_cfg(seed=3)
    coords, mask = toy_batch(cfg, seed=4)
    model = TrajectoryModel(cfg)
    noise = model.draw_noise(np.random.default_rng(5), 2, 3)
    losses = model.training_losses(coords, mask, noise)
    for stream in ("imp", "pre"):
        assert losses[f"{stream}_kl"].item() != 0.0
        assert losses[stream].item() == losses[f"{stream}_nll"].item() + \
            losses[f"{stream}_kl"].item()


def test_total_additivity():
    cfg = tiny_cfg(seed=6)
    model = TrajectoryModel(cfg)
    coords, mask = toy_batch(cfg, seed=7)
    noise = model.draw_noise(np.random.default_rng(8), 2, 3)
    losses = model.training_losses(coords, mask, noise)
    assert losses["total"].item() == losses["imp"].item() + losses["pre"].item()


def test_mode_selects_stream_losses():
    coords, mask = toy_batch(tiny_cfg(), seed=9)
    noise = None
    for mode, key in (("impute-only", "imp"), ("predict-only", "pre")):
        cfg = tiny_cfg(mode=mode, seed=10)
        model = TrajectoryModel(cfg)
        if noise is None:
            noise = model.draw_noise(np.random.default_rng(11), 2, 3)
        losses = model.training_losses(coords, mask, noise)
        assert losses["total"].item() == losses[key].item()
    # impute-only never runs the future stream
    cfg = tiny_cfg(mode="impute-only", seed=10)
    losses = TrajectoryModel(cfg).training_losses(coords, mask, noise)
    assert losses["pre"].item() == 0.0


def test_full_model_gradient_check_small():
    cfg = tiny_cfg(n_agents_max=2, d_embed=3, d_graph=3, d_hidden=4, d_latent=4,
                   ec_hidden=3, ec_pool=2, t_past=2, t_future=1, seed=12)
    model = TrajectoryModel(cfg)
    coords, mask = toy_batch(cfg, batch=1, n_agents=2, seed=13)
    noise = model.draw_noise(np.random.default_rng(14), 1, 2)
    err = grad_check(lambda: model.training_losses(coords, mask, noise)["total"],
                     model.parameters())
    assert err <= 1e-4


# ---------------------------------------------------------------------------
# training and inference drivers


def _tape_nodes(root, leaves=False):
    """Every recorded node behind `root` (nodes with parents), once each;
    with `leaves`, also the parameters and constants they read."""
    seen, stack, nodes = {id(root)}, [root], []
    while stack:
        node = stack.pop()
        if node.parents or leaves:
            nodes.append(node)
        for parent in node.parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return nodes


def test_training_tape_holds_no_affine_intermediates():
    """Every affine map is one `linear` node and the GRU takes its inputs as
    blocks: the tape keeps no concat copy and no matmul output that only
    feeds a bias add, and each log-variance clip is the epilogue of its
    `linear` node."""
    cfg = tiny_cfg(seed=37)
    model = TrajectoryModel(cfg)
    coords, mask = toy_batch(cfg, seed=38)
    noise = model.draw_noise(np.random.default_rng(39), 2, 3)
    nodes = _tape_nodes(model.training_losses(coords, mask, noise)["total"])
    ops = [node.op for node in nodes]
    steps = cfg.t_past + cfg.t_future
    assert ops.count("concat") == 0
    # one GRU per step but the last, whose state would reach no loss
    assert ops.count("gru") == steps - 1
    assert ops.count("clamp") == 0
    clipped = [node for node in nodes if node.op == "linear"
               and node._backward.args[3] == (-LOGVAR_LIMIT, LOGVAR_LIMIT)]
    assert len(clipped) == 2 * steps  # prior and posterior log-variance
    assert all((np.abs(node.data) <= LOGVAR_LIMIT).all() for node in clipped)
    bias_adds = [node for node in nodes if node.op == "add"
                 and any(p.op == "matmul" for p in node.parents)
                 and any(isinstance(p, Parameter) for p in node.parents)]
    assert bias_adds == []


def test_training_tape_node_count_is_pinned():
    """The train tape at `tiny_cfg` (4 past and 2 future steps), pinned:
    the encoder runs once per window and the decay, one node, once over
    the past window, so each step adds its slices of both, not their
    graphs; each tanh, each relu after a weight product and each
    log-variance clip is the epilogue of its `linear` node, each window's
    branch fusion one `weighted_sum` node, each past step's decay an
    operand of its `gru` node, and each step's NLL and KL sum over the
    agents in their own nodes."""
    cfg = tiny_cfg(seed=40)
    model = TrajectoryModel(cfg)
    coords, mask = toy_batch(cfg, seed=41)
    noise = model.draw_noise(np.random.default_rng(42), 2, 3)
    ops = [node.op for node in _tape_nodes(model.training_losses(coords, mask, noise)["total"])]
    assert len(ops) == 144
    assert not {"tanh", "clamp", "sum", "div", "exp", "relu"} & set(ops)
    assert ops.count("weighted_sum") == 2
    # per step: its features; per past step: its decay; per encoder call:
    # dl.adj[:n, :n] and the ST branch's visible row of the pooling
    assert ops.count("getitem") == (cfg.t_past + cfg.t_future) + cfg.t_past + 2 * 2
    assert ops.count("temporal_decay") == 1


def test_training_tape_keeps_only_what_backward_reads():
    """Checked on the arrays each node's backward keeps as well as on the
    node values: no tanh, relu or clamp node sits on a `linear` node,
    whose epilogue keeps only the node's own value; the branch fusion's
    `weighted_sum` keeps nothing but its parents; no `mul` node, and no array
    at all, holds a decayed (B, N, H) hidden state, since each past
    step's decay is an operand of its `gru` node; and each `gru` node
    keeps exactly its gates z|r and its candidate, not r * h.
    H = 7 matches no other width on the tape."""
    cfg = tiny_cfg(d_hidden=7, seed=40)
    model = TrajectoryModel(cfg)
    coords, mask = toy_batch(cfg, seed=41)
    noise = model.draw_noise(np.random.default_rng(42), 2, 3)
    nodes = _tape_nodes(model.training_losses(coords, mask, noise)["total"])
    held_arrays = tape_memory_script().held_arrays
    held = {id(node): held_arrays(node) for node in nodes}
    rows, h_shape = 2 * 3, (2, 3, cfg.d_hidden)
    assert not [node for node in nodes if node.op in ("tanh", "relu", "clamp")
                and any(p.op == "linear" for p in node.parents)]
    for node in nodes:
        if node.op == "linear":
            assert all(a is node.data for a in held[id(node)])
    fusions = [node for node in nodes if node.op == "weighted_sum"]
    assert len(fusions) == 2 and all(held[id(node)] == [] for node in fusions)
    assert not [node for node in nodes if node.op == "mul" and node.shape == h_shape]
    grus = [node for node in nodes if node.op == "gru"]
    # parents: the two input blocks, h, the six weights and the decay
    decayed = [node.parents[2].data * node.parents[-1].data
               for node in grus if len(node.parents) == 2 + 7 + 1]
    assert len(grus) == 5 and len(decayed) == cfg.t_past
    for array in [node.data for node in nodes] + [a for arrays in held.values() for a in arrays]:
        assert not any(array.shape == h.shape and np.array_equal(array, h)
                       for h in decayed[1:])  # the first step's h and decayed h are 0
    for node in grus:
        zr, cand = sorted(held[id(node)], key=lambda a: a.ndim, reverse=True)
        assert len(held[id(node)]) == 2
        assert zr.shape == (2, rows, cfg.d_hidden) and cand.shape == (rows, cfg.d_hidden)
        assert ((zr > 0) & (zr < 1)).all() and (np.abs(cand) < 1).all()


def test_tape_memory_counts_what_backward_keeps():
    """`scripts/tape_memory.py` counts node values and the arrays their
    backward keeps, each buffer once: each `gru` node keeps z|r (2, B N, H)
    and the candidate (B N, H), a tanh-epilogue `linear` only its value."""
    cfg = tiny_cfg(seed=40)
    model = TrajectoryModel(cfg)
    coords, mask = toy_batch(cfg, seed=41)
    noise = model.draw_noise(np.random.default_rng(42), 2, 3)
    total = model.training_losses(coords, mask, noise)["total"]
    table = tape_memory_script().tape_bytes(total)
    rows, h = 2 * 3, cfg.d_hidden
    assert table["gru"] == [5, 5 * rows * h * 8, 5 * 3 * rows * h * 8]
    assert table["linear"][2] == 0 and "tanh" not in table
    assert table["parameter"][0] == len(model.params)


def test_tape_memory_script_prints_a_row_per_op(capsys):
    tape_memory_script().main(["--batch", "1", "--agents", "2"])
    out = capsys.readouterr().out.splitlines()
    rows = {line.split()[0]: line.split()[1:] for line in out[1:-1]}
    assert rows["gru"][0] == "49" and "tanh" not in rows and "clamp" not in rows
    assert rows["temporal_decay"][0] == "1" and rows["weighted_sum"][0] == "2"
    assert not {"relu", "exp", "div", "sum"} & rows.keys()
    assert out[-1].startswith("tracemalloc: forward left")


def _most_waiting_gradients(t_past):
    """The largest number of recorded nodes holding a `.grad` at once
    while `backward` runs on the train tape, counted as each node fires."""
    cfg = tiny_cfg(t_past=t_past, seed=40)
    model = TrajectoryModel(cfg)
    coords, mask = toy_batch(cfg, seed=41)
    noise = model.draw_noise(np.random.default_rng(42), 2, 3)
    total = model.training_losses(coords, mask, noise)["total"]
    nodes = _tape_nodes(total)
    most = 0

    def counted(fire, grad):
        nonlocal most
        most = max(most, sum(node.grad is not None for node in nodes))
        fire(grad)

    for node in nodes:
        node._backward = partial(counted, node._backward)
    backward(total)
    return most


def test_waiting_gradients_do_not_grow_with_the_window():
    """Backward fires the nodes in reverse creation order, which on the
    unrolled recurrence is step-by-step BPTT order: the gradients waiting
    at any time are about one step's, however long the window."""
    assert _most_waiting_gradients(4) == _most_waiting_gradients(12)


def test_training_tape_holds_no_per_pair_array():
    """The ST branch runs on the mean of the visible agents' features and
    the EC branch pools the visible and the hidden agents instead of
    gathering over every pair: no array on the train tape, recorded node
    or constant operand, has the (B, T, N, N) shape of a per-step
    adjacency or ends in (N, 3N), one entry per pair and category.
    N = 5 matches no feature width, so only such an array has that shape."""
    cfg = tiny_cfg(n_agents_max=5, seed=40)
    model = TrajectoryModel(cfg)
    coords, mask = toy_batch(cfg, n_agents=5, seed=41)
    noise = model.draw_noise(np.random.default_rng(42), 2, 5)
    nodes = _tape_nodes(model.training_losses(coords, mask, noise)["total"], leaves=True)
    n = mask.shape[-1]
    assert [node.shape for node in nodes if node.shape[-2:] == (n, 3 * n)
            or node.ndim == 4 and node.shape[-2:] == (n, n)] == []
    assert any(node.op == "parameter" for node in nodes)


def _count_recurrence_calls(monkeypatch, model):
    """Count the `gru_step`, `temporal_decay` and `encoder.forward` calls
    `model` makes; both training and inference take the decay in one call
    over the past window, training makes one encoder call per window and
    inference one per step whose recurrence runs."""
    calls = {"gru_step": 0, "temporal_decay": 0, "encoder.forward": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(model_module, "gru_step", counted("gru_step", gru_step))
    monkeypatch.setattr(model, "temporal_decay", counted("temporal_decay", model.temporal_decay))
    monkeypatch.setattr(model.encoder, "forward",
                        counted("encoder.forward", model.encoder.forward))
    return calls


def test_impute_only_skips_the_last_recurrence(monkeypatch):
    """Without a future window the last past step's state reaches no loss,
    so neither its decay nor its GRU runs: the tape walk alone would not
    show that, since an unused node is not reachable from the loss. The
    window's one decay call spans the t_past - 1 steps that recur."""
    cfg = tiny_cfg(mode="impute-only", seed=43)
    model = TrajectoryModel(cfg)
    coords, mask = toy_batch(cfg, seed=44)
    noise = model.draw_noise(np.random.default_rng(45), 2, 3)
    calls = _count_recurrence_calls(monkeypatch, model)
    nodes = _tape_nodes(model.training_losses(coords, mask, noise)["total"])
    ops = [node.op for node in nodes]
    # one encoding of the past window: every step's features feed its posterior
    assert calls == {"gru_step": cfg.t_past - 1, "temporal_decay": 1, "encoder.forward": 1}
    assert ops.count("gru") == cfg.t_past - 1
    [decay] = [node for node in nodes if node.op == "temporal_decay"]
    assert decay.shape == (2, cfg.t_past - 1, 3, 1)
    assert ops.count("bigauss_nll") == cfg.t_past


def test_inference_without_future_skips_the_last_recurrence(monkeypatch):
    """With no future window nothing reads the state after the last past
    step, so `run_inference` runs neither its encoding, its decay nor its
    GRU; the outputs and the draws from the rng are those of the full loop.
    The window's one decay call spans the t_past - 1 steps that recur."""
    cfg = tiny_cfg(t_future=0, mode="impute-only", seed=49)
    model = TrajectoryModel(cfg)
    coords, mask = toy_batch(cfg, seed=50)
    past = coords[:, :cfg.t_past]
    rng = np.random.default_rng(51)
    calls = _count_recurrence_calls(monkeypatch, model)
    imputed, predicted = model.run_inference(past, mask, rng=rng)
    assert calls == {"gru_step": cfg.t_past - 1, "temporal_decay": 1,
                     "encoder.forward": cfg.t_past - 1}
    assert predicted.shape == (2, 0, 3, 2)
    # a model that also runs the last GRU (same parameters) imputes the same
    full = TrajectoryModel(replace(cfg, t_future=1, mode="joint"))
    ref_imputed, _ = full.run_inference(past, mask, rng=np.random.default_rng(51))
    np.testing.assert_array_equal(imputed, ref_imputed)
    # one prior draw per past step, as before
    ref_rng = np.random.default_rng(51)
    for _ in range(cfg.t_past):
        ref_rng.standard_normal((2, 3, cfg.d_latent))
    assert rng.standard_normal() == ref_rng.standard_normal()


def test_training_tape_fuses_loss_terms():
    """Each step's latent draw, reconstruction NLL and KL is one node, and
    so is the decay, 1 / exp(relu(w * lag + b)), which runs once over the
    past window: no exp, log, sub, div, relu or sum is left on the tape."""
    cfg = tiny_cfg(seed=46)
    model = TrajectoryModel(cfg)
    coords, mask = toy_batch(cfg, seed=47)
    noise = model.draw_noise(np.random.default_rng(48), 2, 3)
    nodes = _tape_nodes(model.training_losses(coords, mask, noise)["total"])
    ops = [node.op for node in nodes]
    steps = cfg.t_past + cfg.t_future
    for op in ("sample_latent", "bigauss_nll", "gauss_kl"):
        assert ops.count(op) == steps, op
    assert not {"exp", "log", "sub", "div", "relu", "sum"} & set(ops)
    [decay] = [node for node in nodes if node.op == "temporal_decay"]
    assert decay.parents == (model.td_weight, model.td_bias)


def test_training_tape_weight_products_are_linear():
    """Every product with a weight matrix is a `linear` node, so `matmul`
    is left with, per window, the pooling of the visible and the hidden
    nodes that the ST and the EC branch share and the DL adjacency
    product, and, for the past window, the EC branch's product back to
    every node; the EC category matrices are transposed into their
    (D, 3 D_G) layout once."""
    cfg = tiny_cfg(seed=40)
    model = TrajectoryModel(cfg)
    coords, mask = toy_batch(cfg, seed=41)
    noise = model.draw_noise(np.random.default_rng(42), 2, 3)
    nodes = _tape_nodes(model.training_losses(coords, mask, noise)["total"])
    matmuls = [node for node in nodes if node.op == "matmul"]
    assert len(matmuls) == 2 + 1 + 2
    assert not any(isinstance(p, Parameter) for node in matmuls for p in node.parents)
    assert [node.op for node in nodes].count("transpose") == 1


def test_train_step_reduces_loss():
    cfg = tiny_cfg(seed=30)
    model = TrajectoryModel(cfg)
    coords, mask = toy_batch(cfg, batch=4, seed=31)
    opt = Adam(model.parameters(), lr=0.005)
    rng = np.random.default_rng(32)
    first = last = None
    for step in range(50):
        out = model.train_step(coords, mask, opt, rng=rng)
        if step == 0:
            first = out["total"]
        last = out["total"]
    assert last < first


def test_zero_learning_rate_freezes_parameters():
    cfg = tiny_cfg(seed=33)
    model = TrajectoryModel(cfg)
    coords, mask = toy_batch(cfg, seed=34)
    opt = Adam(model.parameters(), lr=0.0)
    before = {n: p.data.copy() for n, p in model.params.items()}
    r1 = model.train_step(coords, mask, opt, rng=np.random.default_rng(35))
    r2 = model.train_step(coords, mask, opt, rng=np.random.default_rng(35))
    for n, p in model.params.items():
        assert np.array_equal(p.data, before[n]), n
    assert r1["total"] == r2["total"]


def test_identical_seeds_identical_loss_trajectories():
    def run():
        cfg = tiny_cfg(seed=36)
        model = TrajectoryModel(cfg)
        coords, mask = toy_batch(cfg, seed=37)
        opt = Adam(model.parameters(), lr=0.003)
        rng = np.random.default_rng(38)
        return [model.train_step(coords, mask, opt, rng=rng)["total"]
                for _ in range(5)]

    assert run() == run()


def test_inference_copy_through_when_fully_visible():
    cfg = tiny_cfg(seed=39, coord_center=(3.0, -1.0), coord_scale=2.5)
    model = TrajectoryModel(cfg)
    coords, _ = toy_batch(cfg, seed=40)
    past = coords[:, :cfg.t_past]
    mask = np.ones((2, cfg.t_past, 3))
    imputed, predicted = model.run_inference(past, mask, seed=41)
    assert np.array_equal(imputed, past)
    assert predicted.shape == (2, cfg.t_future, 3, 2)


def test_inference_fixed_seed_deterministic():
    cfg = tiny_cfg(seed=42)
    model = TrajectoryModel(cfg)
    coords, mask = toy_batch(cfg, seed=43, missing=0.5)
    past = coords[:, :cfg.t_past]
    a = model.run_inference(past, mask, seed=44)
    b = model.run_inference(past, mask, seed=44)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_zero_model_predicts_origin():
    model = zero_model()
    cfg = model.cfg
    coords, mask = toy_batch(cfg, seed=45, missing=0.4)
    _, predicted = model.run_inference(coords[:, :cfg.t_past], mask, seed=46)
    np.testing.assert_array_equal(predicted, np.zeros_like(predicted))


def test_inference_tolerates_degenerate_masks():
    cfg = tiny_cfg(seed=47)
    model = TrajectoryModel(cfg)
    coords, _ = toy_batch(cfg, seed=48)
    past = coords[:, :cfg.t_past]
    empty = np.zeros((2, cfg.t_past, 3))
    imputed, predicted = model.run_inference(past, empty, seed=49)
    assert np.isfinite(imputed).all() and np.isfinite(predicted).all()
    # one agent never observed is also fine
    mask = np.ones((2, cfg.t_past, 3))
    mask[:, :, 0] = 0.0
    imputed, _ = model.run_inference(past, mask, seed=50)
    assert np.isfinite(imputed).all()


@pytest.mark.parametrize("bad", [0.5, 1.5, -1.0, np.nan])
def test_non_binary_mask_is_data_error(bad):
    """Both graph branches read a mask entry as visible or hidden, so
    training and inference reject any other value."""
    cfg = tiny_cfg(seed=52)
    model = TrajectoryModel(cfg)
    coords, mask = toy_batch(cfg, seed=53)
    mask[1, 2, 0] = bad
    noise = model.draw_noise(np.random.default_rng(54), 2, 3)
    with pytest.raises(DataError, match="0 or 1"):
        model.training_losses(coords, mask, noise)
    with pytest.raises(DataError, match="0 or 1"):
        model.run_inference(coords[:, :cfg.t_past], mask, seed=55)
    with pytest.raises(DataError, match="0 or 1"):
        model.run_inference(coords[0, :cfg.t_past], mask[1], seed=55)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_coordinates_are_data_error_at_inference(bad):
    """Inference keeps the same finite-coordinate rule as training, even
    at a hidden step, whose value the encoder never reads."""
    cfg = tiny_cfg(seed=56)
    model = TrajectoryModel(cfg)
    coords, mask = toy_batch(cfg, seed=57)
    past = coords[:, :cfg.t_past].copy()
    mask[1, 2, 0] = 0.0
    past[1, 2, 0, 1] = bad
    with pytest.raises(DataError, match="non-finite"):
        model.run_inference(past, mask, seed=58)
    with pytest.raises(DataError, match="non-finite"):
        model.run_inference(past[1], mask[1], seed=58)


def test_agent_count_beyond_dl_capacity_is_data_error():
    """With the DL branch, N > n_agents_max is bad input to the model, as
    it is to `check_compatible`; without DL the same batch runs."""
    cfg = tiny_cfg(seed=59, n_agents_max=2)
    coords, mask = toy_batch(cfg, n_agents=3, seed=60)
    model = TrajectoryModel(cfg)
    noise = model.draw_noise(np.random.default_rng(61), 2, 3)
    with pytest.raises(DataError, match="n_agents_max=2"):
        model.training_losses(coords, mask, noise)
    with pytest.raises(DataError, match="n_agents_max=2"):
        model.run_inference(coords[:, :cfg.t_past], mask, seed=62)
    with pytest.raises(DataError, match="n_agents_max=2"):
        model.run_inference(coords[0, :cfg.t_past], mask[0], seed=62)
    no_dl = TrajectoryModel(replace(cfg, use_dl=False))
    assert np.isfinite(no_dl.training_losses(coords, mask, noise)["total"].item())


@pytest.mark.parametrize("batch,n_agents", [(0, 3), (2, 0)])
def test_empty_batch_or_no_agents_is_data_error(batch, n_agents):
    """No sequence or no agent is bad input to both verbs, batched and
    (for no agents) as one sequence, not an error from inside the model."""
    cfg = tiny_cfg(seed=66)
    model = TrajectoryModel(cfg)
    coords, mask = toy_batch(cfg, batch=batch, n_agents=n_agents, seed=67)
    opt = Adam(model.parameters(), lr=1e-3)
    with pytest.raises(DataError, match=r"B, N >= 1"):
        model.train_step(coords, mask, opt, rng=np.random.default_rng(68))
    with pytest.raises(DataError, match=r"B, N >= 1"):
        model.run_inference(coords[:, :cfg.t_past], mask, seed=69)
    if batch:
        with pytest.raises(DataError, match=r"B, N >= 1"):
            model.run_inference(coords[0, :cfg.t_past], mask[0], seed=69)


def test_train_step_checks_inputs_before_drawing_noise():
    cfg = tiny_cfg(seed=63)
    model = TrajectoryModel(cfg)
    coords, mask = toy_batch(cfg, seed=64)
    opt = Adam(model.parameters(), lr=1e-3)
    rng = np.random.default_rng(65)
    for bad_coords, bad_mask in ((coords[0, :, 0], mask), (coords[:, :cfg.t_past], mask),
                                 (coords, mask[..., :2])):
        with pytest.raises(DataError, match="expected"):
            model.train_step(bad_coords, bad_mask, opt, rng=rng)


def test_inference_unbatched_roundtrip():
    cfg = tiny_cfg(seed=51)
    model = TrajectoryModel(cfg)
    coords, mask = toy_batch(cfg, batch=1, seed=52)
    imputed, predicted = model.run_inference(coords[0, :cfg.t_past], mask[0], seed=53)
    assert imputed.shape == (cfg.t_past, 3, 2)
    assert predicted.shape == (cfg.t_future, 3, 2)


def test_ec_only_needs_an_empty_future_window():
    # inference rolls the future out in every mode and EC cannot encode it
    for mode in ("joint", "impute-only"):
        with pytest.raises(ConfigError):
            tiny_cfg(use_st=False, use_dl=False, mode=mode)
    cfg = tiny_cfg(use_st=False, use_dl=False, mode="impute-only", t_future=0)
    coords, mask = toy_batch(cfg, seed=63)
    imputed, predicted = TrajectoryModel(cfg).run_inference(coords, mask, seed=64)
    assert np.isfinite(imputed).all() and predicted.shape == (2, 0, 3, 2)


@pytest.mark.parametrize("bad", [dict(d_hidden=0), dict(ec_pool=0), dict(t_future=-1),
                                 dict(coord_center=(1.0,)), dict(seed=-1)])
def test_config_rejects_bad_sizes(bad):
    with pytest.raises(ConfigError):
        tiny_cfg(mode="impute-only", **bad)
