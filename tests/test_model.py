import math

import numpy as np
import pytest

from trajvrnn.autodiff import Parameter, Tensor, backward, grad_check, tsum
from trajvrnn.checkpoint import load_model, save_checkpoint
from trajvrnn.errors import ConfigError
from trajvrnn.model import (
    BiGaussianParams, LatentDistribution, ModelConfig, TrajectoryModel,
    bigauss_nll, bigauss_split, decay_hidden, gauss_kl, gru_step,
    sample_latent, temporal_decay, temporal_lag_update,
)
from trajvrnn.optim import Adam

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
    np.testing.assert_array_equal(dist.sigma.data, np.ones((3, 8)))


def test_prior_zero_hidden_zero_bias():
    model = TrajectoryModel(tiny_cfg())
    dist = model.prior_params(Tensor(np.zeros((2, 8))))
    np.testing.assert_array_equal(dist.mu.data, np.zeros((2, 8)))
    np.testing.assert_array_equal(dist.sigma.data, np.ones((2, 8)))


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
    mu, lv = _head_oracle(h, model.prior_head, model.cfg.logvar_limit)
    np.testing.assert_allclose(dist.mu.data, mu, atol=1e-12)
    np.testing.assert_allclose(dist.logvar.data, lv, atol=1e-12)


def test_posterior_zero_weights_standard_normal():
    model = zero_model()
    dist = model.posterior_params(Tensor(np.ones((3, 4))), Tensor(np.ones((3, 8))))
    np.testing.assert_array_equal(dist.mu.data, np.zeros((3, 8)))
    np.testing.assert_array_equal(dist.sigma.data, np.ones((3, 8)))


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
                          model.cfg.logvar_limit)
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
    delta = np.zeros((1, 1))
    seen = []
    for t, m in enumerate(mask_seq):
        delta = temporal_lag_update(delta, t, np.array([[m]]))
        seen.append(delta[0, 0, 0])
    assert seen == [0.0, 1.0, 2.0, 1.0]


@pytest.mark.parametrize("mask_seq,expected", [
    ([1, 1, 1, 1], [0, 1, 1, 1]),
    ([1, 0, 0, 0], [0, 1, 2, 3]),
])
def test_lag_sequences(mask_seq, expected):
    delta = np.zeros((1, 1))
    seen = []
    for t, m in enumerate(mask_seq):
        delta = temporal_lag_update(delta, t, np.array([[float(m)]]))
        seen.append(delta[0, 0, 0])
    assert seen == [float(v) for v in expected]


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


def test_decay_hidden_scales_rows():
    h = Tensor([[[2.0, 4.0]]])
    np.testing.assert_array_equal(decay_hidden(h, Tensor([[[1.0]]])).data, h.data)
    np.testing.assert_array_equal(
        decay_hidden(h, Tensor([[[0.5]]])).data, [[[1.0, 2.0]]])


def test_use_td_false_ignores_decay_params():
    cfg = tiny_cfg(use_td=False)
    model = TrajectoryModel(cfg)
    coords, mask = toy_batch(cfg)
    noise = model.draw_noise(np.random.default_rng(0), 2, 3)
    before = model.loss_total(coords, mask, noise).item()
    model.td_weight.data[...] = 57.0
    model.td_bias.data[...] = -3.0
    assert model.loss_total(coords, mask, noise).item() == before
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
    out = gru_step(x, h, model.rnn_main)
    np.testing.assert_array_equal(out.data, np.zeros((2, 3, cfg.d_hidden)))


def test_gru_step_records_one_tape_node():
    model = TrajectoryModel(tiny_cfg(seed=18))
    cfg = model.cfg
    rng = np.random.default_rng(19)
    x = Tensor(rng.normal(size=(2, 3, cfg.d_graph + cfg.d_latent)))
    h = Tensor(rng.normal(size=(2, 3, cfg.d_hidden)))
    out = gru_step(x, h, model.rnn_main)
    # its parents are the two inputs and the six leaf weights: one node
    assert out.op == "gru" and out.parents == (x, h, *model.rnn_main)
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
    out = model.recurrence_impute(Tensor(fg), Tensor(z), Tensor(h))
    zf = np.tanh(z @ model.zfeat_past_w[0].data + model.zfeat_past_w[1].data)
    expected = _gru_oracle(np.concatenate([fg, zf], axis=-1), h, model.rnn_main)
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_recurrence_deterministic():
    model = TrajectoryModel(tiny_cfg(seed=13))
    rng = np.random.default_rng(14)
    cfg = model.cfg
    args = (Tensor(rng.normal(size=(1, 2, cfg.d_graph))),
            Tensor(rng.normal(size=(1, 2, cfg.d_latent))),
            Tensor(rng.normal(size=(1, 2, cfg.d_hidden))))
    assert np.array_equal(model.recurrence_impute(*args).data,
                          model.recurrence_impute(*args).data)


def test_shared_cell_aliasing():
    model = TrajectoryModel(tiny_cfg(share_streams=True, seed=15))
    assert model.rnn_pred is model.rnn_main
    rng = np.random.default_rng(16)
    cfg = model.cfg
    fg = Tensor(rng.normal(size=(1, 2, cfg.d_graph)))
    z = Tensor(rng.normal(size=(1, 2, cfg.d_latent)))
    z_tp = Tensor(rng.normal(size=(1, 2, cfg.d_latent)))
    h = Tensor(rng.normal(size=(1, 2, cfg.d_hidden)))
    imp_before = model.recurrence_impute(fg, z, h).data.copy()
    pre_before = model.recurrence_predict(fg, z, z_tp, h).data.copy()
    model.rnn_main[0].data[...] += 0.5  # one mutation moves both streams
    assert not np.array_equal(model.recurrence_impute(fg, z, h).data, imp_before)
    assert not np.array_equal(model.recurrence_predict(fg, z, z_tp, h).data, pre_before)


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
    model = TrajectoryModel(tiny_cfg())
    t = Tensor(np.zeros((1, 2, 4)))
    z = Tensor(np.zeros((1, 2, 8)))
    h = Tensor(np.zeros((1, 2, 8)))
    with pytest.raises(ConfigError):
        model.recurrence_predict(t, z, None, h)
    with pytest.raises(ConfigError):
        model.decode_prediction(z, None, h)


# ---------------------------------------------------------------------------
# decoders


def test_decoder_zero_weights_unit_gaussian():
    model = zero_model()
    z = Tensor(np.random.default_rng(19).normal(size=(2, 3, 8)))
    h = Tensor(np.random.default_rng(20).normal(size=(2, 3, 8)))
    out = model.decode_imputation(z, h)
    np.testing.assert_array_equal(out.mu.data, np.zeros((2, 3, 2)))
    np.testing.assert_array_equal(out.sigma.data, np.ones((2, 3, 2)))
    np.testing.assert_array_equal(out.rho.data, np.zeros((2, 3, 1)))
    out_f = model.decode_prediction(z, z, h)
    np.testing.assert_array_equal(out_f.mu.data, np.zeros((2, 3, 2)))
    np.testing.assert_array_equal(out_f.sigma.data, np.ones((2, 3, 2)))


def test_decoder_matches_bruteforce_mlp():
    model = TrajectoryModel(tiny_cfg(seed=21))
    rng = np.random.default_rng(22)
    z = rng.normal(size=(3, 8))
    h = rng.normal(size=(3, 8))
    out = model.decode_imputation(Tensor(z), Tensor(h))
    zf = np.tanh(z @ model.zfeat_past_w[0].data + model.zfeat_past_w[1].data)
    w0, b0, w_out, b_out = (p.data for p in model.dec_impute)
    raw = np.tanh(np.concatenate([zf, h], axis=-1) @ w0 + b0) @ w_out + b_out
    np.testing.assert_allclose(out.mu.data, raw[:, 0:2], atol=1e-12)
    np.testing.assert_allclose(out.sigma.data, np.exp(raw[:, 2:4]), atol=1e-12)
    np.testing.assert_allclose(out.rho.data, 0.999 * np.tanh(raw[:, 4:5]), atol=1e-12)


def test_decoder_rho_always_in_open_interval():
    raw = Tensor(np.random.default_rng(23).normal(scale=50.0, size=(10_000, 5)))
    params = bigauss_split(raw)
    assert (np.abs(params.rho.data) < 0.999 + 1e-12).all()
    assert (params.sigma.data > 0).all()


def test_prediction_decoder_conditions_on_z_tp():
    model = TrajectoryModel(tiny_cfg(seed=24))
    rng = np.random.default_rng(25)
    z = Tensor(rng.normal(size=(2, 8)))
    h = Tensor(rng.normal(size=(2, 8)))
    out1 = model.decode_prediction(z, Tensor(rng.normal(size=(2, 8))), h)
    out2 = model.decode_prediction(z, Tensor(rng.normal(size=(2, 8))), h)
    assert not np.array_equal(out1.mu.data, out2.mu.data)


# ---------------------------------------------------------------------------
# densities


def test_nll_at_mean_unit_sigma():
    params = BiGaussianParams(mu=Tensor([[0.0, 0.0]]), sigma=Tensor([[1.0, 1.0]]),
                              rho=Tensor([[0.0]]))
    nll = bigauss_nll(Tensor([[0.0, 0.0]]), params)
    assert abs(nll.item() - LOG_2PI) < 1e-12


def test_nll_one_sigma_offset():
    params = BiGaussianParams(mu=Tensor([[1.0, 2.0]]), sigma=Tensor([[1.0, 1.0]]),
                              rho=Tensor([[0.0]]))
    nll = bigauss_nll(Tensor([[2.0, 2.0]]), params)
    assert abs(nll.item() - (LOG_2PI + 0.5)) < 1e-12


def test_nll_factorises_when_uncorrelated():
    rng = np.random.default_rng(26)
    mu = rng.normal(size=(5, 2))
    sigma = np.exp(rng.normal(size=(5, 2)))
    target = rng.normal(size=(5, 2))
    params = BiGaussianParams(mu=Tensor(mu), sigma=Tensor(sigma),
                              rho=Tensor(np.zeros((5, 1))))
    joint = bigauss_nll(Tensor(target), params).data
    uni = (0.5 * np.log(2 * np.pi) + np.log(sigma)
           + (target - mu) ** 2 / (2 * sigma ** 2)).sum(axis=-1)
    np.testing.assert_allclose(joint, uni, atol=1e-12)


def test_kl_identical_zero():
    rng = np.random.default_rng(27)
    mu, lv = rng.normal(size=(4, 8)), rng.normal(size=(4, 8))
    d = LatentDistribution(mu=Tensor(mu), logvar=Tensor(lv))
    np.testing.assert_allclose(gauss_kl(d, d).data, np.zeros(4), atol=1e-12)


def test_kl_unit_shift_half():
    q = LatentDistribution(mu=Tensor([[1.0]]), logvar=Tensor([[0.0]]))
    p = LatentDistribution(mu=Tensor([[0.0]]), logvar=Tensor([[0.0]]))
    assert abs(gauss_kl(q, p).item() - 0.5) < 1e-12


def test_kl_nonnegative_randomised():
    rng = np.random.default_rng(28)
    q = LatentDistribution(mu=Tensor(rng.normal(size=(10_000, 4))),
                           logvar=Tensor(rng.normal(size=(10_000, 4))))
    p = LatentDistribution(mu=Tensor(rng.normal(size=(10_000, 4))),
                           logvar=Tensor(rng.normal(size=(10_000, 4))))
    assert (gauss_kl(q, p).data >= -1e-12).all()


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


def test_kl_weight_linearity():
    cfg = tiny_cfg(seed=3)
    coords, mask = toy_batch(cfg, seed=4)
    noise = TrajectoryModel(cfg).draw_noise(np.random.default_rng(5), 2, 3)
    with_kl = TrajectoryModel(cfg).training_losses(coords, mask, noise)
    without = TrajectoryModel(cfg.with_updates(lambda_imp_kl=0.0)) \
        .training_losses(coords, mask, noise)
    diff = with_kl["imp"].item() - without["imp"].item()
    np.testing.assert_allclose(diff, with_kl["imp_kl"].item(), rtol=1e-12)


def test_total_additivity_and_lambda3():
    cfg = tiny_cfg(seed=6)
    model = TrajectoryModel(cfg)
    coords, mask = toy_batch(cfg, seed=7)
    noise = model.draw_noise(np.random.default_rng(8), 2, 3)
    losses = model.training_losses(coords, mask, noise)
    np.testing.assert_allclose(losses["total"].item(),
                               losses["imp"].item() + losses["pre"].item(),
                               rtol=1e-12)
    no_pre = TrajectoryModel(cfg.with_updates(lambda_pre=0.0)) \
        .training_losses(coords, mask, noise)
    np.testing.assert_allclose(no_pre["total"].item(), no_pre["imp"].item(), rtol=1e-12)


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
    err = grad_check(lambda: model.loss_total(coords, mask, noise),
                     model.parameters())
    assert err <= 1e-4


# ---------------------------------------------------------------------------
# training and inference drivers


def _tape_nodes(root):
    """Every recorded node behind `root` (nodes with parents), once each."""
    seen, stack, nodes = {id(root)}, [root], []
    while stack:
        node = stack.pop()
        if node.parents:
            nodes.append(node)
        for parent in node.parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return nodes


def test_training_tape_holds_no_affine_intermediates():
    """Every affine map is one `linear` node: the tape keeps no concat copy
    other than the GRU inputs and no matmul output that only feeds a bias
    add, and each log-variance clamp is one node."""
    cfg = tiny_cfg(seed=37)
    model = TrajectoryModel(cfg)
    coords, mask = toy_batch(cfg, seed=38)
    noise = model.draw_noise(np.random.default_rng(39), 2, 3)
    nodes = _tape_nodes(model.training_losses(coords, mask, noise)["total"])
    ops = [node.op for node in nodes]
    steps = cfg.t_past + cfg.t_future
    # one GRU input per step; the last future step's GRU does not reach the loss
    assert ops.count("concat") == steps - 1
    assert ops.count("clamp") == 2 * steps  # prior and posterior log-variance
    bias_adds = [node for node in nodes if node.op == "add"
                 and any(p.op == "matmul" for p in node.parents)
                 and any(isinstance(p, Parameter) for p in node.parents)]
    assert bias_adds == []


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


def test_inference_unbatched_roundtrip():
    cfg = tiny_cfg(seed=51)
    model = TrajectoryModel(cfg)
    coords, mask = toy_batch(cfg, batch=1, seed=52)
    imputed, predicted = model.run_inference(coords[0, :cfg.t_past], mask[0], seed=53)
    assert imputed.shape == (cfg.t_past, 3, 2)
    assert predicted.shape == (cfg.t_future, 3, 2)


def test_lag_mode_previous_switch_changes_behaviour():
    cfg_cur = tiny_cfg(seed=54)
    cfg_prev = tiny_cfg(seed=54, lag_mode="previous")
    coords, mask = toy_batch(cfg_cur, seed=55, missing=0.5)
    noise = TrajectoryModel(cfg_cur).draw_noise(np.random.default_rng(56), 2, 3)
    l_cur = TrajectoryModel(cfg_cur).loss_total(coords, mask, noise).item()
    l_prev = TrajectoryModel(cfg_prev).loss_total(coords, mask, noise).item()
    assert l_cur != l_prev


def test_static_norm_literal_changes_loss_and_survives_checkpoint(tmp_path):
    cfg_sym = tiny_cfg(seed=57)
    coords, mask = toy_batch(cfg_sym, seed=58)
    noise = TrajectoryModel(cfg_sym).draw_noise(np.random.default_rng(59), 2, 3)
    literal = TrajectoryModel(tiny_cfg(seed=57, static_norm="literal"))
    l_lit = literal.loss_total(coords, mask, noise).item()
    assert TrajectoryModel(cfg_sym).loss_total(coords, mask, noise).item() != l_lit
    save_checkpoint(tmp_path / "literal.ckpt", literal)
    restored = load_model(tmp_path / "literal.ckpt")
    assert restored.cfg.static_norm == "literal"
    assert restored.loss_total(coords, mask, noise).item() == l_lit


def test_inference_feedback_decoded_feeds_previous_position():
    cfg = tiny_cfg(seed=60, inference_feedback="decoded")
    coords, mask = toy_batch(cfg, seed=61, missing=0.5)
    past = coords[:, :cfg.t_past]
    model = TrajectoryModel(cfg)
    fills = []
    forward = model.encoder.forward

    def spy(coords, mask, phase, thetas=None, fill=None):
        if phase == "past":
            fills.append(fill)
        return forward(coords, mask, phase, thetas, fill)

    model.encoder.forward = spy
    imputed, _ = model.run_inference(past, mask, seed=62)
    # a missing agent's encoder input is its previous-step position, the
    # observation or else the decoded mean, as `imputed` holds it (0 at t=0)
    assert np.array_equal(fills[0], np.zeros((2, 3, 2)))
    for t in range(1, cfg.t_past):
        assert np.array_equal(fills[t], imputed[:, t - 1])

    zero = TrajectoryModel(tiny_cfg(seed=60))
    zero_imputed, _ = zero.run_inference(past, mask, seed=62)
    assert not np.array_equal(zero_imputed, imputed)
    # with nothing missing the fill is never read
    full = np.ones_like(mask)
    a = zero.run_inference(past, full, seed=63)
    b = TrajectoryModel(cfg).run_inference(past, full, seed=63)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


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
