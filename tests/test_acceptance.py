"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Everything is seeded and
deterministic. Criteria 1-4, 8 and 9 are implemented; the exhaustive
per-coordinate gradient check of criterion 1 dominates the runtime.
Criteria 5-7, the training-based comparisons against the baselines, have
no test yet.
"""

import math
import time

import numpy as np

from trajvrnn.autodiff import Tensor
from trajvrnn.baselines import metric_i_l2
from trajvrnn.checkpoint import load_checkpoint, restore_model, save_checkpoint
from trajvrnn.config import RunConfig
from trajvrnn.data import (MaskingSpec, apply_camera_mask, apply_circle_mask, build_dataset,
                           generate_sequences, stack_arrays, stack_past)
from trajvrnn.graph import pool_visibility
from trajvrnn.model import (LatentDistribution, ModelConfig, TrajectoryModel,
                            bigauss_nll, gauss_kl, gru_step, temporal_decay)
from trajvrnn.training import loss_rows_to_csv, train

from oracle_ops import exp, grad_check, tsum

LOG_2PI = math.log(2.0 * math.pi)


def check(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness of every operation, < 2 min


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    cfg = ModelConfig(n_agents_max=2, d_embed=4, d_graph=4, d_hidden=8,
                      d_latent=8, ec_hidden=4, ec_pool=2, t_past=4, t_future=2,
                      seed=11)
    model = TrajectoryModel(cfg)
    enc = model.encoder
    rng = np.random.default_rng(12)
    n = 2
    coords = rng.normal(size=(n, 2))
    mask = np.array([1.0, 0.0])
    errors = {}

    enc_params = list(enc.params.values())
    errors["embed_inputs"] = max(
        grad_check(lambda: tsum(enc.embed(coords, mask)), enc_params),
        grad_check(lambda: tsum(enc.embed(coords, None)), enc_params))

    feats = rng.normal(size=(n, 4))
    pooled = pool_visibility(Tensor(feats), mask)
    errors["st_gcl"] = grad_check(
        lambda: tsum(enc.st_branch(pooled, mask)), enc_params)
    errors["dl_gcl"] = grad_check(
        lambda: tsum(enc.dl_branch(Tensor(feats))), enc_params)
    errors["ec_gcl"] = grad_check(
        lambda: tsum(enc.ec_branch(pooled, mask)), enc_params)
    errors["fuse"] = grad_check(
        lambda: tsum(enc.forward(coords, mask)), enc_params)

    h = rng.normal(size=(1, n, 8))
    fg = rng.normal(size=(1, n, 4))
    z_in = rng.normal(size=(1, n, 8))
    params = model.parameters()

    def head_scalar(dist):
        return tsum(dist.mu) + tsum(exp(dist.logvar * 0.5))

    errors["prior_head"] = grad_check(
        lambda: head_scalar(model.prior_params(Tensor(h))), params)
    errors["posterior_head"] = grad_check(
        lambda: head_scalar(model.posterior_params(Tensor(fg), Tensor(h))), params)

    def dec_scalar(raw):
        return tsum(raw)

    def zf_past():
        return model.zfeat_past(Tensor(z_in))

    def zf_future():
        return model.zfeat_future(Tensor(z_in), Tensor(z_in))

    errors["decoder_impute"] = grad_check(
        lambda: dec_scalar(model.decode_imputation(zf_past(), Tensor(h))), params)
    errors["decoder_predict"] = grad_check(
        lambda: dec_scalar(model.decode_prediction(zf_future(), Tensor(h))), params)

    delta = np.array([[[0.0], [3.0]]])
    errors["recurrence_td"] = grad_check(
        lambda: tsum(gru_step([Tensor(fg), zf_past()],
                              Tensor(h) * model.temporal_decay(delta),
                              model.rnn_main)), params)
    errors["recurrence_predict"] = grad_check(
        lambda: tsum(gru_step([Tensor(fg), zf_future()], Tensor(h), model.rnn_pred)),
        params)

    target = rng.normal(size=(1, n, 2))
    errors["bigauss_nll"] = grad_check(
        lambda: tsum(bigauss_nll(target, model.decode_imputation(zf_past(), Tensor(h)))),
        params)
    errors["gauss_kl"] = grad_check(
        lambda: tsum(gauss_kl(model.posterior_params(Tensor(fg), Tensor(h)),
                              model.prior_params(Tensor(h)))), params)

    batch_rng = np.random.default_rng(13)
    coords_b = batch_rng.normal(scale=2.0, size=(1, 6, n, 2)).cumsum(axis=1) * 0.3
    mask_b = (batch_rng.random((1, 4, n)) > 0.4).astype(float)
    noise = model.draw_noise(np.random.default_rng(14), 1, n)
    errors["loss_total"] = grad_check(
        lambda: model.training_losses(coords_b, mask_b, noise)["total"], params)

    elapsed = time.time() - t0
    worst = max(errors.values())
    detail = (f"max rel err {worst:.2e} over {len(errors)} checks "
              f"(worst: {max(errors, key=errors.get)}), {elapsed:.0f}s")
    check(1, "gradient correctness", worst <= 1e-4 and elapsed < 120, detail)


# ---------------------------------------------------------------------------
# criterion 2: closed-form oracles at 1e-12


def test_criterion_2_closed_forms():
    # raw decoder outputs: mean (0, 0), log sigma (0, 0), pre-tanh rho 0
    nll = bigauss_nll(Tensor([[0.0, 0.0]]), Tensor([[0.0, 0.0, 0.0, 0.0, 0.0]])).item()
    kl = gauss_kl(LatentDistribution(mu=Tensor([[1.0]]), logvar=Tensor([[0.0]])),
                  LatentDistribution(mu=Tensor([[0.0]]), logvar=Tensor([[0.0]]))).item()
    decay = temporal_decay(np.array([[[1.0]]]), Tensor([math.log(2.0)]),
                           Tensor([0.0])).item()
    errs = (abs(nll - LOG_2PI), abs(kl - 0.5), abs(decay - 0.5))
    check(2, "closed-form oracles", max(errs) < 1e-12,
          f"nll err {errs[0]:.1e}, kl err {errs[1]:.1e}, decay err {errs[2]:.1e}")


# ---------------------------------------------------------------------------
# criterion 3: masking laws over >= 500 sequences


def test_criterion_3_masking_laws():
    seqs = generate_sequences(500, 10, 40, 10, seed=303)
    radii = (3.0, 5.0, 7.0)
    angles = (10.0, 20.0, 30.0)
    past, ref = stack_past(seqs)
    circle = [apply_circle_mask(past, ref, r) for r in radii]
    camera = [apply_camera_mask(past, ref, th) for th in angles]
    circle_rates = [np.mean(1.0 - m.mean(axis=(1, 2))) for m in circle]
    camera_rates = [np.mean(1.0 - m.mean(axis=(1, 2))) for m in camera]
    # one violation per sequence and scenario whose masks are not nested
    violations = sum(int(np.any((m[0] > m[1]) | (m[1] > m[2]), axis=(1, 2)).sum())
                     for m in (circle, camera))
    strict = (circle_rates[0] > circle_rates[1] > circle_rates[2]
              and camera_rates[0] > camera_rates[1] > camera_rates[2])
    check(3, "masking laws", violations == 0 and strict,
          f"0 monotonicity violations over {len(seqs)} sequences; missing rates "
          f"circle {['%.3f' % r for r in circle_rates]}, "
          f"camera {['%.3f' % r for r in camera_rates]}")


# ---------------------------------------------------------------------------
# criterion 4: structural invariants


def test_criterion_4_structural_invariants():
    rng = np.random.default_rng(404)
    failures = []
    cfg = ModelConfig(n_agents_max=6, d_embed=4, d_graph=4, d_hidden=8,
                      d_latent=4, ec_hidden=4, ec_pool=2, t_past=4, t_future=2,
                      seed=405)
    enc = TrajectoryModel(cfg).encoder

    def branches(feats, mask):
        pooled = pool_visibility(feats, mask)
        return enc.st_branch(pooled, mask).data, enc.ec_branch(pooled, mask).data

    for _ in range(200):
        mask = rng.integers(0, 2, size=8)
        st, _ = branches(Tensor(rng.normal(size=(8, 4))), mask)
        if st[mask == 0].any():
            failures.append("hidden node has a nonzero ST row")
        if not (st[mask == 1] == st[mask == 1][:1]).all():
            failures.append("visible nodes get different ST rows")

    for _ in range(100):
        coords = rng.normal(size=(6, 2))
        mask = rng.integers(0, 2, size=6).astype(float)
        perm = rng.permutation(6)
        # exact up to float summation reorder (deviations are ~2e-16 ulps)
        st, ec = branches(enc.embed(coords, mask), mask)
        st_p, ec_p = branches(enc.embed(coords[perm], mask[perm]), mask[perm])
        if np.abs(st_p - st[perm]).max() > 1e-12:
            failures.append("ST branch not permutation equivariant")
        if np.abs(ec_p - ec[perm]).max() > 1e-12:
            failures.append("EC branch not permutation equivariant")

    delta = rng.uniform(0.0, 60.0, size=(100_000, 1))
    w, b = Tensor([0.21]), Tensor([-0.4])
    decay = temporal_decay(delta, w, b).data
    if not ((decay > 0.0).all() and (decay <= 1.0).all()):
        failures.append("decay out of (0, 1]")
    pre = 0.21 * delta - 0.4
    if not np.array_equal(decay[pre <= 0], np.ones_like(decay[pre <= 0])):
        failures.append("decay != 1 on non-positive pre-activation")

    check(4, "structural invariants", not failures,
          "0 failures across ST-row/equivariance/decay trials"
          if not failures else f"failures: {sorted(set(failures))}")


# ---------------------------------------------------------------------------
# criterion 8: determinism and persistence


def test_criterion_8_determinism_persistence(tmp_path):
    cfg = RunConfig(n_agents_max=4, d_embed=4, d_graph=4, d_hidden=8, d_latent=4,
                    ec_hidden=3, ec_pool=2, t_past=6, t_future=2, seed=808,
                    epochs=2, batch_size=4, checkpoint_every=0, gen_count=8,
                    gen_n_agents=3)
    seqs = generate_sequences(8, 3, 6, 2, seed=808)
    ds = build_dataset(seqs, MaskingSpec(mode="circle", radius=5.0),
                       split="train", seed=808)
    log_a = loss_rows_to_csv(train(cfg, ds).loss_rows)
    log_b = loss_rows_to_csv(train(cfg, ds).loss_rows)

    result = train(cfg, ds)
    coords, masks = stack_arrays(ds)
    past = coords[:, :6]
    before = result.model.run_inference(past, masks, seed=809)
    path = tmp_path / "persist.ckpt"
    save_checkpoint(path, result.model, result.optimizer, epoch=2)
    restored = restore_model(load_checkpoint(path))
    after = restored.run_inference(past, masks, seed=809)

    logs_equal = log_a == log_b
    eval_equal = (np.array_equal(before[0], after[0])
                  and np.array_equal(before[1], after[1]))
    check(8, "determinism & persistence", logs_equal and eval_equal,
          f"rerun loss logs identical: {logs_equal}; "
          f"checkpoint round-trip evaluation bit-exact: {eval_equal}")


# ---------------------------------------------------------------------------
# criterion 9: copy-through and degenerate inputs


def test_criterion_9_copy_through_degenerate():
    cfg = ModelConfig(n_agents_max=4, d_embed=4, d_graph=4, d_hidden=8,
                      d_latent=4, ec_hidden=3, ec_pool=2, t_past=6, t_future=2,
                      seed=909, coord_center=(1.0, -1.0), coord_scale=7.0)
    model = TrajectoryModel(cfg)
    seqs = generate_sequences(3, 4, 6, 2, seed=909)
    coords = np.stack([s.coords for s in seqs])
    past = coords[:, :6]

    all_visible = np.ones((3, 6, 4))
    imputed, _ = model.run_inference(past, all_visible, seed=910)
    copy_ok = np.array_equal(imputed, past)
    i_l2_zero = metric_i_l2(imputed, past, all_visible, variant="all") == 0.0

    all_missing = np.zeros((3, 6, 4))
    imp2, pre2 = model.run_inference(past, all_missing, seed=911)
    degenerate_ok = np.isfinite(imp2).all() and np.isfinite(pre2).all()

    check(9, "copy-through & degenerate inputs",
          copy_ok and i_l2_zero and degenerate_ok,
          f"observed steps copied exactly ({copy_ok}), all-past I-L2 = 0 "
          f"({i_l2_zero}), all-missing run finite ({degenerate_ok})")
