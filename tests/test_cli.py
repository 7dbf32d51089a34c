import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trajvrnn import training
from trajvrnn.checkpoint import load_checkpoint, save_checkpoint
from trajvrnn.cli import TEST_SEED_OFFSET, main
from trajvrnn.config import load_config
from trajvrnn.data import (MaskingSpec, build_dataset, generate_sequences,
                           read_dataset, validate_dataset, write_dataset)
from trajvrnn.errors import NumericError
from trajvrnn.model import TrajectoryModel
from trajvrnn.optim import Adam
from trajvrnn.report import csv_to_reports
from trajvrnn.training import fit_normalization

TINY = """
# tiny end-to-end setup
n_agents_max=4
d_embed=4
d_graph=4
d_hidden=8
d_latent=4
ec_hidden=3
ec_pool=2
t_past=6
t_future=2
epochs=2
batch_size=4
checkpoint_every=1
gen_count=8
gen_n_agents=3
gen_modes=circle
gen_circle_radii=3.0,5.0,7.0
seed=5
"""


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return path


def write_cfg(tmp_path, extra, name="run.cfg"):
    path = tmp_path / name
    path.write_text(TINY + extra)
    return path


def test_gen_data_writes_grid(tiny_config, tmp_path):
    out = tmp_path / "data"
    assert main(["gen-data", "--config", str(tiny_config), "--out", str(out)]) == 0
    files = sorted(os.listdir(out))
    assert files == ["circle_3_train.trajset", "circle_5_train.trajset",
                     "circle_7_train.trajset", "manifest.txt"]
    ds = read_dataset(out / "circle_5_train.trajset")
    assert len(ds.sequences) == 8 and ds.spec.radius == 5.0


def test_gen_data_deterministic_bytes(tiny_config, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["gen-data", "--config", str(tiny_config), "--out", str(out_a)]) == 0
    assert main(["gen-data", "--config", str(tiny_config), "--out", str(out_b)]) == 0
    for name in os.listdir(out_a):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_gen_data_refuses_overwrite(tiny_config, tmp_path):
    out = tmp_path / "data"
    assert main(["gen-data", "--config", str(tiny_config), "--out", str(out)]) == 0
    assert main(["gen-data", "--config", str(tiny_config), "--out", str(out)]) == 1
    assert main(["gen-data", "--config", str(tiny_config), "--out", str(out),
                 "--force"]) == 0


def test_gen_data_empty_grid_is_config_error(tmp_path):
    cfg = write_cfg(tmp_path, "gen_circle_radii=\n")
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1


def test_gen_data_test_split_draws_its_own_pool(tiny_config, tmp_path):
    assert main(["gen-data", "--config", str(tiny_config),
                 "--out", str(tmp_path / "train")]) == 0
    cfg = write_cfg(tmp_path, "gen_split=test\n")
    out = tmp_path / "test"
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["circle_3_test.trajset", "circle_5_test.trajset",
                                       "circle_7_test.trajset", "manifest.txt"]
    assert (out / "manifest.txt").read_text().count("split=test") == 3
    test = read_dataset(out / "circle_5_test.trajset")
    train = read_dataset(tmp_path / "train" / "circle_5_train.trajset")
    assert test.split == "test" and train.split == "train"
    assert test.seed == train.seed + TEST_SEED_OFFSET
    expected = generate_sequences(8, 3, 6, 2, seed=5 + TEST_SEED_OFFSET)
    for seq, want, other in zip(test.sequences, expected, train.sequences):
        np.testing.assert_array_equal(seq.coords, want.coords)
        assert not np.array_equal(seq.coords, other.coords)


def test_gen_data_camera_grid_uses_configured_camera(tmp_path):
    cfg = write_cfg(tmp_path, "gen_modes=camera\ngen_camera_angles=15.0,40.0\n"
                              "gen_camera=4.0,-28.0\n")
    out = tmp_path / "data"
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["camera_15_train.trajset", "camera_40_train.trajset",
                                       "manifest.txt"]
    for angle in (15, 40):
        ds = read_dataset(out / f"camera_{angle}_train.trajset")
        assert ds.spec.mode == "camera" and ds.spec.angle == angle
        assert ds.spec.camera == (4.0, -28.0)
        validate_dataset(ds)


def test_unknown_config_key_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("epochss=3\n")
    assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("line", ["lr=nan", "coord_center=0.0,inf", "logvar_limit=-1.0",
                                  "out_dir=results", "lr=-1.0", "lr_decay=-2.0",
                                  "static_norm=literal", "inference_feedback=decoded",
                                  "gen_count=0", "gen_n_agents=0"])
def test_bad_config_value_exit_code(tmp_path, line):
    cfg = write_cfg(tmp_path, line + "\n")
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert not (tmp_path / "x").exists()


def test_export_plot_takes_no_config(tiny_config, tmp_path):
    assert main(["export-plot", "--config", str(tiny_config), "--data", "r.trajset",
                 "--out", str(tmp_path / "plots")]) == 1


def test_missing_dataset_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, "train_path=/nonexistent/file.trajset\n")
    code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2


def _gen_and_train(tmp_path, epochs=2, name="run.cfg", out="out"):
    data_dir = tmp_path / "data"
    cfg_gen = write_cfg(tmp_path, "", name="gen.cfg")
    assert main(["gen-data", "--config", str(cfg_gen), "--out", str(data_dir)]) == 0
    train_file = data_dir / "circle_5_train.trajset"
    cfg = write_cfg(tmp_path, f"train_path={train_file}\nepochs={epochs}\n", name=name)
    out_dir = tmp_path / out
    assert main(["train", "--config", str(cfg), "--out", str(out_dir)]) == 0
    return cfg, out_dir


def test_train_smoke_writes_artifacts(tmp_path):
    _, out_dir = _gen_and_train(tmp_path)
    files = sorted(os.listdir(out_dir))
    # 2 epochs with checkpoint_every=1: one periodic + the final checkpoint
    assert files == ["checkpoint_epoch_0001.ckpt", "checkpoint_final.ckpt",
                     "loss_log.csv"]
    log = (out_dir / "loss_log.csv").read_text()
    assert log.startswith("epoch,total,imputation,prediction\n")
    assert len(log.strip().split("\n")) == 3


def test_normalize_switch_sets_the_checkpoint_scaling(tmp_path):
    _, fitted = _gen_and_train(tmp_path, epochs=1, out="fitted")
    train_file = tmp_path / "data" / "circle_5_train.trajset"
    center, scale = fit_normalization(read_dataset(train_file))
    ck = load_checkpoint(fitted / "checkpoint_final.ckpt")
    assert (ck.config.coord_center, ck.config.coord_scale) == (center, scale)

    cfg = write_cfg(tmp_path, f"train_path={train_file}\nepochs=1\nnormalize=false\n"
                              "coord_center=1.5,-2.0\ncoord_scale=3.0\n", name="fixed.cfg")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "fixed")]) == 0
    ck = load_checkpoint(tmp_path / "fixed" / "checkpoint_final.ckpt")
    assert (ck.config.coord_center, ck.config.coord_scale) == ((1.5, -2.0), 3.0)


def test_optimizer_schedule_reaches_the_checkpoint(tmp_path):
    """2 epochs of 8 sequences in batches of 3 make 6 Adam steps, and the
    rate halves after each epoch."""
    data_dir = tmp_path / "data"
    assert main(["gen-data", "--config", str(write_cfg(tmp_path, "", name="gen.cfg")),
                 "--out", str(data_dir)]) == 0
    cfg = write_cfg(tmp_path, f"train_path={data_dir / 'circle_5_train.trajset'}\n"
                              "batch_size=3\nlr=0.004\nlr_decay=0.5\nlr_decay_every=1\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    ck = load_checkpoint(tmp_path / "out" / "checkpoint_final.ckpt")
    assert (ck.epoch, ck.adam_step) == (2, 6)
    assert ck.adam_lr == 0.004 * 0.25


def test_train_rerun_identical_loss_log(tmp_path):
    cfg, out_dir = _gen_and_train(tmp_path)
    first = (out_dir / "loss_log.csv").read_bytes()
    out2 = tmp_path / "out2"
    assert main(["train", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out2 / "loss_log.csv").read_bytes() == first


def test_resume_matches_uninterrupted_run(tmp_path):
    cfg4, out_straight = _gen_and_train(tmp_path, epochs=4, name="straight.cfg",
                                        out="straight")
    # same data, stop at 2, then resume to 4
    train_file = tmp_path / "data" / "circle_5_train.trajset"
    cfg2 = write_cfg(tmp_path, f"train_path={train_file}\nepochs=2\n", name="short.cfg")
    out_short = tmp_path / "short"
    assert main(["train", "--config", str(cfg2), "--out", str(out_short)]) == 0
    cfg_resume = write_cfg(tmp_path, f"train_path={train_file}\nepochs=4\n",
                           name="resume.cfg")
    assert main(["train", "--config", str(cfg_resume), "--out", str(out_short),
                 "--checkpoint", str(out_short / "checkpoint_final.ckpt")]) == 0

    assert (out_short / "loss_log.csv").read_bytes() == \
        (out_straight / "loss_log.csv").read_bytes()
    assert (out_straight / "checkpoint_final.ckpt").read_bytes() == \
        (out_short / "checkpoint_final.ckpt").read_bytes()


def _fail_in_epoch(monkeypatch, fail_epoch):
    """Make every train step of epoch `fail_epoch` raise NumericError."""
    epoch_now = {}
    noise_rng, train_step = training._noise_rng, TrajectoryModel.train_step

    def noise_rng_spy(seed, epoch, batch_idx):
        epoch_now["epoch"] = epoch
        return noise_rng(seed, epoch, batch_idx)

    def failing_step(self, *args, **kw):
        if epoch_now["epoch"] == fail_epoch:
            raise NumericError("injected non-finite loss")
        return train_step(self, *args, **kw)

    monkeypatch.setattr(training, "_noise_rng", noise_rng_spy)
    monkeypatch.setattr(TrajectoryModel, "train_step", failing_step)


def test_failed_run_keeps_its_loss_log_and_resume_completes_it(tmp_path, monkeypatch):
    """The log grows epoch by epoch: a NumericError in epoch 3 leaves
    epochs 1-2, and resuming from epoch 2 gives the uninterrupted log."""
    cfg4, out_straight = _gen_and_train(tmp_path, epochs=4, out="straight")
    straight = (out_straight / "loss_log.csv").read_bytes()
    _fail_in_epoch(monkeypatch, 3)
    out = tmp_path / "failed"
    assert main(["train", "--config", str(cfg4), "--out", str(out)]) == 3
    assert sorted(os.listdir(out)) == ["checkpoint_diagnostic.ckpt", "checkpoint_epoch_0001.ckpt",
                                       "checkpoint_epoch_0002.ckpt", "loss_log.csv"]
    log = (out / "loss_log.csv").read_bytes()
    assert log == b"".join(straight.splitlines(keepends=True)[:3])

    monkeypatch.undo()
    assert main(["train", "--config", str(cfg4), "--out", str(out),
                 "--checkpoint", str(out / "checkpoint_epoch_0002.ckpt")]) == 0
    assert (out / "loss_log.csv").read_bytes() == straight


def test_non_finite_gradient_leaves_a_finite_diagnostic_checkpoint(tmp_path, monkeypatch):
    """An inf gradient in epoch 2 stops `train` with exit 3 at Adam's
    check; the diagnostic checkpoint holds epoch 1's parameters and
    moments, every array finite and equal to the epoch-1 checkpoint's."""
    cfg, _ = _gen_and_train(tmp_path, epochs=3, out="warmup")
    step, calls = Adam.step, []

    def poisoned_step(self):
        calls.append(self.step_count)
        if len(calls) > 2:  # 8 sequences in batches of 4: the first step of epoch 2
            next(iter(self.params)).grad.flat[0] = np.inf
        return step(self)

    monkeypatch.setattr(Adam, "step", poisoned_step)
    out = tmp_path / "failed"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 3
    diagnostic = load_checkpoint(out / "checkpoint_diagnostic.ckpt")
    first = load_checkpoint(out / "checkpoint_epoch_0001.ckpt")
    assert diagnostic.epoch == 1 and diagnostic.adam_step == first.adam_step == calls[-1]
    assert all(np.isfinite(a).all() for a in diagnostic.arrays.values())
    assert diagnostic.arrays.keys() == first.arrays.keys()
    assert all(np.array_equal(diagnostic.arrays[k], first.arrays[k]) for k in first.arrays)


def test_resuming_a_finished_run_lists_each_epoch_once(tmp_path):
    cfg4, out = _gen_and_train(tmp_path, epochs=4)
    finished = (out / "loss_log.csv").read_bytes()
    assert main(["train", "--config", str(cfg4), "--out", str(out),
                 "--checkpoint", str(out / "checkpoint_epoch_0002.ckpt")]) == 0
    log = (out / "loss_log.csv").read_bytes()
    assert [row.split(b",")[0] for row in log.splitlines()[1:]] == [b"1", b"2", b"3", b"4"]
    assert log == finished


def test_eval_writes_reports_and_is_deterministic(tmp_path):
    cfg, out_dir = _gen_and_train(tmp_path)
    ck = out_dir / "checkpoint_final.ckpt"
    data = tmp_path / "data" / "circle_5_train.trajset"
    ev1, ev2 = tmp_path / "ev1", tmp_path / "ev2"
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(ck),
                 "--data", str(data), "--out", str(ev1)]) == 0
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(ck),
                 "--data", str(data), "--out", str(ev2)]) == 0
    csv1 = (ev1 / "report.csv").read_bytes()
    assert csv1 == (ev2 / "report.csv").read_bytes()
    reports = csv_to_reports(csv1.decode())
    methods = {r.method for r in reports}
    assert methods == {"mean", "median", "linear_fit", "model"}
    assert (ev1 / "report.txt").read_text().startswith("[all]")


def test_eval_defaults_to_test_path(tmp_path):
    cfg, out_dir = _gen_and_train(tmp_path)
    ck = out_dir / "checkpoint_final.ckpt"
    data = tmp_path / "data" / "circle_3_train.trajset"
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(ck),
                 "--data", str(data), "--out", str(tmp_path / "flag")]) == 0
    with_test_path = write_cfg(tmp_path, f"test_path={data}\n", name="eval.cfg")
    assert main(["eval", "--config", str(with_test_path), "--checkpoint", str(ck),
                 "--out", str(tmp_path / "key")]) == 0
    assert (tmp_path / "key" / "report.csv").read_bytes() == \
        (tmp_path / "flag" / "report.csv").read_bytes()
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(ck),
                 "--out", str(tmp_path / "none")]) == 1
    assert not (tmp_path / "none").exists()


def test_eval_bounds_agent_count_only_for_the_dl_branch(tmp_path):
    """n_agents_max sizes only the learned DL adjacency: without DL, a
    model trains on and evaluates more agents than that."""
    data_dir = tmp_path / "data"
    gen = write_cfg(tmp_path, "gen_n_agents=6\n", name="gen.cfg")
    assert main(["gen-data", "--config", str(gen), "--out", str(data_dir)]) == 0
    data = data_dir / "circle_5_train.trajset"
    no_dl = write_cfg(tmp_path, f"train_path={data}\nepochs=1\nuse_dl=false\n")
    assert main(["train", "--config", str(no_dl), "--out", str(tmp_path / "out")]) == 0
    assert main(["eval", "--config", str(no_dl), "--data", str(data), "--out",
                 str(tmp_path / "ev"), "--checkpoint",
                 str(tmp_path / "out" / "checkpoint_final.ckpt")]) == 0
    with_dl = tmp_path / "dl.ckpt"
    save_checkpoint(with_dl, TrajectoryModel(load_config(gen).model_config()))
    assert main(["eval", "--config", str(gen), "--checkpoint", str(with_dl),
                 "--data", str(data), "--out", str(tmp_path / "ev_dl")]) == 2


def test_eval_shape_mismatch_is_data_error(tmp_path):
    cfg, out_dir = _gen_and_train(tmp_path)
    ck = out_dir / "checkpoint_final.ckpt"
    seqs = generate_sequences(2, 3, 9, 3, seed=1)  # wrong windows
    ds = build_dataset(seqs, MaskingSpec(mode="circle", radius=5.0),
                       split="test", seed=1)
    bad = tmp_path / "bad.trajset"
    write_dataset(bad, ds)
    code = main(["eval", "--config", str(cfg), "--checkpoint", str(ck),
                 "--data", str(bad), "--out", str(tmp_path / "ev")])
    assert code == 2


def test_resume_shape_mismatch_is_data_error(tmp_path):
    """`train --checkpoint` checks the dataset against the restored model,
    not the run config: a T=6+2 checkpoint on a T=4+2 file fails as eval
    does, before any output is written."""
    _, out_dir = _gen_and_train(tmp_path)
    ck = out_dir / "checkpoint_final.ckpt"
    seqs = generate_sequences(8, 3, 4, 2, seed=1)  # the windows the config names
    ds = build_dataset(seqs, MaskingSpec(mode="circle", radius=5.0),
                       split="train", seed=1)
    bad = tmp_path / "bad.trajset"
    write_dataset(bad, ds)
    cfg = write_cfg(tmp_path, f"train_path={bad}\nepochs=3\nt_past=4\n", name="t4.cfg")
    code = main(["train", "--config", str(cfg), "--checkpoint", str(ck),
                 "--out", str(tmp_path / "resumed")])
    assert code == 2
    assert not (tmp_path / "resumed").exists()


def test_resume_past_epochs_is_config_error(tmp_path, capsys):
    """Resuming a 4-epoch checkpoint with epochs=2 would train nothing and
    label the epoch-4 state epoch 2: it exits 1 before any output."""
    _, out_dir = _gen_and_train(tmp_path, epochs=4)
    train_file = tmp_path / "data" / "circle_5_train.trajset"
    cfg = write_cfg(tmp_path, f"train_path={train_file}\nepochs=2\n", name="short.cfg")
    code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "resumed"),
                 "--checkpoint", str(out_dir / "checkpoint_final.ckpt")])
    assert code == 1
    assert "epoch 4, past epochs=2" in capsys.readouterr().err
    assert not (tmp_path / "resumed").exists()


def test_run_and_export_plot_roundtrip(tmp_path):
    cfg, out_dir = _gen_and_train(tmp_path)
    ck = out_dir / "checkpoint_final.ckpt"

    seqs = generate_sequences(1, 3, 6, 2, seed=11)
    ds = build_dataset(seqs, MaskingSpec(mode="circle", radius=5.0),
                       split="test", seed=11)
    single = tmp_path / "single.trajset"
    write_dataset(single, ds)

    run_out = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--checkpoint", str(ck),
                 "--data", str(single), "--out", str(run_out)]) == 0
    result = read_dataset(run_out / "result.trajset")
    assert result.results is not None
    imputed, predicted = result.results[0]
    mask3 = ds.masks[0][..., None] > 0
    np.testing.assert_array_equal(np.where(mask3, imputed, 0),
                                  np.where(mask3, seqs[0].past, 0))
    assert predicted.shape == (2, 3, 2)

    plot_out = tmp_path / "plots"
    assert main(["export-plot", "--data", str(run_out / "result.trajset"),
                 "--out", str(plot_out)]) == 0
    files = sorted(os.listdir(plot_out))
    assert len(files) == 2
    svg = (plot_out / files[1]).read_text()
    assert svg.count('<g class="agent"') == 3
    csv = (plot_out / files[0]).read_text().strip().split("\n")
    assert len(csv) == 1 + 8 * 3  # header + T*N rows
    missing_cells = int((ds.masks[0] == 0).sum())
    assert svg.count('class="missing"') == missing_cells


def test_run_rejects_multi_sequence_file(tmp_path):
    cfg, out_dir = _gen_and_train(tmp_path)
    ck = out_dir / "checkpoint_final.ckpt"
    code = main(["run", "--config", str(cfg), "--checkpoint", str(ck),
                 "--data", str(tmp_path / "data" / "circle_5_train.trajset"),
                 "--out", str(tmp_path / "runx")])
    assert code == 2


def test_export_plot_without_results_is_data_error(tmp_path):
    cfg = write_cfg(tmp_path, "")
    data_dir = tmp_path / "data"
    assert main(["gen-data", "--config", str(cfg), "--out", str(data_dir)]) == 0
    code = main(["export-plot", "--data", str(data_dir / "circle_5_train.trajset"),
                 "--out", str(tmp_path / "plots")])
    assert code == 2


def test_seed_override_changes_generation(tiny_config, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["gen-data", "--config", str(tiny_config), "--out", str(out_a)]) == 0
    assert main(["gen-data", "--config", str(tiny_config), "--seed", "99",
                 "--out", str(out_b)]) == 0
    assert (out_a / "circle_5_train.trajset").read_bytes() != \
        (out_b / "circle_5_train.trajset").read_bytes()


# (file, header substitutions, keep the payload)
MALFORMED = {
    "epoch": ("ckpt", [(r"^epoch=.*$", "epoch=x")], True),
    "epoch-negative": ("ckpt", [(r"^epoch=.*$", "epoch=-7")], True),
    "adam-step-negative": ("ckpt", [(r"^adam\.step=.*$", "adam.step=-1")], True),
    "adam-lr": ("ckpt", [(r"^adam\.lr=.*$", "adam.lr=x")], True),
    "adam-lr-negative": ("ckpt", [(r"^adam\.lr=.*$", "adam.lr=-0.5")], True),
    "adam-lr-nan": ("ckpt", [(r"^adam\.lr=.*$", "adam.lr=nan")], True),
    "adam-lr-inf": ("ckpt", [(r"^adam\.lr=.*$", "adam.lr=inf")], True),
    "ckpt-payload-bytes": ("ckpt", [(r"^payload_bytes=.*$", "payload_bytes=x")], True),
    "config-no-equals": ("ckpt", [(r"^config\.use_td=.*$", "config.use_td")], True),
    "tensor-shape": ("ckpt", [(r"^(tensor \S+ f8) \S+", r"\1 4xq")], True),
    "tensor-offset": ("ckpt", [(r"^(tensor \S+ f8 \S+) \d+$", r"\1 99999999")], True),
    "tensor-negative-dim": ("ckpt", [(r"^(tensor td\.weight f8) 1", r"\1 -1")], True),
    "config-bool": ("ckpt", [(r"^config\.use_td=.*$", "config.use_td=maybe")], True),
    "config-mode": ("ckpt", [(r"^config\.mode=.*$", "config.mode=jnt")], True),
    "config-size": ("ckpt", [(r"^config\.d_hidden=.*$", "config.d_hidden=-3")], True),
    "config-removed-key": ("ckpt", [(r"^(config\.lag_mode=.*)$",
                                     r"\1\nconfig.static_norm=symmetric")], True),
    "no-split": ("trajset", [(r"^split=.*\n", "")], True),
    "no-units": ("trajset", [(r"^units=.*\n", "")], True),
    "other-units": ("trajset", [(r"^units=.*$", "units=pixels")], True),
    "zero-count": ("trajset", [(r"^record .*\n", ""), (r"^count=.*$", "count=0"),
                               (r"^payload_bytes=.*$", "payload_bytes=0")], False),
    "radius": ("trajset", [(r"^radius=.*$", "radius=-1.0")], True),
    "radius-nan": ("trajset", [(r"^radius=.*$", "radius=nan")], True),
    "duplicate-seed": ("trajset", [(r"^(seed=.*)$", r"\1\n\1")], True),
    "duplicate-tensor": ("ckpt", [(r"^(tensor td\.weight .*)$", r"\1\n\1")], True),
    "config-seed": ("ckpt", [(r"^config\.seed=.*$", "config.seed=-3")], True),
    "config-huge": ("ckpt", [(r"^config\.d_hidden=.*$", "config.d_hidden=4000000000")], True),
    "config-scale-nan": ("ckpt", [(r"^config\.coord_scale=.*$", "config.coord_scale=nan")], True),
    "config-logvar-nan": ("ckpt", [(r"^config\.logvar_limit=.*$", "config.logvar_limit=nan")],
                          True),
    "config-logvar-zero": ("ckpt", [(r"^config\.logvar_limit=.*$", "config.logvar_limit=0.0")],
                           True),
    "config-center-inf": ("ckpt", [(r"^config\.coord_center=.*$", "config.coord_center=inf,0.0")],
                          True),
    "config-lr-nan": ("ckpt", [(r"^config\.lr=.*$", "config.lr=nan")], True),
    "config-lr-negative": ("ckpt", [(r"^config\.lr=.*$", "config.lr=-1.0")], True),
    "config-lr-decay-inf": ("ckpt", [(r"^config\.lr_decay=.*$", "config.lr_decay=inf")], True),
    "config-lambda-nan": ("ckpt", [(r"^config\.lambda_pre_kl=.*$", "config.lambda_pre_kl=nan")],
                          True),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_file_is_data_error(tiny_config, tmp_path, capsys, case):
    target, subs, keep_payload = MALFORMED[case]
    cfg = load_config(tiny_config)
    paths = {"ckpt": tmp_path / "model.ckpt", "trajset": tmp_path / "data.trajset"}
    save_checkpoint(paths["ckpt"], TrajectoryModel(cfg.model_config()))
    seqs = generate_sequences(2, 3, cfg.t_past, cfg.t_future, seed=1)
    write_dataset(paths["trajset"], build_dataset(seqs, MaskingSpec(mode="circle", radius=5.0),
                                                  split="test", seed=1))
    blob = paths[target].read_bytes()
    end = blob.index(b"\n", blob.index(b"\npayload_bytes=") + 1) + 1
    header = blob[:end].decode()
    for pattern, repl in subs:
        header = re.sub(pattern, repl, header, flags=re.M)
    assert header.encode() != blob[:end]
    paths[target].write_bytes(header.encode() + (blob[end:] if keep_payload else b""))
    code = main(["eval", "--config", str(tiny_config), "--checkpoint", str(paths["ckpt"]),
                 "--data", str(paths["trajset"]), "--out", str(tmp_path / "ev")])
    assert code == 2
    assert capsys.readouterr().err.startswith("data error:")


BLAS_THREADS = """
import ctypes, importlib, sys, tomllib
from pathlib import Path
if sys.argv[1] == "import":
    import trajvrnn
    trajvrnn.Adam
elif sys.argv[1] != "numpy":
    scripts = tomllib.loads(Path(sys.argv[1]).read_text())["project"]["scripts"]
    module, func = scripts["trajvrnn"].split(":")
    sys.argv[1:] = ["--help"]
    assert getattr(importlib.import_module(module), func)() == 0
import numpy as np
blas = ctypes.CDLL(str(next((Path(np.__file__).resolve().parent.parent / "numpy.libs")
                            .glob("*openblas*"))))
for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
    if hasattr(blas, sym):
        print(getattr(blas, sym)(), file=sys.stderr)
"""


def _blas_threads(env, pyproject):
    """The thread count the loaded OpenBLAS reports in a fresh process that
    ran the console entry point `pyproject` names (with --help), or did
    a plain `import trajvrnn` for "import", or only imported numpy for
    "numpy"."""
    root = Path(__file__).resolve().parents[1]
    clean = {k: v for k, v in os.environ.items()
             if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    done = subprocess.run([sys.executable, "-c", BLAS_THREADS, pyproject],
                          env={**clean, "PYTHONPATH": str(root / "src"), **env},
                          capture_output=True, text=True, timeout=60, check=True)
    return int(done.stderr.strip().splitlines()[-1])


@pytest.mark.skipif(not list((Path(np.__file__).resolve().parent.parent / "numpy.libs")
                             .glob("*openblas*")), reason="needs numpy's bundled OpenBLAS")
def test_console_entry_point_runs_on_one_blas_thread_by_default():
    """The `trajvrnn` command loads OpenBLAS with one thread when no BLAS
    thread variable is set and with the user's count when one is; a
    plain `import trajvrnn` leaves OpenBLAS the default a bare numpy
    import gets (every CPU, up to the library's build limit)."""
    pyproject = str(Path(__file__).resolve().parents[1] / "pyproject.toml")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert _blas_threads({}, pyproject) == 1
    assert _blas_threads({"OMP_NUM_THREADS": "2"}, pyproject) == min(2, cpus)
    assert _blas_threads({"OPENBLAS_NUM_THREADS": "2"}, pyproject) == min(2, cpus)
    assert _blas_threads({}, "import") == _blas_threads({}, "numpy")
