import numpy as np
import pytest

from trajvrnn.checkpoint import (load_checkpoint, restore_model,
                                 restore_optimizer, save_checkpoint)
from trajvrnn.errors import DataError
from trajvrnn.model import ModelConfig, TrajectoryModel
from trajvrnn.optim import Adam


def small_model(**kw):
    base = dict(n_agents_max=3, d_embed=4, d_graph=4, d_hidden=8, d_latent=4,
                ec_hidden=3, ec_pool=2, t_past=5, t_future=2, seed=3)
    base.update(kw)
    return TrajectoryModel(ModelConfig(**base))


def test_roundtrip_bit_exact(tmp_path):
    model = small_model(coord_center=(1.5, -2.25), coord_scale=3.5)
    opt = Adam(model.parameters(), lr=0.004)
    rng = np.random.default_rng(0)
    for p in model.parameters():
        p.grad = rng.normal(size=p.data.shape)
    opt.step()
    opt.epoch_tick(20)

    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, opt, epoch=20)
    ck = load_checkpoint(path)
    assert ck.epoch == 20 and ck.adam_step == 1
    assert ck.adam_lr == opt.lr
    assert ck.config == model.cfg

    restored = restore_model(ck)
    for name, p in model.params.items():
        assert np.array_equal(restored.params[name].data, p.data), name
    opt2 = restore_optimizer(ck, restored)
    for name in model.params:
        assert np.array_equal(opt2.m[name], opt.m[name])
        assert np.array_equal(opt2.v[name], opt.v[name])


def test_roundtrip_preserves_inference(tmp_path):
    model = small_model(seed=9)
    rng = np.random.default_rng(1)
    coords = rng.normal(size=(2, 5, 3, 2))
    mask = (rng.random((2, 5, 3)) > 0.4).astype(float)
    before = model.run_inference(coords, mask, seed=7)

    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, epoch=0)
    restored = restore_model(load_checkpoint(path))
    after = restored.run_inference(coords, mask, seed=7)
    assert np.array_equal(before[0], after[0])
    assert np.array_equal(before[1], after[1])


def test_ablation_flags_recorded(tmp_path):
    model = small_model(use_td=False, share_streams=False)
    path = tmp_path / "ablate.ckpt"
    save_checkpoint(path, model, epoch=0)
    text = path.read_bytes().split(b"payload_bytes=")[0].decode()
    assert "config.use_td=false" in text
    assert "config.share_streams=false" in text
    ck = load_checkpoint(path)
    assert ck.config.use_td is False and ck.config.share_streams is False
    # the unshared prediction cell made it into the manifest
    assert "rnn.pred.wz" in ck.arrays


def test_truncated_checkpoint_rejected(tmp_path):
    model = small_model()
    path = tmp_path / "trunc.ckpt"
    save_checkpoint(path, model, epoch=0)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_missing_parameter_rejected(tmp_path):
    model = small_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, epoch=0)
    ck = load_checkpoint(path)
    del ck.arrays["td.weight"]
    with pytest.raises(DataError):
        restore_model(ck)


def test_tensors_must_cover_the_payload(tmp_path):
    """With its last tensor row gone, the payload holds bytes no row
    names: the checkpoint does not load."""
    model = small_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, Adam(model.parameters(), lr=0.01))
    blob = path.read_bytes()
    at = blob.index(b"\npayload_bytes=")
    last = blob.rindex(b"\ntensor ", 0, at)
    path.write_bytes(blob[:last] + blob[at:])
    with pytest.raises(DataError, match="tensors end at byte"):
        load_checkpoint(path)
