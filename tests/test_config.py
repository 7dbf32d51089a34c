from dataclasses import fields

import pytest

from trajvrnn.checkpoint import load_checkpoint, save_checkpoint
from trajvrnn.cli import main
from trajvrnn.config import RunConfig, format_config, parse_config
from trajvrnn.errors import ConfigError, DataError
from trajvrnn.model import TrajectoryModel


def test_defaults_follow_reported_setup():
    cfg = RunConfig()
    assert cfg.epochs == 200
    assert cfg.batch_size == 64
    assert cfg.lr == 0.001
    assert cfg.lr_decay == 0.9
    assert cfg.lr_decay_every == 20
    assert cfg.d_embed == 16 and cfg.d_graph == 16
    assert cfg.d_hidden == 256 and cfg.d_latent == 64
    assert cfg.t_past == 40 and cfg.t_future == 10


def test_parse_overrides_and_comments():
    cfg = parse_config("""
# toy setup
epochs=3
batch_size=8
use_td=false
mode=impute-only
gen_circle_radii=2.0,4.0
coord_center=1.0,-2.0
""")
    assert cfg.epochs == 3 and cfg.batch_size == 8
    assert cfg.use_td is False
    assert cfg.mode == "impute-only"
    assert cfg.gen_circle_radii == (2.0, 4.0)
    assert cfg.coord_center == (1.0, -2.0)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("use_tdd=true\n")
    assert "use_tdd" in str(err.value)


def test_malformed_line_rejected():
    with pytest.raises(ConfigError):
        parse_config("epochs 3\n")


def test_bad_value_rejected():
    with pytest.raises(ConfigError):
        parse_config("epochs=three\n")
    with pytest.raises(ConfigError):
        parse_config("use_td=maybe\n")


def test_mode_validation():
    with pytest.raises(ConfigError):
        parse_config("mode=everything\n")
    for split in ("validation", "both"):
        with pytest.raises(ConfigError):
            parse_config(f"gen_split={split}\n")


# Every RunConfig field at a valid non-default value. The graph branches
# cannot all be off at once, so the EC-only setup (no future window, hence
# impute-only) keeps use_ec on and a second config turns it off.
NON_DEFAULT = dict(
    n_agents_max=3, d_embed=5, d_graph=6, d_hidden=7, d_latent=3, ec_hidden=2,
    ec_pool=3, t_past=5, t_future=0, use_st=False, use_dl=False, use_ec=True,
    use_td=False, share_streams=False, mode="impute-only", coord_center=(1.5, -2.0 / 3.0),
    coord_scale=1.0 / 3.0, lr=3.5e-3, lr_decay=0.5, lr_decay_every=7, seed=11,
    train_path="data/circle_5_train.trajset", test_path="data/circle_5_test.trajset",
    epochs=7, batch_size=5, checkpoint_every=3, normalize=False, gen_count=9,
    gen_n_agents=4, gen_modes=("camera",), gen_circle_radii=(2.5,),
    gen_camera_angles=(12.5, 45.0), gen_camera=(3.0, -20.5), gen_split="test",
)
EC_OFF = dict(use_st=True, use_ec=False, t_future=2, mode="predict-only")


def every_field_configs():
    return [RunConfig(**NON_DEFAULT), RunConfig(**{**NON_DEFAULT, **EC_OFF})]


def test_format_parse_roundtrip():
    configs = every_field_configs()
    defaults = RunConfig()
    assert {f.name for f in fields(RunConfig)} == set(NON_DEFAULT)
    for name in NON_DEFAULT:
        assert any(getattr(cfg, name) != getattr(defaults, name) for cfg in configs), name
    for cfg in configs:
        assert parse_config(format_config(cfg)) == cfg


def test_model_config_survives_checkpoint(tmp_path):
    for k, cfg in enumerate(every_field_configs()):
        model_cfg = cfg.model_config()
        path = tmp_path / f"model_{k}.ckpt"
        save_checkpoint(path, TrajectoryModel(model_cfg))
        assert load_checkpoint(path).config == model_cfg


SMALL_MODEL = "d_embed=4\nd_graph=4\nd_hidden=8\nd_latent=4\nn_agents_max=4\nt_past=4\nt_future=2\n"


@pytest.mark.parametrize("key", ["lr_decay_every", "checkpoint_every"])
def test_negative_interval_is_a_config_error(key, tmp_path):
    """A negative interval is rejected, not run as "never" (exit 1 from a
    config); 0 stays valid and means never."""
    with pytest.raises(ConfigError, match=key):
        parse_config(f"{key}=-5\n")
    assert getattr(parse_config(f"{key}=0\n"), key) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"{key}=-3\n")
    assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("value,ok", [("-5", False), ("0", True)])
def test_checkpoint_lr_decay_every_must_not_be_negative(value, ok, tmp_path, capsys):
    """A .ckpt whose model config has a negative lr_decay_every is a data
    error (exit 2); 0 loads."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, TrajectoryModel(parse_config(SMALL_MODEL).model_config()))
    blob = path.read_bytes()
    edited = blob.replace(b"\nconfig.lr_decay_every=20\n",
                          b"\nconfig.lr_decay_every=" + value.encode() + b"\n", 1)
    assert edited != blob
    path.write_bytes(edited)
    if ok:
        assert load_checkpoint(path).config.lr_decay_every == 0
        return
    with pytest.raises(DataError, match="lr_decay_every"):
        load_checkpoint(path)
    assert main(["eval", "--checkpoint", str(path), "--data", str(tmp_path / "none.trajset"),
                 "--out", str(tmp_path / "ev")]) == 2
    assert capsys.readouterr().err.startswith("data error:")
