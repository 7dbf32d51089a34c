"""Print digests of everything a behaviour-preserving refactor must keep
bit-identical: gen-data's circle and camera .trajset bytes, the losses of
several train steps, every parameter's gradient after one backward,
batched and single-sequence run_inference outputs of the untrained and
the trained model, the .ckpt bytes, the bytes of a load_checkpoint ->
save_checkpoint round trip of that .ckpt, eval's report.csv / report.txt
and the result.trajset that `run` writes, for every inference_feedback x
static_norm combination. The losses, gradients and inference outputs are
also printed for the switches lag_mode=previous, share_streams=false,
use_td=false, mode=impute-only and mode=predict-only.

The untrained digests and the step-0 losses depend on the forward pass
alone; the later losses and the trained digests also carry any low-bit
gradient drift through the Adam updates, so the two kinds of change
show apart.

Run it against two checkouts and compare the output:

    PYTHONPATH=<checkout>/src python scripts/bit_identity.py > digests.txt
"""

import contextlib
import hashlib
import io
import os
import tempfile

import numpy as np

from trajvrnn.autodiff import backward
from trajvrnn.checkpoint import (load_checkpoint, restore_model,
                                 restore_optimizer, save_checkpoint)
from trajvrnn.cli import main
from trajvrnn.config import format_config, parse_config
from trajvrnn.data import read_dataset, stack_arrays, write_dataset
from trajvrnn.model import TrajectoryModel
from trajvrnn.optim import Adam

CONFIG = """\
d_embed=8
d_graph=8
d_hidden=16
d_latent=8
ec_hidden=4
ec_pool=2
n_agents_max=6
t_past=8
t_future=3
coord_scale=10.0
gen_count=12
gen_n_agents=5
gen_modes=circle,camera
gen_circle_radii=5.0
gen_camera_angles=20.0
seed=0
"""

VARIANTS = ("lag_mode=previous", "share_streams=false", "use_td=false",
            "mode=impute-only", "mode=predict-only")


def digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()[:16]


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return digest(fh.read())


def grad_digest(model, coords, masks, rng) -> str:
    """Digest of every parameter's gradient after one backward."""
    model.zero_grad()
    noise = model.draw_noise(rng, coords.shape[0], coords.shape[2])
    backward(model.training_losses(coords, masks, noise)["total"])
    return digest(b"".join(name.encode() + p.grad.tobytes()
                           for name, p in model.params.items()))


def print_inference(tag, model, coords, masks, t_past):
    past = coords[:, :t_past]
    imputed, predicted = model.run_inference(past, masks, seed=2)
    print(tag, "infer_batch", digest(imputed.tobytes() + predicted.tobytes()))
    imputed, predicted = model.run_inference(past[0], masks[0], seed=3)
    print(tag, "infer_single", digest(imputed.tobytes() + predicted.tobytes()))


def train_and_infer(tag, cfg, coords, masks):
    """Print the untrained model's run_inference digests, the losses of 4
    train steps, the gradient digest after one more backward and the
    trained run_inference digests; returns model, optimizer."""
    model = TrajectoryModel(cfg.model_config())
    print_inference(tag + " untrained", model, coords, masks, cfg.t_past)
    opt = Adam(model.parameters(), lr=0.01)
    rng = np.random.default_rng(1)
    for step in range(4):
        losses = model.train_step(coords, masks, opt, rng=rng)
        print(tag, "step", step, " ".join(f"{k}={v!r}" for k, v in sorted(losses.items())))
    print(tag, "grads", grad_digest(model, coords, masks, rng))
    print_inference(tag, model, coords, masks, cfg.t_past)
    return model, opt


def run_cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0


def check(work):
    cfg_path = os.path.join(work, "base.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(CONFIG)
    run_cli("gen-data", "--config", cfg_path, "--out", os.path.join(work, "data"))
    data_path = os.path.join(work, "data", "circle_5_train.trajset")
    print("trajset", file_digest(data_path))
    camera_path = os.path.join(work, "data", "camera_20_train.trajset")
    print("trajset camera", file_digest(camera_path))
    single_path = os.path.join(work, "single.trajset")
    single = read_dataset(camera_path)
    i = next(i for i, mask in enumerate(single.masks) if (mask == 0).any())
    single.sequences, single.masks = single.sequences[i:i + 1], single.masks[i:i + 1]
    write_dataset(single_path, single)
    coords, masks = stack_arrays(read_dataset(data_path))

    for feedback in ("zero", "decoded"):
        for norm in ("symmetric", "literal"):
            tag = f"{feedback}/{norm}"
            cfg = parse_config(CONFIG + f"inference_feedback={feedback}\nstatic_norm={norm}\n")
            model, opt = train_and_infer(tag, cfg, coords, masks)

            ck = os.path.join(work, f"{feedback}_{norm}.ckpt")
            save_checkpoint(ck, model, opt, epoch=4)
            print(tag, "ckpt", file_digest(ck))
            stored = load_checkpoint(ck)
            restored = restore_model(stored)
            again = os.path.join(work, f"{feedback}_{norm}_again.ckpt")
            save_checkpoint(again, restored, restore_optimizer(stored, restored),
                            epoch=stored.epoch)
            print(tag, "ckpt round trip", file_digest(again))
            run_cfg = os.path.join(work, f"{feedback}_{norm}.cfg")
            with open(run_cfg, "w") as fh:
                fh.write(format_config(cfg))
            out = os.path.join(work, f"eval_{feedback}_{norm}")
            run_cli("eval", "--config", run_cfg, "--checkpoint", ck,
                    "--data", data_path, "--out", out)
            print(tag, "report.csv", file_digest(os.path.join(out, "report.csv")),
                  "report.txt", file_digest(os.path.join(out, "report.txt")))
            out = os.path.join(work, f"run_{feedback}_{norm}")
            run_cli("run", "--config", run_cfg, "--checkpoint", ck,
                    "--data", single_path, "--out", out)
            print(tag, "result.trajset", file_digest(os.path.join(out, "result.trajset")))

    for variant in VARIANTS:
        train_and_infer(variant, parse_config(CONFIG + variant + "\n"), coords, masks)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        check(work)
