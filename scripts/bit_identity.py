"""Print digests of everything a behaviour-preserving refactor must keep
bit-identical: gen-data's circle and camera .trajset bytes, the losses of
several train steps, batched and single-sequence run_inference outputs,
the .ckpt bytes, the bytes of a load_checkpoint -> save_checkpoint round
trip of that .ckpt, eval's report.csv / report.txt and the result.trajset
that `run` writes, for every inference_feedback x static_norm
combination.

Run it against two checkouts and compare the output:

    PYTHONPATH=<checkout>/src python scripts/bit_identity.py > digests.txt
"""

import contextlib
import hashlib
import io
import os
import tempfile

import numpy as np

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


def digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()[:16]


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return digest(fh.read())


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
            model = TrajectoryModel(cfg.model_config())
            opt = Adam(model.parameters(), lr=0.01)
            rng = np.random.default_rng(1)
            for step in range(4):
                losses = model.train_step(coords, masks, opt, rng=rng)
                print(tag, "step", step, " ".join(f"{k}={v!r}" for k, v in sorted(losses.items())))
            past = coords[:, :cfg.t_past]
            imputed, predicted = model.run_inference(past, masks, seed=2)
            print(tag, "infer_batch", digest(imputed.tobytes() + predicted.tobytes()))
            imputed, predicted = model.run_inference(past[0], masks[0], seed=3)
            print(tag, "infer_single", digest(imputed.tobytes() + predicted.tobytes()))

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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        check(work)
