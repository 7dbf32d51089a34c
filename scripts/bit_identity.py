"""Print digests of everything a behaviour-preserving refactor must keep
bit-identical: gen-data's circle and camera .trajset bytes, the circle and
camera .trajset bytes of a 300-sequence pool at N=10, T=40+10 (more scenes
than the simulator integrates in one block), the coordinates and reference
tracks of a 64-sequence pool at N=64 and its circle and camera masks, the
I-L2 (all and missing-only) and P-L2 metrics of a random batch and a digest
of its per-cell distances (a pooled mean absorbs a last-bit change in one
distance, so each cell also goes through `metric_p_l2` alone), the losses of
several train steps, every parameter's gradient after one backward,
batched and single-sequence run_inference outputs of the untrained and
the trained model, the .ckpt bytes, the bytes of a load_checkpoint ->
save_checkpoint round trip of that .ckpt, eval's report.csv / report.txt
and the result.trajset that `run` writes, all for the default config. The
losses, gradients and inference outputs are also printed for the switches
lag_mode=previous, share_streams=false, use_td=false, mode=impute-only and
mode=predict-only. Last come the reference-shape lines: the default
ModelConfig (H=256, Z=64) on 64 sequences at N=10, T=40+10, with its
batched run_inference outputs, then one train step's losses and the
gradients it left. Only at such shapes do `gru` and `linear` carry
enough multiply-adds to spread their rows over CPUs and to queue their
weight gradients on a worker, so the last line repeats the gradient
digest from a step on one CPU: in one run on one checkout it must equal
the line before it.

The untrained digests and the step-0 losses depend on the forward pass
alone; the later losses and the trained digests also carry any low-bit
gradient drift through the Adam updates, so the two kinds of change
show apart.

Run it against two checkouts and compare the output:

    PYTHONPATH=<checkout>/src python scripts/bit_identity.py > digests.txt

`--dump DIR` also saves the arrays behind the loss, gradient, parameter
and inference digests to DIR/arrays.npz; `--compare A B` then prints,
for every array that differs between two such dumps, its max-norm
relative drift max|a - b| / max|a| and how many entries differ, then a
summary line with the largest drift and the array it belongs to:

    PYTHONPATH=<old>/src python scripts/bit_identity.py --dump old
    PYTHONPATH=<new>/src python scripts/bit_identity.py --dump new
    PYTHONPATH=<new>/src python scripts/bit_identity.py --compare old new
"""

import argparse
import contextlib
import hashlib
import io
import os
import tempfile

# one BLAS thread before numpy loads, so that `gru` and `linear` may split
# their rows at the reference shape (they do not on top of BLAS threads);
# every digest is the same at any BLAS thread count
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from trajvrnn import autodiff
from trajvrnn.autodiff import backward
from trajvrnn.checkpoint import (load_checkpoint, restore_model,
                                 restore_optimizer, save_checkpoint)
from trajvrnn.cli import main
from trajvrnn.config import format_config, parse_config
from trajvrnn.baselines import metric_i_l2, metric_p_l2
from trajvrnn.data import (MaskingSpec, apply_camera_mask, apply_circle_mask, build_dataset,
                           generate_sequences, read_dataset, stack_arrays, stack_past,
                           write_dataset)
from trajvrnn.model import ModelConfig, TrajectoryModel
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


def grad_digest(model, coords, masks, rng, arrays, tag) -> str:
    """Digest of every parameter's gradient after one backward."""
    model.zero_grad()
    noise = model.draw_noise(rng, coords.shape[0], coords.shape[2])
    backward(model.training_losses(coords, masks, noise)["total"])
    for name, p in model.params.items():
        arrays[f"{tag} grad {name}"] = p.grad.copy()
    return digest(b"".join(name.encode() + p.grad.tobytes()
                           for name, p in model.params.items()))


def print_inference(tag, model, coords, masks, t_past, arrays):
    past = coords[:, :t_past]
    for kind, args, seed in (("infer_batch", (past, masks), 2),
                             ("infer_single", (past[0], masks[0]), 3)):
        imputed, predicted = model.run_inference(*args, seed=seed)
        arrays[f"{tag} {kind} imputed"] = imputed
        arrays[f"{tag} {kind} predicted"] = predicted
        print(tag, kind, digest(imputed.tobytes() + predicted.tobytes()))


def train_and_infer(tag, cfg, coords, masks, arrays):
    """Print the untrained model's run_inference digests, the losses of 4
    train steps, the gradient digest after one more backward and the
    trained run_inference digests, recording the arrays behind them and
    the trained parameters in `arrays`; returns model, optimizer."""
    model = TrajectoryModel(cfg.model_config())
    print_inference(tag + " untrained", model, coords, masks, cfg.t_past, arrays)
    opt = Adam(model.parameters(), lr=0.01)
    rng = np.random.default_rng(1)
    for step in range(4):
        losses = model.train_step(coords, masks, opt, rng=rng)
        for k, v in losses.items():
            arrays[f"{tag} step {step} {k}"] = np.float64(v)
        print(tag, "step", step, " ".join(f"{k}={v!r}" for k, v in sorted(losses.items())))
    for name, p in model.params.items():
        arrays[f"{tag} param {name}"] = p.data.copy()
    print(tag, "grads", grad_digest(model, coords, masks, rng, arrays, tag))
    print_inference(tag, model, coords, masks, cfg.t_past, arrays)
    return model, opt


def run_cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0


def check(work, arrays):
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
    pool = generate_sequences(300, 10, 40, 10, seed=7)
    pool_path = os.path.join(work, "pool.trajset")
    for spec in (MaskingSpec(mode="circle", radius=5.0),
                 MaskingSpec(mode="camera", angle=20.0)):
        write_dataset(pool_path, build_dataset(pool, spec, "train", 7))
        print("trajset pool300", spec.mode, file_digest(pool_path))
    wide = generate_sequences(64, 64, 40, 10, seed=8)
    print("pool64 N=64", digest(b"".join(s.coords.tobytes() + s.reference_track.tobytes()
                                         for s in wide)))
    past, ref = stack_past(wide)
    print("pool64 N=64 masks", digest(apply_circle_mask(past, ref, 5.0).tobytes()),
          digest(apply_camera_mask(past, ref, 20.0).tobytes()))
    rng = np.random.default_rng(9)
    estimate, truth = rng.normal(scale=10.0, size=(2, 256, 40, 10, 2))
    mask = (rng.random((256, 40, 10)) < 0.6).astype(np.float64)
    print("metrics", repr(metric_i_l2(estimate, truth)),
          repr(metric_i_l2(estimate, truth, mask, variant="missing-only")),
          repr(metric_p_l2(estimate, truth)))
    cells = [metric_p_l2(e, t) for e, t in zip(estimate.reshape(-1, 1, 2),
                                                 truth.reshape(-1, 1, 2))]
    print("metrics per cell", digest(np.array(cells).tobytes()))

    tag = "default"
    cfg = parse_config(CONFIG)
    model, opt = train_and_infer(tag, cfg, coords, masks, arrays)
    ck = os.path.join(work, "default.ckpt")
    save_checkpoint(ck, model, opt, epoch=4)
    print(tag, "ckpt", file_digest(ck))
    stored = load_checkpoint(ck)
    restored = restore_model(stored)
    again = os.path.join(work, "again.ckpt")
    save_checkpoint(again, restored, restore_optimizer(stored, restored), epoch=stored.epoch)
    print(tag, "ckpt round trip", file_digest(again))
    run_cfg = os.path.join(work, "run.cfg")
    with open(run_cfg, "w") as fh:
        fh.write(format_config(cfg))
    out = os.path.join(work, "eval")
    run_cli("eval", "--config", run_cfg, "--checkpoint", ck, "--data", data_path, "--out", out)
    print(tag, "report.csv", file_digest(os.path.join(out, "report.csv")),
          "report.txt", file_digest(os.path.join(out, "report.txt")))
    out = os.path.join(work, "run")
    run_cli("run", "--config", run_cfg, "--checkpoint", ck, "--data", single_path, "--out", out)
    print(tag, "result.trajset", file_digest(os.path.join(out, "result.trajset")))

    for variant in VARIANTS:
        train_and_infer(variant, parse_config(CONFIG + variant + "\n"), coords, masks,
                        arrays)
    reference_shape(arrays)


def reference_shape(arrays):
    """Print the default model's batched run_inference digest over 64
    circle-masked sequences at N=10, then one train step's losses and
    gradient digest on them, then that gradient digest again from a step
    on one CPU: no row block and no queued weight gradient."""
    tag = "reference B=64 N=10"
    cfg = ModelConfig()
    pool = generate_sequences(64, 10, cfg.t_past, cfg.t_future, seed=11)
    coords, masks = stack_arrays(build_dataset(pool, MaskingSpec(mode="circle", radius=5.0),
                                               "train", 11))
    model = TrajectoryModel(cfg)
    imputed, predicted = model.run_inference(coords[:, :cfg.t_past], masks, seed=2)
    arrays[f"{tag} infer_batch imputed"] = imputed
    arrays[f"{tag} infer_batch predicted"] = predicted
    print(tag, "infer_batch", digest(imputed.tobytes() + predicted.tobytes()))
    losses, grads = reference_step(model, coords, masks)
    for k, v in losses.items():
        arrays[f"{tag} step 0 {k}"] = np.float64(v)
    print(tag, "step 0", " ".join(f"{k}={v!r}" for k, v in sorted(losses.items())))
    for name, p in model.params.items():
        arrays[f"{tag} grad {name}"] = p.grad.copy()
    print(tag, "grads", grads)
    cpus, autodiff._CPUS = autodiff._CPUS, 1
    try:
        print(tag, "grads on one CPU", reference_step(TrajectoryModel(cfg), coords, masks)[1])
    finally:
        autodiff._CPUS = cpus


def reference_step(model, coords, masks):
    """One train step's losses and the digest of the gradients it left."""
    losses = model.train_step(coords, masks, Adam(model.parameters()),
                              rng=np.random.default_rng(1))
    return losses, digest(b"".join(name.encode() + p.grad.tobytes()
                                   for name, p in model.params.items()))


def compare(dir_a, dir_b):
    """Print each array that differs between two dumps with its max-norm
    relative drift and its count of differing entries."""
    with np.load(os.path.join(dir_a, "arrays.npz")) as za, \
            np.load(os.path.join(dir_b, "arrays.npz")) as zb:
        a, b = dict(za), dict(zb)
    differ = 0
    worst = (0.0, None)
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            print(f"{key}: only in {dir_a if key in a else dir_b}")
        elif a[key].shape != b[key].shape:
            print(f"{key}: shape {a[key].shape} vs {b[key].shape}")
        elif a[key].tobytes() != b[key].tobytes():
            diff = np.abs(a[key] - b[key])
            drift = diff.max() / max(np.abs(a[key]).max(), np.finfo(np.float64).tiny)
            if worst[1] is None or drift > worst[0]:
                worst = (drift, key)
            print(f"{key}: drift {drift:.3g}, {np.count_nonzero(a[key] != b[key])} "
                  f"of {a[key].size} entries differ")
        else:
            continue
        differ += 1
    largest = f", largest drift {worst[0]:.3g} in {worst[1]}" if worst[1] else ""
    print(f"{differ} of {len(a.keys() | b.keys())} arrays differ{largest}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--dump", metavar="DIR",
                       help="also save the arrays behind the digests to DIR/arrays.npz")
    group.add_argument("--compare", nargs=2, metavar=("A", "B"),
                       help="compare two --dump directories instead of running")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
    else:
        arrays = {}
        with tempfile.TemporaryDirectory() as work:
            check(work, arrays)
        if args.dump:
            os.makedirs(args.dump, exist_ok=True)
            np.savez(os.path.join(args.dump, "arrays.npz"), **arrays)
