"""The benchmark's four workloads, driven through the library's public API.

Each workload builds its inputs from the seed (`build`, repeated to time
set-up), runs untimed warm-up work, and then runs timed rounds in a closed
loop with one caller: the next call starts when the previous returns. A
round returns its timings; a failed output check raises `CheckFailed`.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter

import numpy as np

from trajvrnn import checkpoint as tv_ckpt
from trajvrnn import data as tv_data
from trajvrnn import report as tv_report
from trajvrnn.model import ModelConfig, TrajectoryModel
from trajvrnn.optim import Adam
from trajvrnn.training import fit_normalization

T_PAST, T_FUTURE = 40, 10
CIRCLE_5 = tv_data.MaskingSpec(mode="circle", radius=5.0)
CAMERA_20 = tv_data.MaskingSpec(mode="camera", angle=20.0)


class CheckFailed(Exception):
    """An output of the library did not match what the benchmark expects."""


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


def tail(samples):
    """Highest whole percentile with at least ten samples beyond it, as
    (percentile, value), or None for fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100 * (n - 10) // n, sorted(samples)[n - 11]


def make_batch(seed, count, n_agents, spec, split="train"):
    seqs = tv_data.generate_sequences(count, n_agents, T_PAST, T_FUTURE, seed)
    return tv_data.build_dataset(seqs, spec, split, seed)


def bit_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class Workload:
    """Common shape: `build()` -> state, then `round(state, counter)`,
    once untimed to warm up and then timed."""

    min_rounds = 1

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = work_dir

    def path(self, name):
        return os.path.join(self.work_dir, name)

    def warm_up(self, state, counter):
        counter.attempt(self.round, state, counter)


class Train(Workload):
    """Full train steps (forward, backward, Adam) on one fixed batch.

    Every step starts from the same parameters, so every step does the
    same work and must return a bit-identical loss; Adam's moments still
    advance as in training.
    """

    min_rounds = 3

    def __init__(self, seed, work_dir, model_kw, batch, n_agents, spec):
        super().__init__(seed, work_dir)
        self.model_kw, self.batch, self.n_agents, self.spec = model_kw, batch, n_agents, spec

    def build(self):
        ds = make_batch(self.seed, self.batch, self.n_agents, self.spec)
        center, scale = fit_normalization(ds)
        model = TrajectoryModel(ModelConfig(seed=self.seed, coord_center=center,
                                            coord_scale=scale, **self.model_kw))
        opt = Adam(model.parameters(), lr=model.cfg.lr)
        coords, masks = tv_data.stack_arrays(ds)
        noise = model.draw_noise(np.random.default_rng([self.seed, 1]),
                                 self.batch, self.n_agents)
        start = {name: p.data.copy() for name, p in model.params.items()}
        return {"model": model, "opt": opt, "coords": coords, "masks": masks,
                "noise": noise, "start": start, "loss": None,
                "missing": ds.missing_rate()}

    def round(self, state, counter):
        model = state["model"]
        for name, p in model.params.items():
            p.data[...] = state["start"][name]
        t0 = perf_counter()
        out = model.train_step(state["coords"], state["masks"], state["opt"],
                               noise=state["noise"])
        elapsed = perf_counter() - t0
        loss = out["total"]
        check(np.isfinite(loss), f"non-finite train loss {loss!r}")
        if state["loss"] is None:
            state["loss"] = loss
        check(loss == state["loss"], f"loss {loss!r} differs from the first "
                                     f"step's {state['loss']!r} on identical input")
        return {"step_s": elapsed, "seqs": self.batch, "loss": loss}

    def summary(self, state, rounds):
        steps = [r["step_s"] for r in rounds]
        p50 = statistics.median(steps)
        seq_per_s = sum(r["seqs"] for r in rounds) / sum(steps)
        lines = [("train_seq_per_s", seq_per_s, "seq/s", ""),
                 ("train_step_p50_s", p50, "s", f"n={len(steps)}"),
                 ("loss_last", rounds[-1]["loss"], "nats", "total ELBO"),
                 ("mask_missing_frac", state["missing"], "ratio", "")]
        return {"seq_per_s": seq_per_s, "op_p50_s": p50}, lines


class InferEval(Workload):
    """The `eval` path on a 256-sequence test file, then single-sequence
    `run_inference` calls, the shape of the `run` verb."""

    n_test = 256
    single_calls = 48

    def build(self):
        model = TrajectoryModel(ModelConfig(seed=self.seed))
        ckpt = self.path("model.ckpt")
        tv_ckpt.save_checkpoint(ckpt, model)
        ds = make_batch(self.seed, self.n_test, 10, CAMERA_20, split="test")
        trajset = self.path("test.trajset")
        tv_data.write_dataset(trajset, ds)
        return {"ckpt": ckpt, "trajset": trajset, "next_seq": 0, "reports": None,
                "missing": ds.missing_rate()}

    def warm_up(self, state, counter):
        """One small batch and one single sequence through a restored model;
        a full eval pass is no slower the first time."""
        def warm():
            model = tv_ckpt.restore_model(tv_ckpt.load_checkpoint(state["ckpt"]))
            ds = tv_data.read_dataset(state["trajset"])
            coords, masks = tv_data.stack_arrays(ds)
            model.run_inference(coords[:8, :T_PAST], masks[:8], seed=self.seed)
            model.run_inference(coords[0, :T_PAST], masks[0], seed=self.seed)
        counter.attempt(warm)

    def eval_path(self, state):
        model = tv_ckpt.restore_model(tv_ckpt.load_checkpoint(state["ckpt"]))
        ds = tv_data.read_dataset(state["trajset"])
        methods = tv_report.baseline_infer_fns(ds.t_future)
        infer = tv_report.model_infer_fn(model, seed=self.seed)
        outputs = []

        def model_fn(past, masks):
            imputed, predicted = infer(past, masks)
            outputs.append((past, masks, imputed, predicted))
            return imputed, predicted

        methods["model"] = model_fn
        reports = tv_report.evaluate_methods(ds, methods)
        csv = tv_report.reports_to_csv(reports)
        return model, ds, reports, csv, outputs

    def round(self, state, counter):
        t0 = perf_counter()
        model, ds, reports, csv, outputs = self.eval_path(state)
        eval_s = perf_counter() - t0
        for past, masks, imputed, predicted in outputs:
            check_inference(past, masks, imputed, predicted)
        check(csv.count("\n") == 1 + len(reports), "report CSV has the wrong row count")
        if state["reports"] is None:
            state["reports"] = reports
        check(reports == state["reports"], "eval reports differ between rounds")
        model_rows = {r.variant: r for r in reports if r.method == "model"}

        def run_one(seq, mask):
            t0 = perf_counter()
            imputed, predicted = model.run_inference(seq.past, mask, seed=self.seed)
            elapsed = perf_counter() - t0
            check_inference(seq.past, mask, imputed, predicted)
            return elapsed

        single = []
        for _ in range(self.single_calls):
            i = state["next_seq"] % len(ds.sequences)
            state["next_seq"] += 1
            elapsed = counter.attempt(run_one, ds.sequences[i], ds.masks[i])
            if elapsed is not None:
                single.append(elapsed)
        return {"eval_s": eval_s, "seqs": len(ds.sequences), "single_s": single,
                "i_l2_missing": model_rows["missing-only"].i_l2,
                "p_l2": model_rows["all"].p_l2}

    def summary(self, state, rounds):
        eval_s = [r["eval_s"] for r in rounds]
        seq_per_s = sum(r["seqs"] for r in rounds) / sum(eval_s)
        pass_p50 = statistics.median(eval_s)
        single = [s for r in rounds for s in r["single_s"]]
        lines = [("eval_seq_per_s", seq_per_s, "seq/s", f"passes={len(rounds)}"),
                 ("eval_pass_p50_s", pass_p50, "s", f"n={len(rounds)}"),
                 ("run_latency_p50_s", statistics.median(single), "s", f"n={len(single)}")]
        t = tail(single)
        lines.append(("run_latency_tail_s", t[1] if t else float("nan"), "s",
                      f"p{t[0]:g} n={len(single)}" if t else
                      f"n={len(single)} too few for a tail"))
        lines += [("i_l2_missing", rounds[-1]["i_l2_missing"], "scene", "untrained model"),
                  ("p_l2", rounds[-1]["p_l2"], "scene", "untrained model"),
                  ("mask_missing_frac", state["missing"], "ratio", "")]
        # single-call latency is printed, not returned: on a shared 2-vCPU VM
        # its run medians moved 1.6x between runs of the same code
        return {"seq_per_s": seq_per_s, "op_p50_s": pass_p50}, lines


def check_inference(past, mask, imputed, predicted):
    past, mask = np.asarray(past), np.asarray(mask)
    check(np.isfinite(imputed).all() and np.isfinite(predicted).all(),
          "inference produced non-finite output")
    seen = mask > 0
    check(bit_equal(imputed[seen], past[seen]),
          "inference did not copy observed positions through")


class DataIO(Workload):
    """Simulate and mask a batch of scenes, then round-trip both scenario
    files and the reference model's checkpoint with its Adam moments."""

    gen_count = 64
    min_rounds = 5

    def build(self):
        model = TrajectoryModel(ModelConfig(seed=self.seed))
        opt = Adam(model.parameters(), lr=model.cfg.lr)
        rng = np.random.default_rng([self.seed, 2])
        moments = {k: rng.standard_normal(v.shape) for k, v in opt.state_arrays().items()}
        opt.load_state(moments, step_count=7, lr=opt.lr)
        return {"model": model, "opt": opt, "round": 0}

    def round(self, state, counter):
        round_seed = self.seed * 1_000_003 + state["round"]
        state["round"] += 1
        t0 = perf_counter()
        seqs = tv_data.generate_sequences(self.gen_count, 10, T_PAST, T_FUTURE, round_seed)
        datasets = [tv_data.build_dataset(seqs, spec, "test", round_seed)
                    for spec in (CIRCLE_5, CAMERA_20)]
        gen_s = perf_counter() - t0

        model, opt = state["model"], state["opt"]
        paths = [self.path(f"scene{i}.trajset") for i in range(len(datasets))]
        ckpt = self.path("model.ckpt")
        t0 = perf_counter()
        for path, ds in zip(paths, datasets):
            tv_data.write_dataset(path, ds)
        loaded = [tv_data.read_dataset(path) for path in paths]
        for ds in loaded:
            tv_data.validate_dataset(ds)
        tv_ckpt.save_checkpoint(ckpt, model, opt, epoch=state["round"])
        ck = tv_ckpt.load_checkpoint(ckpt)
        file_s = perf_counter() - t0

        nbytes = sum(os.path.getsize(p) for p in paths + [ckpt])
        for ds, back in zip(datasets, loaded):
            check(len(back.sequences) == len(ds.sequences), ".trajset lost records")
            for s, m, s2, m2 in zip(ds.sequences, ds.masks, back.sequences, back.masks):
                check(bit_equal(s.coords, s2.coords)
                      and bit_equal(s.reference_track, s2.reference_track)
                      and bit_equal(m, m2.astype(m.dtype)), ".trajset round trip not bit-exact")
        saved = {name: p.data for name, p in model.params.items()}
        saved.update(opt.state_arrays())
        check(ck.arrays.keys() == saved.keys()
              and all(bit_equal(ck.arrays[k], v) for k, v in saved.items()),
              ".ckpt round trip not bit-exact")
        return {"gen_s": gen_s, "seqs": self.gen_count, "file_s": file_s,
                "bytes": 2 * nbytes}

    def summary(self, state, rounds):
        gen_s = sum(r["gen_s"] for r in rounds)
        seq_per_s = sum(r["seqs"] for r in rounds) / gen_s
        file_s = [r["file_s"] for r in rounds]
        p50 = statistics.median(file_s)
        mb_per_s = sum(r["bytes"] for r in rounds) / 1e6 / sum(file_s)
        lines = [("gen_seq_per_s", seq_per_s, "seq/s", f"rounds={len(rounds)}"),
                 ("io_mb_per_s", mb_per_s, "MB/s", "bytes written plus read"),
                 ("io_round_p50_s", p50, "s", f"n={len(file_s)}")]
        return {"seq_per_s": seq_per_s, "op_p50_s": p50}, lines


REF = {"d_hidden": 256, "d_latent": 64, "d_embed": 16, "d_graph": 16}
DESK = {"d_hidden": 64, "d_latent": 16, "d_embed": 16, "d_graph": 16}

WORKLOADS = {
    "train-ref": lambda seed, d: Train(seed, d, REF, batch=64, n_agents=10, spec=CIRCLE_5),
    "train-desk": lambda seed, d: Train(seed, d, DESK, batch=16, n_agents=16, spec=CAMERA_20),
    "infer-eval": InferEval,
    "data-io": DataIO,
}
