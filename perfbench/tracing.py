"""The traced run: spans around the library's public callables, a walk of
the autodiff tape, and the per-layer split computed from both.

Nothing here edits the library. `Tracer.wrap` replaces an attribute on
the module or class where the caller looks it up, and `Tracer.close`
puts every original back. Spans stay in memory as
[name, start, end, parent index, step] lists until the run ends.
"""

from __future__ import annotations

import functools
import os
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

from trajvrnn import checkpoint as tv_ckpt
from trajvrnn import data as tv_data
from trajvrnn import model as tv_model
from trajvrnn import report as tv_report
from trajvrnn.graph import SpatialEncoder
from trajvrnn.optim import Adam

# op kinds counted by name in the tape walk
COUNTED_OPS = ("matmul", "add", "mul", "getitem", "concat", "tanh", "sub")

# per-layer metric -> (span names summed, field), field 0 total, 1 self, 2 calls
SPAN_METRICS = {
    "autodiff.backward_s": (["autodiff.backward"], 0),
    "graph.encoder_s": (["graph.encoder"], 0),
    "graph.encoder_calls": (["graph.encoder"], 2),
    "graph.st_s": (["graph.st"], 0),
    "graph.dl_s": (["graph.dl"], 0),
    "graph.ec_s": (["graph.ec"], 0),
    "graph.edge_weights_s": (["graph.edge_weights"], 0),
    "model.forward_s": (["model.forward"], 0),
    "model.forward_self_s": (["model.forward"], 1),
    "model.gru_s": (["model.gru"], 0),
    "model.gru_calls": (["model.gru"], 2),
    "model.prior_s": (["model.prior"], 0),
    "model.posterior_s": (["model.posterior"], 0),
    "model.decoder_s": (["model.decoder"], 0),
    "model.zfeat_s": (["model.zfeat"], 0),
    "model.decay_s": (["model.decay"], 0),
    "model.nll_s": (["model.nll"], 0),
    "model.kl_s": (["model.kl"], 0),
    "model.infer_batch_s": (["model.infer_batch"], 0),
    "model.infer_single_s": (["model.infer_single"], 0),
    "optim.adam_s": (["optim.adam"], 0),
    "training.step_s": (["training.step"], 0),
    "data.gen_s": (["data.gen"], 0),
    "data.mask_s": (["data.mask"], 0),
    "data.write_s": (["data.write"], 0),
    "data.read_s": (["data.read"], 0),
    "data.validate_s": (["data.validate"], 0),
    "checkpoint.save_s": (["checkpoint.save"], 0),
    "checkpoint.load_s": (["checkpoint.load"], 0),
    "checkpoint.restore_s": (["checkpoint.restore"], 0),
    "baselines.mean_s": (["baselines.mean"], 0),
    "baselines.median_s": (["baselines.median"], 0),
    "baselines.linear_fit_s": (["baselines.linear_fit"], 0),
    "baselines.cv_s": (["baselines.cv"], 0),
    "baselines.metrics_s": (["baselines.metric_i_l2", "baselines.metric_p_l2"], 0),
    "report.evaluate_s": (["report.evaluate"], 0),
    "report.model_s": (["report.model"], 0),
    "report.csv_s": (["report.csv"], 0),
}

# per-layer metric -> counter name and scale; counters are summed per step
COUNT_METRICS = {
    "autodiff.tape_nodes": ("tape.nodes", 1),
    **{f"autodiff.nodes.{op}": (f"tape.{op}", 1) for op in COUNTED_OPS},
    "autodiff.tape_mb": ("tape.bytes", 1e-6),
    "autodiff.matmul_gflop": ("tape.flop", 1e-9),
    "data.bytes": ("data.bytes", 1),
    "checkpoint.bytes": ("checkpoint.bytes", 1),
}

# span names start with their layer; "bench" and "trace" spans are the
# benchmark's own time in a round
LAYERS = ("autodiff", "graph", "model", "optim", "training", "data", "checkpoint",
          "baselines", "report")
SELF_METRICS = tuple(f"{layer}.self_s" for layer in LAYERS)

TRACE_METRICS = ("trace.gap_s", "trace.overhead_s", "trace.overhead_frac")


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return {"autodiff.tape_mb": "MB", "autodiff.matmul_gflop": "GFLOP",
            "data.bytes": "B", "checkpoint.bytes": "B"}.get(name, "count")


UNITS = {name: _unit(name)
         for name in [*SPAN_METRICS, *COUNT_METRICS, *SELF_METRICS, *TRACE_METRICS]}


class Tracer:
    """Spans and per-step counters of one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self.step = None
        self._stack = []
        self._restore = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.step])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx):
        self.spans[idx][2] = perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def count(self, name, value):
        self.counts[self.step][name] += value

    def spanned(self, fn, name, before=None, after=None):
        """`fn` inside a span. `name` is a span name or a function of the
        call's arguments returning one; `before` and `after` run outside
        the span on the call's arguments."""
        @functools.wraps(fn)
        def call(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = self.open(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
                if after is not None:
                    after(*args, **kwargs)
        return call

    def replace(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def wrap(self, owner, attr, name, before=None, after=None):
        self.replace(owner, attr, self.spanned(getattr(owner, attr), name, before, after))

    def close(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def per_step(self):
        """{step: {span name: [total, self, calls]}}. Self time is a span's
        duration minus the durations of its direct children."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
        for idx, (name, start, end, _, step) in enumerate(self.spans):
            acc = out[step][name]
            acc[0] += end - start
            acc[1] += end - start - child_time[idx]
            acc[2] += 1
        return out


def walk_tape(root):
    """Count the tape behind `root` using only .parents, .op and .data.

    The nodes counted are the ones `backward` visits: those recorded with
    parents, and parameter leaves. Returns node count, per-op counts,
    bytes held by their arrays and the floating-point operations of the
    matmuls.
    """
    seen = {id(root)}
    stack = [root]
    out = {"nodes": 0, "bytes": 0, "flop": 0, **dict.fromkeys(COUNTED_OPS, 0)}
    while stack:
        node = stack.pop()
        if node.parents or node.op == "parameter":
            out["nodes"] += 1
            out["bytes"] += node.data.nbytes
            if node.op in out:
                out[node.op] += 1
            if node.op == "matmul":
                k = node.parents[0].data.shape[-1]
                out["flop"] += 2 * node.data.size * k
        for parent in node.parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return out


def install(tracer):
    """Span every public callable the per-layer table names."""
    def count_tape(root):
        idx = tracer.open("trace.tape_walk")
        for key, value in walk_tape(root).items():
            tracer.count(f"tape.{key}", value)
        tracer.end(idx)

    def file_bytes(counter):
        return lambda path, *a, **k: tracer.count(counter, os.path.getsize(path))

    def infer_name(self, coords_past, *a, **k):
        return "model.infer_single" if np.ndim(coords_past) == 3 else "model.infer_batch"

    model_cls = tv_model.TrajectoryModel
    tracer.wrap(tv_model, "backward", "autodiff.backward", before=count_tape)
    for attr, name in (("forward", "graph.encoder"), ("st_branch", "graph.st"),
                       ("dl_branch", "graph.dl"), ("ec_branch", "graph.ec"),
                       ("edge_weight_matrices", "graph.edge_weights")):
        tracer.wrap(SpatialEncoder, attr, name)
    for attr, name in (("training_losses", "model.forward"),
                       ("prior_params", "model.prior"),
                       ("posterior_params", "model.posterior"),
                       ("decode_imputation", "model.decoder"),
                       ("decode_prediction", "model.decoder"),
                       ("zfeat_past", "model.zfeat"), ("zfeat_future", "model.zfeat"),
                       ("temporal_decay", "model.decay"),
                       ("train_step", "training.step")):
        tracer.wrap(model_cls, attr, name)
    tracer.wrap(model_cls, "run_inference", infer_name)
    for attr, name in (("gru_step", "model.gru"), ("bigauss_nll", "model.nll"),
                       ("gauss_kl", "model.kl")):
        tracer.wrap(tv_model, attr, name)
    tracer.wrap(Adam, "step", "optim.adam")
    tracer.wrap(tv_data, "generate_sequences", "data.gen")
    tracer.wrap(tv_data, "build_dataset", "data.mask")
    tracer.wrap(tv_data, "write_dataset", "data.write", after=file_bytes("data.bytes"))
    tracer.wrap(tv_data, "read_dataset", "data.read", after=file_bytes("data.bytes"))
    tracer.wrap(tv_data, "validate_dataset", "data.validate")
    tracer.wrap(tv_ckpt, "save_checkpoint", "checkpoint.save",
                after=file_bytes("checkpoint.bytes"))
    tracer.wrap(tv_ckpt, "load_checkpoint", "checkpoint.load",
                after=file_bytes("checkpoint.bytes"))
    tracer.wrap(tv_ckpt, "restore_model", "checkpoint.restore")
    for attr, name in (("impute_mean", "baselines.mean"),
                       ("impute_median", "baselines.median"),
                       ("impute_linear_fit", "baselines.linear_fit"),
                       ("predict_constant_velocity", "baselines.cv"),
                       ("metric_i_l2", "baselines.metric_i_l2"),
                       ("metric_p_l2", "baselines.metric_p_l2"),
                       ("evaluate_methods", "report.evaluate"),
                       ("reports_to_csv", "report.csv")):
        tracer.wrap(tv_report, attr, name)
    model_infer_fn = tv_report.model_infer_fn
    tracer.replace(tv_report, "model_infer_fn", lambda *a, **k: tracer.spanned(
        model_infer_fn(*a, **k), "report.model"))


def traced_run(wl, state, seconds, counter, run_round):
    """Untraced and traced rounds alternate, so both see the same machine,
    until `seconds` have passed and each kind ran `wl.min_rounds` times;
    returns the per-layer metrics and report lines."""
    tracer = Tracer()
    untraced, traced = [], []
    start = perf_counter()
    i = 0
    while i < 2 * wl.min_rounds or perf_counter() - start < seconds:
        if i % 2 == 0:
            result = run_round(wl, state, counter, None, i)
            if result is not None:
                untraced.append(result)
        else:
            install(tracer)
            try:
                result = run_round(wl, state, counter, tracer, i)
            finally:
                tracer.close()
            if result is not None:
                traced.append(result)
        i += 1
    if not traced or not untraced:
        raise SystemExit("perfbench: no successful traced or untraced round")

    per_step = tracer.per_step()
    steps = [i for i, _, _ in traced]

    metrics = {}
    for metric, (names, field) in SPAN_METRICS.items():
        metrics[metric] = statistics.median(
            sum(per_step[s][n][field] for n in names if n in per_step[s]) for s in steps)
    for metric, (key, scale) in COUNT_METRICS.items():
        values = [tracer.counts[s].get(key, 0) for s in steps]
        metrics[metric] = statistics.median(values) * scale
        if key.startswith("tape.") and len(set(values)) > 1:
            counter.attempted += 1
            counter.failed += 1
            counter.errors.append(f"CheckFailed: {key} differs between steps: {values}")

    # each round's time splits into layer self times plus the benchmark's gap
    walls = {i: wall for i, wall, _ in traced}
    split = {s: defaultdict(float) for s in steps}
    for s in steps:
        for name, acc in per_step[s].items():
            layer = name.split(".", 1)[0]
            split[s][layer if layer in LAYERS else "gap"] += acc[1]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = statistics.median(split[s][layer] for s in steps)
    metrics["trace.gap_s"] = statistics.median(split[s]["gap"] for s in steps)
    traced_wall = statistics.median(w for _, w, _ in traced)
    untraced_wall = statistics.median(w for _, w, _ in untraced)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    self_sums = [sum(split[s].values()) / walls[s] for s in steps]
    negative = [name for s in steps for name, acc in per_step[s].items() if acc[1] < -1e-6]
    if negative or any(abs(f - 1.0) > 0.10 for f in self_sums):
        counter.attempted += 1
        counter.failed += 1
        counter.errors.append(f"CheckFailed: self times do not split the round: "
                              f"sums/wall {self_sums}, negative {negative}")

    lines = [("rounds", len(untraced), "count", "untraced"),
             ("rounds", len(traced), "count", "traced")]
    lines += [(name, value, UNITS[name], "") for name, value in metrics.items()]
    lines.append(("trace.self_sum_frac", statistics.median(self_sums), "ratio",
                  "layer self times plus gap over round wall time"))
    return metrics, lines
