"""Metric reports, the text comparison table, and its CSV form.

CSV columns are fixed: method, mode, parameter, variant, i_l2, p_l2,
n_sequences. Ordering is bit-stable: methods alphabetical, scenarios by
(mode, parameter), variants alphabetical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import (impute_linear_fit, impute_mean, impute_median,
                        metric_i_l2, metric_p_l2, predict_constant_velocity)
from .data import Dataset, stack_arrays
from .errors import ConfigError

CSV_HEADER = "method,mode,parameter,variant,i_l2,p_l2,n_sequences"

VARIANTS = ("all", "missing-only")


@dataclass(frozen=True)
class MetricReport:
    method: str
    mode: str
    parameter: float
    variant: str
    i_l2: float
    p_l2: float
    n_sequences: int

    @property
    def scenario(self):
        return (self.mode, self.parameter)


def _sort_key(r: MetricReport):
    return (r.variant, r.method, r.mode, r.parameter)


def reports_to_csv(reports) -> str:
    lines = [CSV_HEADER]
    for r in sorted(reports, key=_sort_key):
        lines.append(f"{r.method},{r.mode},{r.parameter!r},{r.variant},"
                     f"{r.i_l2!r},{r.p_l2!r},{r.n_sequences}")
    return "\n".join(lines) + "\n"


def csv_to_reports(text) -> list:
    lines = [ln for ln in text.strip().split("\n") if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError("unrecognised report CSV header")
    out = []
    for ln in lines[1:]:
        method, mode, parameter, variant, i_l2, p_l2, n_seq = ln.split(",")
        out.append(MetricReport(method=method, mode=mode, parameter=float(parameter),
                                variant=variant, i_l2=float(i_l2), p_l2=float(p_l2),
                                n_sequences=int(n_seq)))
    return out


def report_table(reports) -> str:
    """Aligned text table: one row per method, one I-L2/P-L2 column pair
    per scenario, one section per metric variant."""
    reports = list(reports)
    if not reports:
        raise ConfigError("no reports to tabulate")

    scenarios = sorted({r.scenario for r in reports})
    methods = sorted({r.method for r in reports})
    variants = sorted({r.variant for r in reports})
    by_key = {(r.variant, r.method, r.scenario): r for r in reports}

    def scenario_label(s):
        mode, parameter = s
        return f"{mode} {parameter:g}"

    name_w = max(len(m) for m in methods + ["method"]) + 2
    col_w = max(12, max(len(scenario_label(s)) for s in scenarios) + 2)
    lines = []
    for variant in variants:
        lines.append(f"[{variant}] (units: scene)")
        header = "method".ljust(name_w) + "".join(
            scenario_label(s).center(2 * col_w) for s in scenarios)
        sub = " " * name_w + ("I-L2".center(col_w) + "P-L2".center(col_w)) * len(scenarios)
        lines += [header, sub, "-" * len(sub)]
        for m in methods:
            row = m.ljust(name_w)
            for s in scenarios:
                r = by_key.get((variant, m, s))
                if r is None:
                    row += "-".center(col_w) * 2
                else:
                    row += f"{r.i_l2:.4f}".center(col_w) + f"{r.p_l2:.4f}".center(col_w)
            lines.append(row)
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


# ---------------------------------------------------------------------------
# dataset-level evaluation


def baseline_infer_fns(t_future):
    """Batched (past, mask) -> (imputed, predicted) for each baseline.
    Prediction is constant-velocity extrapolation of the imputed past."""
    imputers = {"mean": impute_mean, "median": impute_median,
                "linear_fit": impute_linear_fit}

    def make(imputer):
        def infer(past_batch, mask_batch):
            imputed = np.stack([imputer(p, m)
                                for p, m in zip(past_batch, mask_batch)])
            predicted = np.stack([predict_constant_velocity(p, t_future)
                                  for p in imputed])
            return imputed, predicted
        return infer

    return {name: make(fn) for name, fn in imputers.items()}


def model_infer_fn(model, seed=0):
    def infer(past_batch, mask_batch):
        return model.run_inference(past_batch, mask_batch, seed=seed)
    return infer


def evaluate_methods(dataset: Dataset, methods: dict) -> list:
    """Run every method on the dataset and report both metric variants."""
    coords, masks = stack_arrays(dataset)
    past = coords[:, : dataset.t_past]
    future = coords[:, dataset.t_past:]
    reports = []
    for name in sorted(methods):
        imputed, predicted = methods[name](past, masks)
        p_l2 = metric_p_l2(predicted, future) if dataset.t_future > 0 else 0.0
        for variant in VARIANTS:
            reports.append(MetricReport(
                method=name, mode=dataset.spec.mode,
                parameter=dataset.spec.parameter, variant=variant,
                i_l2=metric_i_l2(imputed, past, masks, variant=variant),
                p_l2=p_l2, n_sequences=len(dataset.sequences)))
    return reports
