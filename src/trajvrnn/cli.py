"""Command-line verbs, which `trajvrnn.__main__` starts.

Verbs: gen-data, train, eval, run, export-plot. Exit codes: 0 success,
1 usage/config error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .checkpoint import load_checkpoint, restore_model
from .config import RunConfig, load_config
from .data import (MaskingSpec, build_dataset, generate_sequences,
                   read_dataset, write_dataset)
from .errors import ConfigError, DataError, NumericError, TrajvrnnError
from .plotting import render_svg, result_points_csv
from .report import (baseline_infer_fns, evaluate_methods, model_infer_fn,
                     report_table, reports_to_csv)
from .training import check_compatible, train

TEST_SEED_OFFSET = 10_000_019


def _scenario_specs(config: RunConfig):
    specs = []
    for mode in config.gen_modes:
        grid = config.gen_circle_radii if mode == "circle" else config.gen_camera_angles
        for value in grid:
            if mode == "circle":
                specs.append(MaskingSpec(mode="circle", radius=value))
            else:
                specs.append(MaskingSpec(mode="camera", angle=value,
                                         camera=config.gen_camera))
    if not specs:
        raise ConfigError("empty scenario grid: no modes/parameters configured")
    return specs


def _scenario_filename(spec: MaskingSpec, split: str) -> str:
    return f"{spec.mode}_{spec.parameter:g}_{split}.trajset"


def cmd_gen_data(config: RunConfig, out_dir, force=False) -> list:
    """One dataset file per (mode, parameter) scenario, plus a manifest.
    One generated pool is masked per scenario: from `seed` for the train
    split, from `seed + TEST_SEED_OFFSET` for the test split. Every output
    path is checked before the first file is written."""
    specs = _scenario_specs(config)
    split = config.gen_split
    paths = [os.path.join(out_dir, _scenario_filename(spec, split)) for spec in specs]
    repeated = sorted({path for path in paths if paths.count(path) > 1})
    if repeated:
        raise ConfigError(f"the scenario grid names {', '.join(repeated)} more than once")
    manifest_path = os.path.join(out_dir, "manifest.txt")
    existing = [path for path in paths + [manifest_path] if os.path.exists(path)]
    if existing and not force:
        raise ConfigError(f"already exists: {', '.join(existing)}; pass --force to overwrite")

    seed = config.seed + (TEST_SEED_OFFSET if split == "test" else 0)
    seqs = generate_sequences(config.gen_count, config.gen_n_agents,
                              config.t_past, config.t_future, seed)
    os.makedirs(out_dir, exist_ok=True)
    manifest = []
    for spec, path in zip(specs, paths):
        ds = build_dataset(seqs, spec, split=split, seed=seed)
        write_dataset(path, ds)
        manifest.append(f"mode={spec.mode} parameter={spec.parameter:g} "
                        f"split={split} missing_rate={ds.missing_rate():.4f} "
                        f"file={os.path.basename(path)}")
    with open(manifest_path, "w", encoding="ascii") as fh:
        fh.write("\n".join(manifest) + "\n")
    return paths


def cmd_train(config: RunConfig, out_dir, resume=None, log_stream=None):
    dataset = read_dataset(config.train_path)
    return train(config, dataset, out_dir=out_dir, resume=resume,
                 log_fn=(lambda row: print(
                     f"epoch {row['epoch']:4d}  total {row['total']:.4f}  "
                     f"imp {row['imputation']:.4f}  pre {row['prediction']:.4f}",
                     file=log_stream)) if log_stream else None)


def cmd_eval(config: RunConfig, checkpoint_path, data_path, out_dir):
    model = restore_model(load_checkpoint(checkpoint_path))
    ds = read_dataset(data_path)
    check_compatible(model, ds)
    methods = baseline_infer_fns(ds.t_future)
    methods["model"] = model_infer_fn(model, seed=config.seed)
    reports = evaluate_methods(ds, methods)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "report.csv")
    with open(csv_path, "w", encoding="ascii") as fh:
        fh.write(reports_to_csv(reports))
    table = report_table(reports)
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="ascii") as fh:
        fh.write(table)
    return reports, table


def cmd_run(config: RunConfig, checkpoint_path, data_path, out_path):
    model = restore_model(load_checkpoint(checkpoint_path))
    ds = read_dataset(data_path)
    if len(ds.sequences) != 1:
        raise DataError(f"run expects exactly one sequence, got {len(ds.sequences)}")
    check_compatible(model, ds)
    seq, mask = ds.sequences[0], ds.masks[0]
    imputed, predicted = model.run_inference(seq.past, mask, seed=config.seed)
    ds.results = [(imputed, predicted)]
    write_dataset(out_path, ds)
    return out_path


def cmd_export_plot(data_path, out_dir):
    ds = read_dataset(data_path)
    if ds.results is None:
        raise DataError(f"{data_path} has no results section; run `trajvrnn run` first")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.splitext(os.path.basename(data_path))[0]
    written = []
    for seq, mask, (imputed, predicted) in zip(ds.sequences, ds.masks, ds.results):
        svg_path = os.path.join(out_dir, f"{stem}_{seq.id}.svg")
        csv_path = os.path.join(out_dir, f"{stem}_{seq.id}.csv")
        with open(svg_path, "w", encoding="ascii") as fh:
            fh.write(render_svg(mask, imputed, predicted))
        with open(csv_path, "w", encoding="ascii") as fh:
            fh.write(result_points_csv(mask, imputed, predicted))
        written += [svg_path, csv_path]
    return written


# ---------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(prog="trajvrnn",
                                     description="multi-agent trajectory "
                                                 "imputation and prediction")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=False, data=False, out_default="out"):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", default=out_default, help="output directory")
        if checkpoint:
            p.add_argument("--checkpoint", required=True, help="checkpoint file")
        if data:
            p.add_argument("--data", help="dataset file")

    p = sub.add_parser("gen-data", help="generate scenario dataset files")
    common(p)
    p.add_argument("--force", action="store_true", help="overwrite existing files")

    p = sub.add_parser("train", help="train a model")
    common(p)
    p.add_argument("--checkpoint", help="resume from this checkpoint")

    p = sub.add_parser("eval", help="evaluate a checkpoint against baselines")
    common(p, checkpoint=True, data=True)

    p = sub.add_parser("run", help="impute + predict one sequence file")
    common(p, checkpoint=True, data=True)

    p = sub.add_parser("export-plot", help="render a result file to SVG + CSV")
    p.add_argument("--data", help="result file")
    p.add_argument("--out", default="out", help="output directory")

    return parser


def _load_run_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    return config


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        if args.command == "gen-data":
            config = _load_run_config(args)
            written = cmd_gen_data(config, args.out, force=args.force)
            print(f"wrote {len(written)} dataset files to {args.out}")
        elif args.command == "train":
            config = _load_run_config(args)
            result = cmd_train(config, args.out, resume=args.checkpoint,
                               log_stream=sys.stdout)
            print(f"final checkpoint: {result.final_path}")
        elif args.command == "eval":
            config = _load_run_config(args)
            data_path = args.data or config.test_path
            if not data_path:
                raise ConfigError("eval needs --data or test_path in the config")
            _, table = cmd_eval(config, args.checkpoint, data_path, args.out)
            print(table)
        elif args.command == "run":
            config = _load_run_config(args)
            if not args.data:
                raise ConfigError("run needs --data pointing at a one-sequence file")
            out_path = os.path.join(args.out, "result.trajset")
            os.makedirs(args.out, exist_ok=True)
            cmd_run(config, args.checkpoint, args.data, out_path)
            print(f"wrote {out_path}")
        elif args.command == "export-plot":
            if not args.data:
                raise ConfigError("export-plot needs --data pointing at a result file")
            written = cmd_export_plot(args.data, args.out)
            print(f"wrote {', '.join(os.path.basename(w) for w in written)}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except TrajvrnnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
