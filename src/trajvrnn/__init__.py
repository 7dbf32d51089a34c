"""Multi-agent trajectory imputation and prediction.

A graph-conditioned variational RNN with temporal decay over missing
observations, built on a self-contained reverse-mode autodiff core, plus
a synthetic benchmark generator, classical baselines, and metrics. Each
name below loads its module on first use, so `import trajvrnn` loads no
numpy and the `trajvrnn` command sets the BLAS threads first (`__main__`).
"""

from importlib import import_module

_HOME = {name: module for module, names in (
    ("autodiff", "Parameter Tensor backward no_grad"),
    ("baselines", "impute_linear_fit impute_mean impute_median metric_i_l2 metric_p_l2 "
                  "predict_constant_velocity"),
    ("checkpoint", "load_checkpoint restore_model save_checkpoint"),
    ("config", "RunConfig load_config parse_config"),
    ("data", "Dataset DynamicsParams MaskingSpec TrajectorySequence apply_camera_mask "
             "apply_circle_mask build_dataset generate_sequences read_dataset write_dataset"),
    ("errors", "CapacityError ConfigError DataError NumericError ShapeError TrajvrnnError"),
    ("model", "LatentDistribution ModelConfig TrajectoryModel bigauss_nll gauss_kl "
              "sample_latent temporal_decay temporal_lags"),
    ("optim", "Adam"),
    ("report", "MetricReport evaluate_methods report_table reports_to_csv"),
    ("training", "train"),
) for name in names.split()}
__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)
