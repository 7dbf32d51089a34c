"""Multi-agent trajectory imputation and prediction.

A graph-conditioned variational RNN with temporal decay over missing
observations, built on a self-contained reverse-mode autodiff core, plus
a synthetic benchmark generator, classical baselines, and metrics.
"""

from .autodiff import Parameter, Tensor, backward, no_grad
from .baselines import (impute_linear_fit, impute_mean, impute_median,
                        metric_i_l2, metric_p_l2, predict_constant_velocity)
from .checkpoint import load_checkpoint, restore_model, save_checkpoint
from .config import RunConfig, load_config, parse_config
from .data import (Dataset, DynamicsParams, MaskingSpec, TrajectorySequence,
                   apply_camera_mask, apply_circle_mask, build_dataset,
                   generate_sequences, read_dataset, write_dataset)
from .errors import (CapacityError, ConfigError, DataError, NumericError,
                     ShapeError, TrajvrnnError)
from .model import (LatentDistribution, ModelConfig, TrajectoryModel, bigauss_nll,
                    gauss_kl, sample_latent, temporal_decay, temporal_lags)
from .optim import Adam
from .report import MetricReport, evaluate_methods, report_table, reports_to_csv
from .training import train

__version__ = "0.1.0"
