"""Desk-scale lab for single-positive multi-label learning.

Gradient-calibrated two-stage training with dual-EMA pseudo-labels,
assume-negative baseline losses, single-positive noise simulators, a
multi-label metric suite, and a Monte Carlo oracle for the noisy-metric
relations.
"""

from .data import MultiLabelDataset, SyntheticSpec, generate_synthetic, ingest_csv
from .ema import (
    DualEmaState,
    ema_update_predictions,
    ema_update_weights,
    init_dual_ema,
    make_pseudo_labels,
)
from .losses import (
    LossValue,
    loss_adagc,
    loss_an,
    loss_an_ls,
    loss_epr,
    loss_iun,
    loss_wan,
    reg_elr_mcc,
    reg_gc,
    reg_gc_binary,
)
from .metrics import (
    MetricReport,
    MonteCarloConfig,
    average_precision,
    compute_metric_report,
    coverage,
    estimate_proposition_bounds,
    mean_average_precision,
    monte_carlo_proposition_check,
    noisy_metric_transform,
    ranking_loss,
    thresholded_metrics,
)
from .net import Mlp, make_rng, sigmoid, softmax
from .noise import (
    FlipRateTable,
    compute_flip_rates,
    simulate_dominant_spml,
    simulate_random_spml,
)
from .training import (
    DetectorState,
    EpochLog,
    TrainConfig,
    Trainer,
    detect_early_learning,
    evaluate,
    mixup_batch,
    train,
)

__version__ = "0.1.0"
