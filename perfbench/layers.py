"""Which spmlab functions the traced run wraps, and the per-layer metrics.

Each layer is one module of the package. A function is wrapped at every
module attribute that holds it (``spmlab.training.sigmoid`` as well as
``spmlab.net.sigmoid``), because callers look functions up in their own
module's namespace. A name that no longer exists is skipped and listed in
the run context, so a later refactor degrades a metric to 0 rather than
breaking the benchmark.
"""

from __future__ import annotations

import math
import os

from tracing import RunSpans, Tracer, median, ratio

# (home module, attribute, span name); each span feeds a per-layer metric
FUNCTIONS = [
    ("net", "as_matrix", "net.as_matrix"),
    ("net", "sigmoid", "net.sigmoid"),
    ("losses", "loss_an", "losses.loss_an"),
    ("losses", "loss_an_ls", "losses.loss_an_ls"),
    ("losses", "loss_wan", "losses.loss_wan"),
    ("losses", "loss_epr", "losses.loss_epr"),
    ("losses", "loss_iun", "losses.loss_iun"),
    ("losses", "loss_adagc", "losses.loss_adagc"),
    ("losses", "reg_gc", "losses.reg_gc"),
    ("losses", "reg_gc_binary", "losses.reg_gc_binary"),
    ("losses", "reg_elr_mcc", "losses.reg_elr_mcc"),
    ("ema", "ema_update_weights", "ema.update_weights"),
    ("ema", "ema_update_predictions", "ema.update_predictions"),
    ("ema", "make_pseudo_labels", "ema.pseudo_labels"),
    ("training", "mixup_batch", "training.mixup"),
    ("training", "detect_early_learning", "training.detector"),
    ("metrics", "mean_average_precision", "metrics.map"),
    ("metrics", "average_precision", "metrics.ap"),
    ("metrics", "coverage", "metrics.coverage"),
    ("metrics", "ranking_loss", "metrics.ranking_loss"),
    ("metrics", "_ranking_loss_counted", "metrics.ranking_loss"),
    ("metrics", "thresholded_metrics", "metrics.thresholded"),
    ("metrics", "compute_metric_report", "metrics.report"),
    ("metrics", "monte_carlo_proposition_check", "metrics.monte_carlo"),
    ("metrics", "noisy_metric_transform", "metrics.noisy_transform"),
    ("noise", "simulate_random_spml", "noise.random_spml"),
    ("noise", "simulate_dominant_spml", "noise.dominant_spml"),
    ("noise", "compute_flip_rates", "noise.flip_rates"),
    ("data", "generate_synthetic", "data.generate"),
    ("data", "write_split_csv", "data.write_csv"),
    ("data", "ingest_csv", "data.ingest_csv"),
    ("data", "load_split_csv", "data.ingest_csv"),
    ("data", "_read_numeric_csv", "data.ingest_csv"),
    ("cli", "run_experiment", "cli.run_experiment"),
    ("training", "save_checkpoint", "cli.checkpoint_write"),
]

# (class home module, class, method, span name); the pass that
# ``Mlp.backward`` repeats is counted through ``_forward_cached``
METHODS = [
    ("net", "Mlp", "__init__", "net.mlp_init"),
    ("net", "Mlp", "forward", "net.forward"),
    ("net", "Mlp", "_forward_cached", "net.forward_pass"),
    ("net", "Mlp", "backward", "net.backward"),
    ("net", "Mlp", "sgd_step", "net.sgd_step"),
    ("training", "Trainer", "run_epoch", lambda args: f"training.run_epoch.{args[0].stage}"),
    ("training", "Trainer", "_val_map", "training.val_map"),
]


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _count_csv_written(tracer, args, result):
    tracer.add("data.csv_bytes_written", sum(_file_size(p) for p in result))


def _count_csv_read(tracer, args, result):
    tracer.add("data.csv_bytes_read", _file_size(args[0]))


def _count_checkpoint(tracer, args, result):
    tracer.add("cli.checkpoint_bytes", _file_size(args[1]))


def _count_steps(tracer, args, result):
    trainer = args[0]
    tracer.add("training.steps",
               math.ceil(trainer.train_ds.n_samples / trainer.config.batch_size))


def _note_trigger(tracer, args, result):
    if result.trigger_epoch is not None:
        tracer.note_once("training.trigger_epoch", result.trigger_epoch)


# attribute -> callback run after each call, to count work at that boundary
ON_EXIT = {
    "write_split_csv": _count_csv_written,
    "_read_numeric_csv": _count_csv_read,
    "save_checkpoint": _count_checkpoint,
    "detect_early_learning": _note_trigger,
    "run_epoch": _count_steps,
}


def install(tracer: Tracer) -> None:
    """Wrap every function and method in the tables above."""
    import spmlab
    from spmlab import cli, data, ema, losses, metrics, net, noise, training

    homes = {"net": net, "losses": losses, "ema": ema, "training": training,
             "metrics": metrics, "noise": noise, "data": data, "cli": cli}
    modules = [spmlab, *homes.values()]
    for home, attr, name in FUNCTIONS:
        tracer.wrap_function(modules, homes[home], attr, name, ON_EXIT.get(attr))
    for home, cls_name, attr, name in METHODS:
        tracer.wrap_method(getattr(homes[home], cls_name), attr, name, ON_EXIT.get(attr))


LOSS_SPANS = ("losses.loss_an", "losses.loss_an_ls", "losses.loss_wan", "losses.loss_epr",
              "losses.loss_iun", "losses.loss_adagc", "losses.reg_gc",
              "losses.reg_gc_binary", "losses.reg_elr_mcc")
EPOCH_SPANS = ("training.run_epoch.warmup", "training.run_epoch.gc")

# span name -> per-layer metric reporting its self time
SELF_TIMES = {
    "net.backward": "net.backward.self_s",
    "net.sgd_step": "net.sgd_step.self_s",
    "net.sigmoid": "net.sigmoid.self_s",
    "losses.loss_an": "losses.loss_an.self_s",
    "losses.loss_adagc": "losses.loss_adagc.self_s",
    "ema.update_weights": "ema.update_weights.self_s",
    "ema.update_predictions": "ema.update_predictions.self_s",
    "ema.pseudo_labels": "ema.pseudo_labels.self_s",
    "training.mixup": "training.mixup.self_s",
    "training.val_map": "training.val_map.self_s",
    "metrics.map": "metrics.map.self_s",
    "metrics.coverage": "metrics.coverage.self_s",
    "metrics.ranking_loss": "metrics.ranking_loss.self_s",
    "metrics.thresholded": "metrics.thresholded.self_s",
    "metrics.report": "metrics.report.self_s",
    "metrics.monte_carlo": "metrics.monte_carlo.self_s",
    "metrics.noisy_transform": "metrics.noisy_transform.self_s",
    "noise.random_spml": "noise.random_spml.self_s",
    "noise.dominant_spml": "noise.dominant_spml.self_s",
    "noise.flip_rates": "noise.flip_rates.self_s",
    "data.generate": "data.generate.self_s",
    "data.write_csv": "data.write_csv.self_s",
    "data.ingest_csv": "data.ingest_csv.self_s",
    "cli.run_experiment": "cli.run_experiment.self_s",
    "cli.checkpoint_write": "cli.checkpoint_write.self_s",
}


def layer_metrics(run: RunSpans) -> dict:
    """Per-layer metrics of one traced repeat."""
    out = {metric: run.self_s(span) for span, metric in SELF_TIMES.items()}
    # a forward pass is a call of ``forward`` or a pass that backward repeats
    forward_calls = run.calls("net.forward") + run.calls_not_under("net.forward_pass", "net.forward")
    steps = run.counter("training.steps")
    epoch_total = run.total_s(*EPOCH_SPANS)
    out.update({
        "net.forward.calls": forward_calls,
        "net.forward.self_s": run.self_s("net.forward", "net.forward_pass"),
        "net.mlp_init.calls": run.calls("net.mlp_init"),
        "net.as_matrix.calls": run.calls("net.as_matrix"),
        "net.forward_per_step": ratio(forward_calls, steps),
        "net.mlp_per_step": ratio(run.calls("net.mlp_init"), steps),
        "losses.calls": run.calls(*LOSS_SPANS),
        "training.run_epoch.self_s": run.self_s(*EPOCH_SPANS),
        "training.warmup_epoch_s": median(run.durations("training.run_epoch.warmup")),
        "training.gc_epoch_s": median(run.durations("training.run_epoch.gc")),
        "training.val_map_share": ratio(run.total_s("training.val_map"), epoch_total),
        "training.steps": steps,
        "training.trigger_epoch": run.counter("training.trigger_epoch", -1.0),
        "metrics.ap.calls": run.calls("metrics.ap"),
        "data.csv_bytes_written": run.counter("data.csv_bytes_written"),
        "data.csv_bytes_read": run.counter("data.csv_bytes_read"),
        "cli.checkpoint_bytes": run.counter("cli.checkpoint_bytes"),
    })
    return out


def summarize(runs: list[RunSpans]) -> dict:
    """Median of each per-layer metric over the traced repeats."""
    per_run = [layer_metrics(run) for run in runs]
    return {key: median([m[key] for m in per_run]) for key in per_run[0]}


def top_spans(runs: list[RunSpans], limit: int = 12) -> list:
    """The spans with the largest self time, for the human-readable log."""
    run = runs[-1]
    rows = [(name, run.calls(name), run.self_s(name)) for name in run.names]
    rows.sort(key=lambda r: -r[2])
    return [{"span": n, "calls": int(c), "self_s": round(s, 4)} for n, c, s in rows[:limit]]


