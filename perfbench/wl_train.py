"""``train``: closed-loop training on the eval training config.

The eval's netlist training set (the 12 default eval families x 5
netlist instances at the eval's data seed, chunk-augmented) is built and
prepared in set-up; ``--seed`` initialises the model and orders the
batches, so every seed does the same work.  The timed phase runs
``Trainer.train_epoch`` epoch after epoch, the loop ``Trainer.fit``
runs, for about ``--seconds``; each epoch is timed between two probes of
the host's pace (:class:`common.Pace`) and scaled to the reference
speed.  Nothing here extracts Verilog, touches an index or serves HTTP,
so this workload is the no-change side for optimisations of those
layers.

Checks: every epoch loss is finite and the optimizer moved every weight
tensor.  Whether the last epoch's loss is below the first is recorded
but not checked: over the first few epochs the contrastive loss rises
for some batch orders and initialisations of unchanged code.
"""

import hashlib
import math
import statistics

import numpy as np

from common import (
    Pace,
    clock,
    end_to_end,
    layer_outcome,
    peak_rss_mb,
    units,
)

#: Seconds one epoch took when the benchmark was written (2 cores).
NOMINAL_EPOCH_S = 1.6

#: What the workload imports; set-up times a fresh import of these.
MODULES = ("repro.core", "repro.designs", "repro.eval.runner")


def run(ctx):
    from repro.core import GNN4IP, Trainer, build_pair_dataset
    from repro.designs import netlist_ir_records
    from repro.eval.runner import EvalConfig, augment_with_chunk_pairs

    ctx.imported()
    data = EvalConfig()

    def build(_rep):
        records = netlist_ir_records(families=list(data.families),
                                     instances_per_design=data.train_instances,
                                     seed=data.seed)
        dataset = build_pair_dataset(records, seed=data.seed)
        augment_with_chunk_pairs(dataset, seed=data.seed)
        trainer = Trainer(GNN4IP(seed=ctx.seed, featurizer="netlist"),
                          seed=ctx.seed)
        # Graph preparation is part of set-up; fit() does it on its
        # first epoch.
        trainer._prepare_all(dataset)
        return dataset, trainer

    (dataset, trainer), setup_s = ctx.setup(build, MODULES)
    pairs = len(dataset.train_pairs)
    steps = math.ceil(pairs / trainer.batch_size)
    initial = {name: value.copy() for name, value
               in trainer.model.encoder.state_dict().items()}

    losses, epoch_s, windows, traced_s, untraced_s = [], [], [], [], []
    pace = Pace()
    pace.probe()
    for epoch in range(units(ctx.seconds, NOMINAL_EPOCH_S, 4)):
        # A traced run alternates untraced and traced epochs; their
        # difference is the tracing overhead.
        traced = ctx.tracer is not None and epoch % 2 == 1
        with ctx.tracing(traced):
            start = clock()
            loss, _ = trainer.train_epoch(dataset, epoch)
            end = clock()
        pace.probe()
        losses.append(loss)
        epoch_s.append(end - start)
        (traced_s if traced else untraced_s).append(end - start)
        if traced:
            windows.append((start, end))

    trained = trainer.model.encoder.state_dict()
    finite = all(math.isfinite(loss) for loss in losses)
    moved = all(not np.array_equal(trained[name], value)
                for name, value in initial.items())
    failed = sum(steps for loss in losses if not math.isfinite(loss))
    weights = hashlib.sha256()
    for name, value in sorted(trained.items()):
        weights.update(name.encode())
        weights.update(value.tobytes())

    if ctx.tracer is not None:
        metrics = layer_outcome(ctx, windows, untraced_s, traced_s)
    else:
        median_s = statistics.median(pace.scaled(epoch_s))
        metrics = end_to_end(setup_s, peak_rss_mb(), pairs / median_s,
                             1000.0 * median_s / steps)
    return {
        "correct": finite and moved,
        "checks": {"losses_finite": finite, "every_weight_updated": moved},
        "attempted": steps * len(losses),
        "failed": failed,
        "metrics": metrics,
        "digests": {"weights": weights.hexdigest()},
        "details": {"records": len(dataset.records), "train_pairs": pairs,
                    "steps_per_epoch": steps, "losses": losses,
                    "last_loss_below_first": losses[-1] < losses[0],
                    "epoch_s": epoch_s, "pace_s": pace.samples,
                    "train_pairs_per_s": pairs / statistics.median(epoch_s)},
    }
