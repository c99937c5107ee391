"""Effect of the in-loop speed probe on the epoch period that holds it.

    PYTHONPATH=src python3 bench/probe_effect.py WORKLOAD SEED [SEED ...]

The end-to-end pass samples the speed probe after every Adam step, inside
the epoch period (bench/NOTES.md, "Speed normalisation"). This runs the
workload's training with the probe after every other Adam step instead, so
probed and probe-free periods alternate in one process, and compares each
probed period, with the probe's own time taken out, against the mean of the
two probe-free periods around it. A ratio of 1 means the probe leaves the
epoch's own work as fast as a plain train() runs it. Drift of the host
between neighbouring periods is small next to drift between processes, so
this pairs better than comparing separate runs.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
from pathlib import Path

THREADS = str(len(os.sched_getaffinity(0)))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import numpy as np  # noqa: E402
import workload as wl  # noqa: E402
from hmge import sbm, training  # noqa: E402

EPOCHS = 41


def paired_ratios(w: wl.Workload, seed: int, workdir: Path) -> list[float]:
    sbm_cfg, hmge_cfg, _ = wl.make_configs(w, seed)
    graph = sbm.generate_multiplex(sbm_cfg).graph
    if w.identity_features:
        graph = graph.with_features(np.eye(graph.num_nodes))
    if w.task == "link":
        graph = wl.split_links(graph, seed).training_graph
    probe = wl.SpeedProbe()
    original = training.AdamState.step
    spent: list[float] = []

    def step(adam, *args, **kwargs):
        original(adam, *args, **kwargs)
        spent.append(probe.sample(1) if len(spent) % 2 == 0 else 0.0)

    training.AdamState.step = step
    try:
        training.train(graph, hmge_cfg, training.TrainConfig(
            epochs=EPOCHS, learning_rate=w.learning_rate, weight_decay=w.weight_decay,
            patience=EPOCHS, rng_seed=seed), log_path=workdir / "train_log.csv")
    finally:
        training.AdamState.step = original
    net = wl.epoch_periods_ms(workdir, spent)
    return [net[k] / ((net[k - 1] + net[k + 1]) / 2)
            for k in range(wl.WARMUP_EPOCHS, len(net) - 1) if k % 2 == 0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args(argv)
    out = Path(".bench_out")
    out.mkdir(exist_ok=True)
    medians = []
    for seed in args.seeds:
        with tempfile.TemporaryDirectory(dir=out) as tmp:
            ratios = paired_ratios(wl.WORKLOADS[args.workload], seed, Path(tmp))
        medians.append(statistics.median(ratios))
        print(f"{args.workload} seed {seed}: probed / probe-free period, median of "
              f"{len(ratios)} pairs {medians[-1]:.4f}")
    print(f"{args.workload}: median over seeds {statistics.median(medians):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
