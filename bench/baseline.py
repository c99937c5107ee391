"""One traced training run at a ROADMAP baseline size (not a workload).

    PYTHONPATH=src python3 bench/baseline.py S1|S2

Builds the graph in memory (no dataset files), trains for a few epochs
under the tracer and prints per-epoch medians, over every epoch after the
first, of the forward pass (``training.build_loss_nodes``), the backward
pass (``Tape.backward``), the Adam step and the sparse kernels. S2 needs
about 3 GB of memory and a minute per epoch on 2 cores. Results are kept
in bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time

THREADS = str(len(os.sched_getaffinity(0)))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import numpy as np  # noqa: E402
from hmge import model, sbm, training  # noqa: E402

from tracing import Tracer  # noqa: E402
from workload import per_epoch_medians  # noqa: E402

# (nodes, dims, identity features, embed size, layers, epochs) at the
# CLI's synth defaults p_in 0.05 / p_out 0.01, seed 7.
SIZES = {
    "S1": (1000, 41, True, 32, 1, 6),
    "S2": (5000, 10, False, 64, 2, 2),
}
REPORTED = (
    ("forward", "training.build_loss_nodes"),
    ("backward", "autodiff.Tape.backward"),
    ("adam", "training.AdamState.step"),
    ("grad_values", "autodiff.SpmmPlan.grad_values"),
    ("spmm_var fwd", "autodiff.spmm_var.fwd"),
    ("spmm fwd", "autodiff.spmm.fwd"),
    ("spmm bwd", "autodiff.spmm.bwd"),
    ("NormalizePlan fwd", "autodiff.NormalizePlan.forward"),
    ("NormalizePlan bwd", "autodiff.NormalizePlan.backward"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("size", choices=sorted(SIZES))
    args = parser.parse_args(argv)
    nodes, dims, identity, embed, layers, epochs = SIZES[args.size]
    graph = sbm.generate_multiplex(sbm.SbmConfig(nodes, dims, rng_seed=7)).graph
    if identity:
        graph = graph.with_features(np.eye(nodes))
    cfg = model.HmgeConfig(embed_size=embed, num_layers=layers)
    plan = model.EncodePlan(graph, cfg)
    print(f"{args.size}: {nodes} nodes x {dims} dims, union nnz {plan.union.nnz} "
          f"(density {plan.union.nnz / nodes ** 2:.3f}), dense kernels "
          f"{plan.norm_plan.spmm.dense_mode}, threads {THREADS}")
    del plan
    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        training.train(graph, cfg, training.TrainConfig(
            epochs=epochs, learning_rate=0.001, patience=epochs, rng_seed=7))
    finally:
        tracer.restore()
    print(f"train() {time.perf_counter() - start:.1f} s for {epochs} epochs; peak RSS "
          f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MB")
    medians = per_epoch_medians(tracer, range(1, epochs))
    for label, name in REPORTED:
        print(f"  {label:<18} {medians.get(name, 0.0):12.1f} ms/epoch")
    return 0


if __name__ == "__main__":
    sys.exit(main())
