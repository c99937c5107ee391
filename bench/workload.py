"""One workload run of the hmge benchmark, in a fresh process.

    python3 bench/workload.py --workload NAME --seed N --seconds S --trace 0|1 --out FILE

``run.py`` starts this with the BLAS thread variables already set and
``src`` on ``PYTHONPATH``. The first thing it does is the cold
``import hmge`` that ``setup_s`` and ``total_s`` include.

A pass is the user pipeline through the public API:
synth -> save -> load -> [split links] -> setup (EncodePlan + init_params)
-> train -> encode -> eval. With ``--trace 0`` the pass is timed with
tracing off, its outputs are checked, and every stage but training is
repeated until ``--seconds`` have passed (at least once) so its median is
steady. With ``--trace 1`` three passes run: an untraced warm-up,
the traced pass, whose spans give the per-layer metrics, and an untraced
reference pass; the tracing overhead is the traced minus the reference
``total_s``, both scaled by the speed probe. The result, with
environment and checks, goes to ``--out`` as JSON.
"""

from __future__ import annotations

import time

_IMPORT_START = time.perf_counter()
import hmge  # noqa: E402  (timed cold import)

IMPORT_S = time.perf_counter() - _IMPORT_START

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from hmge import evaluation, model, multiplex, sbm, training  # noqa: E402

from tracing import NAMED_OPS, Tracer  # noqa: E402

# Epoch periods dropped before timing: first-touch allocation and the first
# backward pass make them slower than the steady state.
WARMUP_EPOCHS = 2
TAIL_BEYOND = 10          # epoch_ms_tail has this many timed epochs above it
MIN_SAMPLE_S = 0.5        # a repeated stage runs at least this long per sample
# The light stages take a few hundred ms a sample, so a burst of load from
# another process moves one sample of them far more than one of synth, save
# or load; more samples of them per round cost little.
LIGHT_SAMPLES_PER_ROUND = 3
CLI_IMPORT_SAMPLES = 3
ORACLE_TOL = 1e-12
LINK_RATIO = 0.1
TRAIN_FRACTION = 0.1
PROBE_REPEATS = 3
IMPORT_PROBE = "import time; t = time.perf_counter(); import {mod}; print(time.perf_counter() - t)"


@dataclass(frozen=True)
class Workload:
    """Input sizes and training settings of one workload.

    ``timed_epochs`` epoch periods are timed after WARMUP_EPOCHS; train()
    runs one more epoch than that because a period spans two log rows.
    """

    name: str
    nodes: int
    dims: int
    p_in: float
    p_out: float
    identity_features: bool
    embed_size: int
    layers: int
    schedule: tuple[int, ...] | None
    learning_rate: float
    weight_decay: float
    task: str                 # "class" or "link"
    timed_epochs: int

    @property
    def epochs(self) -> int:
        return self.timed_epochs + WARMUP_EPOCHS + 1

    @property
    def tail_percentile(self) -> float:
        return 100.0 * (self.timed_epochs - TAIL_BEYOND) / self.timed_epochs


# Why each workload exists is stated in BENCHMARK.json and bench/NOTES.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("quickstart", 1000, 41, 0.05, 0.01, True, 32, 1, None,
                 0.005, 0.001, "class", 24),
        Workload("sparse-deep", 2000, 6, 0.006, 0.0015, False, 64, 2, (6, 3, 1),
                 0.001, 1e-5, "class", 24),
        Workload("ingest-link", 8000, 4, 0.0022, 0.0004, False, 32, 1, None,
                 0.001, 1e-5, "link", 30),
    )
}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "hmge": hmge.__version__,
    }


def cold_import_s(module: str) -> float:
    """Seconds a fresh interpreter spends in ``import <module>``."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE.format(mod=module)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


class Checks:
    """Output checks; any failure counts towards error_rate."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class SpeedProbe:
    """How fast this machine runs during a pass, against a fixed reference.

    On a shared host the same code runs tens of percent faster or slower
    from one minute to the next. The probe is a fixed computation that
    shares no code with hmge; it is sampled after every stage and after
    every training epoch. ``factor`` states the pass's times at the
    reference speed (REFERENCE_S per probe) from the median of all its
    probes, which removes most of the drift between runs. A single probe is
    not used on its own: under bursts of load from other processes it moves
    far more than a stage next to it does. Time spent probing is never part
    of a measured stage.
    """

    REFERENCE_S = 6.4e-3      # about the median probe on a quiet 2-core x86-64 host

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.random((192, 192))
        self._vec = rng.random(100_000)
        self._big = rng.random((1000, 1000))
        self._thin = rng.random((1000, 32))
        self.values: list[float] = []
        self.sample()

    def _once(self) -> float:
        """Geometric mean of an interpreter-and-cache part and a BLAS part.

        Neither part alone follows the drift of both the text IO and the
        training epochs; their geometric mean follows each closely.
        """
        start = time.perf_counter()
        text = ",".join(map(str, range(15_000)))
        [int(t) for t in text.split(",")]
        np.sort(self._vec)
        self._small @ self._small @ self._small
        middle = time.perf_counter()
        self._big @ self._thin
        self._big.T @ self._thin
        return math.sqrt((middle - start) * (time.perf_counter() - middle))

    def sample(self, repeats: int = PROBE_REPEATS) -> float:
        """Record the median of ``repeats`` probes; returns the seconds spent."""
        start = time.perf_counter()
        self.values.append(statistics.median(self._once() for _ in range(repeats)))
        return time.perf_counter() - start

    def factor(self) -> float:
        """Scale to the reference speed: over every probe taken so far."""
        return self.REFERENCE_S / statistics.median(self.values)

    @contextlib.contextmanager
    def during_epochs(self):
        """Sample once after every Adam step of train(); yields the seconds
        spent probing at each step. Step k ends inside the epoch period that
        ends with epoch k + 1's log row."""
        original = training.AdamState.step
        spent: list[float] = []

        def step(adam, *args, **kwargs):
            original(adam, *args, **kwargs)
            spent.append(self.sample(1))

        training.AdamState.step = step
        try:
            yield spent
        finally:
            training.AdamState.step = original


class Stages:
    """Wall time of each pipeline stage, in the tracer's stage context.

    With a probe, the probe is sampled after every stage.
    """

    def __init__(self, tracer: Tracer | None, probe: SpeedProbe | None):
        self.tracer = tracer
        self.probe = probe
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0

    def add(self, name: str, busy: float, calls: int = 1) -> None:
        """One sample: ``busy`` seconds over ``calls`` calls."""
        self.attempted += calls
        self.samples.setdefault(name, []).append(busy / calls)
        if self.probe is not None:
            self.probe.sample()

    def repeats(self, name: str) -> int:
        """Calls per sample that make a sample last at least MIN_SAMPLE_S."""
        return max(1, math.ceil(MIN_SAMPLE_S / self.samples[name][0]))


    def run(self, name, fn, *args, repeat: int = 1, **kwargs):
        """Time ``fn``; with ``repeat`` > 1 the sample is the mean of that
        many calls in a row, which steadies short stages. Before each call
        the previous result is dropped and garbage is collected, untimed, so
        no call pays for an earlier one."""
        if self.tracer is not None:
            self.tracer.stage = name
        busy, result = 0.0, None
        for _ in range(repeat):
            result = None
            gc.collect()
            begin = time.perf_counter()
            result = fn(*args, **kwargs)
            busy += time.perf_counter() - begin
        self.add(name, busy, repeat)
        if self.tracer is not None:
            self.tracer.stage = None
        return result


def make_configs(w: Workload, seed: int):
    sbm_cfg = sbm.SbmConfig(w.nodes, w.dims, p_in=w.p_in, p_out=w.p_out, rng_seed=seed)
    hmge_cfg = model.HmgeConfig(embed_size=w.embed_size, num_layers=w.layers,
                                dims_schedule=w.schedule)
    train_cfg = training.TrainConfig(epochs=w.epochs, learning_rate=w.learning_rate,
                                     weight_decay=w.weight_decay, patience=w.epochs,
                                     rng_seed=seed)
    return sbm_cfg, hmge_cfg, train_cfg


def trainer_streams(seed: int):
    """The init and corruption streams train() derives from its seed."""
    init, corrupt = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(init), np.random.default_rng(corrupt)


def load(path, identity: bool):
    graph = multiplex.load_multiplex(path)
    if identity:
        graph = graph.with_features(np.eye(graph.num_nodes))
    return graph


def setup(graph, hmge_cfg, seed: int):
    plan = model.EncodePlan(graph, hmge_cfg)
    params = model.init_params(hmge_cfg, graph.num_dims, graph.num_features,
                               trainer_streams(seed)[0])
    return plan, params


def evaluate(w: Workload, graph, z, seed: int, split=None):
    """Downstream metrics; the link split itself is timed in its own stage."""
    rng = np.random.default_rng(seed)
    if w.task == "class":
        return evaluation.classification_metrics(z, graph.labels, TRAIN_FRACTION, rng)
    pairs = split.positives + split.negatives
    scores = evaluation.link_scores(z, pairs)
    labels = np.array([1] * len(split.positives) + [0] * len(split.negatives))
    return {"auc": evaluation.auc_roc(scores, labels),
            "ap": evaluation.average_precision(scores, labels)}


def split_links(graph, seed: int):
    return evaluation.split_links(graph, LINK_RATIO, np.random.default_rng(seed))


def run_pass(w: Workload, seed: int, workdir: Path, tracer: Tracer | None,
             probe: SpeedProbe | None) -> dict:
    """The user pipeline once; returns its objects and stage timings.

    ``total_s`` is the cold import plus every stage of the pass; the probes
    between stages are not part of it.
    """
    sbm_cfg, hmge_cfg, train_cfg = make_configs(w, seed)
    stages = Stages(tracer, probe)
    stages.add("import", IMPORT_S)
    if tracer is not None:
        tracer.install()
    try:
        dataset = stages.run("synth", sbm.generate_multiplex, sbm_cfg)
        stages.run("save", sbm.save_dataset, dataset, workdir / "data")
        loaded = stages.run("load", load, workdir / "data", w.identity_features)
        graph, split = loaded, None
        if w.task == "link":
            split = stages.run("split", split_links, graph, seed)
            graph = split.training_graph
        plan, params0 = stages.run("setup", setup, graph, hmge_cfg, seed)
        with probe.during_epochs() if probe else contextlib.nullcontext([]) as probe_s:
            result = stages.run("train", training.train, graph, hmge_cfg, train_cfg,
                                params=params0, log_path=workdir / "train_log.csv")
        # From here on the train sample is the part the epoch periods miss:
        # plan build, the first forward pass and train()'s own final encode.
        periods = epoch_periods_ms(workdir, probe_s)
        stages.samples["train"][-1] -= sum(probe_s) + sum(periods) / 1000.0
        z = stages.run("encode", lambda: model.encode(graph, result.params, hmge_cfg,
                                                      plan=plan).z)
        scores = stages.run("eval", evaluate, w, graph, z, seed, split)
    finally:
        if tracer is not None:
            tracer.restore()
    return {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stages": stages,
        "dataset": dataset, "loaded": loaded, "graph": graph, "split": split, "plan": plan,
        "params0": params0, "result": result, "z": z, "scores": scores,
        "periods": periods,
        "configs": (sbm_cfg, hmge_cfg, train_cfg),
    }


def pass_seconds(samples: dict, periods: list[float]) -> float:
    """The pass: the first sample of every stage plus every epoch period."""
    return sum(v[0] for v in samples.values()) + sum(periods) / 1000.0


def epoch_periods_ms(workdir: Path, probe_s=()) -> list[float]:
    """Every epoch period from train()'s own log (elapsed_ms per epoch).

    ``probe_s`` are the seconds ``SpeedProbe.during_epochs`` spent at each
    step: probe k sits inside period k and is taken out of it.
    """
    lines = (workdir / "train_log.csv").read_text().splitlines()[1:]
    elapsed = [float(line.split(",")[3]) for line in lines]
    periods = [b - a for a, b in zip(elapsed, elapsed[1:])]
    for k, spent in enumerate(probe_s[:len(periods)]):
        periods[k] -= 1000.0 * spent
    return periods


def oracle_loss(graph, params0, hmge_cfg, seed: int) -> float:
    """Epoch-0 loss from the eager encoder and the eager InfoMax loss."""
    perm = trainer_streams(seed)[1].permutation(graph.num_nodes)
    z = model.encode(graph, params0, hmge_cfg).z
    z_hat = model.encode(graph.with_features(graph.features[perm]), params0, hmge_cfg).z
    return training.infomax_loss(z, z_hat, model.readout(z), params0.disc_q)


def check_pass(w: Workload, p: dict, seed: int, checks: Checks) -> None:
    result, hmge_cfg = p["result"], p["configs"][1]
    synth, loaded = p["dataset"].graph, p["loaded"]
    checks.check(all(a.equals(b) for a, b in zip(synth.dimensions, loaded.dimensions))
                 and synth.labels == loaded.labels
                 and (w.identity_features or np.array_equal(synth.features, loaded.features)),
                 "load returns what synth saved")
    checks.check(len(result.loss_history) == w.epochs, "train ran every epoch")
    oracle = oracle_loss(p["graph"], p["params0"], hmge_cfg, seed)
    checks.check(abs(result.loss_history[0] - oracle) <= ORACLE_TOL,
                 f"epoch-0 loss {result.loss_history[0]!r} vs oracle {oracle!r}")
    checks.check(np.array_equal(result.embeddings, p["z"]),
                 "train() embeddings equal encode(best params)")
    checks.check(all(np.isfinite(v) and 0.0 <= v <= 1.0 for v in p["scores"].values()),
                 f"eval scores in [0, 1]: {p['scores']}")


def graphs_equal(a, b) -> bool:
    return (a.num_nodes == b.num_nodes
            and all(x.equals(y) for x, y in zip(a.dimensions, b.dimensions))
            and np.array_equal(a.features, b.features) and a.labels == b.labels)


def repeat_stages(w: Workload, p: dict, seed: int, seconds: float, workdir: Path,
                  started: float, checks: Checks) -> dict[str, list[float]]:
    """Repeat every stage but training, in rounds, until ``seconds`` have
    passed since the process started (at least one round); check that each
    repeat reproduces the pass.

    The pass supplied the first sample of each stage; every round adds one
    of synth, save, load and split, and LIGHT_SAMPLES_PER_ROUND of import,
    setup, encode and eval. A sample is the mean of as many back-to-back
    calls as fill MIN_SAMPLE_S.
    """
    stages = p["stages"]
    sbm_cfg, hmge_cfg, _ = p["configs"]
    while True:
        dataset = stages.run("synth", sbm.generate_multiplex, sbm_cfg,
                             repeat=stages.repeats("synth"))
        checks.check(graphs_equal(dataset.graph, p["dataset"].graph), "synth repeats")
        stages.run("save", sbm.save_dataset, dataset, workdir / "data_rep",
                   repeat=stages.repeats("save"))
        del dataset
        graph = stages.run("load", load, workdir / "data_rep", w.identity_features,
                           repeat=stages.repeats("load"))
        split = p["split"]
        if w.task == "link":
            split = stages.run("split", split_links, graph, seed,
                               repeat=stages.repeats("split"))
            graph = split.training_graph
        checks.check(graphs_equal(graph, p["graph"]), "load repeats")
        del graph
        for _ in range(LIGHT_SAMPLES_PER_ROUND):
            calls = stages.repeats("import")
            stages.add("import", sum(cold_import_s("hmge") for _ in range(calls)), calls)
            _, params = stages.run("setup", setup, p["graph"], hmge_cfg, seed,
                                   repeat=stages.repeats("setup"))
            checks.check(all(np.array_equal(a, b) for (_, a, _, _), (_, b, _, _) in
                             zip(model.param_leaves(params), model.param_leaves(p["params0"]))),
                         "init_params repeats")
            z = stages.run("encode", lambda: model.encode(p["graph"], p["result"].params,
                                                          hmge_cfg, plan=p["plan"]).z,
                           repeat=stages.repeats("encode"))
            checks.check(np.array_equal(z, p["z"]), "encode repeats")
            scores = stages.run("eval", evaluate, w, p["graph"], z, seed, p["split"],
                                repeat=stages.repeats("eval"))
            checks.check(scores == p["scores"], "eval repeats")
        if time.perf_counter() - started >= seconds:
            return stages.samples


def end_to_end(p: dict, samples: dict, periods: list[float]) -> dict:
    """Every end-to-end metric from stage samples and epoch periods."""
    med = {k: statistics.median(v) for k, v in samples.items() if k != "train"}
    timed = sorted(periods[WARMUP_EPOCHS:])
    return {
        "setup_s": (med["import"] + med["setup"], "s"),
        "synth_s": (med["synth"], "s"),
        "save_s": (med["save"], "s"),
        "load_s": (med["load"], "s"),
        "epoch_ms_p50": (statistics.median(timed), "ms"),
        "epoch_ms_tail": (timed[len(timed) - TAIL_BEYOND - 1], "ms"),
        "encode_s": (med["encode"], "s"),
        "eval_s": (med["eval"] + med.get("split", 0.0), "s"),
        "total_s": (pass_seconds(samples, periods), "s"),
        "peak_rss_mb": (p["peak_rss_mb"], "MB"),
    }


def _span_sums(tracer: Tracer, stage=None) -> dict[str, float]:
    sums: dict[str, float] = {}
    for name, span_stage, epoch, start, end in tracer.spans:
        if stage is None or span_stage == stage:
            sums[name] = sums.get(name, 0.0) + (end - start)
    return sums


def per_epoch_medians(tracer: Tracer, epochs: range) -> dict[str, float]:
    """Median over timed epochs of each span's summed ms and each count."""
    per = {e: {} for e in epochs}
    for name, _, epoch, start, end in tracer.spans:
        if epoch in per:
            per[epoch][name] = per[epoch].get(name, 0.0) + (end - start) * 1000.0
    for (name, _, epoch), amount in tracer.counts.items():
        if epoch in per:
            per[epoch][name] = per[epoch].get(name, 0.0) + amount
    names = {n for d in per.values() for n in d}
    return {n: statistics.median(d.get(n, 0.0) for d in per.values()) for n in names}


def per_layer(w: Workload, p: dict, tracer: Tracer, cli_import_s: float) -> dict:
    plan, stage = p["plan"], lambda s: _span_sums(tracer, s)
    epoch = per_epoch_medians(tracer, range(WARMUP_EPOCHS, w.epochs))
    synth, save, load_, setup_, encode_ = (
        stage("synth"), stage("save"), stage("load"), stage("setup"), stage("encode"))
    eval_ = {**stage("split"), **stage("eval")}   # split_links runs only in "split"
    edges = sum(d.num_edges for d in p["dataset"].graph.dimensions)
    load_s = load_.get("multiplex.load_multiplex", 0.0)
    out = {
        "sbm.generate_multiplex.s": (synth.get("sbm.generate_multiplex", 0.0), "s"),
        "sbm.generate_multiplex.alloc_peak_mb": (tracer.alloc_peak_bytes / 2**20, "MB"),
        "sbm.edges": (edges, "count"),
        "multiplex.save_multiplex.s": (save.get("multiplex.save_multiplex", 0.0), "s"),
        "multiplex.load_multiplex.s": (load_s, "s"),
        "multiplex.load_multiplex.edges_per_s": (
            edges / load_s if load_s else 0.0, "1/s"),
        "multiplex.normalize_adjacency.s": (
            setup_.get("multiplex.normalize_adjacency", 0.0), "s"),
        "model.EncodePlan.s": (setup_.get("model.EncodePlan.__init__", 0.0), "s"),
        "model.init_params.s": (setup_.get("model.init_params", 0.0), "s"),
        "model.lift_params.ms": (epoch.get("model.lift_params", 0.0), "ms"),
        "model.build_latent_structure.ms": (
            epoch.get("model.build_latent_structure", 0.0), "ms"),
        "model.build_embedding_chain.ms": (epoch.get("model.build_embedding_chain", 0.0), "ms"),
        "model.encode.s": (encode_.get("model.encode", 0.0), "s"),
        "model.plan.union_nnz": (plan.union.nnz, "count"),
        "model.plan.density": (plan.union.nnz / float(plan.num_nodes) ** 2, "ratio"),
        "model.plan.dense_mode": (int(plan.norm_plan.spmm.dense_mode), "bool"),
        "model.plan.identity_features": (int(plan.identity_features), "bool"),
        "autodiff.Tape.backward.ms": (epoch.get("autodiff.Tape.backward", 0.0), "ms"),
        "autodiff.tape.nodes": (epoch.get("autodiff.tape.nodes", 0.0), "count"),
        "autodiff.tape.value_bytes": (epoch.get("autodiff.tape.value_bytes", 0.0), "B"),
    }
    for op in NAMED_OPS + ("other",):
        out[f"autodiff.{op}.calls"] = (epoch.get(f"autodiff.{op}.calls", 0.0), "count")
        out[f"autodiff.{op}.fwd_ms"] = (epoch.get(f"autodiff.{op}.fwd", 0.0), "ms")
        out[f"autodiff.{op}.bwd_ms"] = (epoch.get(f"autodiff.{op}.bwd", 0.0), "ms")
    for kernel in ("SpmmPlan.matmul", "SpmmPlan.matmul_transpose", "SpmmPlan.grad_values",
                   "NormalizePlan.forward", "NormalizePlan.backward"):
        out[f"autodiff.{kernel}.ms"] = (epoch.get(f"autodiff.{kernel}", 0.0), "ms")
    out["autodiff.SpmmPlan.grad_values.bytes"] = (
        epoch.get("autodiff.SpmmPlan.grad_values.bytes", 0.0), "B")
    out.update({
        "training.build_loss_nodes.ms": (epoch.get("training.build_loss_nodes", 0.0), "ms"),
        "training.AdamState.step.ms": (epoch.get("training.AdamState.step", 0.0), "ms"),
        "training.epochs_run": (len(p["result"].loss_history), "count"),
        "evaluation.split_links.s": (eval_.get("evaluation.split_links", 0.0), "s"),
        "evaluation.link_scores.s": (eval_.get("evaluation.link_scores", 0.0), "s"),
        "evaluation.ranking.s": (eval_.get("evaluation.auc_roc", 0.0)
                                 + eval_.get("evaluation.average_precision", 0.0), "s"),
        "evaluation.logistic_fit.s": (eval_.get("evaluation.logistic_fit", 0.0), "s"),
        "evaluation.classify.s": (eval_.get("evaluation.classify", 0.0), "s"),
        "cli.import.s": (cli_import_s, "s"),
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    started = time.perf_counter() - IMPORT_S
    w = WORKLOADS[args.workload]
    workdir = args.out.parent / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    checks = Checks()
    try:
        tracer = Tracer() if args.trace else None
        attempted = 0
        if tracer is not None:
            # The first pass in a process runs slower than later ones, so the
            # tracing overhead compares two later passes: traced, then untraced.
            attempted += run_pass(w, args.seed, workdir, None, None)["stages"].attempted
        probe = SpeedProbe()
        p = run_pass(w, args.seed, workdir, tracer, probe)
        check_pass(w, p, args.seed, checks)
        result = p["result"]
        report = {
            "workload": w.name, "seed": args.seed, "trace": args.trace,
            "epochs": w.epochs, "timed_epochs": w.timed_epochs,
            "tail_percentile": w.tail_percentile,
            "final_loss": result.loss_history[-1], "best_loss": result.best_loss,
            "best_epoch": result.best_epoch, "eval": p["scores"],
        }
        if tracer is None:
            samples = repeat_stages(w, p, args.seed, args.seconds, workdir, started, checks)
            attempted += p["stages"].attempted
            wall = end_to_end(p, samples, p["periods"])
            report["speed_factor"] = factor = probe.factor()
            report["metrics"] = {name: (value * factor if unit in ("s", "ms") else value, unit)
                                 for name, (value, unit) in wall.items()}
            report["wall_metrics"] = wall
            report["samples"] = samples
            report["probe_s"] = probe.values
        else:
            attempted += p["stages"].attempted
            traced_s = pass_seconds(p["stages"].samples, p["periods"]) * probe.factor()
            cli_import = statistics.median(cold_import_s("hmge.cli")
                                           for _ in range(CLI_IMPORT_SAMPLES))
            metrics = per_layer(w, p, tracer, cli_import)
            del p, result
            probe = SpeedProbe()
            ref = run_pass(w, args.seed, workdir, None, probe)
            attempted += ref["stages"].attempted
            untraced_s = pass_seconds(ref["stages"].samples, ref["periods"]) * probe.factor()
            metrics["trace.total_s"] = (traced_s, "s")
            metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
            report["metrics"] = metrics
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.update({"environment": environment(), "attempted": attempted + checks.attempted,
                   "failed": len(checks.failures), "failures": checks.failures})
    args.out.write_text(json.dumps(report, indent=1, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
