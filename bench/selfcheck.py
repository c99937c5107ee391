"""Self-test of the benchmark's own machinery.

    python3 bench/selfcheck.py           # a few seconds
    python3 bench/selfcheck.py --full    # adds two traced runs per workload

Run from the root of a checkout. It checks that

1. the tracer wraps every function and method it names, and afterwards
   leaves every attribute of every hmge module and class exactly as it
   found it (the same objects, none added or removed);
2. two traced passes of the same code agree on every exact per-layer
   count: plan decisions, tape nodes, op calls and computed bytes per
   epoch, sbm.edges and epochs run. The quick check runs two small
   in-process passes of each task; ``--full`` runs ``bench/run.py
   --trace 1`` twice on every workload, in fresh processes.

Exits 1 and lists what differed if a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path("src").resolve()))

import workload  # noqa: E402
from tracing import METHODS, MODULE_FUNCTIONS, Tracer, hmge_modules  # noqa: E402

EXACT_UNITS = ("count", "bool", "ratio", "B")
TINY = (
    workload.Workload("tiny-class", 90, 3, 0.2, 0.05, False, 8, 2, None,
                      0.01, 0.0, "class", 2),
    workload.Workload("tiny-link", 90, 3, 0.2, 0.05, True, 8, 1, None,
                      0.01, 0.0, "link", 2),
)


def attributes() -> dict:
    """Every attribute of every loaded hmge module and of the classes they define."""
    snap = {}
    for module in hmge_modules():
        for name, value in vars(module).items():
            snap[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    snap[(f"{module.__name__}.{name}", attr)] = member
    return snap


def check_restore(problems: list[str]) -> None:
    before = attributes()
    tracer = Tracer()
    tracer.install()
    try:
        during = attributes()
        targets = [(f"hmge.{mod}", attr) for mod, attr in MODULE_FUNCTIONS]
        targets += [(f"hmge.{mod}.{cls}", attr) for mod, cls, attr in METHODS]
        for key in targets:
            if during[key] is before[key]:
                problems.append(f"tracer did not wrap {key}")
    finally:
        tracer.restore()
    after = attributes()
    for key in before.keys() | after.keys():
        if before.get(key) is not after.get(key):
            problems.append(f"attribute changed after restore: {key}")


def exact(metrics: dict) -> dict:
    return {name: value for name, (value, unit) in metrics.items() if unit in EXACT_UNITS}


def tiny_counts(w, seed: int, workdir: Path) -> dict:
    workdir.mkdir(parents=True)
    try:
        tracer = Tracer()
        p = workload.run_pass(w, seed, workdir, tracer, None)
        return exact(workload.per_layer(w, p, tracer, 0.0))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def full_counts(name: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: run.py exited {proc.returncode}\n{proc.stderr[-2000:]}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return exact({k: (m["value"], m["unit"]) for k, m in metrics.items()})


def compare(label: str, first: dict, second: dict, problems: list[str]) -> None:
    for name in sorted(first.keys() | second.keys()):
        if first.get(name) != second.get(name):
            problems.append(f"{label}: {name} {first.get(name)!r} != {second.get(name)!r}")
    print(f"{label}: {len(first)} exact counts compared")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark self-test")
    parser.add_argument("--full", action="store_true",
                        help="compare two traced runs of every real workload")
    args = parser.parse_args(argv)
    problems: list[str] = []
    before = attributes()
    check_restore(problems)
    print(f"restore: {len(before)} attributes compared")
    out = Path(".bench_out")
    for w in TINY:
        runs = [tiny_counts(w, 5, out / f"selfcheck-{os.getpid()}-{i}") for i in range(2)]
        compare(w.name, *runs, problems)
    after = attributes()
    problems += [f"attribute changed by a traced pass: {key}"
                 for key in before.keys() | after.keys() if before.get(key) is not after.get(key)]
    if args.full:
        spec = json.loads(Path("BENCHMARK.json").read_text())
        for entry in spec["workloads"]:
            compare(entry["name"], full_counts(entry["name"], 1),
                    full_counts(entry["name"], 1), problems)
    for problem in problems:
        print(f"FAILED: {problem}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
