"""hmge benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload pass runs in a fresh
process (``bench/workload.py``) with OMP/OPENBLAS/MKL_NUM_THREADS set to
the number of usable cores before numpy loads, and with the checkout's
``src`` first on ``PYTHONPATH``.

``--trace 0`` prints every end-to-end metric declared in BENCHMARK.json,
its times scaled to a reference machine speed (bench/NOTES.md) and the
wall-clock figure next to each. ``--trace 1`` prints every per-layer metric
of a traced pass, including the tracing overhead (traced minus untraced
``total_s`` in the same process, both scaled). The last stdout line is one
JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Full results,
including the environment and each check, go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
OUT_DIR = Path(".bench_out")


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 1


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    env.update({var: threads for var in THREAD_VARS})
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_child(args, trace: int, deadline: float) -> dict:
    out = OUT_DIR / f"BENCH_{args.workload}{'_trace' if trace else ''}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(Path(__file__).with_name("workload.py")),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace), "--out", str(out)]
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(out.read_text())


def select(declared: list[dict], measured: dict) -> dict:
    """The declared metrics, by name, with the declared unit checked."""
    metrics = {}
    for spec in declared:
        value, unit = measured[spec["name"]]
        if unit != spec["unit"]:
            raise RuntimeError(f"{spec['name']} measured in {unit}, declared {spec['unit']}")
        metrics[spec["name"]] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hmge benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not Path("src/hmge/__init__.py").is_file():
        return fail("src/hmge not found; run from the root of an hmge checkout")
    try:
        spec = json.loads(Path("BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    OUT_DIR.mkdir(exist_ok=True)

    try:
        report = run_child(args, args.trace, deadline)
        metrics = select(spec["per_layer" if args.trace else "end_to_end"], report["metrics"])
    except subprocess.TimeoutExpired:
        return fail(f"workload did not finish within {DEADLINE_S:.0f} s")
    except (RuntimeError, KeyError, ValueError) as exc:
        return fail(str(exc))

    attempted, failed = report["attempted"], report["failed"]
    print(f"hmge benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("environment: " + json.dumps(report["environment"], sort_keys=True))
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<44} {m['value']:>16.6f} {m['unit']}")
    else:
        print(f"  {'metric':<24} {'value':>14} {'unit':<6} {'wall clock':>14}")
        for name, (value, unit) in report["metrics"].items():
            print(f"  {name:<24} {value:>14.6f} {unit:<6} "
                  f"{report['wall_metrics'][name][0]:>14.6f}")
    print(f"  {'error_rate':<24} {failed / attempted:>14.6f} ratio "
          f"({failed} of {attempted} stages and checks failed)")
    print(f"epoch_ms_tail is p{report['tail_percentile']:.1f} of {report['timed_epochs']} "
          f"timed epochs ({report['epochs']} run); final_loss {report['final_loss']!r} "
          f"best_loss {report['best_loss']!r} at epoch {report['best_epoch']}; "
          f"eval {json.dumps(report['eval'])}")
    for failure in report["failures"]:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
