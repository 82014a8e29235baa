"""Benchmark entry point.

One workload::

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 30 --trace 0

prints every metric with its unit and sample count, the workload's
properties, and as its last line the JSON result object. ``--trace 0``
reports the end-to-end metrics named in ``BENCHMARK.json``; ``--trace
1`` runs half the time untraced and half traced and reports the
per-layer metrics. ``--workload all`` runs every workload, each in its
own process. ``--self-test`` checks the benchmark itself.

The command exits non-zero when an answer is wrong.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import benchutil

WORKLOADS = ("serve-mix", "exact-sweep", "mutate-read")


def _spec() -> dict:
    return json.loads((benchutil.ROOT / "BENCHMARK.json").read_text())


def _metric_names(trace: int) -> list[str]:
    return [m["name"] for m in _spec()["per_layer" if trace else "end_to_end"]]


def _run_one(args: argparse.Namespace) -> int:
    names = _metric_names(args.trace)
    if args.workload == "serve-mix":
        import serve_mix as workload
    elif args.workload == "exact-sweep":
        import exact_sweep as workload
    else:
        import mutate_read as workload
    outcome = workload.run(args.seed, float(args.seconds), bool(args.trace))
    benchutil.print_report(args.workload, outcome)
    benchutil.print_result(outcome, names)
    return 1 if outcome.wrong else 0


def _run_all(args: argparse.Namespace) -> int:
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=benchutil.ROOT, capture_output=True, text=True,
                              timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description="KSJQ repository benchmark")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=benchutil.DEFAULT_SEED,
                        help=f"workload seed (default {benchutil.DEFAULT_SEED}; "
                             f"{benchutil.HELD_OUT_SEED} is kept for held-out checks)")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = _spec()["run_seconds"]
    if args.workload == "all" and not args.self_test:
        return _run_all(args)
    benchutil.use_repo_sources()
    benchutil.ignore_soundness_warnings()
    if args.self_test:
        import selftest

        return selftest.main()
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
