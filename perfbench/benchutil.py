"""Helpers shared by the workloads: paths, statistics, memory, output."""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Set when this module is first imported, as close to process start as
#: the benchmark can observe; the first set-up of a run is timed from it.
PROCESS_START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: Default workload seed, and the second seed kept for held-out checks.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2


def use_repo_sources() -> None:
    """Import the library from this checkout's ``src/``, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no library sources under {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def ignore_soundness_warnings() -> None:
    """Faithful answers over aggregate attributes warn by design."""
    import warnings

    from repro.errors import SoundnessWarning

    warnings.simplefilter("ignore", SoundnessWarning)


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default method)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return quantile(values, 0.5)


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def children_cpu_seconds() -> float:
    """CPU seconds of reaped child processes (process-pool workers)."""
    t = os.times()
    return t.children_user + t.children_system


def machine_facts() -> dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


@dataclass
class Outcome:
    """What one workload run measured.

    ``metrics`` maps a metric name to ``(value, unit, samples)``;
    ``wrong`` lists the answers that failed their check and ``errors``
    the operations that failed, were refused or timed out.
    """

    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    properties: dict[str, object] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit, int(samples))


def print_report(workload: str, outcome: Outcome) -> None:
    """Human-readable lines: every metric with its unit and sample count."""
    print(f"== {workload}")
    for name, (value, unit, samples) in outcome.metrics.items():
        print(f"  {name:<32} {value:>14.4f} {unit:<9} n={samples}")
    for line in outcome.wrong[:20]:
        print(f"  WRONG: {line}")
    for line in outcome.errors[:20]:
        print(f"  FAILED: {line}")
    print("  properties: " + json.dumps(outcome.properties, sort_keys=True))
    sys.stdout.flush()


def print_result(outcome: Outcome, names: list[str]) -> None:
    """The last stdout line: the JSON result object (correct, attempted,
    failed and the metrics by name, each with value and unit)."""
    metrics = {}
    for name in names:
        value, unit, _ = outcome.metrics[name]
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": not outcome.wrong,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    sys.stdout.flush()
