"""Coverage floor gate over a Cobertura ``coverage.xml`` (stdlib only).

Run by the CI test job after ``pytest --cov=repro --cov-report=xml``::

    python tools/check/coverage_gate.py coverage.xml

Two floors are enforced:

* **Overall line coverage** >= ``OVERALL_FLOOR``. Calibrated from a
  measured baseline (offline settrace estimate ~95% at the time the
  gate was introduced) minus headroom for platform variance — ratchet
  it upward as the suite grows, never downward to absorb a regression.
* **Per-file floors** in ``FILE_FLOORS``: the dominance-index layer is
  the correctness-critical pruning code, the cost model decides every
  ``algorithm="auto"`` pick, the hop kernel in ``relational/join.py``
  decides which rows join for every two-way join and cascade hop,
  ``core/categorize.py`` decides every fate-table label and every
  cascade pruning for every join kind, and the verifier in
  ``core/verify.py`` decides every Algorithm 2/3 and pruned-cascade
  verification, so each of these files is held near-complete
  regardless of where the overall average sits.

Exit status is non-zero on any violation; the per-file table is always
printed so the CI log doubles as the coverage artifact summary.
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET

OVERALL_FLOOR = 0.90
FILE_FLOORS = {
    "repro/core/categorize.py": 0.95,
    "repro/core/cost.py": 0.95,
    "repro/core/index.py": 0.95,
    "repro/core/verify.py": 0.95,
    "repro/relational/join.py": 0.95,
}


def file_rates(root: ET.Element) -> dict[str, tuple[int, int]]:
    """``{source-relative filename: (covered, valid)}`` line counts."""
    rates: dict[str, tuple[int, int]] = {}
    for cls in root.iter("class"):
        filename = cls.get("filename", "")
        lines = cls.find("lines")
        if lines is None:
            continue
        valid = covered = 0
        for line in lines.iter("line"):
            valid += 1
            if int(line.get("hits", "0")) > 0:
                covered += 1
        old_covered, old_valid = rates.get(filename, (0, 0))
        rates[filename] = (old_covered + covered, old_valid + valid)
    return rates


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(f"usage: {argv[0]} coverage.xml", file=sys.stderr)
        return 2
    root = ET.parse(argv[1]).getroot()
    rates = file_rates(root)
    total_covered = sum(covered for covered, _ in rates.values())
    total_valid = sum(valid for _, valid in rates.values())
    overall = total_covered / total_valid if total_valid else 0.0

    failures = []
    for filename, floor in sorted(FILE_FLOORS.items()):
        match = next(
            (rates[name] for name in rates if name.endswith(filename) or name == filename),
            None,
        )
        if match is None:
            failures.append(f"{filename}: not present in {argv[1]}")
            continue
        covered, valid = match
        rate = covered / valid if valid else 0.0
        status = "ok" if rate >= floor else "FAIL"
        print(f"{filename}: {rate:.1%} (floor {floor:.0%}) [{status}]")
        if rate < floor:
            failures.append(f"{filename}: {rate:.1%} < floor {floor:.0%}")

    status = "ok" if overall >= OVERALL_FLOOR else "FAIL"
    print(f"overall: {overall:.1%} (floor {OVERALL_FLOOR:.0%}) [{status}]")
    if overall < OVERALL_FLOOR:
        failures.append(f"overall: {overall:.1%} < floor {OVERALL_FLOOR:.0%}")

    if failures:
        print("coverage gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
