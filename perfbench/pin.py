"""Pin the reference outputs the benchmark checks against.

    python3 perfbench/pin.py

Runs one pass of every block of every workload and writes
``perfbench/reference/<workload>.json``. Re-pin only when a change is meant
to alter results, and say so in the change. Rows that are NaN or whose
allocation is infeasible are refused, since the reference must pass its
own check.
"""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import REFERENCE_DIR, WORKLOADS  # noqa: E402


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, cls in WORKLOADS.items():
        pinned = {}
        for block in range(getattr(cls, "BLOCKS", 1)):
            with cls(block) as workload:
                for key, entries in workload.pinned(workload.run_pass()).items():
                    pinned.setdefault(key, {}).update(entries)
        reference = {"workload": name, **pinned}
        (REFERENCE_DIR / f"{name}.json").write_text(json.dumps(reference, indent=1) + "\n")
        # the pinned data must satisfy the benchmark's own check
        for block in range(getattr(cls, "BLOCKS", 1)):
            with cls(block) as workload:
                check = workload.check(workload.run_pass())
                if check.failed:
                    raise RuntimeError(f"{name} block {block}: {check.reasons}")
        print(f"pinned {name}: {sum(len(v) for v in pinned.values())} entries", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
