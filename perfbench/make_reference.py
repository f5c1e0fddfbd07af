"""Writes reference.json: the fingerprint of each workload's output at the
default seed, which every default-seed run compares against within 1e-5.

    python3 perfbench/make_reference.py

Regenerate it only for an intended change of the numerics that moves
outputs beyond that tolerance, and say so where the change is described.
"""

import json
import shutil
import sys
from pathlib import Path

here = Path(__file__).resolve().parent
sys.path[:0] = [str(here), str(here.parent / "src")]

import harness  # noqa: E402


def main() -> int:
    workdir = harness.ROOT / f"{harness.SCRATCH_PREFIX}reference"
    workdir.mkdir(parents=True, exist_ok=True)
    references = {}
    try:
        for name, workload in harness.WORKLOADS.items():
            case = harness.Case(workload, harness.DEFAULT_SEED, workdir)
            references[name] = harness.fingerprint(case.output(case.call()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [f"{json.dumps(name)}: {json.dumps(ref)}" for name, ref in references.items()]
    harness.REFERENCE_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {harness.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
