"""Entry point of the resfu benchmark.

    python3 perfbench/run.py --workload ratio4_256 --seed 0 --seconds 30 --trace 0

``--workload all`` runs every workload in turn.  resfu is imported from the
``src/`` directory next to this one, never from an installed copy, so a
directory without the sources fails instead of measuring something else.
The last line of stdout is one JSON object: correct, attempted, failed and
the metrics (end-to-end ones with ``--trace 0``, per-stage ones with
``--trace 1``).
"""

import os
import sys
import time
from pathlib import Path


def main() -> int:
    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    # One BLAS thread: every workload runs resfu with threads=1, and on a
    # small shared box more BLAS threads measured no faster, only noisier.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(here), str(src)]
    start = time.perf_counter()
    try:
        import harness
    except ImportError as err:
        print(f"error: cannot import resfu from {src}: {err}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    resfu_dir = Path(harness.resfu.__file__).resolve().parent
    if resfu_dir.parent != src:
        print(f"error: resfu was imported from {resfu_dir}, not from {src}", file=sys.stderr)
        return 2
    return harness.main(sys.argv[1:], import_s)


if __name__ == "__main__":
    sys.exit(main())
