"""Entry point of the wqisa benchmark; see harness.py for what a run does.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: wqisa is imported from ``src/`` there.
Scratch files and span dumps go to ``.perfbench/``.
"""

import os
import sys
from pathlib import Path

# pinned before numpy is first imported, so BLAS starts one thread
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    here = Path(__file__).resolve().parent
    root = here.parent
    src = root / "src"
    if not (src / "wqisa" / "__init__.py").is_file():
        print(f"error: no wqisa sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(here)]
    import harness

    return harness.main(sys.argv[1:], src, root / ".perfbench")


if __name__ == "__main__":
    sys.exit(main())
