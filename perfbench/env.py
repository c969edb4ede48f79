"""Process set-up shared by the benchmark's entry points.

Call `limit_blas_threads` before numpy is imported: OpenBLAS reads its
thread count once, when it loads.
"""
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def limit_blas_threads() -> int:
    """Cap every BLAS/OpenMP pool at the CPUs this process may run on."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def import_program():
    """Import pitchkit from the checkout's own src/, never from elsewhere."""
    init = os.path.join(SRC, "pitchkit", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"perfbench: no program source at {init}; run from a checkout "
                 f"of the repository")
    sys.path.insert(0, SRC)
    import pitchkit
    if os.path.abspath(pitchkit.__file__) != init:
        sys.exit(f"perfbench: imported pitchkit from {pitchkit.__file__}, "
                 f"not from {SRC}")
    return pitchkit
