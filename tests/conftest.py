"""Test-session set-up: BLAS and OpenMP pools pinned to one thread.

The variables take effect only if they are set before numpy is first
imported, as perfbench/run.py does for the benchmark; pytest imports this
file before any test module. Timing bounds in the suite (criterion 5's wall
clock among them) were measured with one thread.
"""

import os
import sys
import warnings

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if "numpy" in sys.modules:
    warnings.warn("numpy was imported before tests/conftest.py, so its BLAS "
                  "thread count may not be pinned to 1", RuntimeWarning, stacklevel=1)
for _var in THREAD_VARS:
    os.environ[_var] = "1"
