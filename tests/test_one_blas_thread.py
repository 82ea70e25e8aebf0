"""The bit-identity pins hold at one BLAS thread as at the default count.

A parallel BLAS reduction may sum in another order than a serial one, so
results pinned bit for bit could depend on the host's core count. The
frozen pins and the train oracle are rerun in a child process whose
OpenBLAS reads ``OPENBLAS_NUM_THREADS=1`` when it loads.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_pins_hold_at_one_blas_thread():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_frozen.py", "tests/test_trainer.py::TestTrainOracle"],
        cwd=ROOT, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
