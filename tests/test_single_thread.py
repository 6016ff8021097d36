"""The kernel reference checks once more with one BLAS thread: the sector
gauge's bits, the stencil's lattice shift against SampledMap.sample, the
lattice gathers and the inscribed ellipses' batch independence.

The benchmark runs with OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1, and tier-1
with the default thread count.  These kernels are elementwise, so their bits
depend on neither setting; a kernel that came to call BLAS could round
differently under one of the two, and would pass in one and fail in the other.
"""

import os
import subprocess
import sys

import qcreparam as qc

TESTS = os.path.dirname(os.path.abspath(__file__))


def test_kernel_references_hold_single_threaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(qc.__file__)))
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, TESTS]))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         os.path.join(TESTS, "test_seminorm.py") + "::TestSampledGauge",
         os.path.join(TESTS, "test_seminorm.py") + "::TestInscribedEllipses",
         os.path.join(TESTS, "test_field.py")
         + "::TestEstimateDerivative::test_stencil_shift_matches_sample",
         os.path.join(TESTS, "test_lattice.py")],
        cwd=os.path.dirname(TESTS), env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
