import os

# One BLAS thread, set before numpy loads: the wall-clock checks (criterion
# 7) compare modes, and a second BLAS thread contending with other work on
# the machine would swamp their margins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(0)
