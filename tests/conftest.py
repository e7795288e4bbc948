import os

# One BLAS thread unless the environment says otherwise: threaded BLAS on a
# small machine slows the suite sharply while another process is busy.  Set
# before numpy is first imported, which is when BLAS reads these.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np
import pytest

from kquant import build_grid, potential_from_radial_coeffs, zero_potential


@pytest.fixture(scope="session")
def radial():
    return build_grid("radial", 512)


@pytest.fixture(scope="session")
def radial_small():
    return build_grid("radial", 128)


@pytest.fixture(scope="session")
def grid2d():
    return build_grid("full2d", 96, 64)


@pytest.fixture(scope="session")
def bump(radial):
    return potential_from_radial_coeffs(radial, [0.05, -0.07])


@pytest.fixture(scope="session")
def flat(radial):
    return zero_potential(radial)


def seeded_coeffs(rng, scale=0.05, n=4):
    return list(rng.uniform(-scale, scale, n))
