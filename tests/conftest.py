import numpy as np
import pytest

from holeflow.fixtures import icosphere, make_fixture
from holeflow.geom import coordinate_plane
from holeflow.kernels import make_profile

from helpers import square_sheet

EPS = 0.05


@pytest.fixture(scope="session")
def t_plane():
    return coordinate_plane([0, 1], 3)


@pytest.fixture(scope="session")
def profile_01():
    return make_profile(0.1)


@pytest.fixture(scope="session")
def sphere4():
    return icosphere(4)


@pytest.fixture(scope="session")
def stack_q2_level5():
    return make_fixture("flat_stack", 2, 5, radius=4 * EPS, spacing=0.0)


@pytest.fixture(scope="session")
def flat_square():
    return square_sheet(2.0, 4)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
