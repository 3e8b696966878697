import multiprocessing

import numpy as np
import pytest

from sdlab import arith


@pytest.fixture(scope="session")
def sieve_1e6():
    return arith.build_sieve(10**6)


@pytest.fixture(scope="session")
def sieve_1e5():
    return arith.build_sieve(10**5)


@pytest.fixture(scope="session")
def chi3():
    return arith.quadratic_character(3)


@pytest.fixture(scope="session")
def chi4():
    return arith.quadratic_character(4)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(autouse=True)
def no_stray_processes():
    """Every test leaves no child process running: the window engine shuts
    its worker pool down before it returns, also when a worker raised."""
    yield
    assert multiprocessing.active_children() == []
