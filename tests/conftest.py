import multiprocessing
import threading

import numpy as np
import pytest
from hypothesis import settings

import oracles
from sdlab import arith

# Every run draws the same Hypothesis examples, so a failing property
# reproduces; each test's own max_examples and deadline still apply.
settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")


@pytest.fixture(scope="session")
def sieve_1e6():
    return oracles.build_sieve(10**6)


@pytest.fixture(scope="session")
def sieve_1e5():
    return oracles.build_sieve(10**5)


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


@pytest.fixture(autouse=True)
def no_stray_threads():
    """Every test leaves no thread running: the vector kernels shut their
    thread pools down before they return.  The window engine falls back to
    one process while other threads run, so a leaked thread would quietly
    halve its speed."""
    before = set(threading.enumerate())
    yield
    assert [t for t in threading.enumerate() if t not in before] == []
