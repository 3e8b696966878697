import importlib
import inspect

import pytest

from sdlab import arith, contourlab, intervals, sdexpand

MODULES = (
    "sdlab",
    "sdlab.arith",
    "sdlab.cli",
    "sdlab.contourlab",
    "sdlab.intervals",
    "sdlab.powerseries",
    "sdlab.sdexpand",
    "sdlab.specfun",
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    assert len(mod.__all__) == len(set(mod.__all__))
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == []


def test_merged_duplicates_stay_gone():
    # one coefficient-stream builder (arith.tau_chi_coeffs), one prime sieve
    # (arith.primes_upto), no uncalled truncated-series G
    assert not hasattr(contourlab, "zl_coeffs")
    assert not hasattr(sdexpand, "DirichletSeriesG")
    assert not hasattr(arith.FactorSieve, "primes")
    assert "sieve" not in inspect.signature(intervals.ddt_mean).parameters
