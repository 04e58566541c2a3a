import warnings

import numpy as np
import pytest

import spherelok as sl
from spherelok import jacobi_blocks, transform

# hypothesis imports this module (and with it libcst) on a test's first
# failure.  Under the DeprecationWarning error filter, libcst's import-time
# warning then aborts the whole run with INTERNALERROR; imported here first,
# with that warning ignored, it is already loaded when a failure needs it
try:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
except ImportError:
    pass


@pytest.fixture(scope="session")
def plan_cache():
    """Share built plans across test modules; keyed by (n, m, mode)."""
    cache = {}

    def get(n, m, mode="dense"):
        key = (n, m, mode)
        if key not in cache:
            cache[key] = sl.TransformPlan.build(n, m, mode=mode)
        return cache[key]

    return get


@pytest.fixture
def rng():
    return np.random.default_rng(1337)


@pytest.fixture(autouse=True)
def _no_shared_analysis():
    """Each test starts without this thread's last shared analysis.

    Session-scoped plans and the fixed ``rng`` seed would otherwise let a
    test reuse the analysis an earlier test left, so that its pass counts
    depended on the order the tests ran in.
    """
    vars(transform._last).clear()


@pytest.fixture
def blas_at_two():
    """OpenBLAS's thread-count getter, with the count set to 2 for the test."""
    blas = jacobi_blocks._blas_threads()
    if blas is None:
        pytest.skip("no OpenBLAS thread-count get/set function found")
    get, set_ = blas
    before = get()
    set_(2)
    yield get
    set_(before)
