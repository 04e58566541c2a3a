import os
import threading
import time
import warnings

import numpy as np
import pytest

import spherelok as sl
from spherelok import jacobi_blocks

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

    get.plans = cache.values()
    return get


@pytest.fixture
def rng():
    return np.random.default_rng(1337)


@pytest.fixture(autouse=True)
def _no_shared_analysis(plan_cache):
    """Each test starts without this thread's last shared analysis.

    Session-scoped plans and the fixed ``rng`` seed would otherwise let a
    test reuse the analysis an earlier test left, so that its pass counts
    depended on the order the tests ran in.  Each session plan drops this
    thread's work buffers, which hold its last shared analysis.
    """
    for plan in plan_cache.plans:
        vars(plan._local).clear()


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


@pytest.fixture
def piped():
    """A function that returns a /dev/fd path to a pipe a thread fills with bytes.

    The thread writes the first 20 bytes 5 at a time, with pauses, so that a
    reader's first reads come back short, then the rest, and closes the pipe.
    """
    if not os.path.isdir("/dev/fd"):
        pytest.skip("no /dev/fd")
    ends, threads = [], []

    def pipe(data: bytes) -> str:
        r, w = os.pipe()
        ends.append(r)

        def write():
            try:
                with open(w, "wb") as fh:
                    for chunk in (*(data[i : i + 5] for i in range(0, 20, 5)), data[20:]):
                        fh.write(chunk)
                        fh.flush()
                        time.sleep(0.005)
            except BrokenPipeError:  # the reader stopped early
                pass

        threads.append(threading.Thread(target=write))
        threads[-1].start()
        return f"/dev/fd/{r}"

    yield pipe
    for r in ends:
        os.close(r)
    for thread in threads:
        thread.join()
