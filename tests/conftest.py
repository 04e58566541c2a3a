import numpy as np
import pytest

import spherelok as sl


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
