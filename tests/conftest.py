import copy

import hypothesis
import numpy as np
import pytest

hypothesis.settings.register_profile(
    "suite", max_examples=25, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
hypothesis.settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_su2_matrix(rng) -> np.ndarray:
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    a = v[0] + 1j * v[1]
    b = v[2] + 1j * v[3]
    return np.array([[a, b], [-np.conj(b), np.conj(a)]])


def grid_with(grid, **fields):
    """A copy of a built QuadratureGrid with some fields overridden, node
    arrays included: a grid that no constructor builds, whose nodes may
    disagree with its band."""
    out = copy.copy(grid)
    for name, value in fields.items():
        object.__setattr__(out, name, value)
    return out
