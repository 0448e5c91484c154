from functools import partial

import numpy as np
import pytest

from tccss.io_cli import figure_spectrum
from tccss.soliton import eval_fields, eval_fields_array


@pytest.fixture(scope="session")
def breather_cfg():
    return figure_spectrum(1)


@pytest.fixture(scope="session")
def collision_cfg():
    return figure_spectrum(2)


@pytest.fixture(scope="session")
def one_soliton_cfg():
    return figure_spectrum(3)


@pytest.fixture(scope="session")
def two_soliton_cfg():
    return figure_spectrum(4)


# `*_field` fixtures are pointwise maps (x, t) -> (3,); `*_fields` fixtures
# are batched maps (x[], t[]) -> (P, 3).

@pytest.fixture(scope="session")
def one_soliton_field(one_soliton_cfg):
    return partial(eval_fields, one_soliton_cfg)


@pytest.fixture(scope="session")
def one_soliton_fields(one_soliton_cfg):
    return partial(eval_fields_array, one_soliton_cfg)


@pytest.fixture(scope="session")
def two_soliton_field(two_soliton_cfg):
    return partial(eval_fields, two_soliton_cfg)


@pytest.fixture(scope="session")
def two_soliton_fields(two_soliton_cfg):
    return partial(eval_fields_array, two_soliton_cfg)


@pytest.fixture
def zero_field():
    def f(x, t):
        return np.zeros(3, dtype=complex)

    return f


@pytest.fixture
def zero_fields():
    def f(x, t):
        return np.zeros((np.broadcast(x, t).size, 3), dtype=complex)

    return f


def max_field_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))
