"""Hard spectra: the field kernel and every jet order against the
high-precision reference of `conftest`, where M is ill-conditioned.

Each bound is about ten times the error measured with the elimination on
the kernel vectors, relative to the largest reference value of the row; the
bundled figures keep their own bounds in `test_soliton.py`.
"""

import mpmath
import numpy as np
import pytest

from conftest import reference_array, reference_fields
from tccss.soliton import Family, SpectrumConfig, TypeISeed, TypeIISeed, eval_fields_array, eval_jets_array


def type_ii(*zeros_seeds):
    return SpectrumConfig(
        Family.TYPE_II, tuple(1j * eta for eta, _ in zeros_seeds), tuple(TypeIISeed(*s) for _, s in zeros_seeds)
    )


# the Type I N = 3 spectrum whose samples span all six channel directions
FULL_RANK = SpectrumConfig(
    Family.TYPE_I,
    (0.5 + 0.5j, 0.4 + 0.6j, -0.3 + 0.55j),
    (TypeISeed(1, 1, 1, 1, 1, 0), TypeISeed(1, 0, 2, 0, 0, 0), TypeISeed(0.5j, 1, 0, 1j, 1, 0.5)),
)

# eight zeros: more rows than the six field channels, which run in the identity basis
TYPE_II_N8 = type_ii(*zip(
    np.linspace(0.4, 1.2, 8), map(tuple, np.random.default_rng(0).standard_normal((8, 3, 2)) @ np.array([1, 1j]))
))

# name: (spectrum, digits of the reference, x, t, field bound, jet bound)
CORPUS = {
    "full_rank": (FULL_RANK, 40, np.linspace(-10, 10, 17), 0.0, 5e-14, 5e-14),
    "type_ii_n4": (
        type_ii((0.3, (1, 2, 3)), (0.6, (1j, 0.5j, 1j)), (0.9, (2, -1, 1j)), (1.2, (0.5, 1, -1))),
        40, np.linspace(-10, 10, 17), 0.1, 4e-14, 3e-13,
    ),
    "pair_1e-2": (type_ii((1.0, (1, 2, 3)), (1.01, (1, 2, 3))), 60, np.linspace(-8, 8, 17), 0.1, 1.5e-13, 1.5e-12),
    "pair_1e-4": (type_ii((1.0, (1, 2, 3)), (1.0001, (1, 2, 3))), 60, np.linspace(-8, 8, 17), 0.1, 1.5e-11, 3e-10),
    "pair_1e-6": (type_ii((1.0, (1, 2, 3)), (1.000001, (1, 2, 3))), 60, np.linspace(-8, 8, 17), 0.1, 1e-9, 6e-8),
    # a bell of width 1 / eta, at 17 points across +-8 widths and at t = 0.1 widths^3
    **{f"bell_{eta:g}": (type_ii((eta, (1, 2, 3))), 40, np.linspace(-8, 8, 17) / eta, 0.1 / eta ** 3, 2e-15, 2e-14)
       for eta in (0.2, 2, 5, 20)},
    "type_ii_n8": (TYPE_II_N8, 40, np.linspace(-20, 20, 17), 0.0, 1e-12, 4e-12),
}


@pytest.mark.parametrize("name", CORPUS)
def test_fields(name):
    cfg, dps, x, t, bound, _ = CORPUS[name]
    t = np.full_like(x, t)
    ref = reference_array(cfg, x, t, dps)
    assert np.max(np.abs(eval_fields_array(cfg, x, t) - ref)) <= bound * np.max(np.abs(ref))


@pytest.mark.parametrize("name", CORPUS)
def test_jets(name):
    # every jet order at 5 of the points against mpmath.diff of the reference
    cfg, dps, x, t, _, bound = CORPUS[name]
    x = x[::4]
    t = np.full_like(x, t)
    ref = reference_fields(cfg)
    jets = eval_jets_array(cfg, x, t)
    assert np.max(np.abs(jets[0] - reference_array(cfg, x, t, dps))) <= bound * np.max(np.abs(jets[0]))
    with mpmath.workdps(dps):
        for index, (axis, n) in enumerate((("x", 1), ("x", 2), ("x", 3), ("t", 1)), start=1):
            want = np.array([
                [complex(mpmath.diff(
                    (lambda s: ref(s, mpmath.mpf(tp))[c]) if axis == "x"
                    else (lambda s: ref(mpmath.mpf(xp), s)[c]),
                    mpmath.mpf(xp if axis == "x" else tp), n,
                )) for c in range(3)]
                for xp, tp in zip(x, t)
            ])
            assert np.max(np.abs(jets[index] - want)) <= bound * np.max(np.abs(want)), (axis, n)
