from functools import cache, partial

import mpmath
import numpy as np
import pytest

from tccss.io_cli import figure_spectrum
from tccss.soliton import Family, SpectrumConfig, eval_fields_array


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


# `*_fields` fixtures are batched maps (x[], t[]) -> (P, 3).

@pytest.fixture(scope="session")
def one_soliton_fields(one_soliton_cfg):
    return partial(eval_fields_array, one_soliton_cfg)


@pytest.fixture(scope="session")
def two_soliton_fields(two_soliton_cfg):
    return partial(eval_fields_array, two_soliton_cfg)


@pytest.fixture
def zero_fields():
    def f(x, t):
        return np.zeros((np.broadcast(x, t).size, 3), dtype=complex)

    return f


def max_field_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def reference_fields(cfg: SpectrumConfig):
    """(x, t) -> (u1, u2, u3) from the kernel-vector formula, transcribed in
    mpmath at the working precision: thetas, flowed seeds, the mirrored
    Type I vectors, the Gram matrix M, `lu_solve` and
    u_m = 2i sum_k (v_k)_m (M^-1 vhat_7)_k for m in rows 1, 3, 5.
    No exponential stabilization is needed at 40 digits near the origin.
    The test suite's one high-precision oracle: it shares no arithmetic
    with the library."""
    zeros = [mpmath.mpc(z.real, z.imag) for z in cfg.zeros]
    seeds = []
    for s in cfg.seeds:
        if cfg.family is Family.TYPE_I:
            entries = [s.alpha, s.beta, s.gamma, s.mu, s.rho, s.delta]
        else:
            entries = [c for v in (s.alpha, s.gamma, s.rho) for c in (v, complex(v).conjugate())]
        seeds.append([mpmath.mpc(complex(c).real, complex(c).imag) for c in entries] + [mpmath.mpc(1)])

    @cache
    def fields(x, t, prec):
        cols = []
        for lam, seed in zip(zeros, seeds):
            th = 1j * lam * x + 4j * lam ** 3 * t
            cols.append([c * mpmath.exp(th) for c in seed[:6]] + [seed[6] * mpmath.exp(-th)])
        lams = list(zeros)
        if cfg.family is Family.TYPE_I:
            swap = (1, 0, 3, 2, 5, 4, 6)
            cols += [[mpmath.conj(v[swap[i]]) for i in range(7)] for v in list(cols)]
            lams += [-mpmath.conj(z) for z in zeros]
        m = len(cols)
        gram = mpmath.matrix(m, m)
        for k in range(m):
            for j in range(m):
                dot = mpmath.fsum(mpmath.conj(cols[k][i]) * cols[j][i] for i in range(7))
                gram[k, j] = dot / (lams[j] - mpmath.conj(lams[k]))
        y = mpmath.lu_solve(gram, mpmath.matrix([mpmath.conj(v[6]) for v in cols]))
        return [2j * mpmath.fsum(cols[k][row] * y[k] for k in range(m)) for row in (0, 2, 4)]

    return lambda x, t: fields(x, t, mpmath.mp.prec)


def reference_array(cfg: SpectrumConfig, x, t, dps: int = 40) -> np.ndarray:
    """`reference_fields` at the points (x[p], t[p]) at `dps` digits, rounded
    to a (P, 3) complex array."""
    ref = reference_fields(cfg)
    with mpmath.workdps(dps):
        return np.array([
            [complex(v) for v in ref(mpmath.mpf(float(xp)), mpmath.mpf(float(tp)))]
            for xp, tp in zip(np.ravel(x), np.ravel(t))
        ])
