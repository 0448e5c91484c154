"""The linear algebra of the construction: the stacked `M` solve of
`soliton.solve_M` with its condition screen, the refusal rule of
`soliton.check_M`, and the determinants of the structure matrices that
the RH checks rely on."""

import warnings

import numpy as np
import pytest

from tccss import soliton
from tccss.io_cli import figure_config
from tccss.soliton import (
    MAX_CONDITION,
    NearSingularError,
    NonFiniteFieldError,
    check_M,
    eval_fields_array,
    solve_M,
)
from tccss.structure import SIGMA, SIGMA3


def rand_matrix(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def at_points(p):
    """(x, t) labels for a stack of p matrices: x = 0, 1, ..., t = 0.5."""
    return np.arange(p, dtype=float), np.full(p, 0.5)


class TestConstruction:
    def test_rejects_nan(self):
        m = np.array([[[np.nan, 0], [0, 1]]], dtype=complex)
        with pytest.raises(NonFiniteFieldError, match="non-finite"):
            check_M(m, *at_points(1))

    def test_rejects_inf_imag(self):
        m = np.array([np.eye(2), [[1, 0], [0, 1j * np.inf]]])
        with pytest.raises(NonFiniteFieldError, match=r"\(x, t\) = \(1, 0.5\)"):
            solve_M(m, np.ones((2, 2, 1)), *at_points(2))


class TestMatmul:
    def test_sigma3_squares_to_identity(self):
        assert np.array_equal(SIGMA3 @ SIGMA3, np.eye(7))
        assert np.array_equal(SIGMA @ SIGMA, np.eye(7))


class TestLuSolve:
    def test_identity_system(self):
        rng = np.random.default_rng(0)
        b = rand_matrix(rng, 4, 2)[None]
        x, _ = solve_M(np.eye(4, dtype=complex)[None], b, *at_points(1))
        assert np.allclose(x, b, atol=0)

    def test_diagonal_inverse(self):
        a = np.diag([2j, -1j])[None]
        x, inv = solve_M(a, np.eye(2, dtype=complex)[None], *at_points(1))
        assert np.allclose(x[0], np.diag([-0.5j, 1j]), atol=1e-15)
        assert np.allclose(inv[0], np.diag([-0.5j, 1j]), atol=1e-15)

    def test_scalar_inverse_from_one_soliton_m11(self):
        # M11 = 29 / (2i) for the unit-seed (1, 2, 3) one-soliton at the origin
        x, _ = solve_M(np.array([[[29 / 2j]]]), np.array([[[1.0 + 0j]]]), *at_points(1))
        assert abs(x[0, 0, 0] - 2j / 29) < 1e-16

    def test_residual_contract(self):
        rng = np.random.default_rng(11)
        a = np.array([rand_matrix(rng, 6) for _ in range(20)])
        a = a[np.linalg.cond(a) <= 1e6]
        b = np.array([rand_matrix(rng, 6, 3) for _ in range(len(a))])
        x, _ = solve_M(a, b, *at_points(len(a)))
        for ap, bp, xp in zip(a, b, x):
            resid = np.max(np.abs(ap @ xp - bp))
            assert resid <= 1e-12 * np.max(np.abs(ap)) * max(np.max(np.abs(xp)), 1.0)

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(2)
        a = np.array([rand_matrix(rng, 7) for _ in range(20)])
        a = a[np.linalg.cond(a) <= 1e6]
        # no right-hand side: the inverse alone, as `build_rh_pair` takes it
        y, inv = solve_M(a, np.zeros(a.shape[:2] + (0,), dtype=complex), *at_points(len(a)))
        assert y.shape == (len(a), 7, 0)
        assert np.max(np.abs(a @ inv - np.eye(7))) < 1e-10

    def test_singular_zero_matrix(self):
        with pytest.raises(NearSingularError, match=r"\(x, t\) = \(0, 0.5\)"):
            with np.errstate(invalid="ignore", divide="ignore"):
                solve_M(np.zeros((1, 3, 3), dtype=complex), np.eye(3)[None], *at_points(1))

    def test_singular_rank_one(self):
        # the refusal names the worst point of the stack, here the second
        a = np.array([np.eye(2), [[1, 1], [1, 1]]], dtype=complex)
        with pytest.raises(NearSingularError, match=r"\(x, t\) = \(1, 0.5\)"):
            solve_M(a, np.ones((2, 2, 1)), *at_points(2))
        # a stack just inside the bound is accepted
        check_M(np.diag([1.0, 1.0 / (0.5 * MAX_CONDITION)])[None], *at_points(1))

    def test_row_swaps_match_per_matrix_solve(self):
        # the first two need a row swap, the other three none
        a = np.array(
            [[[1e-20, 1], [1, 1]], [[0, 1], [1, 0]], [[2, 1], [1, 3j]], np.eye(2), [[1, 1e-20], [0, 1]]],
            dtype=complex,
        )
        b = np.array([[[1, 2j], [3, -1]]] * len(a), dtype=complex)
        y, inv = solve_M(a, b, *at_points(len(a)))
        for ap, bp, yp, xp in zip(a, b, y, inv):
            for got, ref in ((yp, np.linalg.solve(ap, bp)), (xp, np.linalg.solve(ap, np.eye(2)))):
                assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n, k", [(1, 0), (2, 1), (3, 2), (4, 1)])
    def test_same_bits_alone_as_in_stack(self, n, k):
        # the elimination is per point, so the stack size cannot move the bits
        rng = np.random.default_rng(n)
        a = np.array([rand_matrix(rng, n) for _ in range(1000)])
        b = np.array([rand_matrix(rng, n, k) for _ in range(1000)])
        y, inv = solve_M(a, b, *at_points(1000))
        for p in range(1000):
            yp, xp = solve_M(a[p:p + 1], b[p:p + 1], *at_points(1))
            assert yp.tobytes() == y[p:p + 1].tobytes() and xp.tobytes() == inv[p:p + 1].tobytes()

    def test_singular_matrix_in_large_stack(self):
        # an exactly zero pivot at point 500: the SVD refuses it, with no warning
        rng = np.random.default_rng(4)
        m = np.array([random_unitary(rng, 4) for _ in range(1000)])
        m[500] = np.ones((4, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NearSingularError, match=r"\(x, t\) = \(500, 0.5\)"):
                solve_M(m, np.ones((1000, 4, 1)), *at_points(1000))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_M(np.eye(3)[None], np.zeros((1, 4, 1)), *at_points(1))
        with pytest.raises(ValueError):
            solve_M(np.eye(2, 3)[None], np.zeros((1, 2, 1)), *at_points(1))


class TestDet:
    def test_swap_involution_is_odd(self):
        # three disjoint transpositions, each contributing a factor -1
        assert abs(np.linalg.det(SIGMA) - (-1.0)) < 1e-15
        assert np.linalg.det(SIGMA3) == -1.0


def figure_M_stacks(fig_id, monkeypatch):
    """Every M of figure `fig_id`'s export grid as the batched kernel solves it."""
    seen = []

    def spy(m, rhs, x, t):
        seen.append(m)
        return solve_M(m, rhs, x, t)

    monkeypatch.setattr(soliton, "solve_M", spy)
    cfg = figure_config(fig_id)
    x, t = (a.ravel() for a in np.meshgrid(cfg.grid.xs(), cfg.grid.ts()))
    eval_fields_array(cfg.spectrum, x, t)
    return np.concatenate(seen)


def frobenius_bound(m):
    """|M|_F |M^-1|_F per matrix of a stack: an upper bound on cond(M)."""
    return np.linalg.norm(m, axis=(1, 2)) * np.linalg.norm(np.linalg.inv(m), axis=(1, 2))


@pytest.fixture
def cond_calls(monkeypatch):
    calls = []
    cond = np.linalg.cond

    def spy(m):
        calls.append(m)
        return cond(m)

    monkeypatch.setattr(np.linalg, "cond", spy)
    return calls


class TestConditionScreen:
    """`solve_M` clears a stack by |M|_F |M^-1|_F from its own solve and
    leaves every stack that screen does not clear to the SVD of `check_M`."""

    @pytest.mark.parametrize("fig_id", [1, 2, 3, 4])
    def test_figure_stacks(self, fig_id, monkeypatch, cond_calls):
        m = figure_M_stacks(fig_id, monkeypatch)
        # every M of the construction is anti-Hermitian, so its singular
        # values are the moduli of the eigenvalues of the Hermitian iM
        skew = np.max(np.abs(m + np.conj(np.swapaxes(m, 1, 2))), axis=(1, 2))
        assert np.all(skew <= 1e-15 * np.max(np.abs(m), axis=(1, 2)))
        w = np.abs(np.linalg.eigvalsh(1j * m))
        s = np.linalg.svd(m, compute_uv=False)
        assert np.allclose(w.max(axis=1) / w.min(axis=1), s[:, 0] / s[:, -1], rtol=1e-10, atol=0)
        assert np.all(frobenius_bound(m) < 0.5 * MAX_CONDITION)
        solve_M(m, np.ones(m.shape[:2] + (1,), dtype=complex), *at_points(len(m)))
        assert cond_calls == []  # neither the kernel nor solve_M fell back to the SVD

    def test_svd_decides_beyond_screen(self, cond_calls):
        # cond 0.75e14: above the screen's MAX_CONDITION / 2, inside the bound
        rhs = np.ones((1, 2, 1), dtype=complex)
        solve_M(1j * np.diag([1.0, 1.0 / (0.75 * MAX_CONDITION)])[None], rhs, *at_points(1))
        assert len(cond_calls) == 1
        m = np.array([np.eye(2), np.diag([1.0, 1.0 / (2 * MAX_CONDITION)])]) * 1j
        with pytest.raises(NearSingularError, match=r"\(x, t\) = \(1, 0.5\)"):
            solve_M(m, np.ones((2, 2, 1)), *at_points(2))
        assert len(cond_calls) == 2

    def test_not_anti_hermitian_goes_to_svd(self, cond_calls):
        # singular and not anti-Hermitian: the solve fails, the SVD refuses
        with pytest.raises(NearSingularError):
            solve_M(np.ones((1, 2, 2), dtype=complex), np.ones((1, 2, 1)), *at_points(1))
        assert len(cond_calls) == 1

    def test_all_zero_not_screened(self, cond_calls):
        with pytest.raises(NearSingularError):
            with np.errstate(invalid="ignore", divide="ignore"):
                solve_M(np.zeros((1, 2, 2), dtype=complex), np.ones((1, 2, 1)), *at_points(1))
        assert len(cond_calls) == 1


def random_unitary(rng, n):
    q, r = np.linalg.qr(rand_matrix(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestScreenSoundness:
    """The screen accepts nothing the SVD would refuse: random stacks
    U diag(s) V^H with cond(M) log-uniform in [1e8, 1e18]."""

    @pytest.mark.parametrize("anti_hermitian", [False, True])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_refuses_exactly_above_bound(self, n, anti_hermitian):
        rng = np.random.default_rng(100 * n + anti_hermitian)
        for _ in range(40):
            log_cond = rng.uniform(8, 18)
            s = 10.0 ** -np.sort(rng.uniform(0, log_cond, n))
            if n > 1:
                s[[0, -1]] = 1.0, 10.0 ** -log_cond
            s *= 10.0 ** rng.uniform(-3, 3)
            u = random_unitary(rng, n)
            if anti_hermitian:
                m = 1j * (u * (s * rng.choice([-1.0, 1.0], n))) @ u.conj().T
            else:
                m = (u * s) @ random_unitary(rng, n).conj().T
            b = rand_matrix(rng, n, 2)
            if np.linalg.cond(m) > MAX_CONDITION:
                with pytest.raises(NearSingularError, match=r"\(x, t\) = \(0, 0.5\)"):
                    solve_M(m[None], b[None], *at_points(1))
                continue
            y = solve_M(m[None], b[None], *at_points(1))[0][0]
            resid = np.max(np.abs(m @ y - b))
            assert resid <= 1e-12 * np.max(np.abs(m)) * max(np.max(np.abs(y)), 1.0)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_extreme_scale_goes_to_svd_quietly(self, scale, cond_calls):
        # |M|_F^2 |X|_F^2 is inf * 0 here: the SVD accepts, with no warning
        m = scale * 1j * np.array([[[2.0, 1.0], [1.0, -3.0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, _ = solve_M(m, np.ones((1, 2, 1)), *at_points(1))
        assert np.allclose(m[0] @ y[0], 1.0, rtol=1e-14, atol=0)
        assert len(cond_calls) == 1

    def test_failed_solve_names_the_singular_point(self):
        m = np.array([np.eye(3), 2 * np.eye(3), np.ones((3, 3))], dtype=complex)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(m, np.ones((3, 3, 1)))
        with pytest.raises(NearSingularError, match=r"\(x, t\) = \(2, 0.5\)"):
            solve_M(m, np.ones((3, 3, 1)), *at_points(3))

    def test_one_bad_matrix_names_its_point(self):
        rng = np.random.default_rng(5)
        m = np.array([random_unitary(rng, 4) for _ in range(5)])
        m[3] = m[3] @ np.diag([1.0, 1.0, 1.0, 1e-16])
        with pytest.raises(NearSingularError, match=r"\(x, t\) = \(3, 0.5\)"):
            solve_M(m, rand_matrix(rng, 4, 1)[None].repeat(5, axis=0), *at_points(5))
