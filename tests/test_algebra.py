"""The linear algebra of the construction: the stacked `M` solve of
`soliton.solve_M`, the refusal rule of `soliton.check_M`, and the
determinants of the structure matrices that the RH checks rely on."""

import numpy as np
import pytest

from tccss import soliton
from tccss.io_cli import figure_config
from tccss.lax import _grid_points
from tccss.soliton import (
    MAX_CONDITION,
    NearSingularError,
    NonFiniteFieldError,
    build_M,
    build_vectors,
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
        x = solve_M(np.eye(4, dtype=complex)[None], b, *at_points(1))
        assert np.allclose(x, b, atol=0)

    def test_diagonal_inverse(self):
        a = np.diag([2j, -1j])[None]
        x = solve_M(a, np.eye(2, dtype=complex)[None], *at_points(1))
        assert np.allclose(x[0], np.diag([-0.5j, 1j]), atol=1e-15)

    def test_scalar_inverse_from_one_soliton_m11(self):
        # M11 = 29 / (2i) for the unit-seed (1, 2, 3) one-soliton at the origin
        x = solve_M(np.array([[[29 / 2j]]]), np.array([[[1.0 + 0j]]]), *at_points(1))
        assert abs(x[0, 0, 0] - 2j / 29) < 1e-16

    def test_residual_contract(self):
        rng = np.random.default_rng(11)
        a = np.array([rand_matrix(rng, 6) for _ in range(20)])
        a = a[np.linalg.cond(a) <= 1e6]
        b = np.array([rand_matrix(rng, 6, 3) for _ in range(len(a))])
        x = solve_M(a, b, *at_points(len(a)))
        for ap, bp, xp in zip(a, b, x):
            resid = np.max(np.abs(ap @ xp - bp))
            assert resid <= 1e-12 * np.max(np.abs(ap)) * max(np.max(np.abs(xp)), 1.0)

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(2)
        a = np.array([rand_matrix(rng, 7) for _ in range(20)])
        a = a[np.linalg.cond(a) <= 1e6]
        eye = np.broadcast_to(np.eye(7, dtype=complex), a.shape)
        inv = solve_M(a, eye, *at_points(len(a)))
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
    """Every M of figure `fig_id`'s export grid as the batched kernel checks
    it, and the pointwise `build_M` at every 61st point of that grid."""
    seen = []

    def spy(m, x, t):
        seen.append(m)
        return check_M(m, x, t)

    monkeypatch.setattr(soliton, "check_M", spy)
    cfg = figure_config(fig_id)
    x, t = _grid_points(cfg.grid)
    eval_fields_array(cfg.spectrum, x, t)
    pointwise = np.array([
        build_M(build_vectors(cfg.spectrum, x[p], t[p]), cfg.spectrum)
        for p in range(0, x.size, 61)
    ])
    return np.concatenate(seen), pointwise


class TestConditionScreen:
    """`check_M` clears anti-Hermitian stacks by the eigenvalues of iM and
    leaves every other stack to the SVD."""

    @pytest.fixture
    def cond_calls(self, monkeypatch):
        calls = []
        cond = np.linalg.cond

        def spy(m):
            calls.append(m)
            return cond(m)

        monkeypatch.setattr(np.linalg, "cond", spy)
        return calls

    @pytest.mark.parametrize("fig_id", [1, 2, 3, 4])
    def test_figure_stacks(self, fig_id, monkeypatch, cond_calls):
        for m in figure_M_stacks(fig_id, monkeypatch):
            skew = np.max(np.abs(m + np.conj(np.swapaxes(m, 1, 2))), axis=(1, 2))
            assert np.all(skew <= 1e-15 * np.max(np.abs(m), axis=(1, 2)))
            w = np.abs(np.linalg.eigvalsh(1j * m))
            s = np.linalg.svd(m, compute_uv=False)
            assert np.allclose(w.max(axis=1) / w.min(axis=1), s[:, 0] / s[:, -1], rtol=1e-10, atol=0)
            check_M(m, *at_points(len(m)))
        assert cond_calls == []  # neither the kernel nor check_M fell back to the SVD

    def test_svd_decides_beyond_screen(self, cond_calls):
        # cond 0.75e14: above the screen's MAX_CONDITION / 2, inside the bound
        check_M(1j * np.diag([1.0, 1.0 / (0.75 * MAX_CONDITION)])[None], *at_points(1))
        assert len(cond_calls) == 1
        m = np.array([np.eye(2), np.diag([1.0, 1.0 / (2 * MAX_CONDITION)])]) * 1j
        with pytest.raises(NearSingularError, match=r"\(x, t\) = \(1, 0.5\)"):
            check_M(m, *at_points(2))
        assert len(cond_calls) == 2

    def test_not_anti_hermitian_goes_to_svd(self, cond_calls):
        # the lower triangle of i [[1, 1], [1, 1]] completes to a Hermitian
        # matrix with eigenvalues +-1, yet M itself is singular
        with pytest.raises(NearSingularError):
            check_M(np.ones((1, 2, 2), dtype=complex), *at_points(1))
        assert len(cond_calls) == 1

    def test_all_zero_not_screened(self, cond_calls):
        with pytest.raises(NearSingularError):
            with np.errstate(invalid="ignore", divide="ignore"):
                check_M(np.zeros((1, 2, 2), dtype=complex), *at_points(1))
        assert len(cond_calls) == 1
