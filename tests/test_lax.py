from functools import partial

import numpy as np
import pytest

from tccss.io_cli import _coarsen, figure_config, figure_spectrum
from tccss.lax import (
    StencilSpec,
    _differentiate,
    build_Q,
    build_U,
    build_V,
    gauge_transform_and_cnls_residual,
    pde_residual_tccss,
    zero_curvature_residual,
)
from tccss.report import GridSpec, summarize
from tccss.soliton import eval_fields, eval_fields_array
from tccss.structure import SIGMA3


def sample(u1=0.0, u2=0.0, u3=0.0):
    return np.array([u1, u2, u3], dtype=complex)


class TestStencilSpec:
    def test_defaults(self):
        st = StencilSpec()
        assert st.order == 4 and st.hx == 1e-3
        assert StencilSpec(hx=1e-6, ht=1e-6).hx == 1e-6

    @pytest.mark.parametrize("bad", [
        dict(hx=0.0), dict(hx=0.2), dict(ht=-1e-3), dict(order=3),
        # below 1e-6 the third-derivative roundoff alone exceeds every threshold
        dict(hx=1e-30), dict(ht=5e-324), dict(hx=9.9e-7),
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            StencilSpec(**bad)


class TestBuildQ:
    def test_zero_sample(self):
        assert np.max(np.abs(build_Q(sample()))) == 0.0

    def test_template_single_component(self):
        q = build_Q(sample(u1=1.0))
        expect = np.zeros((7, 7), dtype=complex)
        expect[0, 6] = 1.0
        expect[1, 6] = 1.0
        expect[6, 0] = -1.0
        expect[6, 1] = -1.0
        assert np.array_equal(q, expect)

    def test_skew_hermitian_by_construction(self):
        q = build_Q(sample(0.3 - 0.7j, 1.2j, -0.5 + 0.1j))
        assert np.max(np.abs(q.conj().T + q)) == 0.0

    def test_stack_of_triples(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal((2, 4, 3)) + 1j * rng.standard_normal((2, 4, 3))
        q = build_Q(u)
        assert q.shape == (2, 4, 7, 7)
        for i, j in np.ndindex(2, 4):
            assert np.array_equal(q[i, j], build_Q(u[i, j]))


class TestBuildU:
    def test_lambda_zero(self):
        q = build_Q(sample(0.2j, -1.0, 0.5))
        assert np.array_equal(build_U(0.0, q), q)

    def test_zero_potential(self):
        q = build_Q(sample())
        assert np.allclose(build_U(1.0, q), 1j * SIGMA3, atol=0)

    def test_trace(self):
        lam = 0.7 - 0.2j
        q = build_Q(sample(1.0, 2.0, 3e-1j))
        u = build_U(lam, q)
        assert abs(np.trace(u) - 5j * lam) < 1e-14


class TestBuildV:
    def test_zero_potential(self):
        z = build_Q(sample())
        lam = 0.3 + 0.1j
        v = build_V(lam, z, z, z)
        assert np.allclose(v, 4j * lam ** 3 * SIGMA3, atol=0)

    def test_lambda_zero_polynomial_tail(self):
        rng = np.random.default_rng(4)

        def rand_q():
            return build_Q(sample(*(rng.standard_normal(3) + 1j * rng.standard_normal(3))))

        q, qx, qxx = rand_q(), rand_q(), rand_q()
        v = build_V(0.0, q, qx, qxx)
        expect = qx @ q - q @ qx - qxx + 2 * np.linalg.matrix_power(q, 3)
        assert np.allclose(v, expect, atol=1e-14)

    def test_trace_reduces_to_sigma3_part(self):
        rng = np.random.default_rng(6)

        def rand_q():
            return build_Q(sample(*(rng.standard_normal(3) + 1j * rng.standard_normal(3))))

        lam = 1.1 - 0.4j
        v = build_V(lam, rand_q(), rand_q(), rand_q())
        assert abs(np.trace(v - 4j * lam ** 3 * SIGMA3)) < 1e-12


class TestZeroCurvature:
    def test_zero_field(self, zero_field):
        st = StencilSpec()
        assert zero_curvature_residual(zero_field, 0.9 + 0.3j, 0.0, 0.0, st) == 0.0

    def test_one_soliton_small_residual(self, one_soliton_field):
        st = StencilSpec(hx=1e-3, ht=1e-3, order=4)
        r = zero_curvature_residual(one_soliton_field, 0.7 + 0.2j, 0.3, 0.1, st)
        assert r < 1e-6

    def test_lambda_polynomial_exactness(self, one_soliton_field):
        st = StencilSpec()
        for lam in (0.3, 1.1 + 0.4j, -2.0 + 0.1j):
            assert zero_curvature_residual(one_soliton_field, lam, 0.5, -0.2, st) < 1e-6

    def test_halving_ratio_fourth_order(self, one_soliton_field):
        coarse = zero_curvature_residual(
            one_soliton_field, 0.7 + 0.2j, 0.3, 0.1, StencilSpec(hx=0.04, ht=0.04)
        )
        fine = zero_curvature_residual(
            one_soliton_field, 0.7 + 0.2j, 0.3, 0.1, StencilSpec(hx=0.02, ht=0.02)
        )
        assert 10.0 < coarse / fine < 22.0


class TestPdeResidual:
    def test_zero_field(self, zero_fields):
        grid = GridSpec(-1.0, 1.0, 5, 0.0, 0.0, 1)
        report = pde_residual_tccss(zero_fields, grid, StencilSpec())
        assert report.max_abs == 0.0

    def test_one_soliton(self, one_soliton_fields):
        grid = GridSpec(-5.0, 5.0, 21, -0.5, 0.5, 5)
        report = pde_residual_tccss(one_soliton_fields, grid, StencilSpec())
        assert report.max_abs < 1e-5
        assert report.rms <= report.max_abs

    def test_two_soliton(self, two_soliton_fields):
        grid = GridSpec(-5.0, 5.0, 21, -0.5, 0.5, 5)
        report = pde_residual_tccss(two_soliton_fields, grid, StencilSpec())
        assert report.max_abs < 1e-4

    def test_convergence_order_slope(self, one_soliton_fields):
        grid = GridSpec(-2.0, 2.0, 5, 0.0, 0.0, 1)
        for order in (2, 4):
            hs = (0.02, 0.01, 0.005)
            res = [
                pde_residual_tccss(
                    one_soliton_fields, grid, StencilSpec(hx=h, ht=h, order=order)
                ).max_abs
                for h in hs
            ]
            slope = np.polyfit(np.log(hs), np.log(res), 1)[0]
            assert abs(slope - order) < 0.3


class TestGaugeTransform:
    def test_zero_field(self, zero_fields):
        grid = GridSpec(-1.0, 1.0, 5, 0.0, 0.0, 1)
        report = gauge_transform_and_cnls_residual(zero_fields, grid, StencilSpec())
        assert report.max_abs == 0.0

    def test_one_soliton(self, one_soliton_fields):
        grid = GridSpec(-5.0, 5.0, 21, -0.5, 0.5, 5)
        report = gauge_transform_and_cnls_residual(one_soliton_fields, grid, StencilSpec())
        assert report.max_abs < 1e-4

    def test_gauge_factor_preserves_magnitude(self, one_soliton_field):
        for (X, T) in ((0.4, 0.3), (-1.7, -0.8)):
            u = one_soliton_field(X - T / 12.0, T)
            q = u * np.exp(1j / 6.0 * (X - T / 18.0))
            assert np.allclose(np.abs(q), np.abs(u), atol=0)

    def test_verdict_agreement_with_pde(
        self, one_soliton_fields, one_soliton_field, two_soliton_fields, two_soliton_field
    ):
        grid = GridSpec(-4.0, 4.0, 9, -0.3, 0.3, 3)
        st = StencilSpec()
        for fields, field in ((one_soliton_fields, one_soliton_field),
                              (two_soliton_fields, two_soliton_field)):
            pde = pde_residual_tccss(fields, grid, st).max_abs
            zc = max(
                zero_curvature_residual(field, lam, 0.5, 0.1, st)
                for lam in (0.3, 1.1 + 0.4j)
            )
            if pde < 1e-5:
                assert zc < 1e-4
            if zc < 1e-5:
                assert pde < 1e-4


def pointwise_pde(f, grid, st):
    """Reference: the per-point stencil loop, one scalar call per sample."""
    values = []
    for t in grid.ts():
        for x in grid.xs():
            x, t = float(x), float(t)

            def u(dx=0.0, dt=0.0):
                return f(x + dx, t + dt)

            def power(dx):
                return np.array(float(np.sum(np.abs(u(dx)) ** 2)))

            ut = _differentiate(lambda dt: u(dt=dt), st.ht, 1, st.order)
            ux = _differentiate(u, st.hx, 1, st.order)
            uxxx = _differentiate(u, st.hx, 3, st.order)
            wx = complex(_differentiate(power, st.hx, 1, st.order))
            values.append(ut + uxxx + 6.0 * float(power(0.0)) * ux + 3.0 * u() * wx)
    return summarize("pde_tccss", np.concatenate(values), grid.describe())


def pointwise_cnls(f, grid, st):
    """Reference: the per-point CNLS pullback loop."""
    values = []
    for T in grid.ts():
        for X in grid.xs():
            X, T = float(X), float(T)

            def q(dX=0.0, dT=0.0):
                Xs, Ts = X + dX, T + dT
                return f(Xs - Ts / 12.0, Ts) * np.exp(1j / 6.0 * (Xs - Ts / 18.0))

            def power(dX):
                return np.array(float(np.sum(np.abs(q(dX)) ** 2)))

            qT = _differentiate(lambda dT: q(dT=dT), st.ht, 1, st.order)
            qX, qXX, qXXX = (_differentiate(q, st.hx, d, st.order) for d in (1, 2, 3))
            w0 = float(power(0.0))
            wX = complex(_differentiate(power, st.hx, 1, st.order))
            values.append(
                1j * qT + 0.5 * qXX + q() * w0 + 1j * (qXXX + 6.0 * w0 * qX + 3.0 * q() * wX)
            )
    return summarize("cnls_gauge", np.concatenate(values), grid.describe())


class TestBatchedStencils:
    """Whole-grid stencils against the pointwise loop they replaced."""

    CHECKS = (
        (pde_residual_tccss, pointwise_pde),
        (gauge_transform_and_cnls_residual, pointwise_cnls),
    )

    @pytest.mark.parametrize("fig_id", [1, 3, 4])
    def test_default_step_roundoff(self, fig_id):
        # At h = 1e-3 the residual is mostly evaluator roundoff amplified by
        # 1/h^3, and the batched kernel rounds differently from the pointwise
        # one.  Figure 2 is left out: there the residual is roundoff alone
        # (3e-4 to 5e-4 in both paths, above the 1e-4 threshold).
        cfg = figure_spectrum(fig_id)
        fields, field = partial(eval_fields_array, cfg), partial(eval_fields, cfg)
        grid = _coarsen(figure_config(fig_id).grid)  # the grid `verify` checks
        for batched, pointwise in self.CHECKS:
            got = batched(fields, grid, StencilSpec()).max_abs
            ref = pointwise(field, grid, StencilSpec()).max_abs
            assert abs(got - ref) <= 0.25 * ref

    @pytest.mark.parametrize("fig_id", [1, 3])
    def test_truncation_step(self, fig_id):
        # Truncation dominates at h = 0.02 here.  It does not for figure 4
        # (residual 1e-6, of which roundoff is 1e-5) or figure 2 (roundoff
        # 2.5e-6 of the residual).
        cfg = figure_spectrum(fig_id)
        fields, field = partial(eval_fields_array, cfg), partial(eval_fields, cfg)
        grid = GridSpec(-4.0, 4.0, 11, -0.5, 0.5, 3)
        st = StencilSpec(hx=0.02, ht=0.02)
        for batched, pointwise in self.CHECKS:
            got, ref = batched(fields, grid, st), pointwise(field, grid, st)
            assert abs(got.max_abs - ref.max_abs) <= 1e-6 * ref.max_abs
            assert abs(got.rms - ref.rms) <= 1e-6 * ref.rms


def recording(f):
    """`f`, pointwise or batched, recording every (x, t) it is asked for
    in the list `.points`."""

    def g(x, t):
        xs, ts = np.broadcast_arrays(x, t)
        g.points += zip(xs.ravel().tolist(), ts.ravel().tolist())
        return f(x, t)

    g.points = []
    return g


class TestSampleOnce:
    """Each check samples every distinct (x, t) of its stencils once."""

    @pytest.mark.parametrize("check", [pde_residual_tccss, gauge_transform_and_cnls_residual])
    @pytest.mark.parametrize("order, shifts", [(4, 11), (2, 7)])
    def test_grid_checks(self, one_soliton_fields, check, order, shifts):
        # shifts: 0, +-h, +-2h (+-3h at order 4) in x and +-h (+-2h) in t
        f = recording(one_soliton_fields)
        grid = GridSpec(-2.0, 2.0, 5, 0.0, 0.2, 2)
        check(f, grid, StencilSpec(order=order))
        assert len(f.points) == shifts * 10
        assert len(set(f.points)) == len(f.points)

    @pytest.mark.parametrize("order", [2, 4])
    def test_zero_curvature(self, one_soliton_field, order):
        f = recording(one_soliton_field)
        zero_curvature_residual(f, 0.7 + 0.2j, 0.3, 0.1, StencilSpec(order=order))
        assert len(set(f.points)) == len(f.points)
        assert len(f.points) <= (17 if order == 4 else 11)
