from functools import partial

import numpy as np
import pytest

from tccss.io_cli import figure_spectrum
from tccss.lax import (
    StencilSpec,
    build_Q,
    build_U,
    build_V,
    build_V_x,
    gauge_transform_and_cnls_residual,
    jet_table,
    pde_residual_tccss,
    zero_curvature_residual,
)
from tccss.report import GridSpec
from tccss.soliton import eval_fields_array, eval_jets_array
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
        # far below 1e-6, x + h == x and the cross-check would pass vacuously
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

    def test_stack(self):
        q = build_Q(np.array([sample(1.0), sample(0.0, 2j)]))
        u = build_U(0.4, q)
        assert u.shape == (2, 7, 7)
        for i in range(2):
            assert np.array_equal(u[i], build_U(0.4, q[i]))
        with pytest.raises(ValueError):
            build_U(0.4, np.zeros((2, 6, 6)))


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

    def test_x_derivative_along_a_cubic_path(self):
        # Q(s) = q0 + s q1 + s^2/2 q2 + s^3/6 q3 has jets (q1, q2, q3) at 0;
        # V along the path is a polynomial in s, whose order-4 central
        # difference at h = 1e-3 has truncation and roundoff near 1e-11
        rng = np.random.default_rng(8)
        q0, q1, q2, q3 = (build_Q(rng.standard_normal(3) + 1j * rng.standard_normal(3)) for _ in range(4))
        lam = 0.6 + 0.3j

        def v_at(s):
            q = q0 + s * q1 + s ** 2 / 2 * q2 + s ** 3 / 6 * q3
            qx = q1 + s * q2 + s ** 2 / 2 * q3
            qxx = q2 + s * q3
            return build_V(lam, q, qx, qxx)

        h = 1e-3
        fd = (8 * (v_at(h) - v_at(-h)) - (v_at(2 * h) - v_at(-2 * h))) / (12 * h)
        exact = build_V_x(lam, q0, q1, q2, q3)
        assert np.max(np.abs(fd - exact)) < 1e-9 * np.max(np.abs(exact))


def figure_table(fig_id, x, t, st=StencilSpec()):
    cfg = figure_spectrum(fig_id)
    return jet_table(partial(eval_jets_array, cfg), x, t, st)


def grid_points(grid):
    return tuple(a.ravel() for a in np.meshgrid(grid.xs(), grid.ts()))


def zero_jets(n):
    return np.zeros((5, n, 3), dtype=complex)


class TestZeroCurvature:
    def test_zero_field(self):
        assert zero_curvature_residual(0.9 + 0.3j, zero_jets(2)).tolist() == [0.0, 0.0]

    def test_one_soliton_small_residual(self):
        jets, _ = figure_table(3, np.array([0.3]), np.array([0.1]))
        assert zero_curvature_residual(0.7 + 0.2j, jets)[0] < 1e-12

    def test_lambda_polynomial_exactness(self):
        jets, _ = figure_table(3, np.array([0.5]), np.array([-0.2]))
        for lam in (0.3, 1.1 + 0.4j, -2.0 + 0.1j):
            assert zero_curvature_residual(lam, jets)[0] < 1e-12

    @pytest.mark.parametrize("fig_id", [1, 2, 4])
    def test_every_figure_on_a_grid(self, fig_id):
        x, t = grid_points(GridSpec(-5.0, 5.0, 21, -0.5, 0.5, 5))
        jets, _ = figure_table(fig_id, x, t)
        for lam in (0.3, 1.1 + 0.4j, -2.0 + 0.1j):
            assert np.max(zero_curvature_residual(lam, jets)) < 1e-10

    def test_wrong_jet_is_seen(self):
        # the identity reads every jet order: a wrong u_xxx breaks it
        jets, _ = figure_table(3, np.array([0.3]), np.array([0.1]))
        jets[3] *= 1.01
        assert zero_curvature_residual(0.7 + 0.2j, jets)[0] > 1e-3

    def test_halving_ratio_fourth_order(self):
        # as `verify` reads it: the larger of the residual and the cross-check
        def check(h):
            jets, cross = figure_table(3, np.array([0.3]), np.array([0.1]), StencilSpec(hx=h, ht=h))
            return max(zero_curvature_residual(0.7 + 0.2j, jets)[0], *cross.values())

        assert 10.0 < check(0.04) / check(0.02) < 22.0


class TestJetTable:
    """The cross-check of each jet order against a first-difference stencil."""

    def test_halving_ratio_per_order(self):
        x, t = np.array([0.3]), np.array([0.1])
        _, coarse = figure_table(3, x, t, StencilSpec(hx=0.04, ht=0.04))
        _, fine = figure_table(3, x, t, StencilSpec(hx=0.02, ht=0.02))
        for order in ("x1", "x2", "x3", "t1"):
            assert 10.0 < coarse[order] / fine[order] < 22.0

    @pytest.mark.parametrize("fig_id", [1, 3])
    def test_convergence_order_slope(self, fig_id):
        x, t = grid_points(GridSpec(-2.0, 2.0, 5, 0.0, 0.0, 1))
        for order in (2, 4):
            hs = (0.02, 0.01, 0.005)
            res = [figure_table(fig_id, x, t, StencilSpec(hx=h, ht=h, order=order))[1] for h in hs]
            for name in ("x1", "x2", "x3", "t1"):
                slope = np.polyfit(np.log(hs), np.log([r[name] for r in res]), 1)[0]
                assert abs(slope - order) < 0.3

    def test_table_is_the_field_kernel(self):
        cfg = figure_spectrum(2)
        x, t = grid_points(GridSpec(-4.0, 4.0, 9, -0.3, 0.3, 3))
        jets, _ = figure_table(2, x, t)
        assert np.array_equal(jets, eval_jets_array(cfg, x, t))
        assert np.array_equal(jets[0], eval_fields_array(cfg, x, t))

    def test_wrong_jet_is_seen(self):
        cfg = figure_spectrum(3)

        def wrong(x, t, terms):
            jets = eval_jets_array(cfg, x, t, terms)
            if terms > 2:
                jets[2] *= 1.001
            return jets

        x, t = grid_points(GridSpec(-2.0, 2.0, 9, 0.0, 0.0, 1))
        _, good = figure_table(3, x, t)
        _, bad = jet_table(wrong, x, t, StencilSpec())
        assert bad["x1"] == good["x1"] and bad["t1"] == good["t1"]
        assert bad["x2"] > 1e-4 > 1e3 * good["x2"]
        assert bad["x3"] > 1e-4 > 1e3 * good["x3"]

    def test_zero_field(self):
        def zero(x, t, terms):
            return zero_jets(np.size(x))[:terms]

        _, discrepancy = jet_table(zero, np.zeros(3), np.zeros(3), StencilSpec())
        assert discrepancy == {"x1": 0.0, "x2": 0.0, "x3": 0.0, "t1": 0.0}


class TestPdeResidual:
    def test_zero_field(self):
        assert np.max(np.abs(pde_residual_tccss(zero_jets(5)))) == 0.0

    def residual(self, fig_id):
        x, t = grid_points(GridSpec(-5.0, 5.0, 21, -0.5, 0.5, 5))
        jets, _ = figure_table(fig_id, x, t)
        return np.max(np.abs(pde_residual_tccss(jets)))

    def test_one_soliton(self):
        assert self.residual(3) < 1e-12

    def test_two_soliton(self):
        assert self.residual(4) < 1e-12

    @pytest.mark.parametrize("fig_id, bound", [(1, 1e-12), (2, 1e-10)])
    def test_type1_figures(self, fig_id, bound):
        # figure 2 carries the roundoff of cond(M) up to 5e3
        assert self.residual(fig_id) < bound

    def test_convergence_order_slope(self):
        # as `verify` reads it, the larger of the residual and the
        # cross-check of u_x, u_xxx and u_t converges at the stencil's order
        x, t = grid_points(GridSpec(-2.0, 2.0, 5, 0.0, 0.0, 1))
        for order in (2, 4):
            hs = (0.02, 0.01, 0.005)
            res = []
            for h in hs:
                jets, cross = figure_table(3, x, t, StencilSpec(hx=h, ht=h, order=order))
                res.append(max(np.max(np.abs(pde_residual_tccss(jets))), cross["x1"], cross["x3"], cross["t1"]))
            slope = np.polyfit(np.log(hs), np.log(res), 1)[0]
            assert abs(slope - order) < 0.3

    def test_wrong_jet_is_seen(self):
        x, t = grid_points(GridSpec(-2.0, 2.0, 5, 0.0, 0.0, 1))
        jets, _ = figure_table(3, x, t)
        jets[4] *= 1.01
        assert np.max(np.abs(pde_residual_tccss(jets))) > 1e-3


class TestGaugeTransform:
    def test_zero_field(self):
        residual = gauge_transform_and_cnls_residual(zero_jets(5), np.zeros(5), np.zeros(5))
        assert np.max(np.abs(residual)) == 0.0

    def test_one_soliton(self):
        x, t = grid_points(GridSpec(-5.0, 5.0, 21, -0.5, 0.5, 5))
        jets, _ = figure_table(3, x, t)
        assert np.max(np.abs(gauge_transform_and_cnls_residual(jets, x, t))) < 1e-12

    def test_gauge_factor_preserves_magnitude(self, one_soliton_fields):
        for (X, T) in ((0.4, 0.3), (-1.7, -0.8)):
            u = one_soliton_fields([X - T / 12.0], [T])[0]
            q = u * np.exp(1j / 6.0 * (X - T / 18.0))
            assert np.allclose(np.abs(q), np.abs(u), atol=0)

    def test_verdict_agreement_with_pde(self):
        # for any jets, solution or not, the pullback's residual is
        # i g times the PDE residual, g = exp(i (X - T/18) / 6), so the two
        # checks agree on every field
        rng = np.random.default_rng(3)
        jets = rng.standard_normal((5, 7, 3)) + 1j * rng.standard_normal((5, 7, 3))
        x, t = rng.uniform(-3, 3, 7), rng.uniform(-1, 1, 7)
        g = np.exp(1j / 6.0 * (x + t / 12.0 - t / 18.0))[:, None]
        cnls = gauge_transform_and_cnls_residual(jets, x, t)
        pde = pde_residual_tccss(jets)
        assert np.max(np.abs(cnls - 1j * g * pde)) < 1e-12 * np.max(np.abs(pde))


def recording(f):
    """`f`, recording the terms and the points of every call in the list `.calls`."""

    def g(x, t, terms):
        g.calls.append((terms, list(zip(np.ravel(x).tolist(), np.ravel(t).tolist()))))
        return f(x, t, terms)

    g.calls = []
    return g


class TestSampleOnce:
    """The table samples each distinct (x, t) of its stencils once, in three
    batched calls: the table, every x-shift and every t-shift."""

    @pytest.mark.parametrize("order, shifts", [(4, 4), (2, 2)])
    def test_every_shift_once(self, one_soliton_cfg, order, shifts):
        jets = recording(partial(eval_jets_array, one_soliton_cfg))
        x, t = grid_points(GridSpec(-2.0, 2.0, 5, 0.0, 0.2, 2))
        jet_table(jets, x, t, StencilSpec(order=order))
        assert [(terms, len(call)) for terms, call in jets.calls] == [(5, 10), (3, 10 * shifts), (1, 10 * shifts)]
        points = [p for _, call in jets.calls for p in call]
        assert len(set(points)) == len(points)

    def test_merged_shifts_match_one_call_per_shift(self, collision_cfg):
        # the merged x- and t-shift calls give each shift's bits of its own call
        x, t = grid_points(GridSpec(-3.0, 3.0, 7, -0.2, 0.2, 2))
        for terms, step in ((3, (1e-3, 0.0)), (1, (0.0, 1e-3))):
            shifts = [1, -1, 2, -2]
            merged = eval_jets_array(
                collision_cfg, np.concatenate([x + k * step[0] for k in shifts]),
                np.concatenate([t + k * step[1] for k in shifts]), terms,
            )
            for i, k in enumerate(shifts):
                alone = eval_jets_array(collision_cfg, x + k * step[0], t + k * step[1], terms)
                assert np.array_equal(merged[:, i * x.size:(i + 1) * x.size], alone)
