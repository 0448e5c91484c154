import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from tccss import scattering
from tccss.lax import build_Q
from tccss.scattering import (
    DomainTooSmallError,
    HalfPlaneError,
    NonFiniteScatteringError,
    ZeroSearchError,
    coupling_row_sweep,
    det_drift_from_table,
    integrate_from_table,
    locate_zero_from_table,
    omega77_from_table,
    sample_potential,
    scattering_evolution_check,
    scattering_matrix_from_table,
)
from tccss.structure import SIGMA3_DIAG


def rk4_step(psi, q0, qm, q1, step, rhs):
    """One classical RK4 step of psi' = rhs(psi, q), psi broadcasting over steps."""
    k1 = rhs(psi, q0)
    k2 = rhs(psi + 0.5 * step * k1, qm)
    k3 = rhs(psi + 0.5 * step * k2, qm)
    k4 = rhs(psi + step * k3, q1)
    return psi + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_path(table, lam, forward=True):
    """Step-by-step classical RK4 on the whole matrix Psi, ascending-x order."""

    def rhs(psi, q):
        return q @ psi - 1j * lam * (psi * SIGMA3_DIAG[None, :] - SIGMA3_DIAG[:, None] * psi)

    n, q_half = table.n_steps, table.q_half
    step = table.h if forward else -table.h
    sgn = 1 if forward else -1
    psi = np.eye(7, dtype=complex)
    path = np.empty((n + 1, 7, 7), dtype=complex)
    idx = 0 if forward else n
    path[idx] = psi
    for i in range(n):
        base = 2 * i if forward else 2 * (n - i)
        psi = rk4_step(psi, q_half[base], q_half[base + sgn], q_half[base + 2 * sgn], step, rhs)
        idx += sgn
        path[idx] = psi
    return path


def reference_steps(table, lam, s, forward=True):
    """Direct RK4 step matrices of column class s (y' = (Q + diag(i lam (sigma3 - s))) y),
    all steps at once, in marching order."""
    d = (1j * lam * (SIGMA3_DIAG - s))[:, None]
    q = table.q_half if forward else table.q_half[::-1]
    step = table.h if forward else -table.h
    return rk4_step(np.eye(7), q[:-1:2], q[1::2], q[2::2], step, lambda y, qq: qq @ y + d * y)


def reference_omega(table, lam):
    phase = np.exp(1j * lam * SIGMA3_DIAG * table.x_max)
    return (1.0 / phase)[:, None] * reference_path(table, lam)[-1] * phase[None, :]


def rel_diff(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.fixture(scope="module", params=[(3, 1001), (3, 4097), (4, 1001), (4, 4097)],
                ids=lambda p: f"fig{p[0]}-n{p[1]}")
def figure_table(request, one_soliton_fields, two_soliton_fields):
    fig, n = request.param
    fields = one_soliton_fields if fig == 3 else two_soliton_fields
    return sample_potential(fields, 0.0, -40.0, 40.0, n)


class TestTransferMatrixKernel:
    """The batched step-matrix products against the step-by-step loop."""

    def test_column7_upper_half_plane(self, figure_table):
        for lam in (0.35j, 0.5 + 0.5j):
            want = reference_omega(figure_table, lam)[:, 6]
            got = scattering_matrix_from_table(figure_table, lam)[:, 6]
            assert rel_diff(got, want) <= 1e-12
            assert abs(omega77_from_table(figure_table, lam) - want[6]) <= 1e-12 * np.max(np.abs(want))

    def test_full_omega_real_lambda(self, figure_table):
        lam = 0.7
        want = reference_omega(figure_table, lam)
        assert rel_diff(scattering_matrix_from_table(figure_table, lam), want) <= 1e-12
        row = coupling_row_sweep(figure_table, np.array([0.3, lam]))[1]
        assert rel_diff(row, want[:, 6]) <= 1e-12

    @pytest.mark.parametrize("side", ["minus", "plus"])
    def test_path_both_sides(self, figure_table, side):
        want = reference_path(figure_table, 1.0, forward=(side == "minus"))
        sol = integrate_from_table(figure_table, 1.0, side)
        assert sol.values.shape == want.shape
        assert rel_diff(sol.values, want) <= 1e-12
        start = sol.at_x_min if side == "minus" else sol.at_x_max
        assert np.array_equal(start, np.eye(7))

    @pytest.mark.parametrize("stride", [7, 100])
    def test_det_drift_matches_path(self, figure_table, stride):
        want = integrate_from_table(figure_table, 1.0).det_deviation(stride)
        assert abs(det_drift_from_table(figure_table, 1.0, stride) - want) <= 1e-13

    @pytest.mark.parametrize("forward", [True, False], ids=["up", "down"])
    @pytest.mark.parametrize("s", [1.0, -1.0], ids=["cols1-6", "col7"])
    def test_step_coefficients_match_rk4_step(self, figure_table, s, forward):
        for lam in (0.35j, 0.5 + 0.5j, 0.7, 2 + 0.1j, 5j):
            blocks = list(scattering._step_blocks(figure_table, lam, (s,), forward))
            pair = np.concatenate(blocks, axis=2)[:, 0]
            got = scattering._from_basis(pair[0] + 1j * pair[1])
            assert rel_diff(got, reference_steps(figure_table, lam, s, forward)) <= 1e-13

    @pytest.mark.parametrize("fig", [3, 4])
    def test_q_half_layout(self, fig, one_soliton_fields, two_soliton_fields):
        # the samples are the batched field values; q_half lays them out as build_Q
        fields = one_soliton_fields if fig == 3 else two_soliton_fields
        table = sample_potential(fields, 0.0, -40.0, 40.0, 1001)
        xs_half = np.linspace(-40.0, 40.0, 2003)
        assert np.array_equal(table.u, fields(xs_half, np.zeros(xs_half.size)))
        want = np.array([build_Q(row) for row in table.u])
        assert np.array_equal(table.q_half, want)

    @pytest.mark.parametrize("n", [4000, 16000])
    def test_table_no_larger_than_q_half(self, two_soliton_fields, n):
        # every array the table stores counts, so a cached q_half would fail
        table = sample_potential(two_soliton_fields, 0.0, -40.0, 40.0, n)
        stored = sum(
            v.nbytes for v in (getattr(table, fld.name) for fld in dataclasses.fields(table))
            if isinstance(v, np.ndarray)
        )
        q_half_bytes = (2 * n + 1) * 7 * 7 * np.dtype(complex).itemsize
        assert stored <= q_half_bytes + table.u.nbytes

    @pytest.mark.parametrize("fig", [3, 4])
    def test_halved_table(self, fig, one_soliton_fields, two_soliton_fields):
        table = sample_potential(
            one_soliton_fields if fig == 3 else two_soliton_fields, 0.0, -40.0, 40.0, 2000
        )
        half = scattering.halved(table)
        assert half.n_steps == 1000 and half.coef is None
        assert np.array_equal(half.u, table.u[::2])
        # the per-block coefficients of the halved table step on every other sample
        for lam in (0.35j, 0.7):
            want = reference_omega(half, lam)[6, 6]
            assert abs(omega77_from_table(half, lam) - want) <= 1e-12 * abs(want)
        with pytest.raises(ValueError, match="odd"):
            scattering.halved(sample_potential(one_soliton_fields, 0.0, -40.0, 40.0, 1001))
        # the full table's coefficients do not fit the halved samples
        with pytest.raises(ValueError, match="coef has shape"):
            dataclasses.replace(table, n_steps=1000, u=table.u[::2])

    def test_sweep_memory_bounded_in_steps(self, two_soliton_fields):
        # transient memory is a fixed number of blocks, not (lambdas x steps)
        lams = np.linspace(0.2, 2.0, 19)
        peaks = {}
        for n in (4000, 16000):
            table = sample_potential(two_soliton_fields, 0.0, -40.0, 40.0, n)
            tracemalloc.start()
            try:
                coupling_row_sweep(table, lams)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4000] < 4 * 2**20
        assert peaks[16000] <= 1.5 * peaks[4000]


class TestIntegrateJost:
    def test_zero_potential_identity(self, zero_fields):
        table = sample_potential(zero_fields, 0.0, -5.0, 5.0, 200)
        for lam in (0.5, 1.3j, -2.0 + 0.4j):
            sol = integrate_from_table(table, lam)
            assert np.allclose(sol.values, np.eye(7), atol=0)
            assert np.array_equal(sol.at_x_min, np.eye(7))

    def test_plus_side_boundary(self, zero_fields):
        table = sample_potential(zero_fields, 0.0, -5.0, 5.0, 200)
        sol = integrate_from_table(table, 0.7, side="plus")
        assert np.array_equal(sol.at_x_max, np.eye(7))

    def test_det_preserved_along_path(self, one_soliton_fields):
        table = sample_potential(one_soliton_fields, 0.0, -30.0, 30.0, 12000)
        sol = integrate_from_table(table, 1.0)
        assert sol.det_deviation(stride=500) < 1e-8

    def test_column_norms_bounded(self, one_soliton_fields, one_soliton_field):
        # crude integral bound: column growth is at most exp(int ||Q||_F dx)
        table = sample_potential(one_soliton_fields, 0.0, -30.0, 30.0, 12000)
        sol = integrate_from_table(table, 1.0)
        xs = np.linspace(-30, 30, 2001)
        qnorm = [
            np.sqrt(2 * np.sum(np.abs(one_soliton_field(float(x), 0.0)) ** 2) * 2)
            for x in xs
        ]
        bound = float(np.exp(np.trapezoid(qnorm, xs)))
        col_norms = np.linalg.norm(sol.at_x_max, axis=0)
        assert np.max(col_norms) <= bound

    def test_rejects_unknown_side(self, zero_fields):
        table = sample_potential(zero_fields, 0.0, -5.0, 5.0, 200)
        with pytest.raises(ValueError, match="side"):
            integrate_from_table(table, 1.0, side="Minus")

    def test_rejects_small_step_count(self, zero_fields):
        with pytest.raises(ValueError, match="n_steps"):
            sample_potential(zero_fields, 0.0, -5.0, 5.0, 50)

    def test_rejects_a_step_above_one(self, zero_fields):
        # 100 steps of 1 are accepted; a step of 3.8e83 would overflow the
        # step coefficients and is refused before any sampling
        sample_potential(zero_fields, 0.0, -50.0, 50.0, 100)
        with pytest.raises(ValueError, match=r"step h = \(x_max - x_min\) / n_steps = 3.79e\+83 exceeds 1.0"):
            sample_potential(zero_fields, 0.0, -7.57e86, 30.0, 2000)

    def test_rejects_undecayed_potential(self, one_soliton_fields):
        with pytest.raises(DomainTooSmallError):
            sample_potential(one_soliton_fields, 0.0, -3.0, 3.0, 500)

    def test_unitary_for_real_lambda(self, one_soliton_fields):
        table = sample_potential(one_soliton_fields, 0.0, -30.0, 30.0, 12000)
        sol = integrate_from_table(table, 0.8)
        psi = sol.at_x_max
        assert np.max(np.abs(psi.conj().T @ psi - np.eye(7))) < 1e-7


class TestScatteringMatrix:
    def test_zero_potential_identity(self, zero_fields):
        table = sample_potential(zero_fields, 0.0, -5.0, 5.0, 200)
        for lam in (0.3, 1.0, 2.0):
            omega = scattering_matrix_from_table(table, lam)
            assert np.allclose(omega, np.eye(7), atol=0)

    def test_unit_determinant_and_bounded_entry(self, one_soliton_fields):
        table = sample_potential(one_soliton_fields, 0.0, -30.0, 30.0, 8000)
        omega = scattering_matrix_from_table(table, 0.5)
        assert abs(np.linalg.det(omega) - 1.0) < 1e-7
        assert abs(omega[6, 6]) <= 1.0 + 1e-9

    def test_reflectionless(self, one_soliton_fields):
        table = sample_potential(one_soliton_fields, 0.0, -30.0, 30.0, 8000)
        rows = coupling_row_sweep(table, np.array([0.3, 1.0, 2.0]))
        assert float(np.max(np.abs(rows[:, :6]))) < 1e-6

    def test_sweep_stability_bound(self, one_soliton_fields):
        table = sample_potential(one_soliton_fields, 0.0, -40.0, 40.0, 1001)
        bound = np.sqrt(2.0) / table.h
        rows = coupling_row_sweep(table, np.array([-0.999 * bound, 0.999 * bound]))
        assert np.all(np.isfinite(rows)) and np.all(np.abs(rows[:, 6]) <= 1.0 + 1e-9)
        for lams in ([0.5, 1.001 * bound], [-1.001 * bound], [1e300]):
            with pytest.raises(NonFiniteScatteringError, match="stability bound"):
                coupling_row_sweep(table, np.array(lams))
        with pytest.raises(NonFiniteScatteringError, match="lambda = nan are not finite"):
            coupling_row_sweep(table, np.array([0.5, np.nan]))

    def test_large_upper_lambda_keeps_omega77(self, one_soliton_fields):
        # columns 1-6 overflow at 5i, silently; the (7,7) entry must not pick that up
        table = sample_potential(one_soliton_fields, 0.0, -40.0, 40.0, 1001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            omega = scattering_matrix_from_table(table, 5j)
        assert not np.all(np.isfinite(omega))
        assert abs(omega[6, 6] - omega77_from_table(table, 5j)) <= 1e-12

    def test_lower_half_plane_rejected(self, zero_fields):
        table = sample_potential(zero_fields, 0.0, -5.0, 5.0, 200)
        with pytest.raises(HalfPlaneError):
            scattering_matrix_from_table(table, -0.5j)

    def test_omega77_is_blaschke_factor(self, one_soliton_fields):
        # analytic prediction for a reflectionless potential with one zero at i
        table = sample_potential(one_soliton_fields, 0.0, -30.0, 30.0, 8000)
        for lam in (0.8j, 0.5 + 0.5j):
            omega = scattering_matrix_from_table(table, lam)
            expect = (lam - 1j) / (lam + 1j)
            assert abs(omega[6, 6] - expect) < 1e-6

    def test_step_halving_fourth_order(self, one_soliton_fields):
        # quadruple the step to lift truncation above the tail-cutoff floor
        exact = (0.7 - 1j) / (0.7 + 1j)

        def err(n):
            table = sample_potential(one_soliton_fields, 0.0, -30.0, 30.0, n)
            return abs(scattering_matrix_from_table(table, 0.7 + 0.0j)[6, 6] - exact)

        ratio = err(375) / err(750)
        assert 10.0 < ratio < 22.0


class TestLocateSpectralZero:
    def test_figure3_roundtrip(self, one_soliton_fields):
        table = sample_potential(one_soliton_fields, 0.0, -40.0, 40.0, 16000)
        found = locate_zero_from_table(table, 0.8j)
        assert abs(found - 1j) < 1e-6

    def test_figure4_roundtrip(self, two_soliton_fields):
        table = sample_potential(two_soliton_fields, 0.0, -40.0, 40.0, 16000)
        for seed, expect in ((0.25j, 0.3j), (0.55j, 0.5j)):
            found = locate_zero_from_table(table, seed)
            assert abs(found - expect) < 1e-5

    def test_zero_potential_fails(self, zero_fields):
        table = sample_potential(zero_fields, 0.0, -5.0, 5.0, 200)
        with pytest.raises(ZeroSearchError):
            locate_zero_from_table(table, 0.8j)

    def test_trace_ends_at_returned_zero(self, one_soliton_fields):
        table = sample_potential(one_soliton_fields, 0.0, -30.0, 30.0, 3000)
        trace = []
        found = locate_zero_from_table(table, 0.8j, trace=trace)
        assert len(trace) >= 2
        assert trace[-1] == (found, omega77_from_table(table, found))

    def test_seed_must_be_upper(self, zero_fields):
        table = sample_potential(zero_fields, 0.0, -5.0, 5.0, 200)
        with pytest.raises(HalfPlaneError):
            locate_zero_from_table(table, -0.8j)


class TestEvolution:
    def test_zero_potential(self, zero_fields):
        tables = [sample_potential(zero_fields, t, -5.0, 5.0, 200) for t in (0.0, 0.2)]
        report = scattering_evolution_check(*tables, 0.8)
        assert report.max_abs == 0.0
        assert report.grid == "lambda = 0.8, t = 0.0 -> 0.2, [-5.0, 5.0] x 200 steps"

    def test_refuses_tables_of_different_domains(self, zero_fields):
        t0 = sample_potential(zero_fields, 0.0, -5.0, 5.0, 200)
        for t1 in (sample_potential(zero_fields, 0.2, -5.0, 5.0, 400),
                   sample_potential(zero_fields, 0.2, -5.0, 6.0, 200)):
            with pytest.raises(ValueError, match="differ in domain or step count"):
                scattering_evolution_check(t0, t1, 0.8)

    def test_one_soliton_isospectrality(self, one_soliton_fields):
        tables = [sample_potential(one_soliton_fields, t, -30.0, 30.0, 8000) for t in (0.0, 0.2)]
        report = scattering_evolution_check(*tables, 0.8)
        assert report.max_abs < 1e-6
        # reflectionless potential: evolution of the coupling entries is vacuous
        assert sum("vacuous" in n for n in report.notes) == 6
