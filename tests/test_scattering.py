import dataclasses
import json
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest

from tccss import scattering
from tccss.io_cli import figure_spectrum, parse_config
from tccss.lax import build_Q
from tccss.scattering import (
    DomainTooSmallError,
    HalfPlaneError,
    NonFiniteScatteringError,
    coupling_row_sweep,
    norm_drift_from_table,
    omega77_from_table,
    sample_potential,
    zeros_in_disk,
)
from tccss.soliton import eval_fields_array
from tccss.structure import SIGMA3_DIAG


def rk4_step(psi, q0, qm, q1, step, rhs):
    """One classical RK4 step of psi' = rhs(psi, q), psi broadcasting over steps."""
    k1 = rhs(psi, q0)
    k2 = rhs(psi + 0.5 * step * k1, qm)
    k3 = rhs(psi + 0.5 * step * k2, qm)
    k4 = rhs(psi + step * k3, q1)
    return psi + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_path(table, lam, start=0):
    """Step-by-step classical RK4 on the whole matrix Psi from I at node `start`
    (x_min by default), on that node and every later one."""

    def rhs(psi, q):
        return q @ psi - 1j * lam * (psi * SIGMA3_DIAG[None, :] - SIGMA3_DIAG[:, None] * psi)

    n, q_half = table.n_steps, build_Q(table.u)
    path = np.empty((n - start + 1, 7, 7), dtype=complex)
    path[0] = psi = np.eye(7, dtype=complex)
    for i in range(start, n):
        psi = rk4_step(psi, q_half[2 * i], q_half[2 * i + 1], q_half[2 * i + 2], table.h, rhs)
        path[i - start + 1] = psi
    return path


def reference_steps(table, lam):
    """Direct RK4 step matrices of column 7 (y' = (Q + diag(i lam (sigma3 + 1))) y),
    all steps at once, in marching order."""
    d = (1j * lam * (SIGMA3_DIAG + 1.0))[:, None]
    q = build_Q(table.u)
    return rk4_step(np.eye(7), q[:-1:2], q[1::2], q[2::2], table.h, lambda y, qq: qq @ y + d * y)


# The basis change V: each channel pair (y_a, y_b) goes to
# ((y_a + y_b)/2, -i (y_a - y_b)/2), and e7 is fixed.
V = np.eye(7, dtype=complex)
for _a in (0, 2, 4):
    V[_a : _a + 2, _a : _a + 2] = [[0.5, 0.5], [-0.5j, 0.5j]]
V_INV = np.linalg.inv(V)


def reference_pairs(table, lam, start=0, stop=None):
    """The kernel's matrices of steps start..stop from direct RK4 steps: the
    products of the step pairs (2k, 2k+1), and an unpaired step after an odd
    `start` or before an odd `stop` alone."""
    steps = reference_steps(table, lam)
    stop = table.n_steps if stop is None else stop
    head, tail = steps[start : start + start % 2], steps[stop - stop % 2 : stop]
    paired = steps[start + start % 2 : stop - stop % 2]
    return np.concatenate([head, paired[1::2] @ paired[0::2], tail])


def column7(table, lam, start=0, stop=None):
    """Column 7 of Psi from e7 at node `start`, carried to node `stop`, by the
    kernel: its reduced last column lifted through W and back from V."""
    y = scattering._end_product(table, lam, start, stop)[:, :, -1]
    return scattering._from_basis(scattering._lift(table.w, y))[0]


def step_matrices(table, lams, start=0, stop=None):
    """The kernel's step matrices, (L, steps, d, d), in its basis diag(W, 1) of V."""
    re, im = np.concatenate(list(scattering._step_blocks(table, lams, start, stop)), axis=2)
    return re + 1j * im


def reduced(table, m):
    """R^T V m V^-1 R, R = diag(W, 1): matrices m of Psi in the kernel's d x d
    basis.  The step matrices of Psi's column 7 leave the range of V^-1 R
    invariant, so this is exactly what the kernel multiplies."""
    r = np.zeros((7, table.d))
    r[:6, :-1], r[6, -1] = table.w, 1.0
    return r.T @ V @ m @ V_INV @ r


def reference_omega(table, lam):
    phase = np.exp(1j * lam * SIGMA3_DIAG * table.x_max)
    return (1.0 / phase)[:, None] * reference_path(table, lam)[-1] * phase[None, :]


def rel_diff(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


SEGMENTS = ["interior", "tail", "odd step", "even step"]


def segment(n, which):
    """Steps (start, stop) of an interior segment, of the last 250 steps to the
    end, or of the one step after an odd or an even node."""
    odd = n // 3 | 1
    return {"interior": (n // 3, 2 * n // 3), "tail": (n - 250, None),
            "odd step": (odd, odd + 1), "even step": (odd + 1, odd + 2)}[which]


@pytest.fixture(scope="module", params=[(3, 1001), (3, 4097), (4, 1001), (4, 4097)],
                ids=lambda p: f"fig{p[0]}-n{p[1]}")
def figure_table(request, one_soliton_fields, two_soliton_fields):
    fig, n = request.param
    fields = one_soliton_fields if fig == 3 else two_soliton_fields
    return sample_potential(fields, 0.0, -40.0, 40.0, n)


# Every public entry, called with the lambda under test; the array forms put an
# accepted lambda first, so the refusal must name the second, and `disk` takes
# it as the centre of a disk of radius 0.1.
ENTRIES = {
    "omega77": lambda tables, lam: omega77_from_table(tables[0], lam),
    "omega77_array": lambda tables, lam: omega77_from_table(tables[0], np.array([0.5j, lam])),
    "sweep": lambda tables, lam: coupling_row_sweep(tables[0], np.array([0.5, lam])),
    "norm_drift": lambda tables, lam: norm_drift_from_table(tables[0], lam, 100),
    "disk": lambda tables, lam: zeros_in_disk(tables[0], lam, 0.1),
}
# (entries that take the kind of lambda, lambda, error, message); on the
# 4000-step tables sqrt(2) / h = 70.7, past which Omega77 would come out
# non-finite, and unrefused, -3i would read -4.7e138 where the Blaschke
# factor is 2
_REFUSED = [
    (list(ENTRIES), np.nan, NonFiniteScatteringError, "^lambda = nan is not finite$"),
    (list(ENTRIES), np.inf, NonFiniteScatteringError, "^lambda = inf is not finite$"),
    (list(ENTRIES), complex(0, np.nan), NonFiniteScatteringError, r"^lambda = 0\+nanj is not finite$"),
    (["omega77", "omega77_array", "disk"], -3j, HalfPlaneError, "^lambda = -0-3j lies in the lower half-plane$"),
    (["omega77", "omega77_array", "disk"], 0.5 - 0.5j, HalfPlaneError, "lies in the lower half-plane"),
    (["disk"], 0.1j, HalfPlaneError, r"^the disk \|lambda - 0\+0.1j\| < 0.1 reaches the real axis$"),
    (["sweep", "norm_drift"], 0.5 + 0.5j, HalfPlaneError, "real lambda only"),
    (["sweep", "norm_drift"], -3j, HalfPlaneError, "real lambda only"),
    (list(ENTRIES), 75.0, NonFiniteScatteringError, "^lambda = 75 exceeds the RK4 stability"),
    (["omega77", "omega77_array", "sweep"], -75.0, NonFiniteScatteringError, "^lambda = -75 exceeds the RK4 stability"),
    (["norm_drift"], np.array([0.5, 60.0]), ValueError, "^norm_drift_from_table takes one lambda, got 2$"),
]
REFUSALS = [
    pytest.param(entry, lam, error, match, id=f"{entry}-{lam}")
    for entries, lam, error, match in _REFUSED for entry in entries
]


# A Type I N = 3 spectrum whose samples span all six channel directions
# (smallest singular value 0.1 of the largest)
TYPE_I_N3 = {
    "family": "TypeI",
    "zeros": [[0.5, 0.5], [0.4, 0.6], [-0.3, 0.55]],
    "seeds": [
        {"alpha": [1, 0], "beta": [1, 0], "gamma": [1, 0], "mu": [1, 0], "rho": [1, 0], "delta": [0, 0]},
        {"alpha": [1, 0], "beta": [0, 0], "gamma": [2, 0], "mu": [0, 0], "rho": [0, 0], "delta": [0, 0]},
        {"alpha": [0, 0.5], "beta": [1, 0], "gamma": [0, 0], "mu": [0, 1], "rho": [1, 0], "delta": [0.5, 0]},
    ],
}


@pytest.fixture(scope="module")
def full_rank_fields():
    return partial(eval_fields_array, parse_config(json.dumps({"spectrum": TYPE_I_N3})).spectrum)


@pytest.fixture(scope="module")
def refusal_tables(one_soliton_fields):
    return [sample_potential(one_soliton_fields, t, -40.0, 40.0, 4000) for t in (0.0, 0.2)]


class TestTransferMatrixKernel:
    """The batched step-matrix products against the step-by-step loop."""

    def test_column7_upper_half_plane(self, figure_table):
        for lam in (0.35j, 0.5 + 0.5j):
            want = reference_path(figure_table, lam)[-1][:, 6]
            assert rel_diff(column7(figure_table, lam), want) <= 1e-12
            assert abs(omega77_from_table(figure_table, lam) - want[6]) <= 1e-12 * np.max(np.abs(want))

    def test_full_omega_real_lambda(self, figure_table):
        lam = 0.7
        want = reference_omega(figure_table, lam)[:, 6]
        row = coupling_row_sweep(figure_table, np.array([0.3, lam]))[1]
        assert rel_diff(row, want) <= 1e-12

    def test_end_product_matches_path_on_nodes(self, figure_table):
        # column 7 of Psi_- on a node is carried by the end product of the steps before it
        n = figure_table.n_steps
        for lam in (1.0, 0.35j):
            path = reference_path(figure_table, lam)
            for stop in (1, 7, n // 2, n - 1, n):
                assert rel_diff(column7(figure_table, lam, 0, stop), path[stop][:, 6]) <= 1e-12

    @pytest.mark.parametrize("which", SEGMENTS)
    def test_segment_product_matches_path_from_node(self, figure_table, which):
        # the product of steps start..stop carries e7 at node start to node stop
        start, stop = segment(figure_table.n_steps, which)
        for lam in (1.0, 0.35j, 0.5 + 0.5j):
            want = reference_path(figure_table, lam, start)[-1 if stop is None else stop - start]
            assert rel_diff(column7(figure_table, lam, start, stop), want[:, 6]) <= 1e-12

    @pytest.mark.parametrize("which", SEGMENTS)
    def test_step_blocks_of_a_segment(self, figure_table, which):
        # rows are lambdas; the matrices are the step pairs of the segment and
        # its unpaired first or last step
        start, stop = segment(figure_table.n_steps, which)
        lams = (0.35j, 0.7, 2 + 0.1j)
        got = step_matrices(figure_table, lams, start, stop)
        for j, lam in enumerate(lams):
            want = reduced(figure_table, reference_pairs(figure_table, lam, start, stop))
            assert got[j].shape == want.shape
            assert rel_diff(got[j], want) <= 1e-13

    @pytest.mark.parametrize("stride", [7, 100, 5000])
    def test_norm_drift_matches_path(self, figure_table, stride):
        # a stride past n_steps leaves one segment, ending on the last node
        path = reference_path(figure_table, 1.0)[:, :, 6]
        nodes = np.concatenate([path[::stride], path[-1:]])
        want = float(np.max(np.abs(np.linalg.norm(nodes, axis=1) ** 2 - 1.0)))
        assert abs(norm_drift_from_table(figure_table, 1.0, stride) - want) <= 1e-13

    def test_step_coefficients_match_rk4_step(self, figure_table):
        # step pairs, and the unpaired last step of an odd step count
        for lam in (0.35j, 0.5 + 0.5j, 0.7, 2 + 0.1j, 5j):
            want = reduced(figure_table, reference_pairs(figure_table, lam))
            assert rel_diff(step_matrices(figure_table, lam)[0], want) <= 1e-13

    def test_folded_pair_at_the_stability_edge(self, figure_table):
        # the pair polynomial, condition ~ e^{2 |c h|}, against products of two
        # RK4 steps across the core, at |lambda| h = 0.999 sqrt(2) and at 5j
        start = figure_table.n_steps // 2 - 100 & ~1
        for lam in (0.999 * np.sqrt(2.0) / figure_table.h, 5j):
            steps = reference_steps(figure_table, lam)[start : start + 200]
            got = step_matrices(figure_table, lam, start, start + 200)[0]
            assert got.shape == (100, figure_table.d, figure_table.d)
            assert rel_diff(got, reduced(figure_table, steps[1::2] @ steps[0::2])) <= 1e-13

    @pytest.mark.parametrize("fig", [3, 4])
    def test_q_half_layout(self, fig, one_soliton_fields, two_soliton_fields):
        # the samples are the batched field values; build_Q lays them out row by row
        fields = one_soliton_fields if fig == 3 else two_soliton_fields
        table = sample_potential(fields, 0.0, -40.0, 40.0, 1001)
        xs_half = np.linspace(-40.0, 40.0, 2003)
        assert np.array_equal(table.u, fields(xs_half, np.zeros(xs_half.size)))
        want = np.array([build_Q(row) for row in table.u])
        assert np.array_equal(build_Q(table.u), want)

    @pytest.mark.parametrize("n", [4000, 16000])
    def test_table_no_larger_than_q_half(self, two_soliton_fields, n):
        # every array the table stores counts, so a cached build_Q(table.u) would fail
        table = sample_potential(two_soliton_fields, 0.0, -40.0, 40.0, n)
        stored = sum(
            v.nbytes for v in (getattr(table, fld.name) for fld in dataclasses.fields(table))
            if isinstance(v, np.ndarray)
        )
        q_half_bytes = (2 * n + 1) * 7 * 7 * np.dtype(complex).itemsize
        assert stored <= q_half_bytes + table.u.nbytes

    def test_table_coefficients_fit_samples(self, one_soliton_fields):
        # sum_{m<=8} c^m F^(m), F^(8) = (h^4/24)^2 P, is the product of the
        # step pair; figure 3 spans one channel direction, so d = 2
        assert sample_potential(one_soliton_fields, 0.0, -40.0, 40.0, 2001).coef.shape == (8, 1000, 2, 2)
        table = sample_potential(one_soliton_fields, 0.0, -40.0, 40.0, 2000)
        assert table.coef.shape == (8, 1000, 2, 2)
        for lam in (0.35j, 0.7, 2 + 0.1j):
            c = 2j * lam
            pairs = np.tensordot(c ** np.arange(8), table.coef, axes=1)
            pairs[:, 0, 0] += c**8 * (table.h**4 / 24.0) ** 2
            steps = reference_steps(table, lam)
            assert rel_diff(pairs, reduced(table, steps[1::2] @ steps[0::2])) <= 1e-13
        # the coefficients do not fit other samples
        with pytest.raises(ValueError, match="coef has shape"):
            dataclasses.replace(table, n_steps=1000, u=table.u[::2])
        with pytest.raises(ValueError, match=r"coef has shape \(\)"):
            dataclasses.replace(table, coef=None)

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


class TestChannelBasis:
    """The step products run in the span of the samples' channel directions."""

    @pytest.mark.parametrize("fig, rank", [(1, 1), (2, 4), (3, 1), (4, 2), ("typeI_n3", 6)])
    def test_rank(self, fig, rank, full_rank_fields):
        fields = full_rank_fields if fig == "typeI_n3" else partial(eval_fields_array, figure_spectrum(fig))
        table = sample_potential(fields, 0.0, -40.0, 40.0, 1001)
        assert table.w.shape == (6, rank) and table.coef.shape == (8, 500, rank + 1, rank + 1)
        assert np.max(np.abs(table.w.T @ table.w - np.eye(rank))) <= 1e-15
        # what the rank leaves out of every sample is below RANK_TOL of the largest
        v = np.stack([table.u.real, table.u.imag], axis=-1).reshape(-1, 6)
        left_out = v - (v @ table.w) @ table.w.T
        norms = np.linalg.norm(v, axis=1)
        assert np.max(np.linalg.norm(left_out, axis=1)) <= scattering.RANK_TOL * np.max(norms)

    def test_full_rank_sweep_matches_reference(self, full_rank_fields):
        table = sample_potential(full_rank_fields, 0.0, -40.0, 40.0, 1001)
        assert table.d == 7
        lams = np.array([0.3, 0.7, 1.5])
        for row, lam in zip(coupling_row_sweep(table, lams), lams):
            assert rel_diff(row, reference_omega(table, lam)[:, 6]) <= 1e-12

    @pytest.mark.parametrize("weight, rank", [(1e-7, 2), (1e-14, 1)])
    def test_weak_second_direction(self, one_soliton_fields, weight, rank):
        # a second channel direction at 1e-7 of the field is kept, and its
        # coupling into column 7 is the reference's; one at 1e-14, below
        # RANK_TOL, is left out, and column 7 still agrees with the reference
        def fields(x, t):
            u = one_soliton_fields(x, t)
            u[:, 2] += weight * 1j / np.cosh(x - 1.0)
            return u

        table = sample_potential(fields, 0.0, -40.0, 40.0, 1001)
        assert table.d == rank + 1
        for lam in (0.3, 1.2):
            want = reference_omega(table, lam)[:, 6]
            assert rel_diff(coupling_row_sweep(table, np.array([lam]))[0], want) <= 1e-12
        for lam in (0.35j, 0.5 + 0.5j):
            assert rel_diff(column7(table, lam), reference_path(table, lam)[-1][:, 6]) <= 1e-12

    def test_vacuum_has_no_direction(self, zero_fields):
        # r = 0: 1 x 1 step products, and column 7 is e7 exactly, through the
        # pairs and the unpaired last step of an odd step count
        table = sample_potential(zero_fields, 0.0, -5.0, 5.0, 201)
        assert table.w.shape == (6, 0) and table.coef.shape == (8, 100, 1, 1)
        for lam in (0.5, 1.3j, -2.0 + 0.4j):
            assert np.array_equal(column7(table, lam), np.eye(7)[6])
        assert omega77_from_table(table, 1.3j) == 1.0
        rows = coupling_row_sweep(table, np.array([0.3, 1.0]))
        assert np.array_equal(rows, np.tile(np.eye(7)[6], (2, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("lo, hi, x", [(39.999, 41.0, "40"), (3.205, 3.215, "3.21")])
    def test_non_finite_sample_refused(self, one_soliton_fields, bad, lo, hi, x):
        # refused before the endpoint guard, which a NaN would pass, and before the basis
        def fields(xs, t):
            u = one_soliton_fields(xs, t)
            u[(xs > lo) & (xs < hi), 1] = bad
            return u

        with pytest.raises(NonFiniteScatteringError, match=rf"^field sample .* at x = {x} is not finite$"):
            sample_potential(fields, 0.0, -40.0, 40.0, 4000)


class TestIntegrateJost:
    def test_zero_potential_identity(self, zero_fields):
        # column 7 of Psi_- stays e7 on every node, read off the end products of steps 0..stop
        table = sample_potential(zero_fields, 0.0, -5.0, 5.0, 200)
        for lam in (0.5, 1.3j, -2.0 + 0.4j):
            for stop in (1, 77, 200):
                assert np.array_equal(column7(table, lam, 0, stop), np.eye(7)[6])

    def test_norm_preserved_along_path(self, one_soliton_fields):
        table = sample_potential(one_soliton_fields, 0.0, -30.0, 30.0, 12000)
        assert norm_drift_from_table(table, 1.0, 500) < 1e-8

    @pytest.mark.parametrize("fig, x_max, n", [(3, 30.0, 375), (4, 40.0, 500)])
    def test_norm_drift_falls_as_h5(self, fig, x_max, n, one_soliton_fields, two_soliton_fields):
        # the RK4 local error, O(h^5), breaks the norm: halving h divides the drift by ~32
        fields = one_soliton_fields if fig == 3 else two_soliton_fields
        drift = [
            norm_drift_from_table(sample_potential(fields, 0.0, -x_max, x_max, m), 1.0, m // 20)
            for m in (n, 2 * n, 4 * n)
        ]
        for coarse, fine in zip(drift, drift[1:]):
            assert 25.0 < coarse / fine < 40.0

    def test_column_norms_bounded(self, one_soliton_fields):
        # crude integral bound: column growth is at most exp(int ||Q||_F dx);
        # column 7 of Omega is that of Psi_-(x_max) times unit-modulus phases
        table = sample_potential(one_soliton_fields, 0.0, -30.0, 30.0, 12000)
        column = coupling_row_sweep(table, np.array([1.0]))[0]
        xs = np.linspace(-30, 30, 2001)
        qnorm = np.sqrt(2 * np.sum(np.abs(one_soliton_fields(xs, 0.0)) ** 2, axis=1) * 2)
        bound = float(np.exp(np.trapezoid(qnorm, xs)))
        assert np.linalg.norm(column) <= bound

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
        # column 7 of a unitary Omega has norm 1
        table = sample_potential(one_soliton_fields, 0.0, -30.0, 30.0, 12000)
        column = coupling_row_sweep(table, np.array([0.8]))[0]
        assert abs(np.linalg.norm(column) ** 2 - 1.0) < 1e-7


class TestScatteringMatrix:
    def test_zero_potential_identity(self, zero_fields):
        table = sample_potential(zero_fields, 0.0, -5.0, 5.0, 200)
        rows = coupling_row_sweep(table, np.array([0.3, 1.0, 2.0]))
        assert np.array_equal(rows, np.tile(np.eye(7)[6], (3, 1)))

    def test_bounded_entry(self, one_soliton_fields):
        table = sample_potential(one_soliton_fields, 0.0, -30.0, 30.0, 8000)
        assert abs(omega77_from_table(table, 0.5)) <= 1.0 + 1e-9

    def test_reflectionless(self, one_soliton_fields):
        table = sample_potential(one_soliton_fields, 0.0, -30.0, 30.0, 8000)
        rows = coupling_row_sweep(table, np.array([0.3, 1.0, 2.0]))
        assert float(np.max(np.abs(rows[:, :6]))) < 1e-6

    def test_sweep_stability_bound(self, one_soliton_fields):
        table = sample_potential(one_soliton_fields, 0.0, -40.0, 40.0, 1001)
        bound = np.sqrt(2.0) / table.h
        rows = coupling_row_sweep(table, np.array([-0.999 * bound, 0.999 * bound]))
        assert np.all(np.isfinite(rows)) and np.all(np.abs(rows[:, 6]) <= 1.0 + 1e-9)
        assert np.isfinite(omega77_from_table(table, 0.999 * bound))
        for lams in ([0.5, 1.001 * bound], [-1.001 * bound], [1e300]):
            with pytest.raises(NonFiniteScatteringError, match="stability bound"):
                coupling_row_sweep(table, np.array(lams))

    @pytest.mark.parametrize("entry, lam, error, match", REFUSALS)
    def test_lambda_refused(self, refusal_tables, entry, lam, error, match):
        with pytest.raises(error, match=match):
            ENTRIES[entry](refusal_tables, lam)

    def test_omega77_overflow_refused(self, one_soliton_fields):
        # |lambda| h = 12, far outside the RK4 stability region: the step product
        # overflows, and Omega77 raises naming that lambda, with no numpy warning
        table = sample_potential(one_soliton_fields, 0.0, -40.0, 40.0, 4000)
        for lam in (600.05j, np.array([0.5j, 600.05j])):
            with pytest.raises(NonFiniteScatteringError, match=r"^Omega77 = .* at lambda = 0\+600.05j is not finite$"):
                omega77_from_table(table, lam)

    def test_large_upper_lambda_keeps_omega77(self, one_soliton_fields):
        # far up the imaginary axis Omega77 stays finite, with no warning
        table = sample_potential(one_soliton_fields, 0.0, -40.0, 40.0, 1001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(omega77_from_table(table, 5j))

    def test_omega77_of_an_array(self, one_soliton_fields):
        # one pass for every lambda of an array, as one call per lambda
        table = sample_potential(one_soliton_fields, 0.0, -40.0, 40.0, 1000)
        lams = np.array([0.35j, 1j, 0.5 + 0.5j])
        got = omega77_from_table(table, lams)
        assert got.shape == (3,)
        for value, lam in zip(got, lams):
            assert abs(value - omega77_from_table(table, lam)) <= 1e-13

    def test_omega77_is_blaschke_factor(self, one_soliton_fields):
        # analytic prediction for a reflectionless potential with one zero at i
        table = sample_potential(one_soliton_fields, 0.0, -30.0, 30.0, 8000)
        for lam in (0.8j, 0.5 + 0.5j):
            expect = (lam - 1j) / (lam + 1j)
            assert abs(omega77_from_table(table, lam) - expect) < 1e-6

    def test_step_halving_fourth_order(self, one_soliton_fields):
        # quadruple the step to lift truncation above the tail-cutoff floor
        exact = (0.7 - 1j) / (0.7 + 1j)

        def err(n):
            table = sample_potential(one_soliton_fields, 0.0, -30.0, 30.0, n)
            return abs(omega77_from_table(table, 0.7 + 0.0j) - exact)

        ratio = err(375) / err(750)
        assert 10.0 < ratio < 22.0


def zero_error(found, want):
    """The largest distance from a zero in `want` to the nearest one in `found`."""
    return float(max(np.min(np.abs(found - z)) for z in want))


class TestZerosInDisk:
    """Every zero of Omega77 in a disk, from one pass on its boundary circle."""

    # (figure, disk, steps, zero error bound, change range); figures 1 and 2 put
    # their zeros at 0.86 of the radius, where K/2 samples leave 7e-7
    @pytest.mark.parametrize("fig, center, radius, n, bound, lo, hi", [
        (3, 0.8j, 0.6, 16000, 1e-10, 0.0, 1e-14),  # 4.8e-11
        (4, 0.45j, 0.4, 16000, 1e-11, 0.0, 1e-14),  # 2.4e-12
        (1, 0.6j, 0.59, 16000, 2e-10, 1e-7, 1e-6),  # 8.5e-11
        (2, 0.6j, 0.59, 4000, 5e-8, 1e-7, 1e-6),  # 1.6e-8
    ])
    def test_recovers_every_zero(self, fig, center, radius, n, bound, lo, hi):
        spectrum = figure_spectrum(fig)
        table = sample_potential(partial(eval_fields_array, spectrum), 0.0, -40.0, 40.0, n)
        found, change = zeros_in_disk(table, center, radius)
        want = spectrum.expanded_zeros()
        assert len(found) == len(want)
        assert zero_error(found, want) < bound and zero_error(want, found) < bound
        assert lo <= change < hi

    def test_change_is_quadrature_error_only(self, one_soliton_fields):
        # the contour sum has converged, while the RK4 zero is still 1.2e-8 off
        table = sample_potential(one_soliton_fields, 0.0, -40.0, 40.0, 4000)
        found, change = zeros_in_disk(table, 0.8j, 0.6)
        assert len(found) == 1 and 5e-9 < abs(found[0] - 1j) < 5e-8
        assert change < 1e-14

    def test_counts_differ_for_a_pair_near_the_circle(self):
        # zeros 0.5i and 0.52i, 1e-3 inside the circle and 0.067 rad apart on
        # it: all 128 samples count both, the even 64 do not, so `change` is inf;
        # a wider disk around them resolves both
        spectrum = dataclasses.replace(figure_spectrum(4), zeros=(0.5j, 0.52j))
        table = sample_potential(partial(eval_fields_array, spectrum), 0.0, -40.0, 40.0, 4000)
        found, change = zeros_in_disk(table, 0.3 + 0.51j, np.hypot(0.3, 0.01) + 1e-3)
        assert len(found) == 2 and change == np.inf
        found, change = zeros_in_disk(table, 0.3 + 0.51j, 0.4)
        assert zero_error(found, [0.5j, 0.52j]) < 1e-8 and change < 1e-9

    def test_vacuum_has_no_zero(self, zero_fields):
        table = sample_potential(zero_fields, 0.0, -5.0, 5.0, 200)
        found, change = zeros_in_disk(table, 0.8j, 0.6)
        assert found.shape == (0,) and change == 0.0

    def test_smaller_disk_misses_the_zeros(self):
        # figure 1's zeros +-0.5 + 0.5i lie 0.51 from 0.6i
        table = sample_potential(partial(eval_fields_array, figure_spectrum(1)), 0.0, -40.0, 40.0, 4000)
        found, change = zeros_in_disk(table, 0.6j, 0.49)
        assert found.shape == (0,) and change == 0.0

    @pytest.mark.parametrize("center, radius, error, match", [
        (0.5j, 0.5, HalfPlaneError, r"^the disk \|lambda - 0\+0.5j\| < 0.5 reaches the real axis$"),
        (1 + 0.5j, 0.7, HalfPlaneError, "reaches the real axis$"),
        (0.5j, 0.0, ValueError, "^radius must be > 0, got 0.0$"),
        (0.5j, -0.1, ValueError, "^radius must be > 0, got -0.1$"),
        (0.5j, np.nan, ValueError, "^radius must be > 0, got nan$"),
        (0.5j, np.inf, HalfPlaneError, "reaches the real axis$"),
    ])
    def test_disk_refused(self, zero_fields, center, radius, error, match):
        table = sample_potential(zero_fields, 0.0, -5.0, 5.0, 200)
        with pytest.raises(error, match=match):
            zeros_in_disk(table, center, radius)

    def test_stops_at_non_finite_omega77(self, one_soliton_fields):
        # |lambda| h = 12, far outside the RK4 stability region: Omega77 on the
        # circle overflows, and the pass raises naming the first such lambda,
        # without a numpy warning
        table = sample_potential(one_soliton_fields, 0.0, -40.0, 40.0, 4000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteScatteringError, match=r"^Omega77 = .* at lambda = 1\+600j is not finite$"):
                zeros_in_disk(table, 600j, 1.0)
