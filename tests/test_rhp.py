import numpy as np
import pytest

from tccss import rhp
from tccss.io_cli import RunConfig, figure_config, figure_spectrum, run_checks
from tccss.rhp import (
    PoleError,
    build_rh_pair,
    check_symmetries,
    reconstruct_potential,
    symmetry_residuals,
)
from tccss.soliton import (
    Family,
    SpectrumConfig,
    TypeIISeed,
    eval_fields_array,
    one_soliton_spectrum,
)
from tccss.structure import SIGMA
from tccss.verify import _coarsen

from conftest import reference_array


def vacuum_cfg():
    return SpectrumConfig(Family.TYPE_II, (), ())


def loop_residuals(cfg, x, t, samples):
    """symmetry_residuals written as one 7x7 evaluation per sample or zero."""
    pair = build_rh_pair(cfg, x, t)
    worst = {"hermitian": 0.0, "sigma": 0.0, "jump": 0.0, "kernel": 0.0, "det_at_zeros": 0.0}
    for lam in samples:
        herm = pair.evaluate_P1(np.conj(lam)).conj().T - pair.evaluate_P2(lam)
        sig = SIGMA @ np.conj(pair.evaluate_P1(-np.conj(lam))) @ SIGMA - pair.evaluate_P1(lam)
        worst["hermitian"] = max(worst["hermitian"], float(np.max(np.abs(herm))))
        worst["sigma"] = max(worst["sigma"], float(np.max(np.abs(sig))))
        if lam.imag == 0.0:
            jump = pair.evaluate_P2(lam) @ pair.evaluate_P1(lam) - np.eye(7)
            worst["jump"] = max(worst["jump"], float(np.max(np.abs(jump))))
    for lam_j, v, vhat in zip(pair.zeros, pair.columns, np.conj(pair.columns)):
        p1, p2 = pair.evaluate_P1(lam_j), pair.evaluate_P2(np.conj(lam_j))
        worst["kernel"] = max(worst["kernel"], float(np.max(np.abs(p1 @ v))),
                              float(np.max(np.abs(vhat @ p2))))
        worst["det_at_zeros"] = max(worst["det_at_zeros"], abs(np.linalg.det(p1)))
    if cfg.family is not Family.TYPE_I:
        del worst["sigma"]
    return worst


class TestBuildRhPair:
    def test_vacuum_gives_identity(self):
        pair = build_rh_pair(vacuum_cfg(), 0.3, -0.2)
        for lam in (0.5, 2j, -1.0 + 0.25j):
            assert np.array_equal(pair.evaluate_P1(lam), np.eye(7))
            assert np.array_equal(pair.evaluate_P2(lam), np.eye(7))

    def test_zero_amplitude_seeds_keep_spectral_zero(self):
        # the forced seventh seed component keeps det P1 a rational factor,
        # so the potential vanishes but P1 is not the identity
        cfg = one_soliton_spectrum(0.0, 0.0, 0.0, 0.8)
        pair = build_rh_pair(cfg, 0.3, -0.2)
        lam = 0.5
        p1 = pair.evaluate_P1(lam)
        expect77 = (lam - 0.8j) / (lam + 0.8j)
        assert abs(p1[6, 6] - expect77) < 1e-14
        assert abs(np.linalg.det(p1) - expect77) < 1e-14

    def test_identity_normalization_at_infinity(self, two_soliton_cfg):
        pair = build_rh_pair(two_soliton_cfg, 0.4, 0.1)
        residue_scale = float(np.max(np.abs(pair.first_order_term())))
        p1 = pair.evaluate_P1(1e6)
        assert np.max(np.abs(p1 - np.eye(7))) <= 1e-5 * residue_scale
        p2 = pair.evaluate_P2(1e6)
        assert np.max(np.abs(p2 - np.eye(7))) <= 1e-5 * residue_scale

    def test_n1_brute_force_rational_form(self):
        # independent oracle: for N = 1 the full P1 is I - v vhat W11 / (lam + i)
        cfg = one_soliton_spectrum(1.0, 2.0, 3.0, 1.0)
        pair = build_rh_pair(cfg, 0.0, 0.0)
        lam = 2j
        v = np.array([1, 1, 2, 2, 3, 3, 1], dtype=complex)
        w11 = 2j / 29
        expect = np.eye(7) - np.outer(v, v.conj()) * w11 / (lam - (-1j))
        got = pair.evaluate_P1(lam)
        assert np.max(np.abs(got - expect)) < 1e-14
        assert abs(got[0, 6] - (-2 / 87)) < 1e-15

    def test_pole_guard(self, two_soliton_cfg):
        pair = build_rh_pair(two_soliton_cfg, 0.0, 0.0)
        with pytest.raises(PoleError) as err:
            pair.evaluate_P2(0.3j)
        assert err.value.zero_index == 0
        with pytest.raises(PoleError):
            pair.evaluate_P1(-0.5j + 1e-9)
        # just outside the guard radius is fine
        pair.evaluate_P2(0.3j + 1e-6)
        # over an array, the first sample within the guard radius is named
        with pytest.raises(PoleError) as err:
            pair.evaluate_P2(np.array([0.5, 0.5j + 1e-9, 0.3j]))
        assert err.value.zero_index == 1 and err.value.lam == 0.5j + 1e-9

    @pytest.mark.parametrize("fixture", ["breather_cfg", "collision_cfg", "two_soliton_cfg"])
    def test_array_evaluation_matches_scalar(self, fixture, request):
        pair = build_rh_pair(request.getfixturevalue(fixture), 0.3, 0.15)
        lams = np.array([0.5, -1.2, 0.7 + 1.3j, 2j, -0.4 - 0.3j, 1e6])
        for evaluate in (pair.evaluate_P1, pair.evaluate_P2):
            stack = evaluate(lams)
            assert stack.shape == (len(lams), 7, 7)
            # the same arithmetic per lambda, so the same bits
            for lam, p in zip(lams, stack):
                assert np.array_equal(p, evaluate(lam))
            assert evaluate(lams[:0]).shape == (0, 7, 7)


class TestPointAxes:
    """A pair built at many (x, t) points carries their shape in front."""

    @pytest.mark.parametrize("fig", [1, 2, 3, 4])
    def test_row_matches_each_point_bit_for_bit(self, fig):
        cfg = figure_spectrum(fig)
        grid = _coarsen(figure_config(fig).grid)
        xs, t = grid.xs(), grid.ts()[3]
        lams = np.array([0.5, -1.2, 0.7 + 1.3j, 2j])
        row = build_rh_pair(cfg, xs, t)
        m = len(cfg.expanded_zeros())
        assert row.columns.shape == (len(xs), m, 7) and row.weights.shape == (len(xs), m, m)
        p1, p2 = row.evaluate_P1(lams), row.evaluate_P2(lams)
        assert p1.shape == p2.shape == (len(xs), len(lams), 7, 7)
        assert row.evaluate_P1(0.5).shape == row.first_order_term().shape == (len(xs), 7, 7)
        for p, x in enumerate(xs):
            one = build_rh_pair(cfg, x, t)
            assert np.array_equal(row.columns[p], one.columns)
            assert np.array_equal(row.weights[p], one.weights)
            assert np.array_equal(p1[p], one.evaluate_P1(lams))
            assert np.array_equal(p2[p], one.evaluate_P2(lams))

    def test_scalar_point_keeps_shapes(self, collision_cfg):
        pair = build_rh_pair(collision_cfg, 0.3, 0.15)
        assert pair.columns.shape == (4, 7) and pair.weights.shape == (4, 4)
        assert pair.evaluate_P1(0.5).shape == pair.first_order_term().shape == (7, 7)
        assert pair.evaluate_P2(np.array([0.5, 1j, 2.0])).shape == (3, 7, 7)

    def test_points_broadcast(self, two_soliton_cfg):
        pair = build_rh_pair(two_soliton_cfg, np.array([[0.0], [0.4]]), np.array([0.1, -0.2, 0.3]))
        assert pair.columns.shape == (2, 3, 2, 7)
        assert pair.evaluate_P1(np.array([0.5, 1j])).shape == (2, 3, 2, 7, 7)
        assert np.array_equal(pair.weights[1, 2], build_rh_pair(two_soliton_cfg, 0.4, 0.3).weights)

    def test_pole_error_names_first_lambda_over_points(self, two_soliton_cfg):
        pair = build_rh_pair(two_soliton_cfg, np.linspace(-1.0, 1.0, 5), 0.2)
        with pytest.raises(PoleError) as err:
            pair.evaluate_P2(np.array([0.5, 0.5j + 1e-9, 0.3j]))
        assert err.value.zero_index == 1 and err.value.lam == 0.5j + 1e-9

    def test_rh_symmetry_check_builds_one_pair(self, collision_cfg, monkeypatch):
        calls = []

        def counted(cfg, x, t):
            calls.append(np.broadcast(x, t).size)
            return build_rh_pair(cfg, x, t)

        monkeypatch.setattr(rhp, "build_rh_pair", counted)
        outcome = run_checks(RunConfig(collision_cfg, checks=("rh_symmetry",)))
        assert calls == [2] and outcome.passed


class TestReconstructPotential:
    def test_vacuum(self):
        q = reconstruct_potential(vacuum_cfg(), 0.1, 0.2)
        assert np.max(np.abs(q)) == 0.0

    def test_zero_amplitude_seeds(self):
        q = reconstruct_potential(one_soliton_spectrum(0.0, 0.0, 0.0, 0.8), 0.1, 0.2)
        assert np.max(np.abs(q)) < 1e-14

    def test_one_soliton_entries(self):
        cfg = one_soliton_spectrum(1.0, 2.0, 3.0, 1.0)
        q = reconstruct_potential(cfg, 0.0, 0.0)
        assert abs(q[0, 6] - (-4 / 29)) < 1e-14
        assert abs(q[6, 0] - (4 / 29)) < 1e-14

    def test_matches_reference_fields(self, two_soliton_cfg):
        points = ((0.0, 0.0), (0.8, -0.5))
        for (x, t), s in zip(points, reference_array(two_soliton_cfg, *zip(*points))):
            q = reconstruct_potential(two_soliton_cfg, x, t)
            assert abs(q[0, 6] - s[0]) < 1e-12
            assert abs(q[2, 6] - s[1]) < 1e-12
            assert abs(q[4, 6] - s[2]) < 1e-12

    @pytest.mark.parametrize("fig", [1, 2, 3, 4])
    def test_whole_verify_grid_in_one_call(self, fig):
        # 451 points of the coarsened grid that `verify` checks; the worst
        # measured is 2.7e-14 of the peak, on figure 2
        grid = _coarsen(figure_config(fig).grid)
        gx, gt = (a.ravel() for a in np.meshgrid(grid.xs(), grid.ts()))
        q = reconstruct_potential(figure_spectrum(fig), gx, gt)
        u = eval_fields_array(figure_spectrum(fig), gx, gt)
        assert q.shape == (451, 7, 7)
        assert np.max(np.abs(q[:, [0, 2, 4], 6] - u)) <= 1e-13 * np.max(np.abs(u))

    @pytest.mark.parametrize("fixture", ["two_soliton_cfg", "collision_cfg"])
    def test_symmetries_of_potential(self, fixture, request):
        cfg = request.getfixturevalue(fixture)
        q = reconstruct_potential(cfg, 0.7, 0.3)
        scale = max(float(np.max(np.abs(q))), 1.0)
        assert np.max(np.abs(q.conj().T + q)) < 1e-12 * scale
        assert np.max(np.abs(np.conj(q) - SIGMA @ q @ SIGMA)) < 1e-12 * scale

    def test_off_pattern_entries_vanish(self, two_soliton_cfg):
        q = reconstruct_potential(two_soliton_cfg, 0.4, 0.2)
        assert np.max(np.abs(q[:6, :6])) < 1e-10
        assert abs(q[6, 6]) < 1e-10
        # conjugate pairing down the coupling column
        for base in (0, 2, 4):
            assert abs(q[base + 1, 6] - np.conj(q[base, 6])) < 1e-12


class TestCheckSymmetries:
    def test_vacuum_all_zero(self):
        report = check_symmetries(vacuum_cfg(), [(0.0, 0.0)], [0.5, 1.0, 2j])
        assert report.max_abs == 0.0

    def test_zero_amplitude_seeds_machine_small(self):
        cfg = one_soliton_spectrum(0.0, 0.0, 0.0, 0.8)
        report = check_symmetries(cfg, [(0.0, 0.0)], [0.5, 1.0, 2j])
        assert report.max_abs < 1e-14

    def test_figure4_residuals(self, two_soliton_cfg):
        samples = list(np.linspace(-3, 3, 20))
        res = symmetry_residuals(two_soliton_cfg, 0.7, 0.3, samples)
        assert res["hermitian"] < 1e-10
        assert res["jump"] < 1e-10
        assert res["kernel"] < 1e-10
        assert res["det_at_zeros"] < 1e-10
        assert "sigma" not in res  # mirrored-zero identity is TypeI-only

    def test_figure2_sigma_symmetry(self, collision_cfg):
        res = symmetry_residuals(collision_cfg, 0.2, -0.1, [1.0 + 1.0j])
        assert res["sigma"] < 1e-10

    @pytest.mark.parametrize("fixture", ["breather_cfg", "collision_cfg", "two_soliton_cfg"])
    def test_matches_per_lambda_loop(self, fixture, request):
        cfg = request.getfixturevalue(fixture)
        samples = [complex(s) for s in np.linspace(-3.0, 3.0, 20)] + [0.7 + 1.3j]
        for x, t in ((0.0, 0.0), (0.7, 0.3)):
            got = symmetry_residuals(cfg, x, t, samples)
            want = loop_residuals(cfg, x, t, samples)
            assert list(got) == list(want)
            # entries of P are O(1): a reordered sum moves a residual by a few ulps at most
            for key in want:
                assert abs(got[key] - want[key]) <= 8 * np.finfo(float).eps, key

    def test_report_shape(self, one_soliton_cfg):
        report = check_symmetries(one_soliton_cfg, [(0.0, 0.0)], [0.5, -1.2])
        assert report.name == "rh_symmetry"
        assert report.max_abs >= report.rms
        assert any("jump" in n for n in report.notes)

    def test_worst_over_points(self, collision_cfg):
        points = ((0.0, 0.0), (0.7, 0.3))
        report = check_symmetries(collision_cfg, points, [0.5, 1.0 + 1.0j])
        assert report.grid == "(x, t) in ((0, 0), (0.7, 0.3)), 2 lambda samples"
        res = [symmetry_residuals(collision_cfg, x, t, [0.5, 1.0 + 1.0j]) for x, t in points]
        assert report.notes == tuple(f"{k}: {max(r[k] for r in res):.3e}" for k in res[0])
        # one call over all points gives each identity's worst value exactly
        got = symmetry_residuals(collision_cfg, *np.array(points).T, [0.5, 1.0 + 1.0j])
        assert got == {k: max(r[k] for r in res) for k in res[0]}

    def test_samples_and_zeros_near_poles_left_out(self):
        # the zero 1e-12j lies within the guard of its own conjugate pole
        cfg = one_soliton_spectrum(1.0, 2.0, 3.0, 1e-12)
        samples = [0.5, -1.2, 0.3 + 0.4j]
        res = symmetry_residuals(cfg, 0.7, 0.3, samples + [1e-12j, 1e-9, -2e-12j])
        assert res == symmetry_residuals(cfg, 0.7, 0.3, samples)
        assert res["kernel"] == 0.0 and res["det_at_zeros"] == 0.0
        report = check_symmetries(cfg, [(0.0, 0.0)], samples + [1e-9])
        assert report.notes[-2:] == (
            "lambda sample (1e-09+0j) left out: within 1e-08 of a pole",
            "zero 1 = 1e-12j left out of kernel and det_at_zeros: within 1e-08 of a pole",
        )

    @pytest.mark.parametrize("points", [[], [(0.0, 0.0, 1.0)], [0.0, 0.7], [(0.0, 0.0), (0.7,)], [[(0.0, 0.0)]]])
    def test_empty_or_misshaped_points_refused(self, collision_cfg, points):
        with pytest.raises(ValueError, match="points must be"):
            check_symmetries(collision_cfg, points, [0.5, 1.0 + 1.0j])

    @pytest.mark.parametrize("x, t", [(np.zeros(0), 0.0), (0.0, np.zeros(0)), (np.zeros((2, 0)), np.zeros(0))],
                             ids=["x", "t", "both"])
    def test_symmetry_residuals_refuse_zero_points(self, collision_cfg, x, t):
        # a maximum over no point would read 0 for every identity: a vacuous pass
        with pytest.raises(ValueError, match="at least one"):
            symmetry_residuals(collision_cfg, x, t, [0.5, 1.0 + 1.0j])

    def test_clear_samples_name_nothing(self, collision_cfg):
        report = check_symmetries(collision_cfg, [(0.0, 0.0)], [0.5, 1.0 + 1.0j])
        assert not any("left out" in n for n in report.notes)


class TestInvariants:
    def test_inverse_pair_on_real_axis(self, two_soliton_cfg, collision_cfg):
        rng = np.random.default_rng(17)
        for cfg in (two_soliton_cfg, collision_cfg):
            for _ in range(50):
                x = float(rng.uniform(-3, 3))
                t = float(rng.uniform(-1, 1))
                lam = float(rng.uniform(-3, 3))
                pair = build_rh_pair(cfg, x, t)
                prod = pair.evaluate_P2(lam) @ pair.evaluate_P1(lam)
                assert np.max(np.abs(prod - np.eye(7))) < 1e-10

    def test_det_p1_independent_of_x_t(self, two_soliton_cfg, collision_cfg):
        rng = np.random.default_rng(23)
        lam = 2j
        for cfg in (two_soliton_cfg, collision_cfg):
            ref = np.linalg.det(build_rh_pair(cfg, 0.0, 0.0).evaluate_P1(lam))
            for _ in range(5):
                x = float(rng.uniform(-4, 4))
                t = float(rng.uniform(-2, 2))
                val = np.linalg.det(build_rh_pair(cfg, x, t).evaluate_P1(lam))
                assert abs(val - ref) < 1e-10

    def test_det_p1_matches_blaschke_product(self, two_soliton_cfg):
        # reflectionless determinant is the rational product over the zeros
        lam = 1.7 + 0.9j
        zeros = two_soliton_cfg.expanded_zeros()
        expect = np.prod((lam - zeros) / (lam - np.conj(zeros)))
        got = np.linalg.det(build_rh_pair(two_soliton_cfg, 0.9, -0.3).evaluate_P1(lam))
        assert abs(got - expect) < 1e-12

    def test_rank_deficiency_at_zeros(self, two_soliton_cfg, collision_cfg):
        for cfg in (two_soliton_cfg, collision_cfg):
            pair = build_rh_pair(cfg, 0.3, 0.15)
            for lam_j in pair.zeros:
                singular = np.linalg.svd(pair.evaluate_P1(lam_j), compute_uv=False)
                assert singular[5] > 1e-2
                assert singular[6] < 1e-8
