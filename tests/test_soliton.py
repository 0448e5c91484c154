import math
from functools import partial

import mpmath
import numpy as np
import pytest

from tccss import rhp
from tccss.rhp import build_rh_pair
from tccss.soliton import (
    DegenerateSeedError,
    Family,
    NearSingularError,
    NonFiniteFieldError,
    SpectrumConfig,
    SpectrumError,
    TypeISeed,
    TypeIISeed,
    breather_closed_form,
    breather_spectrum,
    eval_fields_array,
    eval_jets_array,
    flow,
    one_soliton_closed_form,
    one_soliton_spectrum,
    theta,
    two_soliton_closed_form,
)
from tccss.structure import SIGMA

from conftest import max_field_diff, reference_fields
from tccss.io_cli import figure_spectrum


def fig4_params():
    return (TypeIISeed(1.0, 1.0 + 1.0j, 1.0 + 1.0j), TypeIISeed(1j, 0.5j, 1j), 0.3j, 0.5j)


def fig4_cfg():
    s1, s2, l1, l2 = fig4_params()
    return SpectrumConfig(Family.TYPE_II, (l1, l2), (s1, s2))


class TestTheta:
    def test_origin(self):
        assert theta(0.5 + 0.5j, 0.0, 0.0) == 0.0

    def test_pure_imaginary_space(self):
        assert theta(1j, 1.0, 0.0) == -1.0

    def test_space_time(self):
        # i*i*1 + 4i*(i^3)*1 = -1 + 4 = 3
        assert theta(1j, 1.0, 1.0) == 3.0


def fields_at(cfg, x, t, stabilize=True):
    """The field kernel at one point: (3,)."""
    return eval_fields_array(cfg, [x], [t], stabilize)[0]


def rh_M(cfg, x, t, monkeypatch):
    """The M that `build_rh_pair` forms at (x, t), and its kernel vectors;
    M is taken from the call to `solve_M`, which is not run."""
    seen = []
    monkeypatch.setattr(rhp, "solve_M", lambda m, rhs, *points: seen.append(m[0]) or (rhs, m))
    columns = build_rh_pair(cfg, x, t).columns
    return seen[0], columns


class TestBuildVectors:
    """The kernel vectors: the seeds and exponentials of `flow`, and the
    vectors `build_rh_pair` forms from them."""

    def test_type2_at_origin(self):
        cfg = one_soliton_spectrum(1.0, 2.0, 3.0, 1.0)
        columns = build_rh_pair(cfg, 0.0, 0.0).columns
        expect = np.array([1, 1, 2, 2, 3, 3, 1], dtype=complex)
        assert np.allclose(columns[0], expect, atol=0)
        assert np.allclose(np.conj(columns[0]), expect, atol=0)

    def test_type2_exponential_split(self):
        cfg = one_soliton_spectrum(1.0, 2.0, 3.0, 1.0)
        seeds, e, f = flow(cfg, np.array([1.0]), np.array([0.0]), stabilize=False)
        # theta = -1: leading six components scaled by e^-1, the last by e
        assert np.array_equal(seeds[0], [1, 1, 2, 2, 3, 3, 1])
        assert np.allclose(e[0, 0], np.exp(-1.0), rtol=1e-15)
        assert np.allclose(f[0, 0], np.exp(1.0), rtol=1e-15)

    def test_type1_mirror_of_equal_entries(self):
        cfg = SpectrumConfig(
            Family.TYPE_I, (0.5 + 0.5j,), (TypeISeed(1, 1, 1, 1, 1, 1),)
        )
        columns = build_rh_pair(cfg, 0.0, 0.0).columns
        assert columns.shape == (2, 7)
        assert np.allclose(columns[1], np.ones(7), atol=0)

    def test_type1_mirror_relation_everywhere(self):
        cfg = breather_spectrum(1j / 3, 0.4 - 0.2j, 1.0, 0.5 + 0.5j)
        x, t = np.array([0.3, -1.0, 2.0]), np.array([0.0, 0.7, -0.3])
        seeds, e, f = flow(cfg, x, t)
        assert np.array_equal(seeds[1], SIGMA @ np.conj(seeds[0]))
        assert np.array_equal(e[:, 1], np.conj(e[:, 0]))
        assert np.array_equal(f[:, 1], np.conj(f[:, 0]))
        for xp, tp in zip(x, t):
            columns = build_rh_pair(cfg, xp, tp).columns
            assert np.allclose(columns[1], SIGMA @ np.conj(columns[0]), rtol=1e-14)

    def test_stabilized_scale_extraction(self):
        cfg = one_soliton_spectrum(1.0, 2.0, 3.0, 1.0)
        x, t = np.array([3.0]), np.array([0.0])
        _, e_raw, f_raw = flow(cfg, x, t, stabilize=False)
        _, e, f = flow(cfg, x, t)
        scale = np.exp(abs(theta(1j, 3.0, 0.0).real))
        assert np.allclose(e * scale, e_raw, rtol=1e-14)
        assert np.allclose(f * scale, f_raw, rtol=1e-14)
        assert np.max(np.abs(build_rh_pair(cfg, 3.0, 0.0).columns)) <= 3.0 + 1e-12


class TestBuildM:
    """The M of `build_rh_pair`, M_kj = (vhat_k . v_j) / (lambda_j -
    conj(lambda_k)) over the stabilized kernel vectors."""

    def test_type2_inner_product(self, monkeypatch):
        cfg = one_soliton_spectrum(1.0, 2.0, 3.0, 1.0)
        m, _ = rh_M(cfg, 0.0, 0.0, monkeypatch)
        # vhat.v = 2 (1 + 4 + 9) + 1 = 29 over the gap 2i
        assert abs(m[0, 0] - 29 / 2j) < 1e-14

    def test_zero_seed_limit(self, monkeypatch):
        eta = 0.7
        cfg = one_soliton_spectrum(0.0, 0.0, 0.0, eta)
        for (x, t) in ((0.0, 0.0), (0.9, 0.2)):
            m, _ = rh_M(cfg, x, t, monkeypatch)
            th = theta(1j * eta, x, t)
            # the stabilized vector carries exp(-|Re theta|)
            assert abs(m[0, 0] - np.exp(-2 * th - 2 * abs(th.real)) / (2j * eta)) < 1e-12

    def test_type1_mirror_denominator(self, monkeypatch):
        lam = 0.5 + 0.5j
        cfg = SpectrumConfig(Family.TYPE_I, (lam,), (TypeISeed(1, 1, 1, 1, 1, 1),))
        m, columns = rh_M(cfg, 0.0, 0.0, monkeypatch)
        assert m.shape == (2, 2)
        # the (2,1) entry divides by lam - conj(-conj(lam)) = 2 lam
        gram21 = np.dot(np.conj(columns[1]), columns[0])
        assert abs(m[1, 0] - gram21 / (2 * lam)) < 1e-14

    def test_type2_matches_pairing_formula(self, monkeypatch):
        s1, s2, l1, l2 = fig4_params()
        cfg = fig4_cfg()
        x, t = 0.4, -0.3
        m, _ = rh_M(cfg, x, t, monkeypatch)
        seeds, lams = (s1, s2), (l1, l2)
        # the stabilized M is D^-1 M D^-1, D = diag(exp |Re theta_j|)
        scales = [abs(theta(z, x, t).real) for z in lams]
        for k in range(2):
            for j in range(2):
                sk, sj = seeds[k], seeds[j]
                pairing = (
                    sk.alpha * np.conj(sj.alpha) + np.conj(sk.alpha) * sj.alpha
                    + sk.gamma * np.conj(sj.gamma) + np.conj(sk.gamma) * sj.gamma
                    + np.conj(sk.rho) * sj.rho + sk.rho * np.conj(sj.rho)
                )
                num = pairing * np.exp(
                    np.conj(theta(lams[k], x, t)) + theta(lams[j], x, t)
                ) + np.exp(-np.conj(theta(lams[k], x, t)) - theta(lams[j], x, t))
                expect = num / (lams[j] - np.conj(lams[k])) * np.exp(-scales[k] - scales[j])
                assert abs(m[k, j] - expect) < 1e-12

    def test_anti_hermitian_pairing(self, monkeypatch):
        # vhat_j = v_j^dagger forces M^dagger = -M for both families
        for cfg in (fig4_cfg(), breather_spectrum(1.0, 2j, 0.3, 0.4 + 0.7j)):
            m, columns = rh_M(cfg, 0.6, 0.2, monkeypatch)
            assert np.max(np.abs(m.conj().T + m)) < 1e-12 * np.max(np.abs(m))
            gram = np.conj(columns) @ columns.T
            assert np.max(np.abs(np.conj(gram) - gram.T)) < 1e-12 * np.max(np.abs(gram))


def closed_on(closed, x, t) -> np.ndarray:
    """A pointwise closed form at the points (x[p], t[p]): (P, 3)."""
    return np.array([closed(float(xp), float(tp)) for xp, tp in zip(x, t)])


class TestEvalFields:
    """Values of the field kernel against hand-derived oracles."""

    def test_one_soliton_origin_exact(self):
        cfg = one_soliton_spectrum(1.0, 2.0, 3.0, 1.0)
        s = fields_at(cfg, 0.0, 0.0)
        assert abs(s[0] - (-4 / 29)) < 1e-15
        assert abs(s[1] - (-8 / 29)) < 1e-15
        assert abs(s[2] - (-12 / 29)) < 1e-15

    def test_scalar_chain_oracle(self):
        # independent N = 1 evaluation: u_m = 2i c_m e^{theta - conj theta} / M11
        cfg = one_soliton_spectrum(1.0, 2.0, 3.0, 1.0)
        points = ((0.7, 0.3), (-1.1, -0.2), (2.5, 0.9))
        u = eval_fields_array(cfg, *zip(*points))
        for (x, t), got in zip(points, u):
            th = theta(1j, x, t)
            s_norm = 1.0 + 4.0 + 9.0
            m11 = (2 * s_norm * np.exp(2 * th) + np.exp(-2 * th)) / 2j
            for c, v in zip((1.0, 2.0, 3.0), got):
                assert abs(v - 2j * c * np.exp(th - np.conj(th)) / m11) < 1e-14

    def test_zero_seeds_give_zero_field(self):
        cfg2 = one_soliton_spectrum(0.0, 0.0, 0.0, 0.8)
        cfg1 = SpectrumConfig(
            Family.TYPE_I, (0.4 + 0.3j,), (TypeISeed(0, 0, 0, 0, 0, 0),)
        )
        for cfg in (cfg2, cfg1):
            s = fields_at(cfg, 0.5, -0.7)
            assert np.max(np.abs(s)) == 0.0

    def test_two_soliton_closed_form_200_points(self):
        s1, s2, l1, l2 = fig4_params()
        rng = np.random.default_rng(42)
        x, t = rng.uniform(-5, 5, 200), rng.uniform(-1, 1, 200)
        closed = closed_on(partial(two_soliton_closed_form, s1, s2, l1, l2), x, t)
        assert max_field_diff(eval_fields_array(fig4_cfg(), x, t), closed) < 1e-10

    def test_polarization_proportionality(self):
        cfg = one_soliton_spectrum(0.3 + 1j, -2.0, 1.5j, 0.6)
        rng = np.random.default_rng(8)
        x, t = rng.uniform(-4, 4, 25), rng.uniform(-1, 1, 25)
        s = eval_fields_array(cfg, x, t)
        assert np.max(np.abs(s[:, 1] * (0.3 + 1j) - s[:, 0] * (-2.0))) < 1e-13
        assert np.max(np.abs(s[:, 2] * (0.3 + 1j) - s[:, 0] * (1.5j))) < 1e-13

    def test_stabilized_path_no_overflow(self):
        cfg2 = one_soliton_spectrum(1.0, 2.0, 3.0, 2.0)
        cfg1 = breather_spectrum(1.0, 1.0, 1.0, 0.5 + 2.0j)
        for cfg in (cfg2, cfg1):
            s = eval_fields_array(cfg, [-200.0, 200.0], 0.0)
            assert np.all(np.isfinite(s))
            assert np.max(np.abs(s)) < 1e-6

    def test_decay_at_spatial_infinity(self):
        x_far = 30.0 / (2 * 0.3)
        s = eval_fields_array(fig4_cfg(), [-x_far - 10, x_far + 10], 0.0)
        assert np.max(np.abs(s)) <= 1e-6


class TestEvalFieldsArray:
    def grid(self):
        x, t = np.meshgrid(np.linspace(-5, 5, 41), np.linspace(-1, 1, 21))
        return x.ravel(), t.ravel()

    def test_matches_closed_forms(self):
        x, t = self.grid()
        s1, s2, l1, l2 = fig4_params()
        a, g, r = 1j / math.sqrt(3), math.sqrt(2) * 1j / math.sqrt(3), math.sqrt(2) * 1j / math.sqrt(3)
        cases = [
            (one_soliton_spectrum(1.0, 2.0, 3.0, 1.0),
             lambda x, t: one_soliton_closed_form(1.0, 2.0, 3.0, 1.0, x, t)),
            (breather_spectrum(a, g, r, 0.5 + 0.5j),
             lambda x, t: breather_closed_form(a, g, r, 0.5, 0.5, x, t)),
            (fig4_cfg(), lambda x, t: two_soliton_closed_form(s1, s2, l1, l2, x, t)),
        ]
        for cfg, closed in cases:
            u = eval_fields_array(cfg, x, t)
            ref = np.array([closed(float(xp), float(tp)) for xp, tp in zip(x, t)])
            assert np.max(np.abs(u - ref)) <= 1e-10

    def test_stabilization_invariance(self):
        x, t = self.grid()
        cfgs = (
            fig4_cfg(),
            breather_spectrum(1.0, 2j, 0.3, 0.4 + 0.7j),
            SpectrumConfig(
                Family.TYPE_I, (0.5 + 0.5j, 0.4 + 0.6j),
                (TypeISeed(1, 1, 1, 1, 1, 0), TypeISeed(1, 0, 2, 0, 0, 0)),
            ),
        )
        for cfg in cfgs:
            a = eval_fields_array(cfg, x, t)
            b = eval_fields_array(cfg, x, t, stabilize=False)
            assert np.max(np.abs(a - b)) <= 1e-10

    def test_broadcasts_scalar_t_and_vacuum(self):
        xs = np.linspace(-2, 2, 5)
        u = eval_fields_array(fig4_cfg(), xs, 0.3)
        assert u.shape == (5, 3)
        assert np.array_equal(u, eval_fields_array(fig4_cfg(), xs, np.full(5, 0.3)))
        vacuum = SpectrumConfig(Family.TYPE_II, (), ())
        assert np.array_equal(eval_fields_array(vacuum, xs, 0.3), np.zeros((5, 3)))

    def test_near_coincident_zeros_name_worst_point(self, monkeypatch):
        seed = TypeIISeed(1.0, 2.0, 3.0)
        cfg = SpectrumConfig(Family.TYPE_II, (1j, 1.0000000000001j), (seed, seed))
        xs = np.linspace(-2, 2, 9)
        # cond of the M that the RH pair forms from its kernel vectors
        conds = [np.linalg.cond(rh_M(cfg, x, 0.5, monkeypatch)[0]) for x in xs]
        monkeypatch.undo()
        worst = xs[int(np.argmax(conds))]
        with pytest.raises(NearSingularError, match=rf"\(x, t\) = \({worst:.17g}, 0.5\)"):
            eval_fields_array(cfg, xs, 0.5)
        assert max(conds) > 1e14
        with pytest.raises(NearSingularError):
            build_rh_pair(cfg, 0.0, 0.5)

    def test_non_finite_field_refused(self):
        overflow = one_soliton_spectrum(1.0, 2.0, 3.0, 1e308)
        with pytest.raises(NonFiniteFieldError, match=r"\(x, t\) = \(1, 0.5\)"):
            eval_fields_array(overflow, [1.0], [0.5])
        with pytest.raises(NonFiniteFieldError):
            eval_fields_array(fig4_cfg(), [0.0, np.nan], [0.0, 0.0])
        with pytest.raises(NonFiniteFieldError):
            eval_fields_array(fig4_cfg(), [np.inf], [0.0])

    def test_overflowing_zero_refused_by_both_paths(self):
        # theta overflows to NaN (not OverflowError); the field kernel and
        # the RH pair both refuse it
        cfg = SpectrumConfig(Family.TYPE_II, (1e120j,), (TypeIISeed(1.0, 2.0, 3.0),))
        with pytest.raises(NonFiniteFieldError, match=r"\(x, t\) = \(0, 0\)"):
            build_rh_pair(cfg, 0.0, 0.0)
        with pytest.raises(NonFiniteFieldError, match=r"\(x, t\) = \(0, 0\)"):
            eval_fields_array(cfg, [0.0], [0.0])


class TestEvalJetsArray:
    POINTS = ((0.0, 0.0), (0.7, 0.3), (-1.3, -0.4))

    @pytest.mark.parametrize("fig_id", [1, 2, 3, 4])
    def test_against_40_digit_derivatives(self, fig_id):
        # each jet order against mpmath.diff of the 40-digit reference,
        # within 1e-9 of the order's largest entry
        cfg = figure_spectrum(fig_id)
        ref = reference_fields(cfg)
        x, t = (np.array(a) for a in zip(*self.POINTS))
        jets = eval_jets_array(cfg, x, t)
        with mpmath.workdps(40):
            for index, (axis, n) in enumerate((("x", 1), ("x", 2), ("x", 3), ("t", 1)), start=1):
                want = np.array([
                    [complex(mpmath.diff(
                        (lambda s: ref(s, mpmath.mpf(tp))[c]) if axis == "x"
                        else (lambda s: ref(mpmath.mpf(xp), s)[c]),
                        mpmath.mpf(xp if axis == "x" else tp), n,
                    )) for c in range(3)]
                    for xp, tp in self.POINTS
                ])
                assert np.max(np.abs(jets[index] - want)) <= 1e-9 * np.max(np.abs(want))

    def test_order_zero_is_the_field_kernel(self):
        cfg = figure_spectrum(2)
        x, t = np.meshgrid(np.linspace(-5, 5, 41), np.linspace(-1, 1, 5))
        jets = eval_jets_array(cfg, x.ravel(), t.ravel())
        assert jets.shape == (5, x.size, 3)
        assert np.array_equal(jets[0], eval_fields_array(cfg, x.ravel(), t.ravel()))

    def test_stabilization_invariance(self):
        x, t = np.meshgrid(np.linspace(-5, 5, 21), np.linspace(-1, 1, 5))
        for fig_id in (1, 2, 4):
            cfg = figure_spectrum(fig_id)
            a = eval_jets_array(cfg, x, t)
            b = eval_jets_array(cfg, x, t, stabilize=False)
            assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(a))

    def test_vacuum_and_broadcast(self):
        xs = np.linspace(-2, 2, 5)
        vacuum = SpectrumConfig(Family.TYPE_II, (), ())
        assert np.array_equal(eval_jets_array(vacuum, xs, 0.3), np.zeros((5, 5, 3)))
        assert np.array_equal(eval_jets_array(fig4_cfg(), xs, 0.3), eval_jets_array(fig4_cfg(), xs, np.full(5, 0.3)))

    def test_non_finite_refused(self):
        cfg = SpectrumConfig(Family.TYPE_II, (1e120j,), (TypeIISeed(1.0, 2.0, 3.0),))
        with pytest.raises(NonFiniteFieldError, match=r"\(x, t\) = \(0, 0\)"):
            eval_jets_array(cfg, [0.0], [0.0])


class TestOneSolitonClosedForm:
    def test_origin_value(self):
        s = one_soliton_closed_form(1.0, 2.0, 3.0, 1.0, 0.0, 0.0)
        assert abs(s[0] - (-4 / 29)) < 1e-15

    def test_peak_amplitude_by_grid_search(self):
        xs = np.linspace(-3, 3, 60001)
        vals = [abs(one_soliton_closed_form(1, 2, 3, 1.0, float(x), 0.0)[0]) for x in xs]
        peak = max(vals)
        assert abs(peak - math.sqrt(2) / math.sqrt(14)) < 1e-7

    def test_component_decoupling(self):
        for x in (-2.0, 0.0, 1.5):
            s = one_soliton_closed_form(0.0, 2.0, 3.0, 1.0, x, 0.4)
            assert s[0] == 0.0
            assert abs(s[1]) > 0.0 and abs(s[2]) > 0.0

    def test_matches_kernel_on_grid(self):
        cfg = one_soliton_spectrum(1.0, 2.0, 3.0, 1.0)
        x, t = (a.ravel() for a in np.meshgrid(np.linspace(-5, 5, 21), np.linspace(-1, 1, 5)))
        cf = closed_on(partial(one_soliton_closed_form, 1, 2, 3, 1.0), x, t)
        assert max_field_diff(cf, eval_fields_array(cfg, x, t)) < 1e-10

    def test_degenerate_seed(self):
        with pytest.raises(DegenerateSeedError):
            one_soliton_closed_form(0.0, 0.0, 0.0, 1.0, 0.0, 0.0)

    def test_zero_eta_rejected(self):
        with pytest.raises(ValueError):
            one_soliton_closed_form(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)


class TestBreatherClosedForm:
    A1 = 1j / math.sqrt(3)
    G1 = math.sqrt(2) * 1j / math.sqrt(3)

    def test_component_ratio(self):
        s = breather_closed_form(self.A1, self.G1, self.G1, 0.5, 0.5, 0.3, 0.1)
        assert abs(abs(s[1]) - math.sqrt(2) * abs(s[0])) < 1e-14
        assert abs(abs(s[2]) - math.sqrt(2) * abs(s[0])) < 1e-14

    def test_spatial_decay(self):
        for x in (-60.0, 60.0):
            s = breather_closed_form(self.A1, self.G1, self.G1, 0.5, 0.5, x, 0.0)
            assert np.max(np.abs(s)) < 1e-12

    def test_matches_kernel_at_origin(self):
        cfg = breather_spectrum(self.A1, self.G1, self.G1, 0.5 + 0.5j)
        cf = breather_closed_form(self.A1, self.G1, self.G1, 0.5, 0.5, 0.0, 0.0)
        assert max_field_diff(cf, fields_at(cfg, 0.0, 0.0)) < 1e-12

    def test_matches_kernel_on_grid(self):
        cfg = breather_spectrum(self.A1, self.G1, self.G1, 0.5 + 0.5j)
        x, t = (a.ravel() for a in np.meshgrid(np.linspace(-5, 5, 21), np.linspace(-1, 1, 5)))
        cf = closed_on(partial(breather_closed_form, self.A1, self.G1, self.G1, 0.5, 0.5), x, t)
        assert max_field_diff(cf, eval_fields_array(cfg, x, t)) < 1e-10

    def test_generic_seed_agreement(self):
        a, g, r = 0.4 - 0.2j, 1.1j, -0.7 + 0.3j
        cfg = breather_spectrum(a, g, r, 0.8 + 0.6j)
        x, t = np.array([0.0, 1.3, -2.1]), np.array([0.0, -0.4, 0.8])
        cf = closed_on(partial(breather_closed_form, a, g, r, 0.8, 0.6), x, t)
        assert max_field_diff(cf, eval_fields_array(cfg, x, t)) < 1e-11

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            breather_closed_form(1, 1, 1, 0.0, 0.5, 0, 0)
        with pytest.raises(ValueError):
            breather_closed_form(1, 1, 1, 0.5, -0.5, 0, 0)
        with pytest.raises(DegenerateSeedError):
            breather_closed_form(0, 0, 0, 0.5, 0.5, 0, 0)


class TestTwoSolitonClosedForm:
    def test_figure4_origin(self):
        s1, s2, l1, l2 = fig4_params()
        cfg = fig4_cfg()
        cf = two_soliton_closed_form(s1, s2, l1, l2, 0.0, 0.0)
        assert max_field_diff(cf, fields_at(cfg, 0.0, 0.0)) < 1e-10

    def test_second_seed_zero_still_couples(self):
        s1 = TypeIISeed(1.0, 1.0 + 1.0j, 1.0 + 1.0j)
        s2 = TypeIISeed(0.0, 0.0, 0.0)
        cfg = SpectrumConfig(Family.TYPE_II, (0.3j, 0.5j), (s1, s2))
        x, t = np.array([0.0, 1.0]), np.array([0.0, 0.5])
        cf = closed_on(partial(two_soliton_closed_form, s1, s2, 0.3j, 0.5j), x, t)
        assert max_field_diff(cf, eval_fields_array(cfg, x, t)) < 1e-12

    def test_asymptotic_splitting(self):
        # far from the collision each bell matches a single-soliton envelope
        s1, s2, l1, l2 = fig4_params()

        def envelope(x, t):
            u = two_soliton_closed_form(s1, s2, l1, l2, x, t)
            return float(np.sqrt(np.sum(np.abs(u) ** 2)))

        for t in (-30.0, 30.0):
            for eta in (0.3, 0.5):
                center = 4 * eta ** 2 * t
                xs = np.linspace(center - 12, center + 12, 3001)
                vals = np.array([envelope(float(x), t) for x in xs])
                x0 = xs[int(np.argmax(vals))]
                window = np.linspace(x0 - 3 / (2 * eta), x0 + 3 / (2 * eta), 101)
                for x in window:
                    ref = math.sqrt(2) * eta / math.cosh(2 * eta * (float(x) - x0))
                    assert abs(envelope(float(x), t) - ref) < 1e-3

    def test_invalid_zeros(self):
        s1, s2, _, _ = fig4_params()
        with pytest.raises(SpectrumError):
            two_soliton_closed_form(s1, s2, 0.3j, 0.3j, 0.0, 0.0)
        with pytest.raises(SpectrumError):
            two_soliton_closed_form(s1, s2, 0.1 + 0.3j, 0.5j, 0.0, 0.0)


class TestType1NSoliton:
    def test_figure2_finite_collision(self, collision_cfg):
        s = eval_fields_array(collision_cfg, [0.0, 3.0, -5.0], [0.0, 1.0, -2.0])
        assert np.all(np.isfinite(s))
        assert np.max(np.abs(s[0])) > 1e-3

    def test_breather_reduction(self):
        a, g, r = 1j / math.sqrt(3), 0.5 + 0.2j, -0.3j
        cfg = breather_spectrum(a, g, r, 0.5 + 0.5j)
        x, t = np.array([0.4, -1.5]), np.array([0.2, -0.6])
        cf = closed_on(partial(breather_closed_form, a, g, r, 0.5, 0.5), x, t)
        assert max_field_diff(eval_fields_array(cfg, x, t), cf) < 1e-11


class TestValidation:
    def test_lower_half_plane_zero(self):
        with pytest.raises(SpectrumError, match="upper half-plane"):
            SpectrumConfig(Family.TYPE_II, (-0.5j,), (TypeIISeed(1, 0, 0),))

    def test_type2_zero_must_be_imaginary(self):
        with pytest.raises(SpectrumError, match="pure imaginary"):
            SpectrumConfig(Family.TYPE_II, (0.5 + 0.5j,), (TypeIISeed(1, 0, 0),))

    def test_type1_zero_must_not_be_imaginary(self):
        with pytest.raises(SpectrumError, match="must not be pure imaginary"):
            SpectrumConfig(Family.TYPE_I, (0.3j,), (TypeISeed(1, 1, 1, 1, 1, 1),))

    def test_coincident_zeros(self):
        with pytest.raises(SpectrumError, match="coincident"):
            SpectrumConfig(
                Family.TYPE_II,
                (0.3j, 0.3j),
                (TypeIISeed(1, 0, 0), TypeIISeed(0, 1, 0)),
            )

    def test_type1_mirror_collision(self):
        # the second base zero equals the mirror of the first
        with pytest.raises(SpectrumError, match="coincident"):
            SpectrumConfig(
                Family.TYPE_I,
                (0.5 + 0.5j, -0.5 + 0.5j),
                (TypeISeed(1, 1, 1, 1, 1, 1), TypeISeed(1, 0, 0, 0, 0, 0)),
            )

    def test_seed_family_mismatch(self):
        with pytest.raises(SpectrumError, match="expected TypeIISeed"):
            SpectrumConfig(Family.TYPE_II, (0.3j,), (TypeISeed(1, 1, 1, 1, 1, 1),))

    def test_seed_count_mismatch(self):
        with pytest.raises(SpectrumError, match="seeds"):
            SpectrumConfig(Family.TYPE_II, (0.3j, 0.5j), (TypeIISeed(1, 0, 0),))
