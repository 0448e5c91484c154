"""The linear algebra of the construction: the elimination on the kernel
vectors in `soliton.solve_kernel`, its refusal rule on the pivots, the
weights M^-1 it gives the RH pair, and the determinants of the structure
matrices that the RH checks rely on.  M itself is formed only here, from
the kernel vectors of `flow`, as the oracle the elimination must invert."""

import warnings

import mpmath
import numpy as np
import pytest

from conftest import reference_array
from test_corpus import CORPUS
from tccss import soliton
from tccss.io_cli import figure_config, figure_spectrum
from tccss.rhp import build_rh_pair
from tccss.soliton import (
    MAX_CONDITION,
    Family,
    NearSingularError,
    NonFiniteFieldError,
    SpectrumConfig,
    TypeIISeed,
    eval_fields_array,
    eval_jets_array,
    flow,
    one_soliton_spectrum,
    solve_kernel,
)
from tccss.structure import SIGMA, SIGMA3


def kernel_vectors(cfg, x, t):
    """The stabilized kernel vectors v_j at the points: (P, m, 7)."""
    seeds, e, f = flow(cfg, np.atleast_1d(np.asarray(x, dtype=float)), np.atleast_1d(np.asarray(t, dtype=float)))
    return np.concatenate([seeds[:, :6] * e[:, :, None], seeds[:, 6:] * f[:, :, None]], axis=2)


def formed_M(cfg, x, t):
    """M_kj = (vhat_k . v_j) / (z_j - conj z_k) at the points: (P, m, m)."""
    v, z = kernel_vectors(cfg, x, t), cfg.expanded_zeros()
    return np.conj(v) @ v.swapaxes(1, 2) / (z[None, :] - np.conj(z)[:, None])


def figure_grid(fig_id):
    cfg = figure_config(fig_id)
    return cfg.spectrum, *(a.ravel() for a in np.meshgrid(cfg.grid.xs(), cfg.grid.ts()))


def close_pair(gap, seed2=(1.0, 2.0, 3.0)):
    """Type II zeros i and (1 + gap) i; seeds (1, 2, 3) and `seed2`."""
    return SpectrumConfig(
        Family.TYPE_II, (1j, (1 + gap) * 1j), (TypeIISeed(1.0, 2.0, 3.0), TypeIISeed(*seed2))
    )


class TestRefusals:
    def test_non_finite_point_named(self):
        cfg = figure_spectrum(4)
        for bad in (np.nan, np.inf):
            with pytest.raises(NonFiniteFieldError, match=rf"\(x, t\) = \({bad}, 0.5\)"):
                eval_fields_array(cfg, [0.0, bad], [0.5, 0.5])

    @pytest.mark.parametrize("eta", [1e-308, 5e-324])
    def test_pole_gap_overflows_the_pivot(self, eta):
        # the flow stays finite, the pivot |v|^2 / (2 eta) does not
        cfg = one_soliton_spectrum(1.0, 2.0, 3.0, eta)
        pole_gap = r"non-finite field at \(x, t\) = \(-1, 0.5\): M overflows double precision: a pole gap"
        for evaluate in (eval_fields_array, eval_jets_array, build_rh_pair):
            with pytest.raises(NonFiniteFieldError, match=pole_gap):
                evaluate(cfg, np.array([-1.0, 1.0]), 0.5)

    def test_near_singular_point_named_in_large_stack(self):
        # distinct seeds and zeros 1e-9 apart: the pivot ratio is 2 at x = -5
        # and 4e18 at x = 20, the one point of 1000 that is refused, with no
        # numpy warning on the way
        cfg = close_pair(1e-9, (3.0, 2.0, 1.0))
        x = np.full(1000, -5.0)
        x[500] = 20.0
        assert solve_kernel(cfg, x[:2], np.full(2, 0.5))[2].max() < 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for evaluate in (eval_fields_array, eval_jets_array, build_rh_pair):
                with pytest.raises(NearSingularError, match=r"\(x, t\) = \(20, 0.5\): pivot ratio [34]\.\d+e\+18"):
                    evaluate(cfg, x, 0.5)

    def test_bound_between_close_pairs(self):
        # equal seeds: the pivot ratio is 3e12 to 4e12 at a gap of 1e-6
        # (accepted) and about 4e18 at a gap of 1e-9 (refused), at every point
        x, t = np.linspace(-5, 5, 11), np.full(11, 0.1)
        ratio = solve_kernel(close_pair(1e-6), x, t)[2]
        assert np.all((1e12 < ratio) & (ratio < 1e13))
        with pytest.raises(NearSingularError, match=r"pivot ratio [34]\.\d+e\+18 exceeds 1e\+14"):
            eval_fields_array(close_pair(1e-9), x, t)

    def test_vacuum(self):
        vacuum = SpectrumConfig(Family.TYPE_I, (), ())
        x, t = np.linspace(-1, 1, 3), np.zeros(3)
        jets, weights, ratio = solve_kernel(vacuum, x, t, 5, weights=True)
        assert np.array_equal(jets, np.zeros((5, 3, 3))) and weights.shape == (3, 0, 0)
        assert np.array_equal(ratio, np.zeros(3))
        assert build_rh_pair(vacuum, x, t).columns.shape == (3, 0, 7)


class TestMatmul:
    def test_sigma3_squares_to_identity(self):
        assert np.array_equal(SIGMA3 @ SIGMA3, np.eye(7))
        assert np.array_equal(SIGMA @ SIGMA, np.eye(7))


class TestWeights:
    """The RH weights of the elimination, B^H diag(1 / M_cc) B, against the
    M formed from the kernel vectors."""

    def test_one_soliton_origin(self):
        # M11 = 29 / (2i) for the unit-seed (1, 2, 3) one-soliton at the origin
        weights = build_rh_pair(one_soliton_spectrum(1.0, 2.0, 3.0, 1.0), 0.0, 0.0).weights
        assert abs(weights[0, 0] - 2j / 29) < 1e-16

    @pytest.mark.parametrize("fig_id", [1, 2, 3, 4])
    def test_inverse_of_formed_M(self, fig_id):
        cfg, x, t = figure_grid(fig_id)
        x, t = x[::7], t[::7]
        m = formed_M(cfg, x, t)
        weights = build_rh_pair(cfg, x, t).weights
        resid = np.max(np.abs(m @ weights - np.eye(m.shape[1])), axis=(1, 2))
        assert np.all(resid <= 1e-14 * np.linalg.cond(m))

    @pytest.mark.parametrize("name", CORPUS)
    def test_fields_are_the_weighted_sum(self, name):
        # u = 2i sum_kj v_k[0:6:2] W_kj conj(v_j[6]): fields and weights
        # come out of one elimination and agree
        cfg, _, x, t, bound, _ = CORPUS[name]
        t = np.full_like(x, t)
        v = kernel_vectors(cfg, x, t)
        weights = build_rh_pair(cfg, x, t).weights
        u = 2j * np.einsum("pkc,pkj,pj->pc", v[:, :, 0:6:2], weights, np.conj(v[:, :, 6]))
        ratio = solve_kernel(cfg, x, t)[2]
        assert np.max(np.abs(u - eval_fields_array(cfg, x, t))) <= 1e-14 * max(1.0, ratio.max())

    @pytest.mark.parametrize("terms", [1, 3])
    def test_same_bits_across_kernel_blocks(self, terms):
        # figure 2 (m = 4) with the weights runs blocks of about
        # KERNEL_ENTRIES // (terms 4 (4 + 1 + 4)) points: one call of four or
        # more blocks gives the bits of the same points cut into other calls,
        # two of them a lone point
        cfg = figure_spectrum(2)
        x, t = np.linspace(-6, 6, 3001), np.linspace(-0.5, 0.5, 3001)
        assert x.size * terms * 4 * 9 > 3 * soliton.KERNEL_ENTRIES
        whole = solve_kernel(cfg, x, t, terms, weights=True)
        cuts = [0, 1, 2, 700, 1901, 3001]
        parts = [solve_kernel(cfg, x[a:b], t[a:b], terms, weights=True) for a, b in zip(cuts, cuts[1:])]
        assert np.array_equal(whole[0], np.concatenate([p[0] for p in parts], axis=1))
        for i in (1, 2):  # W and the pivot ratio
            assert np.array_equal(whole[i], np.concatenate([p[i] for p in parts]))

    def test_zero_order_does_not_matter(self):
        # each point pivots on its own order; listing the zeros in another
        # order moves the jets by roundoff and permutes the weights
        cfg = CORPUS["type_ii_n4"][0]
        turned = SpectrumConfig(cfg.family, cfg.zeros[::-1], cfg.seeds[::-1])
        x, t = np.linspace(-8, 8, 33), np.full(33, 0.1)
        jets = eval_jets_array(cfg, x, t)
        assert np.max(np.abs(jets - eval_jets_array(turned, x, t))) < 1e-13 * np.max(np.abs(jets))
        w, w_turned = build_rh_pair(cfg, x, t).weights, build_rh_pair(turned, x, t).weights
        assert np.max(np.abs(w - w_turned[:, ::-1, ::-1])) < 1e-13 * np.max(np.abs(w))


class TestDet:
    def test_swap_involution_is_odd(self):
        # three disjoint transpositions, each contributing a factor -1
        assert abs(np.linalg.det(SIGMA) - (-1.0)) < 1e-15
        assert np.linalg.det(SIGMA3) == -1.0


class TestPivotRatio:
    """The refusal rule: the ratio of the largest to the smallest pivot,
    which is at most cond(M) since iM is Hermitian positive definite."""

    @pytest.mark.parametrize("fig_id", [1, 2, 3, 4])
    def test_figure_grids(self, fig_id):
        cfg, x, t = figure_grid(fig_id)
        m = formed_M(cfg, x, t)
        # M is anti-Hermitian and iM positive definite, so the singular
        # values are the eigenvalues of iM
        skew = np.max(np.abs(m + np.conj(np.swapaxes(m, 1, 2))), axis=(1, 2))
        assert np.all(skew <= 1e-15 * np.max(np.abs(m), axis=(1, 2)))
        w = np.linalg.eigvalsh(1j * m)
        assert np.all(w > 0)
        cond = w[:, -1] / w[:, 0]
        ratio = solve_kernel(cfg, x, t)[2]
        assert np.all((0.1 * cond <= ratio) & (ratio <= cond * (1 + 1e-12)))
        assert ratio.max() < 1e-11 * MAX_CONDITION

    def test_refusal_follows_the_bound(self, monkeypatch):
        cfg, x, t = figure_grid(2)
        ratio = solve_kernel(cfg, x, t)[2]
        p = int(np.argmax(ratio))
        monkeypatch.setattr(soliton, "MAX_CONDITION", ratio[p])
        eval_fields_array(cfg, x, t)
        monkeypatch.setattr(soliton, "MAX_CONDITION", ratio[p] * (1 - 1e-15))
        with pytest.raises(NearSingularError, match=rf"\(x, t\) = \({x[p]:.17g}, {t[p]:.17g}\)"):
            eval_fields_array(cfg, x, t)


class TestRefusalSoundness:
    """Random close Type II pairs and triples with one seed, cond(M) from a
    60-digit eigensolve of iM: the kernel accepts every point with cond(M)
    below MAX_CONDITION and refuses every point with cond(M) above 40
    MAX_CONDITION (the pivot ratio read 0.17 to 0.25 times cond(M) on these
    draws).  Where it accepts, the field stays within the 1e-16 cond(M) of a
    backward-stable solve of the reference (at least 1e4 times within)."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_draws(self, n):
        rng = np.random.default_rng(7 + n)
        for _ in range(12):
            etas = 1.0 + np.concatenate([[0.0], np.sort(10.0 ** rng.uniform(*{2: (-10, -3), 3: (-5, -2)}[n], n - 1))])
            seed = TypeIISeed(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
            cfg = SpectrumConfig(Family.TYPE_II, tuple(1j * etas), (seed,) * n)
            x, t = rng.uniform(-4, 4), rng.uniform(-0.3, 0.3)
            v, z = kernel_vectors(cfg, x, t)[0], cfg.expanded_zeros()
            with mpmath.workdps(60):
                im = mpmath.matrix([[1j * mpmath.fdot([mpmath.conj(mpmath.mpc(a)) for a in v[k]], [mpmath.mpc(b) for b in v[j]])
                                     / (mpmath.mpc(z[j]) - mpmath.conj(mpmath.mpc(z[k]))) for j in range(n)] for k in range(n)])
                w = mpmath.eighe(im, eigvals_only=True)
                cond = float(max(w) / min(w))
            if cond > 40 * MAX_CONDITION:
                with pytest.raises(NearSingularError):
                    eval_fields_array(cfg, [x], [t])
                continue
            try:
                u = eval_fields_array(cfg, [x], [t])
            except NearSingularError:
                assert cond > MAX_CONDITION
                continue
            ref = reference_array(cfg, [x], [t], 60)
            assert np.max(np.abs(u - ref)) <= 1e-16 * cond * max(1.0, np.max(np.abs(ref)))
