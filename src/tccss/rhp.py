"""Reflectionless Riemann-Hilbert solution pair and its symmetry checks.

With vanishing reflection data the factorization problem on the real axis
degenerates to rational matrix functions

    P1(lam) = I - sum_kj v_k vhat_j (M^-1)_kj / (lam - conj(lambda_j)),
    P2(lam) = I + sum_kj v_k vhat_j (M^-1)_kj / (lam - lambda_k),

normalized to the identity at infinity.  P1 is analytic in the closed upper
half-plane (poles only at the conjugated zeros below the axis), P2 the other
way around, and P2 P1 = I identically.  The potential matrix is recovered
from the 1/lam coefficient of P1.  Their weights M^-1 come from the field
kernel's elimination, one `soliton.solve_kernel` call over many (x, t) points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .report import ResidualReport, summarize
from .soliton import Family, SpectrumConfig, flow, solve_kernel
from .structure import SIGMA, SIGMA3

POLE_GUARD_RADIUS = 1e-8


class PoleError(Exception):
    """Evaluation requested within the guard radius of a pole."""

    def __init__(self, zero_index: int, pole: complex, lam: complex):
        self.zero_index = zero_index
        self.pole = pole
        self.lam = lam
        super().__init__(
            f"lambda = {lam} is within {POLE_GUARD_RADIUS} of the pole {pole} "
            f"(zero index {zero_index + 1})"
        )


@dataclass(frozen=True)
class RHSolutionPair:
    """Rational RH factors bound to one spectrum at the points of `build_rh_pair`.

    Immutable; the points' shape `...` (none for one point) leads every array.
    The weight matrix W = M^-1 (scaled vector gauge) is shared by both factors
    and the potential expansion.  `columns[..., j, :]` spans ker P1(lambda_j);
    its conjugate vhat_j spans the left kernel of P2 at the conjugate zero.
    Both carry the stabilizing factor exp(-|Re theta_j|) of `flow`.
    """

    columns: np.ndarray       # (..., m, 7) kernel vectors v_j
    weights: np.ndarray       # (..., m, m) inverse of the stabilized M
    zeros: np.ndarray         # (m,) expanded zeros (poles of P2)

    def _factor(self, lam, poles: np.ndarray, sign: float, on_rows: bool) -> np.ndarray:
        """I + sign sum_kj v_k vhat_j W_kj / (lam - poles[i]), i = k when
        `on_rows` (P2) and i = j otherwise (P1): (..., 7, 7) for a scalar lam,
        (..., L, 7, 7) for a 1-D array of L."""
        lam = np.asarray(lam, dtype=complex)
        gaps = lam.reshape(-1, 1) - poles
        hits = np.argwhere(np.abs(gaps) < POLE_GUARD_RADIUS)
        if len(hits):
            i, j = hits[0]
            raise PoleError(int(j), complex(poles[j]), complex(lam.reshape(-1)[i]))
        shifts = sign / gaps
        scaled = self.weights[..., None, :, :] * (shifts[:, :, None] if on_rows else shifts[:, None, :])
        v = self.columns[..., None, :, :]
        p = np.eye(7) + v.swapaxes(-1, -2) @ scaled @ np.conj(v)
        return p.reshape(self.weights.shape[:-2] + lam.shape + (7, 7))

    def evaluate_P1(self, lam) -> np.ndarray:
        """P1 at lam; poles sit at the conjugated zeros (lower half-plane)."""
        return self._factor(lam, np.conj(self.zeros), -1.0, on_rows=False)

    def evaluate_P2(self, lam) -> np.ndarray:
        """P2 at lam; poles sit at the zeros themselves (upper half-plane)."""
        return self._factor(lam, self.zeros, 1.0, on_rows=True)

    def first_order_term(self) -> np.ndarray:
        """Coefficient of 1/lam in the large-lambda expansion of P1."""
        return -(self.columns.swapaxes(-1, -2) @ self.weights @ np.conj(self.columns))


def build_rh_pair(cfg: SpectrumConfig, x, t) -> RHSolutionPair:
    """Both RH factors at the points (x, t), which broadcast: the kernel
    vectors of `flow`, and as weights the M^-1 of one `solve_kernel`
    elimination over all the points."""
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    weights = solve_kernel(cfg, x.ravel(), t.ravel(), weights=True)[1]
    seeds, e, f = flow(cfg, x.ravel(), t.ravel())
    columns = np.concatenate([seeds[:, :6] * e[:, :, None], seeds[:, 6:] * f[:, :, None]], axis=2)
    shape = x.shape + (len(seeds),)
    return RHSolutionPair(columns.reshape(shape + (7,)), weights.reshape(shape + (len(seeds),)), cfg.expanded_zeros())


def reconstruct_potential(cfg: SpectrumConfig, x, t) -> np.ndarray:
    """Potential matrices Q = i [P1^(1), sigma3] (..., 7, 7) at the points.

    The commutator zeroes every entry off the seventh row/column, so the
    result automatically carries the coupling template; entries (1,7), (3,7),
    (5,7) are the field components u1, u2, u3.
    """
    pair = build_rh_pair(cfg, x, t)
    p1 = pair.first_order_term()
    return 1j * (p1 @ SIGMA3 - SIGMA3 @ p1)


def _worst(a: np.ndarray) -> float:
    return float(np.max(np.abs(a), initial=0.0))


def _near_poles(cfg: SpectrumConfig, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the samples `lams` and of the expanded zeros within
    POLE_GUARD_RADIUS of a pole of P1 or P2.  The poles, the zeros and
    their conjugates, are closed under lam -> conj(lam) and -conj(lam), so
    a sample clear of them is clear at every argument the identities use."""
    zeros = cfg.expanded_zeros()
    poles = np.concatenate([zeros, np.conj(zeros)])
    samples = (np.abs(lams[:, None] - poles) < POLE_GUARD_RADIUS).any(axis=1)
    gaps = np.abs(zeros[:, None] - np.conj(zeros)) < POLE_GUARD_RADIUS
    return samples, gaps.any(axis=0) | gaps.any(axis=1)


def symmetry_residuals(cfg: SpectrumConfig, x, t, lambda_samples) -> dict[str, float]:
    """Max-norm residuals of every stated RH identity over the points (x, t),
    which broadcast, keyed by name.

    * ``hermitian``:    P1(conj lam)^dagger - P2(lam) over all samples
    * ``sigma``:        sigma conj(P1(-conj lam)) sigma - P1(lam)  (type I only)
    * ``jump``:         P2(lam) P1(lam) - I over the real samples
    * ``kernel``:       |P1(lambda_j) v_j| and |vhat_j P2(conj lambda_j)| per zero
    * ``det_at_zeros``: |det P1(lambda_j)| per zero

    Each identity is one array expression over all points and all samples
    or zeros.  Samples and zeros within POLE_GUARD_RADIUS of a pole are left
    out (`check_symmetries` names them).
    """
    if np.broadcast(x, t).size == 0:
        raise ValueError("symmetry residuals need at least one (x, t) point, got none")
    pair = build_rh_pair(cfg, x, t)
    lams = np.array([complex(s) for s in lambda_samples], dtype=complex)
    near_sample, near_zero = _near_poles(cfg, lams)
    lams = lams[~near_sample]
    p1h = np.conj(pair.evaluate_P1(np.conj(lams))).swapaxes(-1, -2)
    out = {"hermitian": _worst(p1h - pair.evaluate_P2(lams))}
    if cfg.family is Family.TYPE_I:
        left = SIGMA @ np.conj(pair.evaluate_P1(-np.conj(lams))) @ SIGMA
        out["sigma"] = _worst(left - pair.evaluate_P1(lams))
    real = lams[lams.imag == 0.0]
    out["jump"] = _worst(pair.evaluate_P2(real) @ pair.evaluate_P1(real) - np.eye(7))
    zeros, v = pair.zeros[~near_zero], pair.columns[..., ~near_zero, :]
    p1, p2 = pair.evaluate_P1(zeros), pair.evaluate_P2(np.conj(zeros))
    out["kernel"] = max(_worst(p1 @ v[..., None]), _worst(np.conj(v)[..., None, :] @ p2))
    out["det_at_zeros"] = _worst(np.linalg.det(p1))
    return out


def check_symmetries(cfg: SpectrumConfig, points, lambda_samples) -> ResidualReport:
    """Bundle the symmetry residuals over the (x, t) pairs of `points`, one
    `symmetry_residuals` call, into one report: each identity's worst value
    over the points, and the worst of those overall.  A note names every
    sample and zero left out for lying within POLE_GUARD_RADIUS of a pole."""
    if not len(points) or any(np.shape(p) != (2,) for p in points):
        raise ValueError(f"points must be a non-empty list of (x, t) pairs, got {points!r}")
    samples = [complex(s) for s in lambda_samples]
    worst = symmetry_residuals(cfg, *np.array(points, dtype=float).T, samples)
    notes = [f"{k}: {v:.3e}" for k, v in worst.items()]
    near_sample, near_zero = _near_poles(cfg, np.array(samples, dtype=complex))
    guard, zeros = f"within {POLE_GUARD_RADIUS:g} of a pole", cfg.expanded_zeros()
    notes += [f"lambda sample {samples[i]} left out: {guard}" for i in np.flatnonzero(near_sample)]
    notes += [
        f"zero {j + 1} = {zeros[j]} left out of kernel and det_at_zeros: {guard}"
        for j in np.flatnonzero(near_zero)
    ]
    where = ", ".join(f"({x:g}, {t:g})" for x, t in points)
    return summarize(
        "rh_symmetry",
        list(worst.values()),
        grid=f"(x, t) in ({where}), {len(samples)} lambda samples",
        notes=notes,
    )
