"""Reflectionless Riemann-Hilbert solution pair and its symmetry checks.

With vanishing reflection data the factorization problem on the real axis
degenerates to rational matrix functions

    P1(lam) = I - sum_kj v_k vhat_j (M^-1)_kj / (lam - conj(lambda_j)),
    P2(lam) = I + sum_kj v_k vhat_j (M^-1)_kj / (lam - lambda_k),

normalized to the identity at infinity.  P1 is analytic in the closed upper
half-plane (poles only at the conjugated zeros below the axis), P2 the other
way around, and P2 P1 = I identically.  The potential matrix is recovered
from the 1/lam coefficient of P1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .report import ResidualReport, summarize
from .soliton import Family, KernelVectorSet, SpectrumConfig, build_M, build_vectors, solve_M
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
    """Rational RH factors bound to one spectrum at fixed (x, t).

    Immutable after construction; the weight matrix W = M^-1 (in the scaled
    vector gauge) is shared by both factors and by the potential expansion.
    """

    cfg: SpectrumConfig
    x: float
    t: float
    vecs: KernelVectorSet
    weights: np.ndarray       # (m, m) inverse of the stabilized M
    zeros: np.ndarray         # (m,) expanded zeros (poles of P2)

    def _residue_sum(self, shifts: np.ndarray) -> np.ndarray:
        # sum_kj v_k vhat_j W_kj * shifts-scaling applied on the j (column) index
        return self.vecs.columns.T @ (self.weights * shifts[None, :]) @ self.vecs.rows

    def evaluate_P1(self, lam: complex) -> np.ndarray:
        """P1 at lam; poles sit at the conjugated zeros (lower half-plane)."""
        lam = complex(lam)
        poles = np.conj(self.zeros)
        gaps = lam - poles
        small = np.abs(gaps) < POLE_GUARD_RADIUS
        if np.any(small):
            j = int(np.argmax(small))
            raise PoleError(j, complex(poles[j]), lam)
        return np.eye(7, dtype=complex) - self._residue_sum(1.0 / gaps)

    def evaluate_P2(self, lam: complex) -> np.ndarray:
        """P2 at lam; poles sit at the zeros themselves (upper half-plane)."""
        lam = complex(lam)
        gaps = lam - self.zeros
        small = np.abs(gaps) < POLE_GUARD_RADIUS
        if np.any(small):
            k = int(np.argmax(small))
            raise PoleError(k, complex(self.zeros[k]), lam)
        # scaling on the k (row) index of W
        residue = self.vecs.columns.T @ (self.weights * (1.0 / gaps)[:, None]) @ self.vecs.rows
        return np.eye(7, dtype=complex) + residue

    def first_order_term(self) -> np.ndarray:
        """Coefficient of 1/lam in the large-lambda expansion of P1."""
        return -(self.vecs.columns.T @ self.weights @ self.vecs.rows)


def build_rh_pair(cfg: SpectrumConfig, x: float, t: float) -> RHSolutionPair:
    """Assemble both RH factors; M is factorized once per (x, t)."""
    vecs = build_vectors(cfg, x, t)
    if vecs.count == 0:
        weights = np.zeros((0, 0), dtype=complex)
    else:
        m = build_M(vecs, cfg)
        weights = solve_M(m[None], np.eye(len(m), dtype=complex)[None], [x], [t])[0]
    return RHSolutionPair(cfg, float(x), float(t), vecs, weights, cfg.expanded_zeros())


def reconstruct_potential(cfg: SpectrumConfig, x: float, t: float) -> np.ndarray:
    """Potential matrix Q = i [P1^(1), sigma3] from the expansion of P1.

    The commutator zeroes every entry off the seventh row/column, so the
    result automatically carries the coupling template; entries (1,7), (3,7),
    (5,7) are the field components u1, u2, u3.
    """
    pair = build_rh_pair(cfg, x, t)
    p1 = pair.first_order_term()
    return 1j * (p1 @ SIGMA3 - SIGMA3 @ p1)


def symmetry_residuals(
    cfg: SpectrumConfig, x: float, t: float, lambda_samples
) -> dict[str, float]:
    """Max-norm residuals of every stated RH identity, keyed by name.

    * ``hermitian``:    P1(conj lam)^dagger - P2(lam) over all samples
    * ``sigma``:        sigma conj(P1(-conj lam)) sigma - P1(lam)  (type I only)
    * ``jump``:         P2(lam) P1(lam) - I over the real samples
    * ``kernel``:       |P1(lambda_j) v_j| and |vhat_j P2(conj lambda_j)| per zero
    * ``det_at_zeros``: |det P1(lambda_j)| per zero
    """
    pair = build_rh_pair(cfg, x, t)
    samples = [complex(s) for s in lambda_samples]
    out: dict[str, float] = {}

    herm = 0.0
    for lam in samples:
        p1 = pair.evaluate_P1(np.conj(lam))
        p2 = pair.evaluate_P2(lam)
        herm = max(herm, float(np.max(np.abs(p1.conj().T - p2))))
    out["hermitian"] = herm

    if cfg.family is Family.TYPE_I:
        sig = 0.0
        for lam in samples:
            left = SIGMA @ np.conj(pair.evaluate_P1(-np.conj(lam))) @ SIGMA
            sig = max(sig, float(np.max(np.abs(left - pair.evaluate_P1(lam)))))
        out["sigma"] = sig

    jump = 0.0
    real_samples = [lam for lam in samples if lam.imag == 0.0]
    for lam in real_samples:
        prod = pair.evaluate_P2(lam) @ pair.evaluate_P1(lam)
        jump = max(jump, float(np.max(np.abs(prod - np.eye(7)))))
    out["jump"] = jump

    kernel = 0.0
    detz = 0.0
    for j, lam_j in enumerate(pair.zeros):
        p1 = pair.evaluate_P1(lam_j)
        p2 = pair.evaluate_P2(np.conj(lam_j))
        v = pair.vecs.columns[j]
        vhat = pair.vecs.rows[j]
        kernel = max(kernel, float(np.max(np.abs(p1 @ v))))
        kernel = max(kernel, float(np.max(np.abs(vhat @ p2))))
        detz = max(detz, abs(np.linalg.det(p1)))
    out["kernel"] = kernel
    out["det_at_zeros"] = detz
    return out


def check_symmetries(
    cfg: SpectrumConfig, x: float, t: float, lambda_samples
) -> ResidualReport:
    """Bundle all symmetry residuals into one report (worst value wins)."""
    samples = [complex(s) for s in lambda_samples]
    res = symmetry_residuals(cfg, x, t, samples)
    notes = tuple(f"{k}: {v:.3e}" for k, v in res.items())
    return summarize(
        "rh_symmetry",
        list(res.values()),
        grid=f"(x, t) = ({x}, {t}), {len(samples)} lambda samples",
        notes=notes,
    )
