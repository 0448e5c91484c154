"""Direct scattering: Jost integration, scattering matrix, spectral zeros.

This is the verification route that never touches the kernel-vector
construction: given only a field evaluator, it integrates the conjugated
spectral problem

    Psi_x = Q Psi - i lam (Psi sigma3 - sigma3 Psi)

with identity data at one end of a truncated line, forms the scattering
matrix on the real axis, and hunts zeros of its analytically-extendable
(7,7) entry in the upper half-plane.  A fixed-step classical Runge-Kutta
scheme keeps runs bit-reproducible; sampling the potential once into a
half-step table lets a whole lambda sweep reuse the same field data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .algebra import ComplexMatrix, det
from .lax import FieldEvaluator, field_batch
from .report import ResidualReport, summarize
from .structure import SIGMA3_DIAG

DEFAULT_X_MIN = -40.0
DEFAULT_X_MAX = 40.0
DEFAULT_N_STEPS = 16000
# Endpoint tail guard.  Collision-induced position shifts can leave a
# two-soliton tail a few 1e-10 at the default domain edge; 1e-9 still keeps
# the truncation bias orders of magnitude below every stated tolerance.
ENDPOINT_DECAY = 1e-9

Side = Literal["plus", "minus"]


class DomainTooSmallError(Exception):
    """Potential has not decayed below tolerance at a domain endpoint."""


class HalfPlaneError(Exception):
    """Scattering data requested where nothing is analytic."""


class ZeroSearchError(Exception):
    """Secant hunt for a spectral zero failed; carries the iterate trace."""

    def __init__(self, message: str, trace: list[tuple[complex, float]]):
        self.trace = trace
        lines = "; ".join(f"lam={lam:.6g}, |O77|={mag:.3e}" for lam, mag in trace)
        super().__init__(f"{message} (trace: {lines})")


@dataclass(frozen=True)
class PotentialTable:
    """Potential matrices sampled on the half-step nodes of a fixed domain."""

    t: float
    x_min: float
    x_max: float
    n_steps: int
    q_half: np.ndarray  # (2 n_steps + 1, 7, 7)

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / self.n_steps

    def x_nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_steps + 1)


def sample_potential(
    f: FieldEvaluator,
    t: float,
    x_min: float = DEFAULT_X_MIN,
    x_max: float = DEFAULT_X_MAX,
    n_steps: int = DEFAULT_N_STEPS,
) -> PotentialTable:
    """Sample Q(x, t) on the RK half-step grid, checking endpoint decay.

    One batched field evaluation fills the coupling template of every node
    in place (the layout of `lax.build_Q`).
    """
    if n_steps < 100:
        raise ValueError(f"n_steps must be >= 100, got {n_steps}")
    if not x_min < x_max:
        raise ValueError(f"need x_min < x_max, got [{x_min}, {x_max}]")
    xs_half = np.linspace(x_min, x_max, 2 * n_steps + 1)
    u = field_batch(f)(xs_half, np.full(xs_half.size, float(t)))
    for x, tail in ((x_min, u[0]), (x_max, u[-1])):
        mag = float(np.max(np.abs(tail)))
        if mag >= ENDPOINT_DECAY:
            raise DomainTooSmallError(
                f"potential magnitude {mag:.3e} at x = {x} exceeds "
                f"{ENDPOINT_DECAY}; enlarge the domain"
            )
    q_half = np.zeros((xs_half.size, 7, 7), dtype=complex)
    q_half[:, 0:6:2, 6] = u
    q_half[:, 1:6:2, 6] = np.conj(u)
    q_half[:, 6, 0:6:2] = -np.conj(u)
    q_half[:, 6, 1:6:2] = -u
    return PotentialTable(float(t), float(x_min), float(x_max), int(n_steps), q_half)


@dataclass(frozen=True)
class JostSolution:
    """Dense-sampled matrix solution normalized to I at one end of the line."""

    lam: complex
    side: Side
    x_nodes: np.ndarray     # ascending, length n_steps + 1
    values: np.ndarray      # (n_steps + 1, 7, 7), values[i] at x_nodes[i]

    @property
    def at_x_max(self) -> np.ndarray:
        return self.values[-1]

    @property
    def at_x_min(self) -> np.ndarray:
        return self.values[0]

    def det_deviation(self, stride: int = 20) -> float:
        """max |det - 1| over a strided subsample of the trajectory."""
        worst = 0.0
        for mat in self.values[::stride]:
            worst = max(worst, abs(det(ComplexMatrix(mat)) - 1.0))
        return max(worst, abs(det(ComplexMatrix(self.values[-1])) - 1.0))


def _rhs(psi: np.ndarray, q: np.ndarray, lam) -> np.ndarray:
    # Q Psi - i lam (Psi sigma3 - sigma3 Psi); columns evolve independently,
    # so the batched (L, 7, 7) form shares one pass over the table.
    return q @ psi - 1j * lam * (psi * SIGMA3_DIAG[None, :] - SIGMA3_DIAG[:, None] * psi)


def _rk4_path(table: PotentialTable, lam: complex, forward: bool) -> np.ndarray:
    """Full trajectory (n+1, 7, 7) in ascending-x order."""
    n = table.n_steps
    q_half = table.q_half
    step = table.h if forward else -table.h
    psi = np.eye(7, dtype=complex)
    path = np.empty((n + 1, 7, 7), dtype=complex)
    idx = 0 if forward else n
    path[idx] = psi
    for i in range(n):
        base = 2 * i if forward else 2 * (n - i)
        sgn = 1 if forward else -1
        q0, qm, q1 = q_half[base], q_half[base + sgn], q_half[base + 2 * sgn]
        k1 = _rhs(psi, q0, lam)
        k2 = _rhs(psi + 0.5 * step * k1, qm, lam)
        k3 = _rhs(psi + 0.5 * step * k2, qm, lam)
        k4 = _rhs(psi + step * k3, q1, lam)
        psi = psi + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        idx += sgn
        path[idx] = psi
    return path


def _rk4_final(table: PotentialTable, lams: np.ndarray) -> np.ndarray:
    """End values Psi_-(x_max) for a whole batch of lambdas: (L, 7, 7)."""
    n = table.n_steps
    q_half = table.q_half
    h = table.h
    lam3 = np.asarray(lams, dtype=complex).reshape(-1, 1, 1)
    psi = np.broadcast_to(np.eye(7, dtype=complex), (lam3.shape[0], 7, 7)).copy()
    for i in range(n):
        q0, qm, q1 = q_half[2 * i], q_half[2 * i + 1], q_half[2 * i + 2]
        k1 = _rhs(psi, q0, lam3)
        k2 = _rhs(psi + 0.5 * h * k1, qm, lam3)
        k3 = _rhs(psi + 0.5 * h * k2, qm, lam3)
        k4 = _rhs(psi + h * k3, q1, lam3)
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return psi


def integrate_jost(
    f: FieldEvaluator,
    t: float,
    lam: complex,
    x_min: float = DEFAULT_X_MIN,
    x_max: float = DEFAULT_X_MAX,
    n_steps: int = DEFAULT_N_STEPS,
    side: Side = "minus",
) -> JostSolution:
    """Integrate the conjugated spectral problem across [x_min, x_max].

    side "minus" starts from the identity at x_min and marches up; side
    "plus" starts from the identity at x_max and marches down.  Local
    truncation is O(h^5) (classical fourth-order scheme).
    """
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    table = sample_potential(f, t, x_min, x_max, n_steps)
    return integrate_from_table(table, lam, side)


def integrate_from_table(
    table: PotentialTable, lam: complex, side: Side = "minus"
) -> JostSolution:
    path = _rk4_path(table, complex(lam), forward=(side == "minus"))
    return JostSolution(complex(lam), side, table.x_nodes(), path)


def _conjugate_to_omega(psi_end: np.ndarray, lam: complex, x_max: float) -> np.ndarray:
    # Omega = e^{-i lam sigma3 x} Psi_-(x) e^{i lam sigma3 x} at x = x_max,
    # using Psi_+(x_max) = I.
    phase = np.exp(1j * lam * SIGMA3_DIAG * x_max)
    return (1.0 / phase)[:, None] * psi_end * phase[None, :]


def scattering_matrix(
    f: FieldEvaluator,
    t: float,
    lam: complex,
    x_min: float = DEFAULT_X_MIN,
    x_max: float = DEFAULT_X_MAX,
    n_steps: int = DEFAULT_N_STEPS,
) -> ComplexMatrix:
    """Scattering matrix Omega(lambda) relating the two Jost solutions.

    Full matrix for real lambda.  For lambda in the open upper half-plane
    only the (7,7) entry is analytic and meaningful; the remaining entries
    of the returned matrix are not to be trusted there.  The lower
    half-plane is rejected outright.
    """
    table = sample_potential(f, t, x_min, x_max, n_steps)
    return scattering_matrix_from_table(table, lam)


def scattering_matrix_from_table(table: PotentialTable, lam: complex) -> ComplexMatrix:
    lam = complex(lam)
    if lam.imag < 0.0:
        raise HalfPlaneError(
            f"lambda = {lam} lies in the lower half-plane; only real lambda "
            "and the (7,7) entry on the upper half-plane are supported"
        )
    sol = integrate_from_table(table, lam, side="minus")
    return ComplexMatrix(_conjugate_to_omega(sol.at_x_max, lam, table.x_max))


def omega77_from_table(table: PotentialTable, lam: complex) -> complex:
    """The analytically-extendable (7,7) scattering entry (conjugation-invariant)."""
    psi = _rk4_final(table, np.array([complex(lam)]))
    return complex(psi[0, 6, 6])


def coupling_row_sweep(table: PotentialTable, lams: np.ndarray) -> np.ndarray:
    """Entries Omega_17..Omega_67, Omega_77 for a batch of real lambdas.

    Returns (L, 7) complex; one shared pass over the potential table.
    """
    lams = np.asarray(lams, dtype=complex)
    if np.any(lams.imag != 0.0):
        raise HalfPlaneError("row sweep is defined for real lambda only")
    psi = _rk4_final(table, lams)
    out = np.empty((lams.size, 7), dtype=complex)
    for i, lam in enumerate(lams):
        omega = _conjugate_to_omega(psi[i], complex(lam), table.x_max)
        out[i, :6] = omega[:6, 6]
        out[i, 6] = omega[6, 6]
    return out


def locate_spectral_zero(
    f: FieldEvaluator,
    t: float,
    seed: complex,
    x_min: float = DEFAULT_X_MIN,
    x_max: float = DEFAULT_X_MAX,
    n_steps: int = DEFAULT_N_STEPS,
    max_iterations: int = 50,
) -> complex:
    """Secant hunt for a zero of Omega77 in the upper half-plane.

    Converged when |Omega77| < 1e-8 or the step shrinks below 1e-10; raises
    ZeroSearchError (with the iterate trace) on stagnation, escape from the
    upper half-plane, or iteration exhaustion.
    """
    table = sample_potential(f, t, x_min, x_max, n_steps)
    return locate_zero_from_table(table, seed, max_iterations)


def locate_zero_from_table(
    table: PotentialTable, seed: complex, max_iterations: int = 50
) -> complex:
    seed = complex(seed)
    if seed.imag <= 0.0:
        raise HalfPlaneError(f"seed {seed} must lie in the open upper half-plane")

    trace: list[tuple[complex, float]] = []

    def g(lam: complex) -> complex:
        val = omega77_from_table(table, lam)
        trace.append((lam, abs(val)))
        return val

    lam0 = seed
    g0 = g(lam0)
    if abs(g0) < 1e-8:
        return lam0
    lam1 = seed * 1.02 + 0.01j
    g1 = g(lam1)
    for _ in range(max_iterations):
        if abs(g1) < 1e-8:
            return lam1
        denom = g1 - g0
        if denom == 0.0:
            raise ZeroSearchError("secant stalled on a flat entry", trace)
        lam2 = lam1 - g1 * (lam1 - lam0) / denom
        if lam2.imag <= 0.0:
            raise ZeroSearchError(
                f"iterate {lam2:.6g} escaped the upper half-plane", trace
            )
        step = abs(lam2 - lam1)
        lam0, g0 = lam1, g1
        lam1 = lam2
        g1 = g(lam1)
        if abs(g1) < 1e-8 or step < 1e-10:
            return lam1
    raise ZeroSearchError(f"no convergence in {max_iterations} iterations", trace)


def scattering_evolution_check(
    f: FieldEvaluator,
    lam: float,
    t0: float,
    t1: float,
    x_min: float = DEFAULT_X_MIN,
    x_max: float = DEFAULT_X_MAX,
    n_steps: int = DEFAULT_N_STEPS,
) -> ResidualReport:
    """Verify the linear time evolution of the scattering data at real lambda.

    The coupling entries obey Omega_k7(t1) = e^{8 i lam^3 (t1 - t0)}
    Omega_k7(t0) for k = 1..6; the (7,7) entry is time-invariant.  Entries
    already below 1e-8 at t0 are flagged vacuous (a reflectionless potential
    has nothing to evolve).
    """
    lam = float(lam)
    w0 = scattering_matrix(f, t0, lam, x_min, x_max, n_steps).data
    w1 = scattering_matrix(f, t1, lam, x_min, x_max, n_steps).data
    phase = np.exp(8j * lam ** 3 * (t1 - t0))
    residuals = []
    notes = []
    for k in range(6):
        residuals.append(abs(w1[k, 6] - phase * w0[k, 6]))
        if abs(w0[k, 6]) < 1e-8:
            notes.append(f"entry ({k + 1},7) vacuous: |value| = {abs(w0[k, 6]):.3e}")
    diag = abs(w1[6, 6] - w0[6, 6])
    residuals.append(diag)
    notes.append(f"(7,7) invariance residual: {diag:.3e}")
    return summarize(
        "scattering_evolution",
        residuals,
        grid=f"lambda = {lam}, t = {t0} -> {t1}, [{x_min}, {x_max}] x {n_steps} steps",
        notes=notes,
    )
