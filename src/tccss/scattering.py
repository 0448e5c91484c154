"""Direct scattering: Jost integration, scattering matrix, spectral zeros.

This is the verification route that never touches the kernel-vector
construction: given only a field evaluator, it integrates the conjugated
spectral problem

    Psi_x = Q Psi - i lam (Psi sigma3 - sigma3 Psi)

with identity data at one end of a truncated line, forms the scattering
matrix on the real axis, and hunts zeros of its analytically-extendable
(7,7) entry in the upper half-plane.  The potential is sampled once into a
half-step table that a whole lambda sweep or secant search reuses.

Column j of Psi obeys y' = (Q + diag(d)) y, with d = -2 i lam e7 for
columns 1-6 and d = 2 i lam (1, ..., 1, 0) for column 7.  Being linear, a
classical Runge-Kutta step of either class is a fixed 7x7 matrix T_n; the
T_n are built in batched blocks of at most BLOCK_MATRICES (lambda, step)
pairs, so transient memory does not grow with n_steps or the number of
lambdas, and multiplied by pairwise (tree) reduction, or by doubling prefix
products for the whole path.  What reads only column 7 (Omega77, the
coupling sweep, the secant) propagates the column-7 class alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

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
# (lambda, step) pairs per block of the transfer-matrix kernel; every
# transient array holds a small fixed multiple of this many 7x7 matrices.
BLOCK_MATRICES = 256

Side = Literal["plus", "minus"]


class DomainTooSmallError(Exception):
    """Potential has not decayed below tolerance at a domain endpoint."""


class HalfPlaneError(Exception):
    """Scattering data requested where nothing is analytic."""


class ZeroSearchError(Exception):
    """Secant hunt for a spectral zero failed; carries the iterate trace."""

    def __init__(self, message: str, trace: list[tuple[complex, complex]]):
        self.trace = [(lam, abs(val)) for lam, val in trace]
        lines = "; ".join(f"lam={lam:.6g}, |O77|={mag:.3e}" for lam, mag in self.trace)
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
        """max |det - 1| over a strided subsample of the trajectory and its last node."""
        mats = np.concatenate([self.values[::stride], self.values[-1:]])
        return float(np.max(np.abs(np.linalg.det(mats) - 1.0)))


def _shifts(lams, s) -> np.ndarray:
    """d_i = i lam (sigma3_i - s) of column class s = sigma3_j, (L, 7); s = (1, -1): both."""
    lam = np.reshape(np.asarray(lams, dtype=complex), (-1, 1))
    return 1j * lam * (SIGMA3_DIAG - np.reshape(s, (-1, 1)))


def _step_blocks(table: PotentialTable, d: np.ndarray, forward: bool = True):
    """RK4 step matrices in marching order, one (L, b, 7, 7) block at a time.

    With A = Q + diag(d) at the start, midpoint and end of a step,
    T = I + h/6 (A0 + 2 K2 + 2 K3 + K4), K2 = Am + h/2 Am A0,
    K3 = Am + h/2 Am K2, K4 = A1 + h A1 K3: the classical scheme for y' = A y.
    Marching down (forward=False) reads the table backwards with step -h.
    """
    q = table.q_half if forward else table.q_half[::-1]
    h = table.h if forward else -table.h
    b = BLOCK_MATRICES // len(d)
    diag = np.arange(7)
    for start in range(0, table.n_steps, b):
        a = np.repeat(q[None, 2 * start : 2 * (start + b) + 1], len(d), axis=0)
        a[..., diag, diag] += d[:, None, :]
        a0, am, a1 = a[:, :-1:2], a[:, 1::2], a[:, 2::2]
        k2 = am + (0.5 * h) * (am @ a0)
        k3 = am + (0.5 * h) * (am @ k2)
        t = a0 + 2.0 * k2 + 2.0 * k3 + a1 + h * (a1 @ k3)
        t *= h / 6.0
        t[..., diag, diag] += 1.0
        yield t


def _reduce(t: np.ndarray) -> np.ndarray:
    """Ordered products t[:, -1] @ ... @ t[:, 0] by pairwise (tree) reduction."""
    while t.shape[1] > 1:
        m = t.shape[1] // 2 * 2
        t = np.concatenate([t[:, 1:m:2] @ t[:, 0:m:2], t[:, m:]], axis=1)
    return t[:, 0]


def _prefix(t: np.ndarray) -> np.ndarray:
    """Ordered prefix products p[:, k] = t[:, k] @ ... @ t[:, 0] by doubling."""
    s = 1
    while s < t.shape[1]:
        t = np.concatenate([t[:, :s], t[:, s:] @ t[:, :-s]], axis=1)
        s *= 2
    return t


def _end_product(table: PotentialTable, d: np.ndarray) -> np.ndarray:
    """Psi_-(x_max) of each class row of d: (L, 7, 7), lambdas taken in chunks."""
    out = np.empty((len(d), 7, 7), dtype=complex)
    for i in range(0, len(d), BLOCK_MATRICES):
        p = np.eye(7, dtype=complex)
        for t in _step_blocks(table, d[i : i + BLOCK_MATRICES]):
            p = _reduce(t) @ p
        out[i : i + BLOCK_MATRICES] = p
    return out


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
    table = sample_potential(f, t, x_min, x_max, n_steps)
    return integrate_from_table(table, lam, side)


def integrate_from_table(
    table: PotentialTable, lam: complex, side: Side = "minus"
) -> JostSolution:
    """Jost solution on every node, from prefix products of both column classes."""
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    forward, n = side == "minus", table.n_steps
    path = np.empty((n + 1, 7, 7), dtype=complex)
    path[0 if forward else n] = carry = np.eye(7, dtype=complex)
    k = 1
    for t in _step_blocks(table, _shifts(lam, (1.0, -1.0)), forward):
        p = _prefix(t) @ carry
        rows = np.arange(k, k + p.shape[1])
        # columns 1-6 from the first class, column 7 from the second
        path[rows if forward else n - rows] = np.where(SIGMA3_DIAG < 0, p[1], p[0])
        carry, k = p[:, -1:], k + p.shape[1]
    return JostSolution(complex(lam), side, table.x_nodes(), path)


def _conjugate_to_omega(psi_end: np.ndarray, lams, x_max: float) -> np.ndarray:
    # Omega = e^{-i lam sigma3 x} Psi_-(x) e^{i lam sigma3 x} at x = x_max,
    # using Psi_+(x_max) = I; psi_end is (L, 7, 7), one matrix per lambda.
    phase = np.exp(1j * np.reshape(lams, (-1, 1)) * SIGMA3_DIAG * x_max)
    return (1.0 / phase)[:, :, None] * psi_end * phase[:, None, :]


def scattering_matrix(
    f: FieldEvaluator,
    t: float,
    lam: complex,
    x_min: float = DEFAULT_X_MIN,
    x_max: float = DEFAULT_X_MAX,
    n_steps: int = DEFAULT_N_STEPS,
) -> np.ndarray:
    """Scattering matrix Omega(lambda) relating the two Jost solutions.

    Full matrix for real lambda.  For lambda in the open upper half-plane
    only the (7,7) entry is analytic and meaningful; the remaining entries
    of the returned matrix are not to be trusted there.  The lower
    half-plane is rejected outright.
    """
    table = sample_potential(f, t, x_min, x_max, n_steps)
    return scattering_matrix_from_table(table, lam)


def scattering_matrix_from_table(table: PotentialTable, lam: complex) -> np.ndarray:
    lam = complex(lam)
    if lam.imag < 0.0:
        raise HalfPlaneError(
            f"lambda = {lam} lies in the lower half-plane; only real lambda "
            "and the (7,7) entry on the upper half-plane are supported"
        )
    p = _end_product(table, _shifts(lam, (1.0, -1.0)))
    psi = np.where(SIGMA3_DIAG < 0, p[1], p[0])
    return _conjugate_to_omega(psi[None], lam, table.x_max)[0]


def omega77_from_table(table: PotentialTable, lam: complex) -> complex:
    """The analytically-extendable (7,7) scattering entry (conjugation-invariant)."""
    return complex(_end_product(table, _shifts(lam, -1.0))[0, 6, 6])


def coupling_row_sweep(table: PotentialTable, lams: np.ndarray) -> np.ndarray:
    """Entries Omega_17..Omega_67, Omega_77 for a batch of real lambdas.

    Returns (L, 7) complex, column 7 of each Omega; only the column-7 class
    is propagated, all lambdas in one pass over the potential table.
    """
    lams = np.asarray(lams, dtype=complex)
    if np.any(lams.imag != 0.0):
        raise HalfPlaneError("row sweep is defined for real lambda only")
    psi = _end_product(table, _shifts(lams, -1.0))
    return _conjugate_to_omega(psi, lams, table.x_max)[:, :, 6]


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
    table: PotentialTable,
    seed: complex,
    max_iterations: int = 50,
    trace: list[tuple[complex, complex]] | None = None,
) -> complex:
    """Secant hunt on a sampled table; a given `trace` list receives every
    evaluation (lambda, Omega77), the last one at the returned zero."""
    seed = complex(seed)
    if seed.imag <= 0.0:
        raise HalfPlaneError(f"seed {seed} must lie in the open upper half-plane")
    trace = [] if trace is None else trace

    def g(lam: complex) -> complex:
        val = omega77_from_table(table, lam)
        trace.append((lam, val))
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
            raise ZeroSearchError(f"iterate {lam2:.6g} escaped the upper half-plane", trace)
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
    w0 = scattering_matrix(f, t0, lam, x_min, x_max, n_steps)
    w1 = scattering_matrix(f, t1, lam, x_min, x_max, n_steps)
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
