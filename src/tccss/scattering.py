"""Direct scattering: Jost integration, scattering matrix, spectral zeros.

This is the verification route that never touches the kernel-vector
construction: given only samples of the field, it integrates the conjugated
spectral problem

    Psi_x = Q Psi - i lam (Psi sigma3 - sigma3 Psi)

with identity data at x_min of a truncated line, forms the scattering
matrix on the real axis, and hunts zeros of its analytically-extendable
(7,7) entry in the upper half-plane.  Every route reads a half-step table
of the potential (`sample_potential`), sampled once and reused by a whole
lambda sweep or secant search.

Column j of Psi obeys y' = (Q + c P) y, with c = -2 i lam s and
P = diag(sigma3 != s) for the column class s = sigma3_j: c = 2 i lam and
P = diag(1, ..., 1, 0) for column 7, c = -2 i lam and P = e7 e7^T for
columns 1-6.  The fixed basis change V (a unitary rotation scaled by
1/sqrt2 on each channel pair, entries 1/2 and +-i/2) turns each pair
(u_m, conj u_m) into (Re u_m, Im u_m); it fixes e7 and commutes with both
P, makes Q real and, having power-of-two entries, rounds nothing on the
way back.  A classical Runge-Kutta step of either class is then the 7x7
matrix T_n(c) = sum_{k<=4} c^k T_n^(k) with real, lambda-independent
T_n^(k) and T^(4) = h^4/24 P.  The table stores T^(0..3) of the column-7
class; the class of columns 1-6 and the table of n_steps / 2 steps
(`halved`) build theirs per block from the samples.  A lambda batch gets
its step matrices from one real GEMM of its powers of c against the
coefficients, in blocks of at most BLOCK_MATRICES (lambda, step) pairs,
so transient memory does not grow with n_steps or the number of lambdas.
`_end_product` multiplies them, the one product of step matrices here: in
real (re, im) pair arithmetic, or in real arithmetic alone where every c
is real (lambda on the imaginary axis), by pairwise (tree) reduction over
a range of steps.  No Jost path is stored: the determinant drift reads the
end products of consecutive segments.  What reads only column 7 (Omega77,
the coupling sweep, the secant) propagates the column-7 class alone.  Real
lambda beyond the RK4 stability bound |lambda| h <= sqrt(2) is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .lax import build_Q
from .report import ResidualReport, summarize
from .structure import SIGMA3_DIAG

DEFAULT_X_MIN = -40.0
DEFAULT_X_MAX = 40.0
DEFAULT_N_STEPS = 16000
# Largest accepted RK4 step: beyond it the local error (h |Q + c P|)^5 / 120
# on a unit-size potential is not small; far beyond, the coefficients overflow.
MAX_STEP = 1.0
# Endpoint tail guard.  Collision-induced position shifts can leave a
# two-soliton tail a few 1e-10 at the default domain edge; 1e-9 still keeps
# the truncation bias orders of magnitude below every stated tolerance.
ENDPOINT_DECAY = 1e-9
# (lambda, step) pairs per block of the transfer-matrix kernel; every
# transient array holds a small fixed multiple of this many 7x7 matrices.
BLOCK_MATRICES = 256
# Column class s = sigma3_j: column 7, and the classes (columns 1-6,
# column 7) that assemble the whole Psi.
COLUMN7 = -1.0
BOTH_CLASSES = (1.0, -1.0)

_PAIR_EYE = np.stack([np.eye(7), np.zeros((7, 7))])


class DomainTooSmallError(Exception):
    """Potential has not decayed below tolerance at a domain endpoint."""


class HalfPlaneError(Exception):
    """Scattering data requested where nothing is analytic."""


class NonFiniteScatteringError(Exception):
    """A real lambda lies beyond the RK4 step's stability bound, or its
    scattering entries are NaN/infinity."""


class ZeroSearchError(Exception):
    """Secant hunt for a spectral zero failed; carries the iterate trace."""

    def __init__(self, message: str, trace: list[tuple[complex, complex]]):
        self.trace = [(lam, abs(val)) for lam, val in trace]
        lines = "; ".join(f"lam={lam:.6g}, |O77|={mag:.3e}" for lam, mag in self.trace)
        super().__init__(f"{message} (trace: {lines})")


@dataclass(frozen=True)
class PotentialTable:
    """Potential sampled on the half-step nodes of a fixed domain.

    `u` holds the field triple on the 2 n_steps + 1 half-step nodes; `coef`
    the step coefficients T^(0..3) of the column-7 class,
    (4, n_steps, 7, 7) real, or None to build them per block from `u`.
    """

    t: float
    x_min: float
    x_max: float
    n_steps: int
    u: np.ndarray  # (2 n_steps + 1, 3)
    coef: np.ndarray | None

    def __post_init__(self):
        if self.u.shape != (2 * self.n_steps + 1, 3):
            raise ValueError(f"u has shape {self.u.shape}, need ({2 * self.n_steps + 1}, 3)")
        if self.coef is not None and self.coef.shape != (4, self.n_steps, 7, 7):
            raise ValueError(f"coef has shape {self.coef.shape}, need (4, {self.n_steps}, 7, 7)")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / self.n_steps

    @property
    def q_half(self) -> np.ndarray:
        """Q on every half-step node, (2 n_steps + 1, 7, 7)."""
        return build_Q(self.u)


def check_domain(x_min: float, x_max: float, n_steps: int) -> None:
    """Refuse, with a ValueError, a domain that no table can be sampled on."""
    if n_steps < 100:
        raise ValueError(f"n_steps must be >= 100, got {n_steps}")
    span = float(x_max) - float(x_min)
    if not (x_min < x_max and math.isfinite(span)):
        raise ValueError(f"need x_min < x_max and a finite span, got [{x_min}, {x_max}]")
    if not span / n_steps <= MAX_STEP:
        raise ValueError(
            f"step h = (x_max - x_min) / n_steps = {span / n_steps:.3g} exceeds "
            f"{MAX_STEP}; take more steps"
        )


def sample_potential(
    fields: Callable[[np.ndarray, np.ndarray], np.ndarray],
    t: float,
    x_min: float = DEFAULT_X_MIN,
    x_max: float = DEFAULT_X_MAX,
    n_steps: int = DEFAULT_N_STEPS,
) -> PotentialTable:
    """Sample the field on the RK half-step grid, checking endpoint decay.

    `fields(x[], t)` gives the (P, 3) field triples at P points; the step
    coefficients of the column-7 class are built from the samples once.
    """
    check_domain(x_min, x_max, n_steps)
    xs_half = np.linspace(x_min, x_max, 2 * n_steps + 1)
    # in chunks, so that the field kernel's temporaries stay a few blocks' worth
    u = np.concatenate([
        fields(xs_half[i : i + 2 * BLOCK_MATRICES], float(t))
        for i in range(0, xs_half.size, 2 * BLOCK_MATRICES)
    ])
    for x, tail in ((x_min, u[0]), (x_max, u[-1])):
        mag = float(np.max(np.abs(tail)))
        if mag >= ENDPOINT_DECAY:
            raise DomainTooSmallError(
                f"potential magnitude {mag:.3e} at x = {x} exceeds "
                f"{ENDPOINT_DECAY}; enlarge the domain"
            )
    coef = _coefficients(u, (float(x_max) - float(x_min)) / n_steps, COLUMN7)
    return PotentialTable(float(t), float(x_min), float(x_max), int(n_steps), u, coef)


def halved(table: PotentialTable) -> PotentialTable:
    """The table of n_steps / 2 steps on the same domain (every other sample).

    It stores no coefficients: the step-halving estimate uses it once per
    zero, so its coefficients are built per block.
    """
    if table.n_steps % 2:
        raise ValueError(f"n_steps = {table.n_steps} is odd; it cannot be halved")
    return replace(table, n_steps=table.n_steps // 2, u=table.u[::2], coef=None)


def _p_diagonal(s: float) -> slice:
    """The diagonal of P = diag(sigma3 != s) in a flattened 7x7 matrix."""
    return slice(0, 41, 8) if s == COLUMN7 else slice(48, 49)


def _coefficients(u: np.ndarray, h: float, s: float) -> np.ndarray:
    """Step coefficients T^(0..3) of class s, (4, n, 7, 7) real, in the basis V.

    u holds the 2n + 1 half-step samples, h is the step.  With A = Q' + c P
    at the start, midpoint and end of a step,
    T = I + h/6 (A0 + 2 K2 + 2 K3 + K4), K2 = Am + h/2 Am A0,
    K3 = Am + h/2 Am K2, K4 = A1 + h A1 K3 (the classical scheme for
    y' = A y) is a polynomial in c; T^(4) = h^4/24 P is left implicit.
    Built BLOCK_MATRICES steps at a time: a build holds 17 matrices per step.
    """
    n = len(u) // 2
    diag = _p_diagonal(s)
    v = np.stack([u.real, u.imag], axis=-1).reshape(-1, 6)

    def step(a, x, w):
        # a + c P + w (a + c P) x, coefficients of c^0 .. c^len(x)
        b = len(a)
        out = np.empty((len(x) + 1, b, 7, 7))
        np.matmul(a, x, out=out[:-1])
        out[-1] = 0.0
        # P x: every row but the 7th (column-7 class), or the 7th alone
        if s == COLUMN7:
            out[1:] += x
        out[1:, :, 6] += s * x[:, :, 6]
        out *= w
        out[0] += a
        out[1].reshape(b, 49)[:, diag] += 1.0
        return out

    t = np.empty((4, n, 7, 7))
    for j in range(0, n, BLOCK_MATRICES):
        b = min(BLOCK_MATRICES, n - j)
        # Q' at the start, midpoint and end node of every step, each contiguous
        a0, am, a1 = q = np.zeros((3, b, 7, 7))
        q[..., :6, 6] = v[2 * np.arange(j, j + b) + np.arange(3)[:, None]]
        q[..., 6, :6] = -2.0 * q[..., :6, 6]
        a_poly = np.zeros((2, b, 7, 7))
        a_poly[0] = a0
        a_poly[1].reshape(b, 49)[:, diag] = 1.0
        k2 = step(am, a_poly, 0.5 * h)
        k3 = step(am, k2, 0.5 * h)
        tb = t[:, j : j + b]
        tb[...] = step(a1, k3, h)[:4]
        k3 *= 2.0
        tb += k3
        k2 *= 2.0
        tb[:3] += k2
        tb[:2] += a_poly
    t *= h / 6.0
    t[0].reshape(n, 49)[:, ::8] += 1.0
    return t


def _step_blocks(table: PotentialTable, lams, classes, start: int = 0, stop=None):
    """RK4 step matrices in the basis V, in marching order, one block at a time.

    Rows are (class, lambda) pairs, class-major; steps start..stop come as
    real pairs (2, rows, b, 7, 7) of real and imaginary parts.
    T(c) = sum_k c^k T^(k): one real GEMM of the powers c^0..c^3 against
    the coefficients, plus c^4 h^4/24 on the diagonal of P.
    """
    lams = np.reshape(np.asarray(lams, dtype=complex), -1)
    stop = table.n_steps if stop is None else min(stop, table.n_steps)
    h = table.h
    n_rows = len(classes) * len(lams)
    b = max(1, BLOCK_MATRICES // n_rows)
    powers = []  # per class: (re, im) of c^0..c^3, and of c^4 h^4/24
    for s in classes:
        w = (-2j * s * lams)[:, None] ** np.arange(5)
        w = np.stack([w.real, w.imag])
        powers.append((np.ascontiguousarray(w[..., :4]), (h**4 / 24.0) * w[..., 4, None, None]))
    for j in range(start, stop, b):
        k = min(j + b, stop)
        out = np.empty((2, n_rows, k - j, 49))
        for i, (s, (w, w4)) in enumerate(zip(classes, powers)):
            if s == COLUMN7 and table.coef is not None:
                coef = table.coef[:, j:k]
            else:
                coef = _coefficients(table.u[2 * j : 2 * k + 1], h, s)
            rows = slice(i * len(lams), (i + 1) * len(lams))
            np.matmul(w, coef.reshape(4, -1), out=out.reshape(2, n_rows, -1)[:, rows])
            out[:, rows, :, _p_diagonal(s)] += w4
        yield out.reshape(2, n_rows, k - j, 7, 7)


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product a @ b of (re, im) pairs (2, ..., 7, 7), or of real (1, ..., 7, 7) arrays."""
    p = a[:, None] @ b[None]
    if len(p) == 2:
        p[0, 0] -= p[1, 1]
        p[0, 1] += p[1, 0]
    return p[0]


def _reduce(t: np.ndarray) -> np.ndarray:
    """Ordered products t[:, :, -1] @ ... @ t[:, :, 0] by pairwise (tree) reduction."""
    while t.shape[2] > 1:
        m = t.shape[2] // 2 * 2
        t = np.concatenate([_mul(t[:, :, 1:m:2], t[:, :, 0:m:2]), t[:, :, m:]], axis=2)
    return t[:, :, 0]


def _end_product(
    table: PotentialTable, lams, classes=(COLUMN7,), start: int = 0, stop=None
) -> np.ndarray:
    """Psi'_- (basis V) at the end of steps start..stop, (classes, L, 7, 7) complex.

    Lambdas go in chunks of at most BLOCK_MATRICES.
    """
    lams = np.reshape(np.asarray(lams, dtype=complex), -1)
    # c = -2i lam s is real on the imaginary lambda axis: real products only
    parts = 2 if np.any(lams.real) else 1
    out = np.empty((len(classes), len(lams), 7, 7), dtype=complex)
    for i in range(0, len(lams), BLOCK_MATRICES):
        chunk = lams[i : i + BLOCK_MATRICES]
        p = _PAIR_EYE[:parts, None]
        for t in _step_blocks(table, chunk, classes, start, stop):
            p = _mul(_reduce(t[:parts]), p)
        z = p[0] + 1j * p[1] if parts == 2 else p[0]
        out[:, i : i + len(chunk)] = z.reshape(len(classes), -1, 7, 7)
    return out


def _from_basis(x: np.ndarray) -> np.ndarray:
    """V^-1 x V for a stack (..., 7, 7), as pair sums rather than products.

    V maps each channel pair (y_a, y_b) to ((y_a + y_b)/2, -i (y_a - y_b)/2)
    and fixes e7; Psi = V^-1 Psi' V for the solution Psi' in that basis.  No
    entry of the channel pairs enters row or column 7, so where columns 1-6
    overflow (large Im lambda) the (7,7) entry stays finite.
    """
    y = np.array(x, dtype=complex)
    e, o = x[..., 0:6:2, :], x[..., 1:6:2, :]
    y[..., 0:6:2, :], y[..., 1:6:2, :] = e + 1j * o, e - 1j * o
    e, o = y[..., 0:6:2].copy(), y[..., 1:6:2].copy()
    y[..., 0:6:2], y[..., 1:6:2] = 0.5 * (e - 1j * o), 0.5 * (e + 1j * o)
    return y


def _assemble(p: np.ndarray) -> np.ndarray:
    """Psi from the products of both classes (rows of BOTH_CLASSES) in the basis V."""
    # columns 1-6 from the first class, column 7 from the second; V keeps the split
    return _from_basis(np.where(SIGMA3_DIAG < 0, p[1], p[0]))


def det_drift_from_table(table: PotentialTable, lam: complex, stride: int) -> float:
    """max |det Psi_- - 1| on every stride-th node and the last one.

    Carries the end products of consecutive stride-length segments of both
    column classes, so no path is stored.
    """
    carry, mats = np.eye(7), []
    for start in range(0, table.n_steps, stride):
        carry = _end_product(table, lam, BOTH_CLASSES, start, start + stride)[:, 0] @ carry
        mats.append(_assemble(carry))
    return float(np.max(np.abs(np.linalg.det(np.array(mats)) - 1.0)))


def _refuse_unstable(table: PotentialTable, lams: np.ndarray) -> None:
    """Raise NonFiniteScatteringError, naming the first such lambda, where a
    real lambda of `lams` exceeds the RK4 stability bound of the table's step."""
    # the step of a free wave e^{c x}, c = 2i lambda, grows once |c h| > 2 sqrt2
    unstable = np.abs(lams) > np.sqrt(2.0) / table.h
    if np.any(unstable):
        raise NonFiniteScatteringError(
            f"lambda = {lams[unstable][0].real:.6g} exceeds the RK4 stability "
            f"bound |lambda| h <= sqrt(2) of the step h = {table.h:.3g}"
        )


def _conjugate_to_omega(psi_end: np.ndarray, lams, x_max: float) -> np.ndarray:
    # Omega = e^{-i lam sigma3 x} Psi_-(x) e^{i lam sigma3 x} at x = x_max,
    # using Psi_+(x_max) = I; psi_end is (L, 7, 7), one matrix per lambda.
    phase = np.exp(1j * np.reshape(lams, (-1, 1)) * SIGMA3_DIAG * x_max)
    return (1.0 / phase)[:, :, None] * psi_end * phase[:, None, :]


def scattering_matrix_from_table(table: PotentialTable, lam: complex) -> np.ndarray:
    """Scattering matrix Omega(lambda) relating the two Jost solutions.

    Full matrix for real lambda.  For lambda in the open upper half-plane
    only the (7,7) entry is analytic and meaningful; the remaining entries
    of the returned matrix are not to be trusted there.  The lower
    half-plane is rejected outright, and a real lambda beyond the RK4
    stability bound raises NonFiniteScatteringError.
    """
    lam = complex(lam)
    if lam.imag < 0.0:
        raise HalfPlaneError(
            f"lambda = {lam} lies in the lower half-plane; only real lambda "
            "and the (7,7) entry on the upper half-plane are supported"
        )
    if lam.imag == 0.0:
        _refuse_unstable(table, np.array([lam]))
    # off the real axis columns 1-6 may overflow; the (7,7) entry stays finite
    with np.errstate(over="ignore", invalid="ignore"):
        psi = _assemble(_end_product(table, lam, BOTH_CLASSES)[:, 0])
        return _conjugate_to_omega(psi[None], lam, table.x_max)[0]


def omega77_from_table(table: PotentialTable, lam: complex) -> complex:
    """The analytically-extendable (7,7) scattering entry (conjugation-invariant)."""
    # V fixes e7, so the (7,7) entry is the same in either basis
    return complex(_end_product(table, lam)[0, 0, 6, 6])


def coupling_row_sweep(table: PotentialTable, lams: np.ndarray) -> np.ndarray:
    """Entries Omega_17..Omega_67, Omega_77 for a batch of real lambdas.

    Returns (L, 7) complex, column 7 of each Omega; only the column-7 class
    is propagated, all lambdas in one pass over the potential table.  Raises
    NonFiniteScatteringError, naming the first such lambda, where
    |lambda| h exceeds the RK4 stability bound or an entry is not finite.
    """
    lams = np.asarray(lams, dtype=complex)
    if np.any(lams.imag != 0.0):
        raise HalfPlaneError("row sweep is defined for real lambda only")
    _refuse_unstable(table, lams)
    with np.errstate(over="ignore", invalid="ignore"):
        psi = _from_basis(_end_product(table, lams)[0])
        rows = _conjugate_to_omega(psi, lams, table.x_max)[:, :, 6]
    bad = ~np.all(np.isfinite(rows), axis=1)
    if np.any(bad):
        raise NonFiniteScatteringError(
            f"scattering entries at lambda = {lams[bad][0].real:.6g} are not finite"
        )
    return rows


def locate_zero_from_table(
    table: PotentialTable,
    seed: complex,
    max_iterations: int = 50,
    trace: list[tuple[complex, complex]] | None = None,
) -> complex:
    """Secant hunt for a zero of Omega77 in the upper half-plane.

    Converged when |Omega77| < 1e-8 or the step shrinks below 1e-10; raises
    ZeroSearchError (with the iterate trace) on stagnation, escape from the
    upper half-plane, or iteration exhaustion.  A given `trace` list
    receives every evaluation (lambda, Omega77), the last one at the
    returned zero.
    """
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
    table_t0: PotentialTable, table_t1: PotentialTable, lam: float
) -> ResidualReport:
    """Verify the linear time evolution of the scattering data at real lambda.

    The two tables sample one domain at times t0 and t1.  The coupling
    entries obey Omega_k7(t1) = e^{8 i lam^3 (t1 - t0)} Omega_k7(t0) for
    k = 1..6; the (7,7) entry is time-invariant.  Entries already below 1e-8
    at t0 are flagged vacuous (a reflectionless potential has nothing to
    evolve).  A lambda beyond the RK4 stability bound raises
    NonFiniteScatteringError.
    """
    domain = (table_t0.x_min, table_t0.x_max, table_t0.n_steps)
    other = (table_t1.x_min, table_t1.x_max, table_t1.n_steps)
    if domain != other:
        raise ValueError(f"tables differ in domain or step count: {domain} and {other}")
    x_min, x_max, n_steps = domain
    lam, t0, t1 = float(lam), table_t0.t, table_t1.t
    w0 = scattering_matrix_from_table(table_t0, lam)
    w1 = scattering_matrix_from_table(table_t1, lam)
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
