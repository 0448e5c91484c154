"""Direct scattering: Jost integration, scattering data of column 7, spectral zeros.

This is the verification route that never touches the kernel-vector
construction: given only samples of the field, it integrates the conjugated
spectral problem

    Psi_x = Q Psi - i lam (Psi sigma3 - sigma3 Psi)

with identity data at x_min of a truncated line and forms column 7 of the
scattering matrix: the couplings Omega_k7 on the real axis and the
analytically-extendable (7,7) entry, Omega77, in the closed upper
half-plane.  For a reflectionless potential the couplings vanish and Omega77
is the Blaschke product of the zeros (the `scattering` check of `verify`
compares the two); `zeros_in_disk` finds every zero in a disk by the
argument principle.  Every route reads a half-step table of the potential
(`sample_potential`), sampled in one field-kernel call and reused by a whole
lambda batch.

Column 7 of Psi obeys y' = (Q + c P) y, with c = 2 i lam and
P = diag(1, ..., 1, 0).  The fixed basis change V (a unitary rotation scaled
by 1/sqrt2 on each channel pair, entries 1/2 and +-i/2) turns each pair
(u_m, conj u_m) into (Re u_m, Im u_m); it fixes e7 and commutes with P,
makes Q real and, having power-of-two entries, rounds nothing on the way
back.  There Q has the arrow form [[0, v], [-2 v^T, 0]], v the real
samples (Re u_m, Im u_m).  A reflectionless potential spans only a few
directions of that 6-space (one for a fixed polarisation); the table keeps
an orthonormal basis W (6, r) of the span of its samples (`_channel_basis`),
and with R = diag(W, 1), Q R = R Q_r and P R = R P_r for the d x d arrow
matrix Q_r of the reduced samples v W and P_r = diag(1, ..., 1, 0), d = r + 1.
Column 7 starts as e7 = R e_d and so never leaves the range of R: every
matrix below is d x d, and `_lift` maps its reduced column back through W.  A classical
Runge-Kutta step is then the d x d matrix
T_n(c) = sum_{k<=4} c^k T_n^(k) with real, lambda-independent T_n^(k) and
T^(4) = h^4/24 P_r.  The table folds each pair of steps into one polynomial,
T_{2k+1}(c) T_{2k}(c) = sum_{m<=8} c^m F_k^(m), and stores F^(0..7);
F^(8) = (h^4/24)^2 P_r.  A lambda batch gets its pair matrices X + iY from
one real GEMM, of the real and imaginary parts of its powers of c, against
the coefficients, in blocks of at most BLOCK_ENTRIES // d^2 matrices, so
transient memory does not grow with n_steps or the number of lambdas.  A step
left unpaired at either end of a range is built alone from its three samples.
Each is held as its realification [[X, -Y], [Y, X]], 2d x 2d real, whose
products (numpy's small real products are several times faster than complex
ones) are the realifications of the complex products.  `_end_product`
multiplies them by tree reduction over a range of steps; no Jost path is
stored.  For real lambda Q + c P is anti-Hermitian, so the norm of column 7
is conserved; `norm_drift_from_table` measures the departure from it.
Every entry checks its lambdas in one gate, `_lambdas`, and reads column 7
through one pass, `_column7`, which refuses a product that overflowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .report import check_axis
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
# Complex matrix entries per block of the transfer-matrix kernel: a block holds
# BLOCK_ENTRIES // d^2 (lambda, step) d x d matrices (256 at d = 7), realified to
# 2d x 2d real, and every transient array a small fixed multiple of that many.
BLOCK_ENTRIES = 256 * 49
# Rank rule of the channel basis: the directions left out may hold, in every
# sample, at most RANK_TOL times the norm of the largest sample.
RANK_TOL = 1e-12
# Samples on the circle of `zeros_in_disk`; its error falls as q^K, q the largest
# |z - center| / radius: at q = 0.86 it is 1e-4 at K = 32, below the RK4 error at 128.
CONTOUR_POINTS = 128

class DomainTooSmallError(Exception):
    """Potential has not decayed below tolerance at a domain endpoint."""


class HalfPlaneError(Exception):
    """Scattering data requested where nothing is analytic."""


class NonFiniteScatteringError(Exception):
    """A field sample or a lambda has a NaN/infinite part, a real lambda lies
    beyond the RK4 step's stability bound, or its scattering entries are
    NaN/infinity."""


@dataclass(frozen=True)
class PotentialTable:
    """Potential sampled on the half-step nodes of a fixed domain.

    `u` holds the field triple on the 2 n_steps + 1 half-step nodes.  Their
    real coordinates (Re u_m, Im u_m) span the r orthonormal directions `w`
    (6, r), 0 <= r <= 6, up to RANK_TOL; `sv` holds the six singular values of
    that (2 n_steps + 1, 6) sample matrix over the largest (all 0 for the vacuum).  Column 7 evolves in the span of
    diag(w, 1), so the step matrices are d x d, d = r + 1: `coef` holds the
    coefficients F^(0..7) of the step pairs (2k, 2k+1),
    (8, n_steps // 2, d, d) real, which every pass of a lambda batch reads.
    An odd last step has no pair; it is built from `u` when a pass needs it.
    """

    t: float
    x_min: float
    x_max: float
    n_steps: int
    u: np.ndarray  # (2 n_steps + 1, 3)
    w: np.ndarray  # (6, r)
    sv: np.ndarray  # (6,)
    coef: np.ndarray

    def __post_init__(self):
        if self.u.shape != (2 * self.n_steps + 1, 3):
            raise ValueError(f"u has shape {self.u.shape}, need ({2 * self.n_steps + 1}, 3)")
        if np.ndim(self.w) != 2 or len(self.w) != 6:
            raise ValueError(f"w has shape {np.shape(self.w)}, need (6, r)")
        d = self.d
        if np.shape(self.coef) != (8, self.n_steps // 2, d, d):
            raise ValueError(f"coef has shape {np.shape(self.coef)}, need (8, {self.n_steps // 2}, {d}, {d})")

    @property
    def d(self) -> int:
        """Size of the step matrices: the rank of the samples plus one."""
        return self.w.shape[1] + 1

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / self.n_steps


def check_domain(x_min: float, x_max: float, n_steps: int) -> None:
    """Refuse, with a ValueError, a domain that no table can be sampled on."""
    if n_steps < 100:
        raise ValueError(f"n_steps must be >= 100, got {n_steps}")
    check_axis("2 n_steps + 1", 2 * n_steps + 1)
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

    One call `fields(x[], t)` gives the (2 n_steps + 1, 3) field triples at
    every node; the channel basis and the step coefficients are built from
    the samples once.  A non-finite sample raises NonFiniteScatteringError
    naming the first x.
    """
    check_domain(x_min, x_max, n_steps)
    xs_half = np.linspace(x_min, x_max, 2 * n_steps + 1)
    u = fields(xs_half, float(t))
    bad = ~np.all(np.isfinite(u), axis=1)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise NonFiniteScatteringError(
            f"field sample {tuple(complex(c) for c in u[i])} at x = {xs_half[i]:.6g} is not finite"
        )
    for x, tail in ((x_min, u[0]), (x_max, u[-1])):
        mag = float(np.max(np.abs(tail)))
        if mag >= ENDPOINT_DECAY:
            raise DomainTooSmallError(
                f"potential magnitude {mag:.3e} at x = {x} exceeds "
                f"{ENDPOINT_DECAY}; enlarge the domain"
            )
    v = _channels(u)
    w, sv = _channel_basis(v)
    coef = _pair_coefficients(v @ w, (float(x_max) - float(x_min)) / n_steps)
    return PotentialTable(float(t), float(x_min), float(x_max), int(n_steps), u, w, sv, coef)


def _channels(u: np.ndarray) -> np.ndarray:
    """The real coordinates (Re u_1, Im u_1, ..., Im u_3) of field triples, (..., 6)."""
    return np.stack([u.real, u.imag], axis=-1).reshape(-1, 6)


def _channel_basis(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal directions w (6, r) spanning the real samples v (N, 6), and
    the singular values of v over the largest.

    w holds the leading r right singular vectors, taken from the 6 x 6 R of
    v = Q R, r the least rank whose left-out part of every sample is at most
    RANK_TOL times the norm of the largest sample: 0 for a vanishing potential.
    """
    _, sv, vt = np.linalg.svd(np.linalg.qr(v, mode="r"))
    top = max(sv[0], np.finfo(float).tiny)
    sv /= top
    coords = v @ (vt.T / top)  # scaled by the largest singular value, so that no square overflows
    # the largest norm over the samples of their part past the first k directions, k = 0..5
    past = np.sqrt(np.max(np.cumsum(coords[:, ::-1] ** 2, axis=1), axis=0))[::-1]
    r = int(np.count_nonzero(past > RANK_TOL * past[0]))
    return vt[:r].T, sv


def _p_diag(d: int) -> slice:
    """The diagonal of P = diag(1, ..., 1, 0) in a flattened d x d matrix."""
    return slice(0, (d - 1) * (d + 1), d + 1)


def _coefficients(z: np.ndarray, h: float) -> np.ndarray:
    """Step coefficients T^(0..3), (4, n, d, d) real, in the basis
    diag(W, 1) of V, of the n = len(z) // 2 steps over the reduced half-step
    samples z (2n + 1, r), d = r + 1.

    h is the step.  With A = Q' + c P at the start, midpoint and end of a step,
    T = I + h/6 (A0 + 2 K2 + 2 K3 + K4), K2 = Am + h/2 Am A0,
    K3 = Am + h/2 Am K2, K4 = A1 + h A1 K3 (the classical scheme for
    y' = A y) is a polynomial in c; T^(4) = h^4/24 P is left implicit.
    A build holds 17 matrices per step; callers pass a block of steps at most.
    """
    n, r = len(z) // 2, z.shape[1]
    d, p_diag = r + 1, _p_diag(r + 1)

    def step(a, x, w):
        # a + c P + w (a + c P) x, coefficients of c^0 .. c^len(x)
        out = np.empty((len(x) + 1, n, d, d))
        np.matmul(a, x, out=out[:-1])
        out[-1] = 0.0
        out[1:, :, :r] += x[:, :, :r]  # P x: every row but the last
        out *= w
        out[0] += a
        out[1].reshape(n, d * d)[:, p_diag] += 1.0
        return out

    # Q' at the start, midpoint and end node of every step, each contiguous
    a0, am, a1 = q = np.zeros((3, n, d, d))
    q[..., :r, r] = z[2 * np.arange(n) + np.arange(3)[:, None]]
    q[..., r, :r] = -2.0 * q[..., :r, r]
    a_poly = np.zeros((2, n, d, d))
    a_poly[0] = a0
    a_poly[1].reshape(n, d * d)[:, p_diag] = 1.0
    k2 = step(am, a_poly, 0.5 * h)
    k3 = step(am, k2, 0.5 * h)
    t = step(a1, k3, h)[:4]
    k3 *= 2.0
    t += k3
    k2 *= 2.0
    t[:3] += k2
    t[:2] += a_poly
    t *= h / 6.0
    t[0].reshape(n, d * d)[:, :: d + 1] += 1.0
    return t


def _pair_coefficients(z: np.ndarray, h: float) -> np.ndarray:
    """Coefficients F^(0..7), (8, n // 2, d, d) real, of the step pairs of the
    n = len(z) // 2 steps over the reduced half-step samples z (2n + 1, r).

    Pair k is T_{2k+1}(c) T_{2k}(c) = sum_{m<=8} c^m F_k^(m), with
    F^(m) = sum_{i+j=m} T_{2k+1}^(i) T_{2k}^(j); F^(8) = (h^4/24)^2 P is left
    implicit.  Folded from `_coefficients` one block of entries at a time, so
    no single-step table is held; an odd last step is left out.
    """
    s, r = h**4 / 24.0, z.shape[1]
    d = r + 1

    def fold(fb, t):
        # adds to fb the pairs of the steps t; returning frees t before the next build
        late, early = t[:, 1::2], t[:, 0::2]
        products = late[:, None] @ early[None]  # T_{2k+1}^(i) T_{2k}^(j) at [i, j]
        for i in range(4):
            fb[i : i + 4] += products[i]
        # the implicit h^4/24 P of either step: P T zeroes the last row, T P the last column
        fb[4:, :, :r] += s * early[:, :, :r]
        fb[4:, ..., :r] += s * late[..., :r]

    f = np.zeros((8, len(z) // 4, d, d))
    pairs = BLOCK_ENTRIES // (2 * d * d)
    for j in range(0, f.shape[1], pairs):
        fb = f[:, j : j + pairs]
        fold(fb, _coefficients(z[4 * j : 4 * (j + fb.shape[1]) + 1], h))
    return f


def _step_blocks(table: PotentialTable, lams, start: int = 0, stop=None):
    """RK4 step matrices in the basis diag(W, 1) of V, in marching order, one
    block at a time.

    Steps start..stop of every lambda come as real arrays (L, b, 2d, 2d): the
    complex step matrix X + iY as its realification [[X, -Y], [Y, X]].  Each
    matrix is a step pair T_{2k+1} T_{2k}, read from the table's
    coefficients, but for an unpaired first step at an odd `start` and last
    step before an odd `stop`: those come alone, from `_coefficients` on their
    three samples.  A polynomial sum_{m<=n} c^m C^(m) is one real GEMM, of the
    real and the imaginary parts of the powers c^0..c^(n-1) against its stored
    coefficients, giving X and Y, plus the implicit c^n C^(n), a multiple of
    P, on the diagonal of P.
    """
    lams = np.reshape(np.asarray(lams, dtype=complex), -1)
    stop = table.n_steps if stop is None else min(stop, table.n_steps)
    pw = (2j * lams)[:, None] ** np.arange(9)
    ri = np.concatenate([pw.real, pw.imag])
    s, d = table.h**4 / 24.0, table.d

    def evaluate(coef, lead):
        k, m = coef.shape[:2]
        x, y = xy = np.empty((2, len(lams), m, d, d))
        np.matmul(ri[:, :k], coef.reshape(k, -1), out=xy.reshape(2 * len(lams), m * d * d))
        xy.reshape(2, len(lams), m, d * d)[..., _p_diag(d)] += lead * ri[:, k].reshape(2, -1, 1, 1)
        out = np.empty((len(lams), m, 2 * d, 2 * d))
        out[..., :d, :d] = out[..., d:, d:] = x
        out[..., :d, d:], out[..., d:, :d] = -y, y
        return out

    def single(i):
        return evaluate(_coefficients(_channels(table.u[2 * i : 2 * i + 3]) @ table.w, table.h), s)

    if start % 2 and start < stop:
        yield single(start)
        start += 1
    b = max(1, BLOCK_ENTRIES // (d * d) // len(lams))
    for j in range(start // 2, stop // 2, b):
        yield evaluate(table.coef[:, j : min(j + b, stop // 2)], s * s)
    if stop % 2 and start < stop:
        yield single(stop - 1)


def _reduce(t: np.ndarray) -> np.ndarray:
    """Ordered products of the steps t[..., -1, :, :] @ ... @ t[..., 0, :, :] by tree reduction."""
    while t.shape[-3] > 1:
        m = t.shape[-3] // 2 * 2
        p = t[..., 1:m:2, :, :] @ t[..., 0:m:2, :, :]
        if m < t.shape[-3]:  # an odd last matrix joins the last product
            p[..., -1:, :, :] = t[..., m:, :, :] @ p[..., -1:, :, :]
        t = p
    return t[..., 0, :, :]


def _end_product(table: PotentialTable, lams, start: int = 0, stop=None) -> np.ndarray:
    """The product of the RK4 steps start..stop (basis diag(W, 1) of V),
    (L, d, d) complex; its last column, lifted by `_lift`, carries column 7
    of Psi from node start to node stop.

    The product X + iY of the realified steps is read back from its left
    block column [X; Y].  Lambdas go in chunks of at most one block's
    matrices; a block of steps is released as soon as its reduction has made
    the first products.
    """
    lams = np.reshape(np.asarray(lams, dtype=complex), -1)
    d = table.d
    out = np.empty((len(lams), d, d), dtype=complex)
    per_block = BLOCK_ENTRIES // (d * d)
    for i in range(0, len(lams), per_block):
        chunk = lams[i : i + per_block]
        p = None
        for r in map(_reduce, _step_blocks(table, chunk, start, stop)):
            p = r if p is None else r @ p
        out.real[i : i + len(chunk)], out.imag[i : i + len(chunk)] = p[:, :d, :d], p[:, d:, :d]
    return out


def _lift(w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """diag(w, 1) y: reduced column vectors (..., d) back in the basis V, (..., 7)."""
    return np.concatenate([y[..., :-1] @ w.T, y[..., -1:]], axis=-1)


def _from_basis(y: np.ndarray) -> np.ndarray:
    """V^-1 y for column vectors (..., 7), as pair sums rather than products.

    V maps each channel pair (y_a, y_b) to ((y_a + y_b)/2, -i (y_a - y_b)/2)
    and fixes e7; V^-1 maps (a, b) back to (a + i b, a - i b).  Column 7 of
    Psi is V^-1 applied to column 7 of the solution in that basis.
    """
    out = np.array(y, dtype=complex)
    e, o = y[..., 0:6:2], y[..., 1:6:2]
    out[..., 0:6:2], out[..., 1:6:2] = e + 1j * o, e - 1j * o
    return out


def _show(lam: complex) -> str:
    """A lambda for a message: a real one as real."""
    return f"{lam.real:.6g}" if lam.imag == 0.0 else f"{lam:.6g}"


def _lambdas(table: PotentialTable, lam, real: bool = False) -> np.ndarray:
    """lam, a number or an array, as a 1-D complex array.  Refuses, naming the
    first such lambda, a NaN or infinite part and a real lambda past the RK4
    stability bound |lambda| h <= sqrt(2) (NonFiniteScatteringError), and a
    complex lambda where `real` or one in the lower half-plane (HalfPlaneError)."""
    lams = np.reshape(np.asarray(lam, dtype=complex), -1)
    bad = ~np.isfinite(lams)
    if np.any(bad):
        raise NonFiniteScatteringError(f"lambda = {_show(lams[bad][0])} is not finite")
    bad = lams.imag != 0.0 if real else lams.imag < 0.0
    if np.any(bad):
        where = ": this entry is defined for real lambda only" if real else " lies in the lower half-plane"
        raise HalfPlaneError(f"lambda = {_show(lams[bad][0])}{where}")
    # the step of a free wave e^{c x}, c = 2i lambda, grows once |c h| > 2 sqrt2
    bad = (lams.imag == 0.0) & (np.abs(lams) > np.sqrt(2.0) / table.h)
    if np.any(bad):
        raise NonFiniteScatteringError(
            f"lambda = {_show(lams[bad][0])} exceeds the RK4 stability "
            f"bound |lambda| h <= sqrt(2) of the step h = {table.h:.3g}"
        )
    return lams


def _column7(table: PotentialTable, lams: np.ndarray) -> np.ndarray:
    """Column 7 of Psi_-(x_max), (L, 7), from one pass over the table.

    Raises NonFiniteScatteringError, naming the first lambda and entry (the
    (7,7) one first), where the step product has overflowed.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        cols = _from_basis(_lift(table.w, _end_product(table, lams)[:, :, -1]))
    bad = ~np.isfinite(cols)
    if np.any(bad):
        i = int(np.flatnonzero(np.any(bad, axis=1))[0])
        k = 6 if bad[i, 6] else int(np.argmax(bad[i]))
        raise NonFiniteScatteringError(
            f"Omega{k + 1}7 = {cols[i, k]} at lambda = {_show(lams[i])} is not finite"
        )
    return cols


def norm_drift_from_table(table: PotentialTable, lam: float, stride: int) -> float:
    """max | |Psi_-[:, 7]|^2 - 1 | at one real lambda, on every stride-th node and the last.

    For real lambda the norm of column 7 is conserved, so this is how far the
    integration departs from that invariant; column 7 is carried from node to
    node by one end product per stride-length segment.  A complex lambda
    raises HalfPlaneError, a real one past the RK4 stability bound
    NonFiniteScatteringError, more than one lambda ValueError.
    """
    lams = _lambdas(table, lam, real=True)
    if len(lams) != 1:
        raise ValueError(f"norm_drift_from_table takes one lambda, got {len(lams)}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    col, drift = np.eye(table.d)[-1], 0.0
    for start in range(0, table.n_steps, stride):
        col = _end_product(table, lams, start, start + stride)[0] @ col
        drift = max(drift, abs(np.linalg.norm(_from_basis(_lift(table.w, col))) ** 2 - 1.0))
    return float(drift)


def omega77_from_table(table: PotentialTable, lam):
    """The analytically-extendable (7,7) scattering entry (conjugation-invariant):
    a complex for one lambda, an (L,) array, from one pass, for L of them.

    Refuses, naming the first such lambda, one in the lower half-plane with
    HalfPlaneError, and a real one past the RK4 stability bound, or one far
    up the imaginary axis where the step product overflows, with
    NonFiniteScatteringError.
    """
    o77 = _column7(table, _lambdas(table, lam))[:, 6]
    return complex(o77[0]) if np.ndim(lam) == 0 else o77


def coupling_row_sweep(table: PotentialTable, lams: np.ndarray) -> np.ndarray:
    """Entries Omega_17..Omega_67, Omega_77 for a batch of real lambdas.

    Returns (L, 7) complex, column 7 of each Omega, all lambdas in one pass
    over the potential table.  A complex lambda raises HalfPlaneError; one
    past the RK4 stability bound, or one whose entries are not finite,
    NonFiniteScatteringError, naming the first such lambda.
    """
    lams = _lambdas(table, lams, real=True)
    # Omega = e^{-i lam sigma3 x} Psi_-(x) e^{i lam sigma3 x} at x = x_max, using
    # Psi_+(x_max) = I: entry (k, 7) takes e^{i lam (sigma_7 - sigma_k) x_max}
    shift = (SIGMA3_DIAG[6] - SIGMA3_DIAG) * table.x_max
    return _column7(table, lams) * np.exp(1j * lams[:, None] * shift)


def zeros_in_disk(table: PotentialTable, center: complex, radius: float) -> tuple[np.ndarray, float]:
    """(zeros, change): every zero of Omega77 in the disk |lambda - center| <
    radius, from one pass on CONTOUR_POINTS lambdas of its circle
    (L. M. Delves and J. N. Lyness, Math. Comp. 21, 1967).

    `change`, the largest move of a zero from all the samples to the
    even-indexed half (inf if the counts differ), is the quadrature error
    only, not the RK4 error: on figure 3 at 4000 steps it reads 2e-16 while
    the zero is off by 1.2e-8.  A centre that `omega77_from_table` refuses
    raises its error, as does a lambda of the circle where Omega77
    overflows; a non-positive radius raises ValueError, a disk that reaches
    the real axis HalfPlaneError.
    """
    center, radius = complex(center), float(radius)
    _lambdas(table, center)
    if not radius > 0.0:
        raise ValueError(f"radius must be > 0, got {radius}")
    if center.imag - radius <= 0.0:
        raise HalfPlaneError(f"the disk |lambda - {center:.6g}| < {radius:.6g} reaches the real axis")

    def zeros(o77, phi):
        # the winding number n counts the zeros; the e^{-i k phi} coefficient of the periodic
        # log o77 - i n phi is -p_k / k, p_k = sum_j ((z_j - center) / radius)^k
        phase = np.unwrap(np.angle(np.append(o77, o77[0])))
        n = round(float(phase[-1] - phase[0]) / (2.0 * np.pi))
        periodic = np.log(np.abs(o77)) + 1j * (phase[:-1] - n * phi)
        p = -np.arange(1, n + 1) * np.fft.ifft(periodic)[1 : n + 1]
        poly = [1.0]  # the monic polynomial of the scaled zeros, by Newton's identities
        for m in range(1, n + 1):
            poly.append(-np.dot(poly[::-1], p[:m]) / m)
        return center + radius * np.roots(poly)

    phi = np.linspace(0.0, 2.0 * np.pi, CONTOUR_POINTS, endpoint=False)
    o77 = omega77_from_table(table, center + radius * np.exp(1j * phi))
    fine, coarse = zeros(o77, phi), zeros(o77[::2], phi[::2])
    same = len(fine) == len(coarse)
    return fine, float(max((np.min(np.abs(fine - z)) for z in coarse), default=0.0)) if same else math.inf
