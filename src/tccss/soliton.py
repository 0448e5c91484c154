"""Reflectionless spectral data and N-soliton field evaluation.

The solution fields come out of a finite linear-algebra problem: each
spectral zero lambda_j in the upper half-plane carries a constant seed
vector; the space-time flow theta_j = i*lambda_j*x + 4i*lambda_j^3*t turns
the seeds into kernel vectors v_j, whose small Cauchy-like matrix M is
inverted.  Two families are supported:

* type I  -- zeros come in mirrored pairs (lambda_j, -conj(lambda_j)); the
  user supplies the N base zeros and six-component seeds, the mirrored half
  is generated internally.
* type II -- N simple pure-imaginary zeros with three-component seeds whose
  conjugate pairing is structural.

`flow` is the one place the seeds meet the flow: it gives the expanded
seeds, the Type I mirror included, and the stabilized exponentials at many
points.  `solve_kernel` runs one elimination on those kernel vectors over
all points, never forming M, and refuses a point whose pivots are non-finite
or too far apart.  The field kernels and the RH factors of `rhp` build on
it; the field kernels give complex arrays: (P, 3) from `eval_fields_array`,
many points in one vectorized pass, and (terms, P, 3) from `eval_jets_array`,
the exact jets (u, u_x, u_xx, u_xxx, u_t) or their first terms.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .structure import SIGMA

# Entries of the generators g per block of points of `solve_kernel`: blocks
# of about KERNEL_ENTRIES // (terms m (min(m, 6) + 1)) points (m more channels
# with the weights).  A block holds its generators (0.5 MiB) and the products
# of one elimination step, none larger than the generators: 1.7-2.0 MiB at
# the peak (tracemalloc) on figures 2 and 4 and the full-rank Type I N = 3.
KERNEL_ENTRIES = 2 ** 15
# Largest accepted ratio of the largest to the smallest pivot of the
# elimination, at most cond(M): below 600 on the bundled figure grids, 4e26
# for zeros 1e-13 apart with equal seeds.
MAX_CONDITION = 1e14


class SpectrumError(ValueError):
    """Invalid spectral data (zero placement or seed structure)."""


class DegenerateSeedError(ValueError):
    """All seed amplitudes vanish where a nonzero envelope is required."""


class NearSingularError(ArithmeticError):
    """M is singular to working precision; names the worst (x, t) and its pivot ratio."""


class NonFiniteFieldError(ArithmeticError):
    """The construction overflowed to NaN or infinity; names the (x, t)."""


class Family(enum.Enum):
    TYPE_I = "TypeI"
    TYPE_II = "TypeII"


@dataclass(frozen=True)
class TypeISeed:
    """Six free seed amplitudes; the seventh component is pinned to 1."""

    alpha: complex
    beta: complex
    gamma: complex
    mu: complex
    rho: complex
    delta: complex

    def full(self) -> np.ndarray:
        return np.array(
            [self.alpha, self.beta, self.gamma, self.mu, self.rho, self.delta, 1.0],
            dtype=complex,
        )


@dataclass(frozen=True)
class TypeIISeed:
    """Three free amplitudes; conjugate partners and the trailing 1 are structural."""

    alpha: complex
    gamma: complex
    rho: complex

    def full(self) -> np.ndarray:
        a, g, r = self.alpha, self.gamma, self.rho
        return np.array(
            [a, np.conj(a), g, np.conj(g), r, np.conj(r), 1.0], dtype=complex
        )


Seed = TypeISeed | TypeIISeed


@dataclass(frozen=True)
class SpectrumConfig:
    """Complete scattering data of a reflectionless solution."""

    family: Family
    zeros: tuple[complex, ...]
    seeds: tuple[Seed, ...]

    def __post_init__(self):
        # an empty spectrum is the vacuum: zero field, identity RH factors
        object.__setattr__(self, "zeros", tuple(complex(z) for z in self.zeros))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if len(self.zeros) != len(self.seeds):
            raise SpectrumError(
                f"{len(self.zeros)} zeros but {len(self.seeds)} seeds"
            )
        want = TypeISeed if self.family is Family.TYPE_I else TypeIISeed
        for j, s in enumerate(self.seeds):
            if not isinstance(s, want):
                raise SpectrumError(
                    f"seed {j + 1} is {type(s).__name__}, expected {want.__name__} "
                    f"for {self.family.value}"
                )
        for j, z in enumerate(self.zeros):
            if not (z.imag > 0.0):
                raise SpectrumError(
                    f"zero {j + 1} = {z} not in upper half-plane"
                )
            if self.family is Family.TYPE_II and z.real != 0.0:
                raise SpectrumError(
                    f"TypeII zero {j + 1} = {z} must be pure imaginary"
                )
            if self.family is Family.TYPE_I and z.real == 0.0:
                raise SpectrumError(
                    f"TypeI base zero {j + 1} = {z} must not be pure imaginary"
                )
        expanded = self.expanded_zeros()
        for j in range(len(expanded)):
            for k in range(j + 1, len(expanded)):
                if expanded[j] == expanded[k]:
                    raise SpectrumError(
                        f"coincident zeros at positions {j + 1} and {k + 1} "
                        f"(value {expanded[j]})"
                    )

    def expanded_zeros(self) -> np.ndarray:
        """All zeros of the solution: base plus (for type I) the mirrored set."""
        base = np.array(self.zeros, dtype=complex)
        if self.family is Family.TYPE_I:
            return np.concatenate([base, -np.conj(base)])
        return base


def theta(lam: complex, x: float, t: float) -> complex:
    """Flow exponent i*lam*x + 4i*lam^3*t attached to a spectral zero."""
    lam = complex(lam)
    # lam * (lam * lam) is the product `lam ** 3` forms, but overflows to
    # inf or NaN instead of raising OverflowError
    return 1j * lam * x + 4j * (lam * (lam * lam)) * t


def flow(cfg: SpectrumConfig, x: np.ndarray, t: np.ndarray, stabilize: bool = True):
    """Expanded seeds and flow exponentials at the points (x[p], t[p]):
    (seeds (m, 7), e (P, m), f (P, m)) for the m expanded zeros.

    The kernel vector of zero j at point p is the seed times e[p, j] =
    exp(theta - s) on channels 1..6 and f[p, j] = exp(-theta - s) on
    channel 7, theta = i lambda_j x + 4 i lambda_j^3 t.  The scale s =
    |Re theta| (0 unless `stabilize`) keeps every component at most
    O(max seed); every bilinear formula downstream is invariant under that
    per-vector rescaling.  Exponentials that overflow to inf or NaN are
    refused here.
    """
    seeds = np.array([s.full() for s in cfg.seeds], dtype=complex).reshape(-1, 7)
    lam = np.array(cfg.zeros, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        th = 1j * lam * x[:, None] + 4j * lam ** 3 * t[:, None]
        if cfg.family is Family.TYPE_I:
            # the mirrored zero -conj(lambda_j) flows with conj(theta_j) and
            # carries the seed sigma @ conj(seed_j)
            th = np.concatenate([th, np.conj(th)], axis=1)
            seeds = np.concatenate([seeds, np.conj(seeds) @ SIGMA])
        scale = np.abs(th.real) if stabilize else 0.0
        e, f = np.exp(th - scale), np.exp(-th - scale)
        _refuse_non_finite(e * f, x, t)  # finite exactly where e and f are: |e f| <= 1
    return seeds, e, f


_M_OVERFLOW = "M overflows double precision: a pole gap z_j - conj(z_k) is too small for its seed pairing"


def _refuse_non_finite(a: np.ndarray, x, t, cause="the flow exponents overflow double precision") -> None:
    finite = np.isfinite(a)
    if not finite.all():
        p = int(np.argmin(finite.reshape(len(a), -1).all(axis=1)))
        raise NonFiniteFieldError(
            f"non-finite field at (x, t) = ({x[p]:.17g}, {t[p]:.17g}): {cause}"
        )


def _mul(a, b) -> np.ndarray:
    """Truncated product of two series, terms leading (1, dx, dx^2, dx^3, dt
    modulo (dx^4, dx dt, dt^2), as many as `a` has)."""
    n = len(a) - (len(a) == 5)  # the terms in dx alone
    c = a[0] * b
    for i in range(1, n):
        c[i:n] += a[i] * b[:n - i]
    if len(a) == 5:
        c[4] += a[4] * b[0]
    return c


def _reciprocal(a) -> np.ndarray:
    """1 / a for a series a, terms as `_mul`'s."""
    n = len(a) - (len(a) == 5)
    r = [1.0 / a[0]]
    for k in range(1, n):
        r.append(-r[0] * functools.reduce(operator.add, (a[i] * r[k - i] for i in range(1, k + 1))))
    if len(a) == 5:
        r.append(-r[0] * a[4] * r[0])
    return np.stack(r)


def _eliminate(cfg: SpectrumConfig, x, t, terms: int, stabilize: bool, weights: bool):
    """`solve_kernel` on one block of points, bar the pivot ratio bound; W is (P, 0, 0) without `weights`."""
    if len(x) == 1:  # numpy picks other inner loops, with other roundings, at one point
        jets, w, ratio = _eliminate(cfg, np.repeat(x, 2), np.repeat(t, 2), terms, stabilize, weights)
        return jets[:, :1], w[:1], ratio[:1]
    (seeds, e, f), zeros = flow(cfg, x, t, stabilize), cfg.expanded_zeros()
    # below six zeros, the six field channels run in an orthonormal basis of the seeds' span
    basis = np.linalg.qr(seeds[:, :6].T)[0] if len(seeds) < 6 else np.eye(6)
    m, n, k, d = len(zeros), len(x), len(zeros) * weights, basis.shape[1]  # g: d field channels, f, k of B
    with np.errstate(all="ignore"):
        # Taylor coefficients of exp(a dx + b dt), a = i z and b = 4 i z^3
        rate = np.array([zeros ** 0, 1j * zeros, -zeros ** 2 / 2, -1j * zeros ** 3 / 6, 4j * zeros ** 3])
        rate = rate[:terms, :, None]
        g = np.empty((terms, m, d + 1 + k, n), dtype=complex)
        np.multiply((seeds[:, :6] @ np.conj(basis))[:, :, None], (rate * np.ascontiguousarray(e.T))[:, :, None],
                    out=g[:, :, :d])
        np.multiply(seeds[:, 6, None], np.array([1, -1, 1, -1, -1])[:terms, None, None] * rate * f.T, out=g[:, :, d])
        g[:, :, d + 1:] = np.eye(m, k)[..., None] * (np.arange(terms) == 0)[:, None, None, None]
        z = np.repeat(zeros[:, None], n, axis=1)  # each point's order of the zeros
        u, w, pivots = np.zeros((terms, d, n), dtype=complex), np.zeros((k, k, n), dtype=complex), np.empty((m, n))
        for c in range(m):
            if c + 1 < m:  # pivot: swap in the row of largest |M_kk|
                piv = c + np.argmax((np.abs(g[0, c:, :d + 1]) ** 2).sum(axis=1) / z[c:].imag, axis=0)
                pts = np.flatnonzero(piv != c)
                to = piv[pts]
                g[:, c, :, pts], g[:, to, :, pts] = g[:, to, :, pts], g[:, c, :, pts]
                z[c, pts], z[to, pts] = z[to, pts], z[c, pts]
            gc = g[:, c]
            # conj((z_c - conj z_k) M_kc) = g_k . conj(g_c) for the rows k >= c
            col = _mul(g[:, c:, :d + 1], np.conj(gc[:, None, :d + 1])).sum(axis=2)
            pivots[c] = col[0, 0].real / (2 * z[c].imag)
            q = _reciprocal(col[:, 0].real) * (-4 * z[c].imag)  # 2i / M_cc
            # the field term 2i g_c[:d] conj(g_c[d]) / M_cc, then conj(M_kc / M_cc) for k > c
            low = _mul(np.concatenate([_mul(gc[:, :d], np.conj(gc[:, d:d + 1])), col[:, 1:]], axis=1), q[:, None])
            u += low[:, :d]
            low = low[:, d:] * (0.5j / (np.conj(z[c]) - z[c + 1:]))
            g[:, c + 1:] -= _mul(low[:, :, None], gc[:, None])
            if weights:
                w += gc[0, d + 1:, None] * np.conj(gc[0, d + 1:]) * (-0.5j * q[0])
        _refuse_non_finite(np.where(np.isnan(pivots), 0.0, pivots).T, x, t, _M_OVERFLOW)
        ratio = pivots.max(axis=0, initial=0.0) / pivots.min(axis=0, initial=np.inf)  # NaN where a pivot is
    u = functools.reduce(operator.add, (basis[0:6:2, i, None] * u[:, i, None] for i in range(d)),
                         np.zeros((terms, 3, n)))
    jets = (u * np.array([1, 1, 2, 6, 1])[:terms, None, None]).transpose(0, 2, 1)  # Taylor coefficients to jets
    return jets, w.transpose(2, 0, 1), ratio


def solve_kernel(cfg: SpectrumConfig, x: np.ndarray, t: np.ndarray, terms: int = 1, stabilize: bool = True,
                 weights: bool = False):
    """The fields at the points by one elimination on the kernel vectors of
    `flow`: (jets, W, ratio), jets (terms, P, 3) the first `terms` of (u,
    u_x, u_xx, u_xxx, u_t), W = M^-1 (P, m, m) if `weights` (else None) and
    ratio (P,) each point's largest pivot over its smallest.

    M_kj = (vhat_k . v_j) / (z_j - conj z_k) is never formed: its Schur
    complements keep that form on generators g_k, first v_k, and pivot c
    sets g_k -= conj(M_kc / M_cc) g_c (Gohberg, Kailath & Olshevsky, Math.
    Comp. 64, 1995).  M is anti-Hermitian, so the right-hand side
    conj(g_k[6]) and the output rows g_k[0:6:2] take the same update: u is
    the dressing sum of 2i g_c[0:6:2] conj(g_c[6]) / M_cc.  The rows of the
    identity, conjugated and carried as channels of g, end as conj(B) with
    M^-1 = B^H diag(1 / M_cc) B.  Below six zeros, channels 0..5 run in an
    orthonormal basis of the seeds' span.  Each point pivots on its largest
    |g_k|^2 / Im z_k; the pivots i M_cc = |g_c|^2 / (2 Im z_c) are positive
    (iM is Hermitian positive definite), their ratio is at most cond(M), and
    a ratio above MAX_CONDITION or a non-finite pivot is refused.

    Each quantity is a series in 1, dx, dx^2, dx^3, dt (`_mul`): e_j and f_j
    enter times exp(+-(a dx + b dt)), a = i z_j and b = 4 i z_j^3, and conj
    acts per term; pivots are chosen and checked on the first term.  Only
    elementwise operations and sums over a leading axis touch the data: a
    point's bits do not depend on the rest of the call, which runs in
    blocks (a lone point runs twice).
    """
    m, n = len(cfg.expanded_zeros()), len(x)
    blocks = max(-(-n * terms * max(m, 1) * (min(m, 6) + 1 + m * weights) // KERNEL_ENTRIES), 1)
    size, k = max(-(-n // blocks), 1), m * weights
    jets, w, ratio = np.empty((terms, n, 3), dtype=complex), np.empty((n, k, k), dtype=complex), np.empty(n)
    for i in range(0, max(n, 1), size):
        jets[:, i:i + size], w[i:i + size], ratio[i:i + size] = _eliminate(
            cfg, x[i:i + size], t[i:i + size], terms, stabilize, weights)
    p = int(np.argmax(ratio)) if n else 0
    if n and not ratio[p] <= MAX_CONDITION:
        raise NearSingularError(
            f"M is near-singular at (x, t) = ({x[p]:.17g}, {t[p]:.17g}): pivot ratio "
            f"{ratio[p]:.3e} exceeds {MAX_CONDITION:.0e} (nearly coincident zeros?)"
        )
    return jets, w if weights else None, ratio


def eval_fields_array(cfg: SpectrumConfig, x, t, stabilize: bool = True) -> np.ndarray:
    """Fields (u1, u2, u3) at the points (x[p], t[p]) in one pass: (P, 3),
    the order-0 part of `eval_jets_array`."""
    return eval_jets_array(cfg, x, t, 1, stabilize)[0]


def eval_jets_array(cfg: SpectrumConfig, x, t, terms: int = 5, stabilize: bool = True) -> np.ndarray:
    """Exact jets (u, u_x, u_xx, u_xxx, u_t), or their first `terms` (1 to
    5), at the points, which broadcast: (terms, P, 3).  The elimination of
    `solve_kernel` in truncated Taylor series (Griewank & Walther,
    *Evaluating Derivatives*, ch. 13) gives every order with no second solve.
    """
    if terms not in range(1, 6):
        raise ValueError(f"terms must be 1 to 5, got {terms}")
    x, t = (a.ravel() for a in np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float)))
    jets = solve_kernel(cfg, x, t, terms, stabilize)[0]
    _refuse_non_finite(jets.transpose(1, 0, 2), x, t)
    return jets


def _sech(z: float) -> float:
    # overflow-safe 1/cosh
    a = abs(z)
    e = math.exp(-a)
    return 2.0 * e / (1.0 + e * e)


def one_soliton_closed_form(
    alpha1: complex,
    gamma1: complex,
    rho1: complex,
    eta1: float,
    x: float,
    t: float,
) -> np.ndarray:
    """Single bell soliton for the pure-imaginary zero i*eta1.

    u_m = -(sqrt(2) c_m eta1 / sqrt(S)) sech(-2 eta1 x + 8 eta1^3 t + ln sqrt(2S))
    with c = (alpha1, gamma1, rho1) and S the squared seed norm.  The argument
    sign and the ln sqrt(2S) offset are fixed by requiring exact agreement
    with the field kernel on the N = 1 construction.
    """
    if eta1 == 0.0:
        raise ValueError("eta1 must be nonzero")
    s = abs(alpha1) ** 2 + abs(gamma1) ** 2 + abs(rho1) ** 2
    if s == 0.0:
        raise DegenerateSeedError("all seed amplitudes are zero")
    arg = -2.0 * eta1 * x + 8.0 * eta1 ** 3 * t + math.log(math.sqrt(2.0 * s))
    factor = -math.sqrt(2.0) * eta1 / math.sqrt(s) * _sech(arg)
    return np.array([alpha1 * factor, gamma1 * factor, rho1 * factor], dtype=complex)


def breather_closed_form(
    alpha1: complex,
    gamma1: complex,
    rho1: complex,
    xi1: float,
    eta1: float,
    x: float,
    t: float,
) -> np.ndarray:
    """Breather from one type-I zero xi1 + i*eta1 with conjugate-paired seeds.

    The seeds are constrained to beta = conj(alpha), mu = conj(gamma),
    delta = conj(rho); the construction then collapses to

        u_m = -(2 sqrt(2) c_m xi1 eta1 / sqrt(S))
              * (xi1 cosh X1 cos Y1 + eta1 sinh X1 sin Y1)
              / (xi1^2 cosh^2 X1 + eta1^2 sin^2 Y1),

        X1 = -2 eta1 (x + 4 (3 xi1^2 - eta1^2) t) + ln sqrt(2S),
        Y1 =  2 xi1 (x + 4 (xi1^2 - 3 eta1^2) t).

    The eta1^2 weight in the denominator is required for agreement with
    the field kernel; the denominator is then bounded below by xi1^2 > 0.
    """
    if xi1 == 0.0:
        raise ValueError("xi1 must be nonzero (zero xi1 is the bell-soliton limit)")
    if eta1 <= 0.0:
        raise ValueError("eta1 must be positive")
    s = abs(alpha1) ** 2 + abs(gamma1) ** 2 + abs(rho1) ** 2
    if s == 0.0:
        raise DegenerateSeedError("all seed amplitudes are zero")
    x1 = -2.0 * eta1 * (x + 4.0 * (3.0 * xi1 ** 2 - eta1 ** 2) * t) + math.log(
        math.sqrt(2.0 * s)
    )
    y1 = 2.0 * xi1 * (x + 4.0 * (xi1 ** 2 - 3.0 * eta1 ** 2) * t)
    sech = _sech(x1)
    tanh = math.tanh(x1)
    # numerator and denominator scaled by sech^2 to stay finite for large |X1|
    num = xi1 * math.cos(y1) * sech + eta1 * tanh * math.sin(y1) * sech
    den = xi1 ** 2 + eta1 ** 2 * math.sin(y1) ** 2 * sech ** 2
    factor = -2.0 * math.sqrt(2.0) * xi1 * eta1 / math.sqrt(s) * num / den
    return np.array([alpha1 * factor, gamma1 * factor, rho1 * factor], dtype=complex)


def two_soliton_closed_form(
    seed1: TypeIISeed,
    seed2: TypeIISeed,
    lam1: complex,
    lam2: complex,
    x: float,
    t: float,
) -> np.ndarray:
    """Two-bell soliton: explicit 2x2 transcription of the type-II N = 2 sum.

    T_kj = (Delta_kj e^{conj(theta_k) + theta_j} + e^{-conj(theta_k) - theta_j})
           / (lambda_j - conj(lambda_k)),
    Delta_kj the seed cross pairing (Delta_kk = 2 S_k), then
    u_m = 2i sum_kj c_m,k e^{theta_k - conj(theta_j)} (T^-1)_kj.
    """
    lam1, lam2 = complex(lam1), complex(lam2)
    for name, z in (("lam1", lam1), ("lam2", lam2)):
        if z.real != 0.0 or z.imag <= 0.0:
            raise SpectrumError(f"{name} = {z} must be pure imaginary in the upper half-plane")
    if lam1 == lam2:
        raise SpectrumError(f"coincident zeros {lam1}")
    lams = (lam1, lam2)
    seeds = (seed1, seed2)
    thetas = [theta(z, x, t) for z in lams]
    tmat = np.empty((2, 2), dtype=complex)
    for k in range(2):
        for j in range(2):
            sk, sj = seeds[k], seeds[j]
            pairing = (
                sk.alpha * np.conj(sj.alpha)
                + np.conj(sk.alpha) * sj.alpha
                + sk.gamma * np.conj(sj.gamma)
                + np.conj(sk.gamma) * sj.gamma
                + np.conj(sk.rho) * sj.rho
                + sk.rho * np.conj(sj.rho)
            )
            tmat[k, j] = (
                pairing * np.exp(np.conj(thetas[k]) + thetas[j])
                + np.exp(-np.conj(thetas[k]) - thetas[j])
            ) / (lams[j] - np.conj(lams[k]))
    # T^-1 as the adjugate over the determinant
    (a, b), (c, d) = tmat
    w = np.array([[d, -b], [-c, a]]) / (a * d - b * c)
    u = np.zeros(3, dtype=complex)
    comps = [(seed1.alpha, seed2.alpha), (seed1.gamma, seed2.gamma), (seed1.rho, seed2.rho)]
    for k in range(2):
        for j in range(2):
            phase = 2j * np.exp(thetas[k] - np.conj(thetas[j])) * w[k, j]
            for m in range(3):
                u[m] += comps[m][k] * phase
    return u


def breather_spectrum(
    alpha1: complex, gamma1: complex, rho1: complex, lam1: complex
) -> SpectrumConfig:
    """Type-I N = 1 config with the conjugate-paired seed constraint."""
    seed = TypeISeed(
        alpha=alpha1,
        beta=np.conj(alpha1),
        gamma=gamma1,
        mu=np.conj(gamma1),
        rho=rho1,
        delta=np.conj(rho1),
    )
    return SpectrumConfig(Family.TYPE_I, (complex(lam1),), (seed,))


def one_soliton_spectrum(
    alpha1: complex, gamma1: complex, rho1: complex, eta1: float
) -> SpectrumConfig:
    """Type-II N = 1 config for the zero i*eta1."""
    return SpectrumConfig(
        Family.TYPE_II, (1j * eta1,), (TypeIISeed(alpha1, gamma1, rho1),)
    )
