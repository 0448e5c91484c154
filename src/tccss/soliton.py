"""Reflectionless spectral data and N-soliton field evaluation.

The solution fields come out of a finite linear-algebra problem: each
spectral zero lambda_j in the upper half-plane carries a constant seed
vector; the space-time flow theta_j = i*lambda_j*x + 4i*lambda_j^3*t turns
the seeds into kernel vectors v_j, from which a small Gram-like matrix M is
assembled and inverted.  Two families are supported:

* type I  -- zeros come in mirrored pairs (lambda_j, -conj(lambda_j)); the
  user supplies the N base zeros and six-component seeds, the mirrored half
  is generated internally.
* type II -- N simple pure-imaginary zeros with three-component seeds whose
  conjugate pairing is structural.

`flow` is the one place the seeds meet the flow: it gives the expanded
seeds, the Type I mirror included, and the stabilized exponentials at many
points.  The field kernels are pure functions of (config, x, t) built on it
and giving complex arrays: (P, 3) from `eval_fields_array`, which evaluates
many points in one vectorized pass, and (5, P, 3) from `eval_jets_array`,
the same pass with the exact jets (u, u_x, u_xx, u_xxx, u_t); the RH factors
of `rhp` form their kernel vectors from it too.  All solve M through
`solve_M`, which refuses an M that is non-finite or too ill-conditioned;
the closed forms invert nothing larger than 2x2, written out by hand.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .structure import SIGMA

# Largest accepted 2-norm condition number of M: below 2e4 on the bundled
# figure grids, above 4e15 for zeros 1e-13 apart with equal seeds.
MAX_CONDITION = 1e14


class SpectrumError(ValueError):
    """Invalid spectral data (zero placement or seed structure)."""


class DegenerateSeedError(ValueError):
    """All seed amplitudes vanish where a nonzero envelope is required."""


class NearSingularError(ArithmeticError):
    """M is singular to working precision; names the worst (x, t) and cond(M)."""


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
    per-vector rescaling.  Overflowing exponents come out as inf or NaN,
    which `solve_M` refuses.
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
        return seeds, np.exp(th - scale), np.exp(-th - scale)


def _refuse_non_finite(a: np.ndarray, x, t) -> None:
    finite = np.isfinite(a).reshape(len(a), -1).all(axis=1)
    if not finite.all():
        p = int(np.argmin(finite))
        raise NonFiniteFieldError(
            f"non-finite field at (x, t) = ({x[p]:.17g}, {t[p]:.17g}): "
            "the flow exponents overflow double precision"
        )


def check_M(m: np.ndarray, x, t) -> None:
    """Refuse a non-finite stack (P, m, m) of M, or one whose SVD condition
    number exceeds MAX_CONDITION, naming the worst of the points `x`, `t`."""
    _refuse_non_finite(m, x, t)
    cond = np.linalg.cond(m)
    p = int(np.argmax(cond))
    if not cond[p] <= MAX_CONDITION:
        raise NearSingularError(
            f"M is near-singular at (x, t) = ({x[p]:.17g}, {t[p]:.17g}): condition "
            f"number {cond[p]:.3e} exceeds {MAX_CONDITION:.0e} (nearly coincident zeros?)"
        )


def solve_M(m: np.ndarray, rhs: np.ndarray, x, t):
    """Solve the stacked systems M[p] y[p] = rhs[p], (P, m, m) by (P, m, k),
    and return (y, X) with X = M^-1.

    One LAPACK solve against [rhs | I] also gives X, and cond(M) <=
    |M|_F |X|_F, at most m times too large: a stack whose products stay
    below MAX_CONDITION / 2 is accepted; `check_M` decides any other stack
    and any failed solve."""
    _refuse_non_finite(m, x, t)
    k, eye = rhs.shape[-1], np.eye(m.shape[-1])[None].repeat(len(m), axis=0)
    try:
        y = np.linalg.solve(m, np.concatenate([rhs, eye], axis=-1))
    except np.linalg.LinAlgError:
        check_M(m, x, t)
        raise
    with np.errstate(over="ignore", invalid="ignore"):
        # squares overflow at extreme scales; inf or NaN leaves the stack to the SVD
        bound = (np.abs(m) ** 2).sum(axis=(1, 2)) * (np.abs(y[..., k:]) ** 2).sum(axis=(1, 2))
    if not np.all(bound < (0.5 * MAX_CONDITION) ** 2):
        check_M(m, x, t)
    return y[..., :k], y[..., k:]


def eval_fields_array(
    cfg: SpectrumConfig, x, t, stabilize: bool = True
) -> np.ndarray:
    """Fields (u1, u2, u3) at the points (x[p], t[p]) in one pass: (P, 3),
    the order-0 part of `eval_jets_array`."""
    return eval_jets_array(cfg, x, t, stabilize, derivatives=False)[0]


def eval_jets_array(
    cfg: SpectrumConfig, x, t, stabilize: bool = True, derivatives: bool = True
) -> np.ndarray:
    """Exact jets (u, u_x, u_xx, u_xxx, u_t) at the points: (5, P, 3).

    `x` and `t` broadcast against each other; with `derivatives=False` only
    u is formed, (1, P, 3).  Every kernel vector is a seed times the
    exponentials of `flow`, e = exp(theta - s) on channels 1..6 and
    f = exp(-theta - s) on channel 7, so M is the constant seed pairings
    times outer products of e and f; no (P, m, 7) vector array is formed.

    The fields depend on (x, t) only through theta = i z x + 4 i z^3 t of
    each expanded zero z, and not on s, which is held fixed at each
    point.  So a derivative along a rate a (a = i z for x, 4 i z^3 for t)
    multiplies e_j by a_j, f_j by -a_j and the right-hand side b = conj(f
    seed_7) by -conj(a): M's two numerator parts pick up c^n and (-c)^n
    with c_kj = conj(a_k) + a_j.  Leibniz's rule gives every jet order of
    y = M^-1 b from the inverse X that the solve of y forms anyway,

        y^(n) = X (b^(n) - sum_{i=1..n} C(n, i) M^(i) y^(n-i)),

    and u^(n) = 2i sum_j sum_i C(n, i) a_j^i e_j y_j^(n-i) seed_j (Taylor-mode
    propagation), with no second solve or condition check.
    """
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    x, t = x.ravel(), t.ravel()
    if not cfg.zeros:
        return np.zeros((5 if derivatives else 1, x.size, 3), dtype=complex)
    seeds, e, f = flow(cfg, x, t, stabilize)
    with np.errstate(over="ignore", invalid="ignore"):
        zeros = cfg.expanded_zeros()
        # M = (p6 + p7) / denom: the seed pairings times outer products of
        # e (channels 1..6) and f (channel 7)
        p6 = np.conj(seeds[:, :6]) @ seeds[:, :6].T * (np.conj(e)[:, :, None] * e[:, None, :])
        p7 = np.outer(np.conj(seeds[:, 6]), seeds[:, 6]) * (np.conj(f)[:, :, None] * f[:, None, :])
        denom = zeros[None, :] - np.conj(zeros)[:, None]
        comps = seeds[:, 0:6:2]
        m = (p6 + p7) / denom
        b = np.conj(seeds[:, 6] * f)
        y, inv = solve_M(m, b[:, :, None], x, t)
        jets = [2j * (e * y[:, :, 0]) @ comps]
        if derivatives:
            # M^(i) = c^i (p6 + (-1)^i p7) / denom: c^i times m or m_odd
            m_odd = (p6 - p7) / denom
            for rate, n in ((1j * zeros, 3), (4j * zeros ** 3, 1)):
                c = np.conj(rate)[:, None] + rate[None, :]
                dm = {i: c ** i * (m_odd if i % 2 else m) for i in range(1, n + 1)}
                ys = [y[:, :, 0]]
                for k in range(1, n + 1):
                    r = (-np.conj(rate)) ** k * b
                    for i in range(1, k + 1):
                        r -= math.comb(k, i) * np.einsum("pij,pj->pi", dm[i], ys[k - i])
                    ys.append(np.einsum("pij,pj->pi", inv, r))
                    g = sum(math.comb(k, i) * rate ** i * ys[k - i] for i in range(k + 1))
                    jets.append(2j * (e * g) @ comps)
        jets = np.stack(jets)
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
