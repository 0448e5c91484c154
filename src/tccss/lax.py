"""Lax matrices, zero-curvature and PDE residuals by central differences.

The field evaluators are closed-form and analytic, so stencils may extend
freely past any verification grid; no boundary handling is needed.  All
residuals here measure how well a candidate field satisfies the integrable
structure: the matrix compatibility condition U_t - V_x + [U, V] = 0, the
third-order coupled PDE itself, and the gauge/Galilean/scale pullback to
the higher-order CNLS form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .report import GridSpec, ResidualReport, summarize
from .structure import SIGMA3

# Central-difference weights per (derivative order, accuracy order):
# residual truncation ~ h^acc, roundoff ~ eps / h^der; defaults below pick
# h = 1e-3 at accuracy 4 so third derivatives stay near the 1e-7 floor.
_STENCILS: dict[tuple[int, int], dict[int, float]] = {
    (1, 2): {1: 0.5, -1: -0.5},
    (1, 4): {-2: 1 / 12, -1: -8 / 12, 1: 8 / 12, 2: -1 / 12},
    (2, 2): {-1: 1.0, 0: -2.0, 1: 1.0},
    (2, 4): {-2: -1 / 12, -1: 16 / 12, 0: -30 / 12, 1: 16 / 12, 2: -1 / 12},
    (3, 2): {-2: -0.5, -1: 1.0, 1: -1.0, 2: 0.5},
    (3, 4): {-3: 1 / 8, -2: -1.0, -1: 13 / 8, 1: -13 / 8, 2: 1.0, 3: -1 / 8},
}
# Smallest accepted step.  At 1e-6 the roundoff of the third-derivative
# stencil, about 5.5 eps / h^3, is already above 1e3, so no check could pass;
# far below it x + h == x and every difference is zero.
MIN_STEP = 1e-6


@dataclass(frozen=True)
class StencilSpec:
    """Step sizes and accuracy order for the finite-difference probes."""

    hx: float = 1e-3
    ht: float = 1e-3
    order: int = 4

    def __post_init__(self):
        for name, h in (("hx", self.hx), ("ht", self.ht)):
            if not (MIN_STEP <= h <= 0.1):
                raise ValueError(f"{name} must be in [{MIN_STEP}, 0.1], got {h}")
        if self.order not in (2, 4):
            raise ValueError(f"order must be 2 or 4, got {self.order}")


def _differentiate(sample: Callable[[float], np.ndarray], h: float, der: int, acc: int):
    """Apply the (der, acc) central stencil to a shift -> value map.

    Mirror offsets are combined pairwise (f(+kh) -/+ f(-kh)) so that constant
    inputs difference to exactly zero for odd derivative orders.
    """
    weights = _STENCILS[(der, acc)]
    sign = -1.0 if der % 2 else 1.0
    total = None
    for offset in sorted(k for k in weights if k > 0):
        plus = np.asarray(sample(offset * h), dtype=complex)
        minus = np.asarray(sample(-offset * h), dtype=complex)
        term = weights[offset] * (plus + sign * minus)
        total = term if total is None else total + term
    if 0 in weights:
        total = total + weights[0] * np.asarray(sample(0.0), dtype=complex)
    return total / h ** der


def _grid_points(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Flat x and t coordinates of every grid point, t-major."""
    x, t = np.meshgrid(grid.xs(), grid.ts())
    return x.ravel(), t.ravel()


def build_Q(u: np.ndarray) -> np.ndarray:
    """Potential matrices (..., 7, 7): field triples (..., 3) and conjugates on
    the coupling template."""
    u = np.asarray(u, dtype=complex)
    q = np.zeros(u.shape[:-1] + (7, 7), dtype=complex)
    q[..., 0:6:2, 6] = u
    q[..., 1:6:2, 6] = np.conj(u)
    q[..., 6, 0:6:2] = -np.conj(u)
    q[..., 6, 1:6:2] = -u
    return q


def build_U(lam: complex, q: np.ndarray) -> np.ndarray:
    """Space part of the Lax pair: i*lam*sigma3 + Q."""
    if np.shape(q) != (7, 7):
        raise ValueError("Q must be 7x7")
    return 1j * complex(lam) * SIGMA3 + q


def build_V(lam: complex, q: np.ndarray, qx: np.ndarray, qxx: np.ndarray) -> np.ndarray:
    """Time part of the Lax pair, cubic in the spectral parameter."""
    lam = complex(lam)
    return (
        4j * lam ** 3 * SIGMA3
        + 4 * lam ** 2 * q
        + 2j * lam * ((q @ q + qx) @ SIGMA3)
        + qx @ q
        - q @ qx
        - qxx
        + 2 * q @ q @ q
    )


def _v_at(
    q_at: Callable[[float, float], np.ndarray], lam: complex, x: float, t: float, st: StencilSpec
) -> np.ndarray:
    q = q_at(x, t)
    qx = _differentiate(lambda dx: q_at(x + dx, t), st.hx, 1, st.order)
    qxx = _differentiate(lambda dx: q_at(x + dx, t), st.hx, 2, st.order)
    return build_V(lam, q, qx, qxx)


def zero_curvature_residual(
    field: Callable[[float, float], np.ndarray], lam: complex, x: float, t: float, st: StencilSpec
) -> float:
    """Max-abs entry of U_t - V_x + [U, V] at one probe point.

    `field(x, t)` gives the (3,) field triple at one point.  U_t reduces to
    Q_t; V_x differences fully assembled V matrices whose own ingredients
    come from nested x-stencils, so the whole probe consumes only field
    samples.  The nested stencils share points; each distinct (x, t)
    is sampled once.
    """
    lam = complex(lam)
    q_at = cache(lambda x, t: build_Q(field(x, t)))
    qt = _differentiate(lambda dt: q_at(x, t + dt), st.ht, 1, st.order)
    vx = _differentiate(lambda dx: _v_at(q_at, lam, x + dx, t, st), st.hx, 1, st.order)
    u = build_U(lam, q_at(x, t))
    v = _v_at(q_at, lam, x, t, st)
    resid = qt - vx + u @ v - v @ u
    return float(np.max(np.abs(resid)))


def pde_residual_tccss(
    fields: Callable[[np.ndarray, np.ndarray], np.ndarray], grid: GridSpec, st: StencilSpec
) -> ResidualReport:
    """Residual of the three-component third-order equation over a grid.

    Per component: u_t + u_xxx + 6 (sum |u|^2) u_x + 3 u (sum |u|^2)_x.
    `fields(x[], t[])` gives the (P, 3) field triples at P points; each
    distinct stencil shift is one such call over the whole grid.
    """
    x, t = _grid_points(grid)

    @cache
    def at_x(dx: float) -> np.ndarray:
        return fields(x + dx, t)

    def power(dx: float) -> np.ndarray:
        return np.sum(np.abs(at_x(dx)) ** 2, axis=1)

    u0 = at_x(0.0)
    ut = _differentiate(lambda dt: fields(x, t + dt), st.ht, 1, st.order)
    ux = _differentiate(at_x, st.hx, 1, st.order)
    uxxx = _differentiate(at_x, st.hx, 3, st.order)
    w0 = power(0.0)[:, None]
    wx = _differentiate(power, st.hx, 1, st.order)[:, None]
    r = ut + uxxx + 6.0 * w0 * ux + 3.0 * u0 * wx
    per_component = np.max(np.abs(r), axis=0, initial=0.0)
    notes = tuple(
        f"max |component {m + 1}|: {per_component[m]:.3e}" for m in range(3)
    )
    return summarize("pde_tccss", r, grid.describe(), notes)


def gauge_transform_and_cnls_residual(
    fields: Callable[[np.ndarray, np.ndarray], np.ndarray], grid: GridSpec, st: StencilSpec
) -> ResidualReport:
    """Pull the field back to the higher-order CNLS frame and measure its residual.

    The transformed envelope q_m(X, T) = u_m(X - T/12, T) exp(i (X - T/18) / 6)
    must satisfy i q_T + q_XX / 2 + q sum|q|^2
    + i (q_XXX + 6 q_X sum|q|^2 + 3 q (sum|q|^2)_X) = 0.
    The grid is read as (X, T) samples; `fields` is as for `pde_residual_tccss`.
    """
    X, T = _grid_points(grid)

    def q_at(X: np.ndarray, T: np.ndarray) -> np.ndarray:
        u = fields(X - T / 12.0, T)
        return u * np.exp(1j / 6.0 * (X - T / 18.0))[:, None]

    @cache
    def at_X(dX: float) -> np.ndarray:
        return q_at(X + dX, T)

    def power(dX: float) -> np.ndarray:
        return np.sum(np.abs(at_X(dX)) ** 2, axis=1)

    q0 = at_X(0.0)
    qT = _differentiate(lambda dT: q_at(X, T + dT), st.ht, 1, st.order)
    qX = _differentiate(at_X, st.hx, 1, st.order)
    qXX = _differentiate(at_X, st.hx, 2, st.order)
    qXXX = _differentiate(at_X, st.hx, 3, st.order)
    w0 = power(0.0)[:, None]
    wX = _differentiate(power, st.hx, 1, st.order)[:, None]
    r = 1j * qT + 0.5 * qXX + q0 * w0 + 1j * (qXXX + 6.0 * w0 * qX + 3.0 * q0 * wX)
    return summarize("cnls_gauge", r, grid.describe())
