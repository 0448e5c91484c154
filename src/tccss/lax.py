"""Lax matrices and the residuals of the integrable structure, on exact jets.

Every residual here is plain algebra on field jets, a (5, P, 3) array of
(u, u_x, u_xx, u_xxx, u_t) at P points, named u, x1, x2, x3, t1: the matrix
compatibility condition U_t - V_x + [U, V] = 0, the third-order coupled PDE
itself, and the gauge/Galilean/scale pullback to the higher-order CNLS form.
The jets do not come from field samples, so `jet_table` cross-checks each
derivative order against a central first-derivative stencil of samples; a
caller that trusts the residuals reads the cross-check beside them.  The
field maps are closed-form and analytic, so stencils may extend freely past
any verification grid; no boundary handling is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .structure import SIGMA3

# Central first-difference weights w_k of f(+kh) - f(-kh), per accuracy order.
_STENCILS: dict[int, dict[int, float]] = {
    2: {1: 0.5},
    4: {1: 8 / 12, 2: -1 / 12},
}
# Smallest accepted step.  Far below it x + h == x and every difference is
# zero, so the cross-check would pass vacuously; at it the stencil's
# roundoff, the evaluation error over h, stays below 1e-6 on the bundled
# figures (9e-7 on figure 2, whose fields carry about 1e-12 of roundoff).
MIN_STEP = 1e-6


@dataclass(frozen=True)
class StencilSpec:
    """Step sizes and accuracy order of the first-derivative cross-check."""

    hx: float = 1e-3
    ht: float = 1e-3
    order: int = 4

    def __post_init__(self):
        for name, h in (("hx", self.hx), ("ht", self.ht)):
            if not (MIN_STEP <= h <= 0.1):
                raise ValueError(f"{name} must be in [{MIN_STEP}, 0.1], got {h}")
        if self.order not in _STENCILS:
            raise ValueError(f"order must be 2 or 4, got {self.order}")


def jet_table(jets: Callable[[np.ndarray, np.ndarray, int], np.ndarray], x, t,
              st: StencilSpec) -> tuple[np.ndarray, dict[str, float]]:
    """Jets (5, P, 3) at the points, and each order's cross-check discrepancy.

    `jets(x[], t[], terms)` gives the first `terms` jet orders (terms, P, 3)
    at P points.  It is called three times: for the table, for every x-shift
    of the stencil at once (u, u_x, u_xx) and for every t-shift at once (u).
    Orders x1 and t1 are compared with the order-`st.order` central first
    difference of u, x2 and x3 with that of the next lower jet order; the
    discrepancy is the largest absolute difference over points and components.
    """
    x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
    weights = _STENCILS[st.order]
    steps = [s * k for k in weights for s in (1, -1)]  # +k, -k per weight

    def difference(samples, h):  # mirror shifts combined pairwise
        s = samples.reshape(len(samples), len(steps), x.size, 3)
        return sum(w * (s[:, 2 * i] - s[:, 2 * i + 1]) for i, w in enumerate(weights.values())) / h

    table = jets(x, t, 5)
    # central differences of u, u_x and u_xx in x, and of u in t
    dx = difference(jets(np.concatenate([x + k * st.hx for k in steps]), np.tile(t, len(steps)), 3), st.hx)
    dt = difference(jets(np.tile(x, len(steps)), np.concatenate([t + k * st.ht for k in steps]), 1), st.ht)
    errors = np.abs(np.concatenate([dx, dt]) - table[1:])
    return table, dict(zip(("x1", "x2", "x3", "t1"), np.max(errors, axis=(1, 2), initial=0.0).tolist()))


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
    """Space part of the Lax pair: i*lam*sigma3 + Q, for Q of shape (..., 7, 7)."""
    if np.shape(q)[-2:] != (7, 7):
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


def build_V_x(
    lam: complex, q: np.ndarray, qx: np.ndarray, qxx: np.ndarray, qxxx: np.ndarray
) -> np.ndarray:
    """x-derivative of `build_V` by the product rule, from Q and its x-jets."""
    lam = complex(lam)
    return (
        4 * lam ** 2 * qx
        + 2j * lam * ((qx @ q + q @ qx + qxx) @ SIGMA3)
        + qxx @ q
        - q @ qxx
        - qxxx
        + 2 * (qx @ q @ q + q @ qx @ q + q @ q @ qx)
    )


def zero_curvature_residual(lam: complex, jets: np.ndarray) -> np.ndarray:
    """Max-abs entry of U_t - V_x + [U, V] at each point of the jets: (P,).

    U_t reduces to Q_t, and V_x is exact: Q is linear in the field, so each
    jet order of Q is `build_Q` of that order of the field.
    """
    q, qx, qxx, qxxx, qt = build_Q(jets)
    u = build_U(lam, q)
    v = build_V(lam, q, qx, qxx)
    resid = qt - build_V_x(lam, q, qx, qxx, qxxx) + u @ v - v @ u
    return np.max(np.abs(resid), axis=(-2, -1))


def pde_residual_tccss(jets: np.ndarray) -> np.ndarray:
    """Residual of the three-component third-order equation: (P, 3).

    Per component: u_t + u_xxx + 6 (sum |u|^2) u_x + 3 u (sum |u|^2)_x.
    """
    u, ux, _, uxxx, ut = jets
    w = np.sum(np.abs(u) ** 2, axis=-1, keepdims=True)
    wx = 2.0 * np.sum((np.conj(u) * ux).real, axis=-1, keepdims=True)
    return ut + uxxx + 6.0 * w * ux + 3.0 * u * wx


def gauge_transform_and_cnls_residual(jets: np.ndarray, x, t) -> np.ndarray:
    """Residual of the higher-order CNLS form of the pulled-back field: (P, 3).

    The transformed envelope q_m(X, T) = u_m(X - T/12, T) exp(i (X - T/18) / 6)
    must satisfy i q_T + q_XX / 2 + q sum|q|^2
    + i (q_XXX + 6 q_X sum|q|^2 + 3 q (sum|q|^2)_X) = 0.
    The jets of u at (x, t) give those of q at (X, T) = (x + t/12, t).
    """
    u, ux, uxx, uxxx, ut = jets
    g = np.exp(1j / 6.0 * (np.asarray(x) + np.asarray(t) / 36.0))[:, None]
    k = 1j / 6.0  # X-rate of the gauge factor
    q = u * g
    qX = (ux + k * u) * g
    qXX = (uxx + 2 * k * ux + k ** 2 * u) * g
    qXXX = (uxxx + 3 * k * uxx + 3 * k ** 2 * ux + k ** 3 * u) * g
    qT = (ut - ux / 12.0 - 1j / 108.0 * u) * g
    w = np.sum(np.abs(q) ** 2, axis=-1, keepdims=True)
    wX = 2.0 * np.sum((np.conj(q) * qX).real, axis=-1, keepdims=True)
    return 1j * qT + 0.5 * qXX + q * w + 1j * (qXXX + 6.0 * w * qX + 3.0 * q * wX)
