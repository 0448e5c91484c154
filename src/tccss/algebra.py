"""Dense complex linear algebra on small matrices.

The matrix type of the 7x7 spectral objects and a hand-written LU with
partial pivoting, determinant and linear solves.  The pointwise field
reference (`soliton.eval_fields`), the two-soliton closed form and the
determinants of the RH and scattering checks run through this LU, which
keeps them independent of the batched LAPACK solve of the field kernel
(`soliton.solve_M`).  Matrices here never exceed a few dozen entries, so
the factorization is written out directly; numpy is used for storage and
elementwise arithmetic only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative pivot magnitude below which a solve is declared singular.
SINGULAR_PIVOT_RTOL = 1e-14


class AlgebraError(Exception):
    """Base class for linear-algebra failures."""


class DimensionMismatchError(AlgebraError):
    """Operands have incompatible shapes."""


class SingularMatrixError(AlgebraError):
    """Factorization hit a pivot too small to divide by.

    `pivot_index` is the elimination step (0-based) at which the pivot
    column had no usable entry.
    """

    def __init__(self, pivot_index: int, pivot_magnitude: float, scale: float):
        self.pivot_index = pivot_index
        self.pivot_magnitude = pivot_magnitude
        self.scale = scale
        super().__init__(
            f"singular to working precision at pivot {pivot_index}: "
            f"|pivot| = {pivot_magnitude:.3e}, |A|_max = {scale:.3e}"
        )


@dataclass(frozen=True, eq=False)
class ComplexMatrix:
    """Immutable dense complex matrix, row-major storage."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.array(self.data, dtype=complex, order="C")
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionMismatchError(f"expected a 2-d matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise ValueError("matrix entries must be finite (no NaN/Inf)")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def entries(self) -> np.ndarray:
        """Row-major flat view of the entries (read-only)."""
        return self.data.ravel()

    @classmethod
    def from_rows(cls, rows) -> "ComplexMatrix":
        return cls(np.array(rows, dtype=complex))

    @classmethod
    def identity(cls, n: int) -> "ComplexMatrix":
        return cls(np.eye(n, dtype=complex))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ComplexMatrix":
        return cls(np.zeros((rows, cols), dtype=complex))

    @classmethod
    def diagonal(cls, values) -> "ComplexMatrix":
        return cls(np.diag(np.asarray(values, dtype=complex)))

    def __getitem__(self, idx) -> complex:
        return complex(self.data[idx])

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.data)))


def matmul(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    """Standard complex matrix product A @ B."""
    if a.cols != b.rows:
        raise DimensionMismatchError(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}"
        )
    return ComplexMatrix(a.data @ b.data)


def adjoint(a: ComplexMatrix) -> ComplexMatrix:
    """Hermitian adjoint (conjugate transpose)."""
    return ComplexMatrix(a.data.conj().T)


def _lu_factor_array(a: np.ndarray, singular_rtol: float | None = None):
    """LU with partial pivoting on a working copy.

    Returns (lu, perm, n_swaps): `lu` holds U on and above the diagonal and
    the multipliers of L strictly below, `perm` the row permutation applied.
    When `singular_rtol` is given, raises SingularMatrixError as soon as a
    pivot falls below singular_rtol * max|a|.
    """
    lu = np.array(a, dtype=complex)
    n = lu.shape[0]
    perm = np.arange(n)
    n_swaps = 0
    scale = float(np.max(np.abs(lu))) if lu.size else 0.0
    threshold = None if singular_rtol is None else singular_rtol * scale
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        piv = abs(lu[p, k])
        if threshold is not None and (piv < threshold or piv == 0.0):
            raise SingularMatrixError(k, piv, scale)
        if p != k:
            lu[[k, p], :] = lu[[p, k], :]
            perm[[k, p]] = perm[[p, k]]
            n_swaps += 1
        if k < n - 1 and lu[k, k] != 0.0:
            lu[k + 1:, k] /= lu[k, k]
            lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu, perm, n_swaps


def _lu_solve_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    lu, perm, _ = _lu_factor_array(a, singular_rtol=SINGULAR_PIVOT_RTOL)
    n = lu.shape[0]
    x = np.array(b[perm], dtype=complex)
    if x.ndim == 1:
        x = x[:, None]
        squeeze = True
    else:
        squeeze = False
    for k in range(1, n):          # forward substitution, unit lower triangle
        x[k] -= lu[k, :k] @ x[:k]
    for k in range(n - 1, -1, -1):  # back substitution
        if k < n - 1:
            x[k] -= lu[k, k + 1:] @ x[k + 1:]
        x[k] /= lu[k, k]
    return x[:, 0] if squeeze else x


def lu_factor(a: ComplexMatrix) -> tuple[np.ndarray, np.ndarray, int]:
    """Partial-pivoting LU of a square matrix; never raises on singularity."""
    if a.rows != a.cols:
        raise DimensionMismatchError(f"LU requires a square matrix, got {a.rows}x{a.cols}")
    return _lu_factor_array(a.data)


def pivot_magnitudes(a: ComplexMatrix) -> np.ndarray:
    """|U_kk| in elimination order; a numerical-rank probe for tiny matrices."""
    lu, _, _ = lu_factor(a)
    return np.abs(np.diag(lu))


def lu_solve(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    """Solve A X = B via LU with partial pivoting.

    Raises SingularMatrixError (with the offending pivot index) when a pivot
    falls below SINGULAR_PIVOT_RTOL * max|A|.
    """
    if a.rows != a.cols:
        raise DimensionMismatchError(f"solve requires a square A, got {a.rows}x{a.cols}")
    if b.rows != a.rows:
        raise DimensionMismatchError(
            f"B has {b.rows} rows, expected {a.rows}"
        )
    return ComplexMatrix(_lu_solve_array(a.data, b.data))


def det(a: ComplexMatrix) -> complex:
    """Determinant as the signed product of LU pivots."""
    lu, _, n_swaps = lu_factor(a)
    d = complex(np.prod(np.diag(lu)))
    return -d if n_swaps % 2 else d
