"""Residual reporting and sampling-grid descriptions shared by the checks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Most points of a float64 axis numpy can address: more bytes than
# np.intp holds make np.linspace fail with an IndexError, not a ValueError.
MAX_AXIS_POINTS = np.iinfo(np.intp).max // 8


def check_axis(name: str, count: int) -> None:
    """Refuse, with a ValueError, an axis of more points than a float64 array can hold."""
    if count > MAX_AXIS_POINTS:
        raise ValueError(f"{name} = {count} exceeds {MAX_AXIS_POINTS}, the most points of a float64 array")


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular (x, t) sampling grid."""

    x_min: float
    x_max: float
    nx: int
    t_min: float
    t_max: float
    nt: int

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError(f"x_min must be < x_max, got [{self.x_min}, {self.x_max}]")
        if not math.isfinite(self.x_max - self.x_min) or not math.isfinite(self.t_max - self.t_min):
            raise ValueError("x_max - x_min and t_max - t_min must be finite")
        if self.nx < 2:
            raise ValueError(f"nx must be >= 2, got {self.nx}")
        check_axis("nx", self.nx)
        if self.t_min > self.t_max:
            raise ValueError(f"t_min must be <= t_max, got [{self.t_min}, {self.t_max}]")
        if self.nt < 1:
            raise ValueError(f"nt must be >= 1, got {self.nt}")
        check_axis("nt", self.nt)
        if self.nt > 1 and self.t_min == self.t_max:
            raise ValueError("nt > 1 requires t_min < t_max")

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def ts(self) -> np.ndarray:
        if self.nt == 1:
            return np.array([self.t_min])
        return np.linspace(self.t_min, self.t_max, self.nt)

    def describe(self) -> str:
        return (
            f"{self.nx}x{self.nt} grid on "
            f"[{self.x_min}, {self.x_max}] x [{self.t_min}, {self.t_max}]"
        )


@dataclass(frozen=True)
class ResidualReport:
    """Named residual summary: max-abs and rms over the sampled values."""

    name: str
    max_abs: float
    rms: float
    grid: str
    notes: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.rms < 0.0 or self.max_abs < 0.0:
            raise ValueError("residual norms must be nonnegative")
        if self.max_abs < self.rms * (1.0 - 1e-12):
            raise ValueError(f"max_abs {self.max_abs} < rms {self.rms}")

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "max_abs": self.max_abs,
            "rms": self.rms,
            "grid": self.grid,
            "notes": list(self.notes),
        }


def summarize(name: str, values, grid: str, notes=(), floor: float = 0.0) -> ResidualReport:
    """Build a report from a flat collection of residual magnitudes; its
    max_abs is at least `floor`, a bound the values alone do not show."""
    arr = np.abs(np.asarray(values, dtype=complex)).ravel()
    if arr.size == 0:
        return ResidualReport(name, floor, 0.0, grid, tuple(notes))
    max_abs = max(float(np.max(arr)), floor)
    rms = float(np.sqrt(np.mean(arr ** 2)))
    return ResidualReport(name, max_abs, min(rms, max_abs), grid, tuple(notes))
