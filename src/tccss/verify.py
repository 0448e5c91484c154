"""The verification checks, and `run_checks`, which runs those a config names.

`CHECKS` is the one table of check names, each with its function and default
threshold.  A check is a function `(cfg, inputs) -> ResidualReport`; `inputs`
holds what more than one check of a run reads, built on first use: the
coarsened grid with the jet table of `pde`, `cnls` and `zero_curvature`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from . import lax, rhp, scattering
from .report import GridSpec, ResidualReport, summarize
from .soliton import eval_fields_array, eval_jets_array

# Checks run on a coarsened copy of the export grid to stay desk-scale.
VERIFY_GRID_CAP = (41, 11)


class VerifyError(Exception):
    """A verification check failed to execute; carries the check name."""

    def __init__(self, check: str, cause: Exception):
        self.check = check
        super().__init__(f"check {check!r} failed: {cause}")


@dataclass(frozen=True)
class CheckOutcome:
    report: ResidualReport
    threshold: float

    @property
    def passed(self) -> bool:
        return self.report.max_abs < self.threshold

    def as_dict(self) -> dict:
        return {**self.report.as_dict(), "threshold": self.threshold, "passed": self.passed}


@dataclass(frozen=True)
class VerificationOutcome:
    checks: tuple[CheckOutcome, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {"passed": self.passed, "checks": [c.as_dict() for c in self.checks]}


def _coarsen(grid: GridSpec, cap=VERIFY_GRID_CAP) -> GridSpec:
    return replace(grid, nx=min(grid.nx, cap[0]), nt=min(grid.nt, cap[1]))


def _zero_curvature_probes(grid: GridSpec) -> list[tuple[complex, float, float]]:
    """Five seeded (lambda, x, t) probes inside 0.8 times the grid."""
    rng = np.random.default_rng(0)
    lams = [0.3 + 0.0j, 1.1 + 0.4j, -2.0 + 0.1j]
    lams += [complex(rng.uniform(-2, 2), rng.uniform(0, 0.5)) for _ in range(2)]
    return [
        (lam, float(rng.uniform(grid.x_min, grid.x_max) * 0.8),
         float(rng.uniform(grid.t_min, grid.t_max) * 0.8))
        for lam in lams
    ]


def potential_table(cfg) -> scattering.PotentialTable:
    """The field of `cfg` sampled on its scattering domain at its time."""
    sc = cfg.scattering
    return scattering.sample_potential(partial(eval_fields_array, cfg.spectrum), sc.t, sc.x_min, sc.x_max, sc.n_steps)


class _Inputs:
    """What more than one check of a run reads, built once, on first use."""

    def __init__(self, cfg):
        self.cfg = cfg

    @cached_property
    def jets(self):
        """The coarsened grid, then the points x, t, jets (5, P, 3), cross-check
        discrepancies and probe lambdas of the jet table: the grid's points
        first, then the zero-curvature probes."""
        cfg, grid = self.cfg, _coarsen(self.cfg.grid)
        gx, gt = np.meshgrid(grid.xs(), grid.ts())
        lams, px, pt = zip(*_zero_curvature_probes(cfg.grid))
        x = np.concatenate([gx.ravel(), px])
        t = np.concatenate([gt.ravel(), pt])
        jets, discrepancy = lax.jet_table(
            partial(eval_fields_array, cfg.spectrum), partial(eval_jets_array, cfg.spectrum),
            x, t, cfg.stencil,
        )
        return grid, x, t, jets, discrepancy, lams


# The sampled order whose central difference cross-checks each jet order.
_SAMPLED = {"x1": "u", "x2": "u_x", "x3": "u_xx", "t1": "u"}


def _jet_summary(inputs, orders, name, where, residual, notes=()) -> ResidualReport:
    """A jet-route report: max_abs is at least the cross-check discrepancy of
    each jet order in `orders`, noted after the table and before `notes`."""
    grid, x, _, _, discrepancy, _ = inputs.jets
    n, st = grid.nx * grid.nt, inputs.cfg.stencil
    head = [f"jet table: {x.size} points ({grid.nx}x{grid.nt} grid and {x.size - n} zero-curvature probes)"]
    for o in orders:
        head.append(
            f"cross-check {o}: {discrepancy[o]:.3e} against the order-{st.order} central "
            f"first difference of {_SAMPLED[o]} in {o[0]}, h = {st.hx if o[0] == 'x' else st.ht}"
        )
    return summarize(name, residual, where, head + list(notes), floor=max(discrepancy[o] for o in orders))


def check_pde(cfg, inputs) -> ResidualReport:
    grid, _, _, jets, _, _ = inputs.jets
    residual = lax.pde_residual_tccss(jets[:, :grid.nx * grid.nt])
    return _jet_summary(inputs, ("x1", "x3", "t1"), "pde_tccss", grid.describe(), residual)


def check_cnls(cfg, inputs) -> ResidualReport:
    grid, x, t, jets, _, _ = inputs.jets
    n = grid.nx * grid.nt
    residual = lax.gauge_transform_and_cnls_residual(jets[:, :n], x[:n], t[:n])
    where = f"{grid.describe()}, read at (X, T) = (x + t/12, t)"
    return _jet_summary(inputs, tuple(_SAMPLED), "cnls_gauge", where, residual)


def check_zero_curvature(cfg, inputs) -> ResidualReport:
    grid, x, t, jets, _, lams = inputs.jets
    n = grid.nx * grid.nt
    crest = int(np.argmax(np.sum(np.abs(jets[0, :n]) ** 2, axis=1)))
    residual, notes = [], []
    for i, lam in enumerate(lams):
        points = [n + i, crest]
        values = lax.zero_curvature_residual(lam, jets[:, points])
        residual.extend(values)
        for kind, p, r in zip(("probe", "crest"), points, values):
            notes.append(f"lambda = {lam:.3g}, {kind} (x, t) = ({x[p]:.3g}, {t[p]:.3g}): {r:.3e}")
    where = "5 probe points (seeded rng) and the grid crest"
    return _jet_summary(inputs, tuple(_SAMPLED), "zero_curvature", where, residual, notes)


def check_rh_symmetry(cfg, inputs) -> ResidualReport:
    """The RH identities at (0, 0) and (0.7, 0.3), at 20 real lambda and an off-axis probe."""
    samples = [complex(v) for v in np.linspace(-3.0, 3.0, 20)]
    probe = 0.7 + 1.3j
    zeros = cfg.spectrum.expanded_zeros()
    poles = np.concatenate([zeros, np.conj(zeros)])
    # nudge the off-axis probe clear of any pole mirror
    while (np.min(np.abs(poles - probe), initial=np.inf) < 1e-3
           or np.min(np.abs(poles + np.conj(probe)), initial=np.inf) < 1e-3):
        probe += 0.1 + 0.05j
    return rhp.check_symmetries(cfg.spectrum, ((0.0, 0.0), (0.7, 0.3)), samples + [probe])


def check_scattering(cfg, inputs) -> ResidualReport:
    """Omega77 of the sampled field against the Blaschke product
    B = prod_j (lam - z_j) / (lam - conj z_j) of the expanded zeros, which it
    equals for a reflectionless potential: |Omega77 - B| at 9 real and 3
    complex lambda, |Omega77(z) / B'(z)| (a Newton step to the zero of
    Omega77 near z) at each zero z, the largest real-axis reflection, and
    the trace identity int sum_m |u_m|^2 dx = 2 sum_j Im z_j on the table."""
    sc, z = cfg.scattering, cfg.spectrum.expanded_zeros()
    table = potential_table(cfg)
    real, off = np.linspace(-2.0, 2.0, 9), np.array([0.3 + 0.4j, -1.0 + 0.8j, 1.5 + 1.5j, *z])
    rows = scattering.coupling_row_sweep(table, real)
    omega77 = np.concatenate([rows[:, 6], scattering.omega77_from_table(table, off)])
    lam = np.concatenate([real, off])[:, None]
    ratio = (lam - z) / (lam - np.conj(z))
    # B'(z_k): the factor of B(z_k) that vanishes becomes 1 / (z_k - conj z_k)
    ratio[12 + np.arange(len(z)), np.arange(len(z))] = 1.0 / (z - np.conj(z))
    residual = np.abs(omega77[:12] - np.prod(ratio[:12], axis=1))
    newton = omega77[12:] / np.prod(ratio[12:], axis=1)
    reflection = float(np.max(np.abs(rows[:, :6])))
    n = len(cfg.spectrum.zeros)
    found = [f"{z[k]:.6g}, recovered {z[k] - newton[k]:.6g}, |diff| = {abs(newton[k]):.3e}" for k in range(len(z))]
    notes = [f"zero {j + 1}: constructed " + "; mirror ".join(found[j::n]) for j in range(n)]
    notes.append(f"max |Omega77 - B|: {residual[:9].max():.3e} over 9 real lambda in [-2, 2], "
                 f"{residual[9:].max():.3e} at lambda = 0.3+0.4j, -1+0.8j, 1.5+1.5j")
    notes.append(f"max reflection entry over the 9 real lambda: {reflection:.3e}")
    mass = float(np.trapezoid(np.sum(np.abs(table.u) ** 2, axis=1), dx=table.h / 2))
    want = 2.0 * float(np.sum(z.imag))
    notes.append(f"trace identity: int sum |u_m|^2 dx = {mass:.12g}, 2 sum Im z_j = {want:.12g}, "
                 f"|diff| = {abs(mass - want):.3e}")
    sv = ", ".join(f"{x:.3e}" for x in table.sv)
    notes.append(f"potential spans {table.d - 1} of 6 channel directions (singular values "
                 f"over the largest: {sv}); step products {table.d}x{table.d}")
    return summarize(
        "scattering",
        [*residual, *np.abs(newton), reflection, mass - want],
        grid=f"[{sc.x_min}, {sc.x_max}] x {sc.n_steps} steps, t = {sc.t}",
        notes=notes,
    )


# Every check by name, with its function and its pass threshold on the
# report's max_abs.  The jet-route checks (pde, cnls, zero_curvature) read at
# most 2.1e-7 on the benchmark configs at the order-4, h = 1e-3 stencil
# defaults, nearly all of it cross-check truncation (see README).
CHECKS = {
    "pde": (check_pde, 1e-4),
    "cnls": (check_cnls, 1e-4),
    "zero_curvature": (check_zero_curvature, 1e-6),
    "rh_symmetry": (check_rh_symmetry, 1e-10),
    "scattering": (check_scattering, 1e-5),
}


def run_checks(cfg) -> VerificationOutcome:
    """Run every configured check in order; success means every max_abs
    below its threshold.  No check configured is refused: it would pass."""
    if not cfg.checks:
        raise ValueError(f"checks: name at least one check to run; supported: {', '.join(CHECKS)}")
    inputs = _Inputs(cfg)
    outcomes = []
    for name in cfg.checks:
        try:
            report = CHECKS[name][0](cfg, inputs)
        except Exception as exc:
            raise VerifyError(name, exc) from exc
        outcomes.append(CheckOutcome(report, cfg.threshold(name)))
    return VerificationOutcome(tuple(outcomes))
