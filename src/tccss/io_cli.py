"""Configuration parsing, grid export, figure reproduction, verification.

The JSON configuration schema (complex numbers are [re, im] pairs):

    {
      "spectrum": {
        "family": "TypeI" | "TypeII",
        "zeros":  [[re, im], ...],
        "seeds":  [{"alpha": [re, im], "gamma": ..., "rho": ...}, ...]
                  (TypeI seeds additionally carry "beta", "mu", "delta")
      },
      "grid":     {"x_min", "x_max", "nx", "t_min", "t_max", "nt"},
      "stencil":  {"hx", "ht", "order"},
      "checks":   ["pde", "cnls", "zero_curvature", "rh_symmetry", "scattering"],
      "output":   {"path": "fields.csv", "format": "csv" | "json"},
      "thresholds": {"pde": 1e-4, ...},
      "scattering": {"x_min", "x_max", "n_steps", "t"}
    }

Everything except "spectrum" is optional and falls back to the documented
defaults below.  Field grids are written t-major (outer loop t, inner x)
with 17 significant digits, byte-identical for identical configs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import lax, rhp, scattering, soliton
from .report import GridSpec, ResidualReport, summarize
from .soliton import (
    Family,
    SpectrumConfig,
    SpectrumError,
    TypeISeed,
    TypeIISeed,
    breather_spectrum,
    eval_fields_array,
    make_evaluator,
)

CSV_HEADER = "x,t,re_u1,im_u1,re_u2,im_u2,re_u3,im_u3,abs_u1,abs_u2,abs_u3"
_CSV_ROW = ",".join(["%.17g"] * len(CSV_HEADER.split(",")))

CHECK_NAMES = ("pde", "cnls", "zero_curvature", "rh_symmetry", "scattering")

# Pass thresholds on each check's max-abs residual; derived from the
# truncation budgets of the order-4, h = 1e-3 defaults (see README).
DEFAULT_THRESHOLDS = {
    "pde": 1e-4,
    "cnls": 1e-4,
    "zero_curvature": 1e-6,
    "rh_symmetry": 1e-10,
    "scattering": 1e-5,
}

# Checks run on a coarsened copy of the export grid to stay desk-scale.
VERIFY_GRID_CAP = (41, 11)


class ConfigError(ValueError):
    """Malformed or invalid run configuration; message carries the JSON path."""


@dataclass(frozen=True)
class OutputSpec:
    path: str = "fields.csv"
    format: str = "csv"

    def __post_init__(self):
        if self.format not in ("csv", "json"):
            raise ConfigError(f"output.format must be 'csv' or 'json', got {self.format!r}")


@dataclass(frozen=True)
class ScatteringSpec:
    x_min: float = scattering.DEFAULT_X_MIN
    x_max: float = scattering.DEFAULT_X_MAX
    n_steps: int = scattering.DEFAULT_N_STEPS
    t: float = 0.0


@dataclass(frozen=True)
class RunConfig:
    spectrum: SpectrumConfig
    grid: GridSpec = GridSpec(-10.0, 10.0, 201, -2.0, 2.0, 41)
    stencil: lax.StencilSpec = lax.StencilSpec()
    checks: tuple[str, ...] = ()
    output: OutputSpec = OutputSpec()
    thresholds: dict = field(default_factory=dict)
    scattering: ScatteringSpec = ScatteringSpec()

    def __post_init__(self):
        for c in self.checks:
            if c not in CHECK_NAMES:
                raise ConfigError(
                    f"unknown check {c!r}; supported: {', '.join(CHECK_NAMES)}"
                )
        if "scattering" in self.checks and self.spectrum.family is Family.TYPE_I:
            raise ConfigError(
                "the scattering round-trip check supports TypeII spectra only"
            )
        for k, v in self.thresholds.items():
            if k not in CHECK_NAMES:
                raise ConfigError(f"thresholds.{k}: unknown check name")
            if not (math.isfinite(v) and v > 0.0):
                raise ConfigError(f"thresholds.{k}: expected a finite number > 0, got {v!r}")

    def threshold(self, check: str) -> float:
        return float(self.thresholds.get(check, DEFAULT_THRESHOLDS[check]))


# -- JSON helpers ------------------------------------------------------------

def _expect(obj, key, path, kind=None, required=True, default=None):
    if key not in obj:
        if required:
            raise ConfigError(f"missing required field {path}.{key}")
        return default
    val = obj[key]
    if kind is not None and not isinstance(val, kind):
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}, got {type(val).__name__}")
    return val


def _as_complex(val, path) -> complex:
    if (
        not isinstance(val, (list, tuple))
        or len(val) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in val)
    ):
        raise ConfigError(f"{path}: complex values are [re, im] number pairs")
    return complex(float(val[0]), float(val[1]))


def _as_number(val, path) -> float:
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise ConfigError(f"{path}: expected a number")
    return float(val)


def _as_int(val, path) -> int:
    if not isinstance(val, int) or isinstance(val, bool):
        raise ConfigError(f"{path}: expected an integer")
    return val


def _parse_seed(obj, family: Family, path):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: seed must be an object")
    if family is Family.TYPE_II:
        keys = ("alpha", "gamma", "rho")
        vals = {k: _as_complex(_expect(obj, k, path), f"{path}.{k}") for k in keys}
        extra = set(obj) - set(keys)
        if extra:
            raise ConfigError(f"{path}: unexpected seed fields {sorted(extra)} for TypeII")
        return TypeIISeed(**vals)
    keys = ("alpha", "beta", "gamma", "mu", "rho", "delta")
    vals = {k: _as_complex(_expect(obj, k, path), f"{path}.{k}") for k in keys}
    extra = set(obj) - set(keys)
    if extra:
        raise ConfigError(f"{path}: unexpected seed fields {sorted(extra)} for TypeI")
    return TypeISeed(**vals)


def _parse_spectrum(obj, path="spectrum") -> SpectrumConfig:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    fam_raw = _expect(obj, "family", path, kind=str)
    try:
        family = Family(fam_raw)
    except ValueError:
        raise ConfigError(f"{path}.family: expected 'TypeI' or 'TypeII', got {fam_raw!r}")
    zeros_raw = _expect(obj, "zeros", path, kind=list)
    seeds_raw = _expect(obj, "seeds", path, kind=list)
    zeros = tuple(
        _as_complex(z, f"{path}.zeros[{j}]") for j, z in enumerate(zeros_raw)
    )
    seeds = tuple(
        _parse_seed(s, family, f"{path}.seeds[{j}]") for j, s in enumerate(seeds_raw)
    )
    try:
        return SpectrumConfig(family, zeros, seeds)
    except SpectrumError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a JSON run configuration."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected a JSON object")

    spectrum = _parse_spectrum(_expect(doc, "spectrum", "$"))

    defaults = RunConfig(spectrum)
    grid = defaults.grid
    if "grid" in doc:
        g = doc["grid"]
        if not isinstance(g, dict):
            raise ConfigError("grid: expected an object")
        try:
            grid = GridSpec(
                _as_number(_expect(g, "x_min", "grid"), "grid.x_min"),
                _as_number(_expect(g, "x_max", "grid"), "grid.x_max"),
                _as_int(_expect(g, "nx", "grid"), "grid.nx"),
                _as_number(_expect(g, "t_min", "grid"), "grid.t_min"),
                _as_number(_expect(g, "t_max", "grid"), "grid.t_max"),
                _as_int(_expect(g, "nt", "grid"), "grid.nt"),
            )
        except ValueError as exc:
            raise ConfigError(f"grid: {exc}") from exc

    stencil = defaults.stencil
    if "stencil" in doc:
        s = doc["stencil"]
        if not isinstance(s, dict):
            raise ConfigError("stencil: expected an object")
        try:
            stencil = lax.StencilSpec(
                hx=_as_number(_expect(s, "hx", "stencil", required=False, default=stencil.hx), "stencil.hx"),
                ht=_as_number(_expect(s, "ht", "stencil", required=False, default=stencil.ht), "stencil.ht"),
                order=_as_int(_expect(s, "order", "stencil", required=False, default=stencil.order), "stencil.order"),
            )
        except ValueError as exc:
            raise ConfigError(f"stencil: {exc}") from exc

    checks: tuple[str, ...] = ()
    if "checks" in doc:
        raw = doc["checks"]
        if not isinstance(raw, list) or not all(isinstance(c, str) for c in raw):
            raise ConfigError("checks: expected a list of check names")
        checks = tuple(raw)

    output = defaults.output
    if "output" in doc:
        o = doc["output"]
        if not isinstance(o, dict):
            raise ConfigError("output: expected an object")
        output = OutputSpec(
            path=str(_expect(o, "path", "output", required=False, default=output.path)),
            format=str(_expect(o, "format", "output", required=False, default=output.format)),
        )

    thresholds: dict = {}
    if "thresholds" in doc:
        th = doc["thresholds"]
        if not isinstance(th, dict):
            raise ConfigError("thresholds: expected an object")
        thresholds = {
            str(k): _as_number(v, f"thresholds.{k}") for k, v in th.items()
        }

    scat = defaults.scattering
    if "scattering" in doc:
        sc = doc["scattering"]
        if not isinstance(sc, dict):
            raise ConfigError("scattering: expected an object")
        scat = ScatteringSpec(
            x_min=_as_number(_expect(sc, "x_min", "scattering", required=False, default=scat.x_min), "scattering.x_min"),
            x_max=_as_number(_expect(sc, "x_max", "scattering", required=False, default=scat.x_max), "scattering.x_max"),
            n_steps=_as_int(_expect(sc, "n_steps", "scattering", required=False, default=scat.n_steps), "scattering.n_steps"),
            t=_as_number(_expect(sc, "t", "scattering", required=False, default=scat.t), "scattering.t"),
        )

    return RunConfig(spectrum, grid, stencil, checks, output, thresholds, scat)


def parse_config_file(path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _seed_to_json(seed) -> dict:
    if isinstance(seed, TypeIISeed):
        return {
            "alpha": _complex_pair(seed.alpha),
            "gamma": _complex_pair(seed.gamma),
            "rho": _complex_pair(seed.rho),
        }
    return {
        "alpha": _complex_pair(seed.alpha),
        "beta": _complex_pair(seed.beta),
        "gamma": _complex_pair(seed.gamma),
        "mu": _complex_pair(seed.mu),
        "rho": _complex_pair(seed.rho),
        "delta": _complex_pair(seed.delta),
    }


def config_to_json(cfg: RunConfig) -> dict:
    return {
        "spectrum": {
            "family": cfg.spectrum.family.value,
            "zeros": [_complex_pair(z) for z in cfg.spectrum.zeros],
            "seeds": [_seed_to_json(s) for s in cfg.spectrum.seeds],
        },
        "grid": {
            "x_min": cfg.grid.x_min,
            "x_max": cfg.grid.x_max,
            "nx": cfg.grid.nx,
            "t_min": cfg.grid.t_min,
            "t_max": cfg.grid.t_max,
            "nt": cfg.grid.nt,
        },
        "stencil": {"hx": cfg.stencil.hx, "ht": cfg.stencil.ht, "order": cfg.stencil.order},
        "checks": list(cfg.checks),
        "output": {"path": cfg.output.path, "format": cfg.output.format},
        "thresholds": dict(cfg.thresholds),
        "scattering": {
            "x_min": cfg.scattering.x_min,
            "x_max": cfg.scattering.x_max,
            "n_steps": cfg.scattering.n_steps,
            "t": cfg.scattering.t,
        },
    }


def serialize_config(cfg: RunConfig) -> str:
    """Inverse of parse_config: parse(serialize(cfg)) == cfg."""
    return json.dumps(config_to_json(cfg), indent=2, sort_keys=True) + "\n"


# -- grid evaluation and export ----------------------------------------------

def _fmt(v: float) -> str:
    return f"{v:.17g}"


def evaluate_grid(cfg: RunConfig) -> list[list[float]]:
    """Field rows in t-major order, one batched evaluation per t-row."""
    xs = cfg.grid.xs()
    rows: list[list[float]] = []
    for t in cfg.grid.ts():
        u = eval_fields_array(cfg.spectrum, xs, t)
        block = np.empty((xs.size, 11))
        block[:, 0] = xs
        block[:, 1] = t
        block[:, 2:8:2] = u.real
        block[:, 3:8:2] = u.imag
        # np.hypot rounds as Python's abs(complex) does; np.abs may not
        block[:, 8:] = np.hypot(u.real, u.imag)
        rows.extend(block.tolist())
    return rows


def render_rows_csv(rows: list[list[float]]) -> str:
    """CSV text; each float printed as `_fmt` prints it."""
    lines = [CSV_HEADER]
    lines.extend(_CSV_ROW % tuple(row) for row in rows)
    return "\n".join(lines) + "\n"


def render_rows_json(rows: list[list[float]]) -> str:
    doc = {"columns": CSV_HEADER.split(","), "rows": rows}
    return json.dumps(doc, indent=None, separators=(",", ":"), sort_keys=True) + "\n"


def export_grid(cfg: RunConfig, out_path=None) -> Path:
    """Write the sampled field grid; deterministic bytes for identical configs."""
    path = Path(out_path) if out_path is not None else Path(cfg.output.path)
    rows = evaluate_grid(cfg)
    text = render_rows_csv(rows) if cfg.output.format == "csv" else render_rows_json(rows)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    return path


# -- verification orchestration ----------------------------------------------

class VerifyError(Exception):
    """A verification check failed to execute; carries the check name."""

    def __init__(self, check: str, cause: Exception):
        self.check = check
        super().__init__(f"check {check!r} failed: {cause}")


@dataclass(frozen=True)
class CheckOutcome:
    report: ResidualReport
    threshold: float
    passed: bool

    def as_dict(self) -> dict:
        d = self.report.as_dict()
        d["threshold"] = self.threshold
        d["passed"] = self.passed
        return d


@dataclass(frozen=True)
class VerificationOutcome:
    checks: tuple[CheckOutcome, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {"passed": self.passed, "checks": [c.as_dict() for c in self.checks]}


def _coarsen(grid: GridSpec, cap=VERIFY_GRID_CAP) -> GridSpec:
    nx = min(grid.nx, cap[0])
    nt = min(grid.nt, cap[1])
    return GridSpec(grid.x_min, grid.x_max, nx, grid.t_min, grid.t_max, nt)


def _zero_curvature_report(cfg: RunConfig) -> ResidualReport:
    rng = np.random.default_rng(0)
    f = make_evaluator(cfg.spectrum)
    g = cfg.grid
    st = cfg.stencil
    if cfg.spectrum.family is Family.TYPE_I:
        # mirrored-pair evaluation carries more roundoff, which the nested
        # stencils amplify by 1/h^3; widen the probe step to at least 4e-3
        st = lax.StencilSpec(hx=max(st.hx, 4e-3), ht=max(st.ht, 4e-3), order=st.order)
    lams = [0.3 + 0.0j, 1.1 + 0.4j, -2.0 + 0.1j]
    lams += [complex(rng.uniform(-2, 2), rng.uniform(0, 0.5)) for _ in range(2)]
    values = []
    notes = [f"probe stencil: hx = ht = {st.hx}, order {st.order}"]
    for lam in lams:
        x = float(rng.uniform(g.x_min, g.x_max) * 0.8)
        t = float(rng.uniform(g.t_min, g.t_max) * 0.8)
        r = lax.zero_curvature_residual(f, lam, x, t, st)
        values.append(r)
        notes.append(f"lambda = {lam:.3g}, (x, t) = ({x:.3g}, {t:.3g}): {r:.3e}")
    return summarize("zero_curvature", values, "5 probe points (seeded rng)", notes)


def _rh_lambda_samples(spectrum: SpectrumConfig) -> list[complex]:
    samples = [complex(v) for v in np.linspace(-3.0, 3.0, 20)]
    probe = 0.7 + 1.3j
    poles = np.concatenate(
        [spectrum.expanded_zeros(), np.conj(spectrum.expanded_zeros())]
    )
    # nudge the off-axis probe clear of any pole mirror
    while np.min(np.abs(poles - probe)) < 1e-3 or np.min(np.abs(poles + np.conj(probe))) < 1e-3:
        probe += 0.1 + 0.05j
    samples.append(probe)
    return samples


def _rh_symmetry_report(cfg: RunConfig) -> ResidualReport:
    samples = _rh_lambda_samples(cfg.spectrum)
    worst: dict[str, float] = {}
    for (x, t) in ((0.0, 0.0), (0.7, 0.3)):
        res = rhp.symmetry_residuals(cfg.spectrum, x, t, samples)
        for k, v in res.items():
            worst[k] = max(worst.get(k, 0.0), v)
    notes = tuple(f"{k}: {v:.3e}" for k, v in worst.items())
    return summarize(
        "rh_symmetry",
        list(worst.values()),
        grid=f"(x, t) in ((0, 0), (0.7, 0.3)), {len(samples)} lambda samples",
        notes=notes,
    )


def _scattering_report(cfg: RunConfig) -> ResidualReport:
    sc = cfg.scattering
    f = make_evaluator(cfg.spectrum)
    table = scattering.sample_potential(f, sc.t, sc.x_min, sc.x_max, sc.n_steps)
    half = None if sc.n_steps % 2 else scattering.halved(table)
    values = []
    notes = []
    for j, z in enumerate(cfg.spectrum.zeros):
        trace = []
        found = scattering.locate_zero_from_table(table, z + 0.05j, trace=trace)
        err = abs(found - z)
        values.append(err)
        notes.append(f"zero {j + 1}: constructed {z:.6g}, recovered {found:.6g}, |diff| = {err:.3e}")
        omega77 = trace[-1][1]
        notes.append(f"secant for zero {j + 1}: {len(trace)} evaluations, final |Omega77| = {abs(omega77):.3e}")
        if half is not None:
            gap = abs(omega77 - scattering.omega77_from_table(half, found))
            notes.append(f"RK4 step-halving at zero {j + 1}: |Omega77_n - Omega77_n/2| = {gap:.3e}")
    if half is None:
        notes.append(f"RK4 step-halving estimate skipped: n_steps = {sc.n_steps} is odd")
    row = scattering.coupling_row_sweep(table, np.array([0.3, 1.0, 2.0]))
    reflection = float(np.max(np.abs(row[:, :6])))
    values.append(reflection)
    notes.append(f"max reflection entry over real lambda in (0.3, 1, 2): {reflection:.3e}")
    drift = scattering.det_drift_from_table(table, 1.0, stride=max(1, sc.n_steps // 100))
    notes.append(f"max |det - 1| along path at lambda = 1: {drift:.3e}")
    return summarize(
        "scattering",
        values,
        grid=f"[{sc.x_min}, {sc.x_max}] x {sc.n_steps} steps, t = {sc.t}",
        notes=notes,
    )


def run_checks(cfg: RunConfig) -> VerificationOutcome:
    """Run every configured check; success means all max-abs below threshold."""
    f = make_evaluator(cfg.spectrum)
    outcomes = []
    for name in cfg.checks:
        try:
            if name == "pde":
                report = lax.pde_residual_tccss(f, _coarsen(cfg.grid), cfg.stencil)
            elif name == "cnls":
                report = lax.gauge_transform_and_cnls_residual(
                    f, _coarsen(cfg.grid), cfg.stencil
                )
            elif name == "zero_curvature":
                report = _zero_curvature_report(cfg)
            elif name == "rh_symmetry":
                report = _rh_symmetry_report(cfg)
            else:
                report = _scattering_report(cfg)
        except Exception as exc:
            raise VerifyError(name, exc) from exc
        threshold = cfg.threshold(name)
        outcomes.append(CheckOutcome(report, threshold, report.max_abs < threshold))
    return VerificationOutcome(tuple(outcomes))


run_verify = run_checks


# -- figure reproduction -----------------------------------------------------

_SQRT3 = float(np.sqrt(3.0))
_SQRT2 = float(np.sqrt(2.0))


def figure_spectrum(fig_id: int) -> SpectrumConfig:
    """Embedded demonstration parameter sets (figures 1-4)."""
    if fig_id == 1:
        return breather_spectrum(
            1j / _SQRT3, _SQRT2 * 1j / _SQRT3, _SQRT2 * 1j / _SQRT3, 0.5 + 0.5j
        )
    if fig_id == 2:
        # delta seeds are not pinned by the parameter set; 0 is the neutral
        # choice consistent with the other vanishing second-seed entries.
        return SpectrumConfig(
            Family.TYPE_I,
            (0.5 + 0.5j, 0.4 + 0.6j),
            (
                TypeISeed(1, 1, 1, 1, 1, 0),
                TypeISeed(1, 0, 2, 0, 0, 0),
            ),
        )
    if fig_id == 3:
        return soliton.one_soliton_spectrum(1.0, 2.0, 3.0, 1.0)
    if fig_id == 4:
        return SpectrumConfig(
            Family.TYPE_II,
            (0.3j, 0.5j),
            (
                TypeIISeed(1.0, 1.0 + 1.0j, 1.0 + 1.0j),
                TypeIISeed(1j, 0.5j, 1j),
            ),
        )
    raise ValueError(f"figure id must be in 1..4, got {fig_id}")


_FIGURE_GRIDS = {
    1: GridSpec(-6.0, 6.0, 161, -3.0, 3.0, 61),
    2: GridSpec(-10.0, 10.0, 201, -3.0, 3.0, 61),
    # 0.01 x-spacing keeps the sampled soliton crest within 1e-4 of the
    # true peak amplitude (the crest sits between nodes of a 0.1 grid)
    3: GridSpec(-10.0, 10.0, 2001, -2.0, 2.0, 41),
    4: GridSpec(-20.0, 20.0, 201, -10.0, 10.0, 41),
}

_FIGURE_NOTES = {
    1: ("breather: one mirrored zero pair with conjugate-paired seeds",),
    2: ("two-soliton collision (TypeI, N = 2); delta seeds defaulted to 0",),
    3: ("bell soliton (TypeII, N = 1); only the positive-eta branch is emitted",),
    4: ("two-bell soliton (TypeII, N = 2)",),
}


def figure_config(fig_id: int) -> RunConfig:
    spectrum = figure_spectrum(fig_id)
    return RunConfig(
        spectrum,
        grid=_FIGURE_GRIDS[fig_id],
        checks=("pde",),
        output=OutputSpec(path=f"figure{fig_id}.csv", format="csv"),
    )


def run_figure(fig_id: int, out_dir) -> list[Path]:
    """Write the field grid CSV and a JSON sidecar for one bundled figure.

    The sidecar records the exact parameters and the PDE residual report of
    the emitted field.
    """
    if fig_id not in (1, 2, 3, 4):
        raise ValueError(f"figure id must be in 1..4, got {fig_id}")
    cfg = figure_config(fig_id)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = export_grid(cfg, out_dir / f"figure{fig_id}.csv")
    outcome = run_checks(cfg)
    sidecar = {
        "figure": fig_id,
        "parameters": config_to_json(cfg)["spectrum"],
        "grid": config_to_json(cfg)["grid"],
        "pde_check": outcome.checks[0].as_dict(),
        "notes": list(_FIGURE_NOTES[fig_id]),
    }
    json_path = out_dir / f"figure{fig_id}.json"
    try:
        with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {json_path}: {exc}") from exc
    return [csv_path, json_path]


def run_lambda_sweep(cfg: RunConfig, lam_start: float, lam_stop: float, count: int, out_path) -> Path:
    """Sweep real lambda, writing |Omega77| and the coupling-entry magnitudes."""
    if count < 1:
        raise ConfigError(f"sweep needs at least one sample, got {count}")
    sc = cfg.scattering
    f = make_evaluator(cfg.spectrum)
    table = scattering.sample_potential(f, sc.t, sc.x_min, sc.x_max, sc.n_steps)
    lams = np.linspace(lam_start, lam_stop, count)
    rows = scattering.coupling_row_sweep(table, lams)
    header = "lambda,abs_omega77," + ",".join(f"abs_omega{k}7" for k in range(1, 7))
    lines = [header]
    for lam, row in zip(lams, rows):
        entries = [lam, abs(row[6])] + [abs(row[k]) for k in range(6)]
        lines.append(",".join(_fmt(float(v)) for v in entries))
    path = Path(out_path)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    return path
