"""Configuration parsing, grid export, figure reproduction, the lambda sweep.

The JSON run configuration (complex numbers are [re, im] pairs):

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

Each object section is read from the fields of its frozen dataclass
(`_SECTIONS` and the seed classes), so one set of rules holds everywhere:

- a field is required exactly when its dataclass gives no default: every
  `spectrum`, seed and `grid` field is; `stencil`, `output` and
  `scattering` fall back per field, and every section but `spectrum` may
  be left out;
- a field's annotation picks its value check: `float` a finite JSON
  number, `int` a JSON integer that is not a boolean, `str` a string,
  `complex` an [re, im] pair of finite numbers;
- a key that names no field is refused, in every section (thresholds
  accept check names) and at the top level.

Field grids are written t-major (outer loop t, inner x), byte-identical
for identical configs: CSV prints each float as `'%.17g' % v` does (17
significant digits), and JSON as `json.dumps(v)` does (the shortest repr
that round-trips, `0.1`, `-10.0`).  Both go through `floatfmt` one block
of BLOCK_POINTS grid points at a time, so memory is bounded by the block;
a regular output file is replaced only when complete.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import stat
import uuid
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import floatfmt, lax, scattering, soliton
from .report import GridSpec, check_axis
from .soliton import (
    Family,
    SpectrumConfig,
    SpectrumError,
    TypeISeed,
    TypeIISeed,
    breather_spectrum,
    eval_fields_array,
)
from .verify import CHECKS, potential_table, run_checks

CSV_HEADER = "x,t,re_u1,im_u1,re_u2,im_u2,re_u3,im_u3,abs_u1,abs_u2,abs_u3"
# json.dumps({"columns": ..., "rows": rows}, separators=(",", ":"),
# sort_keys=True) up to the rows and after them
_JSON_HEAD = b'{"columns":%s,"rows":[' % json.dumps(CSV_HEADER.split(","), separators=(",", ":")).encode()
_JSON_TAIL = b"]}\n"


class ConfigError(ValueError):
    """Malformed or invalid run configuration; message carries the JSON path."""


@dataclass(frozen=True)
class OutputSpec:
    path: str = "fields.csv"
    format: str = "csv"

    def __post_init__(self):
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {self.format!r}")


@dataclass(frozen=True)
class ScatteringSpec:
    x_min: float = scattering.DEFAULT_X_MIN
    x_max: float = scattering.DEFAULT_X_MAX
    n_steps: int = scattering.DEFAULT_N_STEPS
    t: float = 0.0

    def __post_init__(self):
        scattering.check_domain(self.x_min, self.x_max, self.n_steps)


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
            if c not in CHECKS:
                raise ConfigError(f"unknown check {c!r}; supported: {', '.join(CHECKS)}")
        for k, v in self.thresholds.items():
            if k not in CHECKS:
                raise ConfigError(f"thresholds.{k}: unknown check name")
            if not (math.isfinite(v) and v > 0.0):
                raise ConfigError(f"thresholds.{k}: expected a finite number > 0, got {v!r}")

    def threshold(self, check: str) -> float:
        return float(self.thresholds.get(check, CHECKS[check][1]))


# The object sections of RunConfig, each read and written field by field.
_SECTIONS = {
    "grid": GridSpec,
    "stencil": lax.StencilSpec,
    "output": OutputSpec,
    "scattering": ScatteringSpec,
}


# -- JSON reading and writing ------------------------------------------------

def _got(val) -> str:
    return type(val).__name__ if isinstance(val, (list, dict)) else repr(val)


def _number(val, path, finite=True) -> float:
    if isinstance(val, (int, float)) and not isinstance(val, bool):
        try:
            x = float(val)
        except OverflowError:  # a JSON integer beyond the double range
            x = math.inf
        if math.isfinite(x) or not finite:
            return x
    raise ConfigError(f"{path}: expected a finite number, got {_got(val)}")


def _integer(val, path) -> int:
    if isinstance(val, int) and not isinstance(val, bool):
        return val
    raise ConfigError(f"{path}: expected an integer, got {_got(val)}")


def _string(val, path) -> str:
    if isinstance(val, str):
        return val
    raise ConfigError(f"{path}: expected a string, got {_got(val)}")


def _complex(val, path) -> complex:
    if not isinstance(val, list) or len(val) != 2:
        raise ConfigError(f"{path}: complex values are [re, im] number pairs")
    return complex(_number(val[0], f"{path}[0]"), _number(val[1], f"{path}[1]"))


# Value check per field annotation; every module annotates lazily
# (`from __future__ import annotations`), so annotations are strings.
_VALUE = {"float": _number, "int": _integer, "str": _string, "complex": _complex}


def _object(obj, names, required, path, noun) -> dict:
    """`obj` as a JSON object holding every `required` key and no key outside `names`."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    extra = sorted(set(obj) - set(names))
    if extra:
        raise ConfigError(f"{path}: unexpected {noun} fields {extra}")
    for name in required:
        if name not in obj:
            raise ConfigError(f"missing required field {path}.{name}")
    return obj


def _fields(cls):
    """Field names of dataclass `cls`, and those it gives no default."""
    fields = dataclasses.fields(cls)
    required = [f.name for f in fields if f.default is f.default_factory is dataclasses.MISSING]
    return [f.name for f in fields], required


def _read(obj, cls, path, noun=None):
    """Build dataclass `cls` from JSON object `obj`, one check per field."""
    _object(obj, *_fields(cls), path, noun or path)
    values = {
        f.name: _VALUE[f.type](obj[f.name], f"{path}.{f.name}")
        for f in dataclasses.fields(cls)
        if f.name in obj
    }
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _write(obj) -> dict:
    """Inverse of `_read`: the dataclass's fields as JSON values."""
    doc = {}
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        doc[f.name] = [float(v.real), float(v.imag)] if f.type == "complex" else v
    return doc


def _parse_spectrum(obj, path="spectrum") -> SpectrumConfig:
    _object(obj, *_fields(SpectrumConfig), path, path)
    try:
        family = Family(obj["family"])
    except ValueError:
        raise ConfigError(f"{path}.family: expected 'TypeI' or 'TypeII', got {_got(obj['family'])}")
    for key in ("zeros", "seeds"):
        if not isinstance(obj[key], list):
            raise ConfigError(f"{path}.{key}: expected a list, got {_got(obj[key])}")
    seed_cls = TypeISeed if family is Family.TYPE_I else TypeIISeed
    zeros = tuple(_complex(z, f"{path}.zeros[{j}]") for j, z in enumerate(obj["zeros"]))
    seeds = tuple(
        _read(s, seed_cls, f"{path}.seeds[{j}]", "seed") for j, s in enumerate(obj["seeds"])
    )
    try:
        return SpectrumConfig(family, zeros, seeds)
    except SpectrumError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a JSON run configuration."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    _object(doc, *_fields(RunConfig), "$", "top-level")
    parts = {name: _read(doc[name], cls, name) for name, cls in _SECTIONS.items() if name in doc}
    checks = doc.get("checks", [])
    if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
        raise ConfigError("checks: expected a list of check names")
    # unknown names are refused first, so only check names reach a message
    thresholds = _object(doc.get("thresholds", {}), CHECKS, (), "thresholds", "check")
    thresholds = {k: _number(v, f"thresholds.{k}", finite=False) for k, v in thresholds.items()}
    return RunConfig(
        _parse_spectrum(doc["spectrum"]), checks=tuple(checks), thresholds=thresholds, **parts
    )


def parse_config_file(path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def config_to_json(cfg: RunConfig) -> dict:
    doc = {name: _write(getattr(cfg, name)) for name in _SECTIONS}
    doc["spectrum"] = {
        "family": cfg.spectrum.family.value,
        "zeros": [[z.real, z.imag] for z in cfg.spectrum.zeros],
        "seeds": [_write(s) for s in cfg.spectrum.seeds],
    }
    doc["checks"] = list(cfg.checks)
    doc["thresholds"] = dict(cfg.thresholds)
    return doc


def serialize_config(cfg: RunConfig) -> str:
    """Inverse of parse_config: parse(serialize(cfg)) == cfg."""
    return json.dumps(config_to_json(cfg), indent=2, sort_keys=True) + "\n"


# -- grid export -------------------------------------------------------------

# Grid points per block of `export_grid`, so that memory is bounded by one
# block whatever the grid: six whole `floatfmt` chunks of rows, which on the
# benchmark grids cuts at most one more `solve_kernel` block than one call
# (larger grids more: 270 against 245 on 1001 x 401 points at m = 4).
BLOCK_POINTS = 6 * (floatfmt.CHUNK_VALUES // 11)


def write_file(path, write, make_parent=False) -> Path:
    """Pass a binary file for `path` to `write`.  A missing or regular file,
    also behind a symlink, is written as a fresh temporary file next to it
    and moved onto it (`os.replace`, keeping its mode): a failure leaves it
    as it was and no temporary file.  Any other target (a device, a FIFO, a
    pipe behind /dev/stdout) is opened and written as it is, and a directory
    is refused before `write` runs.  A failed write is a ConfigError (exit 2)."""
    path = Path(path)
    try:
        if make_parent:
            path.parent.mkdir(parents=True, exist_ok=True)
        st = path.stat() if path.exists() else None
        # only a symlink is resolved, to the file it names
        target = Path(os.path.realpath(path)) if path.is_symlink() else path
        if st is not None and not (stat.S_ISREG(st.st_mode) and target.exists() and target.samefile(path)):
            with open(path, "wb") as fh:  # a directory fails here
                write(fh)
            return path
        tmp = target.parent / f".{uuid.uuid4().hex}.tmp"
        fh = open(tmp, "xb")  # never another file; default permissions
        try:
            with fh:
                write(fh)
            if st is not None:
                os.chmod(tmp, stat.S_IMODE(st.st_mode))
            os.replace(tmp, target)
        except BaseException:
            with contextlib.suppress(OSError):
                tmp.unlink()
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    return path


def write_text(path, text: str, make_parent=False) -> Path:
    """Write `text` to `path` as UTF-8; a failed write is a ConfigError (exit 2)."""
    return write_file(path, lambda fh: fh.write(text.encode("utf-8")), make_parent)


def _fmt(v: float) -> str:
    """The scalar reference of the CSV float format."""
    return f"{v:.17g}"


def _write_grid(spectrum: SpectrumConfig, xs, ts, shortest: bool, fh) -> None:
    """Write the field rows of the grid xs x ts to `fh`, t-major, columns
    as CSV_HEADER: a CSV file, or when `shortest` what json.dumps writes
    for {"columns": CSV_HEADER names, "rows": rows} with separators
    (",", ":") and sorted keys.  One field-kernel call and one `floatfmt`
    pass per block of BLOCK_POINTS points, in one reused row buffer."""
    n = xs.size * ts.size
    buf = np.empty((min(n, BLOCK_POINTS), 11))
    fh.write(_JSON_HEAD if shortest else CSV_HEADER.encode() + b"\n")
    for start in range(0, n, BLOCK_POINTS):
        rows = buf[:n - start]
        p = np.arange(start, start + len(rows))
        rows[:, 0] = xs[p % xs.size]
        rows[:, 1] = ts[p // xs.size]
        u = eval_fields_array(spectrum, rows[:, 0], rows[:, 1])
        rows[:, 2:8:2] = u.real
        rows[:, 3:8:2] = u.imag
        # np.hypot rounds as Python's abs(complex) does; np.abs may not
        np.hypot(u.real, u.imag, out=rows[:, 8:])
        if start and shortest:
            fh.write(b",")
        floatfmt.write_rows(fh, rows, shortest, distinct=2)
    if shortest:
        fh.write(_JSON_TAIL)


def export_grid(cfg: RunConfig, out_path=None, make_parent=False) -> Path:
    """Write the sampled field grid; deterministic bytes for identical configs."""
    xs, ts = cfg.grid.xs(), cfg.grid.ts()  # before the output is opened
    write = partial(_write_grid, cfg.spectrum, xs, ts, cfg.output.format == "json")
    return write_file(cfg.output.path if out_path is None else out_path, write, make_parent)


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
    cfg = figure_config(fig_id)
    out_dir = Path(out_dir)
    csv_path = export_grid(cfg, out_dir / f"figure{fig_id}.csv", make_parent=True)
    doc = config_to_json(cfg)
    sidecar = {
        "figure": fig_id,
        "parameters": doc["spectrum"],
        "grid": doc["grid"],
        "pde_check": run_checks(cfg).checks[0].as_dict(),
        "notes": list(_FIGURE_NOTES[fig_id]),
    }
    json_path = write_text(
        out_dir / f"figure{fig_id}.json", json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
    )
    return [csv_path, json_path]


def run_lambda_sweep(cfg: RunConfig, lam_start: float, lam_stop: float, count: int, out_path) -> Path:
    """Sweep real lambda, writing |Omega77| and the coupling-entry magnitudes."""
    if count < 1:
        raise ConfigError(f"sweep needs at least one sample, got {count}")
    check_axis("sweep count", count)
    table = potential_table(cfg)
    lams = np.linspace(lam_start, lam_stop, count)
    omega = scattering.coupling_row_sweep(table, lams)
    rows = np.empty((count, 8))
    rows[:, 0] = lams
    # |Omega77| first, then |Omega17| .. |Omega67|; np.hypot rounds as abs does
    rows[:, 1:] = np.hypot(omega.real, omega.imag)[:, [6, 0, 1, 2, 3, 4, 5]]
    header = "lambda,abs_omega77," + ",".join(f"abs_omega{k}7" for k in range(1, 7))

    def write(fh):
        fh.write(header.encode() + b"\n")
        floatfmt.write_rows(fh, rows)

    return write_file(out_path, write)
