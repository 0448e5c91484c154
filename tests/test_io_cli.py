import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from functools import partial, reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from tccss import cli, floatfmt, io_cli, lax, scattering, verify
from tccss.io_cli import (
    BLOCK_POINTS,
    CSV_HEADER,
    ConfigError,
    OutputSpec,
    RunConfig,
    ScatteringSpec,
    _fmt,
    figure_config,
    figure_spectrum,
    export_grid,
    parse_config,
    parse_config_file,
    run_checks,
    run_figure,
    serialize_config,
)
from tccss.report import MAX_AXIS_POINTS, GridSpec, ResidualReport
from tccss.soliton import (
    KERNEL_ENTRIES, Family, NearSingularError, NonFiniteFieldError, eval_fields_array, one_soliton_spectrum,
)

from conftest import reference_array

DOCS = Path(__file__).resolve().parent.parent / "docs" / "examples"

MINIMAL = """
{
  "spectrum": {
    "family": "TypeII",
    "zeros": [[0.0, 1.0]],
    "seeds": [{"alpha": [1, 0], "gamma": [2, 0], "rho": [3, 0]}]
  }
}
"""


def minimal_cfg(**overrides) -> RunConfig:
    doc = json.loads(MINIMAL)
    doc.update(overrides)
    return parse_config(json.dumps(doc))


def cli_error(capsys, argv) -> str:
    """Run the CLI in-process: exit 2, one `error:` line, no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, err
    return err


class TestParseConfig:
    def test_minimal_document(self):
        cfg = parse_config(MINIMAL)
        assert cfg.spectrum.family is Family.TYPE_II
        assert cfg.spectrum.zeros == (1j,)
        assert cfg.output.format == "csv"

    def test_lower_half_plane_zero_named(self):
        text = MINIMAL.replace("[0.0, 1.0]", "[0.5, -0.5]")
        with pytest.raises(ConfigError, match="upper half-plane"):
            parse_config(text)

    def test_type1_pure_imaginary_rejected(self):
        doc = {
            "spectrum": {
                "family": "TypeI",
                "zeros": [[0.0, 0.3]],
                "seeds": [{
                    "alpha": [1, 0], "beta": [1, 0], "gamma": [1, 0],
                    "mu": [1, 0], "rho": [1, 0], "delta": [0, 0],
                }],
            }
        }
        with pytest.raises(ConfigError, match="must not be pure imaginary"):
            parse_config(json.dumps(doc))

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config("{not json")

    def test_bad_complex_encoding(self):
        text = MINIMAL.replace("[0.0, 1.0]", "[0.0, 1.0, 2.0]")
        with pytest.raises(ConfigError, match=r"\[re, im\]"):
            parse_config(text)

    def test_unknown_check(self):
        with pytest.raises(ConfigError, match="unknown check"):
            minimal_cfg(checks=["nonsense"])

    @pytest.mark.parametrize("value", [-1, 0, math.nan, math.inf])
    def test_threshold_must_be_finite_positive(self, value):
        with pytest.raises(ConfigError, match=r"thresholds\.pde: expected a finite number > 0"):
            minimal_cfg(thresholds={"pde": value})

    @pytest.mark.parametrize("text", ["-1", "0", "NaN", "Infinity"])
    def test_bad_threshold_exit_two(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(MINIMAL.rstrip()[:-1] + ', "thresholds": {"pde": ' + text + "}}")
        assert cli.main(["verify", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: thresholds.pde: ") and err.count("\n") == 1

    def test_unexpected_seed_field(self):
        text = MINIMAL.replace('"rho": [3, 0]', '"rho": [3, 0], "delta": [0, 0]')
        with pytest.raises(ConfigError, match="unexpected seed fields"):
            parse_config(text)

    def test_deep_nesting_is_invalid_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config("[" * 100_000)

    @pytest.mark.parametrize("section", ["grid", "stencil", "output", "scattering"])
    def test_sections_fall_back_per_field(self, section):
        # every field of these sections but grid's has a default
        if section == "grid":
            with pytest.raises(ConfigError, match=r"missing required field grid\.nt"):
                minimal_cfg(grid={"x_min": 0, "x_max": 1, "nx": 2, "t_min": 0, "t_max": 0})
        else:
            assert getattr(minimal_cfg(**{section: {}}), section) == getattr(parse_config(MINIMAL), section)

    @pytest.mark.parametrize("overrides, message", [
        ({"grid": {"x_min": 0, "x_max": 1, "nx": 2.0, "t_min": 0, "t_max": 0, "nt": 1}},
         r"grid\.nx: expected an integer, got 2\.0"),
        ({"stencil": {"order": True}}, r"stencil\.order: expected an integer, got True"),
        ({"stencil": {"hx": "0.001"}}, r"stencil\.hx: expected a finite number"),
        ({"scattering": {"x_max": 1e400}}, r"scattering\.x_max: expected a finite number, got inf"),
        ({"scattering": {"n_steps": None}}, r"scattering\.n_steps: expected an integer, got None"),
        ({"output": {"format": "xml"}}, r"output: format must be 'csv' or 'json'"),
        ({"thresholds": {"pdee": 1e-4}}, r"thresholds: unexpected check fields \['pdee'\]"),
        ({"grid": {"x_min": -1e308, "x_max": 1e308, "nx": 2, "t_min": 0, "t_max": 0, "nt": 1}},
         r"grid: x_max - x_min and t_max - t_min must be finite"),
    ])
    def test_field_value_rules(self, overrides, message):
        with pytest.raises(ConfigError, match=message):
            minimal_cfg(**overrides)

    def test_complex_parts_must_be_finite(self):
        text = MINIMAL.replace('"gamma": [2, 0]', '"gamma": [2, NaN]')
        with pytest.raises(ConfigError, match=r"seeds\[0\]\.gamma\[1\]: expected a finite number"):
            parse_config(text)

    def test_missing_spectrum(self):
        with pytest.raises(ConfigError, match="spectrum"):
            parse_config("{}")

    def test_serialize_roundtrip(self):
        for name in ("breather", "one_soliton", "two_soliton"):
            cfg = parse_config_file(DOCS / f"{name}.json")
            assert parse_config(serialize_config(cfg)) == cfg

    def test_serialize_roundtrip_with_overrides(self):
        cfg = minimal_cfg(
            stencil={"hx": 0.002, "ht": 0.004, "order": 2},
            thresholds={"pde": 1e-6, "rh_symmetry": 1e-9},
            scattering={"x_min": -25.0, "x_max": 25.0, "n_steps": 4000, "t": 0.1},
            output={"path": "out.json", "format": "json"},
            checks=["pde", "scattering"],
        )
        assert parse_config(serialize_config(cfg)) == cfg

    def test_docs_examples_parse(self):
        for path in DOCS.glob("*.json"):
            cfg = parse_config_file(path)
            assert cfg.grid.nx >= 2


# Every section present, a 5-point grid and 2,000 scattering steps, so that a
# probe or mutation reaches any field and documents that still parse are
# cheap to run through every command.
FULL = {
    **json.loads(MINIMAL),
    "grid": {"x_min": -1.0, "x_max": 1.0, "nx": 5, "t_min": 0.0, "t_max": 0.0, "nt": 1},
    "stencil": {"hx": 0.001, "ht": 0.001, "order": 4},
    "checks": ["rh_symmetry"],
    "output": {"path": "fields.csv", "format": "csv"},
    "thresholds": {"pde": 1e-4},
    "scattering": {"x_min": -30.0, "x_max": 30.0, "n_steps": 2000, "t": 0.0},
}


def _full_with(section, key, value):
    doc = json.loads(json.dumps(FULL))
    (doc[section] if section else doc)[key] = value
    return doc


# A fuzz-found scattering domain: step h = 3.8e83.
HUGE_STEP = _full_with("scattering", "x_min", -7.57e86)


class TestExitTwo:
    """Inputs that must end in exit 2 with one `error:` line, through cli.main."""

    @pytest.mark.parametrize("doc, message", [
        (_full_with(None, "gird", {}), "$: unexpected top-level fields ['gird']"),
        (_full_with("grid", "dx", 0.1), "grid: unexpected grid fields ['dx']"),
        (_full_with("scattering", "steps", 10), "scattering: unexpected scattering fields ['steps']"),
        (_full_with("grid", "x_max", math.inf), "grid.x_max: expected a finite number, got inf"),
        (_full_with("scattering", "x_min", math.nan), "scattering.x_min: expected a finite number, got nan"),
        (_full_with("scattering", "t", math.inf), "scattering.t: expected a finite number, got inf"),
        (_full_with("output", "path", [1, 2]), "output.path: expected a string, got list"),
    ])
    def test_config_probe(self, tmp_path, capsys, doc, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out_path = tmp_path / "x.csv"
        err = cli_error(capsys, ["generate", "--config", str(cfg_path), "--out", str(out_path)])
        assert err == f"error: {message}\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["generate", "verify", "scatter"])
    @pytest.mark.parametrize("doc, message", [
        (_full_with("scattering", "n_steps", 1), "scattering: n_steps must be >= 100, got 1"),
        (_full_with("scattering", "x_max", -30.0),
         "scattering: need x_min < x_max and a finite span, got [-30.0, -30.0]"),
        ({**FULL, "scattering": {"x_min": 5, "x_max": -5}},
         "scattering: need x_min < x_max and a finite span, got [5.0, -5.0]"),
        ({**FULL, "scattering": {"x_min": -1e308, "x_max": 1e308}},
         "scattering: need x_min < x_max and a finite span, got [-1e+308, 1e+308]"),
        # x + h == x: every difference would be zero and pde would pass vacuously
        ({**_full_with("stencil", "hx", 1e-30), "checks": ["pde"]},
         "stencil: hx must be in [1e-06, 0.1], got 1e-30"),
        ({**_full_with("stencil", "ht", 5e-324), "checks": ["pde"]},
         "stencil: ht must be in [1e-06, 0.1], got 5e-324"),
        # the RK4 step coefficients would overflow
        (HUGE_STEP, "scattering: step h = (x_max - x_min) / n_steps = 3.79e+83 exceeds 1.0; "
                    "take more steps"),
        ({**FULL, "scattering": {"x_min": -40.0, "x_max": 61.0, "n_steps": 100}},
         "scattering: step h = (x_max - x_min) / n_steps = 1.01 exceeds 1.0; take more steps"),
        # counts near 2**63, where np.linspace fails with an IndexError
        (_full_with("grid", "nx", 2**63 - 1),
         f"grid: nx = {2**63 - 1} exceeds {MAX_AXIS_POINTS}, the most points of a float64 array"),
        (_full_with("grid", "nt", 2**63),
         f"grid: nt = {2**63} exceeds {MAX_AXIS_POINTS}, the most points of a float64 array"),
        ({**FULL, "scattering": {"n_steps": 2**62 - 1, "x_min": -1e18, "x_max": 1e18}},
         f"scattering: 2 n_steps + 1 = {2**63 - 1} exceeds {MAX_AXIS_POINTS}, the most points of a float64 array"),
    ])
    def test_every_command(self, tmp_path, capsys, command, doc, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out_path = tmp_path / "x.out"
        extra = {
            "generate": ["--out"], "verify": ["--json"], "scatter": ["--lambda-re", "0.2:2:3", "--out"],
        }
        err = cli_error(capsys, [command, "--config", str(cfg_path), *extra[command], str(out_path)])
        assert err == f"error: {message}\n"
        assert not out_path.exists()

    def test_scatter_on_undecayed_domain(self, tmp_path, capsys):
        doc = json.loads((DOCS / "one_soliton.json").read_text())
        doc["scattering"] = {"x_min": -30, "x_max": 5}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out_path = tmp_path / "s.csv"
        err = cli_error(capsys, ["scatter", "--config", str(cfg_path), "--lambda-re", "0.2:2:3",
                                 "--out", str(out_path)])
        assert err.startswith("error: potential magnitude ")
        assert err.endswith(" at x = 5.0 exceeds 1e-09; enlarge the domain\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("checks", [None, []], ids=["absent", "empty"])
    def test_verify_without_checks_refused(self, tmp_path, capsys, checks):
        # no check configured would pass vacuously; the other commands read
        # no checks and still run
        doc = json.loads(MINIMAL)
        if checks is not None:
            doc["checks"] = checks
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        report = tmp_path / "r.json"
        err = cli_error(capsys, ["verify", "--config", str(cfg_path), "--json", str(report)])
        assert err.startswith("error: checks: name at least one check to run; supported: pde, cnls, ")
        assert not report.exists()
        assert cli.main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "g.csv")]) == 0
        sweep = ["scatter", "--config", str(cfg_path), "--lambda-re", "0.2:2:3", "--out", str(tmp_path / "s.csv")]
        assert cli.main(sweep) == 0

    @pytest.mark.parametrize("check", ["rh_symmetry", "zero_curvature", "pde"])
    def test_verify_overflowing_zero(self, tmp_path, capsys, check):
        # lambda^3 overflows: the kernels refuse it as generate does
        self.verify_zero(tmp_path, capsys, check, 1e120)

    @pytest.mark.parametrize("check", ["rh_symmetry", "zero_curvature", "pde"])
    def test_verify_overflowing_pole_denominator(self, tmp_path, capsys, check):
        # lambda - conj(lambda) = 2e308j overflows too, with no warning
        self.verify_zero(tmp_path, capsys, check, 1e308)

    @pytest.mark.parametrize("eta", [1e-308, 5e-324])
    def test_generate_zero_at_real_axis_names_pole_gap(self, tmp_path, capsys, eta):
        # |theta| < 1e-306 keeps the flow finite; M overflows through
        # 1 / (z - conj z), and the refusal says so
        doc = json.loads((DOCS / "one_soliton.json").read_text())
        doc["spectrum"]["zeros"] = [[0, eta]]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        err = cli_error(capsys, ["generate", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")])
        assert err.startswith("error: non-finite field at (x, t) = (-10, -2): M overflows double precision")
        assert "pole gap" in err and "flow exponents" not in err

    @staticmethod
    def verify_zero(tmp_path, capsys, check, zero):
        doc = json.loads((DOCS / "one_soliton.json").read_text())
        doc["spectrum"]["zeros"] = [[0, zero]]
        doc["checks"] = [check]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        err = cli_error(capsys, ["verify", "--config", str(cfg_path)])
        assert err.startswith(f"error: check {check!r} failed: non-finite field at (x, t) = ")

    def test_verify_scattering_zero_past_rk4_stability(self, tmp_path, capsys):
        # at lambda = 600i the step is unstable: Omega77 at the zero overflows,
        # and the check names that lambda in one error line, with no numpy warning
        doc = json.loads((DOCS / "one_soliton.json").read_text())
        doc["spectrum"]["zeros"] = [[0, 600]]
        doc["checks"] = ["scattering"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        err = cli_error(capsys, ["verify", "--config", str(cfg_path)])
        assert err.startswith("error: check 'scattering' failed: Omega77 = ")
        assert err.endswith(" at lambda = 0+600j is not finite\n")

    @pytest.mark.parametrize("argv, grid", [
        # 10**15 lambdas, or 10**14 grid times, ask for more than any address space
        (["scatter", "--lambda-re", "0:1:1000000000000000", "--out"], None),
        (["generate", "--out"], {"x_min": -1.0, "x_max": 1.0, "nx": 2, "t_min": 0.0, "t_max": 1.0,
                                 "nt": 10**14}),
    ])
    def test_unallocatable_size(self, tmp_path, capsys, argv, grid):
        doc = _full_with("grid", "nt", 1) if grid is None else _full_with(None, "grid", grid)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out_path = tmp_path / "x.out"
        err = cli_error(capsys, [argv[0], "--config", str(cfg_path), *argv[1:], str(out_path)])
        assert err.startswith("error: Unable to allocate ")
        assert not out_path.exists()

    def test_sweep_count_at_int64_limit(self, tmp_path, capsys):
        # np.linspace fails with an IndexError near 2**63 points
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(FULL))
        out_path = tmp_path / "s.csv"
        err = cli_error(capsys, ["scatter", "--config", str(cfg_path), "--lambda-re", f"0:1:{2**63 - 1}",
                                 "--out", str(out_path)])
        assert err == f"error: sweep count = {2**63 - 1} exceeds {MAX_AXIS_POINTS}, the most points of a float64 array\n"
        assert not out_path.exists()

    def test_deep_nesting(self, tmp_path, capsys):
        cfg_path = tmp_path / "deep.json"
        cfg_path.write_text("[" * 100_000)
        err = cli_error(capsys, ["generate", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")])
        assert err.startswith("error: invalid JSON: ")

    def test_verify_json_into_missing_directory(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(FULL))
        report = tmp_path / "missing" / "r.json"
        err = cli_error(capsys, ["verify", "--config", str(cfg_path), "--json", str(report)])
        assert err.startswith(f"error: cannot write {report}: ")

    def test_figure_out_dir_under_a_file(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        out_dir = tmp_path / "file" / "sub"
        err = cli_error(capsys, ["figure", "--id", "3", "--out-dir", str(out_dir)])
        assert err.startswith(f"error: cannot write {out_dir / 'figure3.csv'}: ")


class TestRhSymmetryNearAxis:
    """Zeros 1e-12 above the real axis put lambda samples and zeros within
    the pole guard; `verify` leaves them out and names them in the notes."""

    UNIT = {"alpha": [1, 0], "beta": [1, 0], "gamma": [1, 0], "mu": [1, 0], "rho": [1, 0], "delta": [1, 0]}

    @pytest.mark.parametrize("spectrum, left_out", [
        ({"family": "TypeII", "zeros": [[0, 1e-12]],
          "seeds": [{"alpha": [1, 0], "gamma": [2, 0], "rho": [3, 0]}]},
         ["zero 1 = 1e-12j left out of kernel and det_at_zeros: within 1e-08 of a pole"]),
        ({"family": "TypeI", "zeros": [[3, 1e-12]], "seeds": [UNIT]},
         ["lambda sample (-3+0j) left out: within 1e-08 of a pole",
          "lambda sample (3+0j) left out: within 1e-08 of a pole",
          "zero 1 = (3+1e-12j) left out of kernel and det_at_zeros: within 1e-08 of a pole",
          "zero 2 = (-3+1e-12j) left out of kernel and det_at_zeros: within 1e-08 of a pole"]),
    ])
    def test_verify_gives_a_verdict(self, tmp_path, capsys, spectrum, left_out):
        doc = json.loads(MINIMAL)
        doc["spectrum"] = spectrum
        doc["checks"] = ["rh_symmetry"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        report = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["verify", "--config", str(cfg_path), "--json", str(report)])
        out, err = capsys.readouterr()
        assert code in (0, 1)
        assert "error:" not in out + err
        verdicts = [line for line in out.splitlines() if line.startswith(("[PASS]", "[FAIL]"))]
        assert len(verdicts) == 1 and " rh_symmetry: " in verdicts[0]
        notes = json.loads(report.read_text())["checks"][0]["notes"]
        assert notes[-len(left_out):] == left_out


class TestVacuum:
    """An empty spectrum is the vacuum: `verify` runs every check and every
    residual is exactly 0."""

    @pytest.mark.parametrize("family", ["TypeI", "TypeII"])
    def test_verify_every_check(self, tmp_path, capsys, family):
        checks = list(verify.CHECKS)
        doc = {"spectrum": {"family": family, "zeros": [], "seeds": []}, "checks": checks}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        report = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["verify", "--config", str(cfg_path), "--json", str(report)])
        assert code == 0, capsys.readouterr().err
        results = json.loads(report.read_text())["checks"]
        assert len(results) == len(checks)
        assert [r["max_abs"] for r in results] == [0.0] * len(checks)


def _node_paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _node_paths(child, path + (key,))


_FUZZ_PATHS = list(_node_paths(FULL))[1:]
_FUZZ_OBJECTS = [p for p in [()] + _FUZZ_PATHS if isinstance(reduce(lambda n, k: n[k], p, FULL), dict)]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8,
)


@st.composite
def mutated_configs(draw):
    """FULL with one key dropped, one unknown key added, or one value replaced."""
    doc = json.loads(json.dumps(FULL))
    action = draw(st.sampled_from(["drop", "add", "replace"]))
    if action == "add":
        target = reduce(lambda n, k: n[k], draw(st.sampled_from(_FUZZ_OBJECTS)), doc)
        target[draw(st.text().filter(lambda k: k not in target))] = draw(json_values)
        return doc
    *head, last = draw(st.sampled_from(_FUZZ_PATHS))
    parent = reduce(lambda n, k: n[k], head, doc)
    if action == "drop":
        del parent[last]
    else:
        # numbers often enough that many replacements still parse
        parent[last] = draw(st.floats() | st.integers(-5, 5) | json_values)
    return doc


def _fuzz_cli(tmp_path, capsys, doc, commands, max_steps=math.inf):
    """Parse `doc`; if it fails to parse, or has at most 400 grid points and
    at most `max_steps` scattering steps, run each (argv, exit codes) of
    `commands` through cli.main: an allowed exit code, silent unless it is
    2, and then exactly one `error:` line."""
    text = json.dumps(doc)
    try:
        cfg = parse_config(text)
    except ConfigError:
        cfg = None
    else:
        assert parse_config(serialize_config(cfg)) == cfg
        if cfg.grid.nx * cfg.grid.nt > 400 or cfg.scattering.n_steps > max_steps:
            return
    cfg_path = tmp_path / "fuzz.json"
    cfg_path.write_text(text)
    for argv, codes in commands:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([argv[0], "--config", str(cfg_path), *argv[1:]])
        err = capsys.readouterr().err
        assert code in codes, (argv, code, err)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        else:
            assert err == "", err


class TestConfigFuzz:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=json_values | mutated_configs())
    def test_parse_and_generate(self, tmp_path, capsys, doc):
        out = str(tmp_path / "fuzz.out")
        _fuzz_cli(tmp_path, capsys, doc, [(["generate", "--out", out], (0, 2))])

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=mutated_configs())
    @example(doc=HUGE_STEP)
    def test_verify_and_scatter(self, tmp_path, capsys, doc):
        out = str(tmp_path / "fuzz.out")
        commands = [
            (["verify"], (0, 1, 2)),
            (["scatter", "--lambda-re", "0.2:2:3", "--out", out], (0, 2)),
        ]
        _fuzz_cli(tmp_path, capsys, doc, commands, max_steps=2000)


class TestExportGrid:
    def test_zero_seed_rows(self, tmp_path):
        cfg = minimal_cfg(
            spectrum={
                "family": "TypeII",
                "zeros": [[0.0, 0.8]],
                "seeds": [{"alpha": [0, 0], "gamma": [0, 0], "rho": [0, 0]}],
            },
            grid={"x_min": -1.0, "x_max": 1.0, "nx": 3, "t_min": 0.0, "t_max": 1.0, "nt": 2},
        )
        out = export_grid(cfg, tmp_path / "zero.csv")
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "x,t,re_u1,im_u1,re_u2,im_u2,re_u3,im_u3,abs_u1,abs_u2,abs_u3"
        assert len(lines) == 7  # header + 6 data rows
        for line in lines[1:]:
            vals = [float(v) for v in line.split(",")]
            assert all(v == 0.0 for v in vals[2:])

    def test_t_major_row_order(self, tmp_path):
        cfg = minimal_cfg(
            grid={"x_min": 0.0, "x_max": 1.0, "nx": 2, "t_min": 0.0, "t_max": 1.0, "nt": 2},
        )
        out = export_grid(cfg, tmp_path / "order.csv")
        rows = [line.split(",")[:2] for line in out.read_text().strip().split("\n")[1:]]
        assert [(float(a), float(b)) for a, b in rows] == [
            (0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0),
        ]

    @pytest.mark.parametrize("fig_id", [1, 2, 3, 4])
    def test_batched_grid_matches_reference(self, fig_id):
        # the exported grid against the 40-digit reference
        cfg = RunConfig(figure_spectrum(fig_id), grid=GridSpec(-6.0, 6.0, 41, -1.0, 1.0, 5))
        rows = whole_grid_rows(cfg).tolist()
        assert len(rows) == 41 * 5
        ref = reference_array(cfg.spectrum, [r[0] for r in rows], [r[1] for r in rows])
        worst = 0.0
        for row, u in zip(rows, ref):
            got = np.array(row[2:8:2]) + 1j * np.array(row[3:8:2])
            worst = max(worst, float(np.max(np.abs(got - u))))
            assert row[8:] == [abs(complex(v)) for v in got]
        assert worst <= 1e-12

    def test_rerun_byte_identical(self, tmp_path):
        cfg = minimal_cfg(
            grid={"x_min": -2.0, "x_max": 2.0, "nx": 11, "t_min": 0.0, "t_max": 0.5, "nt": 3},
        )
        a = export_grid(cfg, tmp_path / "a.csv").read_bytes()
        b = export_grid(cfg, tmp_path / "b.csv").read_bytes()
        assert a == b

    def test_one_soliton_peak_column(self, tmp_path):
        cfg = parse_config_file(DOCS / "one_soliton.json")
        out = export_grid(cfg, tmp_path / "one.csv")
        abs_u1 = [
            float(line.split(",")[8]) for line in out.read_text().strip().split("\n")[1:]
        ]
        # 0.1-spaced sampling sits 0.033 off the crest, hence the 1e-3 margin
        assert abs(max(abs_u1) - math.sqrt(2) / math.sqrt(14)) < 1e-3

    def test_json_format(self, tmp_path):
        cfg = minimal_cfg(
            grid={"x_min": 0.0, "x_max": 1.0, "nx": 2, "t_min": 0.0, "t_max": 0.0, "nt": 1},
            output={"path": "x.json", "format": "json"},
        )
        out = export_grid(cfg, tmp_path / "x.json")
        doc = json.loads(out.read_text())
        assert doc["columns"][0] == "x"
        assert len(doc["rows"]) == 2

    def test_blocks_match_per_row_kernel_calls(self, tmp_path):
        # the export's blocks of BLOCK_POINTS points, and the kernel's blocks
        # of KERNEL_ENTRIES // (m (m + 1)) points inside them, cut across
        # t-rows and give the same bits as one kernel call per t-row; figure 2
        # has m = 4
        cfg = RunConfig(figure_spectrum(2), grid=GridSpec(-10.0, 10.0, 101, -3.0, 3.0, 91))
        assert len(cfg.spectrum.expanded_zeros()) == 4
        xs, ts = cfg.grid.xs(), cfg.grid.ts()
        assert xs.size * ts.size > BLOCK_POINTS > 2 * KERNEL_ENTRIES // (4 * 5)
        assert BLOCK_POINTS % xs.size
        rows = np.empty((ts.size, xs.size, 11))
        for i, t in enumerate(ts):
            u = eval_fields_array(cfg.spectrum, xs, t)
            rows[i, :, 0], rows[i, :, 1] = xs, t
            rows[i, :, 2:8] = np.stack([u.real, u.imag], axis=2).reshape(-1, 6)
            rows[i, :, 8:] = np.hypot(u.real, u.imag)
        got = export_grid(cfg, tmp_path / "grid.csv").read_bytes()
        # '%.17g' text round-trips, so equal text is equal bits
        assert got == _rendered(rows.reshape(-1, 11)).encode()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("fig_id", [1, 2, 3, 4, "boundary"])
    def test_export_matches_stdlib_rendering(self, tmp_path, fig_id, fmt):
        if fig_id == "boundary":  # spans a kernel block and many render chunks
            cfg = RunConfig(figure_spectrum(4), grid=GridSpec(-20.0, 20.0, 101, -10.0, 10.0, 45))
        else:
            cfg = figure_config(fig_id)
        cfg = RunConfig(cfg.spectrum, grid=cfg.grid, output=OutputSpec(f"grid.{fmt}", fmt))
        rows = whole_grid_rows(cfg).tolist()
        if fmt == "csv":
            expect = CSV_HEADER + "\n" + "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows)
        else:
            doc = {"columns": CSV_HEADER.split(","), "rows": rows}
            expect = json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"
        assert export_grid(cfg, tmp_path / f"grid.{fmt}").read_bytes() == expect.encode()


class TestStreamedExport:
    """`export_grid` evaluates and writes one block of BLOCK_POINTS points at
    a time, into a temporary file that replaces the output at the end."""

    GRIDS = {
        "under_one_block": GridSpec(-10.0, 10.0, 201, -1.0, 1.0, 3),
        "two_blocks": GridSpec(-10.0, 10.0, 248, -1.0, 1.0, 36),
        "two_blocks_and_a_point": GridSpec(-10.0, 10.0, 8929, 0.5, 0.5, 1),
        "one_t": GridSpec(-10.0, 10.0, 201, 0.5, 0.5, 1),
    }
    # finite up to t = 1.6; the flow exponent 4 z^3 t overflows from t = 1.7
    LATE = one_soliton_spectrum(1, 2, 3, 3e102)

    def test_grid_sizes(self):
        size = {name: g.nx * g.nt for name, g in self.GRIDS.items()}
        assert size["under_one_block"] < BLOCK_POINTS
        assert size["two_blocks"] == 2 * BLOCK_POINTS
        assert size["two_blocks_and_a_point"] == 2 * BLOCK_POINTS + 1
        assert BLOCK_POINTS % (floatfmt.CHUNK_VALUES // 11) == 0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("grid", GRIDS)
    def test_block_boundaries(self, tmp_path, grid, fmt):
        # the streamed file equals one rendering of the whole grid's rows;
        # figure 4 has m = 2, so the kernel cuts its own blocks inside these
        cfg = RunConfig(figure_spectrum(4), grid=self.GRIDS[grid], output=OutputSpec(f"g.{fmt}", fmt))
        expect = _rendered(whole_grid_rows(cfg), shortest=fmt == "json")
        assert export_grid(cfg, tmp_path / f"g.{fmt}").read_bytes() == expect.encode()

    @pytest.mark.parametrize("existing", [False, True], ids=["fresh", "existing"])
    def test_late_failure_leaves_no_file(self, tmp_path, capsys, monkeypatch, existing):
        grid = GridSpec(-10.0, 10.0, 1001, 0.0, 2.0, 21)
        xs, ts = grid.xs(), grid.ts()
        x, t = np.tile(xs, ts.size), np.repeat(ts, xs.size)
        # the whole blocks before the one that holds t = 1.7 are written
        written = 17 * grid.nx // BLOCK_POINTS
        assert written >= 2
        assert np.isfinite(eval_fields_array(self.LATE, x[:written * BLOCK_POINTS], t[:written * BLOCK_POINTS])).all()
        with pytest.raises(NonFiniteFieldError) as whole:
            eval_fields_array(self.LATE, x, t)
        cfg_path, out_path = tmp_path / "cfg.json", tmp_path / "out.csv"
        cfg_path.write_text(serialize_config(RunConfig(self.LATE, grid=grid)))
        if existing:
            out_path.write_bytes(b"old contents\n")
        blocks, write_rows = [], floatfmt.write_rows
        monkeypatch.setattr(floatfmt, "write_rows",
                            lambda fh, rows, *args, **kw: write_rows(fh, rows, *args, **kw) or blocks.append(len(rows)))
        err = cli_error(capsys, ["generate", "--config", str(cfg_path), "--out", str(out_path)])
        assert err == f"error: {whole.value}\n"
        assert blocks == [BLOCK_POINTS] * written
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"] + ["out.csv"] * existing
        if existing:
            assert out_path.read_bytes() == b"old contents\n"

    def test_near_singular_names_first_failing_block(self, tmp_path):
        # every point is near-singular: the refusal names the worst point of
        # the first block, which is all that was evaluated
        spectrum = minimal_cfg(spectrum={
            "family": "TypeII", "zeros": [[0.0, 1.0], [0.0, 1.0000000000001]],
            "seeds": [{"alpha": [1, 0], "gamma": [2, 0], "rho": [3, 0]}] * 2,
        }).spectrum
        cfg = RunConfig(spectrum, grid=GridSpec(-2.0, 2.0, 1001, 0.0, 1.0, 11))
        xs, ts = cfg.grid.xs(), cfg.grid.ts()
        x, t = np.tile(xs, ts.size), np.repeat(ts, xs.size)
        with pytest.raises(NearSingularError) as first:
            eval_fields_array(spectrum, x[:BLOCK_POINTS], t[:BLOCK_POINTS])
        with pytest.raises(NearSingularError) as got:
            export_grid(cfg, tmp_path / "g.csv")
        assert str(got.value) == str(first.value)
        assert not list(tmp_path.iterdir())

    def test_output_file_mode(self, tmp_path):
        # the temporary file takes the permissions a plain open() gives
        plain = tmp_path / "plain"
        plain.write_bytes(b"")
        out = export_grid(minimal_cfg(), tmp_path / "g.csv")
        assert out.stat().st_mode == plain.stat().st_mode
        # a replaced file keeps its own
        out.chmod(0o640)
        assert export_grid(minimal_cfg(), out).stat().st_mode & 0o777 == 0o640

    def test_symlink_target_written_through(self, tmp_path):
        # the file is replaced in its own directory, not the link's
        real, link = tmp_path / "data" / "real.csv", tmp_path / "link.csv"
        real.parent.mkdir()
        real.write_bytes(b"old contents\n")
        link.symlink_to("data/real.csv")
        export_grid(minimal_cfg(), link)
        assert link.is_symlink()
        assert real.read_bytes() == export_grid(minimal_cfg(), tmp_path / "g.csv").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "g.csv", "link.csv"]
        assert [p.name for p in real.parent.iterdir()] == ["real.csv"]

    def test_fifo_target_written_directly(self, tmp_path):
        # a target that is not a regular file is opened as it is, not replaced
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            export_grid(minimal_cfg(), fifo)
        finally:
            reader.join(timeout=60)
        assert fifo.is_fifo()
        assert got == [export_grid(minimal_cfg(), tmp_path / "g.csv").read_bytes()]

    def test_stdout_pipe_target(self, tmp_path):
        # /dev/stdout of a process whose stdout is a pipe: a link to no path
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(MINIMAL)
        run = subprocess.run([sys.executable, "-m", "tccss.cli", "generate", "--config", str(cfg_path),
                              "--out", "/dev/stdout"], capture_output=True)
        assert run.returncode == 0, run.stderr
        grid = export_grid(minimal_cfg(), tmp_path / "g.csv").read_bytes()
        assert run.stdout == grid + b"wrote /dev/stdout\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "g.csv"]

    def test_directory_target_refused_before_evaluation(self, tmp_path, capsys, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(MINIMAL)
        monkeypatch.setattr(io_cli, "eval_fields_array", None)  # never called
        err = cli_error(capsys, ["generate", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert err == f"error: cannot write {tmp_path}: Is a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_bounded_by_block(self, tmp_path, fmt):
        # a whole-grid export peaked 4.8 times higher at 2001 x 41 than at
        # 201 x 41; a streamed one holds one block either way
        spectrum = parse_config_file(DOCS / "collision.json").spectrum
        export_grid(RunConfig(spectrum, output=OutputSpec("w", fmt)), tmp_path / "warm")  # cached tables
        peaks = {}
        for nx in (201, 2001):
            cfg = RunConfig(spectrum, grid=GridSpec(-10.0, 10.0, nx, -2.0, 2.0, 41), output=OutputSpec("g", fmt))
            tracemalloc.start()
            try:
                export_grid(cfg, tmp_path / f"{nx}.{fmt}")
                peaks[nx] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[2001] <= 1.5 * peaks[201], peaks


class TestRunChecks:
    def test_zero_seed_all_pass(self):
        cfg = minimal_cfg(
            spectrum={
                "family": "TypeII",
                "zeros": [[0.0, 0.8]],
                "seeds": [{"alpha": [0, 0], "gamma": [0, 0], "rho": [0, 0]}],
            },
            grid={"x_min": -3.0, "x_max": 3.0, "nx": 5, "t_min": -0.2, "t_max": 0.2, "nt": 3},
            checks=["pde", "cnls", "zero_curvature", "rh_symmetry"],
        )
        outcome = run_checks(cfg)
        assert outcome.passed
        assert {c.report.name for c in outcome.checks} == {
            "pde_tccss", "cnls_gauge", "zero_curvature", "rh_symmetry",
        }

    def test_figure3_core_checks(self):
        cfg = figure_config(3)
        cfg = RunConfig(
            cfg.spectrum,
            grid=cfg.grid,
            checks=("pde", "zero_curvature", "rh_symmetry"),
        )
        outcome = run_checks(cfg)
        assert outcome.passed
        by_name = {c.report.name: c.report.max_abs for c in outcome.checks}
        assert by_name["pde_tccss"] < 1e-5
        assert by_name["zero_curvature"] < 1e-6
        assert by_name["rh_symmetry"] < 1e-10

    def test_jet_route_notes(self):
        cfg = minimal_cfg(
            grid={"x_min": -4.0, "x_max": 4.0, "nx": 9, "t_min": -0.5, "t_max": 0.5, "nt": 3},
            stencil={"hx": 0.002, "ht": 0.001, "order": 2},
            checks=["pde", "cnls", "zero_curvature"],
        )
        pde, cnls, zc = run_checks(cfg).checks
        table = "jet table: 32 points (9x3 grid and 5 zero-curvature probes)"
        cross = {
            "x1": "against the order-2 central first difference of u in x, h = 0.002",
            "x2": "against the order-2 central first difference of u_x in x, h = 0.002",
            "x3": "against the order-2 central first difference of u_xx in x, h = 0.002",
            "t1": "against the order-2 central first difference of u in t, h = 0.001",
        }
        for check, orders in ((pde, ("x1", "x3", "t1")), (cnls, cross), (zc, cross)):
            notes = check.report.notes
            assert notes[0] == table
            assert [n.split(": ")[0] for n in notes[1:1 + len(orders)]] == [f"cross-check {o}" for o in orders]
            values = [float(n.split(": ")[1].split(" ")[0]) for n in notes[1:1 + len(orders)]]
            for note, o in zip(notes[1:], orders):
                assert note.endswith(cross[o])
            # max_abs is the cross-check wherever it exceeds the residual
            assert check.report.max_abs >= max(values) * (1 - 1e-3)
        probes = zc.report.notes[5:]
        assert len(probes) == 10
        assert [n.split(", ")[1].split(" ")[0] for n in probes] == ["probe", "crest"] * 5
        # the crest of the bell soliton at t = -0.5, 0 or 0.5 (x nodes 1 apart)
        crest = {n.split("= (")[1].split(")")[0] for n in probes[1::2]}
        assert len(crest) == 1
        assert all(float(n.rsplit(": ", 1)[1]) < 1e-12 for n in probes)

    def test_jet_table_built_once_and_only_for_jet_checks(self, monkeypatch):
        # one jet table for any mix of jet checks, none without them; one
        # potential table with the scattering check, none without it
        built = {}

        def counted(module, name):
            build = getattr(module, name)

            def wrapper(*args):
                built[name] += 1
                return build(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(lax, "jet_table")
        counted(scattering, "sample_potential")
        scattering_spec = {"x_min": -30.0, "x_max": 30.0, "n_steps": 3000, "t": 0.0}
        for checks in (
            ["rh_symmetry"],
            ["scattering"],
            ["pde"],
            ["zero_curvature", "scattering"],
            ["pde", "rh_symmetry", "cnls", "zero_curvature"],
            ["cnls", "scattering", "pde", "rh_symmetry", "zero_curvature"],
        ):
            built.update(jet_table=0, sample_potential=0)
            outcome = run_checks(minimal_cfg(checks=checks, scattering=scattering_spec))
            assert len(outcome.checks) == len(checks)
            jet_checks = {"pde", "cnls", "zero_curvature"} & set(checks)
            assert built == {"jet_table": int(bool(jet_checks)), "sample_potential": int("scattering" in checks)}, checks

    def test_io_cli_runs_the_verify_checks(self):
        # `run_figure` and every caller of `io_cli.run_checks` run the one registry
        assert io_cli.run_checks is verify.run_checks

    def test_passed_follows_report_and_threshold(self):
        report = ResidualReport("pde_tccss", 1e-3, 1e-4, "grid")
        assert verify.CheckOutcome(report, 2e-3).passed
        assert not verify.CheckOutcome(report, 1e-3).passed
        assert verify.CheckOutcome(report, 2e-3).as_dict()["passed"] is True

    def test_threshold_override_forces_failure(self):
        cfg = minimal_cfg(checks=["rh_symmetry"], thresholds={"rh_symmetry": 1e-30})
        outcome = run_checks(cfg)
        assert not outcome.passed
        payload = outcome.as_dict()
        assert payload["passed"] is False
        assert payload["checks"][0]["threshold"] == 1e-30


def whole_grid_rows(cfg: RunConfig) -> np.ndarray:
    """The field rows (P, 11) of the whole grid from one kernel call,
    t-major, columns as CSV_HEADER."""
    xs, ts = cfg.grid.xs(), cfg.grid.ts()
    x, t = np.tile(xs, ts.size), np.repeat(ts, xs.size)
    u = eval_fields_array(cfg.spectrum, x, t)
    return np.column_stack([x, t, np.stack([u.real, u.imag], axis=2).reshape(-1, 6), np.hypot(u.real, u.imag)])


def _rendered(rows, shortest=False) -> str:
    """`rows` as one grid file: the CSV header or the JSON head, one
    `floatfmt` pass over all rows, the JSON tail."""
    fh = io.BytesIO()
    fh.write(io_cli._JSON_HEAD if shortest else CSV_HEADER.encode() + b"\n")
    floatfmt.write_rows(fh, rows, shortest, distinct=2)
    if shortest:
        fh.write(io_cli._JSON_TAIL)
    return fh.getvalue().decode()


_ROWS = st.lists(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=11, max_size=11),
    max_size=5,
)
_EDGE_ROW = [-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308,
             0.1, 1e-5, 1e16, 123456789012345678.0, -2.5, 0.0]


class TestCsvRender:
    @given(_ROWS)
    def test_row_format_matches_fmt(self, rows):
        # the array renderer must print every float exactly as _fmt does
        rows += [_EDGE_ROW]
        expect = "\n".join(
            ["x,t,re_u1,im_u1,re_u2,im_u2,re_u3,im_u3,abs_u1,abs_u2,abs_u3"]
            + [",".join(_fmt(v) for v in row) for row in rows]
        ) + "\n"
        assert _rendered(rows) == expect

    @given(_ROWS)
    def test_json_rows_match_dumps(self, rows):
        # ... and the JSON renderer every float exactly as json.dumps does
        rows += [_EDGE_ROW]
        doc = {"columns": CSV_HEADER.split(","), "rows": rows}
        expect = json.dumps(doc, indent=None, separators=(",", ":"), sort_keys=True) + "\n"
        assert _rendered(rows, shortest=True) == expect


class TestReportTypes:
    def test_grid_spec_validation(self):
        from tccss.report import GridSpec

        with pytest.raises(ValueError):
            GridSpec(1.0, -1.0, 5, 0.0, 1.0, 2)
        with pytest.raises(ValueError):
            GridSpec(-1.0, 1.0, 1, 0.0, 1.0, 2)
        with pytest.raises(ValueError):
            GridSpec(-1.0, 1.0, 5, 2.0, 1.0, 2)
        with pytest.raises(ValueError):
            GridSpec(-1.0, 1.0, 5, 1.0, 1.0, 2)
        g = GridSpec(-1.0, 1.0, 3, 0.5, 0.5, 1)
        assert list(g.ts()) == [0.5]
        # the axis rule: up to MAX_AXIS_POINTS points, whichever axis
        GridSpec(-1.0, 1.0, MAX_AXIS_POINTS, 0.0, 1.0, MAX_AXIS_POINTS)
        for nx, nt in ((MAX_AXIS_POINTS + 1, 2), (5, MAX_AXIS_POINTS + 1)):
            with pytest.raises(ValueError, match="the most points of a float64 array"):
                GridSpec(-1.0, 1.0, nx, 0.0, 1.0, nt)
        scattering.check_domain(-1e17, 1e17, (MAX_AXIS_POINTS - 1) // 2)
        with pytest.raises(ValueError, match=r"^2 n_steps \+ 1 = "):
            scattering.check_domain(-1e17, 1e17, (MAX_AXIS_POINTS + 1) // 2)

    def test_residual_report_norm_ordering(self):
        from tccss.report import ResidualReport, summarize

        with pytest.raises(ValueError):
            ResidualReport("x", 1.0, 2.0, "grid")
        r = summarize("x", [1.0, 3.0, 2.0], "grid")
        assert r.max_abs == 3.0
        assert r.rms <= r.max_abs


class TestScatteringCheck:
    def test_roundtrip_recorded_in_report(self):
        doc = json.loads(MINIMAL)
        doc["checks"] = ["scattering"]
        doc["scattering"] = {"x_min": -30.0, "x_max": 30.0, "n_steps": 3000, "t": 0.0}
        outcome = run_checks(parse_config(json.dumps(doc)))
        assert outcome.passed
        check = outcome.checks[0]
        assert check.report.max_abs < 1e-5
        assert any("recovered" in n for n in check.report.notes)
        assert any("reflection" in n for n in check.report.notes)

    @staticmethod
    def scattering_cfg(spectrum):
        return RunConfig(spectrum, checks=("scattering",), scattering=ScatteringSpec(-40.0, 40.0, 4000))

    @staticmethod
    def trace_diff(report):
        note = next(n for n in report.notes if n.startswith("trace identity: int sum |u_m|^2 dx = "))
        return float(note.split("|diff| = ")[1])

    @pytest.mark.parametrize("fig", [1, 2, 3, 4])
    def test_zero_notes_as_parsed(self, fig):
        # one "zero j" note per configured zero, read as bench/oracle.py reads it;
        # a Type I note carries its mirror -conj z in the same line.  The trace
        # identity int sum |u_m|^2 dx = 2 sum Im z_j holds to rounding
        cfg = self.scattering_cfg(figure_spectrum(fig))
        outcome = run_checks(cfg)
        assert outcome.passed, outcome.checks[0].report
        notes = outcome.checks[0].report.notes
        zero_notes = [n for n in notes if n.startswith("zero ")]
        assert len(zero_notes) == len(cfg.spectrum.zeros)
        for j, (note, z) in enumerate(zip(zero_notes, cfg.spectrum.zeros)):
            assert note.startswith(f"zero {j + 1}: constructed {z:.6g}, recovered ")
            recovered = complex(note.split("recovered ")[1].split(",")[0].replace(" ", ""))
            assert abs(recovered - z) < 1e-6
            assert ("; mirror " in note) == (cfg.spectrum.family is Family.TYPE_I)
            if "; mirror " in note:
                assert note.split("; mirror ")[1].startswith(f"{-z.conjugate():.6g}, recovered ")
        assert outcome.checks[0].report.max_abs < 1e-6
        assert self.trace_diff(outcome.checks[0].report) < 1e-12

    def test_newton_step_against_closed_form(self):
        # |diff| is |Omega77(z) / B'(z)|; B' here by central difference of B
        cfg = self.scattering_cfg(figure_spectrum(4))
        zeros = cfg.spectrum.expanded_zeros()
        table = scattering.sample_potential(partial(eval_fields_array, cfg.spectrum), 0.0, -40.0, 40.0, 4000)

        def blaschke(lam):
            return np.prod((lam - zeros) / (lam - np.conj(zeros)))

        notes = run_checks(cfg).checks[0].report.notes
        for j, z in enumerate(zeros):
            d = (blaschke(z + 1e-6) - blaschke(z - 1e-6)) / 2e-6
            diff = abs(scattering.omega77_from_table(table, z) / d)
            assert notes[j].endswith(f"|diff| = {diff:.3e}")

    @pytest.mark.parametrize("fig", [2, 4])
    def test_moved_zeros_fail(self, monkeypatch, fig):
        # negative control: the field of one spectrum, checked against its
        # zeros moved by 1e-4, fails; unmoved, it passes
        spectrum = figure_spectrum(fig)
        moved = dataclasses.replace(spectrum, zeros=(spectrum.zeros[0] + 1e-4j, *spectrum.zeros[1:]))
        monkeypatch.setattr(verify, "eval_fields_array", lambda _, x, t: eval_fields_array(spectrum, x, t))
        assert run_checks(self.scattering_cfg(spectrum)).passed
        report = run_checks(self.scattering_cfg(moved)).checks[0].report
        assert report.max_abs > 5e-5

    @pytest.mark.parametrize("fig", [2, 4])
    def test_trace_identity_flags_moved_zeros(self, monkeypatch, fig):
        # negative control: the field of one spectrum, checked against every
        # zero moved by 0.01i, breaks the identity by 0.02 per expanded zero
        spectrum = figure_spectrum(fig)
        moved = dataclasses.replace(spectrum, zeros=tuple(z + 0.01j for z in spectrum.zeros))
        monkeypatch.setattr(verify, "eval_fields_array", lambda _, x, t: eval_fields_array(spectrum, x, t))
        outcome = run_checks(self.scattering_cfg(moved))
        assert not outcome.passed
        want = 0.02 * len(moved.expanded_zeros())
        assert self.trace_diff(outcome.checks[0].report) == pytest.approx(want, rel=1e-3)

    @pytest.mark.parametrize("fig, rank", [(2, 4), (4, 2)])
    def test_channel_note(self, fig, rank):
        # the last note names the rank of the samples and the size of the step products
        note = run_checks(self.scattering_cfg(figure_spectrum(fig))).checks[0].report.notes[-1]
        head = f"potential spans {rank} of 6 channel directions (singular values over the largest: 1.000e+00, "
        assert note.startswith(head) and note.endswith(f"); step products {rank + 1}x{rank + 1}")
        ratios = [float(v) for v in note.split(": ")[1].split(")")[0].split(", ")]
        assert min(ratios[:rank]) > 0.1 and max(ratios[rank:]) < 1e-13

    def test_vacuum_channel_note(self):
        doc = json.loads(MINIMAL)
        doc["spectrum"]["seeds"] = [{"alpha": [0, 0], "gamma": [0, 0], "rho": [0, 0]}]
        doc["checks"] = ["scattering"]
        doc["scattering"] = {"x_min": -30.0, "x_max": 30.0, "n_steps": 3000, "t": 0.0}
        note = run_checks(parse_config(json.dumps(doc))).checks[0].report.notes[-1]
        assert note == ("potential spans 0 of 6 channel directions (singular values over the largest: "
                        + ", ".join(["0.000e+00"] * 6) + "); step products 1x1")

    def test_zero_seed_fails_with_residual_two(self):
        # a zero seed gives the vacuum, Omega77 = 1, against B of one zero: residual 2
        doc = json.loads(MINIMAL)
        doc["spectrum"]["seeds"] = [{"alpha": [0, 0], "gamma": [0, 0], "rho": [0, 0]}]
        doc["checks"] = ["scattering"]
        doc["scattering"] = {"x_min": -30.0, "x_max": 30.0, "n_steps": 3000, "t": 0.0}
        outcome = run_checks(parse_config(json.dumps(doc)))
        assert not outcome.passed
        assert outcome.checks[0].report.max_abs == pytest.approx(2.0, abs=1e-12)


class TestFigures:
    def test_figure1_component_ratio(self, tmp_path):
        csv_path, json_path = run_figure(1, tmp_path)
        rows = csv_path.read_text().strip().split("\n")[1:]
        for line in rows:
            vals = [float(v) for v in line.split(",")]
            abs_u1, abs_u2, abs_u3 = vals[8], vals[9], vals[10]
            assert abs(abs_u2 - math.sqrt(2) * abs_u1) < 1e-10
            assert abs(abs_u3 - math.sqrt(2) * abs_u1) < 1e-10
        sidecar = json.loads(json_path.read_text())
        assert sidecar["pde_check"]["passed"]

    def test_figure4_sidecar_pde(self, tmp_path):
        _, json_path = run_figure(4, tmp_path)
        sidecar = json.loads(json_path.read_text())
        assert sidecar["pde_check"]["max_abs"] < 1e-4
        assert sidecar["parameters"]["family"] == "TypeII"

    def test_figure2_notes_delta_default(self, tmp_path):
        _, json_path = run_figure(2, tmp_path)
        sidecar = json.loads(json_path.read_text())
        assert any("delta" in n for n in sidecar["notes"])

    def test_invalid_id(self, tmp_path):
        with pytest.raises(ValueError, match="1..4"):
            run_figure(5, tmp_path)
        with pytest.raises(ValueError):
            figure_spectrum(0)


class TestCli:
    def run_cli(self, *args, cwd=None):
        return subprocess.run(
            [sys.executable, "-m", "tccss.cli", *args],
            capture_output=True,
            text=True,
            cwd=cwd,
        )

    def test_generate_and_exit_zero(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        # shrink the grid for speed
        doc = json.loads(MINIMAL)
        doc["grid"] = {"x_min": -2.0, "x_max": 2.0, "nx": 9, "t_min": 0.0, "t_max": 0.0, "nt": 1}
        cfg_path.write_text(json.dumps(doc))
        out_path = tmp_path / "fields.csv"
        proc = self.run_cli("generate", "--config", str(cfg_path), "--out", str(out_path))
        assert proc.returncode == 0, proc.stderr
        assert out_path.exists()

    def test_malformed_json_exit_two(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{broken")
        proc = self.run_cli("generate", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_invalid_spectrum_exit_two(self, tmp_path):
        doc = json.loads(MINIMAL)
        doc["spectrum"]["zeros"] = [[0.5, -0.5]]
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(doc))
        proc = self.run_cli("generate", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert "upper half-plane" in proc.stderr

    def test_verify_pass_and_fail_exit_codes(self, tmp_path):
        doc = json.loads(MINIMAL)
        doc["grid"] = {"x_min": -3.0, "x_max": 3.0, "nx": 5, "t_min": -0.1, "t_max": 0.1, "nt": 3}
        doc["checks"] = ["rh_symmetry"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        report_path = tmp_path / "report.json"
        proc = self.run_cli(
            "verify", "--config", str(cfg_path), "--json", str(report_path)
        )
        assert proc.returncode == 0, proc.stderr
        assert "[PASS] rh_symmetry" in proc.stdout
        payload = json.loads(report_path.read_text())
        assert payload["passed"] is True
        assert payload["checks"][0]["threshold"] == 1e-10

        doc["thresholds"] = {"rh_symmetry": 1e-30}
        cfg_path.write_text(json.dumps(doc))
        proc = self.run_cli("verify", "--config", str(cfg_path))
        assert proc.returncode == 1
        assert "[FAIL]" in proc.stdout

    def test_figure_command(self, tmp_path):
        proc = self.run_cli("figure", "--id", "3", "--out-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "figure3.csv").exists()
        assert (tmp_path / "figure3.json").exists()

    def test_figure_bad_id(self, tmp_path):
        proc = self.run_cli("figure", "--id", "5", "--out-dir", str(tmp_path))
        assert proc.returncode == 2
        assert proc.stderr == "error: figure id must be in 1..4, got 5\n"
        assert not list(tmp_path.iterdir())

    def test_scatter_sweep(self, tmp_path):
        doc = json.loads(MINIMAL)
        doc["scattering"] = {"x_min": -30.0, "x_max": 30.0, "n_steps": 3000, "t": 0.0}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out_path = tmp_path / "sweep.csv"
        proc = self.run_cli(
            "scatter", "--config", str(cfg_path),
            "--lambda-re", "0.5:1.5:3", "--out", str(out_path),
        )
        assert proc.returncode == 0, proc.stderr
        lines = out_path.read_text().strip().split("\n")
        assert lines[0].startswith("lambda,abs_omega77")
        assert len(lines) == 4
        for line in lines[1:]:
            vals = [float(v) for v in line.split(",")]
            assert abs(vals[1]) <= 1.0 + 1e-9   # |Omega77| <= 1 on the real axis
            assert max(vals[2:]) < 1e-5          # reflectionless

    @pytest.mark.parametrize("sweep, message", [
        ("nan:1:3", "endpoints must be finite"),
        ("0.2:inf:3", "endpoints must be finite"),
        # finite endpoints whose span overflows: refused before numpy's linspace warns
        ("1e308:-1e308:3", "span stop - start must be finite"),
        # finite endpoints beyond the RK4 step's stability bound (h = 0.02: 70.7)
        ("1e200:1e201:2", "lambda = 1e+200 exceeds the RK4 stability bound"),
        ("70:71:2", "lambda = 71 exceeds the RK4 stability bound"),
    ])
    def test_scatter_non_finite_exit_two(self, tmp_path, sweep, message):
        doc = json.loads(MINIMAL)
        doc["scattering"] = {"x_min": -30.0, "x_max": 30.0, "n_steps": 3000, "t": 0.0}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out_path = tmp_path / "sweep.csv"
        proc = self.run_cli(
            "scatter", "--config", str(cfg_path), "--lambda-re", sweep, "--out", str(out_path),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert message in proc.stderr
        assert not out_path.exists()

    @pytest.mark.parametrize("zeros, message", [
        # cond(M) >= 4e15 at every x: the two zeros are 1e-13 apart
        ([[0.0, 1.0], [0.0, 1.0000000000001]], "near-singular"),
        # the flow exponent lambda^3 t overflows double precision
        ([[0.0, 1e308]], "non-finite field"),
    ])
    def test_numerical_failure_exit_two(self, tmp_path, zeros, message):
        doc = json.loads(MINIMAL)
        doc["spectrum"]["zeros"] = zeros
        doc["spectrum"]["seeds"] = doc["spectrum"]["seeds"] * len(zeros)
        doc["grid"] = {"x_min": -2.0, "x_max": 2.0, "nx": 5, "t_min": 0.0, "t_max": 1.0, "nt": 2}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        proc = self.run_cli("generate", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert message in proc.stderr

    def test_missing_subcommand_usage_error(self):
        proc = self.run_cli()
        assert proc.returncode == 2
