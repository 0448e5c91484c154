"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines; every tolerance is pinned here, not configurable.
"""

import math
import subprocess
import sys
from functools import partial

import numpy as np
import pytest

from tccss.io_cli import RunConfig, figure_config, figure_spectrum, run_checks, run_figure
from tccss.lax import StencilSpec, jet_table, zero_curvature_residual
from tccss.report import GridSpec
from tccss.rhp import symmetry_residuals
from tccss.scattering import (
    coupling_row_sweep,
    norm_drift_from_table,
    omega77_from_table,
    sample_potential,
    zeros_in_disk,
)
from tccss.soliton import (
    SpectrumError,
    breather_closed_form,
    eval_fields_array,
    eval_jets_array,
    one_soliton_closed_form,
    two_soliton_closed_form,
    TypeIISeed,
)


def report(criterion: int, detail: str):
    print(f"\n[acceptance] criterion {criterion}: PASS  ({detail})")


FIG1 = dict(
    alpha=1j / math.sqrt(3),
    gamma=math.sqrt(2) * 1j / math.sqrt(3),
    rho=math.sqrt(2) * 1j / math.sqrt(3),
    xi=0.5,
    eta=0.5,
)
FIG4_SEEDS = (TypeIISeed(1.0, 1.0 + 1.0j, 1.0 + 1.0j), TypeIISeed(1j, 0.5j, 1j))
FIG4_ZEROS = (0.3j, 0.5j)


def oracle_grid():
    return [(float(x), float(t)) for x in np.linspace(-5, 5, 21) for t in np.linspace(-1, 1, 21)]


def test_criterion_1_closed_form_oracle_equivalence():
    worst = 0.0
    x, t = np.array(oracle_grid()).T
    cases = (
        (3, partial(one_soliton_closed_form, 1.0, 2.0, 3.0, 1.0)),
        (1, partial(breather_closed_form, FIG1["alpha"], FIG1["gamma"], FIG1["rho"], FIG1["xi"], FIG1["eta"])),
        (4, partial(two_soliton_closed_form, *FIG4_SEEDS, *FIG4_ZEROS)),
    )
    for fig_id, closed in cases:
        # the field kernel once per grid, the closed form point by point
        u = eval_fields_array(figure_spectrum(fig_id), x, t)
        cf = np.array([closed(float(xp), float(tp)) for xp, tp in zip(x, t)])
        worst = max(worst, float(np.max(np.abs(cf - u))))

    assert worst < 1e-10
    report(1, f"closed forms vs construction, max diff {worst:.2e} < 1e-10")


def verify_max_abs(fig_id: int, check: str, grid: GridSpec, st: StencilSpec) -> float:
    """max_abs of one check as `verify` runs it: the larger of the exact jet
    residual and the stencil cross-check of the jet orders it reads."""
    cfg = RunConfig(figure_spectrum(fig_id), grid=grid, stencil=st, checks=(check,))
    return run_checks(cfg).checks[0].report.max_abs


def test_criterion_2_pde_residual():
    grid = GridSpec(-5.0, 5.0, 41, -0.5, 0.5, 11)
    st = StencilSpec(hx=1e-3, ht=1e-3, order=4)
    r3 = verify_max_abs(3, "pde", grid, st)
    r4 = verify_max_abs(4, "pde", grid, st)
    assert r3 < 1e-5
    assert r4 < 1e-4

    small = GridSpec(-2.0, 2.0, 11, -0.2, 0.2, 3)
    coarse = verify_max_abs(3, "pde", small, StencilSpec(hx=0.04, ht=0.04))
    fine = verify_max_abs(3, "pde", small, StencilSpec(hx=0.02, ht=0.02))
    ratio = coarse / fine
    assert 10.0 < ratio < 22.0
    report(2, f"pde max-abs {r3:.2e} / {r4:.2e}; halving ratio {ratio:.1f}")


def zero_curvature_probes():
    """Five seeded (lambda, x, t) probes per figure, figures 1..4 in order."""
    rng = np.random.default_rng(0)
    probes = {}
    for fig_id in (1, 2, 3, 4):
        probes[fig_id] = [
            (complex(rng.uniform(-2, 2), rng.uniform(0, 0.5)),
             float(rng.uniform(-3, 3)),
             float(rng.uniform(-0.5, 0.5)))
            for _ in range(5)
        ]
    return probes


def zero_curvature_at(fig_id: int, h: float, probes) -> tuple[list[float], dict]:
    """Exact zero-curvature residual at each probe, and the cross-check of
    the probes' jets against a step-h stencil."""
    cfg = figure_spectrum(fig_id)
    x = np.array([p[1] for p in probes])
    t = np.array([p[2] for p in probes])
    jets, cross = jet_table(
        partial(eval_fields_array, cfg), partial(eval_jets_array, cfg), x, t,
        StencilSpec(hx=h, ht=h, order=4),
    )
    residuals = [float(zero_curvature_residual(lam, jets[:, [i]])[0]) for i, (lam, _, _) in enumerate(probes)]
    return residuals, cross


def test_criterion_3_zero_curvature():
    probes = zero_curvature_probes()
    worst = 0.0
    for fig_id in (1, 2, 3, 4):
        residuals, cross = zero_curvature_at(fig_id, 1e-3, probes[fig_id])
        worst = max(worst, *residuals, *cross.values())
    assert worst < 1e-6
    report(3, f"zero-curvature over 4 configs x 5 points, max {worst:.2e} < 1e-6")


def test_criterion_3_probe_step_is_truncation_limited():
    # at h = 6e-3 the cross-check of the figure 2 probes is stencil
    # truncation, which grows as h^4: widening the step by 1.25 must
    # multiply each order's discrepancy by about 1.25^4, which a wrong jet
    # (a discrepancy that does not shrink with h) or roundoff would not do
    probes = zero_curvature_probes()[2]
    _, at_h = zero_curvature_at(2, 6e-3, probes)
    _, wider = zero_curvature_at(2, 1.25 * 6e-3, probes)
    expect = 1.25 ** 4
    for order in ("x1", "x2", "x3", "t1"):
        assert expect / 1.5 <= wider[order] / at_h[order] <= expect * 1.5


def test_criterion_4_rh_identities():
    samples = [complex(v) for v in np.linspace(-3, 3, 20)] + [1.0 + 1.0j]
    worst = 0.0
    for fig_id in (2, 4):
        res = symmetry_residuals(figure_spectrum(fig_id), 0.7, 0.3, samples)
        assert res["jump"] < 1e-10
        assert res["hermitian"] < 1e-10
        assert res["kernel"] < 1e-10
        assert res["det_at_zeros"] < 1e-10
        if fig_id == 2:
            assert res["sigma"] < 1e-10
        worst = max(worst, *res.values())
    report(4, f"all RH identities on figure-2/4 spectra, max residual {worst:.2e}")


def test_criterion_5_gauge_transform_round_trip():
    grid = GridSpec(-5.0, 5.0, 41, -0.5, 0.5, 11)
    r = verify_max_abs(3, "cnls", grid, StencilSpec(hx=1e-3, ht=1e-3, order=4))
    assert r < 1e-4
    report(5, f"transformed field satisfies the CNLS form, max-abs {r:.2e} < 1e-4")


def test_criterion_6_direct_scattering_round_trip():
    # every zero in a disk, from one contour pass: the count exactly, each zero
    # to 1e-5 of the one constructed
    error = 0.0
    tables = []
    for fig, center, radius in ((3, 0.8j, 0.6), (4, 0.45j, 0.4)):
        spectrum = figure_spectrum(fig)
        table = sample_potential(partial(eval_fields_array, spectrum), 0.0, -40.0, 40.0, 16000)
        found, _ = zeros_in_disk(table, center, radius)
        want = spectrum.expanded_zeros()
        assert len(found) == len(want)
        error = max(error, *(float(np.min(np.abs(found - z))) for z in want))
        tables.append(table)
    assert error < 1e-5
    table3, table4 = tables

    reflection = 0.0
    for table in (table3, table4):
        rows = coupling_row_sweep(table, np.array([0.3, 1.0, 2.0]))
        reflection = max(reflection, float(np.max(np.abs(rows[:, :6]))))
    assert reflection < 1e-6

    drift = norm_drift_from_table(table3, 1.0, 400)
    assert drift < 1e-8
    report(
        6,
        f"zeros counted and recovered to {error:.2e}; "
        f"reflection {reflection:.2e}; column-7 norm drift {drift:.2e}",
    )


def test_criterion_7_isospectrality():
    f3 = partial(eval_fields_array, figure_spectrum(3))
    omega_t0 = omega77_from_table(sample_potential(f3, 0.0, -40.0, 40.0, 12000), 0.8)
    omega_t1 = omega77_from_table(sample_potential(f3, 0.2, -40.0, 40.0, 12000), 0.8)
    diff = abs(omega_t1 - omega_t0)
    assert diff < 1e-6
    report(7, f"|Omega77(0.8; t=0.2) - Omega77(0.8; t=0)| = {diff:.2e} < 1e-6")


def test_criterion_8_figure_reproduction(tmp_path):
    csv1, _ = run_figure(1, tmp_path / "f1")
    ratio_err = 0.0
    for line in csv1.read_text().strip().split("\n")[1:]:
        vals = [float(v) for v in line.split(",")]
        ratio_err = max(
            ratio_err,
            abs(vals[9] - math.sqrt(2) * vals[8]),
            abs(vals[10] - math.sqrt(2) * vals[8]),
        )
    assert ratio_err < 1e-10

    csv3, _ = run_figure(3, tmp_path / "f3")
    peak = max(
        float(line.split(",")[8]) for line in csv3.read_text().strip().split("\n")[1:]
    )
    peak_err = abs(peak - math.sqrt(2) / math.sqrt(14))
    assert peak_err < 1e-4

    # |t| = 30: each bell of the figure-4 parameter set matches a lone sech
    def envelope(x, t):
        u = two_soliton_closed_form(*FIG4_SEEDS, *FIG4_ZEROS, x, t)
        return float(np.sqrt(np.sum(np.abs(u) ** 2)))

    split_err = 0.0
    for t in (-30.0, 30.0):
        for eta in (0.3, 0.5):
            center = 4 * eta ** 2 * t
            xs = np.linspace(center - 12, center + 12, 2401)
            vals = np.array([envelope(float(x), t) for x in xs])
            x0 = float(xs[int(np.argmax(vals))])
            for x in np.linspace(x0 - 3 / (2 * eta), x0 + 3 / (2 * eta), 61):
                ref = math.sqrt(2) * eta / math.cosh(2 * eta * (float(x) - x0))
                split_err = max(split_err, abs(envelope(float(x), t) - ref))
    assert split_err < 1e-3
    report(
        8,
        f"figure-1 ratio err {ratio_err:.2e}; figure-3 peak err {peak_err:.2e}; "
        f"figure-4 splitting err {split_err:.2e}",
    )


def test_criterion_9_robustness(tmp_path):
    from tccss.io_cli import ConfigError, parse_config

    bad_configs = [
        # zero in the lower half-plane
        '{"spectrum": {"family": "TypeII", "zeros": [[0.0, -1.0]],'
        ' "seeds": [{"alpha": [1, 0], "gamma": [0, 0], "rho": [0, 0]}]}}',
        # coincident zeros
        '{"spectrum": {"family": "TypeII", "zeros": [[0.0, 0.3], [0.0, 0.3]],'
        ' "seeds": [{"alpha": [1, 0], "gamma": [0, 0], "rho": [0, 0]},'
        ' {"alpha": [0, 0], "gamma": [1, 0], "rho": [0, 0]}]}}',
        # TypeI base zero on the imaginary axis
        '{"spectrum": {"family": "TypeI", "zeros": [[0.0, 0.4]],'
        ' "seeds": [{"alpha": [1, 0], "beta": [1, 0], "gamma": [1, 0],'
        ' "mu": [1, 0], "rho": [1, 0], "delta": [0, 0]}]}}',
    ]
    matches = ("upper half-plane", "coincident", "must not be pure imaginary")
    for text, match in zip(bad_configs, matches):
        with pytest.raises((ConfigError, SpectrumError), match=match):
            parse_config(text)

    bad = tmp_path / "bad.json"
    bad.write_text('{"spectrum": [1, 2,')
    proc = subprocess.run(
        [sys.executable, "-m", "tccss.cli", "generate", "--config", str(bad), "--out", str(tmp_path / "o.csv")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr

    report(9, "invalid spectra rejected with named errors; CLI exits 2 on bad JSON")


def test_figure_verify_configs_all_pass():
    # the bundled verify path stays green for the figure parameter sets
    for fig_id in (1, 2, 3, 4):
        cfg = figure_config(fig_id)
        outcome = run_checks(cfg)
        assert outcome.passed, [c.report.name for c in outcome.checks if not c.passed]
