"""Output oracle: a 40-digit mpmath transcription of the kernel-vector formula,
plus scorers for the three kinds of CLI output.

The reference shares no code with the program: thetas, flowed seeds,
mirrored Type I vectors, the Gram matrix ``M``, ``lu_solve`` and
``u_m = 2i sum_k (v_k)_m (M^-1 vhat_7)_k`` for m in rows 1, 3, 5.  At 40
digits no exponential stabilization is needed on the benchmark's windows.

Each scorer returns ``(margins, problems)``.  A margin is
``log10(tolerance / error)`` in decades: positive while the error stays under
its tolerance.  A problem is a broken output contract (missing or garbled
output, an inconsistent verdict, a field off the oracle).
"""

from __future__ import annotations

import json
import math
import random

import mpmath

DPS = 40
# Field values against the 40-digit reference (fields are O(1)); the closed
# forms are held to the same 1e-10 in the program's own tests.
FIELD_TOL = 1e-10
# Scatter sweep: coupling entries vanish and |Omega77| = 1 on the real axis
# for a reflectionless field, to the documented scattering threshold.
SCATTER_TOL = 1e-5
SAMPLED_ROWS = 12
TINY = 1e-300

CSV_COLUMNS = "x,t,re_u1,im_u1,re_u2,im_u2,re_u3,im_u3,abs_u1,abs_u2,abs_u3".split(",")
REPORT_NAMES = {"pde": "pde_tccss", "cnls": "cnls_gauge", "zero_curvature": "zero_curvature",
                "rh_symmetry": "rh_symmetry", "scattering": "scattering"}
DEFAULT_THRESHOLDS = {"pde": 1e-4, "cnls": 1e-4, "zero_curvature": 1e-6,
                      "rh_symmetry": 1e-10, "scattering": 1e-5}


def margin(tol: float, err: float) -> float:
    return math.log10(tol / max(err, TINY))


def field_reference(spectrum: dict, x: float, t: float) -> list[complex]:
    """(u1, u2, u3) at (x, t) from the kernel-vector formula at 40 digits."""
    with mpmath.workdps(DPS):
        mpc = lambda p: mpmath.mpc(p[0], p[1])  # noqa: E731
        zeros = [mpc(z) for z in spectrum["zeros"]]
        if spectrum["family"] == "TypeI":
            names = ("alpha", "beta", "gamma", "mu", "rho", "delta")
            seeds = [[mpc(s[k]) for k in names] + [mpmath.mpc(1)] for s in spectrum["seeds"]]
        else:
            seeds = [[c for k in ("alpha", "gamma", "rho") for c in (mpc(s[k]), mpmath.conj(mpc(s[k])))]
                     + [mpmath.mpc(1)] for s in spectrum["seeds"]]
        cols = []
        for lam, seed in zip(zeros, seeds):
            th = 1j * lam * x + 4j * lam ** 3 * t
            cols.append([c * mpmath.exp(th) for c in seed[:6]] + [seed[6] * mpmath.exp(-th)])
        lams = list(zeros)
        if spectrum["family"] == "TypeI":
            swap = (1, 0, 3, 2, 5, 4, 6)
            cols += [[mpmath.conj(v[swap[i]]) for i in range(7)] for v in cols]
            lams += [-mpmath.conj(z) for z in zeros]
        m = len(cols)
        gram = mpmath.matrix(m, m)
        for k in range(m):
            for j in range(m):
                dot = mpmath.fsum(mpmath.conj(cols[k][i]) * cols[j][i] for i in range(7))
                gram[k, j] = dot / (lams[j] - mpmath.conj(lams[k]))
        y = mpmath.lu_solve(gram, mpmath.matrix([mpmath.conj(v[6]) for v in cols]))
        return [complex(2j * mpmath.fsum(cols[k][row] * y[k] for k in range(m))) for row in (0, 2, 4)]


def _nodes(lo: float, hi: float, n: int) -> list[float]:
    return [lo] if n == 1 else [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def parse_grid(text: str, fmt: str) -> list[list[float]]:
    if fmt == "csv":
        lines = text.splitlines()
        if not lines or lines[0] != ",".join(CSV_COLUMNS):
            raise ValueError("bad CSV header")
        return [[float(v) for v in line.split(",")] for line in lines[1:]]
    doc = json.loads(text)
    if doc.get("columns") != CSV_COLUMNS:
        raise ValueError("bad JSON columns")
    return [[float(v) for v in row] for row in doc["rows"]]


def score_grid(text: str, cfg: dict, pick: random.Random) -> tuple[list, list]:
    """Layout of every row, and sampled rows against the reference."""
    fmt = cfg["output"]["format"]
    try:
        rows = parse_grid(text, fmt)
    except (ValueError, KeyError, TypeError) as exc:
        return [], [f"unparsable {fmt} output: {exc}"]
    g = cfg["grid"]
    xs = _nodes(g["x_min"], g["x_max"], g["nx"])
    ts = _nodes(g["t_min"], g["t_max"], g["nt"])
    if len(rows) != len(xs) * len(ts) or any(len(r) != len(CSV_COLUMNS) for r in rows):
        return [], [f"expected {len(xs) * len(ts)} rows of {len(CSV_COLUMNS)} values"]
    problems = []
    for k, row in enumerate(rows):
        x, t = xs[k % len(xs)], ts[k // len(xs)]
        if abs(row[0] - x) > 1e-12 * max(1.0, abs(x)) or abs(row[1] - t) > 1e-12 * max(1.0, abs(t)):
            problems.append(f"row {k}: (x, t) = ({row[0]}, {row[1]}) off the t-major grid")
            break
        for m in range(3):
            mag = math.hypot(row[2 + 2 * m], row[3 + 2 * m])
            if not math.isfinite(row[8 + m]) or abs(row[8 + m] - mag) > 1e-14 * max(1.0, mag):
                problems.append(f"row {k}: abs_u{m + 1} disagrees with its components")
                break
    # random rows plus the crest, where the field and its error are largest
    sample = pick.sample(range(len(rows)), min(SAMPLED_ROWS, len(rows)))
    sample.append(max(range(len(rows)), key=lambda k: rows[k][8] + rows[k][9] + rows[k][10]))
    worst = 0.0
    for k in sample:
        row = rows[k]
        ref = field_reference(cfg["spectrum"], row[0], row[1])
        got = [complex(row[2 + 2 * m], row[3 + 2 * m]) for m in range(3)]
        err = max(abs(a - b) for a, b in zip(got, ref))
        worst = max(worst, err)
        if not err <= FIELD_TOL:
            problems.append(f"row {k} at (x, t) = ({row[0]}, {row[1]}): |u - u_ref| = {err:.3e}")
    return [("field", margin(FIELD_TOL, worst))], problems


def score_verify(report_text: str, stdout: str, rc: int, cfg: dict) -> tuple[list, list]:
    """The JSON report must match the configured checks and the exit code."""
    try:
        report = json.loads(report_text)
        checks = report["checks"]
        names = [c["name"] for c in checks]
    except (ValueError, KeyError, TypeError) as exc:
        return [], [f"unparsable verify report: {exc}"]
    want = [REPORT_NAMES[c] for c in cfg["checks"]]
    if names != want:
        return [], [f"report checks {names}, configured {want}"]
    problems, margins = [], []
    for name, check in zip(cfg["checks"], checks):
        max_abs, threshold = check.get("max_abs"), check.get("threshold")
        if not (isinstance(max_abs, float) and math.isfinite(max_abs) and max_abs >= 0.0):
            problems.append(f"{name}: max_abs {max_abs!r} is not a finite residual")
            continue
        if threshold != DEFAULT_THRESHOLDS[name]:
            problems.append(f"{name}: threshold {threshold!r}, documented {DEFAULT_THRESHOLDS[name]}")
        if check.get("passed") is not (max_abs < threshold):
            problems.append(f"{name}: passed = {check.get('passed')} with max_abs {max_abs:.3e}")
        margins.append((name, margin(threshold, max_abs)))
        if name == "scattering":
            problems += _recovered_zero_problems(check.get("notes", []), cfg["spectrum"]["zeros"])
    verdict = all(c.get("passed") is True for c in checks)
    if report.get("passed") is not verdict or rc != (0 if verdict else 1):
        problems.append(f"exit code {rc} with report passed = {report.get('passed')}")
    if sum(line.startswith(("[PASS] ", "[FAIL] ")) for line in stdout.splitlines()) != len(checks):
        problems.append("stdout does not list one verdict line per check")
    return margins, problems


def _recovered_zero_problems(notes: list, zeros: list) -> list:
    # notes print zeros with 6 significant digits: compare to that precision
    found = [n for n in notes if n.startswith("zero ")]
    if len(found) != len(zeros):
        return [f"scattering notes list {len(found)} zeros, spectrum has {len(zeros)}"]
    problems = []
    for note, z in zip(found, zeros):
        try:
            recovered = complex(note.split("recovered ")[1].split(",")[0].replace(" ", ""))
        except (IndexError, ValueError):
            problems.append(f"unparsable zero note {note!r}")
            continue
        if abs(recovered - complex(*z)) > SCATTER_TOL + 1e-5 * abs(complex(*z)):
            problems.append(f"recovered zero {recovered} is not the constructed {complex(*z)}")
    return problems


def score_scatter(text: str, sweep: str) -> tuple[list, list]:
    """Real-lambda sweep of a reflectionless field: |Omega_k7| ~ 0, |Omega77| ~ 1."""
    start, stop, count = sweep.split(":")
    lams = _nodes(float(start), float(stop), int(count))
    header = "lambda,abs_omega77," + ",".join(f"abs_omega{k}7" for k in range(1, 7))
    lines = text.splitlines()
    try:
        if lines[0] != header:
            raise ValueError("bad header")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    except (IndexError, ValueError) as exc:
        return [], [f"unparsable scatter output: {exc}"]
    if len(rows) != len(lams) or any(len(r) != 8 for r in rows):
        return [], [f"expected {len(lams)} rows of 8 values"]
    problems = []
    coupling = unit = 0.0
    for lam, row in zip(lams, rows):
        if abs(row[0] - lam) > 1e-12:
            problems.append(f"lambda column {row[0]} != {lam}")
        coupling = max(coupling, *row[2:])
        unit = max(unit, abs(row[1] - 1.0))
    for label, err in (("coupling", coupling), ("omega77", unit)):
        if not err <= SCATTER_TOL:
            problems.append(f"{label} error {err:.3e} over {SCATTER_TOL}")
    return [("coupling", margin(SCATTER_TOL, coupling)), ("omega77", margin(SCATTER_TOL, unit))], problems
