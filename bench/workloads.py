"""Seeded inputs for the three benchmark workloads.

Every config is drawn from ``random.Random(seed)``; the same seed gives the
same JSON bytes.  Draws are never filtered or re-drawn: the ranges below are
chosen so that every draw is a valid spectrum, and a draw that the program
judges badly (for example the Type I N = 2 finite-difference verdict) stays
in the workload and shows up in the accuracy figures.

Ranges bracket the bundled figure sets (``io_cli.figure_spectrum``) and the
configs in ``docs/examples/``:

* ``typeI_n1``  breather (figure 1): zero xi + i eta, xi, eta in [0.45, 0.55];
  seed moduli 1/sqrt(3), sqrt(2/3), sqrt(2/3) scaled by [0.8, 1.2], any
  phase, conjugate-paired (beta = conj alpha, mu = conj gamma,
  delta = conj rho).  Grid 161 x 61 on [-6, 6] x [-3, 3].
* ``typeI_n2``  collision (figure 2): zeros (0.5 + 0.5i) and (0.4 + 0.6i),
  each coordinate moved by at most 0.03; each nonzero figure seed entry
  scaled by [0.8, 1.2].  Grid 201 x 61 on [-10, 10] x [-3, 3].
* ``typeII_n1`` bell soliton (figure 3): zero i eta, eta in [0.8, 1.2]; seed
  moduli 1, 2, 3 scaled by [0.8, 1.2], any phase.  Grid 201 x 41 on
  [-10, 10] x [-2, 2].
* ``typeII_n2`` two-bell (figure 4): zeros i eta1, i eta2 with
  eta1 in [0.3, 0.35], eta2 in [0.5, 0.55] (eta >= 0.3 keeps the default
  [-40, 40] scattering domain valid); figure seeds scaled by [0.8, 1.2].
  Grid 201 x 41 on [-20, 20] x [-10, 10].

Grids are fixed per shape, so the work per command depends on the seed only
through the spectrum (for example the number of secant steps).  The
scattering workload keeps the default [-40, 40] domain and t = 0 but takes
4000 RK4 steps (h = 0.02, an 8,001-point potential table) instead of the
default 16000, so that each command runs a few seconds and repeats within a
run (the latency normalisation in ``run.py`` needs short commands); every
RK4 use and the potential sampling scale linearly with the step count, and
every check still passes with about two decades to spare.
"""

from __future__ import annotations

import cmath
import math
import random

SHAPES = ("typeI_n1", "typeI_n2", "typeII_n1", "typeII_n2")

GRIDS = {
    "typeI_n1": {"x_min": -6.0, "x_max": 6.0, "nx": 161, "t_min": -3.0, "t_max": 3.0, "nt": 61},
    "typeI_n2": {"x_min": -10.0, "x_max": 10.0, "nx": 201, "t_min": -3.0, "t_max": 3.0, "nt": 61},
    "typeII_n1": {"x_min": -10.0, "x_max": 10.0, "nx": 201, "t_min": -2.0, "t_max": 2.0, "nt": 41},
    "typeII_n2": {"x_min": -20.0, "x_max": 20.0, "nx": 201, "t_min": -10.0, "t_max": 10.0, "nt": 41},
}

# Export format per shape: both renderers run in every round.
FORMATS = {"typeI_n1": "csv", "typeI_n2": "json", "typeII_n1": "csv", "typeII_n2": "json"}

FD_CHECKS = ["pde", "cnls", "zero_curvature", "rh_symmetry"]
SWEEP = "0.2:2.0:19"
SCATTERING = {"x_min": -40.0, "x_max": 40.0, "n_steps": 4000, "t": 0.0}
WORKLOADS = ("grid_export", "verify_fd", "scattering")


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _jitter(rng: random.Random, value: float, rel: float = 0.2) -> float:
    return value * rng.uniform(1.0 - rel, 1.0 + rel)


def _phased(rng: random.Random, modulus: float) -> complex:
    return cmath.rect(_jitter(rng, modulus), rng.uniform(0.0, 2.0 * math.pi))


def draw_spectrum(rng: random.Random, shape: str) -> dict:
    """One spectrum of the named shape, as the JSON ``spectrum`` object."""
    if shape == "typeI_n1":
        lam = complex(rng.uniform(0.45, 0.55), rng.uniform(0.45, 0.55))
        a, g, r = (_phased(rng, m) for m in (1 / math.sqrt(3), math.sqrt(2 / 3), math.sqrt(2 / 3)))
        seed = {"alpha": a, "beta": a.conjugate(), "gamma": g, "mu": g.conjugate(),
                "rho": r, "delta": r.conjugate()}
        return {"family": "TypeI", "zeros": [_pair(lam)],
                "seeds": [{k: _pair(v) for k, v in seed.items()}]}
    if shape == "typeI_n2":
        zeros = [complex(0.5 + rng.uniform(-0.03, 0.03), 0.5 + rng.uniform(-0.03, 0.03)),
                 complex(0.4 + rng.uniform(-0.03, 0.03), 0.6 + rng.uniform(-0.03, 0.03))]
        figure = [(1, 1, 1, 1, 1, 0), (1, 0, 2, 0, 0, 0)]
        names = ("alpha", "beta", "gamma", "mu", "rho", "delta")
        seeds = [{k: _pair(complex(_jitter(rng, v) if v else 0.0)) for k, v in zip(names, row)}
                 for row in figure]
        return {"family": "TypeI", "zeros": [_pair(z) for z in zeros], "seeds": seeds}
    if shape == "typeII_n1":
        eta = rng.uniform(0.8, 1.2)
        seed = {k: _pair(_phased(rng, m)) for k, m in zip(("alpha", "gamma", "rho"), (1, 2, 3))}
        return {"family": "TypeII", "zeros": [[0.0, eta]], "seeds": [seed]}
    if shape == "typeII_n2":
        etas = [rng.uniform(0.3, 0.35), rng.uniform(0.5, 0.55)]
        figure = [(1, 1 + 1j, 1 + 1j), (1j, 0.5j, 1j)]
        seeds = [{k: _pair(complex(v) * _jitter(rng, 1.0)) for k, v in zip(("alpha", "gamma", "rho"), row)}
                 for row in figure]
        return {"family": "TypeII", "zeros": [[0.0, e] for e in etas], "seeds": seeds}
    raise ValueError(f"unknown shape {shape!r}")


def build_plan(workload: str, seed: int) -> list[dict]:
    """One round of commands: each entry holds a name, a config and argv.

    Paths in argv are relative to the work directory the client runs in;
    ``{op}`` in an output path is replaced by the command's running index so
    that every command's output can be scored.
    """
    rng = random.Random(f"{workload}:{seed}")
    plan = []

    def add(shape, argv, checks=(), fmt="csv"):
        name = f"{len(plan)}_{shape}"
        cfg = {"spectrum": draw_spectrum(rng, shape), "grid": GRIDS[shape],
               "checks": list(checks), "output": {"path": f"{name}.{fmt}", "format": fmt}}
        if workload == "scattering":
            cfg["scattering"] = SCATTERING
        plan.append({"name": name, "config": cfg,
                     "argv": [a.replace("{cfg}", f"{name}.json") for a in argv]})

    if workload == "grid_export":
        for shape in SHAPES:
            fmt = FORMATS[shape]
            add(shape, ["generate", "--config", "{cfg}", "--out", "out_{op}." + fmt], fmt=fmt)
    elif workload == "verify_fd":
        for shape in SHAPES:
            add(shape, ["verify", "--config", "{cfg}", "--json", "out_{op}.json"], FD_CHECKS)
    elif workload == "scattering":
        for shape in ("typeII_n1", "typeII_n2"):
            add(shape, ["verify", "--config", "{cfg}", "--json", "out_{op}.json"], ["scattering"])
        for shape in ("typeI_n2", "typeII_n1"):
            add(shape, ["scatter", "--config", "{cfg}", "--lambda-re", SWEEP, "--out", "out_{op}.csv"])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return plan
