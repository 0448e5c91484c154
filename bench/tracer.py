"""Layer spans recorded from outside the program.

The tracer replaces each target function with a timing wrapper in every
``tccss`` module namespace that holds it (``soliton.eval_fields`` is also
``io_cli.eval_fields``), so calls are seen however the caller reached them.
Nothing in ``src/`` is edited.  Spans are aggregated in memory per thread:

* calls, inclusive time and self time (inclusive minus the time of wrapped
  children on the same thread), so a thread pool's summed busy time can
  exceed the wall time without double counting inside one thread;
* a work count taken from the arguments (grid points, lambdas, RK4 steps);
* for every pair (ancestor, target), how many target calls ran inside the
  ancestor's span, e.g. field evaluations inside ``lax.pde``.

A target that no longer exists (renamed or deleted by a refactor) is listed
as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict


def _grid_points(grid) -> int:
    return int(grid.nx) * int(grid.nt)


def _n_lambdas(lams) -> int:
    return len(lams)


# (layer name, module, attribute, work count from (args, kwargs) or None)
TARGETS = (
    ("soliton.eval_fields", "tccss.soliton", "eval_fields", None),
    ("algebra.solve", "tccss.algebra", "_lu_solve_array", None),
    ("algebra.det", "tccss.algebra", "det", None),
    ("lax.pde", "tccss.lax", "pde_residual_tccss", lambda a, k: _grid_points(a[1])),
    ("lax.cnls", "tccss.lax", "gauge_transform_and_cnls_residual", lambda a, k: _grid_points(a[1])),
    ("lax.zero_curvature", "tccss.lax", "zero_curvature_residual", None),
    ("rhp.symmetry", "tccss.rhp", "symmetry_residuals", None),
    ("rhp.build_rh_pair", "tccss.rhp", "build_rh_pair", None),
    ("scattering.sample_potential", "tccss.scattering", "sample_potential", None),
    ("scattering.omega77", "tccss.scattering", "omega77_from_table", None),
    ("scattering.locate_zero", "tccss.scattering", "locate_zero_from_table", None),
    ("scattering.sweep", "tccss.scattering", "coupling_row_sweep", lambda a, k: _n_lambdas(a[1])),
    ("scattering.path", "tccss.scattering", "_rk4_path", lambda a, k: int(a[0].n_steps)),
    ("scattering.rk4_batch", "tccss.scattering", "_rk4_final",
     lambda a, k: int(a[0].n_steps) * _n_lambdas(a[1])),
    ("io_cli.parse_config", "tccss.io_cli", "parse_config", None),
    ("io_cli.evaluate_grid", "tccss.io_cli", "evaluate_grid", lambda a, k: _grid_points(a[0].grid)),
    ("io_cli.render_csv", "tccss.io_cli", "render_rows_csv", None),
    ("io_cli.render_json", "tccss.io_cli", "render_rows_json", None),
    ("io_cli.run_checks", "tccss.io_cli", "run_checks", None),
)


class _ThreadState:
    def __init__(self, is_main: bool):
        self.is_main = is_main
        self.stack: list[list] = []  # [name, child seconds]
        self.stats: dict[str, list] = {}  # name -> [calls, incl_s, self_s, work]
        self.under: dict[tuple[str, str], int] = defaultdict(int)
        self.roots: list[tuple[str, float, float]] = []


class Tracer:
    """Installs wrappers around TARGETS; ``uninstall`` puts the originals back."""

    def __init__(self):
        self._tls = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.work_failed: set[str] = set()

    def _state(self) -> _ThreadState:
        st = getattr(self._tls, "state", None)
        if st is None:
            st = _ThreadState(threading.current_thread() is threading.main_thread())
            self._tls.state = st
            with self._lock:
                self._states.append(st)
        return st

    def _wrap(self, name, fn, work):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            for frame in stack:
                st.under[frame[0], name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                dt = t1 - t0
                stack.pop()
                rec = st.stats.get(name)
                if rec is None:
                    rec = st.stats[name] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                elif st.is_main:
                    st.roots.append((name, t0, t1))
                if work is not None:
                    try:
                        rec[3] += work(args, kwargs)
                    except (AttributeError, IndexError, TypeError, ValueError):
                        tracer.work_failed.add(name)

        return wrapper

    def install(self) -> None:
        for name, module_name, attr, work in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, work)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "tccss" or mod_name.startswith("tccss.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def summary(self) -> dict:
        """Merged per-thread aggregates; JSON-ready."""
        stats: dict[str, list] = {}
        under: dict[str, int] = defaultdict(int)
        roots: list[tuple[str, float, float]] = []
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, rec in st.stats.items():
                acc = stats.setdefault(name, [0, 0.0, 0.0, 0])
                for i in range(4):
                    acc[i] += rec[i]
            for (anc, name), n in st.under.items():
                under[f"{anc}>{name}"] += n
            roots.extend(st.roots)
        return {
            "stats": {k: {"calls": v[0], "incl_s": v[1], "self_s": v[2], "work": v[3]}
                      for k, v in stats.items()},
            "under": dict(under),
            "roots": roots,
            "absent": list(self.absent),
            "work_failed": sorted(self.work_failed),
            "threads": len(states),
        }
