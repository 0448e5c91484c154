"""Outside-in benchmark of the tccss CLI.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --selftest

For one workload the benchmark draws its JSON configs from ``--seed``
(``workloads.py``), times interpreter set-up in fresh interpreters, and runs
the commands through ``tccss.cli.main(argv)`` in one fresh interpreter as a
closed loop with a single client (``client.py``).  Every command's output is
scored against a 40-digit reference and the README's contract
(``oracle.py``).  With ``--trace 1`` the same commands run once more under a
tracer that times calls into each module from outside (``tracer.py``), and
the per-layer metrics are reported instead of the end-to-end ones.

On a shared host a core's speed can flip between about 1x and 0.5x from one
second to the next, so every gated time is normalised by machine-speed probes run
in the client's main thread (``speed.py``) and expressed in seconds at the
reference speed.  A command's latency is multiplied by the mean of the
speeds probed just before it, every 0.1 s while it ran, and just after it.
While the default worker pool runs, the GIL passes between threads on every
core every few milliseconds, and the samples, which take the GIL in turn,
land on each core alike.  A set-up time is multiplied by the speed its own
interpreter probes right after it is ready.  Each command's latency is then
its median over its repeats in the run, so a partial last round or one slow
repeat does not shift the figures.  Measured times are printed beside the
normalised ones.

``failed_ratio`` and ``accuracy_digits`` are printed for every run and
reported as the per-layer metrics ``e2e.*``: the first reads 0 on a healthy
run and the second is negative on ``verify_fd`` (the Type I N = 2 stencil
verdict), so neither can carry a bound relative to its median; contract
breaks and oracle misses set ``correct`` and ``failed``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``TCCSS_THREADS`` is
removed from the program's environment so the default worker pool is
measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import workloads

CLIENT = Path(__file__).resolve().parent / "client.py"
# Set-up probes before and after the workload, so that the median spans
# more than one stretch of machine speed.
PROBES = (8, 8)
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not run (program missing, client crashed)."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("TCCSS_THREADS", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def write_inputs(plan: list[dict], work: Path) -> None:
    work.mkdir(parents=True, exist_ok=True)
    for item in plan:
        (work / f"{item['name']}.json").write_text(json.dumps(item["config"], indent=2) + "\n")
    (work / "plan.json").write_text(json.dumps([{k: item[k] for k in ("name", "argv")} for item in plan]))


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    """Wait for ``proc`` (killing it at the timeout); returns its stderr."""
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{' '.join(proc.args[1:3])} did not finish in time")
    return err


def time_setup(plan: list[dict], work: Path, env: dict, count: int) -> list[tuple[float, float]]:
    """(spawn-to-ready seconds, relative speed) of ``count`` fresh interpreters."""
    argv = [sys.executable, str(CLIENT), "probe"] + [f"{item['name']}.json" for item in plan]
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, cwd=work, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            rest = proc.stdout.read()
            err = _finish(proc, 60)
        if line != "ready\n" or proc.returncode != 0:
            raise BenchError(f"set-up probe failed (exit {proc.returncode}): {err.strip()[-2000:]}")
        times.append((t1 - t0, float(rest)))
    return times


def run_client(work: Path, env: dict, seconds: float, trace: bool, deadline: float) -> dict:
    """Run the client until it exits or the deadline passes."""
    argv = [sys.executable, str(CLIENT), "run", "plan.json", "result.json", str(seconds), "1" if trace else "0"]
    with open(work / "client.err", "w+", encoding="utf-8") as err, \
            subprocess.Popen(argv, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=err) as proc:
        while proc.poll() is None:
            if time.monotonic() > deadline:
                proc.kill()
                proc.wait()
                raise BenchError("client did not finish before the run deadline")
            time.sleep(0.1)
        err.seek(0)
        text = err.read()
    if proc.returncode != 0:
        raise BenchError(f"client exited {proc.returncode}: {text.strip()[-2000:]}")
    return json.loads((work / "result.json").read_text())


def output_path(argv: list[str]) -> str:
    for flag in ("--out", "--json"):
        if flag in argv:
            return argv[argv.index(flag) + 1]
    raise ValueError(f"no output flag in {argv}")


def score_output(command: str, rec: dict, text: str, item: dict, pick: random.Random):
    if command == "generate":
        return oracle.score_grid(text, item["config"], pick)
    if command == "verify":
        return oracle.score_verify(text, rec["stdout"], rec["rc"], item["config"])
    return oracle.score_scatter(text, workloads.SWEEP)


def score_records(records: list[dict], plan: list[dict], work: Path, seed: int):
    """Per-command contract problems and accuracy margins.

    The first output of each config is scored by the oracle; every later
    output of the same config must be byte-identical to it.
    """
    items = {item["name"]: item for item in plan}
    first: dict[str, str] = {}  # config name -> digest of its first output
    margins: list[tuple[str, str, float]] = []
    problems: dict[int, list[str]] = {}
    pick = random.Random(f"rows:{seed}")
    for rec in records:
        item = items[rec["name"]]
        command = item["argv"][0]
        bad = []
        if rec["traceback"]:
            bad.append("traceback: " + rec["traceback"].strip().splitlines()[-1])
        elif rec["rc"] not in ((0, 1) if command == "verify" else (0,)):
            bad.append(f"exit {rec['rc']} on a valid config: {rec['stderr'].strip()[:300]}")
        path = work / output_path(rec["argv"])
        if not bad:
            if not path.is_file():
                bad.append(f"missing output {path.name}")
            else:
                data = path.read_bytes()
                digest = hashlib.sha256(data).hexdigest()
                if rec["name"] not in first:
                    m, p = score_output(command, rec, data.decode("utf-8", "replace"), item, pick)
                    first[rec["name"]] = digest
                    margins += [(rec["name"], label, v) for label, v in m]
                    bad += p
                elif digest != first[rec["name"]]:
                    bad.append("output bytes differ from an earlier run of the same config")
                rec["bytes"] = len(data)
        if bad:
            problems[rec["op"]] = bad
    return margins, problems


def negative_control(records: list[dict], plan: list[dict], work: Path, problems: dict) -> bool:
    """Perturb one output the oracle accepted; it must then reject it."""
    items = {item["name"]: item for item in plan}
    rec = next((r for r in records if r["op"] not in problems), None)
    if rec is None:
        return False
    item = items[rec["name"]]
    command = item["argv"][0]
    text = (work / output_path(rec["argv"])).read_text()
    if command == "generate":
        fmt = item["config"]["output"]["format"]
        rows = oracle.parse_grid(text, fmt)
        k = max(range(len(rows)), key=lambda i: rows[i][8] + rows[i][9] + rows[i][10])
        row = rows[k]
        row[2] += 1e-8 * max(1.0, abs(row[2]))
        row[8] = math.hypot(row[2], row[3])
        if fmt == "csv":
            body = [",".join(oracle.CSV_COLUMNS)] + [",".join(f"{v:.17g}" for v in r) for r in rows]
            bad = "\n".join(body) + "\n"
        else:
            bad = json.dumps({"columns": oracle.CSV_COLUMNS, "rows": rows})
    elif command == "verify":
        doc = json.loads(text)
        doc["checks"][0]["passed"] = not doc["checks"][0]["passed"]
        bad = json.dumps(doc)
    else:
        lines = text.splitlines()
        cells = lines[1].split(",")
        cells[2] = "0.001"
        bad = "\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n"
    _, problems = score_output(command, rec, bad, item, random.Random(0))
    return bool(problems)


def source_loc(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((root / "src").rglob("*.py")))


def git_sha(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def layer_metrics(trace: dict, untraced_round_s: float, records: list[dict]) -> tuple[dict, list]:
    """Per-layer metrics from the tracer summary; absent targets read 0 and are listed."""
    stats, under = trace["stats"], trace["under"]
    missing = set(trace["absent"]) | set(trace["work_failed"])

    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    deps = {}
    out = {}

    def put(metric, unit, value, *targets):
        out[metric] = {"value": value, "unit": unit}
        deps[metric] = targets

    ev = "soliton.eval_fields"
    put(f"{ev}.calls", "count", get(ev, "calls"), ev)
    put(f"{ev}.self_s", "s", get(ev, "self_s"), ev)
    put(f"{ev}.us_per_call", "us", 1e6 * ratio(get(ev, "incl_s"), get(ev, "calls")), ev)
    for name in ("algebra.solve", "algebra.det"):
        put(f"{name}.calls", "count", get(name, "calls"), name)
        put(f"{name}.self_s", "s", get(name, "self_s"), name)
    for name in ("lax.pde", "lax.cnls", "lax.zero_curvature"):
        put(f"{name}.s", "s", get(name, "incl_s"), name)
    fd_evals = under.get(f"lax.pde>{ev}", 0) + under.get(f"lax.cnls>{ev}", 0)
    put("lax.evals_per_point", "evals/point",
        ratio(fd_evals, get("lax.pde", "work") + get("lax.cnls", "work")), "lax.pde", "lax.cnls", ev)
    put("rhp.symmetry.s", "s", get("rhp.symmetry", "incl_s"), "rhp.symmetry")
    put("rhp.build_rh_pair.calls", "count", get("rhp.build_rh_pair", "calls"), "rhp.build_rh_pair")
    sp = "scattering.sample_potential"
    put(f"{sp}.s", "s", get(sp, "incl_s"), sp)
    put(f"{sp}.evals", "count", under.get(f"{sp}>{ev}", 0), sp, ev)
    put("scattering.omega77.calls", "count", get("scattering.omega77", "calls"), "scattering.omega77")
    put("scattering.omega77.s", "s", get("scattering.omega77", "incl_s"), "scattering.omega77")
    put("scattering.secant_evals_per_zero", "evals/zero",
        ratio(under.get("scattering.locate_zero>scattering.omega77", 0), get("scattering.locate_zero", "calls")),
        "scattering.locate_zero", "scattering.omega77")
    put("scattering.sweep.s", "s", get("scattering.sweep", "incl_s"), "scattering.sweep")
    put("scattering.sweep.lambdas", "count", get("scattering.sweep", "work"), "scattering.sweep")
    put("scattering.path.s", "s", get("scattering.path", "incl_s"), "scattering.path")
    rk4 = [n for n in ("scattering.path", "scattering.rk4_batch") if n not in missing]
    put("scattering.us_per_rk4_step", "us",
        1e6 * ratio(sum(get(n, "incl_s") for n in rk4), sum(get(n, "work") for n in rk4)),
        *(rk4 or ["scattering.rk4_batch"]))
    put("io_cli.parse_config.s", "s", get("io_cli.parse_config", "incl_s"), "io_cli.parse_config")
    put("io_cli.evaluate_grid.s", "s", get("io_cli.evaluate_grid", "incl_s"), "io_cli.evaluate_grid")
    put("io_cli.grid_points", "count", get("io_cli.evaluate_grid", "work"), "io_cli.evaluate_grid")
    renders = [n for n in ("io_cli.render_csv", "io_cli.render_json") if n not in missing]
    put("io_cli.render.s", "s", sum(get(n, "incl_s") for n in renders), *(renders or ["io_cli.render_csv"]))
    put("io_cli.bytes_written", "B", sum(r.get("bytes", 0) for r in records if r["traced"]))
    put("io_cli.run_checks.s", "s", get("io_cli.run_checks", "incl_s"), "io_cli.run_checks")
    traced = [r for r in records if r["traced"]]
    put("trace.overhead_ratio", "ratio", ratio(sum(r["latency"] for r in traced), untraced_round_s))
    covered = sum(t1 - t0 for _, t0, t1 in trace["roots"])
    put("trace.coverage", "ratio", ratio(covered, sum(r["latency"] for r in traced)))
    absent = sorted(m for m, targets in deps.items() if any(t in missing for t in targets))
    for m in absent:
        out[m]["value"] = 0
    return out, absent


def run_workload(args, root: Path) -> int:
    started = time.monotonic()
    plan = workloads.build_plan(args.workload, args.seed)
    env = child_env(root)
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        write_inputs(plan, work)
        time_setup(plan, work, env, 1)  # fills the bytecode caches
        setups = time_setup(plan, work, env, PROBES[0])
        result = run_client(work, env, args.seconds, args.trace == 1, started + DEADLINE_S)
        setups += time_setup(plan, work, env, PROBES[1])
        records = result["records"]
        margins, problems = score_records(records, plan, work, args.seed)
        control_ok = negative_control(records, plan, work, problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    timed = [r for r in records if not r["traced"]]
    probes = [r["speed_before"] for r in timed] + [timed[-1]["speed_after"]]
    speed = statistics.median(probes)
    for r in timed:
        r["norm"] = r["latency"] * statistics.fmean([r["speed_before"], *r["speeds"], r["speed_after"]])

    def per_command(key):
        return [statistics.median(r[key] for r in timed if r["name"] == item["name"]) for item in plan]

    measured, normalised = per_command("latency"), per_command("norm")
    setup_norm = [t * probe for t, probe in setups]
    attempted, failed = len(records), len(problems)
    worst = min(margins, key=lambda m: m[2]) if margins else None
    e2e = {
        "setup_s": {"value": statistics.median(setup_norm), "unit": "s"},
        "ops_per_s": {"value": len(plan) / sum(normalised), "unit": "1/s"},
        "op_p50_s": {"value": statistics.median(normalised), "unit": "s"},
        "peak_rss_mib": {"value": result["peak_rss_kib"] / 1024.0, "unit": "MiB"},
    }
    reported = {
        "failed_ratio": {"value": failed / attempted, "unit": "ratio"},
        "accuracy_digits": {"value": worst[2] if worst else float("nan"), "unit": "decades"},
    }

    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, "
          f"{len(timed)} commands round-robin over a plan of {len(plan)}, "
          f"workers {result['workers']} (nproc {os.cpu_count()}); times in reference seconds, "
          f"machine at {speed:.3f}x reference speed (median probe)")
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters; measured "
                   f"{statistics.median(t for t, _ in setups):.4g} s",
        "ops_per_s": f"{len(plan)} commands / sum of their median latencies; measured "
                     f"{len(plan) / sum(measured):.4g} 1/s",
        "op_p50_s": f"median over the {len(plan)} commands of their median latency, "
                    f"n = {len(timed)} commands; measured {statistics.median(measured):.4g} s",
        "failed_ratio": f"{failed}/{attempted} commands broke the contract",
        "accuracy_digits": f"smallest margin, at {worst[0]} {worst[1]}" if worst else "nothing scored",
    }
    for name, m in {**e2e, **reported}.items():
        print(f"  {name:16s} {m['value']:.6g} {m['unit']}  ({notes.get(name, '')})")
    for op, bad in sorted(problems.items()):
        for line in bad:
            print(f"  problem: command {op}: {line}")
    if not control_ok:
        print("  problem: the oracle accepted a perturbed output (negative control)")

    metrics = e2e
    absent = []
    if args.trace == 1:
        metrics, absent = layer_metrics(result["trace"], sum(measured), records)
        metrics["e2e.accuracy_digits"] = reported["accuracy_digits"]
        metrics["e2e.failed_ratio"] = reported["failed_ratio"]
        for name, m in metrics.items():
            print(f"  {name:36s} {m['value']:.6g} {m['unit']}" + ("  (absent)" if name in absent else ""))
    meta = {
        "git_sha": git_sha(root), "src_loc": source_loc(root), "python": result["python"],
        "numpy": result["numpy"], "nproc": os.cpu_count(), "workers": result["workers"],
        "seconds": args.seconds, "absent": absent,
        "margins": [{"config": c, "check": k, "decades": round(v, 4)} for c, k, v in margins],
        "latencies_s": [[r["name"], round(r["latency"], 4), round(r["norm"], 4), len(r["speeds"])]
                        for r in timed],
        "speed_probes": [round(p, 4) for p in probes],
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": not problems and control_ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


# Counts that must repeat exactly between two traced runs of one seed.
STABLE_COUNTS = ("soliton.eval_fields.calls", "scattering.omega77.calls", "lax.evals_per_point")


def selftest(root: Path) -> int:
    """Oracle negative controls, and exact count repeats across two traced runs."""
    env = child_env(root)
    ok = True
    for workload in workloads.WORKLOADS:
        plan = workloads.build_plan(workload, 0)
        seen = []
        for attempt in range(2):
            work = root / ".bench_work" / f"selftest-{workload}-{attempt}-{os.getpid()}"
            try:
                write_inputs(plan, work)
                result = run_client(work, env, 0, True, time.monotonic() + 600)
                metrics, _ = layer_metrics(result["trace"], 0.0, result["records"])
                seen.append({k: metrics[k]["value"] for k in STABLE_COUNTS})
                if attempt == 0:
                    _, problems = score_records(result["records"], plan, work, 0)
                    caught = negative_control(result["records"], plan, work, problems)
                    print(f"{workload}: scored outputs {'ok' if not problems else problems}, "
                          f"negative control {'caught' if caught else 'MISSED'}")
                    ok &= not problems and caught
            finally:
                shutil.rmtree(work, ignore_errors=True)
        same = seen[0] == seen[1]
        print(f"{workload}: counts {seen[0]} {'repeat exactly' if same else 'DIFFER: ' + str(seen[1])}")
        ok &= same
    shutil.rmtree(root / ".bench_work", ignore_errors=True)
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "tccss" / "cli.py").is_file():
        print(f"error: no tccss sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.selftest:
        return selftest(root)
    if args.workload is None or not args.seconds > 0:
        parser.error("--workload and a positive --seconds are required")
    try:
        return run_workload(args, root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
