"""Benchmark client: drives ``tccss.cli.main(argv)`` in-process.

Two modes, each in a fresh interpreter started by ``run.py``:

``client.py probe CFG...``
    Import ``tccss.cli``, parse every config and print ``ready``; then print
    the median relative speed of three machine-speed probes (``speed.py``)
    and exit.  The parent times spawn-to-ready: the set-up a user pays on
    every CLI call.

``client.py run PLAN RESULT SECONDS TRACE``
    Closed loop with one client: each command is issued after the previous
    one returns.  The plan's commands repeat round-robin until each has run
    and SECONDS have elapsed.  Machine-speed probes run in the main thread
    before each command, after the last one and every 0.1 s during each
    command (their time is taken out of its latency).  With TRACE = 1, one
    more round of the same commands runs under the layer tracer, unsampled.
    Writes per-command records, the tracer summary and process facts (peak
    RSS, worker count) to RESULT as JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback


def probe(config_paths: list[str]) -> None:
    import tccss.cli  # noqa: F401  (the import is the cost being measured)
    from tccss import io_cli

    for path in config_paths:
        io_cli.parse_config_file(path)
    print("ready", flush=True)
    from speed import relative_speed

    print(statistics.median(relative_speed() for _ in range(3)), flush=True)


def _issue(main, argv: list[str], sample: bool) -> dict:
    from speed import InterruptSampler

    out, err = io.StringIO(), io.StringIO()
    tb = None
    sampler = InterruptSampler()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                (sampler if sample else contextlib.nullcontext()):
            rc = main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback breaks the CLI contract; record it
        rc = None
        tb = traceback.format_exc()
    latency = time.perf_counter() - t0 - sampler.cost_s
    return {"rc": rc, "latency": latency, "speeds": sampler.speeds,
            "stdout": out.getvalue(), "stderr": err.getvalue(), "traceback": tb}


def _issue_all(main, items, counter: list[int], traced: bool) -> list[dict]:
    """Issue ``items`` in order.  Untraced commands are speed-sampled and get
    the relative speeds probed right before (``speed_before``) and after
    (``speed_after``) them."""
    from speed import relative_speed

    records = []
    for item in items:
        op = counter[0]
        counter[0] += 1
        argv = [a.replace("{op}", str(op)) for a in item["argv"]]
        speed = None if traced else relative_speed()
        if records and not traced:
            records[-1]["speed_after"] = speed
        rec = _issue(main, argv, sample=not traced)
        rec.update(op=op, name=item["name"], argv=argv, traced=traced, speed_before=speed)
        records.append(rec)
    if records and not traced:
        records[-1]["speed_after"] = relative_speed()
    return records


def run(plan_path: str, result_path: str, seconds: float, trace: bool) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    from tccss.cli import main

    counter = [0]
    start = time.perf_counter()

    def round_robin():
        # every command runs at least once, then until SECONDS have elapsed
        while seconds > 0 and (counter[0] < len(plan) or time.perf_counter() - start < seconds):
            yield plan[counter[0] % len(plan)]

    records = _issue_all(main, round_robin(), counter, traced=False)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    trace_summary = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            records += _issue_all(main, plan, counter, traced=True)
        finally:
            tracer.uninstall()
        trace_summary = tracer.summary()

    try:
        from tccss.io_cli import thread_count
        workers = thread_count()
    except ImportError:
        workers = None
    import numpy

    result = {
        "records": records,
        "peak_rss_kib": peak_kib,
        "workers": workers,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "trace": trace_summary,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if len(sys.argv) >= 2 and sys.argv[1] == "probe":
        probe(sys.argv[2:])
    elif len(sys.argv) == 6 and sys.argv[1] == "run":
        run(sys.argv[2], sys.argv[3], float(sys.argv[4]), sys.argv[5] == "1")
    else:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
