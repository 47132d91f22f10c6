"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACE OUTDIR PASS

Imports the package (``fracppk.cli`` for cli_verify), generates the request
list, then runs the requests in a closed loop: one client, each request
starting when the previous one returned.  A short fixed calibration slice
runs before the first request and after every request, outside the request
timings, so the caller can scale each latency by the host speed measured
around it.  Outputs are checked after the loop, so checks neither count in
the timings nor touch the package caches between requests.  With TRACE=1 the
layer functions are wrapped first and the spans are written to OUTDIR.  The
last line of standard output is a JSON record of the pass.
"""

from __future__ import annotations

import time


def calibrate_setup() -> float:
    """Seconds taken by a fixed slice of pure-Python work like an import:
    attribute and dict lookups, small-object creation, string handling, calls.
    About 5 ms on a 2-core Xeon; it needs nothing imported, so it can run
    before the package import it calibrates."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(500):
        key = f"name_{i % 50}"
        table[key] = table.get(key, 0) + len(key.split("_"))
        obj = type("Record", (), {"value": i})
        getattr(obj, "value")
    return time.perf_counter() - start


SETUP_CAL = [calibrate_setup()]

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import workloads  # noqa: E402

# Calibration slice time at the reference host speed.  Each latency is
# reported as raw seconds times CAL_REF_S over the mean of the slices before
# and after it: seconds at the reference speed.  On a shared 2-core Xeon
# host, speed swings by 2x within seconds, and the scaled times are what stay
# comparable between runs.
CAL_REF_S = 0.010


def calibrate(mpmath, np) -> float:
    """Seconds taken by a fixed slice of work like the package's inner loops.

    mpmath multiply-adds with reciprocal gammas (the escalated series), masked
    numpy updates with Philox draws (first crossing) and a plain Python float
    loop; about 10 ms on a 2-core Xeon.
    """
    start = time.perf_counter()
    with mpmath.workdps(80):
        total, power, z = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(-5.5)
        for m in range(120):
            total += power * mpmath.rgamma(mpmath.mpf(0.7) * m + 1)
            power *= z
    gen = np.random.Generator(np.random.Philox(12345))
    level = np.zeros(2000)
    for _ in range(12):
        active = np.flatnonzero(level <= 50.0)
        level[active] += gen.standard_exponential(active.size) * 0.2
    acc = 0.0
    for i in range(4000):
        acc += i * 0.5
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    workload, seed, trace, outdir, pass_no = argv[0], int(argv[1]), argv[2] == "1", argv[3], int(argv[4])
    if workload == "cli_verify":
        import fracppk.cli  # noqa: F401
    else:
        import fracppk  # noqa: F401
    requests = workloads.generate(workload, seed)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workdir = tempfile.mkdtemp(prefix=f"cli-{pass_no}-", dir=outdir)
    executor = workloads.Executor(workdir)
    setup_done = time.monotonic()
    SETUP_CAL.append(calibrate_setup())

    import mpmath
    import numpy
    import scipy

    clock = time.perf_counter
    calibrate(mpmath, numpy)  # the first slice pays one-off warm-up costs
    cal = [calibrate(mpmath, numpy)]
    results, records = [], []
    for req in requests:
        if tracer is not None:
            tracer.request_id = req["id"]
            tracer.active = True
        start = clock()
        try:
            result, error = executor.run(req), None
        except Exception as exc:  # a raising request is a failed request, not a harness crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = clock() - start
        if tracer is not None:
            tracer.active = False
        cal.append(calibrate(mpmath, numpy))
        results.append(result)
        kind = req["kind"] if req["kind"] != "cli" else f"cli {req['argv'][0]}"
        scale = CAL_REF_S / (0.5 * (cal[-2] + cal[-1]))
        records.append({"id": req["id"], "kind": kind, "latency_s": elapsed, "scale": scale,
                        "ref_s": elapsed * scale, "error": error})

    for req, rec, result in zip(requests, records, results):
        rec["values"] = rec["draws"] = 0
        if rec["error"] is not None:
            continue
        try:
            rec["values"], rec["draws"] = executor.check(req, result)
        except Exception as exc:
            rec["error"] = f"check {type(exc).__name__}: {exc}"
    shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "setup_done": setup_done,
        "setup_cal_s": SETUP_CAL,
        "requests": records,
        "cal_s": cal,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "fail_lines": executor.fail_lines,
        "bytes_written": executor.bytes_written,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "mpmath": mpmath.__version__},
    }
    if tracer is not None:
        tracer.write(os.path.join(outdir, f"spans-{workload}-seed{seed}-pass{pass_no}.csv"))
        record["layers"] = tracer.summary({r["id"]: r["scale"] for r in records})
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
