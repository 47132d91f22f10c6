"""fracppk benchmark: one command, three seeded closed-loop workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload exact_tables --seed 1 --seconds 20 --trace 0

Each pass runs in a fresh interpreter, so the package caches start cold as
they do for a command-line user and fill during the pass as they would in a
library session.  Passes repeat until ``--seconds`` have elapsed, with at
least MIN_PASSES untraced passes, and every metric is a median over passes or
a percentile over the pooled request latencies.  Workers run with one
thread (``FRACPPK_THREADS``, ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS``
set to 1).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
untraced pass followed by two traced ones and prints the per-layer metrics,
including the tracing overhead.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record, with the environment, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

OUT_DIR = ".perfbench_out"
MIN_PASSES = 3  # untraced passes in a --trace 0 run; also gives >= 100 pooled requests
MIN_TRACED = 2  # traced passes in a --trace 1 run, after one untraced, so counts can be compared
TIME_LIMIT_S = 150.0  # no pass starts after this, keeping a run under 180 s
# Time of the worker's pure-Python setup calibration slice at the reference
# host speed; setup_s is scaled by it as request latencies are by CAL_REF_S
# in worker.py (see README.md, "Host speed scaling").
SETUP_CAL_REF_S = 0.0065
# requests whose draws count towards draws_per_s: sampled counts, from the
# library and from `fracppk sample`
SAMPLING_KINDS = ("counts", "cli sample")


def _steal_ticks() -> int:
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _run_pass(workload: str, seed: int, trace: bool, pass_no: int, budget_s: float) -> dict:
    env = dict(os.environ)
    env.update(FRACPPK_THREADS="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH", "")) if p)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), "1" if trace else "0",
           OUT_DIR, str(pass_no)]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=budget_s)
    if proc.returncode != 0:
        raise RuntimeError(f"worker pass {pass_no} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    # the first setup slice ran inside the spawn-to-ready window; take it out,
    # then scale by the host speed the two slices saw
    cal = record["setup_cal_s"]
    record["raw_setup_s"] = record["setup_done"] - spawned - cal[0]
    record["setup_s"] = record["raw_setup_s"] * SETUP_CAL_REF_S / (0.5 * (cal[0] + cal[1]))
    record["traced"] = trace
    return record


def _wall(p: dict) -> float:
    """Closed-loop time of a pass from the first request to the last, in
    reference-speed seconds, leaving out the calibration slices."""
    return sum(r["ref_s"] for r in p["requests"])


def _end_to_end(passes: list[dict]) -> dict:
    lat = [r["ref_s"] for p in passes for r in p["requests"]]
    values = sum(r["values"] for p in passes for r in p["requests"])
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "wall_s": (statistics.median(_wall(p) for p in passes), "s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_p90_s": (statistics.quantiles(lat, n=10)[8], "s"),
        "values_per_s": (values / sum(lat), "1/s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_kb"] for p in passes) / 1024.0, "MB"),
    }


def _layer_metrics(plain: list[dict], traced: list[dict]) -> tuple[dict, bool]:
    """Per-layer metrics; the bool is False when traced counts differ between passes."""
    layers = [p["layers"] for p in traced]

    def row(name: str) -> list[dict]:
        return [lay.get(name, {}) for lay in layers]

    def self_s(name: str) -> tuple[float, str]:
        return statistics.median(r.get("self_s", 0.0) for r in row(name)), "s"

    def count(name: str, key: str = "calls") -> int:
        return row(name)[0].get(key, 0)

    out: dict = {}
    for name in ("combinatorics.zeta_profile", "combinatorics.log_omega_kernel", "specfun.ml_derivative",
                 "specfun.mittag_leffler", "specfun.caputo_derivative", "processes.tfppok_pmf",
                 "subordinators.sample_increment", "subordinators.sample_inverse_at"):
        out[f"{name}.calls"] = (count(name), "count")
        out[f"{name}.self_s"] = self_s(name)
    calls = count("specfun.ml_derivative")
    out["specfun.ml_derivative.distinct_frac"] = (
        count("specfun.ml_derivative", "distinct") / calls if calls else 0.0, "frac")
    out["subordinators.sample_increment.draws"] = (count("subordinators.sample_increment", "values"), "count")
    clock_values = count("subordinators.sample_inverse_at", "values")
    out["subordinators.sample_inverse_at.clock_values"] = (clock_values, "count")
    nested = count("subordinators.sample_increment.in_first_crossing", "values")
    out["subordinators.increments_per_clock"] = (nested / clock_values if clock_values else 0.0, "ratio")
    for name in ("specfun.stable_density", "specfun.inv_stable_density", "processes.pmf_table.ppok",
                 "processes.pmf_table.tf", "processes.pmf_table.sf", "processes.sfppok_levy_weights",
                 "processes.ttsfppok_pgf", "fields.sample_field", "fields.count_in_region",
                 "fields.sample_region_clocks", "fields.fractional_field_pmf", "verify.compare_pmf",
                 "verify.governing_residual_tf", "verify.martingale_check", "cli.main.pmf",
                 "cli.main.sample", "cli.main.field", "cli.main.verify"):
        out[f"{name}.self_s"] = self_s(name)
    for variant in ("ppok", "tf", "sf", "ttsf"):
        name = f"processes.sample_fractional_counts.{variant}"
        out[f"{name}.self_s"] = self_s(name)
        rates = [r["values"] / r["incl_s"] if r.get("incl_s") else 0.0 for r in row(name)]
        out[f"{name}.draws_per_s"] = (statistics.median(rates), "1/s")
    out["verify.fail_lines"] = (traced[0]["fail_lines"], "count")
    out["cli.bytes_written"] = (traced[0]["bytes_written"], "B")

    wall_plain = statistics.median(_wall(p) for p in plain)
    out["trace.overhead_frac"] = (statistics.median(_wall(p) for p in traced) / wall_plain - 1.0, "frac")
    sampling = [r for p in plain for r in p["requests"] if r["kind"] in SAMPLING_KINDS]
    busy = sum(r["ref_s"] for r in sampling)
    out["draws_per_s"] = (sum(r["draws"] for r in sampling) / busy if busy else 0.0, "1/s")
    attempted = sum(len(p["requests"]) for p in plain)
    out["fail_frac"] = (sum(r["error"] is not None for p in plain for r in p["requests"]) / attempted, "frac")

    def counts(p: dict) -> dict:
        rows = {name: [row.get(key) for key in ("calls", "values", "distinct")] for name, row in p["layers"].items()}
        return {"layers": rows, "fail_lines": p["fail_lines"], "bytes_written": p["bytes_written"]}

    return out, all(counts(p) == counts(traced[0]) for p in traced)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "fracppk", "__init__.py")):
        print("perfbench: run from a fracppk checkout (src/fracppk not found)", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    trace = bool(args.trace)
    steal0, t0 = _steal_ticks(), time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    pass_no = 0
    try:
        while True:
            elapsed = time.monotonic() - t0
            need_more = (not plain or len(traced) < MIN_TRACED) if trace else len(plain) < MIN_PASSES
            if not need_more and elapsed >= args.seconds:
                break
            if elapsed >= TIME_LIMIT_S:
                if need_more:
                    raise RuntimeError("time limit reached before the minimum number of passes")
                break
            as_traced = trace and len(traced) < MIN_TRACED * len(plain)
            rec = _run_pass(args.workload, args.seed, as_traced, pass_no, 175.0 - elapsed)
            (traced if as_traced else plain).append(rec)
            pass_no += 1
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    steal_s = (_steal_ticks() - steal0) / os.sysconf("SC_CLK_TCK")

    passes = plain + traced
    attempted = sum(len(p["requests"]) for p in passes)
    failures = [r for p in passes for r in p["requests"] if r["error"] is not None]
    if trace:
        metrics, counts_repeat = _layer_metrics(plain, traced)
    else:
        metrics, counts_repeat = _end_to_end(plain), True
    pooled = sum(len(p["requests"]) for p in plain)
    env = {"nproc": os.cpu_count(), "cpu": _cpu_model(), "steal_s": steal_s, **passes[0]["versions"]}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
              "passes": passes, "metrics": {k: v for k, (v, _u) in metrics.items()}}
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"env: {json.dumps(env)}")
    print(f"passes: {len(plain)} untraced, {len(traced)} traced")
    if not trace:
        print(f"{pooled} requests pooled for the percentiles, {pooled - int(0.9 * pooled)} beyond p90")
    for r in failures[:10]:
        print(f"failed request {r['id']} ({r['kind']}): {r['error']}")
    if not counts_repeat:
        print("traced count metrics differ between passes of the same seed")
    result = {
        "correct": not failures and counts_repeat,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
