"""Self-test of the benchmark itself.

Usage (from the repository root):  python3 perfbench/selftest.py

Checks that
  * the same seed yields the same request list, and other seeds other lists;
  * one traced tf table at k = 3, n_max = 40 makes 574 ``ml_derivative``
    calls with 41 distinct arguments;
  * the traced count metrics (calls, draws, verify FAIL lines, bytes
    written) repeat exactly between two fresh passes with the same seed.

It then probes the domain limits named in ``workloads.py`` where the parent
code answers wrongly or fails with a raw numpy error, and reports whether
each defect still reproduces; those probes inform, they do not fail the
self-test.
Exit status 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, "src")

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

COUNT_KEYS = ("calls", "values", "distinct")


def check_generation() -> list[str]:
    errors = []
    for w in workloads.WORKLOADS:
        first = json.dumps(workloads.generate(w, 7))
        if json.dumps(workloads.generate(w, 7)) != first:
            errors.append(f"{w}: seed 7 gave two different request lists")
        if json.dumps(workloads.generate(w, 8)) == first:
            errors.append(f"{w}: seeds 7 and 8 gave the same request list")
    return errors


def check_tf_table_calls() -> list[str]:
    import fracppk

    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        fracppk.processes.pmf_table(fracppk.OrderParams(3, 2.0), 1.0, 40, fracppk.TimeFractional(0.7))
        tracer.active = False
    finally:
        tracer.uninstall()
    row = tracer.summary()["specfun.ml_derivative"]
    if (row["calls"], row.get("distinct")) != (574, 41):
        return [f"tf table k=3 n_max=40: {row['calls']} ml_derivative calls, {row.get('distinct')} distinct"]
    return []


def _traced_pass(workload: str, seed: int, pass_no: int) -> dict:
    env = dict(os.environ, PYTHONPATH="src", FRACPPK_THREADS="1", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    os.makedirs(".perfbench_out", exist_ok=True)
    out = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), "1",
                          ".perfbench_out", str(pass_no)], env=env, capture_output=True, text=True,
                         check=True, timeout=170).stdout
    rec = json.loads(out.strip().splitlines()[-1])
    counts = {name: {k: row[k] for k in COUNT_KEYS if k in row} for name, row in rec["layers"].items()}
    return {"layers": counts, "fail_lines": rec["fail_lines"], "bytes_written": rec["bytes_written"]}


def check_counts_repeat() -> list[str]:
    errors = []
    for w in workloads.WORKLOADS:
        a, b = _traced_pass(w, 0, 900), _traced_pass(w, 0, 901)
        if a != b:
            errors.append(f"{w}: traced count metrics differ between two passes of seed 0")
    return errors


def probe_known_defects() -> list[str]:
    import numpy as np

    import fracppk as fp

    notes = []
    table = fp.pmf_table(fp.OrderParams(5, 2.1), 3.0, 40, fp.SpaceFractional(0.9))
    ref = workloads.sf_taylor(5, 2.1, 0.9, 3.0, 41)[0]
    err = float(np.max(np.abs(table.probs - ref)))
    notes.append(f"sf table k=5 lam=2.1 alpha=0.9 t=3: max |error| {err:.3g} "
                 f"({'reproduced' if err > 1e-8 else 'fixed'})")
    w = fp.sfppok_levy_weights(fp.OrderParams(1, 2.1), 0.6, 200)
    zeros = int(np.sum(w <= 0))
    notes.append(f"Levy weights k=1 y_max=200: {zeros} nonpositive weights "
                 f"({'reproduced' if zeros else 'fixed'})")
    k, lam, alpha, beta, mu, t, u = 4, 1.575, 0.9, 0.6, 0.2, 1.5, 0.082034
    g = sum(u**j for j in range(1, k + 1)) / k
    a = (mu + k * lam * (1 - g)) ** alpha - mu**alpha
    got = fp.ttsfppok_pgf(fp.OrderParams(k, lam), u, t, alpha, beta, mu, 0.0)
    want = fp.mittag_leffler(beta, 1.0, -a * t**beta)
    rel = abs(got - want) / want
    notes.append(f"ttsf pgf at A t^beta = {a * t**beta:.2f}, beta = 0.6, nu = 0: relative error "
                 f"{rel:.3g} against Mittag-Leffler ({'reproduced' if rel > 1e-9 else 'fixed'})")
    try:
        fp.sample_fractional_counts(fp.OrderParams(1, 2.0), fp.SpaceFractional(0.3), 0.5, 20000,
                                    fp.RngStream(361895015, 0))
        outcome = "fixed"
    except ValueError as exc:
        outcome = f"reproduced: ValueError: {exc}"
    notes.append(f"sf counts alpha=0.3, 20000 draws, seed 361895015: {outcome}")
    return notes


def main() -> int:
    if not os.path.isfile(os.path.join("src", "fracppk", "__init__.py")):
        print("selftest: run from a fracppk checkout (src/fracppk not found)", file=sys.stderr)
        return 2
    errors = check_generation() + check_tf_table_calls() + check_counts_repeat()
    for note in probe_known_defects():
        print(f"known defect: {note}")
    for err in errors:
        print(f"FAIL {err}")
    print("selftest:", "ok" if not errors else f"{len(errors)} failure(s)")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
