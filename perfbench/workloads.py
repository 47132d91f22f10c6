"""The three benchmark workloads: request generation, execution and checks.

Requests are plain data generated from the seed with the standard library's
``random.Random`` only, so the same seed always gives the same list.  Each
workload has a fixed template of request slots in a fixed order; the seed
jitters rates by up to 5%, moves grid points within their strata, and picks
the sampler seeds, while the cost class of every slot (order k, table size,
sample size, fractional indices) stays fixed.  Seeds therefore differ in
their inputs, not in the amount of work, and a cache fill is paid by the
same slot whatever the seed.  Indices come from small sets, so requests
share zeta profiles and mpmath reciprocal-gamma tables.

exact_tables
    Analytic tables: ``pmf_table`` for ppok, tf and sf, Levy weights up to
    ``y_max = 200``, space-fractional first-passage densities, tempered
    time-space pgfs, time-fractional covariance matrices, and stable /
    inverse-stable density grids that reach the escalated tails.  Time goes
    to the float and mpmath-escalated series of ``specfun`` and the zeta
    dynamic program of ``combinatorics``; ``subordinators`` does no work.
    Domain limits kept by the generator, each outside of which the parent
    code refuses, stalls or answers wrongly (``selftest.py`` reproduces the
    wrong answers):

    * tf tables use beta >= 0.5: at beta = 0.3, t = 1,
      ``ml_derivative(0, 0.3, -6)`` needs more than 2000 terms and the table
      raises ``NonConvergence``; at beta = 0.3, t = 0.5 one table takes about
      a minute.
    * Density grids use beta <= 0.7 and stop short of the escalation
      ceiling; at beta = 0.9 the Wright series raises ``NonConvergence``
      already at moderate arguments.
    * sf tables keep ``(k lam)^alpha t`` below 8.  The float power series in
      t behind ``sfppok_pmf`` cancels: its error is about 1e-8 at 11, 1e-5 at
      14, and at k = 5, lam = 2.1, alpha = 0.9, t = 3 the table holds
      "probabilities" above 1.
    * Levy weights at k = 1 stop at y_max = 160: past y = 170 the reciprocal
      factorials of the zeta dynamic program underflow and the weights come
      back as exact zeros.
    * Tempered time-space pgfs keep ``A t^beta`` (A the pgf's Laplace
      argument) at most about 3.5: the float r-series cancels, and at
      A t^beta = 6.4, beta = 0.6 the pgf is off by 1e-4 relative.

count_draws
    Sampling: single-time ``sample_fractional_counts`` for all four variants
    at the default first-crossing step, exact ``sample_field`` plus
    ``count_in_region`` over a partition of the window, multi-volume tf
    clock matrices, and multi-region tf ``fractional_field_pmf``.  Time goes
    to first crossing in ``subordinators``; ``specfun`` does no work.  The
    multi-region requests need a joint clock, so they stay on the grid.
    sf counts use alpha >= 0.5: at alpha = 0.3 a stable clock draw past about
    1e18 makes numpy's Poisson sampler raise ``ValueError: lam value too
    large``, in about 3% of 20,000-draw requests.

cli_verify
    In-process calls of ``fracppk.cli.main``: ``verify`` with every suite,
    every martingale family and the negative control, plus small ``pmf``,
    ``sample`` and ``field`` commands writing CSV and JSON files.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random

WORKLOADS = ("exact_tables", "count_draws", "cli_verify")

# ---------------------------------------------------------------------------
# request generation (standard library only)
# ---------------------------------------------------------------------------

# tf table slots: (k, beta, t, n_max, base rate); on a 2-core Xeon one table
# takes 0.05 s to 1.8 s, the slots about 4 s together
_TF_TABLES = (
    (1, 0.5, 3.0, 40, 2.0),
    (1, 0.6, 2.0, 40, 2.0),
    (2, 0.9, 3.0, 20, 2.0),
    (3, 0.9, 0.5, 40, 2.0),
    (3, 0.8, 1.0, 30, 1.0),
    (3, 0.7, 1.0, 40, 2.0),
    (5, 0.75, 0.5, 20, 1.0),
    (5, 0.9, 3.0, 20, 1.0),
)
# sf table slots: (k, alpha, t, n_max); (k lam)^alpha t stays below 8, see the module notes
_SF_TABLES = ((1, 0.9, 3.0, 40), (2, 0.5, 2.0, 30), (3, 0.7, 1.0, 40), (4, 0.3, 0.5, 30),
              (5, 0.8, 0.5, 20), (3, 0.6, 1.2, 40), (2, 0.7, 1.0, 40), (4, 0.6, 0.8, 40))
_PPOK_TABLES = ((1, 3.0, 40), (3, 1.0, 40), (4, 0.5, 30), (5, 1.0, 20))
# Levy slots: (k, alpha, y_max); first-passage slots: (k, alpha, level)
_LEVY = ((2, 0.4, 200), (1, 0.6, 160), (5, 0.9, 60), (3, 0.7, 60))
_FIRST_PASSAGE = ((2, 0.6, 10), (3, 0.5, 20), (4, 0.9, 15))
# ttsf slots: (k, alpha, beta, mu, nu, t); nu = 0 slots have an exact Mittag-Leffler check
_TTSF = ((2, 0.7, 0.8, 0.5, 0.0, 1.0), (3, 0.6, 0.9, 1.0, 0.5, 1.0), (1, 0.9, 0.7, 0.0, 1.0, 0.5))
_COV = ((2, 0.6), (4, 0.7))
# tf pgf slots: (k, beta, t, base rate); the Mittag-Leffler argument reaches about -10
_TF_PGF = ((2, 0.6, 2.0, 2.0), (4, 0.5, 0.5, 2.0), (5, 0.7, 1.5, 1.5))
# density grids: (kind, beta, lo, hi); lo / hi bound the escalated tail depth
_DENSITY = (
    ("stable", 0.5, 0.025, 8.0),
    ("stable", 0.6, 0.05, 8.0),
    ("stable", 0.7, 0.1, 8.0),
    ("inv", 0.5, 0.05, 16.0),
    ("inv", 0.6, 0.05, 9.0),
    ("inv", 0.7, 0.05, 5.5),
)


def _rate(rng: random.Random, base: float) -> float:
    return base * rng.choice((0.95, 1.0, 1.05))


def _stratified(rng: random.Random, lo: float, hi: float, n: int, log: bool) -> list[float]:
    """One point per stratum, jittered within the middle fifth of the stratum."""
    out = []
    for i in range(n):
        frac = (i + 0.5 + 0.2 * (rng.random() - 0.5)) / n
        out.append(lo * (hi / lo) ** frac if log else lo + (hi - lo) * frac)
    return [round(x, 6) for x in out]


def _exact_tables(rng: random.Random) -> list[dict]:
    reqs = []
    for k, beta, t, n_max, lam in _TF_TABLES:
        # the escalated series' cost jumps with the precision z = -k lam t^beta
        # asks for, so tf rates are not jittered
        reqs.append({"kind": "table", "variant": "tf", "k": k, "lam": lam, "t": t, "n_max": n_max,
                     "beta": beta})
    for k, alpha, t, n_max in _SF_TABLES:
        reqs.append({"kind": "table", "variant": "sf", "k": k, "lam": _rate(rng, 2.0), "t": t,
                     "n_max": n_max, "alpha": alpha})
    for k, t, n_max in _PPOK_TABLES:
        reqs.append({"kind": "table", "variant": "ppok", "k": k, "lam": _rate(rng, 2.0), "t": t,
                     "n_max": n_max})
    for k, alpha, y_max in _LEVY:
        reqs.append({"kind": "levy", "k": k, "lam": _rate(rng, 2.0), "alpha": alpha, "y_max": y_max})
    for k, alpha, level in _FIRST_PASSAGE:
        reqs.append({"kind": "first_passage", "k": k, "lam": _rate(rng, 1.5), "alpha": alpha,
                     "level": level, "t": _stratified(rng, 0.2, 3.0, 6, log=True)})
    for k, alpha, beta, mu, nu, t in _TTSF:
        reqs.append({"kind": "ttsf_pgf", "k": k, "lam": _rate(rng, 1.5), "t": t, "alpha": alpha,
                     "beta": beta, "mu": mu, "nu": nu, "u": _stratified(rng, 0.0, 0.95, 6, log=False)})
    for k, beta, t, lam in _TF_PGF:
        reqs.append({"kind": "tf_pgf", "variant": "tf", "k": k, "lam": lam, "t": t, "beta": beta,
                     "u": _stratified(rng, 0.0, 0.95, 6, log=False)})
    for k, beta in _COV:
        reqs.append({"kind": "cov", "k": k, "lam": _rate(rng, 2.0), "beta": beta,
                     "times": _stratified(rng, 0.25, 3.0, 4, log=True)})
    for kind, beta, lo, hi in _DENSITY:
        reqs.append({"kind": "density", "which": kind, "beta": beta, "t": 1.0,
                     "x": _stratified(rng, lo, hi, 8, log=True)})
    return reqs


_TF_COUNTS = ((3, 0.6, 1.0), (3, 0.7, 0.5), (2, 0.8, 2.0), (4, 0.9, 1.0), (1, 0.6, 2.0), (5, 0.8, 0.5))
_TTSF_COUNTS = ((3, 0.7, 0.8, 0.5, 0.5), (2, 0.6, 0.9, 1.0, 0.2), (4, 0.8, 0.7, 0.0, 1.0),
                (1, 0.5, 0.8, 0.3, 0.3))
_FIELD_WINDOWS = ((2.0, 1.0), (1.5, 1.5), (3.0, 0.5), (1.0, 1.0, 1.0))


def _count_draws(rng: random.Random) -> list[dict]:
    reqs = []
    for k, beta, t in _TF_COUNTS:
        reqs.append({"kind": "counts", "variant": "tf", "k": k, "lam": _rate(rng, 2.0), "t": t,
                     "beta": beta, "size": 2000, "seed": rng.randrange(2**31)})
    for k, alpha, beta, mu, nu in _TTSF_COUNTS:
        reqs.append({"kind": "counts", "variant": "ttsf", "k": k, "lam": _rate(rng, 1.5), "t": 1.0,
                     "alpha": alpha, "beta": beta, "mu": mu, "nu": nu, "size": 1000,
                     "seed": rng.randrange(2**31)})
    for k, alpha, t in ((1, 0.5, 0.5), (2, 0.5, 1.0), (3, 0.7, 2.0), (4, 0.9, 0.5), (5, 0.6, 1.0),
                        (3, 0.8, 2.0)):
        reqs.append({"kind": "counts", "variant": "sf", "k": k, "lam": _rate(rng, 2.0), "t": t,
                     "alpha": alpha, "size": 20000, "seed": rng.randrange(2**31)})
    for k, t in ((1, 0.5), (2, 1.0), (3, 2.0), (4, 0.5), (5, 1.0), (2, 2.0)):
        reqs.append({"kind": "counts", "variant": "ppok", "k": k, "lam": _rate(rng, 2.0), "t": t,
                     "size": 20000, "seed": rng.randrange(2**31)})
    for i in range(9):
        hi = _FIELD_WINDOWS[i % len(_FIELD_WINDOWS)]
        reqs.append({"kind": "field", "k": 1 + i % 5, "lam": _rate(rng, 2.0), "hi": list(hi),
                     "seed": rng.randrange(2**31)})
    for beta in (0.7, 0.8):
        reqs.append({"kind": "clocks", "beta": beta, "size": 1000,
                     "volumes": _stratified(rng, 0.3, 1.5, 3, log=False),
                     "seed": rng.randrange(2**31)})
    for k, beta in ((3, 0.7), (2, 0.8), (4, 0.6), (1, 0.9)):
        widths = _stratified(rng, 0.3, 0.9, 2, log=False)
        reqs.append({"kind": "field_pmf", "k": k, "lam": _rate(rng, 1.5), "beta": beta,
                     "widths": widths, "counts": [rng.randrange(0, 4), rng.randrange(0, 4)],
                     "size": 1000, "seed": rng.randrange(2**31)})
    return reqs


_SPECS = ("stable", "mixed", "tempered", "mixture", "gamma", "ig")


def _cli_verify(rng: random.Random) -> list[dict]:
    def seed() -> str:
        return str(rng.randrange(2**20))

    # the costliest slots (about 0.7 s to 1.5 s each, five per pass) hold the
    # 90th percentile of a run's pooled latencies: gof, governing, mixture
    # martingale and two tf tables; the analytic ones take fixed parameters.
    # With 45 slots the percentile falls on the cheapest of them, governing,
    # which sits about 15% from its neighbours on either side
    argvs = [
        ["verify", "--suite", "gof", "-k", "2", "-N", "2000", "--nmax", "20", "-t", "0.5", "--seed", seed()],
        ["verify", "--suite", "governing", "-k", "3", "--lambda", "1.5"],
        ["verify", "--suite", "governing", "-k", "2", "--lambda", "1", "-t", "0.5"],
        ["pmf", "-k", "3", "--variant", "tf", "--beta", "0.7", "--nmax", "30", "--format", "json",
         "--out", "pmf-tf3"],
        ["pmf", "-k", "4", "-t", "0.8", "--variant", "tf", "--beta", "0.8", "--nmax", "40", "--out", "pmf-tf4"],
        ["verify", "--negative-control", "-N", "1000", "--seed", seed()],
    ]
    for spec in _SPECS:
        argvs.append(["verify", "--suite", "martingale", "--spec", spec, "-N", "500", "--seed", seed()])
    pmf_cases = (("ppok",), ("tf", "--beta", "0.9"), ("sf", "--alpha", "0.7"), ("tf", "--beta", "0.8"))
    for i in range(8):
        case = pmf_cases[i % len(pmf_cases)]
        argvs.append(["pmf", "-k", str(1 + i % 4), "-t", "0.5", "--nmax", str(10 + 5 * (i % 3)),
                      "--variant", *case, "--format", ("csv", "json")[i % 2], "--out", f"pmf{i}"])
    sample_cases = (("ppok",), ("sf", "--alpha", "0.6"), ("sf", "--alpha", "0.8"), ("ppok",),
                    ("tf", "--beta", "0.8"), ("ttsf", "--alpha", "0.7", "--beta", "0.9", "--mu", "0.5"))
    for i in range(10):
        case = sample_cases[i % len(sample_cases)]
        n = "300" if case[0] in ("tf", "ttsf") else "2000"
        argv = ["sample", "-k", str(1 + i % 4), "-t", "1", "--variant", *case, "-N", n]
        if i == 9:
            argv = ["sample", "-k", "3", "-t", "2", "--path"]
        argvs.append(argv + ["--seed", seed(), "--format", ("csv", "json")[i % 2], "--out", f"sample{i}"])
    windows = ("0,0,1,1", "0,0,2,1", "0,0,0,1,1,1", "0.5,0.5,2,1.5")
    for i in range(15):
        argvs.append(["field", "-k", str(1 + i % 4), "--window", windows[i % len(windows)],
                      "--seed", seed(), "--format", ("csv", "json")[i % 2], "--out", f"field{i}"])
    return [{"kind": "cli", "argv": argv} for argv in argvs]


_GENERATORS = {"exact_tables": _exact_tables, "count_draws": _count_draws, "cli_verify": _cli_verify}


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's request list for ``seed``, in closed-loop order.

    Every workload has an odd number of slots (41, 37, 45), so that over three
    passes the pooled median is the middle copy of one slot rather than the
    mean of two slots whose costs may differ by half.
    """
    reqs = _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
    # one interleaving of the slots for every seed
    random.Random(workload).shuffle(reqs)
    for i, req in enumerate(reqs):
        req["id"] = i
    return reqs


# ---------------------------------------------------------------------------
# execution: every call goes through a fracppk module attribute at call time,
# so a tracer that rebinds those attributes sees it
# ---------------------------------------------------------------------------


class Executor:
    """Runs requests in a scratch directory and checks their outputs."""

    def __init__(self, workdir: str) -> None:
        import fracppk

        self.fp = fracppk
        self.workdir = workdir
        self.bytes_written = 0
        self.fail_lines = 0

    def _variant(self, req: dict):
        fp = self.fp
        name = req.get("variant", "ppok")
        if name == "tf":
            return fp.processes.TimeFractional(req["beta"])
        if name == "sf":
            return fp.processes.SpaceFractional(req["alpha"])
        if name == "ttsf":
            return fp.processes.TemperedTimeSpace(req["alpha"], req["beta"], req["mu"], req["nu"])
        return None

    def run(self, req: dict):
        """Execute one request and return its raw result (the timed part)."""
        return getattr(self, "_run_" + req["kind"])(req)

    def check(self, req: dict, result) -> tuple[int, int]:
        """Verify the result; return (values returned, count draws). Raises on failure."""
        return getattr(self, "_check_" + req["kind"])(req, result)

    # -- exact_tables -------------------------------------------------------

    def _params(self, req: dict):
        return self.fp.combinatorics.OrderParams(req["k"], req["lam"])

    def _run_table(self, req):
        return self.fp.processes.pmf_table(self._params(req), req["t"], req["n_max"], self._variant(req))

    def _pgf(self, req: dict, u: float) -> float:
        proc, params = self.fp.processes, self._params(req)
        name = req.get("variant", "ppok")
        if name == "tf":
            return proc.tfppok_pgf(params, u, req["t"], req["beta"])
        if name == "sf":
            return proc.sfppok_pgf(params, u, req["t"], req["alpha"])
        if name == "ttsf":
            return proc.ttsfppok_pgf(params, u, req["t"], req["alpha"], req["beta"], req["mu"], req["nu"])
        return proc.ppok_pgf(params, u, req["t"])

    def _check_probs(self, req: dict, probs, truncation_mass: float) -> None:
        _require(len(probs) == req["n_max"] + 1, "table length")
        _require(all(math.isfinite(p) and p >= 0 for p in probs), "probabilities nonnegative")
        _require(0.0 <= truncation_mass <= 1.0, "truncation mass in [0, 1]")
        # the tail beyond n_max contributes at most truncation_mass * u^(n_max+1)
        for u in (0.2, 0.5, 0.8, 0.95):
            series = math.fsum(p * u**n for n, p in enumerate(probs))
            gap = abs(series - self._pgf(req, u))
            _require(gap <= truncation_mass * u ** (req["n_max"] + 1) + 1e-9,
                     f"pgf mismatch {gap:.3g} at u={u}")

    def _check_table(self, req, table):
        self._check_probs(req, [float(p) for p in table.probs], float(table.truncation_mass))
        return req["n_max"] + 1, 0

    def _run_levy(self, req):
        return self.fp.processes.sfppok_levy_weights(self._params(req), req["alpha"], req["y_max"])

    def _check_levy(self, req, w):
        _require(len(w) == req["y_max"], "weights length")
        _require(all(math.isfinite(x) and x > 0 for x in w), "weights positive")
        total = (req["k"] * req["lam"]) ** req["alpha"]
        partial = 0.0
        for x in w:
            partial += x
            _require(partial <= total * (1 + 1e-12), "partial sum exceeds (k lam)^alpha")
        return len(w), 0

    def _run_first_passage(self, req):
        return self.fp.processes.sfppok_first_passage(self._params(req), req["alpha"], req["level"], req["t"])

    def _check_first_passage(self, req, dens):
        dens = [float(d) for d in dens]
        _require(len(dens) == len(req["t"]), "density length")
        _require(all(math.isfinite(d) and d >= -1e-12 for d in dens), "density finite, nonnegative")
        # independent route: the density is -d/dt P(N(t) < level), the sum of
        # the first `level` Taylor coefficients of -d/dt pgf(u, t) at u = 0
        for t, d in zip(req["t"], dens):
            ref = math.fsum(sf_taylor(req["k"], req["lam"], req["alpha"], t, req["level"])[1])
            _require(abs(ref - d) <= 1e-12 + 1e-9 * abs(ref), f"first passage {d:.12g} vs {ref:.12g}")
        return len(dens), 0

    def _run_ttsf_pgf(self, req):
        proc, params = self.fp.processes, self._params(req)
        return [proc.ttsfppok_pgf(params, u, req["t"], req["alpha"], req["beta"], req["mu"], req["nu"])
                for u in req["u"]]

    def _check_ttsf_pgf(self, req, values):
        _require(all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values), "pgf in [0, 1]")
        # a pgf is nondecreasing and convex on [0, 1]
        _require(all(b >= a - 1e-12 for a, b in zip(values, values[1:])), "pgf nondecreasing")
        us = req["u"]
        for i in range(1, len(us) - 1):
            left = (values[i] - values[i - 1]) / (us[i] - us[i - 1])
            right = (values[i + 1] - values[i]) / (us[i + 1] - us[i])
            _require(right >= left - 1e-9, "pgf convex")
        if req["nu"] == 0.0:
            # untempered inner clock: E exp(-a E(t)) = E_beta(-a t^beta)
            k, lam, alpha, mu = req["k"], req["lam"], req["alpha"], req["mu"]
            for u, v in zip(us, values):
                g = sum(u**j for j in range(1, k + 1)) / k
                a = (mu + k * lam * (1.0 - g)) ** alpha - mu**alpha
                ref = self.fp.specfun.mittag_leffler(req["beta"], 1.0, -a * req["t"] ** req["beta"])
                _require(abs(ref - v) <= 1e-9, f"ttsf pgf {v:.12g} vs Mittag-Leffler {ref:.12g}")
        return len(values), 0

    def _run_tf_pgf(self, req):
        proc, params = self.fp.processes, self._params(req)
        return [proc.tfppok_pgf(params, u, req["t"], req["beta"]) for u in req["u"]]

    def _check_tf_pgf(self, req, values):
        import mpmath

        k, lam, beta, t = req["k"], req["lam"], req["beta"], req["t"]
        with mpmath.workdps(60):
            for u, v in zip(req["u"], values):
                # independent route: the Mittag-Leffler series summed at 60 digits
                g = sum(u**j for j in range(1, k + 1)) / k
                z = -mpmath.mpf(k * lam * t**beta * (1.0 - g))
                ref, term, j = mpmath.mpf(0), mpmath.mpf(1), 0
                while j < 20 or abs(term) > mpmath.mpf(10) ** -40:
                    term = z**j * mpmath.rgamma(mpmath.mpf(beta) * j + 1)
                    ref += term
                    j += 1
                _require(abs(float(ref) - v) <= 1e-12 + 1e-9 * abs(v), f"tf pgf {v:.12g} vs {float(ref):.12g}")
        return len(values), 0

    def _run_cov(self, req):
        proc, params = self.fp.processes, self._params(req)
        ts = req["times"]
        return [[proc.tfppok_cov(params, s, t, req["beta"]) for t in ts] for s in ts]

    def _check_cov(self, req, cov):
        import numpy as np

        k, lam, beta = req["k"], req["lam"], req["beta"]
        m1 = lam * k * (k + 1) / 2.0
        m2 = lam * k * (k + 1) * (2 * k + 1) / 6.0
        mat = np.asarray(cov, dtype=float)
        _require(np.all(np.isfinite(mat)) and np.allclose(mat, mat.T, rtol=1e-12, atol=0), "cov symmetric")
        for i, t in enumerate(req["times"]):
            # Var N(E(t)) = m2 E[E] + m1^2 Var E, with E[E^n] = n! t^(n beta) / Gamma(1 + n beta)
            e1 = t**beta / math.gamma(1 + beta)
            e2 = 2 * t ** (2 * beta) / math.gamma(1 + 2 * beta)
            ref = m2 * e1 + m1**2 * (e2 - e1**2)
            _require(abs(mat[i, i] - ref) <= 1e-9 * ref, f"variance {mat[i, i]:.12g} vs {ref:.12g}")
        _require(float(np.linalg.eigvalsh(mat).min()) >= -1e-9 * float(np.abs(mat).max()), "cov PSD")
        return mat.size, 0

    def _run_density(self, req):
        sf = self.fp.specfun
        fn = sf.stable_density if req["which"] == "stable" else sf.inv_stable_density
        return [fn(req["beta"], x, req["t"]) for x in req["x"]]

    def _check_density(self, req, values):
        _require(len(values) == len(req["x"]), "density length")
        _require(all(math.isfinite(v) and v >= 0 for v in values), "density finite, nonnegative")
        return len(values), 0

    # -- count_draws --------------------------------------------------------

    def _gen(self, req):
        return self.fp.subordinators.RngStream(req["seed"], 0)

    def _run_counts(self, req):
        return self.fp.processes.sample_fractional_counts(
            self._params(req), self._variant(req), req["t"], req["size"], self._gen(req))

    def _check_counts(self, req, counts):
        import numpy as np

        counts = np.asarray(counts)
        _require(counts.shape == (req["size"],), "count array shape")
        _require(counts.dtype.kind in "iu" and int(counts.min()) >= 0, "counts nonnegative integers")
        self._check_pgf_mean(req, counts)
        return counts.size, counts.size

    def _check_pgf_mean(self, req, counts) -> None:
        """Sampled mean of u^N within 6 standard errors of the exact pgf.

        u is taken where the pgf is at least 0.1, so that u^N is not a rare-event
        indicator whose sample standard deviation understates the error.
        """
        import numpy as np

        checked = 0
        for u in (0.5, 0.8, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999):
            exact = self._pgf(req, u)
            if exact < 0.1:
                continue
            vals = np.power(u, counts.astype(float))
            se = max(float(vals.std(ddof=1)) / math.sqrt(vals.size), 1e-12)
            z = (float(vals.mean()) - exact) / se
            _require(abs(z) <= 6.0, f"sampled pgf off by {z:.1f} standard errors at u={u}")
            checked += 1
            if checked == 2:
                return
        _require(checked > 0, "no pgf argument with enough mass to check")

    def _box(self, hi):
        return self.fp.fields.BoxRegion(tuple(0.0 for _ in hi), tuple(hi))

    def _run_field(self, req):
        fields = self.fp.fields
        window = self._box(req["hi"])
        field = fields.sample_field(self._params(req), window, self._gen(req))
        # a partition of the window into four slabs along the first axis
        hi = req["hi"]
        cuts = [hi[0] * q / 4 for q in range(5)]
        slabs = [fields.BoxRegion((cuts[q],) + tuple(0.0 for _ in hi[1:]), (cuts[q + 1],) + tuple(hi[1:]))
                 for q in range(4)]
        counts = [fields.count_in_region(field, slab) for slab in slabs]
        return field, counts, fields.count_in_region(field, window)

    def _check_field(self, req, result):
        import numpy as np

        field, counts, total = result
        pts, marks = np.asarray(field.points), np.asarray(field.marks)
        _require(pts.shape == (marks.size, len(req["hi"])), "field shape")
        _require(bool(np.all(pts >= 0) and np.all(pts < np.asarray(req["hi"]))), "points inside window")
        _require(bool(np.all((marks >= 1) & (marks <= req["k"]))), "marks in 1..k")
        _require(all(isinstance(c, int) and c >= 0 for c in counts), "counts nonnegative integers")
        _require(total == int(marks.sum()) == sum(counts), "slab counts add up to the window count")
        return marks.size + len(counts) + 1, marks.size

    def _run_clocks(self, req):
        fp = self.fp
        return fp.fields.sample_region_clocks(fp.processes.TimeFractional(req["beta"]), req["volumes"],
                                              req["size"], self._gen(req))

    def _check_clocks(self, req, cv):
        import numpy as np

        clocks = np.asarray(cv.clocks)
        _require(clocks.shape == (req["size"], len(req["volumes"])), "clock matrix shape")
        _require(bool(np.all(np.isfinite(clocks)) and np.all(clocks > 0)), "clocks positive")
        order = np.argsort(req["volumes"])
        _require(bool(np.all(np.diff(clocks[:, order], axis=1) >= 0)), "clocks nondecreasing in time")
        return clocks.size, clocks.size

    def _run_field_pmf(self, req):
        fp = self.fp
        x0 = 0.0
        regions = []
        for w in req["widths"]:
            regions.append(fp.fields.BoxRegion((x0, 0.0), (x0 + w, 1.0)))
            x0 += w
        return fp.fields.fractional_field_pmf(self._params(req), fp.processes.TimeFractional(req["beta"]),
                                              regions, req["counts"], req["size"], self._gen(req))

    def _check_field_pmf(self, req, result):
        est, se = result
        _require(math.isfinite(est) and 0.0 <= est <= 1.0, "estimate in [0, 1]")
        _require(math.isfinite(se) and se >= 0.0, "standard error finite")
        # a joint probability is at most each exact marginal
        proc, params = self.fp.processes, self._params(req)
        bound = min(proc.tfppok_pmf(params, n, w, req["beta"]) for n, w in zip(req["counts"], req["widths"]))
        _require(est <= bound + 6 * se + 1e-3, f"joint estimate {est:.4g} above marginal {bound:.4g}")
        return 2, req["size"]

    # -- cli_verify ---------------------------------------------------------

    def _run_cli(self, req):
        argv = list(req["argv"])
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = os.path.join(self.workdir, argv[i])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.fp.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def _check_cli(self, req, result):
        code, out, err = result
        argv = req["argv"]
        command = argv[0]
        if command == "verify":
            _require(code in (0, 1), f"verify exit code {code}: {err.strip()}")
            lines = out.splitlines()
            expected = 1 if "--negative-control" in argv else {"gof": 3, "governing": 2, "martingale": 1}[
                argv[argv.index("--suite") + 1]]
            _require(len(lines) == expected, f"verify printed {len(lines)} lines, expected {expected}")
            _require(all(ln.split(" ", 1)[0] in ("PASS", "FAIL") for ln in lines), "verdict lines")
            # FAIL verdicts are 3-sigma statistical gates, recorded but not failures
            self.fail_lines += sum(ln.startswith("FAIL") for ln in lines)
            return len(lines), 0
        _require(code == 0, f"{command} exit code {code}: {err.strip()}")
        path = os.path.join(self.workdir, argv[argv.index("--out") + 1])
        with open(path) as fh:
            text = fh.read()
        os.unlink(path)
        self.bytes_written += len(text.encode())
        opts = _options(argv)
        is_json = opts.get("--format") == "json"
        if command == "pmf":
            return self._check_cli_pmf(opts, text, is_json), 0
        if command == "sample":
            return self._check_cli_sample(argv, opts, text, is_json)
        return self._check_cli_field(opts, text, is_json)

    def _check_cli_pmf(self, opts, text, is_json) -> int:
        n_max = int(opts["--nmax"])
        if is_json:
            doc = json.loads(text)
            _require(doc["schema"] == 1 and doc["kind"] == "pmf_table", "pmf document kind")
            probs, mass = doc["probabilities"], doc["truncation_mass"]
        else:
            columns, rows = _csv_body(text)
            _require(columns == ["n", "probability"], "pmf columns")
            _require(len(rows) == n_max + 2 and rows[-1][0] == "truncation_mass", "pmf row count")
            probs, mass = [float(r[1]) for r in rows[:-1]], float(rows[-1][1])
        self._check_probs({**_model(opts), "n_max": n_max}, probs, mass)
        return n_max + 1

    def _check_cli_sample(self, argv, opts, text, is_json):
        import numpy as np

        if "--path" in argv:
            if is_json:
                doc = json.loads(text)
                times, marks = doc["times"], doc["marks"]
            else:
                columns, rows = _csv_body(text)
                _require(columns == ["time", "mark"], "path columns")
                times, marks = [float(r[0]) for r in rows], [int(r[1]) for r in rows]
            _require(all(0 <= a <= b <= float(opts["-t"]) for a, b in zip(times, times[1:])), "path times sorted")
            _require(all(1 <= m <= int(opts["-k"]) for m in marks), "path marks in 1..k")
            return len(times), 0
        n = int(opts["-N"])
        if is_json:
            doc = json.loads(text)
            _require(doc["kind"] == "samples", "sample document kind")
            counts = doc["counts"]
        else:
            columns, rows = _csv_body(text)
            _require(columns == ["count"], "sample columns")
            counts = [int(r[0]) for r in rows]
        _require(len(counts) == n and min(counts) >= 0, "sample row count")
        self._check_pgf_mean(_model(opts), np.asarray(counts, dtype=np.int64))
        return n, n

    def _check_cli_field(self, opts, text, is_json):
        window = [float(x) for x in opts["--window"].split(",")]
        d = len(window) // 2
        lo, hi = window[:d], window[d:]
        if is_json:
            doc = json.loads(text)
            points, marks = doc["points"], doc["marks"]
        else:
            columns, rows = _csv_body(text)
            _require(columns == [f"x{i + 1}" for i in range(d)] + ["mark"], "field columns")
            points = [[float(c) for c in r[:d]] for r in rows]
            marks = [int(r[d]) for r in rows]
        _require(len(points) == len(marks), "field row count")
        _require(all(len(p) == d and all(a <= c < b for a, c, b in zip(lo, p, hi)) for p in points),
                 "field points inside window")
        _require(all(1 <= m <= int(opts["-k"]) for m in marks), "field marks in 1..k")
        return len(marks), len(marks)


def sf_taylor(k: int, lam: float, alpha: float, t: float, n: int):
    """Taylor coefficients at u = 0, degrees below n, of the space-fractional
    pgf ``exp(-t h(u)^alpha)`` and of ``-d/dt`` of it, ``h^alpha exp(-t h^alpha)``,
    with ``h(u) = k lam (1 - G(u))``.

    An independent float route to the sf pmf: ``(1 - G)^alpha`` is a binomial
    series in G whose terms past the first are all negative, so the exponent
    series has positive coefficients and nothing cancels, unlike the power
    series in t that the package sums.
    """
    import numpy as np

    g = np.zeros(n)
    g[1:k + 1] = 1.0 / k
    h_alpha = np.zeros(n)
    h_alpha[0] = 1.0
    g_power = h_alpha.copy()
    coef = 1.0
    for m in range(1, n):
        g_power = np.convolve(g_power, g)[:n]
        coef *= -(alpha - m + 1) / m
        h_alpha += coef * g_power
    h_alpha *= (k * lam) ** alpha
    # f = exp(a) with a = -t h^alpha, by the recurrence j f_j = sum_i i a_i f_(j-i)
    ia = -t * h_alpha * np.arange(n)
    f = np.zeros(n)
    f[0] = math.exp(-t * h_alpha[0])
    for j in range(1, n):
        f[j] = float(np.dot(ia[1:j + 1], f[j - 1::-1])) / j
    return f, np.convolve(h_alpha, f)[:n]


class CheckFailed(Exception):
    """A request's output failed its correctness check."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _options(argv: list[str]) -> dict:
    """Option values of a CLI argv, with the defaults the requests rely on."""
    opts = {"-k": "3", "--lambda": "2.0", "-t": "1.0", "--variant": "ppok", "--mu": "0.0", "--nu": "0.0",
            "--format": "csv", "--nmax": "40"}
    for flag, value in zip(argv, argv[1:]):
        if flag.startswith("-") and not value.startswith("--"):
            opts[flag] = value
    return opts


def _model(opts: dict) -> dict:
    """The model of a CLI request in the form the library requests use."""
    model = {"k": int(opts["-k"]), "lam": float(opts["--lambda"]), "t": float(opts["-t"]),
             "variant": opts["--variant"], "mu": float(opts["--mu"]), "nu": float(opts["--nu"])}
    for name in ("alpha", "beta"):
        if f"--{name}" in opts:
            model[name] = float(opts[f"--{name}"])
    return model


def _csv_body(text: str) -> tuple[list[str], list[list[str]]]:
    body = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return body[0].split(","), [ln.split(",") for ln in body[1:]]
