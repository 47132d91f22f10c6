"""End-to-end verification gates for the library.

Each test is one gate over a whole feature area: it checks the documented
tolerance against an independent oracle (closed form, high-precision series
with exact arguments, exhaustive enumeration, or Monte Carlo with honest
standard errors) and prints a single PASS/FAIL line with headline numbers.
Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
"""

import math
import time

import numpy as np
from mpmath import mp
from scipy.integrate import quad
from scipy.stats import binom as binom_dist
from scipy.stats import chi2_contingency

from fracppk import (
    BoxRegion,
    Gamma,
    InverseGaussian,
    MixedStable,
    MixtureTemperedStable,
    OrderParams,
    RngStream,
    SpaceFractional,
    Stable,
    TemperedStable,
    TemperedTimeSpace,
    TimeFractional,
    compare_pmf,
    count_in_region,
    field_moments,
    field_pmf,
    fractional_field_pmf,
    governing_residual_sf,
    governing_residual_tf,
    inv_stable_density,
    martingale_check,
    mittag_leffler,
    pmf_table,
    ppok_moments,
    ppok_pgf,
    ppok_pmf,
    prabhakar_ml,
    sample_field,
    sample_fractional_counts,
    sample_inverse_at,
    sample_ppok_counts,
    sfppok_first_passage,
    sfppok_levy_weights,
    sfppok_pgf,
    sfppok_pmf,
    stable_density,
    tfppok_cov,
    tfppok_mean,
    tfppok_pmf,
    ttsfppok_pgf,
)


def _gate(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# gate 1: the fractional variants and the field collapse to the base process
# ---------------------------------------------------------------------------


def test_reduction_chain_collapses_to_base():
    t0 = time.perf_counter()
    t = 0.8
    worst = 0.0
    for k in (1, 2, 3):
        params = OrderParams(k, 1.1)
        region = BoxRegion((0.0,), (t,))
        for n in range(21):
            base = ppok_pmf(params, n, t)
            worst = max(
                worst,
                abs(tfppok_pmf(params, n, t, 1.0) - base),
                abs(field_pmf(params, region, n) - base),
            )
    elapsed = time.perf_counter() - t0
    _gate(
        "reduction-chain",
        worst < 1e-10 and elapsed < 1.0,
        f"max deviation {worst:.2e} over k in 1..3, n <= 20 ({elapsed:.2f} s)",
    )


# ---------------------------------------------------------------------------
# gate 2: order one closed forms (classical fractional Poisson limits)
# ---------------------------------------------------------------------------


def test_order_one_closed_forms():
    t0 = time.perf_counter()

    # time-fractional pmf at k = 1 against the classical double series
    # p_n(t) = sum_j (-1)^j C(n+j, j) w^(n+j) / Gamma(beta (n+j) + 1), w = lam t^beta,
    # summed with exact arguments at 50 digits.
    lam, t, beta = 1.2, 0.9, 0.6
    params = OrderParams(1, lam)
    worst_tf = 0.0
    with mp.workdps(50):
        w = mp.mpf(lam) * mp.mpf(t) ** mp.mpf(beta)
        bb = mp.mpf(beta)
        for n in range(13):
            total = mp.mpf(0)
            for j in range(400):
                term = (-1) ** j * mp.binomial(n + j, j) * w ** (n + j) / mp.gamma(bb * (n + j) + 1)
                total += term
                if j > 10 and abs(term) < mp.mpf(10) ** -40 * max(abs(total), mp.mpf(10) ** -30):
                    break
            worst_tf = max(worst_tf, abs(tfppok_pmf(params, n, t, beta) - float(total)))

    # space-fractional pgf at k = 1 is exactly exp(-t (lam (1 - u))^alpha)
    lam2, t2, alpha = 1.3, 1.4, 0.65
    params2 = OrderParams(1, lam2)
    worst_sf = 0.0
    for u in (0.0, 0.25, 0.5, 0.75, 0.95):
        closed = math.exp(-t2 * (lam2 * (1.0 - u)) ** alpha)
        worst_sf = max(worst_sf, abs(sfppok_pgf(params2, u, t2, alpha) - closed))

    elapsed = time.perf_counter() - t0
    _gate(
        "order-one-reductions",
        worst_tf < 1e-8 and worst_sf < 1e-8 and elapsed < 1.0,
        f"tf pmf dev {worst_tf:.2e}, sf pgf dev {worst_sf:.2e} ({elapsed:.2f} s)",
    )


# ---------------------------------------------------------------------------
# gate 3: samplers reproduce the exact pmf tables
# ---------------------------------------------------------------------------


def test_sampled_counts_match_pmf_tables():
    params = OrderParams(2, 1.0)
    n_samples = 100_000
    cases = [
        ("base", None),
        ("tf-0.7", TimeFractional(0.7)),
        ("sf-0.7", SpaceFractional(0.7)),
    ]
    ok = True
    parts = []
    for i, (name, variant) in enumerate(cases):
        t0 = time.perf_counter()
        rng = RngStream(2026, 31 + i)
        if variant is None:
            counts = sample_ppok_counts(params, 1.0, n_samples, rng)
        else:
            counts = sample_fractional_counts(params, variant, 1.0, n_samples, rng)
        rep = compare_pmf(pmf_table(params, 1.0, 40, variant), counts)
        elapsed = time.perf_counter() - t0
        ok = ok and rep.tv < 0.01 and rep.p_value > 0.001 and elapsed < 60.0
        parts.append(f"{name} tv {rep.tv:.4f} p {rep.p_value:.3f} ({elapsed:.1f} s)")
    _gate("mc-vs-analytic", ok, "; ".join(parts))


# ---------------------------------------------------------------------------
# gate 4: governing equations hold on the grid and tighten under refinement
# ---------------------------------------------------------------------------


def test_governing_equation_residuals():
    t0 = time.perf_counter()
    params = OrderParams(2, 1.0)
    tf_fine = governing_residual_tf(params, 0.7, n_max=5, n_steps=500)
    tf_coarse = governing_residual_tf(params, 0.7, n_max=5, n_steps=250)
    sf_fine = governing_residual_sf(params, 0.7, dt=1e-4)
    sf_coarse = governing_residual_sf(params, 0.7, dt=1e-2)
    elapsed = time.perf_counter() - t0
    ok = (
        tf_fine < 5e-2
        and tf_fine < tf_coarse
        and sf_fine < 1e-6
        and sf_fine < sf_coarse
        and elapsed < 30.0
    )
    _gate(
        "governing-residuals",
        ok,
        f"tf {tf_fine:.2e} (coarse {tf_coarse:.2e}), sf {sf_fine:.2e} "
        f"(coarse {sf_coarse:.2e}) ({elapsed:.1f} s)",
    )


# ---------------------------------------------------------------------------
# gate 5: first-passage laws of the space-fractional process
# ---------------------------------------------------------------------------


def test_first_passage_closed_forms():
    k, lam, alpha = 2, 1.3, 0.6
    params = OrderParams(k, lam)
    rate = k**alpha * lam**alpha
    ts = np.array([0.1, 0.5, 1.0, 2.0, 5.0])

    # level 1: exponential with rate (k lam)^alpha, exact
    dev1 = max(
        abs(sfppok_first_passage(params, alpha, 1, float(t)) - rate * math.exp(-t * rate))
        for t in ts
    )

    # level 2: lam^alpha e^(-t (k lam)^alpha) (k^a - a k^(a-1) + a lam^a t k^(2a-1))
    dev2 = 0.0
    for t in ts:
        closed = (
            lam**alpha
            * math.exp(-t * rate)
            * (k**alpha - alpha * k ** (alpha - 1.0) + alpha * lam**alpha * t * k ** (2.0 * alpha - 1.0))
        )
        dev2 = max(dev2, abs(sfppok_first_passage(params, alpha, 2, float(t)) - closed))

    mass, _ = quad(lambda s: sfppok_first_passage(params, alpha, 1, s), 0.0, np.inf)
    _gate(
        "first-passage",
        dev1 < 1e-12 and dev2 < 1e-10 and abs(mass - 1.0) < 1e-6,
        f"level-1 dev {dev1:.2e}, level-2 dev {dev2:.2e}, level-1 mass {mass:.8f}",
    )


# ---------------------------------------------------------------------------
# gate 6: jump measure reconstructs the characteristic exponent
# ---------------------------------------------------------------------------


def test_levy_weights_reconstruct_exponent():
    k, lam, alpha, y_max = 2, 1.0, 0.7, 200
    params = OrderParams(k, lam)
    w = sfppok_levy_weights(params, alpha, y_max)
    assert np.all(w > 0)

    # independent expansion: the weights must be -(k lam)^alpha times the
    # Taylor coefficients of (1 - (u + .. + u^k)/k)^alpha, computed here by a
    # generalized binomial series over plain polynomial powers
    base = np.zeros(y_max + 1)
    base[1 : k + 1] = 1.0 / k
    poly = np.zeros(y_max + 1)
    poly[0] = 1.0
    coeff = np.zeros(y_max + 1)
    binom_c = 1.0
    for m in range(y_max + 1):
        if m > 0:
            poly = np.convolve(poly, base)[: y_max + 1]
            binom_c *= (alpha - (m - 1)) / m
        coeff += binom_c * (-1.0) ** m * poly
    w_indep = -((k * lam) ** alpha) * coeff[1:]

    thetas = (0.1, 0.3, 1.0)
    ys = np.arange(1, y_max + 1)
    worst = 0.0
    worst_tail = 0.0
    deficit = (k * lam) ** alpha - float(np.sum(w))
    for theta in thetas:
        phase = np.exp(1j * theta * ys) - 1.0
        s_lib = np.sum(w * phase)
        s_indep = np.sum(w_indep * phase)
        worst = max(worst, abs(s_lib - s_indep))
        # the truncated sum must sit within twice the truncated mass of the
        # exact exponent -(k lam (1 - G(e^(i theta))))^alpha
        g_val = np.mean(np.exp(1j * theta * np.arange(1, k + 1)))
        exact = -((k * lam * (1.0 - g_val)) ** alpha)
        worst_tail = max(worst_tail, abs(s_lib - exact) - 2.0 * deficit)
    scale_ok = 1e-4 < deficit < 5.0 * (k * lam) ** alpha * y_max**-alpha
    _gate(
        "levy-reconstruction",
        worst < 1e-8 and worst_tail <= 0.0 and scale_ok,
        f"matched-truncation dev {worst:.2e}, tail slack {worst_tail:.2e}, "
        f"truncated mass {deficit:.4f}",
    )


# ---------------------------------------------------------------------------
# gate 7: tempered time-space pgf against Monte Carlo and its reduction
# ---------------------------------------------------------------------------


def test_tempered_time_space_pgf():
    t0 = time.perf_counter()
    params = OrderParams(2, 0.5)
    alpha, beta, mu, nu = 0.6, 0.7, 0.3, 0.4
    t = 1.0

    dev_red = max(
        abs(ttsfppok_pgf(params, u, t, 1.0, 1.0, 0.0, 0.0) - ppok_pgf(params, u, t))
        for u in (0.2, 0.5, 0.8)
    )

    variant = TemperedTimeSpace(alpha, beta, mu, nu)
    counts = sample_fractional_counts(params, variant, t, 100_000, RngStream(2026, 71))
    ok = dev_red < 1e-8
    parts = [f"reduction dev {dev_red:.2e}"]
    for u in (0.3, 0.6):
        vals = u ** counts.astype(float)
        est = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(vals.size))
        exact = ttsfppok_pgf(params, u, t, alpha, beta, mu, nu)
        z = (est - exact) / se
        ok = ok and abs(z) < 3.0
        parts.append(f"u={u} z {z:+.2f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _gate("tempered-pgf", ok, "; ".join(parts) + f" ({elapsed:.1f} s)")


# ---------------------------------------------------------------------------
# gate 8: field laws (thinning, enumeration oracle, sampling, fractional)
# ---------------------------------------------------------------------------


def _joint_by_thinning(v_sub: float, v_whole: float, lam: float, j: int, n: int) -> float:
    """P(count in sub = j, count in whole = n) for order 2 by enumerating
    point placements: each of the Poisson(2 lam V) points lands in the
    subregion with chance v_sub/V and carries mark 1 or 2 evenly."""
    q = v_sub / v_whole
    total = 0.0
    for a2 in range(j // 2 + 1):
        a1 = j - 2 * a2
        for b2 in range((n - j) // 2 + 1):
            b1 = (n - j) - 2 * b2
            m_points = a1 + a2 + b1 + b2
            total += (
                (2.0 * lam * v_whole) ** m_points
                / (
                    math.factorial(a1)
                    * math.factorial(a2)
                    * math.factorial(b1)
                    * math.factorial(b2)
                )
                * (q / 2.0) ** (a1 + a2)
                * ((1.0 - q) / 2.0) ** (b1 + b2)
            )
    return math.exp(-2.0 * lam * v_whole) * total


def test_field_laws():
    ok = True
    parts = []

    # the law of a sub-box count given the whole's: the counts of the
    # sub-box and of the rest are independent and add up to the whole's
    whole = BoxRegion((0.0, 0.0), (2.0, 1.5))
    sub = BoxRegion((0.0, 0.0), (1.0, 0.75))

    def conditional_pmf(params, j, n):
        v_sub, v_whole = sub.volume, whole.volume
        return ppok_pmf(params, j, v_sub) * ppok_pmf(params, n - j, v_whole - v_sub) / ppok_pmf(params, n, v_whole)

    # order 1: conditional law is binomial thinning, exactly
    params1 = OrderParams(1, 1.7)
    p_thin = sub.volume / whole.volume
    dev1 = 0.0
    for n in (1, 4, 9):
        for j in range(n + 1):
            got = conditional_pmf(params1, j, n)
            dev1 = max(dev1, abs(got - float(binom_dist.pmf(j, n, p_thin))))
    ok = ok and dev1 < 1e-12
    parts.append(f"k=1 binomial dev {dev1:.2e}")

    # order 2: exhaustive placement enumeration oracle
    params2 = OrderParams(2, 0.9)
    dev2 = 0.0
    for n in range(9):
        marg = sum(_joint_by_thinning(sub.volume, whole.volume, 0.9, j, n) for j in range(n + 1))
        for j in range(n + 1):
            oracle = _joint_by_thinning(sub.volume, whole.volume, 0.9, j, n) / marg
            dev2 = max(dev2, abs(conditional_pmf(params2, j, n) - oracle))
    ok = ok and dev2 < 1e-12
    parts.append(f"k=2 enumeration dev {dev2:.2e}")

    # sampled fields: count law plus independence of disjoint halves
    window = BoxRegion((0.0, 0.0), (1.5, 1.0))
    left = BoxRegion((0.0, 0.0), (0.75, 1.0))
    right = BoxRegion((0.75, 0.0), (1.5, 1.0))
    n_fields = 100_000
    gen = RngStream(2026, 81).generator()
    whole_counts = np.empty(n_fields, dtype=np.int64)
    left_counts = np.empty(n_fields, dtype=np.int64)
    right_counts = np.empty(n_fields, dtype=np.int64)
    for i in range(n_fields):
        field = sample_field(params2, window, gen)
        whole_counts[i] = count_in_region(field, window)
        left_counts[i] = count_in_region(field, left)
        right_counts[i] = count_in_region(field, right)
    rep = compare_pmf(pmf_table(params2, window.volume, 30), whole_counts)
    ok = ok and rep.tv < 0.01 and rep.p_value > 0.001
    parts.append(f"count-law tv {rep.tv:.4f} p {rep.p_value:.3f}")
    cap = 7
    contingency = np.zeros((cap + 1, cap + 1))
    np.add.at(contingency, (np.minimum(left_counts, cap), np.minimum(right_counts, cap)), 1.0)
    contingency = contingency[contingency.sum(axis=1) > 0][:, contingency.sum(axis=0) > 0]
    p_indep = float(chi2_contingency(contingency).pvalue)
    ok = ok and p_indep > 0.001
    parts.append(f"independence p {p_indep:.3f}")

    # fractional field on one axis against the process pmfs, within 3 SE
    region = BoxRegion((0.0,), (1.0,))
    params = OrderParams(2, 1.0)
    worst_z = 0.0
    for n in (0, 2):
        est, se = fractional_field_pmf(
            params, TimeFractional(0.7), region, n, 20_000, RngStream(2026, 83)
        )
        worst_z = max(worst_z, abs(est - tfppok_pmf(params, n, 1.0, 0.7)) / se)
        est, se = fractional_field_pmf(
            params, SpaceFractional(0.7), region, n, 40_000, RngStream(2026, 84)
        )
        worst_z = max(worst_z, abs(est - sfppok_pmf(params, n, 1.0, 0.7)) / se)
    ok = ok and worst_z < 3.0
    parts.append(f"fractional max |z| {worst_z:.2f}")

    _gate("fields", ok, "; ".join(parts))


# ---------------------------------------------------------------------------
# gate 9: sampler moments against the closed formulas
# ---------------------------------------------------------------------------


def _moment_zs(samples: np.ndarray, mean_t: float, var_t: float) -> tuple[float, float]:
    x = samples.astype(float)
    n = x.size
    z_mean = (x.mean() - mean_t) / (x.std(ddof=1) / math.sqrt(n))
    sq = (x - x.mean()) ** 2
    z_var = (x.var(ddof=1) - var_t) / (sq.std(ddof=1) / math.sqrt(n))
    return float(z_mean), float(z_var)


def test_sampler_moments():
    n_samples = 100_000
    ok = True
    parts = []

    params = OrderParams(3, 1.2)
    t = 0.7
    counts = sample_ppok_counts(params, t, n_samples, RngStream(2026, 91))
    zm, zv = _moment_zs(counts, *ppok_moments(params, t))
    ok = ok and abs(zm) < 3.0 and abs(zv) < 3.0
    parts.append(f"base z ({zm:+.2f}, {zv:+.2f})")

    beta = 0.7
    counts = sample_fractional_counts(
        params, TimeFractional(beta), t, n_samples, RngStream(2026, 92)
    )
    zm, zv = _moment_zs(counts, tfppok_mean(params, t, beta), tfppok_cov(params, t, t, beta))
    ok = ok and abs(zm) < 3.0 and abs(zv) < 3.0
    parts.append(f"tf z ({zm:+.2f}, {zv:+.2f})")
    # the space-fractional count has no finite mean (its jump measure has an
    # alpha tail), so there is no moment formula to compare against

    window = BoxRegion((0.0, 0.0), (1.2, 0.9))
    field_counts = np.empty(50_000, dtype=np.int64)
    gen = RngStream(2026, 93).generator()
    for i in range(field_counts.size):
        field_counts[i] = count_in_region(sample_field(params, window, gen), window)
    zm, zv = _moment_zs(field_counts, *field_moments(params, window))
    ok = ok and abs(zm) < 3.0 and abs(zv) < 3.0
    parts.append(f"field z ({zm:+.2f}, {zv:+.2f})")

    clock_parts = []
    for i, b in enumerate((0.5, 0.7, 0.9)):
        draws = sample_inverse_at(Stable(b), [1.0], 40_000, RngStream(2026, 94 + i))[:, 0]
        target = 1.0 / math.gamma(1.0 + b)
        rel = abs(float(np.mean(draws)) - target) / target
        ok = ok and rel < 0.02
        clock_parts.append(f"{rel:.4f}")
    parts.append("clock mean rel " + "/".join(clock_parts))

    _gate("sampler-moments", ok, "; ".join(parts))


# ---------------------------------------------------------------------------
# gate 10: compensated counts are martingales for every clock family
# ---------------------------------------------------------------------------


def test_martingale_suite():
    t0 = time.perf_counter()
    params = OrderParams(2, 1.0)
    times = [0.25, 0.5, 0.75, 1.0]
    specs = {
        "stable": Stable(0.7),
        "mixed": MixedStable((0.5, 0.5), (0.6, 0.9)),
        "tempered": TemperedStable(0.7, 1.0),
        "mixture": MixtureTemperedStable((0.6, 0.4), (0.5, 0.8), (0.5, 1.5)),
        "gamma": Gamma(1.0, 1.0),
        "ig": InverseGaussian(1.0, 1.0),
    }
    ok = True
    parts = []
    for i, (name, spec) in enumerate(specs.items()):
        rep = martingale_check(params, spec, times, 10_000, RngStream(2026, 101 + i), label=name)
        worst = float(np.max(np.abs(rep.z_scores)))
        ok = ok and rep.passed
        parts.append(f"{name} |z| {worst:.2f}")
    control = martingale_check(
        params,
        Stable(0.7),
        times,
        10_000,
        RngStream(2026, 111),
        compensate_with_clock=False,
        label="control",
    )
    ok = ok and not control.passed
    parts.append(f"control max |z| {float(np.max(np.abs(control.z_scores))):.1f} (must fail)")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _gate("martingales", ok, "; ".join(parts) + f" ({elapsed:.1f} s)")


# ---------------------------------------------------------------------------
# gate 11: special functions against 50-digit oracles, densities normalize
# ---------------------------------------------------------------------------


def _ml_oracle(a: float, b: float, z: float, c: float | None = None) -> float:
    """Mittag-Leffler (or Prabhakar when c is given) summed with exact
    arguments at 50 digits; independent of the library series code."""
    with mp.workdps(50):
        aa, bb, zz = mp.mpf(a), mp.mpf(b), mp.mpf(z)
        total = mp.mpf(0)
        poch = mp.mpf(1)
        for j in range(3000):
            term = zz**j / mp.gamma(aa * j + bb)
            if c is not None:
                term *= poch / mp.factorial(j)
                poch *= mp.mpf(c) + j
            total += term
            if j > 10 and abs(term) < mp.mpf(10) ** -65 * max(abs(total), mp.mpf(10) ** -20):
                return float(total)
    raise RuntimeError("oracle did not converge")


def _wright_density_oracle(beta: float, y: float) -> float:
    """W(-beta, 0; -y) / pi by direct summation with generous margins:
    precision sized well past the envelope peak, terms kept to absolute
    negligibility."""
    peak, k_end = -math.inf, 0
    j = 0
    while True:
        j += 1
        env = math.lgamma(beta * j + 1.0) - math.lgamma(j + 1.0) + j * math.log(y)
        peak = max(peak, env)
        if env < min(peak - 80.0, -140.0):
            k_end = j
            break
    dps = 90 + max(0, int(peak / math.log(10)) + 1)
    with mp.workdps(dps):
        bb, yy = mp.mpf(beta), mp.mpf(y)
        total = mp.mpf(0)
        for j in range(1, k_end + 1):
            term = mp.gamma(bb * j + 1) / mp.factorial(j) * yy**j * mp.sinpi(bb * j)
            total += -term if j % 2 == 0 else term
        return float(total / mp.pi)


def _stable_right_tail_mass(beta: float, x_hi: float) -> float:
    """Mass of the stable density beyond x_hi, integrated term by term."""
    y = x_hi**-beta
    total = 0.0
    for j in range(1, 200):
        mag = math.exp(math.lgamma(beta * j + 1.0) - math.lgamma(j + 1.0) + j * math.log(y))
        term = (-1.0) ** (j + 1) * mag * math.sin(math.pi * beta * j) / (beta * j * math.pi)
        total += term
        if mag / (beta * j * math.pi) < 1e-16 * max(total, 1e-12) and j > 5:
            return total
    raise RuntimeError("tail series did not converge")


def _inverse_tail_bound(beta: float, s: float, x_hi: float) -> float:
    """Chernoff bound P(E_beta(1) > x_hi) <= E[exp(s E)] exp(-s x_hi); the
    moment generating function of the inverse clock is Mittag-Leffler."""
    with mp.workdps(40):
        bb, ss = mp.mpf(beta), mp.mpf(s)
        total = mp.mpf(0)
        for j in range(5000):
            term = ss**j / mp.gamma(bb * j + 1)
            total += term
            if j > 10 and term < mp.mpf(10) ** -30 * total:
                break
        return float(total * mp.e ** (-ss * mp.mpf(x_hi)))


def test_special_function_oracles_and_normalization():
    t0 = time.perf_counter()
    ok = True
    parts = []

    ml_grid = [
        (a, b, z)
        for (a, b) in ((0.5, 1.0), (0.7, 1.0), (0.9, 1.0), (0.6, 0.6), (0.8, 1.2), (1.3, 1.0))
        for z in (-6.0, 2.5)
    ]
    dev_ml = max(
        abs(mittag_leffler(a, b, z) - _ml_oracle(a, b, z)) / abs(_ml_oracle(a, b, z))
        for a, b, z in ml_grid
    )
    prabhakar_grid = [
        (a, b, c, z)
        for (a, b, c) in ((0.6, 1.0, 2.0), (0.8, 0.9, 1.5))
        for z in (-4.0, -1.0, 0.8, 2.0)
    ]
    dev_pr = max(
        abs(prabhakar_ml(a, b, c, z) - _ml_oracle(a, b, z, c)) / abs(_ml_oracle(a, b, z, c))
        for a, b, c, z in prabhakar_grid
    )
    wright_stable = [(0.6, 0.5), (0.6, 1.5), (0.8, 0.7), (0.8, 2.0), (0.5, 0.02)]
    wright_inverse = [(0.6, 0.3), (0.6, 1.2), (0.8, 0.5), (0.8, 1.5), (0.5, 8.0)]
    dev_wr = 0.0
    for b, x in wright_stable:
        oracle = _wright_density_oracle(b, x**-b) / x
        dev_wr = max(dev_wr, abs(stable_density(b, x, 1.0) - oracle) / oracle)
    for b, x in wright_inverse:
        oracle = _wright_density_oracle(b, x) / (b * x)
        dev_wr = max(dev_wr, abs(inv_stable_density(b, x, 1.0) - oracle) / oracle)
    n_points = len(ml_grid) + len(prabhakar_grid) + len(wright_stable) + len(wright_inverse)
    ok = ok and dev_ml < 1e-10 and dev_pr < 1e-10 and dev_wr < 1e-10
    parts.append(f"{n_points}-point oracle dev ml {dev_ml:.1e} pr {dev_pr:.1e} wr {dev_wr:.1e}")

    # stable densities: integrate from x_lo (left mass provably negligible:
    # erfc(1/(2 sqrt(x_lo))) ~ 2.5e-15 at beta = 1/2, and below x_lo the
    # density still rises toward the mode, so mass <= x_lo g(x_lo) ~ 1e-20
    # for the others) and add the term-by-term analytic tail past x_hi = 8.
    for b, x_lo, probe in ((0.5, 0.008, 0.6), (0.7, 0.08, 0.6), (0.9, 0.45, 0.9)):
        assert stable_density(b, probe * x_lo, 1.0) < stable_density(b, x_lo, 1.0)
        left_bound = x_lo * stable_density(b, x_lo, 1.0)
        val, _ = quad(lambda x: stable_density(b, x, 1.0), x_lo, 8.0, limit=400, epsabs=1e-9, epsrel=1e-9)
        total = val + _stable_right_tail_mass(b, 8.0)
        ok = ok and abs(total - 1.0) < 1e-6 and left_bound < 1e-9
        parts.append(f"stable({b}) mass {total:.8f}")

    # inverse densities: integrate to x_hi, bound the remainder by Chernoff
    for (b, x_hi), s in zip(((0.5, 12.0), (0.7, 6.0), (0.9, 2.2)), (6.0, 20.0, 50.0)):
        tail = _inverse_tail_bound(b, s, x_hi)
        val, _ = quad(
            lambda x: inv_stable_density(b, x, 1.0), 0.0, x_hi, limit=400, epsabs=1e-9, epsrel=1e-9
        )
        ok = ok and abs(val - 1.0) < 1e-6 and tail < 1e-9
        parts.append(f"inverse({b}) mass {val:.8f}")

    elapsed = time.perf_counter() - t0
    _gate("special-functions", ok, "; ".join(parts) + f" ({elapsed:.1f} s)")
