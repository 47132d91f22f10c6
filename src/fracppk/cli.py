"""Command-line interface.

Subcommands: ``pmf`` (tabulate exact probabilities), ``sample`` (draw counts
or an event path), ``field`` (draw a marked spatial field), and ``verify``
(run the self-check suites).  Outputs are CSV with ``#`` comment headers or
JSON documents carrying ``"schema": 1``; files are written atomically.

Exit codes: 0 success, 1 verification failure, 2 usage or parameter error,
3 numerical failure (a series or sampler refused to converge).

The environment variable FRACPPK_THREADS controls how many worker threads
the sampling subcommands may use.  Draws are split into independent random
streams by their number alone: a stream draws at most 2^15 values, so a
request of up to 32,768 draws is one stream, ``RngStream(seed, 0)``, and a
larger one takes ``ceil(N / 2^15)`` streams of equal size (at most 100, so
stream ids stay below the verify suites' own).  Threads only change who
draws which stream, so results are identical whatever the thread count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from functools import lru_cache
from typing import Optional

import numpy as np

from . import __version__
from .combinatorics import OrderParams
from .errors import DomainError, FracppkError, _count
from .fields import BoxRegion, sample_field
from .processes import (
    SpaceFractional,
    TemperedTimeSpace,
    TimeFractional,
    Variant,
    pmf_table,
    sample_fractional_counts,
    sample_ppok_path,
)
from .subordinators import (
    Gamma,
    InverseGaussian,
    MixedStable,
    MixtureTemperedStable,
    RngStream,
    Stable,
    TemperedStable,
)
from .verify import compare_pmf, governing_residual_sf, governing_residual_tf, martingale_check

__all__ = ["main"]

# draws per random stream: a stream's fixed cost (its generator, rejection
# loops and Poisson passes) is 0.5-1.2% of drawing 2^15 values for every
# variant, and 2-3% at 2^14
_STREAM_DRAWS = 2**15
# stream ids 0..99 stay clear of the martingale (100 + i) and negative-control
# (900) streams of the same seed; past 100 streams each one draws more
_MAX_STREAMS = 100
# the most paths one martingale check and the negative control draw, whatever N
_MARTINGALE_PATHS, _CONTROL_PATHS = 10_000, 20_000


def _thread_count() -> int:
    raw = os.environ.get("FRACPPK_THREADS", "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _write_text(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fracppk-", suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out)
        tmp = None  # replaced: nothing left to remove
    except OSError as exc:
        raise DomainError(f"cannot write {out}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _csv_document(columns, rows, command: str, params: dict) -> str:
    echo = " ".join(f"{k}={v}" for k, v in params.items())
    lines = [
        f"# fracppk {__version__}",
        f"# command: {command}",
        f"# {echo}" if echo else "#",
        ",".join(columns),
    ]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_document(kind: str, params: dict, payload: dict) -> str:
    doc = {"schema": 1, "version": __version__, "kind": kind, "params": params}
    doc.update(payload)
    return json.dumps(doc, indent=2) + "\n"


def _emit(args, kind: str, meta: dict, payload, columns, rows) -> int:
    """Write the command's document: JSON of ``kind`` from ``payload()``, or
    CSV of ``columns`` and ``rows()``; only the format asked for is built."""
    if args.format == "json":
        text = _json_document(kind, meta, payload())
    else:
        text = _csv_document(columns, rows(), args.command, meta)
    _write_text(text, args.out)
    return 0


_VARIANTS = {"ppok": None} | {
    cls.label: cls for cls in (TimeFractional, SpaceFractional, TemperedTimeSpace)
}


def _variant_from_args(args) -> tuple[Variant, dict]:
    """The variant named by ``--variant`` and its echo of the options it reads."""
    cls = _VARIANTS[args.variant]
    values = {name: getattr(args, name) for name in cls._fields} if cls else {}
    missing = [f"--{name}" for name, value in values.items() if value is None]
    if missing:
        raise DomainError(f"variant {args.variant} requires {' and '.join(missing)}")
    return (cls(**values) if cls else None), {"variant": args.variant, **values}


def _cmd_pmf(args) -> int:
    params = OrderParams(args.k, args.lam)
    variant, echo = _variant_from_args(args)
    table = pmf_table(params, args.t, args.nmax, variant)
    meta = {"k": args.k, "lam": args.lam, "t": args.t, **echo}
    return _emit(args, "pmf_table", meta, table.json_payload, table.columns,
                 lambda: [*table.rows(), ("truncation_mass", repr(table.truncation_mass))])


def _sample_chunks(params, variant, t, size, seed) -> np.ndarray:
    """``size`` count draws from streams ``RngStream(seed, i)``, one stream per
    ``_STREAM_DRAWS`` draws (at most ``_MAX_STREAMS``), in stream order."""
    size = _count("N", size, 1)
    streams = min(-(-size // _STREAM_DRAWS), _MAX_STREAMS)

    def run(i: int) -> np.ndarray:
        share = size // streams + (i < size % streams)
        return sample_fractional_counts(params, variant, t, share, RngStream(seed, i))

    threads = min(_thread_count(), streams)
    if threads == 1:
        return np.concatenate([run(i) for i in range(streams)])
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return np.concatenate(list(pool.map(run, range(streams))))


def _cmd_sample(args) -> int:
    params = OrderParams(args.k, args.lam)
    if args.path and args.variant != "ppok":
        raise DomainError("--path is only available for the base variant")
    variant, echo = _variant_from_args(args)
    meta = {"k": args.k, "lam": args.lam, "t": args.t, "seed": args.seed, **echo}
    if args.path:
        path = sample_ppok_path(params, args.t, RngStream(args.seed, 0))
        return _emit(args, "event_path", meta, path.json_payload, path.columns, path.rows)
    counts = _sample_chunks(params, variant, args.t, args.n, args.seed)
    meta["n"] = args.n
    return _emit(args, "samples", meta, lambda: {"counts": counts.tolist()}, ("count",),
                 lambda: ((str(c),) for c in counts.tolist()))


def _parse_window(raw: str) -> BoxRegion:
    try:
        values = [float(x) for x in raw.split(",")]
    except ValueError as exc:
        raise DomainError(f"could not parse window {raw!r}") from exc
    if len(values) % 2 != 0 or not values:
        raise DomainError("window needs an even number of coordinates: lo.., hi..")
    d = len(values) // 2
    return BoxRegion(tuple(values[:d]), tuple(values[d:]))


def _cmd_field(args) -> int:
    params = OrderParams(args.k, args.lam)
    window = _parse_window(args.window)
    field = sample_field(params, window, RngStream(args.seed, 0))
    meta = {"k": args.k, "lam": args.lam, "window": args.window, "seed": args.seed}
    return _emit(args, "field", meta, field.json_payload, field.columns, field.rows)


_MARTINGALE_SPECS = {
    "stable": Stable(0.7),
    "mixed": MixedStable((0.5, 0.5), (0.6, 0.9)),
    "tempered": TemperedStable(0.7, 1.0),
    "mixture": MixtureTemperedStable((0.6, 0.4), (0.5, 0.8), (0.5, 1.5)),
    "gamma": Gamma(1.0, 1.0),
    "ig": InverseGaussian(1.0, 1.0),
}
_SUITES = ("gof", "governing", "martingale")


def _cmd_verify(args) -> int:
    params = OrderParams(args.k, args.lam)
    _count("N", args.n, 1)
    _count("seed", args.seed)  # also for the governing suite, which draws nothing
    failures = 0

    def report(ok: bool, name: str, detail: str) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failures += 1

    if args.negative_control:
        rep = martingale_check(
            params,
            Stable(0.7),
            [0.25, 0.5, 0.75, 1.0],
            min(args.n, _CONTROL_PATHS),
            RngStream(args.seed, 900),
            compensate_with_clock=False,
            label="negative-control",
        )
        worst = float(np.max(np.abs(rep.z_scores)))
        report(
            not rep.passed,
            "negative-control",
            f"deliberately wrong compensator deviates (max |z| = {worst:.1f}, "
            f"threshold {rep.threshold:.2f}, {rep.n_paths} paths)",
        )
        return 1 if failures else 0

    suites = _SUITES if args.suite == "all" else (args.suite,)

    if "gof" in suites:
        # the tv gate 0.01 is calibrated at N = 1e5, where it sits above the
        # pure sampling noise of an exact match; at smaller N the noise floor
        # itself scales like 1/sqrt(N), so the gate must follow it or a
        # correct sampler gets flagged
        tv_gate = 0.01 * max(1.0, math.sqrt(100_000 / args.n))
        cases = [
            ("ppok", None),
            ("tf-0.7", TimeFractional(0.7)),
            ("sf-0.7", SpaceFractional(0.7)),
        ]
        for i, (name, variant) in enumerate(cases):
            counts = _sample_chunks(params, variant, args.t, args.n, args.seed + i)
            table = pmf_table(params, args.t, args.nmax, variant)
            rep = compare_pmf(table, counts)
            ok = rep.tv < tv_gate and rep.p_value > 0.001
            report(ok, f"gof/{name}", f"tv = {rep.tv:.4f} (gate {tv_gate:.4f}), chi2 p = {rep.p_value:.4f}")

    if "governing" in suites:
        res_tf = governing_residual_tf(params, 0.7, n_max=3, t_end=args.t, n_steps=300)
        report(res_tf < 5e-2, "governing/tf", f"max residual = {res_tf:.3e}")
        res_sf = governing_residual_sf(params, 0.7, t=args.t)
        report(res_sf < 1e-6, "governing/sf", f"max residual = {res_sf:.3e}")

    if "martingale" in suites:
        names = list(_MARTINGALE_SPECS) if args.spec == "all" else [args.spec]
        for i, name in enumerate(names):
            rep = martingale_check(
                params,
                _MARTINGALE_SPECS[name],
                [0.25, 0.5, 0.75, 1.0],
                min(args.n, _MARTINGALE_PATHS),
                RngStream(args.seed, 100 + i),
                label=name,
            )
            worst = float(np.max(np.abs(rep.z_scores)))
            report(
                rep.passed,
                f"martingale/{name}",
                f"max |z| = {worst:.2f} (threshold {rep.threshold:.2f}, {rep.n_paths} paths)",
            )

    return 1 if failures else 0


_MODEL = ("k", "lambda", "t", "variant", "alpha", "beta", "mu", "nu")
_OUTPUT = ("out", "format")


def _add_shared_arguments(sub: argparse.ArgumentParser, names) -> None:
    """Register the shared options in ``names``: each subcommand gets only those it reads."""

    def add(name, *flags, **kwargs):
        if name in names:
            sub.add_argument(*flags, **kwargs)

    add("k", "-k", type=int, default=3, help="order: batch sizes are uniform on 1..k")
    add("lambda", "--lambda", dest="lam", type=float, default=2.0, help="base rate per batch slot")
    add("t", "-t", type=float, default=1.0, help="time horizon")
    add(
        "variant",
        "--variant",
        choices=tuple(_VARIANTS),
        default="ppok",
        help="which process law to use",
    )
    add("alpha", "--alpha", type=float, default=None, help="space-fractional index in (0, 1]")
    add("beta", "--beta", type=float, default=None, help="time-fractional index in (0, 1]")
    add("mu", "--mu", type=float, default=0.0, help="space tempering rate (ttsf)")
    add("nu", "--nu", type=float, default=0.0, help="time tempering rate (ttsf)")
    add("seed", "--seed", type=int, default=0, help="random seed")
    add("out", "--out", default=None, help="output file (stdout if omitted)")
    add("format", "--format", choices=("csv", "json"), default="csv", help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracppk",
        description="Poisson counting processes and fields of order k with fractional clocks",
    )
    parser.add_argument("--version", action="version", version=f"fracppk {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p_pmf = commands.add_parser("pmf", help="tabulate the exact pmf")
    _add_shared_arguments(p_pmf, _MODEL + _OUTPUT)
    p_pmf.add_argument("--nmax", type=int, default=40, help="largest n in the table")
    p_pmf.set_defaults(func=_cmd_pmf)

    p_sample = commands.add_parser("sample", help="draw counts (or an event path)")
    _add_shared_arguments(p_sample, _MODEL + ("seed",) + _OUTPUT)
    p_sample.add_argument("-N", dest="n", type=int, default=1000, help="number of draws")
    p_sample.add_argument(
        "--path", action="store_true", help="emit one event path instead of count draws"
    )
    p_sample.set_defaults(func=_cmd_sample)

    p_field = commands.add_parser("field", help="draw a marked spatial field")
    _add_shared_arguments(p_field, ("k", "lambda", "seed") + _OUTPUT)
    p_field.add_argument(
        "--window",
        default="0,0,1,1",
        help="box as lo coordinates then hi coordinates, comma separated",
    )
    p_field.set_defaults(func=_cmd_field)

    p_verify = commands.add_parser("verify", help="run the self-check suites")
    _add_shared_arguments(p_verify, ("k", "lambda", "t", "seed"))
    p_verify.add_argument(
        "--suite",
        choices=_SUITES + ("all",),
        default="all",
        help="which checks to run",
    )
    p_verify.add_argument(
        "--spec",
        choices=tuple(_MARTINGALE_SPECS) + ("all",),
        default="all",
        help="subordinator family for the martingale suite",
    )
    p_verify.add_argument("-N", dest="n", type=int, default=100_000, help=(
        f"sample size; at most {_MARTINGALE_PATHS:,} paths per martingale check "
        f"and {_CONTROL_PATHS:,} for the negative control"))
    p_verify.add_argument("--nmax", type=int, default=40, help="largest tabulated n")
    p_verify.add_argument(
        "--negative-control",
        action="store_true",
        help="run only the deliberately-broken compensator check (must deviate)",
    )
    p_verify.set_defaults(func=_cmd_verify)
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reads, built at its first call in a process."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command and return its exit code.

    The parser is built once per process, at the first call, and every call
    parses with it; a command's output is the same as with a fresh parser.
    """
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"fracppk: parameter error: {exc}", file=sys.stderr)
        return 2
    except FracppkError as exc:
        print(f"fracppk: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
