"""Tests for the command-line interface.

Runs the entry point in-process so the tests stay fast, with a single
subprocess check of the installed console script.  The contract under test:
document formats (CSV with # headers, JSON with schema tag), exit codes
(0 ok, 1 verification failure, 2 parameter error, 3 numerical failure),
atomic output files, and byte-identical determinism regardless of thread
count.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import fracppk
from fracppk import (
    NonConvergence,
    OrderParams,
    RngStream,
    SpaceFractional,
    TimeFractional,
    ppok_pmf,
    sample_fractional_counts,
    tfppok_pmf,
)
import fracppk.cli
import fracppk.fields
import fracppk.processes
from fracppk.cli import main

P3 = OrderParams(k=3, lam=2.0)


def run_cli(*argv):
    return main(list(argv))


def parse_csv(text):
    headers = [ln for ln in text.splitlines() if ln.startswith("#")]
    body = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return headers, body[0].split(","), [ln.split(",") for ln in body[1:]]


class TestPmfCommand:
    def test_csv_document(self, capsys):
        assert run_cli("pmf", "-k", "3", "--lambda", "2.0", "-t", "1.0", "--nmax", "10") == 0
        headers, columns, rows = parse_csv(capsys.readouterr().out)
        assert headers[0] == f"# fracppk {fracppk.__version__}"
        assert headers[1] == "# command: pmf"
        assert "k=3" in headers[2] and "lam=2.0" in headers[2]
        assert columns == ["n", "probability"]
        assert rows[-1][0] == "truncation_mass"
        for n_str, p_str in rows[:-1]:
            assert float(p_str) == pytest.approx(ppok_pmf(P3, int(n_str), 1.0), rel=1e-15)

    def test_json_document(self, capsys):
        assert run_cli("pmf", "--format", "json", "--nmax", "8") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        assert doc["version"] == fracppk.__version__
        assert doc["kind"] == "pmf_table"
        assert doc["params"]["k"] == 3
        assert len(doc["probabilities"]) == 9

    def test_fractional_variant(self, capsys):
        assert run_cli(
            "pmf", "--variant", "tf", "--beta", "0.7", "--nmax", "6", "--format", "json"
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["params"]["beta"] == 0.7
        assert doc["probabilities"][2] == pytest.approx(tfppok_pmf(P3, 2, 1.0, 0.7), rel=1e-12)

    @pytest.mark.parametrize(
        "argv",
        [("tf",), ("sf", "--beta", "0.7"), ("ttsf", "--alpha", "0.7")],
        ids=["tf", "sf", "ttsf"],
    )
    def test_variant_requires_index(self, argv, capsys):
        assert run_cli("pmf", "--variant", *argv) == 2
        assert "parameter error" in capsys.readouterr().err

    def test_ttsf_table_is_parameter_error(self, capsys):
        code = run_cli("pmf", "--variant", "ttsf", "--alpha", "0.7", "--beta", "0.8", "--nu", "0.5")
        assert code == 2
        assert "parameter error" in capsys.readouterr().err

    def test_ttsf_table_without_tempered_inner_clock(self, capsys):
        argv = ("pmf", "--variant", "ttsf", "--alpha", "0.7", "--beta", "0.6", "--mu", "0.5", "--format", "json")
        assert run_cli(*argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["params"]["variant"] == "ttsf" and doc["variant"] == "ttsf"
        assert doc["params"]["nu"] == 0.0

    def test_overflowing_clock_weights_are_numerical_failure(self, capsys):
        # k lam t^beta = e^784 leaves the floats: refused as the rule refuses
        # an argument it cannot certify, not a traceback
        argv = ("pmf", "--variant", "tf", "--beta", "0.7", "--lambda", "1e200", "-t", "1e200", "--nmax", "3")
        assert run_cli(*argv) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_tempered_outer_rate_below_its_tempering(self, capsys):
        # (mu + k lam)^alpha - mu^alpha rounds to 0 at k lam = 3e-150; formed
        # without cancellation it is about alpha mu^(alpha - 1) k lam, and
        # each first-order row is w_n E[t^beta M] = alpha mu^(alpha - 1) lam t^beta / Gamma(1 + beta)
        argv = ("pmf", "--variant", "ttsf", "--alpha", "0.7", "--beta", "0.6", "--mu", "0.5",
                "--lambda", "1e-150", "-t", "1e-150", "--nmax", "3")
        assert run_cli(*argv) == 0
        _, _, rows = parse_csv(capsys.readouterr().out)
        probs = [float(r[1]) for r in rows[:-1]]
        first = 0.7 * 0.5**-0.3 * 1e-150 * 1e-90 / math.gamma(1.6)
        assert probs[0] == 1.0 and probs[1:] == pytest.approx([first] * 3, rel=1e-9)

    def test_tempered_outer_rate_that_underflows(self, capsys):
        # k lam / mu = 3e-600 and W = alpha mu^(alpha - 1) k lam = 2e-390 both
        # underflow: the count never leaves 0
        argv = ("pmf", "--variant", "ttsf", "--alpha", "0.7", "--beta", "0.6", "--mu", "1e300",
                "--lambda", "1e-300", "--nmax", "3")
        assert run_cli(*argv) == 0
        _, _, rows = parse_csv(capsys.readouterr().out)
        assert [float(r[1]) for r in rows] == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_numerical_failure_exit_code(self, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise NonConvergence("series refused to converge")

        monkeypatch.setattr("fracppk.cli.pmf_table", boom)
        assert run_cli("pmf") == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_output_file_atomic(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert run_cli("pmf", "--nmax", "5", "--out", str(out)) == 0
        assert out.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("target", ["missing/table.csv", "table.csv"])
    def test_unwritable_output_is_parameter_error(self, tmp_path, capsys, target):
        # a missing directory, or a directory where the file should go, was
        # an OSError traceback (exit 1); the temporary file is removed
        (tmp_path / "table.csv").mkdir()
        assert run_cli("pmf", "--nmax", "5", "--out", str(tmp_path / target)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("fracppk: parameter error: cannot write ")
        assert captured.err.count("\n") == 1
        assert [p.name for p in tmp_path.rglob("*")] == ["table.csv"]


@pytest.fixture
def drawn(monkeypatch):
    """``(seed, stream, size)`` of every count sample the CLI draws."""
    real = fracppk.cli.sample_fractional_counts
    calls = []

    def recorded(params, variant, t, size, rng):
        calls.append((rng.seed, rng.stream, size))
        return real(params, variant, t, size, rng)

    monkeypatch.setattr(fracppk.cli, "sample_fractional_counts", recorded)
    return calls


class TestSampleCommand:
    def test_counts_csv(self, capsys):
        assert run_cli("sample", "-N", "50", "--seed", "3") == 0
        _, columns, rows = parse_csv(capsys.readouterr().out)
        assert columns == ["count"]
        assert len(rows) == 50
        assert all(int(r[0]) >= 0 for r in rows)

    def test_deterministic_across_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli(
                "sample", "--variant", "tf", "--beta", "0.7", "-N", "200",
                "--seed", "9", "--out", str(out),
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_thread_count_does_not_change_output(self, tmp_path, monkeypatch, drawn):
        # at 64 draws per stream N = 500 spans 8 streams, which 4 threads
        # draw out of order; the document must not change
        monkeypatch.setattr(fracppk.cli, "_STREAM_DRAWS", 64)
        outs = []
        for threads in ("1", "4"):
            monkeypatch.setenv("FRACPPK_THREADS", threads)
            out = tmp_path / f"t{threads}.csv"
            assert run_cli("sample", "-N", "500", "--seed", "11", "--out", str(out)) == 0
            outs.append(out.read_bytes())
            assert sorted(stream for _, stream, _ in drawn) == list(range(8))
            drawn.clear()
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("variant", [None, TimeFractional(0.7)])
    def test_one_stream_is_the_library_sample(self, variant):
        # up to _STREAM_DRAWS draws are one stream, RngStream(seed, 0)
        for size in (1, 300, fracppk.cli._STREAM_DRAWS):
            got = fracppk.cli._sample_chunks(P3, variant, 1.0, size, 9)
            want = sample_fractional_counts(P3, variant, 1.0, size, RngStream(9, 0))
            assert got.tobytes() == want.tobytes()

    def test_stream_ids_stay_below_the_verify_suites(self, monkeypatch, drawn):
        # martingale streams are (seed, 100 + i) and the negative control's
        # (seed, 900): however large N, a gof case draws from ids below 100,
        # in streams whose sizes differ by at most one
        monkeypatch.setattr(fracppk.cli, "_STREAM_DRAWS", 4)
        assert run_cli("verify", "--suite", "gof", "-N", "1001", "--seed", "20") in (0, 1)
        for seed in (20, 21, 22):
            case = [(stream, size) for s, stream, size in drawn if s == seed]
            assert sorted(stream for stream, _ in case) == list(range(100))
            sizes = [size for _, size in case]
            assert sum(sizes) == 1001 and max(sizes) - min(sizes) == 1

    def test_path_json(self, capsys):
        assert run_cli("sample", "--path", "--format", "json", "--seed", "4") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "event_path"
        times = doc["times"]
        assert times == sorted(times)
        assert all(1 <= m <= 3 for m in doc["marks"])

    def test_path_requires_base_variant(self, capsys):
        assert run_cli("sample", "--path", "--variant", "tf", "--beta", "0.5") == 2
        capsys.readouterr()

    def test_path_to_infinity_is_parameter_error(self, capsys):
        assert run_cli("sample", "--path", "-t", "inf") == 2
        capsys.readouterr()

    def test_path_beyond_int64_is_numerical_failure(self, capsys):
        # k lam t Poisson events past 2^62 are refused before numpy's Poisson
        # sampler sees them
        assert run_cli("sample", "--path", "-t", "1e20") == 3
        assert "int64" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [("-N", "0"), ("-N", "-5"), ("-t", "-1", "-N", "0")])
    def test_nonpositive_sample_size_is_parameter_error(self, argv, capsys):
        # no document is written for fewer than one draw, whatever the horizon
        assert run_cli("sample", *argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "parameter error" in captured.err

    def test_sampled_mean_sane(self, capsys):
        assert run_cli("sample", "-N", "2000", "--seed", "5") == 0
        _, _, rows = parse_csv(capsys.readouterr().out)
        counts = np.array([int(r[0]) for r in rows])
        assert abs(counts.mean() - 12.0) < 4.0 * counts.std(ddof=1) / np.sqrt(2000)


class TestFieldCommand:
    def test_csv_columns(self, capsys):
        assert run_cli("field", "--window", "0,0,2,1", "--seed", "6") == 0
        _, columns, rows = parse_csv(capsys.readouterr().out)
        assert columns == ["x1", "x2", "mark"]
        for row in rows:
            assert 0.0 <= float(row[0]) < 2.0
            assert 0.0 <= float(row[1]) < 1.0

    def test_json_window_echo(self, capsys):
        assert run_cli("field", "--format", "json", "--window", "0,0,1,1") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "field"
        assert doc["window_lo"] == [0.0, 0.0]
        assert doc["window_hi"] == [1.0, 1.0]

    def test_bad_window(self, capsys):
        assert run_cli("field", "--window", "0,0,1") == 2
        assert run_cli("field", "--window", "0,zebra,1,1") == 2
        assert run_cli("field", "--window", "0,0,inf,1") == 2
        assert run_cli("field", "--window", "0,nan,1,1") == 2
        capsys.readouterr()

    def test_window_beyond_int64_is_numerical_failure(self, capsys):
        assert run_cli("field", "--window", "0,0,1e10,1e10") == 3
        assert "int64" in capsys.readouterr().err


def document_payloads():
    """The payload of every document kind the CLI writes, from the objects
    that write them, and a few edge cases: (kind, params, payload)."""
    from fracppk import BoxRegion, MarkedEventPath, MarkedPointField, pmf_table, sample_field, sample_ppok_path

    counts = sample_fractional_counts(P3, SpaceFractional(0.7), 1.0, 5000, RngStream(3))
    table = pmf_table(P3, 1.0, 12, TimeFractional(0.7))
    windows = [BoxRegion((0.0,), (3.0,)), BoxRegion((0.0, 0.0), (2.0, 1.0)), BoxRegion((0.0,) * 3, (1.0,) * 3)]
    fields = [sample_field(P3, w, RngStream(4, i)) for i, w in enumerate(windows)]
    empty_field = MarkedPointField(np.empty((0, 2)), np.empty(0, dtype=np.int64), windows[1])
    return [
        ("samples", {"k": 3, "lam": 2.0, "seed": 3, "n": 5000}, {"counts": counts.tolist()}),
        ("event_path", {"k": 3, "seed": 0}, sample_ppok_path(P3, 2.0, RngStream(5)).json_payload()),
        ("event_path", {"k": 3}, MarkedEventPath([], [], 1.0).json_payload()),
        ("pmf_table", {"k": 3, "beta": 0.7, "variant": "tf"}, table.json_payload()),
        *[("field", {"window": str(f.window)}, f.json_payload()) for f in fields],
        ("field", {}, empty_field.json_payload()),
        (
            "edge",
            {"nested": {"a": [1, 2.5], "b": {}}, "flag": True, "none": None, "text": "a, [b]"},
            {
                "scalars": [True, None, "x],\n  [y", 1, -0.0, float("nan"), float("inf"), 1e300],
                "rows": [[1, 2.5], [3, -4.0]],
                "ragged": [[1], [2, 3], []],
                "mixed": [[True, 1], ["a"], [{"k": [1]}], (1, 2)],
                "tuples": ((0.5, 1.5), (2.5, 3.5)),
                "empty": [],
            },
        ),
    ]


class TestDocuments:
    @pytest.mark.parametrize("kind, params, payload", document_payloads(),
                             ids=lambda x: x if isinstance(x, str) else "")
    def test_json_document_is_the_indented_dump(self, kind, params, payload):
        # every list goes to the C encoder or is framed in Python, and the
        # document is the standard encoder's indented dump byte for byte
        doc = {"schema": 1, "version": fracppk.__version__, "kind": kind, "params": params, **payload}
        assert fracppk.cli._json_document(kind, params, payload) == json.dumps(doc, indent=2) + "\n"

    def test_samples_csv_is_one_count_per_line(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli("sample", "-N", "3000", "--seed", "8", "--out", str(out)) == 0
        counts = sample_fractional_counts(P3, None, 1.0, 3000, RngStream(8, 0))
        head = ["# fracppk " + fracppk.__version__, "# command: sample",
                "# k=3 lam=2.0 t=1.0 seed=8 variant=ppok n=3000", "count"]
        assert out.read_text() == "\n".join(head + [str(c) for c in counts]) + "\n"


class TestSharedOptions:
    @pytest.mark.parametrize(
        "argv",
        [("sample", "--seed", "-1"), ("sample", "--path", "--seed", "-2"), ("field", "--seed", "-3"),
         ("verify", "--seed", "-5"), ("verify", "--negative-control", "--seed", "-5")],
    )
    def test_negative_seed_is_parameter_error(self, argv, capsys):
        # numpy's SeedSequence refused it with a traceback (exit 1)
        assert run_cli(*argv) == 2
        assert "parameter error: seed must be an integer >= 0" in capsys.readouterr().err

    def test_negative_seed_is_refused_by_a_suite_that_draws_nothing(self, capsys):
        # the governing suite builds no stream, and exited 0 with two PASS lines
        assert run_cli("verify", "--suite", "governing", "--seed", "-1") == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["fracppk: parameter error: seed must be an integer >= 0, not -1"]

    @pytest.mark.parametrize(
        "argv, owner",
        [(("pmf",), fracppk.processes.PmfTable), (("sample", "--path"), fracppk.processes.MarkedEventPath),
         (("field",), fracppk.fields.MarkedPointField)],
    )
    @pytest.mark.parametrize("fmt, unused", [("csv", "json_payload"), ("json", "rows")])
    def test_only_the_asked_format_is_built(self, argv, owner, fmt, unused, monkeypatch, capsys):
        def refuse(self):
            raise AssertionError(f"{unused} built for --format {fmt}")

        monkeypatch.setattr(owner, unused, refuse)
        assert run_cli(*argv, "--format", fmt) == 0

    def test_choices_are_the_command_tables(self):
        # --variant lists the variant table's keys and --suite the suite table's, plus "all"
        commands = next(a for a in fracppk.cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))

        def choices(command, dest):
            return tuple(next(a.choices for a in commands.choices[command]._actions if a.dest == dest))

        assert choices("pmf", "variant") == choices("sample", "variant") == tuple(fracppk.cli._VARIANTS)
        assert choices("verify", "suite") == fracppk.cli._SUITES + ("all",)

    @pytest.mark.parametrize(
        "argv",
        [
            ("field", "--beta", "0.5"),
            ("verify", "--variant", "tf", "--suite", "governing"),
            ("sample", "--step", "0.01"),
            ("verify", "--suite", "governing", "--step", "0.01"),
        ],
    )
    def test_unread_option_is_usage_error(self, argv, capsys):
        # each subcommand registers only the options it reads, so an option
        # it would ignore is refused by argparse rather than silently dropped
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestVerifyCommand:
    def test_governing_suite_passes(self, capsys):
        assert run_cli("verify", "--suite", "governing") == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2
        assert "governing/tf" in out and "governing/sf" in out

    @pytest.mark.parametrize("t", ["1e-4", "1e-9", "1e-10", "1e-12"])
    def test_governing_suite_at_small_times(self, t, capsys):
        # the sf residual's one-sided step is set by the rate alone, so it
        # reads no time before t and does not shrink with t into rounding
        assert run_cli("verify", "--suite", "governing", "-t", t) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2
        assert "governing/tf" in out and "governing/sf" in out

    def test_governing_suite_fails_on_a_wrong_alpha_table(self, monkeypatch, capsys):
        # sf tables built at alpha = 0.71 do not solve the alpha = 0.7 equation
        real = fracppk.processes._rows

        def wrong_alpha(params, variant, *rest):
            if isinstance(variant, SpaceFractional):
                variant = SpaceFractional(0.71)
            return real(params, variant, *rest)

        monkeypatch.setattr(fracppk.processes, "_rows", wrong_alpha)
        assert run_cli("verify", "--suite", "governing") == 1
        out = capsys.readouterr().out
        assert "PASS governing/tf" in out and "FAIL governing/sf" in out

    def test_gof_gate_tracks_sample_size(self, capsys):
        # the TV gate is calibrated to 0.01 at N = 1e5 and widens like
        # 1/sqrt(N), so a correct sampler passes even at small N
        assert run_cli("verify", "--suite", "gof", "-N", "2000", "--seed", "12") == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3

    def test_gof_detects_biased_clock(self, monkeypatch, capsys):
        # a time-fractional sampler that reads its clock at 1.5 t is wrong;
        # the suite must flag that case and only that case
        real = fracppk.cli.sample_fractional_counts

        def biased(params, variant, t, size, rng):
            scale = 1.5 if isinstance(variant, TimeFractional) else 1.0
            return real(params, variant, scale * t, size, rng)

        monkeypatch.setattr(fracppk.cli, "sample_fractional_counts", biased)
        assert run_cli("verify", "--suite", "gof", "-N", "2000", "--seed", "12") == 1
        out = capsys.readouterr().out
        assert "FAIL gof/tf-0.7" in out
        assert "PASS gof/ppok" in out and "PASS gof/sf-0.7" in out

    def test_negative_control(self, capsys):
        assert run_cli("verify", "--negative-control", "-N", "4000", "--seed", "13") == 0
        out = capsys.readouterr().out
        assert "PASS negative-control" in out
        assert "deviates" in out

    def test_martingale_single_spec(self, capsys):
        assert run_cli(
            "verify", "--suite", "martingale", "--spec", "gamma", "-N", "3000",
            "--seed", "14",
        ) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 1 and "martingale/gamma" in out

    def test_martingale_paths_capped_and_reported(self, capsys):
        # -N above the cap draws 10,000 paths, and the line says so
        assert run_cli(
            "verify", "--suite", "martingale", "--spec", "gamma", "-N", "20000", "--seed", "5",
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS martingale/gamma: ") and out.endswith(", 10000 paths)\n")

    def test_rejects_nonpositive_sample_size(self, capsys):
        assert run_cli("verify", "--suite", "gof", "-N", "0") == 2
        capsys.readouterr()


class TestCachedParser:
    """``main`` parses with one parser per process; commands read the module at call time."""

    def test_parser_built_once(self, monkeypatch, capsys):
        real, calls = fracppk.cli.build_parser, []

        def counting():
            calls.append(None)
            return real()

        monkeypatch.setattr(fracppk.cli, "build_parser", counting)
        fracppk.cli._parser.cache_clear()
        try:
            for argv in (("pmf", "--nmax", "3"), ("sample", "-N", "5"), ("field",), ("pmf", "--nmax", "2")):
                assert run_cli(*argv) == 0
        finally:
            fracppk.cli._parser.cache_clear()
        capsys.readouterr()
        assert len(calls) == 1
        # a parser asked for by name is still a fresh one
        assert fracppk.cli.build_parser() is not fracppk.cli.build_parser()

    def test_patched_module_seen_after_first_call(self, monkeypatch, capsys):
        assert run_cli("pmf", "--nmax", "6") == 0

        def boom(*args, **kwargs):
            raise NonConvergence("series refused to converge")

        monkeypatch.setattr(fracppk.cli, "pmf_table", boom)
        assert run_cli("pmf", "--nmax", "6") == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_concurrent_commands_write_serial_bytes(self, tmp_path):
        # 8 commands on 4 threads, more than the cores, with a short switch
        # interval and a parser built by whichever thread comes first
        argvs = [
            ("pmf", "--variant", "tf", "--beta", "0.7", "--nmax", "30", "--format", "json"),
            ("pmf", "-k", "4", "-t", "0.8", "--variant", "tf", "--beta", "0.8", "--nmax", "40"),
            ("pmf", "-k", "2", "--variant", "sf", "--alpha", "0.7", "--nmax", "20"),
            ("pmf", "-k", "1", "-t", "0.5", "--nmax", "15", "--format", "json"),
            ("sample", "--variant", "tf", "--beta", "0.8", "-N", "300", "--seed", "5"),
            ("sample", "-k", "2", "--variant", "sf", "--alpha", "0.6", "-N", "2000", "--seed", "6"),
            ("sample", "--variant", "ttsf", "--alpha", "0.7", "--beta", "0.9", "--mu", "0.5", "-N", "300"),
            ("sample", "-k", "3", "-t", "2", "--path", "--seed", "7", "--format", "json"),
        ]
        for i, argv in enumerate(argvs):
            assert run_cli(*argv, "--out", str(tmp_path / f"serial{i}")) == 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        fracppk.cli._parser.cache_clear()
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(main, [*argv, "--out", str(tmp_path / f"pool{i}")])
                    for i, argv in enumerate(argvs)
                ]
                codes = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert codes == [0] * len(argvs)
        for i in range(len(argvs)):
            assert (tmp_path / f"pool{i}").read_bytes() == (tmp_path / f"serial{i}").read_bytes()


class TestEntryPoint:
    def test_version_flag(self):
        with pytest.raises(SystemExit) as info:
            run_cli("--version")
        assert info.value.code == 0

    def test_console_script(self):
        result = subprocess.run(
            [sys.executable, "-m", "fracppk.cli", "--version"],
            capture_output=True,
            text=True,
            env={**os.environ},
        )
        assert result.returncode == 0
        assert f"fracppk {fracppk.__version__}" in result.stdout

    def test_import_leaves_out_statistics_and_thread_pools(self):
        # the martingale threshold is a Newton quantile on math.erfc, and a
        # thread pool is imported only when more than one thread draws more
        # than one stream.  The samplers leave out numpy.ma, which the plain
        # np.unique(x) imports on its first call (about 9 ms) and the
        # return_inverse form does not
        code = (
            "import sys\n"
            "import fracppk.cli\n"
            "heavy = ('statistics', 'fractions', 'decimal', 'concurrent.futures', 'logging')\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n"
            "from fracppk import BoxRegion, OrderParams, RngStream, TimeFractional\n"
            "from fracppk import sample_field, sample_ppok_counts, sample_region_clocks\n"
            "sample_region_clocks(TimeFractional(0.7), [1.0, 2.0, 1.0], 100, RngStream(0))\n"
            "sample_field(OrderParams(3, 2.0), BoxRegion((0.0, 0.0), (2.0, 1.0)), RngStream(0))\n"
            "sample_ppok_counts(OrderParams(3, 2.0), 1.0, 1000, RngStream(0))\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ}
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["[]", "False"]

    def test_import_leaves_out_scipy_stats(self):
        # scipy (scipy.special alone took about 0.3 s) and mpmath stay out of
        # every start; mpmath is imported by the arbitrary-precision
        # escalation only
        code = (
            "import sys\n"
            "import fracppk\n"
            "print(sorted(m for m in ('scipy', 'mpmath') if m in sys.modules))\n"
            "import fracppk.cli\n"
            "print(sorted(m for m in ('scipy', 'mpmath') if m in sys.modules))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ}
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["[]", "[]"]
        # with scipy unimportable, a tf table and the gof suite still run
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from fracppk.cli import main\n"
            "assert main(['pmf', '--variant', 'tf', '--beta', '0.7', '--nmax', '6']) == 0\n"
            "assert main(['verify', '--suite', 'gof', '-N', '2000', '--seed', '12']) == 0\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ}
        )
        assert result.returncode == 0, result.stderr
