"""Corpus generation and the experiment-runner CLI contract."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin import cli
from vilenkin.analysis import convergence_sweep, lp_norm, records_to_csv
from vilenkin.corpus import corpus
from vilenkin.group import VilenkinBase
from vilenkin.summability import (
    dirichlet, fejer_kernel, kernel_for, norlund_kernel, t_kernel, weights_from_spec,
)
from vilenkin.transform import StepFunction, character_values

BASE232 = VilenkinBase.parse("2,3,2")
EXACT = 1e-12


class TestCorpus:
    def test_constant(self):
        f = corpus("constant", BASE232)
        np.testing.assert_array_equal(f.values, 1.0)
        assert lp_norm(f, 1) == pytest.approx(1.0, abs=EXACT)

    def test_spike_arithmetic(self):
        f = corpus("spike:2", BASE232)
        assert np.count_nonzero(f.values) == 2
        assert set(np.unique(f.values.real)) == {0.0, 6.0}
        assert lp_norm(f, 1) == pytest.approx(1.0, abs=EXACT)

    def test_character(self):
        f = corpus("character:3", BASE232)
        np.testing.assert_allclose(f.values, character_values(BASE232, 3), atol=EXACT)
        np.testing.assert_allclose(np.abs(f.values), 1.0, atol=EXACT)

    def test_coset_constant_on_cosets(self):
        f = corpus("coset:2", BASE232, seed=5)
        m_2 = BASE232.cumprod[2]
        for cid in range(m_2):
            members = np.arange(BASE232.size)[np.arange(BASE232.size) % m_2 == cid]
            assert len(set(f.values[members])) == 1

    def test_smooth2_depends_on_two_digits(self):
        base = VilenkinBase.parse("2,3,2,2")
        f = corpus("smooth2", base)
        digits = base.digit_table
        seen = {}
        for rank in range(base.size):
            key = (digits[rank, 0], digits[rank, 1])
            seen.setdefault(key, f.values[rank])
            assert f.values[rank] == seen[key]
        assert len({round(v.real, 12) for v in seen.values()}) > 1

    def test_random_seeded_and_bounded(self):
        f1 = corpus("random", BASE232, seed=3)
        f2 = corpus("random", BASE232, seed=3)
        np.testing.assert_array_equal(f1.values, f2.values)
        assert np.all(np.abs(f1.values) <= 1.0)
        assert not np.array_equal(corpus("random", BASE232, seed=4).values, f1.values)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            corpus("mystery", BASE232)
        with pytest.raises(ValueError):
            corpus("spike:x", BASE232)
        with pytest.raises(ValueError):
            corpus("smooth2", VilenkinBase.parse("4"))


class TestVerifyCommand:
    def test_small_base_passes(self, capsys):
        code = cli.main(["verify", "--base", "2,3,2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        assert "PASS orthonormality" in out

    def test_report_written(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = cli.main(["verify", "--base", "2,3", "--out", str(path)])
        capsys.readouterr()
        assert code == 0
        report = json.loads(path.read_text())
        assert report["passed"] is True
        assert any(c["name"] == "dirichlet_integral" for c in report["checks"])

    def test_check_names_and_order(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert cli.main(["verify", "--base", "2,3,2", "--out", str(path)]) == 0
        capsys.readouterr()
        names = [c["name"] for c in json.loads(path.read_text())["checks"]]
        assert names == [
            "orthonormality", "fast_vs_naive", "round_trip", "parseval",
            "convolution_direct_vs_spectral", "young_inequality",
            "dirichlet_integral", "dirichlet_complement",
            "abel_prefix_sum[constant]", "kernel_mass[constant]",
            "kernel_abel_identity[constant]", "mean_path_agreement[constant]",
            "block_kernel_split[constant]",
            "abel_prefix_sum[cesaro:0.5]", "kernel_mass[cesaro:0.5]",
            "kernel_abel_identity[cesaro:0.5]", "mean_path_agreement[cesaro:0.5]",
            "block_kernel_split[cesaro:0.5]",
            "abel_prefix_sum[valpha:0.5]", "kernel_mass[valpha:0.5]",
            "kernel_abel_identity[valpha:0.5]", "mean_path_agreement[valpha:0.5]",
            "block_kernel_split[valpha:0.5]",
            "abel_prefix_sum[riesz_log]", "kernel_mass[riesz_log]",
            "mean_path_agreement[riesz_log]",
            "abel_prefix_sum[norlund_log]", "kernel_mass[norlund_log]",
            "kernel_abel_identity[norlund_log]", "mean_path_agreement[norlund_log]",
            "abel_prefix_sum[blog:0.5:1]", "kernel_mass[blog:0.5:1]",
            "mean_path_agreement[blog:0.5:1]",
        ]

    def test_tolerance_failure_sets_exit_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "EXACT_TOL", -1.0)
        code = cli.main(["verify", "--base", "2,3"])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAIL" in captured.out
        assert "FAILED" in captured.err


class TestConvergeCommand:
    def test_deterministic_output_bytes(self, tmp_path, capsys):
        args = [
            "converge", "--base", "2,3,2", "--weights", "cesaro:0.5",
            "--corpus", "random", "--n", "1..6", "--p", "1,2,inf", "--seed", "9",
        ]
        outputs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            assert cli.main(args + ["--out", str(path)]) == 0
            outputs.append(path.read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]

    def test_stdout_csv_header(self, capsys):
        code = cli.main(["converge", "--base", "2,3", "--corpus", "constant", "--n", "1,2"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "mean_kind,n,p,error,point_rank,point_error"

    def test_n_range_validation(self, capsys):
        code = cli.main(["converge", "--base", "2,3", "--n", "1..99"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--points", "99", "point rank 99 outside [0, 6)"),
        ("--points", "-1", "point rank -1 outside [0, 6)"),
        ("--p", "nan", "norm exponent must be >= 1 or inf, got nan"),
    ], ids=["points-99", "points-minus-1", "p-nan"])
    def test_bad_points_and_exponents(self, flag, value, message, capsys):
        code = cli.main(["converge", "--base", "2,3", "--n", "1..2", flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert message in captured.err
        assert captured.out == ""

    def test_huge_range_rejected_before_it_is_built(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="outside"):
                cli.parse_n_list("1..2000000", 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"parse_n_list peaked at {peak} bytes"

    @pytest.mark.parametrize("text", ["0..4", "3..5000", "0", "4097", "5,1..4097"])
    def test_orders_outside_bounds(self, text):
        with pytest.raises(ValueError, match="outside"):
            cli.parse_n_list(text, 4096)

    def test_order_list_parsing(self):
        assert cli.parse_n_list("1..3, 8,2..2", 8) == [1, 2, 3, 8, 2]


class TestBenchCommand:
    def test_reports_speedup(self, capsys):
        code = cli.main(["bench", "--base", "2,2,2,2,2,2", "--reps", "3"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["m_n"] == 64
        assert report["fast_seconds"] > 0
        assert report["naive_seconds"] > 0
        assert report["speedup"] > 0


class TestKernelDumpCommand:
    def test_dirichlet_dump_matches_library(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        code = cli.main(["kernel-dump", "--base", "2,3,2", "--order", "6", "--out", str(path)])
        capsys.readouterr()
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "rank,re,im"
        assert len(lines) == 1 + 12

    def test_weighted_kernel_dump(self, tmp_path, capsys):
        path = tmp_path / "f.csv"
        code = cli.main([
            "kernel-dump", "--base", "2,3,2", "--order", "5",
            "--weights", "cesaro:0.5", "--out", str(path),
        ])
        capsys.readouterr()
        assert code == 0
        w = weights_from_spec("cesaro:0.5")
        expected = norlund_kernel(w, BASE232, 5).values
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        got = np.array([complex(float(r[1]), float(r[2])) for r in rows])
        np.testing.assert_array_equal(got, expected)

    def test_tmean_kind_requires_weights(self, capsys):
        code = cli.main(["kernel-dump", "--base", "2,3", "--order", "3", "--kind", "tmean"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestConfigAndUsage:
    def test_config_file_supplies_defaults_flags_win(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text("base=2,3\nn=1..3\ncorpus=random\nseed=7\n")

        def converge(name, *flags):
            out_path = tmp_path / name
            assert cli.main(["converge", *flags, "--out", str(out_path)]) == 0
            return out_path.read_text()

        got = converge("config.csv", "--config", str(config), "--n", "1..2")
        capsys.readouterr()
        body = got.splitlines()[1:]
        orders = {line.split(",")[1] for line in body}
        assert orders == {"1", "2"}  # flag overrode the config's 1..3
        # base, corpus and seed come from the config: no flag sets them
        flags = ("--corpus", "random", "--seed", "7", "--n", "1..2")
        assert got == converge("flags.csv", "--base", "2,3", *flags)
        assert got != converge("default-base.csv", *flags)

    def test_config_defaults_stay_in_their_run(self, tmp_path, capsys):
        # the shared argument tree never sees a config's defaults
        config = tmp_path / "exp.cfg"
        config.write_text("base=2,3\nn=1..3\ncorpus=random\nseed=7\n")
        first, second = tmp_path / "config.csv", tmp_path / "plain.csv"
        assert cli.main(["converge", "--config", str(config), "--out", str(first)]) == 0
        assert cli.main(["converge", "--out", str(second)]) == 0
        capsys.readouterr()
        expected = io.StringIO()
        f, w = corpus("smooth2", BASE232), weights_from_spec("constant")
        records = convergence_sweep(f, w, range(1, 13), [1, 2, math.inf], [0])
        records_to_csv(records, expected)
        assert second.read_text() == expected.getvalue()
        assert {line.split(",")[1] for line in first.read_text().splitlines()[1:]} == {"1", "2", "3"}

    def test_plain_calls_share_one_argument_tree(self, monkeypatch, capsys):
        built = []

        def counting():
            built.append(1)
            return real()

        real = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", counting)
        cli._parser.cache_clear()
        try:
            for _ in range(2):
                assert cli.main(["converge", "--n", "1..2"]) == 0
        finally:
            cli._parser.cache_clear()
        capsys.readouterr()
        assert built == [1]

    def test_config_file_sets_kernel_dump(self, tmp_path, capsys):
        config = tmp_path / "dump.cfg"
        config.write_text("base=2,3\nkind=fejer\norder=4\n")
        path = tmp_path / "k.csv"
        assert cli.main(["kernel-dump", "--config", str(config), "--out", str(path)]) == 0
        capsys.readouterr()
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        got = np.array([complex(float(r[1]), float(r[2])) for r in rows])
        np.testing.assert_array_equal(got, fejer_kernel(VilenkinBase.parse("2,3"), 4).values)

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("flavor=strawberry\n")
        code = cli.main(["verify", "--config", str(config)])
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("line, key", [("p=0.5", "p"), ("reps=9", "reps"), ("config=x", "config")])
    def test_config_key_of_another_subcommand(self, tmp_path, capsys, line, key):
        # a config sets only the options of its own subcommand, --config aside
        config = tmp_path / "other.cfg"
        config.write_text(line + "\n")
        assert cli.main(["verify", "--config", str(config)]) == 2
        assert f"unknown config key '{key}'" in capsys.readouterr().err

    def test_unknown_corpus_is_usage_error(self, capsys):
        code = cli.main(["converge", "--base", "2,3", "--corpus", "mystery"])
        assert code == 2

    def test_cap_enforced(self, capsys):
        code = cli.main(["verify", "--base", "2", "--depth", "13"])
        assert code == 2
        assert "exceeds the cap" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--base", "2", "--depth", "50000"],
        ["--base", ",".join(["2"] * 50000)],
    ], ids=["depth", "radix-list"])
    def test_deep_group_rejected_before_it_is_built(self, argv, capsys):
        # M_0..M_50000 would be Python ints of up to 50000 bits: quadratic memory
        tracemalloc.start()
        try:
            code = cli.main(["verify", *argv])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "M_N >= 2^50000 exceeds the cap 4096" in capsys.readouterr().err
        assert peak < 1 << 20, f"verify peaked at {peak} bytes"

    def test_bad_weight_spec(self, capsys):
        code = cli.main(["converge", "--base", "2,3", "--weights", "cesaro:2.0"])
        assert code == 2

    @pytest.mark.parametrize("weights", [",", "", " , "])
    def test_verify_needs_a_weight_family(self, weights, capsys):
        assert cli.main(["verify", "--base", "2", "--depth", "3", "--weights", weights]) == 2
        captured = capsys.readouterr()
        assert "names no weight family" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("spec", ["blog:inf:1", "blog:nan:1"])
    def test_non_finite_weight_parameter(self, spec, capsys):
        argv = ["converge", "--base", "2", "--depth", "4", "--weights", spec, "--n", "3..4"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert spec in captured.err and "finite alpha" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (["converge", "--base", "2", "--depth", "6", "--weights", "blog:300:1", "--n", "3..40"],
         "weight family blog:300:1: q_11 = inf is not finite"),
        (["verify", "--weights", "blog:1e308:1"],
         "weight family blog:1e+308:1: q_2 = inf is not finite"),
    ])
    def test_overflowing_weights_exit_2(self, argv, message, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_huge_beta_finishes(self, capsys):
        start = time.perf_counter()
        code = cli.main(["verify", "--base", "2", "--depth", "3", "--weights", "blog:0.5:100000000"])
        assert time.perf_counter() - start < 1.0
        assert code in (0, 2)


SMALL_RUNS = {
    "verify": ["--base", "2,3", "--weights", "constant"],
    "converge": ["--base", "2,3", "--n", "1..2"],
    "bench": ["--base", "2,2", "--reps", "1"],
    "kernel-dump": ["--base", "2,3", "--order", "3"],
}


def run_main(argv):
    """(exit code, stderr) of ``cli.main``; argparse's SystemExit counts as its code."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("base, code", [("2,3,2", 0), ("1", 2)])
def test_python_m_runs_from_an_uninstalled_checkout(base, code, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-m", "vilenkin", "verify", "--base", base],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    if code == 0:
        assert "FAIL" not in done.stdout and "PASS orthonormality" in done.stdout
    else:
        assert done.stderr.startswith("error:")


class TestFileErrors:
    @pytest.mark.parametrize("command", sorted(SMALL_RUNS))
    def test_unwritable_out(self, command, tmp_path):
        out = tmp_path / "missing" / "x"
        code, err = run_main([command, *SMALL_RUNS[command], "--out", str(out)])
        assert code == 2
        assert err.splitlines()[-1].startswith("error:") and str(out) in err
        assert "Traceback" not in err

    def test_directory_as_config(self, tmp_path):
        code, err = run_main(["converge", "--config", str(tmp_path)])
        assert code == 2
        assert err.startswith("error:") and str(tmp_path) in err


def _joined(elements, max_size=4):
    return st.lists(elements, min_size=1, max_size=max_size).map(
        lambda items: ",".join(map(str, items))
    )


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


JUNK = st.sampled_from(["", "x", "1.5", "-", " "])
WEIGHTS = ["constant", "cesaro:0.5", "valpha:0.5", "riesz_log", "norlund_log", "blog:0.5:1"]
BAD_WEIGHTS = st.sampled_from([
    "cesaro:2", "cesaro:0.5:1", "blog:0.5:1.5", "cesaro:abc", "valpha:1", "norlund_log:2",
    "mystery", "blog:nan:1", "cesaro:1e400", "", ",",
])
# (valid, malformed) values of each flag
COMMON_FLAGS = {
    "base": (_joined(st.integers(2, 4), max_size=3),
             st.one_of(_joined(st.integers(-1, 1)), JUNK, st.just("2,,3"))),
    "depth": (_ints(2, 4), st.one_of(_ints(-2, 0), st.just("64"), JUNK)),
    "cap": (st.sampled_from(["64", "256"]), st.one_of(st.sampled_from(["0", "-8"]), JUNK)),
    "seed": (_ints(0, 2**70), st.one_of(_ints(-3, -1), JUNK)),
}
COMMAND_FLAGS = {
    "verify": {
        "weights": (_joined(st.sampled_from(WEIGHTS), max_size=3),
                    st.tuples(BAD_WEIGHTS, st.sampled_from(WEIGHTS)).map(",".join)),
    },
    "converge": {
        "weights": (st.sampled_from(WEIGHTS), BAD_WEIGHTS),
        "corpus": (
            st.sampled_from(["smooth2", "random", "constant", "spike:2", "coset:1", "character:1"]),
            st.sampled_from(["spike:-1", "spike:x", "coset:99", "character:-1", "mystery", ""]),
        ),
        "n": (
            st.sampled_from(["2", "3", "2..3", "3,2,3"]),
            st.one_of(st.sampled_from(["0..3", "5..2", "1..x", "300", "1..300"]), JUNK),
        ),
        "p": (_joined(st.sampled_from(["1", "2", "3.5", "inf", "1e400"])),
              st.one_of(st.sampled_from(["0.5", "nan", "-inf", "1,0"]), JUNK)),
        "points": (_joined(st.integers(0, 1)), st.one_of(_ints(-3, -1), _ints(300, 400), JUNK)),
    },
    "bench": {"reps": (_ints(1, 3), st.one_of(_ints(-2, 0), JUNK))},
    "kernel-dump": {
        "weights": (st.sampled_from(WEIGHTS), BAD_WEIGHTS),
        "order": (_ints(1, 8), st.one_of(_ints(-3, 0), _ints(300, 400), JUNK)),
        "kind": (st.sampled_from(["auto", "dirichlet", "fejer", "norlund", "tmean"]),
                 st.just("bogus")),
    },
}


@st.composite
def cli_argv(draw, root):
    """A valid argv for one subcommand with at most one flag set to a malformed value.

    Every argv passes --cap <= 256, so no run builds a large group.
    """
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    flags = {
        **COMMON_FLAGS,
        **COMMAND_FLAGS[command],
        "out": (st.just(root / "out.txt"), st.just(root / "missing" / "out.txt")),
        "config": (None, st.sampled_from([root, root / "missing.cfg"])),
    }
    malformed = draw(st.one_of(st.none(), st.sampled_from(list(flags))))
    argv = [command, "--cap=256"]
    for name, (good, bad) in flags.items():
        if name == malformed:
            argv.append(f"--{name}={draw(bad)}")
        elif good is not None and draw(st.integers(0, 3)):  # a quarter keep the default
            argv.append(f"--{name}={draw(good)}")
    return argv


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_fuzzed_argv_exits_cleanly(fuzz_root, data):
    argv = data.draw(cli_argv(fuzz_root))
    code, err = run_main(argv)
    assert code in ({0, 1, 2} if argv[0] == "verify" else {0, 2}), (argv, code, err)
    if code == 2:
        assert err.strip(), argv
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, orders", [
    ([], range(1, 13)),  # the default --base 2,3,2 has M_N = 12
    (["--base", "2", "--depth", "5"], range(1, 17)),
], ids=["default-base", "M_N-32"])
def test_default_orders_fit_the_group(argv, orders, capsys):
    assert cli.main(["converge", *argv]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert sorted({int(row.split(",")[1]) for row in rows}) == list(orders)


def test_explicit_orders_past_the_group_still_fail(capsys):
    assert cli.main(["converge", "--n", "1..13"]) == 2
    assert "orders '1..13' outside [1, 12]" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["bench", "--reps", "x"], "argument --reps: expected an integer >= 1, got 'x'"),
    (["bench", "--reps", "-2"], "argument --reps: expected an integer >= 1, got '-2'"),
    (["verify", "--seed", "x"], "argument --seed: expected an integer >= 0, got 'x'"),
    (["verify", "--seed", "-1"], "argument --seed: expected an integer >= 0, got '-1'"),
    (["verify", "--cap", "x"], "argument --cap: invalid int value: 'x'"),
    (["kernel-dump", "--order", "x"], "argument --order: invalid int value: 'x'"),
    (["converge", "--n", "1..4", "--p", "x"], "--p 'x': expected comma-separated exponents"),
    (["converge", "--points", "x"], "--points 'x': expected comma-separated ranks"),
    (["converge", "--n", "1..x"], "--n '1..x': expected orders like 1..512 or 4,16,64"),
], ids=["reps-x", "reps-negative", "seed-x", "seed-negative", "cap-x", "order-x", "p-x",
        "points-x", "n-x"])
def test_numeric_flag_errors_name_the_flag(argv, message):
    code, err = run_main(argv)
    assert code == 2
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, line, message", [
    ("verify", "seed=-1", "argument --seed: expected an integer >= 0, got '-1'"),
    ("bench", "reps=0", "argument --reps: expected an integer >= 1, got '0'"),
], ids=["seed", "reps"])
def test_config_values_get_the_flag_checks(command, line, message, tmp_path):
    config = tmp_path / "numbers.cfg"
    config.write_text(line + "\n")
    code, err = run_main([command, "--config", str(config)])
    assert code == 2
    assert message in err


class TestKernelDumpErrors:
    def test_unknown_kind_from_config(self, tmp_path):
        # argparse checks --kind against its choices, but not a config default
        config = tmp_path / "bogus.cfg"
        config.write_text("kind=bogus\norder=3\n")
        code, err = run_main(["kernel-dump", "--config", str(config)])
        assert code == 2
        assert "unknown kernel kind 'bogus'" in err

    @pytest.mark.parametrize("order", ["0", "13"])
    def test_order_outside_the_group(self, order):
        code, err = run_main(["kernel-dump", "--base", "2,3,2", "--order", order])
        assert code == 2
        assert f"kernel order {order} outside [1, 12]" in err

    def test_weighted_kind_without_weights(self):
        code, err = run_main(["kernel-dump", "--base", "2,3,2", "--order", "7", "--kind", "tmean"])
        assert code == 2
        assert "kernel kind 'tmean' needs --weights" in err


@pytest.mark.parametrize("kind, spec, build", [
    ("auto", None, lambda w: dirichlet(BASE232, 7)),
    ("auto", "cesaro:0.5", lambda w: kernel_for(w, BASE232, 7)),
    ("auto", "riesz_log", lambda w: kernel_for(w, BASE232, 7)),
    ("dirichlet", "valpha:0.5", lambda w: dirichlet(BASE232, 7)),
    ("fejer", None, lambda w: fejer_kernel(BASE232, 7)),
    ("norlund", "valpha:0.5", lambda w: norlund_kernel(w, BASE232, 7)),
    ("tmean", "riesz_log", lambda w: t_kernel(w, BASE232, 7)),
], ids=["auto", "auto-norlund", "auto-tmean", "dirichlet", "fejer", "norlund", "tmean"])
def test_every_kernel_kind_matches_its_builder(kind, spec, build, tmp_path, capsys):
    path = tmp_path / "k.csv"
    argv = ["kernel-dump", "--base", "2,3,2", "--order", "7", "--kind", kind, "--out", str(path)]
    assert cli.main(argv + (["--weights", spec] if spec else [])) == 0
    capsys.readouterr()
    expected = build(weights_from_spec(spec) if spec else None).values
    np.testing.assert_array_equal(StepFunction.from_csv(BASE232, path).values, expected)
